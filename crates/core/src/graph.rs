//! The group graph `G` (§II-A).
//!
//! For an input graph `H` over the leader ring, the group graph has one
//! group per ID (S1). Each group is **blue** or **red**:
//!
//! * *red* — the group is bad (no good majority among its live members)
//!   or *confused* (its neighbor links differ from the topology's
//!   linking rules — the Lemma 8 failure mode),
//! * *blue* — good and correctly linked.
//!
//! Edges incident to blue groups follow `H` (S3): the good majority keeps
//! a blue group's neighbor knowledge consistent, so the adversary cannot
//! rewire it — it can only rewire among red groups, which never helps a
//! search that (by the search-path semantics) dies at the first red group
//! anyway.

use crate::arena::{ArenaGraphs, ArenaSideRef};
use crate::group::Group;
use crate::params::Params;
use crate::population::Population;
use tg_overlay::InputGraph;

/// Blue/red classification of a group (§II-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Color {
    /// Good majority and correct neighbor set.
    Blue,
    /// Bad majority, dead, or confused.
    Red,
}

/// A group graph: groups over a leader ring, members from a pool
/// generation, atop an input-graph topology.
pub struct GroupGraph {
    /// The current generation: leaders / vertices of the graph.
    pub leaders: Population,
    /// The member pool (previous generation in the dynamic case; the
    /// same generation for initial/static graphs).
    pub pool: Population,
    /// One group per leader, indexed by leader ring index.
    pub groups: Vec<Group>,
    /// Whether each group's neighbor links are incorrect (Lemma 8).
    pub confused: Vec<bool>,
    /// The input-graph topology `H` over the leader ring.
    pub topology: Box<dyn InputGraph>,
    colors: Vec<Color>,
}

impl GroupGraph {
    /// Assemble a group graph and compute its coloring.
    pub fn new(
        leaders: Population,
        pool: Population,
        groups: Vec<Group>,
        confused: Vec<bool>,
        topology: Box<dyn InputGraph>,
    ) -> Self {
        assert_eq!(groups.len(), leaders.len(), "one group per leader");
        assert_eq!(confused.len(), groups.len());
        let mut gg = GroupGraph { leaders, pool, groups, confused, topology, colors: Vec::new() };
        gg.recolor();
        gg
    }

    /// Number of groups (= number of leaders).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Recompute all colors (after churn or link updates).
    pub fn recolor(&mut self) {
        self.colors = (0..self.groups.len())
            .map(|i| {
                if self.groups[i].has_good_majority(&self.pool) && !self.confused[i] {
                    Color::Blue
                } else {
                    Color::Red
                }
            })
            .collect();
    }

    /// The color of group `i`.
    #[inline]
    pub fn color(&self, i: usize) -> Color {
        self.colors[i]
    }

    /// Whether group `i` is red.
    #[inline]
    pub fn is_red(&self, i: usize) -> bool {
        self.colors[i] == Color::Red
    }

    /// The live size of group `i` (for message accounting).
    #[inline]
    pub fn group_size(&self, i: usize) -> usize {
        self.groups[i].size(&self.pool)
    }

    /// Fraction of red groups — the quantity `pf` bounds (S2).
    pub fn frac_red(&self) -> f64 {
        let red = self.colors.iter().filter(|&&c| c == Color::Red).count();
        red as f64 / self.colors.len().max(1) as f64
    }

    /// Fraction of groups with a good majority (Theorem 3, first bullet,
    /// operational reading).
    pub fn frac_good_majority(&self) -> f64 {
        let good = self.groups.iter().filter(|g| g.has_good_majority(&self.pool)).count();
        good as f64 / self.groups.len().max(1) as f64
    }

    /// Fraction of groups meeting the paper's §I-C invariant (size range
    /// and `(1+δ)β` bad bound).
    pub fn frac_paper_invariant(&self, params: &Params) -> f64 {
        let n = self.leaders.len();
        let ok =
            self.groups.iter().filter(|g| g.meets_paper_invariant(&self.pool, params, n)).count();
        ok as f64 / self.groups.len().max(1) as f64
    }

    /// Fraction of confused groups.
    pub fn frac_confused(&self) -> f64 {
        let c = self.confused.iter().filter(|&&x| x).count();
        c as f64 / self.confused.len().max(1) as f64
    }

    /// Mean live group size.
    pub fn mean_group_size(&self) -> f64 {
        let total: usize = (0..self.len()).map(|i| self.group_size(i)).sum();
        total as f64 / self.len().max(1) as f64
    }

    /// Leader-ring indices of all blue groups.
    pub fn blue_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.is_red(i)).collect()
    }
}

/// Read access to one side's group graph, independent of storage layout.
///
/// Two layouts implement it: the per-group [`GroupGraph`] (one
/// `Vec<u32>` member list per group — the static and initial graphs)
/// and the epoch kernel's SoA columns ([`crate::arena::ArenaGraphs`],
/// one contiguous member column per side with CSR offsets). Everything
/// that *reads* a group graph — search paths, robustness measurement,
/// construction bootstraps, string agreement, adversary observation —
/// goes through this trait, so the two layouts share the same reading
/// code.
///
/// The provided methods derive every aggregate fraction from the four
/// per-group primitives, mirroring the corresponding [`GroupGraph`]
/// inherent methods exactly.
pub trait GroupGraphView {
    /// Number of groups (= number of leaders).
    fn len(&self) -> usize;
    /// Whether group `i` is red (bad majority, dead, or confused).
    fn is_red(&self, i: usize) -> bool;
    /// Live size of group `i` (live members plus captured slots).
    fn group_size(&self, i: usize) -> usize;
    /// Live bad members of group `i`, including captured slots.
    fn group_bad_count(&self, i: usize) -> usize;
    /// Whether group `i`'s neighbor links are incorrect (Lemma 8).
    fn is_confused(&self, i: usize) -> bool;
    /// The member column of group `i`: pool ring indices, sorted and
    /// deduplicated (live and departed members alike — filter through
    /// [`GroupGraphView::pool`] for liveness).
    fn group_members(&self, i: usize) -> &[u32];
    /// Adversary-captured slots of group `i` (slots whose dual searches
    /// both failed and were claimed by bad pool members).
    fn captured_slots(&self, i: usize) -> u32;
    /// The leader generation (vertices of the graph).
    fn leaders(&self) -> &Population;
    /// The member pool generation.
    fn pool(&self) -> &Population;
    /// The input-graph topology `H` over the leader ring.
    fn topology(&self) -> &dyn InputGraph;

    /// Whether the graph has no groups.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether group `i` has strictly more live good members than bad.
    fn has_good_majority(&self, i: usize) -> bool {
        let size = self.group_size(i);
        let bad = self.group_bad_count(i);
        size > 0 && 2 * bad < size
    }

    /// Fraction of red groups — the quantity `pf` bounds (S2).
    fn frac_red(&self) -> f64 {
        let red = (0..self.len()).filter(|&i| self.is_red(i)).count();
        red as f64 / self.len().max(1) as f64
    }

    /// Fraction of groups with a good majority.
    fn frac_good_majority(&self) -> f64 {
        let good = (0..self.len()).filter(|&i| self.has_good_majority(i)).count();
        good as f64 / self.len().max(1) as f64
    }

    /// Fraction of groups meeting the paper's §I-C invariant.
    fn frac_paper_invariant(&self, params: &Params) -> f64 {
        let n = self.leaders().len();
        let ok = (0..self.len())
            .filter(|&i| {
                let size = self.group_size(i);
                if size < params.min_good_size(n) || size > params.draws(n) + 1 {
                    return false;
                }
                (self.group_bad_count(i) as f64) <= params.max_bad_members(size)
            })
            .count();
        ok as f64 / self.len().max(1) as f64
    }

    /// Fraction of confused groups.
    fn frac_confused(&self) -> f64 {
        let c = (0..self.len()).filter(|&i| self.is_confused(i)).count();
        c as f64 / self.len().max(1) as f64
    }

    /// Mean live group size.
    fn mean_group_size(&self) -> f64 {
        let total: usize = (0..self.len()).map(|i| self.group_size(i)).sum();
        total as f64 / self.len().max(1) as f64
    }

    /// Leader-ring indices of all blue groups.
    fn blue_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.is_red(i)).collect()
    }
}

impl GroupGraphView for GroupGraph {
    fn len(&self) -> usize {
        self.groups.len()
    }

    fn is_red(&self, i: usize) -> bool {
        self.colors[i] == Color::Red
    }

    fn group_size(&self, i: usize) -> usize {
        self.groups[i].size(&self.pool)
    }

    fn group_bad_count(&self, i: usize) -> usize {
        self.groups[i].bad_count(&self.pool)
    }

    fn is_confused(&self, i: usize) -> bool {
        self.confused[i]
    }

    fn group_members(&self, i: usize) -> &[u32] {
        &self.groups[i].members
    }

    fn captured_slots(&self, i: usize) -> u32 {
        self.groups[i].captured_slots
    }

    fn leaders(&self) -> &Population {
        &self.leaders
    }

    fn pool(&self) -> &Population {
        &self.pool
    }

    fn topology(&self) -> &dyn InputGraph {
        self.topology.as_ref()
    }

    // Delegate the aggregates to the color-cache-backed inherent methods:
    // identical results, one array lookup instead of a member scan.
    fn frac_red(&self) -> f64 {
        GroupGraph::frac_red(self)
    }

    fn frac_good_majority(&self) -> f64 {
        GroupGraph::frac_good_majority(self)
    }

    fn frac_paper_invariant(&self, params: &Params) -> f64 {
        GroupGraph::frac_paper_invariant(self, params)
    }

    fn frac_confused(&self) -> f64 {
        GroupGraph::frac_confused(self)
    }

    fn mean_group_size(&self) -> f64 {
        GroupGraph::mean_group_size(self)
    }

    fn blue_indices(&self) -> Vec<usize> {
        GroupGraph::blue_indices(self)
    }
}

/// A borrowed view of one epoch's operational graphs — what
/// [`crate::dynamic::AdversaryView`] exposes to strategies and what
/// [`crate::scenario::EpochDriver::graphs`] returns. Empty at genesis.
///
/// `Copy`, so provider wrappers (`WithEpochString`, the PoW pipeline's
/// re-wrapping) can forward it without lifetime gymnastics.
#[derive(Clone, Copy)]
pub struct GraphsView<'a>(pub(crate) Option<&'a ArenaGraphs>);

impl<'a> GraphsView<'a> {
    /// The view of no graphs at all (genesis: nothing to observe).
    pub fn empty() -> GraphsView<'static> {
        GraphsView(None)
    }

    /// Number of sides (2 dual, 1 single-graph ablation, 0 at genesis).
    pub fn sides(&self) -> usize {
        self.0.map_or(0, ArenaGraphs::sides)
    }

    /// Whether there are no graphs to observe.
    pub fn is_empty(&self) -> bool {
        self.sides() == 0
    }

    /// The view of side `s`.
    ///
    /// # Panics
    /// Panics when `s` is not a side of the view (every `s` at genesis).
    pub fn side(&self, s: usize) -> ArenaSideRef<'a> {
        self.0.expect("the genesis view has no sides").side(s)
    }

    /// Iterate over the sides.
    pub fn iter(&self) -> impl Iterator<Item = ArenaSideRef<'a>> {
        let this = *self;
        (0..this.sides()).map(move |s| this.side(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tg_overlay::GraphKind;

    fn tiny_graph() -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let leaders = Population::uniform(16, 4, &mut rng);
        let pool = leaders.clone();
        // Group i = {i, i+1, i+2} mod 20 — deterministic membership for
        // the test.
        let n = leaders.len();
        let groups: Vec<Group> = (0..n)
            .map(|i| {
                Group::new(i as u32, vec![i as u32, ((i + 1) % n) as u32, ((i + 2) % n) as u32], 0)
            })
            .collect();
        let topology = GraphKind::Chord.build(leaders.ring().clone());
        GroupGraph::new(leaders, pool, groups, vec![false; n], topology)
    }

    #[test]
    fn colors_follow_majority() {
        let gg = tiny_graph();
        for i in 0..gg.len() {
            let expect =
                if gg.groups[i].has_good_majority(&gg.pool) { Color::Blue } else { Color::Red };
            assert_eq!(gg.color(i), expect);
        }
    }

    #[test]
    fn confusion_makes_red() {
        let mut gg = tiny_graph();
        let blue = gg.blue_indices()[0];
        gg.confused[blue] = true;
        gg.recolor();
        assert!(gg.is_red(blue));
    }

    #[test]
    fn fractions_are_consistent() {
        let gg = tiny_graph();
        assert!(gg.frac_red() >= 0.0 && gg.frac_red() <= 1.0);
        assert!(
            (gg.frac_red() + gg.blue_indices().len() as f64 / gg.len() as f64 - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn churn_recolor_flips_groups() {
        let mut gg = tiny_graph();
        let before = gg.frac_good_majority();
        // Depart most good pool members.
        let mut rng = StdRng::seed_from_u64(9);
        gg.pool.depart_good_fraction(0.9, &mut rng);
        gg.recolor();
        let after = gg.frac_good_majority();
        assert!(after < before, "mass departures must hurt: {before} -> {after}");
    }
}
