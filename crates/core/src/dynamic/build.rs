//! Building the new group graphs from the old ones (§III-A).
//!
//! For every new leader `w` and each side `s ∈ {1,2}` of the epoch:
//!
//! * **membership**: slot `i` targets the point `h_s(w, i)`; a
//!   bootstrapping group searches for its successor in *both* old graphs.
//!   If both search paths fail, the adversary controls the result and
//!   captures the slot (Lemma 7, first failure mode). If a search
//!   succeeds, the slot gets the true successor — which is itself bad
//!   with probability `≈ β` (Lemma 6, the second failure mode). The
//!   solicited ID then *verifies* with its own dual searches and may
//!   erroneously reject if both fail.
//! * **neighbors**: each topology link of `G_w` is located and verified
//!   with dual searches; if a required link cannot be established, `G_w`
//!   is *confused* (Lemma 8) and therefore red.
//!
//! The single-graph ablation ([`BuildMode::SingleGraph`]) replaces every
//! dual search with one search in one old graph — per-slot failure `q_f`
//! instead of `q_f²` — which is exactly the compounding-error design the
//! paper warns against; experiment E4 shows it diverge.
//!
//! This module holds the protocol's search primitives and counters; the
//! build loop itself runs on the arena layout (`crate::arena`).

use crate::graph::GroupGraphView;
use crate::routing::search_path;
use rand::rngs::StdRng;
use rand::Rng;
use tg_idspace::Id;
use tg_sim::Metrics;

/// Whether construction uses the paper's two-graph dual searches or the
/// naive single-graph hand-off (ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildMode {
    /// The paper: two old graphs, every protocol search done in both.
    DualGraph,
    /// Ablation: one old graph, single searches.
    SingleGraph,
}

impl BuildMode {
    /// Number of group graphs per epoch under this mode.
    pub fn sides(&self) -> usize {
        match self {
            BuildMode::DualGraph => 2,
            BuildMode::SingleGraph => 1,
        }
    }
}

/// Counters from one epoch's construction (the Lemma 6/7/8/10 events).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Membership slots attempted.
    pub member_slots: u64,
    /// Slots captured by the adversary (all construction searches failed).
    pub captured_slots: u64,
    /// Slots whose (honest) successor was a bad ID (Lemma 6).
    pub bad_member_draws: u64,
    /// Slots lost to erroneous verification rejection.
    pub rejected_slots: u64,
    /// Topology links required.
    pub links_required: u64,
    /// Links that could not be established (group confused).
    pub links_failed: u64,
    /// Spurious adversarial requests accepted by good IDs (Lemma 10).
    pub spurious_accepted: u64,
    /// Spurious adversarial requests issued.
    pub spurious_issued: u64,
}

impl BuildStats {
    /// Merge counters from another build.
    pub fn merge(&mut self, o: &BuildStats) {
        self.member_slots += o.member_slots;
        self.captured_slots += o.captured_slots;
        self.bad_member_draws += o.bad_member_draws;
        self.rejected_slots += o.rejected_slots;
        self.links_required += o.links_required;
        self.links_failed += o.links_failed;
        self.spurious_accepted += o.spurious_accepted;
        self.spurious_issued += o.spurious_issued;
    }
}

/// Pick a bootstrapping group: a u.a.r. *blue* group of the given old
/// graph (the paper assumes joiners know a good bootstrap group,
/// Appendix IX). Returns `None` when the graph has no blue group left.
///
/// The draw count depends only on the RNG stream and the old graph's
/// colors.
pub(crate) fn pick_boot<G: GroupGraphView>(old: &G, rng: &mut StdRng) -> Option<usize> {
    // Rejection sampling: expected O(1) tries while most groups are blue;
    // fall back to a scan when the graph is badly degraded.
    for _ in 0..32 {
        let i = rng.gen_range(0..old.len());
        if !old.is_red(i) {
            return Some(i);
        }
    }
    let blues = old.blue_indices();
    if blues.is_empty() {
        None
    } else {
        Some(blues[rng.gen_range(0..blues.len())])
    }
}

/// One protocol search for `point` in old graph `old`, initiated from a
/// bootstrap (or the verifier's own group). Success means the search path
/// stayed blue.
pub(crate) fn protocol_search<G: GroupGraphView>(
    old: &G,
    from: Option<usize>,
    point: Id,
    metrics: &mut Metrics,
) -> bool {
    match from {
        None => false,
        Some(idx) => search_path(old, idx, point, metrics).is_success(),
    }
}

/// Dual (or single, per mode) search across the old graphs. `from[s]` is
/// the initiating group index in old graph `s`. Short-circuits after the
/// first success (`any`) — the skipped second search never reaches
/// [`Metrics`].
pub(crate) fn construction_search<G: GroupGraphView>(
    olds: &[G],
    from: &[Option<usize>],
    point: Id,
    metrics: &mut Metrics,
) -> bool {
    olds.iter().zip(from.iter()).any(|(g, &f)| protocol_search(g, f, point, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{build_new_arena, ArenaGraphs};
    use crate::params::Params;
    use crate::population::Population;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    /// Trusted-bootstrap graphs over `n_good + n_bad` IDs, then one build
    /// of an equally sized next generation through them. `degrade` runs
    /// on the old graphs before the build.
    fn build_next(
        n_good: usize,
        n_bad: usize,
        seed: u64,
        mode: BuildMode,
        degrade: impl FnOnce(&mut ArenaGraphs),
    ) -> (ArenaGraphs, BuildStats, Metrics, Params) {
        let params = Params::paper_defaults();
        let fam = OracleFamily::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let mut olds = ArenaGraphs::initial(pop, GraphKind::D2B, &fam, mode, &params, None);
        degrade(&mut olds);
        let new_pop = Population::uniform(n_good, n_bad, &mut rng);
        let mut m = Metrics::new();
        let (news, stats) = build_new_arena(
            &olds,
            &new_pop,
            GraphKind::D2B,
            &fam,
            &params,
            mode,
            None,
            &mut rng,
            &mut m,
        );
        (news, stats, m, params)
    }

    #[test]
    fn builds_one_group_per_new_leader() {
        let (news, stats, m, params) = build_next(400, 20, 1, BuildMode::DualGraph, |_| {});
        assert_eq!(news.sides(), 2);
        for g in news.view().iter() {
            assert_eq!(g.len(), 420);
        }
        assert_eq!(stats.member_slots, 2 * 420 * params.draws(420) as u64);
        assert!(m.searches > 0, "construction must go through searches");
    }

    #[test]
    fn clean_old_graphs_build_clean_new_graphs() {
        // No adversary anywhere: nothing can be captured, rejected, or
        // confused.
        let (news, stats, _, _) = build_next(300, 0, 3, BuildMode::DualGraph, |_| {});
        assert_eq!(stats.captured_slots, 0);
        assert_eq!(stats.rejected_slots, 0);
        assert_eq!(stats.bad_member_draws, 0);
        assert_eq!(stats.links_failed, 0);
        assert_eq!(stats.spurious_accepted, 0);
        for g in news.view().iter() {
            assert_eq!(g.frac_red(), 0.0);
        }
    }

    #[test]
    fn bad_member_rate_tracks_beta() {
        // β ≈ 0.048
        let (_, stats, _, _) = build_next(1000, 50, 5, BuildMode::DualGraph, |_| {});
        let rate = stats.bad_member_draws as f64 / stats.member_slots as f64;
        assert!((0.02..0.09).contains(&rate), "bad-draw rate {rate:.3} vs β ≈ 0.048");
    }

    #[test]
    fn single_mode_builds_one_side() {
        let (news, _, _, _) = build_next(200, 10, 7, BuildMode::SingleGraph, |_| {});
        assert_eq!(news.sides(), 1);
    }

    #[test]
    fn degraded_old_graphs_capture_slots() {
        // Every old member departs, so every old group is red: every
        // construction search fails, every slot is captured and every
        // link fails.
        let (news, stats, _, _) = build_next(150, 10, 9, BuildMode::DualGraph, |olds| {
            for i in 0..olds.pool.len() {
                olds.pool.mark_departed(i);
            }
            olds.recolor();
        });
        assert_eq!(stats.captured_slots, stats.member_slots);
        assert_eq!(stats.links_failed, stats.links_required);
        for g in news.view().iter() {
            assert_eq!(g.frac_red(), 1.0, "wholly adversarial construction");
        }
    }
}
