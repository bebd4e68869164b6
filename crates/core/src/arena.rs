//! The §III epoch kernel: [`DynamicSystem`] runs churn → build →
//! measure → swap on flat SoA group storage, sized for
//! million-identity epochs.
//!
//! Each side's groups live in one contiguous arena instead of one
//! heap-allocated member `Vec` per group:
//!
//! ```text
//!              group 0      group 1    group 2
//!            ┌──────────┬────────────┬─────────┬─ ─ ─
//!   members  │ 3 17 901 │ 4 17 88 90 │ 2 5     │ ...     (u32 column,
//!            └──────────┴────────────┴─────────┴─ ─ ─     sorted+deduped
//!   offsets  0          3            7         9           per range)
//!
//!   captured [ 0, 1, 0, ... ]   (u32 per group)
//!   confused [ f, f, t, ... ]   (bool per group)
//!   colors   [ B, B, R, ... ]   (recomputed per epoch)
//! ```
//!
//! Group `i`'s members are `members[offsets[i]..offsets[i+1]]` — a CSR
//! range scan instead of a `Vec` dereference. The leader/pool populations
//! and the topology are shared per epoch rather than cloned per side.
//!
//! **Determinism contract.** [`DynamicSystem::advance_epoch`] draws its
//! labelled RNG streams in a fixed order, so an epoch is a pure function
//! of the seed for any thread count (the committed seed-42 goldens pin
//! the exact draw order):
//!
//! * membership bootstrap picks are unconditional per slot and precede
//!   each leader's link-phase draws, so they are pre-drawn into a flat
//!   column in pass 1;
//! * construction searches consume no randomness, so pass 2 fans the
//!   whole slot column out over [`tg_sim::parallel_map`] blocks and folds
//!   the per-slot outcomes back in slot order — [`tg_sim::Metrics`] and
//!   [`BuildStats`] are additive sums, so totals are exact for any
//!   thread count;
//! * link-phase draws are conditional on link-search outcomes, so the
//!   link loop stays inline in pass 1;
//! * measurement pre-draws its `(initiator, key)` sample and uses the
//!   chunked fan-out of [`crate::robustness::measure_robustness_chunked`].

use crate::dynamic::adversary::AdversaryView;
use crate::dynamic::build::{construction_search, pick_boot, BuildMode, BuildStats};
use crate::dynamic::provider::IdentityProvider;
use crate::dynamic::system::EpochReport;
use crate::graph::{Color, GraphsView, GroupGraphView};
use crate::params::Params;
use crate::population::Population;
use crate::robustness::{measure_dual_success_chunked, measure_robustness_chunked};
use rand::rngs::StdRng;
use rand::Rng;
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_overlay::{GraphKind, InputGraph};
use tg_sim::{parallel_map, parallel_map_chunked, stream_rng, Metrics};

/// Slots per parallel work block in the membership fan-out. Block
/// boundaries only affect scheduling — results are folded in slot order,
/// so any block size yields bit-identical epochs.
const SLOT_BLOCK: usize = 2048;

/// One side's groups in CSR layout (see the module docs for the layout
/// diagram).
pub struct ArenaSide {
    /// `offsets[i]..offsets[i+1]` is group `i`'s member range.
    offsets: Vec<u32>,
    /// Concatenated member columns, sorted and deduplicated per range.
    members: Vec<u32>,
    /// Captured slots per group (adversarial plants outside the pool).
    captured: Vec<u32>,
    /// Whether each group's links are incorrect (Lemma 8).
    confused: Vec<bool>,
    /// Blue/red classification, recomputed by [`ArenaGraphs::recolor`].
    colors: Vec<Color>,
}

impl ArenaSide {
    /// Number of groups on this side.
    pub fn len(&self) -> usize {
        self.captured.len()
    }

    /// Whether the side has no groups.
    pub fn is_empty(&self) -> bool {
        self.captured.is_empty()
    }

    /// Group `i`'s member column (pool ring indices, sorted).
    #[inline]
    fn group_members(&self, i: usize) -> &[u32] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One epoch's operational graphs in arena layout: shared leader/pool
/// populations and topology, plus one [`ArenaSide`] per side.
pub struct ArenaGraphs {
    /// The current generation: leaders / vertices of the graphs.
    pub leaders: Population,
    /// The member pool (previous generation). One physical population
    /// that every side shares.
    pub pool: Population,
    /// The input-graph topology `H` over the leader ring. A pure function
    /// of the ring, so one instance serves every side.
    topology: Box<dyn InputGraph>,
    /// The per-side group columns.
    sides: Vec<ArenaSide>,
}

impl ArenaGraphs {
    /// The trusted-bootstrap graphs over one population (`G⁰₁, G⁰₂`; the
    /// paper's Appendix X initialization assumption): group `w` is `w`
    /// itself plus the successors of its `draws` membership points.
    /// `capacity` pre-sizes each member column.
    pub(crate) fn initial(
        pop: Population,
        kind: GraphKind,
        fam: &OracleFamily,
        mode: BuildMode,
        params: &Params,
        capacity: Option<usize>,
    ) -> ArenaGraphs {
        let n = pop.len();
        let draws = params.draws(n);
        let cap = capacity.unwrap_or(n * (draws + 1));
        let topology = kind.build(pop.ring().clone());
        let sides: Vec<ArenaSide> = (0..mode.sides())
            .map(|s| {
                let oracle = fam.membership(if mode == BuildMode::SingleGraph { 0 } else { s });
                let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
                let mut members: Vec<u32> = Vec::with_capacity(cap);
                offsets.push(0);
                let mut buf: Vec<u32> = Vec::with_capacity(draws + 1);
                for w in 0..n {
                    let wid = pop.ring().at(w);
                    buf.clear();
                    buf.push(w as u32);
                    for i in 0..draws {
                        let point = oracle.hash_id_index(wid, i as u32);
                        buf.push(pop.ring().successor_index(point) as u32);
                    }
                    buf.sort_unstable();
                    buf.dedup();
                    members.extend_from_slice(&buf);
                    offsets.push(members.len() as u32);
                }
                ArenaSide {
                    offsets,
                    members,
                    captured: vec![0; n],
                    confused: vec![false; n],
                    colors: Vec::new(),
                }
            })
            .collect();
        let mut graphs = ArenaGraphs { leaders: pop.clone(), pool: pop, topology, sides };
        graphs.recolor();
        graphs
    }

    /// The view strategies and drivers observe.
    pub fn view(&self) -> GraphsView<'_> {
        GraphsView(Some(self))
    }

    /// Number of sides (2 dual, 1 single-graph ablation).
    pub fn sides(&self) -> usize {
        self.sides.len()
    }

    /// A [`GroupGraphView`] handle onto side `s`.
    pub fn side(&self, s: usize) -> ArenaSideRef<'_> {
        ArenaSideRef { arena: self, side: &self.sides[s] }
    }

    /// Recompute every side's colors (after churn or construction):
    /// blue iff a live good majority and not confused.
    pub fn recolor(&mut self) {
        let pool = &self.pool;
        for side in &mut self.sides {
            let n = side.captured.len();
            let mut colors = Vec::with_capacity(n);
            for i in 0..n {
                let range = &side.members[side.offsets[i] as usize..side.offsets[i + 1] as usize];
                let mut size = side.captured[i] as usize;
                let mut bad = side.captured[i] as usize;
                for &m in range {
                    if pool.is_live(m as usize) {
                        size += 1;
                        if pool.is_bad(m as usize) {
                            bad += 1;
                        }
                    }
                }
                let blue = size > 0 && 2 * bad < size && !side.confused[i];
                colors.push(if blue { Color::Blue } else { Color::Red });
            }
            side.colors = colors;
        }
    }
}

/// A `Copy` handle onto one arena side, implementing [`GroupGraphView`]
/// over the CSR columns.
#[derive(Clone, Copy)]
pub struct ArenaSideRef<'a> {
    arena: &'a ArenaGraphs,
    side: &'a ArenaSide,
}

impl GroupGraphView for ArenaSideRef<'_> {
    fn len(&self) -> usize {
        self.side.len()
    }

    fn is_red(&self, i: usize) -> bool {
        self.side.colors[i] == Color::Red
    }

    fn group_size(&self, i: usize) -> usize {
        let pool = &self.arena.pool;
        self.side.group_members(i).iter().filter(|&&m| pool.is_live(m as usize)).count()
            + self.side.captured[i] as usize
    }

    fn group_bad_count(&self, i: usize) -> usize {
        let pool = &self.arena.pool;
        self.side
            .group_members(i)
            .iter()
            .filter(|&&m| pool.is_live(m as usize) && pool.is_bad(m as usize))
            .count()
            + self.side.captured[i] as usize
    }

    fn is_confused(&self, i: usize) -> bool {
        self.side.confused[i]
    }

    fn group_members(&self, i: usize) -> &[u32] {
        self.side.group_members(i)
    }

    fn captured_slots(&self, i: usize) -> u32 {
        self.side.captured[i]
    }

    fn leaders(&self) -> &Population {
        &self.arena.leaders
    }

    fn pool(&self) -> &Population {
        &self.arena.pool
    }

    fn topology(&self) -> &dyn InputGraph {
        self.arena.topology.as_ref()
    }
}

/// Per-slot outcome of the membership fan-out, folded back in slot order.
/// Kept to 8 bytes — at `n = 10⁶` there are ~10⁷ slots per side.
#[derive(Clone, Copy)]
enum SlotOut {
    /// All construction searches failed: the adversary answers (Lemma 7).
    Captured,
    /// Honest resolution to a bad pool ID (Lemma 6).
    Bad(u32),
    /// Honest resolution, verified by the good candidate.
    Member(u32),
    /// Good candidate's own verification searches failed: slot lost.
    Rejected,
}

/// The dynamic system: a pair of operational group graphs that re-derive
/// themselves every epoch through the old pair, with the membership and
/// measurement phases fanned out deterministically.
pub struct DynamicSystem {
    /// Construction constants.
    pub params: Params,
    /// Input-graph topology family.
    pub kind: GraphKind,
    /// Oracle family (fixed at system initialization — the hash functions
    /// ship with the software, §III footnote 12).
    pub fam: OracleFamily,
    /// Dual-graph (paper) or single-graph (ablation) construction.
    pub mode: BuildMode,
    /// The operational graphs.
    pub graphs: ArenaGraphs,
    /// The epoch the operational graphs serve.
    pub epoch: u64,
    /// Searches sampled per epoch for the robustness report.
    pub searches_per_epoch: usize,
    master_seed: u64,
    /// Member-column capacity hint for each epoch's build (pre-sizes
    /// the arena allocation; the scenario layer surfaces this as the
    /// `cap` knob). Shapes allocation only, never results.
    pub capacity: Option<usize>,
}

impl DynamicSystem {
    /// Initialize at epoch 1 with trusted-bootstrap graphs (`G⁰₁, G⁰₂`;
    /// the paper's Appendix X initialization assumption).
    pub fn new(
        params: Params,
        kind: GraphKind,
        mode: BuildMode,
        provider: &mut dyn IdentityProvider,
        master_seed: u64,
        capacity: Option<usize>,
    ) -> Self {
        let fam = OracleFamily::new(master_seed);
        let mut rng = stream_rng(master_seed, "init", 0);
        let ids = provider.ids_for_epoch(0, &AdversaryView::genesis(0), &mut rng);
        let pop = Population::new(ids.good, ids.bad);
        let graphs = ArenaGraphs::initial(pop, kind, &fam, mode, &params, capacity);
        DynamicSystem {
            params,
            kind,
            fam,
            mode,
            graphs,
            epoch: 1,
            searches_per_epoch: 400,
            master_seed,
            capacity,
        }
    }

    /// Run one epoch: intra-epoch churn on the serving pool, construction
    /// of the next pair through the current one, measurement, swap —
    /// bit-identical for the same seed, regardless of thread count.
    ///
    /// The dynamic layer itself has no notion of epoch strings — they
    /// belong to §IV's minting pipeline, so the [`AdversaryView`] handed
    /// to the provider carries `epoch_string: None`. A composed system
    /// (e.g. `tg-pow::FullSystem`) that agrees on a string *before*
    /// minting injects it at the provider layer instead: wrap the
    /// strategic provider in [`crate::dynamic::WithEpochString`] and the
    /// view its inner provider observes carries the string in force.
    pub fn advance_epoch(&mut self, provider: &mut dyn IdentityProvider) -> EpochReport {
        let mut rng = stream_rng(self.master_seed, "epoch", self.epoch);
        let mut metrics = Metrics::new();

        // 1. Intra-epoch churn: a fraction of the good *member pool*
        //    departs while the graphs serve (§III model; bad IDs stay —
        //    the adversary's worst case). One shared pool, so every side
        //    loses the same IDs.
        if self.params.churn_rate > 0.0 {
            let mut pick_rng = stream_rng(self.master_seed, "churn", self.epoch);
            self.graphs.pool.depart_good_fraction(self.params.churn_rate, &mut pick_rng);
            self.graphs.recolor();
        }

        // 2. Mint the next generation through the (churned) current one.
        let view =
            AdversaryView { epoch: self.epoch + 1, graphs: self.graphs.view(), epoch_string: None };
        let ids = provider.ids_for_epoch(self.epoch + 1, &view, &mut rng);
        let new_pop = Population::new(ids.good, ids.bad);
        let (news, build) = build_new_arena(
            &self.graphs,
            &new_pop,
            self.kind,
            &self.fam,
            &self.params,
            self.mode,
            self.capacity,
            &mut rng,
            &mut metrics,
        );

        // 3. Measure the fresh graphs (they serve epoch + 1), fanned out
        //    in deterministic chunks.
        let mut meas_rng = stream_rng(self.master_seed, "measure", self.epoch);
        let side0 = news.side(0);
        let single = measure_robustness_chunked(
            &side0,
            &self.params,
            self.searches_per_epoch,
            &mut meas_rng,
        );
        let dual = if news.sides() == 2 {
            let mut dual_rng = stream_rng(self.master_seed, "measure-dual", self.epoch);
            let s0 = news.side(0);
            let s1 = news.side(1);
            measure_dual_success_chunked([&s0, &s1], self.searches_per_epoch, &mut dual_rng)
        } else {
            single.search_success
        };

        // 4. Membership-state accounting (Lemma 10): how many groups does
        //    each good pool ID serve in, across all sides?
        let pool_len = news.pool.len();
        let mut memberships = vec![0usize; pool_len];
        for side in &news.sides {
            for &m in &side.members {
                memberships[m as usize] += 1;
            }
        }
        let good_counts: Vec<usize> =
            (0..pool_len).filter(|&i| !news.pool.is_bad(i)).map(|i| memberships[i]).collect();
        let mean_memberships =
            good_counts.iter().sum::<usize>() as f64 / good_counts.len().max(1) as f64;
        let max_memberships = good_counts.iter().copied().max().unwrap_or(0);

        let report = EpochReport {
            epoch: self.epoch + 1,
            frac_red: (0..news.sides()).map(|s| news.side(s).frac_red()).collect(),
            frac_good_majority: (0..news.sides())
                .map(|s| news.side(s).frac_good_majority())
                .collect(),
            frac_confused: (0..news.sides()).map(|s| news.side(s).frac_confused()).collect(),
            frac_paper_invariant: (0..news.sides())
                .map(|s| news.side(s).frac_paper_invariant(&self.params))
                .collect(),
            search_success_single: single.search_success,
            search_success_dual: dual,
            build,
            mean_memberships,
            max_memberships,
            metrics,
        };

        // 5. Swap: the new pair becomes operational.
        self.graphs = news;
        self.epoch += 1;
        report
    }

    /// Run `epochs` epochs, returning all reports.
    pub fn run(&mut self, provider: &mut dyn IdentityProvider, epochs: usize) -> Vec<EpochReport> {
        (0..epochs).map(|_| self.advance_epoch(provider)).collect()
    }
}

/// Build the next epoch's graphs through the old ones (the §III-A
/// protocol described in [`crate::dynamic::build`]), split into a
/// sequential RNG pass and a parallel search pass (see the module docs).
///
/// `olds` are the operational graphs of the current epoch; their
/// *leader* generation becomes the member pool of the new graphs.
#[allow(clippy::too_many_arguments)] // the protocol's full parameter surface
pub(crate) fn build_new_arena(
    olds: &ArenaGraphs,
    new_leaders: &Population,
    kind: GraphKind,
    fam: &OracleFamily,
    params: &Params,
    mode: BuildMode,
    capacity: Option<usize>,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> (ArenaGraphs, BuildStats) {
    assert_eq!(olds.sides(), mode.sides(), "old-graph count must match the build mode");
    let n_sides = mode.sides();
    let old_views: Vec<ArenaSideRef<'_>> = (0..n_sides).map(|s| olds.side(s)).collect();
    let n_new = new_leaders.len();
    let pool = olds.leaders.clone();
    let pool_bad: Vec<usize> = pool.bad_indices();
    let draws = params.draws(n_new);
    let n_slots = n_new * draws;
    let cap = capacity.unwrap_or(n_slots);
    let mut stats = BuildStats::default();

    let topology = kind.build(new_leaders.ring().clone());
    let mut sides: Vec<ArenaSide> = Vec::with_capacity(n_sides);

    for side in 0..n_sides {
        let oracle = match mode {
            BuildMode::DualGraph => fam.membership(side),
            BuildMode::SingleGraph => fam.h1,
        };

        // --- Pass 1 (sequential): every RNG draw, in protocol order.
        // Per leader: the slot bootstrap picks (unconditional — searches
        // draw nothing, so they can be deferred), then the link phase
        // inline (its draw count depends on link-search outcomes).
        let mut boots: Vec<u32> = vec![u32::MAX; n_slots * n_sides];
        let mut confused = vec![false; n_new];
        let attempts = 1 + params.link_retries;
        for w in 0..n_new {
            let wid = new_leaders.ring().at(w);
            for i in 0..draws {
                stats.member_slots += 1;
                let base = (w * draws + i) * n_sides;
                for (k, old) in old_views.iter().enumerate() {
                    if let Some(b) = pick_boot(old, rng) {
                        boots[base + k] = b as u32;
                    }
                }
            }
            for u in topology.neighbors(wid) {
                stats.links_required += 1;
                let mut established = false;
                for _ in 0..attempts {
                    let boots_try: Vec<Option<usize>> =
                        old_views.iter().map(|g| pick_boot(g, rng)).collect();
                    if !construction_search(&old_views, &boots_try, u, metrics) {
                        continue;
                    }
                    let u_idx = new_leaders.ring().index_of(u).expect("neighbor is a new leader");
                    let verified = if new_leaders.is_bad(u_idx) {
                        true
                    } else {
                        let u_boots: Vec<Option<usize>> =
                            old_views.iter().map(|g| pick_boot(g, rng)).collect();
                        construction_search(&old_views, &u_boots, u, metrics)
                    };
                    if verified {
                        established = true;
                        break;
                    }
                }
                if !established {
                    stats.links_failed += 1;
                    confused[w] = true;
                }
            }
        }

        // --- Pass 2 (parallel, RNG-free): the slot searches, fanned out
        // in fixed blocks and folded in slot order.
        let n_blocks = n_slots.div_ceil(SLOT_BLOCK);
        let boots_ref = &boots;
        let views_ref = &old_views;
        let pool_ref = &pool;
        let block_results: Vec<(Metrics, Vec<SlotOut>)> =
            parallel_map((0..n_blocks).collect(), |b| {
                let start = b * SLOT_BLOCK;
                let end = ((b + 1) * SLOT_BLOCK).min(n_slots);
                let mut m = Metrics::new();
                let mut outs = Vec::with_capacity(end - start);
                for slot in start..end {
                    let w = slot / draws;
                    let i = slot % draws;
                    let wid = new_leaders.ring().at(w);
                    let point = oracle.hash_id_index(wid, i as u32);
                    let base = slot * n_sides;
                    let mut from = [None, None];
                    for (k, f) in from.iter_mut().take(n_sides).enumerate() {
                        let v = boots_ref[base + k];
                        if v != u32::MAX {
                            *f = Some(v as usize);
                        }
                    }
                    let out = if !construction_search(views_ref, &from[..n_sides], point, &mut m) {
                        SlotOut::Captured
                    } else {
                        let cand = pool_ref.ring().successor_index(point);
                        if pool_ref.is_bad(cand) {
                            SlotOut::Bad(cand as u32)
                        } else {
                            let own = [Some(cand), Some(cand)];
                            if construction_search(views_ref, &own[..n_sides], point, &mut m) {
                                SlotOut::Member(cand as u32)
                            } else {
                                SlotOut::Rejected
                            }
                        }
                    };
                    outs.push(out);
                }
                (m, outs)
            });

        // --- Fold in slot order: CSR assembly plus the additive counters.
        let mut offsets: Vec<u32> = Vec::with_capacity(n_new + 1);
        let mut members: Vec<u32> = Vec::with_capacity(cap);
        let mut captured: Vec<u32> = vec![0; n_new];
        offsets.push(0);
        for (m, _) in &block_results {
            metrics.merge(m);
        }
        let mut slots = block_results.iter().flat_map(|(_, outs)| outs.iter());
        let mut buf: Vec<u32> = Vec::with_capacity(draws);
        for w in 0..n_new {
            buf.clear();
            for _ in 0..draws {
                match *slots.next().expect("one outcome per slot") {
                    SlotOut::Captured => {
                        stats.captured_slots += 1;
                        if !pool_bad.is_empty() {
                            captured[w] += 1;
                        }
                    }
                    SlotOut::Bad(c) => {
                        stats.bad_member_draws += 1;
                        buf.push(c);
                    }
                    SlotOut::Member(c) => buf.push(c),
                    SlotOut::Rejected => stats.rejected_slots += 1,
                }
            }
            buf.sort_unstable();
            buf.dedup();
            members.extend_from_slice(&buf);
            offsets.push(members.len() as u32);
        }

        sides.push(ArenaSide { offsets, members, captured, confused, colors: Vec::new() });
    }

    // --- The Lemma 10 state attack, fanned out the same way: the
    // adversary sends fake "you are suc(h(w,i))" requests to good pool
    // IDs, which accept only if all their verification searches fail.
    // The fake points are pre-drawn in order; the searches draw nothing.
    let good_pool = pool.good_indices();
    if params.attack_requests_per_id > 0 && !good_pool.is_empty() {
        let mut tasks: Vec<(u32, Id)> =
            Vec::with_capacity(good_pool.len() * params.attack_requests_per_id);
        for &u in &good_pool {
            for _ in 0..params.attack_requests_per_id {
                stats.spurious_issued += 1;
                tasks.push((u as u32, Id(rng.gen())));
            }
        }
        let views_ref = &old_views;
        let results = parallel_map_chunked(tasks, SLOT_BLOCK, |(u, fake_point)| {
            let mut m = Metrics::new();
            let own = [Some(u as usize), Some(u as usize)];
            let accepted = !construction_search(views_ref, &own[..n_sides], fake_point, &mut m);
            (m, accepted)
        });
        for (m, accepted) in &results {
            metrics.merge(m);
            if *accepted {
                stats.spurious_accepted += 1;
            }
        }
    }

    let mut graphs = ArenaGraphs { leaders: new_leaders.clone(), pool, topology, sides };
    graphs.recolor();
    (graphs, stats)
}
