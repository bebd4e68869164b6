//! The paper's guarantees as first-class, named predicates.
//!
//! Each [`Invariant`] carries a machine-readable ID (stable across PRs —
//! violation reports, the e15 CSV, and the README table all key on it),
//! the paper section it restates, and a human description. The
//! [`registry`] is the single source of truth: the per-step checker
//! ([`crate::CheckedDriver`]) runs every [`Scope::Step`] invariant after
//! each epoch, and the exhaustive model checker ([`crate::model`])
//! enforces the [`Scope::Model`] ones over *all* adversary placements of
//! a tiny configuration.

use rand::rngs::StdRng;
use rand::Rng;
use tg_core::routing::{search_path, SearchOutcome};
use tg_core::scenario::{Defense, EpochObservation, ScenarioSpec, StrategySpec};
use tg_core::{GraphsView, GroupGraphView};
use tg_idspace::Id;
use tg_sim::{stream_rng, Metrics};

/// Where an invariant is enforced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Checked on every [`tg_core::scenario::EpochDriver::step`] by the
    /// [`crate::CheckedDriver`] wrapper (observation-level predicate).
    Step,
    /// Enforced by the exhaustive small-configuration model checker
    /// over every adversary placement ([`crate::model`]).
    Model,
    /// Both: sampled per step, exhaustive in the model checker.
    Both,
}

/// Everything a per-step check may look at: the scenario that produced
/// the run, the epoch's observation, and the post-swap operational
/// graphs.
pub struct CheckContext<'a> {
    /// The scenario specification the driver was built from.
    pub spec: &'a ScenarioSpec,
    /// The observation the step just produced.
    pub obs: &'a EpochObservation,
    /// The operational group graphs behind the observation.
    pub graphs: GraphsView<'a>,
}

impl std::fmt::Debug for CheckContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckContext")
            .field("label", &self.spec.label())
            .field("epoch", &self.obs.epoch)
            .finish()
    }
}

/// One named paper guarantee.
pub trait Invariant {
    /// Stable machine-readable ID (`INV-…`), the key of every violation
    /// report and e15 CSV row.
    fn id(&self) -> &'static str;
    /// The paper section / lemma the predicate restates.
    fn citation(&self) -> &'static str;
    /// One-line human description.
    fn description(&self) -> &'static str;
    /// Where the predicate is enforced.
    fn scope(&self) -> Scope;
    /// Whether the predicate is meaningful for `spec`. Gated invariants
    /// (e.g. budget conservation under stochastic PoW minting) opt out
    /// here instead of reporting vacuous violations.
    fn applies(&self, _spec: &ScenarioSpec) -> bool {
        true
    }
    /// Evaluate against one epoch. `Err` carries the violation detail.
    /// [`Scope::Model`]-only invariants return `Ok(())` (their
    /// enforcement lives in the enumerator).
    fn check(&self, _ctx: &CheckContext<'_>) -> Result<(), String> {
        Ok(())
    }
}

/// One recorded invariant violation, carrying everything needed to
/// reproduce it: parse the label back into a [`ScenarioSpec`], build the
/// driver, and step to the epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The violated invariant's [`Invariant::id`].
    pub invariant: &'static str,
    /// Full scenario label ([`ScenarioSpec::label`]) of the run.
    pub label: String,
    /// Epoch at which the predicate failed.
    pub epoch: u64,
    /// What exactly went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violated at epoch {} of `{}`: {} (reproduce: build the labelled scenario and \
             step {} epochs under CheckedDriver)",
            self.invariant,
            self.epoch,
            self.label,
            self.detail,
            self.epoch + 1
        )
    }
}

/// **INV-GOODNESS** — group goodness below the β threshold (§I-C,
/// Lemma 6): with the adversary budget below the defense's threshold,
/// every group keeps a strictly good majority. Statistical at protocol
/// scale (the paper's bound is with-high-probability), so it is enforced
/// exhaustively by the model checker rather than per step.
#[derive(Debug)]
pub struct Goodness;

impl Invariant for Goodness {
    fn id(&self) -> &'static str {
        "INV-GOODNESS"
    }
    fn citation(&self) -> &'static str {
        "§I-C, Lemma 6"
    }
    fn description(&self) -> &'static str {
        "below the β threshold every group keeps a good majority (exhaustive over placements)"
    }
    fn scope(&self) -> Scope {
        Scope::Model
    }
}

/// **INV-ROUTE** — routing fails iff a red group sits on the path
/// (§II-B): a search outcome must agree with an independent scan of the
/// route's colors — success exactly when no red group is on the route,
/// failure exactly at the first red position. Sampled per step (the
/// checker draws its own RNG stream, consuming nothing of the kernel's),
/// exhaustive over every (start, key) pair in the model checker.
#[derive(Debug)]
pub struct RouteRedness {
    /// Searches sampled per epoch per side.
    pub samples: usize,
}

impl Invariant for RouteRedness {
    fn id(&self) -> &'static str {
        "INV-ROUTE"
    }
    fn citation(&self) -> &'static str {
        "§II-B (search-path semantics)"
    }
    fn description(&self) -> &'static str {
        "a search fails iff a red group sits on its route, at the first red position"
    }
    fn scope(&self) -> Scope {
        Scope::Both
    }
    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let mut rng: StdRng = stream_rng(ctx.spec.seed, "verify-route", ctx.obs.epoch);
        for s in 0..ctx.graphs.sides() {
            let side = ctx.graphs.side(s);
            if side.is_empty() {
                continue;
            }
            for _ in 0..self.samples {
                let from = rng.gen_range(0..side.len());
                let key = Id(rng.gen());
                check_route(&side, from, key).map_err(|e| format!("side {s}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// The route check shared by the per-step sampler and the exhaustive
/// model checker: run [`search_path`] and independently derive the
/// first red position on the topology route; the two must agree.
pub fn check_route<G: GroupGraphView>(gg: &G, from_leader: usize, key: Id) -> Result<(), String> {
    let outcome = search_path(gg, from_leader, key, &mut Metrics::default());
    let from_id = gg.leaders().ring().at(from_leader);
    let route = gg.topology().route(from_id, key);
    let first_red = route.hops.iter().position(|&hop| {
        let gi = gg.leaders().ring().index_of(hop).expect("route hops are leader-ring IDs");
        gg.is_red(gi)
    });
    match (outcome, first_red) {
        (SearchOutcome::Success { hops, .. }, None) if hops == route.hops.len() => Ok(()),
        (SearchOutcome::Fail { failed_at, .. }, Some(red_at)) if failed_at == red_at => Ok(()),
        (got, _) => Err(format!(
            "search from leader {from_leader} for key {key:?}: outcome {got:?} but first red \
             on route is {first_red:?} of {} hops",
            route.hops.len()
        )),
    }
}

/// **INV-BUDGET** — adversary budget conservation (§I-C): at most
/// `n_bad` adversarial IDs enter the dynamic layer per epoch. Applies to
/// the placement pipeline ([`Defense::NoPow`]); under PoW the per-epoch
/// count is stochastic minting (its *expectation* is the budget — the
/// e6 experiment pins that bound), and the §IV-B hoarder deliberately
/// presents more than one window's worth.
#[derive(Debug)]
pub struct BudgetConservation;

impl Invariant for BudgetConservation {
    fn id(&self) -> &'static str {
        "INV-BUDGET"
    }
    fn citation(&self) -> &'static str {
        "§I-C (βn budget)"
    }
    fn description(&self) -> &'static str {
        "at most n_bad adversarial IDs enter the dynamic layer per epoch (placement pipeline)"
    }
    fn scope(&self) -> Scope {
        Scope::Both
    }
    fn applies(&self, spec: &ScenarioSpec) -> bool {
        spec.defense == Defense::NoPow
            && !matches!(spec.strategy, StrategySpec::PrecomputeHoarder { .. })
    }
    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        if ctx.obs.bad_ids > ctx.spec.n_bad {
            return Err(format!(
                "{} adversarial IDs entered the layer against a budget of {}",
                ctx.obs.bad_ids, ctx.spec.n_bad
            ));
        }
        Ok(())
    }
}

/// **INV-OBS** — observation/graph consistency (§II-A measurement):
/// the aggregate counts an observation reports must recount from the
/// operational graphs it claims to describe, and every reported
/// fraction must be a fraction. Guards every future kernel or runtime
/// refactor against drift between what is simulated and what is
/// reported.
#[derive(Debug)]
pub struct ObservationConsistency;

impl Invariant for ObservationConsistency {
    fn id(&self) -> &'static str {
        "INV-OBS"
    }
    fn citation(&self) -> &'static str {
        "§II-A (goodness census)"
    }
    fn description(&self) -> &'static str {
        "captured/total group counts recount from the graphs; all fractions lie in [0, 1]"
    }
    fn scope(&self) -> Scope {
        Scope::Step
    }
    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let (mut captured, mut total) = (0usize, 0usize);
        for g in ctx.graphs.iter() {
            total += g.len();
            captured += (0..g.len()).filter(|&i| !g.has_good_majority(i)).count();
            check_colors(&g)?;
        }
        if (captured, total) != (ctx.obs.captured_groups, ctx.obs.total_groups) {
            return Err(format!(
                "observation reports {}/{} captured/total groups, graphs recount {captured}/{total}",
                ctx.obs.captured_groups, ctx.obs.total_groups
            ));
        }
        let mut fracs: Vec<(&str, f64)> = vec![
            ("search_success_single", ctx.obs.search_success_single),
            ("search_success_dual", ctx.obs.search_success_dual),
            ("bad_share", ctx.obs.bad_share),
            ("captured_frac", ctx.obs.captured_frac()),
        ];
        for v in &ctx.obs.frac_red {
            fracs.push(("frac_red", *v));
        }
        for (name, v) in fracs {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} is not a fraction"));
            }
        }
        if ctx.obs.bad_ids == 0 && ctx.obs.bad_share != 0.0 {
            return Err(format!(
                "zero adversarial IDs cannot own a {} key-space share",
                ctx.obs.bad_share
            ));
        }
        Ok(())
    }
}

/// The coloring rule of §II-A, re-derived per group: red iff no strictly
/// good majority or confused neighbor links. Shared with the model
/// checker.
pub fn check_colors<G: GroupGraphView>(g: &G) -> Result<(), String> {
    for i in 0..g.len() {
        let expect_red = !g.has_good_majority(i) || g.is_confused(i);
        if g.is_red(i) != expect_red {
            return Err(format!(
                "group {i}: is_red={} but size={} bad={} confused={}",
                g.is_red(i),
                g.group_size(i),
                g.group_bad_count(i),
                g.is_confused(i)
            ));
        }
    }
    Ok(())
}

/// **INV-MONOTONE** — frontier monotonicity (Theorem 3 trend): the
/// number of capturing placements never decreases with the adversary
/// budget, and the `f∘g` two-hash defense never violates at a smaller
/// budget than the single-hash pipeline it strengthens. A cross-run
/// property, so it is enforced by the model sweep (and, statistically,
/// by the e11/e12 frontier maps), never per step.
#[derive(Debug)]
pub struct FrontierMonotonicity;

impl Invariant for FrontierMonotonicity {
    fn id(&self) -> &'static str {
        "INV-MONOTONE"
    }
    fn citation(&self) -> &'static str {
        "Theorem 3 (threshold trend in β, d₂)"
    }
    fn description(&self) -> &'static str {
        "capture is monotone in the adversary budget; the f∘g threshold is never below single-hash"
    }
    fn scope(&self) -> Scope {
        Scope::Model
    }
}

/// Every registered invariant, in report order.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(Goodness),
        Box::new(RouteRedness { samples: 16 }),
        Box::new(BudgetConservation),
        Box::new(ObservationConsistency),
        Box::new(FrontierMonotonicity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_cited() {
        let regs = registry();
        let mut seen = std::collections::HashSet::new();
        for inv in &regs {
            assert!(inv.id().starts_with("INV-"), "{} is not an INV- id", inv.id());
            assert!(seen.insert(inv.id()), "duplicate id {}", inv.id());
            assert!(!inv.citation().is_empty(), "{} lacks a citation", inv.id());
            assert!(!inv.description().is_empty(), "{} lacks a description", inv.id());
        }
        assert_eq!(regs.len(), 5);
    }

    #[test]
    fn budget_invariant_gates_on_the_placement_pipeline() {
        let inv = BudgetConservation;
        let nopow = ScenarioSpec::new(100, 1);
        assert!(inv.applies(&nopow));
        let pow = nopow
            .clone()
            .defense(Defense::Pow { scheme: tg_core::MintScheme::TwoHash, fresh_strings: true });
        assert!(!inv.applies(&pow), "stochastic minting is exempt");
        let hoarder = ScenarioSpec::new(100, 1)
            .strategy(StrategySpec::PrecomputeHoarder { fam_seed: 1, attempts: 10 });
        assert!(!inv.applies(&hoarder), "the §IV-B hoard is exempt");
    }

    #[test]
    fn violation_display_carries_reproduction_info() {
        let v = Violation {
            invariant: "INV-ROUTE",
            label: "tg1;n=10".to_string(),
            epoch: 3,
            detail: "boom".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("INV-ROUTE") && s.contains("tg1;n=10") && s.contains("epoch 3"));
    }
}
