//! Cross-crate integration: the dynamic construction (§III) composed
//! with PoW identities (§IV) and adversarial placement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::core::dynamic::{
    AdversaryView, BuildMode, DynamicSystem, GapFilling, IdentityProvider, IntervalTargeting,
    StrategicProvider, Uniform, UniformProvider,
};
use tiny_groups::core::{build_initial_graph, GroupGraphView, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::{MintScheme, MintingSim, PowProvider, PuzzleParams, StrategicPowProvider};

fn stable_params() -> Params {
    let mut p = Params::paper_defaults();
    p.churn_rate = 0.15;
    p.attack_requests_per_id = 2;
    p
}

/// The paper's end state: §III dynamics running on §IV identities stay
/// ε-robust over epochs of full membership turnover.
#[test]
fn full_stack_pow_dynamics_stay_robust() {
    let mut provider = PowProvider {
        sim: MintingSim {
            params: PuzzleParams::calibrated(16, 2048),
            n_good: 800,
            adversary_units: 40.0,
            idealized_good: true,
        },
    };
    let mut sys = DynamicSystem::new(
        stable_params(),
        GraphKind::Chord,
        BuildMode::DualGraph,
        &mut provider,
        17,
        None,
    );
    sys.searches_per_epoch = 300;
    for _ in 0..5 {
        let r = sys.advance_epoch(&mut provider);
        assert!(
            r.search_success_dual > 0.9,
            "epoch {}: dual success {:.3}",
            r.epoch,
            r.search_success_dual
        );
        assert!(r.frac_red[0] < 0.05, "epoch {}: red {:.4}", r.epoch, r.frac_red[0]);
    }
}

/// Without PoW, a gap-filling adversary (choosing its ID values to claim
/// the widest good-ID gaps) recruits far more group members than one
/// forced to uniform placement — the §IV motivation, measured at the
/// membership level.
#[test]
fn gap_filling_placement_beats_uniform_placement() {
    let bad_member_fraction = |gap_filling: bool| -> f64 {
        let mut rng = StdRng::seed_from_u64(23);
        let view = AdversaryView::genesis(0);
        let ids = if gap_filling {
            StrategicProvider::new(1140, 60, GapFilling).ids_for_epoch(0, &view, &mut rng)
        } else {
            UniformProvider { n_good: 1140, n_bad: 60 }.ids_for_epoch(0, &view, &mut rng)
        };
        let pop = Population::new(ids.good, ids.bad);
        let gg =
            build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(23).h1, &stable_params());
        let mut bad = 0usize;
        let mut total = 0usize;
        for g in &gg.groups {
            bad += g.bad_count(&gg.pool);
            total += g.size(&gg.pool);
        }
        bad as f64 / total as f64
    };
    let uniform = bad_member_fraction(false);
    let gap = bad_member_fraction(true);
    // Theory: claiming the k widest gaps of n good IDs yields a share of
    // ≈ Σ_{j≤k} ln(n/j) / (2n) — about 1.8–2× the uniform β here.
    assert!(
        gap > 1.5 * uniform,
        "gap filling must amplify recruitment: {gap:.4} vs uniform {uniform:.4}"
    );
}

/// The censorship attack: clustering chosen IDs in a 1% interval makes
/// the adversary *own* that key region — searches for keys there resolve
/// to bad IDs almost surely, while uniform placement only ever corrupts
/// a β-fraction. PoW's u.a.r. guarantee (Lemma 11) is what forbids this.
#[test]
fn targeted_interval_censors_chosen_resources() {
    let owned_fraction = |targeted: bool| -> f64 {
        let mut rng = StdRng::seed_from_u64(29);
        let view = AdversaryView::genesis(0);
        let ids = if targeted {
            StrategicProvider::new(
                1140,
                60,
                IntervalTargeting { victim: Id::from_f64(0.41), width: 0.01 },
            )
            .ids_for_epoch(0, &view, &mut rng)
        } else {
            UniformProvider { n_good: 1140, n_bad: 60 }.ids_for_epoch(0, &view, &mut rng)
        };
        let pop = Population::new(ids.good, ids.bad);
        // Keys inside the attacked interval: who owns them?
        let mut bad_owned = 0usize;
        let probes = 500;
        for _ in 0..probes {
            let key = Id::from_f64(0.4 + rng.gen::<f64>() * 0.01);
            let owner = pop.ring().successor(key);
            let idx = pop.ring().index_of(owner).unwrap();
            if pop.is_bad(idx) {
                bad_owned += 1;
            }
        }
        bad_owned as f64 / probes as f64
    };
    let uniform = owned_fraction(false);
    let targeted = owned_fraction(true);
    assert!(uniform < 0.2, "uniform placement owns ≈β of any region: {uniform:.3}");
    assert!(targeted > 0.8, "targeted placement must own the chosen region: {targeted:.3}");
}

/// The same strategy object composes with both identity pipelines, and
/// the pipelines disagree exactly as §IV predicts: gap-filling pushed
/// through the paper's `f∘g` minting is indistinguishable from uniform
/// placement, while the no-PoW pipeline hands it its amplified share.
#[test]
fn strategies_compose_with_both_identity_pipelines() {
    let total_captured = |mut provider: Box<dyn IdentityProvider>| -> usize {
        let mut sys = DynamicSystem::new(
            stable_params(),
            GraphKind::Chord,
            BuildMode::DualGraph,
            provider.as_mut(),
            37,
            None,
        );
        sys.searches_per_epoch = 100;
        let mut captured = 0usize;
        for _ in 0..3 {
            sys.advance_epoch(provider.as_mut());
            captured += sys
                .graphs
                .view()
                .iter()
                .map(|g| (0..g.len()).filter(|&i| !g.has_good_majority(i)).count())
                .sum::<usize>();
        }
        captured
    };
    let no_pow = total_captured(Box::new(StrategicProvider::new(900, 60, GapFilling)));
    let fog = total_captured(Box::new(StrategicPowProvider::new(
        900,
        60.0,
        MintScheme::TwoHash,
        GapFilling,
    )));
    let uniform = total_captured(Box::new(StrategicProvider::new(900, 60, Uniform)));
    let uniform_pow = total_captured(Box::new(StrategicPowProvider::new(
        900,
        60.0,
        MintScheme::TwoHash,
        Uniform,
    )));
    assert!(
        no_pow > 3 * uniform,
        "no-PoW gap filling must capture far more groups: {no_pow} vs uniform {uniform}"
    );
    // Under f∘g the strategy is indistinguishable from uniform minting:
    // both sit at the small binomial-tail noise floor.
    assert!(
        fog <= uniform_pow + 10 && fog < no_pow / 5,
        "f∘g must collapse gap filling to the uniform level: \
         {fog} vs uniform-PoW {uniform_pow}, no-PoW {no_pow}"
    );
}

/// The two-graph construction is necessary: the single-graph ablation
/// ends with at least as many red groups over the same horizon.
#[test]
fn single_graph_ablation_never_beats_dual() {
    let final_red = |mode: BuildMode| -> f64 {
        let mut provider = UniformProvider { n_good: 760, n_bad: 40 };
        let mut sys =
            DynamicSystem::new(stable_params(), GraphKind::Chord, mode, &mut provider, 31, None);
        sys.searches_per_epoch = 150;
        let mut red = 0.0;
        for _ in 0..5 {
            red = sys.advance_epoch(&mut provider).frac_red[0];
        }
        red
    };
    let dual = final_red(BuildMode::DualGraph);
    let single = final_red(BuildMode::SingleGraph);
    assert!(single >= dual, "single {single:.4} vs dual {dual:.4}");
    assert!(dual < 0.05, "paper config must stay healthy: {dual:.4}");
}
