//! The per-epoch report of the §III epoch loop (churn, build, measure,
//! swap), which [`crate::dynamic::DynamicSystem`] runs.

use crate::dynamic::build::BuildStats;
use tg_sim::Metrics;

/// Per-epoch measurements (taken on the freshly built graphs, which are
/// the ones the next epoch operates on).
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch index (the epoch these graphs will serve).
    pub epoch: u64,
    /// Red fraction per side.
    pub frac_red: Vec<f64>,
    /// Good-majority fraction per side.
    pub frac_good_majority: Vec<f64>,
    /// Confused fraction per side.
    pub frac_confused: Vec<f64>,
    /// Paper-invariant fraction per side.
    pub frac_paper_invariant: Vec<f64>,
    /// Search success using a single side (the `q_f` realization).
    pub search_success_single: f64,
    /// Search success using both sides (what the protocol achieves).
    pub search_success_dual: f64,
    /// Construction counters.
    pub build: BuildStats,
    /// Per-good-pool-ID group memberships (Lemma 10): mean and max.
    pub mean_memberships: f64,
    /// Maximum memberships held by one good pool ID.
    pub max_memberships: usize,
    /// Messages spent on construction searches this epoch.
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use crate::dynamic::adversary::AdversaryView;
    use crate::dynamic::build::BuildMode;
    use crate::dynamic::provider::{IdentityProvider, UniformProvider};
    use crate::dynamic::DynamicSystem;
    use crate::params::Params;
    use rand::rngs::StdRng;
    use tg_overlay::GraphKind;

    fn small_system(mode: BuildMode, seed: u64) -> (DynamicSystem, UniformProvider) {
        let mut params = Params::paper_defaults();
        params.attack_requests_per_id = 1;
        // Gentler churn than the worst-case bound keeps the small-n test
        // fast and stable.
        params.churn_rate = 0.1;
        let mut provider = UniformProvider { n_good: 380, n_bad: 20 };
        let sys = DynamicSystem::new(params, GraphKind::D2B, mode, &mut provider, seed, None);
        (sys, provider)
    }

    #[test]
    fn epochs_advance_and_swap() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 1);
        assert_eq!(sys.epoch, 1);
        let r = sys.advance_epoch(&mut provider);
        assert_eq!(r.epoch, 2);
        assert_eq!(sys.epoch, 2);
        assert_eq!(sys.graphs.sides(), 2);
        // New leaders are a fresh generation.
        let r2 = sys.advance_epoch(&mut provider);
        assert_eq!(r2.epoch, 3);
    }

    #[test]
    fn dual_mode_stays_robust_over_epochs() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 2);
        let reports = sys.run(&mut provider, 5);
        for r in &reports {
            assert!(
                r.search_success_dual > 0.85,
                "epoch {}: dual success {:.3}",
                r.epoch,
                r.search_success_dual
            );
            for (s, &fr) in r.frac_red.iter().enumerate() {
                assert!(fr < 0.15, "epoch {} side {s}: frac_red {fr:.3}", r.epoch);
            }
        }
        // No compounding: the last epoch is no worse than ~the first.
        let first = reports.first().unwrap().frac_red[0];
        let last = reports.last().unwrap().frac_red[0];
        assert!(last <= first + 0.1, "red fraction compounded: {first:.3} -> {last:.3}");
    }

    #[test]
    fn membership_state_is_small() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 3);
        let r = sys.advance_epoch(&mut provider);
        // Each ID serves in O(log log n) groups per side in expectation
        // (Lemma 10): with draws ≈ 9 and two sides, the mean is ≈ 18–20
        // and the max is a small multiple.
        assert!(r.mean_memberships < 40.0, "mean memberships {:.1}", r.mean_memberships);
        assert!(r.max_memberships < 120, "max memberships {}", r.max_memberships);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut pa) = small_system(BuildMode::DualGraph, 7);
        let (mut b, mut pb) = small_system(BuildMode::DualGraph, 7);
        let ra = a.advance_epoch(&mut pa);
        let rb = b.advance_epoch(&mut pb);
        assert_eq!(ra.frac_red, rb.frac_red);
        assert_eq!(ra.search_success_dual, rb.search_success_dual);
        assert_eq!(ra.build.captured_slots, rb.build.captured_slots);
    }

    #[test]
    fn epoch_string_reaches_the_view_through_the_provider_wrapper() {
        use crate::dynamic::provider::WithEpochString;

        struct StringSpy {
            inner: UniformProvider,
            seen: Vec<Option<u64>>,
        }
        impl IdentityProvider for StringSpy {
            fn ids_for_epoch(
                &mut self,
                epoch: u64,
                view: &AdversaryView<'_>,
                rng: &mut StdRng,
            ) -> crate::dynamic::EpochIds {
                self.seen.push(view.epoch_string);
                self.inner.ids_for_epoch(epoch, view, rng)
            }
        }
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.1;
        params.attack_requests_per_id = 0;
        let spy = StringSpy { inner: UniformProvider { n_good: 380, n_bad: 20 }, seen: Vec::new() };
        let mut wrapped = WithEpochString { inner: spy, epoch_string: None };
        let mut sys = DynamicSystem::new(
            params,
            GraphKind::D2B,
            BuildMode::DualGraph,
            &mut wrapped,
            11,
            None,
        );
        sys.advance_epoch(&mut wrapped);
        wrapped.epoch_string = Some(0xABCD);
        sys.advance_epoch(&mut wrapped);
        assert_eq!(wrapped.inner.seen, vec![None, None, Some(0xABCD)]);
    }

    #[test]
    fn single_graph_mode_runs() {
        let (mut sys, mut provider) = small_system(BuildMode::SingleGraph, 4);
        let r = sys.advance_epoch(&mut provider);
        assert_eq!(r.frac_red.len(), 1);
        assert_eq!(r.search_success_single, r.search_success_dual);
    }
}
