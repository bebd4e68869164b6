//! Closing the loop: an [`IdentityProvider`] backed by the puzzle
//! pipeline.
//!
//! §II–III run on the *assumption* that each epoch's adversary holds at
//! most `≈ βn` u.a.r. IDs; §IV proves PoW enforces it. `PowProvider`
//! feeds the dynamic construction with IDs that actually come out of the
//! minting simulation, so end-to-end runs (experiment E6/E4 composition,
//! `examples/pow_identity.rs`) exercise the full §II+§III+§IV stack.

use crate::miner::MintingSim;
use rand::rngs::StdRng;
use tg_core::dynamic::{AdversaryView, EpochIds, IdentityProvider};

/// Per-epoch IDs minted through proof-of-work.
#[derive(Clone, Copy, Debug)]
pub struct PowProvider {
    /// The minting simulation (difficulty, compute split, fidelity).
    pub sim: MintingSim,
}

impl IdentityProvider for PowProvider {
    fn ids_for_epoch(
        &mut self,
        _epoch: u64,
        _view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        let out = self.sim.run_window(rng);
        EpochIds { good: out.good_ids, bad: out.bad_ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzle::PuzzleParams;
    use rand::SeedableRng;
    use tg_core::dynamic::{BuildMode, DynamicSystem};
    use tg_core::Params;
    use tg_overlay::GraphKind;

    fn provider(n_good: usize, beta: f64) -> PowProvider {
        PowProvider {
            sim: MintingSim {
                params: PuzzleParams::calibrated(16, 2048),
                n_good,
                adversary_units: beta * n_good as f64,
                idealized_good: true,
            },
        }
    }

    #[test]
    fn provider_outputs_track_beta() {
        let mut p = provider(1000, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let ids = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        assert_eq!(ids.good.len(), 1000);
        let bad = ids.bad.len() as f64;
        assert!((25.0..80.0).contains(&bad), "≈50 expected, got {bad}");
    }

    /// End-to-end: the §III dynamic system running on §IV-minted IDs
    /// stays robust across epochs.
    #[test]
    fn dynamic_system_on_pow_identities() {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.1;
        params.attack_requests_per_id = 0;
        let mut prov = provider(400, 0.05);
        let mut sys =
            DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut prov, 42, None);
        for _ in 0..3 {
            let r = sys.advance_epoch(&mut prov);
            assert!(
                r.search_success_dual > 0.85,
                "epoch {}: dual success {:.3}",
                r.epoch,
                r.search_success_dual
            );
        }
    }
}
