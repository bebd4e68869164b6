//! The **total** scenario builder: every [`ScenarioSpec`] becomes a
//! [`Box<dyn EpochDriver>`] here, PoW defenses included.
//!
//! `tg_core::scenario` owns the spec, the driver trait, and the no-PoW
//! driver, but crate dependencies point upward, so the core-level
//! `ScenarioSpec::build` cannot construct the minting pipeline and
//! returns [`ScenarioError::NeedsPowLayer`] for specs that require it.
//! This module closes the gap with [`build`], which accepts every spec:
//!
//! * [`Defense::NoPow`] — delegated to the core builder (with the one
//!   exception of the [`StrategySpec::PrecomputeHoarder`] strategy,
//!   whose puzzle-grinding object lives in this crate even when it runs
//!   on the no-PoW pipeline, where it degrades to uniform placement),
//! * [`Defense::Pow`] + [`StringMode::Protocol`] — the full §IV
//!   [`FullSystem`]: the Appendix VIII string protocol runs over the
//!   operational graphs each epoch, minting binds to the agreed string
//!   (or stays frozen to genesis when the §IV-B defense is off), and a
//!   strategic spec threads its placement policy through
//!   [`StrategicPowProvider`],
//! * [`Defense::Pow`] + [`StringMode::Synthesized`] — the provider-level
//!   shortcut (the E10 sweep convention): the same minting pipeline
//!   driven inside a plain dynamic system with a synthesized per-epoch
//!   string under the same fresh-vs-frozen policy, and honest specs
//!   minting through the statistical [`MintingSim`].
//!
//! All three arms produce drivers over the **same**
//! [`EpochObservation`]; consumers never branch on which system is
//! behind the trait.

use crate::adversary::{MintScheme, PrecomputeHoarder, StrategicPowProvider};
use crate::miner::MintingSim;
use crate::provider::PowProvider;
use crate::puzzle::PuzzleParams;
use crate::strings::{StringAdversary, StringParams};
use crate::system::FullSystem;
use tg_core::dynamic::adversary::AdversaryStrategy;
use tg_core::dynamic::{BuildMode, IdentityProvider, StrategicProvider};
use tg_core::runtime::{EpochNet, RuntimeChoice};
use tg_core::scenario::{
    driver_with_provider, Defense, EpochDriver, EpochObservation, ObservationBatch, ScenarioError,
    ScenarioSpec, StrategySpec, StringAdversarySpec, StringMode,
};
use tg_core::GraphsView;
use tg_crypto::OracleFamily;
use tg_idspace::Id;

/// The easy hoarder calibration every sweep uses: exact grinding at
/// `τ = 0.02` stays cheap, and counts — not difficulty — are what the
/// §IV-B contrast measures.
pub fn hoarder_puzzle() -> PuzzleParams {
    PuzzleParams { tau: Id::from_f64(0.02), attempts_per_step: 1, t_epoch: 2 }
}

/// Build the runtime strategy object for any [`StrategySpec`] except
/// [`StrategySpec::Honest`] (which selects a provider, not a strategy).
pub fn build_strategy(spec: &StrategySpec) -> Option<Box<dyn AdversaryStrategy>> {
    match *spec {
        StrategySpec::PrecomputeHoarder { fam_seed, attempts } => Some(Box::new(
            PrecomputeHoarder::new(OracleFamily::new(fam_seed), hoarder_puzzle(), attempts),
        )),
        _ => spec.build_strategy(),
    }
}

/// The runtime string adversary a spec's declarative
/// [`StringAdversarySpec`] selects.
pub fn build_string_adversary(spec: &StringAdversarySpec) -> StringAdversary {
    match *spec {
        StringAdversarySpec::None => StringAdversary::None,
        StringAdversarySpec::DelayedRelease { strings, release_frac, units } => {
            StringAdversary::DelayedRelease { strings, release_frac, units }
        }
        StringAdversarySpec::ForcedRecords { strings, release_frac } => {
            StringAdversary::ForcedRecords { strings, release_frac }
        }
    }
}

/// Build the driver for **any** scenario — the entry point every
/// experiment, frontier cell, bench, and example constructs systems
/// through.
pub fn build(spec: &ScenarioSpec) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    spec.check_transport()?;
    match spec.defense {
        Defense::NoPow => match spec.strategy {
            // The hoarder object lives in this crate; on the no-PoW
            // pipeline it degrades to uniform placement within budget.
            StrategySpec::PrecomputeHoarder { .. } => {
                let strategy = build_strategy(&spec.strategy).expect("hoarder is a strategy");
                let inner = Box::new(StrategicProvider::boxed(spec.n_good, spec.n_bad, strategy));
                Ok(driver_with_provider(spec, inner))
            }
            _ => spec.build(),
        },
        Defense::Pow { scheme, fresh_strings } => match spec.strings {
            StringMode::Protocol => build_protocol(spec, scheme, fresh_strings),
            StringMode::Synthesized => build_synthesized(spec, scheme, fresh_strings),
        },
    }
}

/// The full §IV protocol: [`FullSystem`] with the spec's strategy (if
/// any) minting through the real epoch-string agreement.
fn build_protocol(
    spec: &ScenarioSpec,
    scheme: MintScheme,
    fresh_strings: bool,
) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    if spec.mode != BuildMode::DualGraph {
        return Err(ScenarioError::Unsupported(
            "the string protocol runs over the dual-graph construction only",
        ));
    }
    let mut sys = FullSystem::new(
        spec.params,
        spec.kind,
        PuzzleParams::calibrated(16, 2048),
        StringParams::default(),
        spec.n_good,
        spec.n_bad as f64,
        spec.idealized_good,
        spec.seed,
    );
    // `None` means honest: the statistical minting pipeline inside
    // `FullSystem` (no strategic provider to install).
    if let Some(strategy) = build_strategy(&spec.strategy) {
        sys = sys.with_adversary(StrategicPowProvider::boxed(
            spec.n_good,
            spec.n_bad as f64,
            scheme,
            strategy,
        ));
    }
    if !fresh_strings {
        sys = sys.with_frozen_strings();
    }
    sys.string_adversary = build_string_adversary(&spec.string_adversary);
    sys.dynamics.searches_per_epoch = spec.searches;
    sys.dynamics.capacity = spec.capacity;
    // Under the actor runtime the protocol phases (string dissemination,
    // membership announcement, routing probes) go over the spec's
    // network; the genesis build stays trusted bootstrap.
    let net = match spec.runtime {
        RuntimeChoice::Sync => None,
        RuntimeChoice::Actor => Some(EpochNet::for_spec(spec)),
    };
    Ok(Box::new(FullDriver {
        sys,
        net,
        obs: EpochObservation::default(),
        batch: ObservationBatch::new(),
    }))
}

/// The provider-level shortcut: the minting pipeline (strategic or
/// statistical) inside a plain dynamic system, strings synthesized.
fn build_synthesized(
    spec: &ScenarioSpec,
    scheme: MintScheme,
    fresh_strings: bool,
) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    let inner: Box<dyn IdentityProvider> = match build_strategy(&spec.strategy) {
        Some(strategy) => {
            let mut p =
                StrategicPowProvider::boxed(spec.n_good, spec.n_bad as f64, scheme, strategy);
            p.fresh_strings = fresh_strings;
            Box::new(p)
        }
        None => Box::new(PowProvider {
            sim: MintingSim {
                params: PuzzleParams::calibrated(16, 2048),
                n_good: spec.n_good,
                adversary_units: spec.n_bad as f64,
                idealized_good: spec.idealized_good,
            },
        }),
    };
    Ok(driver_with_provider(spec, inner))
}

/// The [`EpochDriver`] over the composed §IV [`FullSystem`]
/// (strings → minting → dynamics), with the protocol phases optionally
/// routed over an actor-runtime network.
pub struct FullDriver {
    /// The composed system (public so integration tests can reach the
    /// layers the observation aggregates away).
    sys: FullSystem,
    /// The actor-runtime network; `None` under [`RuntimeChoice::Sync`].
    net: Option<EpochNet>,
    obs: EpochObservation,
    batch: ObservationBatch,
}

impl FullDriver {
    /// The composed system behind the driver.
    pub fn system(&self) -> &FullSystem {
        &self.sys
    }
}

impl EpochDriver for FullDriver {
    fn step(&mut self) -> &EpochObservation {
        let late_before = self.net.as_ref().map(|n| n.stats().late);
        let r = self.sys.run_epoch_net(self.net.as_mut());
        self.obs.fill_dynamic(&r.dynamics, self.sys.dynamics.graphs.view());
        self.obs.bad_ids = r.minted_bad;
        self.obs.bad_share = r.bad_share;
        self.obs.epoch_string = Some(r.epoch_string);
        self.obs.strings_agreement = Some(r.strings.agreement);
        self.obs.verification_coverage = Some(r.verification_coverage);
        self.obs.minted_good = Some(r.minted_good);
        self.obs.good_misses = Some(r.good_misses);
        // Per-epoch late-window delta; `0` when no network is attached
        // (`fill_dynamic` already reset the field).
        if let (Some(before), Some(net)) = (late_before, self.net.as_ref()) {
            self.obs.late = net.stats().late - before;
        }
        &self.obs
    }

    fn observation(&self) -> &EpochObservation {
        &self.obs
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.sys.dynamics.graphs.view()
    }

    fn epoch(&self) -> u64 {
        self.sys.dynamics.epoch
    }

    fn batch(&self) -> &ObservationBatch {
        &self.batch
    }

    fn batch_mut(&mut self) -> &mut ObservationBatch {
        &mut self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::Params;
    use tg_overlay::GraphKind;

    fn base() -> ScenarioSpec {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.15;
        params.attack_requests_per_id = 1;
        ScenarioSpec::new(700, 41).params(params).budget(35).searches(200)
    }

    /// The conformance contract at the PoW layer: a spec-built
    /// [`FullDriver`] reproduces a hand-constructed [`FullSystem`] run
    /// field-for-field, honest and strategic alike.
    #[test]
    fn full_driver_matches_direct_full_system() {
        for (strategy, scheme) in [
            (StrategySpec::Honest, MintScheme::TwoHash),
            (StrategySpec::GapFilling, MintScheme::SingleHash),
        ] {
            let spec = base()
                .strategy(strategy)
                .defense(Defense::Pow { scheme, fresh_strings: true })
                .topology(GraphKind::Chord);
            let mut driver = build(&spec).unwrap();

            let mut sys = FullSystem::new(
                spec.params,
                spec.kind,
                PuzzleParams::calibrated(16, 2048),
                StringParams::default(),
                spec.n_good,
                spec.n_bad as f64,
                true,
                spec.seed,
            );
            if strategy != StrategySpec::Honest {
                sys = sys.with_adversary(StrategicPowProvider::boxed(
                    spec.n_good,
                    spec.n_bad as f64,
                    scheme,
                    strategy.build_strategy().unwrap(),
                ));
            }
            sys.dynamics.searches_per_epoch = spec.searches;

            for _ in 0..2 {
                let r = sys.run_epoch();
                let o = driver.step();
                assert_eq!(o.epoch, r.epoch);
                assert_eq!(o.epoch_string, Some(r.epoch_string));
                assert_eq!(o.strings_agreement, Some(r.strings.agreement));
                assert_eq!(o.bad_ids, r.minted_bad);
                assert_eq!(o.bad_share, r.bad_share);
                assert_eq!(o.minted_good, Some(r.minted_good));
                assert_eq!(o.frac_red, r.dynamics.frac_red);
                assert_eq!(o.search_success_dual, r.dynamics.search_success_dual);
            }
        }
    }

    /// The synthesized-strings arm reproduces the provider-level
    /// composition (pow provider inside a plain dynamic system).
    #[test]
    fn synthesized_driver_matches_direct_provider_composition() {
        let spec = base()
            .strategy(StrategySpec::GapFilling)
            .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true })
            .strings(StringMode::Synthesized)
            .topology(GraphKind::D2B);
        let mut driver = build(&spec).unwrap();

        let mut provider = StrategicPowProvider::boxed(
            spec.n_good,
            spec.n_bad as f64,
            MintScheme::SingleHash,
            Box::new(tg_core::dynamic::GapFilling),
        );
        let mut sys = tg_core::dynamic::DynamicSystem::new(
            spec.params,
            spec.kind,
            spec.mode,
            &mut provider,
            spec.seed,
            None,
        );
        sys.searches_per_epoch = spec.searches;

        for _ in 0..2 {
            let r = sys.advance_epoch(&mut provider);
            let o = driver.step();
            assert_eq!(o.epoch, r.epoch);
            assert_eq!(o.frac_red, r.frac_red);
            assert_eq!(o.search_success_dual, r.search_success_dual);
            assert!(o.epoch_string.is_none(), "synthesized strings never reach the observation");
        }
    }

    /// Every defense × string-mode × strategy family combination builds
    /// and steps (the split the API erases).
    #[test]
    fn every_arm_builds_and_steps() {
        let hoarder = StrategySpec::PrecomputeHoarder { fam_seed: 9, attempts: 200 };
        let specs = [
            base().strategy(hoarder),
            base()
                .strategy(hoarder)
                .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false })
                .strings(StringMode::Synthesized),
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
            base()
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true })
                .strings(StringMode::Synthesized),
        ];
        for spec in specs {
            let mut driver = build(&spec).unwrap();
            let o = driver.step();
            assert_eq!(o.epoch, 2, "spec {}", spec.label());
            assert!(o.total_groups > 0);
        }
    }

    /// The tentpole equivalence at the PoW layer: the actor runtime over
    /// a perfect transport reproduces the synchronous driver's
    /// observations byte-identically, on every builder arm.
    #[test]
    fn actor_runtime_over_perfect_transport_matches_sync() {
        let specs = [
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
            base()
                .strategy(StrategySpec::GapFilling)
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true }),
            base()
                .strategy(StrategySpec::GapFilling)
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false })
                .strings(StringMode::Synthesized),
            base().strategy(StrategySpec::PrecomputeHoarder { fam_seed: 9, attempts: 200 }),
        ];
        for spec in specs {
            let mut sync = build(&spec).unwrap();
            let mut actor = build(&spec.clone().runtime(RuntimeChoice::Actor)).unwrap();
            for _ in 0..2 {
                assert_eq!(
                    format!("{:?}", sync.step()),
                    format!("{:?}", actor.step()),
                    "spec {}",
                    spec.label()
                );
            }
        }
    }

    /// Faults reach the PoW pipeline: drops lose announcements (fewer
    /// delivered good IDs) and fail probe chains (lower success).
    #[test]
    fn lossy_transport_degrades_the_full_protocol() {
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .runtime(RuntimeChoice::Actor);
        let mut perfect = build(&spec).unwrap();
        let mut lossy = build(&spec.clone().drop_rate(0.4)).unwrap();
        let (mut fewer_good, mut lower_success) = (false, false);
        for _ in 0..2 {
            let (lg, ls) = {
                let o = lossy.step();
                (o.minted_good.unwrap(), o.search_success_dual)
            };
            let p = perfect.step();
            if lg < p.minted_good.unwrap() {
                fewer_good = true;
            }
            if ls < p.search_success_dual {
                lower_success = true;
            }
        }
        assert!(fewer_good, "drops must lose good announcements");
        assert!(lower_success, "drops must fail probe chains");
    }

    #[test]
    fn protocol_over_single_graph_is_unsupported() {
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .build_mode(BuildMode::SingleGraph);
        assert!(matches!(build(&spec), Err(ScenarioError::Unsupported(_))));
    }

    /// The total builder enforces the transport/runtime pairing too:
    /// `transport=socket` + `runtime=sync` fails with the typed error
    /// before any system is constructed, on every defense arm.
    #[test]
    fn socket_without_actor_runtime_is_rejected_by_total_builder() {
        use tg_core::scenario::TransportChoice;
        for spec in [
            base(),
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
        ] {
            let bad = spec.transport(TransportChoice::Socket);
            assert!(
                matches!(build(&bad), Err(ScenarioError::NeedsActorRuntime(_))),
                "spec {} must be rejected",
                bad.label()
            );
            let ok = bad.runtime(RuntimeChoice::Actor);
            assert!(build(&ok).is_ok(), "spec {} must build", ok.label());
        }
    }

    /// The spec-level string-adversary axis reaches the composed
    /// system: a `stradv=` spec behaves exactly like the hand-set
    /// `FullSystem::string_adversary` field it replaces, and the knob
    /// measurably perturbs the string layer.
    #[test]
    fn spec_string_adversary_matches_hand_built_system() {
        let adv = StringAdversarySpec::ForcedRecords { strings: 4, release_frac: 0.5 };
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .string_adversary(adv);
        let mut driver = build(&spec).unwrap();

        let mut sys = FullSystem::new(
            spec.params,
            spec.kind,
            PuzzleParams::calibrated(16, 2048),
            StringParams::default(),
            spec.n_good,
            spec.n_bad as f64,
            true,
            spec.seed,
        );
        sys.string_adversary = StringAdversary::ForcedRecords { strings: 4, release_frac: 0.5 };
        sys.dynamics.searches_per_epoch = spec.searches;

        let mut diverged_from_clean = false;
        let mut clean = build(
            &base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
        )
        .unwrap();
        for _ in 0..2 {
            let r = sys.run_epoch();
            let o = driver.step();
            assert_eq!(o.epoch_string, Some(r.epoch_string));
            assert_eq!(o.strings_agreement, Some(r.strings.agreement));
            assert_eq!(o.verification_coverage, Some(r.verification_coverage));
            if o.epoch_string != clean.step().epoch_string {
                diverged_from_clean = true;
            }
        }
        assert!(diverged_from_clean, "forced records must perturb the agreed strings");
    }

    /// Real PoW observations survive the result-store line codec: every
    /// row the store would persist for a strategic `FullDriver` run
    /// decodes back bit-identical (the warm-replay contract at the
    /// layer that actually produces the numbers).
    #[test]
    fn pow_observations_round_trip_through_the_store_codec() {
        use tg_core::scenario::ObsRow;
        let spec = base()
            .strategy(StrategySpec::GapFilling)
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true });
        let mut driver = build(&spec).unwrap();
        for _ in 0..3 {
            let row = ObsRow::of(driver.step());
            let back = ObsRow::decode_line(&row.encode_line()).unwrap();
            assert_eq!(back.epoch, row.epoch);
            for (got, want) in [
                (back.search_success_single, row.search_success_single),
                (back.search_success_dual, row.search_success_dual),
                (back.frac_red_s0, row.frac_red_s0),
                (back.bad_share, row.bad_share),
                (back.mean_memberships, row.mean_memberships),
                (back.minted_good, row.minted_good),
                (back.good_misses, row.good_misses),
            ] {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            assert_eq!(
                (back.captured_groups, back.total_groups, back.bad_ids),
                (row.captured_groups, row.total_groups, row.bad_ids)
            );
        }
    }
}
