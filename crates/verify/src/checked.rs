//! [`CheckedDriver`] — an [`EpochDriver`] wrapper that evaluates every
//! applicable per-step invariant after each epoch.
//!
//! The wrapper is **observation-transparent**: checks are read-only over
//! the observation and graphs, and any randomness they need (sampled
//! route probes) comes from a `verify-*` labelled stream of the master
//! seed, so wrapping a driver changes no byte of its observation
//! sequence — the committed goldens replay identically checked or not.

use tg_core::scenario::{EpochDriver, EpochObservation, ObservationBatch, ScenarioError};
use tg_core::{GraphsView, ScenarioSpec};

use crate::invariant::{registry, CheckContext, Invariant, Scope, Violation};

/// An [`EpochDriver`] that runs the invariant [`registry`]
/// after every [`EpochDriver::step`].
pub struct CheckedDriver {
    inner: Box<dyn EpochDriver>,
    spec: ScenarioSpec,
    invariants: Vec<Box<dyn Invariant>>,
    violations: Vec<Violation>,
    strict: bool,
}

impl std::fmt::Debug for CheckedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedDriver")
            .field("spec", &self.spec.label())
            .field("epoch", &self.inner.epoch())
            .field("violations", &self.violations.len())
            .field("strict", &self.strict)
            .finish()
    }
}

impl CheckedDriver {
    /// Wrap an already-built driver. `spec` must be the spec the driver
    /// was built from — it gates which invariants apply and labels
    /// violation reports.
    pub fn wrap(inner: Box<dyn EpochDriver>, spec: ScenarioSpec) -> CheckedDriver {
        CheckedDriver { inner, spec, invariants: registry(), violations: Vec::new(), strict: false }
    }

    /// Build the spec through the total pipeline builder
    /// ([`tg_pow::scenario::build`]) and wrap it.
    pub fn build(spec: &ScenarioSpec) -> Result<CheckedDriver, ScenarioError> {
        Ok(CheckedDriver::wrap(tg_pow::scenario::build(spec)?, spec.clone()))
    }

    /// Panic on the first violation instead of collecting it — the mode
    /// CI and the golden replays run in, so a regression fails loudly
    /// with the full reproduction line.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Violations collected so far (empty in strict mode — strict
    /// panics instead).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The wrapped scenario's spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    fn check_now(&mut self) {
        let ctx = CheckContext {
            spec: &self.spec,
            obs: self.inner.observation(),
            graphs: self.inner.graphs(),
        };
        for inv in &self.invariants {
            if inv.scope() == Scope::Model || !inv.applies(&self.spec) {
                continue;
            }
            if let Err(detail) = inv.check(&ctx) {
                let v = Violation {
                    invariant: inv.id(),
                    label: self.spec.label(),
                    epoch: ctx.obs.epoch,
                    detail,
                };
                if self.strict {
                    panic!("invariant violation: {v}");
                }
                self.violations.push(v);
            }
        }
    }
}

impl EpochDriver for CheckedDriver {
    fn step(&mut self) -> &EpochObservation {
        self.inner.step();
        self.check_now();
        self.inner.observation()
    }

    fn observation(&self) -> &EpochObservation {
        self.inner.observation()
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.inner.graphs()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn batch(&self) -> &ObservationBatch {
        self.inner.batch()
    }

    fn batch_mut(&mut self) -> &mut ObservationBatch {
        self.inner.batch_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::scenario::{Defense, MintScheme, StrategySpec};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(60, 42).searches(40)
    }

    #[test]
    fn checked_run_matches_unchecked_byte_for_byte() {
        let mut plain = tg_pow::scenario::build(&spec()).expect("build");
        let mut checked = CheckedDriver::build(&spec()).expect("build").strict();
        for _ in 0..5 {
            let a = format!("{:?}", plain.step());
            let b = format!("{:?}", checked.step());
            assert_eq!(a, b, "wrapping must not perturb the run");
        }
    }

    #[test]
    fn honest_scenarios_replay_clean_across_strategies_and_defenses() {
        let strategies = [
            StrategySpec::Honest,
            StrategySpec::Uniform,
            StrategySpec::GapFilling,
            StrategySpec::IntervalTargeting { victim: 0.25, width: 0.02 },
            StrategySpec::AdaptiveMajorityFlipper { margin: 1 },
        ];
        let defenses = [
            Defense::NoPow,
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
        ];
        for strategy in strategies {
            for defense in defenses {
                let spec = spec().strategy(strategy).defense(defense);
                let mut d = CheckedDriver::build(&spec).expect("build");
                d.run(4);
                assert_eq!(d.violations(), &[], "violations under `{}`", d.spec().label());
            }
        }
    }

    #[test]
    fn violations_are_collected_with_full_context() {
        // Force a violation by lying to the checker about the budget:
        // build a gap-filling run but hand the wrapper a spec claiming
        // n_bad = 0, so INV-BUDGET must trip on every epoch.
        let real = spec().strategy(StrategySpec::Uniform);
        let mut lying = real.clone();
        lying.n_bad = 0;
        let inner = tg_pow::scenario::build(&real).expect("build");
        let mut d = CheckedDriver::wrap(inner, lying.clone());
        d.run(3);
        assert!(!d.violations().is_empty(), "the lie must be caught");
        let v = &d.violations()[0];
        assert_eq!(v.invariant, "INV-BUDGET");
        assert_eq!(v.label, lying.label());
        assert!(v.to_string().contains("reproduce"));
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn strict_mode_panics_on_violation() {
        let real = spec().strategy(StrategySpec::Uniform);
        let mut lying = real.clone();
        lying.n_bad = 0;
        let inner = tg_pow::scenario::build(&real).expect("build");
        CheckedDriver::wrap(inner, lying).strict().run(3);
    }
}
