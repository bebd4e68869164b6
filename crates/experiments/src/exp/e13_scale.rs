//! **E13 — epoch-kernel throughput at scale** (the million-identity
//! sweep behind the arena/SoA kernel).
//!
//! Every other experiment asks *what* the reconstructed system computes;
//! this one asks *how fast* the epoch hot path turns identities into
//! group graphs. A ladder of population rungs drives the honest dynamic
//! scenario through the epoch kernel (one contiguous member column per
//! side, membership as range scans, group fan-out through deterministic
//! chunking) and measures wall clock: epochs/second and
//! identities/second per rung. Every rung is timed live; a replayed
//! wall time is not a measurement. Quick mode climbs to 5·10³
//! identities so the CI smoke step stays in seconds; `--full` climbs to
//! the titular 10⁶-identity rung.

use std::time::Instant;

use crate::args::Options;
use crate::table::{f, Table};
use tg_core::scenario::{budget_for, KernelChoice, ScenarioSpec};
use tg_overlay::GraphKind;

/// β of every throughput rung (the paper default; the budget rides
/// along as `round(β/(1−β)·n_good)` so rung totals come out round).
pub const SCALE_BETA: f64 = 0.05;

/// Robustness searches per epoch on the throughput rungs — enough to
/// keep the observation pipeline honest, few enough that the timing is
/// the kernel's, not the sampler's.
const SCALE_SEARCHES: usize = 16;

/// One ladder rung: a population size for a few epochs.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Fixed at [`KernelChoice::Arena`]; kept for `perfbench`.
    pub kernel: KernelChoice,
    /// Good identities per epoch (`n_bad` derives from [`SCALE_BETA`]).
    pub n_good: usize,
    /// Timed epochs (the initial build is timed separately).
    pub epochs: usize,
}

impl Rung {
    /// Total identities per epoch (good + β-derived adversary budget).
    pub fn n_total(&self) -> usize {
        self.n_good + budget_for(SCALE_BETA, self.n_good)
    }
}

/// The ladder for the given options: small rungs in quick mode (CI
/// smoke); `--full` climbs to the 10⁶-identity rung (`n_good =
/// 950 000` + 50 000 adversarial = 10⁶ exactly).
pub fn rungs(opts: &Options) -> Vec<Rung> {
    let rung = |n_good, epochs| Rung { kernel: KernelChoice::Arena, n_good, epochs };
    if opts.full {
        vec![rung(9_500, 3), rung(95_000, 2), rung(285_000, 2), rung(950_000, 2)]
    } else {
        vec![rung(1_900, 3), rung(4_750, 2)]
    }
}

/// One measured rung: the configuration plus its wall-clock split.
#[derive(Clone, Copy, Debug)]
pub struct RungResult {
    /// The rung that ran.
    pub rung: Rung,
    /// Wall clock of the initial system build, milliseconds.
    pub build_ms: f64,
    /// Wall clock of the timed epoch loop, milliseconds.
    pub wall_ms: f64,
}

impl RungResult {
    /// Simulated epochs per second of the timed loop.
    pub fn epochs_per_sec(&self) -> f64 {
        self.rung.epochs as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Identities processed per second: every epoch reconstructs the
    /// whole population, so the rate is `n_total · epochs / wall`.
    pub fn identities_per_sec(&self) -> f64 {
        (self.rung.n_total() * self.rung.epochs) as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Mean wall milliseconds per simulated epoch.
    pub fn ms_per_epoch(&self) -> f64 {
        self.wall_ms / self.rung.epochs.max(1) as f64
    }
}

/// The scenario one rung drives: the honest dynamic system over D2B
/// (the paper's expander family — route lengths stress the kernel more
/// than Chord's) with an exact capacity hint.
pub fn rung_spec(rung: &Rung, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(rung.n_good, seed)
        .beta(SCALE_BETA)
        .churn(0.1)
        .attack_requests(0)
        .topology(GraphKind::D2B)
        .searches(SCALE_SEARCHES)
        .capacity(rung.n_total())
}

/// Time every rung live, sequentially (each rung's epoch loop
/// parallelizes internally; running rungs back to back keeps the clocks
/// honest). `check_invariants` wraps each driver in the invariant
/// checker.
pub fn measure(rungs: &[Rung], seed: u64, check_invariants: bool) -> Vec<RungResult> {
    rungs
        .iter()
        .map(|&rung| {
            let spec = rung_spec(&rung, seed);
            let t0 = Instant::now();
            let mut driver = crate::checked::build_driver(&spec, check_invariants);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            driver.run(rung.epochs);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            RungResult { rung, build_ms, wall_ms }
        })
        .collect()
}

/// Run E13: time the ladder and return the throughput table.
pub fn run(opts: &Options) -> Table {
    let results = measure(&rungs(opts), opts.seed, opts.check_invariants);
    let mut table = Table::new(
        "e13_scale",
        &[
            "n_identities",
            "epochs",
            "build_ms",
            "wall_ms",
            "ms_per_epoch",
            "epochs_per_sec",
            "identities_per_sec",
        ],
    );
    for r in &results {
        table.push(vec![
            r.rung.n_total().to_string(),
            r.rung.epochs.to_string(),
            f(r.build_ms),
            f(r.wall_ms),
            f(r.ms_per_epoch()),
            f(r.epochs_per_sec()),
            f(r.identities_per_sec()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(full: bool) -> Options {
        Options { full, quiet: true, ..Options::default() }
    }

    /// Quick mode stays CI-sized.
    #[test]
    fn quick_ladder_is_small() {
        let ladder = rungs(&opts(false));
        assert!(!ladder.is_empty());
        assert!(ladder.iter().all(|r| r.n_total() <= 10_000), "quick rungs stay CI-sized");
    }

    /// `--full` tops out at exactly the titular million identities.
    #[test]
    fn full_ladder_reaches_one_million_identities() {
        let ladder = rungs(&opts(true));
        let top = ladder.iter().max_by_key(|r| r.n_total()).expect("non-empty ladder");
        assert_eq!(top.n_total(), 1_000_000);
    }

    /// A miniature rung actually runs through the measurement path and
    /// produces positive, consistent rates.
    #[test]
    fn measurement_produces_positive_rates() {
        let ladder = [Rung { kernel: KernelChoice::Arena, n_good: 380, epochs: 2 }];
        let results = measure(&ladder, 42, false);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.wall_ms > 0.0 && r.build_ms > 0.0);
        assert!(r.epochs_per_sec() > 0.0);
        let ratio = r.identities_per_sec() / r.epochs_per_sec();
        assert!(
            (ratio - r.rung.n_total() as f64).abs() < 1e-6,
            "identity rate is epoch rate × population"
        );
    }
}
