//! **E11 — the adversary-vs-defense frontier sweep** (the boundary of
//! Theorem 3, mapped instead of point-sampled).
//!
//! A β × d₂ grid per (strategy, defense) pane, run by the
//! [`crate::frontier`] engine. The no-PoW column drives the abstract
//! §III [`tg_core::dynamic::DynamicSystem`]; every PoW column drives
//! the **real** `tg-pow::FullSystem` epoch-string protocol with a
//! strategic adversary inside the minting pipeline — the first time the
//! §IV-B mechanics (string agreement, hoarding, stale-solution culling)
//! face the adaptive strategies.
//!
//! Expected shape: the no-PoW frontier for the adaptive strategies
//! (`gap-filling`, `adaptive-majority-flipper`) sits at low β — free
//! placement amplifies a small budget into captured groups — while the
//! paper's `f∘g` column pushes every strategy's frontier up to the β
//! where even uniform noise overwhelms a `d₂·ln ln n`-sized group. The
//! `f∘g-frozen` column isolates §IV-B: same scheme, but minting never
//! rotates its string, so the `precompute-hoarder` compounds across
//! epochs (at small scale the placement strategies are unaffected —
//! freezing the string only re-opens the pre-computation axis).

use crate::args::Options;
use crate::frontier::{run_frontier, Defense, FrontierConfig, FrontierOutcome, LEGACY_CHURN};
use tg_overlay::GraphKind;
use tg_pow::MintScheme;

/// The strategy axis of the small (per-PR) grid.
pub const STRATEGIES: [&str; 3] = ["uniform", "gap-filling", "adaptive-majority-flipper"];

/// The strategy axis of the `--full` (nightly) grid.
pub const STRATEGIES_FULL: [&str; 5] = [
    "uniform",
    "gap-filling",
    "interval-targeting",
    "adaptive-majority-flipper",
    "precompute-hoarder",
];

/// The adaptive strategies the acceptance contrast is stated over
/// (placement chosen from observed state, the hardest rows per
/// Dufoulon–Pandurangan's adaptive-adversary lens).
pub const ADAPTIVE_STRATEGIES: [&str; 2] = ["gap-filling", "adaptive-majority-flipper"];

/// The defense axis: no PoW, the warned-against single-hash scheme, the
/// paper's `f∘g`, and `f∘g` with the §IV-B fresh-string defense off.
pub const DEFENSES: [Defense; 4] = [
    Defense::NoPow,
    Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
    Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
    Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
];

/// The grid for the given options: a 3×3 (β × d₂) sweep per pane at
/// small scale, an 8×5 sweep with all five strategies under `--full`.
pub fn config(opts: &Options) -> FrontierConfig {
    if opts.full {
        FrontierConfig {
            n_good: 2000,
            betas: vec![0.03, 0.06, 0.10, 0.15, 0.21, 0.28, 0.36, 0.45],
            d2s: vec![2.0, 3.0, 4.0, 6.0, 8.0],
            churns: vec![LEGACY_CHURN],
            kinds: vec![GraphKind::Chord],
            strategies: STRATEGIES_FULL.to_vec(),
            defenses: DEFENSES.to_vec(),
            epochs: 5,
            trials: 3,
            searches: 400,
            seed: opts.seed,
            kernel: Default::default(),
            runtime: opts.runtime,
            transport: opts.transport,
            store: opts.open_store(),
            check_invariants: opts.check_invariants,
        }
    } else {
        FrontierConfig {
            n_good: 380,
            betas: vec![0.06, 0.12, 0.25],
            d2s: vec![3.0, 4.0, 6.0],
            churns: vec![LEGACY_CHURN],
            kinds: vec![GraphKind::Chord],
            strategies: STRATEGIES.to_vec(),
            defenses: DEFENSES.to_vec(),
            epochs: 2,
            trials: 1,
            searches: 100,
            seed: opts.seed,
            kernel: Default::default(),
            runtime: opts.runtime,
            transport: opts.transport,
            store: opts.open_store(),
            check_invariants: opts.check_invariants,
        }
    }
}

/// Run E11 and return the full outcome (cell table, frontier map, text
/// heatmaps).
pub fn run(opts: &Options) -> FrontierOutcome {
    let cfg = config(opts);
    let out = run_frontier(&cfg);
    if let Some(store) = &cfg.store {
        if let Err(e) = store.write_index() {
            eprintln!("warning: could not write store index: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::CAPTURE_EPS;

    fn opts() -> Options {
        Options {
            seed: 42,
            runtime: Default::default(),
            full: false,
            out_dir: "/tmp".into(),
            quiet: true,
            only: None,
            list: false,
            transport: Default::default(),
            store: None,
            check_invariants: false,
        }
    }

    /// One shared sweep for all assertions in this module (the
    /// determinism test pays for its own second run).
    fn shared_run() -> &'static FrontierOutcome {
        static RUN: std::sync::OnceLock<FrontierOutcome> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&opts()))
    }

    /// The acceptance frontier contrast: for every adaptive strategy and
    /// every swept d₂, the `f∘g` defense first breaks at strictly higher
    /// β than no defense (a never-captured frontier counts as +∞).
    #[test]
    fn fog_frontier_strictly_dominates_no_pow() {
        let out = shared_run();
        let cfg = config(&opts());
        for strategy in ADAPTIVE_STRATEGIES {
            for &d2 in &cfg.d2s {
                let d2s = crate::table::f(d2);
                let none = out.frontier_beta(strategy, "none", &d2s);
                let fog = out.frontier_beta(strategy, "f∘g", &d2s);
                let none_v = none.unwrap_or(f64::INFINITY);
                let fog_v = fog.unwrap_or(f64::INFINITY);
                assert!(
                    fog_v > none_v,
                    "{strategy} d2={d2s}: f∘g frontier {fog:?} must sit at higher β than \
                     no-PoW frontier {none:?}"
                );
            }
        }
    }

    /// The adaptive strategies do break the undefended system somewhere
    /// in the swept range — the frontier exists, it is not vacuous.
    #[test]
    fn adaptive_strategies_capture_without_pow() {
        let out = shared_run();
        let cfg = config(&opts());
        for strategy in ADAPTIVE_STRATEGIES {
            for &d2 in &cfg.d2s {
                let d2s = crate::table::f(d2);
                assert!(
                    out.frontier_beta(strategy, "none", &d2s).is_some(),
                    "{strategy} d2={d2s}: must capture somewhere without PoW"
                );
            }
        }
    }

    /// Bigger groups buy β headroom: within the no-PoW column of each
    /// adaptive strategy, the frontier is monotone non-decreasing in d₂.
    #[test]
    fn frontier_rises_with_group_size() {
        let out = shared_run();
        let cfg = config(&opts());
        for strategy in ADAPTIVE_STRATEGIES {
            let frontiers: Vec<f64> = cfg
                .d2s
                .iter()
                .map(|&d2| {
                    out.frontier_beta(strategy, "none", &crate::table::f(d2))
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            for w in frontiers.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "{strategy}: no-PoW frontier must not fall with d2: {frontiers:?}"
                );
            }
        }
    }

    /// Grid shape and bookkeeping: every cell present, rectangular rows,
    /// skipped cells only ever *after* a captured cell in the same row.
    #[test]
    fn grid_is_complete_and_early_exit_is_sound() {
        let out = shared_run();
        let cfg = config(&opts());
        let expected = cfg.strategies.len() * cfg.defenses.len() * cfg.d2s.len() * cfg.betas.len();
        assert_eq!(out.cells.rows.len(), expected, "one row per grid cell");
        for rows in out.cells.rows.chunks(cfg.betas.len()) {
            let mut seen_capture = false;
            for row in rows {
                if row[6] == "skipped-overrun" {
                    assert!(seen_capture, "skip before any capture in row {row:?}");
                } else if let Ok(v) = row[11].parse::<f64>() {
                    seen_capture |= v > CAPTURE_EPS;
                }
            }
        }
        // The frontier map covers every (strategy, defense, d2) row.
        assert_eq!(
            out.frontier.rows.len(),
            cfg.strategies.len() * cfg.defenses.len() * cfg.d2s.len()
        );
    }

    /// Same seed ⇒ byte-identical CSVs and heatmaps, regardless of how
    /// the parallel rows were scheduled. Runs on a reduced grid (both
    /// system kinds, both early-exit regimes) so the double execution
    /// stays cheap; the full-grid pinning lives in the golden suite.
    #[test]
    fn sweep_is_byte_identical_across_runs() {
        let cfg = FrontierConfig {
            n_good: 260,
            betas: vec![0.06, 0.25],
            d2s: vec![3.0],
            churns: vec![LEGACY_CHURN],
            kinds: vec![GraphKind::Chord],
            strategies: vec!["gap-filling"],
            defenses: DEFENSES.to_vec(),
            epochs: 2,
            trials: 2,
            searches: 60,
            seed: 42,
            kernel: Default::default(),
            runtime: Default::default(),
            transport: Default::default(),
            store: None,
            check_invariants: false,
        };
        let a = run_frontier(&cfg);
        let b = run_frontier(&cfg);
        assert_eq!(a.cells.to_csv(), b.cells.to_csv());
        assert_eq!(a.frontier.to_csv(), b.frontier.to_csv());
        assert_eq!(a.heatmaps, b.heatmaps);
    }
}
