//! **E15 — the exhaustive invariant model check** (the `tg_verify`
//! layer as an experiment).
//!
//! Everything else in the registry measures the system statistically;
//! this experiment proves the tiny cases outright. It drives the
//! `tg_verify` model checker over **every** adversary placement of a
//! tiny static universe for every identity-pipeline defense and every
//! budget, plus every declarative adversary strategy through a checked
//! epoch driver, and emits three tables:
//!
//! * `e15_model` — one row per (defense, budget) enumeration cell:
//!   placements enumerated, placements capturing a group, exhaustive
//!   route checks and their violations, and the witness placement at
//!   the defense's capture threshold,
//! * `e15_strategies` — one row per (strategy, defense) pair run
//!   through [`tg_verify::CheckedDriver`]: epochs stepped and
//!   per-step invariant violations observed (all zero),
//! * `e15_invariants` — the per-invariant verdict: registry ID, paper
//!   citation, scope, how many checks ran, how many violated.
//!
//! The run is also the acceptance gate: it panics (after printing the
//! offending cell) if any placement below a defense's threshold
//! captures, if any route or budget check fails anywhere, if the
//! capture counts are not monotone in the budget, or if any checked
//! strategy run violates a per-step invariant. Quick mode enumerates
//! the default tiny universe; `--full` widens it to 12 good identities
//! and budget 6 (7 530 placements per defense).

use crate::args::Options;
use crate::table::Table;
use tg_core::scenario::{Defense, EpochDriver, MintScheme, ScenarioSpec, StrategySpec};
use tg_verify::{
    assert_model, registry, run_model, CheckedDriver, ModelConfig, ModelReport, Scope,
};

/// The enumeration universe for the given options: the `tg_verify`
/// default tiny config in quick mode, a wider one under `--full` —
/// both reseeded from `--seed` so the oracle family follows the run.
pub fn model_config(opts: &Options) -> ModelConfig {
    if opts.full {
        ModelConfig { n_good: 12, draws: 4, max_budget: 6, seed: opts.seed }
    } else {
        ModelConfig { seed: opts.seed, ..ModelConfig::tiny() }
    }
}

/// Every declarative strategy the spec layer can express, with tiny
/// in-range parameters.
fn all_strategies(seed: u64) -> Vec<StrategySpec> {
    vec![
        StrategySpec::Honest,
        StrategySpec::Uniform,
        StrategySpec::GapFilling,
        StrategySpec::IntervalTargeting { victim: 0.25, width: 0.02 },
        StrategySpec::AdaptiveMajorityFlipper { margin: 1 },
        StrategySpec::ChurnTimed { trigger: 0.1, retainer: 0.5 },
        StrategySpec::PrecomputeHoarder { fam_seed: seed ^ 0xE15, attempts: 64 },
    ]
}

/// The defense columns of the strategy sweep.
fn all_defenses() -> Vec<Defense> {
    vec![
        Defense::NoPow,
        Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
        Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
    ]
}

fn enumeration_table(report: &ModelReport) -> Table {
    let mut t = Table::new(
        "e15_model",
        &[
            "defense",
            "budget",
            "placements",
            "capturing",
            "max_captured",
            "route_checks",
            "route_violations",
            "budget_violations",
            "witness",
        ],
    );
    for c in &report.cells {
        let witness = c
            .witness
            .as_ref()
            .map(|w| {
                let slots: Vec<String> = w.slots.iter().map(usize::to_string).collect();
                format!(
                    "slots {} capture group {} ({}/{} bad)",
                    slots.join("+"),
                    w.group,
                    w.bad_in_group,
                    w.group_size
                )
            })
            .unwrap_or_else(|| "-".to_string());
        t.push(vec![
            c.defense.label().to_string(),
            c.budget.to_string(),
            c.placements.to_string(),
            c.capturing.to_string(),
            c.max_captured.to_string(),
            c.route_checks.to_string(),
            c.route_violations.to_string(),
            c.budget_violations.to_string(),
            witness,
        ]);
    }
    t
}

/// Run every (strategy, defense) pair through a violation-collecting
/// [`CheckedDriver`] and return the sweep table plus per-invariant
/// violation counts and the total epoch-checks performed.
fn strategy_sweep(
    opts: &Options,
    by_invariant: &mut std::collections::BTreeMap<&'static str, (u64, u64)>,
) -> Table {
    let (n_good, epochs) = if opts.full { (200, 6) } else { (80, 4) };
    let mut t = Table::new("e15_strategies", &["strategy", "defense", "epochs", "violations"]);
    for strategy in all_strategies(opts.seed) {
        for defense in all_defenses() {
            let spec = ScenarioSpec::new(n_good, opts.seed)
                .strategy(strategy)
                .defense(defense)
                .searches(if opts.full { 120 } else { 60 })
                .runtime(opts.runtime)
                .transport(opts.transport);
            let mut driver = CheckedDriver::build(&spec)
                .unwrap_or_else(|e| panic!("e15 scenario `{}` must build: {e:?}", spec.label()));
            driver.run(epochs);
            for (id, (checked, _)) in by_invariant.iter_mut() {
                let _ = id;
                *checked += epochs as u64;
            }
            for v in driver.violations() {
                if let Some((_, violated)) = by_invariant.get_mut(v.invariant) {
                    *violated += 1;
                }
                eprintln!("e15: {v}");
            }
            t.push(vec![
                strategy.name().to_string(),
                defense.label().to_string(),
                epochs.to_string(),
                driver.violations().len().to_string(),
            ]);
        }
    }
    t
}

fn invariant_table(
    report: &ModelReport,
    by_invariant: &std::collections::BTreeMap<&'static str, (u64, u64)>,
) -> Table {
    let mut t =
        Table::new("e15_invariants", &["invariant", "citation", "scope", "checked", "violations"]);
    let route_checks: u64 = report.cells.iter().map(|c| c.route_checks).sum();
    let route_viol: u64 = report.cells.iter().map(|c| c.route_violations).sum();
    let placements: u64 = report.cells.iter().map(|c| c.placements).sum();
    let budget_viol: u64 = report.cells.iter().map(|c| c.budget_violations).sum();
    let below_threshold_captures: u64 = tg_verify::ModelDefense::ALL
        .iter()
        .map(|&d| {
            let t = report.threshold(d);
            report
                .defense_cells(d)
                .filter(|c| t.is_none_or(|t| c.budget < t))
                .map(|c| c.capturing)
                .sum::<u64>()
        })
        .sum();
    for inv in registry() {
        let (step_checked, step_viol) = by_invariant.get(inv.id()).copied().unwrap_or((0, 0));
        // Model-scope contributions: what the enumeration established
        // for this invariant, on top of the per-step sweep.
        let (model_checked, model_viol) = match inv.id() {
            "INV-GOODNESS" => (placements, below_threshold_captures),
            "INV-ROUTE" => (route_checks, route_viol),
            "INV-BUDGET" => (placements, budget_viol),
            "INV-MONOTONE" => (report.cells.len() as u64, 0),
            _ => (0, 0),
        };
        let scope = match inv.scope() {
            Scope::Step => "step",
            Scope::Model => "model",
            Scope::Both => "step+model",
        };
        t.push(vec![
            inv.id().to_string(),
            inv.citation().to_string(),
            scope.to_string(),
            (step_checked + model_checked).to_string(),
            (step_viol + model_viol).to_string(),
        ]);
    }
    t
}

/// The full experiment: enumerate, sweep, tabulate, then gate.
pub fn run(opts: &Options) -> Vec<Table> {
    let cfg = model_config(opts);
    let report = run_model(&cfg);
    if !opts.quiet {
        for d in tg_verify::ModelDefense::ALL {
            match report.threshold(d) {
                Some(t) => println!(
                    "e15: {} capture threshold at budget {t} ({} of {} placements)",
                    d.label(),
                    report.defense_cells(d).find(|c| c.budget == t).map_or(0, |c| c.capturing),
                    report.defense_cells(d).find(|c| c.budget == t).map_or(0, |c| c.placements),
                ),
                None => {
                    println!("e15: {} never captures up to budget {}", d.label(), cfg.max_budget)
                }
            }
        }
    }

    let mut by_invariant: std::collections::BTreeMap<&'static str, (u64, u64)> =
        registry().iter().map(|inv| (inv.id(), (0, 0))).collect();
    let strategies = strategy_sweep(opts, &mut by_invariant);
    let tables =
        vec![enumeration_table(&report), strategies, invariant_table(&report, &by_invariant)];

    // The acceptance gate, after the tables exist so a violation still
    // leaves the evidence on screen/disk for the repro.
    assert_model(&report);
    let step_violations: u64 = by_invariant.values().map(|&(_, v)| v).sum();
    assert_eq!(
        step_violations, 0,
        "checked strategy sweep must replay clean; see the e15 log lines above"
    );
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Options {
        Options { quiet: true, ..Default::default() }
    }

    #[test]
    fn e15_quick_passes_its_own_gate_and_shapes_its_tables() {
        let tables = run(&quick_opts());
        assert_eq!(tables.len(), 3);
        let cells = &&tables[0];
        let cfg = model_config(&quick_opts());
        assert_eq!(cells.rows.len(), 3 * (cfg.max_budget + 1), "one row per defense × budget");
        let strategies = &tables[1];
        assert_eq!(strategies.rows.len(), 7 * 4, "one row per strategy × defense");
        assert!(
            strategies.rows.iter().all(|r| r[3] == "0"),
            "every checked strategy run replays clean"
        );
        let invariants = &tables[2];
        assert_eq!(invariants.rows.len(), 5, "one row per registered invariant");
        assert!(invariants.rows.iter().all(|r| r[4] == "0"), "zero violations everywhere");
    }

    #[test]
    fn e15_locates_the_undefended_threshold_with_a_witness() {
        let report = run_model(&model_config(&quick_opts()));
        let t = report.threshold(tg_verify::ModelDefense::NoPow).expect("threshold exists");
        assert!(t >= 2, "one tiny-model adversary must not capture");
        assert!(report.witness(tg_verify::ModelDefense::NoPow).is_some());
    }
}
