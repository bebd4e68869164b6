//! Smoke suite: every experiment harness runs end-to-end at the small
//! (non-`--full`) configuration and emits a non-empty CSV, so the
//! e1–e11 binaries cannot silently rot. Paper-scale runs stay behind
//! `--full` on the binaries themselves; the `#[ignore]`d tests cover
//! that path (run nightly in CI).

use tg_experiments::exp::*;
use tg_experiments::{Options, Table};

/// Options for a fast run: small parameters, CSV into a scratch dir.
fn smoke_opts(name: &str) -> Options {
    let out = std::env::temp_dir().join(format!("tg-smoke-{name}-{}", std::process::id()));
    Options {
        seed: 42,
        runtime: Default::default(),
        full: false,
        out_dir: out.to_str().expect("utf-8 temp path").to_string(),
        quiet: true,
        only: None,
        list: false,
        transport: Default::default(),
        store: None,
        check_invariants: false,
    }
}

/// Emit the table and check both the in-memory rows and the CSV on disk.
fn check(table: &Table, opts: &Options) {
    assert!(!table.rows.is_empty(), "{} produced no rows", table.name);
    for row in &table.rows {
        assert_eq!(row.len(), table.headers.len(), "ragged row in {}", table.name);
    }
    table.emit(opts);
    let csv = std::path::Path::new(&opts.out_dir).join(format!("{}.csv", table.name));
    let written = std::fs::read_to_string(&csv).expect("CSV written");
    assert_eq!(written.lines().count(), table.rows.len() + 1, "CSV rows + header");
    std::fs::remove_dir_all(&opts.out_dir).ok();
}

#[test]
fn e1_robustness_smoke() {
    let opts = smoke_opts("e1");
    check(&e1_robustness::run(&opts), &opts);
}

#[test]
fn e2_groupsize_smoke() {
    let opts = smoke_opts("e2");
    check(&e2_groupsize::run(&opts), &opts);
}

#[test]
fn e3_costs_smoke() {
    let opts = smoke_opts("e3");
    check(&e3_costs::run(&opts), &opts);
}

#[test]
fn e4_epochs_smoke() {
    let opts = smoke_opts("e4");
    check(&e4_epochs::run(&opts), &opts);
}

#[test]
fn e5_state_smoke() {
    let opts = smoke_opts("e5");
    check(&e5_state::run(&opts), &opts);
}

#[test]
fn e6_pow_smoke() {
    let opts = smoke_opts("e6");
    for table in e6_pow::run(&opts) {
        check(&table, &opts);
    }
}

#[test]
fn e7_strings_smoke() {
    let opts = smoke_opts("e7");
    check(&e7_strings::run(&opts), &opts);
}

#[test]
fn e8_cuckoo_smoke() {
    let opts = smoke_opts("e8");
    check(&e8_cuckoo::run(&opts), &opts);
}

#[test]
fn e9_precompute_smoke() {
    let opts = smoke_opts("e9");
    check(&e9_precompute::run(&opts), &opts);
}

#[test]
fn e10_adversaries_smoke() {
    let opts = smoke_opts("e10");
    let tables = e10_adversaries::run(&opts);
    assert_eq!(tables.len(), 2, "strategy sweep + hoard axis");
    // Full strategy × pipeline coverage, one row per epoch.
    let sweep = &tables[0];
    for strategy in e10_adversaries::STRATEGIES {
        for pipeline in e10_adversaries::PIPELINES {
            assert!(
                sweep.rows.iter().any(|r| r[0] == strategy && r[1] == pipeline),
                "missing cell {strategy} × {pipeline}"
            );
        }
    }
    for table in &tables {
        check(table, &opts);
    }
}

/// E11 acceptance shape: a full 3×3 (β × d₂) grid across 3 strategies ×
/// 4 defenses, swept over the real `FullSystem` protocol for every PoW
/// row (the engine constructs `FullSystem` for `Defense::Pow`; asserted
/// here through the defense labels present in the CSV), with the
/// early-exit bookkeeping visible in the status column. The frontier
/// contrasts themselves (f∘g strictly dominating no-PoW for the
/// adaptive strategies) are pinned by the unit tests in
/// `exp::e11_frontier` and the golden snapshot.
#[test]
fn e11_frontier_smoke() {
    let opts = smoke_opts("e11");
    let out = e11_frontier::run(&opts);
    let cfg = e11_frontier::config(&opts);
    assert!(cfg.betas.len() >= 3 && cfg.d2s.len() >= 3, "≥3×3 β × d₂ grid");
    assert!(cfg.strategies.len() >= 3 && cfg.defenses.len() >= 2, "≥3 strategies × ≥2 defenses");
    for strategy in e11_frontier::STRATEGIES {
        for defense in ["none", "single-hash", "f∘g", "f∘g-frozen"] {
            assert!(
                out.cells.rows.iter().any(|r| r[0] == strategy && r[1] == defense),
                "missing pane {strategy} × {defense}"
            );
        }
    }
    assert!(!out.heatmaps.is_empty(), "text frontier must render");
    for table in out.tables() {
        check(table, &opts);
    }
}

/// E12 acceptance shape: the adaptive refinement sweeps the full
/// strategy × defense × d₂ × churn × topology product (one map row per
/// combination, every evaluated cell in the cells table), locates a
/// frontier by bisection, and the cost ledger shows strictly fewer
/// cell-runs than the uniform grid it replaces. The engine-equivalence
/// and ≥2× saving claims are pinned by the unit tests in
/// `exp::e12_refine` and the golden snapshot.
#[test]
fn e12_refine_smoke() {
    let opts = smoke_opts("e12");
    let out = e12_refine::run(&opts);
    let cfg = e12_refine::config(&opts);
    assert!(cfg.grid.betas.len() >= 8, "a ladder worth bisecting");
    assert!(cfg.grid.churns.len() >= 2 && cfg.grid.kinds.len() >= 2, "the new axes are swept");
    for strategy in e12_refine::STRATEGIES {
        for defense in ["none", "f∘g"] {
            for churn in e12_refine::CHURNS {
                for kind in e12_refine::KINDS {
                    assert!(
                        out.frontier.rows.iter().any(|r| r[0] == strategy
                            && r[1] == defense
                            && r[3] == tg_experiments::table::f(churn)
                            && r[4] == kind.name()),
                        "missing row {strategy} × {defense} × {churn} × {}",
                        kind.name()
                    );
                }
            }
        }
    }
    assert!(
        out.cell_runs < cfg.grid.rows().len() * cfg.grid.betas.len(),
        "refinement must beat the full grid"
    );
    for table in out.tables() {
        check(table, &opts);
    }
}

/// E13 acceptance shape (quick rungs): every rung reports positive
/// throughput, and the machine-readable trajectory record lands next to
/// the CSV with the shared comparator key.
#[test]
fn e13_scale_smoke() {
    let opts = smoke_opts("e13");
    let table = e13_scale::run(&opts);
    assert!(!table.rows.is_empty(), "the quick ladder has rungs");
    for row in &table.rows {
        let rate: f64 = row[6].parse().expect("identities_per_sec is numeric");
        assert!(rate > 0.0, "non-positive throughput in {row:?}");
    }
    let record = std::path::Path::new(&opts.out_dir).join("BENCH_kernel.json");
    let json = std::fs::read_to_string(&record).expect("BENCH_kernel.json written");
    assert!(json.contains("\"wall_ms_per_cell_run\""), "trajectory key missing: {json}");
    assert!(json.contains("\"kernel\": \"arena\""), "record pins the arena kernel: {json}");
    check(&table, &opts);
}

#[test]
fn figure1_smoke() {
    let opts = smoke_opts("fig1");
    check(&figure1::run(&opts), &opts);
}

/// Paper-scale configuration of the heaviest harness — minutes, not
/// seconds, so it only runs on request: `cargo test -- --ignored`
/// (locally, or via the nightly CI job).
#[test]
#[ignore = "paper-scale run; minutes of wall clock"]
fn e1_robustness_full_scale() {
    let mut opts = smoke_opts("e1-full");
    opts.full = true;
    check(&e1_robustness::run(&opts), &opts);
}

/// The full adversary-strategy sweep at paper scale (nightly CI).
#[test]
#[ignore = "paper-scale run; minutes of wall clock"]
fn e10_adversaries_full_scale() {
    let mut opts = smoke_opts("e10-full");
    opts.full = true;
    for table in e10_adversaries::run(&opts) {
        check(&table, &opts);
    }
}

/// The full 8×5 frontier grid with all five strategies (nightly CI).
#[test]
#[ignore = "paper-scale run; minutes of wall clock"]
fn e11_frontier_full_scale() {
    let mut opts = smoke_opts("e11-full");
    opts.full = true;
    for table in e11_frontier::run(&opts).tables() {
        check(table, &opts);
    }
}

/// The full refinement sweep — 16-rung ladder over four strategies ×
/// three d₂ × three churn rates × three topologies (nightly CI).
#[test]
#[ignore = "paper-scale run; minutes of wall clock"]
fn e12_refine_full_scale() {
    let mut opts = smoke_opts("e12-full");
    opts.full = true;
    for table in e12_refine::run(&opts).tables() {
        check(table, &opts);
    }
}
