//! The perf-trajectory probe: run the E11 and E12 sweep kernels in
//! quick mode and write `BENCH_e11.json` / `BENCH_e12.json` (one
//! [`BenchRecord`] each) into the current directory — the repo root
//! when invoked from CI, where the tier-1 workflow uploads them as
//! artifacts.
//!
//! This deliberately times the same kernels the criterion targets
//! (`benches/e11_frontier.rs`, `benches/e12_refine.rs`) exercise, but
//! through one timed release run instead of a criterion session: the
//! vendored criterion has no machine-readable output, and the
//! trajectory wants comparable absolute numbers (wall-time per
//! cell-run, cells swept, epochs simulated) rather than statistical
//! micro-benchmark precision.
//!
//! Usage:
//!
//! * `cargo run --release -p tg-bench --bin bench_trajectory [out_dir]`
//!   — run the probes and write the JSONs,
//! * `… --bin bench_trajectory -- --compare <baseline_dir> [new_dir]`
//!   — diff `new_dir`'s (default `.`) records against the previous main
//!   artifact in `baseline_dir` and emit a GitHub `::warning::` per
//!   record whose wall-ms-per-cell-run regressed by more than
//!   [`tg_bench::REGRESSION_THRESHOLD`]. Always exits 0: the trajectory
//!   alerts, it does not gate (quick-mode CI runners are noisy; a
//!   persistent warning across commits is the signal).

use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tg_bench::{regression_warning, BenchRecord, REGRESSION_THRESHOLD};

/// The record files the trajectory tracks.
const RECORDS: [&str; 6] = [
    "BENCH_e11.json",
    "BENCH_e12.json",
    "BENCH_kernel.json",
    "BENCH_store.json",
    "BENCH_net.json",
    "BENCH_model.json",
];

/// Compare mode: read each record from both directories and warn on
/// regressions. Missing baseline files are reported and skipped (the
/// first run on a branch has nothing to compare against).
fn compare(baseline_dir: &str, new_dir: &str) {
    for name in RECORDS {
        let read = |dir: &str| std::fs::read_to_string(std::path::Path::new(dir).join(name));
        let (baseline, current) = match (read(baseline_dir), read(new_dir)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) => {
                println!("{name}: no baseline in {baseline_dir} ({e}); skipping");
                continue;
            }
            (_, Err(e)) => {
                println!("{name}: no fresh record in {new_dir} ({e}); skipping");
                continue;
            }
        };
        match regression_warning(name, &baseline, &current, REGRESSION_THRESHOLD) {
            Some(msg) => println!("::warning title=bench-trajectory regression::{msg}"),
            None => {
                let per = |j: &str| tg_bench::json_number(j, "wall_ms_per_cell_run");
                match (per(&baseline), per(&current)) {
                    (Some(old), Some(new)) if old.is_finite() && new.is_finite() && old > 0.0 => {
                        println!("{name}: ok ({old:.3} -> {new:.3} ms per cell-run)");
                    }
                    (old, new) => println!(
                        "{name}: unusable wall_ms_per_cell_run (baseline {old:?}, fresh \
                         {new:?}); skipping comparison"
                    ),
                }
            }
        }
    }
}
use tg_experiments::exp::e13_scale;
use tg_experiments::frontier::{run_frontier, Defense, FrontierConfig};
use tg_experiments::refine::{run_refine, RefineConfig};
use tg_overlay::GraphKind;
use tg_pow::MintScheme;

/// The shared quick-mode grid: two strategies (the strongest placement
/// attacker and the timing attacker) against the undefended layer and
/// the paper's `f∘g`, on an 8-rung ladder — small enough for a CI step,
/// large enough that per-cell-run time is averaged over dozens of
/// cells.
fn quick_grid() -> FrontierConfig {
    FrontierConfig {
        n_good: 300,
        betas: vec![0.02, 0.04, 0.06, 0.09, 0.13, 0.19, 0.28, 0.42],
        d2s: vec![4.0],
        churns: vec![0.2],
        kinds: vec![GraphKind::Chord],
        strategies: vec!["gap-filling", "churn-timed"],
        defenses: vec![
            Defense::NoPow,
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        ],
        epochs: 2,
        trials: 1,
        searches: 60,
        seed: 42,
        kernel: Default::default(),
        runtime: Default::default(),
        transport: Default::default(),
        store: None,
        check_invariants: false,
    }
}

fn now_unix() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

fn write(out_dir: &str, name: &str, record: &BenchRecord) {
    let path = std::path::Path::new(out_dir).join(name);
    std::fs::write(&path, record.to_json()).unwrap_or_else(|e| {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "{}: {} cells, {} trials, {} epochs, {:.1} ms ({:.2} ms/cell-run)",
        path.display(),
        record.cells_swept,
        record.trial_runs,
        record.epochs_total,
        record.wall_ms,
        record.wall_ms_per_cell_run()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let Some(baseline_dir) = args.get(1) else {
            eprintln!("usage: bench_trajectory --compare <baseline_dir> [new_dir]");
            std::process::exit(2);
        };
        let new_dir = args.get(2).map(String::as_str).unwrap_or(".");
        compare(baseline_dir, new_dir);
        return;
    }
    let out_dir = args.first().cloned().unwrap_or_else(|| ".".to_string());
    let grid = quick_grid();

    // E11: the uniform sweep engine.
    let t0 = Instant::now();
    let uniform = run_frontier(&grid);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = uniform.cells.rows.iter().filter(|r| r[6] == "run").count();
    let trials = cells * grid.trials;
    let e11 = BenchRecord {
        bench: "e11_frontier",
        mode: "quick",
        cells_swept: cells,
        trial_runs: trials,
        epochs_total: trials * grid.epochs,
        wall_ms,
        unix_time: now_unix(),
    };
    write(&out_dir, "BENCH_e11.json", &e11);

    // E12: the adaptive refinement engine over the same grid.
    let t0 = Instant::now();
    let refined = run_refine(&RefineConfig { grid: grid.clone(), z: 1.645, max_extra_rounds: 1 });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let e12 = BenchRecord {
        bench: "e12_refine",
        mode: "quick",
        cells_swept: refined.cell_runs,
        trial_runs: refined.trial_runs,
        epochs_total: refined.trial_runs * grid.epochs,
        wall_ms,
        unix_time: now_unix(),
    };
    write(&out_dir, "BENCH_e12.json", &e12);

    // Store: warm-replay throughput of the content-addressed result
    // store. A cold pass over the same quick grid fills a temp store;
    // the timed pass then replays every cell from its hash-chained
    // streams — the number says what a fully warm resume costs per
    // cell-run (decode + chain verification, no simulation).
    let store_dir = std::env::temp_dir().join(format!("tg-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut stored_grid = quick_grid();
    stored_grid.store = tg_sim::ResultStore::open(&store_dir).ok();
    run_frontier(&stored_grid); // cold fill
    let t0 = Instant::now();
    let warm = run_frontier(&stored_grid);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = warm.cells.rows.iter().filter(|r| r[6] == "run").count();
    let trials = cells * stored_grid.trials;
    let store_rec = BenchRecord {
        bench: "store_warm_replay",
        mode: "quick",
        cells_swept: cells,
        trial_runs: trials,
        epochs_total: trials * stored_grid.epochs,
        wall_ms,
        unix_time: now_unix(),
    };
    write(&out_dir, "BENCH_store.json", &store_rec);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Net: the same uniform sweep with every protocol phase carried
    // over loopback TCP through the actor runtime. Compared against
    // `BENCH_e11.json` this prices the real socket path (framing,
    // syscalls, lane pumping) relative to the in-memory transport; its
    // own trajectory catches regressions in the transport itself.
    let mut net_grid = quick_grid();
    net_grid.runtime = tg_core::runtime::RuntimeChoice::Actor;
    net_grid.transport = tg_core::scenario::TransportChoice::Socket;
    let t0 = Instant::now();
    let socketed = run_frontier(&net_grid);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = socketed.cells.rows.iter().filter(|r| r[6] == "run").count();
    let trials = cells * net_grid.trials;
    let net_rec = BenchRecord {
        bench: "net_socket_sweep",
        mode: "quick",
        cells_swept: cells,
        trial_runs: trials,
        epochs_total: trials * net_grid.epochs,
        wall_ms,
        unix_time: now_unix(),
    };
    write(&out_dir, "BENCH_net.json", &net_rec);

    // Model: the tg-verify exhaustive tiny-universe check — every
    // adversary placement × defense × budget, with exhaustive route
    // probing per placement. Here a "cell" is one (defense, budget)
    // enumeration cell, a "trial" one realized placement, and the
    // epochs column counts the exhaustive route checks (the dominant
    // per-placement cost). The checker runs on every tier-1 commit via
    // `e15_model`; this record prices it so a slowdown in the
    // enumeration or the route prover shows up in the trajectory.
    let cfg = tg_verify::ModelConfig::tiny();
    let t0 = Instant::now();
    let report = tg_verify::run_model(&cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let model_rec = BenchRecord {
        bench: "model_check",
        mode: "quick",
        cells_swept: report.cells.len(),
        trial_runs: report.cells.iter().map(|c| c.placements as usize).sum(),
        epochs_total: report.cells.iter().map(|c| c.route_checks as usize).sum(),
        wall_ms,
        unix_time: now_unix(),
    };
    write(&out_dir, "BENCH_model.json", &model_rec);

    // E13: the arena epoch kernel's throughput record, serialized by
    // the experiment's own writer so this probe and the tier-1
    // `e13_scale` run emit byte-compatible JSON (the comparator reads
    // the shared `wall_ms_per_cell_run` key from either).
    let quick = tg_experiments::Options { quiet: true, ..Default::default() };
    let results = e13_scale::measure(&e13_scale::rungs(&quick), quick.seed, false);
    let best = e13_scale::record_rung(&results).expect("the quick ladder is non-empty");
    let json = e13_scale::kernel_record_json("quick", best, now_unix());
    let path = std::path::Path::new(&out_dir).join("BENCH_kernel.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "{}: {} identities x {} epochs, {:.1} ms ({:.0} ids/sec)",
        path.display(),
        best.rung.n_total(),
        best.rung.epochs,
        best.wall_ms,
        best.identities_per_sec(),
    );
}
