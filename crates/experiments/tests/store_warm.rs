//! Warm-start acceptance suite for the content-addressed result store
//! (the ISSUE 8 tentpole contract, run end to end through E12).
//!
//! A cold seed-42 refinement against an empty store must reproduce the
//! committed golden frontier map byte for byte — the store is a cache,
//! never an input. A second, warm run over the same store must then
//! reproduce the *same bytes* with **zero** live cell-runs (strictly
//! fewer than the cold pass), its cost ledger reporting every trial as
//! a store hit. This doubles as the tier-1 warm-start smoke: CI runs it
//! on every PR. A damaged stream is neither replayed nor fatal: the
//! warm run recomputes that trial live and rewrites its stream.

use tg_experiments::exp::e12_refine;
use tg_experiments::Options;

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {name} ({e}); run with GOLDEN_REGEN=1"))
}

fn opts(store_dir: &std::path::Path) -> Options {
    Options {
        seed: 42,
        full: false,
        out_dir: "/tmp".into(),
        quiet: true,
        only: None,
        list: false,
        runtime: Default::default(),
        transport: Default::default(),
        store: Some(store_dir.to_str().expect("utf-8 temp path").to_string()),
        check_invariants: false,
    }
}

/// Cold run fills the store and matches the committed goldens; warm run
/// replays byte-identically with strictly fewer (zero) live cell-runs.
#[test]
fn warm_refine_reproduces_golden_map_with_fewer_live_runs() {
    let dir = std::env::temp_dir().join(format!("tg-store-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = e12_refine::run(&opts(&dir));
    assert_eq!(
        cold.frontier.to_csv(),
        golden("e12_refine_map.csv"),
        "cold store-backed run must still match the committed golden map"
    );
    assert_eq!(
        cold.cells.to_csv(),
        golden("e12_refine_cells.csv"),
        "cold store-backed run must still match the committed golden cells"
    );
    assert!(cold.live_cell_runs > 0, "an empty store cannot serve any cell");
    assert_eq!(cold.live_cell_runs, cold.cell_runs, "every cold cell runs live");
    assert_eq!(cold.live_trial_runs, cold.trial_runs, "every cold trial runs live");

    let warm = e12_refine::run(&opts(&dir));
    assert_eq!(
        warm.frontier.to_csv(),
        golden("e12_refine_map.csv"),
        "warm run must reproduce the committed golden map byte for byte"
    );
    assert_eq!(warm.cells.to_csv(), cold.cells.to_csv());
    assert!(
        warm.live_cell_runs < cold.live_cell_runs,
        "warm run must take strictly fewer live cell-runs ({} vs {})",
        warm.live_cell_runs,
        cold.live_cell_runs
    );
    assert_eq!(warm.live_cell_runs, 0, "a fully warm store serves every cell");
    assert_eq!(warm.live_trial_runs, 0, "a fully warm store serves every trial");
    assert_eq!(warm.cell_runs, cold.cell_runs, "replay walks the same trajectory");
    assert_eq!(warm.trial_runs, cold.trial_runs);

    // The cost ledger reports the cache hits: same accounting columns,
    // live counts zeroed, every trial a store hit.
    let (cold_csv, warm_csv) = (cold.cost.to_csv(), warm.cost.to_csv());
    let cold_row: Vec<&str> = cold_csv.lines().nth(1).expect("cost row").split(',').collect();
    let warm_row: Vec<&str> = warm_csv.lines().nth(1).expect("cost row").split(',').collect();
    let header: Vec<&str> = warm_csv.lines().next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect("cost column");
    assert_eq!(warm_row[col("live_cell_runs")], "0");
    assert_eq!(warm_row[col("live_trial_runs")], "0");
    assert_eq!(warm_row[col("store_trial_hits")], warm_row[col("trial_runs")]);
    assert_eq!(cold_row[col("store_trial_hits")], "0");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged stream degrades to a live recompute instead of a panic:
/// flip one byte in one stored e12 stream and the warm run still
/// finishes with the cold run's CSVs, recomputing exactly that trial
/// and rewriting its stream (a third run is fully warm again).
#[test]
fn damaged_stream_is_recomputed_live() {
    let dir = std::env::temp_dir().join(format!("tg-store-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = e12_refine::run(&opts(&dir));
    let mut streams: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tgs"))
        .collect();
    streams.sort();
    let victim = &streams[0];
    let mut bytes = std::fs::read(victim).expect("read stream");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).expect("write damaged stream");

    let warm = e12_refine::run(&opts(&dir));
    assert_eq!(warm.cells.to_csv(), cold.cells.to_csv());
    assert_eq!(warm.frontier.to_csv(), cold.frontier.to_csv());
    assert_eq!(warm.live_trial_runs, 1, "only the damaged trial recomputes");
    assert_eq!(warm.cell_runs, cold.cell_runs, "replay walks the same trajectory");

    let repaired = e12_refine::run(&opts(&dir));
    assert_eq!(repaired.live_trial_runs, 0, "the recompute rewrote the damaged stream");
    assert_eq!(repaired.cells.to_csv(), cold.cells.to_csv());

    let _ = std::fs::remove_dir_all(&dir);
}
