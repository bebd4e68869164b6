//! Golden-report regression suite: the base cell (sync runtime,
//! unchecked) of the table-driven replay in `common/mod.rs`, and the
//! only cell that regenerates the committed snapshots:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-experiments --test golden
//! ```

mod common;

use common::replay_or_regen;

#[test]
fn e1_robustness_matches_golden() {
    replay_or_regen(common::e1);
}

#[test]
fn e4_epochs_matches_golden() {
    replay_or_regen(common::e4);
}

#[test]
fn e10_adversaries_matches_golden() {
    replay_or_regen(common::e10);
}

#[test]
fn e11_frontier_matches_golden() {
    replay_or_regen(common::e11);
}

#[test]
fn e12_refine_matches_golden() {
    replay_or_regen(common::e12);
}

// The raw `EpochReport` golden (`epoch_report_seed42.txt`) lives in
// `crates/core/tests/golden_epoch_report.rs`: it pins the dynamic-layer
// implementation itself, so it lives with the impl — the experiments
// layer constructs systems only through `ScenarioSpec`/`EpochDriver`.
