//! Invariant-checked conformance: the three checked cells (sync,
//! actor×mem, actor×socket) of the table-driven replay in
//! `common/mod.rs`, over E4 and E10 — the two experiments whose goldens
//! exercise every per-step invariant (budget, observation consistency,
//! route probes) across both identity pipelines and the transport
//! axis. Each replay requires zero violations and zero byte drift.

mod common;

use common::{replay, CHECKED};

#[test]
fn e4_replays_byte_identically_under_invariant_checks() {
    replay(&CHECKED, common::e4);
}

#[test]
fn e10_replays_byte_identically_under_invariant_checks() {
    replay(&CHECKED, common::e10);
}
