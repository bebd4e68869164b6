//! Arena-kernel conformance: every epoch driver steps the arena kernel
//! (`tg_core::dynamic::DynamicSystem`) directly, and this suite replays
//! the base cell of the table-driven replay in `common/mod.rs` against
//! the committed seed-42 corpus without ever regenerating it — so a
//! `GOLDEN_REGEN` run of `golden.rs` that rewrites a snapshot the
//! arena kernel cannot reproduce still fails here.

mod common;

use common::{replay, SYNC};

#[test]
fn e1_replays_byte_identically_on_arena() {
    replay(&[SYNC], common::e1);
}

#[test]
fn e4_replays_byte_identically_on_arena() {
    replay(&[SYNC], common::e4);
}

#[test]
fn e10_replays_byte_identically_on_arena() {
    replay(&[SYNC], common::e10);
}

#[test]
fn e11_replays_byte_identically_on_arena() {
    replay(&[SYNC], common::e11);
}

#[test]
fn e12_replays_byte_identically_on_arena() {
    replay(&[SYNC], common::e12);
}
