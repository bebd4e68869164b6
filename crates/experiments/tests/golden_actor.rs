//! Actor-runtime conformance: the actor×mem cell of the table-driven
//! replay in `common/mod.rs`. The epoch step decomposed into per-node
//! actors over a perfect in-memory transport must reproduce every byte
//! of the committed seed-42 corpus.

mod common;

use common::{replay, ACTOR_MEM};

#[test]
fn e1_replays_byte_identically_on_actor() {
    replay(&[ACTOR_MEM], common::e1);
}

#[test]
fn e4_replays_byte_identically_on_actor() {
    replay(&[ACTOR_MEM], common::e4);
}

#[test]
fn e10_replays_byte_identically_on_actor() {
    replay(&[ACTOR_MEM], common::e10);
}

#[test]
fn e11_replays_byte_identically_on_actor() {
    replay(&[ACTOR_MEM], common::e11);
}

#[test]
fn e12_replays_byte_identically_on_actor() {
    replay(&[ACTOR_MEM], common::e12);
}
