//! Socket-transport conformance: the actor×socket cell of the
//! table-driven replay in `common/mod.rs`. Real length-prefixed frames
//! over loopback TCP must reproduce every byte of the committed seed-42
//! corpus.

mod common;

use common::{replay, ACTOR_SOCKET};

#[test]
fn e1_replays_byte_identically_on_socket() {
    replay(&[ACTOR_SOCKET], common::e1);
}

#[test]
fn e4_replays_byte_identically_on_socket() {
    replay(&[ACTOR_SOCKET], common::e4);
}

#[test]
fn e10_replays_byte_identically_on_socket() {
    replay(&[ACTOR_SOCKET], common::e10);
}

#[test]
fn e11_replays_byte_identically_on_socket() {
    replay(&[ACTOR_SOCKET], common::e11);
}

#[test]
fn e12_replays_byte_identically_on_socket() {
    replay(&[ACTOR_SOCKET], common::e12);
}
