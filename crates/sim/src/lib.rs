//! # tg-sim
//!
//! The deterministic simulation substrate for the tiny-groups workspace.
//!
//! All of the paper's claims are probabilistic statements about message
//! counts, state sizes, and failure fractions — not wall-clock latency —
//! so the faithful substrate is a **seeded, synchronous-round simulator**
//! with exact accounting, rather than an async network runtime. The
//! README's "Runtime: synchronous epochs vs actor message passing (E14)"
//! section covers the message-passing runtime layered on top and why the
//! synchronous step stays the oracle. This crate provides:
//!
//! * [`rng`] — disciplined seed derivation: every component draws its
//!   randomness from a labelled stream of a single master seed, so whole
//!   experiments replay bit-for-bit,
//! * [`metrics`] — mergeable message/state counters used to reproduce the
//!   cost claims of Corollary 1,
//! * [`clock`] — the epoch/step structure of §III (epochs of `T` steps,
//!   half-epoch boundaries for PoW minting),
//! * [`stats`] — summary statistics and uniformity tests shared by the
//!   experiment harness,
//! * [`parallel`] — a scoped-thread deterministic parallel map for
//!   parameter sweeps (results are ordered, so parallelism never changes
//!   output),
//! * [`net`] — an injectable message [`Transport`] with a
//!   deterministic in-memory implementation supporting seeded fault
//!   injection (latency, reordering, drops, partitions) for the actor
//!   epoch runtime, plus a real-TCP loopback implementation
//!   ([`SocketTransport`]) sharing the same fault fate function,
//! * [`store`] — a content-addressed, hash-chained result store with
//!   atomic publish, so sweeps can skip cells whose observation
//!   streams are already on disk and long runs resume mid-ladder.

pub mod clock;
pub mod enumerate;
pub mod metrics;
pub mod net;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod store;

pub use clock::{EpochClock, PhaseWindow};
pub use enumerate::{combination_count, for_each_combination};
pub use metrics::{CostReport, Metrics};
pub use net::{
    Envelope, Fate, FaultPlan, InMemoryTransport, NetStats, NodeId, RetryPolicy, SocketTransport,
    Transport, TransportChoice, Wire, NO_DEADLINE,
};
pub use parallel::{parallel_map, parallel_map_chunked};
pub use rng::{derive_seed, derive_seed_grid, derive_seed_nd, stream_rng, stream_rng_grid};
pub use stats::{binomial_wilson, Summary};
pub use store::{write_atomic, ResultStore, StoreError};
