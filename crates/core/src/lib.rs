//! # tg-core
//!
//! The paper's primary contribution: **group graphs with
//! `Θ(log log n)`-size groups** that tolerate a Byzantine adversary
//! controlling a `β`-fraction of computational power, achieving
//! `O(1/poly(log n))`-robustness (Theorem 3).
//!
//! ## Layout
//!
//! * [`params`] — the tunable constants of the construction
//!   (`β, δ, d1, d2`, group-size rule),
//! * [`population`] — one generation of IDs with its good/bad marking,
//! * [`group`] — a single group and its classification (good/bad; the
//!   paper's §I-C invariant and the operational good-majority test),
//! * [`graph`] — the **group graph** `G` over an input graph `H`
//!   (§II-A): one group per ID, blue/red coloring (S1–S3),
//! * [`build`] — constructing groups by hashing
//!   (`member i of G_w = suc(h(w,i))`, §III-A),
//! * [`routing`] — secure search along group paths: group-level search
//!   paths (the §II-B semantics: a search fails iff it meets a red group)
//!   and message-level all-to-all routing with majority filtering,
//! * [`robustness`] — measuring ε-robustness (Theorem 3's two bullets),
//! * [`abstract_model`] — the idealized S1–S3 model (each group red
//!   i.i.d. with probability `pf`) used to validate Lemmas 1–4 in
//!   isolation,
//! * [`dynamic`] — the dynamic case (§III): epochs, two old + two new
//!   group graphs, dual-search membership and neighbor construction with
//!   verification, churn, and the single-graph ablation,
//! * [`arena`] — the epoch kernel behind [`dynamic::DynamicSystem`]:
//!   one contiguous member column per side, with the membership and
//!   measurement phases fanned out deterministically,
//! * [`dynamic::adversary`] — the pluggable adversary-strategy engine:
//!   placement policies (uniform, gap-filling, interval-targeting,
//!   adaptive majority flipping) that observe each epoch's graphs and
//!   choose the next epoch's bad-ID values (swept by E10),
//! * [`scenario`] — the unified scenario API: a declarative
//!   [`ScenarioSpec`] (defense ∈ {none, single-hash, f∘g, frozen
//!   variants}, strategy, topology, churn, seed — round-tripping through
//!   a stable label/JSON codec) built into a [`scenario::EpochDriver`],
//!   the one trait every experiment, frontier cell, and bench drives,
//! * [`runtime`] — the actor epoch runtime: per-node actors exchanging
//!   typed protocol messages (membership announcements, routing probes,
//!   string dissemination) over an injectable transport with seeded
//!   fault injection; byte-identical to the synchronous drivers over a
//!   perfect transport,
//! * [`bootstrap`] — pooled bootstrap groups for joiners (Appendix IX),
//! * [`dht`] — the replicated key→value store over groups (the §I-A
//!   motivating application),
//! * [`render`] — DOT rendering of `H` and `G` (Figure 1).

pub mod abstract_model;
pub mod arena;
pub mod bootstrap;
pub mod build;
pub mod dht;
pub mod dynamic;
pub mod graph;
pub mod group;
pub mod params;
pub mod population;
pub mod render;
pub mod robustness;
pub mod routing;
pub mod runtime;
pub mod scenario;

pub use arena::{ArenaGraphs, ArenaSideRef};
pub use bootstrap::{assemble_bootstrap, recommended_contacts, BootstrapGroup};
pub use build::build_initial_graph;
pub use dht::{GetOutcome, SecureDht};
pub use graph::{Color, GraphsView, GroupGraph, GroupGraphView};
pub use group::Group;
pub use params::{GroupSizeRule, Params};
pub use population::Population;
pub use robustness::{measure_robustness, RobustnessReport};
pub use routing::{search_path, SearchOutcome};
pub use runtime::{ActorDriver, EpochNet, NetFilter, ProtocolMsg, RuntimeChoice};
pub use scenario::{
    Defense, EpochDriver, EpochObservation, MintScheme, ScenarioError, ScenarioSpec, StrategySpec,
    StringMode,
};
