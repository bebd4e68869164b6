//! # tg-experiments
//!
//! The harness that regenerates every quantitative claim of the paper —
//! the experiment index of `DESIGN.md` §5 and the paper-vs-measured
//! record in `EXPERIMENTS.md`. Each experiment is a library function
//! returning a [`table::Table`] (so integration tests and benches can
//! drive them) plus a thin binary under `src/bin/` that parses CLI
//! options, prints the table, and writes CSV under `results/`.
//!
//! | Binary | Claim reproduced |
//! |---|---|
//! | `e1_robustness` | Theorem 3 / Lemma 4: ε-robustness vs `n`, `β` |
//! | `e2_groupsize` | §I-D: the `Θ(log log n)` threshold |
//! | `e3_costs` | Corollary 1: message/state costs vs the `Θ(log n)` baseline |
//! | `e4_epochs` | Lemma 9 + ablations: dynamic stability, two-graph necessity |
//! | `e5_state` | Lemma 10: per-ID state under the join-request attack |
//! | `e6_pow` | Lemma 11: minting bound, uniformity, one- vs two-hash |
//! | `e7_strings` | Lemma 12: agreement, `O(ln n)` sets, `Õ(n ln T)` messages |
//! | `e8_cuckoo` | The \[47\] data point: cuckoo-rule group-size trade-off |
//! | `e9_precompute` | §IV-B: pre-computation attack neutralized |
//! | `e10_adversaries` | The adversary-strategy matrix: placement strategies × identity pipelines |
//! | `e11_frontier` | The adversary-vs-defense frontier: β × d₂ capture heatmaps over the real `FullSystem` protocol |
//! | `e12_refine` | Adaptive frontier refinement: bisected thresholds with confidence bands over the churn × topology axes |
//! | `e13_scale` | Kernel throughput ladder: epochs/sec and identities/sec up to 10⁶ identities |
//! | `e14_async` | Actor runtime under network faults: capture and search success vs drop rate × partition length |
//! | `figure1` | Figure 1: the input graph and group graph panels |
//! | `run_all` | Everything above via [`exp::REGISTRY`] (`--only` runs a subset, `--list` prints the registry) |
//!
//! Every experiment that simulates a system constructs it through the
//! unified scenario API (`tg_core::scenario::ScenarioSpec` built by
//! `tg_pow::scenario::build` into an `EpochDriver`) — no direct
//! `DynamicSystem`/`FullSystem` constructor calls in this crate.

pub mod args;
pub mod artifacts;
pub mod checked;
pub mod exp;
pub mod frontier;
pub mod refine;
pub mod table;

pub use args::Options;
pub use checked::build_driver;
pub use frontier::{Defense, FrontierConfig, FrontierOutcome, RowKey};
pub use refine::{RefineConfig, RefineOutcome};
pub use table::Table;
