//! The table-driven golden replay shared by every golden suite:
//! pinned-seed runs of the simulation kernels compared byte-for-byte
//! against the committed snapshots under `tests/golden/`, replayed in
//! the cells of the matrix {sync, actor×mem, actor×socket} ×
//! {unchecked, checked}.
//!
//! Every experiment is a pure function of its seed (labelled RNG
//! streams, order-preserving parallel sweeps, no iteration-order
//! dependence), so refactors to the sim kernels must reproduce these
//! files *exactly* — a silent numerical drift in construction, routing,
//! or measurement fails even when every statistical bound still holds.
//! Each suite file is one entry point into the matrix:
//!
//! * `golden.rs` — the base cell (sync, unchecked), the only cell that
//!   regenerates;
//! * `golden_arena.rs` — the base cell again, replay-only: the arena
//!   kernel every driver steps must reproduce the committed corpus;
//! * `golden_actor.rs` — actor×mem: the epoch step decomposed into
//!   per-node actors over a *perfect* in-memory transport delivers
//!   exactly what the synchronous step computes (the transport draws no
//!   RNG and delivers in send order);
//! * `golden_socket.rs` — actor×socket: the same over real
//!   length-prefixed frames on loopback TCP — the socket transport
//!   applies the same pure fault fate, and the latency-adaptive phase
//!   window sits at its zero-latency fixpoint on a perfect network;
//! * `golden_checked.rs` — the three checked cells: every epoch
//!   satisfies the `tg_verify` registry (the checked builds run strict,
//!   so a violation panics with its reproduction line) and the checker
//!   is observation-transparent — its probes draw from their own
//!   labelled RNG streams.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-experiments --test golden
//! ```
//!
//! and commit the diff under `tests/golden/` alongside the change that
//! explains it. Only `golden.rs` writes; every other entry point still
//! compares against what it wrote, so a drift there is always a bug in
//! that cell's layer, never a stale file.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::TransportChoice;
use tg_experiments::exp::{e10_adversaries, e11_frontier, e12_refine, e1_robustness, e4_epochs};
use tg_experiments::Options;

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// One replay cell: the runtime and transport every driver runs on, and
/// whether the invariant checker wraps it.
#[derive(Clone, Copy)]
pub struct Cell {
    runtime: RuntimeChoice,
    transport: TransportChoice,
    checked: bool,
}

const fn cell(runtime: RuntimeChoice, transport: TransportChoice, checked: bool) -> Cell {
    Cell { runtime, transport, checked }
}

/// The base cell: synchronous runtime, unchecked.
pub const SYNC: Cell = cell(RuntimeChoice::Sync, TransportChoice::Mem, false);
/// The actor runtime over the in-memory transport, unchecked.
pub const ACTOR_MEM: Cell = cell(RuntimeChoice::Actor, TransportChoice::Mem, false);
/// The actor runtime over loopback TCP, unchecked.
pub const ACTOR_SOCKET: Cell = cell(RuntimeChoice::Actor, TransportChoice::Socket, false);
/// The three execution cells under the invariant checker.
pub const CHECKED: [Cell; 3] = [SYNC.checked(), ACTOR_MEM.checked(), ACTOR_SOCKET.checked()];

impl Cell {
    const fn checked(self) -> Cell {
        Cell { checked: true, ..self }
    }

    fn is_base(self) -> bool {
        self.runtime == RuntimeChoice::Sync && !self.checked
    }

    fn opts(self) -> Options {
        Options {
            out_dir: "/tmp".into(),
            quiet: true,
            runtime: self.runtime,
            transport: self.transport,
            check_invariants: self.checked,
            ..Options::default()
        }
    }

    /// What a drift in this cell means, and what to fix.
    fn drift_advice(self) -> &'static str {
        match self {
            c if c.is_base() => {
                "drifted from its golden snapshot; if the change is intentional, regenerate with \
                 GOLDEN_REGEN=1 and commit the diff"
            }
            Cell { checked: true, .. } => {
                "the invariant-checked replay drifted from the committed snapshot — the checker \
                 must be observation-transparent, fix tg_verify (do not regenerate)"
            }
            Cell { transport: TransportChoice::Socket, .. } => {
                "the actor runtime over loopback TCP drifted from the synchronous snapshot — the \
                 transports are required to be observation-identical on a perfect network, fix \
                 the socket path (do not regenerate)"
            }
            _ => {
                "the actor runtime over a perfect transport drifted from the synchronous \
                 snapshot — the runtimes are required to be observation-identical, fix the actor \
                 path (do not regenerate)"
            }
        }
    }

    /// Compare `actual` against the committed snapshot `name`, or
    /// rewrite the snapshot when `regen` is set.
    fn check(self, name: &str, actual: &str, regen: bool) {
        let path = golden_dir().join(name);
        if regen {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, actual).expect("write golden file");
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {name} ({e}); regenerate with GOLDEN_REGEN=1")
        });
        assert_eq!(actual, expected, "{name}: {}", self.drift_advice());
    }
}

/// The `(snapshot, output)` pairs one experiment run produces.
pub type Outputs = Vec<(&'static str, String)>;

/// Run one experiment in each of `cells`, in order, and check every
/// `(snapshot, output)` pair it produces. Never writes.
pub fn replay(cells: &[Cell], run: fn(&Options) -> Outputs) {
    for &cell in cells {
        for (name, actual) in run(&cell.opts()) {
            cell.check(name, &actual, false);
        }
    }
}

/// Run one experiment in the base cell and check its outputs, or
/// rewrite the snapshots when `GOLDEN_REGEN` is set.
pub fn replay_or_regen(run: fn(&Options) -> Outputs) {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    for (name, actual) in run(&SYNC.opts()) {
        SYNC.check(name, &actual, regen);
    }
}

/// E1 (static robustness sweep): every `RobustnessReport`-derived cell.
/// It never steps an epoch, so its replays pin that the runtime and
/// transport knobs leak nowhere off the epoch path.
pub fn e1(o: &Options) -> Outputs {
    vec![("e1_robustness.csv", e1_robustness::run(o).to_csv())]
}

/// E4 (dynamic epochs + ablations): every `EpochReport`-derived cell.
pub fn e4(o: &Options) -> Outputs {
    vec![("e4_epochs.csv", e4_epochs::run(o).to_csv())]
}

/// E10 (adversary-strategy sweep): every (strategy × pipeline) cell of
/// the seed-42 sweep plus the §IV-B hoard table. Cells run inside
/// `parallel_map`, so the socket replay also pins that concurrent
/// socket scenarios cannot corrupt each other's frames.
pub fn e10(o: &Options) -> Outputs {
    let tables = e10_adversaries::run(o);
    vec![("e10_adversaries.csv", tables[0].to_csv()), ("e10_hoard.csv", tables[1].to_csv())]
}

/// E11 (adversary-vs-defense frontier): the full seed-42 3×3 (β × d₂)
/// grid — every cell, the frontier map, and the text heatmaps. This is
/// the strongest regression net over the strategic `FullSystem`
/// pipeline: any drift in string agreement, strategic minting, or the
/// sweep's seed discipline shows up as a byte diff here.
pub fn e11(o: &Options) -> Outputs {
    let out = e11_frontier::run(o);
    vec![
        ("e11_frontier.csv", out.cells.to_csv()),
        ("e11_frontier_map.csv", out.frontier.to_csv()),
        ("e11_frontier_heatmap.txt", out.heatmaps),
    ]
}

/// E12 (adaptive frontier refinement): the seed-42 refinement over the
/// churn × topology axes — every evaluated cell with its phase and
/// confidence band, the refined frontier map, and the cost ledger.
/// Beyond the numerical-drift net this also freezes the refinement
/// *trajectory*: a change to the bisection order, the bracket
/// bookkeeping, or the extra-seed policy shows up as a byte diff even
/// when the located frontier is unchanged.
pub fn e12(o: &Options) -> Outputs {
    let out = e12_refine::run(o);
    vec![
        ("e12_refine_cells.csv", out.cells.to_csv()),
        ("e12_refine_map.csv", out.frontier.to_csv()),
        ("e12_refine_cost.csv", out.cost.to_csv()),
    ]
}
