//! The three workloads, written as scenario labels.
//!
//! Every spec the benchmark runs is a `tg1;…` label parsed by
//! [`ScenarioSpec::parse`], never a builder chain: a refactor that turns
//! a codec axis into a parse-only no-op (or drops a builder method)
//! cannot change what the benchmark runs without the labels failing to
//! parse. The `tests` module pins each template against the spec the
//! corresponding experiment builds.
//!
//! A *unit* is one driver lifetime: build the driver, step its epochs.
//! An *op* is what latency and failures are counted in — one epoch on
//! `scale`, one whole unit (a cell-run) on `sweep` and `net`.

use tg_core::scenario::{ScenarioSpec, TransportChoice};
use tg_sim::{derive_seed, derive_seed_grid};

/// The seed the committed golden digests were recorded at, and the
/// default of `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// A seed no tuning run used. A later performance claim must also hold
/// on it (choosing-metrics §6.3).
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["scale", "sweep", "net"];

/// `scale` — the honest no-PoW dynamic system at 10⁴ identities
/// (9 500 good + 500 adversarial, β = 0.05) on D2B with churn 0.1, 16
/// searches per epoch, the arena kernel and the sync runtime: the first
/// rung of `e13_scale --full`.
///
/// Why: construction searches on a 10⁴-leader ring are almost all of
/// the work and routes run their full length, with no PoW, network,
/// store or checker on the path. A routing or ring-layout gain shows
/// here; a transport or string-protocol change must read flat.
const SCALE_LABEL: &str = "tg1;n=9500;bad=500;seed={seed};searches=16;kind=d2b;mode=dual;\
defense=none;strings=protocol;strategy=honest;idealized=true;beta=0.05;delta=0.25;d1=2;d2=4;\
rule=loglog;churn=0.1;attack=0;retries=2;kernel=arena;cap=10000";

/// Epochs each `scale` driver steps before the next one is built. Some
/// seeds degrade a 10⁴ system within a few epochs, which changes the
/// epoch's cost; short independent units keep one such seed from
/// dominating a run, and give `setup_s` several builds per run. Set-up
/// stays a few percent of the run.
pub const SCALE_EPOCHS: usize = 2;

/// `sweep` — the e11 quick frontier grid `bench_trajectory` times: 300
/// good IDs, eight β rungs, d₂ = 4, churn 0.2, Chord, strategies
/// {gap-filling, churn-timed} × defenses {no-PoW, f∘g with fresh strings
/// over the real string protocol}, 60 searches, 2 epochs, default
/// kernel. Each pass over the grid draws fresh trial seeds; pass 0 at
/// seed 42 is exactly the e11 quick grid.
///
/// Why: the same routing layer as `scale`, used the opposite way —
/// many small systems whose ring fits in cache, set-up a visible share
/// of each cell, a large share of construction searches dying at a red
/// group (early exit matters), and adversary placement, minting and the
/// string protocol running every epoch.
const SWEEP_LABEL: &str = "tg1;n=300;bad={bad};seed={seed};searches=60;kind=chord;mode=dual;\
defense={defense};strings=protocol;strategy={strategy};idealized=true;beta={beta};delta=0.25;\
d1=2;d2=4;rule=loglog;churn=0.2;attack=0;retries=2";

/// The sweep's β rungs with their adversary budgets
/// (`round(β/(1−β)·300)`).
pub const SWEEP_BETAS: [(&str, usize); 8] = [
    ("0.02", 6),
    ("0.04", 13),
    ("0.06", 19),
    ("0.09", 30),
    ("0.13", 45),
    ("0.19", 70),
    ("0.28", 117),
    ("0.42", 217),
];

/// The sweep's rows in e11 order: (row seed label, strategy token,
/// defense token). The row label is the frontier engine's, so trial
/// seeds derive exactly as e11's do.
pub const SWEEP_ROWS: [(&str, &str, &str); 4] = [
    ("e11/gap-filling/none/4/c0.2/chord", "gap-filling", "none"),
    ("e11/gap-filling/f∘g/4/c0.2/chord", "gap-filling", "f∘g"),
    ("e11/churn-timed/none/4/c0.2/chord", "churn-timed:0.12:0.2", "none"),
    ("e11/churn-timed/f∘g/4/c0.2/chord", "churn-timed:0.12:0.2", "f∘g"),
];

/// Epochs per sweep cell-run.
pub const SWEEP_EPOCHS: usize = 2;

/// The frontier engine's early exit: once a cell's mean captured-group
/// fraction reaches this, higher β in the same row are skipped for the
/// rest of the pass.
pub const SWEEP_OVERRUN: f64 = 0.5;

/// `net` — e14's full-size fault cell on the real socket transport: 400
/// good IDs, a β = 0.08 uniform adversary budget (35 IDs), churn 0.15,
/// 300 searches, the actor runtime over loopback TCP, drop ∈ {0, 0.2,
/// 0.4} × partition ∈ {0, 24} ticks, 6 epochs per trial. Every driver
/// runs inside a non-strict invariant checker and every trial's stream
/// is published to a fresh result store.
///
/// Why: the only workload with the transport, the checker and the store
/// on the critical path. The drop = 0 rows double as the
/// sync-equivalence conformance rows.
const NET_LABEL: &str = "tg1;n=400;bad=35;seed={seed};searches=300;kind=chord;mode=dual;\
defense=none;strings=protocol;strategy=uniform;idealized=true;beta=0.05;delta=0.25;d1=2;d2=4;\
rule=loglog;churn=0.15;attack=4;retries=2;runtime=actor{faults};transport=socket";

/// The net grid's (drop, partition) cells, in sweep order.
pub const NET_CELLS: [(&str, u64); 6] =
    [("0", 0), ("0.2", 0), ("0.4", 0), ("0", 24), ("0.2", 24), ("0.4", 24)];

/// Epochs per net trial.
pub const NET_EPOCHS: usize = 6;

/// One driver lifetime the runner executes.
#[derive(Clone, Debug)]
pub struct UnitPlan {
    /// Position in the workload's deterministic unit sequence (the
    /// golden-digest key).
    pub index: usize,
    /// The parsed scenario.
    pub spec: ScenarioSpec,
    /// Epochs to step.
    pub epochs: usize,
    /// Whether each epoch is its own op (`scale`) or the whole unit is
    /// one op (`sweep`, `net`).
    pub epoch_ops: bool,
    /// Wrap the driver in a non-strict invariant checker.
    pub checked: bool,
    /// Publish the stream to the run's result store.
    pub publish: bool,
    /// Sweep row, for the overrun early exit.
    pub row: usize,
}

impl UnitPlan {
    /// Identities offered to each epoch (good + adversary budget).
    pub fn identities(&self) -> usize {
        self.spec.n_good + self.spec.n_bad
    }

    /// The spec the untimed reference replays: the same cell on the
    /// in-memory transport for socket specs (both transports consult the
    /// same fault fates), the identical spec otherwise.
    pub fn reference_spec(&self) -> ScenarioSpec {
        if self.spec.transport == TransportChoice::Socket {
            self.spec.clone().transport(TransportChoice::Mem)
        } else {
            self.spec.clone()
        }
    }
}

fn parse(label: &str) -> ScenarioSpec {
    ScenarioSpec::parse(label).unwrap_or_else(|e| panic!("workload label `{label}`: {e}"))
}

/// The label of `scale` unit `unit`.
pub fn scale_label(seed: u64, unit: usize) -> String {
    let s = derive_seed(seed, "perfbench/scale", unit as u64);
    SCALE_LABEL.replace("{seed}", &s.to_string())
}

/// The label of one sweep cell on pass `pass`.
pub fn sweep_label(seed: u64, row: usize, rung: usize, pass: usize) -> String {
    let (row_label, strategy, defense) = SWEEP_ROWS[row];
    let (beta, bad) = SWEEP_BETAS[rung];
    let s = derive_seed_grid(seed, row_label, rung as u64, pass as u64);
    SWEEP_LABEL
        .replace("{seed}", &s.to_string())
        .replace("{bad}", &bad.to_string())
        .replace("{beta}", beta)
        .replace("{strategy}", strategy)
        .replace("{defense}", defense)
}

/// The label of one net cell on pass `pass`. Every cell of a pass
/// shares one trial seed, as in e14.
pub fn net_label(seed: u64, cell: usize, pass: usize) -> String {
    let (drop, part) = NET_CELLS[cell];
    let mut faults = String::new();
    if drop != "0" {
        faults.push_str(&format!(";drop={drop}"));
    }
    if part != 0 {
        faults.push_str(&format!(";part={part}"));
    }
    let s = derive_seed(seed, "e14-trial", pass as u64);
    NET_LABEL.replace("{seed}", &s.to_string()).replace("{faults}", &faults)
}

/// The deterministic unit sequence of one workload at one seed.
pub struct Planner {
    workload: &'static str,
    seed: u64,
    next: usize,
    /// Sweep rows that overran on the current pass.
    overrun: [bool; 4],
}

impl Planner {
    /// The planner of `workload` (one of [`WORKLOADS`]).
    pub fn new(workload: &'static str, seed: u64) -> Planner {
        Planner { workload, seed, next: 0, overrun: [false; 4] }
    }

    /// The next unit to run.
    pub fn next_unit(&mut self) -> UnitPlan {
        loop {
            let index = self.next;
            self.next += 1;
            let plan = |label: String, epochs, epoch_ops, net: bool, row| UnitPlan {
                index,
                spec: parse(&label),
                epochs,
                epoch_ops,
                checked: net,
                publish: net,
                row,
            };
            match self.workload {
                "scale" => {
                    return plan(scale_label(self.seed, index), SCALE_EPOCHS, true, false, 0)
                }
                "sweep" => {
                    // Rung-major order: every row advances one β rung
                    // at a time, so a pass cut short by the deadline
                    // still samples every row (β stays ascending within
                    // a row, as the early exit needs).
                    let cells = SWEEP_ROWS.len() * SWEEP_BETAS.len();
                    let (pass, cell) = (index / cells, index % cells);
                    if cell == 0 {
                        self.overrun = [false; 4];
                    }
                    let (rung, row) = (cell / SWEEP_ROWS.len(), cell % SWEEP_ROWS.len());
                    if self.overrun[row] {
                        continue;
                    }
                    let label = sweep_label(self.seed, row, rung, pass);
                    return plan(label, SWEEP_EPOCHS, false, false, row);
                }
                "net" => {
                    let (pass, cell) = (index / NET_CELLS.len(), index % NET_CELLS.len());
                    return plan(net_label(self.seed, cell, pass), NET_EPOCHS, false, true, 0);
                }
                other => panic!("unknown workload {other}"),
            }
        }
    }

    /// Feed a finished sweep unit's mean captured fraction back into the
    /// early exit.
    pub fn record(&mut self, plan: &UnitPlan, mean_captured: f64) {
        if self.workload == "sweep" && mean_captured >= SWEEP_OVERRUN {
            self.overrun[plan.row] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::scenario::{budget_for, KernelChoice};
    use tg_experiments::exp::{e13_scale, e14_async};
    use tg_experiments::frontier::{Defense, FrontierConfig};
    use tg_pow::MintScheme;

    #[test]
    fn scale_label_is_the_e13_full_first_arena_rung() {
        let rung = e13_scale::Rung { kernel: KernelChoice::Arena, n_good: 9_500, epochs: 3 };
        let label = scale_label(7, 3);
        let seed = parse(&label).seed;
        assert_eq!(parse(&label), e13_scale::rung_spec(&rung, seed));
        assert_eq!(rung.n_total(), 10_000);
    }

    #[test]
    fn sweep_labels_are_the_e11_quick_grid() {
        let cfg = FrontierConfig {
            n_good: 300,
            betas: vec![0.02, 0.04, 0.06, 0.09, 0.13, 0.19, 0.28, 0.42],
            d2s: vec![4.0],
            churns: vec![0.2],
            kinds: vec![tg_overlay::GraphKind::Chord],
            strategies: vec!["gap-filling", "churn-timed"],
            defenses: vec![
                Defense::NoPow,
                Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
            ],
            epochs: SWEEP_EPOCHS,
            trials: 1,
            searches: 60,
            seed: DEFAULT_SEED,
            kernel: Default::default(),
            runtime: Default::default(),
            transport: Default::default(),
            store: None,
            check_invariants: false,
        };
        for (row, key) in cfg.rows().iter().enumerate() {
            assert_eq!(key.label(), SWEEP_ROWS[row].0);
            for (rung, &beta) in cfg.betas.iter().enumerate() {
                assert_eq!(budget_for(beta, cfg.n_good), SWEEP_BETAS[rung].1);
                let label = sweep_label(DEFAULT_SEED, row, rung, 0);
                let seed = derive_seed_grid(DEFAULT_SEED, &key.label(), rung as u64, 0);
                assert_eq!(parse(&label), key.scenario(&cfg, beta, seed), "{label}");
            }
        }
    }

    #[test]
    fn net_labels_are_the_e14_full_cells() {
        // Full-size cells (400 IDs, 300 searches) on the quick grid's
        // 24-tick partition rung.
        let full = tg_experiments::Options { full: true, ..Default::default() };
        for (i, &(drop, part)) in NET_CELLS.iter().enumerate() {
            let cell = e14_async::FaultCell {
                drop: drop.parse().unwrap(),
                part,
                transport: TransportChoice::Socket,
            };
            let label = net_label(DEFAULT_SEED, i, 2);
            let seed = derive_seed(DEFAULT_SEED, "e14-trial", 2);
            assert_eq!(parse(&label), e14_async::cell_spec(cell, &full, seed), "{label}");
        }
    }

    #[test]
    fn planner_is_deterministic_and_skips_overrun_rows() {
        let mut a = Planner::new("sweep", 3);
        let mut b = Planner::new("sweep", 3);
        let first = a.next_unit();
        assert_eq!(first.spec, b.next_unit().spec);
        a.record(&first, 0.9);
        // Row 0 overran: its next rung is skipped.
        let next: Vec<usize> = (0..4).map(|_| a.next_unit().index).collect();
        assert_eq!(next, [1, 2, 3, 5]);
        // After a full pass the early exit resets.
        let mut c = Planner::new("sweep", 3);
        let mut last = 0;
        for _ in 0..=SWEEP_ROWS.len() * SWEEP_BETAS.len() {
            last = c.next_unit().index;
        }
        assert_eq!(last, SWEEP_ROWS.len() * SWEEP_BETAS.len());
    }

    #[test]
    fn reference_spec_moves_sockets_to_memory() {
        let mut p = Planner::new("net", 1);
        let plan = p.next_unit();
        assert_eq!(plan.spec.transport, TransportChoice::Socket);
        let reference = plan.reference_spec();
        assert_eq!(reference.transport, TransportChoice::Mem);
        assert_eq!(reference.clone().transport(TransportChoice::Socket), plan.spec);
        let mut s = Planner::new("scale", 1);
        let plan = s.next_unit();
        assert_eq!(plan.reference_spec(), plan.spec);
    }
}
