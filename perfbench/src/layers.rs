//! Driver construction and the per-layer timing hooks.
//!
//! The untraced run builds every driver exactly as the experiments do
//! (`tg_pow::scenario::build`, wrapped in a non-strict `CheckedDriver`
//! where the workload asks for it). The traced run builds the same
//! observation stream with timing wrappers in the places the public API
//! lets a caller plug in:
//!
//! * no-PoW specs are rebuilt with
//!   `driver_with_provider(spec, TimedProvider(<the same provider>))`,
//!   which times minting and strategy placement from inside the step;
//! * checked drivers wrap a [`TimingDriver`] around the real driver, so
//!   the checker's own cost is the checked step minus the inner step.
//!
//! Everything else is timed by replaying the same public call on the
//! same inputs with the benchmark's own RNG, outside the step.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use tg_core::dynamic::{AdversaryView, EpochIds, IdentityProvider, StrategicProvider};
use tg_core::dynamic::{KernelChoice, UniformProvider};
use tg_core::robustness::{
    measure_dual_success, measure_dual_success_chunked, measure_robustness,
    measure_robustness_chunked,
};
use tg_core::scenario::{
    driver_with_provider, Defense, EpochDriver, EpochObservation, ObservationBatch, StrategySpec,
};
use tg_core::{search_path, EpochNet, GraphsView, GroupGraphView, ScenarioError, ScenarioSpec};
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_pow::strings::{run_string_protocol, StringAdversary, StringParams};
use tg_pow::{MintingSim, PuzzleParams, StrategicPowProvider};
use tg_sim::Metrics;
use tg_verify::CheckedDriver;

use crate::sys::thread_oncpu_ns;
use crate::trace::Shared;

/// A built driver, plain or inside the invariant checker.
pub enum Driver {
    /// The driver as built.
    Plain(Box<dyn EpochDriver>),
    /// Inside a non-strict `CheckedDriver` (violations are collected).
    Checked(Box<CheckedDriver>),
}

impl Driver {
    fn new(inner: Box<dyn EpochDriver>, spec: &ScenarioSpec, checked: bool) -> Driver {
        if checked {
            Driver::Checked(Box::new(CheckedDriver::wrap(inner, spec.clone())))
        } else {
            Driver::Plain(inner)
        }
    }

    /// Advance one epoch.
    pub fn step(&mut self) -> &EpochObservation {
        match self {
            Driver::Plain(d) => d.step(),
            Driver::Checked(d) => d.step(),
        }
    }

    /// The operational graphs.
    pub fn graphs(&self) -> GraphsView<'_> {
        match self {
            Driver::Plain(d) => d.graphs(),
            Driver::Checked(d) => d.graphs(),
        }
    }

    /// The epoch the operational graphs serve.
    pub fn epoch(&self) -> u64 {
        match self {
            Driver::Plain(d) => d.epoch(),
            Driver::Checked(d) => d.epoch(),
        }
    }

    /// Invariant violations collected so far.
    pub fn violations(&self) -> usize {
        match self {
            Driver::Plain(_) => 0,
            Driver::Checked(d) => d.violations().len(),
        }
    }
}

/// Build `spec` the way the experiments do.
pub fn build_plain(spec: &ScenarioSpec, checked: bool) -> Result<Driver, ScenarioError> {
    Ok(Driver::new(tg_pow::scenario::build(spec)?, spec, checked))
}

/// The identities each advanced epoch's provider returned, in order —
/// the inputs the network twin replays.
pub type IdLog = Rc<RefCell<Vec<(u64, EpochIds)>>>;

/// Build `spec` with timing wrappers: spans `mint` (provider) and, for
/// checked drivers, `step` (the driver inside the checker).
pub fn build_traced(
    spec: &ScenarioSpec,
    checked: bool,
    rec: &Shared,
) -> Result<(Driver, IdLog), ScenarioError> {
    let log: IdLog = Rc::default();
    let inner = match no_pow_provider(spec) {
        Some(provider) => {
            spec.check_transport()?;
            let timed = TimedProvider { inner: provider, rec: rec.clone(), log: log.clone() };
            driver_with_provider(spec, Box::new(timed))
        }
        None => tg_pow::scenario::build(spec)?,
    };
    let inner: Box<dyn EpochDriver> =
        if checked { Box::new(TimingDriver { inner, rec: rec.clone() }) } else { inner };
    Ok((Driver::new(inner, spec, checked), log))
}

/// The provider `tg_pow::scenario::build` installs for a no-PoW spec;
/// `None` for specs that mint through the PoW layer.
fn no_pow_provider(spec: &ScenarioSpec) -> Option<Box<dyn IdentityProvider>> {
    if spec.defense != Defense::NoPow {
        return None;
    }
    Some(match spec.strategy {
        StrategySpec::Honest => {
            Box::new(UniformProvider { n_good: spec.n_good, n_bad: spec.n_bad })
        }
        _ => {
            let strategy = tg_pow::scenario::build_strategy(&spec.strategy)?;
            Box::new(StrategicProvider::boxed(spec.n_good, spec.n_bad, strategy))
        }
    })
}

/// Times the wrapped provider (`mint` span) and logs the identities it
/// returns after genesis. Draws nothing from the RNG it forwards.
struct TimedProvider {
    inner: Box<dyn IdentityProvider>,
    rec: Shared,
    log: IdLog,
}

impl IdentityProvider for TimedProvider {
    fn ids_for_epoch(
        &mut self,
        epoch: u64,
        view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        let span = self.rec.borrow_mut().enter("mint");
        let ids = self.inner.ids_for_epoch(epoch, view, rng);
        self.rec.borrow_mut().exit(span);
        if !view.graphs.is_empty() {
            self.log.borrow_mut().push((epoch, ids.clone()));
        }
        ids
    }
}

/// Times the driver it wraps (`step` span) and forwards everything.
struct TimingDriver {
    inner: Box<dyn EpochDriver>,
    rec: Shared,
}

impl EpochDriver for TimingDriver {
    fn step(&mut self) -> &EpochObservation {
        let span = self.rec.borrow_mut().enter("step");
        self.inner.step();
        self.rec.borrow_mut().exit(span);
        self.inner.observation()
    }

    fn observation(&self) -> &EpochObservation {
        self.inner.observation()
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.inner.graphs()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn batch(&self) -> &ObservationBatch {
        self.inner.batch()
    }

    fn batch_mut(&mut self) -> &mut ObservationBatch {
        self.inner.batch_mut()
    }
}

/// A timed interval (for replayed children).
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Interval {
    fn time<R>(f: impl FnOnce() -> R) -> (Interval, R) {
        let start = Instant::now();
        let r = f();
        (Interval { start, end: Instant::now() }, r)
    }

    /// Length.
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Replays run before a PoW step, on the graphs the step starts from:
/// the string protocol on side 0 and the minting provider.
#[derive(Debug, Default)]
pub struct PreStep {
    /// `run_string_protocol` on side 0.
    pub strings: Option<Interval>,
    /// The minting provider's `ids_for_epoch`.
    pub mint: Option<Interval>,
}

/// Replay the children of a PoW step that the public API gives no hook
/// for. Empty for no-PoW specs (their provider is wrapped instead).
pub fn replay_pre_step(spec: &ScenarioSpec, driver: &Driver, rng: &mut StdRng) -> PreStep {
    let Defense::Pow { scheme, .. } = spec.defense else {
        return PreStep::default();
    };
    let graphs = driver.graphs();
    let mut out = PreStep::default();
    if !graphs.is_empty() {
        let side0 = graphs.side(0);
        let params = StringParams::default();
        out.strings = Some(
            Interval::time(|| {
                black_box(run_string_protocol(&side0, &params, StringAdversary::None, rng));
            })
            .0,
        );
    }
    let epoch = driver.epoch() + 1;
    let view = AdversaryView { epoch, graphs, epoch_string: Some(rng.gen()) };
    out.mint = Some(
        Interval::time(|| match tg_pow::scenario::build_strategy(&spec.strategy) {
            Some(strategy) => {
                let mut p =
                    StrategicPowProvider::boxed(spec.n_good, spec.n_bad as f64, scheme, strategy);
                black_box(p.ids_for_epoch(epoch, &view, rng));
            }
            None => {
                let sim = MintingSim {
                    params: PuzzleParams::calibrated(16, 2048),
                    n_good: spec.n_good,
                    adversary_units: spec.n_bad as f64,
                    idealized_good: spec.idealized_good,
                };
                black_box(sim.run_window(rng));
            }
        })
        .0,
    );
    out
}

/// Replay the epoch's robustness measurement on the fresh graphs: the
/// single-side report on side 0 plus the dual success, at the spec's
/// search count, with the routine the spec's kernel uses.
pub fn replay_measure(spec: &ScenarioSpec, graphs: GraphsView<'_>, rng: &mut StdRng) -> Interval {
    Interval::time(|| {
        if graphs.is_empty() {
            return;
        }
        let (s0, n) = (graphs.side(0), spec.searches);
        let two = graphs.sides() == 2;
        if spec.kernel == KernelChoice::Arena {
            black_box(measure_robustness_chunked(&s0, &spec.params, n, rng));
            if two {
                black_box(measure_dual_success_chunked([&s0, &graphs.side(1)], n, rng));
            }
        } else {
            black_box(measure_robustness(&s0, &spec.params, n, rng));
            if two {
                black_box(measure_dual_success([&s0, &graphs.side(1)], n, rng));
            }
        }
    })
    .0
}

/// Per-call costs of the layers under the construction searches,
/// accumulated over sampled calls.
#[derive(Debug, Default)]
pub struct CallCosts {
    /// `search_path`: (total ns, calls).
    pub search: (u64, u64),
    /// `InputGraph::route`.
    pub route: (u64, u64),
    /// `InputGraph::neighbors`.
    pub neighbors: (u64, u64),
    /// `SortedRing::covering_index` on the leader ring.
    pub covering: (u64, u64),
    /// `SortedRing::index_of` on the leader ring.
    pub index_of: (u64, u64),
    /// `Oracle::hash_id_index` (the membership-slot hash).
    pub hash: (u64, u64),
}

/// Time a batch of `inputs` through `f`, adding (ns, calls) to `acc`.
fn time_batch<T: Copy, R>(acc: &mut (u64, u64), inputs: &[T], mut f: impl FnMut(T) -> R) {
    let t = Instant::now();
    for &x in inputs {
        black_box(f(black_box(x)));
    }
    acc.0 += t.elapsed().as_nanos() as u64;
    acc.1 += inputs.len() as u64;
}

/// Sample `k` calls into each layer below the searches, on every side of
/// the operational graphs. Inputs are drawn before each timed batch.
pub fn sample_calls(graphs: GraphsView<'_>, k: usize, rng: &mut StdRng, acc: &mut CallCosts) {
    let fam = OracleFamily::new(rng.gen());
    for side in graphs.iter() {
        let ring = side.leaders().ring();
        if ring.is_empty() {
            continue;
        }
        let topo = side.topology();
        let pairs: Vec<(usize, Id)> =
            (0..k).map(|_| (rng.gen_range(0..ring.len()), Id(rng.gen()))).collect();
        let mut metrics = Metrics::new();
        time_batch(&mut acc.search, &pairs, |(from, key)| {
            search_path(&side, from, key, &mut metrics)
        });
        time_batch(&mut acc.route, &pairs, |(from, key)| topo.route(ring.at(from), key));
        let leaders: Vec<Id> = pairs.iter().map(|&(from, _)| ring.at(from)).collect();
        time_batch(&mut acc.neighbors, &leaders, |w| topo.neighbors(w));
        time_batch(&mut acc.index_of, &leaders, |w| ring.index_of(w));
        let keys: Vec<Id> = pairs.iter().map(|&(_, key)| key).collect();
        time_batch(&mut acc.covering, &keys, |x| ring.covering_index(x));
        let oracle = fam.membership(0);
        let slots: Vec<(Id, u32)> =
            leaders.iter().enumerate().map(|(i, &w)| (w, (i % 8) as u32)).collect();
        time_batch(&mut acc.hash, &slots, |(w, i)| oracle.hash_id_index(w, i));
    }
}

/// One epoch's network phases, replayed on a twin network.
#[derive(Debug)]
pub struct NetReplay {
    /// Membership announcement phase.
    pub announce: Interval,
    /// Routing probe phase.
    pub probe: Interval,
    /// String dissemination phase.
    pub string: Interval,
    /// Frames sent in the three phases.
    pub sent: u64,
    /// Frames dropped (injected faults, partition cuts and wire losses).
    pub dropped: u64,
    /// Frames past their phase deadline.
    pub late: u64,
    /// Thread on-CPU time across the three phases, ns.
    pub oncpu_ns: u64,
    /// Phase window after the epoch, ticks.
    pub window_ticks: u64,
}

/// Replay each logged epoch's announce, probe and string phases on a
/// twin `EpochNet::for_spec` — built only after the unit's own driver is
/// gone, so one set of loopback lanes exists at a time.
pub fn replay_net(spec: &ScenarioSpec, log: &[(u64, EpochIds)]) -> Vec<NetReplay> {
    let mut net = EpochNet::for_spec(spec);
    log.iter()
        .map(|(epoch, ids)| {
            let before = net.stats();
            let cpu0 = thread_oncpu_ns();
            let mut ids = ids.clone();
            let (announce, ()) = Interval::time(|| net.announce_phase(*epoch, &mut ids));
            let (probe, _) = Interval::time(|| net.probe_phase(*epoch, spec.searches));
            let (string, _) = Interval::time(|| net.string_phase(*epoch, spec.seed ^ *epoch));
            let oncpu_ns = thread_oncpu_ns().saturating_sub(cpu0);
            let after = net.stats();
            NetReplay {
                announce,
                probe,
                string,
                sent: after.sent - before.sent,
                dropped: (after.dropped + after.partition_cut)
                    - (before.dropped + before.partition_cut),
                late: after.late - before.late,
                oncpu_ns,
                window_ticks: net.window().current(),
            }
        })
        .collect()
}

/// Peak threads seen inside one call of the program's own
/// `tg_sim::parallel_map` (what the epoch's parallel sections run on).
pub fn parallel_map_threads() -> u64 {
    let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    tg_sim::parallel_map((0..n).collect::<Vec<_>>(), |_| {
        std::thread::sleep(Duration::from_millis(2));
        crate::sys::threads()
    })
    .into_iter()
    .max()
    .unwrap_or(1)
}
