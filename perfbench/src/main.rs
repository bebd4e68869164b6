//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale|sweep|net --seed N --seconds S --trace 0|1
//! ```
//!
//! A closed loop with one op in flight, from this single process: units
//! (one driver lifetime each) run back to back until they add up to
//! `--seconds` of timed work; after each unit, its observation stream is
//! checked against an untimed reference. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A manifest line precedes it; the traced run also writes
//! its spans to `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! `--record-golden N` instead prints the golden digests of the first
//! `N` units at `--seed` (how `golden/*.txt` were made).

mod check;
mod layers;
mod sys;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tg_core::scenario::ObsRow;
use tg_sim::ResultStore;

use layers::{build_plain, build_traced, CallCosts, Driver};
use trace::{Recorder, Shared};
use workload::{Planner, UnitPlan, WORKLOADS};

/// Samples per layer per side per epoch in the traced run's call probes.
const CALL_SAMPLES: usize = 256;

/// Where the run keeps its result store and trace, relative to the
/// checkout root it runs from.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_golden: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tg-perfbench --workload scale|sweep|net [--seed N] [--seconds S] [--trace 0|1] \
         [--record-golden UNITS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "",
        seed: workload::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record_golden: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let num = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    WORKLOADS.iter().find(|w| **w == value.as_str()).unwrap_or_else(|| usage())
            }
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num(),
            "--trace" => args.trace = num() != 0,
            "--record-golden" => args.record_golden = Some(num() as usize),
            _ => usage(),
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args
}

/// What one unit produced.
#[derive(Debug, Default)]
struct UnitRun {
    /// Driver construction wall, s.
    build_s: f64,
    /// `step()` wall per epoch, s.
    step_s: Vec<f64>,
    /// Wall per op, s (one per epoch on `scale`, one per unit otherwise).
    op_s: Vec<f64>,
    /// Build plus steps, s — the part both the traced and untraced runs
    /// time identically (the trace-overhead base).
    core_s: f64,
    /// The encoded `ObsRow` stream.
    rows: Vec<String>,
    /// Mean captured-group fraction over the epochs.
    mean_captured: f64,
    /// Checker violations.
    violations: usize,
    /// Build error, panic or publish failure.
    error: Option<String>,
}

impl UnitRun {
    /// Ops this unit attempted.
    fn ops(&self, plan: &UnitPlan) -> usize {
        if plan.epoch_ops {
            (self.rows.len() + usize::from(self.error.is_some())).max(1)
        } else {
            1
        }
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Store key of a unit's stream: its scenario label plus epoch count.
fn store_key(plan: &UnitPlan) -> String {
    format!("{};epochs={}", plan.spec.label(), plan.epochs)
}

fn push_row(run: &mut UnitRun, row: ObsRow) {
    run.mean_captured += row.captured_groups as f64 / row.total_groups.max(1) as f64;
    run.rows.push(row.encode_line());
}

/// Publish the unit's stream; a failed publish fails the op.
fn publish(run: &mut UnitRun, plan: &UnitPlan, store: &ResultStore) {
    if let Err(e) = store.put(&store_key(plan), &run.rows) {
        run.error = Some(format!("publish: {e}"));
    }
}

/// Run one unit untraced. `deadline` lets a `scale` unit stop between
/// epochs once the run's budget is spent; replays pass `None` and step
/// exactly `plan.epochs`.
fn run_plain(plan: &UnitPlan, store: Option<&ResultStore>, deadline: Option<Instant>) -> UnitRun {
    let mut run = UnitRun::default();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut driver = match build_plain(&plan.spec, plan.checked) {
            Ok(d) => d,
            Err(e) => {
                run.error = Some(format!("build: {e}"));
                return;
            }
        };
        run.build_s = t0.elapsed().as_secs_f64();
        for e in 0..plan.epochs {
            if e > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let t = Instant::now();
            let row = ObsRow::of(driver.step());
            let dt = t.elapsed().as_secs_f64();
            run.step_s.push(dt);
            if plan.epoch_ops {
                run.op_s.push(dt);
            }
            push_row(&mut run, row);
        }
        run.violations = driver.violations();
        run.core_s = t0.elapsed().as_secs_f64();
        drop(driver);
        if let Some(store) = store.filter(|_| plan.publish) {
            publish(&mut run, plan, store);
        }
    }));
    if let Err(p) = outcome {
        run.error = Some(format!("panic: {}", panic_message(p)));
    }
    if !plan.epoch_ops {
        run.op_s.push(t0.elapsed().as_secs_f64());
    }
    run.mean_captured /= run.rows.len().max(1) as f64;
    run
}

/// Counters the traced run gathers outside the span tree.
#[derive(Debug, Default)]
struct Counters {
    epochs: u64,
    member_slots: u64,
    links_required: u64,
    links_failed: u64,
    captured_slots: u64,
    searches: u64,
    failed_searches: u64,
    hops: u64,
    calls: CallCosts,
    net_sent: u64,
    net_dropped: u64,
    net_late: u64,
    net_wall_ns: u64,
    net_oncpu_ns: u64,
    net_window_ticks: Vec<f64>,
    violations: usize,
    step_cpu_s: f64,
    step_wall_s: f64,
    threads: u64,
    traced_core_s: f64,
    plain_core_s: f64,
}

/// The traced run's state.
struct Tracer {
    rec: Shared,
    rng: StdRng,
    counters: Counters,
    next_op: u64,
}

impl Tracer {
    fn new_op(&mut self) {
        self.rec.borrow_mut().set_op(self.next_op);
        self.next_op += 1;
    }
}

/// Run one unit with timing wrappers and replays. The observation
/// stream must equal the untraced run's byte for byte.
fn run_traced(
    plan: &UnitPlan,
    store: Option<&ResultStore>,
    deadline: Instant,
    tr: &mut Tracer,
) -> UnitRun {
    let mut run = UnitRun::default();
    tr.new_op();
    let rec = tr.rec.clone();
    let op_span = (!plan.epoch_ops).then(|| rec.borrow_mut().enter("op"));
    let t0 = Instant::now();
    let mut core = Duration::ZERO;
    let mut kernel_spans = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let build_span = rec.borrow_mut().enter("build");
        let built = build_traced(&plan.spec, plan.checked, &rec);
        rec.borrow_mut().exit(build_span);
        let (mut driver, log) = match built {
            Ok(d) => d,
            Err(e) => {
                run.error = Some(format!("build: {e}"));
                return;
            }
        };
        run.build_s = t0.elapsed().as_secs_f64();
        core += t0.elapsed();
        for e in 0..plan.epochs {
            if e > 0 && Instant::now() >= deadline {
                break;
            }
            if plan.epoch_ops && e > 0 {
                tr.new_op();
            }
            let pre = layers::replay_pre_step(&plan.spec, &driver, &mut tr.rng);
            let (row, kernel) = step_traced(&mut driver, plan, &rec, tr, &mut run);
            core += Duration::from_secs_f64(*run.step_s.last().unwrap_or(&0.0));
            let mut r = rec.borrow_mut();
            if let Some(i) = pre.strings {
                r.record("pow.strings", i.start, i.end, kernel);
            }
            if let Some(i) = pre.mint {
                r.record("mint", i.start, i.end, kernel);
            }
            drop(r);
            let measure = layers::replay_measure(&plan.spec, driver.graphs(), &mut tr.rng);
            rec.borrow_mut().record("measure", measure.start, measure.end, kernel);
            layers::sample_calls(
                driver.graphs(),
                CALL_SAMPLES,
                &mut tr.rng,
                &mut tr.counters.calls,
            );
            kernel_spans.push(kernel);
            push_row(&mut run, row);
        }
        run.violations = driver.violations();
        tr.counters.violations += run.violations;
        drop(driver);
        if let Some(store) = store.filter(|_| plan.publish) {
            let put = rec.borrow_mut().enter("store.put");
            publish(&mut run, plan, store);
            rec.borrow_mut().exit(put);
        }
        if plan.spec.runtime == tg_core::RuntimeChoice::Actor {
            let log = log.borrow();
            let replays = layers::replay_net(&plan.spec, &log);
            let c = &mut tr.counters;
            let mut r = rec.borrow_mut();
            for (net, &kernel) in replays.iter().zip(&kernel_spans) {
                r.record("net.announce", net.announce.start, net.announce.end, kernel);
                r.record("net.probe", net.probe.start, net.probe.end, kernel);
                if let Some(op) = op_span {
                    r.record("net.string", net.string.start, net.string.end, op);
                }
                let wall = net.announce.dur() + net.probe.dur() + net.string.dur();
                c.net_wall_ns += wall.as_nanos() as u64;
                c.net_oncpu_ns += net.oncpu_ns;
                c.net_sent += net.sent;
                c.net_dropped += net.dropped;
                c.net_late += net.late;
                c.net_window_ticks.push(net.window_ticks as f64);
            }
        }
    }));
    if let Err(p) = outcome {
        run.error = Some(format!("panic: {}", panic_message(p)));
    }
    if let Some(op) = op_span {
        rec.borrow_mut().exit(op);
        run.op_s.push(t0.elapsed().as_secs_f64());
    }
    run.core_s = core.as_secs_f64();
    tr.counters.traced_core_s += run.core_s;
    run.mean_captured /= run.rows.len().max(1) as f64;
    run
}

/// One traced epoch: `verify` (checker) around `step` (the epoch), with
/// the provider's `mint` nested inside. Returns the row and the span
/// replayed children are attributed to (the epoch's `step`).
fn step_traced(
    driver: &mut Driver,
    plan: &UnitPlan,
    rec: &Shared,
    tr: &mut Tracer,
    run: &mut UnitRun,
) -> (ObsRow, usize) {
    let outer = rec.borrow_mut().enter(if plan.checked { "verify" } else { "step" });
    let cpu0 = sys::process_cpu_s();
    let t = Instant::now();
    let obs = driver.step();
    let dt = t.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_s() - cpu0;
    rec.borrow_mut().exit(outer);
    let (row, build, metrics) = (ObsRow::of(obs), obs.build, obs.metrics);
    run.step_s.push(dt);
    if plan.epoch_ops {
        run.op_s.push(dt);
    }
    let c = &mut tr.counters;
    c.epochs += 1;
    c.member_slots += build.member_slots;
    c.links_required += build.links_required;
    c.links_failed += build.links_failed;
    c.captured_slots += build.captured_slots;
    c.searches += metrics.searches;
    c.failed_searches += metrics.failed_searches;
    c.hops += metrics.hops;
    c.step_cpu_s += cpu;
    c.step_wall_s += dt;
    let r = rec.borrow();
    let kernel = if plan.checked {
        (outer + 1..r.spans().len())
            .find(|&i| r.spans()[i].name == "step" && r.spans()[i].parent == Some(outer))
            .unwrap_or(outer)
    } else {
        outer
    };
    (row, kernel)
}

/// How a unit fared against its references.
struct Verdict {
    failed_ops: usize,
    note: Option<String>,
}

/// Check one unit's stream: against the golden digests or an untimed
/// replay (the in-memory twin for socket cells), against the untraced
/// run in traced mode, and against the store readback when published.
fn verify(
    workload: &str,
    seed: u64,
    plan: &UnitPlan,
    run: &UnitRun,
    store: Option<&ResultStore>,
    tracer: Option<&mut Tracer>,
) -> Verdict {
    let all = run.ops(plan);
    let fail = |note: String| Verdict { failed_ops: all, note: Some(note) };
    if let Some(e) = &run.error {
        return fail(e.clone());
    }
    if run.violations > 0 {
        return fail(format!("{} invariant violations", run.violations));
    }
    let epochs = run.rows.len();
    let replay_plan = UnitPlan { epochs, ..plan.clone() };
    let mut bad = vec![false; epochs];
    let mut mark = |reference: &[String]| {
        for (i, b) in bad.iter_mut().enumerate() {
            *b |= reference.get(i) != Some(&run.rows[i]);
        }
    };
    let mut note = None;
    let mut untraced = None;
    if let Some(tr) = tracer {
        // Transparency: the traced stream equals the untraced one.
        let plain = run_plain(&replay_plan, None, None);
        tr.counters.plain_core_s += plain.core_s;
        if check::mismatches(&run.rows, &plain.rows) > 0 {
            note = Some("traced stream differs from the untraced run".to_string());
        }
        mark(&plain.rows);
        if let Some(store) = store.filter(|_| plan.publish) {
            let get = tr.rec.borrow_mut().enter("store.get");
            let back = store.get(&store_key(plan));
            tr.rec.borrow_mut().exit(get);
            mark(&back.ok().flatten().unwrap_or_default());
        }
        untraced = Some(plain);
    } else if let Some(store) = store.filter(|_| plan.publish) {
        mark(&store.get(&store_key(plan)).ok().flatten().unwrap_or_default());
    }
    let reference_spec = plan.reference_spec();
    let golden = check::golden(workload, seed, plan.index).filter(|g| g.len() >= epochs);
    if reference_spec != plan.spec {
        let reference = UnitPlan { spec: reference_spec, checked: false, ..replay_plan };
        mark(&run_plain(&reference, None, None).rows);
    } else if let Some(g) = golden {
        for (i, b) in bad.iter_mut().enumerate() {
            *b |= check::digest(&run.rows[i]) != g[i];
        }
    } else {
        let reference = untraced.unwrap_or_else(|| run_plain(&replay_plan, None, None));
        mark(&reference.rows);
    }
    let mismatched = bad.iter().filter(|&&b| b).count();
    if mismatched == 0 {
        return Verdict { failed_ops: 0, note };
    }
    let note = note.or_else(|| Some(format!("{mismatched} epochs differ from the reference")));
    Verdict { failed_ops: if plan.epoch_ops { mismatched } else { 1 }, note }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `(name, value, unit)` triples of the result line.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(units: &[(UnitPlan, UnitRun)], attempted: usize, failed: usize) -> Metrics {
    let steps: Vec<f64> = units.iter().flat_map(|(_, r)| r.step_s.iter().copied()).collect();
    let ops: Vec<f64> = units.iter().flat_map(|(_, r)| r.op_s.iter().copied()).collect();
    let builds: Vec<f64> =
        units.iter().filter(|(_, r)| r.build_s > 0.0).map(|(_, r)| r.build_s).collect();
    let ids: f64 = units.iter().map(|(p, r)| (p.identities() * r.step_s.len()) as f64).sum();
    vec![
        ("ids_per_s", ratio(ids, steps.iter().sum()), "ids/s"),
        ("epoch_ms_p50", median(&steps) * 1e3, "ms"),
        ("cell_ms_p50", median(&ops) * 1e3, "ms"),
        ("cell_ms_p90", quantile(&ops, 0.9) * 1e3, "ms"),
        ("setup_s", median(&builds), "s"),
        ("peak_rss_mb", sys::peak_rss_mib(), "MiB"),
        ("ok_frac", ratio((attempted - failed) as f64, attempted as f64), "ratio"),
    ]
}

fn per_layer(tr: &Tracer) -> Metrics {
    let rec = tr.rec.borrow();
    let spans = rec.spans();
    let own = rec.self_ns();
    let ms = |ns: i64| ns as f64 / 1e6;
    // Median over spans of one name: of their self time, or duration.
    let med = |name: &str, self_time: bool, filter: &dyn Fn(usize) -> bool| -> f64 {
        let v: Vec<f64> = (0..spans.len())
            .filter(|&i| spans[i].name == name && filter(i))
            .map(|i| ms(if self_time { own[i] } else { spans[i].dur_ns() as i64 }))
            .collect();
        median(&v)
    };
    let any = |_: usize| true;
    let in_step = |i: usize| spans[i].parent.is_some_and(|p| spans[p].name == "step");
    let c = &tr.counters;
    let per_epoch = |n: u64| ratio(n as f64, c.epochs as f64);
    let per_call = |(ns, calls): (u64, u64), scale: f64| ratio(ns as f64, calls as f64) / scale;
    let calls = &c.calls;
    vec![
        ("kernel.build_ms", med("step", true, &any), "ms"),
        ("build.member_slots", per_epoch(c.member_slots), "count"),
        ("build.links_required", per_epoch(c.links_required), "count"),
        ("build.links_failed_frac", ratio(c.links_failed as f64, c.links_required as f64), "ratio"),
        ("build.captured_slots", per_epoch(c.captured_slots), "count"),
        ("routing.search_us", per_call(calls.search, 1e3), "us"),
        ("routing.searches", per_epoch(c.searches), "count"),
        ("routing.fail_frac", ratio(c.failed_searches as f64, c.searches as f64), "ratio"),
        ("routing.hops_per_search", ratio(c.hops as f64, c.searches as f64), "count"),
        ("overlay.route_us", per_call(calls.route, 1e3), "us"),
        ("overlay.neighbors_us", per_call(calls.neighbors, 1e3), "us"),
        ("ring.covering_ns", per_call(calls.covering, 1.0), "ns"),
        ("ring.index_of_ns", per_call(calls.index_of, 1.0), "ns"),
        ("crypto.hash_ns", per_call(calls.hash, 1.0), "ns"),
        ("robustness.measure_ms", med("measure", false, &any), "ms"),
        ("pow.strings_ms", med("pow.strings", false, &any), "ms"),
        ("pow.mint_ms", med("mint", false, &in_step), "ms"),
        ("scenario.build_ms", med("build", false, &any), "ms"),
        ("net.announce_ms", med("net.announce", false, &any), "ms"),
        ("net.probe_ms", med("net.probe", false, &any), "ms"),
        ("net.string_ms", med("net.string", false, &any), "ms"),
        ("net.us_per_frame", ratio(c.net_wall_ns as f64 / 1e3, c.net_sent as f64), "us"),
        (
            "net.offcpu_frac",
            ratio(c.net_wall_ns.saturating_sub(c.net_oncpu_ns) as f64, c.net_wall_ns as f64),
            "ratio",
        ),
        ("net.dropped_frac", ratio(c.net_dropped as f64, c.net_sent as f64), "ratio"),
        ("net.late_frac", ratio(c.net_late as f64, c.net_sent as f64), "ratio"),
        ("net.window_ticks", median(&c.net_window_ticks), "ticks"),
        ("store.put_ms", med("store.put", false, &any), "ms"),
        ("store.get_ms", med("store.get", false, &any), "ms"),
        ("verify.check_ms", med("verify", true, &any), "ms"),
        ("verify.violations", c.violations as f64, "count"),
        ("proc.cpu_util", ratio(c.step_cpu_s, c.step_wall_s), "ratio"),
        ("proc.threads", c.threads as f64, "count"),
        ("trace.overhead_frac", ratio(c.traced_core_s, c.plain_core_s) - 1.0, "ratio"),
    ]
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn record_golden(args: &Args, units: usize) {
    let mut planner = Planner::new(args.workload, args.seed);
    println!("# {} seed={} per-epoch ObsRow digests (--record-golden)", args.workload, args.seed);
    for _ in 0..units {
        let plan = planner.next_unit();
        let run = run_plain(&plan, None, None);
        if let Some(e) = &run.error {
            eprintln!("unit {}: {e}", plan.index);
            std::process::exit(1);
        }
        planner.record(&plan, run.mean_captured);
        println!("{}", check::golden_line(plan.index, &run.rows));
    }
}

fn main() {
    let args = parse_args();
    if let Some(units) = args.record_golden {
        record_golden(&args, units);
        return;
    }
    let work = PathBuf::from(WORK_DIR);
    let store_dir = work.join(format!("store-{}", std::process::id()));
    let store = if args.workload == "net" {
        let _ = std::fs::remove_dir_all(&store_dir);
        match ResultStore::open(&store_dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: cannot open the result store: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let mut tracer = args.trace.then(|| Tracer {
        rec: Recorder::shared(),
        rng: StdRng::seed_from_u64(args.seed ^ 0x7e57_ab1e),
        counters: Counters::default(),
        next_op: 0,
    });

    // The measured budget is `--seconds` of timed units. Each unit's
    // untimed checks run right after it, so the timed samples spread
    // over the whole run instead of its first half — a slow spell of a
    // shared machine then weighs on fewer of them.
    let mut planner = Planner::new(args.workload, args.seed);
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut timed = Duration::ZERO;
    let mut units: Vec<(UnitPlan, UnitRun)> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    while units.is_empty() || timed < budget {
        let plan = planner.next_unit();
        let t = Instant::now();
        let stop = t + (budget - timed.min(budget));
        let run = match tracer.as_mut() {
            Some(tr) => run_traced(&plan, store.as_ref(), stop, tr),
            None => run_plain(&plan, store.as_ref(), Some(stop)),
        };
        timed += t.elapsed();
        planner.record(&plan, run.mean_captured);
        let verdict =
            verify(args.workload, args.seed, &plan, &run, store.as_ref(), tracer.as_mut());
        attempted += run.ops(&plan);
        failed += verdict.failed_ops;
        if let Some(note) = verdict.note {
            eprintln!("unit {} ({}): {note}", plan.index, plan.spec.label());
        }
        units.push((plan, run));
    }
    if let Some(tr) = tracer.as_mut() {
        tr.counters.threads = layers::parallel_map_threads();
    }
    let manifest = sys::manifest_json(args.workload, args.seed, args.seconds, args.trace);
    let metrics = match &tracer {
        Some(tr) => {
            let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
            let written = std::fs::create_dir_all(&work)
                .and_then(|()| std::fs::write(&path, tr.rec.borrow().to_jsonl(&manifest)));
            if let Err(e) = written {
                eprintln!("warning: trace not written to {}: {e}", path.display());
            }
            per_layer(tr)
        }
        None => end_to_end(&units, attempted, failed),
    };
    if store.is_some() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    eprintln!(
        "{}: {} units, {attempted} ops, {failed} failed, {:.1} s",
        args.workload,
        units.len(),
        start.elapsed().as_secs_f64()
    );
    println!("{{\"manifest\": {manifest}}}");
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
}
