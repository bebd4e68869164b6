//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer's public functions; nothing inside the
//! program is instrumented. Each span has a name, a start and end (ns
//! since the recorder was created), a parent and the op it belongs to.
//! Spans stay in memory and are written out once, when the run ends.
//!
//! Children the benchmark cannot wrap are *replayed*: the same public
//! call on the same inputs, outside the parent's interval. Such a span
//! still names the parent it is attributed to, so a layer's self time
//! is its duration minus every child attributed to it, wherever that
//! child ran.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`step`, `mint`, `net.announce`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span this one is attributed to.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. Shared (`Rc<RefCell<_>>`) between the runner and the
/// timing wrappers it installs inside drivers.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Shared handle to a [`Recorder`].
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder, shared.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything opened inside it and left open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a finished span attributed to `parent` — a replayed child
    /// that ran outside its parent's interval.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: usize) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span =
            Span { name, start_ns: at(start), end_ns: at(end), parent: Some(parent), op: self.op };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of the
    /// children attributed to it.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Total self time and span count per layer name.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, (i64, u64)> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by.entry(s.name).or_insert((0i64, 0u64));
            e.0 += own;
            e.1 += 1;
        }
        by
    }

    /// The trace as JSON lines: the manifest, one line per span, then
    /// one self-time line per layer.
    pub fn to_jsonl(&self, manifest: &str) -> String {
        let mut out = format!("{{\"manifest\":{manifest}}}\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        for (name, (own, count)) in self.self_by_layer() {
            out.push_str(&format!(
                "{{\"layer\":\"{name}\",\"self_ns\":{own},\"spans\":{count}}}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let rec = Recorder::shared();
        let mut r = rec.borrow_mut();
        r.set_op(3);
        let step = r.enter("step");
        let mint = r.enter("mint");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(mint);
        r.exit(step);
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.record("measure", t0, Instant::now(), step);
        let spans = r.spans();
        assert_eq!(spans[mint].parent, Some(step));
        assert_eq!(spans[2].op, 3);
        let own = r.self_ns();
        let expect =
            spans[step].dur_ns() as i64 - spans[mint].dur_ns() as i64 - spans[2].dur_ns() as i64;
        assert_eq!(own[step], expect);
        let jsonl = r.to_jsonl("{}");
        assert_eq!(jsonl.lines().count(), 1 + 3 + 3);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let rec = Recorder::shared();
        let mut r = rec.borrow_mut();
        let outer = r.enter("op");
        let _inner = r.enter("step");
        r.exit(outer);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let next = r.enter("op");
        assert_eq!(r.spans()[next].parent, None);
    }
}
