//! Structured telemetry for the SNBC CEGIS pipeline.
//!
//! The paper's synthesis loop (Algorithm 1: learner → LMI verifier →
//! counterexample generator) is an iterative numeric pipeline whose
//! convergence behaviour — epochs per round, interior-point iterations per
//! LMI (13)–(15), duality measures, counterexample radii γ — is what every
//! performance experiment measures. This crate is the shared, std-only,
//! zero-dependency substrate that records it:
//!
//! - [`Telemetry`] is a cheap cloneable handle, either **off** (the default:
//!   a `None` inside; every call is a branch on a null pointer and returns
//!   immediately, no allocation, no clock read) or **recording** (an
//!   `Arc`-shared recorder behind a mutex).
//! - [`Telemetry::span`] opens a named, monotonically-timed region and
//!   returns an RAII [`SpanGuard`]; spans nest, forming the
//!   `run → cegis → round[i] → learn/verify/cex` hierarchy documented in
//!   `docs/TELEMETRY.md`.
//! - [`Telemetry::add`] accumulates a `u64` counter and [`Telemetry::gauge`]
//!   records an `f64` measurement on the innermost open span.
//! - [`Telemetry::report`] snapshots the whole tree into a [`Report`], which
//!   serializes to a schema-versioned JSON run report
//!   ([`report::SCHEMA`] = `"snbc-run-report/1"`) via the hand-rolled,
//!   std-only writer/parser in [`json`].
//!
//! # Example
//!
//! ```
//! use snbc_telemetry::Telemetry;
//!
//! let t = Telemetry::recording();
//! {
//!     let _round = t.span_indexed("round", 1);
//!     {
//!         let _learn = t.span("learn");
//!         t.add("epochs", 120);
//!         t.gauge("final_loss", 3.5e-3);
//!     }
//! }
//! let report = t.report().unwrap();
//! let round = report.root.child("round").unwrap();
//! assert_eq!(round.child("learn").unwrap().counter("epochs"), Some(120));
//! let json = report.to_json_string();
//! assert_eq!(snbc_telemetry::Report::parse(&json).unwrap(), report);
//! ```

pub mod json;
pub mod report;

pub use report::{render_round_table, Report, SpanNode, SCHEMA};
// Re-exported so downstream crates can reach the trace layer through their
// existing telemetry dependency (e.g. `telemetry.trace().ipm_iter(...)`).
pub use snbc_trace::{IpmSample, Trace};

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span while the run is live.
#[derive(Debug)]
struct SpanSlot {
    name: &'static str,
    index: Option<u64>,
    started: Instant,
    /// `Some` once the span has been closed.
    elapsed: Option<Duration>,
    /// Id of the mirrored `snbc-trace` span event pair (0 = no trace
    /// attached); surfaced as the report's `trace_id` field.
    trace_id: u64,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    labels: Vec<(&'static str, String)>,
    children: Vec<usize>,
    /// Finished subtrees adopted from forked recorders (see
    /// [`Telemetry::fork`]); rendered after the locally recorded children.
    grafted: Vec<SpanNode>,
}

impl SpanSlot {
    #[expect(clippy::disallowed_methods, reason = "snbc-telemetry times its spans on the process clock")]
    fn new(name: &'static str, index: Option<u64>, trace_id: u64) -> Self {
        SpanSlot {
            name,
            index,
            started: Instant::now(),
            elapsed: None,
            trace_id,
            counters: Vec::new(),
            gauges: Vec::new(),
            labels: Vec::new(),
            children: Vec::new(),
            grafted: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Arena of spans; index 0 is the implicit root span `"run"`.
    spans: Vec<SpanSlot>,
    /// Stack of open span ids; the root stays open for the recorder's life.
    stack: Vec<usize>,
}

/// Shared recording state behind a [`Telemetry`] handle.
#[derive(Debug)]
struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: Mutex::new(Inner {
                spans: vec![SpanSlot::new("run", None, 0)],
                stack: vec![0],
            }),
        }
    }

    fn open(&self, name: &'static str, index: Option<u64>, trace_id: u64) -> usize {
        let Ok(mut g) = self.inner.lock() else { return 0 };
        let id = g.spans.len();
        let parent = g.stack.last().copied().unwrap_or(0);
        g.spans.push(SpanSlot::new(name, index, trace_id));
        g.spans[parent].children.push(id);
        g.stack.push(id);
        id
    }

    fn close(&self, id: usize) {
        let Ok(mut g) = self.inner.lock() else { return };
        // Root (id 0) is closed only by `report`; a stale guard is a no-op.
        if id == 0 || !g.stack.contains(&id) {
            return;
        }
        // Close `id` and any children left open by early returns above it.
        while let Some(top) = g.stack.pop() {
            #[expect(clippy::disallowed_methods, reason = "snbc-telemetry times its spans on the process clock")]
            let now = Instant::now();
            let s = &mut g.spans[top];
            if s.elapsed.is_none() {
                s.elapsed = Some(now.duration_since(s.started));
            }
            if top == id {
                break;
            }
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        let Ok(mut g) = self.inner.lock() else { return };
        let top = g.stack.last().copied().unwrap_or(0);
        let slot = &mut g.spans[top];
        match slot.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = v.saturating_add(delta),
            None => slot.counters.push((name, delta)),
        }
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let Ok(mut g) = self.inner.lock() else { return };
        let top = g.stack.last().copied().unwrap_or(0);
        let slot = &mut g.spans[top];
        match slot.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => slot.gauges.push((name, value)),
        }
    }

    fn label(&self, name: &'static str, value: &str) {
        let Ok(mut g) = self.inner.lock() else { return };
        let top = g.stack.last().copied().unwrap_or(0);
        let slot = &mut g.spans[top];
        match slot.labels.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value.to_string(),
            None => slot.labels.push((name, value.to_string())),
        }
    }

    fn graft(&self, subtrees: Vec<SpanNode>) {
        let Ok(mut g) = self.inner.lock() else { return };
        let top = g.stack.last().copied().unwrap_or(0);
        g.spans[top].grafted.extend(subtrees);
    }

    fn snapshot(&self) -> Option<Report> {
        let g = self.inner.lock().ok()?;
        #[expect(clippy::disallowed_methods, reason = "snbc-telemetry times its spans on the process clock")]
        let now = Instant::now();
        fn build(g: &Inner, id: usize, now: Instant) -> SpanNode {
            let s = &g.spans[id];
            let elapsed = s
                .elapsed
                .unwrap_or_else(|| now.duration_since(s.started));
            let mut children: Vec<SpanNode> =
                s.children.iter().map(|&c| build(g, c, now)).collect();
            children.extend(s.grafted.iter().cloned());
            SpanNode {
                name: s.name.to_string(),
                index: s.index,
                trace_id: (s.trace_id != 0).then_some(s.trace_id),
                elapsed_s: elapsed.as_secs_f64(),
                counters: s.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
                gauges: s.gauges.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
                labels: s
                    .labels
                    .iter()
                    .map(|(n, v)| (n.to_string(), v.clone()))
                    .collect(),
                children,
            }
        }
        Some(Report {
            root: build(&g, 0, now),
        })
    }
}

/// Handle to a telemetry sink, threaded through solver and CEGIS configs.
///
/// `Telemetry::default()` (equivalently [`Telemetry::off`]) is the no-op
/// sink: it holds no recorder, so every method is an inlineable null check —
/// no allocation, no mutex, no clock read on solver hot paths. Clones of a
/// [`Telemetry::recording`] handle share one recorder, so a single handle can
/// be fanned out across the learner, verifier, and solver configs and all
/// events land in one tree.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    rec: Option<Arc<Recorder>>,
    trace: Trace,
}

impl Telemetry {
    /// The no-op sink (same as `Telemetry::default()`).
    #[inline]
    pub fn off() -> Self {
        Telemetry {
            rec: None,
            trace: Trace::off(),
        }
    }

    /// A fresh recording sink with an implicit open root span `"run"`.
    pub fn recording() -> Self {
        Telemetry {
            rec: Some(Arc::new(Recorder::new())),
            trace: Trace::off(),
        }
    }

    /// Attaches an `snbc-trace` event sink: every span opened through this
    /// handle (and its [`Telemetry::fork`]s) additionally emits a trace
    /// span-begin/end pair, and the span's trace id is stored in the run
    /// report (`trace_id`), so the report tree and the trace timeline
    /// cross-reference each other.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The attached trace handle (the disabled sink when none was attached).
    /// Hot loops use this for iteration-level events the span tree
    /// deliberately aggregates away (IPM iterations, learner epochs,
    /// ascent restarts).
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Opens a timed span; it closes when the returned guard drops.
    #[inline]
    #[must_use = "the span closes when the returned guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_inner(name, None)
    }

    /// Opens a timed span carrying an index (e.g. the CEGIS round number).
    #[inline]
    #[must_use = "the span closes when the returned guard is dropped"]
    pub fn span_indexed(&self, name: &'static str, index: u64) -> SpanGuard {
        self.span_inner(name, Some(index))
    }

    fn span_inner(&self, name: &'static str, index: Option<u64>) -> SpanGuard {
        match &self.rec {
            None => SpanGuard {
                rec: None,
                id: 0,
                trace: Trace::off(),
                name,
                trace_id: 0,
            },
            Some(r) => {
                let trace_id = self.trace.begin_span(name, index);
                SpanGuard {
                    id: r.open(name, index, trace_id),
                    rec: Some(Arc::clone(r)),
                    trace: self.trace.clone(),
                    name,
                    trace_id,
                }
            }
        }
    }

    /// Adds `delta` to counter `name` on the innermost open span.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.rec {
            r.add(name, delta);
        }
    }

    /// Sets gauge `name` on the innermost open span (last write wins).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(r) = &self.rec {
            r.gauge(name, value);
        }
    }

    /// Sets a boolean gauge (recorded as 1.0 / 0.0).
    #[inline]
    pub fn flag(&self, name: &'static str, value: bool) {
        if let Some(r) = &self.rec {
            r.gauge(name, if value { 1.0 } else { 0.0 });
        }
    }

    /// Attaches a string label (e.g. benchmark name) to the innermost span.
    #[inline]
    pub fn label(&self, name: &'static str, value: &str) {
        if let Some(r) = &self.rec {
            r.label(name, value);
        }
    }

    /// A branch sink for structured parallelism: recording handles fork a
    /// **fresh, independent** recorder (off handles fork off).
    ///
    /// The recorder behind a handle keeps a single innermost-open-span
    /// stack, so concurrent `span()` calls from several threads would
    /// interleave into a nonsense tree. Parallel regions instead give each
    /// branch its own fork, record into it, and [`Telemetry::adopt`] the
    /// forks back **in a fixed order** once the branches have joined — the
    /// resulting tree is then identical at any thread count. Fork/adopt is
    /// used even on the serial path so one- and many-threaded runs produce
    /// byte-identical reports.
    pub fn fork(&self) -> Telemetry {
        if self.rec.is_some() {
            // The trace sink is shared, not forked: it is per-thread-laned
            // and therefore safe (and meaningful) to write from any branch.
            Telemetry::recording().with_trace(self.trace.clone())
        } else {
            Telemetry::off()
        }
    }

    /// Adopts a fork's finished spans as children of the innermost open
    /// span. Metrics recorded on the fork's root (outside any span) are
    /// dropped; branches should open a span first.
    pub fn adopt(&self, fork: &Telemetry) {
        if let (Some(r), Some(rep)) = (self.rec.as_ref(), fork.report()) {
            r.graft(rep.root.children);
        }
    }

    /// Snapshots the recorded tree. `None` for the no-op sink.
    ///
    /// Spans still open at snapshot time (including the root) report their
    /// elapsed time so far; the recorder keeps running, so later snapshots
    /// are supersets with larger timings.
    pub fn report(&self) -> Option<Report> {
        self.rec.as_ref().and_then(|r| r.snapshot())
    }
}

/// RAII guard returned by [`Telemetry::span`]; closes the span on drop,
/// emitting the matching trace span-end event when a trace is attached.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Arc<Recorder>>,
    id: usize,
    trace: Trace,
    name: &'static str,
    trace_id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(r) = &self.rec {
            r.close(self.id);
        }
        if self.trace_id != 0 {
            self.trace.end_span(self.name, self.trace_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_does_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_recording());
        let _s = t.span("learn");
        t.add("epochs", 5);
        t.gauge("loss", 1.0);
        t.flag("ok", true);
        t.label("bench", "C3");
        assert!(t.report().is_none());
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let t = Telemetry::recording();
        {
            let _round = t.span_indexed("round", 0);
            {
                let _learn = t.span("learn");
                t.add("epochs", 100);
                t.add("epochs", 20);
                t.gauge("final_loss", 0.25);
            }
            {
                let _verify = t.span("verify");
                t.flag("certified", false);
            }
        }
        {
            let _round = t.span_indexed("round", 1);
        }
        let rep = t.report().unwrap();
        assert_eq!(rep.root.name, "run");
        assert_eq!(rep.root.children.len(), 2);
        let r0 = &rep.root.children[0];
        assert_eq!((r0.name.as_str(), r0.index), ("round", Some(0)));
        assert_eq!(r0.children[0].counter("epochs"), Some(120));
        assert_eq!(r0.children[0].gauge("final_loss"), Some(0.25));
        assert_eq!(r0.children[1].gauge("certified"), Some(0.0));
        assert_eq!(rep.root.children[1].index, Some(1));
    }

    #[test]
    fn timers_are_monotone_and_nested() {
        let t = Telemetry::recording();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let rep = t.report().unwrap();
        let outer = rep.root.child("outer").unwrap();
        let inner = outer.child("inner").unwrap();
        assert!(inner.elapsed_s >= 0.004, "inner = {}", inner.elapsed_s);
        assert!(
            outer.elapsed_s >= inner.elapsed_s,
            "outer {} < inner {}",
            outer.elapsed_s,
            inner.elapsed_s
        );
        // The root is still open: successive snapshots never run backwards.
        let again = t.report().unwrap();
        assert!(again.root.elapsed_s >= rep.root.elapsed_s);
        // Closed spans are frozen.
        let outer2 = again.root.child("outer").unwrap();
        assert!((outer2.elapsed_s - outer.elapsed_s).abs() < 1e-12);
    }

    #[test]
    fn early_return_closes_abandoned_children() {
        let t = Telemetry::recording();
        let outer = t.span("outer");
        let _inner = t.span("inner"); // deliberately leaked past `outer`
        drop(outer);
        // `inner`'s guard is still alive, but the span was force-closed when
        // its parent closed; metrics now land on the root.
        t.add("stray", 1);
        let rep = t.report().unwrap();
        assert_eq!(rep.root.counter("stray"), Some(1));
        let outer = rep.root.child("outer").unwrap();
        assert!(outer.child("inner").unwrap().elapsed_s <= outer.elapsed_s);
    }

    #[test]
    fn fork_adopt_grafts_finished_subtrees_in_adopt_order() {
        let t = Telemetry::recording();
        let verify = t.span("verify");
        let (fi, fu) = (t.fork(), t.fork());
        {
            let _s = fi.span("init");
            fi.gauge("margin", 0.5);
            let _sdp = fi.span("sdp");
            fi.add("iterations", 11);
        }
        {
            let _s = fu.span("unsafe");
            fu.gauge("margin", 0.25);
        }
        // Adopt in fixed order regardless of branch completion order.
        t.adopt(&fi);
        t.adopt(&fu);
        drop(verify);
        let rep = t.report().unwrap();
        let v = rep.root.child("verify").unwrap();
        assert_eq!(v.children.len(), 2);
        assert_eq!(v.children[0].name, "init");
        assert_eq!(v.children[1].name, "unsafe");
        assert_eq!(v.children[0].child("sdp").unwrap().counter("iterations"), Some(11));
        // Grafted trees survive the JSON round-trip like native spans.
        let json = rep.to_json_string();
        assert_eq!(Report::parse(&json).unwrap(), rep);
        // Off sinks fork off sinks; adopt is a no-op everywhere.
        let off = Telemetry::off();
        assert!(!off.fork().is_recording());
        off.adopt(&t);
    }

    #[test]
    fn attached_trace_mirrors_spans_with_shared_ids() {
        let trace = Trace::recording();
        let t = Telemetry::recording().with_trace(trace.clone());
        {
            let _round = t.span_indexed("round", 2);
            let _learn = t.span("learn");
        }
        let rep = t.report().unwrap();
        let round = rep.root.child("round").unwrap();
        let learn = round.child("learn").unwrap();
        let (rid, lid) = (round.trace_id.unwrap(), learn.trace_id.unwrap());
        assert_ne!(rid, lid);
        // The run report serializes the shared ids.
        let json = rep.to_json_string();
        assert!(json.contains(&format!("\"trace_id\": {rid}")), "{json}");
        assert_eq!(Report::parse(&json).unwrap(), rep);
        // The trace holds the matching begin/end pairs on one track.
        let dump = trace.dump().unwrap();
        assert_eq!(dump.event_count(), 4);
        let keys = dump.ordering_keys();
        assert!(keys.contains(&"B:round:Some(2)".to_string()), "{keys:?}");
        assert!(keys.contains(&"E:learn".to_string()), "{keys:?}");
        // Forks share the same trace sink; adopted spans keep their ids.
        let f = t.fork();
        assert!(f.trace().is_enabled());
        {
            let _s = f.span("init");
        }
        t.adopt(&f);
        let rep2 = t.report().unwrap();
        assert!(rep2.root.child("init").unwrap().trace_id.is_some());
        assert_eq!(trace.dump().unwrap().event_count(), 6);
        // Without a trace attached, reports carry no trace ids.
        let plain = Telemetry::recording();
        {
            let _s = plain.span("learn");
        }
        let prep = plain.report().unwrap();
        assert_eq!(prep.root.child("learn").unwrap().trace_id, None);
        assert!(!prep.to_json_string().contains("trace_id"));
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Telemetry::recording();
        let u = t.clone();
        let _s = t.span("learn");
        u.add("epochs", 7);
        let rep = t.report().unwrap();
        assert_eq!(rep.root.child("learn").unwrap().counter("epochs"), Some(7));
    }
}
