//! Iteration-level event tracing for the SNBC CEGIS pipeline.
//!
//! `snbc-telemetry` records one *aggregate* metric set per solve (epochs,
//! final loss, IPM iteration counts); when the loop stalls that is not
//! enough to see *why* — which interior-point iteration of LMI (13)–(15)
//! plateaued (paper §4.2), how the learner loss (10) moved across epochs
//! (§4.1), or how far each counterexample gradient-ascent restart climbed
//! (§4.3). This crate is the std-only, zero-dependency event stream that
//! captures exactly those trajectories, cheap enough to leave compiled in:
//!
//! - [`Trace`] is a cheap cloneable handle. **Off** (the default) it holds
//!   no sink, so every emit is a single branch on a null pointer — no clock
//!   read, no allocation. **Recording**, each thread appends to its own
//!   ring-buffered lane behind an uncontended per-lane mutex (one
//!   uncontested atomic exchange on the fast path; the lane is only ever
//!   locked from another thread during [`Trace::dump`]).
//! - Timestamps are integer microseconds from one process-wide monotonic
//!   epoch ([`now_us`]), so events from different threads order globally
//!   and serialize byte-stably.
//! - [`Stopwatch`] is the sanctioned wall-clock primitive for the rest of
//!   the workspace: clippy's `disallowed-methods` (clippy.toml) flags any
//!   direct `Instant::now()` outside the clock owners (`trace`, `telemetry`
//!   and `par`, which take it as a reviewed `#[expect]`).
//! - Worker identity: `snbc-par` labels every spawned worker thread via
//!   [`enter_worker`], and [`Trace::dump`] groups lanes by that label, so
//!   the Chrome trace-event export ([`chrome`]) shows one track per worker
//!   (`main`, `w1`, `w2.1`, …) — load the file in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! - [`profile`] renders the same dump as a self-time profile tree in
//!   plain text.
//!
//! Span events carry the same ids the `snbc-run-report/1` span tree stores
//! in its `trace_id` fields (see `snbc-telemetry`), so a report span can be
//! located on the timeline and vice versa. See `docs/TRACING.md` for the
//! full schema, clock semantics, and overhead numbers.
//!
//! # Example
//!
//! ```
//! use snbc_trace::{IpmSample, Trace};
//!
//! let trace = Trace::recording();
//! let span = trace.begin_span("sdp", None);
//! trace.ipm_iter("sdp", IpmSample { iter: 0, mu: 1.5e-3, ..Default::default() });
//! trace.end_span("sdp", span);
//! let dump = trace.dump().unwrap();
//! assert_eq!(dump.event_count(), 3);
//! let json = dump.to_json_string();
//! assert!(json.contains(r#""name":"sdp-ipm-iter""#));
//! ```

pub mod chrome;
pub mod json;
pub mod profile;

pub use chrome::{ChromeTrace, Track, SCHEMA};

use std::cell::RefCell;
#[expect(clippy::disallowed_types, reason = "snbc-trace owns the trace sink: its atomics number spans and count dropped events")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Trace clock

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds elapsed since the process-wide trace epoch.
///
/// The epoch is pinned by the first clock use in the process (creating a
/// recording [`Trace`] pins it eagerly), so all threads share one monotonic
/// time base and every recorded timestamp fits an exact integer — which is
/// what makes the Chrome export byte-stable under re-encoding.
#[expect(clippy::disallowed_methods, reason = "snbc-trace owns the process clock")]
pub fn now_us() -> u64 {
    let us = EPOCH.get_or_init(Instant::now).elapsed().as_micros();
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// A monotonic stopwatch over the trace clock.
///
/// This is the sanctioned replacement for raw `std::time::Instant::now()`
/// in solver and pipeline code: clippy's `disallowed-methods` (clippy.toml)
/// keeps ad-hoc clock reads out of the hot paths so all timing flows through
/// one primitive that the tracer can reason about.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "snbc-trace owns the process clock")]
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as `f64` (convenience for report gauges).
    #[inline]
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

// ---------------------------------------------------------------------------
// Events

/// One recorded event: an integer-microsecond timestamp plus a payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the trace epoch (see [`now_us`]).
    pub ts_us: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// The typed event payloads the pipeline emits.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A telemetry span opened (`name`/`index` mirror the run-report span;
    /// `span_id` is the shared id stored in the report's `trace_id` field).
    SpanBegin {
        /// Static span name (`"cegis"`, `"round"`, `"sdp"`, …).
        name: String,
        /// Optional span index (the CEGIS round number).
        index: Option<u64>,
        /// Globally unique span id shared with the run report.
        span_id: u64,
    },
    /// The matching span close.
    SpanEnd {
        /// Name of the span being closed (repeated so Chrome `E` events are
        /// self-contained).
        name: String,
        /// Id from the matching [`EventKind::SpanBegin`].
        span_id: u64,
    },
    /// One interior-point iteration of the LP (§3) or SDP (§4.2) solver.
    IpmIter {
        /// `"sdp"` or `"lp"`.
        solver: String,
        /// The per-iteration quantities.
        sample: IpmSample,
    },
    /// One learner epoch of loss (10) minimization (§4.1).
    Epoch {
        /// Epoch number within the current `learn` span, from 0.
        epoch: u64,
        /// Loss value after the epoch.
        loss: f64,
        /// Euclidean norm of the reduced gradient driving the Adam step.
        grad_norm: f64,
    },
    /// One finished counterexample gradient-ascent restart (§4.3).
    Ascent {
        /// Restart index within the current `search-*` span, from 0.
        restart: u64,
        /// Ascent steps the restart actually took before converging.
        steps: u64,
        /// Best violation value the restart reached.
        best: f64,
    },
}

/// Per-iteration quantities of a primal–dual interior-point solver: the
/// duality measure, relative residuals, step lengths, and the Cholesky
/// factorizations the iteration spent (line searches included).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IpmSample {
    /// Iteration number within the solve, from 0.
    pub iter: u64,
    /// Duality measure μ = ⟨x, z⟩ / n.
    pub mu: f64,
    /// Relative primal residual.
    pub rp_rel: f64,
    /// Relative dual residual.
    pub rd_rel: f64,
    /// Relative duality gap.
    pub gap_rel: f64,
    /// Primal step length α_p taken this iteration.
    pub alpha_p: f64,
    /// Dual step length α_d taken this iteration.
    pub alpha_d: f64,
    /// Cholesky factorizations performed this iteration.
    pub cholesky: u64,
}

// ---------------------------------------------------------------------------
// Worker labels (thread-local)

thread_local! {
    /// Current worker label plus a generation counter bumped on every label
    /// change (the lane cache keys on the generation, not the string).
    static WORKER: RefCell<(String, u64)> = const { RefCell::new((String::new(), 0)) };
    /// Cached lane for the current thread: avoids the sink registry lock on
    /// every emit.
    static LANE: RefCell<Option<LaneCache>> = const { RefCell::new(None) };
}

struct LaneCache {
    sink: usize,
    generation: u64,
    lane: Arc<Lane>,
}

/// The current thread's worker label (`"main"` when no worker scope is
/// active — i.e. on the caller thread of every `snbc-par` scope).
pub fn current_worker() -> String {
    WORKER.with(|w| {
        let b = w.borrow();
        if b.0.is_empty() {
            "main".to_string()
        } else {
            b.0.clone()
        }
    })
}

/// Track label for worker `wid` spawned from a worker labelled `parent`:
/// `main → w1`, nested scopes append a dot segment (`w1 → w1.2`).
pub fn child_worker_label(parent: &str, wid: usize) -> String {
    if parent == "main" {
        format!("w{wid}")
    } else {
        format!("{parent}.{wid}")
    }
}

/// RAII guard installed by `snbc-par` on spawned worker threads; restores
/// the previous label (and invalidates the lane cache) on drop.
#[derive(Debug)]
#[must_use = "the worker label is removed when the guard is dropped"]
pub struct WorkerGuard {
    prev: String,
}

/// Labels the current thread as worker `label` until the guard drops.
/// Subsequent events emitted from this thread land on the track named
/// `label` in the Chrome export.
pub fn enter_worker(label: String) -> WorkerGuard {
    WORKER.with(|w| {
        let mut b = w.borrow_mut();
        let prev = std::mem::replace(&mut b.0, label);
        b.1 += 1;
        WorkerGuard { prev }
    })
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER.with(|w| {
            let mut b = w.borrow_mut();
            b.0 = std::mem::take(&mut self.prev);
            b.1 += 1;
        });
    }
}

// ---------------------------------------------------------------------------
// Sink

/// Default per-lane event capacity (events beyond it are counted as dropped,
/// not silently lost: the count lands in the export's `otherData.dropped`).
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
struct Lane {
    label: String,
    /// Registration order; tie-break when merging same-label lanes.
    seq: usize,
    events: Mutex<Vec<Event>>,
}

#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "snbc-trace owns the trace sink: its atomics number spans and count dropped events")]
struct Sink {
    capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    next_span_id: AtomicU64,
    dropped: AtomicU64,
}

#[expect(clippy::disallowed_methods, reason = "snbc-trace owns the trace sink: one lock per lane, merged by label and registration order at dump")]
impl Sink {
    fn register_lane(&self, label: String) -> Arc<Lane> {
        let mut lanes = match self.lanes.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        let lane = Arc::new(Lane {
            label,
            seq: lanes.len(),
            events: Mutex::new(Vec::new()),
        });
        lanes.push(Arc::clone(&lane));
        lane
    }

    fn push(&self, lane: &Lane, ev: Event) {
        let mut g = match lane.events.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        if g.len() < self.capacity {
            g.push(ev);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn lane_for_current_thread(sink: &Arc<Sink>) -> Arc<Lane> {
    let sink_ptr = Arc::as_ptr(sink) as usize;
    let generation = WORKER.with(|w| w.borrow().1);
    let cached = LANE.with(|c| {
        c.borrow().as_ref().and_then(|cache| {
            (cache.sink == sink_ptr && cache.generation == generation)
                .then(|| Arc::clone(&cache.lane))
        })
    });
    if let Some(lane) = cached {
        return lane;
    }
    let lane = sink.register_lane(current_worker());
    LANE.with(|c| {
        *c.borrow_mut() = Some(LaneCache {
            sink: sink_ptr,
            generation,
            lane: Arc::clone(&lane),
        });
    });
    lane
}

// ---------------------------------------------------------------------------
// Handle

/// Handle to a trace sink, threaded through solver and CEGIS configs
/// alongside `snbc_telemetry::Telemetry`.
///
/// `Trace::default()` (equivalently [`Trace::off`]) is the disabled sink:
/// every emit method is an inlineable null-pointer branch. Clones of a
/// [`Trace::recording`] handle share one sink; each emitting thread gets
/// its own event lane, so recording is safe (and cheap) from any number of
/// `snbc-par` workers concurrently.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    sink: Option<Arc<Sink>>,
}

impl Trace {
    /// The disabled sink (same as `Trace::default()`).
    #[inline]
    pub fn off() -> Trace {
        Trace { sink: None }
    }

    /// A fresh recording sink with the default per-lane capacity.
    pub fn recording() -> Trace {
        Trace::recording_with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A fresh recording sink holding at most `capacity` events per lane;
    /// events past the cap increment the dropped-event counter instead of
    /// growing memory without bound.
    #[expect(clippy::disallowed_types, reason = "snbc-trace owns the trace sink: its atomics number spans and count dropped events")]
    pub fn recording_with_capacity(capacity: usize) -> Trace {
        now_us(); // pin the shared epoch before the first event
        Trace {
            sink: Some(Arc::new(Sink {
                capacity,
                lanes: Mutex::new(Vec::new()),
                next_span_id: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&self, kind: EventKind) {
        if let Some(sink) = &self.sink {
            let ts_us = now_us();
            let lane = lane_for_current_thread(sink);
            sink.push(&lane, Event { ts_us, kind });
        }
    }

    /// Records a span-begin event and returns its globally unique span id
    /// (0 when disabled). `snbc-telemetry` stores the id in the run report
    /// (`trace_id`), so report spans and trace spans are cross-referencable.
    pub fn begin_span(&self, name: &str, index: Option<u64>) -> u64 {
        match &self.sink {
            None => 0,
            Some(sink) => {
                let span_id = sink.next_span_id.fetch_add(1, Ordering::Relaxed);
                self.emit(EventKind::SpanBegin {
                    name: name.to_string(),
                    index,
                    span_id,
                });
                span_id
            }
        }
    }

    /// Records the span-end event matching an earlier [`Trace::begin_span`].
    pub fn end_span(&self, name: &str, span_id: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::SpanEnd {
                name: name.to_string(),
                span_id,
            });
        }
    }

    /// Records one IPM iteration of `solver` (`"sdp"` or `"lp"`).
    #[inline]
    pub fn ipm_iter(&self, solver: &str, sample: IpmSample) {
        if self.sink.is_some() {
            self.emit(EventKind::IpmIter {
                solver: solver.to_string(),
                sample,
            });
        }
    }

    /// Records one learner epoch (loss (10) value and gradient norm).
    #[inline]
    pub fn epoch(&self, epoch: u64, loss: f64, grad_norm: f64) {
        if self.sink.is_some() {
            self.emit(EventKind::Epoch {
                epoch,
                loss,
                grad_norm,
            });
        }
    }

    /// Records one finished counterexample gradient-ascent restart.
    #[inline]
    pub fn ascent(&self, restart: u64, steps: u64, best: f64) {
        if self.sink.is_some() {
            self.emit(EventKind::Ascent {
                restart,
                steps,
                best,
            });
        }
    }

    /// Snapshots all lanes into a [`ChromeTrace`]: same-label lanes are
    /// merged (timestamp-ordered) into one track, tracks are sorted by
    /// label, and tids are assigned 1..=n in that order. `None` when
    /// disabled.
    ///
    /// With the `sanitize` feature, asserts per-lane invariants first:
    /// monotone non-decreasing timestamps and no span-end without a
    /// matching span-begin on the same lane.
    #[expect(clippy::disallowed_methods, reason = "snbc-trace owns the trace sink: one lock per lane, merged by label and registration order at dump")]
    pub fn dump(&self) -> Option<ChromeTrace> {
        let sink = self.sink.as_ref()?;
        let lanes: Vec<Arc<Lane>> = {
            let g = match sink.lanes.lock() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            g.clone()
        };
        // (label, seq, events) snapshots, stable under concurrent emits.
        let mut snaps: Vec<(String, usize, Vec<Event>)> = lanes
            .iter()
            .map(|lane| {
                let events = match lane.events.lock() {
                    Ok(g) => g.clone(),
                    Err(e) => e.into_inner().clone(),
                };
                (lane.label.clone(), lane.seq, events)
            })
            .collect();
        #[cfg(feature = "sanitize")]
        for (label, _, events) in &snaps {
            sanitize_lane(label, events);
        }
        snaps.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        let mut tracks: Vec<Track> = Vec::new();
        for (label, seq, events) in snaps {
            match tracks.last_mut() {
                Some(t) if t.label == label => {
                    // Merge same-label lanes by timestamp; ties keep the
                    // earlier-registered lane's events first.
                    let mut merged = Vec::with_capacity(t.events.len() + events.len());
                    let mut tagged: Vec<(u64, usize, usize, Event)> = Vec::new();
                    for (i, e) in t.events.drain(..).enumerate() {
                        tagged.push((e.ts_us, 0, i, e));
                    }
                    for (i, e) in events.into_iter().enumerate() {
                        tagged.push((e.ts_us, seq, i, e));
                    }
                    tagged.sort_by_key(|(ts, s, i, _)| (*ts, *s, *i));
                    merged.extend(tagged.into_iter().map(|(_, _, _, e)| e));
                    t.events = merged;
                }
                _ => tracks.push(Track {
                    tid: 0,
                    label,
                    events,
                }),
            }
        }
        for (i, t) in tracks.iter_mut().enumerate() {
            t.tid = i as u64 + 1;
        }
        Some(ChromeTrace {
            tracks,
            dropped: sink.dropped.load(Ordering::Relaxed),
        })
    }

    /// The Chrome trace-event JSON document ([`ChromeTrace::to_json_string`]);
    /// `None` when disabled.
    pub fn chrome_json(&self) -> Option<String> {
        self.dump().map(|d| d.to_json_string())
    }

    /// The self-time profile tree rendered as text
    /// ([`profile::profile_text`]); `None` when disabled.
    pub fn profile_text(&self) -> Option<String> {
        self.dump().map(|d| profile::profile_text(&d))
    }
}

/// Sanitize checks for one lane: timestamps never run backwards and every
/// span end matches an earlier begin (spans still open at snapshot time are
/// fine — the dump may be taken mid-run).
#[cfg(feature = "sanitize")]
fn sanitize_lane(label: &str, events: &[Event]) {
    let mut prev_ts = 0u64;
    let mut open: Vec<u64> = Vec::new();
    for e in events {
        assert!(
            e.ts_us >= prev_ts,
            "trace lane `{label}`: timestamp ran backwards ({} -> {})",
            prev_ts,
            e.ts_us
        );
        prev_ts = e.ts_us;
        match &e.kind {
            EventKind::SpanBegin { span_id, .. } => open.push(*span_id),
            EventKind::SpanEnd { span_id, name } => {
                let pos = open.iter().rposition(|id| id == span_id);
                assert!(
                    pos.is_some(),
                    "trace lane `{label}`: end of span `{name}` (id {span_id}) without a begin"
                );
                if let Some(p) = pos {
                    open.remove(p);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::off();
        assert!(!t.is_enabled());
        assert_eq!(t.begin_span("sdp", None), 0);
        t.end_span("sdp", 0);
        t.ipm_iter("sdp", IpmSample::default());
        t.epoch(0, 1.0, 0.5);
        t.ascent(0, 10, -0.1);
        assert!(t.dump().is_none());
        assert!(t.chrome_json().is_none());
        assert!(t.profile_text().is_none());
    }

    #[test]
    fn events_record_in_order_with_monotone_timestamps() {
        let t = Trace::recording();
        let s = t.begin_span("round", Some(3));
        t.epoch(0, 2.0, 1.0);
        t.epoch(1, 1.0, 0.5);
        t.end_span("round", s);
        let dump = t.dump().unwrap();
        assert_eq!(dump.tracks.len(), 1);
        assert_eq!(dump.tracks[0].label, "main");
        let ev = &dump.tracks[0].events;
        assert_eq!(ev.len(), 4);
        assert!(matches!(ev[0].kind, EventKind::SpanBegin { span_id, index: Some(3), .. } if span_id == s));
        assert!(matches!(ev[3].kind, EventKind::SpanEnd { span_id, .. } if span_id == s));
        assert!(ev.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(dump.dropped, 0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a raw second thread is the point of the test")]
    fn span_ids_are_unique_across_threads() {
        let t = Trace::recording();
        let a = t.begin_span("a", None);
        let t2 = t.clone();
        let b = std::thread::spawn(move || t2.begin_span("b", None))
            .join()
            .unwrap();
        assert_ne!(a, b);
        let dump = t.dump().unwrap();
        // Two lanes with the default label merge into one `main` track.
        assert_eq!(dump.tracks.len(), 1);
        assert_eq!(dump.event_count(), 2);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a raw labelled thread is the point of the test")]
    fn worker_labels_make_tracks() {
        let t = Trace::recording();
        t.epoch(0, 1.0, 1.0);
        let parent = current_worker();
        assert_eq!(parent, "main");
        let label = child_worker_label(&parent, 2);
        assert_eq!(label, "w2");
        assert_eq!(child_worker_label(&label, 1), "w2.1");
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _g = enter_worker("w2".to_string());
            t2.epoch(1, 0.5, 0.5);
        })
        .join()
        .unwrap();
        let dump = t.dump().unwrap();
        let labels: Vec<&str> = dump.tracks.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, vec!["main", "w2"]);
    }

    #[test]
    fn worker_guard_restores_previous_label() {
        let outer = enter_worker("w1".to_string());
        assert_eq!(current_worker(), "w1");
        {
            let _inner = enter_worker("w1.3".to_string());
            assert_eq!(current_worker(), "w1.3");
        }
        assert_eq!(current_worker(), "w1");
        drop(outer);
        assert_eq!(current_worker(), "main");
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let t = Trace::recording_with_capacity(2);
        for i in 0..5 {
            t.epoch(i, 0.0, 0.0);
        }
        let dump = t.dump().unwrap();
        assert_eq!(dump.event_count(), 2);
        assert_eq!(dump.dropped, 3);
    }

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
        assert!(sw.elapsed_s() > 0.0);
        let sw2 = Stopwatch::default();
        assert!(sw2.elapsed() <= sw.elapsed());
    }

    #[test]
    fn clock_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "without a begin")]
    fn sanitize_rejects_unmatched_end() {
        let t = Trace::recording();
        t.end_span("ghost", 42);
        let _ = t.dump();
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitize_accepts_balanced_and_open_spans() {
        let t = Trace::recording();
        let a = t.begin_span("outer", None);
        let b = t.begin_span("inner", None);
        t.end_span("inner", b);
        let _still_open = t.begin_span("tail", None);
        t.end_span("outer", a); // out-of-LIFO close is still balanced
        let dump = t.dump().unwrap();
        assert_eq!(dump.event_count(), 5);
    }
}
