//! The live `snbc-progress/2` NDJSON stream: typed pipeline events.
//!
//! # Event vocabulary
//!
//! | `ev`             | emitted by                            | payload |
//! |------------------|---------------------------------------|---------|
//! | `stream-start`   | the writer sink, as line 0            | `schema` |
//! | `job-start`      | `run_batch`, per job                  | `name` |
//! | `learn-epoch`    | `CegisEngine::step`, per round        | `round`, `loss` |
//! | `verify-rung`    | `CegisEngine::step`, ×3 per round     | `round`, `rung`, `feasible`, `margin` |
//! | `interval-query` | `CegisEngine::step`, per δ-complete fallback query | `round`, `rung`, `boxes` |
//! | `cex`            | `CegisEngine::step`, per failed round | `round`, `points`, `interval_fallback` |
//! | `reseed`         | `CegisEngine::step`, per plateau restart | `round` |
//! | `round`          | `CegisEngine::step`, round summary    | `round`, `status` |
//! | `wave`           | `race()`, per wave barrier            | `wave`, `live`, `certified` |
//! | `cache-hit`      | `run_batch`, cache-served job         | — (environmental) |
//! | `cache-miss`     | `run_batch`, raced job                | — (environmental) |
//! | `job-done`       | `run_batch`, per job                  | `name`, `certified`, `candidates`, `waves`, `winner_index`, `iterations` |
//!
//! Every line is one compact JSON object: `seq` first (monotonically
//! increasing, assigned by the writer sink), then `ev`, the optional
//! `job`/`cand` scope, the payload, and — on **live** streams only — a
//! trailing `t_us` timestamp from [`snbc_trace::now_us`]. A **canonical**
//! writer strips `t_us` and skips *environmental* events (`cache-hit`,
//! `cache-miss`), so the canonical stream for a job set is byte-identical
//! across `SNBC_THREADS` settings and cache temperature.
//!
//! # Sinks and determinism
//!
//! A [`Progress`] handle wraps one sink:
//!
//! * **writer** — serializes each event as an NDJSON line, line-buffered
//!   (every line is flushed, so `--progress -` streams live);
//! * **buffer** — records events with their scope. It is the one sink every
//!   other consumer builds on: a racing candidate records into a
//!   [`Progress::fork_buffer`] that `race` drains **in grid-index
//!   order at each wave barrier** (the one fork/merge rule that keeps the
//!   merged event order thread-count-invariant); a recording
//!   [`Metrics`](crate::Metrics) registry is a buffer that its snapshot
//!   folds; and a batch job's cache record is a buffer written out by
//!   [`Progress::record`];
//! * **fanout** — broadcasts to several sinks (`run_batch` combines
//!   the caller's stream, the registry and the cache record);
//! * **custom** — any [`EventSink`] implementation.
//!
//! Replayed events (from a cache record) reach canonical writers — which
//! re-sequence them — and buffers, but are skipped by live writers and
//! flagged to custom sinks, because a live consumer wants the `cache-hit`
//! marker, not a re-enactment of a race that did not run.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use snbc_trace::json::{self, Value};

/// Schema tag of the progress stream (carried by the `stream-start` line).
pub const PROGRESS_SCHEMA: &str = "snbc-progress/2";

/// Where an event happened: which batch job, which racing candidate.
/// Applied by [`Progress::with_job`] / [`Progress::with_candidate`];
/// serialized as the optional `job` / `cand` line fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    pub job: Option<u64>,
    pub candidate: Option<u64>,
}

/// A typed pipeline event. See the module docs for the emission sites.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A batch job began.
    JobStart { name: String },
    /// One learner training pass (the per-round "epoch" of Algorithm 1
    /// step 3/9) finished with this final loss.
    LearnEpoch { round: u64, loss: f64 },
    /// One verifier rung (`init` / `unsafe` / `flow`) was checked.
    VerifyRung {
        round: u64,
        rung: String,
        feasible: bool,
        margin: f64,
    },
    /// The δ-complete fallback oracle checked one failed condition
    /// (`rung`) and processed `boxes` branch-and-bound boxes.
    IntervalQuery { round: u64, rung: String, boxes: u64 },
    /// The counterexample phase of a failed round fed back `points`
    /// samples (`interval_fallback`: the δ-complete oracle was needed).
    Cex {
        round: u64,
        points: u64,
        interval_fallback: bool,
    },
    /// A relaxation-gap plateau restarted the learner in a fresh basin.
    Reseed { round: u64 },
    /// A CEGIS round finished with this status
    /// (`in-progress` / `certified` / `exhausted` / `timed-out`).
    Round { round: u64, status: String },
    /// A race wave barrier: `live` candidates still running, `certified`
    /// already done with a certificate.
    Wave { wave: u64, live: u64, certified: u64 },
    /// The job was served from the certificate cache (environmental: the
    /// canonical stream never contains it).
    CacheHit,
    /// The job was not in the certificate cache and raced (environmental).
    CacheMiss,
    /// A batch job finished.
    JobDone {
        name: String,
        certified: bool,
        candidates: u64,
        waves: u64,
        winner_index: Option<u64>,
        iterations: Option<u64>,
    },
}

impl ProgressEvent {
    /// The `ev` tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ProgressEvent::JobStart { .. } => "job-start",
            ProgressEvent::LearnEpoch { .. } => "learn-epoch",
            ProgressEvent::VerifyRung { .. } => "verify-rung",
            ProgressEvent::IntervalQuery { .. } => "interval-query",
            ProgressEvent::Cex { .. } => "cex",
            ProgressEvent::Reseed { .. } => "reseed",
            ProgressEvent::Round { .. } => "round",
            ProgressEvent::Wave { .. } => "wave",
            ProgressEvent::CacheHit => "cache-hit",
            ProgressEvent::CacheMiss => "cache-miss",
            ProgressEvent::JobDone { .. } => "job-done",
        }
    }

    /// Whether the event describes run *environment* (cache temperature)
    /// rather than the mathematical run; environmental events are excluded
    /// from canonical streams, cache records and canonical snapshots.
    pub fn is_environmental(&self) -> bool {
        matches!(self, ProgressEvent::CacheHit | ProgressEvent::CacheMiss)
    }
}

/// The `(key, value)` pairs of an event line, **without** `seq`/`t_us`:
/// `ev`, the scope, then the payload. Shared by the writer, the cache
/// record, and the parser so all three agree byte-for-byte.
fn event_pairs(scope: Scope, ev: &ProgressEvent) -> Vec<(String, Value)> {
    let mut pairs = vec![("ev".to_string(), Value::Str(ev.tag().to_string()))];
    if let Some(job) = scope.job {
        pairs.push(("job".to_string(), Value::Int(job)));
    }
    if let Some(cand) = scope.candidate {
        pairs.push(("cand".to_string(), Value::Int(cand)));
    }
    let opt_int = |v: Option<u64>| match v {
        Some(n) => Value::Int(n),
        None => Value::Null,
    };
    match ev {
        ProgressEvent::JobStart { name } => {
            pairs.push(("name".to_string(), Value::Str(name.clone())));
        }
        ProgressEvent::LearnEpoch { round, loss } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
            pairs.push(("loss".to_string(), Value::Num(*loss)));
        }
        ProgressEvent::VerifyRung {
            round,
            rung,
            feasible,
            margin,
        } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
            pairs.push(("rung".to_string(), Value::Str(rung.clone())));
            pairs.push(("feasible".to_string(), Value::Bool(*feasible)));
            pairs.push(("margin".to_string(), Value::Num(*margin)));
        }
        ProgressEvent::IntervalQuery { round, rung, boxes } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
            pairs.push(("rung".to_string(), Value::Str(rung.clone())));
            pairs.push(("boxes".to_string(), Value::Int(*boxes)));
        }
        ProgressEvent::Cex {
            round,
            points,
            interval_fallback,
        } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
            pairs.push(("points".to_string(), Value::Int(*points)));
            pairs.push(("interval_fallback".to_string(), Value::Bool(*interval_fallback)));
        }
        ProgressEvent::Reseed { round } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
        }
        ProgressEvent::Round { round, status } => {
            pairs.push(("round".to_string(), Value::Int(*round)));
            pairs.push(("status".to_string(), Value::Str(status.clone())));
        }
        ProgressEvent::Wave {
            wave,
            live,
            certified,
        } => {
            pairs.push(("wave".to_string(), Value::Int(*wave)));
            pairs.push(("live".to_string(), Value::Int(*live)));
            pairs.push(("certified".to_string(), Value::Int(*certified)));
        }
        ProgressEvent::CacheHit | ProgressEvent::CacheMiss => {}
        ProgressEvent::JobDone {
            name,
            certified,
            candidates,
            waves,
            winner_index,
            iterations,
        } => {
            pairs.push(("name".to_string(), Value::Str(name.clone())));
            pairs.push(("certified".to_string(), Value::Bool(*certified)));
            pairs.push(("candidates".to_string(), Value::Int(*candidates)));
            pairs.push(("waves".to_string(), Value::Int(*waves)));
            pairs.push(("winner_index".to_string(), opt_int(*winner_index)));
            pairs.push(("iterations".to_string(), opt_int(*iterations)));
        }
    }
    pairs
}

/// Parses one event line object back into its scope and event. Inverse of
/// `event_pairs`; a parsed event re-serializes byte-identically (JSON
/// floats use shortest-round-trip formatting, and non-finite values map to
/// `null` in both directions, read back as `NaN`).
fn event_from_value(v: &Value) -> Result<(Scope, ProgressEvent), String> {
    let tag = v
        .get("ev")
        .and_then(Value::as_str)
        .ok_or("event line missing `ev`")?;
    let scope = Scope {
        job: v.get("job").and_then(Value::as_u64),
        candidate: v.get("cand").and_then(Value::as_u64),
    };
    let int = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("`{tag}` missing integer `{key}`"))
    };
    let opt_int = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{tag}`: `{key}` must be an integer or null")),
        }
    };
    let text = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`{tag}` missing string `{key}`"))
    };
    let flag = |key: &str| -> Result<bool, String> {
        match v.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("`{tag}` missing bool `{key}`")),
        }
    };
    // `null` is how the writer encodes a non-finite float; NaN re-encodes
    // as `null`, so the round-trip stays byte-stable.
    let float = |key: &str| -> Result<f64, String> {
        match v.get(key) {
            Some(Value::Null) => Ok(f64::NAN),
            Some(x) => x
                .as_f64()
                .ok_or_else(|| format!("`{tag}`: `{key}` must be a number or null")),
            None => Err(format!("`{tag}` missing number `{key}`")),
        }
    };
    let ev = match tag {
        "job-start" => ProgressEvent::JobStart { name: text("name")? },
        "learn-epoch" => ProgressEvent::LearnEpoch {
            round: int("round")?,
            loss: float("loss")?,
        },
        "verify-rung" => ProgressEvent::VerifyRung {
            round: int("round")?,
            rung: text("rung")?,
            feasible: flag("feasible")?,
            margin: float("margin")?,
        },
        "interval-query" => ProgressEvent::IntervalQuery {
            round: int("round")?,
            rung: text("rung")?,
            boxes: int("boxes")?,
        },
        "cex" => ProgressEvent::Cex {
            round: int("round")?,
            points: int("points")?,
            interval_fallback: flag("interval_fallback")?,
        },
        "reseed" => ProgressEvent::Reseed { round: int("round")? },
        "round" => ProgressEvent::Round {
            round: int("round")?,
            status: text("status")?,
        },
        "wave" => ProgressEvent::Wave {
            wave: int("wave")?,
            live: int("live")?,
            certified: int("certified")?,
        },
        "cache-hit" => ProgressEvent::CacheHit,
        "cache-miss" => ProgressEvent::CacheMiss,
        "job-done" => ProgressEvent::JobDone {
            name: text("name")?,
            certified: flag("certified")?,
            candidates: int("candidates")?,
            waves: int("waves")?,
            winner_index: opt_int("winner_index")?,
            iterations: opt_int("iterations")?,
        },
        other => return Err(format!("unknown progress event `{other}`")),
    };
    Ok((scope, ev))
}

/// The `stream-start` header pairs (without `seq`/`t_us`): line 0 of every
/// stream and of every cache record.
fn header_pairs() -> Vec<(String, Value)> {
    vec![
        ("ev".to_string(), Value::Str("stream-start".to_string())),
        ("schema".to_string(), Value::Str(PROGRESS_SCHEMA.to_string())),
    ]
}

/// Parses a canonical stream or a stored cache record (see
/// [`Progress::record`]) into its events. Strict: the first line must be a
/// `stream-start` header naming this schema, and any malformed line fails
/// the whole stream — so a corrupt cache record, or one written under an
/// older schema, degrades to a cache miss rather than a wrong replay.
/// `seq` and `t_us` fields are ignored.
///
/// # Errors
///
/// A missing or foreign header, or the first malformed line's parse error.
pub fn parse_stream(text: &str) -> Result<Vec<(Scope, ProgressEvent)>, String> {
    let mut lines = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| json::parse(l).map_err(|e| e.to_string()));
    let header = lines.next().ok_or("empty stream")??;
    if header.get("ev").and_then(Value::as_str) != Some("stream-start")
        || header.get("schema").and_then(Value::as_str) != Some(PROGRESS_SCHEMA)
    {
        return Err(format!("stream does not start with a {PROGRESS_SCHEMA} header"));
    }
    lines.map(|v| event_from_value(&v?)).collect()
}

/// Consumer interface for in-process event subscribers (the CLI's human
/// stderr renderer). `replayed` marks events reconstructed from a cache
/// entry rather than produced by a live race.
pub trait EventSink: Send + Sync {
    fn event(&self, scope: Scope, event: &ProgressEvent, replayed: bool);
}

struct WriterState {
    out: Box<dyn Write + Send>,
    seq: u64,
}

enum SinkKind {
    Writer {
        state: Mutex<WriterState>,
        canonical: bool,
    },
    Buffer(Mutex<Vec<(Scope, ProgressEvent)>>),
    Fanout(Vec<Progress>),
    Custom(Box<dyn EventSink>),
}

/// A handle to a progress sink; cheap to clone, no-op when off. The handle
/// carries the [`Scope`] its events are attributed to — scoping is done by
/// cloning ([`Progress::with_job`], [`Progress::with_candidate`]), so one
/// sink can serve many scopes concurrently.
#[derive(Clone, Default)]
pub struct Progress {
    sink: Option<Arc<SinkKind>>,
    scope: Scope,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.sink.as_deref() {
            None => "off",
            Some(SinkKind::Writer { canonical: true, .. }) => "writer(canonical)",
            Some(SinkKind::Writer { .. }) => "writer",
            Some(SinkKind::Buffer(_)) => "buffer",
            Some(SinkKind::Fanout(_)) => "fanout",
            Some(SinkKind::Custom(_)) => "custom",
        };
        f.debug_struct("Progress")
            .field("sink", &kind)
            .field("scope", &self.scope)
            .finish()
    }
}

#[expect(clippy::disallowed_methods, reason = "the progress sinks' one lock: a writer stamps each event's sequence number under it, and a racing candidate's buffer is drained in candidate order")]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Progress {
    /// A disabled handle: every emit is a no-op.
    pub fn off() -> Progress {
        Progress::default()
    }

    /// An NDJSON writer sink. Writes the `stream-start` header line
    /// immediately; every subsequent event becomes one line, flushed as it
    /// is written (line-buffered). With `canonical = true` the stream
    /// omits `t_us`, skips environmental events, and accepts replayed
    /// events — see the module docs.
    pub fn writer(out: Box<dyn Write + Send>, canonical: bool) -> Progress {
        let mut state = WriterState { out, seq: 0 };
        let mut pairs = vec![("seq".to_string(), Value::Int(0))];
        pairs.extend(header_pairs());
        if !canonical {
            pairs.push(("t_us".to_string(), Value::Int(snbc_trace::now_us())));
        }
        write_line(&mut state, &Value::Obj(pairs));
        state.seq = 1;
        Progress {
            sink: Some(Arc::new(SinkKind::Writer {
                state: Mutex::new(state),
                canonical,
            })),
            scope: Scope::default(),
        }
    }

    /// A buffering sink: events are held (with their scope) until
    /// [`Progress::drain_into`] re-emits them elsewhere, a
    /// [`Metrics`](crate::Metrics) snapshot folds them, or
    /// [`Progress::record`] writes them out.
    pub fn buffer() -> Progress {
        Progress {
            sink: Some(Arc::new(SinkKind::Buffer(Mutex::new(Vec::new())))),
            scope: Scope::default(),
        }
    }

    /// Broadcasts every event to each of `parts`. A part keeps its own
    /// scope fields where set; unset fields inherit the delivering scope —
    /// so a job-scoped writer and an unscoped buffer can share one fanout.
    pub fn fanout(parts: Vec<Progress>) -> Progress {
        let live: Vec<Progress> = parts.into_iter().filter(Progress::is_on).collect();
        if live.is_empty() {
            return Progress::off();
        }
        Progress {
            sink: Some(Arc::new(SinkKind::Fanout(live))),
            scope: Scope::default(),
        }
    }

    /// Wraps an [`EventSink`] implementation.
    pub fn custom(sink: Box<dyn EventSink>) -> Progress {
        Progress {
            sink: Some(Arc::new(SinkKind::Custom(sink))),
            scope: Scope::default(),
        }
    }

    /// Whether events go anywhere. Instrumented code can gate event
    /// construction on this.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// This handle with the `job` scope field set.
    #[must_use]
    pub fn with_job(&self, job: u64) -> Progress {
        let mut p = self.clone();
        p.scope.job = Some(job);
        p
    }

    /// This handle with the `cand` scope field set.
    #[must_use]
    pub fn with_candidate(&self, candidate: u64) -> Progress {
        let mut p = self.clone();
        p.scope.candidate = Some(candidate);
        p
    }

    /// A fresh buffer handle inheriting this handle's scope, or an off
    /// handle when this one is off. Racing candidates record into forks and
    /// the driver drains them in grid order at the wave barrier.
    #[must_use]
    pub fn fork_buffer(&self) -> Progress {
        if !self.is_on() {
            return Progress::off();
        }
        let mut p = Progress::buffer();
        p.scope = self.scope;
        p
    }

    /// Emits one live event under this handle's scope.
    pub fn emit(&self, event: ProgressEvent) {
        self.deliver(self.scope, &event, false);
    }

    /// Drains a buffer sink's recorded events into `target`, preserving
    /// each event's recorded scope. No-op on other sink kinds.
    pub fn drain_into(&self, target: &Progress) {
        if let Some(SinkKind::Buffer(buf)) = self.sink.as_deref() {
            let events = std::mem::take(&mut *lock(buf));
            for (scope, ev) in events {
                target.deliver(scope, &ev, false);
            }
        }
    }

    /// Re-emits events parsed from a cache entry (see [`parse_stream`])
    /// as **replayed**: canonical writers re-sequence and write them, live
    /// writers skip them, custom sinks see `replayed = true`. Each event's
    /// stored `cand` scope is kept; its `job` scope is replaced by this
    /// handle's (the artifact is content-addressed, so the job index it ran
    /// under is meaningless here).
    pub fn replay(&self, events: &[(Scope, ProgressEvent)]) {
        for (stored, ev) in events {
            let scope = Scope {
                job: self.scope.job,
                candidate: stored.candidate,
            };
            self.deliver(scope, ev, true);
        }
    }

    /// The events a buffer sink holds, in recorded order (empty for other
    /// sinks).
    pub(crate) fn events(&self) -> Vec<(Scope, ProgressEvent)> {
        match self.sink.as_deref() {
            Some(SinkKind::Buffer(buf)) => lock(buf).clone(),
            _ => Vec::new(),
        }
    }

    /// A buffer's events as a stored record — the `progress.ndjson` cache
    /// artifact: the `stream-start` header, then one canonical line per
    /// non-environmental event with the `job` scope omitted (it is
    /// reassigned at replay). That is a canonical stream without `seq`;
    /// [`parse_stream`] reads it back.
    pub fn record(&self) -> String {
        let mut out = Value::Obj(header_pairs()).to_compact_string();
        out.push('\n');
        for (scope, ev) in self.events() {
            if ev.is_environmental() {
                continue;
            }
            let no_job = Scope { job: None, ..scope };
            out.push_str(&Value::Obj(event_pairs(no_job, &ev)).to_compact_string());
            out.push('\n');
        }
        out
    }

    fn deliver(&self, scope: Scope, ev: &ProgressEvent, replayed: bool) {
        let Some(sink) = self.sink.as_deref() else {
            return;
        };
        match sink {
            SinkKind::Writer { state, canonical } => {
                // Live writers show `cache-hit` and skip the replayed race;
                // canonical writers do the opposite — that swap is exactly
                // what makes the canonical stream cache-temperature-blind.
                if *canonical && ev.is_environmental() {
                    return;
                }
                if !*canonical && replayed {
                    return;
                }
                let mut st = lock(state);
                let mut pairs = vec![("seq".to_string(), Value::Int(st.seq))];
                pairs.extend(event_pairs(scope, ev));
                if !*canonical {
                    pairs.push(("t_us".to_string(), Value::Int(snbc_trace::now_us())));
                }
                write_line(&mut st, &Value::Obj(pairs));
                st.seq += 1;
            }
            SinkKind::Buffer(buf) => lock(buf).push((scope, ev.clone())),
            SinkKind::Fanout(parts) => {
                for part in parts {
                    let merged = Scope {
                        job: part.scope.job.or(scope.job),
                        candidate: part.scope.candidate.or(scope.candidate),
                    };
                    part.deliver(merged, ev, replayed);
                }
            }
            SinkKind::Custom(consumer) => consumer.event(scope, ev, replayed),
        }
    }
}

/// Writes one compact line plus newline and flushes (line-buffered
/// semantics, so `--progress -` streams live). Best-effort: observability
/// must never fail the pipeline, so I/O errors are dropped.
fn write_line(st: &mut WriterState, line: &Value) {
    let mut text = line.to_compact_string();
    text.push('\n');
    let _ = st.out.write_all(text.as_bytes());
    let _ = st.out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` target backed by shared memory, so tests can read what a
    /// writer sink produced.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).expect("utf-8")
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<ProgressEvent> {
        vec![
            ProgressEvent::JobStart { name: "c3".to_string() },
            ProgressEvent::LearnEpoch { round: 1, loss: 0.125 },
            ProgressEvent::VerifyRung {
                round: 1,
                rung: "flow".to_string(),
                feasible: false,
                margin: -0.5,
            },
            ProgressEvent::IntervalQuery {
                round: 1,
                rung: "flow".to_string(),
                boxes: 4096,
            },
            ProgressEvent::Cex { round: 1, points: 7, interval_fallback: true },
            ProgressEvent::Reseed { round: 1 },
            ProgressEvent::Round { round: 1, status: "in-progress".to_string() },
            ProgressEvent::Wave { wave: 2, live: 1, certified: 1 },
            ProgressEvent::CacheHit,
            ProgressEvent::CacheMiss,
            ProgressEvent::JobDone {
                name: "c3".to_string(),
                certified: true,
                candidates: 2,
                waves: 3,
                winner_index: Some(1),
                iterations: Some(2),
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for ev in sample_events() {
            let scope = Scope { job: Some(3), candidate: Some(1) };
            let line = Value::Obj(event_pairs(scope, &ev)).to_compact_string();
            let (back_scope, back) = event_from_value(&json::parse(&line).expect("parses"))
                .expect("event parses");
            assert_eq!(back_scope, scope, "scope for {line}");
            assert_eq!(back, ev, "event for {line}");
            // And re-serialization is byte-identical.
            let again = Value::Obj(event_pairs(back_scope, &back)).to_compact_string();
            assert_eq!(again, line);
        }
    }

    #[test]
    fn writer_assigns_monotonic_seq_and_canonical_strips_time() {
        let live_out = Shared::default();
        let live = Progress::writer(Box::new(live_out.clone()), false);
        let canon_out = Shared::default();
        let canon = Progress::writer(Box::new(canon_out.clone()), true).with_job(0);
        for ev in sample_events() {
            live.emit(ev.clone());
            canon.emit(ev);
        }
        let live_lines: Vec<String> = live_out.text().lines().map(str::to_string).collect();
        // Header + 11 events.
        assert_eq!(live_lines.len(), 12);
        assert!(live_lines[0].contains("\"ev\":\"stream-start\""));
        assert!(live_lines[0].contains(PROGRESS_SCHEMA));
        for (i, line) in live_lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\":{i},")),
                "line {i} reads {line}"
            );
            assert!(line.contains("\"t_us\":"), "live lines carry time: {line}");
        }
        let canon_lines: Vec<String> = canon_out.text().lines().map(str::to_string).collect();
        // Header + 9 events: `cache-hit` and `cache-miss` are environmental
        // and skipped.
        assert_eq!(canon_lines.len(), 10);
        for line in &canon_lines {
            assert!(!line.contains("t_us"), "canonical strips time: {line}");
            assert!(!line.contains("cache-"));
        }
        assert!(canon_lines[1].contains("\"job\":0"));
    }

    #[test]
    fn buffers_drain_in_recorded_order_with_scopes() {
        let out = Shared::default();
        let root = Progress::writer(Box::new(out.clone()), true).with_job(5);
        let cand = root.fork_buffer().with_candidate(2);
        cand.emit(ProgressEvent::Round { round: 1, status: "in-progress".to_string() });
        cand.emit(ProgressEvent::Round { round: 2, status: "certified".to_string() });
        assert_eq!(out.text().lines().count(), 1, "buffered, not yet written");
        cand.drain_into(&root);
        let text = out.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"job\":5"));
        assert!(lines[1].contains("\"cand\":2"));
        assert!(lines[1].contains("\"round\":1"));
        assert!(lines[2].contains("\"round\":2"));
    }

    #[test]
    fn record_and_replay_reproduce_the_canonical_stream() {
        // Cold run: canonical writer + cache record fan out behind one scope.
        let cold_out = Shared::default();
        let record = Progress::buffer();
        let cold = Progress::fanout(vec![
            Progress::writer(Box::new(cold_out.clone()), true),
            record.clone(),
        ])
        .with_job(1);
        for ev in sample_events() {
            cold.emit(ev);
        }
        let stored = record.record();
        assert!(stored.starts_with("{\"ev\":\"stream-start\",\"schema\":\"snbc-progress/2\"}\n"));
        assert!(!stored.contains("\"job\""), "the record omits the job index");
        assert!(!stored.contains("cache-"), "the record omits environmental events");

        // Warm run: the same job is served from the cache and replayed.
        let warm_out = Shared::default();
        let warm = Progress::writer(Box::new(warm_out.clone()), true).with_job(1);
        warm.emit(ProgressEvent::CacheHit); // canonical writers skip it
        let events = parse_stream(&stored).expect("stored record parses");
        warm.replay(&events);

        assert_eq!(cold_out.text(), warm_out.text(), "cold and warm canonical streams match");
        // The canonical stream itself parses back to the same events.
        let streamed = parse_stream(&cold_out.text()).expect("stream parses");
        assert!(streamed.iter().map(|(_, ev)| ev).eq(events.iter().map(|(_, ev)| ev)));

        // A live writer sees the cache-hit marker but not the replay.
        let live_out = Shared::default();
        let live = Progress::writer(Box::new(live_out.clone()), false).with_job(1);
        live.emit(ProgressEvent::CacheHit);
        live.replay(&events);
        let text = live_out.text();
        assert_eq!(text.lines().count(), 2, "header + cache-hit only:\n{text}");
        assert!(text.contains("cache-hit"));
    }

    #[test]
    fn corrupt_stored_streams_fail_to_parse() {
        let header = "{\"ev\":\"stream-start\",\"schema\":\"snbc-progress/2\"}\n";
        let round = "{\"ev\":\"round\",\"round\":1,\"status\":\"x\"}";
        assert!(parse_stream(&format!("{header}{round}")).is_ok());
        assert!(parse_stream(round).is_err(), "no header");
        assert!(
            parse_stream(&format!("{}{round}", header.replace("/2", "/1"))).is_err(),
            "an older schema's record"
        );
        assert!(parse_stream(&format!("{header}not json")).is_err());
        assert!(parse_stream(&format!("{header}{{\"ev\":\"no-such-event\"}}")).is_err());
        assert!(
            parse_stream(&format!("{header}{{\"ev\":\"round\",\"round\":1}}")).is_err(),
            "missing field"
        );
    }
}
