//! Chrome trace-event JSON export (write-only).
//!
//! The emitted document is the classic `traceEvents` array format that both
//! `chrome://tracing` and Perfetto (<https://ui.perfetto.dev>, "Open trace
//! file") load directly:
//!
//! ```json
//! {"traceEvents":[
//! {"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"main"}},
//! {"ph":"B","pid":1,"tid":1,"ts":12,"name":"cegis","args":{"span_id":1}},
//! {"ph":"i","pid":1,"tid":1,"ts":14,"s":"t","name":"sdp-ipm-iter","args":{...}},
//! {"ph":"E","pid":1,"tid":1,"ts":20,"name":"cegis","args":{"span_id":1}}
//! ],"displayTimeUnit":"ms","otherData":{"schema":"snbc-trace/1","dropped":0}}
//! ```
//!
//! One `pid` (1) holds one `tid` per worker track; `thread_name` metadata
//! events carry the worker labels, so Perfetto shows tracks `main`, `w1`,
//! `w2.1`, …. Timestamps (`ts`) are integer microseconds from the shared
//! trace clock. Span begin/end pairs (`B`/`E`) carry the run-report span id
//! in `args.span_id`; iteration records are thread-scoped instant events
//! (`ph:"i"`, `s:"t"`) named `sdp-ipm-iter` / `lp-ipm-iter` / `learn-epoch`
//! / `cex-ascent`.
//!
//! Objects are emitted in a fixed field order, timestamps are integers, and
//! floats use shortest round-trip formatting, so one dump always encodes to
//! the same bytes.

use crate::json::Value;
use crate::{Event, EventKind};

/// Schema tag stamped into the export's `otherData` section.
pub const SCHEMA: &str = "snbc-trace/1";

/// One worker track: every event recorded under one `snbc-par` worker
/// label, timestamp-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Chrome thread id (1-based, assigned in label sort order).
    pub tid: u64,
    /// Worker label (`"main"`, `"w1"`, `"w2.1"`, …).
    pub label: String,
    /// The track's events, timestamp-ordered.
    pub events: Vec<Event>,
}

/// A complete trace snapshot: per-worker tracks plus the dropped-event count.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// Tracks sorted by label.
    pub tracks: Vec<Track>,
    /// Events discarded because a lane hit its ring-buffer capacity.
    pub dropped: u64,
}

impl ChromeTrace {
    /// Total number of events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Thread-count-invariant ordering keys: every event reduced to a string
    /// that excludes timestamps, track assignment, and span-id allocation
    /// order, returned sorted. Two runs of a deterministic pipeline at
    /// different `SNBC_THREADS` settings must produce identical key lists
    /// (enforced by `tests/par_determinism.rs`).
    pub fn ordering_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = Vec::with_capacity(self.event_count());
        for track in &self.tracks {
            for e in &track.events {
                keys.push(match &e.kind {
                    EventKind::SpanBegin { name, index, .. } => {
                        format!("B:{name}:{index:?}")
                    }
                    EventKind::SpanEnd { name, .. } => format!("E:{name}"),
                    EventKind::IpmIter { solver, sample } => format!(
                        "ipm:{solver}:{}:{:016x}:{:016x}:{:016x}:{:016x}:{:016x}:{:016x}:{}",
                        sample.iter,
                        sample.mu.to_bits(),
                        sample.rp_rel.to_bits(),
                        sample.rd_rel.to_bits(),
                        sample.gap_rel.to_bits(),
                        sample.alpha_p.to_bits(),
                        sample.alpha_d.to_bits(),
                        sample.cholesky
                    ),
                    EventKind::Epoch {
                        epoch,
                        loss,
                        grad_norm,
                    } => format!(
                        "epoch:{epoch}:{:016x}:{:016x}",
                        loss.to_bits(),
                        grad_norm.to_bits()
                    ),
                    EventKind::Ascent {
                        restart,
                        steps,
                        best,
                    } => format!("ascent:{restart}:{steps}:{:016x}", best.to_bits()),
                });
            }
        }
        keys.sort();
        keys
    }

    /// Serializes to the Chrome trace-event JSON document (one event per
    /// line, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for track in &self.tracks {
            write_line(&mut out, &mut first, &meta_value(track));
        }
        for track in &self.tracks {
            for e in &track.events {
                write_line(&mut out, &mut first, &event_value(track.tid, e));
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":");
        let other = Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("dropped".to_string(), Value::Int(self.dropped)),
        ]);
        out.push_str(&other.to_compact_string());
        out.push_str("}\n");
        out
    }

    /// Renders the self-time profile tree ([`crate::profile::profile_text`]).
    pub fn profile_text(&self) -> String {
        crate::profile::profile_text(self)
    }
}

fn write_line(out: &mut String, first: &mut bool, v: &Value) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&v.to_compact_string());
}

fn meta_value(track: &Track) -> Value {
    Value::Obj(vec![
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::Int(1)),
        ("tid".to_string(), Value::Int(track.tid)),
        ("name".to_string(), Value::Str("thread_name".to_string())),
        (
            "args".to_string(),
            Value::Obj(vec![("name".to_string(), Value::Str(track.label.clone()))]),
        ),
    ])
}

fn event_value(tid: u64, e: &Event) -> Value {
    let head = |ph: &str| {
        vec![
            ("ph".to_string(), Value::Str(ph.to_string())),
            ("pid".to_string(), Value::Int(1)),
            ("tid".to_string(), Value::Int(tid)),
            ("ts".to_string(), Value::Int(e.ts_us)),
        ]
    };
    let instant = |name: String, args: Vec<(String, Value)>| {
        let mut pairs = head("i");
        pairs.push(("s".to_string(), Value::Str("t".to_string())));
        pairs.push(("name".to_string(), Value::Str(name)));
        pairs.push(("args".to_string(), Value::Obj(args)));
        Value::Obj(pairs)
    };
    match &e.kind {
        EventKind::SpanBegin {
            name,
            index,
            span_id,
        } => {
            let mut pairs = head("B");
            pairs.push(("name".to_string(), Value::Str(name.clone())));
            let mut args = vec![("span_id".to_string(), Value::Int(*span_id))];
            if let Some(i) = index {
                args.push(("index".to_string(), Value::Int(*i)));
            }
            pairs.push(("args".to_string(), Value::Obj(args)));
            Value::Obj(pairs)
        }
        EventKind::SpanEnd { name, span_id } => {
            let mut pairs = head("E");
            pairs.push(("name".to_string(), Value::Str(name.clone())));
            pairs.push((
                "args".to_string(),
                Value::Obj(vec![("span_id".to_string(), Value::Int(*span_id))]),
            ));
            Value::Obj(pairs)
        }
        EventKind::IpmIter { solver, sample } => instant(
            format!("{solver}-ipm-iter"),
            vec![
                ("iter".to_string(), Value::Int(sample.iter)),
                ("mu".to_string(), Value::Num(sample.mu)),
                ("rp_rel".to_string(), Value::Num(sample.rp_rel)),
                ("rd_rel".to_string(), Value::Num(sample.rd_rel)),
                ("gap_rel".to_string(), Value::Num(sample.gap_rel)),
                ("alpha_p".to_string(), Value::Num(sample.alpha_p)),
                ("alpha_d".to_string(), Value::Num(sample.alpha_d)),
                ("cholesky".to_string(), Value::Int(sample.cholesky)),
            ],
        ),
        EventKind::Epoch {
            epoch,
            loss,
            grad_norm,
        } => instant(
            "learn-epoch".to_string(),
            vec![
                ("epoch".to_string(), Value::Int(*epoch)),
                ("loss".to_string(), Value::Num(*loss)),
                ("grad_norm".to_string(), Value::Num(*grad_norm)),
            ],
        ),
        EventKind::Ascent {
            restart,
            steps,
            best,
        } => instant(
            "cex-ascent".to_string(),
            vec![
                ("restart".to_string(), Value::Int(*restart)),
                ("steps".to_string(), Value::Int(*steps)),
                ("best".to_string(), Value::Num(*best)),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, IpmSample};

    /// A fixture stream exercising every event type across two tracks.
    pub(crate) fn fixture() -> ChromeTrace {
        let main_events = vec![
            Event {
                ts_us: 10,
                kind: EventKind::SpanBegin {
                    name: "cegis".to_string(),
                    index: None,
                    span_id: 1,
                },
            },
            Event {
                ts_us: 12,
                kind: EventKind::SpanBegin {
                    name: "round".to_string(),
                    index: Some(1),
                    span_id: 2,
                },
            },
            Event {
                ts_us: 20,
                kind: EventKind::Epoch {
                    epoch: 0,
                    loss: 0.5,
                    grad_norm: 1.25,
                },
            },
            Event {
                ts_us: 900,
                kind: EventKind::SpanEnd {
                    name: "round".to_string(),
                    span_id: 2,
                },
            },
            Event {
                ts_us: 1000,
                kind: EventKind::SpanEnd {
                    name: "cegis".to_string(),
                    span_id: 1,
                },
            },
        ];
        let worker_events = vec![
            Event {
                ts_us: 30,
                kind: EventKind::SpanBegin {
                    name: "sdp".to_string(),
                    index: None,
                    span_id: 3,
                },
            },
            Event {
                ts_us: 40,
                kind: EventKind::IpmIter {
                    solver: "sdp".to_string(),
                    sample: IpmSample {
                        iter: 0,
                        mu: 1.5e-3,
                        rp_rel: 0.25,
                        rd_rel: 0.125,
                        gap_rel: 0.0625,
                        alpha_p: 0.875,
                        alpha_d: 0.75,
                        cholesky: 5,
                    },
                },
            },
            Event {
                ts_us: 55,
                kind: EventKind::Ascent {
                    restart: 2,
                    steps: 57,
                    best: -0.01,
                },
            },
            Event {
                ts_us: 60,
                kind: EventKind::SpanEnd {
                    name: "sdp".to_string(),
                    span_id: 3,
                },
            },
        ];
        ChromeTrace {
            tracks: vec![
                Track {
                    tid: 1,
                    label: "main".to_string(),
                    events: main_events,
                },
                Track {
                    tid: 2,
                    label: "w1".to_string(),
                    events: worker_events,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn golden_export_shape() {
        let text = fixture().to_json_string();
        // Perfetto-required scaffolding.
        assert!(text.starts_with("{\"traceEvents\":[\n"));
        assert!(text.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}}"
        ));
        assert!(text.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"w1\"}}"
        ));
        // Span pair with shared report id and round index.
        assert!(text.contains(
            "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":12,\"name\":\"round\",\"args\":{\"span_id\":2,\"index\":1}}"
        ));
        assert!(text.contains(
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":900,\"name\":\"round\",\"args\":{\"span_id\":2}}"
        ));
        // Iteration record on the worker track.
        assert!(text.contains(
            "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":40,\"s\":\"t\",\"name\":\"sdp-ipm-iter\",\
             \"args\":{\"iter\":0,\"mu\":0.0015,\"rp_rel\":0.25,\"rd_rel\":0.125,\"gap_rel\":0.0625,\
             \"alpha_p\":0.875,\"alpha_d\":0.75,\"cholesky\":5}}"
        ));
        assert!(text.ends_with(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"snbc-trace/1\",\"dropped\":0}}\n"
        ));
    }

    #[test]
    fn non_finite_values_survive_as_null() {
        let mut trace = fixture();
        trace.tracks[0].events.push(Event {
            ts_us: 2000,
            kind: EventKind::Epoch {
                epoch: 1,
                loss: f64::INFINITY,
                grad_norm: f64::NAN,
            },
        });
        let text = trace.to_json_string();
        assert!(text.contains("\"loss\":null,\"grad_norm\":null"));
        // The document stays valid JSON.
        assert!(json::parse(&text).is_ok());
    }

    #[test]
    fn ordering_keys_ignore_time_track_and_span_ids() {
        let a = fixture();
        let mut b = fixture();
        // Shift every timestamp, renumber span ids, and swap track labels:
        // the ordering keys must not change.
        for track in &mut b.tracks {
            for e in &mut track.events {
                e.ts_us += 12345;
                match &mut e.kind {
                    EventKind::SpanBegin { span_id, .. } | EventKind::SpanEnd { span_id, .. } => {
                        *span_id += 100;
                    }
                    _ => {}
                }
            }
        }
        b.tracks.swap(0, 1);
        assert_eq!(a.ordering_keys(), b.ordering_keys());
        // A payload change does show up.
        let mut c = fixture();
        if let EventKind::Epoch { loss, .. } = &mut c.tracks[0].events[2].kind {
            *loss = 0.75;
        }
        assert_ne!(a.ordering_keys(), c.ordering_keys());
    }
}
