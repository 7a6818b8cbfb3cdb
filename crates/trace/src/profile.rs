//! Self-time profile tree: the textual "where did the time go" view of a
//! trace dump.
//!
//! Span begin/end pairs from every track are folded into one tree keyed by
//! span-name path (repeated spans under the same parent merge, so the two
//! `round` spans of a 2-round CEGIS run show as one node with `count = 2`).
//! Each node reports:
//!
//! - `total` — wall-clock between begin and end, summed over instances;
//! - `self` — `total` minus the time covered by child spans (the span's own
//!   work, e.g. Schur assembly inside `sdp` not attributed to a sub-span);
//! - `count` — span instances merged into the node;
//! - `events` — iteration records (IPM iterations, epochs, ascent restarts)
//!   that fired while the span was innermost.
//!
//! Spans still open when the dump was taken are closed at their track's
//! last timestamp, so a mid-run profile still adds up.

use crate::chrome::ChromeTrace;
use crate::EventKind;

#[derive(Debug, Default)]
struct Node {
    count: u64,
    total_us: u64,
    self_us: u64,
    events: u64,
    children: Vec<(String, Node)>,
}

impl Node {
    fn child(&mut self, name: &str) -> &mut Node {
        if let Some(i) = self.children.iter().position(|(n, _)| n == name) {
            return &mut self.children[i].1;
        }
        self.children.push((name.to_string(), Node::default()));
        let last = self.children.len() - 1;
        &mut self.children[last].1
    }
}

/// Renders the merged self-time tree of `trace` as aligned text, children
/// sorted by total time (descending; ties by name).
pub fn profile_text(trace: &ChromeTrace) -> String {
    let mut root = Node::default();
    for track in &trace.tracks {
        fold_track(&mut root, track);
    }
    let mut out = String::from(
        "  total(ms)    self(ms)  count  events  span\n",
    );
    render(&root, 0, &mut out);
    if trace.dropped > 0 {
        out.push_str(&format!("  ({} event(s) dropped at capacity)\n", trace.dropped));
    }
    out
}

/// One open span while folding: its path within the track plus bookkeeping
/// to compute self time.
struct Open {
    path: Vec<String>,
    span_id: u64,
    started_us: u64,
    child_us: u64,
    events: u64,
}

fn fold_track(root: &mut Node, track: &crate::Track) {
    let last_ts = track.events.last().map_or(0, |e| e.ts_us);
    let mut stack: Vec<Open> = Vec::new();
    for e in &track.events {
        match &e.kind {
            EventKind::SpanBegin { name, span_id, .. } => {
                let mut path = stack.last().map_or_else(Vec::new, |o| o.path.clone());
                path.push(name.clone());
                stack.push(Open {
                    path,
                    span_id: *span_id,
                    started_us: e.ts_us,
                    child_us: 0,
                    events: 0,
                });
            }
            EventKind::SpanEnd { span_id, .. } => {
                // Pop until (and including) the matching begin; intervening
                // spans (force-closed out of LIFO order) close here too.
                while let Some(open) = stack.pop() {
                    let matched = open.span_id == *span_id;
                    close(root, open, e.ts_us, &mut stack);
                    if matched {
                        break;
                    }
                }
            }
            _ => {
                if let Some(open) = stack.last_mut() {
                    open.events += 1;
                } else {
                    root.events += 1;
                }
            }
        }
    }
    // Spans still open at snapshot time: close them at the last timestamp.
    while let Some(open) = stack.pop() {
        close(root, open, last_ts, &mut stack);
    }
}

fn close(root: &mut Node, open: Open, end_us: u64, stack: &mut [Open]) {
    let dur = end_us.saturating_sub(open.started_us);
    let node = open.path.iter().fold(&mut *root, |n, name| n.child(name));
    node.count += 1;
    node.total_us += dur;
    node.self_us += dur.saturating_sub(open.child_us);
    node.events += open.events;
    if let Some(parent) = stack.last_mut() {
        parent.child_us += dur;
    }
}

fn render(node: &Node, depth: usize, out: &mut String) {
    let mut order: Vec<&(String, Node)> = node.children.iter().collect();
    order.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(&b.0)));
    for (name, child) in order {
        let ms = |us: u64| us as f64 / 1000.0;
        out.push_str(&format!(
            "{:>11.3} {:>11.3} {:>6} {:>7}  {}{}\n",
            ms(child.total_us),
            ms(child.self_us),
            child.count,
            child.events,
            "  ".repeat(depth),
            name
        ));
        render(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChromeTrace, Event, Track};

    fn ev(ts_us: u64, kind: EventKind) -> Event {
        Event { ts_us, kind }
    }

    fn begin(name: &str, span_id: u64) -> EventKind {
        EventKind::SpanBegin {
            name: name.to_string(),
            index: None,
            span_id,
        }
    }

    fn end(name: &str, span_id: u64) -> EventKind {
        EventKind::SpanEnd {
            name: name.to_string(),
            span_id,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_merges_instances() {
        let events = vec![
            ev(0, begin("cegis", 1)),
            ev(100, begin("round", 2)),
            ev(100, begin("learn", 3)),
            ev(1_100, end("learn", 3)),
            ev(2_000, end("round", 2)),
            ev(2_000, begin("round", 4)),
            ev(2_500, EventKind::Epoch {
                epoch: 0,
                loss: 1.0,
                grad_norm: 0.5,
            }),
            ev(3_000, end("round", 4)),
            ev(4_000, end("cegis", 1)),
        ];
        let trace = ChromeTrace {
            tracks: vec![Track {
                tid: 1,
                label: "main".to_string(),
                events,
            }],
            dropped: 0,
        };
        let text = profile_text(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("total(ms)"));
        // cegis: total 4ms, self 4 - (1.9 + 1.0) = 1.1ms.
        assert!(lines[1].contains("cegis"), "{text}");
        assert!(lines[1].contains("4.000") && lines[1].contains("1.100"), "{text}");
        // round: two instances merged, total 2.9ms, self 2.9 - 1.0 = 1.9ms,
        // one epoch event.
        assert!(lines[2].contains("round") && lines[2].contains("2.900"), "{text}");
        assert!(lines[2].contains("  2 "), "{text}");
        assert!(lines[3].contains("learn") && lines[3].contains("1.000"), "{text}");
    }

    #[test]
    fn open_spans_and_multiple_tracks_still_account() {
        let trace = ChromeTrace {
            tracks: vec![
                Track {
                    tid: 1,
                    label: "main".to_string(),
                    events: vec![ev(0, begin("cegis", 1)), ev(5_000, EventKind::Epoch {
                        epoch: 0,
                        loss: 0.0,
                        grad_norm: 0.0,
                    })],
                },
                Track {
                    tid: 2,
                    label: "w1".to_string(),
                    events: vec![
                        ev(1_000, begin("sdp", 2)),
                        ev(3_000, end("sdp", 2)),
                    ],
                },
            ],
            dropped: 2,
        };
        let text = profile_text(&trace);
        // cegis closed at its track's last timestamp (5ms), one event inside.
        assert!(text.contains("cegis"));
        assert!(text.contains("5.000"), "{text}");
        // Worker-track span appears as its own top-level node.
        assert!(text.contains("sdp"));
        assert!(text.contains("2.000"), "{text}");
        assert!(text.contains("2 event(s) dropped"), "{text}");
    }
}
