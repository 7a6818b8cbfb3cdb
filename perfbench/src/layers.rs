//! Harness-side spans around the program's public entry points, totals over
//! the program's own `snbc-telemetry` span trees, and the small arithmetic
//! (self time, ratios, medians) the per-layer metrics are built from.

use std::collections::BTreeMap;
use std::time::Instant;

use snbc_telemetry::SpanNode;

use crate::procfs::ProcSample;

/// One call into the program timed by the harness.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `engine`, `step`, `check.validate`.
    pub name: &'static str,
    /// The row or job the call was made for (the span that caused it).
    pub parent: String,
    /// Start, seconds since the harness clock origin.
    pub start_s: f64,
    /// Wall-clock duration.
    pub wall_s: f64,
    /// Process-counter growth over the call.
    pub proc: ProcSample,
}

/// In-memory span log. Off, [`Spans::time`] only calls through, so the
/// untraced run pays nothing for it.
#[derive(Debug)]
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    /// A log that records nothing.
    pub fn off() -> Spans {
        Spans {
            origin: None,
            spans: Vec::new(),
        }
    }

    /// A recording log whose timestamps count from now.
    pub fn recording() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording its wall time and process-counter growth as span
    /// `name` under `parent` when the log is recording.
    pub fn time<R>(&mut self, name: &'static str, parent: &str, f: impl FnOnce() -> R) -> R {
        let Some(origin) = self.origin else {
            return f();
        };
        let p0 = ProcSample::now();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let proc = ProcSample::now().since(&p0);
        self.spans.push(Span {
            name,
            parent: parent.to_string(),
            start_s: t0.duration_since(origin).as_secs_f64(),
            wall_s,
            proc,
        });
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total wall seconds of spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.wall_s).sum()
    }

    /// Longest span named `name`, seconds.
    pub fn max_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.wall_s).fold(0.0, f64::max)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed process-counter growth over spans named `name`.
    pub fn proc(&self, name: &str) -> ProcSample {
        let mut total = ProcSample::default();
        for s in self.named(name) {
            total.add(&s.proc);
        }
        total
    }

    /// Tab-separated dump, one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tparent\tstart_s\twall_s\tcpu_s\tsys_s\tminflt\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{:.6}\t{:.6}\t{:.2}\t{:.2}\t{}\n",
                s.name,
                s.parent,
                s.start_s,
                s.wall_s,
                s.proc.cpu_s(),
                s.proc.sys_s(),
                s.proc.minflt
            ));
        }
        out
    }
}

/// Totals over every span of a set of `snbc-run-report` trees, keyed by
/// span name.
#[derive(Debug, Default)]
pub struct TreeTotals {
    elapsed: BTreeMap<String, f64>,
    count: BTreeMap<String, u64>,
    counters: BTreeMap<(String, String), u64>,
}

impl TreeTotals {
    /// Walks every node of every tree.
    pub fn of<'a>(roots: impl IntoIterator<Item = &'a SpanNode>) -> TreeTotals {
        fn visit(n: &SpanNode, t: &mut TreeTotals) {
            *t.elapsed.entry(n.name.clone()).or_default() += n.elapsed_s;
            *t.count.entry(n.name.clone()).or_default() += 1;
            for (c, v) in &n.counters {
                *t.counters.entry((n.name.clone(), c.clone())).or_default() += v;
            }
            for c in &n.children {
                visit(c, t);
            }
        }
        let mut t = TreeTotals::default();
        for r in roots {
            visit(r, &mut t);
        }
        t
    }

    /// Summed elapsed seconds of spans named `span`.
    pub fn elapsed(&self, span: &str) -> f64 {
        self.elapsed.get(span).copied().unwrap_or(0.0)
    }

    /// Number of spans named `span`.
    pub fn count(&self, span: &str) -> u64 {
        self.count.get(span).copied().unwrap_or(0)
    }

    /// Summed `counter` over spans named `span`.
    pub fn counter(&self, span: &str, counter: &str) -> u64 {
        self.counter_where(|s| s == span, counter)
    }

    /// Summed `counter` over spans whose name starts with `prefix`.
    pub fn counter_prefixed(&self, prefix: &str, counter: &str) -> u64 {
        self.counter_where(|s| s.starts_with(prefix), counter)
    }

    fn counter_where(&self, span: impl Fn(&str) -> bool, counter: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, c), _)| span(s) && c == counter)
            .map(|(_, v)| v)
            .sum()
    }
}

/// A layer's self time: its span's duration minus the part its child spans
/// cover, never below zero.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`, `.`
/// or `-`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(
        name: &str,
        elapsed_s: f64,
        counters: &[(&str, u64)],
        children: Vec<SpanNode>,
    ) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            index: None,
            trace_id: None,
            elapsed_s,
            counters: counters.iter().map(|&(c, v)| (c.to_string(), v)).collect(),
            gauges: Vec::new(),
            labels: Vec::new(),
            children,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_clamps_at_zero() {
        assert!((self_time(10.0, &[6.0, 1.5]) - 2.5).abs() < 1e-12);
        assert_eq!(self_time(1.0, &[0.7, 0.7]), 0.0);
        assert_eq!(self_time(3.0, &[]), 3.0);
    }

    #[test]
    fn useful_fraction_is_winner_rounds_over_candidate_rounds() {
        // Four candidates race three waves; the winner certifies in its third round.
        assert!((ratio(3.0, 12.0) - 0.25).abs() < 1e-12);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for good in ["e2e_s", "sdp.ms_per_iter", "proc.ctx-invol", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn tree_totals_sum_over_nested_spans() {
        let round = |i| {
            node(
                "round",
                1.0 + f64::from(i),
                &[],
                vec![
                    node("learn", 0.5, &[("epochs", 300)], vec![]),
                    node(
                        "verify",
                        0.25,
                        &[],
                        vec![node("sdp", 0.2, &[("iterations", 20)], vec![])],
                    ),
                    node(
                        "cex",
                        0.1,
                        &[("points", 7)],
                        vec![node("search-flow", 0.05, &[("ascent_steps", 40)], vec![])],
                    ),
                ],
            )
        };
        let root = node(
            "run",
            9.0,
            &[],
            vec![node("cegis", 8.0, &[], vec![round(0), round(1)])],
        );
        let t = TreeTotals::of([&root]);
        assert_eq!(t.count("round"), 2);
        assert!((t.elapsed("round") - 3.0).abs() < 1e-12);
        assert!((t.elapsed("learn") - 1.0).abs() < 1e-12);
        assert_eq!(t.counter("learn", "epochs"), 600);
        assert_eq!(t.counter("sdp", "iterations"), 40);
        assert_eq!(t.counter("cex", "points"), 14);
        assert_eq!(t.counter_prefixed("search-", "ascent_steps"), 80);
        assert_eq!(t.counter("search-", "ascent_steps"), 0);
        assert_eq!(t.elapsed("missing"), 0.0);
    }

    #[test]
    fn spans_off_records_nothing_and_recording_sums() {
        let mut off = Spans::off();
        assert_eq!(off.time("engine", "C1", || 41 + 1), 42);
        assert_eq!(off.count("engine"), 0);

        let mut on = Spans::recording();
        on.time("step", "C1", || ());
        on.time("step", "C2", || ());
        on.time("engine", "C1", || ());
        assert_eq!(on.count("step"), 2);
        assert!(on.total_s("step") >= on.max_s("step"));
        assert_eq!(on.to_tsv().lines().count(), 4);
    }
}
