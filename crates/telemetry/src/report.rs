//! The run report: a snapshot of the span tree, its JSON schema, and the
//! human-readable per-round progress table.
//!
//! The JSON layout (schema [`SCHEMA`] = `"snbc-run-report/1"`) is documented
//! field-by-field in `docs/TELEMETRY.md`; in short:
//!
//! ```json
//! {
//!   "schema": "snbc-run-report/1",
//!   "run": {
//!     "name": "run", "elapsed_s": 1.25,
//!     "counters": {"epochs": 120}, "gauges": {"final_loss": 2.5e-3},
//!     "labels": {"benchmark": "C3"},
//!     "children": [ ...same shape, with optional "index"... ]
//!   }
//! }
//! ```
//!
//! Empty sections are omitted; counters are exact `u64` integers; gauges are
//! `f64` and serialize as `null` when non-finite (solver breakdown).

use crate::json::{self, ParseError, Value};

/// Version tag stamped into every serialized report.
pub const SCHEMA: &str = "snbc-run-report/1";

/// A snapshot of one span: timing plus the metrics recorded on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Static span name (`"cegis"`, `"round"`, `"learn"`, `"sdp"`, …).
    pub name: String,
    /// Optional index, used by `"round"` spans for the CEGIS iteration.
    pub index: Option<u64>,
    /// Id of the matching span-begin/end pair in the `snbc-trace` event
    /// stream (`args.span_id` in the Chrome export); present only when a
    /// trace sink was attached to the run (see `docs/TRACING.md`).
    pub trace_id: Option<u64>,
    /// Wall-clock seconds from a monotonic timer (time-so-far if the span
    /// was still open when the snapshot was taken).
    pub elapsed_s: f64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub labels: Vec<(String, String)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Value of counter `name` on this span.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of gauge `name` on this span.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of label `name` on this span.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Depth-first search for the first span named `name` (self included).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sum of a counter over this span and all descendants.
    pub fn counter_deep(&self, name: &str) -> u64 {
        self.counter(name).unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.counter_deep(name))
                .sum::<u64>()
    }

    fn to_json(&self) -> Value {
        let mut pairs = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if let Some(i) = self.index {
            pairs.push(("index".to_string(), Value::Int(i)));
        }
        if let Some(t) = self.trace_id {
            pairs.push(("trace_id".to_string(), Value::Int(t)));
        }
        pairs.push(("elapsed_s".to_string(), Value::Num(self.elapsed_s)));
        if !self.counters.is_empty() {
            pairs.push((
                "counters".to_string(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Int(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            pairs.push((
                "gauges".to_string(),
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.labels.is_empty() {
            pairs.push((
                "labels".to_string(),
                Value::Obj(
                    self.labels
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        if !self.children.is_empty() {
            pairs.push((
                "children".to_string(),
                Value::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ));
        }
        Value::Obj(pairs)
    }

    fn from_json(v: &Value) -> Result<SpanNode, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span missing `name`")?
            .to_string();
        let index = v.get("index").and_then(Value::as_u64);
        let trace_id = v.get("trace_id").and_then(Value::as_u64);
        // A null elapsed_s cannot occur for finite timers, but tolerate it.
        let elapsed_s = v
            .get("elapsed_s")
            .and_then(Value::as_f64)
            .ok_or("span missing `elapsed_s`")?;
        let mut counters = Vec::new();
        if let Some(obj) = v.get("counters").and_then(Value::as_object) {
            for (n, c) in obj {
                counters.push((
                    n.clone(),
                    c.as_u64().ok_or_else(|| format!("counter `{n}` not a u64"))?,
                ));
            }
        }
        let mut gauges = Vec::new();
        if let Some(obj) = v.get("gauges").and_then(Value::as_object) {
            for (n, gv) in obj {
                // `null` marks a non-finite measurement (see docs/TELEMETRY.md).
                let x = match gv {
                    Value::Null => f64::NAN,
                    other => other
                        .as_f64()
                        .ok_or_else(|| format!("gauge `{n}` not a number"))?,
                };
                gauges.push((n.clone(), x));
            }
        }
        let mut labels = Vec::new();
        if let Some(obj) = v.get("labels").and_then(Value::as_object) {
            for (n, s) in obj {
                labels.push((
                    n.clone(),
                    s.as_str()
                        .ok_or_else(|| format!("label `{n}` not a string"))?
                        .to_string(),
                ));
            }
        }
        let mut children = Vec::new();
        if let Some(arr) = v.get("children").and_then(Value::as_array) {
            for c in arr {
                children.push(SpanNode::from_json(c)?);
            }
        }
        Ok(SpanNode {
            name,
            index,
            trace_id,
            elapsed_s,
            counters,
            gauges,
            labels,
            children,
        })
    }
}

/// A complete run report: the root span tree plus the schema version.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub root: SpanNode,
}

impl Report {
    /// All `"job"` spans in the tree (the portfolio batch service records
    /// one per batch job), in recording order.
    pub fn jobs(&self) -> Vec<&SpanNode> {
        fn walk<'a>(n: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
            if n.name == "job" {
                out.push(n);
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// All `"round"` spans in the tree, in recording order.
    pub fn rounds(&self) -> Vec<&SpanNode> {
        fn walk<'a>(n: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
            if n.name == "round" {
                out.push(n);
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Serializes to the schema-versioned JSON tree.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("run".to_string(), self.root.to_json()),
        ])
    }

    /// Serializes to pretty-printed JSON text (ends with a newline).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_pretty_string();
        s.push('\n');
        s
    }

    /// Rebuilds a report from a parsed JSON tree.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported report schema `{other}`")),
            None => return Err("missing `schema` field".to_string()),
        }
        let run = v.get("run").ok_or("missing `run` field")?;
        Ok(Report {
            root: SpanNode::from_json(run)?,
        })
    }

    /// Parses JSON text into a report.
    pub fn parse(text: &str) -> Result<Report, String> {
        let v = json::parse(text).map_err(|e: ParseError| e.to_string())?;
        Report::from_json(&v)
    }
}

/// Renders the per-round progress table the CLI prints: one row per CEGIS
/// round with learner, verifier, and counterexample metrics.
///
/// Missing metrics render as `-` (e.g. no `cex` phase on the certifying
/// round). Margins are the verifier's per-LMI optimal values t* for
/// problems (13)–(15); γ is the largest violation-ball radius the
/// counterexample search certified this round (Lemma 2).
pub fn render_round_table(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(
        "round   epochs  final_loss     m_init   m_unsafe     m_flow    cex    gamma   t_learn  t_verify     t_cex\n",
    );
    for (i, round) in report.rounds().iter().enumerate() {
        let idx = round.index.unwrap_or(i as u64);
        let learn = round.child("learn");
        let verify = round.child("verify");
        let cex = round.child("cex");
        let margin = |phase: &str| -> String {
            verify
                .and_then(|v| v.child(phase))
                .and_then(|p| p.gauge("margin"))
                .map_or_else(|| "-".to_string(), |m| format!("{m:+.3e}"))
        };
        let row = format!(
            "{:>5}  {:>7}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>7}  {:>8}  {:>8}  {:>8}\n",
            idx,
            learn
                .and_then(|l| l.counter("epochs"))
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            learn
                .and_then(|l| l.gauge("final_loss"))
                .map_or_else(|| "-".to_string(), |l| format!("{l:.3e}")),
            margin("init"),
            margin("unsafe"),
            margin("flow"),
            cex.map(|c| c.counter_deep("points"))
                .map_or_else(|| "-".to_string(), |p| p.to_string()),
            cex.and_then(max_gamma)
                .map_or_else(|| "-".to_string(), |g| format!("{g:.2e}")),
            learn.map_or_else(|| "-".to_string(), |l| format!("{:.2}s", l.elapsed_s)),
            verify.map_or_else(|| "-".to_string(), |v| format!("{:.2}s", v.elapsed_s)),
            cex.map_or_else(|| "-".to_string(), |c| format!("{:.2}s", c.elapsed_s)),
        );
        out.push_str(&row);
    }
    let jobs = report.jobs();
    if !jobs.is_empty() {
        out.push('\n');
        out.push_str(&render_job_table(&jobs));
    }
    out
}

/// Renders the per-job batch table (one row per `job` span recorded by the
/// portfolio batch service): cache disposition, candidates raced, the
/// deterministic winner index, and wave count. Cache hits race nothing, so
/// their racing columns render as `-`.
fn render_job_table(jobs: &[&SpanNode]) -> String {
    let mut out = String::new();
    out.push_str("  job  name                  cache  cands  winner  waves\n");
    for (i, job) in jobs.iter().enumerate() {
        let race = job.child("race");
        let race_counter = |name: &str| -> String {
            race.and_then(|r| r.counter(name))
                .map_or_else(|| "-".to_string(), |v| v.to_string())
        };
        let cache = if job.counter("cache_hit").is_some() {
            "hit"
        } else if job.counter("cache_miss").is_some() {
            "miss"
        } else {
            "-"
        };
        let row = format!(
            "{:>5}  {:<20}  {:>5}  {:>5}  {:>6}  {:>5}\n",
            job.index.unwrap_or(i as u64),
            job.label("name").unwrap_or("-"),
            cache,
            race_counter("candidates_launched"),
            race_counter("race_winner_index"),
            race_counter("waves"),
        );
        out.push_str(&row);
    }
    out
}

/// Largest `gamma` gauge over a cex span's search children.
fn max_gamma(cex: &SpanNode) -> Option<f64> {
    let mut best: Option<f64> = None;
    for c in &cex.children {
        if let Some(g) = c.gauge("gamma") {
            best = Some(best.map_or(g, |b| b.max(g)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let learn = SpanNode {
            name: "learn".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.52,
            counters: vec![("epochs".to_string(), 200), ("adam_steps".to_string(), 199)],
            gauges: vec![("final_loss".to_string(), 1.5e-3)],
            labels: vec![],
            children: vec![],
        };
        let sdp = SpanNode {
            name: "sdp".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.11,
            counters: vec![("iterations".to_string(), 17), ("cholesky".to_string(), 64)],
            gauges: vec![("duality_mu".to_string(), 3.4e-10)],
            labels: vec![],
            children: vec![],
        };
        let init = SpanNode {
            name: "init".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.12,
            counters: vec![],
            gauges: vec![("margin".to_string(), 0.015), ("feasible".to_string(), 1.0)],
            labels: vec![],
            children: vec![sdp],
        };
        let verify = SpanNode {
            name: "verify".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.4,
            counters: vec![],
            gauges: vec![],
            labels: vec![],
            children: vec![init],
        };
        let search = SpanNode {
            name: "search-flow".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.05,
            counters: vec![("points".to_string(), 32)],
            gauges: vec![("gamma".to_string(), 0.21), ("violation".to_string(), 0.02)],
            labels: vec![],
            children: vec![],
        };
        let cex = SpanNode {
            name: "cex".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.07,
            counters: vec![],
            gauges: vec![],
            labels: vec![],
            children: vec![search],
        };
        let round = SpanNode {
            name: "round".to_string(),
            index: Some(0),
            trace_id: None,
            elapsed_s: 1.0,
            counters: vec![],
            gauges: vec![],
            labels: vec![],
            children: vec![learn, verify, cex],
        };
        let cegis = SpanNode {
            name: "cegis".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 1.2,
            counters: vec![("iterations".to_string(), 1)],
            gauges: vec![("sigma_star".to_string(), 0.08)],
            labels: vec![("benchmark".to_string(), "C3".to_string())],
            children: vec![round],
        };
        Report {
            root: SpanNode {
                name: "run".to_string(),
                index: None,
                trace_id: None,
                elapsed_s: 1.3,
                counters: vec![],
                gauges: vec![],
                labels: vec![],
                children: vec![cegis],
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rep = sample_report();
        let text = rep.to_json_string();
        assert!(text.contains("snbc-run-report/1"));
        let back = Report::parse(&text).unwrap();
        assert_eq!(back, rep);
        // And the re-serialization is byte-identical (ordered objects).
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample_report()
            .to_json_string()
            .replace(SCHEMA, "snbc-run-report/999");
        let err = Report::parse(&text).unwrap_err();
        assert!(err.contains("unsupported report schema"), "{err}");
        assert!(Report::parse("{}").is_err());
        assert!(Report::parse("not json").is_err());
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let rep = sample_report();
        let rounds = rep.rounds();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].index, Some(0));
        let cegis = rep.root.child("cegis").unwrap();
        assert_eq!(cegis.label("benchmark"), Some("C3"));
        assert_eq!(rep.root.find("sdp").unwrap().counter("cholesky"), Some(64));
        assert_eq!(rounds[0].counter_deep("points"), 32);
        assert_eq!(
            cegis.children.iter().filter(|c| c.name == "round").count(),
            1
        );
    }

    #[test]
    fn non_finite_gauge_survives_as_null() {
        let mut rep = sample_report();
        rep.root.gauges.push(("bad".to_string(), f64::NEG_INFINITY));
        let text = rep.to_json_string();
        assert!(text.contains("\"bad\": null"));
        let back = Report::parse(&text).unwrap();
        assert!(back.root.gauge("bad").unwrap().is_nan());
    }

    #[test]
    fn round_table_renders_all_columns() {
        let table = render_round_table(&sample_report());
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("m_init") && header.contains("gamma"));
        let row = lines.next().unwrap();
        assert!(row.contains("200"), "{row}");
        assert!(row.contains("1.500e-3"), "{row}");
        assert!(row.contains("+1.500e-2"), "{row}");
        assert!(row.contains("32"), "{row}");
        assert!(row.contains("2.10e-1"), "{row}");
        // No batch jobs in this report — no job table.
        assert!(!table.contains("cands"), "{table}");
    }

    #[test]
    fn round_table_appends_the_batch_job_table() {
        let raced = SpanNode {
            name: "job".to_string(),
            index: Some(0),
            trace_id: None,
            elapsed_s: 2.0,
            counters: vec![("cache_miss".to_string(), 1)],
            gauges: vec![],
            labels: vec![("name".to_string(), "c3-a".to_string())],
            children: vec![SpanNode {
                name: "race".to_string(),
                index: None,
                trace_id: None,
                elapsed_s: 1.9,
                counters: vec![
                    ("candidates_launched".to_string(), 2),
                    ("waves".to_string(), 3),
                    ("race_winner_index".to_string(), 1),
                ],
                gauges: vec![],
                labels: vec![],
                children: vec![],
            }],
        };
        let hit = SpanNode {
            name: "job".to_string(),
            index: Some(1),
            trace_id: None,
            elapsed_s: 0.01,
            counters: vec![("cache_hit".to_string(), 1)],
            gauges: vec![],
            labels: vec![("name".to_string(), "c3-b".to_string())],
            children: vec![],
        };
        let mut rep = sample_report();
        rep.root.children.push(SpanNode {
            name: "batch".to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 2.1,
            counters: vec![],
            gauges: vec![],
            labels: vec![],
            children: vec![raced, hit],
        });
        assert_eq!(rep.jobs().len(), 2);
        let table = render_round_table(&rep);
        let job_rows: Vec<&str> = table
            .lines()
            .skip_while(|l| !l.contains("cands"))
            .collect();
        assert_eq!(job_rows.len(), 3, "{table}");
        assert!(job_rows[1].contains("c3-a"), "{table}");
        assert!(job_rows[1].contains("miss"), "{table}");
        let cols: Vec<&str> = job_rows[1].split_whitespace().collect();
        assert_eq!(cols, ["0", "c3-a", "miss", "2", "1", "3"], "{table}");
        assert_eq!(
            job_rows[2].split_whitespace().collect::<Vec<_>>(),
            ["1", "c3-b", "hit", "-", "-", "-"],
            "{table}"
        );
    }
}
