//! Run-report regression gate: compares a freshly generated
//! `snbc-run-report/1` document against a committed baseline from
//! `bench-out/` and reports every difference that counts as a regression.
//!
//! Two comparison modes, selected automatically from the `threads` gauge the
//! reports recorded on their `cegis` span (see `docs/PARALLELISM.md`):
//!
//! * **strict** — both runs executed with one worker thread. The pipeline is
//!   bit-deterministic in that configuration (see `tests/par_determinism.rs`),
//!   so the span *tree shape* (names, order, round indices) and every exact
//!   **counter** (CEGIS rounds, learner epochs, IPM iterations, Cholesky
//!   factorizations, counterexample points, ascent steps, …) must match the
//!   baseline exactly. Gauges other than `certified` are *not* gated — they
//!   are `f64` measurements, and the committed baseline may have been
//!   produced by an earlier build whose last-significant bits legitimately
//!   moved.
//! * **loose** — at least one run was parallel, so counters that depend on
//!   chunk scheduling details (and wall-clock) may differ. Only the outcome
//!   (`certified`), the presence of the `cegis` span, and a generous
//!   wall-clock factor are gated.
//!
//! Wall-clock is *always* gated loosely (default [`DEFAULT_WALL_FACTOR`]×
//! the baseline) — CI machines differ from the machine that produced the
//! baseline, so the gate only catches order-of-magnitude blowups, not noise.

use snbc_telemetry::{Report, SpanNode};

/// Default allowed wall-clock blowup over the committed baseline.
pub const DEFAULT_WALL_FACTOR: f64 = 10.0;

/// Result of one baseline comparison.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Whether the strict (single-thread, structural) mode applied.
    pub strict: bool,
    /// Human-readable regressions; empty means the check passed.
    pub violations: Vec<String>,
}

impl CheckOutcome {
    /// True when no regression was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The `threads` gauge recorded on the report's `cegis` span, if any.
#[expect(clippy::cast_possible_truncation, reason = "a gauge holding a small thread count")]
pub fn report_threads(report: &Report) -> Option<u64> {
    report
        .root
        .find("cegis")
        .and_then(|c| c.gauge("threads"))
        .map(|t| t as u64)
}

/// The `certified` gauge on the `cegis` span (1.0 = synthesis succeeded).
fn certified(report: &Report) -> Option<f64> {
    report.root.find("cegis").and_then(|c| c.gauge("certified"))
}

/// Compares `fresh` against `baseline` and collects regressions.
///
/// `wall_factor` bounds `fresh` total wall-clock at `wall_factor ×` the
/// baseline's; pass [`DEFAULT_WALL_FACTOR`] unless the caller has a reason
/// to tighten or relax it.
pub fn check_reports(baseline: &Report, fresh: &Report, wall_factor: f64) -> CheckOutcome {
    let mut violations = Vec::new();

    // Outcome gate: a run that stopped certifying is always a regression.
    match (certified(baseline), certified(fresh)) {
        #[expect(clippy::float_cmp, reason = "the gauge is exactly 0.0 or 1.0")]
        (Some(b), Some(f)) if b != f => violations.push(format!(
            "outcome changed: baseline certified={b}, fresh certified={f}"
        )),
        (Some(_), None) => violations.push("fresh report lost the `certified` gauge".to_string()),
        _ => {}
    }
    if fresh.root.find("cegis").is_none() {
        violations.push("fresh report has no `cegis` span".to_string());
    }

    // Wall-clock gate, always loose.
    let (bw, fw) = (baseline.root.elapsed_s, fresh.root.elapsed_s);
    if bw > 0.0 && fw > wall_factor * bw {
        violations.push(format!(
            "wall-clock regression: fresh {fw:.3}s > {wall_factor:.1}x baseline {bw:.3}s"
        ));
    }

    // Structural gate, only meaningful when both runs were single-threaded.
    let strict = report_threads(baseline) == Some(1) && report_threads(fresh) == Some(1);
    if strict {
        compare_structure("run", &baseline.root, &fresh.root, &mut violations);
    }
    CheckOutcome { strict, violations }
}

/// Recursive structural diff: span names, order, indices, and counters.
fn compare_structure(path: &str, base: &SpanNode, fresh: &SpanNode, out: &mut Vec<String>) {
    if base.name != fresh.name {
        out.push(format!(
            "{path}: span renamed `{}` -> `{}`",
            base.name, fresh.name
        ));
        return; // children comparison would be meaningless
    }
    if base.index != fresh.index {
        out.push(format!(
            "{path}: span index changed {:?} -> {:?}",
            base.index, fresh.index
        ));
    }
    for (name, bv) in &base.counters {
        match fresh.counter(name) {
            Some(fv) if fv == *bv => {}
            Some(fv) => out.push(format!("{path}: counter `{name}` changed {bv} -> {fv}")),
            None => out.push(format!("{path}: counter `{name}` disappeared (baseline {bv})")),
        }
    }
    for (name, fv) in &fresh.counters {
        if base.counter(name).is_none() {
            out.push(format!("{path}: new counter `{name}` = {fv} not in baseline"));
        }
    }
    if base.children.len() != fresh.children.len() {
        out.push(format!(
            "{path}: child span count changed {} -> {} (baseline: [{}], fresh: [{}])",
            base.children.len(),
            fresh.children.len(),
            base.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>().join(", "),
            fresh.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>().join(", "),
        ));
    }
    for (b, f) in base.children.iter().zip(&fresh.children) {
        let sub = match b.index {
            Some(i) => format!("{path}/{}[{i}]", b.name),
            None => format!("{path}/{}", b.name),
        };
        compare_structure(&sub, b, f, out);
    }
}

/// Renders the outcome as the multi-line gate report the CLI prints.
pub fn render_outcome(name: &str, outcome: &CheckOutcome) -> String {
    let mode = if outcome.strict { "strict" } else { "loose" };
    if outcome.passed() {
        format!("[snbc-bench] {name}: OK ({mode} compare, no regressions)\n")
    } else {
        let mut s = format!(
            "[snbc-bench] {name}: FAIL ({mode} compare, {} regression(s))\n",
            outcome.violations.len()
        );
        for v in &outcome.violations {
            s.push_str(&format!("  - {v}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature but shape-realistic single-thread run report.
    fn report(threads: f64) -> Report {
        let node = |name: &str, counters: Vec<(&str, u64)>, children: Vec<SpanNode>| SpanNode {
            name: name.to_string(),
            index: None,
            trace_id: None,
            elapsed_s: 0.1,
            counters: counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: vec![],
            labels: vec![],
            children,
        };
        let sdp = node("sdp", vec![("iterations", 12), ("cholesky", 80)], vec![]);
        let init = node("init", vec![], vec![sdp]);
        let verify = node("verify", vec![], vec![init]);
        let learn = node("learn", vec![("epochs", 30)], vec![]);
        let mut round = node("round", vec![], vec![learn, verify]);
        round.index = Some(1);
        let mut cegis = node("cegis", vec![("iterations", 1)], vec![round]);
        cegis.gauges = vec![
            ("threads".to_string(), threads),
            ("certified".to_string(), 1.0),
        ];
        let mut root = node("run", vec![], vec![cegis]);
        root.elapsed_s = 1.0;
        Report { root }
    }

    #[test]
    fn identical_single_thread_reports_pass_strict() {
        let base = report(1.0);
        let outcome = check_reports(&base, &base.clone(), DEFAULT_WALL_FACTOR);
        assert!(outcome.strict);
        assert!(outcome.passed(), "{:?}", outcome.violations);
    }

    #[test]
    fn injected_counter_regression_fails_strict() {
        let base = report(1.0);
        let mut fresh = base.clone();
        // Inject a structural regression: the SDP suddenly needs more
        // iterations than the committed baseline recorded.
        let sdp = fresh
            .root
            .find("sdp")
            .expect("sdp span")
            .clone();
        assert_eq!(sdp.counter("iterations"), Some(12));
        fn bump(n: &mut SpanNode) {
            if n.name == "sdp" {
                for (name, v) in &mut n.counters {
                    if name == "iterations" {
                        *v = 25;
                    }
                }
            }
            for c in &mut n.children {
                bump(c);
            }
        }
        bump(&mut fresh.root);
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(outcome.strict);
        assert!(!outcome.passed());
        assert!(
            outcome.violations.iter().any(|v| v.contains("`iterations` changed 12 -> 25")),
            "{:?}",
            outcome.violations
        );
        assert!(render_outcome("quickstart", &outcome).contains("FAIL"));
    }

    #[test]
    fn dropped_span_fails_strict() {
        let base = report(1.0);
        let mut fresh = base.clone();
        // Drop the verify subtree from the round.
        fn drop_verify(n: &mut SpanNode) {
            n.children.retain(|c| c.name != "verify");
            for c in &mut n.children {
                drop_verify(c);
            }
        }
        drop_verify(&mut fresh.root);
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(!outcome.passed());
        assert!(
            outcome.violations.iter().any(|v| v.contains("child span count changed")),
            "{:?}",
            outcome.violations
        );
    }

    #[test]
    fn parallel_reports_compare_loosely() {
        let base = report(4.0);
        let mut fresh = report(4.0);
        // A counter difference is fine in loose mode (chunk scheduling), …
        fresh.root.children[0].counters[0].1 = 2;
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(!outcome.strict);
        assert!(outcome.passed(), "{:?}", outcome.violations);
        // … but a lost certification is not.
        for (g, v) in &mut fresh.root.children[0].gauges {
            if g == "certified" {
                *v = 0.0;
            }
        }
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(!outcome.passed());
        assert!(outcome.violations[0].contains("outcome changed"));
    }

    #[test]
    fn wall_clock_blowup_is_flagged() {
        let base = report(4.0);
        let mut fresh = report(4.0);
        fresh.root.elapsed_s = base.root.elapsed_s * 50.0;
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(!outcome.passed());
        assert!(outcome.violations[0].contains("wall-clock regression"));
    }

    #[test]
    fn mixed_thread_counts_fall_back_to_loose() {
        let base = report(1.0);
        let fresh = report(4.0);
        let outcome = check_reports(&base, &fresh, DEFAULT_WALL_FACTOR);
        assert!(!outcome.strict);
        assert!(outcome.passed(), "{:?}", outcome.violations);
    }

    #[test]
    fn committed_baselines_parse_and_self_compare() {
        // The committed baselines must stay parseable and must pass the
        // gate against themselves (identity is the cheapest sanity property
        // a regression gate can have).
        for name in [
            "BENCH_quickstart.json",
            "BENCH_quickstart_t1.json",
            "BENCH_interval.json",
            "BENCH_interval_t1.json",
            "BENCH_highdim.json",
            "BENCH_highdim_t1.json",
        ] {
            let path = format!("{}/../../bench-out/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("cannot read committed baseline {path}: {e}")
            });
            let rep = snbc_telemetry::Report::parse(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let outcome = check_reports(&rep, &rep, DEFAULT_WALL_FACTOR);
            assert!(outcome.passed(), "{name}: {:?}", outcome.violations);
        }
    }
}
