//! `snbc-bench` — the benchmark regression gate.
//!
//! ```text
//! snbc-bench check  [--suite quickstart|interval|portfolio|highdim] [--baseline-dir bench-out]
//!                   [--wall-factor 10] [--trace <json-file>]
//! snbc-bench record [--suite quickstart|interval|portfolio|highdim] [--output <json-file>]
//! ```
//!
//! `check` re-runs a benchmark suite in-process with a recording telemetry
//! sink, then compares the fresh `snbc-run-report/1` document against the
//! committed baseline with [`snbc_bench::check::check_reports`]:
//!
//! * under `SNBC_THREADS=1` the baseline is `BENCH_<suite>_t1.json` and
//!   the comparison is **strict** — identical span tree and counters, since
//!   the single-thread pipeline is deterministic;
//! * otherwise the baseline is `BENCH_<suite>.json` and only the outcome
//!   and a loose wall-clock factor are gated.
//!
//! `record` runs the same suite and *writes* the fresh report — the
//! canonical way to regenerate the committed baselines after an intentional
//! perf or pipeline change (see `EXPERIMENTS.md`). Without `--output` the
//! report goes to `bench-out/BENCH_<suite>.json`, or `..._t1.json` when the
//! run resolves to one worker thread.
//!
//! Suites:
//!
//! * `quickstart` (default) — the quickstart synthesis (benchmark C3,
//!   default configuration — the exact run that produced the committed
//!   baselines, see `EXPERIMENTS.md`).
//! * `interval` — the quickstart synthesis **plus** the independent
//!   δ-complete interval re-check of the certificate
//!   ([`snbc::recheck_with_intervals`]), exercising the parallel
//!   branch-and-bound wave engine; the re-check must prove all three
//!   Theorem 1 conditions, and its `boxes` counters are part of the strict
//!   baseline.
//! * `portfolio` — two identical C3 racing jobs run through
//!   [`snbc_portfolio::run_batch`] twice against a scratch cache
//!   (`target/bench-portfolio-cache`, wiped first). The cold leg must race
//!   job 0 and serve job 1 from the just-stored entry; the warm leg must be
//!   all cache hits; both legs' `snbc-batch-report/1` documents must be
//!   byte-identical. The strict `_t1` baseline pins the deterministic
//!   `race_winner_index`, `candidates_launched`, `waves`, and
//!   `cache_hit`/`cache_miss` counters. Hit/miss, candidate, and wave
//!   accounting is gated from the per-leg `snbc-metrics/2` snapshot (the
//!   batch report deliberately carries none of it), and the canonical
//!   snapshots of the cold and warm legs must be byte-identical.
//! * `highdim` — benchmark C10 (n = 6) with its Table 1 configuration
//!   ([`snbc_bench::snbc_config_for`]), the cheapest row that takes the
//!   Lyapunov warm start. The strict baseline pins the `warm-start` span
//!   beside `approx` and its `epochs`/`samples` counters, on top of the
//!   learner, IPM, Cholesky and LP counters every suite pins.
//!
//! `--trace` additionally attaches an `snbc-trace` sink and writes the
//! Chrome trace-event JSON of the gate run (handy for inspecting what the
//! gate itself measured; see `docs/TRACING.md`).
//!
//! Exit codes: `0` pass, `1` regression found, `2` usage or I/O error.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "binary entry point: the terminal is its output")]

use std::process::ExitCode;

use snbc::{recheck_with_intervals, Snbc, SnbcConfig};
use snbc_bench::check::{check_reports, render_outcome, report_threads, DEFAULT_WALL_FACTOR};
use snbc_dynamics::benchmarks;
use snbc_interval::BranchAndBound;
use snbc_metrics::{Metrics, MetricsSnapshot, Progress};
use snbc_nn::{train_controller, ControllerTraining};
use snbc_portfolio::{run_batch, BatchOptions, BatchSpec};
use snbc_telemetry::Telemetry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: snbc-bench check [--suite quickstart|interval|portfolio|highdim] \
                     [--baseline-dir <dir>] [--wall-factor <f>] [--trace <json>]\n   \
                     or: snbc-bench record [--suite quickstart|interval|portfolio|highdim] \
                     [--output <json>]";

fn parse_suite(name: &str) -> Result<String, String> {
    if ["quickstart", "interval", "portfolio", "highdim"].contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "unknown suite `{name}` (expected quickstart, interval, portfolio, or highdim)"
        ))
    }
}

/// The `highdim` suite's wall-clock budget: far beyond the run, so its
/// verdict depends on the round budget alone and stays deterministic.
const HIGHDIM_TIME_LIMIT: std::time::Duration = std::time::Duration::from_secs(3600);

fn run(args: &[String]) -> Result<bool, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {
            let mut suite = "quickstart".to_string();
            let mut baseline_dir = "bench-out".to_string();
            let mut wall_factor = DEFAULT_WALL_FACTOR;
            let mut trace_out: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--suite" => suite = parse_suite(it.next().ok_or("--suite needs a name")?)?,
                    "--baseline-dir" => {
                        baseline_dir = it.next().ok_or("--baseline-dir needs a path")?.clone()
                    }
                    "--wall-factor" => {
                        wall_factor = it
                            .next()
                            .ok_or("--wall-factor needs a number")?
                            .parse()
                            .map_err(|_| "bad --wall-factor value".to_string())?
                    }
                    "--trace" => {
                        trace_out = Some(it.next().ok_or("--trace needs a path")?.clone())
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            check(&suite, &baseline_dir, wall_factor, trace_out.as_deref())
        }
        Some("record") => {
            let mut suite = "quickstart".to_string();
            let mut output: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--suite" => suite = parse_suite(it.next().ok_or("--suite needs a name")?)?,
                    "--output" => output = Some(it.next().ok_or("--output needs a path")?.clone()),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            record(&suite, output.as_deref())
        }
        _ => Err(USAGE.into()),
    }
}

/// Runs the given suite and returns its recording telemetry sink plus a
/// success flag (`false` when the synthesis or, for the `interval` suite,
/// the δ-complete re-check failed). The sink is created *after* controller
/// training, matching `examples/quickstart.rs`, so the report's wall clock
/// covers the synthesis pipeline only.
fn run_suite(suite: &str, with_trace: bool) -> (Telemetry, bool) {
    if suite == "portfolio" {
        return run_portfolio_suite(with_trace);
    }
    // Reproduce the exact quickstart run (examples/quickstart.rs) in-process,
    // or C10 with its Table 1 configuration for the `highdim` suite.
    let (bench, cfg) = if suite == "highdim" {
        let bench = benchmarks::benchmark(10);
        let cfg = snbc_bench::snbc_config_for(&bench, HIGHDIM_TIME_LIMIT);
        (bench, cfg)
    } else {
        (benchmarks::benchmark(3), SnbcConfig::default())
    };
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );
    let mut telemetry = Telemetry::recording();
    if with_trace {
        telemetry = telemetry.with_trace(snbc_trace::Trace::recording());
    }
    let result = Snbc::new(cfg)
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, &controller);
    let res = match &result {
        Ok(res) => res,
        Err(e) => {
            eprintln!("[snbc-bench] fresh {suite} run FAILED: {e}");
            return (telemetry, false);
        }
    };
    // The interval suite additionally re-proves the certificate with the
    // δ-complete branch-and-bound — the parallel verification tail this
    // gate exists to keep fast. Its spans/counters land in the same report.
    if suite == "interval" {
        let ok = recheck_with_intervals(
            &res.barrier,
            &res.lambda,
            &bench.system,
            &res.inclusion,
            &BranchAndBound::default(),
            &telemetry,
        );
        if !ok {
            eprintln!("[snbc-bench] interval re-check FAILED to prove the certificate");
            return (telemetry, false);
        }
        // The quickstart certificate holds with wide margins, so the
        // re-check above discharges in a handful of boxes and never reaches
        // the wave engine's parallel regime. This squared-circle enclosure
        // — maximal interval dependency, tens of thousands of boxes — keeps
        // the parallel branch-and-bound itself under the regression gate:
        // its deterministic `boxes` count is part of the strict baseline,
        // and its `bb-boxes` spans show the per-worker fan-out in `--trace`
        // output (the worked example in docs/PERFORMANCE.md).
        let stress: snbc_poly::Polynomial =
            "(x0^2 + x1^2 - 1)^2 + 0.0001".parse().expect("fixed stress polynomial");
        let dom = vec![
            snbc_interval::Interval::new(-1.0, 1.0),
            snbc_interval::Interval::new(-1.0, 1.0),
        ];
        let _s = telemetry.span("interval-stress");
        let bb = BranchAndBound {
            tightening: snbc_interval::RangeTightening::Bernstein,
            ..Default::default()
        };
        let rep = bb.check_at_least_traced(&stress, &dom, &[], 0.0, telemetry.trace());
        let boxes = rep.boxes_processed as u64;
        if boxes == 0 {
            eprintln!("[snbc-bench] interval stress check processed no boxes");
            return (telemetry, false);
        }
        telemetry.add("boxes", boxes);
        telemetry.add("max_depth", rep.max_depth as u64);
        let holds = rep.verdict == snbc_interval::Verdict::Holds;
        telemetry.flag("holds", holds);
        if !holds {
            eprintln!("[snbc-bench] interval stress check FAILED: {:?}", rep.verdict);
            return (telemetry, false);
        }
    }
    (telemetry, true)
}

/// Two identical C3 racing jobs, run through the batch service twice
/// against a freshly wiped scratch cache. The jobs differ only in name, so
/// they share one content-addressed key: the cold leg must race job 0 and
/// serve job 1 from the entry stored moments earlier (a repeated job never
/// re-enters CEGIS), the warm leg must be pure lookups, and the two
/// `snbc-batch-report/1` documents must be byte-identical.
const PORTFOLIO_JOBS: &str = r#"{
    "schema": "snbc-batch-jobs/1",
    "jobs": [
        {"name": "c3-a", "benchmark": 3, "grid": {"seeds": [1, 2]},
         "max_iterations": 12, "controller_epochs": 300},
        {"name": "c3-b", "benchmark": 3, "grid": {"seeds": [1, 2]},
         "max_iterations": 12, "controller_epochs": 300}
    ]
}"#;

fn run_portfolio_suite(with_trace: bool) -> (Telemetry, bool) {
    let mut telemetry = Telemetry::recording();
    if with_trace {
        telemetry = telemetry.with_trace(snbc_trace::Trace::recording());
    }
    let cache_dir = std::path::Path::new("target/bench-portfolio-cache");
    if cache_dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(cache_dir) {
            eprintln!("[snbc-bench] cannot wipe {}: {e}", cache_dir.display());
            return (telemetry, false);
        }
    }
    let spec = BatchSpec::parse(PORTFOLIO_JOBS).expect("fixed jobs document parses");
    let opts = BatchOptions {
        base: SnbcConfig::default(),
        cache_dir: Some(cache_dir.to_path_buf()),
    };
    let resolve = |path: &str| -> Result<(benchmarks::Benchmark, snbc_nn::Mlp), String> {
        Err(format!("portfolio suite uses benchmark jobs only, got `{path}`"))
    };
    struct Leg {
        outcome: snbc_portfolio::BatchOutcome,
        canonical: MetricsSnapshot,
        full: MetricsSnapshot,
    }
    let run_leg = |leg: &str| -> Option<Leg> {
        let metrics = Metrics::recording();
        match run_batch(
            &spec,
            &opts,
            &resolve,
            &telemetry,
            &Progress::off(),
            &metrics,
        ) {
            Ok(outcome) => Some(Leg {
                outcome,
                canonical: metrics.snapshot(true),
                full: metrics.snapshot(false),
            }),
            Err(e) => {
                eprintln!("[snbc-bench] {leg} batch leg FAILED: {e}");
                None
            }
        }
    };
    let Some(cold) = run_leg("cold") else {
        return (telemetry, false);
    };
    let Some(warm) = run_leg("warm") else {
        return (telemetry, false);
    };
    let mut ok = true;
    if !cold.outcome.jobs.iter().all(|j| j.result.certified) {
        eprintln!("[snbc-bench] portfolio cold leg: not every job certified");
        ok = false;
    }
    // Hit/miss accounting is gated from the `snbc-metrics/2` snapshot, not
    // re-derived from the batch reports (the report schema carries neither).
    let hits = |leg: &Leg| (leg.full.counter("cache_hit"), leg.full.counter("cache_miss"));
    if hits(&cold) != (1, 1) {
        let (h, m) = hits(&cold);
        eprintln!(
            "[snbc-bench] portfolio cold leg: expected 1 hit (repeated job) + 1 miss, got {h} + {m}"
        );
        ok = false;
    }
    if hits(&warm) != (2, 0) {
        let (h, m) = hits(&warm);
        eprintln!(
            "[snbc-bench] portfolio warm leg: expected 2 pure cache hits, got {h} + {m}"
        );
        ok = false;
    }
    if cold.full.counter("candidates") != 4 || cold.full.counter("waves") < 4 {
        eprintln!(
            "[snbc-bench] portfolio cold leg: expected 2 candidates and >=2 waves per job, \
             got {} candidate(s) over {} wave(s)",
            cold.full.counter("candidates"),
            cold.full.counter("waves")
        );
        ok = false;
    }
    if cold.outcome.report_json() != warm.outcome.report_json() {
        eprintln!("[snbc-bench] portfolio batch reports differ between cold and warm legs");
        ok = false;
    }
    // The cold/warm determinism contract, metric-side: the canonical
    // (environment-free) snapshots must be byte-identical — a cache replay
    // folds exactly the events the live race recorded.
    if cold.canonical.to_json_string() != warm.canonical.to_json_string() {
        eprintln!(
            "[snbc-bench] portfolio canonical metrics snapshots differ between cold and warm legs"
        );
        ok = false;
    }
    (telemetry, ok)
}

fn check(
    suite: &str,
    baseline_dir: &str,
    wall_factor: f64,
    trace_out: Option<&str>,
) -> Result<bool, String> {
    let threads = snbc_par::threads();
    let baseline_name = if threads == 1 {
        format!("BENCH_{suite}_t1.json")
    } else {
        format!("BENCH_{suite}.json")
    };
    let baseline_path = format!("{baseline_dir}/{baseline_name}");
    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = snbc_telemetry::Report::parse(&text)
        .map_err(|e| format!("{baseline_path}: {e}"))?;
    eprintln!(
        "[snbc-bench] baseline {baseline_path} (threads={}), fresh run with threads={threads}",
        report_threads(&baseline).map_or("?".to_string(), |t| t.to_string()),
    );

    let (telemetry, ran_ok) = run_suite(suite, trace_out.is_some());
    if let (Some(tp), Some(dump)) = (trace_out, telemetry.trace().dump()) {
        std::fs::write(tp, dump.to_json_string())
            .map_err(|e| format!("cannot write {tp}: {e}"))?;
        eprintln!("[snbc-bench] trace ({} events) -> {tp}", dump.event_count());
        // The merged self-time tree — the first stop of the tuning workflow
        // in docs/PERFORMANCE.md — so a gate run doubles as a profile.
        eprintln!("{}", dump.profile_text());
    }
    let fresh = telemetry
        .report()
        .ok_or("fresh run produced no telemetry report")?;

    let outcome = check_reports(&baseline, &fresh, wall_factor);
    print!("{}", render_outcome(suite, &outcome));
    Ok(outcome.passed() && ran_ok)
}

fn record(suite: &str, output: Option<&str>) -> Result<bool, String> {
    let threads = snbc_par::threads();
    let default_name = if threads == 1 {
        format!("bench-out/BENCH_{suite}_t1.json")
    } else {
        format!("bench-out/BENCH_{suite}.json")
    };
    let path = output.unwrap_or(&default_name);
    let (telemetry, ran_ok) = run_suite(suite, false);
    if !ran_ok {
        return Ok(false);
    }
    let report = telemetry
        .report()
        .ok_or("run produced no telemetry report")?;
    std::fs::write(path, report.to_json_string())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "[snbc-bench] recorded {suite} baseline (threads={threads}, wall {:.3}s) -> {path}",
        report.root.elapsed_s
    );
    Ok(true)
}
