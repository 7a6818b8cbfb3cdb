//! The `snbc` command-line tool.
//!
//! ```text
//! snbc synth <system-file> [--out <certificate-file>] [--timeout <secs>] [--report <json-file>] [--trace <json-file>]
//! snbc check <system-file> <certificate-file> [--deep]
//! snbc batch <jobs-file> [--cache-dir <dir>] [--report <json-file>] [--require-all-hits]
//!            [--progress <path|->] [--canonical] [--metrics-out <prom-file>]
//!            [--metrics-json <json-file>] [--trace <json-file>]
//! snbc falsify <system-file>
//! snbc example
//! ```
//!
//! `synth` always prints a per-round CEGIS telemetry table (learner epochs,
//! final loss, LMI margins, counterexample count/radius, phase timings);
//! `--report` additionally writes the full `snbc-run-report/1` JSON document
//! described in `docs/TELEMETRY.md`, and `--trace` writes a Chrome
//! trace-event JSON (`snbc-trace/1`, loadable in Perfetto / `about:tracing`)
//! with per-iteration solver events on per-worker tracks plus a self-time
//! profile on stderr — see `docs/TRACING.md`.
//!
//! `batch` streams live `snbc-progress/2` NDJSON to `--progress` (use `-`
//! for stdout; `--canonical` strips wall-clock fields so the stream is
//! byte-identical across thread counts and cache temperature) and writes the
//! run-level `snbc-metrics/2` registry as Prometheus text exposition
//! (`--metrics-out`) or canonical JSON (`--metrics-json`) — see
//! `docs/OBSERVABILITY.md`. All human-facing progress goes to **stderr** so
//! stdout stays clean for `--progress -` and certificate text.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "binary entry point: the terminal is its output")]

use std::io::Write;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use snbc::certificate::SafetyCertificate;
use snbc::falsify::{falsify, FalsifyConfig};
use snbc::{Snbc, SnbcConfig};
use snbc_cli::{parse_system, ControllerSpec, SystemFile, EXAMPLE_SYSTEM};
use snbc_dynamics::benchmarks::{Benchmark, LambdaSpec};
use snbc_metrics::{EventSink, Metrics, Progress, ProgressEvent, Scope};
use snbc_nn::{train_controller, ControllerTraining, Mlp};
use snbc_portfolio::{run_batch, BatchOptions, BatchSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("synth") => {
            let path = it.next().ok_or("synth needs a system file")?;
            let mut out = None;
            let mut report = None;
            let mut trace_out = None;
            let mut timeout = 600u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
                    "--report" => {
                        report = Some(it.next().ok_or("--report needs a path")?.clone())
                    }
                    "--trace" => {
                        trace_out = Some(it.next().ok_or("--trace needs a path")?.clone())
                    }
                    "--timeout" => {
                        timeout = it
                            .next()
                            .ok_or("--timeout needs seconds")?
                            .parse()
                            .map_err(|_| "bad --timeout value".to_string())?
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            synth(
                path,
                out.as_deref(),
                timeout,
                report.as_deref(),
                trace_out.as_deref(),
            )
        }
        Some("check") => {
            let sys_path = it.next().ok_or("check needs a system file")?;
            let cert_path = it.next().ok_or("check needs a certificate file")?;
            let mut deep = false;
            for flag in it {
                match flag.as_str() {
                    "--deep" => deep = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            check(sys_path, cert_path, deep)
        }
        Some("batch") => {
            let path = it.next().ok_or("batch needs a jobs file")?;
            let mut opts = BatchCliOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--cache-dir" => {
                        opts.cache_dir =
                            Some(it.next().ok_or("--cache-dir needs a path")?.clone())
                    }
                    "--report" => {
                        opts.report = Some(it.next().ok_or("--report needs a path")?.clone())
                    }
                    "--progress" => {
                        opts.progress =
                            Some(it.next().ok_or("--progress needs a path or -")?.clone())
                    }
                    "--canonical" => opts.canonical = true,
                    "--metrics-out" => {
                        opts.metrics_out =
                            Some(it.next().ok_or("--metrics-out needs a path")?.clone())
                    }
                    "--metrics-json" => {
                        opts.metrics_json =
                            Some(it.next().ok_or("--metrics-json needs a path")?.clone())
                    }
                    "--trace" => {
                        opts.trace = Some(it.next().ok_or("--trace needs a path")?.clone())
                    }
                    "--require-all-hits" => opts.require_all_hits = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            batch(path, &opts)
        }
        Some("falsify") => {
            let path = it.next().ok_or("falsify needs a system file")?;
            falsify_cmd(path)
        }
        Some("example") => {
            print!("{EXAMPLE_SYSTEM}");
            Ok(())
        }
        _ => Err(
            "usage: snbc synth <file> [--out <path>] [--timeout <secs>] [--report <json>] \
             [--trace <json>] | \
             snbc check <file> <cert> [--deep] | \
             snbc batch <jobs> [--cache-dir <dir>] [--report <json>] [--require-all-hits] \
             [--progress <path|->] [--canonical] [--metrics-out <prom>] \
             [--metrics-json <json>] [--trace <json>] | \
             snbc falsify <file> | snbc example"
                .into(),
        ),
    }
}

fn load(path: &str) -> Result<SystemFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_system(&text).map_err(|e| format!("{path}: {e}"))
}

/// Wraps a parsed description as a [`Benchmark`] so the standard pipeline
/// applies (default network shapes; the controller comes from the file).
fn as_benchmark(sf: &SystemFile) -> (Benchmark, Mlp) {
    let n = sf.system.nvars();
    let controller = match &sf.controller {
        ControllerSpec::Train(law) => {
            let law = law.clone();
            train_controller(
                sf.system.domain().bounding_box(),
                move |x| law.eval(x),
                &ControllerTraining::default(),
            )
        }
        ControllerSpec::Polynomial(p) => {
            // Fit a tiny MLP to the polynomial so the standard pipeline
            // (which abstracts an NN controller) applies unchanged; the
            // Chebyshev fit will recover the polynomial almost exactly.
            let p = p.clone();
            train_controller(
                sf.system.domain().bounding_box(),
                move |x| p.eval(x),
                &ControllerTraining {
                    epochs: 800,
                    ..Default::default()
                },
            )
        }
    };
    let bench = Benchmark {
        name: "cli",
        index: 0,
        system: sf.system.clone(),
        target_law: |_| 0.0, // unused: the controller is supplied directly
        nn_b_hidden: vec![(4 * n).clamp(5, 20)],
        lambda_spec: LambdaSpec::Linear(vec![5]),
        citation: "user-supplied system description",
        d_f: sf.system.field_degree(),
    };
    (bench, controller)
}

fn synth(
    path: &str,
    out: Option<&str>,
    timeout: u64,
    report: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    let sf = load(path)?;
    let (bench, controller) = as_benchmark(&sf);
    let cfg = SnbcConfig {
        time_limit: Duration::from_secs(timeout),
        ..Default::default()
    };
    let mut telemetry = snbc_telemetry::Telemetry::recording();
    if trace_out.is_some() {
        telemetry = telemetry.with_trace(snbc_trace::Trace::recording());
    }
    let outcome = Snbc::new(cfg)
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, &controller);
    // The per-round table and the JSON report are emitted even when synthesis
    // fails — a timeout trace is exactly when the telemetry matters.
    // Human-facing progress goes to stderr (docs/OBSERVABILITY.md): stdout
    // carries only the certificate and result summary, so it pipes clean.
    if let Some(rep) = telemetry.report() {
        eprintln!("{}", snbc_telemetry::render_round_table(&rep));
        if let Some(rp) = report {
            std::fs::write(rp, rep.to_json_string())
                .map_err(|e| format!("cannot write {rp}: {e}"))?;
            eprintln!("run report written to {rp}");
        }
    }
    if let Some(tp) = trace_out {
        if let Some(dump) = telemetry.trace().dump() {
            std::fs::write(tp, dump.to_json_string())
                .map_err(|e| format!("cannot write {tp}: {e}"))?;
            eprintln!("{}", dump.profile_text());
            eprintln!(
                "trace written to {tp} ({} events; load in Perfetto / chrome://tracing)",
                dump.event_count()
            );
        }
    }
    let result = outcome.map_err(|e| e.to_string())?;
    println!("certified after {} iteration(s)", result.iterations);
    println!("B(x) = {}", result.barrier);
    println!("lambda(x) = {}", result.lambda);
    println!(
        "margins: init {:.4}, unsafe {:.4}, flow {:.4}; sigma* = {:.4}",
        result.verification.init.margin,
        result.verification.unsafe_.margin,
        result.verification.flow.margin,
        result.inclusion.sigma_star
    );
    let cert = SafetyCertificate::from_result(&sf.name, &result);
    match out {
        Some(path) => {
            std::fs::write(path, cert.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("certificate written to {path}");
        }
        None => print!("\n{cert}"),
    }
    Ok(())
}

/// `snbc batch` flags, gathered by the argument loop.
#[derive(Default)]
struct BatchCliOptions {
    cache_dir: Option<String>,
    report: Option<String>,
    progress: Option<String>,
    canonical: bool,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
    trace: Option<String>,
    require_all_hits: bool,
}

/// The human progress renderer: one stderr line per finished job, driven by
/// the same event stream the NDJSON writer consumes. Stdout stays clean for
/// `--progress -` and piped report/certificate text.
struct HumanSink {
    total: usize,
    /// Jobs whose (environmental, live-only) `cache-hit` marker was seen.
    hits: Mutex<std::collections::BTreeSet<u64>>,
}

impl EventSink for HumanSink {
    fn event(&self, scope: Scope, event: &ProgressEvent, replayed: bool) {
        // Replayed events re-enact a cached race; the human line reports
        // the job from its live `job-done` summary instead.
        if replayed {
            return;
        }
        fn hits(
            m: &Mutex<std::collections::BTreeSet<u64>>,
        ) -> std::sync::MutexGuard<'_, std::collections::BTreeSet<u64>> {
            match m.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
        match event {
            ProgressEvent::CacheHit => {
                if let Some(job) = scope.job {
                    hits(&self.hits).insert(job);
                }
            }
            ProgressEvent::JobDone {
                name,
                candidates,
                waves,
                winner_index,
                iterations,
                ..
            } => {
                let hit = scope.job.is_some_and(|j| hits(&self.hits).contains(&j));
                let source = if hit {
                    "cache hit".to_string()
                } else {
                    format!("raced {candidates} candidate(s), {waves} wave(s)")
                };
                let verdict = match winner_index {
                    Some(w) => format!(
                        "certified, winner #{w}, {} iteration(s)",
                        iterations.unwrap_or(0)
                    ),
                    None => "NOT certified".to_string(),
                };
                eprintln!(
                    "[{}/{}] {name}: {verdict} ({source})",
                    scope.job.map_or(0, |j| j + 1),
                    self.total
                );
            }
            _ => {}
        }
    }
}

/// Runs a `snbc-batch-jobs/1` file through the portfolio batch service:
/// each job races its configuration grid unless the content-addressed cache
/// (`--cache-dir`) already holds its certificate. `--require-all-hits`
/// turns any live race into an error — the CI warm-cache leg uses it to
/// prove the second run is pure lookups. `--progress` streams per-round
/// NDJSON, `--metrics-out`/`--metrics-json` export the run-level registry,
/// and `--trace` writes the merged Chrome trace with its self-time profile
/// on stderr.
fn batch(path: &str, cli: &BatchCliOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = BatchSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let opts = BatchOptions {
        base: SnbcConfig::default(),
        cache_dir: cli.cache_dir.as_deref().map(std::path::PathBuf::from),
    };
    let resolve = |sys_path: &str| -> Result<(Benchmark, Mlp), String> {
        let sf = load(sys_path)?;
        Ok(as_benchmark(&sf))
    };
    let mut telemetry = snbc_telemetry::Telemetry::recording();
    if cli.trace.is_some() {
        telemetry = telemetry.with_trace(snbc_trace::Trace::recording());
    }
    let total = spec.jobs.len();

    let mut sinks = vec![Progress::custom(Box::new(HumanSink {
        total,
        hits: Mutex::new(std::collections::BTreeSet::new()),
    }))];
    if let Some(target) = cli.progress.as_deref() {
        let out: Box<dyn Write + Send> = if target == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(
                std::fs::File::create(target)
                    .map_err(|e| format!("cannot create {target}: {e}"))?,
            )
        };
        sinks.push(Progress::writer(out, cli.canonical));
    }
    let progress = Progress::fanout(sinks);
    let metrics = Metrics::recording();

    let outcome =
        run_batch(&spec, &opts, &resolve, &telemetry, &progress, &metrics).map_err(|e| e.to_string())?;

    if let Some(rep) = telemetry.report() {
        eprintln!("{}", snbc_telemetry::render_round_table(&rep));
    }
    eprintln!(
        "batch done: {} job(s), {} cache hit(s), {} raced, {} certified",
        total,
        outcome.hits(),
        outcome.misses(),
        outcome.jobs.iter().filter(|j| j.result.certified).count()
    );
    if let Some(mp) = cli.metrics_out.as_deref() {
        let exposition = snbc_metrics::prom::to_prometheus(&metrics.snapshot(false));
        std::fs::write(mp, exposition).map_err(|e| format!("cannot write {mp}: {e}"))?;
        eprintln!("metrics exposition written to {mp}");
    }
    if let Some(mj) = cli.metrics_json.as_deref() {
        std::fs::write(mj, metrics.snapshot(true).to_json_string())
            .map_err(|e| format!("cannot write {mj}: {e}"))?;
        eprintln!("canonical metrics snapshot written to {mj}");
    }
    if let Some(tp) = cli.trace.as_deref() {
        if let Some(dump) = telemetry.trace().dump() {
            std::fs::write(tp, dump.to_json_string())
                .map_err(|e| format!("cannot write {tp}: {e}"))?;
            // The merged self-time profile across every job in the batch.
            eprintln!("{}", dump.profile_text());
            eprintln!(
                "trace written to {tp} ({} events; load in Perfetto / chrome://tracing)",
                dump.event_count()
            );
        }
    }
    if let Some(rp) = cli.report.as_deref() {
        std::fs::write(rp, outcome.report_json())
            .map_err(|e| format!("cannot write {rp}: {e}"))?;
        eprintln!("batch report written to {rp}");
    }
    if let Some(job) = outcome.jobs.iter().find(|j| !j.result.certified) {
        return Err(format!("job `{}` did not certify", job.name));
    }
    if cli.require_all_hits && outcome.misses() > 0 {
        return Err(format!(
            "--require-all-hits: {} job(s) missed the cache",
            outcome.misses()
        ));
    }
    Ok(())
}

fn check(sys_path: &str, cert_path: &str, deep: bool) -> Result<(), String> {
    let sf = load(sys_path)?;
    let text = std::fs::read_to_string(cert_path)
        .map_err(|e| format!("cannot read {cert_path}: {e}"))?;
    let cert: SafetyCertificate = text.parse().map_err(|e| format!("{cert_path}: {e}"))?;
    if cert.system != sf.name {
        return Err(format!(
            "certificate is for system `{}`, file describes `{}`",
            cert.system, sf.name
        ));
    }
    if cert.validate(&sf.system, deep) {
        println!(
            "certificate VALID for `{}`{}",
            sf.name,
            if deep { " (LMI + interval re-check)" } else { " (LMI re-check)" }
        );
        Ok(())
    } else {
        Err("certificate did NOT validate".into())
    }
}

fn falsify_cmd(path: &str) -> Result<(), String> {
    let sf = load(path)?;
    let (bench, controller) = as_benchmark(&sf);
    match falsify(&bench.system, |x| controller.forward(x), &FalsifyConfig::default()) {
        Some(cex) => {
            println!("UNSAFE: trajectory from {:?} enters the unsafe set", cex.initial);
            println!(
                "  reaches {:?} after {} steps",
                cex.trajectory.states[cex.entry_step], cex.entry_step
            );
            Err("system falsified; no barrier certificate can exist".into())
        }
        None => {
            println!("no unsafe trajectory found by simulation (evidence, not proof)");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn check_rejects_unknown_flags_before_reading_files() {
        for bad in ["--Deep", "--bogus", "extra"] {
            let err = run(&args(&["check", "no-such.sys", "no-such.cert", bad])).unwrap_err();
            assert_eq!(err, format!("unknown flag {bad}"));
        }
        let err =
            run(&args(&["check", "no-such.sys", "no-such.cert", "--deep", "--deep2"])).unwrap_err();
        assert_eq!(err, "unknown flag --deep2");
        // A well-formed command line gets as far as reading the system file.
        let err = run(&args(&["check", "no-such.sys", "no-such.cert", "--deep"])).unwrap_err();
        assert!(err.starts_with("cannot read no-such.sys"), "{err}");
    }
}
