//! The three workloads: Table 1 rows (`lowdim`, `highdim`) driven through
//! `Snbc::engine` / `CegisEngine::step`, and a jobs document served cold then
//! warm through `run_batch`. Every certificate is checked through the
//! `snbc-certificate v1` text round-trip and `SafetyCertificate::validate`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use snbc::{CegisStatus, SafetyCertificate, Snbc, SnbcConfig};
use snbc_dynamics::benchmarks::{self, Benchmark};
use snbc_dynamics::Ccds;
use snbc_metrics::{Metrics, Progress};
use snbc_nn::{train_controller, ControllerTraining, Mlp};
use snbc_portfolio::{
    run_batch, BatchOptions, BatchOutcome, BatchSpec, CacheKey, CertificateCache, JobSource,
};
use snbc_telemetry::{Report, Telemetry, Trace};

use crate::layers::{median, ratio, Spans};

/// Wall-clock budget per row: far beyond any run, so verdicts depend on the
/// round budget alone and stay deterministic.
const TIME_LIMIT: Duration = Duration::from_secs(7200);

/// Counters of the `snbc-metrics` registry summed over a pass. They are
/// exact under the determinism contract, so each is also a same-work pin.
const REGISTRY_COUNTERS: [&str; 7] = [
    "rounds",
    "cex_points",
    "reseeds",
    "boxes",
    "interval_fallbacks",
    "candidates",
    "waves",
];

/// Rows whose Table 1 seeds (synthesis 1, controller 7) are kept whatever
/// `--seed` says. C4 exhausts its 25 rounds with them (the defect `lowdim`
/// records), while most other seeds certify it in 1–7 rounds; C13 needs one
/// round and a 3.9 s check with them, while other seeds take 1 to 4 rounds
/// and 2.7–8.5 s checks. Deriving either would make the workload's cost
/// bimodal across seeds.
const ANCHORED_ROWS: [usize; 2] = [4, 13];

/// The batch workload's benchmarks: quick certifiers, so a job is dominated
/// by controller training and racing rather than by one long failure.
const BATCH_ROWS: [usize; 3] = [3, 6, 8];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 rows C1–C8 (n ≤ 4): learner-bound.
    Lowdim,
    /// Table 1 rows C9–C13 (n = 5…9): engine- and SDP-bound.
    Highdim,
    /// A jobs document served cold, then warm, through the certificate cache.
    Batch,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lowdim" => Some(Workload::Lowdim),
            "highdim" => Some(Workload::Highdim),
            "batch" => Some(Workload::Batch),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lowdim => "lowdim",
            Workload::Highdim => "highdim",
            Workload::Batch => "batch",
        }
    }
}

/// Seeds in a range where the program's own `seed + offset` arithmetic
/// cannot overflow.
fn base_seed(seed: u64) -> u64 {
    seed % (1 << 40)
}

/// `(row, controller seed, synthesis seed)` for each row of a table
/// workload. Seed 1 reproduces Table 1 (synthesis 1, controller 7).
pub fn row_plan(w: Workload, seed: u64) -> Vec<(usize, u64, u64)> {
    let rows = match w {
        Workload::Lowdim => 1..=8,
        Workload::Highdim => 9..=13,
        Workload::Batch => return Vec::new(),
    };
    let s = base_seed(seed);
    rows.map(|k| {
        if ANCHORED_ROWS.contains(&k) {
            (k, 7, 1)
        } else {
            (k, s + 6, s)
        }
    })
    .collect()
}

/// A Table 1 row ready for synthesis.
pub struct Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Its pre-trained NN controller.
    pub controller: Mlp,
    /// The synthesis seed (`SnbcConfig::seed`).
    pub synth_seed: u64,
}

/// Trains every row's controller: the table workloads' set-up.
pub fn prepare_rows(w: Workload, seed: u64, spans: &mut Spans) -> Vec<Row> {
    row_plan(w, seed)
        .into_iter()
        .map(|(k, controller_seed, synth_seed)| {
            let bench = benchmarks::benchmark(k);
            let training = ControllerTraining {
                seed: controller_seed,
                ..Default::default()
            };
            let controller = spans.time("nn.train", bench.name, || {
                train_controller(
                    bench.system.domain().bounding_box(),
                    bench.target_law,
                    &training,
                )
            });
            Row {
                bench,
                controller,
                synth_seed,
            }
        })
        .collect()
}

/// What one pass over a workload did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time until every row or job had a checked verdict.
    pub e2e_s: f64,
    /// Rows or jobs attempted.
    pub attempted: usize,
    /// Rows or jobs whose certificate passed the checks.
    pub certified: usize,
    /// Failed operations and output checks.
    pub errors: Vec<String>,
    /// Same-work pins: counts the determinism contract makes exact.
    pub pins: BTreeMap<String, u64>,
    /// Program span trees (traced passes only).
    pub reports: Vec<Report>,
    /// Registry counters summed over the pass.
    pub registry: BTreeMap<&'static str, u64>,
    /// Per-layer values only this workload can produce, by metric name.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn add_registry(&mut self, snap: &snbc_metrics::MetricsSnapshot) {
        for c in REGISTRY_COUNTERS {
            *self.registry.entry(c).or_default() += snap.counter(c);
        }
    }

    fn pin_registry(&mut self) {
        for (c, v) in &self.registry {
            self.pins.insert(format!("registry.{c}"), *v);
        }
    }
}

fn telemetry(trace: Option<&Trace>) -> Telemetry {
    trace.map_or_else(Telemetry::off, |t| {
        Telemetry::recording().with_trace(t.clone())
    })
}

/// Parses a certificate text, requires it to print back to the same text,
/// and re-validates it against `system` (the shallow LMI re-check of
/// `snbc check`).
fn check_certificate(
    system: &Ccds,
    text: &str,
    item: &str,
    spans: &mut Spans,
) -> Result<(), String> {
    let cert: SafetyCertificate = spans
        .time("check.parse", item, || text.parse())
        .map_err(|e| format!("{item}: {e}"))?;
    if cert.to_string() != text {
        return Err(format!("{item}: certificate text does not round-trip"));
    }
    if !spans.time("check.validate", item, || cert.validate(system, false)) {
        return Err(format!("{item}: validate rejects the certificate"));
    }
    Ok(())
}

/// Synthesizes every row one after another, then checks each certificate.
pub fn run_rows(rows: &[Row], trace: Option<&Trace>, spans: &mut Spans) -> Pass {
    let mut pass = Pass::default();
    let mut certificates = Vec::new();
    let t0 = Instant::now();
    for row in rows {
        let name = row.bench.name;
        pass.attempted += 1;
        let tele = telemetry(trace);
        let metrics = Metrics::recording();
        let mut cfg = snbc_bench::snbc_config_for(&row.bench, TIME_LIMIT);
        cfg.seed = row.synth_seed;
        let snbc = Snbc::new(cfg)
            .with_telemetry(tele.clone())
            .with_metrics(metrics.clone());
        let mut engine =
            match spans.time("engine", name, || snbc.engine(&row.bench, &row.controller)) {
                Ok(engine) => engine,
                Err(e) => {
                    pass.errors.push(format!("{name}: {e}"));
                    continue;
                }
            };
        let status = loop {
            let status = spans.time("step", name, || engine.step());
            if status.is_terminal() {
                break status;
            }
        };
        pass.pins
            .insert(format!("{name}.rounds"), engine.rounds() as u64);
        pass.pins.insert(
            format!("{name}.certified"),
            u64::from(status.is_certified()),
        );
        pass.add_registry(&metrics.snapshot(true));
        pass.reports.extend(tele.report());
        match status {
            CegisStatus::Certified(result) => {
                certificates.push((
                    row,
                    SafetyCertificate::from_result(name, &result).to_string(),
                ));
            }
            CegisStatus::TimedOut { elapsed } => {
                pass.errors
                    .push(format!("{name}: timed out after {elapsed:.0} s"));
            }
            _ => {}
        }
    }
    for (row, text) in certificates {
        match check_certificate(&row.bench.system, &text, row.bench.name, spans) {
            Ok(()) => pass.certified += 1,
            Err(e) => pass.errors.push(e),
        }
    }
    pass.e2e_s = t0.elapsed().as_secs_f64();
    pass.pin_registry();
    pass
}

/// The batch workload's `snbc-batch-jobs/1` document: a racing job on each of
/// C3, C6 and C8 over a 4-seed grid derived from `seed` (seed 1 races seeds
/// 1–4) with a 12-round budget, every job submitted twice.
pub fn jobs_document(seed: u64) -> String {
    let first = base_seed(seed.wrapping_sub(1)) * 4 + 1;
    let seeds: Vec<String> = (first..first + 4).map(|s| s.to_string()).collect();
    let jobs: Vec<String> = ["a", "b"]
        .iter()
        .flat_map(|copy| {
            let seeds = seeds.join(", ");
            BATCH_ROWS.iter().map(move |k| {
                format!(
                    r#"    {{ "name": "c{k}-{copy}", "benchmark": {k}, "grid": {{ "seeds": [{seeds}] }}, "max_iterations": 12 }}"#
                )
            })
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"snbc-batch-jobs/1\",\n  \"jobs\": [\n{}\n  ]\n}}\n",
        jobs.join(",\n")
    )
}

/// Removes the cache directory and recreates it empty.
fn wipe(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the certificate cache");
    }
    std::fs::create_dir_all(dir).expect("create the certificate cache");
}

/// The batch workload's set-up: build and parse the jobs document and wipe
/// the cache. Repeated `reps` times; returns the spec and the median time.
pub fn prepare_batch(seed: u64, cache_dir: &Path, reps: usize) -> (BatchSpec, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut spec = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let parsed =
            BatchSpec::parse(&jobs_document(seed)).expect("the generated jobs document parses");
        wipe(cache_dir);
        times.push(t0.elapsed().as_secs_f64());
        spec = Some(parsed);
    }
    (
        spec.expect("at least one set-up repetition"),
        median(&times),
    )
}

/// One served document: the outcome, its canonical metrics snapshot and its
/// span tree.
struct Served {
    outcome: BatchOutcome,
    snapshot: snbc_metrics::MetricsSnapshot,
    report: Option<Report>,
}

fn serve(
    spec: &BatchSpec,
    opts: &BatchOptions,
    trace: Option<&Trace>,
    spans: &mut Spans,
    name: &'static str,
) -> Result<Served, String> {
    let tele = telemetry(trace);
    let metrics = Metrics::recording();
    let resolve = |path: &str| {
        Err(format!(
            "system file `{path}` is not part of this benchmark"
        ))
    };
    let outcome = spans
        .time(name, "batch", || {
            run_batch(spec, opts, &resolve, &tele, &Progress::off(), &metrics)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(Served {
        outcome,
        snapshot: metrics.snapshot(true),
        report: tele.report(),
    })
}

/// Entries and bytes stored in the cache directory.
fn cache_usage(dir: &Path) -> (u64, u64) {
    fn bytes(p: &Path) -> u64 {
        match std::fs::read_dir(p) {
            Ok(entries) => entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum(),
            Err(_) => 0,
        }
    }
    let entries = std::fs::read_dir(dir)
        .map(|it| it.flatten().filter(|e| e.path().is_dir()).count() as u64)
        .unwrap_or(0);
    (entries, bytes(dir))
}

/// Serves the jobs document against an empty cache (cold), then again
/// (warm), then checks every job's certificate and the cold/warm invariants.
pub fn run_batch_pass(
    spec: &BatchSpec,
    cache_dir: &Path,
    trace: Option<&Trace>,
    spans: &mut Spans,
) -> Pass {
    let mut pass = Pass::default();
    wipe(cache_dir);
    let opts = BatchOptions {
        base: SnbcConfig::default(),
        cache_dir: Some(cache_dir.to_path_buf()),
    };
    let t0 = Instant::now();
    let cold = serve(spec, &opts, trace, spans, "batch.cold");
    let cold_s = t0.elapsed().as_secs_f64();
    let warm = serve(spec, &opts, trace, spans, "batch.warm");
    let warm_s = t0.elapsed().as_secs_f64() - cold_s;
    let (cold, warm) = match (cold, warm) {
        (Ok(c), Ok(w)) => (c, w),
        (c, w) => {
            pass.attempted = 2 * spec.jobs.len();
            pass.errors.extend(c.err().into_iter().chain(w.err()));
            return pass;
        }
    };
    let mut verdicts: HashMap<String, bool> = HashMap::new();
    for served in [&cold, &warm] {
        for job in &served.outcome.jobs {
            pass.attempted += 1;
            let Some(text) = job
                .result
                .certificate
                .as_deref()
                .filter(|_| job.result.certified)
            else {
                pass.errors.push(format!("{}: not certified", job.name));
                continue;
            };
            // Cold and warm serve the same bytes; each distinct text is checked once.
            let ok = match verdicts.get(text) {
                Some(&ok) => ok,
                None => {
                    let system = job_bench(spec, &job.name).system;
                    let ok = match check_certificate(&system, text, &job.name, spans) {
                        Ok(()) => true,
                        Err(e) => {
                            pass.errors.push(e);
                            false
                        }
                    };
                    verdicts.insert(text.to_string(), ok);
                    ok
                }
            };
            pass.certified += usize::from(ok);
        }
    }
    pass.e2e_s = t0.elapsed().as_secs_f64();

    let jobs = spec.jobs.len();
    let expect = |what: &str, got: usize, want: usize, errors: &mut Vec<String>| {
        if got != want {
            errors.push(format!("{what}: {got}, expected {want}"));
        }
    };
    expect("cold hits", cold.outcome.hits(), jobs / 2, &mut pass.errors);
    expect(
        "cold misses",
        cold.outcome.misses(),
        jobs / 2,
        &mut pass.errors,
    );
    expect("warm hits", warm.outcome.hits(), jobs, &mut pass.errors);
    expect("warm misses", warm.outcome.misses(), 0, &mut pass.errors);
    if cold.outcome.report_json() != warm.outcome.report_json() {
        pass.errors
            .push("cold and warm snbc-batch-report/1 documents differ".to_string());
    }
    if cold.snapshot.to_json_string() != warm.snapshot.to_json_string() {
        pass.errors
            .push("cold and warm canonical snbc-metrics/1 snapshots differ".to_string());
    }

    let (stores, bytes) = cache_usage(cache_dir);
    let hits = cold.outcome.hits() + warm.outcome.hits();
    let misses = cold.outcome.misses() + warm.outcome.misses();
    pass.add_registry(&cold.snapshot);
    let winner_rounds: usize = cold
        .outcome
        .jobs
        .iter()
        .filter_map(|j| j.result.iterations)
        .sum();
    for job in &cold.outcome.jobs {
        let r = &job.result;
        pass.pins
            .insert(format!("{}.waves", job.name), r.waves as u64);
        pass.pins.insert(
            format!("{}.winner", job.name),
            r.winner_index.map_or(u64::MAX, |i| i as u64),
        );
        pass.pins.insert(
            format!("{}.rounds", job.name),
            r.iterations.map_or(0, |i| i as u64),
        );
    }
    pass.pins.insert("cache.hits".to_string(), hits as u64);
    pass.pins.insert("cache.misses".to_string(), misses as u64);
    pass.pins.insert("cache.stores".to_string(), stores);
    pass.pin_registry();

    let candidate_rounds = pass.registry["rounds"] as f64;
    pass.extra = BTreeMap::from([
        ("batch.cold_s", cold_s),
        ("batch.warm_s", warm_s),
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
        ("cache.stores", stores as f64),
        ("cache.bytes", bytes as f64),
        ("race.candidate_rounds", candidate_rounds),
        (
            "race.useful_frac",
            ratio(winner_rounds as f64, candidate_rounds),
        ),
    ]);
    pass.reports
        .extend(cold.report.into_iter().chain(warm.report));
    pass
}

fn job_bench(spec: &BatchSpec, job: &str) -> Benchmark {
    let spec = spec
        .jobs
        .iter()
        .find(|j| j.name == job)
        .expect("outcome names a job of the spec");
    match spec.source {
        JobSource::Benchmark(k) => benchmarks::benchmark(k),
        JobSource::System(_) => unreachable!("the generated document names benchmarks only"),
    }
}

/// Replays a warm hit's path from outside for the first submission of each
/// job — controller retraining, `CacheKey::new`, `CertificateCache::lookup`
/// — so the hit can be split into those three parts.
pub fn replay_hits(spec: &BatchSpec, cache_dir: &Path, spans: &mut Spans) -> Vec<String> {
    let cache = CertificateCache::new(cache_dir);
    let base = SnbcConfig::default();
    let mut errors = Vec::new();
    for job in spec.jobs.iter().take(BATCH_ROWS.len()) {
        let bench = job_bench(spec, &job.name);
        let training = ControllerTraining {
            epochs: job
                .controller_epochs
                .unwrap_or(ControllerTraining::default().epochs),
            ..Default::default()
        };
        let controller = spans.time("nn.train", &job.name, || {
            train_controller(
                bench.system.domain().bounding_box(),
                bench.target_law,
                &training,
            )
        });
        let mut cfg = base.clone();
        if let Some(iters) = job.max_iterations {
            cfg.max_iterations = iters;
        }
        let key = spans.time("cache.key", &job.name, || {
            CacheKey::new(&bench.system, &controller, &cfg, &job.grid)
        });
        if spans
            .time("cache.lookup", &job.name, || cache.lookup(&key))
            .is_none()
        {
            errors.push(format!("{}: replayed cache lookup missed", job.name));
        }
    }
    errors
}
