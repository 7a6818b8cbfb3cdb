//! End-to-end and per-layer benchmark of the SNBC workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lowdim|highdim|batch [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end metrics;
//! `--trace 1` runs it with the program's span tree and an `snbc-trace` sink
//! attached and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the process exits
//! non-zero when an output check or a same-work pin fails. See README.md.

mod layers;
mod procfs;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use snbc_telemetry::Trace;

use layers::{median, ratio, self_time, Spans, TreeTotals};
use procfs::ProcSample;
use workloads::{Pass, Workload};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("e2e_s", "s"),
    ("certified_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
const PER_LAYER: [(&str, &str); 50] = [
    ("nn.train_s", "s"),
    ("nn.trainings", "count"),
    ("engine.s", "s"),
    ("engine.self_s", "s"),
    ("engine.minflt", "count"),
    ("engine.sys_s", "s"),
    ("approx.s", "s"),
    ("approx.lp_iters", "count"),
    ("approx.mesh_points", "count"),
    ("learn.s", "s"),
    ("learn.epochs", "count"),
    ("learn.us_per_epoch", "us"),
    ("cegis.rounds", "count"),
    ("cegis.reseeds", "count"),
    ("step.self_s", "s"),
    ("verify.s", "s"),
    ("verify.flow_frac", "ratio"),
    ("sdp.solves", "count"),
    ("sdp.iters", "count"),
    ("sdp.cholesky", "count"),
    ("sdp.ms_per_iter", "ms"),
    ("cex.s", "s"),
    ("cex.points", "count"),
    ("cex.ascent_steps", "count"),
    ("cex.interval_fallbacks", "count"),
    ("interval.boxes", "count"),
    ("check.parse_ms", "ms"),
    ("check.validate_s", "s"),
    ("check.validate_max_s", "s"),
    ("race.s", "s"),
    ("race.candidates", "count"),
    ("race.waves", "count"),
    ("race.candidate_rounds", "count"),
    ("race.useful_frac", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.bytes", "bytes"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("batch.cold_s", "s"),
    ("batch.warm_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.busy_cores", "cores"),
    ("proc.minflt", "count"),
    ("proc.ctx_vol", "count"),
    ("proc.ctx_invol", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.probe_ms", "ms"),
];

/// Where runs keep their cache, pins and trace files, relative to the
/// checkout root the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

/// Repetitions of the batch set-up, whose median is reported.
const BATCH_SETUP_REPS: usize = 101;

const USAGE: &str =
    "usage: snbc-perfbench --workload lowdim|highdim|batch [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1, 30, false);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// A fixed serial integer loop, timed: host-speed drift shows beside every
/// result.
fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = x.rotate_left(5) ^ std::hint::black_box(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The prepared inputs of a workload.
enum Inputs {
    Rows(Vec<workloads::Row>),
    Batch {
        spec: snbc_portfolio::BatchSpec,
        cache_dir: PathBuf,
    },
}

impl Inputs {
    fn pass(&self, trace: Option<&Trace>, spans: &mut Spans) -> Pass {
        match self {
            Inputs::Rows(rows) => workloads::run_rows(rows, trace, spans),
            Inputs::Batch { spec, cache_dir } => {
                workloads::run_batch_pass(spec, cache_dir, trace, spans)
            }
        }
    }
}

/// Same-work pins recorded by earlier runs of this build on this workload and
/// seed, plus the untraced `e2e_s` the traced run's overhead is measured
/// against.
struct PinRecord {
    path: PathBuf,
    pins: BTreeMap<String, u64>,
    untraced_e2e_s: Option<f64>,
}

impl PinRecord {
    fn load(dir: &Path, w: Workload, seed: u64) -> PinRecord {
        // Keyed by the executable's bytes: a rebuilt program starts afresh.
        let exe = std::fs::read(std::env::current_exe().expect("locate the benchmark executable"))
            .expect("read the benchmark executable");
        let hash = exe.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let path = dir
            .join("pins")
            .join(format!("{}-{seed}-{hash:016x}.txt", w.name()));
        let mut rec = PinRecord {
            path,
            pins: BTreeMap::new(),
            untraced_e2e_s: None,
        };
        for line in std::fs::read_to_string(&rec.path)
            .unwrap_or_default()
            .lines()
        {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some("pin"), Some(k), Some(v)) => {
                    if let Ok(v) = v.parse() {
                        rec.pins.insert(k.to_string(), v);
                    }
                }
                (Some("untraced_e2e_s"), Some(v), None) => rec.untraced_e2e_s = v.parse().ok(),
                _ => {}
            }
        }
        rec
    }

    /// Compares `pins` with the recorded ones on the keys both have, then
    /// records the union. Returns one message per differing pin.
    fn check_and_merge(&mut self, pins: &BTreeMap<String, u64>) -> Vec<String> {
        let diffs = pin_diffs(&self.pins, pins);
        for (k, v) in pins {
            self.pins.entry(k.clone()).or_insert(*v);
        }
        diffs
    }

    fn save(&self) {
        let mut text: String = self
            .pins
            .iter()
            .map(|(k, v)| format!("pin {k} {v}\n"))
            .collect();
        if let Some(e) = self.untraced_e2e_s {
            text.push_str(&format!("untraced_e2e_s {e}\n"));
        }
        std::fs::create_dir_all(self.path.parent().expect("pin files live in a directory"))
            .expect("create pin dir");
        std::fs::write(&self.path, text).expect("write pin record");
    }
}

/// Pins whose values differ between two records, on the keys both have.
fn pin_diffs(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    a.iter()
        .filter_map(|(k, v)| match b.get(k) {
            Some(w) if w != v => Some(format!("same-work pin {k}: {v} vs {w}")),
            _ => None,
        })
        .collect()
}

/// Per-layer metrics of a traced pass.
struct TracedRun<'a> {
    pass: &'a Pass,
    spans: &'a Spans,
    /// Totals over the pass's program span trees.
    tree: TreeTotals,
    proc: ProcSample,
    wall_s: f64,
    untraced_e2e_s: f64,
    probe_ms: f64,
}

impl TracedRun<'_> {
    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let (p, s, tree) = (self.pass, self.spans, &self.tree);
        let reg = |c: &str| p.registry.get(c).copied().unwrap_or(0) as f64;
        let engine = s.proc("engine");
        let (learn_s, verify_s, cex_s, approx_s) = (
            tree.elapsed("learn"),
            tree.elapsed("verify"),
            tree.elapsed("cex"),
            tree.elapsed("approx"),
        );
        let epochs = tree.counter("learn", "epochs") as f64;
        let sdp_iters = tree.counter("sdp", "iterations") as f64;
        let per_call_ms = |name: &str| ratio(s.total_s(name) * 1e3, s.count(name) as f64);
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        m.extend([
            ("nn.train_s", s.total_s("nn.train")),
            ("nn.trainings", s.count("nn.train") as f64),
            ("engine.s", s.total_s("engine")),
            ("engine.self_s", self_time(s.total_s("engine"), &[approx_s])),
            ("engine.minflt", engine.minflt as f64),
            ("engine.sys_s", engine.sys_s()),
            ("approx.s", approx_s),
            ("approx.lp_iters", tree.counter("lp", "iterations") as f64),
            (
                "approx.mesh_points",
                tree.counter("approx", "mesh_points") as f64,
            ),
            ("learn.s", learn_s),
            ("learn.epochs", epochs),
            ("learn.us_per_epoch", ratio(learn_s * 1e6, epochs)),
            ("cegis.rounds", reg("rounds")),
            ("cegis.reseeds", reg("reseeds")),
            (
                "step.self_s",
                self_time(s.total_s("step"), &[learn_s, verify_s, cex_s]),
            ),
            ("verify.s", verify_s),
            ("verify.flow_frac", ratio(tree.elapsed("flow"), verify_s)),
            ("sdp.solves", tree.count("sdp") as f64),
            ("sdp.iters", sdp_iters),
            ("sdp.cholesky", tree.counter("sdp", "cholesky") as f64),
            (
                "sdp.ms_per_iter",
                ratio(tree.elapsed("sdp") * 1e3, sdp_iters),
            ),
            ("cex.s", cex_s),
            ("cex.points", tree.counter("cex", "points") as f64),
            (
                "cex.ascent_steps",
                tree.counter_prefixed("search-", "ascent_steps") as f64,
            ),
            ("cex.interval_fallbacks", reg("interval_fallbacks")),
            ("interval.boxes", reg("boxes")),
            ("check.parse_ms", s.total_s("check.parse") * 1e3),
            ("check.validate_s", s.total_s("check.validate")),
            ("check.validate_max_s", s.max_s("check.validate")),
            ("race.s", tree.elapsed("race")),
            ("race.candidates", reg("candidates")),
            ("race.waves", reg("waves")),
            ("cache.key_ms", per_call_ms("cache.key")),
            ("cache.lookup_ms", per_call_ms("cache.lookup")),
            ("proc.cpu_s", self.proc.cpu_s()),
            ("proc.sys_s", self.proc.sys_s()),
            ("proc.busy_cores", ratio(self.proc.cpu_s(), self.wall_s)),
            ("proc.minflt", self.proc.minflt as f64),
            ("proc.ctx_vol", self.proc.ctx_vol as f64),
            ("proc.ctx_invol", self.proc.ctx_invol as f64),
            (
                "trace.overhead_frac",
                ratio(p.e2e_s, self.untraced_e2e_s) - 1.0,
            ),
            ("host.probe_ms", self.probe_ms),
        ]);
        m.extend(p.extra.iter().map(|(k, v)| (*k, *v)));
        m
    }

    /// Pins only a traced run can read from the program's span tree.
    fn pins(&self) -> BTreeMap<String, u64> {
        let tree = &self.tree;
        [
            ("traced.learn.epochs", tree.counter("learn", "epochs")),
            ("traced.sdp.solves", tree.count("sdp")),
            ("traced.sdp.iters", tree.counter("sdp", "iterations")),
            ("traced.sdp.cholesky", tree.counter("sdp", "cholesky")),
            ("traced.lp.iters", tree.counter("lp", "iterations")),
            (
                "traced.cex.ascent_steps",
                tree.counter_prefixed("search-", "ascent_steps"),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The result line: one JSON object.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // `+ 0.0` turns an empty sum's -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    snbc_par::set_threads(Some(threads));
    let w = args.workload;
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).expect("create the work directory");
    eprintln!(
        "perfbench: workload {} seed {} threads {threads} traced {}",
        w.name(),
        args.seed,
        args.traced
    );

    let probe_start = host_probe_ms();
    let mut spans = if args.traced {
        Spans::recording()
    } else {
        Spans::off()
    };
    let t_setup = Instant::now();
    let (inputs, setup_s) = match w {
        Workload::Batch => {
            let cache_dir = dir.join("batch-cache");
            let (spec, setup_s) = workloads::prepare_batch(args.seed, &cache_dir, BATCH_SETUP_REPS);
            (Inputs::Batch { spec, cache_dir }, setup_s)
        }
        _ => {
            let rows = workloads::prepare_rows(w, args.seed, &mut spans);
            (Inputs::Rows(rows), t_setup.elapsed().as_secs_f64())
        }
    };

    let mut record = PinRecord::load(dir, w, args.seed);
    let mut errors = Vec::new();
    let mut passes = Vec::new();
    let mut traced = None;
    if args.traced {
        if record.untraced_e2e_s.is_none() {
            // No untraced run of this build and seed yet: make one first.
            passes.push(inputs.pass(None, &mut Spans::off()));
        }
        let trace = Trace::recording();
        let p0 = ProcSample::now();
        let t0 = Instant::now();
        let pass = inputs.pass(Some(&trace), &mut spans);
        let (wall_s, proc) = (t0.elapsed().as_secs_f64(), ProcSample::now().since(&p0));
        if let Inputs::Batch { spec, cache_dir } = &inputs {
            errors.extend(workloads::replay_hits(spec, cache_dir, &mut spans));
        }
        let stem = format!("{}-seed{}", w.name(), args.seed);
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            trace.chrome_json().unwrap_or_default(),
        )
        .expect("write the Chrome trace");
        std::fs::write(dir.join(format!("{stem}.spans.tsv")), spans.to_tsv())
            .expect("write the span log");
        traced = Some((pass, proc, wall_s));
    } else {
        // Closed loop: passes back to back while another fits in --seconds.
        let budget = Duration::from_secs(args.seconds);
        let t0 = Instant::now();
        loop {
            let tp = Instant::now();
            passes.push(inputs.pass(None, &mut spans));
            if t0.elapsed() + tp.elapsed() > budget {
                break;
            }
        }
    }

    // Every pass of one build and seed must do the same work.
    let all: Vec<&Pass> = passes
        .iter()
        .chain(traced.as_ref().map(|(p, _, _)| p))
        .collect();
    for p in &all {
        errors.extend(p.errors.iter().cloned());
        errors.extend(pin_diffs(&all[0].pins, &p.pins));
    }
    for p in &all {
        errors.extend(record.check_and_merge(&p.pins));
    }
    if !passes.is_empty() {
        record.untraced_e2e_s = Some(median(&passes.iter().map(|p| p.e2e_s).collect::<Vec<_>>()));
    }
    let probe_ms = median(&[probe_start, host_probe_ms()]);

    let reported: Vec<&Pass> = match &traced {
        Some((p, _, _)) => vec![p],
        None => passes.iter().collect(),
    };
    let attempted: usize = reported.iter().map(|p| p.attempted).sum();
    let certified: usize = reported.iter().map(|p| p.certified).sum();
    let metrics: Vec<(&str, &str, f64)> = match &traced {
        Some((pass, proc, wall_s)) => {
            let run = TracedRun {
                pass,
                spans: &spans,
                tree: TreeTotals::of(pass.reports.iter().map(|r| &r.root)),
                proc: *proc,
                wall_s: *wall_s,
                untraced_e2e_s: record.untraced_e2e_s.unwrap_or(pass.e2e_s),
                probe_ms,
            };
            errors.extend(record.check_and_merge(&run.pins()));
            let values = run.metrics();
            PER_LAYER.iter().map(|&(n, u)| (n, u, values[n])).collect()
        }
        None => {
            let values = [
                record
                    .untraced_e2e_s
                    .expect("an untraced run makes at least one pass"),
                ratio(certified as f64, attempted as f64),
                setup_s,
                ProcSample::now().hwm_kb as f64 / 1024.0,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, v))
                .collect()
        }
    };
    record.save();

    for p in &reported {
        let verdicts: Vec<String> = p
            .pins
            .iter()
            .filter(|(k, _)| k.ends_with(".rounds") && !k.starts_with("registry."))
            .map(|(k, v)| format!("{}={v}", k.trim_end_matches(".rounds")))
            .collect();
        eprintln!(
            "perfbench: pass {:.3} s, {}/{} certified, rounds {}",
            p.e2e_s,
            p.certified,
            p.attempted,
            verdicts.join(" ")
        );
    }
    for (name, unit, v) in &metrics {
        eprintln!("perfbench: {name:<24} {v:>16.6} {unit}");
    }
    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        result_json(
            correct,
            attempted.max(1),
            errors.len().min(attempted),
            &metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_telemetry::json::{self, Value};

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(layers::valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_harness_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, ["lowdim", "highdim", "batch"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_junk() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(argv("--workload batch --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Workload::Batch, 9, 12, true)
        );
        let d = parse_args(argv("--workload lowdim")).unwrap();
        assert_eq!((d.seed, d.seconds, d.traced), (1, 30, false));
        for bad in [
            "",
            "--workload nope",
            "--workload lowdim --trace 2",
            "--workload lowdim --seed x",
            "--seed",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_finite_values() {
        let line = result_json(
            true,
            8,
            0,
            &[("e2e_s", "s", 1.25), ("certified_frac", "ratio", f64::NAN)],
        );
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(8));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("e2e_s")
                .and_then(|x| x.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
        assert!(line.contains("\"certified_frac\": {\"value\": 0,"));
    }

    #[test]
    fn pin_diffs_compare_shared_keys_only() {
        let a: BTreeMap<String, u64> = [("C4.rounds", 25), ("traced.sdp.iters", 900)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        let b: BTreeMap<String, u64> = [("C4.rounds", 25), ("C1.rounds", 1)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        assert!(pin_diffs(&a, &b).is_empty());
        let c: BTreeMap<String, u64> = [("C4.rounds", 24)].map(|(k, v)| (k.to_string(), v)).into();
        assert_eq!(
            pin_diffs(&a, &c),
            vec!["same-work pin C4.rounds: 25 vs 24".to_string()]
        );
    }

    #[test]
    fn seed_one_reproduces_table1_and_anchors_c4_and_c13() {
        let low = workloads::row_plan(Workload::Lowdim, 1);
        assert_eq!(low.len(), 8);
        assert!(low.iter().all(|&(_, c, s)| (c, s) == (7, 1)));
        let other = workloads::row_plan(Workload::Lowdim, 5);
        assert_eq!(other[3], (4, 7, 1));
        assert_eq!(other[0], (1, 11, 5));
        let high = workloads::row_plan(Workload::Highdim, 5);
        assert_eq!(
            high.iter().map(|r| r.0).collect::<Vec<_>>(),
            [9, 10, 11, 12, 13]
        );
        assert_eq!(high[4], (13, 7, 1));
    }

    #[test]
    fn jobs_document_parses_and_submits_each_job_twice() {
        for seed in [0, 1, 7, u64::MAX] {
            let spec =
                snbc_portfolio::BatchSpec::parse(&workloads::jobs_document(seed)).expect("parses");
            assert_eq!(spec.jobs.len(), 6);
            for (a, b) in spec.jobs[..3].iter().zip(&spec.jobs[3..]) {
                assert_eq!(
                    (&a.source, &a.grid, a.max_iterations),
                    (&b.source, &b.grid, b.max_iterations)
                );
                assert_eq!(a.grid.seeds.len(), 4);
            }
        }
        let spec = snbc_portfolio::BatchSpec::parse(&workloads::jobs_document(1)).unwrap();
        assert_eq!(spec.jobs[0].grid.seeds, [1, 2, 3, 4]);
    }
}
