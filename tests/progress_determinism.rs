//! The observability determinism contract (docs/OBSERVABILITY.md): a batch
//! run's **canonical** progress stream (`snbc-progress/2` with `canonical`
//! mode on) and **canonical** metrics snapshot (`snbc-metrics/2` with
//! environmental entries stripped) must be byte-identical at `SNBC_THREADS=1`
//! and `SNBC_THREADS=4`, and again when every job is served from a warm cache
//! instead of racing — the replayed cache records must reproduce the live
//! race's stream and counters exactly.
//!
//! A single `#[test]` drives all three legs because `snbc_par::set_threads`
//! is process-global (same shape as `tests/portfolio_determinism.rs`).

use snbc::SnbcConfig;
use snbc_dynamics::benchmarks::Benchmark;
use snbc_metrics::{Metrics, Progress};
use snbc_nn::Mlp;
use snbc_portfolio::{run_batch, BatchOptions, BatchSpec};
use snbc_telemetry::Telemetry;
use std::io::Write;
use std::sync::{Arc, Mutex};

const JOBS: &str = r#"{
    "schema": "snbc-batch-jobs/1",
    "jobs": [
        {"name": "c3-race", "benchmark": 3, "grid": {"seeds": [1, 2]},
         "max_iterations": 12, "controller_epochs": 300}
    ]
}"#;

/// An in-memory `Write` target the test can read back after the run (the
/// `Progress` writer takes ownership of its `Box<dyn Write>`).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        let buf = self.0.lock().unwrap_or_else(|p| p.into_inner());
        String::from_utf8(buf.clone()).expect("NDJSON stream is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One leg: run the fixed job set with a canonical progress writer and a
/// recording registry; return (canonical stream bytes, canonical snapshot
/// JSON, full snapshot JSON).
fn run_leg(spec: &BatchSpec, cache_dir: &std::path::Path) -> (String, String, String) {
    let resolve = |path: &str| -> Result<(Benchmark, Mlp), String> {
        Err(format!("benchmark jobs only, got `{path}`"))
    };
    let opts = BatchOptions {
        base: SnbcConfig::default(),
        cache_dir: Some(cache_dir.to_path_buf()),
    };
    let buf = SharedBuf::default();
    let progress = Progress::writer(Box::new(buf.clone()), true);
    let metrics = Metrics::recording();
    run_batch(spec, &opts, &resolve, &Telemetry::off(), &progress, &metrics)
        .expect("batch runs");
    drop(progress);
    (
        buf.contents(),
        metrics.snapshot(true).to_json_string(),
        metrics.snapshot(false).to_json_string(),
    )
}

#[test]
fn canonical_stream_and_snapshot_are_deterministic() {
    let spec = BatchSpec::parse(JOBS).expect("fixed jobs document parses");
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("progress-determinism");
    let dir_a = root.join("threads-1");
    let dir_b = root.join("threads-4");
    for dir in [&dir_a, &dir_b] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).expect("wipe scratch cache");
        }
    }

    // Leg 1: cold cache, one worker thread.
    snbc_par::set_threads(Some(1));
    let (stream_1cold, canon_1cold, full_1cold) = run_leg(&spec, &dir_a);
    // Leg 2: cold cache (separate directory), four worker threads.
    snbc_par::set_threads(Some(4));
    let (stream_4cold, canon_4cold, _) = run_leg(&spec, &dir_b);
    // Leg 3: warm cache from leg 1, still four threads — the stored
    // progress.ndjson records replay instead of racing.
    let (stream_warm, canon_warm, full_warm) = run_leg(&spec, &dir_a);
    snbc_par::set_threads(None);

    // The stream is non-trivial: a header plus per-round events.
    assert!(
        stream_1cold.lines().count() > 3,
        "canonical stream is suspiciously short:\n{stream_1cold}"
    );
    assert!(
        stream_1cold.starts_with("{\"seq\":0,"),
        "stream header missing: {stream_1cold}"
    );
    assert!(
        stream_1cold.contains("snbc-progress/2"),
        "schema tag missing from stream header"
    );
    assert!(
        canon_1cold.contains("snbc-metrics/2"),
        "schema tag missing from snapshot"
    );

    // Canonical progress streams: byte-identical across thread counts and
    // cache temperature.
    assert_eq!(
        stream_1cold, stream_4cold,
        "canonical stream differs across thread counts"
    );
    assert_eq!(
        stream_1cold, stream_warm,
        "canonical stream differs across cache temperature"
    );

    // Canonical snapshots: likewise byte-identical.
    assert_eq!(
        canon_1cold, canon_4cold,
        "canonical snapshot differs across thread counts"
    );
    assert_eq!(
        canon_1cold, canon_warm,
        "canonical snapshot differs across cache temperature"
    );

    // The *full* snapshots are intentionally NOT identical across cache
    // temperature: environmental counters record what actually happened
    // (leg 1 misses, leg 3 hits), which is exactly why `canonical` strips
    // them. Guard that the distinction is real, not vacuous.
    assert!(
        full_1cold.contains("cache_miss"),
        "cold leg should record a cache_miss env counter: {full_1cold}"
    );
    assert!(
        full_warm.contains("cache_hit"),
        "warm leg should record a cache_hit env counter: {full_warm}"
    );
    assert!(
        !canon_1cold.contains("cache_"),
        "canonical snapshot must not carry env counters: {canon_1cold}"
    );

    // And the stream parses back: the same parser reads cache records, whose
    // format is the canonical stream without `seq`.
    let events =
        snbc_metrics::progress::parse_stream(&stream_1cold).expect("canonical stream parses");
    assert!(!events.is_empty());
}
