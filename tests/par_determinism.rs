//! Determinism contract of the `snbc-par` runtime (docs/PARALLELISM.md):
//! the synthesized certificate and the telemetry round structure must be
//! bitwise identical no matter how many worker threads execute the SDP
//! assembly, the learner batches, and the counterexample restarts.

use std::sync::{Mutex, MutexGuard};

use snbc::{Snbc, SnbcConfig, SnbcResult};
use snbc_dynamics::benchmarks;
use snbc_nn::{train_controller, ControllerTraining, Mlp};
use snbc_telemetry::{Report, Telemetry};

/// Both tests mutate the process-wide `SNBC_THREADS` variable; serialize them
/// so the harness's default test parallelism cannot interleave the settings.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[expect(clippy::disallowed_methods, reason = "serialises tests that set SNBC_THREADS; no result passes through it")]
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap()
}

fn synthesize_with_threads(controller: &Mlp, threads: usize) -> (SnbcResult, Report) {
    // The env var is the documented user-facing knob; set it (rather than the
    // programmatic override) so the test exercises the same path as
    // `SNBC_THREADS=4 cargo run`.
    std::env::set_var("SNBC_THREADS", threads.to_string());
    let bench = benchmarks::benchmark(3);
    let telemetry = Telemetry::recording();
    let result = Snbc::new(SnbcConfig::default())
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, controller)
        .unwrap_or_else(|e| panic!("synthesis failed at SNBC_THREADS={threads}: {e}"));
    let report = telemetry.report().expect("recording sink yields a report");
    std::env::remove_var("SNBC_THREADS");
    (result, report)
}

#[test]
fn synthesis_is_bitwise_identical_across_thread_counts() {
    let _env = env_lock();
    let bench = benchmarks::benchmark(3);
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );

    let (serial, serial_report) = synthesize_with_threads(&controller, 1);
    let (parallel, parallel_report) = synthesize_with_threads(&controller, 4);

    // Same CEGIS trajectory: identical round count on both sinks.
    assert_eq!(serial.iterations, parallel.iterations);
    assert_eq!(
        serial_report.rounds().len(),
        parallel_report.rounds().len(),
        "telemetry disagrees on the number of CEGIS rounds"
    );

    // Same certificate, bit for bit: Polynomial equality compares exact f64
    // coefficients, and the rendered forms must agree too.
    assert_eq!(serial.barrier, parallel.barrier, "barrier coefficients differ");
    assert_eq!(serial.lambda, parallel.lambda, "multiplier coefficients differ");
    assert_eq!(serial.barrier.to_string(), parallel.barrier.to_string());
    assert_eq!(serial.lambda.to_string(), parallel.lambda.to_string());

    // Same abstraction and margins (the whole verification record is data
    // computed from the certificate; spot-check the floats that summarize it).
    assert_eq!(
        serial.inclusion.sigma_star.to_bits(),
        parallel.inclusion.sigma_star.to_bits()
    );
    assert_eq!(
        serial.verification.init.margin.to_bits(),
        parallel.verification.init.margin.to_bits()
    );
    assert_eq!(
        serial.verification.unsafe_.margin.to_bits(),
        parallel.verification.unsafe_.margin.to_bits()
    );
    assert_eq!(
        serial.verification.flow.margin.to_bits(),
        parallel.verification.flow.margin.to_bits()
    );
}

/// Runs the quickstart synthesis with a recording trace sink attached and
/// returns the trace snapshot.
fn trace_with_threads(controller: &Mlp, threads: usize) -> snbc_trace::ChromeTrace {
    std::env::set_var("SNBC_THREADS", threads.to_string());
    let bench = benchmarks::benchmark(3);
    let telemetry = Telemetry::recording().with_trace(snbc_trace::Trace::recording());
    Snbc::new(SnbcConfig::default())
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, controller)
        .unwrap_or_else(|e| panic!("synthesis failed at SNBC_THREADS={threads}: {e}"));
    let dump = telemetry.trace().dump().expect("recording trace yields a dump");
    std::env::remove_var("SNBC_THREADS");
    dump
}

#[test]
fn trace_event_stream_is_deterministic_across_thread_counts() {
    let _env = env_lock();
    let bench = benchmarks::benchmark(3);
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );

    let serial = trace_with_threads(&controller, 1);
    let parallel = trace_with_threads(&controller, 4);

    // No lane may overflow on a quickstart-sized run; a dropped event would
    // silently break the count comparison below.
    assert_eq!(serial.dropped, 0, "serial trace dropped events");
    assert_eq!(parallel.dropped, 0, "parallel trace dropped events");

    // Same events in both runs: identical totals, and the sorted
    // thread-count-invariant keys (name + deterministic payload, timestamps
    // and track/span-id allocation excluded) must agree element-wise. The
    // parallel run spreads the events over more tracks, but every IPM
    // iteration, learner epoch, ascent trajectory, and span pair must still
    // happen exactly once with bit-identical numbers.
    assert_eq!(
        serial.event_count(),
        parallel.event_count(),
        "trace event totals differ between SNBC_THREADS=1 and 4"
    );
    assert_eq!(
        serial.ordering_keys(),
        parallel.ordering_keys(),
        "trace ordering keys differ between SNBC_THREADS=1 and 4"
    );

    // The parallel run actually used extra worker tracks (otherwise this
    // test would pass vacuously with everything on `main`).
    assert!(
        parallel.tracks.len() > serial.tracks.len(),
        "parallel run produced no extra worker tracks ({} vs {})",
        parallel.tracks.len(),
        serial.tracks.len()
    );
}

/// Runs a dependency-heavy δ-complete check at the given thread count and
/// returns the full report (verdict, witness, box count, depth).
fn interval_check_with_threads(threads: usize) -> Vec<snbc_interval::CheckReport> {
    use snbc_interval::{BranchAndBound, Interval, RangeTightening};
    std::env::set_var("SNBC_THREADS", threads.to_string());
    // The squared circle constraint maximizes interval dependency, forcing
    // deep subdivision — thousands of boxes, so the branch-and-bound wave
    // engine genuinely fans out (waves above its parallel threshold).
    let p: snbc_poly::Polynomial = "(x0^2 + x1^2 - 1)^2 + 0.0001".parse().unwrap();
    let violated: snbc_poly::Polynomial = "(x0^2 + x1^2 - 1)^2 - 0.25".parse().unwrap();
    let g: snbc_poly::Polynomial = "x0 + x1".parse().unwrap();
    let dom = vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)];
    let reports = vec![
        BranchAndBound::default().check_at_least(&p, &dom, &[], 0.0),
        BranchAndBound {
            tightening: RangeTightening::Bernstein,
            ..Default::default()
        }
        .check_at_least(&p, &dom, &[g], 0.0),
        BranchAndBound::default().check_at_least(&violated, &dom, &[], 0.0),
    ];
    std::env::remove_var("SNBC_THREADS");
    reports
}

#[test]
fn interval_branch_and_bound_is_bitwise_identical_across_thread_counts() {
    let _env = env_lock();
    let serial = interval_check_with_threads(1);
    let parallel = interval_check_with_threads(4);

    // Full report equality: verdict (witness coordinates compare as exact
    // f64), box count, and subdivision depth — the wave engine's exploration
    // order must be a pure function of the problem, not the worker count.
    assert_eq!(
        serial, parallel,
        "interval B&B reports differ between SNBC_THREADS=1 and 4"
    );

    // Guard against vacuity: the proof legs must have processed enough boxes
    // to actually cross the engine's parallel-wave threshold.
    assert!(
        serial[0].boxes_processed > 1_000,
        "dependency-heavy check finished in {} boxes — too few to exercise parallel waves",
        serial[0].boxes_processed
    );
    assert!(matches!(
        serial[2].verdict,
        snbc_interval::Verdict::Violated { .. }
    ));
}
