//! Integration test for the telemetry layer: a real (quickstart-sized) CEGIS
//! run must produce a populated `snbc-run-report/1` document whose span tree
//! matches the schema documented in `docs/TELEMETRY.md`, and the document
//! must survive a JSON round-trip byte-identically.

use snbc::{Snbc, SnbcConfig};
use snbc_dynamics::benchmarks;
use snbc_nn::{train_controller, ControllerTraining};
use snbc_telemetry::{Report, Telemetry, SCHEMA};

#[test]
fn cegis_run_produces_populated_report() {
    let bench = benchmarks::benchmark(3);
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining {
            epochs: 150,
            ..Default::default()
        },
    );
    let mut cfg = SnbcConfig::default();
    cfg.max_iterations = 3;
    cfg.learner.epochs = 60;
    let telemetry = Telemetry::recording();
    // Whether this small budget certifies or not is irrelevant here: the
    // report must be populated either way (a failing run is exactly when the
    // telemetry matters).
    let _ = Snbc::new(cfg)
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, &controller);
    let report = telemetry.report().expect("recording sink yields a report");

    // Top level: one "cegis" span with the iteration counter and the
    // certified flag recorded on it.
    let cegis = report.root.child("cegis").expect("cegis span");
    assert!(cegis.counter("iterations").unwrap_or(0) >= 1);
    assert!(cegis.gauge("certified").is_some());
    assert_eq!(cegis.label("benchmark"), Some("C3"));

    // §3 abstraction: σ* chain and mesh size.
    let approx = cegis.child("approx").expect("approx span");
    let sigma_star = approx.gauge("sigma_star").expect("sigma_star gauge");
    let sigma_tilde = approx.gauge("sigma_tilde").expect("sigma_tilde gauge");
    assert!(sigma_star >= sigma_tilde, "σ* = σ̃ + r_cov·L ≥ σ̃");
    // A concrete |k − h| never exceeds the certified bound.
    let witness = approx.gauge("witness").expect("witness gauge");
    assert!(witness <= sigma_star, "|k − h| = {witness} at a point, above σ* = {sigma_star}");
    assert!(approx.counter("mesh_points").unwrap_or(0) > 0);
    let lp = approx.child("lp").expect("Chebyshev LP span");
    assert!(lp.counter("iterations").unwrap_or(0) > 0);

    // At least one CEGIS round with learner and verifier phases populated.
    let rounds = report.rounds();
    assert!(!rounds.is_empty(), "at least one round span");
    assert_eq!(rounds[0].index, Some(1));
    let learn = rounds[0].child("learn").expect("learn span");
    assert!(learn.counter("epochs").unwrap_or(0) >= 1);
    assert!(learn.gauge("final_loss").is_some_and(f64::is_finite));
    let verify = rounds[0].child("verify").expect("verify span");
    for cond in ["init", "unsafe", "flow"] {
        let sub = verify.child(cond).unwrap_or_else(|| panic!("{cond} span"));
        assert!(sub.gauge("margin").is_some(), "{cond} margin");
        assert!(sub.gauge("feasible").is_some(), "{cond} feasible flag");
        let sdp = sub.child("sdp").expect("nested sdp span");
        assert!(sdp.counter("iterations").unwrap_or(0) > 0);
        assert!(sdp.counter("cholesky").unwrap_or(0) > 0);
    }

    // Timers: children nest inside their parents.
    assert!(cegis.elapsed_s <= report.root.elapsed_s);
    assert!(learn.elapsed_s <= rounds[0].elapsed_s);

    // The human-readable table mentions every round.
    let table = snbc_telemetry::render_round_table(&report);
    assert!(table.lines().count() >= 1 + rounds.len());

    // JSON round-trip: parse our own serialization back byte-identically.
    let text = report.to_json_string();
    assert!(text.contains(SCHEMA));
    let back = Report::parse(&text).expect("parse own serialization");
    assert_eq!(back.to_json_string(), text);
}
