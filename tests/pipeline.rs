//! Cross-crate integration: the full SNBC pipeline end-to-end, with both
//! soundness paths (SOS margins and interval re-check) and dynamical
//! validation (trajectories never cross the certified zero level set).

use snbc::{recheck_with_intervals, Snbc, SnbcConfig};
use snbc_dynamics::{benchmarks, simulate};
use snbc_interval::BranchAndBound;
use snbc_nn::{train_controller, ControllerTraining};

fn synthesize(id: usize) -> (snbc_dynamics::benchmarks::Benchmark, snbc_nn::Mlp, snbc::SnbcResult) {
    let bench = benchmarks::benchmark(id);
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );
    let result = Snbc::new(SnbcConfig::default())
        .synthesize(&bench, &controller)
        .unwrap_or_else(|e| panic!("benchmark {id} failed: {e}"));
    (bench, controller, result)
}

#[test]
fn c1_certificate_is_doubly_sound() {
    let (bench, _controller, result) = synthesize(1);
    assert!(result.verification.is_certified());
    // Margins are strictly positive.
    assert!(result.verification.init.margin > -1e-7);
    assert!(result.verification.unsafe_.margin > -1e-7);
    assert!(result.verification.flow.margin > -1e-7);
    // Independent δ-complete confirmation.
    assert!(recheck_with_intervals(
        &result.barrier,
        &result.lambda,
        &bench.system,
        &result.inclusion,
        &BranchAndBound::default(),
        &snbc_telemetry::Telemetry::off(),
    ));
}

#[test]
fn c3_trajectories_respect_certificate() {
    let (bench, controller, result) = synthesize(3);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for x0 in bench.system.init().sample(10, &mut rng) {
        let traj = simulate(&bench.system, |x| controller.forward(x), &x0, 0.01, 1200);
        assert!(!traj.enters(bench.system.unsafe_set()));
        // B stays nonnegative along reachable states inside Ψ — the defining
        // invariant of a barrier certificate.
        for x in traj.states.iter().step_by(20) {
            if bench.system.domain().contains(x) {
                assert!(
                    result.barrier.eval(x) >= -1e-6,
                    "B(x) < 0 at reachable {x:?}"
                );
            }
        }
    }
}

#[test]
fn controller_abstraction_feeds_verifier_consistently() {
    let (bench, controller, result) = synthesize(5);
    // σ* really bounds the abstraction error on dense probes.
    let mut sup: f64 = 0.0;
    for p in snbc_dynamics::sample_box_halton(bench.system.domain().bounding_box(), 10_000) {
        sup = sup.max((controller.forward(&p) - result.inclusion.h.eval(&p)).abs());
    }
    assert!(
        sup <= result.inclusion.sigma_star + 1e-9,
        "probed abstraction error {sup} exceeds certified sigma* {}",
        result.inclusion.sigma_star
    );
}

#[test]
fn timings_are_populated() {
    let (_bench, _controller, result) = synthesize(3);
    assert!(result.t_total >= result.t_learn);
    assert!(result.t_total.as_secs_f64() > 0.0);
    assert!(result.iterations >= 1);
}
