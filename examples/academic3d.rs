//! Example 1 of the paper: the academic 3D model (eq. (18)), reproducing the
//! shape of the synthesized certificate (19) and the safety claim of Fig. 3.
//!
//! Run: `cargo run --release --example academic3d`

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use snbc::{recheck_with_intervals, Snbc, SnbcConfig};
use snbc_dynamics::{benchmarks, simulate};
use snbc_interval::BranchAndBound;
use snbc_nn::{train_controller, ControllerTraining};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmarks::academic_3d();
    println!("Academic 3D model (eq. 18): ẋ = z + 8y, ẏ = −y + z, ż = −z − x² + u");
    println!("Θ = [−0.4, 0.4]³, Ψ = [−2.2, 2.2]³, Ξ = [2, 2.2]³\n");

    // DDPG substitute: regress the controller onto a stabilizing law.
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );

    let result = Snbc::new(SnbcConfig::default()).synthesize(&bench, &controller)?;
    println!("Synthesized after {} iteration(s) — the paper reports 2:", result.iterations);
    println!("  B(x) = {}", result.barrier);
    println!("  (cf. the paper's eq. (19): a degree-2 polynomial in x, y, z)\n");
    assert_eq!(result.barrier.degree(), 2, "Table 1 reports d_B = 2");

    // Fig. 3(b)'s claim: trajectories from Θ never cross into Ξ, and B keeps
    // its sign along them.
    let mut checked = 0;
    for i in 0..8 {
        let x0 = [
            if i & 1 == 0 { -0.4 } else { 0.4 },
            if i & 2 == 0 { -0.4 } else { 0.4 },
            if i & 4 == 0 { -0.4 } else { 0.4 },
        ];
        let traj = simulate(&bench.system, |x| controller.forward(x), &x0, 0.01, 2000);
        assert!(!traj.enters(bench.system.unsafe_set()), "trajectory reached Ξ");
        for x in traj.states.iter().step_by(50) {
            if bench.system.domain().contains(x) {
                assert!(
                    result.barrier.eval(x) >= -1e-6,
                    "B went negative on a reachable state {x:?}"
                );
                checked += 1;
            }
        }
    }
    println!("Checked B ≥ 0 on {checked} reachable states from 8 corner trajectories.");

    // Independent soundness path: δ-complete interval re-check of all three
    // barrier conditions.
    let ok = recheck_with_intervals(
        &result.barrier,
        &result.lambda,
        &bench.system,
        &result.inclusion,
        &BranchAndBound::default(),
        &snbc_telemetry::Telemetry::off(),
    );
    println!(
        "Interval (dReal-substitute) re-check of the certificate: {}",
        if ok { "CONFIRMED" } else { "NOT confirmed" }
    );
    Ok(())
}
