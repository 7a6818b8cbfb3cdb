//! Reproduces the **Theorem 2 / Remark 1** convergence behaviour: as the mesh
//! spacing `s` shrinks, the sampled Chebyshev optimum `σ̃` approaches the true
//! uniform error `σ` from below while the sound bound `σ* = σ̃ + ½sL·√n`
//! tightens from above.
//!
//! Run: `cargo run -p snbc-bench --release --bin theorem2_gap`

#![expect(clippy::print_stdout, reason = "binary entry point: the terminal is its output")]

use snbc::{approximate_controller, ApproxOptions};
use snbc_bench::pretrain_controller;
use snbc_dynamics::benchmarks;

fn main() {
    let bench = benchmarks::benchmark(1);
    let controller = pretrain_controller(&bench);
    let domain = bench.system.domain().bounding_box();
    let lipschitz = controller.lipschitz_bound();
    println!(
        "Controller: tanh MLP {:?} on C1, Lipschitz bound L = {lipschitz:.4}\n",
        controller.layer_sizes()
    );
    println!("| mesh spacing s | mesh points | sigma_tilde | sigma* | probed sup error |");
    println!("|---|---|---|---|---|");

    let mut first_star = None;
    let mut last_star = f64::INFINITY;
    for &s in &[0.4, 0.2, 0.1, 0.05, 0.025] {
        let opts = ApproxOptions {
            degree: 2,
            mesh_spacing: s,
            max_mesh_points: 2_000_000,
            ..Default::default()
        };
        let inc = approximate_controller(&|x| controller.forward(x), lipschitz, domain, &opts)
            .expect("Chebyshev LP");
        // Dense probe of the true uniform error (ground truth estimate).
        let probes = snbc_dynamics::sample_box_halton(domain, 40_000);
        let mut sup: f64 = 0.0;
        for p in &probes {
            sup = sup.max((controller.forward(p) - inc.h.eval(p)).abs());
        }
        println!(
            "| {s} | {} | {:.6} | {:.6} | {:.6} |",
            inc.mesh_points, inc.sigma_tilde, inc.sigma_star, sup
        );
        // Remark 1 invariants. Meshes at different spacings are not nested,
        // so σ̃ is only monotone in expectation; the hard guarantees are the
        // sandwich σ̃ ≤ sup|k−h| ≤ σ* at every spacing, and that refining the
        // mesh ultimately tightens σ*.
        assert!(inc.sigma_tilde <= sup + 1e-9, "sigma_tilde lower-bounds the sup");
        assert!(sup <= inc.sigma_star + 1e-9, "sigma* upper-bounds the sup");
        first_star.get_or_insert(inc.sigma_star);
        last_star = inc.sigma_star;
    }
    assert!(
        last_star <= first_star.expect("at least one spacing") + 1e-9,
        "refining the mesh from s = 0.4 to s = 0.025 must tighten sigma*"
    );
    println!("\nAll Theorem 2 sandwich inequalities verified: sigma_tilde <= sup|k-h| <= sigma*.");
}
