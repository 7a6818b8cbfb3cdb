//! §3 in isolation: polynomial inclusion of an NN controller.
//!
//! Trains a small tanh controller, abstracts it as `h(x) + w` with
//! `w ∈ [−σ*, σ*]` at several polynomial degrees and mesh spacings, and
//! validates the Theorem 2 bound against dense probing.
//!
//! Run: `cargo run --release --example controller_abstraction`

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use snbc::{approximate_controller, ApproxOptions};
use snbc_dynamics::sample_box_halton;
use snbc_nn::{train_controller, ControllerTraining};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let domain = [(-2.0, 2.0), (-2.0, 2.0)];
    let controller = train_controller(&domain, |x| -x[0] - 0.5 * x[1] * x[1], &ControllerTraining::default());
    let lipschitz = controller.lipschitz_bound();
    println!("Controller: tanh MLP {:?}, Lipschitz bound {lipschitz:.3}\n", controller.layer_sizes());

    println!("| degree d | spacing s | v = C(n+d,n) | sigma_tilde | sigma* | probed sup |");
    println!("|---|---|---|---|---|---|");
    for degree in [1u32, 2, 3, 4] {
        for spacing in [0.2, 0.05] {
            let opts = ApproxOptions {
                degree,
                mesh_spacing: spacing,
                max_mesh_points: 200_000,
                ..Default::default()
            };
            let inc = approximate_controller(&|x| controller.forward(x), lipschitz, &domain, &opts)?;
            let mut sup: f64 = 0.0;
            for p in sample_box_halton(&domain, 20_000) {
                sup = sup.max((controller.forward(&p) - inc.h.eval(&p)).abs());
            }
            println!(
                "| {degree} | {spacing} | {} | {:.5} | {:.5} | {:.5} |",
                snbc_poly::basis_size(2, degree),
                inc.sigma_tilde,
                inc.sigma_star,
                sup
            );
            // Soundness of the inclusion: probed error within σ*.
            assert!(sup <= inc.sigma_star + 1e-9, "Theorem 2 bound violated");
        }
    }
    println!("\nEvery probed error is within the verified bound sigma* (Theorem 2).");
    println!("Higher degree shrinks sigma_tilde; finer mesh shrinks the Lipschitz gap.");
    Ok(())
}
