//! Multi-input systems (§3's "multiple-output cases can be handled in a
//! similar manner"): a planar system with two NN-controlled channels.
//!
//! Each control channel gets its own polynomial inclusion `uⱼ = hⱼ(x) + wⱼ`;
//! the flow condition is verified robustly over the product of the error
//! bands with `snbc::verify_multi`.
//!
//! Run: `cargo run --release --example multi_input`

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use snbc::{
    approximate_mlp, verify_multi, ApproxOptions, Learner, LearnerConfig, TrainingSets,
    VerifierConfig,
};
use snbc_dynamics::{Ccds, SemiAlgebraicSet};
use snbc_nn::{train_controller, ControllerTraining, MultiplierNet, QuadraticNet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Coupled planar system with two inputs:
    //   ẋ₀ = x₁ + u₁,  ẋ₁ = −0.5·x₀ + 0.2·x₀·x₁ + u₂  (u₁ = x2, u₂ = x3).
    let system = Ccds::new_multi(
        "planar-2u",
        vec![
            "x1 + x2".parse()?,
            "-0.5*x0 + 0.2*x0*x1 + x3".parse()?,
        ],
        2,
        SemiAlgebraicSet::box_set(&[(-0.3, 0.3), (-0.3, 0.3)]),
        SemiAlgebraicSet::box_set(&[(-2.0, 2.0), (-2.0, 2.0)]),
        SemiAlgebraicSet::box_set(&[(1.5, 2.0), (1.5, 2.0)]),
    );
    println!("System: {} with {} control channels", system.name(), system.num_inputs());

    // One tanh controller per channel (the DDPG substitute, per channel).
    let domain = system.domain().bounding_box();
    let k1 = train_controller(domain, |x| -1.2 * x[0], &ControllerTraining::default());
    let k2 = train_controller(domain, |x| -1.2 * x[1], &ControllerTraining::default());

    // Per-channel polynomial inclusions (§3).
    let opts = ApproxOptions::default();
    let inc1 = approximate_mlp(&k1, domain, &opts)?;
    let inc2 = approximate_mlp(&k2, domain, &opts)?;
    println!(
        "channel 1: |k₁ − h₁| ≤ {:.4};  channel 2: |k₂ − h₂| ≤ {:.4}",
        inc1.sigma_star, inc2.sigma_star
    );

    // Learn a barrier candidate on the robust closed loop (w₁, w₂ at the
    // worst corners are bracketed by training on the nominal loop here; the
    // verifier carries the full band).
    let closed = system.close_loop_multi(&[inc1.h.clone(), inc2.h.clone()]);
    let mut learner = Learner::new(
        QuadraticNet::new(2, &[10], 3),
        MultiplierNet::linear(2, &[5], 4),
        LearnerConfig::default(),
    );
    let sets = TrainingSets::sample(&system, 300, 5);
    learner.train(&closed, 0.0, &sets);
    let b = learner.barrier_polynomial().prune(1e-9);
    println!("candidate B(x) = {b}");

    // Robust multi-channel verification.
    let inclusions = [inc1, inc2];
    let outcome = verify_multi(&system, &inclusions, &b, &VerifierConfig::default());
    println!(
        "init: {} (margin {:.4}) | unsafe: {} (margin {:.4}) | flow: {} (margin {:.4})",
        outcome.init.feasible,
        outcome.init.margin,
        outcome.unsafe_.feasible,
        outcome.unsafe_.margin,
        outcome.flow.feasible,
        outcome.flow.margin
    );
    if outcome.is_certified() {
        println!("VERIFIED: B is a barrier certificate for the two-input closed loop.");
    } else {
        println!(
            "not certified (failed: {:?}) — in the full pipeline this feeds the CEGIS loop",
            outcome.failed_conditions()
        );
    }
    Ok(())
}
