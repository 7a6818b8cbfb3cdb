//! High-dimensional verification: the 7-D linear cascade C12.
//!
//! Demonstrates the paper's scalability claim: the three split LMI
//! feasibility problems stay tractable as `n_x` grows, while an SMT-style
//! δ-complete check of the same conditions grinds through exponentially many
//! boxes.
//!
//! Run: `cargo run --release --example highdim_verification`

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use std::time::Duration;

use snbc::Snbc;
use snbc_bench::{pretrain_controller, snbc_config_for};
use snbc_dynamics::benchmarks;
use snbc_interval::{BranchAndBound, Interval};
use snbc_poly::lie_derivative;
use snbc_trace::Stopwatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmarks::benchmark(12);
    println!(
        "C12: {} (n_x = {}, d_f = {})\n",
        bench.citation,
        bench.system.nvars(),
        bench.d_f
    );
    let controller = pretrain_controller(&bench);

    // The Table 1 configuration: capped Halton mesh, degree-1 abstraction,
    // interval-certified error bound (see snbc_bench::snbc_config_for).
    let cfg = snbc_config_for(&bench, Duration::from_secs(600));
    let t = Stopwatch::start();
    let result = Snbc::new(cfg).synthesize(&bench, &controller)?;
    println!("SNBC certified C12 in {:.2} s ({} iterations)", t.elapsed().as_secs_f64(), result.iterations);
    println!("  T_v (three LMI problems) = {:.3} s", result.t_verify.as_secs_f64());
    println!("  B(x) has {} terms, degree {}", result.barrier.num_terms(), result.barrier.degree());

    // Contrast: the SMT-style check of just the flow condition.
    let field = bench.system.close_loop_with_error(&result.inclusion.h);
    let lie = lie_derivative(&result.barrier, &field);
    let expr = &lie - &(&result.lambda * &result.barrier);
    let mut dom: Vec<Interval> = bench
        .system
        .domain()
        .bounding_box()
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    dom.push(Interval::new(
        -result.inclusion.sigma_star,
        result.inclusion.sigma_star,
    ));
    let budget = 400_000;
    let bb = BranchAndBound {
        delta: 1e-2,
        max_boxes: budget,
        ..Default::default()
    };
    let t = Stopwatch::start();
    let rep = bb.check_at_least(&expr, &dom, bench.system.domain().polys(), 0.0);
    println!(
        "\nSMT-style check of the flow condition alone: {:?} after {} boxes in {:.2} s",
        match rep.verdict {
            snbc_interval::Verdict::Holds => "proved",
            snbc_interval::Verdict::Violated { .. } => "violated?!",
            snbc_interval::Verdict::Unknown { .. } => "GAVE UP (box budget)",
        },
        rep.boxes_processed,
        t.elapsed().as_secs_f64()
    );
    println!(
        "This is the Table 1 story: at n_x = 7 the SMT route needs ~{budget}+ boxes, \
         the LMI route three small SDPs."
    );
    Ok(())
}
