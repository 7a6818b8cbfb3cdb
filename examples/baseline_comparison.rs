//! One row of Table 1 in miniature: all four tools on benchmark C3.
//!
//! Run: `cargo run --release --example baseline_comparison`

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use std::time::Duration;

use snbc_bench::{pretrain_controller, run_tool, Tool};
use snbc_dynamics::benchmarks;

fn main() {
    let bench = benchmarks::benchmark(3);
    println!("Benchmark {} (n_x = {}, d_f = {})\n", bench.name, bench.system.nvars(), bench.d_f);
    let controller = pretrain_controller(&bench);

    println!("| tool | result | d_B | iters | T_l | T_v | T_e |");
    println!("|---|---|---|---|---|---|---|");
    for tool in Tool::all() {
        let r = run_tool(tool, &bench, &controller, Duration::from_secs(600));
        println!(
            "| {} | {} | {} | {} | {:.3} | {:.3} | {:.3} |",
            tool.name(),
            if r.success { "ok".to_string() } else { r.failure.clone().unwrap_or_default() },
            r.barrier_degree.map_or("-".into(), |d| d.to_string()),
            r.iterations,
            r.t_learn.as_secs_f64(),
            r.t_verify.as_secs_f64(),
            r.t_total.as_secs_f64()
        );
    }
    println!("\nExpected shape (cf. Table 1 row C3): every tool succeeds on a small 2-D");
    println!("system — including the SMT-based ones, cheaply. The separation appears as");
    println!("the dimension grows (see examples/highdim_verification.rs): SNBC's three");
    println!("convex LMI tests stay cheap while δ-complete SMT checks blow up.");
}
