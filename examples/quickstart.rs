//! Quickstart: synthesize a neural barrier certificate for a 2-D benchmark.
//!
//! Run: `cargo run --release --example quickstart [-- --report <json-file>]`
//!
//! With `--report`, the run's full telemetry document (schema
//! `snbc-run-report/1`, see `docs/TELEMETRY.md`) is written to the given
//! path; the per-round table is printed either way.

#![expect(clippy::print_stdout, reason = "example program: it reports on stdout")]

use snbc::{Snbc, SnbcConfig};
use snbc_dynamics::benchmarks;
use snbc_nn::{train_controller, ControllerTraining};
use snbc_telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report_path = Some(args.next().ok_or("--report needs a path")?),
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    // 1. Pick a benchmark system C = ⟨f, Θ, Ψ⟩ with unsafe set Ξ.
    let bench = benchmarks::benchmark(3);
    println!(
        "System {}: n_x = {}, d_f = {}",
        bench.name,
        bench.system.nvars(),
        bench.d_f
    );

    // 2. Pre-train the NN controller (the paper uses DDPG; we regress onto a
    //    stabilizing law — the pipeline only sees the fixed network).
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );
    println!(
        "Controller: tanh MLP {:?}, Lipschitz bound {:.3}",
        controller.layer_sizes(),
        controller.lipschitz_bound()
    );

    // 3. Run SNBC (Algorithm 1) with a recording telemetry sink:
    //    abstraction → learn → LMI-verify → refine, every phase timed.
    let telemetry = Telemetry::recording();
    let result = Snbc::new(SnbcConfig::default())
        .with_telemetry(telemetry.clone())
        .synthesize(&bench, &controller)?;

    // 4. The telemetry report: per-round table on stdout, JSON on request.
    if let Some(report) = telemetry.report() {
        println!("\n{}", snbc_telemetry::render_round_table(&report));
        if let Some(path) = &report_path {
            std::fs::write(path, report.to_json_string())?;
            println!("run report written to {path}");
        }
    }

    println!("\nVerified barrier certificate (after {} iterations):", result.iterations);
    println!("  B(x) = {}", result.barrier);
    println!("  λ(x) = {}", result.lambda);
    println!(
        "  controller abstraction: h(x) with |k(x) − h(x)| ≤ σ* = {:.4}",
        result.inclusion.sigma_star
    );
    println!(
        "  LMI margins: init {:.4}, unsafe {:.4}, flow {:.4}",
        result.verification.init.margin,
        result.verification.unsafe_.margin,
        result.verification.flow.margin
    );
    println!(
        "  timings: T_l {:.3}s, T_c {:.3}s, T_v {:.3}s, T_e {:.3}s",
        result.t_learn.as_secs_f64(),
        result.t_cex.as_secs_f64(),
        result.t_verify.as_secs_f64(),
        result.t_total.as_secs_f64()
    );
    Ok(())
}
