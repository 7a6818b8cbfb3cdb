//! Regenerates **Table 1** of the paper: performance of SNBC vs FOSSIL,
//! NNCChecker and SOSTOOLS on C1–C14.
//!
//! ```text
//! cargo run -p snbc-bench --release --bin table1 -- \
//!     [--benchmarks 1,2,3] [--tools snbc,fossil,nnc,sostools] \
//!     [--timeout 7200] [--csv bench-out/table1.csv] [--report bench-out] \
//!     [--trace-dir bench-out]
//! ```
//!
//! With `--report <dir>`, each SNBC run additionally writes its full
//! `snbc-run-report/1` telemetry document (see `docs/TELEMETRY.md`) to
//! `<dir>/BENCH_<name>.json` and prints the per-round table to stderr. With
//! `--trace-dir <dir>`, each SNBC run also writes a Chrome trace-event JSON
//! (`snbc-trace/1`, Perfetto-loadable; see `docs/TRACING.md`) to
//! `<dir>/TRACE_<name>.json`.
//!
//! Absolute numbers differ from the paper (different hardware, from-scratch
//! solvers); the claims under reproduction are the *shape*: SNBC solves all
//! rows, the SMT-based tools fall over as `n_x` grows, SOSTOOLS wins only in
//! low dimension, and SNBC's verification time stays small because it solves
//! three convex LMIs instead of SMT queries or one monolithic program.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "binary entry point: the terminal is its output")]

use std::io::Write as _;
use std::time::Duration;

use snbc_bench::{pretrain_controller, row_cells, run_tool_recorded, summarize, Tool};
use snbc_dynamics::benchmarks;
use snbc_telemetry::Telemetry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_ids: Vec<usize> = (1..=14).collect();
    let mut tools: Vec<Tool> = Tool::all().to_vec();
    let mut timeout = Duration::from_secs(7200);
    let mut csv_path = Some("bench-out/table1.csv".to_string());
    let mut report_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmarks" => {
                let v = it.next().expect("--benchmarks needs a list");
                bench_ids = v.split(',').map(|s| s.parse().expect("benchmark id")).collect();
            }
            "--tools" => {
                let v = it.next().expect("--tools needs a list");
                tools = v
                    .split(',')
                    .map(|s| Tool::parse(s).unwrap_or_else(|| panic!("unknown tool {s}")))
                    .collect();
            }
            "--timeout" => {
                let v = it.next().expect("--timeout needs seconds");
                timeout = Duration::from_secs(v.parse().expect("seconds"));
            }
            "--csv" => {
                csv_path = Some(it.next().expect("--csv needs a path").clone());
            }
            "--no-csv" => csv_path = None,
            "--report" => {
                report_dir = Some(it.next().expect("--report needs a directory").clone());
            }
            "--trace-dir" => {
                trace_dir = Some(it.next().expect("--trace-dir needs a directory").clone());
            }
            other => panic!("unknown argument {other}"),
        }
    }

    println!("# Table 1 reproduction — time in seconds, timeout {} s\n", timeout.as_secs());
    let mut header = String::from("| Ex. | n_x | d_f |");
    let mut rule = String::from("|---|---|---|");
    for t in &tools {
        header.push_str(&format!(" {} (d_B I T_l T_c T_v T_e) |", t.name()));
        rule.push_str("---|");
    }
    println!("{header}\n{rule}");

    let mut grid = Vec::new();
    let mut csv_rows = vec![format!(
        "benchmark,n_x,d_f,{}",
        tools
            .iter()
            .map(|t| {
                let n = t.name();
                format!("{n}_success,{n}_dB,{n}_iters,{n}_tl,{n}_tc,{n}_tv,{n}_te")
            })
            .collect::<Vec<_>>()
            .join(",")
    )];

    for &id in &bench_ids {
        let bench = if id == 0 {
            benchmarks::academic_3d()
        } else {
            benchmarks::benchmark(id)
        };
        eprintln!("[table1] {} (n_x={}, d_f={})", bench.name, bench.system.nvars(), bench.d_f);
        let controller = pretrain_controller(&bench);
        let mut row = Vec::new();
        let mut line = format!(
            "| {} | {} | {} |",
            bench.name,
            bench.system.nvars(),
            bench.d_f
        );
        let mut csv = format!("{},{},{}", bench.name, bench.system.nvars(), bench.d_f);
        for &tool in &tools {
            // Only SNBC runs are instrumented; baselines get a no-op sink.
            let telemetry = match (tool, &report_dir, &trace_dir) {
                (Tool::Snbc, Some(_), None) => Telemetry::recording(),
                (Tool::Snbc, _, Some(_)) => {
                    Telemetry::recording().with_trace(snbc_trace::Trace::recording())
                }
                _ => Telemetry::off(),
            };
            let r = run_tool_recorded(tool, &bench, &controller, timeout, telemetry.clone());
            if let (Some(dir), Some(rep)) = (&report_dir, telemetry.report()) {
                std::fs::create_dir_all(dir).expect("create report dir");
                let path = format!("{dir}/BENCH_{}.json", bench.name);
                std::fs::write(&path, rep.to_json_string()).expect("write run report");
                eprintln!("[table1]   run report -> {path}");
                eprintln!("[table1]   {}", snbc_bench::phase_wall_summary(&rep));
                eprint!("{}", snbc_telemetry::render_round_table(&rep));
            }
            if let (Some(dir), Some(dump)) = (&trace_dir, telemetry.trace().dump()) {
                std::fs::create_dir_all(dir).expect("create trace dir");
                let path = format!("{dir}/TRACE_{}.json", bench.name);
                std::fs::write(&path, dump.to_json_string()).expect("write trace");
                eprintln!("[table1]   trace ({} events) -> {path}", dump.event_count());
            }
            eprintln!(
                "[table1]   {} -> {}",
                tool.name(),
                if r.success { "ok" } else { r.failure.as_deref().unwrap_or("fail") }
            );
            line.push_str(&format!(" {} |", row_cells(&r)));
            csv.push_str(&format!(
                ",{},{},{},{:.3},{:.3},{:.3},{:.3}",
                r.success,
                r.barrier_degree.map_or(-1i64, i64::from),
                r.iterations,
                r.t_learn.as_secs_f64(),
                r.t_cex.as_secs_f64(),
                r.t_verify.as_secs_f64(),
                r.t_total.as_secs_f64()
            ));
            row.push(r);
        }
        println!("{line}");
        csv_rows.push(csv);
        grid.push(row);
    }

    // Summary statistics (§5 prose).
    let s = summarize(&grid);
    println!("\n## Summary");
    for (name, n) in &s.successes {
        println!("- {name}: {n}/{} solved", bench_ids.len());
    }
    println!("- Average total time on the subset solved by all tools:");
    for (name, a) in &s.avg_common {
        println!("    {name}: {a:.3} s");
    }
    println!("- Speed-up of {} over the others on that subset:", tools[0].name());
    for (name, f) in s.speedups.iter().skip(1) {
        println!("    vs {name}: {f:.2}x");
    }

    if let Some(path) = csv_path {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        let mut f = std::fs::File::create(&path).expect("create csv");
        for r in csv_rows {
            writeln!(f, "{r}").expect("write csv");
        }
        println!("\nCSV written to {path}");
    }
}
