//! `snbc-audit` binary: audit the workspace and gate on any finding.
//!
//! ```text
//! snbc-audit [--root <dir>]
//! ```
//!
//! Prints every finding (contract findings with their call chains) and exits
//! 0 when there are none, 1 when there are any, 2 on a usage or IO error.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "binary entry point: the terminal is its output"
)]

use snbc_audit::{audit_workspace, render_findings};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "snbc-audit [--root <dir>]";

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("snbc-audit: error: {msg}\nusage: {USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    // Default root: the workspace this binary was built from (crates/audit/../..).
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = root
        .canonicalize()
        .map_err(|e| format!("cannot resolve root: {e}"))?;

    let report = audit_workspace(&root)?;
    println!(
        "snbc-audit: scanned {} source files, {} finding(s)",
        report.files_scanned,
        report.findings.len()
    );
    if report.findings.is_empty() {
        println!("snbc-audit: OK (no findings)");
        return Ok(true);
    }
    print!("{}", render_findings(&report.findings));
    eprintln!(
        "snbc-audit: fix the findings, or mark a reviewed exception with `// audit:allow(<rule>)` on the statement"
    );
    Ok(false)
}
