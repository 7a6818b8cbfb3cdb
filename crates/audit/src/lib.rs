//! `snbc-audit` — whole-program determinism analysis for the SNBC workspace.
//!
//! The from-scratch interior-point solvers (`snbc-lp`, `snbc-sdp`) stand in
//! for MOSEK-class solvers, and certificates must come out bitwise identical
//! at any thread count. Clippy (root `clippy.toml` and
//! `[workspace.lints.clippy]`) guards each call site: exact float
//! comparisons, lossy casts, panics and swallowed `Result`s in solver code,
//! hash-order iteration, raw threads, clocks, environment reads and prints.
//! This crate keeps only what needs the whole program or a dataflow view:
//!
//! - a comment/string-aware tokenizer ([`tokenizer`]) — no `syn`, std only;
//! - a brace-matched item tree ([`syntax`]) mapping every token to its
//!   scope, statement span, and structural `#[cfg(test)]`/`#[test]` status;
//! - per-scope `use`-alias symbol tables ([`scopes`]);
//! - a statement-level dataflow engine ([`dataflow`]) powering the two
//!   per-file rules ([`rules`]): `unordered-reduce` (float folds over values
//!   that flow from parallel output) and `par-capture-race` (`snbc_par`
//!   closures touching shared mutable state);
//! - an interprocedural effect engine: per-function effect leaves
//!   ([`effects`]), a workspace call graph with SCC-fixpoint propagation
//!   ([`callgraph`]), and the contracts over it ([`contracts`]) — solver
//!   crates transitively env/thread/clock-free (`solver-effects`),
//!   `// audit:hot` functions transitively allocation-free (`hot-alloc`),
//!   parallel callees deterministic (`par-callee`);
//! - architecture rules ([`arch`]): Cargo.toml dependencies must match the
//!   DESIGN.md DAG, externals limited to `rand`/`proptest`/`criterion`/`serde`.
//!
//! `snbc-audit [--root <dir>]` prints every finding and exits 1 on any; a
//! reviewed exception is a `// audit:allow(<rule>)` marker on the statement.
//! See `docs/AUDIT.md`. The runtime counterpart is the `sanitize` cargo
//! feature on `snbc-linalg`/`snbc-lp`/`snbc-sdp`.

pub mod arch;
pub mod callgraph;
pub mod contracts;
pub mod dataflow;
pub mod effects;
pub mod rules;
pub mod scopes;
pub mod syntax;
pub mod tokenizer;

use callgraph::{CallGraph, FileAnalysis};
use rules::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose direct `std::thread` spawns are sanctioned: the
/// deterministic parallel runtime itself and the telemetry sink (thread-name
/// labels). Their spawn leaves do not propagate.
pub const THREAD_OWNER_CRATES: &[&str] = &["par", "telemetry"];

/// Crates whose direct clock reads are sanctioned: the trace clock itself
/// plus the observability crates that wrap it. Their clock leaves do not
/// propagate.
pub const INSTANT_OWNER_CRATES: &[&str] = &["trace", "telemetry", "par"];

/// Crates whose environment reads are sanctioned: the deterministic runtime
/// (`SNBC_THREADS`), the CLI (user-facing flags), and the audit tool itself.
/// Their env leaves do not propagate.
pub const ENV_OWNER_CRATES: &[&str] = &["par", "cli", "audit"];

/// The deterministic runtime, whose own reduction trees and worker state are
/// deterministic by construction: exempt from `unordered-reduce` and
/// `par-capture-race`, and its `unordered-fp-fold` leaves are masked.
pub const FOLD_OWNER_CRATES: &[&str] = &["par"];

/// Narrow an index to the `u32` ids of scopes and call-graph nodes.
pub(crate) fn id32(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 scopes and call-graph nodes")
}

/// Result of a workspace audit: all unsuppressed findings, sorted.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    /// Files scanned (workspace-relative), for reporting/coverage checks.
    pub files_scanned: usize,
}

/// Walk `crates/*/src/**/*.rs` plus every `crates/*/Cargo.toml` under
/// `root` and apply all rules: pass 1 scans each file (dataflow rules +
/// call-graph harvest), pass 2 links the workspace graph, propagates
/// effects, and runs the contracts. IO problems are hard errors: an
/// unreadable source file must fail the gate, not silently shrink its
/// coverage.
pub fn audit_workspace(root: &Path) -> Result<AuditReport, String> {
    let crates_dir = root.join("crates");
    let mut report = AuditReport::default();
    let mut analyses: Vec<FileAnalysis> = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();

        let manifest_path = crate_dir.join("Cargo.toml");
        if manifest_path.is_file() {
            let manifest = fs::read_to_string(&manifest_path)
                .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
            let rel = rel_path(root, &manifest_path);
            report
                .findings
                .extend(arch::check_manifest(&crate_name, &rel, &manifest));
        }

        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut sources = Vec::new();
        collect_rs_files(&src_dir, &mut sources)?;
        sources.sort();
        for path in sources {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = rel_path(root, &path);
            let scan = rules::scan_source_full(&rel, &src, &crate_name);
            report.findings.extend(scan.findings);
            analyses.push(scan.analysis);
            report.files_scanned += 1;
        }
    }

    report
        .findings
        .extend(contracts::check(&CallGraph::build(&analyses)));
    report.findings.sort();
    Ok(report)
}

/// Audit an in-memory set of `(crate_name, rel_path, source)` files — the
/// multi-crate fixture entry point used by interprocedural tests. Runs the
/// same two passes as [`audit_workspace`] minus the manifest checks.
pub fn audit_files(files: &[(&str, &str, &str)]) -> AuditReport {
    let mut report = AuditReport::default();
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    for (crate_name, rel, src) in files {
        let scan = rules::scan_source_full(rel, src, crate_name);
        report.findings.extend(scan.findings);
        analyses.push(scan.analysis);
        report.files_scanned += 1;
    }
    report
        .findings
        .extend(contracts::check(&CallGraph::build(&analyses)));
    report.findings.sort();
    report
}

/// Render sorted findings grouped by rule, for terminal output. Contract
/// findings list their call chain as indented `via` lines.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    for (i, f) in findings.iter().enumerate() {
        if i == 0 || findings[i - 1].rule != f.rule {
            let count = findings[i..]
                .iter()
                .take_while(|g| g.rule == f.rule)
                .count();
            out.push_str(&format!("[{}] {count} finding(s)\n", f.rule.id()));
        }
        out.push_str(&format!("  {}:{}: {}\n", f.file, f.line, f.message));
        // Frame 0 is the flagged site itself, already printed above.
        for frame in f.chain.iter().skip(1) {
            out.push_str(&format!(
                "    via {}:{}: {}\n",
                frame.file, frame.line, frame.note
            ));
        }
    }
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))? {
        let entry =
            entry.map_err(|e| format!("cannot read dir entry under {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audits_the_real_workspace() {
        // CARGO_MANIFEST_DIR = crates/audit → workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap();
        let report = audit_workspace(&root).unwrap();
        // The workspace has 18 crates with ~100 source files; if we ever
        // scan fewer than 50 something is broken in the walker.
        assert!(
            report.files_scanned > 50,
            "only scanned {}",
            report.files_scanned
        );
        assert!(
            report.findings.is_empty(),
            "{}",
            render_findings(&report.findings)
        );
    }
}
