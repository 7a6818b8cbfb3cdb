//! `snbc-audit` — the whole-program half of the SNBC workspace's static
//! gate.
//!
//! The from-scratch interior-point solvers (`snbc-lp`, `snbc-sdp`) stand in
//! for MOSEK-class solvers, and certificates must come out bitwise identical
//! at any thread count. The toolchain enforces most of that at each site:
//! under snbc-par's `Fn + Sync` closure bounds rustc rejects writes to
//! captures, `&mut` captures and `Cell`s, snbc-par hands results back in
//! index order, and
//! clippy (root `clippy.toml` and `[workspace.lints.clippy]`) bans exact
//! float comparisons, lossy casts, panics and swallowed `Result`s in solver
//! code, hash-order iteration, raw threads, clocks, environment reads,
//! locks, atomics and prints. This crate keeps the two rules that need the
//! whole program or the manifests:
//!
//! - **`hot-alloc`** ([`rules`]): `// audit:hot` functions stay allocation
//!   free, directly and through every resolved workspace callee. It runs on
//!   a comment/string-aware tokenizer ([`tokenizer`], no `syn`, std only), a
//!   brace-matched item tree with statement spans ([`syntax`]), per-scope
//!   `use`-alias tables ([`scopes`]), allocation leaves ([`effects`]) and a
//!   workspace call graph ([`callgraph`]).
//! - **`arch`** ([`arch`]): Cargo.toml dependencies must match the DESIGN.md
//!   DAG, externals limited to `rand`/`proptest`/`criterion`.
//!
//! `snbc-audit [--root <dir>]` prints every finding and exits 1 on any; a
//! reviewed allocation is a `// audit:allow(hot-alloc)` marker on the
//! statement, and a marker that suppresses nothing is a finding. See
//! `docs/AUDIT.md`. The runtime counterpart is the `sanitize` cargo feature
//! of eight crates: `snbc-linalg`, `snbc-lp`, `snbc-sdp`, `snbc-sos`,
//! `snbc-par`, `snbc-trace`, `snbc-telemetry` and `snbc`.

pub mod arch;
pub mod callgraph;
pub mod effects;
pub mod rules;
pub mod scopes;
pub mod syntax;
pub mod tokenizer;

use callgraph::FileAnalysis;
use rules::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Narrow an index to the `u32` ids of scopes and call-graph nodes.
pub(crate) fn id32(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 scopes and call-graph nodes")
}

/// Result of a workspace audit: all findings, sorted.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    /// Files scanned (workspace-relative), for reporting/coverage checks.
    pub files_scanned: usize,
    /// Functions an `// audit:hot` marker puts under `hot-alloc`.
    pub hot_kernels: usize,
}

impl AuditReport {
    /// Add one harvested file per entry, then run `hot-alloc` over them all.
    fn finish(mut self, analyses: &[FileAnalysis]) -> AuditReport {
        self.files_scanned += analyses.len();
        self.hot_kernels = analyses
            .iter()
            .flat_map(|fa| &fa.fns)
            .filter(|f| f.hot)
            .count();
        self.findings.extend(rules::hot_alloc(analyses));
        self.findings.sort();
        self
    }
}

/// Walk `crates/*/src/**/*.rs` plus every `crates/*/Cargo.toml` under
/// `root` and apply both rules: `arch` per manifest, `hot-alloc` over the
/// call graph of every source file. IO problems are hard errors: an
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
            analyses.push(callgraph::analyze_source(&crate_name, &rel_path(root, &path), &src));
        }
    }
    Ok(report.finish(&analyses))
}

/// Audit an in-memory set of `(crate_name, rel_path, source)` files — the
/// multi-crate fixture entry point of the tests. Runs `hot-alloc` as
/// [`audit_workspace`] does; there are no manifests to check.
pub fn audit_files(files: &[(&str, &str, &str)]) -> AuditReport {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(crate_name, rel, src)| callgraph::analyze_source(crate_name, rel, src))
        .collect();
    AuditReport::default().finish(&analyses)
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

    fn workspace_root() -> PathBuf {
        // CARGO_MANIFEST_DIR = crates/audit → workspace root is two up.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn audits_the_real_workspace() {
        let report = audit_workspace(&workspace_root()).unwrap();
        // The workspace has 19 crates with ~100 source files; if we ever
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

    #[test]
    fn every_hot_marker_in_the_tree_guards_one_kernel() {
        let root = workspace_root();
        let mut sources = Vec::new();
        collect_rs_files(&root.join("crates"), &mut sources).unwrap();
        let markers: usize = sources
            .iter()
            .filter(|p| p.components().any(|c| c.as_os_str() == "src"))
            .map(|p| {
                let src = fs::read_to_string(p).unwrap();
                src.lines().filter(|l| l.trim() == "// audit:hot").count()
            })
            .sum();
        let report = audit_workspace(&root).unwrap();
        assert!(markers > 30, "only {markers} markers found");
        assert_eq!(report.hot_kernels, markers);
    }
}
