//! Integration test of the `snbc-audit` binary as a gate: the committed tree
//! must pass with no finding, and a seeded violation must fail.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run the audit binary via `cargo run` (builds it if needed).
fn run_audit(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "-q", "-p", "snbc-audit", "--"])
        .args(extra)
        .output()
        .expect("failed to spawn cargo run -p snbc-audit")
}

#[test]
fn committed_tree_passes_the_gate() {
    let out = run_audit(&[]);
    assert!(
        out.status.success(),
        "audit gate failed on the committed tree.\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no findings"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn seeded_violation_fails_the_gate() {
    // A minimal fake workspace with one solver crate holding an allocating
    // `// audit:hot` kernel and a parallel closure that writes a capture.
    let root = std::env::temp_dir().join(format!("snbc-audit-seeded-{}", std::process::id()));
    let src_dir = root.join("crates/lp/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        root.join("crates/lp/Cargo.toml"),
        "[package]\nname = \"snbc-lp\"\n\n[dependencies]\nsnbc-linalg.workspace = true\n",
    )
    .unwrap();
    fs::write(
        src_dir.join("lib.rs"),
        "// audit:hot\n\
         pub fn kernel(xs: &[f64]) -> Vec<f64> {\n    xs.to_vec()\n}\n\
         pub fn count(n: usize) -> f64 {\n    let mut acc = 0.0;\n    \
         snbc_par::par_for_chunks(n, 16, |lo, hi| {\n        acc += (hi - lo) as f64;\n    });\n    acc\n}\n",
    )
    .unwrap();

    let out = run_audit(&["--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    fs::remove_dir_all(&root).ok();

    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 on seeded violations.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("2 finding(s)"), "stdout: {stdout}");
    assert!(
        stdout.contains("crates/lp/src/lib.rs:3"),
        "hot-alloc at the to_vec: {stdout}"
    );
    assert!(stdout.contains("[hot-alloc]"), "stdout: {stdout}");
    assert!(stdout.contains("[par-capture-race]"), "stdout: {stdout}");
}

#[test]
fn gate_passes_with_an_absent_baseline_when_tree_is_clean() {
    // The clean twin of the seeded workspace: the `// audit:hot` kernel
    // writes into a caller buffer and the parallel closure writes nothing it
    // captures. No baseline file exists anywhere under the root, and the gate
    // must still pass with zero findings.
    let root = std::env::temp_dir().join(format!("snbc-audit-clean-{}", std::process::id()));
    let src_dir = root.join("crates/lp/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        root.join("crates/lp/Cargo.toml"),
        "[package]\nname = \"snbc-lp\"\n\n[dependencies]\nsnbc-linalg.workspace = true\n",
    )
    .unwrap();
    fs::write(
        src_dir.join("lib.rs"),
        "// audit:hot\n\
         pub fn kernel(xs: &[f64], out: &mut [f64]) {\n    out.copy_from_slice(xs);\n}\n\
         pub fn count(n: usize) -> usize {\n    \
         snbc_par::par_for_chunks(n, 16, |lo, hi| {\n        let _ = hi - lo;\n    });\n    n\n}\n",
    )
    .unwrap();
    assert!(!root.join("audit-baseline.txt").exists());

    let out = run_audit(&["--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    fs::remove_dir_all(&root).ok();

    assert!(
        out.status.success(),
        "clean tree must pass with no baseline.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("no findings"), "stdout: {stdout}");
}

#[test]
fn root_is_the_only_option() {
    for removed in [
        vec!["--baseline", "audit-baseline.txt"],
        vec!["--update-baseline"],
        vec!["--list"],
        vec!["--format", "json"],
        vec!["--output", "report.txt"],
        vec!["--paths", "crates"],
        vec!["explain", "hot-alloc"],
        vec!["graph"],
    ] {
        let out = run_audit(&removed);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{}` must be a usage error",
            removed.join(" ")
        );
    }
}
