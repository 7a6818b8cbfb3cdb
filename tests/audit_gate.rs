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

/// A one-crate fake workspace whose `crates/lp/src/lib.rs` is `src`.
fn fake_workspace(tag: &str, src: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("snbc-audit-{tag}-{}", std::process::id()));
    let src_dir = root.join("crates/lp/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        root.join("crates/lp/Cargo.toml"),
        "[package]\nname = \"snbc-lp\"\n\n[dependencies]\nsnbc-linalg.workspace = true\n",
    )
    .unwrap();
    fs::write(src_dir.join("lib.rs"), src).unwrap();
    root
}

#[test]
fn seeded_violation_fails_the_gate() {
    // An allocating `// audit:hot` kernel, a hot marker above a struct, and
    // an allow marker on cold code that no kernel reaches.
    let root = fake_workspace(
        "seeded",
        "// audit:hot\n\
         pub fn kernel(xs: &[f64]) -> Vec<f64> {\n    xs.to_vec()\n}\n\
         // audit:hot\n\
         pub struct Dangling;\n\
         pub fn setup(n: usize) -> Vec<f64> {\n    // audit:allow(hot-alloc)\n    vec![0.0; n]\n}\n",
    );

    let out = run_audit(&["--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    fs::remove_dir_all(&root).ok();

    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 on seeded violations.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("[hot-alloc] 3 finding(s)"), "stdout: {stdout}");
    for (line, what) in [
        (3, "`.to_vec()` allocation in hot function `lp::kernel`"),
        (5, "`// audit:hot` attaches to no `fn` item"),
        (8, "`audit:allow(hot-alloc)` suppresses nothing"),
    ] {
        assert!(
            stdout.contains(&format!("crates/lp/src/lib.rs:{line}: {what}")),
            "line {line}: {stdout}"
        );
    }
}

#[test]
fn clean_twin_of_the_seeded_tree_passes_the_gate() {
    // The hot kernel writes into a caller buffer, and the one reviewed
    // allocation sits on a call the kernel makes, so its marker is needed.
    let root = fake_workspace(
        "clean",
        "// audit:hot\n\
         pub fn kernel(xs: &[f64], out: &mut [f64]) -> usize {\n    \
         out.copy_from_slice(xs);\n    // audit:allow(hot-alloc)\n    setup(xs.len()).len()\n}\n\
         pub fn setup(n: usize) -> Vec<f64> {\n    vec![0.0; n]\n}\n",
    );

    let out = run_audit(&["--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    fs::remove_dir_all(&root).ok();

    assert!(
        out.status.success(),
        "clean tree must pass.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("1 hot kernels, 0 finding(s)"), "stdout: {stdout}");
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
