//! The rules `snbc-audit` once carried now run on the stock toolchain.
//!
//! Nine token-level rules (`float-eq`, `lossy-cast`, `panicking`,
//! `nondet-iter`, `swallowed-result`, `raw-thread`, `raw-instant`,
//! `env-read`, `raw-print`) and the lock and atomic cases of
//! `par-capture-race` are clippy lints. This test compiles the fixtures
//! under `tests/clippy_fixtures/` into a scratch crate configured like the
//! workspace — the root `clippy.toml`, the `[workspace.lints.clippy]` table
//! of the root `Cargo.toml`, and the solver crates' crate-root lint
//! attribute, all read from the files at test time — and checks that clippy
//! reports every violation at its line, and nothing else: the exemptions
//! (hash-free iteration, widening casts, `env!`, local fns named like std
//! ones, test code, bin targets, reviewed `#[expect]`s) stay silent.
//! Deleting any mapped lint or banned path from the live configuration
//! fails it.
//!
//! The other four cases of `par-capture-race` are compile errors: a second
//! scratch crate builds `tests/compile_fail/par_closures.rs` against the
//! real `crates/par`, and rustc must reject it with exactly E0594, E0277,
//! E0596 and E0502 at the fixture's lines. Loosening an snbc-par closure
//! bound from `Fn` to `FnMut`, or dropping its `Sync`, fails it.

use snbc_trace::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The crates whose library code must not panic or drop a `Result`.
const SOLVER_CRATES: [&str; 6] = ["interval", "linalg", "lp", "portfolio", "sdp", "sos"];

/// Fixture modules of the scratch library (`tests/clippy_fixtures/<name>.rs`).
const LIB_FIXTURES: [&str; 7] = [
    "violations",
    "nondet_iter",
    "swallowed_result",
    "env_read",
    "threads_clock_print",
    "suppressed",
    "shared_state",
];

/// The fixture compiled as the scratch crate's binary target.
const BIN_FIXTURE: &str = "bin_target";

/// Every diagnostic clippy must report, one entry per diagnostic:
/// `(fixture, line, lint)`. Each comment names the audit rule the entries
/// replace and the old fixture lines they cover.
const EXPECTED: &[(&str, usize, &str)] = &[
    // float-eq @ violations.rs:7, 11, 15
    ("violations", 5, "clippy::float_cmp"),
    ("violations", 9, "clippy::float_cmp"),
    ("violations", 13, "clippy::float_cmp"),
    // lossy-cast @ violations.rs:19 (twice)
    ("violations", 17, "clippy::cast_possible_truncation"),
    ("violations", 17, "clippy::cast_possible_truncation"),
    // panicking @ violations.rs:27, 31, 35, 39, plus `todo!` and `unimplemented!`
    ("violations", 25, "clippy::unwrap_used"),
    ("violations", 29, "clippy::expect_used"),
    ("violations", 33, "clippy::panic"),
    ("violations", 37, "clippy::unreachable"),
    ("violations", 41, "clippy::todo"),
    ("violations", 45, "clippy::unimplemented"),
    // nondet-iter: the two imports, then @ nondet_iter.rs:11, 20, 25
    ("nondet_iter", 5, "clippy::disallowed_types"),
    ("nondet_iter", 6, "clippy::disallowed_types"),
    ("nondet_iter", 8, "clippy::disallowed_types"),
    ("nondet_iter", 17, "clippy::disallowed_types"),
    ("nondet_iter", 20, "clippy::disallowed_types"),
    // swallowed-result @ swallowed_result.rs:7, 11, 15, 19, 24
    ("swallowed_result", 5, "clippy::let_underscore_must_use"),
    ("swallowed_result", 9, "clippy::unused_result_ok"),
    (
        "swallowed_result",
        13,
        "clippy::no_effect_underscore_binding",
    ),
    ("swallowed_result", 17, "unused_variables"),
    ("swallowed_result", 22, "unused_variables"),
    // env-read @ env_read.rs:9, 13, then a renamed import, `vars`, `vars_os`
    ("env_read", 7, "clippy::disallowed_methods"),
    ("env_read", 11, "clippy::disallowed_methods"),
    ("env_read", 16, "clippy::disallowed_methods"),
    ("env_read", 20, "clippy::disallowed_methods"),
    ("env_read", 20, "clippy::disallowed_methods"),
    // raw-thread: `spawn`, a renamed `spawn`, `Builder::spawn`, `scope`
    ("threads_clock_print", 7, "clippy::disallowed_methods"),
    ("threads_clock_print", 12, "clippy::disallowed_methods"),
    ("threads_clock_print", 16, "clippy::disallowed_methods"),
    ("threads_clock_print", 20, "clippy::disallowed_methods"),
    // raw-instant: `Instant::now`, a renamed `Instant`, `SystemTime::now`
    ("threads_clock_print", 24, "clippy::disallowed_methods"),
    ("threads_clock_print", 29, "clippy::disallowed_methods"),
    ("threads_clock_print", 33, "clippy::disallowed_methods"),
    // raw-print: the four macros
    ("threads_clock_print", 37, "clippy::print_stdout"),
    ("threads_clock_print", 38, "clippy::print_stderr"),
    ("threads_clock_print", 39, "clippy::print_stdout"),
    ("threads_clock_print", 40, "clippy::print_stderr"),
    // the unsuppressed lines of suppressed.rs: float-eq @ 25, 31, lossy-cast @ 35
    ("suppressed", 12, "clippy::float_cmp"),
    ("suppressed", 16, "clippy::float_cmp"),
    ("suppressed", 20, "clippy::cast_possible_truncation"),
    // par-capture-race @ par_capture_race.rs:22 (lock in a worker), then the
    // rest of the lock family: `try_lock`, `RwLock::{read, write}`
    ("shared_state", 16, "clippy::disallowed_methods"),
    ("shared_state", 24, "clippy::disallowed_methods"),
    ("shared_state", 32, "clippy::disallowed_methods"),
    ("shared_state", 33, "clippy::disallowed_methods"),
    // par-capture-race @ par_capture_race.rs:28 (an atomic in a worker): the
    // import and the parameter, then the ten other atomic types
    ("shared_state", 6, "clippy::disallowed_types"),
    ("shared_state", 39, "clippy::disallowed_types"),
    ("shared_state", 47, "clippy::disallowed_types"),
    ("shared_state", 48, "clippy::disallowed_types"),
    ("shared_state", 49, "clippy::disallowed_types"),
    ("shared_state", 50, "clippy::disallowed_types"),
    ("shared_state", 51, "clippy::disallowed_types"),
    ("shared_state", 52, "clippy::disallowed_types"),
    ("shared_state", 53, "clippy::disallowed_types"),
    ("shared_state", 54, "clippy::disallowed_types"),
    ("shared_state", 55, "clippy::disallowed_types"),
    ("shared_state", 56, "clippy::disallowed_types"),
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `[workspace.lints.clippy]` table of the root manifest, verbatim.
fn workspace_lint_table() -> String {
    let manifest = read("Cargo.toml");
    let start = manifest
        .find("[workspace.lints.clippy]")
        .expect("the root Cargo.toml has a [workspace.lints.clippy] table");
    let table = &manifest[start..];
    let end = table[1..].find("\n[").map_or(table.len(), |i| i + 2);
    table[..end].to_string()
}

/// The crate-root `#![warn(...)]` lint attribute of `crates/<name>`, if any.
fn crate_root_lints(name: &str) -> Option<String> {
    let lib = read(&format!("crates/{name}/src/lib.rs"));
    let start = lib.find("#![warn(")?;
    let end = start + lib[start..].find(")]")? + 2;
    Some(lib[start..end].to_string())
}

/// `(fixture, line, lint)` of every diagnostic in cargo's JSON messages,
/// once per distinct source position (the lib and lib-test builds both
/// report the library's diagnostics).
fn diagnostics(stdout: &str) -> Vec<(String, usize, String)> {
    let mut seen = BTreeSet::new();
    for line in stdout.lines() {
        let msg = json::parse(line).unwrap_or_else(|e| panic!("bad cargo JSON {line}: {e:?}"));
        if msg.get("reason").and_then(Value::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(message) = msg.get("message") else {
            continue;
        };
        let Some(code) = message
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Value::as_str)
        else {
            continue;
        };
        let spans = message
            .get("spans")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        let Some(span) = spans
            .iter()
            .find(|s| matches!(s.get("is_primary"), Some(Value::Bool(true))))
        else {
            continue;
        };
        let file = span.get("file_name").and_then(Value::as_str).unwrap_or("");
        let fixture = match file.trim_start_matches("src/").trim_end_matches(".rs") {
            "main" => BIN_FIXTURE.to_string(),
            other => other.to_string(),
        };
        let at = |key: &str| span.get(key).and_then(Value::as_u64).unwrap_or(0);
        seen.insert((
            fixture,
            at("line_start"),
            at("column_start"),
            code.to_string(),
        ));
    }
    seen.into_iter()
        .map(|(fixture, line, _, code)| (fixture, usize::try_from(line).unwrap(), code))
        .collect()
}

fn counts<'a>(
    items: impl Iterator<Item = (&'a str, usize, &'a str)>,
) -> BTreeMap<(String, usize, String), usize> {
    let mut out = BTreeMap::new();
    for (fixture, line, lint) in items {
        *out.entry((fixture.to_string(), line, lint.to_string()))
            .or_insert(0) += 1;
    }
    out
}

#[test]
fn solver_lints_sit_on_exactly_the_solver_crates() {
    let lints = crate_root_lints("lp").expect("snbc-lp carries the solver lint attribute");
    let mut crates: Vec<String> = fs::read_dir(workspace_root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    for name in crates {
        let expected = SOLVER_CRATES
            .contains(&name.as_str())
            .then(|| lints.clone());
        assert_eq!(
            crate_root_lints(&name),
            expected,
            "crate-root lints of crates/{name}"
        );
    }
}

/// A fresh scratch crate directory under the system temp dir.
fn scratch_crate(tag: &str, manifest_tail: &str) -> PathBuf {
    let scratch = std::env::temp_dir().join(format!("snbc-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&scratch).ok();
    fs::create_dir_all(scratch.join("src")).unwrap();
    fs::write(
        scratch.join("Cargo.toml"),
        format!(
            "[package]\nname = \"{tag}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[workspace]\n\n{manifest_tail}"
        ),
    )
    .unwrap();
    scratch
}

/// Run `cargo <args> --offline --quiet --message-format=json` in `scratch`
/// with its own target dir, then delete the crate. Returns (success,
/// stdout, stderr).
fn cargo_json(scratch: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO"))
        .current_dir(scratch)
        .args(args)
        .args(["--offline", "--quiet", "--message-format=json"])
        .env("CARGO_TARGET_DIR", scratch.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("failed to spawn cargo");
    fs::remove_dir_all(scratch).ok();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn clippy_reports_every_migrated_violation_and_nothing_else() {
    let scratch = scratch_crate(
        "clippy-migration",
        &format!("{}\n[lints]\nworkspace = true\n", workspace_lint_table()),
    );
    let src = scratch.join("src");
    fs::write(scratch.join("clippy.toml"), read("clippy.toml")).unwrap();
    let mut lib = crate_root_lints("lp").expect("snbc-lp carries the solver lint attribute");
    lib.push_str("\n\n");
    for name in LIB_FIXTURES {
        lib.push_str(&format!("pub mod {name};\n"));
        fs::write(
            src.join(format!("{name}.rs")),
            read(&format!("tests/clippy_fixtures/{name}.rs")),
        )
        .unwrap();
    }
    fs::write(src.join("lib.rs"), lib).unwrap();
    fs::write(
        src.join("main.rs"),
        read(&format!("tests/clippy_fixtures/{BIN_FIXTURE}.rs")),
    )
    .unwrap();

    let (ok, stdout, stderr) = cargo_json(&scratch, &["clippy", "--all-targets"]);
    assert!(ok, "cargo clippy failed:\n{stderr}\n{stdout}");

    let reported = diagnostics(&stdout);
    let got = counts(
        reported
            .iter()
            .map(|(f, l, c)| (f.as_str(), *l, c.as_str())),
    );
    let want = counts(EXPECTED.iter().copied());
    assert_eq!(
        got, want,
        "clippy diagnostics (fixture, line, lint) → count"
    );
}

#[test]
fn par_closures_that_write_shared_state_do_not_compile() {
    let par = workspace_root().join("crates/par");
    let scratch = scratch_crate(
        "par-closures",
        &format!("[dependencies]\nsnbc-par = {{ path = {:?} }}\n", par.display().to_string()),
    );
    fs::write(
        scratch.join("src/lib.rs"),
        read("tests/compile_fail/par_closures.rs"),
    )
    .unwrap();

    let (ok, stdout, stderr) = cargo_json(&scratch, &["check"]);
    assert!(!ok, "the fixture compiled:\n{stderr}");
    let got = counts(
        diagnostics(&stdout)
            .iter()
            .map(|(f, l, c)| (f.as_str(), *l, c.as_str())),
    );
    let want = counts(
        [(11, "E0594"), (17, "E0277"), (21, "E0596"), (25, "E0502")]
            .into_iter()
            .map(|(line, code)| ("lib", line, code)),
    );
    assert_eq!(got, want, "rustc errors (file, line, code) → count\n{stderr}");
}
