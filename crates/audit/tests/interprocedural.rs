//! Integration tests for the interprocedural half of `hot-alloc`:
//! multi-crate fixtures audited through [`snbc_audit::audit_files`], checking
//! that allocations reach hot functions across calls, with full call chains.

use snbc_audit::audit_files;
use snbc_audit::rules::{Finding, Rule};

fn of_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn transitive_allocation_reaches_the_hot_contract() {
    // lp's hot kernel → linalg helper → helper → `vec!`. The allocation is
    // two hops away from the kernel; the kernel's outgoing call is flagged
    // with the full chain down to the leaf.
    let report = audit_files(&[
        (
            "linalg",
            "crates/linalg/src/helper.rs",
            "pub fn scratch(n: usize) -> Vec<f64> {\n    zeros(n)\n}\npub fn zeros(n: usize) -> Vec<f64> {\n    vec![0.0; n]\n}\n",
        ),
        (
            "lp",
            "crates/lp/src/lib.rs",
            "// audit:hot\npub fn solve(n: usize) -> f64 {\n    snbc_linalg::scratch(n)[0] * 2.0\n}\n",
        ),
    ]);
    let hits = of_rule(&report.findings, Rule::HotAlloc);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    let f = hits[0];
    assert_eq!((f.file.as_str(), f.line), ("crates/lp/src/lib.rs", 3));
    assert!(f.message.contains("linalg::scratch"), "message: {}", f.message);
    // Chain: lp::solve calls scratch → scratch calls zeros → `vec!` leaf.
    assert_eq!(f.chain.len(), 3, "chain: {:?}", f.chain);
    assert!(f.chain[0].note.contains("solve"), "chain: {:?}", f.chain);
    assert!(
        f.chain.last().unwrap().note.contains("`vec!` allocation"),
        "chain: {:?}",
        f.chain
    );
    // The terminal lister prints the chain as indented `via` hops (frame 0 is
    // the flagged site itself and is not repeated).
    let listing = snbc_audit::render_findings(&report.findings);
    assert!(listing.contains("    via "), "listing:\n{listing}");
    assert!(listing.contains("linalg::zeros"), "listing:\n{listing}");
}

#[test]
fn mutual_recursion_converges_and_still_carries_effects() {
    // even/odd mutual recursion where the odd side allocates: the walk must
    // settle (no hang) and both members must carry the allocation into the
    // hot kernel that calls one of them.
    let report = audit_files(&[
        (
            "linalg",
            "crates/linalg/src/lib.rs",
            "pub fn even(n: u64) -> bool {\n    if n == 0 { true } else { odd(n - 1) }\n}\npub fn odd(n: u64) -> bool {\n    let _v = vec![n];\n    if n == 0 { false } else { even(n - 1) }\n}\n",
        ),
        (
            "sdp",
            "crates/sdp/src/lib.rs",
            "// audit:hot\npub fn schedule(n: u64) -> bool {\n    snbc_linalg::even(n)\n}\n",
        ),
    ]);
    let hits = of_rule(&report.findings, Rule::HotAlloc);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("linalg::even"), "message: {}", hits[0].message);
}

#[test]
fn trait_methods_resolve_conservatively_by_name_and_arity() {
    // `step(&self, x)` is called through a receiver whose concrete type the
    // engine does not know, so every same-name-same-arity method in a crate
    // the caller can depend on is a candidate — including the one that
    // allocates.
    let report = audit_files(&[
        (
            "metrics",
            "crates/metrics/src/lib.rs",
            "pub struct Fast;\nimpl Fast {\n    pub fn step(&self, x: f64) -> f64 { x + 1.0 }\n}\npub struct Boxed;\nimpl Boxed {\n    pub fn step(&self, x: f64) -> f64 {\n        let v = vec![x; 2];\n        v[0]\n    }\n}\n",
        ),
        (
            "core",
            "crates/core/src/lib.rs",
            "// audit:hot\npub fn tighten(x: f64) -> f64 {\n    helper_step(x)\n}\nfn helper_step(x: f64) -> f64 {\n    snbc_metrics::Fast.step(x)\n}\n",
        ),
    ]);
    // The method call unions both `step` impls, so the kernel transitively
    // allocates through the conservative candidate set.
    let hits = of_rule(&report.findings, Rule::HotAlloc);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("helper_step"), "message: {}", hits[0].message);
}

#[test]
fn method_calls_resolve_only_into_crates_the_caller_can_depend_on() {
    // nn's hot kernel calls its own non-allocating `Activation::apply`.
    // The allocating `SdpProblem::apply` of the same name and arity sits in
    // sdp, which nn cannot depend on, so it is not a candidate.
    let report = audit_files(&[
        (
            "sdp",
            "crates/sdp/src/problem.rs",
            "pub struct SdpProblem;\nimpl SdpProblem {\n    pub fn apply(&self, x: f64) -> Vec<f64> {\n        vec![x; 4]\n    }\n}\n",
        ),
        (
            "nn",
            "crates/nn/src/mlp.rs",
            "pub struct Activation;\nimpl Activation {\n    pub fn apply(&self, x: f64) -> f64 {\n        x.max(0.0)\n    }\n}\n// audit:hot\npub fn forward(act: &Activation, xs: &mut [f64]) {\n    for x in xs.iter_mut() {\n        *x = act.apply(*x);\n    }\n}\n",
        ),
    ]);
    assert!(
        of_rule(&report.findings, Rule::HotAlloc).is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn allocating_methods_of_a_dependency_still_reach_hot_callers() {
    // The same call where the allocating `apply` lives in linalg, which nn
    // depends on: the conservative union keeps it, and the kernel is flagged.
    let report = audit_files(&[
        (
            "linalg",
            "crates/linalg/src/matrix.rs",
            "pub struct Scaler;\nimpl Scaler {\n    pub fn apply(&self, x: f64) -> Vec<f64> {\n        vec![x; 4]\n    }\n}\n",
        ),
        (
            "nn",
            "crates/nn/src/mlp.rs",
            "pub struct Activation;\nimpl Activation {\n    pub fn apply(&self, x: f64) -> f64 {\n        x.max(0.0)\n    }\n}\n// audit:hot\npub fn forward(act: &Activation, xs: &mut [f64]) {\n    for x in xs.iter_mut() {\n        *x = act.apply(*x);\n    }\n}\n",
        ),
    ]);
    let hits = of_rule(&report.findings, Rule::HotAlloc);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("forward"), "message: {}", hits[0].message);
}

#[test]
fn hot_function_with_transitive_allocation_is_flagged() {
    let report = audit_files(&[(
        "core",
        "crates/core/src/lib.rs",
        "// audit:hot\npub fn kernel(xs: &mut [f64]) {\n    for x in xs.iter_mut() {\n        *x = helper(*x);\n    }\n}\nfn helper(x: f64) -> f64 {\n    let v = vec![x; 4];\n    v.iter().sum()\n}\n",
    )]);
    let hits = of_rule(&report.findings, Rule::HotAlloc);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    let f = hits[0];
    assert!(f.message.contains("kernel"), "message: {}", f.message);
    assert!(!f.chain.is_empty(), "transitive finding must carry a chain");
}

#[test]
fn reviewed_boundary_call_does_not_fire_the_contract() {
    // A reviewed setup allocation sits on the hot kernel's outgoing call;
    // the marker there silences the contract (and is therefore not stale).
    let helper = (
        "linalg",
        "crates/linalg/src/lib.rs",
        "pub fn workspace(n: usize) -> Vec<f64> {\n    vec![0.0; n]\n}\n",
    );
    let report = audit_files(&[
        helper,
        (
            "lp",
            "crates/lp/src/lib.rs",
            "// audit:hot\npub fn solve(n: usize) -> f64 {\n    // audit:allow(hot-alloc) — setup, once per solve\n    snbc_linalg::workspace(n)[0]\n}\n",
        ),
    ]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
    // The same call without the marker fires.
    let unreviewed = audit_files(&[
        helper,
        (
            "lp",
            "crates/lp/src/lib.rs",
            "// audit:hot\npub fn solve(n: usize) -> f64 {\n    snbc_linalg::workspace(n)[0]\n}\n",
        ),
    ]);
    assert_eq!(
        of_rule(&unreviewed.findings, Rule::HotAlloc).len(),
        1,
        "findings: {:?}",
        unreviewed.findings
    );
}
