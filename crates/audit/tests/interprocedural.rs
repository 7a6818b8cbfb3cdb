//! Integration tests for the interprocedural effect engine: multi-crate
//! fixtures audited through [`snbc_audit::audit_files`], checking that the
//! contract rules fire with full call chains.

use snbc_audit::audit_files;
use snbc_audit::rules::{Finding, Rule};

fn of_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn transitive_env_read_reaches_the_solver_contract() {
    // lp (contract crate) → dynamics helper → std::env::var. The env read is
    // two hops away from the solver stack; the boundary edge must be flagged
    // with the full chain down to the leaf.
    let report = audit_files(&[
        (
            "dynamics",
            "crates/dynamics/src/helper.rs",
            "pub fn tuning() -> f64 {\n    peek_env()\n}\npub fn peek_env() -> f64 {\n    std::env::var(\"SNBC_TUNING\").map(|v| v.parse().unwrap_or(0.0)).unwrap_or(0.0)\n}\n",
        ),
        (
            "lp",
            "crates/lp/src/lib.rs",
            "pub fn solve() -> f64 {\n    snbc_dynamics::tuning() * 2.0\n}\n",
        ),
    ]);
    let hits = of_rule(&report.findings, Rule::SolverEffects);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    let f = hits[0];
    assert_eq!(f.file, "crates/lp/src/lib.rs");
    assert!(
        f.message.contains("reads-env"),
        "message: {}",
        f.message
    );
    // Chain: lp::solve calls tuning → tuning calls peek_env → env leaf.
    assert!(f.chain.len() >= 3, "chain: {:?}", f.chain);
    assert!(f.chain[0].note.contains("solve"), "chain: {:?}", f.chain);
    assert!(
        f.chain.last().unwrap().note.contains("std::env::var"),
        "chain: {:?}",
        f.chain
    );
    // The terminal lister prints the chain as indented `via` hops (frame 0 is
    // the flagged site itself and is not repeated).
    let listing = snbc_audit::render_findings(&report.findings);
    assert!(listing.contains("    via "), "listing:\n{listing}");
    assert!(
        listing.contains("std::env::var"),
        "listing:\n{listing}"
    );
}

#[test]
fn mutual_recursion_converges_and_still_carries_effects() {
    // even/odd mutual recursion where the odd side reads the clock: the SCC
    // must converge (no hang) and both members must carry the effect into
    // the contract check on the solver boundary.
    let report = audit_files(&[
        (
            "baselines",
            "crates/baselines/src/lib.rs",
            "pub fn even(n: u64) -> bool {\n    if n == 0 { true } else { odd(n - 1) }\n}\npub fn odd(n: u64) -> bool {\n    let _t = std::time::Instant::now();\n    if n == 0 { false } else { even(n - 1) }\n}\n",
        ),
        (
            "sdp",
            "crates/sdp/src/lib.rs",
            "pub fn schedule(n: u64) -> bool {\n    snbc_baselines::even(n)\n}\n",
        ),
    ]);
    let hits = of_rule(&report.findings, Rule::SolverEffects);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("reads-time"), "message: {}", hits[0].message);
}

#[test]
fn trait_methods_resolve_conservatively_by_name_and_arity() {
    // `step(&self, x)` is called through a trait object; the engine cannot
    // know the concrete impl, so every same-name-same-arity method in a
    // crate the caller can depend on is a candidate — including the one
    // that spawns a thread.
    let report = audit_files(&[
        (
            "metrics",
            "crates/metrics/src/lib.rs",
            "pub struct Fast;\nimpl Fast {\n    pub fn step(&self, x: f64) -> f64 { x + 1.0 }\n}\npub struct Racy;\nimpl Racy {\n    pub fn step(&self, x: f64) -> f64 {\n        std::thread::spawn(move || x);\n        x\n    }\n}\n",
        ),
        (
            "core",
            "crates/core/src/lib.rs",
            "pub fn tighten(x: f64) -> f64 {\n    helper_step(x)\n}\nfn helper_step(x: f64) -> f64 {\n    snbc_metrics::Fast.step(x)\n}\n",
        ),
    ]);
    // The method call unions both `step` impls, so core transitively
    // reaches spawns-thread through the conservative candidate set.
    let hits = of_rule(&report.findings, Rule::SolverEffects);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(
        hits[0].message.contains("spawns-thread"),
        "message: {}",
        hits[0].message
    );
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
fn par_callee_with_hidden_env_read_is_flagged() {
    let report = audit_files(&[(
        "core",
        "crates/core/src/lib.rs",
        "pub fn fan_out(n: usize) -> Vec<f64> {\n    snbc_par::par_map_collect(n, |i| weight(i))\n}\nfn weight(i: usize) -> f64 {\n    std::env::var(\"W\").map(|v| v.parse().unwrap_or(0.0)).unwrap_or(i as f64)\n}\n",
    )]);
    let hits = of_rule(&report.findings, Rule::ParCallee);
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(
        hits[0].message.contains("reads-env"),
        "message: {}",
        hits[0].message
    );
}

#[test]
fn reviewed_boundary_call_does_not_fire_the_contract() {
    // An env read outside its owner crates has no leaf-level marker: the
    // reviewed exception sits on the boundary call that leaves the solver
    // stack, and silences the contract there.
    let report = audit_files(&[
        (
            "dynamics",
            "crates/dynamics/src/lib.rs",
            "pub fn tuning() -> f64 {\n    std::env::var(\"SNBC_TUNING\").map(|v| v.parse().unwrap_or(0.0)).unwrap_or(0.0)\n}\n",
        ),
        (
            "lp",
            "crates/lp/src/lib.rs",
            "pub fn solve() -> f64 {\n    // audit:allow(solver-effects) — documented tuning knob\n    snbc_dynamics::tuning()\n}\n",
        ),
    ]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
    // The same call without the marker fires.
    let unreviewed = audit_files(&[
        (
            "dynamics",
            "crates/dynamics/src/lib.rs",
            "pub fn tuning() -> f64 {\n    std::env::var(\"SNBC_TUNING\").map(|v| v.parse().unwrap_or(0.0)).unwrap_or(0.0)\n}\n",
        ),
        (
            "lp",
            "crates/lp/src/lib.rs",
            "pub fn solve() -> f64 {\n    snbc_dynamics::tuning()\n}\n",
        ),
    ]);
    assert_eq!(
        of_rule(&unreviewed.findings, Rule::SolverEffects).len(),
        1,
        "findings: {:?}",
        unreviewed.findings
    );
}
