//! End-to-end tests of the per-file dataflow rules against fixture sources
//! with known violations: exact (rule, line) hits, def-use chains, the
//! runtime crate's exemption, and statement-scoped suppressions.

use snbc_audit::rules::{scan_source, Rule};

const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const UNORDERED: &str = include_str!("fixtures/unordered_reduce.rs");
const PAR_RACE: &str = include_str!("fixtures/par_capture_race.rs");

/// Any crate other than the runtime: both rules apply.
const LIB: &str = "core";
/// The runtime crate, whose internals both rules exempt.
const RUNTIME: &str = "par";

fn hits(src: &str, crate_name: &str) -> Vec<(Rule, usize)> {
    scan_source("fixture.rs", src, crate_name)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn suppressions_silence_only_the_named_rule_on_the_statement() {
    // Everything is suppressed — including a finding two lines into a
    // multi-line statement — except the wrong-rule and blank-line-gap cases
    // and the closure-scoping regression: an `audit:allow` *inside* a closure
    // body must not silence findings on the enclosing statement's own lines.
    assert_eq!(
        hits(SUPPRESSED, LIB),
        vec![
            (Rule::UnorderedReduce, 25),
            (Rule::UnorderedReduce, 32),
            (Rule::UnorderedReduce, 37),
        ]
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let got = hits(CLEAN, LIB);
    assert!(got.is_empty(), "unexpected findings: {got:?}");
}

#[test]
fn unordered_reduce_fixture_exact_hits() {
    let got = hits(UNORDERED, LIB);
    assert_eq!(
        got,
        vec![
            (Rule::UnorderedReduce, 10),
            (Rule::UnorderedReduce, 17),
            (Rule::UnorderedReduce, 23),
            (Rule::UnorderedReduce, 53),
            (Rule::UnorderedReduce, 60),
            (Rule::UnorderedReduce, 67),
        ]
    );
    // snbc-par itself is exempt.
    assert!(hits(UNORDERED, RUNTIME).is_empty());
}

#[test]
fn unordered_reduce_findings_carry_def_use_chains() {
    let findings = scan_source("fixture.rs", UNORDERED, LIB);
    // The rebound-sum case (sink @ 53): sink frame first, then the def-use
    // chain walking `zs` ← `ys` ← `parts` ← par_map_collect.
    let f = findings.iter().find(|f| f.line == 53).expect("sink @ 53");
    let lines: Vec<usize> = f.chain.iter().map(|fr| fr.line).collect();
    assert_eq!(lines, vec![53, 52, 51, 50], "sink, then defs newest-first");
    assert!(
        f.chain[3].note.contains("par_map_collect"),
        "{}",
        f.chain[3].note
    );
    // The single-hop cases still carry (sink, binding) chains.
    let f = findings.iter().find(|f| f.line == 10).expect("sink @ 10");
    assert_eq!(
        f.chain.iter().map(|fr| fr.line).collect::<Vec<_>>(),
        vec![10, 7]
    );
}

#[test]
fn par_capture_race_fixture_exact_hits() {
    let got = hits(PAR_RACE, LIB);
    assert_eq!(
        got,
        vec![
            (Rule::ParCaptureRace, 9),
            (Rule::ParCaptureRace, 16),
            (Rule::ParCaptureRace, 22),
            (Rule::ParCaptureRace, 28),
            (Rule::ParCaptureRace, 34),
            (Rule::ParCaptureRace, 40),
        ]
    );
    // snbc-par's own internals are exempt.
    assert!(hits(PAR_RACE, RUNTIME).is_empty());
}

#[test]
fn par_capture_race_findings_carry_capture_chains() {
    let findings = scan_source("fixture.rs", PAR_RACE, LIB);
    // The captured-accumulator case: hazard site, the par call it escapes
    // into, and the captured variable's definition.
    let f = findings.iter().find(|f| f.line == 9).expect("hazard @ 9");
    assert_eq!(
        f.chain.iter().map(|fr| fr.line).collect::<Vec<_>>(),
        vec![9, 8, 7],
        "hazard, par call, capture definition"
    );
    assert!(
        f.chain[1].note.contains("par_for_chunks"),
        "{}",
        f.chain[1].note
    );
    assert!(
        f.message.contains("snbc_par::par_for_chunks"),
        "{}",
        f.message
    );
}
