//! End-to-end tests of `hot-alloc` against fixture sources: exact
//! (rule, line) hits, and statement-scoped suppressions whose unused
//! markers are findings themselves.

use snbc_audit::audit_files;
use snbc_audit::rules::Rule;

const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");

fn hits(src: &str) -> Vec<(Rule, usize)> {
    audit_files(&[("core", "fixture.rs", src)])
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn suppressions_silence_only_the_named_rule_on_the_statement() {
    // Everything is suppressed — including an allocation two lines into a
    // multi-line statement — except the wrong-rule and blank-line-gap cases
    // and the closure-scoping regression: an `audit:allow` *inside* a closure
    // body must not silence the enclosing statement's own lines. Each marker
    // that silences nothing is reported at its own line.
    assert_eq!(
        hits(SUPPRESSED),
        vec![
            (Rule::HotAlloc, 26),
            (Rule::HotAlloc, 27),
            (Rule::HotAlloc, 32),
            (Rule::HotAlloc, 34),
            (Rule::HotAlloc, 39),
            (Rule::HotAlloc, 40),
        ]
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let got = hits(CLEAN);
    assert!(got.is_empty(), "unexpected findings: {got:?}");
    assert_eq!(audit_files(&[("core", "fixture.rs", CLEAN)]).hot_kernels, 2);
}
