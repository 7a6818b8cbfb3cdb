//! How `// audit:hot` and `// audit:allow(hot-alloc)` markers attach: a hot
//! marker reaches its `fn` across attributes and doc comments, and a marker
//! that guards nothing is a finding at its own line.

use snbc_audit::audit_files;
use snbc_audit::rules::{Finding, Rule};

fn findings(src: &str) -> Vec<Finding> {
    audit_files(&[("core", "crates/core/src/lib.rs", src)]).findings
}

fn lines(src: &str) -> Vec<(Rule, usize)> {
    findings(src).into_iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn a_hot_marker_attaches_across_attributes_and_doc_comments() {
    // The shape of `core::ascend`: a multi-line attribute between the marker
    // and the `fn`, plus a doc comment and a visibility qualifier.
    let src = "// audit:hot\n\
               /// Steps the trajectory in place.\n\
               #[expect(\n    \
                   clippy::too_many_arguments,\n    \
                   reason = \"hot kernel\"\n\
               )]\n\
               #[inline]\n\
               pub(crate) fn ascend(xs: &[f64]) -> Vec<f64> {\n    \
                   xs.to_vec()\n\
               }\n";
    assert_eq!(lines(src), vec![(Rule::HotAlloc, 9)]);
}

#[test]
fn a_hot_marker_that_attaches_to_no_fn_is_a_finding() {
    let src = "// audit:hot\n\
               pub struct Kernel;\n\
               \n\
               fn f() -> Vec<u8> {\n    \
                   vec![1]\n\
               }\n";
    let got = findings(src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].rule, got[0].line), (Rule::HotAlloc, 1));
    assert!(got[0].message.contains("attaches to no `fn`"), "{}", got[0].message);
    // Nothing after the marker but a blank line and the end of the file.
    assert_eq!(lines("fn f() {}\n// audit:hot\n\n"), vec![(Rule::HotAlloc, 2)]);
}

#[test]
fn an_allow_marker_that_suppresses_nothing_is_a_finding() {
    // Not in or below a hot function: the allocation it covers never
    // reaches a kernel, so the marker is stale.
    let cold = "pub fn setup(n: usize) -> Vec<f64> {\n    \
                    // audit:allow(hot-alloc)\n    \
                    vec![0.0; n]\n\
                }\n";
    let got = findings(cold);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].rule, got[0].line), (Rule::HotAlloc, 2));
    assert!(got[0].message.contains("suppresses nothing"), "{}", got[0].message);

    // The same marker is needed once a hot function calls `setup`.
    let needed = format!("{cold}// audit:hot\npub fn kernel(n: usize) -> usize {{\n    setup(n).len()\n}}\n");
    assert_eq!(lines(&needed), vec![]);

    // A marker naming a rule the audit does not have is stale wherever it
    // sits, even on an allocation a hot function makes.
    let gone = "// audit:hot\n\
                pub fn kernel(xs: &[f64]) -> f64 {\n    \
                    // audit:allow(unordered-reduce)\n    \
                    xs.iter().sum()\n\
                }\n";
    let got = findings(gone);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].rule, got[0].line), (Rule::HotAlloc, 3));
    assert!(got[0].message.contains("names no rule"), "{}", got[0].message);
}
