//! The audit's two rules, and the finding type both report through.
//!
//! | id | what it flags |
//! |---|---|
//! | `hot-alloc` | an allocation in a `// audit:hot` function, directly or through a resolved workspace callee; an `// audit:hot` marker that attaches to no `fn`; an `// audit:allow(<rule>)` marker that suppresses nothing |
//! | `arch` | a `Cargo.toml` dependency outside the DESIGN.md DAG or the sanctioned externals ([`crate::arch`]) |
//!
//! `hot-alloc` runs over the linked [`crate::callgraph`]. Its reviewed
//! exception is an `// audit:allow(hot-alloc)` marker, which attaches to the
//! **enclosing statement span**: a marker on any line of a multi-line
//! statement, or on the line directly above it, covers the statement. As
//! with clippy's unfulfilled `#[expect]`, a marker that covers nothing a
//! hot function reaches, or that names no rule of the audit, is a finding
//! itself. Marker findings are `hot-alloc` findings: an `arch` finding sits
//! in a manifest, where no marker can reach it.

use crate::callgraph::{allow_marker_at, CallGraph, FileAnalysis};
use crate::tokenizer::Suppression;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Rule identity, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Arch,
    HotAlloc,
}

impl Rule {
    /// The id used in reports and `// audit:allow(<id>)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Arch => "arch",
            Rule::HotAlloc => "hot-alloc",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One step of a call chain, from the reported site down to the allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frame {
    pub file: String,
    pub line: usize,
    /// Human-readable step, e.g. "`sdp::solve` calls `linalg::zeros`".
    pub note: String,
}

/// One violation, reported against a workspace-relative path, with its
/// call chain (empty for `arch` and marker findings).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
    pub chain: Vec<Frame>,
}

impl Finding {
    fn hot(file: &str, line: usize, message: String, chain: Vec<Frame>) -> Finding {
        Finding {
            rule: Rule::HotAlloc,
            file: file.to_string(),
            line,
            message,
            chain,
        }
    }
}

/// `hot-alloc` over the harvested files: allocations that hot functions
/// reach, then the markers that attach to nothing or suppress nothing.
///
/// A marker is used when it covers a hot function's call into an
/// allocating callee, or masks an allocation leaf of a function that a hot
/// function reaches.
pub fn hot_alloc(files: &[FileAnalysis]) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let markers: BTreeMap<&str, &[Suppression]> = files
        .iter()
        .map(|fa| (fa.file.as_str(), fa.suppressions.as_slice()))
        .collect();
    let reached = graph.reached_from_hot();
    let mut used: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = node.file.as_str();
        if reached[id] {
            used.extend(node.decl.masked_by.iter().map(|&k| (file, k)));
        }
        if !node.decl.hot {
            continue;
        }
        for leaf in &node.decl.leaves {
            findings.push(Finding::hot(
                file,
                leaf.line,
                format!(
                    "{} in hot function `{}`; hoist it out of the \
                     loop or justify with `audit:allow(hot-alloc)`",
                    leaf.what, node.symbol
                ),
                vec![Frame {
                    file: node.file.clone(),
                    line: leaf.line,
                    note: format!("{} in `{}`", leaf.what, node.symbol),
                }],
            ));
        }
        // Transitive allocations through resolved callees, anchored at the
        // outgoing call site so the justification lives in the hot fn.
        for (ci, callees) in &graph.resolved[id] {
            let Some(&bad) = callees.iter().find(|&&c| graph.allocates[c as usize]) else {
                continue;
            };
            let call = &node.decl.calls[*ci];
            if let Some(k) = allow_marker_at(markers[file], &call.stmt_lines, call.line) {
                used.insert((file, k));
                continue;
            }
            let callee = &graph.nodes[bad as usize].symbol;
            let mut chain = vec![Frame {
                file: node.file.clone(),
                line: call.line,
                note: format!("`{}` calls `{callee}`", node.symbol),
            }];
            chain.extend(graph.chain_to_leaf(bad));
            findings.push(Finding::hot(
                file,
                call.line,
                format!(
                    "hot function `{}` calls `{callee}`, which allocates; hoist \
                     the allocation or justify with `audit:allow(hot-alloc)`",
                    node.symbol
                ),
                chain,
            ));
        }
    }

    for fa in files {
        let file = fa.file.as_str();
        for &line in &fa.dangling_hot {
            findings.push(Finding::hot(
                file,
                line,
                "`// audit:hot` attaches to no `fn` item, so nothing below it is \
                 checked; put it directly above the kernel's `fn` (attributes and \
                 doc comments may sit between)"
                    .to_string(),
                Vec::new(),
            ));
        }
        for (k, s) in fa.suppressions.iter().enumerate() {
            let message = if ![Rule::Arch, Rule::HotAlloc].iter().any(|r| r.id() == s.rule) {
                format!(
                    "`audit:allow({})` names no rule of the audit (it has `hot-alloc` \
                     and `arch`); remove the marker",
                    s.rule
                )
            } else if s.rule != Rule::HotAlloc.id() || !used.contains(&(file, k)) {
                format!(
                    "`audit:allow({})` suppresses nothing: no allocation a hot function \
                     reaches sits on its statement; remove the marker",
                    s.rule
                )
            } else {
                continue;
            };
            findings.push(Finding::hot(file, s.line, message, Vec::new()));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(src: &str) -> Vec<(Rule, usize)> {
        crate::audit_files(&[("core", "a.rs", src)])
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    /// A hot kernel whose `to_vec` allocates: `marker` is appended to the
    /// `fn` line (line 2) and `trailer` to the `to_vec` line (line 3 when
    /// `marker` adds no line).
    fn kernel(marker: &str, trailer: &str) -> String {
        format!("// audit:hot\nfn k(xs: &[f64]) -> Vec<f64> {{{marker}\n    xs.to_vec(){trailer}\n}}\n")
    }

    #[test]
    fn cfg_test_items_are_skipped_and_code_after_them_is_not() {
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", kernel("", ""));
        assert!(lines_of(&in_test).is_empty());
        let after = format!("#[cfg(test)]\nmod tests {{ fn t() {{}} }}\n{}", kernel("", ""));
        assert_eq!(lines_of(&after), vec![(Rule::HotAlloc, 5)]);
    }

    #[test]
    fn same_line_and_previous_line_suppression() {
        assert_eq!(lines_of(&kernel("", "")), vec![(Rule::HotAlloc, 3)]);
        let same = kernel("", " // audit:allow(hot-alloc)");
        assert!(lines_of(&same).is_empty());
        let above = kernel("\n    // audit:allow(hot-alloc)", "");
        assert!(lines_of(&above).is_empty());
    }

    #[test]
    fn multiline_statement_suppression_is_rule_specific() {
        // The marker sits above the statement; the allocation is two lines
        // into it.
        let src = "// audit:hot\n\
                   fn k(xs: &[f64]) -> usize {\n\
                   // audit:allow(hot-alloc)\n\
                   xs.iter()\n\
                   .copied()\n\
                   .collect::<Vec<f64>>()\n\
                   .len()\n\
                   }\n";
        assert!(lines_of(src).is_empty());
        // A marker for another rule suppresses nothing, and says so.
        let other = src.replace("hot-alloc", "arch");
        assert_eq!(
            lines_of(&other),
            vec![(Rule::HotAlloc, 3), (Rule::HotAlloc, 6)]
        );
    }
}
