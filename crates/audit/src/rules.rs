//! The two per-file dataflow rules, plus the finding types every rule
//! reports through.
//!
//! | id | what it flags |
//! |---|---|
//! | `unordered-reduce` | `+=` / `.sum()`-family / `mul_add` folds over values that flow from `par_map_collect` / `par_map_reduce` output, outside `crates/par` |
//! | `par-capture-race` | an `snbc_par` closure that writes a capture, pokes captured interior-mutable state, or aliases the call's `&mut` output argument, outside `crates/par` |
//!
//! The interprocedural contracts (`solver-effects`, `hot-alloc`,
//! `par-callee`) come from [`crate::contracts`] over the linked
//! [`crate::callgraph`], and `arch` from [`crate::arch`]; all of them report
//! through [`Finding`], with the call or def-use chain in [`Frame`]s.
//!
//! Rules are **scope-aware**: they run over the [`crate::syntax::ItemTree`]
//! (so `#[cfg(test)]` / `#[test]` items are skipped structurally, nested
//! items included) and resolve names through the per-scope
//! [`crate::scopes::ScopeTable`], so `use snbc_par::par_map_collect as pm`
//! is still a parallel call. Suppressions attach to the **enclosing
//! statement span**: a `// audit:allow(<rule>)` on any line of a multi-line
//! statement, or on the line directly above it, silences that rule inside
//! the statement.

use crate::callgraph::{self, FileAnalysis};
use crate::dataflow::{self, Hop};
use crate::effects::{self, Effect, Leaf};
use crate::scopes::{path_is, ScopeTable};
use crate::syntax::{ItemTree, ScopeKind};
use crate::tokenizer::{tokenize, Lexed, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// Rule identity, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Arch,
    UnorderedReduce,
    ParCaptureRace,
    SolverEffects,
    HotAlloc,
    ParCallee,
}

impl Rule {
    /// The id used in reports and `// audit:allow(<id>)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Arch => "arch",
            Rule::UnorderedReduce => "unordered-reduce",
            Rule::ParCaptureRace => "par-capture-race",
            Rule::SolverEffects => "solver-effects",
            Rule::HotAlloc => "hot-alloc",
            Rule::ParCallee => "par-callee",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One step of a call or def-use chain, from the reported site down to the
/// effect leaf or value origin.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frame {
    pub file: String,
    pub line: usize,
    /// Human-readable step, e.g. "`sdp::solve` calls `core::train`".
    pub note: String,
}

/// One violation, reported against a workspace-relative path, with its
/// chain (empty for `arch`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
    pub chain: Vec<Frame>,
}

/// Shared context handed to every rule: the token stream plus the syntax and
/// symbol layers built over it.
struct RuleCtx<'a> {
    file: &'a str,
    tokens: &'a [Token],
    tree: &'a ItemTree,
    scopes: &'a ScopeTable,
}

/// A finding still carrying its anchor token, so suppression can look up the
/// enclosing statement span before the token index is dropped.
type Hit = (usize, Finding);

impl RuleCtx<'_> {
    fn in_test(&self, i: usize) -> bool {
        self.tree.in_test.get(i).copied().unwrap_or(false)
    }

    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn path_is(&self, i: usize, canonical: &str, min_segments: usize) -> bool {
        path_is(
            self.scopes,
            self.tokens,
            self.tree,
            i,
            canonical,
            min_segments,
        )
    }

    /// A hit carrying a def-use chain: the flagged site first, then the
    /// provenance hops, origin last.
    fn hit_chain(&self, rule: Rule, tok: usize, message: String, chain: Vec<Frame>) -> Hit {
        (
            tok,
            Finding {
                rule,
                file: self.file.to_string(),
                line: self.tokens[tok].line,
                message,
                chain,
            },
        )
    }

    /// Lift provenance hops into chain frames anchored in this file, headed
    /// by a frame for the flagged site itself.
    fn chain_from_hops(&self, site_line: usize, site_note: String, hops: &[Hop]) -> Vec<Frame> {
        let mut chain = vec![Frame {
            file: self.file.to_string(),
            line: site_line,
            note: site_note,
        }];
        chain.extend(hops.iter().map(|h| Frame {
            file: self.file.to_string(),
            line: h.line,
            note: h.note.clone(),
        }));
        chain
    }
}

/// Per-file scan result: the findings plus the call-graph harvest consumed by
/// the interprocedural pass.
#[derive(Debug)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub analysis: FileAnalysis,
}

/// Scan one source file of `crate_name` and return its (unsuppressed)
/// findings.
pub fn scan_source(rel_path: &str, src: &str, crate_name: &str) -> Vec<Finding> {
    scan_source_full(rel_path, src, crate_name).findings
}

/// Full per-file pass: tokenize once, run both dataflow rules, and harvest
/// the [`FileAnalysis`] for the call-graph layer. The runtime crate itself
/// ([`crate::FOLD_OWNER_CRATES`]) is exempt from both rules: its reduction
/// trees and worker state are deterministic by construction.
pub fn scan_source_full(rel_path: &str, src: &str, crate_name: &str) -> FileScan {
    let lexed = tokenize(src);
    let tree = ItemTree::build(&lexed.tokens);
    let scopes = ScopeTable::build(&lexed.tokens, &tree);
    let leaves = effects::leaf_effects(&lexed.tokens, &tree, &scopes);
    let ctx = RuleCtx {
        file: rel_path,
        tokens: &lexed.tokens,
        tree: &tree,
        scopes: &scopes,
    };

    let mut hits: Vec<Hit> = Vec::new();
    if !crate::FOLD_OWNER_CRATES.contains(&crate_name) {
        hits.extend(unordered_reduce(&ctx));
        hits.extend(par_capture_race(&ctx));
    }

    // Unsuppressed fold-order hazards feed the effect lattice as
    // `unordered-fp-fold` leaves (a suppressed site was argued safe and must
    // not poison callers).
    let fold_leaves: Vec<Leaf> = hits
        .iter()
        .filter(|(tok, f)| {
            f.rule == Rule::UnorderedReduce
                && !is_suppressed(&lexed, &tree, f.rule.id(), *tok, f.line)
        })
        .map(|&(tok, ref f)| Leaf {
            effect: Effect::UnorderedFpFold,
            tok,
            line: f.line,
            what: "unordered float fold".to_string(),
        })
        .collect();
    let analysis = callgraph::analyze_file(
        crate_name,
        rel_path,
        &lexed,
        &tree,
        &scopes,
        &leaves,
        &fold_leaves,
    );

    let mut findings: Vec<Finding> = hits
        .into_iter()
        .filter(|(tok, f)| !is_suppressed(&lexed, &tree, f.rule.id(), *tok, f.line))
        .map(|(_, f)| f)
        .collect();
    findings.sort();
    FileScan { findings, analysis }
}

/// True when an `audit:allow(<rule>)` marker covers the statement holding
/// `tok` (or the line directly above it).
fn is_suppressed(lexed: &Lexed, tree: &ItemTree, rule_id: &str, tok: usize, line: usize) -> bool {
    let stmt_lines = tree.stmt_lines(tok, line);
    callgraph::suppressed_at(&lexed.suppressions, rule_id, &stmt_lines, line)
}

/// Chain tails that reduce an iterator into one value.
const REDUCE_METHODS: &[&str] = &["sum", "product", "fold", "reduce"];

/// `unordered-reduce` v3: provenance-aware. The dataflow engine seeds taint
/// at `par_map_collect`/`par_map_reduce` calls and follows it through `let`
/// rebinds, reassignments, and slice projections; any order-sensitive FP
/// fold (`+=` loops, `.sum()`-family chains, `mul_add` chains in loops) over
/// a tainted name fires, with the def-use chain attached.
fn unordered_reduce(ctx: &RuleCtx) -> Vec<Hit> {
    let mut hits = Vec::new();
    for_each_fn(ctx, |ctx, fid| {
        let flow = dataflow::fn_flow(ctx.tokens, ctx.tree, fid);
        let tainted = dataflow::propagate(&flow, ctx.tokens, |i| {
            let name = ctx.text(i);
            (matches!(name, "par_map_collect" | "par_map_reduce")
                && ctx.path_is(i, &format!("snbc_par::{name}"), 1))
            .then(|| format!("`{name}(…)`"))
        });
        if tainted.is_empty() {
            return;
        }
        let (lo, hi) = flow.body;
        let mut i = lo;
        while i < hi {
            if ctx.in_test(i) || ctx.tree.enclosing_fn(i) != Some(fid) {
                i += 1;
                continue;
            }
            // A `for` loop over tainted data whose body accumulates with
            // `+=` or chains `mul_add`.
            if ctx.text(i) == "for" {
                if let Some((var_tok, var)) = for_loop_head(ctx, i, hi) {
                    if let Some(hops) = tainted.get(var) {
                        let var = var.to_string();
                        // Find the loop body braces.
                        let mut b = var_tok;
                        while b < hi && ctx.text(b) != "{" {
                            b += 1;
                        }
                        let close = match_brace_tokens(ctx.tokens, b, hi);
                        let mut k = b;
                        while k + 1 < close {
                            let sink = if ctx.text(k) == "+" && ctx.text(k + 1) == "=" {
                                Some("`+=` accumulation")
                            } else if ctx.text(k) == "mul_add"
                                && ctx.text(k.wrapping_sub(1)) == "."
                                && ctx.text(k + 1) == "("
                            {
                                Some("`mul_add` chain")
                            } else {
                                None
                            };
                            if let Some(what) = sink {
                                hits.push(ctx.hit_chain(
                                    Rule::UnorderedReduce,
                                    k,
                                    format!(
                                        "{what} over `{var}`, which flows from parallel \
                                         output — route the reduction through \
                                         snbc_par::par_map_reduce's index-ordered fold \
                                         or annotate audit:allow(unordered-reduce)"
                                    ),
                                    ctx.chain_from_hops(
                                        ctx.tokens[k].line,
                                        format!("{what} over `{var}` here"),
                                        hops,
                                    ),
                                ));
                            }
                            k += 1;
                        }
                        i = close;
                        continue;
                    }
                }
            }
            // `var.iter().sum()` / `.fold(..)` chains on tainted data.
            if ctx.is_ident(i)
                && ctx.text(i.wrapping_sub(1)) != "."
                && ctx.text(i + 1) == "."
            {
                if let Some(hops) = tainted.get(ctx.text(i)) {
                    if let Some(m) = chain_has_reduce(ctx, i, hi) {
                        hits.push(ctx.hit_chain(
                            Rule::UnorderedReduce,
                            m,
                            format!(
                                "`.{}()` over `{}`, which flows from parallel output — \
                                 route the reduction through snbc_par::par_map_reduce's \
                                 index-ordered fold or annotate \
                                 audit:allow(unordered-reduce)",
                                ctx.text(m),
                                ctx.text(i)
                            ),
                            ctx.chain_from_hops(
                                ctx.tokens[m].line,
                                format!("`.{}()` fold over `{}` here", ctx.text(m), ctx.text(i)),
                                hops,
                            ),
                        ));
                    }
                }
            }
            i += 1;
        }
    });
    hits
}

/// `par-capture-race` v1: closures handed to `snbc_par` entry points must
/// not touch shared mutable state. Three hazard classes, each reported with
/// a def-use chain (hazard site → par call → captured definition):
///
/// 1. mutation of a captured name (`x = …`, `x += …`, `x.push(…)`-style via
///    field/index paths, `&mut x`);
/// 2. interior-mutability/synchronization calls on a captured name
///    (`.borrow_mut()`, `.lock()`, `.fetch_add(…)`, `.set(…)`, …);
/// 3. any reference to a name that is also passed as a `&mut` argument of
///    the *same* call — an alias of the output slice the runtime owns.
fn par_capture_race(ctx: &RuleCtx) -> Vec<Hit> {
    let mut hits = Vec::new();
    for_each_fn(ctx, |ctx, fid| {
        let flow = dataflow::fn_flow(ctx.tokens, ctx.tree, fid);
        let calls = dataflow::par_calls(ctx.tokens, flow.body, |i, canonical| {
            ctx.path_is(i, canonical, 1)
        });
        for call in calls {
            if ctx.in_test(call.tok) {
                continue;
            }
            // Idents under `&mut` among the call's own arguments: the output
            // buffers the runtime hands back out in chunks.
            let mut mut_args: BTreeSet<String> = BTreeSet::new();
            for &(alo, ahi) in &call.args {
                for k in alo..ahi {
                    if ctx.text(k) == "&" && ctx.text(k + 1) == "mut" && ctx.is_ident(k + 2) {
                        mut_args.insert(ctx.text(k + 2).to_string());
                    }
                }
            }
            for &arg in &call.args {
                let Some((params, body)) = dataflow::closure_parts(ctx.tokens, arg) else {
                    continue;
                };
                let mut locals = dataflow::local_lets(ctx.tokens, body);
                locals.extend(params);
                locals.insert("self".to_string());
                let mut seen: BTreeSet<(String, &str)> = BTreeSet::new();
                for k in body.0..body.1 {
                    // Skip method/path segments, declarations, and type
                    // positions (prev `:` covers `let x: f64 = …`, whose
                    // annotation would otherwise read as a write). `mut` as
                    // the previous token is NOT skipped: `&mut x` is exactly
                    // the capture we are looking for (`let mut` locals are
                    // filtered by the `locals` set).
                    if !ctx.is_ident(k)
                        || matches!(ctx.text(k.wrapping_sub(1)), "." | "::" | ":" | "let" | "fn")
                        || ctx.text(k + 1) == ":"
                        || ctx.text(k + 1) == "::"
                    {
                        continue;
                    }
                    let name = ctx.text(k).to_string();
                    if locals.contains(&name) {
                        continue;
                    }
                    let hazard: Option<(&str, String)> = if ctx.text(k.wrapping_sub(2)) == "&"
                        && ctx.text(k.wrapping_sub(1)) == "mut"
                    {
                        Some(("mut-borrow", format!("captures `&mut {name}`")))
                    } else if let Some(op) = capture_write_after(ctx, k, body.1) {
                        Some(("write", format!("`{op}` writes captured `{name}`")))
                    } else if let Some(m) = interior_mut_call_after(ctx, k, body.1) {
                        Some(("interior-mut", format!("`{name}.{m}(…)` pokes captured shared state")))
                    } else if mut_args.contains(&name) {
                        Some(("alias", format!("`{name}` aliases the call's `&mut {name}` output argument")))
                    } else {
                        None
                    };
                    let Some((kind, what)) = hazard else { continue };
                    if !seen.insert((name.clone(), kind)) {
                        continue;
                    }
                    let mut hops = vec![Hop {
                        line: call.line,
                        note: format!("closure passed to `{}` here", call.name),
                    }];
                    if let Some(def_line) = flow.def_line(&name) {
                        hops.push(Hop {
                            line: def_line,
                            note: format!("`{name}` defined here"),
                        });
                    }
                    hits.push(ctx.hit_chain(
                        Rule::ParCaptureRace,
                        k,
                        format!(
                            "{what} inside a closure passed to `snbc_par::{}` — \
                             workers race on it; return the value and let the \
                             index-ordered collect own the output, or annotate \
                             audit:allow(par-capture-race) with a determinism argument",
                            call.name
                        ),
                        ctx.chain_from_hops(ctx.tokens[k].line, format!("{what} here"), &hops),
                    ));
                }
            }
        }
    });
    hits
}

/// For a captured ident at `k`, detect a write through an optional
/// field/index path: `x = …`, `x += …`, `x.f = …`, `x[i] = …`. Returns the
/// operator text. Plain `==`/`<=`/`=>` are single tokens, so a bare `=` is
/// always assignment.
fn capture_write_after(ctx: &RuleCtx, k: usize, hi: usize) -> Option<&'static str> {
    let mut j = k + 1;
    // Walk a projection path: `.field`, `[index]`.
    loop {
        if ctx.text(j) == "." && ctx.is_ident(j + 1) {
            // A method call in the path is not a projection — handled by the
            // interior-mutability leg instead.
            if ctx.text(j + 2) == "(" {
                return None;
            }
            j += 2;
        } else if ctx.text(j) == "[" {
            j = match_bracket_tokens(ctx.tokens, j, hi) + 1;
        } else {
            break;
        }
    }
    if ctx.text(j) == "=" {
        return Some("=");
    }
    match ctx.text(j) {
        "+" if ctx.text(j + 1) == "=" => Some("+="),
        "-" if ctx.text(j + 1) == "=" => Some("-="),
        "*" if ctx.text(j + 1) == "=" => Some("*="),
        "/" if ctx.text(j + 1) == "=" => Some("/="),
        _ => None,
    }
}

/// Methods that mutate or synchronize through a shared handle.
const INTERIOR_MUT_METHODS: &[&str] = &[
    "borrow_mut",
    "lock",
    "write",
    "set",
    "replace",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `name.method(` where method is an interior-mutability/sync call.
fn interior_mut_call_after<'c>(ctx: &'c RuleCtx, k: usize, hi: usize) -> Option<&'c str> {
    if ctx.text(k + 1) == "." && k + 3 < hi && ctx.text(k + 3) == "(" {
        let m = ctx.text(k + 2);
        if INTERIOR_MUT_METHODS.contains(&m) {
            return Some(m);
        }
    }
    None
}

fn match_bracket_tokens(tokens: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < hi {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

// ---------------------------------------------------------------------------
// Per-function analysis helpers.

/// Run `body` for every non-test `fn` scope in the file.
fn for_each_fn(ctx: &RuleCtx, mut body: impl FnMut(&RuleCtx, u32)) {
    for (sid, scope) in ctx.tree.scopes.iter().enumerate() {
        if scope.kind == ScopeKind::Fn && !scope.is_test {
            body(ctx, crate::id32(sid));
        }
    }
}

/// For a `for` token at `i`, locate the loop's iterated expression: returns
/// the token index and text of the head identifier after `in` (past `&`/
/// `mut`/parens), or None when the header is not a plain loop.
fn for_loop_head<'c>(ctx: &'c RuleCtx, i: usize, hi: usize) -> Option<(usize, &'c str)> {
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < hi {
        match ctx.text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "in" if depth == 0 && ctx.is_ident(j) => break,
            "{" | ";" => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= hi {
        return None;
    }
    let mut k = j + 1;
    while k < hi && matches!(ctx.text(k), "&" | "mut") {
        k += 1;
    }
    if ctx.is_ident(k) {
        Some((k, ctx.text(k)))
    } else {
        None
    }
}

/// Walk a method chain starting at identifier `i` (`v.iter().map(..).sum()`);
/// return the token index of the first reduce-family method, if any.
fn chain_has_reduce(ctx: &RuleCtx, i: usize, hi: usize) -> Option<usize> {
    let mut j = i + 1;
    while j + 1 < hi && ctx.text(j) == "." && ctx.is_ident(j + 1) {
        let m = j + 1;
        if REDUCE_METHODS.contains(&ctx.text(m)) {
            return Some(m);
        }
        j = m + 1;
        // Turbofish: `.sum::<f64>()`.
        if ctx.text(j) == "::" && ctx.text(j + 1) == "<" {
            j += 2;
            let mut angle = 1usize;
            while j < hi && angle > 0 {
                match ctx.text(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if ctx.text(j) == "(" {
            j = match_paren_tokens(ctx.tokens, j, hi) + 1;
        } else if ctx.text(j) != "." {
            break;
        }
    }
    None
}

fn match_brace_tokens(tokens: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < hi {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

fn match_paren_tokens(tokens: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < hi {
        match tokens[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-runtime crate: both rules apply.
    const LIB: &str = "core";
    /// The runtime crate: both rules are off.
    const RUNTIME: &str = "par";

    fn lines_of(src: &str, crate_name: &str) -> Vec<(Rule, usize)> {
        scan_source("a.rs", src, crate_name)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    /// `xs.iter().sum()` over par output on line 3, preceded by `marker` on
    /// line 2 and followed by `trailer` on line 3.
    fn sum_over_par(marker: &str, trailer: &str) -> String {
        format!(
            "fn f(n: usize) -> f64 {{\n    let xs = snbc_par::par_map_collect(n, |i| i as f64);{marker}\n    xs.iter().sum::<f64>(){trailer}\n}}\n"
        )
    }

    #[test]
    fn unordered_reduce_flags_accumulation_over_par_output() {
        let src = "fn f(n: usize) -> f64 {\n\
                       let results = snbc_par::par_map_collect(n, |i| i as f64);\n\
                       let mut acc = 0.0;\n\
                       for r in &results { acc += *r; }\n\
                       acc\n\
                   }\n";
        assert_eq!(lines_of(src, LIB), vec![(Rule::UnorderedReduce, 4)]);
    }

    #[test]
    fn unordered_reduce_flags_sum_chain() {
        assert_eq!(
            lines_of(&sum_over_par("", ""), LIB),
            vec![(Rule::UnorderedReduce, 3)]
        );
    }

    #[test]
    fn ordinary_loops_and_the_runtime_crate_are_fine() {
        let plain = "fn f(xs: &[f64]) -> f64 { let mut a = 0.0; for x in xs { a += x; } a }";
        assert!(lines_of(plain, LIB).is_empty());
        assert!(lines_of(&sum_over_par("", ""), RUNTIME).is_empty());
    }

    #[test]
    fn indexed_use_of_par_output_is_fine() {
        let src = "fn f(n: usize) -> f64 {\n\
                       let r = snbc_par::par_map_collect(n, |i| i as f64);\n\
                       r[0] + r[n - 1]\n\
                   }\n";
        assert!(lines_of(src, LIB).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped_and_code_after_them_is_not() {
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", sum_over_par("", ""));
        assert!(lines_of(&in_test, LIB).is_empty());
        let after = format!(
            "#[cfg(test)]\nmod tests {{ fn t() {{}} }}\n{}",
            sum_over_par("", "")
        );
        assert_eq!(lines_of(&after, LIB), vec![(Rule::UnorderedReduce, 5)]);
    }

    #[test]
    fn same_line_and_previous_line_suppression() {
        let same = sum_over_par("", " // audit:allow(unordered-reduce)");
        assert!(lines_of(&same, LIB).is_empty());
        let above = sum_over_par("\n    // audit:allow(unordered-reduce)", "");
        assert!(lines_of(&above, LIB).is_empty());
    }

    #[test]
    fn multiline_statement_suppression_is_rule_specific() {
        // The marker sits above the statement; the finding is two lines into
        // it.
        let src = "fn f(n: usize) -> f64 {\n\
                   let xs = snbc_par::par_map_collect(n, |i| i as f64);\n\
                   // audit:allow(unordered-reduce)\n\
                   xs.iter()\n\
                   .map(|x| x * 2.0)\n\
                   .sum::<f64>()\n\
                   }\n";
        assert!(lines_of(src, LIB).is_empty());
        // A marker for a different rule does not suppress.
        let other = src.replace("unordered-reduce", "hot-alloc");
        assert_eq!(lines_of(&other, LIB), vec![(Rule::UnorderedReduce, 6)]);
    }

    #[test]
    fn suppressed_folds_do_not_become_effect_leaves() {
        let leaves = |src: &str| -> usize {
            scan_source_full("a.rs", src, LIB)
                .analysis
                .fns
                .iter()
                .map(|f| f.leaves.len())
                .sum()
        };
        assert_eq!(leaves(&sum_over_par("", "")), 1);
        assert_eq!(
            leaves(&sum_over_par("", " // audit:allow(unordered-reduce)")),
            0
        );
    }
}
