//! Workspace-level call graph and the allocation effect it propagates.
//!
//! Built in two passes over the workspace sources:
//!
//! 1. **Harvest** ([`analyze_source`]): every non-test `fn` scope becomes a
//!    [`FnDecl`] carrying its arity, whether an `// audit:hot` marker
//!    attaches to it, its allocation leaves (from [`crate::effects`], minus
//!    those an `audit:allow(hot-alloc)` marker masks), and its call sites.
//!    Path calls keep their alias-resolved path; method calls keep name +
//!    arity (receiver included).
//! 2. **Link** ([`CallGraph::build`]): call sites resolve to workspace
//!    functions — path calls narrowed by their `snbc_*` crate head when
//!    present, otherwise preferring same-crate matches; method calls
//!    conservatively by name + arity, unioning every match in the crates the
//!    caller may depend on. Unmatched calls (std, vendored stubs) add no
//!    edge, so the inferred effect is a lower bound. A function allocates
//!    when it reaches an allocation leaf: one walk backwards over the call
//!    edges, which settles recursion and mutual recursion without any
//!    cycle condensation.
//!
//! Everything iterates vectors in index order or `BTreeMap`s, so node ids,
//! edges, and chains are deterministic.

use crate::effects;
use crate::rules::{Frame, Rule};
use crate::scopes::ScopeTable;
use crate::syntax::{ItemTree, ScopeKind};
use crate::tokenizer::{tokenize, Suppression, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: last path segment, or the method name.
    pub name: String,
    /// Alias-resolved (or as-written) path; empty for method calls.
    pub path: String,
    /// Argument count; method calls count the receiver.
    pub arity: usize,
    pub is_method: bool,
    pub line: usize,
    /// Lines owned by the enclosing statement (suppression attachment) —
    /// closure-body lines belong to the closure's own statements.
    pub stmt_lines: Vec<usize>,
}

/// One allocation leaf inside a function body.
#[derive(Debug, Clone)]
pub struct LeafSite {
    pub line: usize,
    pub what: String,
}

/// One non-test function declaration.
#[derive(Debug, Clone)]
pub struct FnDecl {
    pub name: String,
    /// `mod::Impl::name` within the file (crate prefix added at link time).
    pub qualified: String,
    pub arity: usize,
    /// An `// audit:hot` marker attaches to it.
    pub hot: bool,
    /// Allocation leaves no `audit:allow(hot-alloc)` marker masks.
    pub leaves: Vec<LeafSite>,
    /// Indices into the file's suppressions of the markers that mask a leaf
    /// of this function.
    pub masked_by: Vec<usize>,
    pub calls: Vec<CallSite>,
}

/// Per-file harvest: everything the linker needs after tokens are dropped.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    pub crate_name: String,
    pub file: String,
    pub fns: Vec<FnDecl>,
    /// The file's `audit:allow` markers outside test code.
    pub suppressions: Vec<Suppression>,
    /// Lines of `// audit:hot` markers that attach to no `fn` item.
    pub dangling_hot: Vec<usize>,
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "else", "let", "mut",
    "ref", "break", "continue", "await", "self", "super", "crate", "where", "unsafe", "use",
    "pub", "impl", "trait", "mod", "const", "static", "type", "dyn", "box", "as",
];

/// Harvest one source file of crate directory `crate_name`.
pub fn analyze_source(crate_name: &str, file: &str, src: &str) -> FileAnalysis {
    let lexed = tokenize(src);
    let tokens = &lexed.tokens;
    let tree = ItemTree::build(tokens);
    let scopes = ScopeTable::build(tokens, &tree);
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let in_test = |i: usize| tree.in_test.get(i).copied().unwrap_or(false);

    // Test code is not audited, so its markers neither suppress nor dangle.
    let suppressions: Vec<Suppression> = lexed
        .suppressions
        .iter()
        .filter(|s| !in_test(s.next_tok))
        .cloned()
        .collect();
    let mut hot_scopes = BTreeSet::new();
    let mut dangling_hot = Vec::new();
    for marker in lexed.hot_markers.iter().filter(|m| !in_test(m.next_tok)) {
        match marked_fn(tokens, &tree, marker.next_tok) {
            Some(sid) => {
                hot_scopes.insert(sid);
            }
            None => dangling_hot.push(marker.line),
        }
    }

    let mut fns = Vec::new();
    let mut fn_of_scope: BTreeMap<u32, usize> = BTreeMap::new();
    for (sid, scope) in tree.scopes.iter().enumerate() {
        if scope.kind != ScopeKind::Fn || scope.is_test {
            continue;
        }
        let sid = crate::id32(sid);
        fn_of_scope.insert(sid, fns.len());
        fns.push(FnDecl {
            name: scope.name.clone(),
            qualified: qualified_name(&tree, sid),
            arity: decl_arity(tokens, scope.range.0, scope.body.0),
            hot: hot_scopes.contains(&sid),
            leaves: Vec::new(),
            masked_by: Vec::new(),
            calls: Vec::new(),
        });
    }

    // Attach leaves. A leaf under an `audit:allow(hot-alloc)` marker is
    // justified and does not propagate to callers either.
    let leaves = effects::allocation_leaves(tokens, &tree, &scopes);
    for leaf in &leaves {
        let Some(&decl) = tree
            .enclosing_fn(leaf.tok)
            .and_then(|fid| fn_of_scope.get(&fid))
        else {
            continue;
        };
        let stmt_lines = tree.stmt_lines(leaf.tok, leaf.line);
        match allow_marker_at(&suppressions, &stmt_lines, leaf.line) {
            Some(k) => fns[decl].masked_by.push(k),
            None => fns[decl].leaves.push(LeafSite {
                line: leaf.line,
                what: leaf.what.clone(),
            }),
        }
    }

    // Call sites, per declaring fn. Leaf tokens are constructors, not
    // workspace calls.
    let leaf_toks: BTreeSet<usize> = leaves.iter().map(|l| l.tok).collect();
    for (&sid, &decl) in &fn_of_scope {
        let (lo, hi) = tree.scopes[sid as usize].body;
        for i in lo..hi {
            if tree.enclosing_fn(i) != Some(sid) || in_test(i) || tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let name = text(i);
            if !effects::is_called(tokens, i)
                || leaf_toks.contains(&i)
                || CALL_KEYWORDS.contains(&name)
                || name.starts_with(|c: char| c.is_ascii_uppercase())
                || text(i + 1) == "!"
                // Attribute heads inside bodies: `#[cfg(...)]`, `#[allow(...)]`.
                || (i >= 2 && text(i - 1) == "[" && text(i - 2) == "#")
            {
                continue;
            }
            let is_method = i > 0 && text(i - 1) == ".";
            let open = call_open_paren(tokens, i);
            fns[decl].calls.push(CallSite {
                name: name.to_string(),
                path: if is_method {
                    String::new()
                } else {
                    scopes.resolve_at(tokens, &tree, i).path
                },
                arity: count_segments(tokens, open, hi, false) + usize::from(is_method),
                is_method,
                line: tokens[i].line,
                stmt_lines: tree.stmt_lines(i, tokens[i].line),
            });
        }
    }

    FileAnalysis {
        crate_name: crate_name.to_string(),
        file: file.to_string(),
        fns,
        suppressions,
        dangling_hot,
    }
}

/// The `fn` scope whose item starts at token `i`, reading past outer
/// attributes and header modifiers (`pub(crate)`, `const`, `unsafe`,
/// `async`, `extern "C"`). Doc comments are not tokens, so they sit between
/// a marker and its `fn` for free.
fn marked_fn(tokens: &[Token], tree: &ItemTree, mut i: usize) -> Option<u32> {
    let text = |j: usize| tokens.get(j).map_or("", |t: &Token| t.text.as_str());
    loop {
        match text(i) {
            "#" if text(i + 1) == "[" => i = past_group(tokens, i + 1),
            "(" if i > 0 && text(i - 1) == "pub" => i = past_group(tokens, i),
            "pub" | "const" | "unsafe" | "async" | "extern" | "default" => i += 1,
            "fn" => break,
            _ => return None,
        }
    }
    tree.scopes
        .iter()
        .position(|s| s.kind == ScopeKind::Fn && s.range.0 == i)
        .map(crate::id32)
}

/// Index just past the bracket or paren group that opens at `i`.
fn past_group(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match t.text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// Index of the `audit:allow(hot-alloc)` marker covering a statement: one on
/// the statement's own lines, or on the line directly above one of them.
/// `stmt_lines` comes from
/// [`ItemTree::stmt_lines`](crate::syntax::ItemTree::stmt_lines), so a
/// marker inside a closure body covers only the closure's own statements —
/// never the enclosing outer statement, whose lines exclude the body.
pub fn allow_marker_at(suppressions: &[Suppression], stmt_lines: &[usize], line: usize) -> Option<usize> {
    suppressions.iter().position(|s| {
        s.rule == Rule::HotAlloc.id()
            && (s.line == line
                || s.line + 1 == line
                || stmt_lines.contains(&s.line)
                || stmt_lines.contains(&(s.line + 1)))
    })
}

fn qualified_name(tree: &ItemTree, sid: u32) -> String {
    let mut parts = Vec::new();
    let mut cur = Some(sid);
    while let Some(id) = cur {
        let s = &tree.scopes[id as usize];
        if !s.name.is_empty() {
            parts.push(s.name.clone());
        }
        cur = s.parent;
    }
    parts.reverse();
    parts.join("::")
}

/// Parameter count of a fn header: the comma-split arity of the first paren
/// group outside generics (`fn f<T: Fn(usize)>(x: T, n: usize)` → 2).
fn decl_arity(tokens: &[Token], kw: usize, body_start: usize) -> usize {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let mut i = kw + 1;
    let mut angle = 0i32;
    while i < body_start {
        match text(i) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "(" if angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= body_start {
        return 0;
    }
    count_segments(tokens, i, body_start, true)
}

fn call_open_paren(tokens: &[Token], i: usize) -> usize {
    let text = |j: usize| tokens.get(j).map_or("", |t: &Token| t.text.as_str());
    if text(i + 1) == "(" {
        return i + 1;
    }
    // Turbofish: `ident::<...>(`.
    let mut j = i + 2;
    let mut angle = 0i32;
    while j < tokens.len() {
        match text(j) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "(" if angle == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Count comma-separated segments between the paren at `open` and its match.
/// `track_angles` additionally nests `<...>` (parameter *types* contain
/// generic commas; call arguments contain comparisons instead).
fn count_segments(tokens: &[Token], open: usize, hi: usize, track_angles: bool) -> usize {
    split_ranges(tokens, open, hi, track_angles).len()
}

fn split_ranges(
    tokens: &[Token],
    open: usize,
    hi: usize,
    track_angles: bool,
) -> Vec<(usize, usize)> {
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    if open >= hi || text(open) != "(" {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut seg_start = open + 1;
    let mut seg_nonempty = false;
    let mut j = open + 1;
    while j < hi {
        let t = text(j);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if t == ")" && depth == 0 {
                    if seg_nonempty {
                        out.push((seg_start, j));
                    }
                    return out;
                }
                depth -= 1;
            }
            "<" if track_angles => angle += 1,
            ">" if track_angles => angle -= 1,
            "<<" if track_angles => angle += 2,
            ">>" if track_angles => angle -= 2,
            "," if depth == 0 && angle == 0 => {
                if seg_nonempty {
                    out.push((seg_start, j));
                }
                seg_start = j + 1;
                seg_nonempty = false;
                j += 1;
                continue;
            }
            // Closure parameter pipes at argument top level: `|a, b|` commas
            // must not split the argument list. A `|` is a closure opener
            // when it follows a list boundary or `move`; scan to its mate.
            "|" if depth == 0 && !track_angles && closure_opener(tokens, j, open) => {
                seg_nonempty = true;
                j += 1;
                let mut inner = 0i32;
                while j < hi {
                    match text(j) {
                        "(" | "[" | "{" => inner += 1,
                        ")" | "]" | "}" => inner -= 1,
                        "|" if inner == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
        if !t.is_empty() {
            seg_nonempty = true;
        }
        j += 1;
    }
    if seg_nonempty {
        out.push((seg_start, hi));
    }
    out
}

fn closure_opener(tokens: &[Token], j: usize, open: usize) -> bool {
    if j == open + 1 {
        return true;
    }
    matches!(
        tokens.get(j - 1).map(|t| t.text.as_str()),
        Some("," | "(" | "move" | "=" | "=>" | "return" | "&&" | "||")
    )
}

// ---------------------------------------------------------------------------
// Linking and propagation.

/// One linked function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub crate_name: String,
    pub file: String,
    pub decl: FnDecl,
    /// `crate::mod::Impl::name`, the symbol used in chains.
    pub symbol: String,
}

/// The linked workspace call graph with the propagated allocation effect.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Per node: `(call index into decl.calls, resolved callee node ids)`.
    pub resolved: Vec<Vec<(usize, Vec<u32>)>>,
    /// Per node: allocates directly or through a resolved callee.
    pub allocates: Vec<bool>,
}

impl CallGraph {
    pub fn build(files: &[FileAnalysis]) -> CallGraph {
        let mut nodes = Vec::new();
        for fa in files {
            for decl in &fa.fns {
                nodes.push(FnNode {
                    crate_name: fa.crate_name.clone(),
                    file: fa.file.clone(),
                    symbol: format!("{}::{}", fa.crate_name, decl.qualified),
                    decl: decl.clone(),
                });
            }
        }

        // (name, arity) → candidate node ids, insertion (= node id) ordered.
        let mut index: BTreeMap<(String, usize), Vec<u32>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            index
                .entry((node.decl.name.clone(), node.decl.arity))
                .or_default()
                .push(crate::id32(id));
        }
        let resolved: Vec<Vec<(usize, Vec<u32>)>> = nodes
            .iter()
            .map(|node| {
                node.decl
                    .calls
                    .iter()
                    .enumerate()
                    .map(|(ci, call)| (ci, resolve_call(&index, &nodes, node, call)))
                    .filter(|(_, callees)| !callees.is_empty())
                    .collect()
            })
            .collect();

        // Walk backwards from every function with a leaf: each caller of an
        // allocating function allocates.
        let mut callers: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for (id, res) in resolved.iter().enumerate() {
            for &callee in res.iter().flat_map(|(_, callees)| callees) {
                callers[callee as usize].push(crate::id32(id));
            }
        }
        let mut allocates: Vec<bool> = nodes.iter().map(|n| !n.decl.leaves.is_empty()).collect();
        let mut work: Vec<usize> = (0..nodes.len()).filter(|&id| allocates[id]).collect();
        while let Some(id) = work.pop() {
            for &caller in &callers[id] {
                if !allocates[caller as usize] {
                    allocates[caller as usize] = true;
                    work.push(caller as usize);
                }
            }
        }

        CallGraph {
            nodes,
            resolved,
            allocates,
        }
    }

    /// Per node: whether a hot function reaches it through resolved calls
    /// (hot functions reach themselves).
    pub fn reached_from_hot(&self) -> Vec<bool> {
        let mut reached: Vec<bool> = self.nodes.iter().map(|n| n.decl.hot).collect();
        let mut work: Vec<usize> = (0..self.nodes.len()).filter(|&id| reached[id]).collect();
        while let Some(id) = work.pop() {
            for &callee in self.resolved[id].iter().flat_map(|(_, callees)| callees) {
                if !reached[callee as usize] {
                    reached[callee as usize] = true;
                    work.push(callee as usize);
                }
            }
        }
        reached
    }

    /// Look up a node by its `crate::...::name` symbol (first match).
    pub fn find_symbol(&self, symbol: &str) -> Option<u32> {
        self.nodes
            .iter()
            .position(|n| n.symbol == symbol)
            .map(crate::id32)
    }

    /// A deterministic call chain from `from` down to an allocation leaf:
    /// at each node, the first call site (in token order) whose callee
    /// allocates, and among its candidates the lowest node id. One frame per
    /// hop plus the leaf site itself.
    pub fn chain_to_leaf(&self, from: u32) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut cur = from;
        for _ in 0..=self.nodes.len() {
            let node = &self.nodes[cur as usize];
            if let Some(leaf) = node.decl.leaves.first() {
                frames.push(Frame {
                    file: node.file.clone(),
                    line: leaf.line,
                    note: format!("{} in `{}`", leaf.what, node.symbol),
                });
                break;
            }
            let Some((ci, callee)) = self.resolved[cur as usize].iter().find_map(|(ci, callees)| {
                callees
                    .iter()
                    .find(|&&c| self.allocates[c as usize])
                    .map(|&c| (*ci, c))
            }) else {
                break;
            };
            frames.push(Frame {
                file: node.file.clone(),
                line: node.decl.calls[ci].line,
                note: format!(
                    "`{}` calls `{}`",
                    node.symbol,
                    self.nodes[callee as usize].symbol
                ),
            });
            cur = callee;
        }
        frames
    }
}

fn resolve_call(
    index: &BTreeMap<(String, usize), Vec<u32>>,
    nodes: &[FnNode],
    caller: &FnNode,
    call: &CallSite,
) -> Vec<u32> {
    let Some(candidates) = index.get(&(call.name.clone(), call.arity)) else {
        return Vec::new();
    };
    // A std-rooted path never names a workspace function.
    if matches!(call.path.split("::").next(), Some("std" | "core" | "alloc")) {
        return Vec::new();
    }
    if call.is_method {
        // Conservative within reach: any method with this name + arity in
        // the caller's crate or in a crate the DAG lets it depend on. A
        // method of a crate it cannot depend on cannot be the callee.
        return candidates
            .iter()
            .copied()
            .filter(|&id| can_reach(&caller.crate_name, &nodes[id as usize].crate_name))
            .collect();
    }
    // A `snbc_*::` head names the crate exactly.
    if let Some(target) = crate_of_path(&call.path) {
        return candidates
            .iter()
            .copied()
            .filter(|&id| nodes[id as usize].crate_name == target)
            .collect();
    }
    // Otherwise prefer same-crate definitions; cross-crate calls always
    // carry a `snbc_*` head in this workspace (enforced by the arch rule).
    let same: Vec<u32> = candidates
        .iter()
        .copied()
        .filter(|&id| nodes[id as usize].crate_name == caller.crate_name)
        .collect();
    if same.is_empty() {
        candidates.clone()
    } else {
        same
    }
}

/// Whether code in crate directory `from` can call into crate directory
/// `to`: the same crate, or one [`crate::arch::allowed_internal`] lists
/// (every crate, for a directory outside the DAG).
fn can_reach(from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let Some(deps) = crate::arch::allowed_internal(from) else {
        return true;
    };
    deps.iter().any(|package| match *package {
        "snbc" => to == "core",
        p => p.strip_prefix("snbc-") == Some(to),
    })
}

/// Map a path head to a workspace crate directory: `snbc_par::…` → "par",
/// `snbc::…` → "core" (the package of `crates/core` is `snbc`).
fn crate_of_path(path: &str) -> Option<String> {
    let head = path.split("::").next().unwrap_or("");
    if head == "snbc" {
        return Some("core".to_string());
    }
    head.strip_prefix("snbc_").map(|rest| rest.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(c, f, s)| analyze_source(c, f, s))
            .collect();
        CallGraph::build(&analyses)
    }

    #[test]
    fn harvests_decls_calls_and_arities() {
        let src = "fn helper(a: f64, b: f64) -> f64 { a + b }\n\
                   fn main2(xs: Vec<(f64, f64)>) -> f64 {\n\
                       helper(1.0, 2.0) + xs[0].0\n\
                   }\n";
        let fa = analyze_source("lp", "crates/lp/src/lib.rs", src);
        assert_eq!(fa.fns.len(), 2);
        assert_eq!(fa.fns[0].arity, 2);
        assert_eq!(fa.fns[1].arity, 1, "generic commas must not split params");
        let call = &fa.fns[1].calls[0];
        assert_eq!((call.name.as_str(), call.arity), ("helper", 2));
    }

    #[test]
    fn closure_args_do_not_break_arity() {
        let src = "fn f(n: usize) {\n\
                       snbc_par::par_map_reduce(n, 8, |lo, hi| lo + hi, |a, b| a + b);\n\
                   }\n";
        let fa = analyze_source("core", "crates/core/src/lib.rs", src);
        let call = &fa.fns[0].calls[0];
        assert_eq!(call.arity, 4, "closure pipes must not split the arg list");
    }

    #[test]
    fn hot_marker_attaches_within_two_lines() {
        let src = "// audit:hot\n#[inline]\nfn hot1() {}\n\nfn cold() {}\n";
        let fa = analyze_source("sdp", "crates/sdp/src/lib.rs", src);
        assert!(fa.fns[0].hot);
        assert!(!fa.fns[1].hot);
    }

    #[test]
    fn effects_propagate_across_crates() {
        let g = graph(&[
            (
                "dynamics",
                "crates/dynamics/src/lib.rs",
                "pub fn peek() -> usize { vec![1u8].len() }\n",
            ),
            (
                "lp",
                "crates/lp/src/lib.rs",
                "pub fn solve() -> usize { snbc_dynamics::peek() }\n\
                 pub fn outer() -> usize { solve() }\n",
            ),
        ]);
        let peek = g.find_symbol("dynamics::peek").unwrap();
        let outer = g.find_symbol("lp::outer").unwrap();
        assert!(g.allocates[peek as usize]);
        assert!(g.allocates[outer as usize], "transitive");
        let chain = g.chain_to_leaf(outer);
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[2].note.contains("vec!"), "{chain:?}");
    }

    #[test]
    fn mutual_recursion_converges() {
        let g = graph(&[(
            "lp",
            "crates/lp/src/lib.rs",
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { grows(n) } else { even(n - 1) } }\n\
             fn grows(n: u64) -> bool { vec![n].is_empty() }\n",
        )]);
        let even = g.find_symbol("lp::even").unwrap();
        let odd = g.find_symbol("lp::odd").unwrap();
        assert!(g.allocates[even as usize]);
        assert!(g.allocates[odd as usize]);
    }

    #[test]
    fn method_calls_resolve_conservatively_by_name_and_arity() {
        let g = graph(&[(
            "sos",
            "crates/sos/src/lib.rs",
            "pub struct A; impl A { pub fn step(&self) { let _v = vec![0u8; 4]; } }\n\
             pub struct B; impl B { pub fn step(&self) {} }\n\
             pub fn drive(b: &B) { b.step(); }\n",
        )]);
        let drive = g.find_symbol("sos::drive").unwrap();
        // Both `step` impls match (name + arity); the union carries the
        // allocation — conservative, never silently allocation-free.
        assert!(g.allocates[drive as usize]);
    }

    #[test]
    fn unresolved_calls_add_no_effect() {
        let g = graph(&[(
            "nn",
            "crates/nn/src/lib.rs",
            "pub fn f(rng: &mut R) -> f64 { rng.gen_range(0.0, 1.0) }\n\
             pub fn g() -> bool { std::env::var(\"X\").is_ok() }\n\
             pub fn var(_: &str) -> Vec<u8> { vec![] }\n",
        )]);
        for f in ["nn::f", "nn::g"] {
            let id = g.find_symbol(f).unwrap();
            assert!(!g.allocates[id as usize], "{f}");
        }
    }

    #[test]
    fn allow_marker_masks_an_allocation_leaf_from_propagation() {
        let g = graph(&[(
            "sdp",
            "crates/sdp/src/lib.rs",
            "pub fn setup(n: usize) -> Vec<f64> {\n\
                 // audit:allow(hot-alloc) — setup, once per solve\n\
                 vec![0.0; n]\n\
             }\n\
             pub fn solve(n: usize) -> usize { setup(n).len() }\n",
        )]);
        let solve = g.find_symbol("sdp::solve").unwrap();
        assert!(!g.allocates[solve as usize]);
    }
}
