//! Workspace-level call graph and interprocedural effect propagation.
//!
//! Built in two passes over the files the audit already tokenizes:
//!
//! 1. **Harvest** ([`analyze_file`]): every non-test `fn` scope becomes a
//!    [`FnDecl`] carrying its arity, `// audit:hot` marker, effect leaves
//!    (from [`crate::effects`], ownership-masked and `audit:allow`-filtered),
//!    and call sites. Path calls keep their alias-resolved path; method calls
//!    keep name + arity (receiver included).
//! 2. **Link** ([`CallGraph::build`]): call sites resolve to workspace
//!    functions — path calls narrowed by their `snbc_*` crate head when
//!    present, otherwise preferring same-crate matches; method calls
//!    conservatively by name + arity, unioning every match. Unmatched calls
//!    (std, vendored stubs) add no edge, so each inferred set is a lower
//!    bound. Effects then propagate to a fixpoint: SCC
//!    condensation (iterative Tarjan, so recursion and mutual recursion
//!    converge) followed by one reverse-topological union pass.
//!
//! Everything iterates vectors in index order or `BTreeMap`s, so node ids,
//! edges, and chains are deterministic across runs and `SNBC_THREADS`.

use crate::effects::{self, Effect, EffectSet, Leaf};
use crate::scopes::ScopeTable;
use crate::syntax::{ItemTree, ScopeKind};
use crate::tokenizer::{Lexed, Suppression, Token, TokenKind};
use std::collections::BTreeMap;

/// A callable argument of a `snbc_par` entry-point call: a closure's token
/// range, or a bare function path passed by name.
#[derive(Debug, Clone)]
pub struct CallableArg {
    /// Token range `[lo, hi)` of the argument (file-local indices).
    pub range: (usize, usize),
    /// Set when the argument is a bare path (`helper`, `m::helper`): the
    /// final segment, resolved by name alone at link time.
    pub fn_name: Option<String>,
}

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
    /// File-local token index of the callee identifier.
    pub tok: usize,
    pub line: usize,
    /// Lines owned by the enclosing statement (suppression attachment) —
    /// closure-body lines belong to the closure's own statements.
    pub stmt_lines: Vec<usize>,
    /// Callable arguments, recorded only for `snbc_par` entry points.
    pub callable_args: Vec<CallableArg>,
}

/// One effect leaf inside a function body, with its statement's line set.
#[derive(Debug, Clone)]
pub struct LeafSite {
    pub effect: Effect,
    pub tok: usize,
    pub line: usize,
    pub stmt_lines: Vec<usize>,
    pub what: String,
}

/// One non-test function declaration.
#[derive(Debug, Clone)]
pub struct FnDecl {
    pub name: String,
    /// `mod::Impl::name` within the file (crate prefix added at link time).
    pub qualified: String,
    pub arity: usize,
    pub line: usize,
    /// Carries an `// audit:hot` marker (≤ 2 lines above the `fn` keyword,
    /// tolerating one attribute line between).
    pub hot: bool,
    pub leaves: Vec<LeafSite>,
    pub calls: Vec<CallSite>,
}

/// Per-file harvest: everything the linker needs after tokens are dropped.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    pub crate_name: String,
    pub file: String,
    pub fns: Vec<FnDecl>,
    pub suppressions: Vec<Suppression>,
}

/// The `snbc_par` entry points whose callable arguments must stay
/// deterministic (`par-callee` contract).
pub const PAR_ENTRY_POINTS: &[&str] = &[
    "par_map_collect",
    "par_map_reduce",
    "par_for_chunks",
    "par_for_chunks_scratch",
    "par_for_each_mut",
    "join",
    "join3",
];

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "else", "let", "mut",
    "ref", "break", "continue", "await", "self", "super", "crate", "where", "unsafe", "use",
    "pub", "impl", "trait", "mod", "const", "static", "type", "dyn", "box", "as",
];

/// Harvest one file. `extra_fold_leaves` carries `unordered-fp-fold` sites
/// detected by the rule layer (nondet iteration / ad-hoc reductions), already
/// suppression-filtered by their own rules.
pub fn analyze_file(
    crate_name: &str,
    file: &str,
    lexed: &Lexed,
    tree: &ItemTree,
    scopes: &ScopeTable,
    leaves: &[Leaf],
    extra_fold_leaves: &[Leaf],
) -> FileAnalysis {
    let tokens = &lexed.tokens;
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());

    // Raw leaf tokens exclude themselves from call-site scanning even when
    // the leaf is later masked (a masked `spawn` is still not a workspace
    // call). Fold leaves anchor on operators/methods, never on call idents.
    let mut leaf_toks: Vec<usize> = leaves.iter().map(|l| l.tok).collect();
    leaf_toks.sort_unstable();

    let mut fns = Vec::new();
    let mut fn_of_scope: BTreeMap<u32, usize> = BTreeMap::new();
    for (sid, scope) in tree.scopes.iter().enumerate() {
        if scope.kind != ScopeKind::Fn || scope.is_test {
            continue;
        }
        let sid = crate::id32(sid);
        let fn_line = tokens[scope.range.0].line;
        let hot = lexed
            .hot_markers
            .iter()
            .any(|&m| m <= fn_line && fn_line - m <= 2);
        fn_of_scope.insert(sid, fns.len());
        fns.push(FnDecl {
            name: scope.name.clone(),
            qualified: qualified_name(tree, sid),
            arity: decl_arity(tokens, scope.range.0, scope.body.0),
            line: fn_line,
            hot,
            leaves: Vec::new(),
            calls: Vec::new(),
        });
    }

    // Attach leaves: masked when the crate owns the effect or the site
    // carries the matching `audit:allow` (a sanctioned/justified leaf must
    // not propagate to callers either).
    for leaf in leaves.iter().chain(extra_fold_leaves) {
        if leaf.effect.owner_crates().contains(&crate_name) {
            continue;
        }
        let stmt_lines = tree.stmt_lines(leaf.tok, leaf.line);
        if let Some(rule_id) = leaf.effect.allow_rule_id() {
            if suppressed_at(&lexed.suppressions, rule_id, &stmt_lines, leaf.line) {
                continue;
            }
        }
        let Some(fid) = tree.enclosing_fn(leaf.tok) else {
            continue;
        };
        let Some(&decl) = fn_of_scope.get(&fid) else {
            continue;
        };
        fns[decl].leaves.push(LeafSite {
            effect: leaf.effect,
            tok: leaf.tok,
            line: leaf.line,
            stmt_lines,
            what: leaf.what.clone(),
        });
    }

    // Call sites, per declaring fn.
    for (&sid, &decl) in &fn_of_scope {
        let (lo, hi) = tree.scopes[sid as usize].body;
        let mut i = lo;
        while i < hi {
            if tree.enclosing_fn(i) != Some(sid)
                || tree.in_test.get(i).copied().unwrap_or(false)
                || tokens[i].kind != TokenKind::Ident
            {
                i += 1;
                continue;
            }
            let name = text(i);
            if !effects::is_called(tokens, i)
                || leaf_toks.binary_search(&i).is_ok()
                || CALL_KEYWORDS.contains(&name)
                || name.starts_with(|c: char| c.is_ascii_uppercase())
                || text(i + 1) == "!"
                // Attribute heads inside bodies: `#[cfg(...)]`, `#[allow(...)]`.
                || (i >= 2 && text(i - 1) == "[" && text(i - 2) == "#")
            {
                i += 1;
                continue;
            }
            let is_method = i > 0 && text(i - 1) == ".";
            let open = call_open_paren(tokens, i);
            let args = split_call_args(tokens, open, hi);
            let path = if is_method {
                String::new()
            } else {
                scopes.resolve_at(tokens, tree, i).path
            };
            let callable_args = if !is_method && PAR_ENTRY_POINTS.contains(&name) && par_path(&path)
            {
                args.iter()
                    .filter_map(|&r| callable_arg(tokens, r))
                    .collect()
            } else {
                Vec::new()
            };
            fns[decl].calls.push(CallSite {
                name: name.to_string(),
                path,
                arity: args.len() + usize::from(is_method),
                is_method,
                tok: i,
                line: tokens[i].line,
                stmt_lines: tree.stmt_lines(i, tokens[i].line),
                callable_args,
            });
            i += 1;
        }
    }

    FileAnalysis {
        crate_name: crate_name.to_string(),
        file: file.to_string(),
        fns,
        suppressions: lexed.suppressions.clone(),
    }
}

/// True when a statement's own lines (or the line directly above one of
/// them) carry an `audit:allow(<rule>)` marker. Mirrors the rule layer's
/// suppression logic. `stmt_lines` comes from
/// [`ItemTree::stmt_lines`](crate::syntax::ItemTree::stmt_lines), so a
/// marker inside a closure body covers only the closure's own statements —
/// never the enclosing outer statement, whose lines exclude the body.
pub fn suppressed_at(
    suppressions: &[Suppression],
    rule_id: &str,
    stmt_lines: &[usize],
    line: usize,
) -> bool {
    suppressions.iter().any(|s| {
        s.rule == rule_id
            && (s.line == line
                || s.line + 1 == line
                || stmt_lines.contains(&s.line)
                || stmt_lines.contains(&(s.line + 1)))
    })
}

fn par_path(path: &str) -> bool {
    path.starts_with("snbc_par::") || !path.contains("::")
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

/// Top-level argument token ranges of the paren group at `open`.
fn split_call_args(tokens: &[Token], open: usize, hi: usize) -> Vec<(usize, usize)> {
    split_ranges(tokens, open, hi, false)
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

/// Classify one argument range as callable: a closure (contains `|`/`||` at
/// its top level) or a bare function path.
fn callable_arg(tokens: &[Token], range: (usize, usize)) -> Option<CallableArg> {
    let (lo, hi) = range;
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    let mut depth = 0i32;
    for j in lo..hi {
        match text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" | "||" if depth == 0 => {
                return Some(CallableArg { range, fn_name: None });
            }
            "move" if depth == 0 => {}
            _ => {}
        }
    }
    // Bare path: idents, `::`, and a possible leading `&`.
    let mut last_ident: Option<&str> = None;
    for j in lo..hi {
        let t = &tokens[j];
        match t.text.as_str() {
            "::" | "&" => {}
            _ if t.kind == TokenKind::Ident => last_ident = Some(t.text.as_str()),
            _ => return None,
        }
    }
    last_ident.map(|name| CallableArg {
        range,
        fn_name: Some(name.to_string()),
    })
}

// ---------------------------------------------------------------------------
// Linking and propagation.

/// One linked function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub crate_name: String,
    pub file: String,
    pub decl: FnDecl,
    /// `crate::mod::Impl::name`, the symbol used in chains and dumps.
    pub symbol: String,
}

/// The linked workspace call graph with propagated effect sets.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Per node: `(call index into decl.calls, resolved callee node ids)`.
    pub resolved: Vec<Vec<(usize, Vec<u32>)>>,
    /// Direct (leaf) effects, after masking/suppression.
    pub direct: Vec<EffectSet>,
    /// Transitive effects at the fixpoint.
    pub effects: Vec<EffectSet>,
    /// Per-file suppression tables, keyed by workspace-relative path.
    pub suppressions: BTreeMap<String, Vec<Suppression>>,
}

/// A step in a reported call chain (converted to `rules::Frame` upstream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    pub file: String,
    pub line: usize,
    pub note: String,
}

impl CallGraph {
    pub fn build(files: &[FileAnalysis]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut suppressions = BTreeMap::new();
        for fa in files {
            suppressions.insert(fa.file.clone(), fa.suppressions.clone());
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

        let mut resolved: Vec<Vec<(usize, Vec<u32>)>> = Vec::with_capacity(nodes.len());
        let mut direct: Vec<EffectSet> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let mut eff = EffectSet::EMPTY;
            for leaf in &node.decl.leaves {
                eff.insert(leaf.effect);
            }
            let mut res = Vec::new();
            for (ci, call) in node.decl.calls.iter().enumerate() {
                let callees = resolve_call(&index, &nodes, node, call);
                if !callees.is_empty() {
                    res.push((ci, callees));
                }
            }
            resolved.push(res);
            direct.push(eff);
        }

        let mut graph = CallGraph {
            nodes,
            resolved,
            direct,
            effects: Vec::new(),
            suppressions,
        };
        graph.propagate();
        graph
    }

    /// Resolve a bare function name (a callable argument passed by path) to
    /// candidate nodes, any arity, preferring the caller's crate.
    pub fn resolve_by_name(&self, from: u32, name: &str) -> Vec<u32> {
        let caller_crate = &self.nodes[from as usize].crate_name;
        let mut all: Vec<u32> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if node.decl.name == name {
                all.push(crate::id32(id));
            }
        }
        let same: Vec<u32> = all
            .iter()
            .copied()
            .filter(|&id| &self.nodes[id as usize].crate_name == caller_crate)
            .collect();
        if same.is_empty() {
            all
        } else {
            same
        }
    }

    /// SCC condensation + one reverse-topological union pass. Tarjan emits
    /// SCCs callees-first, so each component can union its successors'
    /// finished sets immediately.
    fn propagate(&mut self) {
        let n = self.nodes.len();
        let succ: Vec<Vec<u32>> = (0..n)
            .map(|id| {
                let mut s: Vec<u32> = self.resolved[id]
                    .iter()
                    .flat_map(|(_, callees)| callees.iter().copied())
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();

        // Iterative Tarjan.
        const UNSET: u32 = u32::MAX;
        let mut idx = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut comp = vec![UNSET; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        let mut counter = 0u32;

        for root in 0..n {
            if idx[root] != UNSET {
                continue;
            }
            // (node, next-successor position) work stack.
            let mut work: Vec<(u32, usize)> = vec![(crate::id32(root), 0)];
            while let Some(&(v, pos)) = work.last() {
                let v = v as usize;
                if pos == 0 {
                    idx[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(crate::id32(v));
                    on_stack[v] = true;
                }
                if let Some(&w) = succ[v].get(pos) {
                    work.last_mut().expect("tarjan frame").1 += 1;
                    let w = w as usize;
                    if idx[w] == UNSET {
                        work.push((crate::id32(w), 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(idx[w]);
                    }
                } else {
                    work.pop();
                    if let Some(&(p, _)) = work.last() {
                        let p = p as usize;
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == idx[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w as usize] = false;
                            comp[w as usize] = crate::id32(sccs.len());
                            scc.push(w);
                            if w as usize == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }

        // SCCs are emitted callees-first: successors of any member are in an
        // already-finished component (or the same one).
        let mut scc_effects: Vec<EffectSet> = Vec::with_capacity(sccs.len());
        for scc in &sccs {
            let mut eff = EffectSet::EMPTY;
            for &v in scc {
                eff.union_with(self.direct[v as usize]);
                for &w in &succ[v as usize] {
                    let c = comp[w as usize] as usize;
                    if c < scc_effects.len() {
                        eff.union_with(scc_effects[c]);
                    }
                }
            }
            scc_effects.push(eff);
        }
        self.effects = (0..n).map(|v| scc_effects[comp[v] as usize]).collect();
    }

    /// Transitive effects of a node.
    pub fn effects_of(&self, id: u32) -> EffectSet {
        self.effects[id as usize]
    }

    /// Look up a node by its `crate::...::name` symbol (first match).
    pub fn find_symbol(&self, symbol: &str) -> Option<u32> {
        self.nodes
            .iter()
            .position(|n| n.symbol == symbol)
            .map(crate::id32)
    }

    /// Shortest deterministic call chain from `from` down to a leaf of
    /// `effect`: BFS over nodes carrying the effect transitively, lowest node
    /// id first. Returns one step per hop plus the leaf site itself.
    pub fn chain_to_leaf(&self, from: u32, effect: Effect) -> Vec<ChainStep> {
        let mut steps = Vec::new();
        let mut cur = from;
        let mut guard = 0usize;
        loop {
            let node = &self.nodes[cur as usize];
            if let Some(leaf) = node.decl.leaves.iter().find(|l| l.effect == effect) {
                steps.push(ChainStep {
                    file: node.file.clone(),
                    line: leaf.line,
                    note: format!("{} in `{}`", leaf.what, node.symbol),
                });
                return steps;
            }
            // First call site (in token order) reaching a callee that carries
            // the effect; among its candidates, the lowest node id.
            let mut next: Option<(usize, u32)> = None;
            for (ci, callees) in &self.resolved[cur as usize] {
                if let Some(&callee) = callees
                    .iter()
                    .find(|&&c| self.effects[c as usize].contains(effect))
                {
                    next = Some((*ci, callee));
                    break;
                }
            }
            let Some((ci, callee)) = next else {
                return steps; // effect came through an unresolved call
            };
            let call = &node.decl.calls[ci];
            steps.push(ChainStep {
                file: node.file.clone(),
                line: call.line,
                note: format!(
                    "`{}` calls `{}`",
                    node.symbol,
                    self.nodes[callee as usize].symbol
                ),
            });
            cur = callee;
            guard += 1;
            if guard > self.nodes.len() {
                return steps; // cycle without a leaf (effect via unresolved)
            }
        }
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
    use crate::effects::leaf_effects;
    use crate::syntax::ItemTree;
    use crate::tokenizer::tokenize;

    fn analyze(crate_name: &str, file: &str, src: &str) -> FileAnalysis {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let scopes = ScopeTable::build(&lexed.tokens, &tree);
        let leaves = leaf_effects(&lexed.tokens, &tree, &scopes);
        analyze_file(crate_name, file, &lexed, &tree, &scopes, &leaves, &[])
    }

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(c, f, s)| analyze(c, f, s))
            .collect();
        CallGraph::build(&analyses)
    }

    #[test]
    fn harvests_decls_calls_and_arities() {
        let src = "fn helper(a: f64, b: f64) -> f64 { a + b }\n\
                   fn main2(xs: Vec<(f64, f64)>) -> f64 {\n\
                       helper(1.0, 2.0) + xs[0].0\n\
                   }\n";
        let fa = analyze("lp", "crates/lp/src/lib.rs", src);
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
        let fa = analyze("core", "crates/core/src/lib.rs", src);
        let call = &fa.fns[0].calls[0];
        assert_eq!(call.arity, 4, "closure pipes must not split the arg list");
        // Two closures plus the bare ident `n` (conservatively kept as a
        // potential fn pointer — it only matters if the name links to a fn).
        assert_eq!(call.callable_args.len(), 3);
        let closures = call.callable_args.iter().filter(|a| a.fn_name.is_none());
        assert_eq!(closures.count(), 2);
        assert_eq!(call.callable_args[0].fn_name.as_deref(), Some("n"));
    }

    #[test]
    fn hot_marker_attaches_within_two_lines() {
        let src = "// audit:hot\n#[inline]\nfn hot1() {}\n\nfn cold() {}\n";
        let fa = analyze("sdp", "crates/sdp/src/lib.rs", src);
        assert!(fa.fns[0].hot);
        assert!(!fa.fns[1].hot);
    }

    #[test]
    fn effects_propagate_across_crates() {
        let g = graph(&[
            (
                "dynamics",
                "crates/dynamics/src/lib.rs",
                "pub fn peek() -> bool { std::env::var(\"X\").is_ok() }\n",
            ),
            (
                "lp",
                "crates/lp/src/lib.rs",
                "pub fn solve() -> bool { snbc_dynamics::peek() }\n\
                 pub fn outer() -> bool { solve() }\n",
            ),
        ]);
        let peek = g.find_symbol("dynamics::peek").unwrap();
        let outer = g.find_symbol("lp::outer").unwrap();
        assert!(g.effects_of(peek).contains(Effect::ReadsEnv));
        assert!(g.effects_of(outer).contains(Effect::ReadsEnv), "transitive");
        let chain = g.chain_to_leaf(outer, Effect::ReadsEnv);
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[2].note.contains("std::env::var"), "{chain:?}");
    }

    #[test]
    fn owner_crate_leaves_are_masked() {
        let g = graph(&[
            (
                "par",
                "crates/par/src/lib.rs",
                "pub fn pool_size() -> usize { std::env::var(\"SNBC_THREADS\").map_or(1, |_| 2) }\n",
            ),
            (
                "core",
                "crates/core/src/lib.rs",
                "pub fn train() -> usize { snbc_par::pool_size() }\n",
            ),
        ]);
        let train = g.find_symbol("core::train").unwrap();
        assert!(
            !g.effects_of(train).contains(Effect::ReadsEnv),
            "sanctioned env read in the owner crate must not propagate"
        );
    }

    #[test]
    fn mutual_recursion_converges_via_scc() {
        let g = graph(&[(
            "lp",
            "crates/lp/src/lib.rs",
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { reads(n) } else { even(n - 1) } }\n\
             fn reads(_n: u64) -> bool { std::env::var(\"X\").is_ok() }\n",
        )]);
        let even = g.find_symbol("lp::even").unwrap();
        let odd = g.find_symbol("lp::odd").unwrap();
        assert!(g.effects_of(even).contains(Effect::ReadsEnv));
        assert!(g.effects_of(odd).contains(Effect::ReadsEnv));
    }

    #[test]
    fn method_calls_resolve_conservatively_by_name_and_arity() {
        let g = graph(&[(
            "sos",
            "crates/sos/src/lib.rs",
            "pub struct A; impl A { pub fn step(&self) { std::env::var(\"X\").ok(); } }\n\
             pub struct B; impl B { pub fn step(&self) {} }\n\
             pub fn drive(a: &A) { a.step(); }\n",
        )]);
        let drive = g.find_symbol("sos::drive").unwrap();
        // Both `step` impls match (name + arity); the union carries the env
        // read — conservative, never silently effect-free.
        assert!(g.effects_of(drive).contains(Effect::ReadsEnv));
    }

    #[test]
    fn unresolved_calls_add_no_effect() {
        let g = graph(&[(
            "nn",
            "crates/nn/src/lib.rs",
            "pub fn f(rng: &mut R) -> f64 { rng.gen_range(0.0, 1.0) }\n",
        )]);
        let f = g.find_symbol("nn::f").unwrap();
        assert_eq!(g.effects_of(f), EffectSet::EMPTY);
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
        assert!(!g.effects_of(solve).contains(Effect::Allocates));
    }
}
