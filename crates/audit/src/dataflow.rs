//! Statement-level def-use chains and value provenance.
//!
//! The fourth analysis layer, built on the [`crate::syntax`] statement spans
//! and scope tree. Where the effect engine answers "what can this *function*
//! do", this module answers "where does this *value* come from": every `fn`
//! body is lowered to an ordered list of definitions ([`Def`] — `let`
//! bindings and plain reassignments, with initializer token ranges and type
//! annotations), and a small fixpoint ([`propagate`]) pushes provenance
//! through the chain:
//!
//! - **rebinds** — `let ys = xs;`, `let ys = &xs;`, `ys = xs.clone();`
//! - **projections** — `let tail = &xs[1..];`, `let f = s.field;` (any
//!   mention of a tainted name in the initializer propagates, *except* a
//!   pure scalar index `xs[i]`, which extracts one element and drops
//!   sequence-level provenance)
//! - **closure captures** — closure bodies are part of the enclosing fn's
//!   token range, so mentions inside them participate like any other use.
//!
//! The lattice is deliberately flat: a name is either untainted or carries a
//! provenance chain ([`Hop`] list, origin last). Chains are first-writer-wins
//! inside the fixpoint, which makes them deterministic (defs are visited in
//! token order) and shortest-first. The engine is flow-insensitive across
//! loop back-edges — a name rebound *after* a sink keeps its taint — which is
//! the conservative direction for a determinism gate.
//!
//! Consumers: `unordered-reduce` v3 (folds over values that flow from
//! `par_map_collect`/`par_map_reduce`), `swallowed-result` v2 (Result-shaped
//! bindings with no subsequent use, via [`result_shaped`]), and
//! `par-capture-race` v1 ([`par_calls`] + [`split_args`] locate the closures
//! handed to the deterministic runtime; the rule layer inspects their
//! captures against the enclosing [`FnFlow`]).

use crate::syntax::ItemTree;
use crate::tokenizer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One definition inside a function body: a `let` binding or a plain
/// top-level reassignment (`name = expr;`, `name += expr;`).
#[derive(Debug)]
pub struct Def {
    pub name: String,
    /// Token index of the bound name.
    pub name_tok: usize,
    /// 1-indexed source line of the bound name.
    pub line: usize,
    /// Token range `[lo, hi)` of the initializer / assigned expression.
    pub rhs: (usize, usize),
    /// Token range `[lo, hi)` of an explicit `: Type` annotation, if any.
    pub ty: Option<(usize, usize)>,
    /// Token index just past the statement's terminating `;`.
    pub stmt_end: usize,
    /// True for `let` bindings; false for reassignments.
    pub is_let: bool,
}

/// One function parameter with its type annotation range.
#[derive(Debug)]
pub struct Param {
    pub name: String,
    pub name_tok: usize,
    pub line: usize,
    /// Token range `[lo, hi)` of the declared type (empty for `self`).
    pub ty: (usize, usize),
}

/// Def-use view of one `fn` scope: parameters and ordered definitions.
#[derive(Debug)]
pub struct FnFlow {
    pub fid: u32,
    /// Token range `[lo, hi)` of the fn body between its braces.
    pub body: (usize, usize),
    pub params: Vec<Param>,
    pub defs: Vec<Def>,
}

/// One hop of a provenance chain: "this line is where the value passed
/// through". Chains run from the nearest rebinding down to the origin.
#[derive(Debug, Clone)]
pub struct Hop {
    pub line: usize,
    pub note: String,
}

/// Lower fn `fid` to its def-use skeleton.
pub fn fn_flow(tokens: &[Token], tree: &ItemTree, fid: u32) -> FnFlow {
    let scope = &tree.scopes[fid as usize];
    let mut flow = FnFlow {
        fid,
        body: scope.body,
        params: collect_params(tokens, scope.range.0, scope.body.0),
        defs: Vec::new(),
    };
    let (lo, hi) = scope.body;
    let mut i = lo;
    while i < hi {
        if tree.enclosing_fn(i) != Some(fid) {
            i += 1; // a nested fn item's body is its own flow
            continue;
        }
        let text = tokens[i].text.as_str();
        // `let [mut] name [: Ty] = rhs ;` — simple ident patterns only;
        // destructuring (`let (a, b) = …`) stays out of the def list.
        if text == "let" && tokens[i].kind == TokenKind::Ident {
            let mut n = i + 1;
            if txt(tokens, n) == "mut" {
                n += 1;
            }
            if is_ident(tokens, n) {
                let end = stmt_end(tokens, i, hi);
                let mut eq = n + 1;
                let ty = if txt(tokens, eq) == ":" {
                    let ty_lo = eq + 1;
                    while eq < end && txt(tokens, eq) != "=" {
                        eq += 1;
                    }
                    Some((ty_lo, eq))
                } else {
                    None
                };
                if txt(tokens, eq) == "=" {
                    flow.defs.push(Def {
                        name: tokens[n].text.clone(),
                        name_tok: n,
                        line: tokens[n].line,
                        rhs: (eq + 1, end.saturating_sub(1).max(eq + 1)),
                        ty,
                        stmt_end: end,
                        is_let: true,
                    });
                }
                i = end;
                continue;
            }
        }
        // `name = rhs ;` / `name += rhs ;` at the start of a statement —
        // a reassignment keeps provenance flowing through loop bodies.
        if tokens[i].kind == TokenKind::Ident
            && starts_stmt(tree, i)
            && !matches!(txt(tokens, i.wrapping_sub(1)), "let" | "mut" | "." | "::")
        {
            let (is_assign, eq) = assign_op_after(tokens, i);
            if is_assign {
                let end = stmt_end(tokens, i, hi);
                flow.defs.push(Def {
                    name: tokens[i].text.clone(),
                    name_tok: i,
                    line: tokens[i].line,
                    rhs: (eq + 1, end.saturating_sub(1).max(eq + 1)),
                    ty: None,
                    stmt_end: end,
                    is_let: false,
                });
                i = end;
                continue;
            }
        }
        i += 1;
    }
    flow
}

impl FnFlow {
    /// First use of `name` at or after token `from` (an ident mention that is
    /// not a field/method position), or `None`.
    pub fn use_after(&self, tokens: &[Token], name: &str, from: usize) -> Option<usize> {
        (from..self.body.1).find(|&k| {
            is_ident(tokens, k)
                && tokens[k].text == name
                && txt(tokens, k.wrapping_sub(1)) != "."
                && txt(tokens, k + 1) != ":"
        })
    }

    /// Line of the first `let` of `name` (its definition site), if any.
    pub fn def_line(&self, name: &str) -> Option<usize> {
        self.defs
            .iter()
            .find(|d| d.is_let && d.name == name)
            .map(|d| d.line)
    }
}

/// Push provenance through the def list to a fixpoint. `seed` classifies a
/// single token as an origin (returning its human description); any def whose
/// initializer contains a seed token becomes tainted, and taint then flows
/// through rebinds/projections per the module rules. Returns name → chain
/// (nearest hop first, origin last).
pub fn propagate(
    flow: &FnFlow,
    tokens: &[Token],
    seed: impl Fn(usize) -> Option<String>,
) -> BTreeMap<String, Vec<Hop>> {
    let mut tainted: BTreeMap<String, Vec<Hop>> = BTreeMap::new();
    // One pass handles straight-line code; the +1 re-runs catch taint that
    // flows backwards through loop reassignments. Bounded, so pathological
    // files cannot hang the gate.
    for _ in 0..flow.defs.len().min(8) + 1 {
        let mut changed = false;
        for def in &flow.defs {
            if tainted.contains_key(&def.name) {
                continue;
            }
            let origin = (def.rhs.0..def.rhs.1).find_map(|k| seed(k).map(|d| (k, d)));
            if let Some((_, desc)) = origin {
                tainted.insert(
                    def.name.clone(),
                    vec![Hop {
                        line: def.line,
                        note: format!("`{}` bound from {} here", def.name, desc),
                    }],
                );
                changed = true;
                continue;
            }
            let via = mentions(tokens, def.rhs, &tainted)
                .into_iter()
                .find(|&(k, _)| !scalar_index_only(tokens, k, def.rhs.1));
            if let Some((_, src)) = via {
                let mut chain = vec![Hop {
                    line: def.line,
                    note: format!("`{}` flows from `{src}` here", def.name),
                }];
                chain.extend(tainted[&src].iter().cloned());
                tainted.insert(def.name.clone(), chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// Result-provenance, flow-sensitively per def: a forward pass classifying
/// each `let` as Result-shaped or not. Seeds: an explicit `: Result<…>`
/// annotation, a parameter of Result type, an initializer whose outermost
/// call resolves to a same-file `-> Result` fn (`result_fns`: name → decl
/// line) or an `Ok(…)`/`Err(…)` constructor, or a plain rebinding of an
/// already-shaped name. An initializer that unwraps (`?` at top level) or
/// ends in a consuming adapter (`.ok()`, `.unwrap_or(…)`, …) is *not*
/// shaped. Returns, per def index, the provenance chain when shaped.
pub fn result_shaped(
    flow: &FnFlow,
    tokens: &[Token],
    result_fns: &BTreeMap<String, usize>,
) -> Vec<Option<Vec<Hop>>> {
    let mut shaped: BTreeMap<String, Vec<Hop>> = BTreeMap::new();
    for p in &flow.params {
        if range_has_result_ty(tokens, p.ty) {
            shaped.insert(
                p.name.clone(),
                vec![Hop {
                    line: p.line,
                    note: format!("`{}` is a `Result` parameter", p.name),
                }],
            );
        }
    }
    let mut out = Vec::with_capacity(flow.defs.len());
    for def in &flow.defs {
        let chain = classify_result(def, tokens, result_fns, &shaped);
        match (&chain, def.is_let) {
            // A reassignment to a non-Result expression clears the shape.
            (None, false) | (None, true) => {
                shaped.remove(&def.name);
            }
            (Some(c), _) => {
                shaped.insert(def.name.clone(), c.clone());
            }
        }
        out.push(chain);
    }
    out
}

fn classify_result(
    def: &Def,
    tokens: &[Token],
    result_fns: &BTreeMap<String, usize>,
    shaped: &BTreeMap<String, Vec<Hop>>,
) -> Option<Vec<Hop>> {
    if let Some(ty) = def.ty {
        if range_has_result_ty(tokens, ty) {
            return Some(vec![Hop {
                line: def.line,
                note: format!("`{}` declared `: Result<…>` here", def.name),
            }]);
        }
    }
    let (lo, hi) = def.rhs;
    // `?` at top level unwraps the Ok value — no longer a Result.
    let mut depth = 0i32;
    let mut last_call: Option<usize> = None;
    for k in lo..hi {
        match txt(tokens, k) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "?" if depth == 0 => return None,
            _ => {
                if depth == 0 && is_ident(tokens, k) && txt(tokens, k + 1) == "(" {
                    last_call = Some(k);
                }
            }
        }
    }
    if let Some(m) = last_call {
        let name = tokens[m].text.as_str();
        if RESULT_CONSUMERS.contains(&name) && txt(tokens, m.wrapping_sub(1)) == "." {
            return None;
        }
        if matches!(name, "Ok" | "Err") {
            return Some(vec![Hop {
                line: def.line,
                note: format!("`{}` bound from a `{name}(…)` constructor here", def.name),
            }]);
        }
        if let Some(&decl_line) = result_fns.get(name) {
            return Some(vec![
                Hop {
                    line: def.line,
                    note: format!("`{}` bound from fallible `{name}(…)` here", def.name),
                },
                Hop {
                    line: decl_line,
                    note: format!("`{name}` declared `-> Result<…>` here"),
                },
            ]);
        }
    }
    // Plain rebinding (`let b = a;` / `let b = &a;`) of a shaped name.
    let mut k = lo;
    while k < hi && matches!(txt(tokens, k), "&" | "mut") {
        k += 1;
    }
    if k + 1 >= hi && is_ident(tokens, k) {
        if let Some(chain) = shaped.get(tokens[k].text.as_str()) {
            let mut c = vec![Hop {
                line: def.line,
                note: format!("`{}` rebinds `{}` here", def.name, tokens[k].text),
            }];
            c.extend(chain.iter().cloned());
            return Some(c);
        }
    }
    None
}

/// Adapters that consume a Result (the binding they produce is not one).
const RESULT_CONSUMERS: &[&str] = &[
    "ok",
    "err",
    "is_ok",
    "is_err",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_or_else",
];

/// True when a type-annotation token range names a Result (std `Result`,
/// or a crate alias like `SdpResult` — by convention they end in "Result").
fn range_has_result_ty(tokens: &[Token], (lo, hi): (usize, usize)) -> bool {
    (lo..hi).any(|k| {
        is_ident(tokens, k)
            && tokens[k].text.ends_with("Result")
            && txt(tokens, k.wrapping_sub(1)) != "."
    })
}

/// Same-file fns whose header declares `-> Result`-shaped returns:
/// name → 1-indexed declaration line.
pub fn result_fns(tokens: &[Token], tree: &ItemTree) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for scope in &tree.scopes {
        if scope.kind != crate::syntax::ScopeKind::Fn {
            continue;
        }
        let (lo, hi) = (scope.range.0, scope.body.0);
        let arrow = (lo..hi).find(|&k| txt(tokens, k) == "->");
        if let Some(a) = arrow {
            if range_has_result_ty(tokens, (a + 1, hi)) {
                out.insert(scope.name.clone(), tokens[lo].line);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `snbc_par` call-site geometry (for the capture-race rule).

/// `snbc_par` entry points that accept callables.
pub const PAR_ENTRY_POINTS: &[&str] = &[
    "par_map_collect",
    "par_map_reduce",
    "par_for_chunks",
    "par_for_chunks_scratch",
    "par_for_each_mut",
    "join",
    "join3",
];

/// One call to an `snbc_par` entry point inside a fn body.
#[derive(Debug)]
pub struct ParCall {
    /// Token index of the entry-point identifier.
    pub tok: usize,
    pub line: usize,
    /// Entry-point name (`par_map_collect`, …).
    pub name: String,
    /// Argument token ranges `[lo, hi)`, split at top-level commas.
    pub args: Vec<(usize, usize)>,
}

/// Locate free calls to [`PAR_ENTRY_POINTS`] in `[lo, hi)`. `accept` is the
/// alias-resolution predicate (token index, canonical `snbc_par::…` path) —
/// the rule layer closes over its `ScopeTable`.
pub fn par_calls(
    tokens: &[Token],
    (lo, hi): (usize, usize),
    accept: impl Fn(usize, &str) -> bool,
) -> Vec<ParCall> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let name = txt(tokens, i);
        if is_ident(tokens, i)
            && PAR_ENTRY_POINTS.contains(&name)
            && txt(tokens, i.wrapping_sub(1)) != "."
            && accept(i, &format!("snbc_par::{name}"))
        {
            // Past an optional turbofish to the opening paren.
            let mut open = i + 1;
            if txt(tokens, open) == "::" && txt(tokens, open + 1) == "<" {
                open += 2;
                let mut angle = 1i32;
                while open < hi && angle > 0 {
                    match txt(tokens, open) {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        _ => {}
                    }
                    open += 1;
                }
            }
            if txt(tokens, open) == "(" {
                let close = match_paren(tokens, open, hi);
                out.push(ParCall {
                    tok: i,
                    line: tokens[i].line,
                    name: name.to_string(),
                    args: split_args(tokens, open, close),
                });
                i = open;
            }
        }
        i += 1;
    }
    out
}

/// Split `( … )` contents at top-level commas into argument ranges.
/// Closure pipes (`|a, b|`) shield their parameter commas.
pub fn split_args(tokens: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_pipes = false;
    let mut start = open + 1;
    for k in open + 1..close {
        match txt(tokens, k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => in_pipes = !in_pipes,
            "||" if depth == 0 => {} // zero-arg closure head
            "," if depth == 0 && !in_pipes => {
                if start < k {
                    out.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// For a closure argument range, split it into (param names, body range).
/// Returns `None` when the range is not a closure (a bare fn path).
pub fn closure_parts(
    tokens: &[Token],
    (lo, hi): (usize, usize),
) -> Option<(BTreeSet<String>, (usize, usize))> {
    let mut k = lo;
    while k < hi && matches!(txt(tokens, k), "move" | "&" | "mut") {
        k += 1;
    }
    if txt(tokens, k) == "||" {
        return Some((BTreeSet::new(), (k + 1, hi)));
    }
    if txt(tokens, k) != "|" {
        return None;
    }
    let mut params = BTreeSet::new();
    let mut j = k + 1;
    let mut depth = 0i32;
    while j < hi {
        match txt(tokens, j) {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "|" if depth == 0 => break,
            _ => {
                // Parameter names are idents not in type position.
                if depth == 0
                    && is_ident(tokens, j)
                    && !matches!(txt(tokens, j.wrapping_sub(1)), ":" | "::")
                    && txt(tokens, j) != "mut"
                {
                    params.insert(tokens[j].text.clone());
                }
            }
        }
        j += 1;
    }
    if j >= hi {
        return None;
    }
    Some((params, (j + 1, hi)))
}

/// Names bound by `let` statements inside a token range (closure locals).
pub fn local_lets(tokens: &[Token], (lo, hi): (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for k in lo..hi {
        if txt(tokens, k) == "let" && is_ident(tokens, k) {
            let mut n = k + 1;
            if txt(tokens, n) == "mut" {
                n += 1;
            }
            if is_ident(tokens, n) {
                out.insert(tokens[n].text.clone());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Shared token helpers.

fn txt(tokens: &[Token], i: usize) -> &str {
    tokens.get(i).map_or("", |t| t.text.as_str())
}

fn is_ident(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

/// Mentions of tainted names inside a token range, in token order: ident
/// tokens that are variable uses (not field/method names, not path segments,
/// not struct-literal field labels).
fn mentions(
    tokens: &[Token],
    (lo, hi): (usize, usize),
    tainted: &BTreeMap<String, Vec<Hop>>,
) -> Vec<(usize, String)> {
    (lo..hi)
        .filter(|&k| {
            is_ident(tokens, k)
                && tainted.contains_key(tokens[k].text.as_str())
                && !matches!(txt(tokens, k.wrapping_sub(1)), "." | "::")
                && txt(tokens, k + 1) != ":"
                && txt(tokens, k + 1) != "::"
        })
        .map(|k| (k, tokens[k].text.clone()))
        .collect()
}

/// True when the mention at `k` is a pure scalar index (`xs[i]` with no `..`
/// inside the brackets) — element extraction, which drops sequence taint.
fn scalar_index_only(tokens: &[Token], k: usize, hi: usize) -> bool {
    if txt(tokens, k + 1) != "[" {
        return false;
    }
    let close = match_bracket(tokens, k + 1, hi);
    !(k + 2..close).any(|j| txt(tokens, j) == "..")
}

/// True when token `i` opens its statement (no earlier token shares its
/// statement id).
fn starts_stmt(tree: &ItemTree, i: usize) -> bool {
    match tree.stmt_of.get(i) {
        Some(&sid) if sid != crate::syntax::NO_STMT => {
            i == 0 || tree.stmt_of.get(i - 1) != Some(&sid)
        }
        _ => false,
    }
}

/// For an ident at `i`, detect `name = …` / `name op= …`; returns the index
/// of the `=` token. (`+=` lexes as `+` `=`; `==`, `<=`, `=>` are single
/// tokens, so a bare `=` is always assignment.)
fn assign_op_after(tokens: &[Token], i: usize) -> (bool, usize) {
    if txt(tokens, i + 1) == "=" {
        return (true, i + 1);
    }
    if matches!(txt(tokens, i + 1), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<<" | ">>")
        && txt(tokens, i + 2) == "="
    {
        return (true, i + 2);
    }
    (false, 0)
}

/// Extent of a statement starting at `i`: past its `;` at zero bracket depth.
fn stmt_end(tokens: &[Token], i: usize, hi: usize) -> usize {
    let (mut p, mut b, mut k) = (0i32, 0i32, 0i32);
    let mut j = i;
    while j < hi {
        match tokens[j].text.as_str() {
            "(" => p += 1,
            ")" => p -= 1,
            "[" => k += 1,
            "]" => k -= 1,
            "{" => b += 1,
            "}" => b -= 1,
            ";" if p == 0 && b == 0 && k == 0 => return j + 1,
            _ => {}
        }
        if p < 0 || b < 0 || k < 0 {
            return j;
        }
        j += 1;
    }
    hi
}

fn match_paren(tokens: &[Token], i: usize, hi: usize) -> usize {
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

fn match_bracket(tokens: &[Token], i: usize, hi: usize) -> usize {
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

/// Parameters of a fn header `[lo, hi)`: split the paren list at top-level
/// commas; each segment is `[mut] name: Type`.
fn collect_params(tokens: &[Token], lo: usize, hi: usize) -> Vec<Param> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi && txt(tokens, i) != "(" {
        i += 1;
    }
    if i >= hi {
        return out;
    }
    let close = match_paren(tokens, i, hi);
    let mut seg_start = i + 1;
    let mut depth = 0i32;
    for j in i + 1..=close.min(hi.saturating_sub(1)) {
        let t = txt(tokens, j);
        let at_end = j == close;
        if matches!(t, "(" | "[" | "<") {
            depth += 1;
        } else if matches!(t, ")" | "]" | ">") && !at_end {
            depth -= 1;
        }
        if at_end || (t == "," && depth == 0) {
            let name_tok = (seg_start..j)
                .find(|&k| is_ident(tokens, k) && !matches!(txt(tokens, k), "mut" | "self"));
            if let Some(n) = name_tok {
                let colon = (n..j).find(|&k| txt(tokens, k) == ":");
                out.push(Param {
                    name: tokens[n].text.clone(),
                    name_tok: n,
                    line: tokens[n].line,
                    ty: colon.map_or((j, j), |c| (c + 1, j)),
                });
            }
            seg_start = j + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::ItemTree;
    use crate::tokenizer::tokenize;

    fn flow_of(src: &str) -> (Vec<Token>, ItemTree, FnFlow) {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let fid = (0..tree.scopes.len() as u32)
            .find(|&s| tree.scopes[s as usize].kind == crate::syntax::ScopeKind::Fn)
            .expect("fn scope");
        let flow = fn_flow(&lexed.tokens, &tree, fid);
        (lexed.tokens, tree, flow)
    }

    #[test]
    fn defs_capture_lets_and_reassignments() {
        let src = "fn f() {\n  let a = 1;\n  let mut b: f64 = 2.0;\n  b += 3.0;\n  let (x, y) = pair();\n}\n";
        let (_, _, flow) = flow_of(src);
        let names: Vec<(&str, bool)> = flow
            .defs
            .iter()
            .map(|d| (d.name.as_str(), d.is_let))
            .collect();
        // Destructuring stays out; the reassignment is tracked.
        assert_eq!(names, vec![("a", true), ("b", true), ("b", false)]);
        assert!(flow.defs[1].ty.is_some());
    }

    #[test]
    fn taint_flows_through_rebinds_not_scalar_indexing() {
        let src = "fn f(n: usize) {\n  let xs = par_map_collect(n, |i| i as f64);\n  let ys = xs;\n  let tail = &ys[1..];\n  let one = xs[0];\n}\n";
        let (tokens, _, flow) = flow_of(src);
        let tainted = propagate(&flow, &tokens, |k| {
            (tokens[k].text == "par_map_collect").then(|| "`par_map_collect(…)`".to_string())
        });
        assert!(tainted.contains_key("xs"));
        assert!(tainted.contains_key("ys"));
        assert!(tainted.contains_key("tail"), "range projection keeps taint");
        assert!(!tainted.contains_key("one"), "scalar index drops taint");
        // Chain: tail → ys → xs (origin last).
        assert_eq!(tainted["tail"].len(), 3);
        assert!(tainted["tail"][2].note.contains("par_map_collect"));
    }

    #[test]
    fn result_shape_tracks_calls_and_consumers() {
        let src = "fn helper() -> Result<u32, String> { Ok(1) }\n\
                   fn f() {\n  let a = helper();\n  let b = a;\n  let c = helper().ok();\n  let d = helper()?;\n}\n";
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let fns = result_fns(&lexed.tokens, &tree);
        assert_eq!(fns.get("helper"), Some(&1));
        let fid = (0..tree.scopes.len() as u32)
            .find(|&s| tree.scopes[s as usize].name == "f")
            .unwrap();
        let flow = fn_flow(&lexed.tokens, &tree, fid);
        let shaped = result_shaped(&flow, &lexed.tokens, &fns);
        let by_name: BTreeMap<&str, bool> = flow
            .defs
            .iter()
            .zip(&shaped)
            .map(|(d, s)| (d.name.as_str(), s.is_some()))
            .collect();
        assert_eq!(by_name["a"], true, "direct fallible call");
        assert_eq!(by_name["b"], true, "rebinding keeps the shape");
        assert_eq!(by_name["c"], false, ".ok() consumes the Result");
        assert_eq!(by_name["d"], false, "`?` unwraps the Result");
    }

    #[test]
    fn par_call_geometry_finds_closures_and_args() {
        let src = "fn f(n: usize, out: &mut [f64]) {\n  par_for_chunks(&mut out[..], 4, |lo, chunk| {\n    let s = lo;\n    chunk[0] = s as f64;\n  });\n}\n";
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let calls = par_calls(&lexed.tokens, (0, lexed.tokens.len()), |_, _| true);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "par_for_chunks");
        assert_eq!(calls[0].args.len(), 3);
        let (params, body) = closure_parts(&lexed.tokens, calls[0].args[2]).expect("closure");
        assert!(params.contains("lo") && params.contains("chunk"));
        let locals = local_lets(&lexed.tokens, body);
        assert!(locals.contains("s"));
        let _ = tree;
    }
}
