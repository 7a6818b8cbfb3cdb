//! A brace-matched item tree over the token stream.
//!
//! The tokenizer gives a flat stream; this module recovers just enough
//! structure for scope-aware rules without a full parser:
//!
//! - a tree of **scopes** (file root → `mod` → `fn` / `impl` / `trait`), each
//!   covering a token range, with `#[cfg(test)]` / `#[test]` tracked
//!   *structurally*: an item carrying a test attribute marks its whole
//!   subtree, including nested items, instead of relying on line heuristics;
//! - a per-token map to the innermost scope, so rules can ask "which function
//!   am I in" and symbol tables can be scoped;
//! - **statement spans**: each token maps to the innermost statement
//!   (split on `;`/`,` outside parens, with `{}` blocks nested), giving
//!   suppressions a span to attach to — a `// audit:allow(...)` anywhere on a
//!   multi-line statement, or on the line above it, covers the whole
//!   statement.
//!
//! The walker is deliberately forgiving: unbalanced braces clamp to the end
//! of the file, unknown constructs stay in the enclosing scope. The audit
//! must degrade gracefully on exotic code, never crash the gate.

use crate::tokenizer::Token;

/// Sentinel for "no statement" in [`ItemTree::stmt_of`].
pub const NO_STMT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The file itself (crate-root or module file).
    Root,
    /// `mod name { ... }`.
    Module,
    /// `fn name(...) { ... }` — the scope covers header *and* body, so
    /// parameter lists resolve in the fn's own scope.
    Fn,
    /// `impl ... { ... }` or `trait ... { ... }`.
    Impl,
}

#[derive(Debug)]
pub struct Scope {
    pub kind: ScopeKind,
    /// Item name (`mod foo` → "foo", `fn bar` → "bar"); impls and traits are
    /// named after the target type (`impl Trait for Foo` → "Foo").
    pub name: String,
    pub parent: Option<u32>,
    /// Token index range `[start, end)` covered by the scope, header included.
    pub range: (usize, usize),
    /// Token index range `[start, end)` of the body between the braces.
    pub body: (usize, usize),
    /// True when this item (or an ancestor) carries `#[test]` / `#[cfg(test)]`.
    pub is_test: bool,
}

#[derive(Debug)]
pub struct Stmt {
    /// 1-indexed source line span of the statement, inclusive.
    pub start_line: usize,
    pub end_line: usize,
    /// Sorted, deduplicated 1-indexed lines holding this statement's *own*
    /// tokens. Tokens inside a nested `{}` block belong to inner statements,
    /// so a multi-line closure body contributes nothing here — which is what
    /// scopes `audit:allow` markers written inside a closure to the closure's
    /// own statements instead of the enclosing outer statement.
    pub lines: Vec<usize>,
}

/// The syntax layer handed to rules: scopes, test regions, statement spans.
#[derive(Debug)]
pub struct ItemTree {
    pub scopes: Vec<Scope>,
    /// Innermost scope id per token.
    pub scope_of: Vec<u32>,
    /// True when the token sits structurally inside a test item (the test
    /// attribute itself included).
    pub in_test: Vec<bool>,
    /// Innermost statement id per token ([`NO_STMT`] when outside any).
    pub stmt_of: Vec<u32>,
    pub stmts: Vec<Stmt>,
}

impl ItemTree {
    pub fn build(tokens: &[Token]) -> ItemTree {
        let mut b = Builder {
            tokens,
            scopes: vec![Scope {
                kind: ScopeKind::Root,
                name: String::new(),
                parent: None,
                range: (0, tokens.len()),
                body: (0, tokens.len()),
                is_test: false,
            }],
            scope_of: vec![0; tokens.len()],
            in_test: vec![false; tokens.len()],
        };
        b.walk(0, tokens.len(), 0, false);
        let (stmts, stmt_of) = compute_stmts(tokens);
        ItemTree {
            scopes: b.scopes,
            scope_of: b.scope_of,
            in_test: b.in_test,
            stmt_of,
            stmts,
        }
    }

    /// Innermost enclosing `fn` scope of a token, if any.
    pub fn enclosing_fn(&self, tok: usize) -> Option<u32> {
        let mut sid = *self.scope_of.get(tok)?;
        loop {
            let s = &self.scopes[sid as usize];
            if s.kind == ScopeKind::Fn {
                return Some(sid);
            }
            sid = s.parent?;
        }
    }

    /// Line span of the statement enclosing a token; falls back to the
    /// token's own line when it sits outside any statement.
    pub fn stmt_span(&self, tok: usize, fallback_line: usize) -> (usize, usize) {
        match self.stmt_of.get(tok) {
            Some(&id) if id != NO_STMT => {
                let s = &self.stmts[id as usize];
                (s.start_line, s.end_line)
            }
            _ => (fallback_line, fallback_line),
        }
    }

    /// Lines holding the tokens of the statement enclosing `tok` — the
    /// suppression anchor set. Unlike [`stmt_span`](Self::stmt_span), this
    /// excludes lines owned exclusively by nested block statements (closure
    /// bodies), so an `audit:allow` inside a closure cannot silence a finding
    /// on the enclosing statement. Falls back to the token's own line.
    pub fn stmt_lines(&self, tok: usize, fallback_line: usize) -> Vec<usize> {
        match self.stmt_of.get(tok) {
            Some(&id) if id != NO_STMT => self.stmts[id as usize].lines.clone(),
            _ => vec![fallback_line],
        }
    }
}

struct Builder<'a> {
    tokens: &'a [Token],
    scopes: Vec<Scope>,
    scope_of: Vec<u32>,
    in_test: Vec<bool>,
}

impl Builder<'_> {
    /// Assign tokens in `[lo, hi)` to scope `sid`, recursing into item bodies.
    fn walk(&mut self, lo: usize, hi: usize, sid: u32, test: bool) {
        let mut i = lo;
        let mut pending_test = false;
        let mut attr_start: Option<usize> = None;
        while i < hi {
            let text = self.tokens[i].text.as_str();
            self.scope_of[i] = sid;
            if test {
                self.in_test[i] = true;
            }
            match text {
                "#" if self.peek(i + 1) == "[" => {
                    let end = self.match_bracket(i + 1, hi);
                    for j in i..end {
                        self.scope_of[j] = sid;
                        if test {
                            self.in_test[j] = true;
                        }
                    }
                    if is_test_attr(&self.tokens[i..end]) {
                        pending_test = true;
                    }
                    if attr_start.is_none() {
                        attr_start = Some(i);
                    }
                    i = end;
                }
                // Item-header modifiers are transparent: they neither start an
                // item nor discharge a pending test attribute.
                "pub" | "unsafe" | "async" | "extern" | "default" => i += 1,
                "(" | ")" => i += 1, // `pub(crate)` visibility parens
                "mod" | "fn" | "impl" | "trait"
                    if self.item_starts_here(text, i) =>
                {
                    i = self.consume_item(text, i, hi, sid, test || pending_test, attr_start);
                    pending_test = false;
                    attr_start = None;
                }
                // A test attribute on any other item (`use`, `struct`, a
                // statement, …): mask the attribute plus the following item up
                // to its balanced `{...}` or a top-level `;`, old-style.
                _ if pending_test => {
                    let start = attr_start.unwrap_or(i);
                    let end = self.generic_item_end(i, hi);
                    for j in start..end {
                        self.in_test[j] = true;
                        self.scope_of[j] = sid;
                    }
                    pending_test = false;
                    attr_start = None;
                    i = end;
                }
                // An anonymous block (loop body, closure, match, …): stays in
                // the current scope, but walk inside for nested items.
                "{" => {
                    let close = self.match_brace(i, hi);
                    self.walk(i + 1, close, sid, test);
                    if close < hi {
                        self.scope_of[close] = sid;
                        if test {
                            self.in_test[close] = true;
                        }
                    }
                    i = close + 1;
                }
                _ => {
                    attr_start = None;
                    i += 1;
                }
            }
        }
    }

    fn peek(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    /// `fn`/`mod` must be followed by a name; `fn` in type position
    /// (`fn(f64) -> f64`) is not an item.
    fn item_starts_here(&self, kw: &str, i: usize) -> bool {
        match kw {
            "fn" | "mod" => self
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == crate::tokenizer::TokenKind::Ident),
            _ => true,
        }
    }

    /// Consume an item starting at keyword index `i`; returns the index just
    /// past the item.
    fn consume_item(
        &mut self,
        kw: &str,
        i: usize,
        hi: usize,
        parent: u32,
        item_test: bool,
        attr_start: Option<usize>,
    ) -> usize {
        // Header: scan to the body `{` or a terminating `;` (declarations,
        // trait fns without bodies). Fn signatures cannot contain braces, but
        // array types (`[f64; 3]`) put semicolons inside brackets — only a
        // bracket-top-level `;` ends the header.
        let mut j = i + 1;
        let mut bracket = 0i32;
        while j < hi {
            match self.peek(j) {
                "{" => break,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if bracket == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= hi || self.peek(j) == ";" {
            let end = (j + 1).min(hi);
            for k in i..end {
                self.scope_of[k] = parent;
                if item_test {
                    self.in_test[k] = true;
                }
            }
            if item_test {
                if let Some(a) = attr_start {
                    for k in a..i {
                        self.in_test[k] = true;
                    }
                }
            }
            return end;
        }
        let close = self.match_brace(j, hi);
        let kind = match kw {
            "mod" => ScopeKind::Module,
            "fn" => ScopeKind::Fn,
            _ => ScopeKind::Impl,
        };
        let name = match kw {
            "mod" | "fn" => self.peek(i + 1).to_string(),
            // `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`, `trait Bar`:
            // name the scope after the *target* type so call-graph symbols
            // read `solver::SdpSolver::solve`, not `solver::impl::solve`.
            other => self.impl_target_name(i + 1, j).unwrap_or_else(|| other.to_string()),
        };
        let end = (close + 1).min(hi);
        self.scopes.push(Scope {
            kind,
            name,
            parent: Some(parent),
            range: (i, end),
            body: (j + 1, close),
            is_test: item_test,
        });
        let sid = crate::id32(self.scopes.len() - 1);
        for k in i..=j.min(hi - 1) {
            self.scope_of[k] = sid;
            if item_test {
                self.in_test[k] = true;
            }
        }
        if item_test {
            if let Some(a) = attr_start {
                for k in a..i {
                    self.in_test[k] = true;
                }
            }
        }
        self.walk(j + 1, close, sid, item_test);
        if close < hi {
            self.scope_of[close] = sid;
            if item_test {
                self.in_test[close] = true;
            }
        }
        end
    }

    /// Target-type name of an `impl`/`trait` header in `[lo, hi)`: the first
    /// identifier after a top-level `for` (trait impls), else the first
    /// identifier outside the `<...>` generics block.
    fn impl_target_name(&self, lo: usize, hi: usize) -> Option<String> {
        let mut angle = 0i32;
        let mut first: Option<&str> = None;
        let mut after_for = false;
        for j in lo..hi {
            let t = self.tokens.get(j)?;
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if angle == 0 => {
                    after_for = true;
                    first = None;
                }
                "where" if angle == 0 => break,
                _ if angle == 0
                    && t.kind == crate::tokenizer::TokenKind::Ident
                    && first.is_none()
                    && t.text != "dyn" =>
                {
                    first = Some(t.text.as_str());
                    if after_for {
                        break;
                    }
                }
                _ => {}
            }
        }
        first.map(|s| s.to_string())
    }

    /// Everything up to the close of the first entered `{...}`, or a `;` at
    /// nesting level zero. Mirrors the legacy test-region heuristic.
    fn generic_item_end(&self, mut i: usize, hi: usize) -> usize {
        let mut brace = 0usize;
        let mut entered = false;
        while i < hi {
            match self.peek(i) {
                "{" => {
                    brace += 1;
                    entered = true;
                }
                "}" => {
                    brace = brace.saturating_sub(1);
                    if entered && brace == 0 {
                        return i + 1;
                    }
                }
                ";" if !entered && brace == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Index of the `}` matching the `{` at `i` (clamped to `hi` when
    /// unbalanced).
    fn match_brace(&self, i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < hi {
            match self.peek(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
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

    /// Index just past the `]` matching the `[` at `i`.
    fn match_bracket(&self, i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < hi {
            match self.peek(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        hi
    }
}

pub(crate) fn is_test_attr(attr: &[Token]) -> bool {
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`, `#[tokio::test]`.
    let texts: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match texts.as_slice() {
        ["#", "[", "test", "]"] => true,
        ["#", "[", "cfg", "(", rest @ ..] => rest.contains(&"test"),
        _ => texts.len() >= 2 && texts[texts.len() - 2] == "test",
    }
}

/// Segment the stream into statements. Within each `{}` frame, a statement
/// ends at `;` or `,` outside parens/brackets, or after a nested block whose
/// next token does not continue the expression (`else`, `.`, `?`, operators,
/// closers). Tokens inside nested braces belong to the *inner* statements;
/// the enclosing statement still spans them via its own brace tokens.
fn compute_stmts(tokens: &[Token]) -> (Vec<Stmt>, Vec<u32>) {
    struct Frame {
        open: Option<u32>,
        pdepth: usize,
    }
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut stmt_of = vec![NO_STMT; tokens.len()];
    let mut stack = vec![Frame { open: None, pdepth: 0 }];

    let mut assign = |stmts: &mut Vec<Stmt>, frame: &mut Frame, i: usize, line: usize| -> u32 {
        let id = match frame.open {
            Some(id) => id,
            None => {
                stmts.push(Stmt { start_line: line, end_line: line, lines: Vec::new() });
                let id = crate::id32(stmts.len() - 1);
                frame.open = Some(id);
                id
            }
        };
        let s = &mut stmts[id as usize];
        s.end_line = s.end_line.max(line);
        s.start_line = s.start_line.min(line);
        // A statement's tokens arrive in non-decreasing line order even when
        // nested blocks interleave, so a last-element check dedups.
        if s.lines.last() != Some(&line) {
            s.lines.push(line);
        }
        stmt_of[i] = id;
        id
    };

    for (i, t) in tokens.iter().enumerate() {
        let text = t.text.as_str();
        match text {
            "{" => {
                let frame = stack.last_mut().expect("stmt stack");
                assign(&mut stmts, frame, i, t.line);
                stack.push(Frame { open: None, pdepth: 0 });
            }
            "}" => {
                if stack.len() > 1 {
                    stack.pop();
                }
                let frame = stack.last_mut().expect("stmt stack");
                assign(&mut stmts, frame, i, t.line);
                // Does the enclosing statement continue past this block?
                let cont = frame.pdepth > 0
                    || matches!(
                        tokens.get(i + 1).map(|n| n.text.as_str()),
                        Some(
                            "else" | "." | "?" | ";" | "," | ")" | "]" | "}" | "=>" | "=="
                                | "!=" | "<" | ">" | "<=" | ">=" | "+" | "-" | "*" | "/"
                                | "&&" | "||" | "&" | "|" | "as"
                        )
                    );
                if !cont {
                    frame.open = None;
                }
            }
            ";" | "," => {
                let frame = stack.last_mut().expect("stmt stack");
                if frame.pdepth == 0 {
                    assign(&mut stmts, frame, i, t.line);
                    frame.open = None;
                } else {
                    assign(&mut stmts, frame, i, t.line);
                }
            }
            _ => {
                let frame = stack.last_mut().expect("stmt stack");
                if text == "(" || text == "[" {
                    frame.pdepth += 1;
                } else if text == ")" || text == "]" {
                    frame.pdepth = frame.pdepth.saturating_sub(1);
                }
                assign(&mut stmts, frame, i, t.line);
            }
        }
    }
    (stmts, stmt_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn tree(src: &str) -> (Vec<Token>, ItemTree) {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        (lexed.tokens, tree)
    }
    use crate::tokenizer::Token;

    fn scope_name_at(tokens: &[Token], t: &ItemTree, ident: &str) -> String {
        let i = tokens.iter().position(|tk| tk.text == ident).unwrap();
        t.scopes[t.scope_of[i] as usize].name.clone()
    }

    #[test]
    fn fn_and_mod_scopes_nest() {
        let src = "mod outer {\n  fn inner(x: f64) -> f64 { body_tok }\n}\nfn top() { other }\n";
        let (tokens, t) = tree(src);
        assert_eq!(scope_name_at(&tokens, &t, "body_tok"), "inner");
        assert_eq!(scope_name_at(&tokens, &t, "other"), "top");
        let inner = tokens.iter().position(|tk| tk.text == "body_tok").unwrap();
        let sid = t.scope_of[inner] as usize;
        assert_eq!(t.scopes[sid].kind, ScopeKind::Fn);
        let parent = t.scopes[sid].parent.unwrap() as usize;
        assert_eq!(t.scopes[parent].kind, ScopeKind::Module);
        assert_eq!(t.scopes[parent].name, "outer");
    }

    #[test]
    fn fn_params_live_in_the_fn_scope() {
        let src = "fn f(map: usize) { }";
        let (tokens, t) = tree(src);
        assert_eq!(scope_name_at(&tokens, &t, "map"), "f");
    }

    #[test]
    fn impl_blocks_and_methods() {
        let src = "impl Foo {\n  fn method(&self) { inside }\n}\n";
        let (tokens, t) = tree(src);
        assert_eq!(scope_name_at(&tokens, &t, "inside"), "method");
    }

    #[test]
    fn impl_scopes_carry_target_names() {
        let src = "impl Foo { fn m(&self) { a } }\n\
                   impl<T: Clone> Wrapper<T> { fn n(&self) { b } }\n\
                   impl std::fmt::Display for Rule { fn fmt(&self) { c } }\n\
                   trait Solver { fn solve(&self) { d } }\n";
        let (tokens, t) = tree(src);
        for (ident, want) in [("a", "Foo"), ("b", "Wrapper"), ("c", "Rule"), ("d", "Solver")] {
            let i = tokens.iter().position(|tk| tk.text == ident).unwrap();
            let sid = t.scope_of[i] as usize;
            let parent = t.scopes[sid].parent.unwrap() as usize;
            assert_eq!(t.scopes[parent].name, want, "target of scope holding `{ident}`");
        }
    }

    #[test]
    fn cfg_test_marks_whole_subtree() {
        let src = "fn lib() { a }\n#[cfg(test)]\nmod tests {\n  fn helper() { b }\n  #[test]\n  fn t() { c }\n}\nfn after() { d }\n";
        let (tokens, t) = tree(src);
        for ident in ["b", "c"] {
            let i = tokens.iter().position(|tk| tk.text == ident).unwrap();
            assert!(t.in_test[i], "{ident} should be in test region");
        }
        for ident in ["a", "d"] {
            let i = tokens.iter().position(|tk| tk.text == ident).unwrap();
            assert!(!t.in_test[i], "{ident} should be library code");
        }
    }

    #[test]
    fn test_attr_on_use_masks_to_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() { x }\n";
        let (tokens, t) = tree(src);
        let hm = tokens.iter().position(|tk| tk.text == "HashMap").unwrap();
        assert!(t.in_test[hm]);
        let x = tokens.iter().position(|tk| tk.text == "x").unwrap();
        assert!(!t.in_test[x]);
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let src = "fn f(g: fn(f64) -> f64) { inner }";
        let (tokens, t) = tree(src);
        assert_eq!(scope_name_at(&tokens, &t, "inner"), "f");
        // Only root + one fn scope.
        assert_eq!(t.scopes.iter().filter(|s| s.kind == ScopeKind::Fn).count(), 1);
    }

    #[test]
    fn array_type_semicolon_does_not_end_a_fn_header() {
        // `[f64; 3]` puts a `;` inside the signature; the header scan must
        // not mistake it for a body-less declaration.
        let src = "fn f(scales: [f64; 3], out: &mut [f64; 3]) -> f64 { inner }\nfn g() { other }\n";
        let (tokens, t) = tree(src);
        assert_eq!(scope_name_at(&tokens, &t, "inner"), "f");
        assert_eq!(scope_name_at(&tokens, &t, "other"), "g");
        assert_eq!(t.scopes.iter().filter(|s| s.kind == ScopeKind::Fn).count(), 2);
    }

    #[test]
    fn multiline_statement_has_one_span() {
        let src = "fn f(v: Option<u64>) -> u64 {\n  v.map(|x| x + 1)\n    .unwrap()\n}\n";
        let (tokens, t) = tree(src);
        let unwrap = tokens.iter().position(|tk| tk.text == "unwrap").unwrap();
        let (lo, hi) = t.stmt_span(unwrap, 0);
        assert!(lo <= 2 && hi >= 3, "span was ({lo}, {hi})");
    }

    #[test]
    fn semicolons_split_statements() {
        let src = "fn f() {\n  let a = 1;\n  let b = 2;\n}\n";
        let (tokens, t) = tree(src);
        let a = tokens.iter().position(|tk| tk.text == "a").unwrap();
        let b = tokens.iter().position(|tk| tk.text == "b").unwrap();
        assert_ne!(t.stmt_of[a], t.stmt_of[b]);
        assert_eq!(t.stmt_span(a, 0), (2, 2));
        assert_eq!(t.stmt_span(b, 0), (3, 3));
    }

    #[test]
    fn call_arguments_stay_in_one_statement() {
        let src = "fn f() {\n  g(a,\n    b);\n}\n";
        let (tokens, t) = tree(src);
        let a = tokens.iter().position(|tk| tk.text == "a").unwrap();
        let b = tokens.iter().position(|tk| tk.text == "b").unwrap();
        assert_eq!(t.stmt_of[a], t.stmt_of[b]);
        assert_eq!(t.stmt_span(b, 0), (2, 3));
    }

    #[test]
    fn block_statements_split_from_followers() {
        let src = "fn f() {\n  if c { x() }\n  y();\n}\n";
        let (tokens, t) = tree(src);
        let c = tokens.iter().position(|tk| tk.text == "c").unwrap();
        let y = tokens.iter().position(|tk| tk.text == "y").unwrap();
        assert_ne!(t.stmt_of[c], t.stmt_of[y]);
    }

    #[test]
    fn stmt_lines_exclude_nested_block_bodies() {
        // The outer `let` statement owns lines 2 (head) and 5 (closing
        // tokens); lines 3–4 belong to the closure's inner statements.
        let src = "fn f(n: usize) -> Vec<u64> {\n  let xs = run(n, |i| {\n    let y = i as u64;\n    y + 1\n  });\n  xs\n}\n";
        let (tokens, t) = tree(src);
        let xs = tokens.iter().position(|tk| tk.text == "xs").unwrap();
        assert_eq!(t.stmt_lines(xs, 0), vec![2, 5]);
        let y = tokens.iter().position(|tk| tk.text == "y").unwrap();
        assert_eq!(t.stmt_lines(y, 0), vec![3]);
        // The legacy span still covers the whole construct.
        assert_eq!(t.stmt_span(xs, 0), (2, 5));
    }

    #[test]
    fn enclosing_fn_walks_through_blocks() {
        let src = "fn f() { loop { inner } }";
        let (tokens, t) = tree(src);
        let i = tokens.iter().position(|tk| tk.text == "inner").unwrap();
        let fid = t.enclosing_fn(i).unwrap();
        assert_eq!(t.scopes[fid as usize].name, "f");
    }
}
