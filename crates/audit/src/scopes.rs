//! Per-scope symbol tables for `use`-aliases, and path resolution.
//!
//! Rules must see through renames: `use std::collections::BTreeMap as Map;`
//! followed by `Map::new()` is still an allocating constructor, and a call
//! through `use snbc_linalg as la; la::zeros(n)` still links to
//! `snbc_linalg::zeros`.
//! This module walks the [`crate::syntax::ItemTree`], collects every `use`
//! declaration into the scope that contains it (file root, `mod`, or a `fn`
//! body — Rust allows `use` inside functions), and resolves identifier paths
//! at rule sites by rewriting the leftmost segment through the innermost
//! alias in scope.
//!
//! Resolution is deliberately conservative: a path whose head has **no**
//! alias entry is returned as written, and rules fall back to suffix
//! matching (so fixture code without imports, or fully-qualified
//! `std::vec::Vec::new()`, still matches), while an alias that resolves
//! to a *different* crate's type suppresses the match.

use crate::syntax::ItemTree;
use crate::tokenizer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Alias maps, one per scope id (parallel to `ItemTree::scopes`).
#[derive(Debug)]
pub struct ScopeTable {
    maps: Vec<BTreeMap<String, String>>,
}

/// Outcome of resolving the path that ends at some identifier token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPath {
    /// Canonical path (`std::collections::HashMap`) when the head segment hit
    /// an alias; otherwise the path exactly as written.
    pub path: String,
    /// True when an alias rewrite happened (the path is authoritative).
    pub resolved: bool,
    /// Number of `::`-separated segments as written at the site.
    pub segments: usize,
}

impl ScopeTable {
    pub fn build(tokens: &[Token], tree: &ItemTree) -> ScopeTable {
        let mut maps: Vec<BTreeMap<String, String>> =
            (0..tree.scopes.len()).map(|_| BTreeMap::new()).collect();
        let mut i = 0usize;
        while i < tokens.len() {
            if tokens[i].text == "use" && tokens[i].kind == TokenKind::Ident {
                // Collect the declaration up to its `;`.
                let mut j = i + 1;
                while j < tokens.len() && tokens[j].text != ";" {
                    j += 1;
                }
                let scope = tree.scope_of[i] as usize;
                let mut cur = i + 1;
                parse_use_tree(tokens, &mut cur, j, "", &mut maps[scope]);
                i = j + 1;
            } else {
                i += 1;
            }
        }
        ScopeTable { maps }
    }

    /// Look up an alias, walking from `scope` outward to the file root.
    pub fn lookup(&self, tree: &ItemTree, scope: u32, name: &str) -> Option<&str> {
        let mut sid = scope;
        loop {
            if let Some(path) = self.maps[sid as usize].get(name) {
                return Some(path);
            }
            sid = tree.scopes[sid as usize].parent?;
        }
    }

    /// Resolve the `::`-path ending at identifier token `i` (e.g. for the
    /// `now` in `time::Instant::now`, walks back over `time::Instant` and
    /// rewrites `time` through the alias table).
    pub fn resolve_at(&self, tokens: &[Token], tree: &ItemTree, i: usize) -> ResolvedPath {
        let mut segs: Vec<&str> = vec![tokens[i].text.as_str()];
        let mut j = i;
        while j >= 2
            && tokens[j - 1].text == "::"
            && tokens[j - 2].kind == TokenKind::Ident
        {
            segs.insert(0, tokens[j - 2].text.as_str());
            j -= 2;
        }
        let segments = segs.len();
        let head = segs[0];
        let as_written = segs.join("::");
        // `std`/`core`/`crate`-rooted paths are already canonical-ish.
        if matches!(head, "std" | "core" | "alloc" | "crate" | "self" | "super") {
            return ResolvedPath { path: as_written, resolved: head == "std", segments };
        }
        let scope = tree.scope_of.get(i).copied().unwrap_or(0);
        match self.lookup(tree, scope, head) {
            Some(prefix) => {
                let mut path = prefix.to_string();
                for seg in &segs[1..] {
                    path.push_str("::");
                    path.push_str(seg);
                }
                ResolvedPath { path, resolved: true, segments }
            }
            None => ResolvedPath { path: as_written, resolved: false, segments },
        }
    }
}

/// True when the path ending at token `i` denotes `canonical` (a full
/// `std::...` path). An alias-resolved path must match exactly; an unresolved
/// path matches when it is a segment-aligned suffix of the canonical path
/// (`Instant::now`, `time::Instant::now`). `min_segments` guards bare-ident
/// sites: method calls like `.now()` or locals named `var` resolve to a
/// single unqualified segment and must not match path-shaped targets.
pub fn path_is(
    table: &ScopeTable,
    tokens: &[Token],
    tree: &ItemTree,
    i: usize,
    canonical: &str,
    min_segments: usize,
) -> bool {
    // A field access / method call is not a path.
    if i > 0 && tokens[i - 1].text == "." {
        return false;
    }
    let r = table.resolve_at(tokens, tree, i);
    if r.resolved {
        return r.path == canonical;
    }
    if r.segments < min_segments {
        return false;
    }
    canonical == r.path || canonical.ends_with(&format!("::{}", r.path))
}

/// Parse one `use`-tree element starting at `*cur`, recording
/// `(alias → canonical path)` pairs. Handles `a::b`, `a::b as c`,
/// `a::{b, c as d, self}`, and ignores globs (`a::*`).
fn parse_use_tree(
    tokens: &[Token],
    cur: &mut usize,
    end: usize,
    prefix: &str,
    out: &mut BTreeMap<String, String>,
) {
    let mut segs: Vec<String> = Vec::new();
    let full = |segs: &[String]| -> String {
        let mut p = prefix.to_string();
        for s in segs {
            if !p.is_empty() {
                p.push_str("::");
            }
            p.push_str(s);
        }
        p
    };
    while *cur < end {
        let text = tokens[*cur].text.as_str();
        match text {
            "::" => *cur += 1,
            "{" => {
                *cur += 1;
                let group_prefix = full(&segs);
                loop {
                    if *cur >= end || tokens[*cur].text == "}" {
                        *cur += 1;
                        break;
                    }
                    parse_use_tree(tokens, cur, end, &group_prefix, out);
                    if *cur < end && tokens[*cur].text == "," {
                        *cur += 1;
                    }
                }
                return;
            }
            "}" | "," => return,
            "*" => {
                // Glob imports cannot be resolved without knowing the target
                // module's contents; skip.
                *cur += 1;
                return;
            }
            "as" => {
                *cur += 1;
                if *cur < end && tokens[*cur].kind == TokenKind::Ident {
                    out.insert(tokens[*cur].text.clone(), full(&segs));
                    *cur += 1;
                }
                return;
            }
            "self" => {
                // `use a::b::{self, c}` binds `b`.
                if let Some(last) = segs.last().cloned().or_else(|| {
                    prefix.rsplit("::").next().map(str::to_string)
                }) {
                    if !last.is_empty() {
                        out.insert(last, full(&segs));
                    }
                }
                *cur += 1;
                // An `as` rename may still follow (`self as x`); loop handles.
                if *cur < end && tokens[*cur].text == "as" {
                    continue;
                }
                return;
            }
            _ if tokens[*cur].kind == TokenKind::Ident => {
                segs.push(text.to_string());
                *cur += 1;
                // End of a simple path?
                if *cur >= end
                    || matches!(tokens[*cur].text.as_str(), "," | "}")
                {
                    if let Some(last) = segs.last() {
                        out.insert(last.clone(), full(&segs));
                    }
                    return;
                }
            }
            _ => {
                *cur += 1;
            }
        }
    }
    if let Some(last) = segs.last() {
        out.insert(last.clone(), full(&segs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn table(src: &str) -> (Vec<Token>, ItemTree, ScopeTable) {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let table = ScopeTable::build(&lexed.tokens, &tree);
        (lexed.tokens, tree, table)
    }

    fn resolve_ident(src: &str, ident: &str) -> ResolvedPath {
        let (tokens, tree, table) = table(src);
        let i = tokens
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.text == ident)
            .unwrap()
            .0;
        table.resolve_at(&tokens, &tree, i)
    }

    #[test]
    fn plain_import() {
        let r = resolve_ident(
            "use std::collections::HashMap;\nfn f() { let m = HashMap::new(); }",
            "HashMap",
        );
        // The *last* HashMap occurrence is the use site... `HashMap::new`
        // resolves at `new`; resolving the HashMap ident itself:
        assert!(r.resolved);
        assert_eq!(r.path, "std::collections::HashMap");
    }

    #[test]
    fn renamed_import() {
        let r = resolve_ident(
            "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); }",
            "Map",
        );
        assert!(r.resolved);
        assert_eq!(r.path, "std::collections::HashMap");
    }

    #[test]
    fn grouped_and_nested_imports() {
        let src = "use std::collections::{HashMap, btree_map::{BTreeMap as B}};\nfn f() { HashMap::new(); B::new(); }";
        let r = resolve_ident(src, "HashMap");
        assert_eq!(r.path, "std::collections::HashMap");
        let rb = resolve_ident(src, "B");
        assert_eq!(rb.path, "std::collections::btree_map::BTreeMap");
    }

    #[test]
    fn self_in_group_binds_parent() {
        let r = resolve_ident(
            "use std::collections::{self, HashMap};\nfn f() { collections::HashMap::new(); }",
            "collections",
        );
        assert!(r.resolved);
        assert_eq!(r.path, "std::collections");
    }

    #[test]
    fn fn_local_use_scopes_to_the_fn() {
        let src = "fn a() { use std::collections::HashMap; HashMap::new(); }\nfn b() { HashMap::new(); }";
        let (tokens, tree, table) = table(src);
        // HashMap in `b` has no alias in scope.
        let last = tokens
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.text == "HashMap")
            .unwrap()
            .0;
        let r = table.resolve_at(&tokens, &tree, last);
        assert!(!r.resolved);
        // HashMap use-site in `a` resolves.
        let in_a = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "HashMap")
            .nth(1)
            .unwrap()
            .0;
        let ra = table.resolve_at(&tokens, &tree, in_a);
        assert!(ra.resolved);
    }

    #[test]
    fn multi_segment_path_resolves_through_module_alias() {
        let r = resolve_ident(
            "use std::time;\nfn f() { let t = time::Instant::now(); }",
            "now",
        );
        assert!(r.resolved);
        assert_eq!(r.path, "std::time::Instant::now");
        assert_eq!(r.segments, 3);
    }

    #[test]
    fn path_is_matches_qualified_and_aliased_forms() {
        let check = |src: &str, ident: &str, want: bool| {
            let (tokens, tree, table) = table(src);
            let i = tokens
                .iter()
                .enumerate()
                .rev()
                .find(|(_, t)| t.text == ident)
                .unwrap()
                .0;
            assert_eq!(
                path_is(&table, &tokens, &tree, i, "std::time::Instant::now", 2),
                want,
                "src: {src}"
            );
        };
        check("fn f() { std::time::Instant::now(); }", "now", true);
        check("fn f() { Instant::now(); }", "now", true); // suffix fallback
        check(
            "use std::time::Instant as Clock;\nfn f() { Clock::now(); }",
            "now",
            true,
        );
        check(
            "use myclock::Instant;\nfn f() { Instant::now(); }",
            "now",
            false, // alias says it is NOT std's Instant
        );
        check("fn f(x: T) { x.now(); }", "now", false); // method call
        check("fn f() { now(); }", "now", false); // bare ident, min 2 segs
    }
}
