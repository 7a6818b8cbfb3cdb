//! Allocation leaves: the one effect the call graph propagates.
//!
//! A *leaf* is a token that allocates on the heap by itself: `vec!` /
//! `format!`, a collection, `String` or `Box` constructor, or an allocating
//! method tail (`.to_vec()`, `.collect()`, …). [`crate::callgraph`] makes a
//! function allocate *transitively* when it reaches a leaf through resolved
//! workspace calls.
//!
//! Constructor paths are alias-resolved through the
//! [`crate::scopes::ScopeTable`], so `use std::collections::BTreeMap as Map;
//! Map::new()` is a leaf even though the token `BTreeMap` never appears at
//! the call site, and a token inside a `use` declaration (never followed by
//! `(`) is not a leaf at all.

use crate::scopes::{path_is, ScopeTable};
use crate::syntax::ItemTree;
use crate::tokenizer::{Token, TokenKind};

/// One leaf site: a token that allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    /// Anchor token index.
    pub tok: usize,
    pub line: usize,
    /// Short description for messages/chains, e.g. "`vec!` allocation".
    pub what: String,
}

const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Method tails that allocate their result. `.clone()` and `.push()` are
/// deliberately absent: cloning a Copy scalar or pushing into a pre-reserved
/// buffer is the *fix* for hot-loop allocation, and flagging them would bury
/// the real constructors.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "concat", "repeat"];

/// Allocation constructors matched as (possibly alias-resolved) paths.
const ALLOC_PATHS: &[&str] = &[
    "std::vec::Vec::new",
    "std::vec::Vec::with_capacity",
    "std::string::String::new",
    "std::string::String::from",
    "std::string::String::with_capacity",
    "std::boxed::Box::new",
    "std::collections::BTreeMap::new",
    "std::collections::BTreeSet::new",
    "std::collections::HashMap::new",
    "std::collections::HashMap::with_capacity",
    "std::collections::HashSet::new",
    "std::collections::VecDeque::new",
    "std::collections::VecDeque::with_capacity",
    "std::collections::BinaryHeap::new",
];

/// Scan a file for allocation leaves. Test code is skipped structurally. The
/// result is in token order.
pub fn allocation_leaves(tokens: &[Token], tree: &ItemTree, scopes: &ScopeTable) -> Vec<Leaf> {
    let mut out = Vec::new();
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tree.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let name = tok.text.as_str();
        let what = if text(i + 1) == "!" {
            // Macro invocations: `name!(...)`.
            ALLOC_MACROS
                .contains(&name)
                .then(|| format!("`{name}!` allocation"))
        } else if i > 0 && text(i - 1) == "." {
            // Method calls: `.name(...)`.
            (is_called(tokens, i) && ALLOC_METHODS.contains(&name))
                .then(|| format!("`.{name}()` allocation"))
        } else if is_called(tokens, i) {
            // Path-shaped calls: `path_is` requires ≥2 written segments for
            // unresolved paths, so a local `fn new()` does not match, while a
            // renamed import (`use std::vec::Vec as V; V::new()`) resolves
            // and does.
            ALLOC_PATHS
                .iter()
                .find(|p| path_is(scopes, tokens, tree, i, p, 2))
                .map(|p| {
                    let short: Vec<&str> = p.rsplit("::").take(2).collect();
                    format!("`{}::{}` allocation", short[1], short[0])
                })
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Leaf { tok: i, line: tok.line, what });
        }
    }
    out
}

/// True when the identifier at `i` is syntactically invoked: followed by `(`,
/// or by a `::<...>` turbofish then `(`.
pub fn is_called(tokens: &[Token], i: usize) -> bool {
    let text = |j: usize| tokens.get(j).map_or("", |t: &Token| t.text.as_str());
    if text(i + 1) == "(" {
        return true;
    }
    if text(i + 1) == "::" && text(i + 2) == "<" {
        let mut j = i + 3;
        let mut angle = 1i32;
        while j < tokens.len() && angle > 0 {
            match text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                ";" | "{" => return false,
                _ => {}
            }
            j += 1;
        }
        return text(j) == "(";
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::ItemTree;
    use crate::tokenizer::tokenize;

    fn leaves(src: &str) -> Vec<(usize, String)> {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let scopes = ScopeTable::build(&lexed.tokens, &tree);
        allocation_leaves(&lexed.tokens, &tree, &scopes)
            .into_iter()
            .map(|l| (l.line, l.what))
            .collect()
    }

    fn lines(src: &str) -> Vec<usize> {
        leaves(src).into_iter().map(|(line, _)| line).collect()
    }

    #[test]
    fn recognizes_allocating_macros_and_methods() {
        let src = "fn f(v: Option<u8>) -> u8 {\n\
                       let s = vec![1u8];\n\
                       println!(\"x\");\n\
                       s.to_vec();\n\
                       v.unwrap()\n\
                   }\n";
        assert_eq!(lines(src), vec![2, 4], "{:?}", leaves(src));
    }

    #[test]
    fn recognizes_path_leaves_through_aliases() {
        let src = "use std::collections::{self as c, BTreeMap as Map};\n\
                   use std::vec::Vec as V;\n\
                   use mybox::Box;\n\
                   fn f() {\n\
                       let m = Map::new();\n\
                       let s = c::BTreeSet::new();\n\
                       let v = V::with_capacity(3);\n\
                       let b = Box::new(1);\n\
                       let t = std::string::String::new();\n\
                   }\n";
        // `Box` resolves to a different crate's type, so line 8 is no leaf.
        assert_eq!(lines(src), vec![5, 6, 7, 9], "{:?}", leaves(src));
    }

    #[test]
    fn use_declarations_and_locals_are_not_leaves() {
        // Tokens inside a `use` declaration are never "called"; local fns
        // named like std constructors need ≥2 path segments to match.
        let src = "use std::{collections, vec::Vec};\n\
                   fn with_capacity(x: u8) {}\n\
                   fn f() { with_capacity(3); }\n";
        assert!(leaves(src).is_empty(), "{:?}", leaves(src));
    }

    #[test]
    fn turbofish_collect_is_an_allocation() {
        let src = "fn f(xs: &[u64]) -> Vec<u64> {\n\
                       xs.iter().copied().collect::<Vec<u64>>()\n\
                   }\n";
        assert_eq!(leaves(src).len(), 1, "{:?}", leaves(src));
    }

    #[test]
    fn test_code_has_no_leaves() {
        let src = "#[cfg(test)]\nmod t { fn f() { let v = vec![1]; } }\n";
        assert!(leaves(src).is_empty());
    }
}
