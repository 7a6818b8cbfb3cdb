//! The effect lattice and per-function **leaf** effect inference.
//!
//! An [`Effect`] is an observable capability a function exercises directly
//! (a *leaf*) or reaches through a call (*transitive*, computed by
//! [`crate::callgraph`]). The lattice is a flat powerset: a function's effect
//! set is the union of its leaves and its callees' sets, so propagation is a
//! monotone fixpoint and SCC condensation makes it a single reverse-
//! topological pass. The lattice holds exactly what the contracts of
//! [`crate::contracts`] forbid somewhere: hidden inputs (env, clock), raw
//! threads, allocation, and unordered float folds.
//!
//! Leaves are recognized from token shapes, alias-resolved through the
//! [`crate::scopes::ScopeTable`] — so `use std::thread::spawn as sp; sp(..)`
//! is a `spawns-thread` leaf even though the token `spawn` never appears at
//! the call site, and a token inside a `use` declaration (never followed by
//! `(`) is not a leaf at all.
//!
//! **Ownership masking**: a leaf inside the crate that *owns* the effect
//! (e.g. the `SNBC_THREADS` read inside `crates/par`) is sanctioned wrapper
//! behavior and produces no leaf, so it never propagates to callers. The
//! owner lists ([`crate::THREAD_OWNER_CRATES`] and friends) match the crates
//! that take the corresponding clippy `disallowed-methods` entries as
//! reviewed `#[expect]`s.

use crate::scopes::{path_is, ScopeTable};
use crate::syntax::ItemTree;
use crate::tokenizer::{Token, TokenKind};
use std::fmt;

/// One observable capability. Order is the canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// `std::thread::spawn` (alias-aware).
    SpawnsThread,
    /// `Instant::now` / `SystemTime::now`.
    ReadsTime,
    /// `std::env::var{,_os}` / `vars{,_os}`.
    ReadsEnv,
    /// Heap allocation: `vec!`/`format!`, collection constructors,
    /// `.to_vec()`/`.collect()`/`.to_string()`/… tails.
    Allocates,
    /// A float reduction whose evaluation order is not canonical
    /// (`unordered-reduce` sites, fed in by the rule layer).
    UnorderedFpFold,
}

impl Effect {
    pub fn name(self) -> &'static str {
        match self {
            Effect::SpawnsThread => "spawns-thread",
            Effect::ReadsTime => "reads-time",
            Effect::ReadsEnv => "reads-env",
            Effect::Allocates => "allocates",
            Effect::UnorderedFpFold => "unordered-fp-fold",
        }
    }

    fn bit(self) -> u8 {
        1u8 << (self as u8)
    }

    /// Crates whose direct use of this effect is sanctioned wrapper behavior
    /// (the effect is their job); leaves there are masked before propagation.
    pub fn owner_crates(self) -> &'static [&'static str] {
        match self {
            Effect::SpawnsThread => crate::THREAD_OWNER_CRATES,
            Effect::ReadsTime => crate::INSTANT_OWNER_CRATES,
            Effect::ReadsEnv => crate::ENV_OWNER_CRATES,
            Effect::UnorderedFpFold => crate::FOLD_OWNER_CRATES,
            _ => &[],
        }
    }

    /// The rule id whose `audit:allow(...)` marker masks a leaf of this
    /// effect (a justified leaf must not propagate either). Env, clock and
    /// thread leaves have none: outside their owner crates they are reviewed
    /// at the contract boundary (`audit:allow(solver-effects)` or
    /// `audit:allow(par-callee)`).
    pub fn allow_rule_id(self) -> Option<&'static str> {
        match self {
            Effect::Allocates => Some("hot-alloc"),
            Effect::UnorderedFpFold => Some("unordered-reduce"),
            _ => None,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of effects, as a bitmask over the [`Effect`] discriminants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(u8);

impl EffectSet {
    pub const EMPTY: EffectSet = EffectSet(0);

    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    pub fn union_with(&mut self, other: EffectSet) {
        self.0 |= other.0;
    }
}

/// One leaf site: a token exercising an effect directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    pub effect: Effect,
    /// Anchor token index.
    pub tok: usize,
    pub line: usize,
    /// Short description for messages/chains, e.g. "`std::thread::spawn`".
    pub what: String,
}

const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

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

const TIME_PATHS: &[&str] = &["std::time::Instant::now", "std::time::SystemTime::now"];

/// Scan a file for effect leaves. Test code is skipped structurally. The
/// result is in token order; callers slice it per function via `tok`.
pub fn leaf_effects(tokens: &[Token], tree: &ItemTree, scopes: &ScopeTable) -> Vec<Leaf> {
    let mut out = Vec::new();
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tree.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let name = tok.text.as_str();
        let push = |out: &mut Vec<Leaf>, effect: Effect, what: String| {
            out.push(Leaf { effect, tok: i, line: tok.line, what });
        };

        // Macro invocations: `name!(...)`.
        if text(i + 1) == "!" {
            if ALLOC_MACROS.contains(&name) {
                push(&mut out, Effect::Allocates, format!("`{name}!` allocation"));
            }
            continue;
        }

        // Method calls: `.name(...)`.
        if i > 0 && text(i - 1) == "." && is_called(tokens, i) {
            if ALLOC_METHODS.contains(&name) {
                push(&mut out, Effect::Allocates, format!("`.{name}()` allocation"));
            }
            continue;
        }

        // Path-shaped calls: `name(...)` where the (alias-resolved) path
        // denotes a known std entry point. `path_is` rejects method receivers
        // and requires ≥2 written segments for unresolved paths, so a local
        // `fn var()` or `fn spawn()` does not match — while a renamed import
        // (`use std::thread::spawn as sp`) resolves and does.
        if !is_called(tokens, i) || (i > 0 && text(i - 1) == ".") {
            continue;
        }
        if path_is(scopes, tokens, tree, i, "std::thread::spawn", 2) {
            push(&mut out, Effect::SpawnsThread, "`std::thread::spawn`".to_string());
            continue;
        }
        if TIME_PATHS.iter().any(|p| path_is(scopes, tokens, tree, i, p, 2)) {
            push(&mut out, Effect::ReadsTime, "`Instant::now`".to_string());
            continue;
        }
        if ENV_READS.contains(&name)
            && path_is(scopes, tokens, tree, i, &format!("std::env::{name}"), 2)
        {
            push(&mut out, Effect::ReadsEnv, format!("`std::env::{name}`"));
            continue;
        }
        if let Some(p) = ALLOC_PATHS
            .iter()
            .find(|p| path_is(scopes, tokens, tree, i, p, 2))
        {
            let short = p.rsplit("::").take(2).collect::<Vec<_>>();
            push(
                &mut out,
                Effect::Allocates,
                format!("`{}::{}` allocation", short[1], short[0]),
            );
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

    fn leaves(src: &str) -> Vec<(Effect, usize, String)> {
        let lexed = tokenize(src);
        let tree = ItemTree::build(&lexed.tokens);
        let scopes = ScopeTable::build(&lexed.tokens, &tree);
        leaf_effects(&lexed.tokens, &tree, &scopes)
            .into_iter()
            .map(|l| (l.effect, l.line, l.what))
            .collect()
    }

    #[test]
    fn effect_set_bit_ops() {
        let mut s = EffectSet::EMPTY;
        assert!(!s.contains(Effect::ReadsEnv));
        s.insert(Effect::ReadsEnv);
        let mut t = EffectSet::EMPTY;
        t.insert(Effect::Allocates);
        t.union_with(s);
        assert!(t.contains(Effect::ReadsEnv) && t.contains(Effect::Allocates));
        assert!(!t.contains(Effect::ReadsTime));
    }

    #[test]
    fn recognizes_allocating_macros_and_methods() {
        let src = "fn f(v: Option<u8>) -> u8 {\n\
                       let s = vec![1u8];\n\
                       println!(\"x\");\n\
                       s.to_vec();\n\
                       v.unwrap()\n\
                   }\n";
        let got = leaves(src);
        let effects: Vec<(Effect, usize)> = got.iter().map(|(e, l, _)| (*e, *l)).collect();
        assert_eq!(
            effects,
            vec![(Effect::Allocates, 2), (Effect::Allocates, 4)],
            "{got:?}"
        );
    }

    #[test]
    fn recognizes_path_leaves_through_aliases() {
        let src = "use std::{env as e, thread::spawn as sp};\n\
                   use std::time::Instant as Clock;\n\
                   fn f() {\n\
                       sp(|| {});\n\
                       let t = Clock::now();\n\
                       let v = e::var(\"X\");\n\
                       let m = std::collections::BTreeMap::new();\n\
                   }\n";
        let got = leaves(src);
        let effects: Vec<(Effect, usize)> = got.iter().map(|(e, l, _)| (*e, *l)).collect();
        assert_eq!(
            effects,
            vec![
                (Effect::SpawnsThread, 4),
                (Effect::ReadsTime, 5),
                (Effect::ReadsEnv, 6),
                (Effect::Allocates, 7),
            ],
            "{got:?}"
        );
    }

    #[test]
    fn use_declarations_and_locals_are_not_leaves() {
        // Tokens inside a `use` declaration are never "called"; local fns
        // named like std entry points need ≥2 path segments to match.
        let src = "use std::{env, thread};\n\
                   fn var(x: u8) {}\n\
                   fn f() { var(3); }\n";
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
