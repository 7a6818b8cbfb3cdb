//! Declarative effect contracts over the linked call graph.
//!
//! Each contract names a set of functions and a set of forbidden
//! [`Effect`]s, and fires on the *boundary*: the call site (or leaf) inside
//! the governed function where the forbidden effect first enters. Findings
//! carry the full call chain down to the leaf, printed as `via` lines.
//!
//! Three contracts:
//!
//! - **`solver-effects`** — the solver stack ([`CONTRACT_CRATES`]) must be
//!   transitively free of env reads, raw thread spawns, and raw clock reads.
//!   Direct uses inside the stack are clippy's (`disallowed-methods` in
//!   clippy.toml); this contract adds the *transitive* half, firing on calls
//!   that leave the stack and reach a forbidden effect elsewhere.
//! - **`hot-alloc`** — `// audit:hot` functions must not allocate per
//!   iteration, directly or through resolved workspace callees. Setup
//!   allocations are justified with `audit:allow(hot-alloc)` on the site.
//!   Unresolved calls are *not* flagged (the effect lattice is a lower
//!   bound).
//! - **`par-callee`** — callables handed to `snbc_par` entry points
//!   (closures or function paths) must be deterministic: no env reads, no
//!   clock reads, no nested raw spawns, no unordered float folds. Unresolved
//!   calls are permitted — forbidding them would outlaw every std method.
//!
//! An env, clock or thread leaf outside its owner crate has no leaf-level
//! marker: the reviewed exception sits on the boundary call, as
//! `audit:allow(solver-effects)` or `audit:allow(par-callee)`.

use crate::callgraph::{CallGraph, ChainStep};
use crate::effects::{Effect, EffectSet};
use crate::rules::{Finding, Frame, Rule};

/// The solver stack governed by the `solver-effects` contract: every crate
/// the verifier side of CEGIS depends on for a certificate's validity.
pub const CONTRACT_CRATES: &[&str] = &[
    "core", "interval", "linalg", "lp", "nn", "poly", "portfolio", "sdp", "sos",
];

/// Effects the solver stack must be transitively free of.
const SOLVER_FORBIDDEN: &[Effect] = &[Effect::ReadsEnv, Effect::SpawnsThread, Effect::ReadsTime];

/// Effects a parallel callee must not carry.
const PAR_FORBIDDEN: &[Effect] = &[
    Effect::ReadsEnv,
    Effect::ReadsTime,
    Effect::SpawnsThread,
    Effect::UnorderedFpFold,
];

/// Run every contract over the linked graph.
pub fn check(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    solver_effects(graph, &mut findings);
    hot_alloc(graph, &mut findings);
    par_callee(graph, &mut findings);
    findings
}

fn to_frames(steps: Vec<ChainStep>) -> Vec<Frame> {
    steps
        .into_iter()
        .map(|s| Frame {
            file: s.file,
            line: s.line,
            note: s.note,
        })
        .collect()
}

/// Chain for a boundary edge: the call site itself, then the callee's
/// deterministic shortest path down to a leaf of `effect`.
fn edge_chain(graph: &CallGraph, from: u32, call_idx: usize, callee: u32, effect: Effect) -> Vec<Frame> {
    let node = &graph.nodes[from as usize];
    let call = &node.decl.calls[call_idx];
    let mut chain = vec![Frame {
        file: node.file.clone(),
        line: call.line,
        note: format!(
            "`{}` calls `{}`",
            node.symbol, graph.nodes[callee as usize].symbol
        ),
    }];
    chain.extend(to_frames(graph.chain_to_leaf(callee, effect)));
    chain
}

fn site_suppressed(graph: &CallGraph, node: u32, rule_id: &str, stmt_lines: &[usize], line: usize) -> bool {
    let file = &graph.nodes[node as usize].file;
    graph
        .suppressions
        .get(file)
        .is_some_and(|s| crate::callgraph::suppressed_at(s, rule_id, stmt_lines, line))
}

fn solver_effects(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if !CONTRACT_CRATES.contains(&node.crate_name.as_str()) {
            continue;
        }
        let id = crate::id32(id);
        for (ci, callees) in &graph.resolved[id as usize] {
            let call = &node.decl.calls[*ci];
            for &effect in SOLVER_FORBIDDEN {
                // Boundary edge: the callee leaves the solver stack and
                // carries the effect. In-stack callees are governed at their
                // own boundary (or leaf rule), so skip them here.
                let Some(&bad) = callees.iter().find(|&&c| {
                    !CONTRACT_CRATES.contains(&graph.nodes[c as usize].crate_name.as_str())
                        && graph.effects[c as usize].contains(effect)
                }) else {
                    continue;
                };
                if site_suppressed(graph, id, Rule::SolverEffects.id(), &call.stmt_lines, call.line) {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::SolverEffects,
                    file: node.file.clone(),
                    line: call.line,
                    message: format!(
                        "solver-stack function `{}` reaches `{}` through `{}`; the \
                         verifier stack must stay transitively deterministic",
                        node.symbol,
                        effect.name(),
                        graph.nodes[bad as usize].symbol
                    ),
                    chain: edge_chain(graph, id, *ci, bad, effect),
                });
            }
        }
    }
}

fn hot_alloc(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if !node.decl.hot {
            continue;
        }
        let id = crate::id32(id);
        // Direct allocation leaves. Justified sites were already dropped at
        // harvest (`audit:allow(hot-alloc)` masks the leaf).
        for leaf in &node.decl.leaves {
            if leaf.effect != Effect::Allocates {
                continue;
            }
            findings.push(Finding {
                rule: Rule::HotAlloc,
                file: node.file.clone(),
                line: leaf.line,
                message: format!(
                    "allocation (`{}`) in hot function `{}`; hoist it out of the \
                     loop or justify with `audit:allow(hot-alloc)`",
                    leaf.what, node.symbol
                ),
                chain: vec![Frame {
                    file: node.file.clone(),
                    line: leaf.line,
                    note: format!("{} in `{}`", leaf.what, node.symbol),
                }],
            });
        }
        // Transitive allocations through resolved callees, anchored at the
        // outgoing call site so the justification lives in the hot fn.
        for (ci, callees) in &graph.resolved[id as usize] {
            let call = &node.decl.calls[*ci];
            let Some(&bad) = callees
                .iter()
                .find(|&&c| graph.effects[c as usize].contains(Effect::Allocates))
            else {
                continue;
            };
            if site_suppressed(graph, id, Rule::HotAlloc.id(), &call.stmt_lines, call.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::HotAlloc,
                file: node.file.clone(),
                line: call.line,
                message: format!(
                    "hot function `{}` calls `{}`, which allocates; hoist the \
                     allocation or justify with `audit:allow(hot-alloc)`",
                    node.symbol,
                    graph.nodes[bad as usize].symbol
                ),
                chain: edge_chain(graph, id, *ci, bad, Effect::Allocates),
            });
        }
    }
}

fn par_callee(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for (id, node) in graph.nodes.iter().enumerate() {
        let id = crate::id32(id);
        for call in &node.decl.calls {
            if call.callable_args.is_empty() {
                continue;
            }
            if site_suppressed(graph, id, Rule::ParCallee.id(), &call.stmt_lines, call.line) {
                continue;
            }
            // Per (site, effect) dedup: one finding per forbidden effect a
            // callable carries, however many paths reach it.
            let mut reported = EffectSet::EMPTY;
            for arg in &call.callable_args {
                if let Some(name) = &arg.fn_name {
                    for cand in graph.resolve_by_name(id, name) {
                        for &effect in PAR_FORBIDDEN {
                            if reported.contains(effect)
                                || !graph.effects[cand as usize].contains(effect)
                            {
                                continue;
                            }
                            reported.insert(effect);
                            let mut chain = vec![Frame {
                                file: node.file.clone(),
                                line: call.line,
                                note: format!(
                                    "`{}` passes `{}` to `{}`",
                                    node.symbol,
                                    graph.nodes[cand as usize].symbol,
                                    call.name
                                ),
                            }];
                            chain.extend(to_frames(graph.chain_to_leaf(cand, effect)));
                            findings.push(par_finding(node, call.line, &call.name, effect, chain));
                        }
                    }
                    continue;
                }
                let (lo, hi) = arg.range;
                // Leaves of the enclosing fn inside the closure's tokens.
                for leaf in &node.decl.leaves {
                    if leaf.tok < lo || leaf.tok >= hi {
                        continue;
                    }
                    if PAR_FORBIDDEN.contains(&leaf.effect) && !reported.contains(leaf.effect) {
                        reported.insert(leaf.effect);
                        let chain = vec![Frame {
                            file: node.file.clone(),
                            line: leaf.line,
                            note: format!("{} in a callable passed to `{}`", leaf.what, call.name),
                        }];
                        findings.push(par_finding(node, call.line, &call.name, leaf.effect, chain));
                    }
                }
                // Resolved calls made from inside the closure.
                for (cj, callees) in &graph.resolved[id as usize] {
                    let inner = &node.decl.calls[*cj];
                    if inner.tok < lo || inner.tok >= hi {
                        continue;
                    }
                    for &effect in PAR_FORBIDDEN {
                        if reported.contains(effect) {
                            continue;
                        }
                        let Some(&bad) = callees
                            .iter()
                            .find(|&&c| graph.effects[c as usize].contains(effect))
                        else {
                            continue;
                        };
                        reported.insert(effect);
                        findings.push(par_finding(
                            node,
                            call.line,
                            &call.name,
                            effect,
                            edge_chain(graph, id, *cj, bad, effect),
                        ));
                    }
                }
            }
        }
    }
}

fn par_finding(
    node: &crate::callgraph::FnNode,
    line: usize,
    par_fn: &str,
    effect: Effect,
    chain: Vec<Frame>,
) -> Finding {
    Finding {
        rule: Rule::ParCallee,
        file: node.file.clone(),
        line,
        message: format!(
            "callable passed to `{}` in `{}` carries `{}`; parallel callees \
             must be deterministic and fold-order-safe",
            par_fn,
            node.symbol,
            effect.name()
        ),
        chain,
    }
}
