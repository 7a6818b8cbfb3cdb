//! The δ-complete three-condition check shared by the SMT-based baselines
//! (FOSSIL- and NNCChecker-style): dReal's role, factored out so both tools
//! verify identically and only differ in how they produce candidates.

use snbc::cex::ViolatedCondition;
use snbc::{Strictness, Theorem1};
use snbc_dynamics::Ccds;
use snbc_interval::{BranchAndBound, Verdict};
use snbc_poly::Polynomial;
use snbc_trace::Trace;

/// Outcome of one SMT-style verification pass over the three barrier
/// conditions.
pub(crate) enum SmtOutcome {
    /// All three conditions proven.
    Certified,
    /// Concrete violations found (flow witnesses include the error
    /// coordinate, which callers truncate).
    Counterexamples(Vec<(ViolatedCondition, Vec<f64>)>),
    /// Box budget exhausted (the `OT` analogue).
    Timeout,
    /// δ-undecided (dReal's "δ-sat" weak answer) — the tool fails with `×`.
    Undecided,
}

/// Checks conditions (i)–(iii) of Theorem 1 for candidate `b` with multiplier
/// `lambda` over the robust closed loop (`w` at slot `n`, `|w| ≤ sigma`), in
/// order, stopping at the first undecided one.
pub(crate) fn verify_conditions(
    b: &Polynomial,
    lambda: &Polynomial,
    system: &Ccds,
    sigma: f64,
    closed_robust: &[Polynomial],
    bb: &BranchAndBound,
) -> SmtOutcome {
    let theorem = Theorem1::new(system, b, lambda, closed_robust, sigma, Strictness::SEARCH);
    let mut cexs = Vec::new();
    for kind in ViolatedCondition::ALL {
        let r = theorem.condition(kind).check(bb, &Trace::off());
        match r.verdict {
            Verdict::Holds => {}
            Verdict::Violated { witness, .. } => cexs.push((kind, witness)),
            Verdict::Unknown { .. } if r.boxes_processed >= bb.max_boxes => {
                return SmtOutcome::Timeout
            }
            Verdict::Unknown { .. } => return SmtOutcome::Undecided,
        }
    }
    if cexs.is_empty() {
        SmtOutcome::Certified
    } else {
        SmtOutcome::Counterexamples(cexs)
    }
}
