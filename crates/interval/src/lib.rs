//! Interval arithmetic and δ-complete branch-and-bound verification.
//!
//! The CEGIS baselines the paper compares against (FOSSIL \[1\], NNCChecker
//! \[14\]) verify barrier-certificate conditions with the SMT solver dReal \[7\],
//! which decides polynomial inequalities over boxes *δ-completely*: either the
//! formula is unsatisfiable, or a point is produced where it holds up to a
//! user-chosen slack δ. dReal's core is interval constraint propagation with
//! branch-and-prune — exactly what this crate implements:
//!
//! * [`Interval`] — closed-interval arithmetic, monotone and containment
//!   preserving up to round-to-nearest error (see the rounding caveat below),
//! * [`eval_range`] — interval range bounds of a [`snbc_poly::Polynomial`]
//!   over a box,
//! * [`BranchAndBound`] — the δ-complete decision procedure for
//!   "`p(x) ≥ bound` for all `x` in a box intersected with polynomial
//!   constraints", returning either a proof, a concrete violation witness, or
//!   a δ-weak witness.
//!
//! It serves two roles in the reproduction: it is the *verifier substrate of
//! the baselines* (whose exponential blow-up with dimension Table 1
//! demonstrates), and an *independent soundness cross-check* for the SOS/LMI
//! certificates produced by the main SNBC pipeline.
//!
//! # Split rule and the paper's mesh argument
//!
//! The branch-and-prune split rule — halve the *widest* axis
//! ([`widest_axis`]) — is the box analogue of the paper's §3 mesh argument:
//! a Lipschitz-continuous function `f` deviates from its value at a box
//! midpoint by at most `L·r`, where `r` is half the box diameter, so
//! shrinking the diameter fastest (always splitting the widest axis)
//! tightens the midpoint-centred enclosure fastest. Where §3 fixes a mesh
//! spacing `τ` up front from the Lipschitz constant, branch-and-prune
//! refines adaptively and only where the range bound stays inconclusive —
//! the two meet in the δ threshold, which plays the role of the terminal
//! mesh width.
//!
//! Since this PR, box evaluations run through the deterministic parallel
//! wave engine ([`wave_search`]): verdicts, witnesses, and box counts are
//! bitwise identical at any `SNBC_THREADS` setting. See `docs/PARALLELISM.md`
//! and `docs/PERFORMANCE.md` for the contract and the tuning constants.
//!
//! **Rounding caveat**: arithmetic uses round-to-nearest `f64` without
//! directed (outward) rounding, matching dReal's numerical-δ setting rather
//! than a formally verified interval library. Enclosures are therefore exact
//! up to accumulated ulp-scale error; decisions within a few ulps of a
//! threshold should not be trusted, which is why the workspace always checks
//! inequalities with explicit `ε` slack.
//!
//! # Example
//!
//! ```
//! use snbc_interval::{BranchAndBound, Interval, Verdict};
//! use snbc_poly::Polynomial;
//!
//! let p: Polynomial = "x0^2 + x1^2 - 1".parse().unwrap();
//! let domain = vec![Interval::new(2.0, 3.0), Interval::new(0.0, 1.0)];
//! // On [2,3]×[0,1], x² + y² − 1 ≥ 3 > 0: verified.
//! let bb = BranchAndBound::default();
//! assert!(matches!(bb.check_at_least(&p, &domain, &[], 0.0).verdict, Verdict::Holds));
//! ```

// Solver library code returns typed errors and surfaces every Result: a
// panic or a dropped error here aborts or silently corrupts certificate
// synthesis (docs/AUDIT.md).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::no_effect_underscore_binding
)]

mod bb;
mod bernstein;
mod interval;

pub use bb::{
    wave_search, widest_axis, BoxEval, BranchAndBound, CheckReport, RangeTightening, Verdict,
    WaveOutcome, MIN_PARALLEL_WAVE,
};
pub use bernstein::bernstein_range;
pub use interval::{eval_range, hull, Interval};
