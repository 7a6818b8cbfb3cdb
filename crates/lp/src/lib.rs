//! Linear programming for the SNBC reproduction.
//!
//! The controller-abstraction step of the paper (§3) reduces the Chebyshev
//! approximation problem (4) to the linear program (5): few variables (the
//! polynomial coefficients `h` and the bound `t`) but *many* constraints (two
//! per mesh point). This crate provides:
//!
//! * [`solve_standard`] — a Mehrotra predictor–corrector interior-point solver
//!   for standard-form LPs `min cᵀx  s.t.  Ax = b, x ≥ 0`, using dense normal
//!   equations (size = number of rows), and
//! * [`solve_inequality`] — a front-end for `min cᵀz  s.t.  Gz ≤ g` with free
//!   `z`, solved through its standard-form dual so the linear algebra stays
//!   at the (small) variable dimension regardless of the mesh size, and
//! * [`simplex`] — a dense two-phase simplex used as an independent
//!   cross-check in tests.
//!
//! # Telemetry
//!
//! When [`LpOptions::telemetry`] holds a recording sink (see
//! [`snbc_telemetry`]), each interior-point solve emits an `"lp"` span with
//! the iteration count, the final duality measure `μ = xᵀs / n`, the
//! objective value, and an `optimal` flag — recorded once per solve, never
//! inside the iteration loop.
//!
//! # Example
//!
//! ```
//! use snbc_lp::{solve_inequality, LpOptions};
//! use snbc_linalg::Matrix;
//!
//! // min t  s.t.  z − t ≤ 1, −z − t ≤ −1  (best uniform approx of the point 1).
//! let g = Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, -1.0]]);
//! let sol = solve_inequality(&[0.0, 1.0], &g, &[1.0, -1.0], &LpOptions::default())?;
//! assert!(sol.z[1].abs() < 1e-6); // optimal t = 0
//! # Ok::<(), snbc_lp::LpError>(())
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

mod error;
mod ipm;
pub mod simplex;

pub use error::LpError;
pub use ipm::{
    solve_inequality, solve_standard, InequalitySolution, LpOptions, LpSolution, LpStatus,
};
