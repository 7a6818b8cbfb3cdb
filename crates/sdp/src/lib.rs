//! Semidefinite programming for the SNBC reproduction.
//!
//! The paper's verifier (§4.2) checks the three barrier-certificate conditions
//! by testing feasibility of the LMI problems (13)–(15). Each reduces to a
//! standard-form SDP over block-diagonal positive-semidefinite variables:
//!
//! ```text
//!     min  Σⱼ ⟨Cⱼ, Xⱼ⟩
//!     s.t. Σⱼ ⟨A_{kj}, Xⱼ⟩ = b_k,   k = 1..m,
//!          Xⱼ ⪰ 0,
//! ```
//!
//! where the blocks are Gram matrices of SOS multipliers (dense PSD blocks)
//! and split free/slack scalars (diagonal blocks).
//!
//! The paper relies on an off-the-shelf conic solver for this step; since no
//! mature pure-Rust SDP solver exists, this crate ports the standard
//! **infeasible primal–dual interior-point method** with the HKM search
//! direction and Mehrotra predictor–corrector — the same algorithm family as
//! SDPA/SDPT3/SeDuMi — on top of [`snbc_linalg`].
//!
//! # Telemetry
//!
//! When [`SdpSolver::telemetry`] holds a recording sink (see
//! [`snbc_telemetry`]), each `solve` emits an `"sdp"` span carrying the IPM
//! iteration count, the final duality measure `μ`, primal/dual residuals,
//! the number of Cholesky factorizations performed, and an `optimal` flag.
//! Metrics are aggregated in plain locals during the solve and recorded once
//! at the end, so the inner loop allocates nothing extra; with the default
//! no-op sink the instrumentation reduces to a null check.
//!
//! # Example
//!
//! ```
//! use snbc_sdp::{BlockShape, SdpProblem, SdpSolver};
//!
//! // min X₀₀ + X₁₁  s.t.  X₀₁ = 1, X ⪰ 0  (optimum 2 at X = [[1,1],[1,1]]).
//! let mut p = SdpProblem::new(vec![BlockShape::Dense(2)]);
//! p.set_cost(0, 0, 0, 1.0);
//! p.set_cost(0, 1, 1, 1.0);
//! let k = p.add_constraint(1.0);
//! p.set_coefficient(k, 0, 0, 1, 0.5); // mirrored entry: ⟨A, X⟩ = X₀₁
//! let sol = SdpSolver::default().solve(&p)?;
//! assert!((sol.primal_objective - 2.0).abs() < 1e-5);
//! # Ok::<(), snbc_sdp::SdpError>(())
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

mod block;
mod error;
mod problem;
mod solver;

pub use block::{Block, BlockMatrix, BlockShape};
pub use error::SdpError;
pub use problem::SdpProblem;
pub use solver::{SdpSolution, SdpSolver, SdpStatus};
