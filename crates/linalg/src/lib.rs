//! Dense linear-algebra substrate for the SNBC reproduction.
//!
//! Every numerical solver in the workspace (the LP solver used for Chebyshev
//! controller approximation, the SDP interior-point solver behind the SOS/LMI
//! verifier, and the neural-network training code) is built on the small dense
//! kernel provided here: a row-major [`Matrix`] type plus factorizations
//! (Cholesky, LDLᵀ, LU) and a Jacobi eigensolver for symmetric matrices.
//!
//! The matrices arising in barrier-certificate synthesis are small-to-moderate
//! (Gram matrices of monomial bases, Schur complements over coefficient
//! constraints), so a cache-friendly dense representation with `f64` entries is
//! the right tool; no sparse machinery is needed.
//!
//! # Tiling and the bitwise contract
//!
//! The two hottest kernels — GEMM ([`Matrix::matmul`], tiles `GEMM_MC = 64`
//! rows × `GEMM_NC = 256` columns of the output) and the Cholesky
//! factorization ([`Matrix::cholesky`], `CHOL_NB = 32`-column panels) — are
//! cache-tiled, but only in ways that leave every floating-point operation
//! sequence unchanged: GEMM keeps each output element's full ascending `k`
//! accumulation (no `k`-blocking), and the Cholesky panels concatenate their
//! update ranges into exactly the textbook `k = 0..j` subtraction chain. The
//! tile sizes are therefore pure locality knobs — any value produces
//! bit-identical results (pinned by `tests/tiled_equivalence.rs`), which is
//! what the workspace determinism contract (docs/PARALLELISM.md) and the
//! strict `snbc-bench check` baselines require of a kernel change. Measured
//! effects and tuning guidance: docs/PERFORMANCE.md.
//!
//! # Example
//!
//! ```
//! use snbc_linalg::Matrix;
//!
//! # fn main() -> Result<(), snbc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let chol = a.cholesky()?;
//! let x = chol.solve(&[1.0, 2.0]);
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
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

mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
pub mod sanitize;
pub mod vec_ops;

pub use cholesky::{Cholesky, Ldlt};
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
