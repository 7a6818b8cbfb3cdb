//! Sum-of-squares programming on top of the [`snbc_sdp`] interior-point solver.
//!
//! This crate is the bridge between polynomial identities and semidefinite
//! programming. The paper's verifier (§4.2) must solve problems of the shape
//!
//! ```text
//!     find  σᵢ(x) ∈ Σ[x],  λ(x) ∈ ℝ[x]
//!     s.t.  known(x) − Σᵢ σᵢ(x)·gᵢ(x) − λ(x)·B(x) ∈ Σ[x]
//! ```
//!
//! which [`SosProgram`] compiles to a block SDP: every unknown SOS polynomial
//! becomes a Gram matrix over the basis `[x]_d` (the paper's §3 ordering, via
//! [`snbc_poly::monomial_basis`]); every free polynomial becomes split
//! nonnegative coefficient pairs; every polynomial identity becomes one linear
//! equality per monomial.
//!
//! Feasibility is decided with an explicit margin: the solver maximizes `t`
//! such that every Gram block satisfies `G ⪰ t·I` (with `t ≤ t_max`), so
//! `t* > 0` certifies *strict* feasibility and the returned witness has a
//! quantified distance from the PSD boundary — this is exactly the convex
//! LMI feasibility test that replaces the paper's earlier BMI formulation.
//!
//! # Features
//!
//! With the `sanitize` feature (forwarded to [`snbc_linalg`] and
//! [`snbc_sdp`]), extracted Gram blocks are additionally checked to be
//! finite, symmetric, and PSD up to the margin shift at solution-extraction
//! time; the underlying solvers check their interior iterates. Telemetry for
//! the compiled SDPs comes from the [`snbc_sdp`] layer: each solve of an
//! [`SosProgram`] emits one `"sdp"` span per attempt when the solver's sink
//! records.
//!
//! # Example
//!
//! ```
//! use snbc_sos::{SosExpr, SosProgram};
//! use snbc_poly::Polynomial;
//!
//! // Certify 2x² − 2x + 1 ∈ Σ[x] (it is (x−1)² + x²).
//! let p: Polynomial = "2*x0^2 - 2*x0 + 1".parse().unwrap();
//! let mut prog = SosProgram::new(1);
//! prog.require_sos(SosExpr::from_poly(p));
//! let sol = prog.solve_default()?;
//! assert!(sol.margin() > 0.0);
//! # Ok::<(), snbc_sos::SosError>(())
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

mod decompose;
mod error;
mod program;

pub use decompose::{extract_squares, SosDecomposition};
pub use error::SosError;
pub use program::{SosExpr, SosProgram, SosSolution, UnknownId};
