//! Sparse multivariate polynomial arithmetic for barrier-certificate synthesis.
//!
//! Everything symbolic in the SNBC pipeline is a polynomial: the vector field
//! `f(x, u)`, the semialgebraic set descriptions `θᵢ, ψᵢ, ξᵢ`, the controller
//! abstraction `h(x)`, the barrier certificate `B(x)` extracted from the
//! quadratic network, the multiplier `λ(x)`, and every SOS multiplier. This
//! crate provides:
//!
//! * [`Monomial`] — exponent vectors with the **graded lexicographic** order
//!   used by the paper's basis `[x]_d` (§3),
//! * [`Polynomial`] — sparse polynomials over `f64` with arithmetic,
//!   differentiation, composition/substitution and evaluation,
//! * [`monomial_basis`] — the monomial basis `[x]_d` of dimension
//!   `v = C(n+d, n)`,
//! * [`lie_derivative`] — the Lie derivative `L_f B = Σ ∂B/∂xᵢ · fᵢ`,
//! * a small expression parser for tests and examples.
//!
//! # Example
//!
//! ```
//! use snbc_poly::Polynomial;
//!
//! // B(x, y) = x² + y² − 1 and the rotation field f = (−y, x):
//! let b: Polynomial = "x0^2 + x1^2 - 1".parse()?;
//! let f = ["-x1".parse()?, "x0".parse()?];
//! // Circles are invariant: L_f B ≡ 0.
//! let lie = snbc_poly::lie_derivative(&b, &f);
//! assert!(lie.is_zero());
//! # Ok::<(), snbc_poly::ParsePolynomialError>(())
//! ```

mod basis;
mod monomial;
mod parse;
mod poly;

pub use basis::{basis_size, monomial_basis, monomials_of_degree};
pub use monomial::Monomial;
pub use parse::{ParsePolynomialError, MAX_DEPTH, MAX_EXPANSION, MAX_EXPONENT, MAX_VARIABLES};
pub use poly::{lie_derivative, Polynomial};
