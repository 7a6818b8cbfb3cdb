//! Neural networks for the SNBC reproduction.
//!
//! Three network families appear in the paper:
//!
//! * the **NN controller** `k(x)` (§2–3) — an ordinary tanh MLP, here
//!   [`Mlp`], pre-trained by supervised regression onto a stabilizing
//!   feedback law (our substitute for the paper's DDPG training; the synthesis
//!   pipeline only needs *some* fixed controller, however it was obtained);
//! * the **quadratic network** for the barrier candidate `B(x)` (§4.1,
//!   Fig. 2) — [`QuadraticNet`], whose cross-product (Hadamard) activation
//!   `x⁽ˡ⁾ = (W₁x + b₁) ⊗ (W₂x + b₂)` makes the output *exactly* a polynomial
//!   of degree `2^l`, extractable symbolically via
//!   [`QuadraticNet::to_polynomial`];
//! * the **multiplier network** for `λ(x)` — [`MultiplierNet`], a linear
//!   network (affine output) or a trainable constant, matching the
//!   `NN_λ(x)` column of Table 1.
//!
//! Training uses [`snbc_autodiff::Tape`] (including the grad-of-grad needed by
//! the Lie-derivative loss) and the [`Adam`] optimizer; the squared-error
//! regression of the quadratic network runs on the tape-free, allocation-free
//! kernel [`QuadraticNet::squared_error_gradient`]. Lipschitz constants
//! for Theorem 2 are bounded by the product of layer spectral norms
//! ([`Mlp::lipschitz_bound`]), the standard safe estimate in the spirit of
//! the paper's reference \[6\].
//!
//! # Example
//!
//! ```
//! use snbc_nn::QuadraticNet;
//!
//! let net = QuadraticNet::new(2, &[3], 7);
//! let p = net.to_polynomial();
//! // The symbolic polynomial agrees with the numeric forward pass.
//! let x = [0.3, -0.8];
//! assert!((net.forward(&x) - p.eval(&x)).abs() < 1e-10);
//! assert!(p.degree() <= 2);
//! ```

mod adam;
mod controller;
mod mlp;
mod multiplier;
mod quadratic;
mod square;

pub use adam::Adam;
pub use controller::{train_controller, ControllerTraining};
pub use mlp::{Activation, Mlp, VectorMlp};
pub use multiplier::MultiplierNet;
pub use quadratic::QuadraticNet;
pub use square::SquareNet;
