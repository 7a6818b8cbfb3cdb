//! **SNBC** — counterexample-guided synthesis of neural barrier certificates
//! for NN-controlled continuous systems, with SOS/LMI verification.
//!
//! This crate is a from-scratch Rust reproduction of the DAC'24 paper
//! *"Neural Barrier Certificates Synthesis of NN-Controlled Continuous
//! Systems via Counterexample-Guided Learning"* (Zhao et al.). The pipeline
//! (Fig. 1 of the paper, Algorithm 1):
//!
//! 1. **Polynomial inclusion of the controller** ([`approx`], §3): the NN
//!    controller `k(x)` is abstracted as `h(x) + w`, `w ∈ [−σ*, σ*]`, where
//!    `h` solves a Chebyshev-approximation LP over a mesh and
//!    `σ* = σ̃ + ½·s·L` is sound by the Lipschitz argument of Theorem 2.
//! 2. **Learner** ([`learner`], §4.1): a quadratic (cross-product) network
//!    `B(x)` and a multiplier network `λ(x)` are trained jointly on samples
//!    from `Θ`, `Ξ`, `Ψ` with the LeakyReLU loss (10), using double
//!    backprop for the Lie-derivative term.
//! 3. **Verifier** ([`verifier`], §4.2): because `B` is known after
//!    learning, the barrier conditions become the **three convex LMI
//!    feasibility problems** (13)–(15), solved independently by the SOS
//!    layer — no SMT solver and no bilinear matrix inequality.
//! 4. **Counterexamples** ([`cex`], §4.3): on verification failure, the
//!    worst violating point `x*` is found by multi-start projected gradient
//!    ascent (the Lagrangian treatment of (16)), a violation ball of radius
//!    `γ` is grown around it (17), and its samples are fed back to the
//!    Learner.
//!
//! The [`Snbc`] driver ties these into the CEGIS loop and records the same
//! per-phase timings Table 1 reports (`T_l`, `T_c`, `T_v`, `T_e`).
//!
//! # Telemetry
//!
//! Every stage of the pipeline is instrumented with the zero-dependency
//! [`snbc_telemetry`] layer: attach a recording sink with
//! [`Snbc::with_telemetry`] and a run produces a span tree
//! (`cegis → approx / round → learn / verify / cex → lp / sdp / search-*`)
//! carrying learner epochs and final loss, interior-point iteration counts
//! and duality measures per LMI (13)–(15), Cholesky factorization counts,
//! counterexample counts and ball radii `γ`, and the inclusion error `σ*`.
//! The serialized `snbc-run-report/1` JSON schema is documented in
//! `docs/TELEMETRY.md`; with the default [`snbc_telemetry::Telemetry::off`]
//! sink every instrumentation point reduces to a null check.
//!
//! # Quickstart
//!
//! ```no_run
//! use snbc::{Snbc, SnbcConfig};
//! use snbc_dynamics::benchmarks;
//! use snbc_nn::{train_controller, ControllerTraining};
//! use snbc_telemetry::Telemetry;
//!
//! # fn main() -> Result<(), snbc::SnbcError> {
//! let bench = benchmarks::benchmark(3);
//! let controller = train_controller(
//!     bench.system.domain().bounding_box(),
//!     bench.target_law,
//!     &ControllerTraining::default(),
//! );
//! let telemetry = Telemetry::recording();
//! let result = Snbc::new(SnbcConfig::default())
//!     .with_telemetry(telemetry.clone())
//!     .synthesize(&bench, &controller)?;
//! println!("B(x) = {}", result.barrier);
//! let report = telemetry.report().expect("recording sink");
//! println!("{}", snbc_telemetry::render_round_table(&report));
//! # Ok(())
//! # }
//! ```

pub mod approx;
pub mod certificate;
pub mod cex;
pub mod falsify;
pub mod learner;
pub mod theorem1;
pub mod verifier;

mod cegis;
mod error;

pub use approx::{approximate_controller, approximate_mlp, ApproxOptions, PolynomialInclusion};
pub use cegis::{CegisEngine, CegisStatus, Snbc, SnbcConfig, SnbcResult};
pub use certificate::SafetyCertificate;
pub use falsify::{falsify, CounterexampleTrajectory, FalsifyConfig};
pub use cex::{CexConfig, Counterexample, ViolatedCondition};
pub use error::SnbcError;
pub use learner::{Learner, LearnerConfig, TrainingSets};
pub use theorem1::{Condition, Strictness, Theorem1};
pub use verifier::{
    recheck_with_intervals, verify_multi, SubproblemResult, VerificationOutcome, Verifier,
    VerifierConfig,
};
