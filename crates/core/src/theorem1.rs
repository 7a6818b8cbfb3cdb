//! Theorem 1's three barrier conditions, written once.
//!
//! A candidate `B` with multiplier `λ` is a barrier certificate of the closed
//! loop `ẋ = f(x, h(x) + w)`, `|w| ≤ σ*`, when
//!
//! 1. `B ≥ 0` on `Θ`,
//! 2. `−B > 0` on `Ξ`,
//! 3. `L_f B − λB > 0` on `Ψ × [−σ*, σ*]`.
//!
//! A [`Condition`] holds the polynomial that must be positive and its region.
//! [`Theorem1::condition`] builds one at a time, so a caller that checks only
//! the conditions the LMI verifier refuted never builds the others (the flow
//! condition's Lie derivative is the costly one). The counterexample search
//! ([`Condition::search`]), its δ-complete fallback and the deep certificate
//! check ([`Condition::check`]), and the SMT baselines all check through this
//! definition; each keeps its own [`Strictness`]. The LMI verifier solves the
//! same conditions as SOS programs, where `λ` is a decision variable.

use std::borrow::Cow;

use snbc_dynamics::{Ccds, SemiAlgebraicSet};
use snbc_interval::{BranchAndBound, CheckReport, Interval};
use snbc_poly::{lie_derivative, Polynomial};
use snbc_trace::Trace;

use crate::cex::{find_counterexample, CexConfig, Counterexample};

/// One of Theorem 1's three conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolatedCondition {
    /// `B(x) ≥ 0` on `Θ` (its counterexamples go to `S_I`).
    Init,
    /// `B(x) < 0` on `Ξ` (its counterexamples go to `S_U`).
    Unsafe,
    /// `L_f B − λB > 0` on `Ψ` (its counterexamples go to `S_D`).
    Flow,
}

impl ViolatedCondition {
    /// The three conditions, in the order every site checks them.
    pub const ALL: [ViolatedCondition; 3] = [
        ViolatedCondition::Init,
        ViolatedCondition::Unsafe,
        ViolatedCondition::Flow,
    ];

    /// The condition's name in events and reports: `init`, `unsafe`, `flow`.
    pub fn name(self) -> &'static str {
        match self {
            ViolatedCondition::Init => "init",
            ViolatedCondition::Unsafe => "unsafe",
            ViolatedCondition::Flow => "flow",
        }
    }

    /// The state set the condition ranges over: `Θ`, `Ξ` or `Ψ`.
    pub fn set(self, system: &Ccds) -> &SemiAlgebraicSet {
        match self {
            ViolatedCondition::Init => system.init(),
            ViolatedCondition::Unsafe => system.unsafe_set(),
            ViolatedCondition::Flow => system.domain(),
        }
    }
}

/// How strictly a site checks the conditions: the bound each condition's
/// polynomial must reach on its region (in [`ViolatedCondition::ALL`]
/// order), and the floor under σ*, so that the error band is `[−σ, σ]` with
/// `σ = max(σ*, floor)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strictness {
    bounds: [f64; 3],
    sigma_floor: f64,
}

impl Strictness {
    /// The counterexample search, its δ-complete fallback, and the SMT
    /// baselines.
    pub const SEARCH: Strictness = Strictness {
        bounds: [0.0, 1e-12, 0.0],
        sigma_floor: 1e-9,
    };

    /// The deep certificate check ([`crate::recheck_with_intervals`]).
    pub const DEEP: Strictness = Strictness {
        bounds: [0.0, 1e-9, 1e-9],
        sigma_floor: 1e-12,
    };
}

/// A candidate `B` with multiplier `λ`, to be checked against Theorem 1 for
/// the robust closed loop `f(x, h(x) + w)` (`w` in slot `n`).
#[derive(Debug, Clone, Copy)]
pub struct Theorem1<'a> {
    system: &'a Ccds,
    b: &'a Polynomial,
    lambda: &'a Polynomial,
    closed_robust: &'a [Polynomial],
    sigma: f64,
    strictness: Strictness,
}

impl<'a> Theorem1<'a> {
    /// The candidate under `|w| ≤ σ*`, checked with `strictness`.
    pub fn new(
        system: &'a Ccds,
        b: &'a Polynomial,
        lambda: &'a Polynomial,
        closed_robust: &'a [Polynomial],
        sigma_star: f64,
        strictness: Strictness,
    ) -> Self {
        Theorem1 {
            system,
            b,
            lambda,
            closed_robust,
            sigma: sigma_star.max(strictness.sigma_floor),
            strictness,
        }
    }

    /// Builds one condition. Only the flow condition computes a Lie
    /// derivative.
    pub fn condition(&self, kind: ViolatedCondition) -> Condition<'a> {
        let set = kind.set(self.system);
        let (poly, region) = match kind {
            ViolatedCondition::Init => (Cow::Borrowed(self.b), Cow::Borrowed(set)),
            ViolatedCondition::Unsafe => (Cow::Owned(-self.b), Cow::Borrowed(set)),
            ViolatedCondition::Flow => {
                let lie = lie_derivative(self.b, self.closed_robust);
                let mut bounds = set.bounding_box().to_vec();
                bounds.push((-self.sigma, self.sigma));
                (
                    Cow::Owned(&lie - &(self.lambda * self.b)),
                    Cow::Owned(SemiAlgebraicSet::from_polys(set.polys().to_vec(), &bounds)),
                )
            }
        };
        Condition {
            kind,
            poly,
            region,
            bound: self.strictness.bounds[kind as usize],
        }
    }
}

/// One condition of Theorem 1: `poly ≥ bound` everywhere on `region`.
#[derive(Debug, Clone)]
pub struct Condition<'a> {
    /// Which condition this is.
    pub kind: ViolatedCondition,
    /// The polynomial that must be positive: `B`, `−B`, or `L_f B − λB`.
    pub poly: Cow<'a, Polynomial>,
    /// `Θ`, `Ξ`, or `Ψ × [−σ, σ]`.
    pub region: Cow<'a, SemiAlgebraicSet>,
    /// The bound an interval check proves `poly` reaches.
    pub bound: f64,
}

impl Condition<'_> {
    /// Decides the condition with interval branch-and-bound over the region's
    /// bounding box under its constraints (see
    /// [`BranchAndBound::check_at_least`]).
    pub fn check(&self, bb: &BranchAndBound, trace: &Trace) -> CheckReport {
        let domain: Vec<Interval> = self
            .region
            .bounding_box()
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect();
        bb.check_at_least_traced(&self.poly, &domain, self.region.polys(), self.bound, trace)
    }

    /// Searches the region for the worst violation, `−poly > 0`, and its
    /// counterexample ball (§4.3; see [`find_counterexample`]). Flow points
    /// carry the error coordinate `w` last.
    pub fn search(&self, cfg: &CexConfig) -> Option<Counterexample> {
        find_counterexample(&-self.poly.as_ref(), &self.region, self.kind, cfg)
    }
}
