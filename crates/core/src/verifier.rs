//! The Verifier of §4.2: three convex LMI feasibility problems.
//!
//! With the candidate `B(x)` *known* from the Learner, the barrier conditions
//! of Theorem 1 become the three independent SOS feasibility problems
//! (13)–(15) — convex LMIs instead of the non-convex BMI that direct
//! synthesis faces. This module builds each problem over the system's
//! semialgebraic sets and the controller inclusion `u = h(x) + w`,
//! `w ∈ [−σ*, σ*]`, and solves them with [`snbc_sos`].

use std::time::Duration;

use snbc_trace::Stopwatch;

use snbc_dynamics::{Ccds, SemiAlgebraicSet};
use snbc_interval::{BranchAndBound, Verdict};
use snbc_poly::{lie_derivative, Polynomial};
use snbc_sdp::SdpSolver;
use snbc_sos::{SosError, SosExpr, SosProgram};
use snbc_telemetry::Telemetry;

use crate::theorem1::{Strictness, Theorem1, ViolatedCondition};
use crate::PolynomialInclusion;

/// Options of the LMI verifier.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Degree of the SOS multipliers `σᵢ, δᵢ, φᵢ` (even; `0` = scalar
    /// S-procedure multipliers, sufficient for quadratic `B` over ball sets
    /// and much cheaper in high dimension).
    pub multiplier_degree: u32,
    /// Degree of the free multiplier `λ(x)` in (15).
    pub lambda_degree: u32,
    /// Strictness constant `ε₁` of (14).
    pub epsilon1: f64,
    /// Strictness constant `ε₂` of (15).
    pub epsilon2: f64,
    /// The interior-point solver used for the compiled SDPs.
    pub solver: SdpSolver,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            multiplier_degree: 2,
            lambda_degree: 1,
            epsilon1: 1e-4,
            epsilon2: 1e-4,
            solver: SdpSolver::default(),
        }
    }
}

/// Result of one of the three sub-problems (13)–(15).
#[derive(Debug, Clone)]
pub struct SubproblemResult {
    /// Whether a strictly feasible certificate was found.
    pub feasible: bool,
    /// Achieved Gram margin (`> 0` ⇔ feasible).
    pub margin: f64,
    /// Wall-clock time of this sub-problem.
    pub time: Duration,
    /// The solved multiplier `λ(x)` (flow condition only).
    pub lambda: Option<Polynomial>,
}

/// Outcome of a full verification pass.
#[derive(Debug, Clone)]
pub struct VerificationOutcome {
    /// Condition (i): `B ≥ 0` on `Θ` — problem (13).
    pub init: SubproblemResult,
    /// Condition (ii): `B < 0` on `Ξ` — problem (14).
    pub unsafe_: SubproblemResult,
    /// Condition (iii): `L_f B − λB > 0` on `Ψ` — problem (15).
    pub flow: SubproblemResult,
}

impl VerificationOutcome {
    /// The sub-problem of one condition.
    pub fn get(&self, kind: ViolatedCondition) -> &SubproblemResult {
        match kind {
            ViolatedCondition::Init => &self.init,
            ViolatedCondition::Unsafe => &self.unsafe_,
            ViolatedCondition::Flow => &self.flow,
        }
    }

    /// `true` when all three LMI sub-problems are strictly feasible, i.e.
    /// `B` is a real barrier certificate.
    pub fn is_certified(&self) -> bool {
        self.init.feasible && self.unsafe_.feasible && self.flow.feasible
    }

    /// Total verification time (`T_v` of Table 1).
    pub fn total_time(&self) -> Duration {
        self.init.time + self.unsafe_.time + self.flow.time
    }

    /// The conditions whose sub-problem failed, in
    /// [`ViolatedCondition::ALL`] order (empty when certified).
    pub fn failed(&self) -> impl Iterator<Item = ViolatedCondition> + '_ {
        ViolatedCondition::ALL
            .into_iter()
            .filter(|&kind| !self.get(kind).feasible)
    }

    /// Names of the conditions that failed (empty when certified).
    pub fn failed_conditions(&self) -> Vec<&'static str> {
        self.failed().map(ViolatedCondition::name).collect()
    }
}

/// The SOS/LMI verifier bound to one system and controller inclusion.
#[derive(Debug, Clone)]
pub struct Verifier<'a> {
    system: &'a Ccds,
    inclusion: &'a PolynomialInclusion,
    cfg: VerifierConfig,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for the system under `u = h(x) + w`.
    pub fn new(system: &'a Ccds, inclusion: &'a PolynomialInclusion, cfg: VerifierConfig) -> Self {
        Verifier {
            system,
            inclusion,
            cfg,
        }
    }

    /// Runs the three LMI feasibility tests for the candidate `B`: the
    /// one-channel case of [`verify_multi`].
    pub fn verify(&self, b: &Polynomial) -> VerificationOutcome {
        verify_multi(self.system, std::slice::from_ref(self.inclusion), b, &self.cfg)
    }
}

/// The multiplier-degree escalation ladder: scalar S-procedure multipliers
/// first (often sufficient and orders of magnitude cheaper in high
/// dimension), then the configured degree.
fn degree_ladder(multiplier_degree: u32) -> Vec<u32> {
    if multiplier_degree == 0 {
        vec![0]
    } else {
        vec![0, multiplier_degree]
    }
}

/// Problems (13) and (14): `p − Σ σᵢgᵢ ∈ Σ[x]` for the set `{gᵢ ≥ 0}`, with
/// `p = B` on `Θ` and `p = −B − ε₁` on `Ξ`.
fn check_set(
    n: usize,
    p: &Polynomial,
    set: &SemiAlgebraicSet,
    cfg: &VerifierConfig,
    ladder: &[u32],
) -> SubproblemResult {
    let start = Stopwatch::start();
    let mut last = None;
    for &deg in ladder {
        let mut prog = SosProgram::new(n);
        let mut expr = SosExpr::from_poly(p.clone());
        for g in set.polys() {
            let sigma = prog.add_sos(deg);
            expr = expr.add_term(-g, sigma);
        }
        prog.require_sos(expr);
        let result = prog.solve(&cfg.solver);
        let done = result.is_ok();
        last = Some(result);
        if done {
            break;
        }
    }
    finish(last.expect("ladder is non-empty"), start, None)
}

/// Runs one sub-problem in a span `name` on its branch sink, and records its
/// Gram margin and feasibility flag there.
fn solve(
    sink: &Telemetry,
    name: &'static str,
    check: impl FnOnce() -> SubproblemResult,
) -> SubproblemResult {
    let _s = sink.span(name);
    let r = check();
    if sink.is_recording() {
        sink.gauge("margin", r.margin);
        sink.flag("feasible", r.feasible);
    }
    r
}

fn finish(
    result: Result<snbc_sos::SosSolution, SosError>,
    start: Stopwatch,
    lambda: Option<snbc_sos::UnknownId>,
) -> SubproblemResult {
    let time = start.elapsed();
    match result {
        Ok(sol) => SubproblemResult {
            feasible: true,
            margin: sol.margin(),
            lambda: lambda.map(|id| sol.poly(id).clone()),
            time,
        },
        Err(SosError::Infeasible { margin }) => SubproblemResult {
            feasible: false,
            margin,
            lambda: None,
            time,
        },
        Err(_) => SubproblemResult {
            feasible: false,
            margin: f64::NEG_INFINITY,
            lambda: None,
            time,
        },
    }
}

/// Independent δ-complete re-check of a certified barrier with interval
/// branch-and-bound (the second soundness path, using the dReal-substitute).
///
/// Returns `true` when all three conditions of Theorem 1 are *proven* over
/// the sets' bounding boxes intersected with their constraints
/// ([`Strictness::DEEP`]). `Unknown` verdicts (precision δ) count as
/// failure — this check is strictly harsher than the SOS margin test.
///
/// With a recording `telemetry`, the conditions run in `interval-init` /
/// `interval-unsafe` / `interval-flow` spans under an `interval-recheck`
/// parent, each with `boxes` / `max_depth` counters and a `holds` flag, and
/// the branch-and-bound wave engine emits per-worker `bb-boxes` spans into
/// the telemetry's trace (see docs/TRACING.md).
pub fn recheck_with_intervals(
    b: &Polynomial,
    lambda: &Polynomial,
    system: &Ccds,
    inclusion: &PolynomialInclusion,
    bb: &BranchAndBound,
    telemetry: &Telemetry,
) -> bool {
    let _span = telemetry.span("interval-recheck");
    let closed_robust = system.close_loop_with_error(&inclusion.h);
    let theorem = Theorem1::new(
        system,
        b,
        lambda,
        &closed_robust,
        inclusion.sigma_star,
        Strictness::DEEP,
    );
    ViolatedCondition::ALL.into_iter().all(|kind| {
        let condition = theorem.condition(kind);
        let _s = telemetry.span(match kind {
            ViolatedCondition::Init => "interval-init",
            ViolatedCondition::Unsafe => "interval-unsafe",
            ViolatedCondition::Flow => "interval-flow",
        });
        let r = condition.check(bb, telemetry.trace());
        telemetry.add("boxes", r.boxes_processed as u64);
        telemetry.add("max_depth", r.max_depth as u64);
        telemetry.flag("holds", r.verdict == Verdict::Holds);
        r.verdict == Verdict::Holds
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::SemiAlgebraicSet;

    /// A hand-built system where B = 1 − x² is a barrier:
    /// ẋ = −x + u with u = 0 exactly; Θ = [−0.5, 0.5], Ψ = [−2, 2],
    /// Ξ = [1.5, 2].
    fn toy() -> (Ccds, PolynomialInclusion) {
        let sys = Ccds::new(
            "toy",
            vec!["-x0 + x1".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.5, 0.5)]),
            SemiAlgebraicSet::box_set(&[(-2.0, 2.0)]),
            SemiAlgebraicSet::box_set(&[(1.5, 2.0)]),
        );
        let inclusion = PolynomialInclusion {
            h: Polynomial::zero(),
            sigma_tilde: 0.0,
            sigma_star: 0.0,
            lipschitz: 0.0,
            covering_radius: 0.0,
            mesh_points: 0,
        };
        (sys, inclusion)
    }

    #[test]
    fn certifies_textbook_barrier() {
        let (sys, inc) = toy();
        let b: Polynomial = "1 - x0^2".parse().unwrap();
        let verifier = Verifier::new(&sys, &inc, VerifierConfig::default());
        let out = verifier.verify(&b);
        assert!(out.init.feasible, "init margin {}", out.init.margin);
        assert!(out.unsafe_.feasible, "unsafe margin {}", out.unsafe_.margin);
        assert!(out.flow.feasible, "flow margin {}", out.flow.margin);
        assert!(out.is_certified());
        assert!(out.failed_conditions().is_empty());
        // λ was solved as part of (15).
        assert!(out.flow.lambda.is_some());
    }

    #[test]
    fn rejects_non_barrier() {
        let (sys, inc) = toy();
        // B = x is positive on only half of Θ: (13) must fail.
        let b: Polynomial = "x0".parse().unwrap();
        let verifier = Verifier::new(&sys, &inc, VerifierConfig::default());
        let out = verifier.verify(&b);
        assert!(!out.init.feasible);
        assert!(!out.is_certified());
        assert!(out.failed_conditions().contains(&"init"));
    }

    #[test]
    fn robust_flow_with_error_band() {
        let (sys, mut inc) = toy();
        // With |w| ≤ 0.1 the flow condition still holds for B = 1 − x².
        inc.sigma_star = 0.1;
        let b: Polynomial = "1 - x0^2".parse().unwrap();
        let verifier = Verifier::new(&sys, &inc, VerifierConfig::default());
        let out = verifier.verify(&b);
        assert!(out.flow.feasible, "flow margin {}", out.flow.margin);
    }

    #[test]
    fn huge_error_band_breaks_flow() {
        let (sys, mut inc) = toy();
        // |w| ≤ 10 swamps −x: no certificate.
        inc.sigma_star = 10.0;
        let b: Polynomial = "1 - x0^2".parse().unwrap();
        let verifier = Verifier::new(&sys, &inc, VerifierConfig::default());
        let out = verifier.verify(&b);
        assert!(!out.flow.feasible);
    }

    #[test]
    fn interval_recheck_agrees_on_certified_barrier() {
        let (sys, inc) = toy();
        let b: Polynomial = "1 - x0^2".parse().unwrap();
        let verifier = Verifier::new(&sys, &inc, VerifierConfig::default());
        let out = verifier.verify(&b);
        assert!(out.is_certified());
        let lambda = out.flow.lambda.expect("lambda solved");
        let bb = BranchAndBound::default();
        let ok = recheck_with_intervals(&b, &lambda, &sys, &inc, &bb, &Telemetry::off());
        assert!(ok, "interval path must confirm the SOS certificate");
    }

    #[test]
    fn interval_recheck_rejects_bogus_barrier() {
        let (sys, inc) = toy();
        let b: Polynomial = "x0".parse().unwrap();
        let lambda = Polynomial::zero();
        let bb = BranchAndBound::default();
        let ok = recheck_with_intervals(&b, &lambda, &sys, &inc, &bb, &Telemetry::off());
        assert!(!ok);
    }
}

/// Runs the three LMI feasibility tests (13)–(15) for the candidate `B` of
/// a system with `m` control channels, each abstracted as `uⱼ = hⱼ(x) + wⱼ`,
/// `wⱼ ∈ [−σⱼ*, σⱼ*]` (§3's "multiple-output cases"). The flow condition (15)
/// gains one error variable and one band multiplier per channel.
///
/// Infeasibility of a sub-problem is *not* an error (it triggers
/// counterexample generation in the CEGIS loop); solver breakdowns are
/// reported as infeasible with margin `−∞` so the loop can continue with
/// more counterexamples.
///
/// # Panics
///
/// Panics if `inclusions.len() != system.num_inputs()`.
pub fn verify_multi(
    system: &Ccds,
    inclusions: &[PolynomialInclusion],
    b: &Polynomial,
    cfg: &VerifierConfig,
) -> VerificationOutcome {
    assert_eq!(
        inclusions.len(),
        system.num_inputs(),
        "one inclusion per control channel"
    );
    // The SDP solver's telemetry doubles as the verifier's sink: the
    // "init"/"unsafe"/"flow" spans enclose the nested "sdp" spans the
    // instrumented solver emits for each ladder rung. The three LMIs
    // decouple (§4.2), so each condition gets a forked branch sink and its
    // own solve; the forks are adopted back in fixed order after the join,
    // making the span tree identical at any thread count.
    let t = &cfg.solver.telemetry;
    let _span = t.span("verify");
    if t.is_recording() {
        t.label("workers", &snbc_par::threads().min(3).to_string());
    }
    let n = system.nvars();
    let ladder = degree_ladder(cfg.multiplier_degree);
    let forks = [t.fork(), t.fork(), t.fork()];
    let [ci, cu, cf] = forks.clone().map(|sink| {
        let mut c = cfg.clone();
        c.solver.telemetry = sink;
        c
    });
    let (init, unsafe_, flow) = snbc_par::join3(
        || solve(&forks[0], "init", || check_set(n, b, system.init(), &ci, &ladder)),
        || {
            solve(&forks[1], "unsafe", || {
                let neg_b_eps = &(-b) - &Polynomial::constant(cfg.epsilon1);
                check_set(n, &neg_b_eps, system.unsafe_set(), &cu, &ladder)
            })
        },
        // Flow (15) over (x, w₁ … w_m).
        || solve(&forks[2], "flow", || check_flow_channels(system, inclusions, b, &cf, &ladder)),
    );
    for fork in &forks {
        t.adopt(fork);
    }
    VerificationOutcome { init, unsafe_, flow }
}

/// Shared implementation of the flow LMI (15) for any number of control
/// channels. Channels with a negligible error band are substituted exactly
/// (no `w` variable); robust channels get consecutive error variables after
/// the state block, each with its own band multiplier.
fn check_flow_channels(
    system: &Ccds,
    inclusions: &[PolynomialInclusion],
    b: &Polynomial,
    cfg: &VerifierConfig,
    ladder: &[u32],
) -> SubproblemResult {
    let start = Stopwatch::start();
    let n = system.nvars();

    // Close the loop channel by channel. Robust channels keep a fresh error
    // variable; exact channels substitute h directly. Error variables are
    // renumbered consecutively so the ambient dimension stays minimal.
    let mut field: Vec<Polynomial> = system.field().to_vec();
    let mut sigmas = Vec::new(); // σ* per robust channel, in w order
    for (j, inc) in inclusions.iter().enumerate() {
        let robust = inc.sigma_star > 1e-12;
        let sub = if robust {
            let w_index = n + sigmas.len();
            sigmas.push(inc.sigma_star);
            &inc.h + &Polynomial::var(w_index)
        } else {
            inc.h.clone()
        };
        for f in &mut field {
            *f = f.substitute(n + j, &sub);
        }
    }
    // NB: the substitution above maps channel j's input slot n+j to a
    // polynomial mentioning w-variables at indices ≥ n; because w indices are
    // assigned in increasing channel order and input slots are consumed in
    // the same order, no captured variable is re-substituted.
    let lie = lie_derivative(b, &field);
    let nvars = n + sigmas.len();

    let mut last = None;
    let mut last_lambda = None;
    for &deg in ladder {
        let mut prog = SosProgram::new(nvars.max(b.nvars()));
        let lambda = prog.add_free_restricted(cfg.lambda_degree, n);
        let lie_eps = &lie - &Polynomial::constant(cfg.epsilon2);
        let mut expr = SosExpr::from_poly(lie_eps).add_term(-b, lambda);
        for psi in system.domain().polys() {
            let phi = prog.add_sos(deg);
            expr = expr.add_term(-psi, phi);
        }
        for (w_idx, &sigma) in sigmas.iter().enumerate() {
            // wⱼ ∈ [−σⱼ*, σⱼ*] ⇔ σⱼ*² − wⱼ² ≥ 0.
            let w = Polynomial::var(n + w_idx);
            let wball = &Polynomial::constant(sigma * sigma) - &(&w * &w);
            let phi_w = prog.add_sos(deg);
            expr = expr.add_term(-&wball, phi_w);
        }
        prog.require_sos(expr);
        let result = prog.solve(&cfg.solver);
        let done = result.is_ok();
        last = Some(result);
        last_lambda = Some(lambda);
        if done {
            break;
        }
    }
    finish(last.expect("ladder is non-empty"), start, last_lambda)
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use snbc_dynamics::SemiAlgebraicSet;

    /// ẋ₀ = u₁, ẋ₁ = u₂.
    fn double_integrator() -> Ccds {
        Ccds::new_multi(
            "double-int",
            vec!["x2".parse().unwrap(), "x3".parse().unwrap()],
            2,
            SemiAlgebraicSet::box_set(&[(-0.3, 0.3), (-0.3, 0.3)]),
            SemiAlgebraicSet::box_set(&[(-2.0, 2.0), (-2.0, 2.0)]),
            SemiAlgebraicSet::box_set(&[(1.5, 2.0), (1.5, 2.0)]),
        )
    }

    fn inclusion(h: &str, sigma: f64) -> PolynomialInclusion {
        PolynomialInclusion {
            h: h.parse().unwrap(),
            sigma_tilde: sigma,
            sigma_star: sigma,
            lipschitz: 0.0,
            covering_radius: 0.0,
            mesh_points: 0,
        }
    }

    #[test]
    fn two_channel_double_integrator_certifies() {
        // u₁ ≈ −x₀, u₂ ≈ −x₁ with small error bands.
        let inclusions = [inclusion("-1*x0", 0.05), inclusion("-1*x1", 0.05)];
        let b: Polynomial = "1 - 0.5*x0^2 - 0.5*x1^2".parse().unwrap();
        let out = verify_multi(&double_integrator(), &inclusions, &b, &VerifierConfig::default());
        assert!(out.init.feasible, "init margin {}", out.init.margin);
        assert!(out.unsafe_.feasible, "unsafe margin {}", out.unsafe_.margin);
        assert!(out.flow.feasible, "flow margin {}", out.flow.margin);
    }

    #[test]
    fn huge_band_on_one_channel_breaks_it() {
        let inclusions = [inclusion("-1*x0", 10.0), inclusion("-1*x1", 0.05)];
        let b: Polynomial = "1 - 0.5*x0^2 - 0.5*x1^2".parse().unwrap();
        let out = verify_multi(&double_integrator(), &inclusions, &b, &VerifierConfig::default());
        assert!(!out.flow.feasible);
    }

    #[test]
    #[should_panic(expected = "one inclusion per control channel")]
    fn channel_count_mismatch_panics() {
        let b = Polynomial::constant(1.0);
        let one = [inclusion("0", 0.0)];
        let _ = verify_multi(&double_integrator(), &one, &b, &VerifierConfig::default());
    }
}
