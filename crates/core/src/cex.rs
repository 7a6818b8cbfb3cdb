//! Counterexample generation (§4.3): worst violating point + violation ball.
//!
//! When a candidate fails a barrier condition, the corresponding violation
//! function is maximized over its set by **multi-start projected gradient
//! ascent** (the practical realization of the Lagrangian treatment of (16)),
//! the worst point `x*` is kept, a maximal radius `γ` with
//! `‖x − x*‖₂ ≤ γ ⇒ still violating` is estimated per (17), and points
//! sampled from that ball are handed back to the Learner.

use rand::Rng;
use rand::SeedableRng;
use snbc_dynamics::SemiAlgebraicSet;
use snbc_poly::Polynomial;

/// Which of the three barrier conditions a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolatedCondition {
    /// `B(x) ≥ 0` on `Θ` failed (point goes to `S_I`).
    Init,
    /// `B(x) < 0` on `Ξ` failed (point goes to `S_U`).
    Unsafe,
    /// `L_f B − λB > 0` on `Ψ` failed (point goes to `S_D`).
    Flow,
}

/// A counterexample ball: the worst point, its violation value, the radius
/// `γ` of (17), and the samples drawn from the ball.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Condition violated.
    pub condition: ViolatedCondition,
    /// The worst violating point `x*` of (16).
    pub worst: Vec<f64>,
    /// Violation magnitude at `x*` (positive = violating).
    pub violation: f64,
    /// Ball radius `γ` of (17).
    pub gamma: f64,
    /// Points from `{x : ‖x − x*‖ ≤ γ} ∩ set` fed back to the Learner
    /// (includes `x*` itself).
    pub points: Vec<Vec<f64>>,
}

/// Options of the counterexample generator.
#[derive(Debug, Clone)]
pub struct CexConfig {
    /// Gradient-ascent restarts.
    pub restarts: usize,
    /// Ascent steps per restart.
    pub steps: usize,
    /// Initial step size (backtracked on failure).
    pub step_size: f64,
    /// Samples drawn from the violation ball.
    pub ball_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Telemetry sink. When recording, [`find_counterexample`] emits a
    /// `"search-init"`/`"search-unsafe"`/`"search-flow"` span (per violated
    /// condition) with the ball radius `γ`, the violation magnitude, and the
    /// number of points handed back to the Learner.
    pub telemetry: snbc_telemetry::Telemetry,
}

impl Default for CexConfig {
    fn default() -> Self {
        CexConfig {
            restarts: 12,
            steps: 120,
            step_size: 0.1,
            ball_samples: 24,
            seed: 17,
            telemetry: snbc_telemetry::Telemetry::off(),
        }
    }
}

/// Maximizes the violation polynomial `v` over `set` and, if the maximum is
/// positive, builds the counterexample ball of (16)–(17).
///
/// `v(x) > 0` must mean "condition violated at `x`" (callers negate/shift
/// their condition accordingly; see [`crate::Snbc`]).
///
/// # Example
///
/// ```
/// use snbc::cex::{find_counterexample, CexConfig, ViolatedCondition};
/// use snbc_dynamics::SemiAlgebraicSet;
///
/// // Violation v(x) = x² − 0.25 on [−1, 1]: worst at x = ±1, γ reaches the
/// // violating band |x| ≥ 0.5.
/// let set = SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]);
/// let v = "x0^2 - 0.25".parse().unwrap();
/// let cex = find_counterexample(&v, &set, ViolatedCondition::Flow, &CexConfig::default())
///     .expect("violation exists");
/// assert!(cex.worst[0].abs() > 0.9);
/// assert!(cex.points.iter().all(|p| v.eval(p) > 0.0));
/// ```
pub fn find_counterexample(
    v: &Polynomial,
    set: &SemiAlgebraicSet,
    condition: ViolatedCondition,
    cfg: &CexConfig,
) -> Option<Counterexample> {
    let span_name = match condition {
        ViolatedCondition::Init => "search-init",
        ViolatedCondition::Unsafe => "search-unsafe",
        ViolatedCondition::Flow => "search-flow",
    };
    let _span = cfg.telemetry.span(span_name);
    if cfg.telemetry.is_recording() {
        cfg.telemetry
            .label("workers", &snbc_par::threads().to_string());
    }
    let bounds = set.bounding_box().to_vec();
    let n = bounds.len();

    // Multi-start projected gradient ascent on v over the set. Each restart
    // owns an RNG seeded from `(cfg.seed, r)` so the restarts are mutually
    // independent and the result never depends on execution order; the best
    // point is then picked by a serial restart-index scan with a strict `>`
    // comparison (ties break toward the lowest restart index), which keeps
    // the output bitwise identical at any thread count.
    //
    // The gradient polynomials and the box center are built once out here:
    // `ascend` is allocation-free per step (`audit:hot` enforces that
    // transitively).
    let restart_rng = |r: usize| {
        rand::rngs::StdRng::seed_from_u64(
            cfg.seed ^ (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    };
    let grads = v.gradient(n);
    let center = set.box_center();
    let trace = cfg.telemetry.trace();
    let starts = snbc_par::par_map_collect(cfg.restarts, |r| {
        let mut rng = restart_rng(r);
        let mut x: Vec<f64> = if r == 0 {
            center.clone()
        } else {
            bounds.iter().map(|&(lo, hi)| rng.gen_range(lo..=hi)).collect()
        };
        let mut g = vec![0.0f64; n];
        let mut cand = vec![0.0f64; n];
        project(&mut x, set, &center);
        let (fx, steps_taken) = ascend(v, &grads, set, &center, cfg, &mut x, &mut g, &mut cand);
        // Emitted from the worker that ran this restart, so the Chrome
        // export shows each ascent trajectory on its worker's track.
        trace.ascent(r as u64, steps_taken, fx);
        (x, fx, steps_taken)
    });
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut total_steps: u64 = 0;
    for (x, fx, steps_taken) in starts {
        // Serial index-ascending fold over the already-ordered
        // par_map_collect output; u64 sum, order-free.
        // audit:allow(unordered-reduce)
        total_steps += steps_taken;
        if set.contains(&x) && best.as_ref().is_none_or(|(_, b)| fx > *b) {
            best = Some((x, fx));
        }
    }
    if cfg.telemetry.is_recording() {
        cfg.telemetry.add("restarts", cfg.restarts as u64);
        cfg.telemetry.add("ascent_steps", total_steps);
    }
    let (worst, violation) = best?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    if violation <= 0.0 {
        return None;
    }

    // Radius γ of (17): largest tested radius where sampled ball points
    // (intersected with the set) all still violate.
    let mut gamma: f64 = 0.0;
    let diag: f64 = bounds
        .iter()
        .map(|&(lo, hi)| (hi - lo) * (hi - lo))
        .sum::<f64>()
        .sqrt();
    let mut radius = diag / 64.0;
    while radius <= diag / 2.0 {
        let mut all_violate = true;
        let mut tested = 0;
        for _ in 0..4 * cfg.ball_samples {
            let p = sample_ball(&worst, radius, &mut rng, n);
            if !set.contains(&p) {
                continue;
            }
            tested += 1;
            if v.eval(&p) <= 0.0 {
                all_violate = false;
                break;
            }
            if tested >= cfg.ball_samples {
                break;
            }
        }
        if !all_violate {
            break;
        }
        gamma = radius;
        radius *= 2.0;
    }

    // Samples for the Learner: x* plus ball ∩ set points.
    let mut points = vec![worst.clone()];
    if gamma > 0.0 {
        let mut attempts = 0;
        while points.len() < cfg.ball_samples && attempts < 50 * cfg.ball_samples {
            attempts += 1;
            let p = sample_ball(&worst, gamma, &mut rng, n);
            if set.contains(&p) && v.eval(&p) > 0.0 {
                points.push(p);
            }
        }
    }

    if cfg.telemetry.is_recording() {
        cfg.telemetry.add("points", points.len() as u64);
        cfg.telemetry.gauge("gamma", gamma);
        cfg.telemetry.gauge("violation", violation);
    }
    Some(Counterexample {
        condition,
        worst,
        violation,
        gamma,
        points,
    })
}

/// One projected-gradient ascent trajectory, in place: `x` enters as the
/// start point and leaves as the best point found; `g`/`cand` are caller
/// scratch (gradient buffer, candidate point). `grads` are the precomputed
/// gradient polynomials of `v` (built once per search, not per step) and
/// `center` the precomputed box center for the projection retreat. Returns
/// the best violation value and the number of ascent steps taken.
// audit:hot
#[expect(
    clippy::too_many_arguments,
    reason = "hot kernel: the caller owns every buffer, so nothing is allocated per trajectory"
)]
fn ascend(
    v: &Polynomial,
    grads: &[Polynomial],
    set: &SemiAlgebraicSet,
    center: &[f64],
    cfg: &CexConfig,
    x: &mut Vec<f64>,
    g: &mut [f64],
    cand: &mut Vec<f64>,
) -> (f64, u64) {
    let mut step = cfg.step_size;
    let mut fx = v.eval(x);
    let mut steps_taken: u64 = 0;
    for _ in 0..cfg.steps {
        Polynomial::eval_gradient_into(grads, x, g);
        let gnorm = g.iter().map(|a| a * a).sum::<f64>().sqrt();
        if gnorm < 1e-12 {
            break;
        }
        steps_taken += 1;
        cand.clear();
        cand.extend(x.iter().zip(g.iter()).map(|(xi, gi)| xi + step * gi / gnorm));
        project(cand, set, center);
        let fc = v.eval(cand);
        if fc > fx {
            std::mem::swap(x, cand);
            fx = fc;
            step = (step * 1.3).min(1.0);
        } else {
            step *= 0.5;
            if step < 1e-9 {
                break;
            }
        }
    }
    (fx, steps_taken)
}

/// Clamps to the bounding box; if the semialgebraic constraints still fail,
/// retreats toward the precomputed box `center` (a cheap projection heuristic
/// adequate for the box/ball sets of the benchmark suite).
// audit:hot
fn project(x: &mut [f64], set: &SemiAlgebraicSet, center: &[f64]) {
    for (xi, &(lo, hi)) in x.iter_mut().zip(set.bounding_box()) {
        *xi = xi.clamp(lo, hi);
    }
    if set.contains(x) {
        return;
    }
    for _ in 0..40 {
        for (xi, c) in x.iter_mut().zip(center) {
            *xi = 0.9 * *xi + 0.1 * c;
        }
        if set.contains(x) {
            return;
        }
    }
}

fn sample_ball(center: &[f64], radius: f64, rng: &mut impl Rng, n: usize) -> Vec<f64> {
    // Uniform direction, radius^u^(1/n) magnitude.
    let dir: Vec<f64> = (0..n)
        .map(|_| {
            // Box–Muller for a normal sample.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            (-2.0 * u1.ln()).sqrt() * u2.cos()
        })
        .collect();
    let norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-12);
    let r = radius * rng.gen_range(0.0_f64..1.0).powf(1.0 / n as f64);
    center
        .iter()
        .zip(&dir)
        .map(|(c, d)| c + r * d / norm)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_global_max_of_concave_violation() {
        // v = 1 − (x−0.5)²: max at 0.5 with value 1.
        let set = SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]);
        let v: Polynomial = "1 - (x0 - 0.5)^2".parse().unwrap();
        let cex =
            find_counterexample(&v, &set, ViolatedCondition::Init, &CexConfig::default()).unwrap();
        assert!((cex.worst[0] - 0.5).abs() < 1e-3, "worst {:?}", cex.worst);
        assert!((cex.violation - 1.0).abs() < 1e-5);
        assert!(cex.gamma > 0.0);
    }

    #[test]
    fn no_counterexample_when_condition_holds() {
        let set = SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]);
        let v: Polynomial = "-1 - x0^2".parse().unwrap(); // always negative
        assert!(
            find_counterexample(&v, &set, ViolatedCondition::Flow, &CexConfig::default())
                .is_none()
        );
    }

    #[test]
    fn ball_points_stay_in_set_and_violate() {
        let set = SemiAlgebraicSet::ball(&[0.0, 0.0], 1.0);
        let v: Polynomial = "x0 - 0.2".parse().unwrap();
        let cex =
            find_counterexample(&v, &set, ViolatedCondition::Unsafe, &CexConfig::default())
                .unwrap();
        assert!(cex.violation > 0.5, "should approach the boundary max 0.8");
        for p in &cex.points {
            assert!(set.contains(p));
            assert!(v.eval(p) > 0.0);
        }
    }

    #[test]
    fn multimodal_violation_finds_a_peak() {
        // Two peaks at ±1; either is acceptable but the value must be near 1.
        let set = SemiAlgebraicSet::box_set(&[(-1.5, 1.5)]);
        let v: Polynomial = "x0^2*(2 - x0^2) - 0.5".parse().unwrap();
        let cex =
            find_counterexample(&v, &set, ViolatedCondition::Flow, &CexConfig::default()).unwrap();
        assert!((cex.violation - 0.5).abs() < 1e-3, "violation {}", cex.violation);
    }
}
