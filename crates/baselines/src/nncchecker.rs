//! NNCChecker-style synthesis: numerically fitted *polynomial* candidates,
//! verified with the dReal-substitute.
//!
//! NNCChecker [14] synthesizes polynomial barrier certificates of NN-controlled
//! systems by numerical (SOS-flavoured) optimization and certifies them with
//! dReal. Here the candidate is fitted by hinge-loss minimization directly in
//! the monomial-coefficient space (a convex surrogate of the same numerical
//! step), and verification/counterexamples come from the interval
//! branch-and-bound verifier.

use std::time::Duration;

use snbc_trace::Stopwatch;

use rand::Rng;
use rand::SeedableRng;
use snbc::cex::ViolatedCondition;
use snbc::PolynomialInclusion;
use snbc_dynamics::benchmarks::Benchmark;
use snbc_interval::BranchAndBound;
use snbc_poly::{monomial_basis, Monomial, Polynomial};

use crate::smt_verify::{verify_conditions, SmtOutcome};
use crate::SynthesisReport;

/// Configuration of the NNCChecker-style baseline.
#[derive(Debug, Clone)]
pub struct NncCheckerConfig {
    /// Degree of the polynomial candidate `B`.
    pub barrier_degree: u32,
    /// Fixed multiplier constant `λ` used in the flow condition fit.
    pub lambda: f64,
    /// Gradient steps per refinement round.
    pub fit_steps: usize,
    /// Learning rate of the coefficient fit.
    pub learning_rate: f64,
    /// Per-set sample count.
    pub batch: usize,
    /// Maximum refinement iterations.
    pub max_iterations: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// δ precision of the verifier.
    pub delta: f64,
    /// Box budget per verifier call.
    pub max_boxes: usize,
    /// Margin enforced during fitting.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NncCheckerConfig {
    fn default() -> Self {
        NncCheckerConfig {
            barrier_degree: 2,
            lambda: -0.5,
            fit_steps: 600,
            learning_rate: 0.05,
            batch: 300,
            max_iterations: 15,
            time_limit: Duration::from_secs(7200),
            delta: 1e-3,
            max_boxes: 20_000_000,
            epsilon: 0.05,
            seed: 11,
        }
    }
}

/// The NNCChecker-style synthesizer.
#[derive(Debug, Clone, Default)]
pub struct NncChecker {
    cfg: NncCheckerConfig,
}

impl NncChecker {
    /// Creates the baseline with the given configuration.
    pub fn new(cfg: NncCheckerConfig) -> Self {
        NncChecker { cfg }
    }

    /// Runs candidate-fit / verify / refine on a benchmark under the shared
    /// controller abstraction.
    pub fn synthesize(&self, bench: &Benchmark, inclusion: &PolynomialInclusion) -> SynthesisReport {
        let t0 = Stopwatch::start();
        let system = &bench.system;
        let n = system.nvars();
        let basis = monomial_basis(n, self.cfg.barrier_degree);
        let closed_robust = system.close_loop_with_error(&inclusion.h);
        let sigma = inclusion.sigma_star.max(1e-9);

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.cfg.seed);
        let mut init_pts = system.init().sample(self.cfg.batch, &mut rng);
        let mut unsafe_pts = system.unsafe_set().sample(self.cfg.batch, &mut rng);
        let mut domain_pts = system.domain().sample(self.cfg.batch, &mut rng);

        // Coefficients of B in the basis, random small init.
        let mut coeffs: Vec<f64> = (0..basis.len()).map(|_| rng.gen_range(-0.1..0.1)).collect();

        let mut t_learn = Duration::ZERO;
        let mut t_verify = Duration::ZERO;

        for iter in 1..=self.cfg.max_iterations {
            if t0.elapsed() > self.cfg.time_limit {
                return SynthesisReport::failed("NNCChecker", bench.name, iter - 1, t0.elapsed(), "OT");
            }
            let tl = Stopwatch::start();
            self.fit(
                &mut coeffs,
                &basis,
                &closed_robust,
                sigma,
                &init_pts,
                &unsafe_pts,
                &domain_pts,
            );
            t_learn += tl.elapsed();
            let b = Polynomial::from_coeffs(&coeffs, &basis).prune(1e-10);

            let tv = Stopwatch::start();
            let bb = BranchAndBound {
                delta: self.cfg.delta,
                max_boxes: self.cfg.max_boxes,
                ..Default::default()
            };
            let lambda = Polynomial::constant(self.cfg.lambda);
            let outcome = verify_conditions(&b, &lambda, system, sigma, &closed_robust, &bb);
            t_verify += tv.elapsed();
            match outcome {
                SmtOutcome::Certified => {
                    return SynthesisReport {
                        tool: "NNCChecker",
                        benchmark: bench.name.to_string(),
                        success: true,
                        barrier_degree: Some(b.degree()),
                        iterations: iter,
                        t_learn,
                        t_cex: Duration::ZERO,
                        t_verify,
                        t_total: t0.elapsed(),
                        barrier: Some(b),
                        failure: None,
                    };
                }
                SmtOutcome::Counterexamples(cexs) => {
                    for (kind, mut point) in cexs {
                        point.truncate(n);
                        match kind {
                            ViolatedCondition::Init => init_pts.push(point),
                            ViolatedCondition::Unsafe => unsafe_pts.push(point),
                            ViolatedCondition::Flow => domain_pts.push(point),
                        }
                    }
                }
                SmtOutcome::Timeout => {
                    return SynthesisReport::failed("NNCChecker", bench.name, iter, t0.elapsed(), "OT");
                }
                SmtOutcome::Undecided => {
                    return SynthesisReport::failed("NNCChecker", bench.name, iter, t0.elapsed(), "×");
                }
            }
        }
        SynthesisReport::failed(
            "NNCChecker",
            bench.name,
            self.cfg.max_iterations,
            t0.elapsed(),
            "×",
        )
    }

    /// Hinge-loss fit of the barrier coefficients (convex in the coefficients;
    /// plain subgradient descent).
    #[allow(clippy::too_many_arguments)]
    fn fit(
        &self,
        coeffs: &mut [f64],
        basis: &[Monomial],
        closed_robust: &[Polynomial],
        sigma: f64,
        init_pts: &[Vec<f64>],
        unsafe_pts: &[Vec<f64>],
        domain_pts: &[Vec<f64>],
    ) {
        let n = closed_robust.len();
        let eps = self.cfg.epsilon;
        let lam = self.cfg.lambda;
        // Precompute features and Lie features at samples.
        let feats = |x: &[f64]| -> Vec<f64> { basis.iter().map(|m| m.eval(x)).collect() };
        // Lie features: ∂(x^α)/∂xᵢ·fᵢ(x, w) at worst-case w — approximated by
        // evaluating at both w = ±σ and keeping both rows.
        let lie_feats = |x: &[f64], w: f64| -> Vec<f64> {
            let mut xw = x[..n].to_vec();
            xw.push(w);
            let f: Vec<f64> = closed_robust.iter().map(|p| p.eval(&xw)).collect();
            basis
                .iter()
                .map(|m| {
                    let mut acc = 0.0;
                    for i in 0..n {
                        if let Some((c, dm)) = m.derivative(i) {
                            acc += c * dm.eval(x) * f[i];
                        }
                    }
                    acc
                })
                .collect()
        };
        let init_f: Vec<Vec<f64>> = init_pts.iter().map(|x| feats(x)).collect();
        let unsafe_f: Vec<Vec<f64>> = unsafe_pts.iter().map(|x| feats(x)).collect();
        let dom_f: Vec<Vec<f64>> = domain_pts.iter().map(|x| feats(x)).collect();
        let dom_lo: Vec<Vec<f64>> = domain_pts.iter().map(|x| lie_feats(x, -sigma)).collect();
        let dom_hi: Vec<Vec<f64>> = domain_pts.iter().map(|x| lie_feats(x, sigma)).collect();

        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        for step in 0..self.cfg.fit_steps {
            let lr = self.cfg.learning_rate / (1.0 + 0.01 * step as f64);
            let mut grad = vec![0.0; coeffs.len()];
            // Init: want c·φ ≥ eps; hinge on eps − c·φ.
            for f in &init_f {
                if dot(coeffs, f) < eps {
                    for (g, fi) in grad.iter_mut().zip(f) {
                        *g -= fi;
                    }
                }
            }
            // Unsafe: want c·φ ≤ −eps.
            for f in &unsafe_f {
                if dot(coeffs, f) > -eps {
                    for (g, fi) in grad.iter_mut().zip(f) {
                        *g += fi;
                    }
                }
            }
            // Flow: want c·lie − λ·c·φ ≥ eps at both error extremes.
            for ((f, lo), hi) in dom_f.iter().zip(&dom_lo).zip(&dom_hi) {
                for lie in [lo, hi] {
                    let margin = dot(coeffs, lie) - lam * dot(coeffs, f);
                    if margin < eps {
                        for ((g, li), fi) in grad.iter_mut().zip(lie.iter()).zip(f) {
                            *g -= li - lam * fi;
                        }
                    }
                }
            }
            let total = init_f.len() + unsafe_f.len() + 2 * dom_f.len();
            for (c, g) in coeffs.iter_mut().zip(&grad) {
                *c -= lr * g / total as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;

    fn trivial_inclusion(law: &str) -> PolynomialInclusion {
        PolynomialInclusion {
            h: law.parse().unwrap(),
            sigma_tilde: 0.0,
            sigma_star: 0.0,
            lipschitz: 0.0,
            covering_radius: 0.0,
            mesh_points: 0,
        }
    }

    #[test]
    fn solves_small_benchmark() {
        let bench = benchmarks::benchmark(3);
        let report =
            NncChecker::new(NncCheckerConfig::default()).synthesize(&bench, &trivial_inclusion("-0.5*x0"));
        assert!(report.success, "NNCChecker failed: {:?}", report.failure);
        assert_eq!(report.barrier_degree, Some(2));
    }

    #[test]
    fn reports_timeout_with_tiny_budget() {
        let bench = benchmarks::benchmark(10); // 6-D
        let cfg = NncCheckerConfig {
            max_boxes: 1_000,
            fit_steps: 50,
            max_iterations: 2,
            ..Default::default()
        };
        let report = NncChecker::new(cfg).synthesize(&bench, &trivial_inclusion("-0.5*x5"));
        assert!(!report.success);
    }
}
