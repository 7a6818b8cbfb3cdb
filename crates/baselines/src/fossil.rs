//! FOSSIL-style CEGIS: neural learner + SMT-style (δ-complete interval)
//! verifier.
//!
//! FOSSIL [1] trains a neural barrier certificate and certifies it with an
//! SMT solver, feeding SMT counterexamples back into training. The verifier
//! here is the interval branch-and-bound of [`snbc_interval`] — the same
//! δ-decision procedure family as dReal, with the same exponential
//! sensitivity to the state dimension that Table 1 exposes (`OT` for
//! `n_x ≥ 5`).

use std::time::Duration;

use snbc_trace::Stopwatch;

use snbc::{Learner, LearnerConfig, PolynomialInclusion, TrainingSets};
use snbc_dynamics::benchmarks::Benchmark;
use snbc_interval::BranchAndBound;

use crate::smt_verify::{verify_conditions, SmtOutcome};
use crate::SynthesisReport;

/// Configuration of the FOSSIL-style baseline.
#[derive(Debug, Clone)]
pub struct FossilConfig {
    /// Learner hyper-parameters (shared shape with SNBC's learner).
    pub learner: LearnerConfig,
    /// Per-set sample count.
    pub batch: usize,
    /// Maximum CEGIS iterations.
    pub max_iterations: usize,
    /// Wall-clock budget (the paper's 7200 s `OT` limit).
    pub time_limit: Duration,
    /// δ precision of the SMT-style verifier.
    pub delta: f64,
    /// Box budget per verifier call (the in-simulator stand-in for solver
    /// wall-clock: when exhausted the verdict is Unknown and the run aborts
    /// as a timeout, mirroring dReal giving up).
    pub max_boxes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FossilConfig {
    fn default() -> Self {
        FossilConfig {
            learner: LearnerConfig::default(),
            batch: 300,
            max_iterations: 20,
            time_limit: Duration::from_secs(7200),
            delta: 1e-3,
            max_boxes: 20_000_000,
            seed: 5,
        }
    }
}

/// The FOSSIL-style synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Fossil {
    cfg: FossilConfig,
}

impl Fossil {
    /// Creates the baseline with the given configuration.
    pub fn new(cfg: FossilConfig) -> Self {
        Fossil { cfg }
    }

    /// Runs the CEGIS loop on a benchmark under the controller abstraction
    /// `u = h(x) + w` (shared with SNBC so the comparison isolates the
    /// verifier technology).
    pub fn synthesize(&self, bench: &Benchmark, inclusion: &PolynomialInclusion) -> SynthesisReport {
        let t0 = Stopwatch::start();
        let system = &bench.system;
        let n = system.nvars();

        let mut learner = Learner::with_shapes(
            n,
            &bench.nn_b_hidden,
            &bench.lambda_spec,
            self.cfg.seed,
            self.cfg.learner.clone(),
        );
        let mut sets = TrainingSets::sample(system, self.cfg.batch, self.cfg.seed + 2);
        let closed_robust = system.close_loop_with_error(&inclusion.h);

        let mut t_learn = Duration::ZERO;
        let mut t_verify = Duration::ZERO;

        for iter in 1..=self.cfg.max_iterations {
            if t0.elapsed() > self.cfg.time_limit {
                return SynthesisReport::failed("FOSSIL", bench.name, iter - 1, t0.elapsed(), "OT");
            }
            let tl = Stopwatch::start();
            learner.train(&closed_robust, inclusion.sigma_star, &sets);
            t_learn += tl.elapsed();
            let b = learner.barrier_polynomial().prune(1e-9);
            let lambda = learner.lambda_polynomial();

            let tv = Stopwatch::start();
            let bb = BranchAndBound {
                delta: self.cfg.delta,
                max_boxes: self.cfg.max_boxes,
                ..Default::default()
            };
            let verdicts = verify_conditions(
                &b,
                &lambda,
                system,
                inclusion.sigma_star,
                &closed_robust,
                &bb,
            );
            t_verify += tv.elapsed();
            match verdicts {
                SmtOutcome::Certified => {
                    return SynthesisReport {
                        tool: "FOSSIL",
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
                    // Each SMT witness seeds a small jittered cloud so the
                    // learner feels the violated region, not a single point.
                    use rand::Rng;
                    use rand::SeedableRng;
                    let mut rng =
                        rand::rngs::StdRng::seed_from_u64(self.cfg.seed ^ (iter as u64) << 8);
                    for (kind, mut point) in cexs {
                        point.truncate(n);
                        let set = kind.set(system);
                        let mut cloud = vec![point.clone()];
                        let scale = 0.03;
                        for _ in 0..8 {
                            let jit: Vec<f64> = point
                                .iter()
                                .zip(set.bounding_box())
                                .map(|(&p, &(lo, hi))| {
                                    (p + rng.gen_range(-scale..scale) * (hi - lo)).clamp(lo, hi)
                                })
                                .collect();
                            if set.contains(&jit) {
                                cloud.push(jit);
                            }
                        }
                        sets.of_mut(kind).extend(cloud);
                    }
                }
                SmtOutcome::Timeout => {
                    return SynthesisReport::failed("FOSSIL", bench.name, iter, t0.elapsed(), "OT");
                }
                SmtOutcome::Undecided => {
                    return SynthesisReport::failed("FOSSIL", bench.name, iter, t0.elapsed(), "×");
                }
            }
        }
        SynthesisReport::failed(
            "FOSSIL",
            bench.name,
            self.cfg.max_iterations,
            t0.elapsed(),
            "iterations exhausted",
        )
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
        let inclusion = trivial_inclusion("-0.5*x0");
        let cfg = FossilConfig {
            max_iterations: 12,
            time_limit: Duration::from_secs(300),
            ..Default::default()
        };
        let report = Fossil::new(cfg).synthesize(&bench, &inclusion);
        assert!(report.success, "FOSSIL failed: {:?}", report.failure);
        assert_eq!(report.tool, "FOSSIL");
        assert!(report.barrier.is_some());
    }

    #[test]
    fn times_out_with_tiny_box_budget() {
        let bench = benchmarks::benchmark(9); // 5-D: box budget explodes
        let inclusion = trivial_inclusion("-0.5*x4");
        let cfg = FossilConfig {
            max_iterations: 3,
            max_boxes: 2_000,
            time_limit: Duration::from_secs(60),
            learner: LearnerConfig {
                epochs: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = Fossil::new(cfg).synthesize(&bench, &inclusion);
        assert!(!report.success);
        assert_eq!(report.failure.as_deref(), Some("OT"));
    }
}
