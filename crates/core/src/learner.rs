//! The Learner of §4.1: joint training of the quadratic network `B(x)` and
//! the multiplier network `λ(x)` with the LeakyReLU surrogate of loss (10).

use rand::SeedableRng;
use snbc_autodiff::Tape;
use snbc_dynamics::Ccds;
use snbc_nn::{Adam, MultiplierNet, QuadraticNet};
use snbc_poly::Polynomial;

/// The three sample sets `S_I`, `S_U`, `S_D` (from `Θ`, `Ξ`, `Ψ`), grown by
/// counterexample feedback.
#[derive(Debug, Clone, Default)]
pub struct TrainingSets {
    /// Samples from the initial set `Θ`.
    pub init: Vec<Vec<f64>>,
    /// Samples from the unsafe region `Ξ`.
    pub unsafe_: Vec<Vec<f64>>,
    /// Samples from the domain `Ψ`.
    pub domain: Vec<Vec<f64>>,
}

impl TrainingSets {
    /// Draws `batch` fresh samples from each of the system's three sets (the
    /// paper starts with equally sized sets, `|S_I| = |S_U| = |S_D|`).
    pub fn sample(system: &Ccds, batch: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TrainingSets {
            init: system.init().sample(batch, &mut rng),
            unsafe_: system.unsafe_set().sample(batch, &mut rng),
            domain: system.domain().sample(batch, &mut rng),
        }
    }

    /// Total number of stored samples.
    pub fn len(&self) -> usize {
        self.init.len() + self.unsafe_.len() + self.domain.len()
    }

    /// `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which sample set a chunk job draws from (scales index into the
/// `(η₁, η₂, η₃)` weights by this discriminant).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Domain,
    Init,
    Unsafe,
}

/// Deterministic index-ordered reduction of one epoch's per-job
/// `(loss_sum, hinge_sum, gradient)` results into the per-kind loss sums,
/// the hinge mass, and the reused gradient buffer `g` (zeroed here, not
/// reallocated — this runs every epoch). Job order is fixed by the chunk
/// grid, so the fold never depends on the thread count.
// audit:hot
fn reduce_epoch(
    jobs: &[(Kind, usize, usize)],
    results: &[(f64, f64, Vec<f64>)],
    scales: [f64; 3],
    kind_sums: &mut [f64; 3],
    g: &mut [f64],
) -> f64 {
    let mut hinge = 0.0f64;
    *kind_sums = [0.0; 3];
    g.fill(0.0);
    for (ji, (loss_sum, hinge_sum, grad)) in results.iter().enumerate() {
        let (kind, _, _) = jobs[ji];
        kind_sums[kind as usize] += loss_sum; // audit:allow(unordered-reduce) — serial index-ascending fold
        hinge += hinge_sum; // audit:allow(unordered-reduce) — same fold, fixed order
        let scale = scales[kind as usize];
        for (acc, gv) in g.iter_mut().zip(grad) {
            *acc += scale * gv; // audit:allow(unordered-reduce) — same fold, fixed order
        }
    }
    hinge
}

/// Hyper-parameters of the Learner (loss (10)).
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Epochs per CEGIS round.
    pub epochs: usize,
    /// Strictness offset `ε` in the loss.
    pub epsilon: f64,
    /// LeakyReLU negative-side slope for the `max{ε, ·}` surrogate.
    pub leaky_slope: f64,
    /// Loss weights `(η₁, η₂, η₃)` for the domain/init/unsafe terms.
    pub weights: (f64, f64, f64),
    /// Early-stop when the loss falls below this value.
    pub loss_target: f64,
    /// L2 regularization on the network parameters. Necessary because the
    /// LeakyReLU surrogate of `max{ε, ·}` is unbounded below: without decay
    /// the optimizer can "improve" the loss forever by inflating the scale
    /// of `B` instead of fixing violations.
    pub weight_decay: f64,
    /// Telemetry sink. When recording, [`Learner::train`] emits a `"learn"`
    /// span with epoch/Adam-step counters and the final loss (10).
    pub telemetry: snbc_telemetry::Telemetry,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            learning_rate: 0.02,
            epochs: 300,
            epsilon: 0.05,
            leaky_slope: 0.01,
            weights: (1.0, 1.0, 1.0),
            loss_target: 1e-4,
            weight_decay: 1e-3,
            telemetry: snbc_telemetry::Telemetry::off(),
        }
    }
}

/// Joint trainer for the neural barrier candidate and multiplier (§4.1).
///
/// # Example
///
/// ```no_run
/// use snbc::{Learner, LearnerConfig, TrainingSets};
/// use snbc_dynamics::benchmarks;
/// use snbc_nn::{MultiplierNet, QuadraticNet};
///
/// let bench = benchmarks::benchmark(3);
/// let closed = bench.system.close_loop(&"-0.5*x0".parse().unwrap());
/// let mut learner = Learner::new(
///     QuadraticNet::new(2, &[5], 1),
///     MultiplierNet::linear(2, &[5], 2),
///     LearnerConfig::default(),
/// );
/// let mut sets = TrainingSets::sample(&bench.system, 200, 3);
/// let loss = learner.train(&closed, 0.0, &sets);
/// assert!(loss.is_finite());
/// # let _ = &mut sets;
/// ```
#[derive(Debug)]
pub struct Learner {
    b_net: QuadraticNet,
    lambda_net: MultiplierNet,
    cfg: LearnerConfig,
    optimizer: Adam,
}

impl Learner {
    /// Creates a learner over the given networks.
    pub fn new(b_net: QuadraticNet, lambda_net: MultiplierNet, cfg: LearnerConfig) -> Self {
        let dim = b_net.num_params() + lambda_net.num_params();
        let optimizer = Adam::new(dim, cfg.learning_rate);
        Learner {
            b_net,
            lambda_net,
            cfg,
            optimizer,
        }
    }

    /// The barrier candidate network.
    pub fn b_net(&self) -> &QuadraticNet {
        &self.b_net
    }

    /// The multiplier network.
    pub fn lambda_net(&self) -> &MultiplierNet {
        &self.lambda_net
    }

    /// Extracts the current candidate `B̃(x)` as a polynomial.
    pub fn barrier_polynomial(&self) -> Polynomial {
        self.b_net.to_polynomial()
    }

    /// Extracts the current multiplier `λ̃(x)` as a polynomial.
    pub fn lambda_polynomial(&self) -> Polynomial {
        self.lambda_net.to_polynomial()
    }

    /// Pre-trains the barrier network toward a target polynomial by plain
    /// regression: `epochs` full-batch Adam steps (learning rate 0.05) on
    /// `Σ (B(x) − target(x))²` over `samples`, with this learner's optimizer
    /// state reset afterwards. The CEGIS driver calls it on n ≥ 6 rows with
    /// the target `1 − xᵀPx/β`: `P` solves `AᵀP + PA = −I` for the
    /// linearized nominal closed loop `A` (`P = I`, a sphere, when that
    /// linearization is not Hurwitz), and the level `β` lies between the
    /// quadratic's values on the samples of Θ and those on Ξ. The barrier
    /// loss then fine-tunes margins.
    ///
    /// Each epoch's gradient comes from
    /// [`QuadraticNet::squared_error_gradient`], bit-identical to
    /// differentiating the summed loss on an autodiff tape.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn warm_start(&mut self, target: &Polynomial, samples: &[Vec<f64>], epochs: usize) {
        assert!(!samples.is_empty(), "cannot warm-start without samples");
        let nb = self.b_net.num_params();
        let mut params: Vec<f64> = self.b_net.params().to_vec();
        let mut opt = Adam::new(nb, 0.05);
        let ys: Vec<f64> = samples.iter().map(|x| target.eval(x)).collect();
        let mut state = vec![0.0; self.b_net.state_len()];
        let mut grad = vec![0.0; nb];
        for _ in 0..epochs {
            self.b_net
                .squared_error_gradient(&params, samples, &ys, &mut state, &mut grad);
            opt.step(&mut params, &grad);
        }
        self.b_net.set_params(&params);
        self.optimizer.reset();
    }

    /// Runs up to `cfg.epochs` Adam steps of loss (10) on the given closed
    /// loop field. `closed_field` may reference the controller-error variable
    /// `w` in slot `n` (from [`snbc_dynamics::Ccds::close_loop_with_error`]);
    /// the Lie-derivative penalty is then taken against the *worst* of
    /// `w = ±σ*`, so the learner optimizes the robust condition the verifier
    /// will check. Returns the final loss.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty or sample dimensions mismatch the field.
    pub fn train(&mut self, closed_field: &[Polynomial], sigma_star: f64, sets: &TrainingSets) -> f64 {
        assert!(!sets.is_empty(), "cannot train on empty sample sets");
        let _span = self.cfg.telemetry.span("learn");
        if self.cfg.telemetry.is_recording() {
            self.cfg
                .telemetry
                .label("workers", &snbc_par::threads().to_string());
        }
        let mut epochs_run: u64 = 0;
        let mut adam_steps: u64 = 0;
        let n = closed_field.len();
        let nb = self.b_net.num_params();
        let nl = self.lambda_net.num_params();
        let np = nb + nl;
        let mut params: Vec<f64> = self
            .b_net
            .params()
            .iter()
            .chain(self.lambda_net.params())
            .copied()
            .collect();

        // Precompute field values at the domain samples for the two extreme
        // controller errors w = ±σ* (the field is affine in w, so these
        // bracket the Lie derivative; with σ* = 0 both coincide). The field
        // itself is fixed during training; only B and λ are differentiated.
        let eval_at = |x: &[f64], w: f64| -> Vec<f64> {
            let mut xw = x[..n].to_vec();
            xw.push(w);
            closed_field.iter().map(|f| f.eval(&xw)).collect()
        };
        let field_lo: Vec<Vec<f64>> =
            snbc_par::par_map_collect(sets.domain.len(), |i| eval_at(&sets.domain[i], -sigma_star));
        let field_hi: Vec<Vec<f64>> =
            snbc_par::par_map_collect(sets.domain.len(), |i| eval_at(&sets.domain[i], sigma_star));

        // The epoch's batch is split into fixed-size chunk jobs — the grid
        // depends only on the sample counts, never on the worker count. Each
        // job builds its own small tape over its samples and returns the
        // unscaled penalty sum, the hinge mass, and the parameter gradient of
        // its partial loss; the per-kind sums and the gradient are then
        // reduced serially in job order, so every epoch is bitwise identical
        // at any thread count.
        const CHUNK: usize = 32;
        let mut jobs: Vec<(Kind, usize, usize)> = Vec::new();
        for (kind, len) in [
            (Kind::Domain, sets.domain.len()),
            (Kind::Init, sets.init.len()),
            (Kind::Unsafe, sets.unsafe_.len()),
        ] {
            let mut lo = 0;
            while lo < len {
                let hi = (lo + CHUNK).min(len);
                jobs.push((kind, lo, hi));
                lo = hi;
            }
        }

        let b_net = &self.b_net;
        let lambda_net = &self.lambda_net;
        let epsilon = self.cfg.epsilon;
        let leaky_slope = self.cfg.leaky_slope;
        let (eta1, eta2, eta3) = self.cfg.weights;
        let scale_of = |kind: Kind| match kind {
            Kind::Domain => eta1 / sets.domain.len().max(1) as f64,
            Kind::Init => eta2 / sets.init.len().max(1) as f64,
            Kind::Unsafe => eta3 / sets.unsafe_.len().max(1) as f64,
        };

        let mut last_loss = f64::INFINITY;
        let mut last_grad_norm = f64::NAN;
        let trace = self.cfg.telemetry.trace().clone();
        // Epoch-loop buffers, allocated once: `reduce_epoch` is `audit:hot`
        // and must stay allocation-free per epoch.
        let scales = [
            scale_of(Kind::Domain),
            scale_of(Kind::Init),
            scale_of(Kind::Unsafe),
        ];
        let mut kind_sums = [0.0f64; 3];
        let mut g = vec![0.0f64; np];
        for epoch in 0..self.cfg.epochs {
            let params_ref = &params;
            let run_job = |ji: usize| -> (f64, f64, Vec<f64>) {
                let (kind, lo, hi) = jobs[ji];
                let mut tape = Tape::with_capacity(1 << 13);
                let pvars: Vec<_> = params_ref.iter().map(|&p| tape.input(p)).collect();
                let (bp, lp) = pvars.split_at(nb);
                let mut hinge = 0.0f64;
                let mut loss = tape.constant(0.0);
                for s in lo..hi {
                    let arg = match kind {
                        Kind::Domain => {
                            let (x, flo, fhi) = (&sets.domain[s], &field_lo[s], &field_hi[s]);
                            // L_f B = Σ ∂B/∂xᵢ · fᵢ(x, w) at both error
                            // extremes; the robust condition uses the worse
                            // one. Single-hidden-layer networks take the
                            // analytic formula-(9) fast path (no per-sample
                            // backward pass on the tape).
                            let (b, lie) = match b_net
                                .forward_and_lie2_tape(&mut tape, bp, &x[..n], flo, fhi)
                            {
                                Some((b, lie_lo, lie_hi)) => (b, tape.min(lie_lo, lie_hi)),
                                None => {
                                    let xv: Vec<_> =
                                        x[..n].iter().map(|&v| tape.input(v)).collect();
                                    let b = b_net.forward_tape(&mut tape, bp, &xv);
                                    let grad_b = tape.grad(b, &xv);
                                    let mut lie_lo = tape.constant(0.0);
                                    let mut lie_hi = tape.constant(0.0);
                                    for ((g, &fl), &fh) in grad_b.iter().zip(flo).zip(fhi) {
                                        let tl = tape.scale(*g, fl);
                                        lie_lo = tape.add(lie_lo, tl);
                                        let th = tape.scale(*g, fh);
                                        lie_hi = tape.add(lie_hi, th);
                                    }
                                    (b, tape.min(lie_lo, lie_hi))
                                }
                            };
                            let xv_const: Vec<_> =
                                x[..n].iter().map(|&v| tape.constant(v)).collect();
                            let lam = lambda_net.forward_tape(&mut tape, lp, &xv_const);
                            let lam_b = tape.mul(lam, b);
                            // Condition (iii): L_f B − λB > 0; penalize
                            // ε − (L_f B − λB).
                            let margin = tape.sub(lie, lam_b);
                            let neg = tape.neg(margin);
                            tape.add_const(neg, epsilon)
                        }
                        Kind::Init => {
                            let x = &sets.init[s];
                            let xv: Vec<_> = x[..n].iter().map(|&v| tape.constant(v)).collect();
                            let b = b_net.forward_tape(&mut tape, bp, &xv);
                            // Condition (i): B ≥ 0 on Θ; penalize ε − B.
                            let neg = tape.neg(b);
                            tape.add_const(neg, epsilon)
                        }
                        Kind::Unsafe => {
                            let x = &sets.unsafe_[s];
                            let xv: Vec<_> = x[..n].iter().map(|&v| tape.constant(v)).collect();
                            let b = b_net.forward_tape(&mut tape, bp, &xv);
                            // Condition (ii): B < 0 on Ξ; penalize ε + B.
                            tape.add_const(b, epsilon)
                        }
                    };
                    hinge += tape.value(arg).max(0.0);
                    let pen = {
                        // max{ε, ·} saturates once the condition holds with
                        // margin; clamp the LeakyReLU reward accordingly so
                        // the optimizer cannot "win" by inflating the scale
                        // of B.
                        let leaky = tape.leaky_relu(arg, leaky_slope);
                        let floor = tape.constant(-epsilon);
                        tape.max(leaky, floor)
                    };
                    loss = tape.add(loss, pen);
                }
                let grads = tape.grad(loss, &pvars);
                let g: Vec<f64> = grads.iter().map(|&v| tape.value(v)).collect();
                (tape.value(loss), hinge, g)
            };
            let results = snbc_par::par_map_collect(jobs.len(), run_job);
            let hinge = reduce_epoch(&jobs, &results, scales, &mut kind_sums, &mut g);
            let mut loss = kind_sums[Kind::Domain as usize] * scales[Kind::Domain as usize]
                + kind_sums[Kind::Init as usize] * scales[Kind::Init as usize]
                + kind_sums[Kind::Unsafe as usize] * scales[Kind::Unsafe as usize];
            if self.cfg.weight_decay > 0.0 {
                let mut reg = 0.0f64;
                for (gi, &p) in g.iter_mut().zip(params.iter()) {
                    reg += p * p;
                    // d/dp of wd·Σp² — folded analytically into the reduced
                    // gradient.
                    *gi += self.cfg.weight_decay * (p + p);
                }
                loss += self.cfg.weight_decay * reg;
            }
            #[cfg(feature = "sanitize")]
            snbc_linalg::sanitize::check_finite("learner reduced gradient", &g);
            last_loss = loss;
            last_grad_norm = g.iter().map(|v| v * v).sum::<f64>().sqrt();
            trace.epoch(epoch as u64, loss, last_grad_norm);
            epochs_run += 1;
            // Early stop on the *per-sample* hinge mass (the LeakyReLU
            // surrogate can go negative once all conditions hold with margin,
            // which says nothing about remaining violations).
            if hinge / (sets.len().max(1) as f64) < self.cfg.loss_target {
                break;
            }
            self.optimizer.step(&mut params, &g);
            adam_steps += 1;
        }
        self.b_net.set_params(&params[..nb]);
        self.lambda_net.set_params(&params[nb..nb + nl]);
        if self.cfg.telemetry.is_recording() {
            self.cfg.telemetry.add("epochs", epochs_run);
            self.cfg.telemetry.add("adam_steps", adam_steps);
            self.cfg.telemetry.gauge("final_loss", last_loss);
            self.cfg.telemetry.gauge("grad_norm", last_grad_norm);
        }
        last_loss
    }

    /// Empirical violation counts of the three barrier conditions on the
    /// sample sets (robust Lie condition at `w = ±σ*`) — a cheap health check
    /// before invoking the verifier.
    pub fn violations(
        &self,
        closed_field: &[Polynomial],
        sigma_star: f64,
        sets: &TrainingSets,
    ) -> (usize, usize, usize) {
        let n = closed_field.len();
        let b = self.barrier_polynomial();
        let lam = self.lambda_polynomial();
        let lie = snbc_poly::lie_derivative(&b, closed_field);
        let vi = sets.init.iter().filter(|x| b.eval(x) < 0.0).count();
        let vu = sets.unsafe_.iter().filter(|x| b.eval(x) >= 0.0).count();
        let lie_at = |x: &[f64], w: f64| {
            let mut xw = x[..n].to_vec();
            xw.push(w);
            lie.eval(&xw)
        };
        let vd = sets
            .domain
            .iter()
            .filter(|x| {
                let worst = lie_at(x, -sigma_star).min(lie_at(x, sigma_star));
                worst - lam.eval(x) * b.eval(x) <= 0.0
            })
            .count();
        (vi, vu, vd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;

    #[test]
    fn training_reduces_loss_on_simple_system() {
        let bench = benchmarks::benchmark(3);
        let closed = bench.system.close_loop(&"-0.5*x0".parse().unwrap());
        let mut learner = Learner::new(
            QuadraticNet::new(2, &[5], 1),
            MultiplierNet::linear(2, &[5], 2),
            LearnerConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let sets = TrainingSets::sample(&bench.system, 100, 3);
        let first = learner.train(&closed, 0.0, &sets);
        let mut learner2 = Learner::new(
            QuadraticNet::new(2, &[5], 1),
            MultiplierNet::linear(2, &[5], 2),
            LearnerConfig {
                epochs: 200,
                ..Default::default()
            },
        );
        let second = learner2.train(&closed, 0.0, &sets);
        assert!(
            second < first || second < 1e-3,
            "200 epochs ({second}) should beat 5 epochs ({first})"
        );
    }

    #[test]
    fn trained_candidate_separates_sets_empirically() {
        let bench = benchmarks::benchmark(3);
        let closed = bench.system.close_loop(&"-0.5*x0".parse().unwrap());
        let mut learner = Learner::new(
            QuadraticNet::new(2, &[5], 1),
            MultiplierNet::linear(2, &[5], 2),
            LearnerConfig {
                epochs: 400,
                ..Default::default()
            },
        );
        let sets = TrainingSets::sample(&bench.system, 150, 5);
        learner.train(&closed, 0.0, &sets);
        let (vi, vu, _vd) = learner.violations(&closed, 0.0, &sets);
        assert!(
            vi + vu <= 15,
            "too many sign violations after training: init {vi}, unsafe {vu}"
        );
    }

    #[test]
    fn sample_sets_have_requested_sizes() {
        let bench = benchmarks::benchmark(1);
        let sets = TrainingSets::sample(&bench.system, 32, 1);
        assert_eq!(sets.init.len(), 32);
        assert_eq!(sets.unsafe_.len(), 32);
        assert_eq!(sets.domain.len(), 32);
        assert_eq!(sets.len(), 96);
    }

    #[test]
    #[should_panic(expected = "empty sample sets")]
    fn empty_sets_panic() {
        let bench = benchmarks::benchmark(1);
        let closed = bench.system.close_loop(&Polynomial::zero());
        let mut learner = Learner::new(
            QuadraticNet::new(2, &[5], 1),
            MultiplierNet::constant(0.0),
            LearnerConfig::default(),
        );
        learner.train(&closed, 0.0, &TrainingSets::default());
    }
}
