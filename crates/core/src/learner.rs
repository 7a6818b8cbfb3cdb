//! The Learner of §4.1: joint training of the quadratic network `B(x)` and
//! the multiplier network `λ(x)` with the LeakyReLU surrogate of loss (10).

use rand::SeedableRng;
use snbc_dynamics::benchmarks::LambdaSpec;
use snbc_dynamics::Ccds;
use snbc_nn::{Adam, MultiplierNet, QuadraticNet};
use snbc_poly::Polynomial;

use crate::theorem1::ViolatedCondition;

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

    /// The set a condition's samples belong to: `S_I`, `S_U` or `S_D`.
    pub fn of_mut(&mut self, kind: ViolatedCondition) -> &mut Vec<Vec<f64>> {
        match kind {
            ViolatedCondition::Init => &mut self.init,
            ViolatedCondition::Unsafe => &mut self.unsafe_,
            ViolatedCondition::Flow => &mut self.domain,
        }
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

/// Samples per chunk job. The job grid depends only on the sample counts,
/// never on the worker count.
const CHUNK: usize = 32;

/// Deterministic index-ordered reduction of one epoch's per-job rows
/// `[loss_sum, hinge_sum, gradient…]` (see [`Loss10::run_job`]) into the
/// per-kind loss sums, the hinge mass, and the reused gradient buffer `g`
/// (zeroed here, not reallocated — this runs every epoch). Job order is fixed
/// by the chunk grid, so the fold never depends on the thread count.
// audit:hot
fn reduce_epoch(
    jobs: &[(Kind, usize, usize)],
    rows: &[Vec<f64>],
    scales: [f64; 3],
    kind_sums: &mut [f64; 3],
    g: &mut [f64],
) -> f64 {
    let mut hinge = 0.0f64;
    *kind_sums = [0.0; 3];
    g.fill(0.0);
    let np = g.len();
    for (&(kind, _, _), row) in jobs.iter().zip(rows) {
        kind_sums[kind as usize] += row[0];
        hinge += row[1];
        let scale = scales[kind as usize];
        for (acc, gv) in g.iter_mut().zip(&row[2..2 + np]) {
            *acc += scale * gv;
        }
    }
    hinge
}

/// The loss-(10) surrogate over one epoch's chunk jobs: the networks, the
/// samples and the field values at `w = ∓σ*`, shared read-only by every job.
struct Loss10<'a> {
    b_net: &'a QuadraticNet,
    lambda_net: &'a MultiplierNet,
    sets: &'a TrainingSets,
    field_lo: &'a [Vec<f64>],
    field_hi: &'a [Vec<f64>],
    n: usize,
    epsilon: f64,
    leaky_slope: f64,
}

impl Loss10<'_> {
    /// Length of a job's row: the penalty sum and hinge mass, the gradient,
    /// then the networks' scratch.
    fn row_len(&self) -> usize {
        2 + self.b_net.num_params()
            + self.lambda_net.num_params()
            + self.b_net.lie_state_len()
            + self.lambda_net.state_len()
    }

    /// The penalty `max{leaky(arg), −ε}` and, unless the `−ε` floor wins,
    /// the adjoint `d ∈ {1, slope}` it sends back to `arg`. The floor
    /// saturates the LeakyReLU reward once a condition holds with margin, so
    /// the optimizer cannot "win" by inflating the scale of `B`.
    fn penalty(&self, arg: f64) -> (f64, Option<f64>) {
        let leaky = if arg > 0.0 { arg } else { self.leaky_slope * arg };
        let floor = -self.epsilon;
        let d = if arg > 0.0 { 1.0 } else { self.leaky_slope };
        (leaky.max(floor), (leaky >= floor).then_some(d))
    }

    /// One chunk job: writes the unscaled penalty sum, the hinge mass and the
    /// parameter gradient of the job's partial loss into `row` (layout of
    /// [`Loss10::row_len`]).
    ///
    /// The result is bit-identical to recording the job's samples on an
    /// autodiff tape (`QuadraticNet::forward_and_lie2_tape` on Ψ,
    /// `forward_tape` on Θ and Ξ) and sweeping it in reverse, because the
    /// floating-point operations are the tape's, in its order: the sums run
    /// over samples in order, every gradient chain starts at `−0.0` and takes
    /// the samples last to first, a penalty's adjoint is exactly 1, and
    /// `min`/`max` route ties to their first operand.
    // audit:hot
    fn run_job(&self, params: &[f64], (kind, lo, hi): (Kind, usize, usize), row: &mut [f64]) {
        let n = self.n;
        let nb = self.b_net.num_params();
        let (sums, rest) = row.split_at_mut(2);
        let (grad, scratch) = rest.split_at_mut(nb + self.lambda_net.num_params());
        let (b_state, l_state) = scratch.split_at_mut(self.b_net.lie_state_len());
        let (bp, lp) = params.split_at(nb);
        grad.fill(-0.0);
        let (bg, lg) = grad.split_at_mut(nb);
        // Per-sample penalty and hinge terms, summed in sample order below.
        let mut pens = [0.0f64; CHUNK];
        let mut hinges = [0.0f64; CHUNK];
        for s in (lo..hi).rev() {
            let k = s - lo;
            match kind {
                Kind::Domain => {
                    let x = &self.sets.domain[s][..n];
                    let (flo, fhi) = (&self.field_lo[s][..], &self.field_hi[s][..]);
                    // Condition (iii): L_f B − λB > 0 at the worse of the two
                    // error extremes; penalize ε − (L_f B − λB).
                    let (b, lie_lo, lie_hi) = self.b_net.eval_lie(bp, x, flo, fhi, b_state);
                    // `min` routes ties to its first operand.
                    let lo_branch = lie_lo <= lie_hi;
                    let lie = lie_lo.min(lie_hi);
                    let lam = self.lambda_net.eval_state(lp, x, l_state);
                    let arg = -(lie - lam * b) + self.epsilon;
                    hinges[k] = arg.max(0.0);
                    let (pen, d) = self.penalty(arg);
                    pens[k] = pen;
                    if let Some(d) = d {
                        // The margin gets −d: λ takes d·B, B takes d·λ, and
                        // the Lie term −d.
                        self.lambda_net.backprop_state(lp, x, d * b, l_state, lg);
                        let f = if lo_branch { flo } else { fhi };
                        self.b_net
                            .backprop_lie(bp, x, f, !lo_branch, d * lam, -d, b_state, bg);
                    }
                }
                Kind::Init | Kind::Unsafe => {
                    // Condition (i): B ≥ 0 on Θ, penalize ε − B; condition
                    // (ii): B < 0 on Ξ, penalize ε + B.
                    let init = kind == Kind::Init;
                    let x = if init { &self.sets.init[s] } else { &self.sets.unsafe_[s] };
                    let x = &x[..n];
                    let state = &mut b_state[..self.b_net.state_len()];
                    let b = self.b_net.eval_state(bp, x, state);
                    let arg = if init { -b } else { b } + self.epsilon;
                    hinges[k] = arg.max(0.0);
                    let (pen, d) = self.penalty(arg);
                    pens[k] = pen;
                    if let Some(d) = d {
                        let adj = if init { -d } else { d };
                        self.b_net.backprop_state(bp, x, adj, state, bg);
                    }
                }
            }
        }
        let (mut loss_sum, mut hinge) = (0.0f64, 0.0f64);
        for k in 0..hi - lo {
            loss_sum += pens[k];
            hinge += hinges[k];
        }
        sums[0] = loss_sum;
        sums[1] = hinge;
    }
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
    /// Early-stop when the mean hinge mass `Σ max(arg, 0) / |S|` over all
    /// samples falls below this value, where `arg` is a sample's violation
    /// of its condition in loss (10) (`ε − B` on Θ, `ε + B` on Ξ,
    /// `ε − (L_f B − λB)` on Ψ). It is checked before each epoch's Adam step.
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

    /// A learner over fresh networks of a benchmark's Table 1 shapes: `B`
    /// with hidden widths `b_hidden` initialized from `seed`, and `λ` per
    /// `lambda` (the constant −0.5, or a net initialized from `seed + 1`).
    pub fn with_shapes(
        n: usize,
        b_hidden: &[usize],
        lambda: &LambdaSpec,
        seed: u64,
        cfg: LearnerConfig,
    ) -> Self {
        let lambda_net = match lambda {
            LambdaSpec::Constant => MultiplierNet::constant(-0.5),
            LambdaSpec::Linear(hidden) => MultiplierNet::linear(n, hidden, seed + 1),
        };
        Learner::new(QuadraticNet::new(n, b_hidden, seed), lambda_net, cfg)
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
        // job writes the unscaled penalty sum, the hinge mass, and the
        // parameter gradient of its partial loss into its own row; the
        // per-kind sums and the gradient are then reduced serially in job
        // order, so every epoch is bitwise identical at any thread count.
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

        let loss10 = Loss10 {
            b_net: &self.b_net,
            lambda_net: &self.lambda_net,
            sets,
            field_lo: &field_lo,
            field_hi: &field_hi,
            n,
            epsilon: self.cfg.epsilon,
            leaky_slope: self.cfg.leaky_slope,
        };
        let (eta1, eta2, eta3) = self.cfg.weights;
        let scale_of = |kind: Kind| match kind {
            Kind::Domain => eta1 / sets.domain.len().max(1) as f64,
            Kind::Init => eta2 / sets.init.len().max(1) as f64,
            Kind::Unsafe => eta3 / sets.unsafe_.len().max(1) as f64,
        };

        let mut last_loss = f64::INFINITY;
        let mut last_grad_norm = f64::NAN;
        let trace = self.cfg.telemetry.trace().clone();
        // Epoch-loop buffers, allocated once: the job kernel and
        // `reduce_epoch` are `audit:hot` and must stay allocation-free.
        let scales = [
            scale_of(Kind::Domain),
            scale_of(Kind::Init),
            scale_of(Kind::Unsafe),
        ];
        let mut kind_sums = [0.0f64; 3];
        let mut g = vec![0.0f64; np];
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0f64; loss10.row_len()]; jobs.len()];
        for epoch in 0..self.cfg.epochs {
            let params_ref = &params;
            snbc_par::par_for_each_mut(&mut rows, |ji, row| loss10.run_job(params_ref, jobs[ji], row));
            let hinge = reduce_epoch(&jobs, &rows, scales, &mut kind_sums, &mut g);
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
