//! The CEGIS driver (Algorithm 1): Learner ⇄ Verifier with counterexample
//! feedback, plus the per-phase timing bookkeeping of Table 1.
//!
//! The loop is exposed at two granularities:
//!
//! * [`Snbc::synthesize`] — run Algorithm 1 to completion (the original
//!   one-shot API);
//! * [`CegisEngine`] — the same loop as a **resumable step-function**: each
//!   [`CegisEngine::step`] call executes exactly one CEGIS round (learn →
//!   verify → counterexamples) and reports a [`CegisStatus`]. This is the
//!   unit the `snbc-portfolio` racing driver interleaves: K candidate
//!   engines advance round-by-round in deterministic waves, and the first
//!   certifying candidate (lowest grid index on ties) wins. A paused engine
//!   holds no open resources beyond its telemetry span, so engines can be
//!   stepped from `snbc-par` workers (the engine is `Send`).

use std::time::Duration;

use snbc_trace::{Stopwatch, Trace};

use snbc_dynamics::benchmarks::{Benchmark, LambdaSpec};
use snbc_nn::Mlp;
use snbc_interval::{BranchAndBound, Verdict};
use snbc_poly::Polynomial;

use crate::cex::CexConfig;
use crate::theorem1::{Condition, Strictness, Theorem1, ViolatedCondition};
use crate::{
    ApproxOptions, Learner, LearnerConfig, PolynomialInclusion,
    SnbcError, TrainingSets, VerificationOutcome, Verifier, VerifierConfig,
};

/// Configuration of the full SNBC pipeline.
#[derive(Debug, Clone)]
pub struct SnbcConfig {
    /// Controller-abstraction options (§3).
    pub approx: ApproxOptions,
    /// Learner options (§4.1).
    pub learner: LearnerConfig,
    /// Verifier options (§4.2).
    pub verifier: VerifierConfig,
    /// Counterexample options (§4.3).
    pub cex: CexConfig,
    /// Initial per-set sample count (`|S_I| = |S_U| = |S_D|`).
    pub batch: usize,
    /// Maximum CEGIS iterations (`Iter` in Algorithm 1).
    pub max_iterations: usize,
    /// Wall-clock budget; exceeded ⇒ [`SnbcError::Timeout`] (the paper's OT
    /// at 7200 s).
    pub time_limit: Duration,
    /// After this many consecutive rounds in which verification failed but no
    /// counterexample existed (an SOS relaxation gap rather than a real
    /// violation), the networks are re-initialized with a fresh seed: the
    /// sample-feasible region contains many candidates and re-seeding moves
    /// the learner to a different — often certifiable — basin.
    pub reseed_after_plateau: usize,
    /// RNG seed for sampling and network initialization.
    pub seed: u64,
}

impl Default for SnbcConfig {
    fn default() -> Self {
        SnbcConfig {
            approx: ApproxOptions::default(),
            learner: LearnerConfig::default(),
            verifier: VerifierConfig::default(),
            cex: CexConfig::default(),
            batch: 300,
            max_iterations: 30,
            time_limit: Duration::from_secs(7200),
            reseed_after_plateau: 2,
            seed: 1,
        }
    }
}

/// Outcome of a successful synthesis run, including the Table 1 timing
/// columns.
#[derive(Debug, Clone)]
pub struct SnbcResult {
    /// The verified barrier certificate `B(x)`.
    pub barrier: Polynomial,
    /// The multiplier `λ(x)` solved by the flow LMI (15).
    pub lambda: Polynomial,
    /// The controller abstraction used (§3).
    pub inclusion: PolynomialInclusion,
    /// Final (successful) verification outcome with margins.
    pub verification: VerificationOutcome,
    /// CEGIS iterations used (`I_s`).
    pub iterations: usize,
    /// Learning time (`T_l`).
    pub t_learn: Duration,
    /// Counterexample-generation time (`T_c`).
    pub t_cex: Duration,
    /// Verification time (`T_v`).
    pub t_verify: Duration,
    /// End-to-end time (`T_e`), including the controller abstraction.
    pub t_total: Duration,
}

/// Result of one [`CegisEngine::step`].
///
/// Terminal states ([`Certified`](CegisStatus::Certified),
/// [`Exhausted`](CegisStatus::Exhausted),
/// [`TimedOut`](CegisStatus::TimedOut)) are sticky: further `step` calls
/// return the same status again without doing any work, so a racing driver
/// may keep a finished engine in its wave without special-casing it.
#[derive(Debug, Clone)]
pub enum CegisStatus {
    /// The round finished without a certificate; call `step` again.
    InProgress,
    /// A verified certificate was found this round.
    Certified(Box<SnbcResult>),
    /// The iteration budget (`Iter` in Algorithm 1) ran out.
    Exhausted {
        /// Rounds executed (`= max_iterations`).
        iterations: usize,
        /// Best worst-case LMI margin seen over all failed rounds.
        best_margin: f64,
    },
    /// The wall-clock budget tripped (the paper's OT).
    ///
    /// This status is inherently machine- and load-dependent: whether an
    /// engine trips it near `time_limit` depends on how fast the host is.
    /// The portfolio racer therefore neutralizes `time_limit` and budgets
    /// candidates by round count alone, so race outcomes stay bitwise
    /// deterministic; `TimedOut` is a solo-run (one-shot `synthesize`)
    /// contract.
    TimedOut {
        /// Elapsed seconds at the trip point.
        elapsed: f64,
    },
}

impl CegisStatus {
    /// Whether the status is terminal (anything but `InProgress`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, CegisStatus::InProgress)
    }

    /// Whether the status carries a verified certificate.
    pub fn is_certified(&self) -> bool {
        matches!(self, CegisStatus::Certified(_))
    }
}

/// The SNBC synthesizer (Algorithm 1).
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Snbc {
    cfg: SnbcConfig,
    telemetry: snbc_telemetry::Telemetry,
    progress: snbc_metrics::Progress,
    metrics: snbc_metrics::Metrics,
}

impl Snbc {
    /// Creates a synthesizer with the given configuration.
    pub fn new(cfg: SnbcConfig) -> Self {
        Snbc {
            cfg,
            telemetry: snbc_telemetry::Telemetry::off(),
            progress: snbc_metrics::Progress::off(),
            metrics: snbc_metrics::Metrics::off(),
        }
    }

    /// Attaches a telemetry sink and threads it through every pipeline stage
    /// (abstraction LP, learner, SDP verifier, counterexample search), so a
    /// recording run produces the full `snbc-run-report` span tree:
    /// `cegis → round → learn / verify {init,unsafe,flow → sdp} / cex {search-*}, approx → lp`.
    ///
    /// ```
    /// use snbc::{Snbc, SnbcConfig};
    /// use snbc_telemetry::Telemetry;
    ///
    /// let telemetry = Telemetry::recording();
    /// let _snbc = Snbc::new(SnbcConfig::default()).with_telemetry(telemetry.clone());
    /// // after `synthesize(..)`: telemetry.report() holds the span tree.
    /// ```
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: snbc_telemetry::Telemetry) -> Self {
        self.cfg.approx.telemetry = telemetry.clone();
        self.cfg.approx.lp.telemetry = telemetry.clone();
        self.cfg.learner.telemetry = telemetry.clone();
        self.cfg.verifier.solver.telemetry = telemetry.clone();
        self.cfg.cex.telemetry = telemetry.clone();
        self.telemetry = telemetry;
        self
    }

    /// Attaches a progress sink (replacing any earlier one): each
    /// [`CegisEngine::step`] emits `learn-epoch`, `verify-rung` (×3), and
    /// `round` events under the handle's scope, plus `interval-query`,
    /// `cex` and `reseed` on a failed round. See `snbc_metrics::progress`
    /// for the event vocabulary and the determinism contract.
    #[must_use]
    pub fn with_progress(mut self, progress: snbc_metrics::Progress) -> Self {
        self.progress = progress;
        self
    }

    /// Attaches a metric registry (replacing any earlier one). The engine
    /// sends the registry the same events as the progress sink — attached
    /// alone or next to one, in either order — and its snapshot folds them
    /// into `rounds`, `verify_rung_{feasible,infeasible}`, `cex_points`,
    /// `interval_fallbacks`, `boxes` (the δ-complete fallback oracle's
    /// boxes processed), `reseeds` and their histograms.
    #[must_use]
    pub fn with_metrics(mut self, metrics: snbc_metrics::Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SnbcConfig {
        &self.cfg
    }

    /// Builds a resumable [`CegisEngine`] for a benchmark with its
    /// pre-trained NN controller. The engine performs the §3 controller
    /// abstraction and network/sample initialization eagerly; each
    /// [`CegisEngine::step`] then runs one CEGIS round.
    ///
    /// # Errors
    ///
    /// * [`SnbcError::Approximation`] — the §3 LP failed.
    pub fn engine(&self, bench: &Benchmark, controller: &Mlp) -> Result<CegisEngine, SnbcError> {
        CegisEngine::new(
            self.cfg.clone(),
            self.telemetry.clone(),
            snbc_metrics::Progress::fanout(vec![self.progress.clone(), self.metrics.sink()]),
            bench,
            controller,
        )
    }

    /// Runs Algorithm 1 on a benchmark with its pre-trained NN controller.
    ///
    /// # Errors
    ///
    /// * [`SnbcError::Approximation`] — the §3 LP failed;
    /// * [`SnbcError::IterationsExhausted`] — no certificate within the
    ///   iteration budget;
    /// * [`SnbcError::Timeout`] — the wall-clock budget tripped (`OT`).
    pub fn synthesize(&self, bench: &Benchmark, controller: &Mlp) -> Result<SnbcResult, SnbcError> {
        let mut engine = self.engine(bench, controller)?;
        loop {
            match engine.step() {
                CegisStatus::InProgress => {}
                CegisStatus::Certified(result) => return Ok(*result),
                CegisStatus::Exhausted {
                    iterations,
                    best_margin,
                } => {
                    return Err(SnbcError::IterationsExhausted {
                        iterations,
                        best_margin,
                    })
                }
                CegisStatus::TimedOut { elapsed } => return Err(SnbcError::Timeout { elapsed }),
            }
        }
    }
}

/// Algorithm 1 as a resumable step-function.
///
/// Construction ([`Snbc::engine`]) performs everything Algorithm 1 does
/// before its loop: the §3 polynomial inclusion of the controller, network
/// initialization from the configured seed, initial sampling of the training
/// sets, and the high-dimensional Lyapunov warm start. Each
/// [`step`](CegisEngine::step) then
/// executes exactly one round — learner, LMI verifier, counterexample
/// feedback — and returns the resulting [`CegisStatus`].
///
/// The engine owns all of its state (no borrows of the benchmark), so many
/// engines can be driven concurrently from `snbc-par` workers; one engine's
/// round sequence is bitwise identical to the equivalent
/// [`Snbc::synthesize`] run at any thread count.
#[derive(Debug)]
pub struct CegisEngine {
    cfg: SnbcConfig,
    telemetry: snbc_telemetry::Telemetry,
    /// The progress stream and the metric registry, fanned out: the one
    /// place each round's facts are recorded.
    progress: snbc_metrics::Progress,
    /// The open `cegis` span; dropped (closed) at the first terminal status.
    run_span: Option<snbc_telemetry::SpanGuard>,
    t0: Stopwatch,
    system: snbc_dynamics::Ccds,
    nn_b_hidden: Vec<usize>,
    lambda_spec: LambdaSpec,
    inclusion: PolynomialInclusion,
    closed_nominal: Vec<Polynomial>,
    closed_robust: Vec<Polynomial>,
    learner: Learner,
    sets: TrainingSets,
    /// Per-round sample count (dimension-scaled; see `new`).
    batch: usize,
    t_learn: Duration,
    t_cex: Duration,
    t_verify: Duration,
    best_margin: f64,
    plateau: usize,
    rounds: usize,
    terminal: Option<CegisStatus>,
}

impl CegisEngine {
    fn new(
        cfg: SnbcConfig,
        telemetry: snbc_telemetry::Telemetry,
        progress: snbc_metrics::Progress,
        bench: &Benchmark,
        controller: &Mlp,
    ) -> Result<Self, SnbcError> {
        let t0 = Stopwatch::start();
        let tele = telemetry;
        let run_span = tele.span("cegis");
        if tele.is_recording() {
            tele.label("benchmark", bench.name);
            tele.gauge("threads", snbc_par::threads() as f64);
        }
        let system = &bench.system;
        let n = system.nvars();

        // Step 1 (§3): polynomial inclusion of the controller, with the
        // interval-certified error bound (tighter than the raw Theorem 2
        // Lipschitz gap, especially in high dimension).
        let inclusion =
            crate::approximate_mlp(controller, system.domain().bounding_box(), &cfg.approx)?;
        if tele.is_recording() {
            tele.gauge("sigma_star", inclusion.sigma_star);
        }

        // Step 2: initialize networks per the benchmark's Table 1 shapes.
        let mut learner = Learner::with_shapes(
            n,
            &bench.nn_b_hidden,
            &bench.lambda_spec,
            cfg.seed,
            cfg.learner.clone(),
        );
        // Sample counts scale with the dimension: the violating region of a
        // failing condition occupies an ever-smaller solid angle as n grows.
        let batch = cfg.batch + 50 * n;
        let sets = TrainingSets::sample(system, batch, cfg.seed + 2);
        let closed_nominal = system.close_loop(&inclusion.h);
        if n >= 6 {
            warm_start_lyapunov(&mut learner, system, &closed_nominal, &sets, &tele);
        }

        // Training and counterexample search both use the robust closed loop
        // with the error variable `w` in slot `n` (w = ±σ* extremes).
        let closed_robust = system.close_loop_with_error(&inclusion.h);

        Ok(CegisEngine {
            cfg,
            telemetry: tele,
            progress,
            run_span: Some(run_span),
            t0,
            system: system.clone(),
            nn_b_hidden: bench.nn_b_hidden.clone(),
            lambda_spec: bench.lambda_spec.clone(),
            inclusion,
            closed_nominal,
            closed_robust,
            learner,
            sets,
            batch,
            t_learn: Duration::ZERO,
            t_cex: Duration::ZERO,
            t_verify: Duration::ZERO,
            best_margin: f64::NEG_INFINITY,
            plateau: 0,
            rounds: 0,
            terminal: None,
        })
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SnbcConfig {
        &self.cfg
    }

    /// The §3 controller abstraction this engine verifies against.
    pub fn inclusion(&self) -> &PolynomialInclusion {
        &self.inclusion
    }

    /// Ends the run after `rounds` rounds: records `iterations` and
    /// `certified`, emits the final `round` event with status `label`,
    /// closes the run's span and pins the terminal status.
    fn finish(&mut self, rounds: usize, label: &str, status: CegisStatus) -> CegisStatus {
        if self.telemetry.is_recording() {
            self.telemetry.add("iterations", rounds as u64);
            self.telemetry.flag("certified", status.is_certified());
        }
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::Round {
                round: rounds as u64,
                status: label.to_string(),
            });
        }
        self.rounds = rounds;
        self.run_span = None;
        self.terminal = Some(status.clone());
        status
    }

    /// Executes one CEGIS round (steps 3–9 of Algorithm 1) and returns the
    /// resulting status. Terminal statuses are sticky — calling `step` on a
    /// finished engine returns the same status again without doing work.
    pub fn step(&mut self) -> CegisStatus {
        if let Some(t) = &self.terminal {
            return t.clone();
        }
        let tele = self.telemetry.clone();
        let iter = self.rounds + 1;
        if iter > self.cfg.max_iterations {
            let status = CegisStatus::Exhausted {
                iterations: self.cfg.max_iterations,
                best_margin: self.best_margin,
            };
            return self.finish(self.rounds, "exhausted", status);
        }
        if self.t0.elapsed() > self.cfg.time_limit {
            // Wall-clock trips are environment-dependent by nature, so this
            // `round` event only ever appears in solo (one-shot) streams: the
            // portfolio racer neutralizes `time_limit` entirely.
            let elapsed = self.t0.elapsed().as_secs_f64();
            return self.finish(self.rounds, "timed-out", CegisStatus::TimedOut { elapsed });
        }
        let round_span = tele.span_indexed("round", iter as u64);

        // Learner (step 3 / step 9).
        let tl = Stopwatch::start();
        let loss = self
            .learner
            .train(&self.closed_robust, self.inclusion.sigma_star, &self.sets);
        self.t_learn += tl.elapsed();
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::LearnEpoch {
                round: iter as u64,
                loss,
            });
        }
        let b = self.learner.barrier_polynomial().prune(1e-9);

        // Verifier (step 5). The multiplier degree follows the
        // benchmark's NN_λ(x) specification (Table 1): a constant
        // multiplier shrinks the flow certificate's basis — for the
        // high-dimensional rows this is the difference between a
        // 105-row and a 2380-row SDP.
        let mut vcfg = self.cfg.verifier.clone();
        if matches!(self.lambda_spec, LambdaSpec::Constant) {
            vcfg.lambda_degree = 0;
        }
        let outcome = Verifier::new(&self.system, &self.inclusion, vcfg).verify(&b);
        self.t_verify += outcome.total_time();
        for kind in ViolatedCondition::ALL {
            if self.progress.is_on() {
                let cond = outcome.get(kind);
                self.progress.emit(snbc_metrics::ProgressEvent::VerifyRung {
                    round: iter as u64,
                    rung: kind.name().to_string(),
                    feasible: cond.feasible,
                    margin: cond.margin,
                });
            }
        }

        if outcome.is_certified() {
            let lambda = outcome
                .flow
                .lambda
                .clone()
                .expect("feasible flow problem returns lambda");
            drop(round_span);
            let result = SnbcResult {
                barrier: b,
                lambda,
                inclusion: self.inclusion.clone(),
                verification: outcome,
                iterations: iter,
                t_learn: self.t_learn,
                t_cex: self.t_cex,
                t_verify: self.t_verify,
                t_total: self.t0.elapsed(),
            };
            return self.finish(iter, "certified", CegisStatus::Certified(Box::new(result)));
        }
        self.best_margin = self.best_margin.max(
            outcome
                .init
                .margin
                .min(outcome.unsafe_.margin)
                .min(outcome.flow.margin),
        );

        // Counterexamples (steps 7–8) for the conditions the LMIs refuted.
        let tc = Stopwatch::start();
        let cex_span = tele.span("cex");
        // λ enters the flow condition only.
        let lambda = if outcome.flow.feasible {
            Polynomial::zero()
        } else {
            self.learner.lambda_polynomial()
        };
        let theorem = Theorem1::new(
            &self.system,
            &b,
            &lambda,
            &self.closed_robust,
            self.inclusion.sigma_star,
            Strictness::SEARCH,
        );
        let refuted: Vec<Condition> =
            outcome.failed().map(|kind| theorem.condition(kind)).collect();
        let n = self.system.nvars();
        let mut cfg = self.cfg.cex.clone();
        cfg.seed = self.cfg.cex.seed + iter as u64;
        let mut added = 0;
        for condition in &refuted {
            if let Some(cex) = condition.search(&cfg) {
                added += cex.points.len();
                // Flow points drop the error coordinate `w`.
                self.sets.of_mut(condition.kind).extend(cex.points.into_iter().map(|mut p| {
                    p.truncate(n);
                    p
                }));
            }
        }
        let interval_fallback = added == 0;
        if interval_fallback {
            // Gradient ascent found no violating sample although SOS
            // verification failed: fall back to the δ-complete interval
            // oracle, which finds true violations (or certifies there are
            // none, in which case the failure is a relaxation gap and
            // fresh samples sharpen the candidate's margins). A query that
            // exhausts its box budget counts as no violation.
            let bb = BranchAndBound {
                delta: 1e-3,
                max_boxes: 200_000,
                ..Default::default()
            };
            for condition in &refuted {
                let r = condition.check(&bb, &Trace::off());
                if self.progress.is_on() {
                    self.progress.emit(snbc_metrics::ProgressEvent::IntervalQuery {
                        round: iter as u64,
                        rung: condition.kind.name().to_string(),
                        boxes: r.boxes_processed as u64,
                    });
                }
                if let Verdict::Violated { mut witness, .. } = r.verdict {
                    witness.truncate(n);
                    self.sets.of_mut(condition.kind).push(witness);
                    added += 1;
                }
            }
        }
        if tele.is_recording() {
            tele.add("points", added as u64);
            tele.flag("interval_fallback", interval_fallback);
        }
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::Cex {
                round: iter as u64,
                points: added as u64,
                interval_fallback,
            });
        }
        drop(cex_span);
        self.t_cex += tc.elapsed();
        if added == 0 {
            self.plateau += 1;
            if self.plateau >= self.cfg.reseed_after_plateau {
                // Relaxation-gap plateau: restart the learner in a fresh
                // basin (new initialization + fresh samples).
                self.plateau = 0;
                tele.add("reseeds", 1);
                if self.progress.is_on() {
                    self.progress
                        .emit(snbc_metrics::ProgressEvent::Reseed { round: iter as u64 });
                }
                let reseed = self.cfg.seed + 1000 * iter as u64;
                self.learner = Learner::with_shapes(
                    n,
                    &self.nn_b_hidden,
                    &self.lambda_spec,
                    reseed,
                    self.cfg.learner.clone(),
                );
                self.sets = TrainingSets::sample(&self.system, self.batch, reseed + 2);
                if n >= 6 {
                    warm_start_lyapunov(
                        &mut self.learner,
                        &self.system,
                        &self.closed_nominal,
                        &self.sets,
                        &tele,
                    );
                }
            } else {
                let extra = TrainingSets::sample(
                    &self.system,
                    self.cfg.batch / 4,
                    self.cfg.seed + 100 + iter as u64,
                );
                self.sets.init.extend(extra.init);
                self.sets.unsafe_.extend(extra.unsafe_);
                self.sets.domain.extend(extra.domain);
            }
        } else {
            self.plateau = 0;
        }
        self.rounds = iter;
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::Round {
                round: iter as u64,
                status: "in-progress".to_string(),
            });
        }
        CegisStatus::InProgress
    }
}

/// Epochs of the Lyapunov warm start's regression.
const WARM_START_EPOCHS: usize = 80;

/// Seeds the learner with the Lyapunov-shaped candidate `1 − xᵀPx/β`, where
/// `P` solves `AᵀP + PA = −I` for the linearized closed loop `A` — the
/// canonical member of the S-procedure-certifiable basin for contractive
/// systems (the high-dimensional Table 1 rows). Falls back to a sphere when
/// the linearization is not Hurwitz. Recorded as a `warm-start` span with
/// `epochs` and `samples` counters.
fn warm_start_lyapunov(
    learner: &mut Learner,
    system: &snbc_dynamics::Ccds,
    closed_nominal: &[Polynomial],
    sets: &TrainingSets,
    tele: &snbc_telemetry::Telemetry,
) {
    let _span = tele.span("warm-start");
    let n = system.nvars();
    let quad: Polynomial = match lyapunov_quadratic(closed_nominal, n) {
        Some(p_mat) => {
            let mut q = Polynomial::zero();
            for i in 0..n {
                for j in 0..n {
                    // Sparse skip: exact zero means the entry is absent.
                    if p_mat[(i, j)] != 0.0 {
                        let m = snbc_poly::Monomial::var(i).mul(&snbc_poly::Monomial::var(j));
                        q.add_term(p_mat[(i, j)], m);
                    }
                }
            }
            q
        }
        None => {
            let mut q = Polynomial::zero();
            for i in 0..n {
                q.add_term(1.0, snbc_poly::Monomial::var(i).mul(&snbc_poly::Monomial::var(i)));
            }
            q
        }
    };
    // Level β: safely below the quadratic's value on Ξ, above it on Θ.
    let min_xi = sets
        .unsafe_
        .iter()
        .map(|x| quad.eval(x))
        .fold(f64::INFINITY, f64::min);
    let max_theta = sets
        .init
        .iter()
        .map(|x| quad.eval(x))
        .fold(0.0f64, f64::max);
    let beta = if min_xi > max_theta {
        0.5 * (min_xi + max_theta)
    } else {
        0.7 * min_xi
    };
    if !(beta > 0.0) {
        return; // degenerate geometry; leave the random initialization
    }
    // Normalize so B(0-ish) ≈ 1: target = 1 − quad/β.
    let target = &Polynomial::constant(1.0) - &quad.scale(1.0 / beta);
    let samples: Vec<Vec<f64>> = sets
        .domain
        .iter()
        .chain(&sets.init)
        .chain(&sets.unsafe_)
        .cloned()
        .collect();
    learner.warm_start(&target, &samples, WARM_START_EPOCHS);
    if tele.is_recording() {
        tele.add("epochs", WARM_START_EPOCHS as u64);
        tele.add("samples", samples.len() as u64);
    }
}

/// Solves the Lyapunov equation `AᵀP + PA = −I` for the linear part `A` of
/// the closed-loop field (evaluated at the origin, `w = 0`), via the
/// Kronecker-vectorized `n² × n²` linear system. Returns `None` when the
/// system is singular (non-Hurwitz linearization).
fn lyapunov_quadratic(closed_nominal: &[Polynomial], n: usize) -> Option<snbc_linalg::Matrix> {
    use snbc_linalg::Matrix;
    // A[i][j] = coefficient of x_j in f_i (linear part only).
    let a = Matrix::from_fn(n, n, |i, j| {
        closed_nominal[i].coeff(&snbc_poly::Monomial::var(j))
    });
    // (Iⁿ ⊗ Aᵀ + Aᵀ ⊗ Iⁿ)·vec(P) = −vec(I), with vec column-major:
    // vec index (i, j) ↦ j·n + i.
    let dim = n * n;
    let mut big = Matrix::zeros(dim, dim);
    for i in 0..n {
        for j in 0..n {
            let row = j * n + i;
            // (AᵀP)_{ij} = Σ_k A_{ki} P_{kj}.
            for k in 0..n {
                big[(row, j * n + k)] += a[(k, i)];
                // (PA)_{ij} = Σ_k P_{ik} A_{kj}.
                big[(row, k * n + i)] += a[(k, j)];
            }
        }
    }
    let mut rhs = vec![0.0; dim];
    for i in 0..n {
        rhs[i * n + i] = -1.0;
    }
    let sol = big.solve(&rhs).ok()?;
    let mut p = Matrix::from_fn(n, n, |i, j| sol[j * n + i]);
    p.symmetrize();
    // Sanity: P must be positive definite for a Hurwitz A.
    if p.min_eigenvalue().ok()? <= 0.0 {
        return None;
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;
    use snbc_nn::{train_controller, ControllerTraining};

    /// End-to-end on the easiest 2-D benchmark; this is the crate's core
    /// acceptance test.
    #[test]
    fn synthesizes_certificate_for_c3() {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        let cfg = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let result = Snbc::new(cfg).synthesize(&bench, &controller).expect("certificate");
        assert!(result.verification.is_certified());
        assert!(result.barrier.nvars() <= 2);
        // The certificate separates: positive somewhere on Θ samples,
        // negative on Ξ samples.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for x in bench.system.init().sample(20, &mut rng) {
            assert!(result.barrier.eval(&x) >= -1e-6, "B < 0 on Θ at {x:?}");
        }
        for x in bench.system.unsafe_set().sample(20, &mut rng) {
            assert!(result.barrier.eval(&x) < 0.0, "B ≥ 0 on Ξ at {x:?}");
        }
    }

    /// The step-function exposes the same run round-by-round: stepping an
    /// engine to completion must produce the same certificate as the
    /// one-shot driver, and terminal statuses must be sticky.
    #[test]
    fn engine_steps_match_one_shot_synthesis() {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        let cfg = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let one_shot = Snbc::new(cfg.clone())
            .synthesize(&bench, &controller)
            .expect("certificate");
        let mut engine = Snbc::new(cfg).engine(&bench, &controller).expect("engine");
        let stepped = loop {
            match engine.step() {
                CegisStatus::InProgress => {}
                CegisStatus::Certified(result) => break *result,
                other => panic!("expected certification, got {other:?}"),
            }
        };
        assert_eq!(stepped.iterations, one_shot.iterations);
        assert_eq!(engine.rounds(), stepped.iterations);
        assert_eq!(stepped.barrier, one_shot.barrier);
        assert_eq!(stepped.lambda, one_shot.lambda);
        // Sticky terminal: stepping again returns Certified without work.
        assert!(engine.step().is_certified());
    }

    /// A registry attached alone — without a stream — folds the same events
    /// as one attached next to a stream, in either order.
    #[test]
    fn registry_alone_folds_the_events_a_stream_carries() {
        use snbc_metrics::{Metrics, Progress};
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        let cfg = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let snapshot = |attach: &dyn Fn(Snbc, Metrics) -> Snbc| {
            let metrics = Metrics::recording();
            let result = attach(Snbc::new(cfg.clone()), metrics.clone())
                .synthesize(&bench, &controller)
                .expect("certificate");
            let snap = metrics.snapshot(true);
            assert_eq!(snap.counter("rounds"), result.iterations as u64);
            snap.to_json_string()
        };
        let writer = || Progress::writer(Box::new(std::io::sink()), true);
        let alone = snapshot(&|snbc, m| snbc.with_metrics(m));
        assert_eq!(alone, snapshot(&|snbc, m| snbc.with_progress(writer()).with_metrics(m)));
        assert_eq!(alone, snapshot(&|snbc, m| snbc.with_metrics(m).with_progress(writer())));
    }

    /// A round whose interval fallback finds no violation is a relaxation
    /// gap; with `reseed_after_plateau: 1` it restarts the learner and
    /// records one `reseed` event. On C6 at seed 5 that happens in round 3,
    /// after the fallback exhausts its 200 000-box budget on the flow
    /// condition.
    #[test]
    fn a_round_without_counterexamples_reseeds() {
        let bench = benchmarks::benchmark(6);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining::default(),
        );
        let cfg = SnbcConfig {
            seed: 5,
            max_iterations: 3,
            reseed_after_plateau: 1,
            ..Default::default()
        };
        let metrics = snbc_metrics::Metrics::recording();
        let outcome = Snbc::new(cfg)
            .with_metrics(metrics.clone())
            .synthesize(&bench, &controller);
        assert!(matches!(
            outcome,
            Err(SnbcError::IterationsExhausted { iterations: 3, .. })
        ));
        let snap = metrics.snapshot(true);
        assert_eq!(snap.counter("rounds"), 3);
        assert_eq!(snap.counter("interval_fallbacks"), 1);
        assert_eq!(snap.counter("boxes"), 200_000);
        assert_eq!(snap.counter("reseeds"), 1);
    }
}
