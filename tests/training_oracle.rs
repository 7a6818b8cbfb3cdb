//! Bitwise oracle for the two production training loops. `Learner::train`
//! takes each epoch's loss-(10) gradient from flat per-job kernels and
//! `train_controller` from flat backprop; both must leave exactly the
//! parameters the autodiff tape produced — the same bits, not merely close
//! ones — so that every certificate, round count and solver counter
//! downstream of training is unchanged. The tape loops below are the
//! reference implementations.

use rand::{Rng, SeedableRng};
use snbc::{Learner, LearnerConfig, TrainingSets};
use snbc_autodiff::{Tape, Var};
use snbc_dynamics::benchmarks;
use snbc_nn::{
    train_controller, Activation, Adam, ControllerTraining, Mlp, MultiplierNet, QuadraticNet,
};
use snbc_poly::Polynomial;

const EPOCHS: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Domain,
    Init,
    Unsafe,
}

/// What the reference run saw: the trained parameters (B then λ), the
/// returned loss, the epochs run, each epoch's per-sample hinge mass, and
/// how often each LeakyReLU branch was taken (`arg > 0`, `−ε ≤ leaky ≤ 0`,
/// floored).
struct TapeRun {
    params: Vec<f64>,
    loss: f64,
    epochs: usize,
    hinges: Vec<f64>,
    branches: [usize; 3],
}

/// The reference: `Learner::train` with each chunk job differentiated on
/// its own tape, as the learner did before its flat kernel.
fn tape_train(
    b_net: &QuadraticNet,
    lambda_net: &MultiplierNet,
    cfg: &LearnerConfig,
    closed_field: &[Polynomial],
    sigma_star: f64,
    sets: &TrainingSets,
) -> TapeRun {
    let n = closed_field.len();
    let nb = b_net.num_params();
    let np = nb + lambda_net.num_params();
    let mut params: Vec<f64> = b_net
        .params()
        .iter()
        .chain(lambda_net.params())
        .copied()
        .collect();
    let mut optimizer = Adam::new(np, cfg.learning_rate);
    let eval_at = |x: &[f64], w: f64| -> Vec<f64> {
        let mut xw = x[..n].to_vec();
        xw.push(w);
        closed_field.iter().map(|f| f.eval(&xw)).collect()
    };
    let field_lo: Vec<Vec<f64>> = sets
        .domain
        .iter()
        .map(|x| eval_at(x, -sigma_star))
        .collect();
    let field_hi: Vec<Vec<f64>> = sets.domain.iter().map(|x| eval_at(x, sigma_star)).collect();
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
    let epsilon = cfg.epsilon;
    let leaky_slope = cfg.leaky_slope;
    let (eta1, eta2, eta3) = cfg.weights;
    let scales = [
        eta1 / sets.domain.len().max(1) as f64,
        eta2 / sets.init.len().max(1) as f64,
        eta3 / sets.unsafe_.len().max(1) as f64,
    ];
    let mut branches = [0usize; 3];
    let mut hinges = Vec::new();
    let mut last_loss = f64::INFINITY;
    let mut epochs = 0;
    for _ in 0..cfg.epochs {
        let params_ref = &params;
        let run_job = |ji: usize| -> (f64, f64, Vec<f64>, [usize; 3]) {
            let (kind, lo, hi) = jobs[ji];
            let mut seen = [0usize; 3];
            let mut tape = Tape::with_capacity(1 << 13);
            let pvars: Vec<_> = params_ref.iter().map(|&p| tape.input(p)).collect();
            let (bp, lp) = pvars.split_at(nb);
            let mut hinge = 0.0f64;
            let mut loss = tape.constant(0.0);
            for s in lo..hi {
                let arg = match kind {
                    Kind::Domain => {
                        let (x, flo, fhi) = (&sets.domain[s], &field_lo[s], &field_hi[s]);
                        let (b, lie) =
                            match b_net.forward_and_lie2_tape(&mut tape, bp, &x[..n], flo, fhi) {
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
                        let xv_const: Vec<_> = x[..n].iter().map(|&v| tape.constant(v)).collect();
                        let lam = lambda_net.forward_tape(&mut tape, lp, &xv_const);
                        let lam_b = tape.mul(lam, b);
                        let margin = tape.sub(lie, lam_b);
                        let neg = tape.neg(margin);
                        tape.add_const(neg, epsilon)
                    }
                    Kind::Init => {
                        let x = &sets.init[s];
                        let xv: Vec<_> = x[..n].iter().map(|&v| tape.constant(v)).collect();
                        let b = b_net.forward_tape(&mut tape, bp, &xv);
                        let neg = tape.neg(b);
                        tape.add_const(neg, epsilon)
                    }
                    Kind::Unsafe => {
                        let x = &sets.unsafe_[s];
                        let xv: Vec<_> = x[..n].iter().map(|&v| tape.constant(v)).collect();
                        let b = b_net.forward_tape(&mut tape, bp, &xv);
                        tape.add_const(b, epsilon)
                    }
                };
                hinge += tape.value(arg).max(0.0);
                let pen = {
                    let leaky = tape.leaky_relu(arg, leaky_slope);
                    let floor = tape.constant(-epsilon);
                    tape.max(leaky, floor)
                };
                let (a, l) = (tape.value(arg), tape.value(pen));
                seen[if a > 0.0 {
                    0
                } else if l > -epsilon {
                    1
                } else {
                    2
                }] += 1;
                loss = tape.add(loss, pen);
            }
            let grads = tape.grad(loss, &pvars);
            let g: Vec<f64> = grads.iter().map(|&v| tape.value(v)).collect();
            (tape.value(loss), hinge, g, seen)
        };
        let results = snbc_par::par_map_collect(jobs.len(), run_job);
        let mut kind_sums = [0.0f64; 3];
        let mut hinge = 0.0f64;
        let mut g = vec![0.0f64; np];
        for (ji, (loss_sum, hinge_sum, grad, seen)) in results.iter().enumerate() {
            let (kind, _, _) = jobs[ji];
            kind_sums[kind as usize] += loss_sum;
            hinge += hinge_sum;
            let scale = scales[kind as usize];
            for (acc, gv) in g.iter_mut().zip(grad) {
                *acc += scale * gv;
            }
            for (b, s) in branches.iter_mut().zip(seen) {
                *b += s;
            }
        }
        let mut loss = kind_sums[Kind::Domain as usize] * scales[Kind::Domain as usize]
            + kind_sums[Kind::Init as usize] * scales[Kind::Init as usize]
            + kind_sums[Kind::Unsafe as usize] * scales[Kind::Unsafe as usize];
        if cfg.weight_decay > 0.0 {
            let mut reg = 0.0f64;
            for (gi, &p) in g.iter_mut().zip(params.iter()) {
                reg += p * p;
                *gi += cfg.weight_decay * (p + p);
            }
            loss += cfg.weight_decay * reg;
        }
        last_loss = loss;
        epochs += 1;
        hinges.push(hinge / (sets.len().max(1) as f64));
        if hinge / (sets.len().max(1) as f64) < cfg.loss_target {
            break;
        }
        optimizer.step(&mut params, &g);
    }
    TapeRun {
        params,
        loss: last_loss,
        epochs,
        hinges,
        branches,
    }
}

/// Trains through `Learner::train` and through the tape from the same
/// initialization, requires identical bits of every parameter and of the
/// returned loss, and hands back the reference run.
fn assert_matches_tape(
    what: &str,
    b_net: QuadraticNet,
    lambda_net: MultiplierNet,
    cfg: LearnerConfig,
    closed_field: &[Polynomial],
    sigma_star: f64,
    sets: &TrainingSets,
) -> TapeRun {
    let want = tape_train(&b_net, &lambda_net, &cfg, closed_field, sigma_star, sets);
    let init: Vec<f64> = b_net
        .params()
        .iter()
        .chain(lambda_net.params())
        .copied()
        .collect();
    let mut learner = Learner::new(b_net, lambda_net, cfg);
    let loss = learner.train(closed_field, sigma_star, sets);
    let got: Vec<f64> = learner
        .b_net()
        .params()
        .iter()
        .chain(learner.lambda_net().params())
        .copied()
        .collect();
    if want.epochs > 1 {
        assert_ne!(got, init, "{what}: training must move the parameters");
    }
    assert_eq!(got.len(), want.params.len());
    for (k, (g, w)) in got.iter().zip(&want.params).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: parameter {k} is {g:e}, the tape gives {w:e}"
        );
    }
    assert_eq!(
        loss.to_bits(),
        want.loss.to_bits(),
        "{what}: loss {loss:e}, the tape gives {:e}",
        want.loss
    );
    want
}

/// `count` samples per set drawn from the benchmark's sets.
fn sets_for(bench: usize, count: usize, seed: u64) -> TrainingSets {
    TrainingSets::sample(&benchmarks::benchmark(bench).system, count, seed)
}

/// Zeroes some coordinates of every third sample, with both signs, and puts
/// the origin (as `+0` and as `−0`) into each set: zero coordinates make zero
/// products whose signs the tape keeps, and the input-layer terms of a zero
/// `x` or field entry are left out. The origins sit mid-chunk, so later
/// samples have already started every gradient chain they join.
fn with_exact_zeros(mut sets: TrainingSets) -> TrainingSets {
    for set in [&mut sets.init, &mut sets.unsafe_, &mut sets.domain] {
        for (s, x) in set.iter_mut().enumerate() {
            if s % 3 == 0 {
                let i = s % x.len();
                x[i] = if s % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let n = set[0].len();
        set.insert(set.len() - 7, vec![0.0; n]);
        set.insert(set.len() - 20, vec![-0.0; n]);
    }
    sets
}

fn config(epochs: usize) -> LearnerConfig {
    LearnerConfig {
        epochs,
        ..Default::default()
    }
}

#[test]
fn low_dimensional_row_shapes_match_the_tape_bitwise() {
    // C3 (57 parameters: the tape's sparse sweep) and C4 (162: dense), with
    // and without a controller error bound σ*.
    for (bench, width) in [(3, 5), (4, 20)] {
        let b = benchmarks::benchmark(bench);
        let closed = b.system.close_loop_with_error(&"-0.5*x0".parse().unwrap());
        let sets = with_exact_zeros(sets_for(bench, 60, bench as u64));
        for sigma in [0.0, 0.05] {
            assert_matches_tape(
                &format!("C{bench}, sigma* = {sigma}"),
                QuadraticNet::new(2, &[width], 3),
                MultiplierNet::linear(2, &[5], 4),
                config(EPOCHS),
                &closed,
                sigma,
                &sets,
            );
        }
    }
}

#[test]
fn high_dimensional_row_shapes_match_the_tape_bitwise() {
    // C9 (n = 5, λ a linear [5, 5] network) and C10 (n = 6, constant λ).
    let c9 = benchmarks::benchmark(9);
    let closed = c9.system.close_loop_with_error(&"-0.5*x4".parse().unwrap());
    let sets = with_exact_zeros(sets_for(9, 50, 9));
    assert_matches_tape(
        "C9",
        QuadraticNet::new(5, &[10], 9),
        MultiplierNet::linear(5, &[5, 5], 10),
        config(EPOCHS),
        &closed,
        0.02,
        &sets,
    );
    let c10 = benchmarks::benchmark(10);
    let closed = c10
        .system
        .close_loop_with_error(&"-0.5*x5".parse().unwrap());
    let sets = with_exact_zeros(sets_for(10, 50, 10));
    assert_matches_tape(
        "C10",
        QuadraticNet::new(6, &[15], 10),
        MultiplierNet::constant(-0.5),
        config(EPOCHS),
        &closed,
        0.02,
        &sets,
    );
}

#[test]
fn every_leaky_relu_branch_matches_the_tape_bitwise() {
    // A steep slope puts the −ε floor within reach: samples land on all
    // three branches (violated, satisfied within ε/slope, floored).
    let b = benchmarks::benchmark(3);
    let closed = b.system.close_loop_with_error(&"-0.5*x0".parse().unwrap());
    let sets = sets_for(3, 60, 21);
    let cfg = LearnerConfig {
        epochs: EPOCHS,
        leaky_slope: 0.5,
        ..Default::default()
    };
    let run = assert_matches_tape(
        "three branches",
        QuadraticNet::new(2, &[5], 22),
        MultiplierNet::linear(2, &[5], 23),
        cfg,
        &closed,
        0.05,
        &sets,
    );
    assert!(
        run.branches.iter().all(|&c| c > 0),
        "branch counts {:?}: every branch must be exercised",
        run.branches
    );
}

#[test]
fn early_stopping_matches_the_tape_bitwise() {
    let b = benchmarks::benchmark(3);
    let closed = b.system.close_loop_with_error(&"-0.5*x0".parse().unwrap());
    let sets = sets_for(3, 60, 31);
    let net = || QuadraticNet::new(2, &[5], 32);
    let lam = || MultiplierNet::linear(2, &[5], 33);
    // The per-sample hinge mass of every epoch, from a run that never stops;
    // a target just under the best of the first k epochs stops the run at
    // the first later epoch that beats them.
    let never = LearnerConfig {
        epochs: EPOCHS,
        loss_target: f64::NEG_INFINITY,
        ..Default::default()
    };
    let full = tape_train(&net(), &lam(), &never, &closed, 0.05, &sets);
    let k = (2..EPOCHS - 1)
        .find(|&k| {
            full.hinges[k]
                < full.hinges[..k]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
        })
        .expect("the hinge mass improves on its running minimum after epoch 2");
    let best = full.hinges[..k]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let cfg = LearnerConfig {
        epochs: EPOCHS,
        loss_target: 0.5 * (full.hinges[k] + best),
        ..Default::default()
    };
    let run = assert_matches_tape("early stop", net(), lam(), cfg, &closed, 0.05, &sets);
    assert_eq!(run.epochs, k + 1, "the run must stop at epoch {k}");
}

#[test]
fn deep_barrier_kernel_matches_double_backprop() {
    // Two hidden layers: layer-wise tangent propagation against the tape's
    // double backprop of `adj_b·B + adj_lie·L_f B`, to 1e-10 relative.
    let net = QuadraticNet::new(3, &[4, 3], 41);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut state = vec![0.0; net.lie_state_len()];
    for trial in 0..6 {
        let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let f_lo: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let f_hi: Vec<f64> = if trial % 3 == 0 {
            f_lo.clone()
        } else {
            (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()
        };
        let (adj_b, adj_lie) = (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let (b, lie_lo, lie_hi) = net.eval_lie(net.params(), &x, &f_lo, &f_hi, &mut state);
        for hi in [false, true] {
            let field = if hi { &f_hi } else { &f_lo };
            let mut tape = Tape::new();
            let pv: Vec<Var> = net.params().iter().map(|&p| tape.input(p)).collect();
            let xv: Vec<Var> = x.iter().map(|&v| tape.input(v)).collect();
            let bv = net.forward_tape(&mut tape, &pv, &xv);
            let grad_b = tape.grad(bv, &xv);
            let mut lie = tape.constant(0.0);
            for (g, &f) in grad_b.iter().zip(field) {
                let t = tape.scale(*g, f);
                lie = tape.add(lie, t);
            }
            let tb = tape.scale(bv, adj_b);
            let tl = tape.scale(lie, adj_lie);
            let out = tape.add(tb, tl);
            let want: Vec<f64> = tape.grad(out, &pv).iter().map(|&v| tape.value(v)).collect();
            let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-10 * scale.max(1e-300);
            assert!(
                close(b, tape.value(bv), tape.value(bv).abs()),
                "B {b} vs {}",
                tape.value(bv)
            );
            let lie_k = if hi { lie_hi } else { lie_lo };
            assert!(
                close(lie_k, tape.value(lie), tape.value(lie).abs()),
                "Lie {lie_k} vs {}",
                tape.value(lie)
            );
            let mut got = vec![-0.0; net.num_params()];
            net.backprop_lie(
                net.params(),
                &x,
                field,
                hi,
                adj_b,
                adj_lie,
                &mut state,
                &mut got,
            );
            let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    close(*g, *w, scale),
                    "trial {trial}, hi {hi}: parameter {k} is {g:e}, the tape gives {w:e}"
                );
            }
        }
    }
}

/// The reference: `train_controller` with each epoch's gradient taken on a
/// tape, as the controller trainer did before its flat kernel.
fn tape_train_controller(
    domain: &[(f64, f64)],
    target: impl Fn(&[f64]) -> f64,
    cfg: &ControllerTraining,
) -> Mlp {
    let n = domain.len();
    let mut sizes = vec![n];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(1);
    let mut net = Mlp::new(&sizes, Activation::Tanh, cfg.seed);

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let xs: Vec<Vec<f64>> = (0..cfg.samples)
        .map(|_| {
            domain
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| target(x)).collect();

    let mut opt = Adam::new(net.num_params(), cfg.learning_rate);
    let mut params = net.params().to_vec();
    for _ in 0..cfg.epochs {
        let mut tape = Tape::with_capacity(64 * cfg.samples);
        let pv: Vec<_> = params.iter().map(|&p| tape.input(p)).collect();
        let mut loss = tape.constant(0.0);
        for (x, &y) in xs.iter().zip(&ys) {
            let xv: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
            net.set_params(&params);
            let pred = net.forward_tape(&mut tape, &pv, &xv);
            let err = tape.add_const(pred, -y);
            let sq = tape.mul(err, err);
            loss = tape.add(loss, sq);
        }
        let scale = 1.0 / cfg.samples as f64;
        let mut loss = tape.scale(loss, scale);
        if cfg.weight_decay > 0.0 {
            let mut reg = tape.constant(0.0);
            for &p in &pv {
                let sq = tape.mul(p, p);
                reg = tape.add(reg, sq);
            }
            let reg = tape.scale(reg, cfg.weight_decay);
            loss = tape.add(loss, reg);
        }
        let grads = tape.grad(loss, &pv);
        let g: Vec<f64> = grads.iter().map(|&v| tape.value(v)).collect();
        opt.step(&mut params, &g);
    }
    net.set_params(&params);
    net
}

#[test]
fn controller_training_matches_the_tape_bitwise() {
    let law = |x: &[f64]| {
        -x.iter()
            .enumerate()
            .map(|(i, v)| (i + 1) as f64 * v)
            .sum::<f64>()
    };
    let short = |hidden: Vec<usize>, weight_decay: f64| ControllerTraining {
        hidden,
        epochs: EPOCHS,
        samples: 64,
        weight_decay,
        ..Default::default()
    };
    // n = 1 and n = 2 (31 and 41 parameters: the tape's sparse sweep),
    // n = 5 (71: dense), two hidden layers, and no weight decay.
    for (n, cfg) in [
        (1, short(vec![10], 2e-3)),
        (2, short(vec![10], 2e-3)),
        (5, short(vec![10], 2e-3)),
        (2, short(vec![8, 4], 2e-3)),
        (2, short(vec![10], 0.0)),
    ] {
        let domain = vec![(-1.0, 1.0); n];
        let want = tape_train_controller(&domain, law, &cfg);
        let got = train_controller(&domain, law, &cfg);
        for (k, (g, w)) in got.params().iter().zip(want.params()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "n = {n}, hidden {:?}, decay {}: parameter {k} is {g:e}, the tape gives {w:e}",
                cfg.hidden,
                cfg.weight_decay
            );
        }
    }
}
