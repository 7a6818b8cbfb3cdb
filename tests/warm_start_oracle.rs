//! Bitwise oracle for the Lyapunov warm start. `Learner::warm_start` takes
//! its gradients from the flat kernel `QuadraticNet::squared_error_gradient`
//! and must leave exactly the parameters the autodiff tape produced — the
//! same bits, not merely close ones — so that every certificate, round count
//! and solver counter downstream of a warm start is unchanged. The tape
//! regression below is the reference implementation.

use rand::{Rng, SeedableRng};
use snbc::{Learner, LearnerConfig};
use snbc_autodiff::Tape;
use snbc_nn::{Adam, MultiplierNet, QuadraticNet};
use snbc_poly::{Monomial, Polynomial};

const SAMPLES: usize = 128;
const EPOCHS: usize = 10;

/// The reference: `epochs` Adam steps (learning rate 0.05) on the squared
/// error summed over the samples, each gradient taken on a fresh tape.
fn tape_warm_start(
    net: &QuadraticNet,
    target: &Polynomial,
    samples: &[Vec<f64>],
    epochs: usize,
) -> Vec<f64> {
    let mut params = net.params().to_vec();
    let mut opt = Adam::new(params.len(), 0.05);
    let ys: Vec<f64> = samples.iter().map(|x| target.eval(x)).collect();
    for _ in 0..epochs {
        let mut tape = Tape::new();
        let pv: Vec<_> = params.iter().map(|&p| tape.input(p)).collect();
        let mut loss = tape.constant(0.0);
        for (x, &y) in samples.iter().zip(&ys) {
            let xv: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
            let out = net.forward_tape(&mut tape, &pv, &xv);
            let e = tape.add_const(out, -y);
            let sq = tape.mul(e, e);
            loss = tape.add(loss, sq);
        }
        let g = tape.grad(loss, &pv);
        let gv: Vec<f64> = g.iter().map(|&v| tape.value(v)).collect();
        opt.step(&mut params, &gv);
    }
    params
}

/// A target shaped like the CEGIS driver's: `1 − xᵀQx/β` with a dense
/// random `Q`.
fn quadratic_target(n: usize, rng: &mut impl Rng) -> Polynomial {
    let mut quad = Polynomial::zero();
    for i in 0..n {
        for j in 0..n {
            let m = Monomial::var(i).mul(&Monomial::var(j));
            let c = if i == j {
                rng.gen_range(0.5..1.5)
            } else {
                rng.gen_range(-0.2..0.2)
            };
            quad.add_term(c, m);
        }
    }
    &Polynomial::constant(1.0) - &quad.scale(1.0 / rng.gen_range(1.0..4.0))
}

/// `count` samples uniform in `[−2, 2]ⁿ`.
fn box_samples(n: usize, count: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

/// Runs the warm start through `Learner` and through the tape from the same
/// initialization, and requires identical parameter bits.
fn assert_matches_tape(n: usize, hidden: &[usize], samples: &[Vec<f64>], target: &Polynomial) {
    let net = QuadraticNet::new(n, hidden, 11 + n as u64);
    let want = tape_warm_start(&net, target, samples, EPOCHS);
    let init = net.params().to_vec();
    let mut learner = Learner::new(net, MultiplierNet::constant(-0.5), LearnerConfig::default());
    learner.warm_start(target, samples, EPOCHS);
    let got = learner.b_net().params();
    assert_ne!(got, &init[..], "the warm start must move the parameters");
    assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "n = {n}, hidden {hidden:?}: parameter {k} is {g:e}, the tape gives {w:e}"
        );
    }
}

#[test]
fn high_dimensional_row_shapes_match_the_tape_bitwise() {
    // (n, width) of the Table 1 rows C10–C14, the rows that warm-start.
    for (n, width) in [(6, 15), (6, 20), (7, 20), (9, 15), (12, 20)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 * 100 + width as u64);
        let target = quadratic_target(n, &mut rng);
        let samples = box_samples(n, SAMPLES, &mut rng);
        assert_matches_tape(n, &[width], &samples, &target);
    }
}

#[test]
fn two_layer_net_matches_the_tape_bitwise() {
    // At n = 2 the net has 58 parameters, so the tape takes its sparse
    // reverse sweep; at n = 3 (66 parameters) its dense one.
    for n in [2, 3] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40 + n as u64);
        let target = quadratic_target(n, &mut rng);
        let samples = box_samples(n, SAMPLES, &mut rng);
        assert_matches_tape(n, &[4, 3], &samples, &target);
    }
}

#[test]
fn samples_with_exact_zeros_match_the_tape_bitwise() {
    // Zero coordinates (of both signs) make zero products whose signs the
    // tape keeps; the all-zero sample zeroes every first-layer weight's
    // product at once.
    let n = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let target = quadratic_target(n, &mut rng);
    let mut samples = box_samples(n, SAMPLES - 1, &mut rng);
    for (s, x) in samples.iter_mut().enumerate() {
        for (i, v) in x.iter_mut().enumerate() {
            if (s + i) % 3 == 0 {
                *v = if s % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    samples.push(vec![0.0; n]);
    assert_matches_tape(n, &[15], &samples, &target);
    assert_matches_tape(n, &[4, 3], &samples, &target);
}
