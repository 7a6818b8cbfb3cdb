use rand::Rng;
use rand::SeedableRng;

use crate::{Activation, Adam, Mlp};

/// Configuration for supervised controller pre-training.
///
/// The paper obtains its NN controllers with DDPG reinforcement learning; the
/// synthesis pipeline only consumes the resulting *fixed* network. Here
/// controllers are produced by regressing an MLP onto a hand-designed
/// stabilizing feedback law `u*(x)` over the system domain — the substitution
/// is documented in DESIGN.md and preserves everything the pipeline sees: a
/// fixed tanh network of the published shape.
#[derive(Debug, Clone)]
pub struct ControllerTraining {
    /// Hidden-layer widths of the controller MLP.
    pub hidden: Vec<usize>,
    /// Training epochs (full-batch Adam steps).
    pub epochs: usize,
    /// Points sampled uniformly from the domain box.
    pub samples: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed (controller initialization and sample draw).
    pub seed: u64,
    /// L2 regularization on the weights. Keeps the tanh units in their
    /// near-linear regime, which both mirrors the smoothness of RL-trained
    /// policies and keeps the verified abstraction error of §3 small.
    pub weight_decay: f64,
}

impl Default for ControllerTraining {
    fn default() -> Self {
        ControllerTraining {
            hidden: vec![10],
            epochs: 400,
            samples: 256,
            learning_rate: 0.02,
            seed: 7,
            weight_decay: 2e-3,
        }
    }
}

/// Trains a tanh MLP controller to imitate the target feedback law `target`
/// over the box `domain = [(lo, hi); n]`, returning the fitted network.
///
/// # Panics
///
/// Panics if `domain` is empty or a bound pair is inverted.
///
/// # Example
///
/// ```
/// use snbc_nn::{train_controller, ControllerTraining};
///
/// // Imitate u*(x) = −2x on [−1, 1].
/// let cfg = ControllerTraining { epochs: 300, ..Default::default() };
/// let net = train_controller(&[(-1.0, 1.0)], |x| -2.0 * x[0], &cfg);
/// let err = (net.forward(&[0.5]) + 1.0).abs();
/// assert!(err < 0.2, "fit error {err}");
/// ```
pub fn train_controller(
    domain: &[(f64, f64)],
    target: impl Fn(&[f64]) -> f64,
    cfg: &ControllerTraining,
) -> Mlp {
    assert!(!domain.is_empty(), "empty domain");
    for &(lo, hi) in domain {
        assert!(lo <= hi, "inverted domain bound [{lo}, {hi}]");
    }
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

    // Full-batch Adam on `(1/N)·Σ (k(x) − u*(x))² + wd·Σ θ²`. The gradient
    // is flat backprop in a tape's reverse-sweep order: the decay term comes
    // first (a tape records it after the samples), as `wd·θ + wd·θ`, then the
    // samples, last to first. Serial, so that order never changes.
    let mut opt = Adam::new(net.num_params(), cfg.learning_rate);
    let mut params = net.params().to_vec();
    let mut grad = vec![0.0; params.len()];
    let mut state = vec![0.0; net.state_len()];
    let scale = 1.0 / cfg.samples as f64;
    let wd = cfg.weight_decay;
    for _ in 0..cfg.epochs {
        for (g, &p) in grad.iter_mut().zip(&params) {
            *g = if wd > 0.0 { wd * p + wd * p } else { -0.0 };
        }
        net.add_squared_error_gradient(&params, &xs, &ys, scale, &mut state, &mut grad);
        opt.step(&mut params, &grad);
    }
    net.set_params(&params);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_law_in_two_dims() {
        let cfg = ControllerTraining {
            epochs: 500,
            samples: 128,
            ..Default::default()
        };
        let net = train_controller(&[(-1.0, 1.0), (-1.0, 1.0)], |x| -x[0] - 0.5 * x[1], &cfg);
        let mut worst: f64 = 0.0;
        for i in -2..=2 {
            for j in -2..=2 {
                let x = [i as f64 * 0.4, j as f64 * 0.4];
                let want = -x[0] - 0.5 * x[1];
                worst = worst.max((net.forward(&x) - want).abs());
            }
        }
        assert!(worst < 0.25, "worst fit error {worst}");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_panics() {
        let _ = train_controller(&[], |_| 0.0, &ControllerTraining::default());
    }
}
