/// The Adam first-order optimizer over a flat parameter vector.
///
/// Used by every training loop in the workspace: controller pre-training and
/// the joint `B(x)`/`λ(x)` learner of §4.1.
///
/// # Example
///
/// ```
/// use snbc_nn::Adam;
///
/// // Minimize (θ − 3)².
/// let mut theta = vec![0.0];
/// let mut opt = Adam::new(1, 0.1);
/// for _ in 0..500 {
///     let g = vec![2.0 * (theta[0] - 3.0)];
///     opt.step(&mut theta, &g);
/// }
/// assert!((theta[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `dim` parameters with the given learning rate
    /// and standard moment decays (0.9, 0.999).
    pub fn new(dim: usize, learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Applies one update `θ ← θ − lr·m̂/(√v̂ + ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` length differs from the optimizer's
    /// dimension.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;
        #[expect(clippy::cast_possible_truncation, reason = "step counts stay far below 2^31")]
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        #[expect(clippy::cast_possible_truncation, reason = "step counts stay far below 2^31")]
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.learning_rate * mhat / (vhat.sqrt() + self.epsilon);
        }
    }

    /// Resets the moment estimates (e.g. between CEGIS rounds).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let mut p = vec![5.0, -4.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..2000 {
            let g = vec![2.0 * p[0], 4.0 * p[1]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-3 && p[1].abs() < 1e-3);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![1.0];
        opt.step(&mut p, &[1.0]);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert_eq!(opt.m[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dimension_mismatch_panics() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0]);
    }
}
