use rand::Rng;
use snbc_autodiff::{Tape, Var};
use snbc_linalg::Matrix;

/// Activation function of an [`Mlp`] hidden layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's controller networks).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f64),
    /// Identity (linear layer).
    Linear,
}

impl Activation {
    /// The activation's value at the pre-activation `x`.
    pub fn activate(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(s) => {
                if x > 0.0 {
                    x
                } else {
                    s * x
                }
            }
            Activation::Linear => x,
        }
    }

    /// Derivative at the pre-activation `x` whose activation is `y`, as a
    /// tape's reverse sweep forms it (`1 − y·y` for tanh).
    pub fn slope(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(s) => {
                if x > 0.0 {
                    1.0
                } else {
                    s
                }
            }
            Activation::Linear => 1.0,
        }
    }

    fn apply_tape(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Tanh => tape.tanh(x),
            Activation::Relu => tape.leaky_relu(x, 0.0),
            Activation::LeakyRelu(s) => tape.leaky_relu(x, s),
            Activation::Linear => x,
        }
    }

    /// A Lipschitz constant of the scalar activation.
    pub fn lipschitz(self) -> f64 {
        match self {
            Activation::Tanh | Activation::Relu | Activation::Linear => 1.0,
            Activation::LeakyRelu(s) => s.abs().max(1.0),
        }
    }
}

/// A dense feed-forward network with a single (scalar) output — the NN
/// controller `k(x)` of the paper.
///
/// Parameters are stored as a flat vector (row-major weights then biases per
/// layer) so optimizers and tapes can address them uniformly.
///
/// # Example
///
/// ```
/// use snbc_nn::{Activation, Mlp};
///
/// let net = Mlp::new(&[2, 8, 1], Activation::Tanh, 42);
/// let y = net.forward(&[0.1, -0.2]);
/// assert!(y.is_finite());
/// assert!(net.lipschitz_bound() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer widths, input first, output last.
    layer_sizes: Vec<usize>,
    activation: Activation,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with Xavier-style random initialization from the
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or the output width is
    /// not 1.
    pub fn new(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output layer");
        assert_eq!(
            *layer_sizes.last().expect("non-empty"),
            1,
            "only single-output controllers are modeled (cf. §3 of the paper)"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.gen_range(-scale..scale));
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
        }
        Mlp {
            layer_sizes: layer_sizes.to_vec(),
            activation,
            params,
        }
    }

    /// Layer widths.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Hidden-layer activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Flat parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Scalar forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut state = vec![0.0; self.state_len()];
        self.eval_state(&self.params, x, &mut state)
    }

    /// Length of the caller-owned scratch of
    /// [`Mlp::add_squared_error_gradient`]: per hidden unit, its
    /// pre-activation, activation and adjoint.
    pub(crate) fn state_len(&self) -> usize {
        let hidden = &self.layer_sizes[1..self.layer_sizes.len() - 1];
        3 * hidden.iter().sum::<usize>()
    }

    /// Adds the gradient of `scale · Σₛ (k(xₛ; θ) − yₛ)²` with respect to the
    /// flat parameters `θ = params` to `grad`; `state` is scratch of length
    /// [`Mlp::state_len`]. Allocation-free, for any depth.
    ///
    /// The products and their order are those of reverse-mode
    /// differentiation of `scale · Σₛ (k(xₛ) − yₛ)²` recorded sample by
    /// sample on a [`Tape`] with [`Mlp::forward_tape`]: the residual is
    /// `e = k + (−y)` with output adjoint `(scale·e) + (scale·e)`, samples
    /// are swept last to first, each parameter receives one product per
    /// sample, and a unit's adjoint sums over the units of the next layer in
    /// descending order. To reproduce that tape bit for bit, `grad` must hold
    /// what the tape's reverse sweep adds before it reaches the samples
    /// (`−0.0` when nothing, the identity of the sum).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or a network with more than one output.
    // audit:hot
    pub(crate) fn add_squared_error_gradient(
        &self,
        params: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
        scale: f64,
        state: &mut [f64],
        grad: &mut [f64],
    ) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        assert_eq!(xs.len(), ys.len(), "one target per sample");
        assert_eq!(self.layer_sizes[self.layer_sizes.len() - 1], 1, "single output");
        for (x, &y) in xs.iter().zip(ys).rev() {
            let e = self.eval_state(params, x, state) + -y;
            self.backprop_state(params, x, scale * e + scale * e, state, grad);
        }
    }

    /// Forward pass over `params` recording each hidden unit's
    /// pre-activation and activation in `state`; returns the output.
    // audit:hot
    fn eval_state(&self, params: &[f64], x: &[f64], state: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let (mut p, mut s) = (0, 0);
        let hidden = self.layer_sizes.len() - 2;
        for li in 0..hidden {
            let (fan_in, fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
            let (below, cur) = state.split_at_mut(s);
            let input = if li == 0 {
                x
            } else {
                &below[s - 2 * fan_in..s - fan_in]
            };
            let (pre, rest) = cur.split_at_mut(fan_out);
            for o in 0..fan_out {
                let mut acc = params[p + fan_in * fan_out + o];
                for (i, a) in input.iter().enumerate() {
                    acc += params[p + o * fan_in + i] * a;
                }
                pre[o] = acc;
                rest[o] = self.activation.activate(acc);
            }
            p += fan_in * fan_out + fan_out;
            s += 3 * fan_out;
        }
        let fan_in = self.layer_sizes[hidden];
        let input = if hidden == 0 {
            x
        } else {
            &state[s - 2 * fan_in..s - fan_in]
        };
        let mut out = params[p + fan_in];
        for (i, a) in input.iter().enumerate() {
            out += params[p + i] * a;
        }
        out
    }

    /// Backward pass for one sample whose forward pass is in `state`, with
    /// output adjoint `adj_out`: adds each parameter's product to `grad`.
    // audit:hot
    fn backprop_state(
        &self,
        params: &[f64],
        x: &[f64],
        adj_out: f64,
        state: &mut [f64],
        grad: &mut [f64],
    ) {
        let mut p = params.len();
        let mut s = state.len();
        for l in (1..self.layer_sizes.len()).rev() {
            let (fan_in, fan_out) = (self.layer_sizes[l - 1], self.layer_sizes[l]);
            p -= fan_in * fan_out + fan_out;
            let output = l == self.layer_sizes.len() - 1;
            let (below, cur) = state.split_at_mut(if output { s } else { s - 3 * fan_out });
            if !output {
                // Through the activation: the adjoint of the pre-activation.
                let (pre, rest) = cur.split_at_mut(fan_out);
                let (act, adj) = rest.split_at_mut(fan_out);
                for o in 0..fan_out {
                    adj[o] *= self.activation.slope(pre[o], act[o]);
                }
            }
            // The layer input and its adjoint; the network input has none.
            let (input, din): (&[f64], &mut [f64]) = if l == 1 {
                (x, &mut [])
            } else {
                let k = below.len() - 3 * fan_in;
                let (v, d) = below[k + fan_in..].split_at_mut(fan_in);
                d.fill(-0.0);
                (v, d)
            };
            for o in (0..fan_out).rev() {
                let a = if output { adj_out } else { cur[2 * fan_out + o] };
                grad[p + fan_in * fan_out + o] += a;
                for (i, v) in input.iter().enumerate() {
                    grad[p + o * fan_in + i] += a * v;
                }
                for (i, d) in din.iter_mut().enumerate() {
                    *d += a * params[p + o * fan_in + i];
                }
            }
            if !output {
                s -= 3 * fan_out;
            }
        }
    }

    /// Forward pass on a tape, with parameters supplied as tape variables
    /// (for training) and the input as tape variables.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()` or the input width is
    /// wrong.
    pub fn forward_tape(&self, tape: &mut Tape, params: &[Var], x: &[Var]) -> Var {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut act: Vec<Var> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let mut next = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let mut acc = params[offset + fan_in * fan_out + o];
                for (i, a) in act.iter().enumerate() {
                    let prod = tape.mul(params[offset + o * fan_in + i], *a);
                    acc = tape.add(acc, prod);
                }
                next.push(if li == last {
                    acc
                } else {
                    self.activation.apply_tape(tape, acc)
                });
            }
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        act[0]
    }

    /// Weight matrix of layer `li` as a dense matrix (`fan_out × fan_in`).
    pub fn weight_matrix(&self, li: usize) -> Matrix {
        let mut offset = 0;
        for w in self.layer_sizes.windows(2).take(li) {
            offset += w[0] * w[1] + w[1];
        }
        let (fan_in, fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
        Matrix::from_fn(fan_out, fan_in, |o, i| self.params[offset + o * fan_in + i])
    }

    /// A Lipschitz bound: the product of layer spectral norms times the
    /// activation Lipschitz constants (the standard safe upper bound; the
    /// paper cites the tighter estimator of Fazlyab et al. \[6\], for which
    /// this is a sound over-approximation — a larger `L` only widens the
    /// verified error bound `σ* = σ̃ + ½sL` of Theorem 2, never unsoundly).
    pub fn lipschitz_bound(&self) -> f64 {
        let mut l = 1.0;
        for li in 0..self.layer_sizes.len() - 1 {
            let w = self.weight_matrix(li);
            l *= spectral_norm(&w);
            if li + 2 < self.layer_sizes.len() {
                l *= self.activation.lipschitz();
            }
        }
        l
    }
}

/// Spectral norm by power iteration on `WᵀW`.
pub(crate) fn spectral_norm(w: &Matrix) -> f64 {
    let n = w.ncols();
    if n == 0 || w.nrows() == 0 {
        return 0.0;
    }
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut sigma = 0.0;
    for _ in 0..100 {
        let wv = w.matvec(&v);
        let wtwv = w.tr_matvec(&wv);
        let norm = snbc_linalg::vec_ops::norm2(&wtwv);
        if norm < 1e-300 {
            return 0.0;
        }
        let new_sigma = norm.sqrt();
        for (vi, u) in v.iter_mut().zip(&wtwv) {
            *vi = u / norm;
        }
        if (new_sigma - sigma).abs() < 1e-12 * new_sigma.max(1.0) {
            return new_sigma;
        }
        sigma = new_sigma;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_tiny_net() {
        // 1-1-1 tanh net with hand-set parameters: y = w2·tanh(w1·x + b1) + b2.
        let mut net = Mlp::new(&[1, 1, 1], Activation::Tanh, 0);
        net.set_params(&[2.0, 0.5, -1.5, 0.25]); // w1, b1, w2, b2
        let x = 0.3_f64;
        let want = -1.5 * (2.0 * x + 0.5).tanh() + 0.25;
        assert!((net.forward(&[x]) - want).abs() < 1e-12);
    }

    #[test]
    fn tape_forward_matches_plain_forward() {
        let net = Mlp::new(&[2, 4, 1], Activation::Tanh, 7);
        let x = [0.2, -0.9];
        let mut tape = Tape::new();
        let pvars: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xvars: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pvars, &xvars);
        assert!((tape.value(y) - net.forward(&x)).abs() < 1e-12);
    }

    #[test]
    fn lipschitz_bound_dominates_sampled_slopes() {
        let net = Mlp::new(&[2, 6, 1], Activation::Tanh, 3);
        let l = net.lipschitz_bound();
        let mut worst: f64 = 0.0;
        for i in 0..20 {
            let a = [-1.0 + 0.1 * i as f64, 0.3];
            let b = [a[0] + 1e-4, a[1]];
            let slope = (net.forward(&b) - net.forward(&a)).abs() / 1e-4;
            worst = worst.max(slope);
        }
        assert!(l >= worst * 0.999, "bound {l} < sampled slope {worst}");
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let w = Matrix::from_diag(&[3.0, -5.0, 1.0]);
        assert!((spectral_norm(&w) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gradient_through_tape_matches_finite_difference() {
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, 11);
        let x = [0.4, -0.1];
        let mut tape = Tape::new();
        let pvars: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xvars: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pvars, &xvars);
        let grads = tape.grad(y, &pvars);
        // Check a few parameters against finite differences.
        for idx in [0, 3, net.num_params() - 1] {
            let h = 1e-6;
            let mut plus = net.clone();
            let mut pp = net.params().to_vec();
            pp[idx] += h;
            plus.set_params(&pp);
            let mut minus = net.clone();
            pp[idx] -= 2.0 * h;
            minus.set_params(&pp);
            let fd = (plus.forward(&x) - minus.forward(&x)) / (2.0 * h);
            assert!(
                (tape.value(grads[idx]) - fd).abs() < 1e-6,
                "param {idx}: ad {} vs fd {fd}",
                tape.value(grads[idx])
            );
        }
    }
}

/// Interval extensions of the MLP: range bounds of the output and of the
/// gradient over a box. These power the *verified* controller-abstraction
/// error bound (`snbc::approx`) — a branch-and-bound certification of
/// `|k(x) − h(x)| ≤ σ` that is far tighter in high dimension than the
/// Lipschitz-times-covering-radius estimate of Theorem 2.
impl Mlp {
    /// Conservative range of the network output over the box `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_interval(&self, x: &[snbc_interval::Interval]) -> snbc_interval::Interval {
        use snbc_interval::Interval;
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut act: Vec<Interval> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let mut next = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let bias = self.params[offset + fan_in * fan_out + o];
                let mut acc = Interval::point(bias);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + *a * self.params[offset + o * fan_in + i];
                }
                next.push(if li == last {
                    acc
                } else {
                    interval_activation(self.activation, acc)
                });
            }
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        act[0]
    }

    /// Conservative per-coordinate range of `∇k` over the box `x`, by
    /// interval forward pass + interval backward pass through the activation
    /// derivative ranges.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn gradient_interval(&self, x: &[snbc_interval::Interval]) -> Vec<snbc_interval::Interval> {
        use snbc_interval::Interval;
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        // Forward: collect pre-activation ranges per hidden layer.
        let mut act: Vec<Interval> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        let mut offsets = Vec::new();
        let mut deriv_ranges: Vec<Vec<Interval>> = Vec::new();
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            offsets.push(offset);
            let mut next = Vec::with_capacity(fan_out);
            let mut derivs = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let bias = self.params[offset + fan_in * fan_out + o];
                let mut acc = Interval::point(bias);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + *a * self.params[offset + o * fan_in + i];
                }
                if li == last {
                    derivs.push(Interval::point(1.0));
                    next.push(acc);
                } else {
                    derivs.push(interval_activation_derivative(self.activation, acc));
                    next.push(interval_activation(self.activation, acc));
                }
            }
            deriv_ranges.push(derivs);
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        // Backward: adjoint intervals from the scalar output to the inputs.
        let mut adj: Vec<Interval> = vec![Interval::point(1.0)];
        for li in (0..self.layer_sizes.len() - 1).rev() {
            let (fan_in, _fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
            let off = offsets[li];
            // Through the activation derivative of this layer's outputs.
            let scaled: Vec<Interval> = adj
                .iter()
                .zip(&deriv_ranges[li])
                .map(|(a, d)| *a * *d)
                .collect();
            let mut prev = vec![Interval::point(0.0); fan_in];
            for (o, s) in scaled.iter().enumerate() {
                for (i, p) in prev.iter_mut().enumerate() {
                    *p = *p + *s * self.params[off + o * fan_in + i];
                }
            }
            adj = prev;
        }
        adj
    }
}

/// Range of the activation `act` over the pre-activation interval `x` (the
/// map [`Mlp::forward_interval`] applies per hidden unit).
pub fn interval_activation(
    act: Activation,
    x: snbc_interval::Interval,
) -> snbc_interval::Interval {
    use snbc_interval::Interval;
    match act {
        // Monotone scalar functions: evaluate at the endpoints.
        Activation::Tanh => Interval::new(x.lo().tanh(), x.hi().tanh()),
        Activation::Relu => Interval::new(x.lo().max(0.0), x.hi().max(0.0)),
        Activation::LeakyRelu(s) => {
            let f = |v: f64| if v > 0.0 { v } else { s * v };
            let (a, b) = (f(x.lo()), f(x.hi()));
            Interval::new(a.min(b), a.max(b))
        }
        Activation::Linear => x,
    }
}

/// Range of the activation's derivative over the pre-activation interval
/// `x` (the map [`Mlp::gradient_interval`] applies per hidden unit).
pub fn interval_activation_derivative(
    act: Activation,
    x: snbc_interval::Interval,
) -> snbc_interval::Interval {
    use snbc_interval::Interval;
    match act {
        Activation::Tanh => {
            // d tanh = 1 − tanh²: maximal at the point closest to 0.
            let d = |v: f64| {
                let t = v.tanh();
                1.0 - t * t
            };
            let hi = if x.contains(0.0) {
                1.0
            } else {
                d(x.lo()).max(d(x.hi()))
            };
            let lo = d(x.lo()).min(d(x.hi()));
            Interval::new(lo, hi)
        }
        Activation::Relu => {
            if x.lo() >= 0.0 {
                Interval::point(1.0)
            } else if x.hi() <= 0.0 {
                Interval::point(0.0)
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        Activation::LeakyRelu(s) => {
            if x.lo() >= 0.0 {
                Interval::point(1.0)
            } else if x.hi() <= 0.0 {
                Interval::point(s)
            } else {
                Interval::new(s.min(1.0), s.max(1.0))
            }
        }
        Activation::Linear => Interval::point(1.0),
    }
}

#[cfg(test)]
mod interval_tests {
    use super::*;
    use snbc_interval::Interval;

    #[test]
    fn forward_interval_contains_samples() {
        let net = Mlp::new(&[2, 6, 1], Activation::Tanh, 17);
        let bx = [Interval::new(-0.5, 0.5), Interval::new(0.1, 0.9)];
        let range = net.forward_interval(&bx);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [
                    -0.5 + i as f64 * 0.1,
                    0.1 + j as f64 * 0.08,
                ];
                let v = net.forward(&x);
                assert!(range.contains(v), "{range} misses k({x:?}) = {v}");
            }
        }
    }

    #[test]
    fn gradient_interval_contains_sampled_gradients() {
        let net = Mlp::new(&[2, 5, 1], Activation::Tanh, 23);
        let bx = [Interval::new(-0.3, 0.3), Interval::new(-0.3, 0.3)];
        let g = net.gradient_interval(&bx);
        let h = 1e-6;
        for i in 0..=6 {
            for j in 0..=6 {
                let x = [-0.3 + i as f64 * 0.1, -0.3 + j as f64 * 0.1];
                for d in 0..2 {
                    let mut xp = x;
                    xp[d] += h;
                    let mut xm = x;
                    xm[d] -= h;
                    let fd = (net.forward(&xp) - net.forward(&xm)) / (2.0 * h);
                    assert!(
                        g[d].lo() - 1e-6 <= fd && fd <= g[d].hi() + 1e-6,
                        "grad[{d}] range {} misses {fd}",
                        g[d]
                    );
                }
            }
        }
    }

    #[test]
    fn point_box_matches_forward() {
        let net = Mlp::new(&[3, 4, 1], Activation::Tanh, 31);
        let x = [0.2, -0.7, 0.4];
        let bx: Vec<Interval> = x.iter().map(|&v| Interval::point(v)).collect();
        let r = net.forward_interval(&bx);
        assert!((r.lo() - net.forward(&x)).abs() < 1e-12);
        assert!(r.width() < 1e-12);
    }
}

/// Multi-output extension (§3 of the paper: "the multiple-output cases can be
/// handled in a similar manner"). A [`VectorMlp`] is an MLP whose output layer
/// has `m ≥ 1` units — one channel per control input of a multi-input system.
/// Each output channel is abstracted by its own polynomial inclusion.
#[derive(Debug, Clone)]
pub struct VectorMlp {
    inner: Mlp,
    outputs: usize,
}

impl VectorMlp {
    /// Creates a network with `layer_sizes.last()` output channels.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or the output width is
    /// zero.
    pub fn new(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output layer");
        let outputs = *layer_sizes.last().expect("non-empty");
        assert!(outputs >= 1, "need at least one output");
        // Reuse Mlp's storage by constructing with the true widths; bypass
        // its single-output assert through the width-1 constructor plus a
        // manual parameter layout when m > 1.
        let inner = Mlp::new_unchecked(layer_sizes, activation, seed);
        VectorMlp { inner, outputs }
    }

    /// Number of output channels.
    pub fn output_dim(&self) -> usize {
        self.outputs
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    /// Vector forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn forward_vec(&self, x: &[f64]) -> Vec<f64> {
        self.inner.forward_all(x)
    }

    /// Scalar view of one output channel (for the per-channel §3 abstraction).
    pub fn output_fn(&self, channel: usize) -> impl Fn(&[f64]) -> f64 + '_ {
        assert!(channel < self.outputs, "channel out of range");
        move |x: &[f64]| self.inner.forward_all(x)[channel]
    }

    /// A Lipschitz bound shared by every channel (product of spectral norms,
    /// as in [`Mlp::lipschitz_bound`]; the output-layer norm bounds all
    /// channels simultaneously).
    pub fn lipschitz_bound(&self) -> f64 {
        self.inner.lipschitz_bound()
    }
}

impl Mlp {
    /// Multi-output constructor used by [`VectorMlp`] (the public scalar API
    /// keeps its single-output contract).
    pub(crate) fn new_unchecked(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.gen_range(-scale..scale));
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
        }
        Mlp {
            layer_sizes: layer_sizes.to_vec(),
            activation,
            params,
        }
    }

    /// Forward pass returning the full output layer (length = last width).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_all(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut act: Vec<f64> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let mut next = vec![0.0; fan_out];
            for (o, n) in next.iter_mut().enumerate() {
                let mut acc = self.params[offset + fan_in * fan_out + o];
                for (i, a) in act.iter().enumerate() {
                    acc += self.params[offset + o * fan_in + i] * a;
                }
                *n = if li == last { acc } else { self.activation.activate(acc) };
            }
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        act
    }
}

#[cfg(test)]
mod vector_tests {
    use super::*;

    #[test]
    fn forward_vec_has_requested_width() {
        let net = VectorMlp::new(&[3, 6, 2], Activation::Tanh, 4);
        let y = net.forward_vec(&[0.1, -0.2, 0.3]);
        assert_eq!(y.len(), 2);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.input_dim(), 3);
    }

    #[test]
    fn channel_views_agree_with_vector_pass() {
        let net = VectorMlp::new(&[2, 5, 3], Activation::Tanh, 8);
        let x = [0.4, -0.7];
        let y = net.forward_vec(&x);
        for c in 0..3 {
            assert!((net.output_fn(c)(&x) - y[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn scalar_mlp_forward_all_matches_forward() {
        let net = Mlp::new(&[2, 4, 1], Activation::Tanh, 2);
        let x = [0.3, 0.9];
        assert!((net.forward_all(&x)[0] - net.forward(&x)).abs() < 1e-12);
    }
}
