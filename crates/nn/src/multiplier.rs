use rand::Rng;
use rand::SeedableRng;
use snbc_autodiff::{Tape, Var};
use snbc_poly::Polynomial;

/// The auxiliary multiplier network for `λ(x)` (Theorem 1 / §4.1).
///
/// The paper trains `λ(x)` with a *linear* NN — all activations identity — so
/// the end-to-end function is affine in `x` regardless of depth; Table 1's
/// `NN_λ(x)` column also allows a plain trainable constant (`c`). Both
/// variants are modeled here; the layered parameterization of the linear
/// variant is kept (rather than collapsing to `wᵀx + b`) to mirror the paper's
/// training dynamics.
///
/// # Example
///
/// ```
/// use snbc_nn::MultiplierNet;
///
/// let net = MultiplierNet::linear(3, &[5], 1);
/// let lambda = net.to_polynomial();
/// assert!(lambda.degree() <= 1); // linear NN ⇒ affine λ(x)
/// ```
#[derive(Debug, Clone)]
pub enum MultiplierNet {
    /// A trainable constant multiplier (the `c` entries of Table 1).
    Constant { value: Vec<f64> },
    /// A linear (identity-activation) network: affine output.
    Linear {
        input_dim: usize,
        layer_sizes: Vec<usize>,
        params: Vec<f64>,
    },
}

impl MultiplierNet {
    /// A trainable constant initialized to `init`.
    pub fn constant(init: f64) -> Self {
        MultiplierNet::Constant { value: vec![init] }
    }

    /// A linear network with the given hidden widths.
    pub fn linear(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in sizes.windows(2) {
            let scale = (2.0 / (w[0] + w[1]) as f64).sqrt();
            for _ in 0..w[0] * w[1] {
                params.push(rng.gen_range(-scale..scale));
            }
            for _ in 0..w[1] {
                params.push(0.0);
            }
        }
        MultiplierNet::Linear {
            input_dim,
            layer_sizes: sizes,
            params,
        }
    }

    /// Flat parameter vector.
    pub fn params(&self) -> &[f64] {
        match self {
            MultiplierNet::Constant { value } => value,
            MultiplierNet::Linear { params, .. } => params,
        }
    }

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params(&mut self, new: &[f64]) {
        match self {
            MultiplierNet::Constant { value } => {
                assert_eq!(new.len(), value.len(), "parameter length mismatch");
                value.copy_from_slice(new);
            }
            MultiplierNet::Linear { params, .. } => {
                assert_eq!(new.len(), params.len(), "parameter length mismatch");
                params.copy_from_slice(new);
            }
        }
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params().len()
    }

    /// Scalar forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch for the linear variant.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut state = vec![0.0; self.state_len()];
        self.eval_state(self.params(), x, &mut state)
    }

    /// Length of the caller-owned scratch of [`MultiplierNet::eval_state`]:
    /// every unit's output and its adjoint (none for the constant).
    pub fn state_len(&self) -> usize {
        match self {
            MultiplierNet::Constant { .. } => 0,
            MultiplierNet::Linear { layer_sizes, .. } => 2 * layer_sizes[1..].iter().sum::<usize>(),
        }
    }

    /// Forward pass over the flat parameters `params`, recording each layer's
    /// outputs in `state` (length [`MultiplierNet::state_len`]). Returns
    /// `λ(x)`, bit-identical to [`MultiplierNet::forward_tape`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    pub fn eval_state(&self, params: &[f64], x: &[f64], state: &mut [f64]) -> f64 {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        let MultiplierNet::Linear {
            input_dim,
            layer_sizes,
            ..
        } = self
        else {
            return params[0];
        };
        assert_eq!(x.len(), *input_dim, "input dimension mismatch");
        let (mut p, mut s) = (0, 0);
        for w in layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let (below, cur) = state.split_at_mut(s);
            let input = if s == 0 {
                x
            } else {
                &below[s - 2 * fan_in..s - fan_in]
            };
            for (o, v) in cur[..fan_out].iter_mut().enumerate() {
                let mut acc = params[p + fan_in * fan_out + o];
                for (i, a) in input.iter().enumerate() {
                    acc += params[p + o * fan_in + i] * a;
                }
                *v = acc;
            }
            p += fan_in * fan_out + fan_out;
            s += 2 * fan_out;
        }
        state[s - 2]
    }

    /// Backward pass for one sample whose [`MultiplierNet::eval_state`] pass
    /// is in `state`, with output adjoint `adj_out`: adds each parameter's
    /// product to `grad`. Every parameter receives one product; a unit's
    /// adjoint sums over the units of the next layer in descending order, as
    /// a tape's reverse sweep over [`MultiplierNet::forward_tape`] does.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    pub fn backprop_state(
        &self,
        params: &[f64],
        x: &[f64],
        adj_out: f64,
        state: &mut [f64],
        grad: &mut [f64],
    ) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(grad.len(), self.num_params(), "gradient length mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        let MultiplierNet::Linear { layer_sizes, .. } = self else {
            grad[0] += adj_out;
            return;
        };
        let mut p = params.len();
        let mut s = state.len();
        state[s - 1] = adj_out;
        for l in (1..layer_sizes.len()).rev() {
            let (fan_in, fan_out) = (layer_sizes[l - 1], layer_sizes[l]);
            p -= fan_in * fan_out + fan_out;
            let (below, cur) = state.split_at_mut(s - 2 * fan_out);
            let adj = &cur[fan_out..2 * fan_out];
            // The layer input and its adjoint; the network input has none.
            let (input, din): (&[f64], &mut [f64]) = if l == 1 {
                (x, &mut [])
            } else {
                let k = below.len() - 2 * fan_in;
                let (v, d) = below[k..].split_at_mut(fan_in);
                d.fill(-0.0);
                (v, d)
            };
            for o in (0..fan_out).rev() {
                grad[p + fan_in * fan_out + o] += adj[o];
                for (i, a) in input.iter().enumerate() {
                    grad[p + o * fan_in + i] += adj[o] * a;
                }
                for (i, d) in din.iter_mut().enumerate() {
                    *d += adj[o] * params[p + o * fan_in + i];
                }
            }
            s -= 2 * fan_out;
        }
    }

    /// Forward pass on a tape.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward_tape(&self, tape: &mut Tape, params: &[Var], x: &[Var]) -> Var {
        match self {
            MultiplierNet::Constant { .. } => {
                assert_eq!(params.len(), 1, "parameter count mismatch");
                params[0]
            }
            MultiplierNet::Linear {
                input_dim,
                layer_sizes,
                ..
            } => {
                assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
                assert_eq!(x.len(), *input_dim, "input dimension mismatch");
                let mut act: Vec<Var> = x.to_vec();
                let mut offset = 0;
                for w in layer_sizes.windows(2) {
                    let (fan_in, fan_out) = (w[0], w[1]);
                    let mut next = Vec::with_capacity(fan_out);
                    for o in 0..fan_out {
                        let mut acc = params[offset + fan_in * fan_out + o];
                        for (i, a) in act.iter().enumerate() {
                            let p = tape.mul(params[offset + o * fan_in + i], *a);
                            acc = tape.add(acc, p);
                        }
                        next.push(acc);
                    }
                    offset += fan_in * fan_out + fan_out;
                    act = next;
                }
                act[0]
            }
        }
    }

    /// Extracts `λ(x)` as an explicit polynomial (degree ≤ 1).
    pub fn to_polynomial(&self) -> Polynomial {
        match self {
            MultiplierNet::Constant { value } => Polynomial::constant(value[0]),
            MultiplierNet::Linear { input_dim, .. } => {
                let mut p = Polynomial::constant(self.forward(&vec![0.0; *input_dim]));
                // Affine: recover slopes by probing unit vectors.
                let base = p.constant_term();
                for i in 0..*input_dim {
                    let mut e = vec![0.0; *input_dim];
                    e[i] = 1.0;
                    let slope = self.forward(&e) - base;
                    p.add_term(slope, snbc_poly::Monomial::var(i));
                }
                p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_variant() {
        let mut net = MultiplierNet::constant(2.5);
        assert_eq!(net.forward(&[1.0, 2.0]), 2.5);
        net.set_params(&[-1.0]);
        assert_eq!(net.to_polynomial().constant_term(), -1.0);
    }

    #[test]
    fn linear_net_is_affine() {
        let net = MultiplierNet::linear(2, &[5, 3], 3);
        let p = net.to_polynomial();
        assert!(p.degree() <= 1);
        // Affine extraction agrees with the layered forward pass everywhere.
        for x in [[0.0, 0.0], [1.0, -2.0], [0.3, 0.7]] {
            assert!((net.forward(&x) - p.eval(&x)).abs() < 1e-10);
        }
    }

    #[test]
    fn tape_matches_forward() {
        let net = MultiplierNet::linear(2, &[4], 8);
        let x = [0.5, -1.5];
        let mut tape = Tape::new();
        let pv: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xv: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pv, &xv);
        assert!((tape.value(y) - net.forward(&x)).abs() < 1e-12);
    }
}
