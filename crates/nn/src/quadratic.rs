use rand::Rng;
use rand::SeedableRng;
use snbc_autodiff::{Tape, Var};
use snbc_poly::Polynomial;

/// The paper's *quadratic network* (§4.1, Fig. 2): hidden layers apply the
/// cross-product (Hadamard) activation
///
/// ```text
///     x⁽ˡ⁾ = (W₁⁽ˡ⁾ x⁽ˡ⁻¹⁾ + b₁⁽ˡ⁾) ⊗ (W₂⁽ˡ⁾ x⁽ˡ⁻¹⁾ + b₂⁽ˡ⁾),
/// ```
///
/// so with `l` hidden layers the scalar output is *exactly* a polynomial of
/// degree `2^l` in the input — interpretable by the SOS verifier without any
/// abstraction step. Compared to the classic square network
/// `σ(x) = (Wx + b)²` it doubles the parameters at equal output degree,
/// which is precisely the fitting-capability argument of the paper.
///
/// # Example
///
/// ```
/// use snbc_nn::QuadraticNet;
///
/// // 2 inputs, one hidden layer of 5 ⇒ degree-2 polynomial output.
/// let net = QuadraticNet::new(2, &[5], 1);
/// assert!(net.to_polynomial().degree() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticNet {
    input_dim: usize,
    hidden: Vec<usize>,
    /// Flat parameters: per hidden layer `W₁ | b₁ | W₂ | b₂` (row-major),
    /// then the linear output layer `W | b`.
    params: Vec<f64>,
}

impl QuadraticNet {
    /// Creates a randomly initialized quadratic network. `hidden` lists the
    /// hidden-layer widths (one entry per cross-product layer, so the output
    /// degree is `2^hidden.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or `input_dim == 0`.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(!hidden.is_empty(), "need at least one hidden layer");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        let mut fan_in = input_dim;
        for &h in hidden {
            let scale = (2.0 / (fan_in + h) as f64).sqrt();
            for _ in 0..2 * (fan_in * h + h) {
                params.push(rng.gen_range(-scale..scale));
            }
            fan_in = h;
        }
        // Output layer W (1 × fan_in) and bias.
        let scale = (2.0 / (fan_in + 1) as f64).sqrt();
        for _ in 0..fan_in {
            params.push(rng.gen_range(-scale..scale));
        }
        params.push(0.0);
        QuadraticNet {
            input_dim,
            hidden: hidden.to_vec(),
            params,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-layer widths.
    pub fn hidden_sizes(&self) -> &[usize] {
        &self.hidden
    }

    /// Degree of the output polynomial (`2^l` for `l` hidden layers).
    pub fn output_degree(&self) -> u32 {
        1u32 << self.hidden.len()
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
    /// Panics on input-width mismatch.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut state = vec![0.0; self.state_len()];
        self.eval_state(&self.params, x, &mut state)
    }

    /// Length of the caller-owned scratch of
    /// [`QuadraticNet::squared_error_gradient`]: per hidden unit, its two
    /// linear maps `a₁`, `a₂`, its activation `a₁·a₂` and that activation's
    /// adjoint.
    pub fn state_len(&self) -> usize {
        4 * self.hidden.iter().sum::<usize>()
    }

    /// Gradient of the squared error `Σₛ (B(xₛ; θ) − yₛ)²` with respect to
    /// the flat parameters `θ = params`, written into `grad`; `state` is
    /// scratch of length [`QuadraticNet::state_len`]. Allocation-free, for
    /// any depth.
    ///
    /// The result is bit-identical to reverse-mode differentiation of the
    /// same sum recorded sample by sample on a [`Tape`] with
    /// [`QuadraticNet::forward_tape`], because every floating-point
    /// operation is repeated in the tape's order: forward sums run left to
    /// right; the residual is `e = B + (−y)` with output adjoint `e + e`;
    /// each parameter receives one product per sample, samples swept last
    /// to first; and an activation's adjoint sums over the units of the next
    /// layer in descending order, the `W₂` term before the `W₁` term.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    pub fn squared_error_gradient(
        &self,
        params: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
        state: &mut [f64],
        grad: &mut [f64],
    ) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        assert_eq!(xs.len(), ys.len(), "one target per sample");
        // −0 is the exact additive identity (−0 + c = c for every c, signed
        // zeros included), so starting each chain here reproduces the tape,
        // which stores a first contribution and adds later ones to it.
        grad.fill(-0.0);
        for (x, &y) in xs.iter().zip(ys).rev() {
            let e = self.eval_state(params, x, state) + -y;
            self.backprop_state(params, x, e + e, state, grad);
        }
    }

    /// Forward pass over `params`, recording every hidden unit's `a₁`, `a₂`
    /// and activation in `state` (layout of [`QuadraticNet::state_len`]).
    /// Returns `B(x)`, bit-identical to [`QuadraticNet::forward_tape`].
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    // audit:hot
    pub fn eval_state(&self, params: &[f64], x: &[f64], state: &mut [f64]) -> f64 {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut p = 0;
        let mut s = 0;
        let mut fan_in = self.input_dim;
        for (l, &h) in self.hidden.iter().enumerate() {
            let (below, cur) = state.split_at_mut(s);
            let input = if l == 0 {
                x
            } else {
                &below[s - 2 * fan_in..s - fan_in]
            };
            let (a1s, rest) = cur.split_at_mut(h);
            let (a2s, zs) = rest.split_at_mut(h);
            let w1 = p;
            let b1 = w1 + fan_in * h;
            let w2 = b1 + h;
            let b2 = w2 + fan_in * h;
            for o in 0..h {
                let mut a1 = params[b1 + o];
                let mut a2 = params[b2 + o];
                for (i, a) in input.iter().enumerate() {
                    a1 += params[w1 + o * fan_in + i] * a;
                    a2 += params[w2 + o * fan_in + i] * a;
                }
                a1s[o] = a1;
                a2s[o] = a2;
                zs[o] = a1 * a2;
            }
            p = b2 + h;
            s += 4 * h;
            fan_in = h;
        }
        let mut out = params[p + fan_in];
        for (i, a) in state[s - 2 * fan_in..s - fan_in].iter().enumerate() {
            out += params[p + i] * a;
        }
        out
    }

    /// Backward pass for one sample whose forward pass
    /// [`QuadraticNet::eval_state`] left in `state`, with output adjoint
    /// `adj_out`: adds each parameter's product to `grad`, in the order a
    /// tape's reverse sweep over [`QuadraticNet::forward_tape`] adds them.
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
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut fan_in = self.hidden[self.hidden.len() - 1];
        let mut p = params.len() - 1 - fan_in;
        let mut s = state.len();
        grad[p + fan_in] += adj_out;
        let (z, dz) = state[s - 2 * fan_in..].split_at_mut(fan_in);
        for i in 0..fan_in {
            grad[p + i] += adj_out * z[i];
            dz[i] = adj_out * params[p + i];
        }
        for l in (0..self.hidden.len()).rev() {
            let h = fan_in;
            fan_in = if l == 0 {
                self.input_dim
            } else {
                self.hidden[l - 1]
            };
            let w1 = p - 2 * (fan_in * h + h);
            let (below, cur) = state.split_at_mut(s - 4 * h);
            let (a1s, rest) = cur.split_at(h);
            let (a2s, rest) = rest.split_at(h);
            let dz = &rest[h..2 * h];
            // The layer input and its adjoint; the network input has none.
            let (input, din): (&[f64], &mut [f64]) = if l == 0 {
                (x, &mut [])
            } else {
                let k = below.len();
                let (zp, dzp) = below[k - 2 * fan_in..].split_at_mut(fan_in);
                dzp.fill(-0.0);
                (zp, dzp)
            };
            let (pw1, _, pw2, _) = layer(params, w1, fan_in, h);
            let (gw1, gb1, gw2, gb2) = layer_mut(grad, w1, fan_in, h);
            for o in (0..h).rev() {
                let g1 = dz[o] * a2s[o];
                let g2 = dz[o] * a1s[o];
                gb1[o] += g1;
                gb2[o] += g2;
                let row = o * fan_in..(o + 1) * fan_in;
                for ((u, v), a) in gw1[row.clone()].iter_mut().zip(&mut gw2[row.clone()]).zip(input) {
                    *u += g1 * a;
                    *v += g2 * a;
                }
                for ((d, q1), q2) in din.iter_mut().zip(&pw1[row.clone()]).zip(&pw2[row]) {
                    *d += g2 * q2;
                    *d += g1 * q1;
                }
            }
            p = w1;
            s -= 4 * h;
        }
    }

    /// Length of the caller-owned scratch of [`QuadraticNet::eval_lie`] and
    /// [`QuadraticNet::backprop_lie`]: per hidden unit, `a₁`, `a₂`, the
    /// activation `z`, the adjoints of `z` and of its tangent `ż`, and for
    /// each of the two fields the tangents `g₁`, `g₂` of `a₁`, `a₂` and `ż`.
    pub fn lie_state_len(&self) -> usize {
        11 * self.hidden.iter().sum::<usize>()
    }

    /// `(B(x), L_lo B(x), L_hi B(x))`: the barrier value and its Lie
    /// derivatives `∇B(x)·f` along the fields `field_lo` and `field_hi`
    /// (the closed loop at `w = ∓σ*`), recording the pass in `state`
    /// (length [`QuadraticNet::lie_state_len`]) for
    /// [`QuadraticNet::backprop_lie`].
    ///
    /// Each hidden layer pushes the tangent of its input through formula (9):
    /// `ż = a₂·(W₁·ṫ) + a₁·(W₂·ṫ)`, where `ṫ` is the field at the input layer
    /// and the tangent of the layer below otherwise. For one hidden layer the
    /// result is bit-identical to [`QuadraticNet::forward_and_lie2_tape`]:
    /// sums run left to right, tangent sums start at `+0.0`, input-layer
    /// terms whose `x` or field entry is exactly zero are skipped, and when
    /// the two fields compare equal only the first is differentiated.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    pub fn eval_lie(
        &self,
        params: &[f64],
        x: &[f64],
        field_lo: &[f64],
        field_hi: &[f64],
        state: &mut [f64],
    ) -> (f64, f64, f64) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(state.len(), self.lie_state_len(), "state length mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(field_lo.len(), self.input_dim, "field dimension mismatch");
        assert_eq!(field_hi.len(), self.input_dim, "field dimension mismatch");
        let same = field_lo == field_hi;
        let mut p = 0;
        let mut s = 0;
        let mut fan_in = self.input_dim;
        for (l, &h) in self.hidden.iter().enumerate() {
            let (below, cur) = state.split_at_mut(s);
            // The layer input and its tangent along each field.
            let (input, t_lo, t_hi) = if l == 0 {
                (x, field_lo, field_hi)
            } else {
                let prev = &below[s - 11 * fan_in..];
                (
                    &prev[2 * fan_in..3 * fan_in],
                    &prev[7 * fan_in..8 * fan_in],
                    &prev[10 * fan_in..11 * fan_in],
                )
            };
            // Only the input layer's operands are constants whose exact
            // zeros the tape leaves out.
            let deep = l > 0;
            let (w1, b1, w2, b2) = layer(params, p, fan_in, h);
            let [a1s, a2s, zs, _, _, g1_los, g2_los, dz_los, g1_his, g2_his, dz_his] =
                split_units(&mut cur[..11 * h], h);
            for o in 0..h {
                let row = o * fan_in..(o + 1) * fan_in;
                let (r1, r2) = (&w1[row.clone()], &w2[row]);
                let mut a1 = b1[o];
                let mut a2 = b2[o];
                let (mut g1_lo, mut g2_lo, mut g1_hi, mut g2_hi) = (0.0, 0.0, 0.0, 0.0);
                for i in 0..fan_in {
                    if deep || input[i] != 0.0 {
                        a1 += r1[i] * input[i];
                        a2 += r2[i] * input[i];
                    }
                    if deep || t_lo[i] != 0.0 {
                        g1_lo += r1[i] * t_lo[i];
                        g2_lo += r2[i] * t_lo[i];
                    }
                    if !same && (deep || t_hi[i] != 0.0) {
                        g1_hi += r1[i] * t_hi[i];
                        g2_hi += r2[i] * t_hi[i];
                    }
                }
                a1s[o] = a1;
                a2s[o] = a2;
                zs[o] = a1 * a2;
                g1_los[o] = g1_lo;
                g2_los[o] = g2_lo;
                dz_los[o] = a2 * g1_lo + a1 * g2_lo;
                g1_his[o] = g1_hi;
                g2_his[o] = g2_hi;
                dz_his[o] = a2 * g1_hi + a1 * g2_hi;
            }
            if same {
                // One field: the second block mirrors the first.
                cur.copy_within(5 * h..8 * h, 8 * h);
            }
            p += 2 * (fan_in * h + h);
            s += 11 * h;
            fan_in = h;
        }
        let last = &state[s - 11 * fan_in..s];
        let (zs, dz_los, dz_his) = (
            &last[2 * fan_in..3 * fan_in],
            &last[7 * fan_in..8 * fan_in],
            &last[10 * fan_in..],
        );
        let w_out = &params[p..p + fan_in];
        let mut b = params[p + fan_in];
        let (mut lie_lo, mut lie_hi) = (0.0, 0.0);
        for i in 0..fan_in {
            b += w_out[i] * zs[i];
            lie_lo += w_out[i] * dz_los[i];
            lie_hi += w_out[i] * dz_his[i];
        }
        (b, lie_lo, lie_hi)
    }

    /// Backward pass of `adj_b·B + adj_lie·L B` for one sample whose
    /// [`QuadraticNet::eval_lie`] pass is in `state`, where `L B` is the Lie
    /// derivative along `field_lo` (`hi == false`) or `field_hi`
    /// (`hi == true`) and `field` is that field: adds each parameter's
    /// products to `grad`.
    ///
    /// For one hidden layer the products and their order are those of a
    /// tape's reverse sweep over [`QuadraticNet::forward_and_lie2_tape`]:
    /// `W_out` receives its Lie term before its `B` term, a first-layer
    /// weight its field product before its `x` product, and a hidden bias
    /// whose input terms were all skipped receives its Lie and product terms
    /// one by one instead of summed.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    #[allow(clippy::too_many_arguments)]
    pub fn backprop_lie(
        &self,
        params: &[f64],
        x: &[f64],
        field: &[f64],
        hi: bool,
        adj_b: f64,
        adj_lie: f64,
        state: &mut [f64],
        grad: &mut [f64],
    ) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert_eq!(state.len(), self.lie_state_len(), "state length mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(field.len(), self.input_dim, "field dimension mismatch");
        // Offset, in units of the layer width, of the chosen field's
        // `g₁ | g₂ | ż` block.
        let blk = if hi { 8 } else { 5 };
        let mut fan_in = self.hidden[self.hidden.len() - 1];
        let mut p = params.len() - 1 - fan_in;
        let mut s = state.len();
        grad[p + fan_in] += adj_b;
        {
            let [_, _, zs, zbars, dbars, _, _, dz_los, _, _, dz_his] =
                split_units(&mut state[s - 11 * fan_in..], fan_in);
            let dzs = if hi { dz_his } else { dz_los };
            let w_out = &params[p..p + fan_in];
            for (o, g) in grad[p..p + fan_in].iter_mut().enumerate() {
                *g += adj_lie * dzs[o];
                *g += adj_b * zs[o];
                zbars[o] = adj_b * w_out[o];
                dbars[o] = adj_lie * w_out[o];
            }
        }
        let x_all_zero = x.iter().all(|&v| v == 0.0);
        for l in (0..self.hidden.len()).rev() {
            let h = fan_in;
            fan_in = if l == 0 {
                self.input_dim
            } else {
                self.hidden[l - 1]
            };
            let deep = l > 0;
            p -= 2 * (fan_in * h + h);
            let (pw1, _, pw2, _) = layer(params, p, fan_in, h);
            let (gw1, gb1, gw2, gb2) = layer_mut(grad, p, fan_in, h);
            let (below, cur) = state.split_at_mut(s - 11 * h);
            let unit = |k: usize| &cur[k * h..(k + 1) * h];
            let (a1s, a2s, zbars, dbars) = (unit(0), unit(1), unit(3), unit(4));
            let (g1s, g2s) = (unit(blk), unit(blk + 1));
            // The layer input, its tangent along the chosen field, and the
            // adjoints of both; the network input has no adjoints.
            let (input, tangent, zbar_in, dbar_in): (&[f64], &[f64], &mut [f64], &mut [f64]) =
                if l == 0 {
                    (x, field, &mut [], &mut [])
                } else {
                    let k = below.len() - 11 * fan_in;
                    let [_, _, z, zbar, dbar, _, _, dz_lo, _, _, dz_hi] =
                        split_units(&mut below[k..], fan_in);
                    zbar.fill(-0.0);
                    dbar.fill(-0.0);
                    (z, if hi { dz_hi } else { dz_lo }, zbar, dbar)
                };
            for o in (0..h).rev() {
                let (a1, a2) = (a1s[o], a2s[o]);
                let (g1, g2) = (g1s[o], g2s[o]);
                let (zbar, dbar) = (zbars[o], dbars[o]);
                // Each of a₁, a₂ feeds ż (the Lie term) and z (the product).
                let (lie1, prod1) = (dbar * g2, zbar * a2);
                let (lie2, prod2) = (dbar * g1, zbar * a1);
                let (a1bar, a2bar) = (lie1 + prod1, lie2 + prod2);
                let (g1bar, g2bar) = (dbar * a2, dbar * a1);
                if !deep && x_all_zero {
                    // a₁, a₂ are the bias parameters themselves.
                    gb1[o] += lie1;
                    gb1[o] += prod1;
                    gb2[o] += lie2;
                    gb2[o] += prod2;
                } else {
                    gb1[o] += a1bar;
                    gb2[o] += a2bar;
                }
                let row = o * fan_in..(o + 1) * fan_in;
                let (u1, u2) = (&mut gw1[row.clone()], &mut gw2[row.clone()]);
                for i in 0..fan_in {
                    if deep || tangent[i] != 0.0 {
                        u1[i] += g1bar * tangent[i];
                        u2[i] += g2bar * tangent[i];
                    }
                    if deep || input[i] != 0.0 {
                        u1[i] += a1bar * input[i];
                        u2[i] += a2bar * input[i];
                    }
                }
                let (r1, r2) = (&pw1[row.clone()], &pw2[row]);
                for i in 0..zbar_in.len() {
                    dbar_in[i] += g2bar * r2[i];
                    dbar_in[i] += g1bar * r1[i];
                    zbar_in[i] += a2bar * r2[i];
                    zbar_in[i] += a1bar * r1[i];
                }
            }
            s -= 11 * h;
        }
    }

    /// Forward pass on a tape with parameters and inputs as tape variables.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward_tape(&self, tape: &mut Tape, params: &[Var], x: &[Var]) -> Var {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut act: Vec<Var> = x.to_vec();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w1 = offset;
            let b1 = w1 + fan_in * h;
            let w2 = b1 + h;
            let b2 = w2 + fan_in * h;
            let mut next = Vec::with_capacity(h);
            for o in 0..h {
                let mut a1 = params[b1 + o];
                let mut a2 = params[b2 + o];
                for (i, a) in act.iter().enumerate() {
                    let p1 = tape.mul(params[w1 + o * fan_in + i], *a);
                    a1 = tape.add(a1, p1);
                    let p2 = tape.mul(params[w2 + o * fan_in + i], *a);
                    a2 = tape.add(a2, p2);
                }
                next.push(tape.mul(a1, a2));
            }
            offset = b2 + h;
            act = next;
        }
        let w = offset;
        let b = w + act.len();
        let mut out = params[b];
        for (i, a) in act.iter().enumerate() {
            let p = tape.mul(params[w + i], *a);
            out = tape.add(out, p);
        }
        out
    }

    /// Extracts the output as an explicit [`Polynomial`] by pushing symbolic
    /// coordinates through the layers — the step that hands the learned
    /// candidate `B(x)` to the SOS verifier.
    pub fn to_polynomial(&self) -> Polynomial {
        let mut act: Vec<Polynomial> = (0..self.input_dim).map(Polynomial::var).collect();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w1 = offset;
            let b1 = w1 + fan_in * h;
            let w2 = b1 + h;
            let b2 = w2 + fan_in * h;
            let mut next = Vec::with_capacity(h);
            for o in 0..h {
                let mut a1 = Polynomial::constant(self.params[b1 + o]);
                let mut a2 = Polynomial::constant(self.params[b2 + o]);
                for (i, a) in act.iter().enumerate() {
                    a1 += &a.scale(self.params[w1 + o * fan_in + i]);
                    a2 += &a.scale(self.params[w2 + o * fan_in + i]);
                }
                next.push(&a1 * &a2);
            }
            offset = b2 + h;
            act = next;
        }
        let w = offset;
        let b = w + act.len();
        let mut out = Polynomial::constant(self.params[b]);
        for (i, a) in act.iter().enumerate() {
            out += &a.scale(self.params[w + i]);
        }
        out
    }

    /// The analytic gradient `∇P(x)` from the chain rule (formula (9) of the
    /// paper), evaluated numerically. A reference for the tests: training
    /// takes the Lie derivative from [`QuadraticNet::eval_lie`].
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        // Forward pass storing per-layer pre-activations.
        let mut act: Vec<f64> = x.to_vec();
        // Jacobian of current activation w.r.t. input, row-major h × n.
        let n = self.input_dim;
        let mut jac: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                row
            })
            .collect();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w1 = offset;
            let b1 = w1 + fan_in * h;
            let w2 = b1 + h;
            let b2 = w2 + fan_in * h;
            let mut next = vec![0.0; h];
            let mut next_jac: Vec<Vec<f64>> = vec![vec![0.0; n]; h];
            for o in 0..h {
                let mut a1 = self.params[b1 + o];
                let mut a2 = self.params[b2 + o];
                for (i, a) in act.iter().enumerate() {
                    a1 += self.params[w1 + o * fan_in + i] * a;
                    a2 += self.params[w2 + o * fan_in + i] * a;
                }
                next[o] = a1 * a2;
                // d(a1·a2)/dx = a2·W₁ⱼ·J + a1·W₂ⱼ·J (formula (9) layerwise).
                for d in 0..n {
                    let mut g1 = 0.0;
                    let mut g2 = 0.0;
                    for i in 0..fan_in {
                        g1 += self.params[w1 + o * fan_in + i] * jac[i][d];
                        g2 += self.params[w2 + o * fan_in + i] * jac[i][d];
                    }
                    next_jac[o][d] = a2 * g1 + a1 * g2;
                }
            }
            offset = b2 + h;
            act = next;
            jac = next_jac;
        }
        let w = offset;
        let mut grad = vec![0.0; n];
        for (o, row) in jac.iter().enumerate() {
            for (d, g) in grad.iter_mut().enumerate() {
                *g += self.params[w + o] * row[d];
            }
        }
        grad
    }
}

/// One hidden layer's parameter block `W₁ | b₁ | W₂ | b₂` starting at `p`.
fn layer(params: &[f64], p: usize, fan_in: usize, h: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
    let (w1, rest) = params[p..].split_at(fan_in * h);
    let (b1, rest) = rest.split_at(h);
    let (w2, rest) = rest.split_at(fan_in * h);
    (w1, b1, w2, &rest[..h])
}

/// [`layer`] over a gradient row.
fn layer_mut(
    grad: &mut [f64],
    p: usize,
    fan_in: usize,
    h: usize,
) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    let (w1, rest) = grad[p..].split_at_mut(fan_in * h);
    let (b1, rest) = rest.split_at_mut(h);
    let (w2, rest) = rest.split_at_mut(fan_in * h);
    (w1, b1, w2, &mut rest[..h])
}

/// Splits `state` into its first `K` consecutive runs of `h` entries.
fn split_units<const K: usize>(state: &mut [f64], h: usize) -> [&mut [f64]; K] {
    let mut rest = state;
    std::array::from_fn(|_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(h);
        rest = tail;
        head
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn polynomial_matches_forward_on_grid() {
        for layers in [vec![4usize], vec![3, 2]] {
            let net = QuadraticNet::new(2, &layers, 5);
            let p = net.to_polynomial();
            assert!(p.degree() <= net.output_degree());
            for i in -2..=2 {
                for j in -2..=2 {
                    let x = [i as f64 * 0.37, j as f64 * 0.59];
                    assert!(
                        (net.forward(&x) - p.eval(&x)).abs() < 1e-9,
                        "mismatch at {x:?} for layers {layers:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tape_forward_matches_plain() {
        let net = QuadraticNet::new(3, &[4], 9);
        let x = [0.1, -0.5, 0.8];
        let mut tape = Tape::new();
        let pv: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xv: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pv, &xv);
        assert!((tape.value(y) - net.forward(&x)).abs() < 1e-12);
    }

    #[test]
    fn formula_nine_gradient_matches_autodiff_and_polynomial() {
        let net = QuadraticNet::new(2, &[3], 13);
        let x = [0.6, -0.4];
        // (a) closed-form chain rule (the paper's formula (9)).
        let g_closed = net.gradient(&x);
        // (b) autodiff.
        let mut tape = Tape::new();
        let pv: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xv: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pv, &xv);
        let g_ad = tape.grad(y, &xv);
        // (c) symbolic polynomial gradient.
        let p = net.to_polynomial();
        for d in 0..2 {
            let g_sym = p.partial(d).eval(&x);
            assert!((g_closed[d] - tape.value(g_ad[d])).abs() < 1e-10);
            assert!((g_closed[d] - g_sym).abs() < 1e-9);
        }
    }

    #[test]
    fn two_layer_network_has_degree_four() {
        let net = QuadraticNet::new(2, &[3, 2], 21);
        assert_eq!(net.output_degree(), 4);
        let p = net.to_polynomial();
        assert!(p.degree() <= 4);
        assert!(p.degree() >= 3, "random init should produce high-degree terms");
    }

    #[test]
    fn parameter_roundtrip() {
        let mut net = QuadraticNet::new(2, &[2], 1);
        let mut p = net.params().to_vec();
        p[0] = 42.0;
        net.set_params(&p);
        assert_eq!(net.params()[0], 42.0);
    }
}

impl QuadraticNet {
    /// Builds `(B(x), L_f B(x))` on a tape for a **single-hidden-layer**
    /// network using the closed-form gradient (formula (9) of the paper),
    /// with the sample `x` and field values `f(x)` as constants, skipping
    /// input terms whose constant is exactly zero. The reference that the
    /// oracle tests hold [`QuadraticNet::eval_lie`] to; returns `None` for
    /// deeper networks.
    ///
    /// # Panics
    ///
    /// Panics on parameter/input width mismatches.
    pub fn forward_and_lie_tape(
        &self,
        tape: &mut Tape,
        params: &[Var],
        x: &[f64],
        field: &[f64],
    ) -> Option<(Var, Var)> {
        self.forward_and_lie2_tape(tape, params, x, field, field)
            .map(|(b, lie, _)| (b, lie))
    }

    /// Like [`QuadraticNet::forward_and_lie_tape`] but evaluates the Lie
    /// derivative against two field samples in one pass (sharing the neuron
    /// activations): the reference for [`QuadraticNet::eval_lie`] at the
    /// `w = ∓σ*` extremes.
    ///
    /// # Panics
    ///
    /// Panics on parameter/input width mismatches.
    pub fn forward_and_lie2_tape(
        &self,
        tape: &mut Tape,
        params: &[Var],
        x: &[f64],
        field_lo: &[f64],
        field_hi: &[f64],
    ) -> Option<(Var, Var, Var)> {
        if self.hidden.len() != 1 {
            return None;
        }
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(field_lo.len(), self.input_dim, "field dimension mismatch");
        assert_eq!(field_hi.len(), self.input_dim, "field dimension mismatch");
        let n = self.input_dim;
        let h = self.hidden[0];
        let w1 = 0;
        let b1 = w1 + n * h;
        let w2 = b1 + h;
        let b2 = w2 + n * h;
        let wout = b2 + h;
        let bout = wout + h;

        let mut b_acc = params[bout];
        let mut lo_acc = tape.constant(0.0);
        let mut hi_acc = tape.constant(0.0);
        let same = field_lo == field_hi;
        for o in 0..h {
            // a1 = b1_o + Σ W1[o,i]·xᵢ and the field dots g = Σ W[o,i]·fᵢ
            // (xᵢ, fᵢ are constants: every term is a fused scale node).
            let mut a1 = params[b1 + o];
            let mut a2 = params[b2 + o];
            let mut g1_lo = tape.constant(0.0);
            let mut g2_lo = tape.constant(0.0);
            let mut g1_hi = g1_lo;
            let mut g2_hi = g2_lo;
            for i in 0..n {
                let p1 = params[w1 + o * n + i];
                let p2 = params[w2 + o * n + i];
                // Sparse tape construction: skip exactly-zero inputs.
                if x[i] != 0.0 {
                    let t1 = tape.scale(p1, x[i]);
                    a1 = tape.add(a1, t1);
                    let t2 = tape.scale(p2, x[i]);
                    a2 = tape.add(a2, t2);
                }
                if field_lo[i] != 0.0 {
                    let s1 = tape.scale(p1, field_lo[i]);
                    g1_lo = tape.add(g1_lo, s1);
                    let s2 = tape.scale(p2, field_lo[i]);
                    g2_lo = tape.add(g2_lo, s2);
                }
                if !same && field_hi[i] != 0.0 {
                    let s1 = tape.scale(p1, field_hi[i]);
                    g1_hi = tape.add(g1_hi, s1);
                    let s2 = tape.scale(p2, field_hi[i]);
                    g2_hi = tape.add(g2_hi, s2);
                }
            }
            // B-contribution: w_out[o]·a1·a2; Lie: w_out[o]·(a2·g1 + a1·g2).
            let prod = tape.mul(a1, a2);
            let bterm = tape.mul(params[wout + o], prod);
            b_acc = tape.add(b_acc, bterm);
            let t1 = tape.mul(a2, g1_lo);
            let t2 = tape.mul(a1, g2_lo);
            let grad_dot = tape.add(t1, t2);
            let lterm = tape.mul(params[wout + o], grad_dot);
            lo_acc = tape.add(lo_acc, lterm);
            if !same {
                let t1 = tape.mul(a2, g1_hi);
                let t2 = tape.mul(a1, g2_hi);
                let grad_dot = tape.add(t1, t2);
                let lterm = tape.mul(params[wout + o], grad_dot);
                hi_acc = tape.add(hi_acc, lterm);
            }
        }
        if same {
            hi_acc = lo_acc;
        }
        Some((b_acc, lo_acc, hi_acc))
    }
}

#[cfg(test)]
mod lie_tape_tests {
    use super::*;

    #[test]
    fn matches_generic_double_backprop() {
        let net = QuadraticNet::new(3, &[5], 77);
        let x = [0.4, -0.9, 0.2];
        let f = [1.3, -0.5, 0.8];
        // Fast path.
        let mut t1 = Tape::new();
        let pv1: Vec<_> = net.params().iter().map(|&p| t1.input(p)).collect();
        let (b_fast, lie_fast) = net
            .forward_and_lie_tape(&mut t1, &pv1, &x, &f)
            .expect("single hidden layer");
        // Generic path: forward + grad wrt inputs + dot with the field.
        let mut t2 = Tape::new();
        let pv2: Vec<_> = net.params().iter().map(|&p| t2.input(p)).collect();
        let xv: Vec<_> = x.iter().map(|&v| t2.input(v)).collect();
        let b_gen = net.forward_tape(&mut t2, &pv2, &xv);
        let g = t2.grad(b_gen, &xv);
        let mut lie_gen = t2.constant(0.0);
        for (gi, &fi) in g.iter().zip(&f) {
            let s = t2.scale(*gi, fi);
            lie_gen = t2.add(lie_gen, s);
        }
        assert!((t1.value(b_fast) - t2.value(b_gen)).abs() < 1e-12);
        assert!((t1.value(lie_fast) - t2.value(lie_gen)).abs() < 1e-10);
        // And the parameter gradients agree too.
        let gf = t1.grad(lie_fast, &pv1);
        let gg = t2.grad(lie_gen, &pv2);
        for (a, b) in gf.iter().zip(&gg) {
            assert!((t1.value(*a) - t2.value(*b)).abs() < 1e-9);
        }
    }

    #[test]
    fn returns_none_for_two_layers() {
        let net = QuadraticNet::new(2, &[3, 2], 1);
        let mut t = Tape::new();
        let pv: Vec<_> = net.params().iter().map(|&p| t.input(p)).collect();
        assert!(net
            .forward_and_lie_tape(&mut t, &pv, &[0.1, 0.2], &[1.0, 1.0])
            .is_none());
    }
}
