use rand::Rng;
use rand::SeedableRng;
use snbc_autodiff::{Tape, Var};
use snbc_poly::Polynomial;

/// The classic *square network* the paper compares its quadratic network
/// against (§4.1): hidden layers apply `σ(x) = (Wx + b)²` element-wise.
///
/// At equal hidden width and depth it produces the same output degree as
/// [`crate::QuadraticNet`] with **half the parameters**, but every hidden
/// feature is constrained to be a perfect square — the restricted output
/// range the paper identifies as the fitting-capability gap. The unit test
/// `quadratic_net_fits_saddles_better` below measures exactly that claim.
///
/// # Example
///
/// ```
/// use snbc_nn::{QuadraticNet, SquareNet};
///
/// let sq = SquareNet::new(2, &[5], 1);
/// let qn = QuadraticNet::new(2, &[5], 1);
/// assert_eq!(sq.output_degree(), qn.output_degree());
/// assert!(sq.num_params() < qn.num_params());
/// ```
#[derive(Debug, Clone)]
pub struct SquareNet {
    input_dim: usize,
    hidden: Vec<usize>,
    /// Per hidden layer `W | b` (row-major), then the output layer `W | b`.
    params: Vec<f64>,
}

impl SquareNet {
    /// Creates a randomly initialized square network.
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
            for _ in 0..fan_in * h + h {
                params.push(rng.gen_range(-scale..scale));
            }
            fan_in = h;
        }
        let scale = (2.0 / (fan_in + 1) as f64).sqrt();
        for _ in 0..fan_in {
            params.push(rng.gen_range(-scale..scale));
        }
        params.push(0.0);
        SquareNet {
            input_dim,
            hidden: hidden.to_vec(),
            params,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Degree of the output polynomial (`2^l`, same as the quadratic net).
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
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut act: Vec<f64> = x.to_vec();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w = offset;
            let b = w + fan_in * h;
            let mut next = vec![0.0; h];
            for (o, n) in next.iter_mut().enumerate() {
                let mut a = self.params[b + o];
                for (i, v) in act.iter().enumerate() {
                    a += self.params[w + o * fan_in + i] * v;
                }
                *n = a * a;
            }
            offset = b + h;
            act = next;
        }
        let w = offset;
        let b = w + act.len();
        let mut out = self.params[b];
        for (i, a) in act.iter().enumerate() {
            out += self.params[w + i] * a;
        }
        out
    }

    /// Forward pass on a tape.
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
            let w = offset;
            let b = w + fan_in * h;
            let mut next = Vec::with_capacity(h);
            for o in 0..h {
                let mut a = params[b + o];
                for (i, v) in act.iter().enumerate() {
                    let p = tape.mul(params[w + o * fan_in + i], *v);
                    a = tape.add(a, p);
                }
                next.push(tape.mul(a, a));
            }
            offset = b + h;
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

    /// Extracts the output as an explicit polynomial.
    pub fn to_polynomial(&self) -> Polynomial {
        let mut act: Vec<Polynomial> = (0..self.input_dim).map(Polynomial::var).collect();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w = offset;
            let b = w + fan_in * h;
            let mut next = Vec::with_capacity(h);
            for o in 0..h {
                let mut a = Polynomial::constant(self.params[b + o]);
                for (i, v) in act.iter().enumerate() {
                    a += &v.scale(self.params[w + o * fan_in + i]);
                }
                next.push(&a * &a);
            }
            offset = b + h;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, QuadraticNet};

    #[test]
    fn polynomial_matches_forward() {
        let net = SquareNet::new(2, &[4], 9);
        let p = net.to_polynomial();
        for i in -2..=2 {
            for j in -2..=2 {
                let x = [i as f64 * 0.4, j as f64 * 0.3];
                assert!((net.forward(&x) - p.eval(&x)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tape_matches_plain() {
        let net = SquareNet::new(3, &[3], 4);
        let x = [0.3, -0.2, 0.9];
        let mut tape = Tape::new();
        let pv: Vec<_> = net.params().iter().map(|&p| tape.input(p)).collect();
        let xv: Vec<_> = x.iter().map(|&v| tape.input(v)).collect();
        let y = net.forward_tape(&mut tape, &pv, &xv);
        assert!((tape.value(y) - net.forward(&x)).abs() < 1e-12);
    }

    #[test]
    fn half_the_parameters_of_quadratic() {
        let sq = SquareNet::new(4, &[8], 0);
        let qn = QuadraticNet::new(4, &[8], 0);
        // Hidden layer: (4·8+8) vs 2·(4·8+8); shared output layer (8+1).
        assert_eq!(qn.num_params() - sq.num_params(), 4 * 8 + 8);
    }

    /// The paper's fitting-capability claim, measured where it is provable:
    /// with a single hidden neuron, the square net can only express
    /// `w·(aᵀx + b)² + c` — a rank-1 quadratic — while the cross-product
    /// neuron expresses `(a₁ᵀx + b₁)(a₂ᵀx + b₂)`, a rank-2 (indefinite)
    /// form. The saddle `x·y` is exactly representable by the latter and
    /// provably not by the former.
    #[test]
    fn quadratic_net_fits_saddles_better() {
        let target = |x: &[f64]| x[0] * x[1] - 0.3 * x[0] + 0.1;
        let samples: Vec<(Vec<f64>, f64)> = (0..120)
            .map(|i| {
                let a = -1.0 + 2.0 * (i % 11) as f64 / 10.0;
                let b = -1.0 + 2.0 * (i / 11) as f64 / 10.0;
                (vec![a, b], target(&[a, b]))
            })
            .collect();

        let fit_quadratic = |seed: u64| -> f64 {
            let mut net = QuadraticNet::new(2, &[1], seed);
            let mut opt = Adam::new(net.num_params(), 0.05);
            let mut params = net.params().to_vec();
            for _ in 0..400 {
                let mut tape = Tape::new();
                let pv: Vec<_> = params.iter().map(|&p| tape.input(p)).collect();
                let mut loss = tape.constant(0.0);
                for (x, y) in &samples {
                    let xv: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
                    net.set_params(&params);
                    let out = net.forward_tape(&mut tape, &pv, &xv);
                    let e = tape.add_const(out, -y);
                    let sq = tape.mul(e, e);
                    loss = tape.add(loss, sq);
                }
                let g = tape.grad(loss, &pv);
                let gv: Vec<f64> = g.iter().map(|&v| tape.value(v)).collect();
                opt.step(&mut params, &gv);
            }
            net.set_params(&params);
            samples
                .iter()
                .map(|(x, y)| (net.forward(x) - y).powi(2))
                .sum::<f64>()
                / samples.len() as f64
        };
        let fit_square = |seed: u64| -> f64 {
            let mut net = SquareNet::new(2, &[1], seed);
            let mut opt = Adam::new(net.num_params(), 0.05);
            let mut params = net.params().to_vec();
            for _ in 0..400 {
                let mut tape = Tape::new();
                let pv: Vec<_> = params.iter().map(|&p| tape.input(p)).collect();
                let mut loss = tape.constant(0.0);
                for (x, y) in &samples {
                    let xv: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
                    net.set_params(&params);
                    let out = net.forward_tape(&mut tape, &pv, &xv);
                    let e = tape.add_const(out, -y);
                    let sq = tape.mul(e, e);
                    loss = tape.add(loss, sq);
                }
                let g = tape.grad(loss, &pv);
                let gv: Vec<f64> = g.iter().map(|&v| tape.value(v)).collect();
                opt.step(&mut params, &gv);
            }
            net.set_params(&params);
            samples
                .iter()
                .map(|(x, y)| (net.forward(x) - y).powi(2))
                .sum::<f64>()
                / samples.len() as f64
        };

        // Best of three seeds each, to dodge unlucky initializations.
        let q = (0..3).map(fit_quadratic).fold(f64::INFINITY, f64::min);
        let s = (0..3).map(fit_square).fold(f64::INFINITY, f64::min);
        assert!(
            q < 0.2 * s,
            "quadratic net (mse {q:.2e}) should decisively out-fit the square net (mse {s:.2e})"
        );
    }
}
