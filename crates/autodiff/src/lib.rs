//! Tape-based reverse-mode automatic differentiation with second-order support.
//!
//! The SNBC learner trains a *quadratic network* `B(x; θ)` whose loss (eq. (10)
//! of the paper) contains the Lie derivative `L_f B(x) = ∇ₓB(x)·f(x)` — a
//! gradient **with respect to the network input** — and then needs the gradient
//! of that loss **with respect to the parameters θ**. That is a
//! grad-of-grad: the backward pass itself must be differentiable.
//!
//! This crate implements the classic solution: a [`Tape`] of scalar operations
//! where [`Tape::grad`] replays the tape in reverse and *records the adjoint
//! computation as new tape nodes*. The returned gradients are ordinary
//! [`Var`]s, so calling [`Tape::grad`] on them differentiates through the
//! first backward pass.
//!
//! # Example
//!
//! ```
//! use snbc_autodiff::Tape;
//!
//! let mut t = Tape::new();
//! let x = t.input(0.5);
//! let y = t.mul(x, x);          // y = x²
//! let y = t.mul(y, x);          // y = x³
//! let g = t.grad(y, &[x]);      // dy/dx = 3x²
//! assert!((t.value(g[0]) - 0.75).abs() < 1e-12);
//! let h = t.grad(g[0], &[x]);   // d²y/dx² = 6x
//! assert!((t.value(h[0]) - 3.0).abs() < 1e-12);
//! ```

use std::fmt;

/// Handle to a scalar value recorded on a [`Tape`].
///
/// `Var`s are cheap copyable indices; all arithmetic goes through [`Tape`]
/// methods so the operation graph is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The raw node index on its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Const,
    Input,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Recip(Var),
    Tanh(Var),
    Exp(Var),
    Sin(Var),
    Cos(Var),
    /// LeakyReLU with the given negative-side slope.
    LeakyRelu(Var, f64),
    /// Integer power with exponent ≥ 1.
    Powi(Var, u32),
    Max(Var, Var),
    Min(Var, Var),
    /// Fused multiply-by-constant (one node instead of constant + mul).
    MulConst(Var, f64),
    /// Fused add-constant (the constant does not affect gradients, so only
    /// the operand is stored for the backward pass; the value is folded in at
    /// construction).
    AddConst(Var),
}

#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    value: f64,
}

/// A growable record of scalar operations supporting repeated reverse-mode
/// differentiation.
///
/// Values are computed eagerly as nodes are pushed; the graph exists so that
/// [`Tape::grad`] can emit adjoint nodes. See the [crate docs](crate) for an
/// example.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Creates an empty tape with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Tape {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: f64) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant (not differentiated against).
    pub fn constant(&mut self, v: f64) -> Var {
        self.push(Op::Const, v)
    }

    /// Records an input/leaf variable (differentiable).
    pub fn input(&mut self, v: f64) -> Var {
        self.push(Op::Input, v)
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> f64 {
        self.nodes[v.0].value
    }

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a) + self.value(b);
        self.push(Op::Add(a, b), v)
    }

    /// `a − b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a) - self.value(b);
        self.push(Op::Sub(a, b), v)
    }

    /// `a · b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a) * self.value(b);
        self.push(Op::Mul(a, b), v)
    }

    /// `−a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = -self.value(a);
        self.push(Op::Neg(a), v)
    }

    /// `1 / a`.
    pub fn recip(&mut self, a: Var) -> Var {
        let v = 1.0 / self.value(a);
        self.push(Op::Recip(a), v)
    }

    /// `a / b` (recorded as `a · (1/b)`).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let r = self.recip(b);
        self.mul(a, r)
    }

    /// `tanh(a)`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        self.push(Op::Tanh(a), v)
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).exp();
        self.push(Op::Exp(a), v)
    }

    /// `sin(a)`.
    pub fn sin(&mut self, a: Var) -> Var {
        let v = self.value(a).sin();
        self.push(Op::Sin(a), v)
    }

    /// `cos(a)`.
    pub fn cos(&mut self, a: Var) -> Var {
        let v = self.value(a).cos();
        self.push(Op::Cos(a), v)
    }

    /// LeakyReLU: `a` for `a > 0`, `slope · a` otherwise. The paper uses this
    /// as the smooth surrogate for `max{ε, ·}` in loss (10).
    pub fn leaky_relu(&mut self, a: Var, slope: f64) -> Var {
        let x = self.value(a);
        let v = if x > 0.0 { x } else { slope * x };
        self.push(Op::LeakyRelu(a, slope), v)
    }

    /// `aᵉ` for integer `e ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `e == 0` (record a constant instead).
    pub fn powi(&mut self, a: Var, e: u32) -> Var {
        assert!(e >= 1, "powi exponent must be >= 1");
        // powi exponents are tiny (poly degrees); the cast cannot truncate.
        let v = self.value(a).powi(e as i32);
        self.push(Op::Powi(a, e), v)
    }

    /// `max(a, b)` (subgradient flows to the larger argument).
    pub fn max(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).max(self.value(b));
        self.push(Op::Max(a, b), v)
    }

    /// `min(a, b)` (subgradient flows to the smaller argument).
    pub fn min(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).min(self.value(b));
        self.push(Op::Min(a, b), v)
    }

    /// `a + c` for a plain float `c` (fused single node).
    pub fn add_const(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a) + c;
        self.push(Op::AddConst(a), v)
    }

    /// `c · a` for a plain float `c` (fused single node).
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a) * c;
        self.push(Op::MulConst(a, c), v)
    }

    /// Sum of a slice of variables (`0` constant for the empty slice).
    pub fn sum(&mut self, vars: &[Var]) -> Var {
        match vars.split_first() {
            None => self.constant(0.0),
            Some((&first, rest)) => {
                let mut acc = first;
                for &v in rest {
                    acc = self.add(acc, v);
                }
                acc
            }
        }
    }

    /// Dot product `Σ aᵢ·bᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, a: &[Var], b: &[Var]) -> Var {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = self.constant(0.0);
        for (&x, &y) in a.iter().zip(b) {
            let p = self.mul(x, y);
            acc = self.add(acc, p);
        }
        acc
    }

    /// Reverse-mode gradient of `output` with respect to each variable in
    /// `wrt`, **recorded as new tape nodes** so the result is itself
    /// differentiable.
    ///
    /// Variables in `wrt` that `output` does not depend on receive a constant
    /// zero gradient.
    pub fn grad(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        // Two traversal strategies:
        // * few wrt variables (per-sample input gradients): sparse reverse
        //   traversal visiting only the ancestors of `output` — keeps the
        //   cost proportional to the subgraph, not the whole tape;
        // * many wrt variables (a whole parameter vector): dense sweep over
        //   the tape prefix, which avoids heap/hash overhead when the
        //   subgraph is most of the tape anyway.
        if wrt.len() >= 64 {
            return self.grad_dense(output, wrt);
        }
        use std::collections::{BTreeMap, BinaryHeap};
        let frontier = output.0 + 1;
        let mut adjoint: BTreeMap<usize, Var> = BTreeMap::new();
        let mut heap: BinaryHeap<usize> = BinaryHeap::new();
        let one = self.constant(1.0);
        adjoint.insert(output.0, one);
        heap.push(output.0);
        while let Some(i) = heap.pop() {
            while heap.peek() == Some(&i) {
                heap.pop();
            }
            let adj = adjoint[&i];
            let node = self.nodes[i];
            match node.op {
                Op::Const | Op::Input => {}
                Op::Add(a, b) => {
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, adj);
                    self.accumulate(&mut adjoint, &mut heap, frontier, b, adj);
                }
                Op::Sub(a, b) => {
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, adj);
                    let n = self.neg(adj);
                    self.accumulate(&mut adjoint, &mut heap, frontier, b, n);
                }
                Op::Mul(a, b) => {
                    let da = self.mul(adj, b);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                    let db = self.mul(adj, a);
                    self.accumulate(&mut adjoint, &mut heap, frontier, b, db);
                }
                Op::Neg(a) => {
                    let n = self.neg(adj);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, n);
                }
                Op::Recip(a) => {
                    // d(1/a)/da = −1/a² = −(1/a)².
                    let y = Var(i);
                    let y2 = self.mul(y, y);
                    let d = self.neg(y2);
                    let da = self.mul(adj, d);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Tanh(a) => {
                    // d tanh / da = 1 − y².
                    let y = Var(i);
                    let y2 = self.mul(y, y);
                    let one = self.constant(1.0);
                    let d = self.sub(one, y2);
                    let da = self.mul(adj, d);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Exp(a) => {
                    let y = Var(i);
                    let da = self.mul(adj, y);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Sin(a) => {
                    let c = self.cos(a);
                    let da = self.mul(adj, c);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Cos(a) => {
                    let s = self.sin(a);
                    let ns = self.neg(s);
                    let da = self.mul(adj, ns);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::LeakyRelu(a, slope) => {
                    // Piecewise-constant derivative selected by the current
                    // value; its second derivative is zero a.e.
                    let d = if self.value(a) > 0.0 { 1.0 } else { slope };
                    let da = self.scale(adj, d);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Powi(a, e) => {
                    let d = if e == 1 {
                        self.constant(1.0)
                    } else {
                        let p = self.powi(a, e - 1);
                        self.scale(p, f64::from(e))
                    };
                    let da = self.mul(adj, d);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::Max(a, b) => {
                    if self.value(a) >= self.value(b) {
                        self.accumulate(&mut adjoint, &mut heap, frontier, a, adj);
                    } else {
                        self.accumulate(&mut adjoint, &mut heap, frontier, b, adj);
                    }
                }
                Op::Min(a, b) => {
                    if self.value(a) <= self.value(b) {
                        self.accumulate(&mut adjoint, &mut heap, frontier, a, adj);
                    } else {
                        self.accumulate(&mut adjoint, &mut heap, frontier, b, adj);
                    }
                }
                Op::MulConst(a, c) => {
                    let da = self.scale(adj, c);
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, da);
                }
                Op::AddConst(a) => {
                    self.accumulate(&mut adjoint, &mut heap, frontier, a, adj);
                }
            }
        }
        wrt.iter()
            .map(|w| {
                adjoint
                    .get(&w.0)
                    .copied()
                    .unwrap_or_else(|| self.constant(0.0))
            })
            .collect()
    }

    /// Dense reverse sweep over the tape prefix `0..=output`; used when the
    /// gradient of (nearly) the whole tape is requested.
    fn grad_dense(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        let frontier = output.0 + 1;
        let mut adjoint: Vec<Option<Var>> = vec![None; frontier];
        let one = self.constant(1.0);
        adjoint[output.0] = Some(one);
        for i in (0..frontier).rev() {
            let Some(adj) = adjoint[i] else { continue };
            let node = self.nodes[i];
            match node.op {
                Op::Const | Op::Input => {}
                Op::Add(a, b) => {
                    self.acc_dense(&mut adjoint, a, adj);
                    self.acc_dense(&mut adjoint, b, adj);
                }
                Op::Sub(a, b) => {
                    self.acc_dense(&mut adjoint, a, adj);
                    let n = self.neg(adj);
                    self.acc_dense(&mut adjoint, b, n);
                }
                Op::Mul(a, b) => {
                    let da = self.mul(adj, b);
                    self.acc_dense(&mut adjoint, a, da);
                    let db = self.mul(adj, a);
                    self.acc_dense(&mut adjoint, b, db);
                }
                Op::Neg(a) => {
                    let n = self.neg(adj);
                    self.acc_dense(&mut adjoint, a, n);
                }
                Op::Recip(a) => {
                    let y = Var(i);
                    let y2 = self.mul(y, y);
                    let d = self.neg(y2);
                    let da = self.mul(adj, d);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Tanh(a) => {
                    let y = Var(i);
                    let y2 = self.mul(y, y);
                    let one = self.constant(1.0);
                    let d = self.sub(one, y2);
                    let da = self.mul(adj, d);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Exp(a) => {
                    let y = Var(i);
                    let da = self.mul(adj, y);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Sin(a) => {
                    let c = self.cos(a);
                    let da = self.mul(adj, c);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Cos(a) => {
                    let s = self.sin(a);
                    let ns = self.neg(s);
                    let da = self.mul(adj, ns);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::LeakyRelu(a, slope) => {
                    let d = if self.value(a) > 0.0 { 1.0 } else { slope };
                    let da = self.scale(adj, d);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Powi(a, e) => {
                    let d = if e == 1 {
                        self.constant(1.0)
                    } else {
                        let p = self.powi(a, e - 1);
                        self.scale(p, f64::from(e))
                    };
                    let da = self.mul(adj, d);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::Max(a, b) => {
                    if self.value(a) >= self.value(b) {
                        self.acc_dense(&mut adjoint, a, adj);
                    } else {
                        self.acc_dense(&mut adjoint, b, adj);
                    }
                }
                Op::Min(a, b) => {
                    if self.value(a) <= self.value(b) {
                        self.acc_dense(&mut adjoint, a, adj);
                    } else {
                        self.acc_dense(&mut adjoint, b, adj);
                    }
                }
                Op::MulConst(a, c) => {
                    let da = self.scale(adj, c);
                    self.acc_dense(&mut adjoint, a, da);
                }
                Op::AddConst(a) => {
                    self.acc_dense(&mut adjoint, a, adj);
                }
            }
        }
        wrt.iter()
            .map(|w| {
                adjoint
                    .get(w.0)
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| self.constant(0.0))
            })
            .collect()
    }

    fn acc_dense(&mut self, adjoint: &mut [Option<Var>], target: Var, contribution: Var) {
        if target.0 >= adjoint.len() {
            return;
        }
        adjoint[target.0] = Some(match adjoint[target.0] {
            None => contribution,
            Some(existing) => self.add(existing, contribution),
        });
    }

    fn accumulate(
        &mut self,
        adjoint: &mut std::collections::BTreeMap<usize, Var>,
        heap: &mut std::collections::BinaryHeap<usize>,
        frontier: usize,
        target: Var,
        contribution: Var,
    ) {
        if target.0 >= frontier {
            // Node created during this backward pass; it cannot be an
            // ancestor of the output, so its adjoint is irrelevant.
            return;
        }
        match adjoint.entry(target.0) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(contribution);
                heap.push(target.0);
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let existing = *e.get();
                let sum = self.add(existing, contribution);
                adjoint.insert(target.0, sum);
            }
        }
    }

    /// Clears all nodes, keeping the allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }
}

impl fmt::Display for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape with {} nodes", self.nodes.len())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn polynomial_first_and_second_derivative() {
        // f(x) = x³ − 2x; f' = 3x² − 2; f'' = 6x.
        let mut t = Tape::new();
        let x = t.input(1.7);
        let x3 = t.powi(x, 3);
        let tx = t.scale(x, 2.0);
        let f = t.sub(x3, tx);
        let g = t.grad(f, &[x]);
        assert!((t.value(g[0]) - (3.0 * 1.7f64.powi(2) - 2.0)).abs() < 1e-12);
        let h = t.grad(g[0], &[x]);
        assert!((t.value(h[0]) - 6.0 * 1.7).abs() < 1e-12);
    }

    #[test]
    fn tanh_derivatives_match_finite_differences() {
        let x0 = 0.37;
        let mut t = Tape::new();
        let x = t.input(x0);
        let y = t.tanh(x);
        let g = t.grad(y, &[x]);
        assert!((t.value(g[0]) - finite_diff(f64::tanh, x0)).abs() < 1e-8);
        let h = t.grad(g[0], &[x]);
        let second = finite_diff(|v| 1.0 - v.tanh().powi(2), x0);
        assert!((t.value(h[0]) - second).abs() < 1e-7);
    }

    #[test]
    fn multivariate_partials() {
        // f(a, b) = a·b + sin(a); ∂f/∂a = b + cos(a), ∂f/∂b = a.
        let (a0, b0) = (0.8, -1.3);
        let mut t = Tape::new();
        let a = t.input(a0);
        let b = t.input(b0);
        let ab = t.mul(a, b);
        let sa = t.sin(a);
        let f = t.add(ab, sa);
        let g = t.grad(f, &[a, b]);
        assert!((t.value(g[0]) - (b0 + a0.cos())).abs() < 1e-12);
        assert!((t.value(g[1]) - a0).abs() < 1e-12);
    }

    #[test]
    fn grad_of_unrelated_input_is_zero() {
        let mut t = Tape::new();
        let a = t.input(1.0);
        let b = t.input(2.0);
        let f = t.mul(a, a);
        let g = t.grad(f, &[b]);
        assert_eq!(t.value(g[0]), 0.0);
    }

    #[test]
    fn fan_out_accumulates() {
        // f = x·x + x ⇒ f' = 2x + 1.
        let mut t = Tape::new();
        let x = t.input(3.0);
        let xx = t.mul(x, x);
        let f = t.add(xx, x);
        let g = t.grad(f, &[x]);
        assert!((t.value(g[0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn division_and_reciprocal() {
        let mut t = Tape::new();
        let a = t.input(3.0);
        let b = t.input(2.0);
        let q = t.div(a, b);
        let g = t.grad(q, &[a, b]);
        assert!((t.value(g[0]) - 0.5).abs() < 1e-12);
        assert!((t.value(g[1]) + 0.75).abs() < 1e-12);
    }

    #[test]
    fn leaky_relu_both_sides() {
        for (x0, want) in [(2.0, 1.0), (-2.0, 0.01)] {
            let mut t = Tape::new();
            let x = t.input(x0);
            let y = t.leaky_relu(x, 0.01);
            let g = t.grad(y, &[x]);
            assert!((t.value(g[0]) - want).abs() < 1e-15);
        }
    }

    #[test]
    fn max_min_route_gradient() {
        let mut t = Tape::new();
        let a = t.input(1.0);
        let b = t.input(5.0);
        let m = t.max(a, b);
        let g = t.grad(m, &[a, b]);
        assert_eq!(t.value(g[0]), 0.0);
        assert_eq!(t.value(g[1]), 1.0);
        let mn = t.min(a, b);
        let g2 = t.grad(mn, &[a, b]);
        assert_eq!(t.value(g2[0]), 1.0);
        assert_eq!(t.value(g2[1]), 0.0);
    }

    #[test]
    fn exp_second_derivative_is_exp() {
        let mut t = Tape::new();
        let x = t.input(0.4);
        let y = t.exp(x);
        let g = t.grad(y, &[x]);
        let h = t.grad(g[0], &[x]);
        assert!((t.value(h[0]) - 0.4f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn lie_derivative_style_double_backprop() {
        // B(x; w) = w·x², loss = (dB/dx)·f with f = 2 constant.
        // dB/dx = 2wx, loss = 4wx, dloss/dw = 4x.
        let mut t = Tape::new();
        let w = t.input(1.5);
        let x = t.input(0.7);
        let x2 = t.mul(x, x);
        let b = t.mul(w, x2);
        let dbdx = t.grad(b, &[x]);
        let loss = t.scale(dbdx[0], 2.0);
        let dloss = t.grad(loss, &[w]);
        assert!((t.value(dloss[0]) - 4.0 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn sum_and_dot_helpers() {
        let mut t = Tape::new();
        let a = t.input(1.0);
        let b = t.input(2.0);
        let c = t.input(3.0);
        let s = t.sum(&[a, b, c]);
        assert_eq!(t.value(s), 6.0);
        let d = t.dot(&[a, b], &[b, c]);
        assert_eq!(t.value(d), 8.0);
        let empty = t.sum(&[]);
        assert_eq!(t.value(empty), 0.0);
    }

    #[test]
    fn clear_reuses_allocation() {
        let mut t = Tape::new();
        let x = t.input(1.0);
        let _ = t.tanh(x);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }
}
