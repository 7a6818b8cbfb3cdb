use snbc_poly::Polynomial;

use crate::SemiAlgebraicSet;

/// A controlled continuous dynamical system `C = ⟨f, Θ, Ψ⟩` with unsafe set
/// `Ξ` (§2 of the paper, eq. (2)).
///
/// The open-loop vector field is polynomial in the state `x₀…x_{n−1}` and the
/// scalar control input, which is represented as the extra variable `x_n`.
/// Closing the loop with a polynomial controller `u = h(x)` is a polynomial
/// substitution.
///
/// # Example
///
/// ```
/// use snbc_dynamics::{Ccds, SemiAlgebraicSet};
/// use snbc_poly::Polynomial;
///
/// // ẋ = u on the line, u = −x stabilizes.
/// let sys = Ccds::new(
///     "integrator",
///     vec!["x1".parse().unwrap()],           // x1 is the control input
///     SemiAlgebraicSet::box_set(&[(-0.1, 0.1)]),
///     SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]),
///     SemiAlgebraicSet::box_set(&[(0.9, 1.0)]),
/// );
/// let closed = sys.close_loop(&"-1*x0".parse::<Polynomial>().unwrap());
/// assert_eq!(closed[0], "-1*x0".parse().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Ccds {
    name: String,
    /// Field components in variables `x₀…x_{n−1}` plus the control inputs
    /// `x_n … x_{n+m−1}`.
    field: Vec<Polynomial>,
    num_inputs: usize,
    init: SemiAlgebraicSet,
    domain: SemiAlgebraicSet,
    unsafe_set: SemiAlgebraicSet,
}

impl Ccds {
    /// Creates a system. `field[i]` is `ẋᵢ` as a polynomial in
    /// `(x₀…x_{n−1}, u = x_n)`.
    ///
    /// # Panics
    ///
    /// Panics if set dimensions do not match the field arity, or a field
    /// component references variables beyond `x_n`.
    pub fn new(
        name: impl Into<String>,
        field: Vec<Polynomial>,
        init: SemiAlgebraicSet,
        domain: SemiAlgebraicSet,
        unsafe_set: SemiAlgebraicSet,
    ) -> Self {
        let n = field.len();
        assert!(n > 0, "empty vector field");
        assert_eq!(init.nvars(), n, "init set dimension mismatch");
        assert_eq!(domain.nvars(), n, "domain dimension mismatch");
        assert_eq!(unsafe_set.nvars(), n, "unsafe set dimension mismatch");
        for f in &field {
            assert!(
                f.nvars() <= n + 1,
                "field component references variables beyond u = x{n}"
            );
        }
        Ccds {
            name: name.into(),
            field,
            num_inputs: 1,
            init,
            domain,
            unsafe_set,
        }
    }

    /// System name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// State dimension `n`.
    pub fn nvars(&self) -> usize {
        self.field.len()
    }

    /// The open-loop field (control input is variable `x_n`).
    pub fn field(&self) -> &[Polynomial] {
        &self.field
    }

    /// Maximum degree of the field components (the paper's `d_f`, counting
    /// only state variables — the control enters affinely in all benchmarks).
    pub fn field_degree(&self) -> u32 {
        self.field.iter().map(Polynomial::degree).max().unwrap_or(0)
    }

    /// Initial set `Θ`.
    pub fn init(&self) -> &SemiAlgebraicSet {
        &self.init
    }

    /// Domain `Ψ`.
    pub fn domain(&self) -> &SemiAlgebraicSet {
        &self.domain
    }

    /// Unsafe region `Ξ`.
    pub fn unsafe_set(&self) -> &SemiAlgebraicSet {
        &self.unsafe_set
    }

    /// Evaluates the open-loop field at `(x, u)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.nvars()`.
    pub fn eval_field(&self, x: &[f64], u: f64) -> Vec<f64> {
        assert_eq!(x.len(), self.nvars(), "state dimension mismatch");
        let mut xu = x.to_vec();
        xu.push(u);
        self.field.iter().map(|f| f.eval(&xu)).collect()
    }

    /// Substitutes `u = h(x)`, returning the closed-loop polynomial field.
    pub fn close_loop(&self, h: &Polynomial) -> Vec<Polynomial> {
        let n = self.nvars();
        self.field.iter().map(|f| f.substitute(n, h)).collect()
    }

    /// Closed-loop field with the *interval controller* `u = h(x) + w`, where
    /// `w` is a fresh variable placed at index `n` (the paper's polynomial
    /// inclusion of §3: `w ∈ [−σ*, σ*]`).
    pub fn close_loop_with_error(&self, h: &Polynomial) -> Vec<Polynomial> {
        let n = self.nvars();
        let hw = h + &Polynomial::var(n); // h(x) + w, with w in slot n
        self.field.iter().map(|f| f.substitute(n, &hw)).collect()
    }
}

/// A simulated trajectory: sampled states at fixed time steps.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Step size used.
    pub dt: f64,
    /// States, starting with the initial condition.
    pub states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// `true` if any sampled state lies in the given set.
    pub fn enters(&self, set: &SemiAlgebraicSet) -> bool {
        self.states.iter().any(|x| set.contains(x))
    }

    /// Largest Euclidean norm along the trajectory.
    pub fn max_norm(&self) -> f64 {
        self.states
            .iter()
            .map(|x| snbc_linalg_norm(x))
            .fold(0.0, f64::max)
    }
}

fn snbc_linalg_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Integrates the closed-loop system with classical RK4 from `x0` for
/// `steps` steps of size `dt`, with the control computed by `controller`.
///
/// # Panics
///
/// Panics if `x0.len() != system.nvars()` or `dt ≤ 0`.
pub fn simulate(
    system: &Ccds,
    controller: impl Fn(&[f64]) -> f64,
    x0: &[f64],
    dt: f64,
    steps: usize,
) -> Trajectory {
    assert_eq!(x0.len(), system.nvars(), "initial state dimension mismatch");
    assert!(dt > 0.0, "step size must be positive");
    let deriv = |x: &[f64]| system.eval_field(x, controller(x));
    let mut states = Vec::with_capacity(steps + 1);
    let mut x = x0.to_vec();
    states.push(x.clone());
    for _ in 0..steps {
        let k1 = deriv(&x);
        let x2: Vec<f64> = x.iter().zip(&k1).map(|(a, k)| a + 0.5 * dt * k).collect();
        let k2 = deriv(&x2);
        let x3: Vec<f64> = x.iter().zip(&k2).map(|(a, k)| a + 0.5 * dt * k).collect();
        let k3 = deriv(&x3);
        let x4: Vec<f64> = x.iter().zip(&k3).map(|(a, k)| a + dt * k).collect();
        let k4 = deriv(&x4);
        for i in 0..x.len() {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        states.push(x.clone());
    }
    Trajectory { dt, states }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harmonic() -> Ccds {
        // ẋ = y, ẏ = −x + 0·u (autonomous oscillator with a dummy input).
        Ccds::new(
            "osc",
            vec!["x1".parse().unwrap(), "-1*x0".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.1, 0.1), (-0.1, 0.1)]),
            SemiAlgebraicSet::box_set(&[(-2.0, 2.0), (-2.0, 2.0)]),
            SemiAlgebraicSet::box_set(&[(1.5, 2.0), (1.5, 2.0)]),
        )
    }

    #[test]
    fn rk4_conserves_oscillator_energy() {
        let sys = harmonic();
        let traj = simulate(&sys, |_| 0.0, &[1.0, 0.0], 0.01, 1000);
        for x in &traj.states {
            let e = x[0] * x[0] + x[1] * x[1];
            assert!((e - 1.0).abs() < 1e-6, "energy drifted to {e}");
        }
    }

    #[test]
    fn rk4_has_fourth_order_accuracy() {
        // Compare against the exact solution x(t) = cos(t) at t = 1.
        let sys = harmonic();
        let err = |dt: f64| {
            #[expect(clippy::cast_possible_truncation, reason = "a small positive step count")]
            let steps = (1.0 / dt) as usize;
            let t = simulate(&sys, |_| 0.0, &[1.0, 0.0], dt, steps);
            (t.states[steps][0] - 1.0f64.cos()).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        // Fourth order: halving dt should shrink error ~16×.
        assert!(e1 / e2 > 8.0, "order too low: {e1} / {e2}");
    }

    #[test]
    fn close_loop_substitutes_controller() {
        // ẋ = x1(= u); u = −2x0 ⇒ ẋ = −2x0.
        let sys = Ccds::new(
            "int",
            vec!["x1".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.1, 0.1)]),
            SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]),
            SemiAlgebraicSet::box_set(&[(0.9, 1.0)]),
        );
        let closed = sys.close_loop(&"-2*x0".parse::<Polynomial>().unwrap());
        assert_eq!(closed[0], "-2*x0".parse().unwrap());
        // With error channel: ẋ = −2x0 + w (w at index 1).
        let robust = sys.close_loop_with_error(&"-2*x0".parse::<Polynomial>().unwrap());
        assert_eq!(robust[0], "-2*x0 + x1".parse().unwrap());
    }

    #[test]
    fn trajectory_enters_detects_unsafe() {
        let sys = harmonic();
        let traj = simulate(&sys, |_| 0.0, &[1.9, 1.9], 0.01, 10);
        assert!(traj.enters(sys.unsafe_set()));
        let safe = simulate(&sys, |_| 0.0, &[0.05, 0.0], 0.01, 500);
        assert!(!safe.enters(sys.unsafe_set()));
    }
}

/// Multi-input extension: systems `ẋ = f(x, u₁, …, u_m)` with `m` scalar
/// control channels occupying variables `x_n … x_{n+m−1}` of the field
/// polynomials. The single-input API above is the `m = 1` special case.
impl Ccds {
    /// Creates a multi-input system. `field[i]` is `ẋᵢ` as a polynomial in
    /// `(x₀…x_{n−1}, u₁ = x_n, …, u_m = x_{n+m−1})`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or `num_inputs == 0`.
    pub fn new_multi(
        name: impl Into<String>,
        field: Vec<Polynomial>,
        num_inputs: usize,
        init: SemiAlgebraicSet,
        domain: SemiAlgebraicSet,
        unsafe_set: SemiAlgebraicSet,
    ) -> Self {
        assert!(num_inputs >= 1, "need at least one control input");
        let n = field.len();
        assert!(n > 0, "empty vector field");
        assert_eq!(init.nvars(), n, "init set dimension mismatch");
        assert_eq!(domain.nvars(), n, "domain dimension mismatch");
        assert_eq!(unsafe_set.nvars(), n, "unsafe set dimension mismatch");
        for f in &field {
            assert!(
                f.nvars() <= n + num_inputs,
                "field component references variables beyond u_{num_inputs}"
            );
        }
        Ccds {
            name: name.into(),
            field,
            num_inputs,
            init,
            domain,
            unsafe_set,
        }
    }

    /// Number of control inputs (`1` for the scalar-input constructors).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Substitutes `uⱼ = hⱼ(x)` for every channel, returning the closed-loop
    /// polynomial field in the state variables only.
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != self.num_inputs()`.
    pub fn close_loop_multi(&self, h: &[Polynomial]) -> Vec<Polynomial> {
        assert_eq!(h.len(), self.num_inputs, "one controller per input");
        let n = self.nvars();
        self.field
            .iter()
            .map(|f| {
                let mut g = f.clone();
                for (j, hj) in h.iter().enumerate() {
                    g = g.substitute(n + j, hj);
                }
                g
            })
            .collect()
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;

    fn two_input_system() -> Ccds {
        // ẋ₀ = u₁, ẋ₁ = u₂ (u₁ = x2, u₂ = x3).
        Ccds::new_multi(
            "double-int",
            vec!["x2".parse().unwrap(), "x3".parse().unwrap()],
            2,
            SemiAlgebraicSet::box_set(&[(-0.1, 0.1), (-0.1, 0.1)]),
            SemiAlgebraicSet::box_set(&[(-1.0, 1.0), (-1.0, 1.0)]),
            SemiAlgebraicSet::box_set(&[(0.8, 1.0), (0.8, 1.0)]),
        )
    }

    #[test]
    fn multi_close_loop_substitutes_each_channel() {
        let sys = two_input_system();
        assert_eq!(sys.num_inputs(), 2);
        let closed = sys.close_loop_multi(&[
            "-2*x0".parse().unwrap(),
            "-3*x1".parse().unwrap(),
        ]);
        assert_eq!(closed[0], "-2*x0".parse().unwrap());
        assert_eq!(closed[1], "-3*x1".parse().unwrap());
    }

    #[test]
    fn scalar_constructor_has_one_input() {
        let sys = Ccds::new(
            "scalar",
            vec!["x1".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.1, 0.1)]),
            SemiAlgebraicSet::box_set(&[(-1.0, 1.0)]),
            SemiAlgebraicSet::box_set(&[(0.8, 1.0)]),
        );
        assert_eq!(sys.num_inputs(), 1);
    }

    #[test]
    #[should_panic(expected = "one controller per input")]
    fn wrong_channel_count_panics() {
        let sys = two_input_system();
        let _ = sys.close_loop_multi(&["-x0".parse().unwrap()]);
    }
}
