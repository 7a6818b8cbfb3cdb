use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::Monomial;

/// Coefficients with magnitude below this are dropped during normalization.
const COEFF_EPS: f64 = 0.0;

/// A sparse multivariate polynomial with `f64` coefficients.
///
/// Terms are kept in a [`BTreeMap`] keyed by [`Monomial`] in graded-lex order,
/// so iteration order is deterministic and matches the paper's basis listing
/// within arithmetic tolerances.
///
/// # Example
///
/// ```
/// use snbc_poly::Polynomial;
///
/// let x = Polynomial::var(0);
/// let y = Polynomial::var(1);
/// let p = &(&x * &x) + &(&y * &y);           // x² + y²
/// assert_eq!(p.eval(&[3.0, 4.0]), 25.0);
/// assert_eq!(p.degree(), 2);
/// let dp = p.partial(0);                     // 2x
/// assert_eq!(dp.eval(&[3.0, 4.0]), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    terms: BTreeMap<Monomial, f64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    /// The constant polynomial `c` (zero if `c == 0`).
    pub fn constant(c: f64) -> Self {
        let mut p = Polynomial::zero();
        if c.abs() > COEFF_EPS {
            p.terms.insert(Monomial::one(), c);
        }
        p
    }

    /// The polynomial `xᵢ`.
    pub fn var(i: usize) -> Self {
        let mut p = Polynomial::zero();
        p.terms.insert(Monomial::var(i), 1.0);
        p
    }

    /// A single term `c·x^α`.
    pub fn term(c: f64, m: Monomial) -> Self {
        let mut p = Polynomial::zero();
        if c.abs() > COEFF_EPS {
            p.terms.insert(m, c);
        }
        p
    }

    /// Builds a polynomial from parallel coefficient/basis slices, dropping
    /// zero coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_coeffs(coeffs: &[f64], basis: &[Monomial]) -> Self {
        assert_eq!(coeffs.len(), basis.len(), "coeff/basis length mismatch");
        let mut p = Polynomial::zero();
        for (&c, m) in coeffs.iter().zip(basis) {
            if c.abs() > COEFF_EPS {
                *p.terms.entry(m.clone()).or_insert(0.0) += c;
            }
        }
        p.normalize();
        p
    }

    /// Coefficient vector of this polynomial in the given basis.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial contains a monomial absent from `basis`.
    pub fn to_coeffs(&self, basis: &[Monomial]) -> Vec<f64> {
        let index: std::collections::BTreeMap<&Monomial, usize> =
            basis.iter().enumerate().map(|(i, m)| (m, i)).collect();
        let mut out = vec![0.0; basis.len()];
        for (m, &c) in &self.terms {
            let i = *index
                .get(m)
                .unwrap_or_else(|| panic!("monomial {m} not in the given basis"));
            out[i] = c;
        }
        out
    }

    /// `true` when there are no terms.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total degree (`0` for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// Number of variables referenced (1 + highest variable index), `0` for
    /// constants.
    pub fn nvars(&self) -> usize {
        self.terms
            .keys()
            .filter_map(Monomial::max_var)
            .map(|v| v + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of nonzero terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Coefficient of monomial `m` (`0` if absent).
    pub fn coeff(&self, m: &Monomial) -> f64 {
        self.terms.get(m).copied().unwrap_or(0.0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.coeff(&Monomial::one())
    }

    /// Iterates over `(monomial, coefficient)` pairs in graded-lex order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, f64)> {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// Adds `c·x^α` in place.
    pub fn add_term(&mut self, c: f64, m: Monomial) {
        if c.abs() <= COEFF_EPS {
            return;
        }
        let entry = self.terms.entry(m.clone()).or_insert(0.0);
        *entry += c;
        if entry.abs() <= COEFF_EPS {
            self.terms.remove(&m);
        }
    }

    fn normalize(&mut self) {
        self.terms.retain(|_, c| c.abs() > COEFF_EPS);
    }

    /// Evaluates at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer coordinates than [`Self::nvars`].
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|(m, c)| c * m.eval(x)).sum()
    }

    /// Partial derivative `∂/∂xᵢ`.
    pub fn partial(&self, i: usize) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, &c) in &self.terms {
            if let Some((k, dm)) = m.derivative(i) {
                out.add_term(c * k, dm);
            }
        }
        out
    }

    /// Gradient `(∂/∂x₀, …, ∂/∂x_{n−1})` for `n = nvars.max(min_vars)`.
    pub fn gradient(&self, min_vars: usize) -> Vec<Polynomial> {
        let n = self.nvars().max(min_vars);
        (0..n).map(|i| self.partial(i)).collect()
    }

    /// Evaluates the gradient numerically at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer coordinates than [`Self::nvars`].
    pub fn eval_gradient(&self, x: &[f64]) -> Vec<f64> {
        (0..x.len()).map(|i| self.partial(i).eval(x)).collect()
    }

    /// Evaluates a precomputed gradient (from [`Self::gradient`]) at `x` into
    /// `out` — the allocation-free form for hot ascent loops.
    /// [`Self::eval_gradient`] rebuilds every partial derivative on each call;
    /// callers iterating from many starts should build the gradient once and
    /// evaluate it through this instead.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `grads`.
    pub fn eval_gradient_into(grads: &[Polynomial], x: &[f64], out: &mut [f64]) {
        assert!(out.len() >= grads.len(), "gradient buffer too short");
        for (o, g) in out.iter_mut().zip(grads) {
            *o = g.eval(x);
        }
    }

    /// Multiplies by a scalar, returning a new polynomial.
    pub fn scale(&self, s: f64) -> Polynomial {
        // Exact zero short-circuit; any other scalar keeps every term.
        if s == 0.0 {
            return Polynomial::zero();
        }
        let mut out = self.clone();
        for c in out.terms.values_mut() {
            *c *= s;
        }
        out
    }

    /// Integer power by repeated multiplication.
    pub fn powi(&self, e: u32) -> Polynomial {
        let mut out = Polynomial::constant(1.0);
        for _ in 0..e {
            out = &out * self;
        }
        out
    }

    /// Substitutes polynomial `sub` for variable `i`, leaving other variables
    /// intact. Used to plug the controller abstraction `u = h(x)` into the
    /// open-loop field `f(x, u)`.
    ///
    /// # Example
    ///
    /// ```
    /// use snbc_poly::Polynomial;
    ///
    /// // f(x0, x1) = x1², substitute x1 := x0 + 1 ⇒ (x0+1)².
    /// let f: Polynomial = "x1^2".parse().unwrap();
    /// let h: Polynomial = "x0 + 1".parse().unwrap();
    /// let g = f.substitute(1, &h);
    /// assert_eq!(g, "x0^2 + 2*x0 + 1".parse().unwrap());
    /// ```
    pub fn substitute(&self, i: usize, sub: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, &c) in &self.terms {
            let e = m.exponent(i);
            // Remove xᵢ from the monomial.
            let mut exps = m.exponents().to_vec();
            if i < exps.len() {
                exps[i] = 0;
            }
            let rest = Polynomial::term(c, Monomial::new(exps));
            let piece = &rest * &sub.powi(e);
            out += &piece;
        }
        out
    }

    /// Renames variables: variable `i` becomes variable `map[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial uses a variable not covered by `map`.
    pub fn remap_vars(&self, map: &[usize]) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, &c) in &self.terms {
            let mut exps = Vec::new();
            for (i, &e) in m.exponents().iter().enumerate() {
                if e == 0 {
                    continue;
                }
                let j = *map
                    .get(i)
                    .unwrap_or_else(|| panic!("variable x{i} not covered by remap"));
                if exps.len() <= j {
                    exps.resize(j + 1, 0);
                }
                exps[j] += e;
            }
            out.add_term(c, Monomial::new(exps));
        }
        out
    }

    /// Largest absolute coefficient (`0` for the zero polynomial).
    pub fn max_abs_coeff(&self) -> f64 {
        self.terms.values().fold(0.0, |m, c| m.max(c.abs()))
    }

    /// Drops terms with `|coefficient| ≤ tol`, returning the pruned polynomial.
    pub fn prune(&self, tol: f64) -> Polynomial {
        let mut out = self.clone();
        out.terms.retain(|_, c| c.abs() > tol);
        out
    }
}

/// The Lie derivative `L_f B(x) = Σᵢ ∂B/∂xᵢ · fᵢ(x)` of `b` along the vector
/// field `field` (Theorem 1 of the paper).
///
/// # Example
///
/// ```
/// use snbc_poly::{lie_derivative, Polynomial};
///
/// // B = x² + y², f = (−y, x) ⇒ L_f B = −2xy + 2xy = 0.
/// let b: Polynomial = "x0^2 + x1^2".parse().unwrap();
/// let f = ["-x1".parse().unwrap(), "x0".parse().unwrap()];
/// assert!(lie_derivative(&b, &f).is_zero());
/// ```
pub fn lie_derivative(b: &Polynomial, field: &[Polynomial]) -> Polynomial {
    let mut out = Polynomial::zero();
    for (i, fi) in field.iter().enumerate() {
        let db = b.partial(i);
        if db.is_zero() || fi.is_zero() {
            continue;
        }
        out += &(&db * fi);
    }
    out
}

impl Add for &Polynomial {
    type Output = Polynomial;

    fn add(self, rhs: &Polynomial) -> Polynomial {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Polynomial> for Polynomial {
    fn add_assign(&mut self, rhs: &Polynomial) {
        for (m, &c) in &rhs.terms {
            self.add_term(c, m.clone());
        }
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;

    fn sub(self, rhs: &Polynomial) -> Polynomial {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl SubAssign<&Polynomial> for Polynomial {
    fn sub_assign(&mut self, rhs: &Polynomial) {
        for (m, &c) in &rhs.terms {
            self.add_term(-c, m.clone());
        }
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &rhs.terms {
                out.add_term(ca * cb, ma.mul(mb));
            }
        }
        out
    }
}

impl MulAssign<&Polynomial> for Polynomial {
    fn mul_assign(&mut self, rhs: &Polynomial) {
        let prod = &*self * rhs;
        *self = prod;
    }
}

impl Neg for &Polynomial {
    type Output = Polynomial;

    fn neg(self) -> Polynomial {
        self.scale(-1.0)
    }
}

impl fmt::Display for Polynomial {
    #[expect(clippy::float_cmp, reason = "only an exact unit coefficient may be left implicit")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Display highest-degree terms first, the conventional reading order.
        let mut first = true;
        for (m, &c) in self.terms.iter().rev() {
            let (sign, mag) = if c < 0.0 { ("-", -c) } else { ("+", c) };
            if first {
                if sign == "-" {
                    write!(f, "-")?;
                }
                first = false;
            } else {
                write!(f, " {sign} ")?;
            }
            if m.is_one() {
                write!(f, "{mag}")?;
            } else if mag == 1.0 {
                write!(f, "{m}")?;
            } else {
                write!(f, "{mag}*{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Polynomial {
        s.parse().unwrap()
    }

    #[test]
    fn eval_gradient_into_matches_eval_gradient() {
        let q = p("x0^2*x1 + 3*x1^2 - x0");
        let x = [1.5, -2.0];
        let grads = q.gradient(x.len());
        let mut buf = [0.0f64; 2];
        Polynomial::eval_gradient_into(&grads, &x, &mut buf);
        assert_eq!(buf.to_vec(), q.eval_gradient(&x));
    }

    #[test]
    fn printed_coefficients_parse_back_bit_for_bit() {
        // Certificates are exchanged as text: a coefficient a few ulps from
        // ±1 must not print as an implied 1, and no magnitude may lose bits.
        let one = 1.0f64.to_bits();
        let mut coeffs = vec![1.0, -1.0, 0.5, 1e300, 1e-300, -1e300, -1e-300];
        for k in 1..=3u64 {
            for c in [f64::from_bits(one + k), f64::from_bits(one - k)] {
                coeffs.push(c);
                coeffs.push(-c);
            }
        }
        // Subnormals: the smallest, one mid-range, and a negative one.
        coeffs.extend([f64::from_bits(1), f64::MIN_POSITIVE / 3.0, -f64::from_bits(12345)]);
        for &c in &coeffs {
            for m in [Monomial::one(), Monomial::var(0), Monomial::new(vec![2, 1])] {
                let q = &Polynomial::term(c, m.clone()) + &p("x2^3");
                let text = q.to_string();
                let back: Polynomial = text.parse().unwrap();
                assert_eq!(back.coeff(&m).to_bits(), c.to_bits(), "{c:e}·{m} printed as `{text}`");
            }
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = p("x0^2 - 2*x0*x1 + 3");
        let zero = Polynomial::zero();
        assert_eq!(&a + &zero, a);
        assert_eq!(&a - &a, zero);
        assert_eq!(&a * &Polynomial::constant(1.0), a);
        assert_eq!(&a * &zero, zero);
    }

    #[test]
    fn distributes() {
        let a = p("x0 + 1");
        let b = p("x0 - 1");
        assert_eq!(&a * &b, p("x0^2 - 1"));
    }

    #[test]
    fn eval_matches_structure() {
        let a = p("2*x0^2*x1 - x1 + 0.5");
        assert!((a.eval(&[2.0, 3.0]) - (24.0 - 3.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn partials_and_gradient() {
        let a = p("x0^3 + x0*x1^2");
        assert_eq!(a.partial(0), p("3*x0^2 + x1^2"));
        assert_eq!(a.partial(1), p("2*x0*x1"));
        assert_eq!(a.partial(3), Polynomial::zero());
        let g = a.gradient(2);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn lie_derivative_of_energy() {
        // Damped oscillator: f = (x1, −x0 − x1); V = x0² + x1².
        // L_f V = 2x0·x1 + 2x1·(−x0 − x1) = −2x1².
        let v = p("x0^2 + x1^2");
        let f = [p("x1"), p("-x0 - x1")];
        assert_eq!(lie_derivative(&v, &f), p("-2*x1^2"));
    }

    #[test]
    fn substitution_closed_loop() {
        // Open loop: ẋ = x1 + u with u := −2x0 ⇒ x1 − 2x0.
        let f = p("x1 + x2"); // x2 plays the role of u
        let h = p("-2*x0");
        assert_eq!(f.substitute(2, &h), p("x1 - 2*x0"));
    }

    #[test]
    fn coeff_round_trip() {
        let basis = crate::monomial_basis(2, 2);
        let a = p("1 + 2*x0 - 3*x1^2 + 0.25*x0*x1");
        let c = a.to_coeffs(&basis);
        assert_eq!(Polynomial::from_coeffs(&c, &basis), a);
    }

    #[test]
    fn remap_vars_shifts() {
        let a = p("x0^2 + x1");
        let b = a.remap_vars(&[2, 0]);
        assert_eq!(b, p("x2^2 + x0"));
    }

    #[test]
    fn powi_matches_repeated_mul() {
        let a = p("x0 + 1");
        assert_eq!(a.powi(0), Polynomial::constant(1.0));
        assert_eq!(a.powi(3), &(&a * &a) * &a);
    }

    #[test]
    fn display_readable() {
        let a = p("x0^2 - 2*x1 + 1");
        assert_eq!(a.to_string(), "x0^2 - 2*x1 + 1");
        assert_eq!(Polynomial::zero().to_string(), "0");
    }

    #[test]
    fn prune_drops_small_terms() {
        let a = p("x0 + 0.0000001*x1");
        let b = a.prune(1e-6);
        assert_eq!(b, p("x0"));
    }

    #[test]
    fn degree_and_nvars() {
        let a = p("x0*x2^3 + 1");
        assert_eq!(a.degree(), 4);
        assert_eq!(a.nvars(), 3);
        assert_eq!(Polynomial::zero().degree(), 0);
        assert_eq!(Polynomial::constant(5.0).nvars(), 0);
    }
}
