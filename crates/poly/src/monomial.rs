use std::cmp::Ordering;
use std::fmt;

/// A monomial `x^α = x₀^α₀ · x₁^α₁ ⋯`, stored as an exponent vector.
///
/// Monomials are ordered by **graded lexicographic** order (total degree
/// first, then lexicographic on the exponent vector with `x₀ > x₁ > …`),
/// which is exactly the ordering the paper uses for the basis `[x]_d` in §3.
///
/// The exponent vector is kept *trimmed*: trailing zero exponents are removed,
/// so a monomial is independent of the ambient number of variables. The
/// constant monomial is the empty vector.
///
/// # Example
///
/// ```
/// use snbc_poly::Monomial;
///
/// let xy = Monomial::new(vec![1, 1]);   // x0·x1
/// let x2 = Monomial::new(vec![2]);      // x0²
/// assert_eq!(xy.degree(), 2);
/// // Graded-lex: same degree, so compare lexicographically; x0² > x0·x1.
/// assert!(x2 > xy);
/// assert_eq!(xy.eval(&[2.0, 3.0]), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    exps: Vec<u32>,
}

impl Monomial {
    /// Creates a monomial from an exponent vector (trailing zeros trimmed).
    pub fn new(mut exps: Vec<u32>) -> Self {
        while exps.last() == Some(&0) {
            exps.pop();
        }
        Monomial { exps }
    }

    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial { exps: Vec::new() }
    }

    /// The monomial `xᵢ`.
    pub fn var(i: usize) -> Self {
        let mut exps = vec![0; i + 1];
        exps[i] = 1;
        Monomial { exps }
    }

    /// The (trimmed) exponent vector.
    pub fn exponents(&self) -> &[u32] {
        &self.exps
    }

    /// Exponent of variable `i` (`0` beyond the stored length).
    pub fn exponent(&self, i: usize) -> u32 {
        self.exps.get(i).copied().unwrap_or(0)
    }

    /// Total degree `Σ αᵢ`.
    pub fn degree(&self) -> u32 {
        self.exps.iter().sum()
    }

    /// `true` for the constant monomial.
    pub fn is_one(&self) -> bool {
        self.exps.is_empty()
    }

    /// Index of the highest variable that appears, or `None` for a constant.
    pub fn max_var(&self) -> Option<usize> {
        if self.exps.is_empty() {
            None
        } else {
            Some(self.exps.len() - 1)
        }
    }

    /// Product of two monomials (adds exponents).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let n = self.exps.len().max(other.exps.len());
        let mut exps = vec![0u32; n];
        for (i, e) in exps.iter_mut().enumerate() {
            *e = self.exponent(i) + other.exponent(i);
        }
        Monomial::new(exps)
    }

    /// Evaluates the monomial at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer coordinates than the highest variable used.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert!(
            x.len() >= self.exps.len(),
            "point has {} coordinates but monomial uses variable x{}",
            x.len(),
            self.exps.len().saturating_sub(1)
        );
        let mut v = 1.0;
        for (i, &e) in self.exps.iter().enumerate() {
            for _ in 0..e {
                v *= x[i];
            }
        }
        v
    }

    /// Derivative with respect to variable `i`: returns `(αᵢ, x^α / xᵢ)`, or
    /// `None` when the variable does not appear.
    pub fn derivative(&self, i: usize) -> Option<(f64, Monomial)> {
        let e = self.exponent(i);
        if e == 0 {
            return None;
        }
        let mut exps = self.exps.clone();
        exps[i] -= 1;
        Some((f64::from(e), Monomial::new(exps)))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.degree().cmp(&other.degree()) {
            Ordering::Equal => {
                // Lexicographic with x0 > x1 > …: larger exponent on the
                // earliest differing variable wins.
                let n = self.exps.len().max(other.exps.len());
                for i in 0..n {
                    match self.exponent(i).cmp(&other.exponent(i)) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (i, &e) in self.exps.iter().enumerate() {
            if e == 0 {
                continue;
            }
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if e == 1 {
                write!(f, "x{i}")?;
            } else {
                write!(f, "x{i}^{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn trailing_zeros_trimmed() {
        assert_eq!(Monomial::new(vec![1, 0, 0]), Monomial::new(vec![1]));
        assert_eq!(Monomial::new(vec![0, 0]), Monomial::one());
    }

    #[test]
    fn graded_order_degree_first() {
        let x = Monomial::var(0);
        let y2 = Monomial::new(vec![0, 2]);
        assert!(x < y2, "degree 1 < degree 2");
    }

    #[test]
    fn lex_tie_break() {
        // x0² vs x0·x1 vs x1² (all degree 2): x0² > x0x1 > x1².
        let a = Monomial::new(vec![2]);
        let b = Monomial::new(vec![1, 1]);
        let c = Monomial::new(vec![0, 2]);
        assert!(a > b && b > c);
    }

    #[test]
    fn mul_adds_exponents() {
        let a = Monomial::new(vec![1, 2]);
        let b = Monomial::new(vec![0, 1, 3]);
        assert_eq!(a.mul(&b), Monomial::new(vec![1, 3, 3]));
    }

    #[test]
    fn eval_and_derivative() {
        let m = Monomial::new(vec![2, 1]); // x0² x1
        assert_eq!(m.eval(&[3.0, 2.0]), 18.0);
        let (c, dm) = m.derivative(0).unwrap();
        assert_eq!(c, 2.0);
        assert_eq!(dm, Monomial::new(vec![1, 1]));
        assert!(m.derivative(5).is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Monomial::one().to_string(), "1");
        assert_eq!(Monomial::new(vec![2, 0, 1]).to_string(), "x0^2*x2");
    }
}
