use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use snbc_poly::Polynomial;

/// A closed interval `[lo, hi]` whose arithmetic preserves containment up to
/// rounding.
///
/// Bounds are computed in round-to-nearest `f64`, not rounded outward, so an
/// enclosure can miss the true range by a few ulps of its bounds: a bound
/// proven with no slack holds only up to that rounding error (see the
/// rounding caveat in the [crate docs](crate)). This is the basic abstract
/// domain of the δ-complete verifier.
///
/// # Example
///
/// ```
/// use snbc_interval::Interval;
///
/// let a = Interval::new(-1.0, 2.0);
/// let b = a * a; // squaring keeps the true range [−2·2 bounds]
/// assert!(b.contains(4.0) && b.contains(-2.0));
/// assert_eq!(a.powi(2), Interval::new(0.0, 4.0)); // powi is tighter
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bound is NaN");
        assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval::new(v, v)
    }

    /// Lower bound.
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Width `hi − lo`.
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn mid(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// `true` when `v ∈ [lo, hi]`.
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Splits at the midpoint into `(left, right)`.
    pub fn split(self) -> (Interval, Interval) {
        let m = self.mid();
        (Interval::new(self.lo, m), Interval::new(m, self.hi))
    }

    /// Tight power: `[lo, hi]ᵉ` with even-power tightening around zero.
    pub fn powi(self, e: u32) -> Interval {
        if e == 0 {
            return Interval::point(1.0);
        }
        // powi exponents are tiny (poly degrees); the cast cannot truncate.
        let (pl, ph) = (f64::powi(self.lo, e as i32), f64::powi(self.hi, e as i32));
        if e % 2 == 1 || self.lo >= 0.0 {
            // Monotone on the whole interval (odd power, or nonnegative base).
            Interval::new(pl, ph)
        } else if self.hi <= 0.0 {
            Interval::new(ph, pl)
        } else {
            Interval::new(0.0, pl.max(ph))
        }
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval::new(self.lo + rhs.lo, self.hi + rhs.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        Interval::new(self.lo - rhs.hi, self.hi - rhs.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;

    fn mul(self, rhs: Interval) -> Interval {
        let c = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    fn mul(self, s: f64) -> Interval {
        if s >= 0.0 {
            Interval::new(self.lo * s, self.hi * s)
        } else {
            Interval::new(self.hi * s, self.lo * s)
        }
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Smallest interval containing both arguments.
pub fn hull(a: Interval, b: Interval) -> Interval {
    Interval::new(a.lo.min(b.lo), a.hi.max(b.hi))
}

/// Interval range bound of a polynomial over a box, by monomial-wise interval
/// evaluation (the true range is contained in the result up to rounding; see
/// [`Interval`]).
///
/// # Panics
///
/// Panics if the box has fewer coordinates than the polynomial's variables.
///
/// # Example
///
/// ```
/// use snbc_interval::{eval_range, Interval};
/// use snbc_poly::Polynomial;
///
/// let p: Polynomial = "x0^2 - x0".parse().unwrap();
/// let r = eval_range(&p, &[Interval::new(0.0, 1.0)]);
/// // True range is [−0.25, 0]; the bound must contain it.
/// assert!(r.lo() <= -0.25 && r.hi() >= 0.0);
/// ```
pub fn eval_range(p: &Polynomial, domain: &[Interval]) -> Interval {
    assert!(
        domain.len() >= p.nvars(),
        "box has {} coordinates but polynomial uses {}",
        domain.len(),
        p.nvars()
    );
    let mut acc = Interval::point(0.0);
    for (m, c) in p.iter() {
        let mut term = Interval::point(1.0);
        for (i, &e) in m.exponents().iter().enumerate() {
            if e > 0 {
                term = term * domain[i].powi(e);
            }
        }
        acc = acc + term * c;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_contains_samples() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(0.5, 3.0);
        for &x in &[-1.0, 0.0, 1.5, 2.0] {
            for &y in &[0.5, 1.0, 3.0] {
                assert!((a + b).contains(x + y));
                assert!((a - b).contains(x - y));
                assert!((a * b).contains(x * y));
                assert!((-a).contains(-x));
            }
        }
    }

    #[test]
    fn even_power_tightens() {
        let a = Interval::new(-2.0, 1.0);
        assert_eq!(a.powi(2), Interval::new(0.0, 4.0));
        assert_eq!(a.powi(3), Interval::new(-8.0, 1.0));
        assert_eq!(a.powi(0), Interval::point(1.0));
    }

    #[test]
    fn split_covers() {
        let a = Interval::new(0.0, 4.0);
        let (l, r) = a.split();
        assert_eq!(l, Interval::new(0.0, 2.0));
        assert_eq!(r, Interval::new(2.0, 4.0));
    }

    #[test]
    fn range_bound_is_sound_on_grid() {
        let p: Polynomial = "x0^2*x1 - 3*x0 + x1^3".parse().unwrap();
        let domain = [Interval::new(-1.0, 1.5), Interval::new(0.0, 2.0)];
        let r = eval_range(&p, &domain);
        let steps = 7;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = domain[0].lo() + domain[0].width() * i as f64 / steps as f64;
                let y = domain[1].lo() + domain[1].width() * j as f64 / steps as f64;
                assert!(r.contains(p.eval(&[x, y])), "{r} misses p({x},{y})");
            }
        }
    }

    #[test]
    fn hull_merges() {
        let h = hull(Interval::new(0.0, 1.0), Interval::new(3.0, 4.0));
        assert_eq!(h, Interval::new(0.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_interval_panics() {
        let _ = Interval::new(1.0, 0.0);
    }
}
