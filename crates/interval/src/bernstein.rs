//! Bernstein-form range bounds for polynomials over boxes.
//!
//! The Bernstein coefficients of a polynomial on a box enclose its range —
//! usually much more tightly than term-wise interval evaluation, because the
//! Bernstein basis respects the dependency between occurrences of the same
//! variable. This is the classic sharpening used inside polynomial SMT/branch
//! -and-bound engines (and the subject of the paper's reference [13]).
//!
//! The transform is exponential in the number of variables (there are
//! `Π(dᵢ+1)` coefficients), so [`bernstein_range`] bails out to the plain
//! interval extension beyond a size cap — exactly the trade-off a δ-complete
//! solver makes.

use snbc_poly::Polynomial;

use crate::{eval_range, Interval};

/// Cap on the Bernstein tensor size before falling back to interval
/// evaluation.
const MAX_TENSOR: usize = 1 << 18;

/// Range bound of `p` over the box via Bernstein coefficients, falling back
/// to [`eval_range`] when the coefficient tensor would exceed the size cap.
///
/// The result always contains the true range; for polynomials with strong
/// variable dependencies it is typically far tighter than the term-wise
/// interval bound.
///
/// # Panics
///
/// Panics if the box has fewer coordinates than the polynomial's variables.
///
/// # Example
///
/// ```
/// use snbc_interval::{bernstein_range, eval_range, Interval};
/// use snbc_poly::Polynomial;
///
/// // (x − y)² on [0,1]²: true range [0, 1]; term-wise intervals say [−2, 2],
/// // the Bernstein enclosure gives [−0.5, 1].
/// let p: Polynomial = "(x0 - x1)^2".parse().unwrap();
/// let bx = [Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)];
/// let b = bernstein_range(&p, &bx);
/// let i = eval_range(&p, &bx);
/// assert!(b.contains(0.0) && b.contains(1.0)); // encloses the true range
/// assert!(i.lo() < b.lo() && b.hi() < i.hi()); // strictly tighter
/// ```
pub fn bernstein_range(p: &Polynomial, domain: &[Interval]) -> Interval {
    assert!(
        domain.len() >= p.nvars(),
        "box has {} coordinates but polynomial uses {}",
        domain.len(),
        p.nvars()
    );
    let n = p.nvars();
    if n == 0 {
        let c = p.constant_term();
        return Interval::new(c, c);
    }
    // Per-variable degrees.
    let mut degs = vec![0usize; n];
    for (m, _) in p.iter() {
        for (i, &e) in m.exponents().iter().enumerate() {
            degs[i] = degs[i].max(e as usize);
        }
    }
    let tensor_size: usize = degs.iter().map(|d| d + 1).product();
    if tensor_size == 0 || tensor_size > MAX_TENSOR {
        return eval_range(p, domain);
    }

    // Affine map onto [0,1]^n: xᵢ = loᵢ + wᵢ·tᵢ.
    let mut q = p.clone();
    for i in 0..n {
        let lo = domain[i].lo();
        let w = domain[i].width();
        let sub = &Polynomial::constant(lo) + &Polynomial::var(i).scale(w);
        q = q.substitute(i, &sub);
    }

    // Dense power-basis tensor a[α] (row-major over the mixed-radix index).
    let strides: Vec<usize> = {
        let mut s = vec![1usize; n];
        for i in (0..n - 1).rev() {
            s[i] = s[i + 1] * (degs[i + 1] + 1);
        }
        s
    };
    let mut coeffs = vec![0.0f64; tensor_size];
    for (m, c) in q.iter() {
        let mut idx = 0usize;
        let mut in_range = true;
        for i in 0..n {
            let e = m.exponent(i) as usize;
            if e > degs[i] {
                in_range = false;
                break;
            }
            idx += e * strides[i];
        }
        if in_range {
            coeffs[idx] += c;
        }
    }

    // Axis-wise power→Bernstein transform:
    // b_β = Σ_{α ≤ β} [C(β,α)/C(d,α)]·a_α, independently per axis.
    for axis in 0..n {
        let d = degs[axis];
        if d == 0 {
            continue;
        }
        let stride = strides[axis];
        let len = d + 1;
        // Precompute C(β,α)/C(d,α).
        let mut w = vec![vec![0.0f64; len]; len];
        for (beta, row) in w.iter_mut().enumerate() {
            for (alpha, v) in row.iter_mut().enumerate().take(beta + 1) {
                *v = binomial(beta, alpha) / binomial(d, alpha);
            }
        }
        // Apply along the axis for every fixed choice of the other indices.
        let outer = tensor_size / len;
        let mut line = vec![0.0f64; len];
        for block in 0..outer {
            // Compute the base offset of this line in the tensor.
            let mut rem = block;
            let mut base = 0usize;
            for i in 0..n {
                if i == axis {
                    continue;
                }
                let size = degs[i] + 1;
                let digit = rem % size;
                rem /= size;
                base += digit * strides[i];
            }
            for (k, l) in line.iter_mut().enumerate() {
                *l = coeffs[base + k * stride];
            }
            for beta in 0..len {
                let mut acc = 0.0;
                for (alpha, &lv) in line.iter().enumerate().take(beta + 1) {
                    acc += w[beta][alpha] * lv;
                }
                coeffs[base + beta * stride] = acc;
            }
        }
    }

    let lo = coeffs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = coeffs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Interval::new(lo, hi)
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut num = 1.0f64;
    let mut den = 1.0f64;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sound(p: &Polynomial, bx: &[Interval]) {
        let r = bernstein_range(p, bx);
        let steps = 8;
        let n = bx.len();
        let mut idx = vec![0usize; n];
        loop {
            let x: Vec<f64> = (0..n)
                .map(|i| bx[i].lo() + bx[i].width() * idx[i] as f64 / steps as f64)
                .collect();
            let v = p.eval(&x);
            assert!(
                r.lo() - 1e-9 <= v && v <= r.hi() + 1e-9,
                "{r} misses p({x:?}) = {v}"
            );
            // Increment the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == n {
                    return;
                }
                idx[i] += 1;
                if idx[i] <= steps {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn exact_for_linear_polynomials() {
        let p: Polynomial = "2*x0 - 3*x1 + 1".parse().unwrap();
        let bx = [Interval::new(-1.0, 2.0), Interval::new(0.0, 1.0)];
        let r = bernstein_range(&p, &bx);
        // Linear: Bernstein coefficients are the vertex values — exact range.
        assert!((r.lo() - (-2.0 - 3.0 + 1.0)).abs() < 1e-12);
        assert!((r.hi() - (2.0 * 2.0 - 0.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn tighter_than_interval_on_dependency() {
        // (x − y)² over [0,1]²: interval arithmetic sees x² − 2xy + y² and
        // loses the dependency; Bernstein is exact.
        let p: Polynomial = "(x0 - x1)^2".parse().unwrap();
        let bx = [Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)];
        let b = bernstein_range(&p, &bx);
        let i = eval_range(&p, &bx);
        assert!(b.lo() > i.lo() + 0.5, "bernstein {b} vs interval {i}");
        assert!(b.width() < i.width());
    }

    #[test]
    fn sound_on_random_style_polynomials() {
        for (expr, bx) in [
            (
                "x0^3 - 2*x0*x1 + x1^2 - 0.5",
                vec![Interval::new(-1.0, 1.5), Interval::new(-0.5, 1.0)],
            ),
            (
                "(x0 + x1 - 1)^2*(x0 - 0.3) + 0.1*x1",
                vec![Interval::new(-2.0, 0.5), Interval::new(0.0, 2.0)],
            ),
            (
                "x0*x1*x2 - x2^2 + 0.25",
                vec![
                    Interval::new(-1.0, 1.0),
                    Interval::new(-1.0, 1.0),
                    Interval::new(0.0, 2.0),
                ],
            ),
        ] {
            let p: Polynomial = expr.parse().unwrap();
            assert_sound(&p, &bx);
        }
    }

    #[test]
    fn constant_polynomial() {
        let p = Polynomial::constant(3.5);
        let bx = [Interval::new(-1.0, 1.0)];
        let r = bernstein_range(&p, &bx);
        assert_eq!((r.lo(), r.hi()), (3.5, 3.5));
    }

    #[test]
    fn falls_back_beyond_cap() {
        // Degree-4 in 12 variables: 5^12 ≈ 244M ≫ cap, must not blow up.
        let terms: Vec<String> = (0..12).map(|i| format!("x{i}^4")).collect();
        let p: Polynomial = format!("{} + 1", terms.join("+")).parse().unwrap();
        let bx = vec![Interval::new(-1.0, 1.0); 12];
        let r = bernstein_range(&p, &bx);
        assert!(r.contains(1.0) && r.contains(13.0));
    }
}
