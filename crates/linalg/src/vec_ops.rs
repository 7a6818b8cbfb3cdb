//! Free functions on `&[f64]` vectors.
//!
//! These helpers avoid a heavyweight vector newtype: the workspace passes
//! coordinates, gradients and residuals around as plain slices, and these are
//! the handful of BLAS-1 style kernels everything needs.
//!
//! # Example
//!
//! ```
//! use snbc_linalg::vec_ops;
//!
//! let x = [3.0, 4.0];
//! assert_eq!(vec_ops::norm2(&x), 5.0);
//! assert_eq!(vec_ops::dot(&x, &x), 25.0);
//! ```

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm (maximum absolute entry); `0` for the empty slice.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `y ← y + α·x`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Elementwise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise difference `a − b` as a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scalar multiple `α·a` as a new vector.
pub fn scale(alpha: f64, a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| alpha * x).collect()
}

/// Euclidean distance between two points.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2 length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn add_sub_scale_dist() {
        assert_eq!(add(&[1.0], &[2.0]), vec![3.0]);
        assert_eq!(sub(&[1.0], &[2.0]), vec![-1.0]);
        assert_eq!(scale(2.0, &[1.5]), vec![3.0]);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }
}
