use crate::{LinalgError, Matrix};

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix, computed by
/// cyclic Jacobi rotations.
///
/// The SOS verifier uses the smallest eigenvalue of candidate Gram matrices to
/// certify positive semidefiniteness with an explicit margin, and the SDP
/// solver uses eigenvalue-based step-length safeguards.
///
/// # Example
///
/// ```
/// use snbc_linalg::Matrix;
///
/// # fn main() -> Result<(), snbc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = a.symmetric_eigen()?;
/// let mut ev = eig.eigenvalues().to_vec();
/// ev.sort_by(f64::total_cmp);
/// assert!((ev[0] - 1.0).abs() < 1e-10 && (ev[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the decomposition by cyclic Jacobi sweeps.
    ///
    /// The input is symmetrized (`(A+Aᵀ)/2`) first, so slight numerical
    /// asymmetry is tolerated.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] if the off-diagonal Frobenius
    /// mass has not dropped below `1e-14 · ‖A‖` after 100 sweeps, and
    /// [`LinalgError::ShapeMismatch`] for non-square input.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let mut eigenvectors = Matrix::identity(a.nrows());
        let eigenvalues = jacobi(a, Some(&mut eigenvectors))?;
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues (unsorted; paired with eigenvector columns).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthogonal eigenvector matrix; column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Smallest eigenvalue.
    pub fn min(&self) -> f64 {
        self.eigenvalues
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest eigenvalue.
    pub fn max(&self) -> f64 {
        self.eigenvalues
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Cyclic Jacobi sweeps on `(A+Aᵀ)/2`, returning the eigenvalues and, when
/// `v` is given (the identity on entry), accumulating the rotations into it.
///
/// The rotations read and write only the working matrix, never `v`, so the
/// eigenvalues are bitwise the same with or without eigenvectors;
/// [`Matrix::min_eigenvalue`] skips them, a third of the rotation work.
/// Each rotation updates columns `p` and `q` row by row, then rows `p` and
/// `q` as two slices: every entry gets the same operations in the same
/// order as the textbook loop over `(k, p)` indices.
///
/// # Errors
///
/// [`LinalgError::NoConvergence`] and [`LinalgError::ShapeMismatch`], as
/// documented on [`SymmetricEigen::new`].
pub(crate) fn jacobi(a: &Matrix, mut v: Option<&mut Matrix>) -> Result<Vec<f64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.nrows(), a.nrows()),
            found: (a.nrows(), a.ncols()),
        });
    }
    let n = a.nrows();
    let mut m = a.clone();
    m.symmetrize();
    let scale = m.norm_fro().max(1e-300);
    let tol = 1e-14 * scale;
    const MAX_SWEEPS: usize = 100;
    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal(&m);
        if off <= tol {
            return Ok((0..n).map(|i| m[(i, i)]).collect());
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation to M on both sides.
                rotate_columns(m.as_mut_slice(), n, p, q, c, s);
                let (head, tail) = m.as_mut_slice().split_at_mut(q * n);
                rotate_pair(&mut head[p * n..(p + 1) * n], &mut tail[..n], c, s);
                // Accumulate eigenvectors.
                if let Some(v) = v.as_deref_mut() {
                    rotate_columns(v.as_mut_slice(), n, p, q, c, s);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
        residual: off_diagonal(&m),
    })
}

/// `√(2·Σ_{i<j} mᵢⱼ²)`, summed row by row.
fn off_diagonal(m: &Matrix) -> f64 {
    let mut off = 0.0;
    for i in 0..m.nrows() {
        for x in &m.row(i)[i + 1..] {
            off += x * x;
        }
    }
    (2.0 * off).sqrt()
}

/// `(xₖ, yₖ) ← (c·xₖ − s·yₖ, s·xₖ + c·yₖ)` for every `k`.
// audit:hot
fn rotate_pair(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        let (xk, yk) = (*a, *b);
        *a = c * xk - s * yk;
        *b = s * xk + c * yk;
    }
}

/// [`rotate_pair`] on columns `p` and `q` of the row-major `n`-column
/// matrix `data`, row by row.
// audit:hot
fn rotate_columns(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in data.chunks_exact_mut(n) {
        let (xk, yk) = (row[p], row[q]);
        row[p] = c * xk - s * yk;
        row[q] = s * xk + c * yk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, 2.0, -0.3], &[0.5, -0.3, 1.0]]);
        let eig = a.symmetric_eigen().unwrap();
        let v = eig.eigenvectors();
        let d = Matrix::from_diag(eig.eigenvalues());
        let back = v.matmul(&d).matmul(&v.transpose());
        assert!((&back - &a).norm_max() < 1e-10);
    }

    #[test]
    fn eigenvectors_orthogonal() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 4.0]]);
        let eig = a.symmetric_eigen().unwrap();
        let v = eig.eigenvectors();
        let vtv = v.transpose().matmul(v);
        assert!((&vtv - &Matrix::identity(2)).norm_max() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = Matrix::from_diag(&[5.0, -1.0, 2.0]);
        let eig = a.symmetric_eigen().unwrap();
        assert!((eig.min() + 1.0).abs() < 1e-14);
        assert!((eig.max() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn trace_is_sum_of_eigenvalues() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, -3.0, 1.0], &[0.0, 1.0, 0.5]]);
        let eig = a.symmetric_eigen().unwrap();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn psd_min_eigenvalue_nonnegative() {
        // Gram matrix of random vectors is PSD.
        let b = Matrix::from_rows(&[&[1.0, 0.3], &[0.2, -0.7], &[-0.5, 0.9]]);
        let g = b.matmul(&b.transpose());
        assert!(g.min_eigenvalue().unwrap() > -1e-12);
    }
}
