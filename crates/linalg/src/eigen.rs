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
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        let off = (2.0 * off).sqrt();
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
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                if let Some(v) = v.as_deref_mut() {
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
    }
    let mut off = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            off += m[(i, j)] * m[(i, j)];
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
        residual: (2.0 * off).sqrt(),
    })
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
