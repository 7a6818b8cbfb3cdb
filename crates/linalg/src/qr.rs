use crate::Matrix;

/// Householder QR factorization `A = Q·R` for `m ≥ n` matrices.
///
/// Used for stable least-squares solves (polynomial coefficient fitting in the
/// NNCChecker baseline, controller regression diagnostics).
///
/// # Example
///
/// ```
/// use snbc_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let qr = a.qr();
/// // Least squares fit of y = 1 + 2x through three exact points.
/// let x = qr.solve_least_squares(&[1.0, 3.0, 5.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal, R on/above it.
    qr: Matrix,
    /// The scalar β of each Householder reflector `H = I − β v vᵀ`.
    betas: Vec<f64>,
}

impl Qr {
    /// Computes the factorization.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more columns than rows.
    pub fn new(a: &Matrix) -> Self {
        let (m, n) = (a.nrows(), a.ncols());
        assert!(m >= n, "QR requires rows >= cols (got {m}x{n})");
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Build Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Reflector H = I − β v vᵀ with v = (v0, a[k+1..m, k]).
            let mut vnorm2 = v0 * v0;
            for i in (k + 1)..m {
                vnorm2 += qr[(i, k)] * qr[(i, k)];
            }
            let beta = 2.0 / vnorm2;
            // Apply the reflector to the trailing columns (the stored v below
            // the diagonal of column k is untouched while we do this).
            for j in (k + 1)..n {
                let mut s = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta;
                qr[(k, j)] -= s * v0;
                for i in (k + 1)..m {
                    let vi = qr[(i, k)];
                    qr[(i, j)] -= s * vi;
                }
            }
            // Column k itself becomes (…, alpha, 0, …, 0); store the
            // Householder vector normalized so that v0 = 1, folding v0 into β.
            qr[(k, k)] = alpha;
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            betas[k] = beta * v0 * v0;
        }
        Qr { qr, betas }
    }

    /// The upper-triangular factor `R` (n×n).
    pub fn r(&self) -> Matrix {
        let n = self.qr.ncols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Applies `Qᵀ` to a vector of length m.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = (self.qr.nrows(), self.qr.ncols());
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            // β = 0.0 is an exact sentinel set during factorization.
            if beta == 0.0 {
                continue;
            }
            // v = (1, qr[k+1..m, k])
            let mut s = y[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * y[i];
            }
            s *= beta;
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.qr[(i, k)];
            }
        }
        y
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the row count, or if `R` is exactly
    /// singular (rank-deficient `A`).
    pub fn solve_least_squares(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = (self.qr.nrows(), self.qr.ncols());
        assert_eq!(b.len(), m, "rhs length mismatch");
        let y = self.apply_qt(b);
        let mut x = y[..n].to_vec();
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                x[i] -= self.qr[(i, j)] * x[j];
            }
            let rii = self.qr[(i, i)];
            assert!(rii.abs() > 1e-300, "rank-deficient least-squares system");
            x[i] /= rii;
        }
        x
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn r_reconstructs_through_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = a.qr().solve_least_squares(&b);
        let r = a.matvec(&x);
        assert!((r[0] - 5.0).abs() < 1e-12 && (r[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
        ]);
        let b = [0.9, 3.1, 5.0, 7.2];
        let x = a.qr().solve_least_squares(&b);
        // Normal equations AᵀA x = Aᵀ b.
        let at = a.transpose();
        let ata = at.matmul(&a);
        let atb = at.matvec(&b);
        let x2 = ata.solve(&atb).unwrap();
        for (u, v) in x.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let r = a.qr().r();
        assert_eq!(r[(1, 0)], 0.0);
    }
}
