use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::{Cholesky, LinalgError, Lu, SymmetricEigen};

/// GEMM output-block height (rows of `A` per tile). 64 rows × 8 bytes ×
/// a few-hundred-column panel keeps the working set within L2 on any modern
/// core. Only the *output* traversal is tiled — blocking the `k` dimension
/// (the classic third GEMM loop split) would reorder the floating-point
/// accumulation and break the workspace's bitwise-stability contract, so
/// that knob is deliberately absent (docs/PERFORMANCE.md).
const GEMM_MC: usize = 64;

/// GEMM output-block width (columns of `B` per tile): the streaming width
/// of the `B` panel. Like [`GEMM_MC`], a pure locality knob — output tiles
/// are independent, so any value gives bit-identical results.
const GEMM_NC: usize = 256;

/// A dense, row-major matrix of `f64` entries.
///
/// This is the workhorse type of the workspace: Gram matrices in SOS programs,
/// Schur complements in interior-point methods and neural-network weight
/// matrices are all `Matrix` values.
///
/// # Example
///
/// ```
/// use snbc_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// assert_eq!(a.matmul(&b)[(0, 0)], 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.nrows()`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "tr_matvec dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            let xi = x[i];
            for (yj, a) in y.iter_mut().zip(row) {
                *yj += a * xi;
            }
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.nrows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_kernel(other, &mut out);
        out
    }

    /// Cache-tiled GEMM kernel of [`Matrix::matmul`]; `out` must be
    /// pre-zeroed with the product's shape.
    ///
    /// Tiling is over the output: `GEMM_MC`-row × `GEMM_NC`-column blocks,
    /// with the `k` loop kept *full and ascending* inside each block, so
    /// every `out[(i, j)]` accumulates its products in exactly the order the
    /// naive i-k-j loop used — the tiling is a pure traversal reordering of
    /// *independent* output elements and is therefore bitwise identical to
    /// the untiled kernel (property-tested in `tests/tiled_equivalence.rs`).
    /// The win is locality: a `GEMM_MC × k` panel of `A` and a
    /// `k × GEMM_NC` panel of `B` stay cache-resident while producing one
    /// output block, instead of streaming all of `B` per row of `A`.
    // audit:hot
    fn matmul_kernel(&self, other: &Matrix, out: &mut Matrix) {
        let (m, n) = (self.rows, other.cols);
        let mut ib = 0;
        while ib < m {
            let ihi = (ib + GEMM_MC).min(m);
            let mut jb = 0;
            while jb < n {
                let jhi = (jb + GEMM_NC).min(n);
                for i in ib..ihi {
                    for k in 0..self.cols {
                        let aik = self[(i, k)];
                        // Sparse-coefficient skip; exactness is intended.
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &other.row(k)[jb..jhi];
                        let orow = &mut out.row_mut(i)[jb..jhi];
                        for (o, b) in orow.iter_mut().zip(brow) {
                            *o += aik * b;
                        }
                    }
                }
                jb = jhi;
            }
            ib = ihi;
        }
    }

    /// Scales every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Frobenius inner product `⟨A, B⟩ = Σᵢⱼ AᵢⱼBᵢⱼ`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm of the vectorization).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Measures asymmetry: `max |Aᵢⱼ − Aⱼᵢ|`.
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.rows.min(self.cols) {
            for j in (i + 1)..self.cols.min(self.rows) {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Cholesky factorization `A = L·Lᵀ` for symmetric positive-definite `A`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for numerically singular matrices.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] if the off-diagonal mass does not
    /// fall below tolerance within the sweep budget.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        SymmetricEigen::new(self)
    }

    /// Smallest eigenvalue of a symmetric matrix: the Jacobi sweeps of
    /// [`Matrix::symmetric_eigen`] without accumulating eigenvectors, so the
    /// same bits at two thirds of the rotation work.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::NoConvergence`] from the Jacobi sweep.
    pub fn min_eigenvalue(&self) -> Result<f64, LinalgError> {
        Ok(crate::eigen::jacobi(self, None)?
            .into_iter()
            .fold(f64::INFINITY, f64::min))
    }

    /// Solves `A·x = b` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular systems.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.lu()?.solve(b))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let x = vec![3.0, 7.0];
        let via_vec = a.matvec(&x);
        let xm = Matrix::from_vec(2, 1, x);
        let via_mat = a.matmul(&xm);
        assert!((via_vec[0] - via_mat[(0, 0)]).abs() < 1e-15);
        assert!((via_vec[1] - via_mat[(1, 0)]).abs() < 1e-15);
    }

    #[test]
    fn tr_matvec_is_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, -1.0];
        assert_eq!(a.tr_matvec(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn dot_and_trace() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.dot(&a), 30.0);
        assert_eq!(a.trace(), 5.0);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        assert!(a.asymmetry() > 0.0);
        a.symmetrize();
        assert_eq!(a.asymmetry(), 0.0);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn solve_round_trip() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        let b = a.matvec(&x);
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let _ = a.matvec(&[1.0, 2.0]);
    }
}
