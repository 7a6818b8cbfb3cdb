use crate::{LinalgError, Matrix};

/// Panel width of the left-looking Cholesky factorization. A pure locality
/// knob: the update order within every `L` entry is unchanged (see
/// [`chol_row_update`]), so any width gives bit-identical factors; 32
/// columns × 8 bytes keeps a row prefix plus the panel in L1. Blocked
/// *right-looking* variants (trailing-matrix GEMM updates) are deliberately
/// not used — they reorder the subtraction chain and would break the
/// workspace's bitwise-stability contract (docs/PERFORMANCE.md).
const CHOL_NB: usize = 32;

/// The inner Cholesky kernel: `s − Σ xᵢ·yᵢ` accumulated *sequentially in
/// index order* — exactly the subtraction chain of the textbook left-looking
/// loop, split across panels by slicing `x`/`y`. A separate dot-product
/// accumulator would not be bitwise equal (`a − (t₁ + t₂) ≠ a − t₁ − t₂` in
/// floating point), and skipping zero multiplicands could flip signed
/// zeros, so neither shortcut is taken.
// audit:hot
fn chol_row_update(mut s: f64, x: &[f64], y: &[f64]) -> f64 {
    for (a, b) in x.iter().zip(y) {
        s -= a * b;
    }
    s
}

/// Panel columns one phase-1 accumulator group covers (see
/// [`chol_panel_rows`]).
const CHOL_LANES: usize = 8;

/// Phase 1 of one panel for `R` consecutive rows: `out[r][t] = seed[r][t] −
/// Σₖ x[r][k]·panel[k][t]` for every panel column `t < w`, where `x[r]` is
/// the row's prefix `l[i][..p]` and `panel` holds the panel rows' prefixes
/// k-major (`panel[k·CHOL_NB + t] = l[p + t][k]`, zero-padded to `CHOL_NB`
/// columns).
///
/// Each entry is its own chain `s −= x·y` over `k` ascending — the chain of
/// [`chol_row_update`], term for term — but `CHOL_LANES` columns × `R` rows
/// of chains run side by side, sharing each load of `x[r][k]` and of the
/// panel row, instead of one latency-bound chain at a time. Lanes past `w`
/// compute on the zero padding and are never stored.
// audit:hot
fn chol_panel_rows<const R: usize>(
    seed: [&[f64]; R],
    x: [&[f64]; R],
    panel: &[f64],
    w: usize,
    out: [&mut [f64]; R],
) {
    let p = x[0].len();
    let mut c0 = 0;
    while c0 < w {
        let cw = CHOL_LANES.min(w - c0);
        let mut acc = [[0.0; CHOL_LANES]; R];
        for r in 0..R {
            acc[r][..cw].copy_from_slice(&seed[r][c0..c0 + cw]);
        }
        for k in 0..p {
            let y = &panel[k * CHOL_NB + c0..k * CHOL_NB + c0 + CHOL_LANES];
            for r in 0..R {
                let xk = x[r][k];
                for (s, yt) in acc[r].iter_mut().zip(y) {
                    *s -= xk * yt;
                }
            }
        }
        for r in 0..R {
            out[r][c0..c0 + cw].copy_from_slice(&acc[r][..cw]);
        }
        c0 += CHOL_LANES;
    }
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// Used throughout the SDP interior-point solver: for factoring scaled iterates
/// and the Schur complement of the Newton system.
///
/// # Example
///
/// ```
/// use snbc_linalg::Matrix;
///
/// # fn main() -> Result<(), snbc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let c = a.cholesky()?;
/// let l = c.l();
/// let back = l.matmul(&l.transpose());
/// assert!((&back - &a).norm_max() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Computes the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if any pivot is `≤ 0` or
    /// non-finite, and [`LinalgError::ShapeMismatch`] for non-square input.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        // Panelled left-looking factorization. For each `CHOL_NB`-column
        // panel `[p, phi)`:
        //
        //   phase 1 applies the updates from the already-final columns
        //   `[0, p)` to the whole panel block: each row's panel slice comes
        //   from a k-major copy of the panel rows' prefixes, two rows at a
        //   time, as independent chains (`chol_panel_rows`). The first
        //   panel has no such columns, so it only copies `A` (and an
        //   `n ≤ CHOL_NB` matrix needs no copy of the prefixes at all);
        //
        //   phase 2 finishes the panel with the textbook left-looking
        //   recurrence restricted to the in-panel columns `[p, j)`.
        //
        // Each entry's subtraction chain is the phase-1 range `[0, p)`
        // followed by the phase-2 range `[p, j)` — concatenated, that is the
        // naive `k = 0..j` ascending order exactly, so the factor (and any
        // pivot failure, at the same index with the same value) is bitwise
        // identical to the unblocked loop (`tests/tiled_equivalence.rs`).
        let last_panel = n.saturating_sub(1) / CHOL_NB * CHOL_NB;
        let mut panel = vec![0.0; last_panel * CHOL_NB];
        let mut p = 0;
        while p < n {
            let phi = (p + CHOL_NB).min(n);
            let w = phi - p;
            // Phase 1: seed the panel block from A and fold in columns [0, p).
            // Rows inside the panel keep only their lower-triangle columns;
            // the extra lanes they compute are dropped.
            if p == 0 {
                for i in 0..n {
                    let cols = w.min(i + 1);
                    l.row_mut(i)[..cols].copy_from_slice(&a.row(i)[..cols]);
                }
            } else {
                for k in 0..p {
                    for t in 0..w {
                        panel[k * CHOL_NB + t] = l[(p + t, k)];
                    }
                }
                let data = l.as_mut_slice();
                let mut i = p;
                while i < n {
                    let (head, tail) = data[i * n..].split_at_mut(n);
                    let (x0, out0) = head.split_at_mut(p);
                    let keep0 = w.min(i + 1 - p);
                    if i + 1 < n {
                        let (x1, out1) = tail[..n].split_at_mut(p);
                        let mut o0 = [0.0; CHOL_NB];
                        let mut o1 = [0.0; CHOL_NB];
                        chol_panel_rows(
                            [&a.row(i)[p..phi], &a.row(i + 1)[p..phi]],
                            [&*x0, &*x1],
                            &panel,
                            w,
                            [&mut o0[..w], &mut o1[..w]],
                        );
                        let keep1 = w.min(i + 2 - p);
                        out0[..keep0].copy_from_slice(&o0[..keep0]);
                        out1[..keep1].copy_from_slice(&o1[..keep1]);
                        i += 2;
                    } else {
                        let mut o0 = [0.0; CHOL_NB];
                        chol_panel_rows([&a.row(i)[p..phi]], [&*x0], &panel, w, [&mut o0[..w]]);
                        out0[..keep0].copy_from_slice(&o0[..keep0]);
                        i += 1;
                    }
                }
            }
            // Phase 2: factor the panel columns in order.
            for j in p..phi {
                let d = chol_row_update(l[(j, j)], &l.row(j)[p..j], &l.row(j)[p..j]);
                if !(d > 0.0) || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
                }
                let dj = d.sqrt();
                l[(j, j)] = dj;
                for i in (j + 1)..n {
                    let s = chol_row_update(l[(i, j)], &l.row(i)[p..j], &l.row(j)[p..j]);
                    l[(i, j)] = s / dj;
                }
            }
            p = phi;
        }
        crate::sanitize::check_finite("Cholesky::new", l.as_slice());
        crate::sanitize::check_positive(
            "Cholesky::new (pivots)",
            &(0..n).map(|i| l[(i, i)]).collect::<Vec<_>>(),
        );
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward: L·y = b
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Solves `L·y = b` (forward substitution only).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Inverse of `A` reconstructed from the factorization.
    pub fn inverse(&self) -> Matrix {
        let n = self.l.nrows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 5.0]])
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let back = c.l().matmul(&c.l().transpose());
        assert!((&back - &a).norm_max() < 1e-12);
    }

    #[test]
    fn cholesky_solve_matches_lu() {
        let a = spd3();
        let b = [1.0, -2.0, 0.3];
        let x1 = a.cholesky().unwrap().solve(&b);
        let x2 = a.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_inverse() {
        let a = spd3();
        let inv = a.cholesky().unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(3)).norm_max() < 1e-10);
    }
}
