use std::sync::OnceLock;

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

/// Row-chunk executor of the panelled factorization's row-independent
/// phases: `run(data, chunk_len, body)` must call `body(c, chunk)` once for every
/// `chunk_len`-element chunk `c` of `data` (the last may be short), in any
/// order and on any thread. The chunks are disjoint runs of matrix rows
/// whose results do not depend on each other, so every executor gives the
/// same bits. [`Cholesky::new`] runs them in order on the calling thread.
pub type RowChunks<'a> = dyn Fn(&mut [f64], usize, &(dyn Fn(usize, &mut [f64]) + Sync)) + 'a;

/// Multiply–adds of one phase of one panel below which its rows are handed
/// to the [`RowChunks`] executor as a single chunk. Measured with the
/// persistent `snbc-par` pool on a 2-core host: a split phase pays from
/// about 10⁵ multiply–adds on, and Schur matrices of order ≤ 150, whose
/// phases are all smaller, lost time when split (docs/PERFORMANCE.md,
/// "Parallel thresholds").
const CHOL_PAR_MIN_WORK: usize = 1 << 17;

/// Rows per chunk of a phase that is large enough to split: even, so the
/// row pairs of [`chol_phase1_rows`] and [`chol_panel_solve`] never
/// straddle two chunks, and small enough that a static split over two
/// workers stays balanced.
const CHOL_PAR_ROWS: usize = 16;

/// Rows per chunk for a run of `rows` rows whose work is `work`
/// multiply–adds: all of them in one chunk below [`CHOL_PAR_MIN_WORK`].
fn grain(rows: usize, work: usize) -> usize {
    if work < CHOL_PAR_MIN_WORK {
        rows
    } else {
        CHOL_PAR_ROWS
    }
}

/// The serial [`RowChunks`] executor: chunks in ascending order, inline.
fn serial_chunks(data: &mut [f64], chunk_len: usize, body: &(dyn Fn(usize, &mut [f64]) + Sync)) {
    for (c, chunk) in data.chunks_mut(chunk_len.max(1)).enumerate() {
        body(c, chunk);
    }
}

/// Phase 1 of panel `[p, p + w)` for one run of `n`-column rows starting at
/// row `first`: each row's panel slice becomes its seed (the current
/// entries) minus the products over the final columns `[0, p)`, two rows at
/// a time. Rows inside the panel keep only their lower-triangle columns;
/// the extra lanes they compute are dropped.
// audit:hot
fn chol_phase1_rows(rows: &mut [f64], n: usize, first: usize, p: usize, w: usize, panel: &[f64]) {
    let mut i = first;
    for pair in rows.chunks_mut(2 * n) {
        let (row0, row1) = pair.split_at_mut(n.min(pair.len()));
        let keep0 = w.min(i + 1 - p);
        let (x0, out0) = row0.split_at_mut(p);
        let mut s0 = [0.0; CHOL_NB];
        s0[..w].copy_from_slice(&out0[..w]);
        let mut o0 = [0.0; CHOL_NB];
        if row1.is_empty() {
            chol_panel_rows([&s0[..w]], [&*x0], panel, w, [&mut o0[..w]]);
        } else {
            let (x1, out1) = row1.split_at_mut(p);
            let keep1 = w.min(i + 2 - p);
            let mut s1 = [0.0; CHOL_NB];
            s1[..w].copy_from_slice(&out1[..w]);
            let mut o1 = [0.0; CHOL_NB];
            chol_panel_rows(
                [&s0[..w], &s1[..w]],
                [&*x0, &*x1],
                panel,
                w,
                [&mut o0[..w], &mut o1[..w]],
            );
            out1[..keep1].copy_from_slice(&o1[..keep1]);
        }
        out0[..keep0].copy_from_slice(&o0[..keep0]);
        i += 2;
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
    /// `L` in the lower triangle, diagonal included, and `Lᵀ` in the strict
    /// upper one: row `i` right of the diagonal is column `i` of `L` below
    /// it, so both substitution passes read rows.
    f: Matrix,
    /// `L` alone, built by the first [`Cholesky::l`] call (boxed: the
    /// solver keeps many factors and rarely asks).
    l: OnceLock<Box<Matrix>>,
}

impl Cholesky {
    /// Computes the factorization of `a`'s lower triangle.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if any pivot is `≤ 0` or
    /// non-finite, and [`LinalgError::ShapeMismatch`] for non-square input.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_in_place(a.clone(), &serial_chunks).map_err(|(e, _)| e)
    }

    /// Factors the symmetric matrix `a` in its own storage, running each
    /// panel's row-independent phases through `rows` (see [`RowChunks`]). The factor and
    /// any pivot failure are bitwise those of [`Cholesky::new`].
    ///
    /// # Errors
    ///
    /// As [`Cholesky::new`], together with `a` restored to its input: the
    /// factorization reads and writes only the lower triangle and the
    /// diagonal, so the strict lower triangle is rebuilt from the upper one
    /// and the diagonal from a copy, and the caller can perturb and retry
    /// without keeping a second matrix.
    pub fn factor_in_place(
        mut a: Matrix,
        rows: &RowChunks<'_>,
    ) -> Result<Self, (LinalgError, Matrix)> {
        if !a.is_square() {
            let found = (a.nrows(), a.ncols());
            return Err((
                LinalgError::ShapeMismatch {
                    expected: (a.nrows(), a.nrows()),
                    found,
                },
                a,
            ));
        }
        let n = a.nrows();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        if let Err(e) = factor_lower(&mut a, rows) {
            let data = a.as_mut_slice();
            for i in 0..n {
                for j in 0..i {
                    data[i * n + j] = data[j * n + i];
                }
                data[i * n + i] = diag[i];
            }
            return Err((e, a));
        }
        // Mirror L into the strict upper triangle.
        let data = a.as_mut_slice();
        for i in 0..n {
            for k in (i + 1)..n {
                data[i * n + k] = data[k * n + i];
            }
        }
        crate::sanitize::check_finite("Cholesky::new", a.as_slice());
        crate::sanitize::check_positive(
            "Cholesky::new (pivots)",
            a.as_slice().iter().step_by(n + 1),
        );
        Ok(Cholesky {
            f: a,
            l: OnceLock::new(),
        })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        self.l.get_or_init(|| {
            let mut l = self.f.clone();
            let n = l.nrows();
            for i in 0..n {
                l.row_mut(i)[i + 1..].fill(0.0);
            }
            Box::new(l)
        })
    }

    /// Solves `A·x = b` using the stored factorization: `L·y = b`, then
    /// `Lᵀ·x = y`, each entry's subtraction chain running over ascending
    /// `k` along a row of the stored factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.f.nrows(), "rhs length mismatch");
        let mut y = b.to_vec();
        forward_rows(&self.f, &mut y);
        backward_rows(&self.f, &mut y);
        y
    }

    /// The residual `b − L·(Lᵀ·x)` of a solve, reading only `L`'s triangle.
    ///
    /// Bitwise the same as `Lᵀ·x` and `L·(Lᵀ·x)` by the dense
    /// [`Matrix::tr_matvec`] and [`Matrix::matvec`] over `L` with its zero
    /// upper triangle, for finite `x`: the products left out are exact
    /// zeros, and neither accumulation, which starts at +0.0, can hold −0.0
    /// when one of them would be added.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` does not match the matrix dimension.
    pub fn residual(&self, b: &[f64], x: &[f64]) -> Vec<f64> {
        let n = self.f.nrows();
        assert!(b.len() == n && x.len() == n, "residual length mismatch");
        let mut lx = vec![0.0; n];
        let mut r = b.to_vec();
        lower_residual(&self.f, x, &mut lx, &mut r);
        r
    }

    /// `L⁻¹·A·L⁻ᵀ`, not symmetrized: `L⁻¹` applied to the columns of `A`,
    /// then to the rows of the result, each by forward substitution with
    /// its chain over ascending `k` — the operations of solving for one
    /// column at a time, in a row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not of the factor's order.
    pub fn inv_congruence(&self, a: &Matrix) -> Matrix {
        let n = self.f.nrows();
        assert!(
            a.nrows() == n && a.ncols() == n,
            "inv_congruence shape mismatch"
        );
        let mut t = a.clone();
        inv_congruence_rows(&self.f, t.as_mut_slice());
        t
    }

    /// Inverse of `A` reconstructed from the factorization.
    pub fn inverse(&self) -> Matrix {
        let n = self.f.nrows();
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

/// `y ← L⁻¹·y` by rows of the stored factor `f`.
// audit:hot
fn forward_rows(f: &Matrix, y: &mut [f64]) {
    for i in 0..y.len() {
        let row = f.row(i);
        let mut s = y[i];
        for (l, yk) in row[..i].iter().zip(&y[..i]) {
            s -= l * yk;
        }
        y[i] = s / row[i];
    }
}

/// `y ← L⁻ᵀ·y` by rows of the stored factor `f`, whose strict upper
/// triangle holds `Lᵀ`.
// audit:hot
fn backward_rows(f: &Matrix, y: &mut [f64]) {
    for i in (0..y.len()).rev() {
        let row = f.row(i);
        let mut s = y[i];
        for (l, yk) in row[i + 1..].iter().zip(&y[i + 1..]) {
            s -= l * yk;
        }
        y[i] = s / row[i];
    }
}

/// `r ← r − L·(Lᵀ·x)` over the lower triangle of `f`, with `lx` (zeros on
/// entry) receiving `Lᵀ·x`.
// audit:hot
fn lower_residual(f: &Matrix, x: &[f64], lx: &mut [f64], r: &mut [f64]) {
    for (i, &xi) in x.iter().enumerate() {
        for (y, l) in lx[..=i].iter_mut().zip(&f.row(i)[..=i]) {
            *y += l * xi;
        }
    }
    for (i, ri) in r.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (l, y) in f.row(i)[..=i].iter().zip(&lx[..=i]) {
            acc += l * y;
        }
        *ri -= acc;
    }
}

/// `t ← L⁻¹·t·L⁻ᵀ` for the row-major square `t` (see
/// [`Cholesky::inv_congruence`]): first all columns at once, row `i`
/// becoming row `i` minus `L[i][k]·(row k)` for ascending `k`, over
/// `L[i][i]`; then each row in place by forward substitution.
// audit:hot
fn inv_congruence_rows(f: &Matrix, t: &mut [f64]) {
    let n = f.nrows();
    for i in 0..n {
        let (done, rest) = t.split_at_mut(i * n);
        let ti = &mut rest[..n];
        let li = f.row(i);
        for (k, &lik) in li[..i].iter().enumerate() {
            for (v, tk) in ti.iter_mut().zip(&done[k * n..(k + 1) * n]) {
                *v -= lik * tk;
            }
        }
        for v in ti.iter_mut() {
            *v /= li[i];
        }
    }
    for tc in t.chunks_exact_mut(n) {
        forward_rows(f, tc);
    }
}

/// The panelled left-looking factorization of `a`'s lower triangle, in
/// place. For each `CHOL_NB`-column panel `[p, phi)`:
///
/// phase 1 applies the updates from the already-final columns `[0, p)` to
/// the whole panel block: each row's panel slice comes from a k-major copy
/// of the panel rows' prefixes, two rows at a time, as independent chains
/// (`chol_panel_rows`). The first panel has no such columns and starts from
/// `a` as it is;
///
/// phase 2 finishes the panel with the textbook left-looking recurrence
/// restricted to the in-panel columns `[p, j)`: first the panel's diagonal
/// block, whose pivots decide success, then every row below it, which only
/// needs its own row and the finished block (`chol_panel_solve`).
///
/// Each entry's subtraction chain is the phase-1 range `[0, p)` followed by
/// the phase-2 range `[p, j)` — concatenated, that is the naive `k = 0..j`
/// ascending order exactly, so the factor (and any pivot failure, at the
/// same index with the same value) is bitwise identical to the unblocked
/// loop (`tests/tiled_equivalence.rs`). Within a phase the rows do not
/// depend on each other, so phase 1 of every row and phase 2 of the rows
/// below the block run through `rows`, in runs of rows. Neither phase
/// reads or writes the strict upper triangle.
fn factor_lower(l: &mut Matrix, rows: &RowChunks<'_>) -> Result<(), LinalgError> {
    let n = l.nrows();
    let last_panel = n.saturating_sub(1) / CHOL_NB * CHOL_NB;
    let mut panel = vec![0.0; last_panel * CHOL_NB];
    let mut p = 0;
    while p < n {
        let phi = (p + CHOL_NB).min(n);
        let w = phi - p;
        if p > 0 {
            for k in 0..p {
                for t in 0..w {
                    panel[k * CHOL_NB + t] = l[(p + t, k)];
                }
            }
            let panel = &panel[..p * CHOL_NB];
            let chunk_rows = grain(n - p, (n - p) * p * w);
            rows(
                &mut l.as_mut_slice()[p * n..],
                chunk_rows * n,
                &|c, chunk| {
                    chol_phase1_rows(chunk, n, p + c * chunk_rows, p, w, panel);
                },
            );
        }
        for j in p..phi {
            let d = chol_row_update(l[(j, j)], &l.row(j)[p..j], &l.row(j)[p..j]);
            if !(d > 0.0) || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..phi {
                let s = chol_row_update(l[(i, j)], &l.row(i)[p..j], &l.row(j)[p..j]);
                l[(i, j)] = s / dj;
            }
        }
        if phi < n {
            let chunk_rows = grain(n - phi, (n - phi) * w * w / 2);
            let (top, below) = l.as_mut_slice().split_at_mut(phi * n);
            let block = &top[p * n..];
            rows(below, chunk_rows * n, &|_, chunk| {
                chol_panel_solve(chunk, n, p, w, block)
            });
        }
        p = phi;
    }
    Ok(())
}

/// Phase 2 of panel `[p, p + w)` for a run of `n`-column rows below it:
/// `l[i][j] = (l[i][j] − Σₖ l[i][k]·l[j][k]) / l[j][j]` for `j` ascending
/// over the panel and `k` ascending over `[p, j)`, the chain of
/// [`chol_row_update`], two rows side by side. `block` holds the panel's
/// finished diagonal rows `p..p + w`.
// audit:hot
fn chol_panel_solve(rows: &mut [f64], n: usize, p: usize, w: usize, block: &[f64]) {
    for pair in rows.chunks_mut(2 * n) {
        let (row0, row1) = pair.split_at_mut(n.min(pair.len()));
        let seg0 = &mut row0[p..p + w];
        if row1.is_empty() {
            chol_solve_rows([seg0], n, p, w, block);
        } else {
            chol_solve_rows([seg0, &mut row1[p..p + w]], n, p, w, block);
        }
    }
}

/// [`chol_panel_solve`] for `R` row segments at once: each segment entry is
/// its own chain, so the rows only share the loads of the block's rows.
// audit:hot
fn chol_solve_rows<const R: usize>(
    segs: [&mut [f64]; R],
    n: usize,
    p: usize,
    w: usize,
    block: &[f64],
) {
    for t in 0..w {
        let lj = &block[t * n + p..t * n + p + t];
        let mut acc = [0.0; R];
        for r in 0..R {
            acc[r] = segs[r][t];
        }
        for (k, y) in lj.iter().enumerate() {
            for r in 0..R {
                acc[r] -= segs[r][k] * y;
            }
        }
        let dj = block[t * n + p + t];
        for r in 0..R {
            segs[r][t] = acc[r] / dj;
        }
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
