//! Bitwise equivalence of the cache-tiled kernels against the untiled
//! reference loops they replaced.
//!
//! The tiled GEMM keeps the `k` accumulation full and ascending per output
//! element, and the panelled Cholesky concatenates its two phase ranges into
//! the naive `k = 0..j` subtraction chain — so both must reproduce the old
//! kernels *bit for bit*, not just within tolerance. These tests pin that:
//! every comparison is on `f64::to_bits`, across shapes that cross the
//! `GEMM_MC = 64`, `GEMM_NC = 256`, and `CHOL_NB = 32` tile boundaries.

use proptest::prelude::*;
use snbc_linalg::{LinalgError, Matrix};

/// The pre-tiling GEMM reference: i-k-j with the sparse-coefficient skip.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            // Same exact-zero skip as the production kernel.
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                out[(i, j)] += aip * b[(p, j)];
            }
        }
    }
    out
}

/// The pre-panelling Cholesky reference: textbook left-looking loop.
fn naive_cholesky(a: &Matrix) -> Result<Matrix, (usize, f64)> {
    let n = a.nrows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if !(d > 0.0) || !d.is_finite() {
            return Err((j, d));
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(l)
}

/// The solve before the factor kept `Lᵀ` in its upper triangle, verbatim:
/// the backward pass walks `L` by column.
fn naive_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.nrows();
    let mut y = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l[(i, k)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            y[i] -= l[(k, i)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    y
}

/// The SDP's refinement residual before `Cholesky::residual`, verbatim:
/// dense products over `L` with its zero upper triangle.
fn naive_residual(l: &Matrix, b: &[f64], x: &[f64]) -> Vec<f64> {
    let lx = l.tr_matvec(x);
    let mx = l.matvec(&lx);
    b.iter().zip(&mx).map(|(b, m)| b - m).collect()
}

/// The old `Cholesky::solve_lower`, verbatim.
fn naive_solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.nrows();
    let mut y = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l[(i, k)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    y
}

/// The SDP step length's `L⁻¹·dV·L⁻ᵀ` before `Cholesky::inv_congruence`,
/// verbatim: one allocating forward solve per column, twice, and three
/// transposes (the last one included here).
fn naive_inv_congruence(l: &Matrix, dm: &Matrix) -> Matrix {
    let n = dm.nrows();
    let mut t = Matrix::zeros(n, n);
    for c in 0..n {
        let col = dm.col(c);
        let s = naive_solve_lower(l, &col);
        for r in 0..n {
            t[(r, c)] = s[r];
        }
    }
    let tt = t.transpose();
    let mut w = Matrix::zeros(n, n);
    for c in 0..n {
        let col = tt.col(c);
        let s = naive_solve_lower(l, &col);
        for r in 0..n {
            w[(r, c)] = s[r];
        }
    }
    w.transpose()
}

/// The eigenvalue-only Jacobi sweep before it ran over row slices,
/// verbatim: the smallest eigenvalue, or `(sweeps, residual)` when it gives
/// up.
fn naive_min_eigenvalue(a: &Matrix) -> Result<f64, (usize, f64)> {
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
            return Ok((0..n).map(|i| m[(i, i)]).fold(f64::INFINITY, f64::min));
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
            }
        }
    }
    let mut off = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            off += m[(i, j)] * m[(i, j)];
        }
    }
    Err((MAX_SWEEPS, (2.0 * off).sqrt()))
}

/// A vector of LCG values in [−5, 5) with exact zeros and a −0.0 sprinkled
/// in.
fn fill_vec(n: usize, seed: u64) -> Vec<f64> {
    let m = fill(1, n, seed);
    let mut v = m.row(0).to_vec();
    if n > 3 {
        v[3] = -0.0;
    }
    v
}

fn assert_vec_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i}: {g} vs {w}");
    }
}

/// Deterministic pseudo-random fill (LCG) with exact zeros sprinkled in to
/// exercise the sparse skip; no external RNG so shapes can be large.
fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(i, j)] = if state.is_multiple_of(7) {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
            };
        }
    }
    m
}

/// `B·Bᵀ + shift·I` — SPD with a well-separated spectrum floor.
fn spd(n: usize, seed: u64) -> Matrix {
    let b = fill(n, n, seed);
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += 0.5 * n as f64;
    }
    a
}

fn assert_bits_equal(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    for i in 0..got.nrows() {
        for j in 0..got.ncols() {
            assert_eq!(
                got[(i, j)].to_bits(),
                want[(i, j)].to_bits(),
                "{what}: entry ({i}, {j}): {} vs {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

#[test]
fn tiled_gemm_matches_naive_across_tile_boundaries() {
    // Shapes straddling the GEMM_MC = 64 row and GEMM_NC = 256 column
    // boundaries, plus degenerate and skinny cases.
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (5, 3, 4),
        (63, 10, 255),
        (64, 10, 256),
        (65, 7, 257),
        (96, 33, 300),
        (31, 64, 8),
        (128, 1, 40),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let a = fill(m, k, 1 + case as u64);
        let b = fill(k, n, 100 + case as u64);
        let want = naive_matmul(&a, &b);
        assert_bits_equal(&a.matmul(&b), &want, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn panelled_cholesky_matches_naive_across_panel_boundaries() {
    // Orders straddling the CHOL_NB = 32 panel boundary, with odd and even
    // row counts below each panel (phase 1 runs rows in pairs plus a single
    // trailing row) and last panels of 1, 2, 31 and 32 columns (its 8-column
    // lane groups end short or exact).
    let orders = [1usize, 2, 3, 31, 32, 33, 34, 63, 64, 65, 66, 70, 97, 127];
    for (case, &n) in orders.iter().enumerate() {
        let a = spd(n, 7 + case as u64);
        let want = naive_cholesky(&a).expect("SPD reference must factor");
        let got = a.cholesky().expect("SPD must factor");
        assert_bits_equal(got.l(), &want, &format!("cholesky n={n}"));
    }
}

#[test]
fn panelled_cholesky_fails_identically_to_naive() {
    // Break positive-definiteness in the *second* panel so the failure
    // requires phase-1 updates to have been applied bit-exactly first.
    let mut a = spd(60, 42);
    a[(40, 40)] = -3.0;
    let (want_idx, want_pivot) = naive_cholesky(&a).expect_err("not PD");
    match a.cholesky() {
        Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
            assert_eq!(index, want_idx, "failure index");
            assert_eq!(pivot.to_bits(), want_pivot.to_bits(), "failure pivot bits");
        }
        other => panic!("expected NotPositiveDefinite, got {other:?}"),
    }
}

#[test]
fn panelled_cholesky_fails_identically_in_every_panel_position() {
    // A broken pivot on even and odd rows, first and last in a panel, in the
    // first, second and last panel: the failure index and pivot bits must be
    // those of the naive loop.
    let cases = [
        (33usize, 32usize),
        (65, 33),
        (65, 34),
        (65, 63),
        (65, 64),
        (97, 64),
        (97, 95),
        (97, 96),
    ];
    for &(n, bad) in &cases {
        let mut a = spd(n, 11 + bad as u64);
        a[(bad, bad)] = -1.0;
        let (want_idx, want_pivot) = naive_cholesky(&a).expect_err("not PD");
        match a.cholesky() {
            Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
                assert_eq!(index, want_idx, "n = {n}: failure index");
                assert_eq!(pivot.to_bits(), want_pivot.to_bits(), "n = {n}: failure pivot bits");
            }
            other => panic!("n = {n}: expected NotPositiveDefinite, got {other:?}"),
        }
    }
}

#[test]
fn eigenvalue_only_sweeps_match_the_full_decomposition_bitwise() {
    // `min_eigenvalue` runs the Jacobi sweeps without eigenvectors; its value
    // must be the minimum of `symmetric_eigen`'s, bit for bit.
    for (case, &n) in [1usize, 2, 5, 12, 28, 45].iter().enumerate() {
        let mut a = fill(n, n, 31 + case as u64);
        a.symmetrize();
        let full = a.symmetric_eigen().expect("converges");
        let only = a.min_eigenvalue().expect("converges");
        assert_eq!(only.to_bits(), full.min().to_bits(), "n = {n}");
    }
    // A NaN keeps the off-diagonal mass above tolerance for every sweep: both
    // give up after the same number of sweeps with the same residual bits.
    let mut a = spd(6, 9);
    a[(1, 4)] = f64::NAN;
    a[(4, 1)] = f64::NAN;
    match (a.symmetric_eigen(), a.min_eigenvalue()) {
        (
            Err(LinalgError::NoConvergence { iterations: i1, residual: r1 }),
            Err(LinalgError::NoConvergence { iterations: i2, residual: r2 }),
        ) => {
            assert_eq!(i1, i2, "sweeps");
            assert_eq!(r1.to_bits(), r2.to_bits(), "residual bits");
        }
        other => panic!("expected NoConvergence twice, got {other:?}"),
    }
}

#[test]
fn row_contiguous_solves_match_the_column_walk_bitwise() {
    // Schur-sized orders across the panel boundaries, and the Gram-block
    // orders of the step lengths.
    for (case, &n) in [1usize, 2, 5, 31, 33, 66, 97, 211].iter().enumerate() {
        let a = spd(n, 50 + case as u64);
        let chol = a.cholesky().expect("SPD must factor");
        let l = chol.l();
        let b = fill_vec(n, 70 + case as u64);
        let x = chol.solve(&b);
        assert_vec_bits(&x, &naive_solve(l, &b), &format!("solve n={n}"));
        // The refinement residual at a solution and at an arbitrary point,
        // which has exact zeros and a −0.0.
        for (k, point) in [x.clone(), fill_vec(n, 90 + case as u64)].iter().enumerate() {
            assert_vec_bits(
                &chol.residual(&b, point),
                &naive_residual(l, &b, point),
                &format!("residual n={n} point {k}"),
            );
        }
        let dm = {
            let mut d = fill(n, n, 110 + case as u64);
            d.symmetrize();
            d
        };
        assert_bits_equal(
            &chol.inv_congruence(&dm),
            &naive_inv_congruence(l, &dm),
            &format!("inv_congruence n={n}"),
        );
    }
}

#[test]
fn sliced_jacobi_matches_the_indexed_sweep_bitwise() {
    for (case, &n) in [1usize, 2, 3, 7, 28, 36, 45].iter().enumerate() {
        let mut a = fill(n, n, 130 + case as u64);
        a.symmetrize();
        // A slightly asymmetric input too: the sweep symmetrizes first.
        let mut b = a.clone();
        if n > 1 {
            b[(0, n - 1)] += 1e-3;
        }
        for (k, m) in [a, b].iter().enumerate() {
            let want = naive_min_eigenvalue(m).expect("converges");
            let got = m.min_eigenvalue().expect("converges");
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, input {k}");
        }
    }
    let mut a = spd(6, 9);
    a[(1, 4)] = f64::NAN;
    a[(4, 1)] = f64::NAN;
    let (want_sweeps, want_residual) = naive_min_eigenvalue(&a).expect_err("NaN never converges");
    match a.min_eigenvalue() {
        Err(LinalgError::NoConvergence { iterations, residual }) => {
            assert_eq!(iterations, want_sweeps, "sweeps");
            assert_eq!(residual.to_bits(), want_residual.to_bits(), "residual bits");
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

/// Not a correctness test — a manual micro-benchmark comparing the naive
/// reference kernels against the tiled production kernels. This is the
/// probe that produced the kernel table in `docs/PERFORMANCE.md`; re-run
/// it when re-measuring:
///
/// ```text
/// cargo test --release -p snbc-linalg --test tiled_equivalence -- --ignored --nocapture
/// ```
#[test]
#[ignore = "perf probe, run manually with --release --ignored --nocapture"]
fn kernel_perf_probe() {
    use std::hint::black_box;
    use std::time::Instant;

    // Warm-up pass, then best-of-3 to tame scheduler noise.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock perf probe; snbc-linalg sits below the trace clock"
    )]
    fn best_of_3(f: &mut dyn FnMut()) -> f64 {
        f();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }

    println!("kernel            n    naive (ms)   tiled (ms)   speedup");
    println!("(eigen rows: symmetric_eigen vs min_eigenvalue; schur solve and");
    println!(" min_eigenvalue rows: the kernels before row-contiguous access vs after)");
    for &n in &[128usize, 256, 384] {
        let a = fill(n, n, 1);
        let b = fill(n, n, 2);
        let naive = best_of_3(&mut || {
            black_box(naive_matmul(black_box(&a), black_box(&b)));
        });
        let tiled = best_of_3(&mut || {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        println!(
            "gemm           {n:4}   {:10.2}   {:10.2}   {:6.2}x",
            naive * 1e3,
            tiled * 1e3,
            naive / tiled
        );
    }
    // Schur-complement orders of the SDPs the verifier solves.
    for &n in &[192usize, 211, 331, 496, 1002] {
        let a = spd(n, 3);
        let naive = best_of_3(&mut || {
            black_box(naive_cholesky(black_box(&a))).expect("SPD");
        });
        let tiled = best_of_3(&mut || {
            black_box(black_box(&a).cholesky()).expect("SPD");
        });
        println!(
            "cholesky       {n:4}   {:10.2}   {:10.2}   {:6.2}x",
            naive * 1e3,
            tiled * 1e3,
            naive / tiled
        );
    }
    // Gram-block orders of the step-length eigenvalue problems: the full
    // decomposition against the eigenvalue-only sweeps.
    for &n in &[28usize, 45, 66] {
        let a = spd(n, 5);
        let full = best_of_3(&mut || {
            black_box(black_box(&a).symmetric_eigen()).expect("converges");
        });
        let only = best_of_3(&mut || {
            black_box(black_box(&a).min_eigenvalue()).expect("converges");
        });
        println!(
            "eigen/min      {n:4}   {:10.2}   {:10.2}   {:6.2}x",
            full * 1e3,
            only * 1e3,
            full / only
        );
    }
    // One refined Schur direction (three solves, two L·Lᵀ·x residuals): the
    // column-walking solve and dense products against the row-contiguous
    // solve and the lower-triangle residual.
    for &n in &[211usize, 331, 496] {
        let chol = spd(n, 7).cholesky().expect("SPD");
        let l = chol.l().clone();
        let b = fill_vec(n, 8);
        let old = best_of_3(&mut || {
            let mut x = naive_solve(&l, &b);
            for _ in 0..2 {
                let r = naive_residual(&l, &b, &x);
                let dx = naive_solve(&l, &r);
                x.iter_mut().zip(&dx).for_each(|(xi, di)| *xi += di);
            }
            black_box(x);
        });
        let new = best_of_3(&mut || {
            let mut x = chol.solve(&b);
            for _ in 0..2 {
                let r = chol.residual(&b, &x);
                let dx = chol.solve(&r);
                x.iter_mut().zip(&dx).for_each(|(xi, di)| *xi += di);
            }
            black_box(x);
        });
        println!(
            "schur solve    {n:4}   {:10.3}   {:10.3}   {:6.2}x",
            old * 1e3,
            new * 1e3,
            old / new
        );
    }
    // Step-length eigenvalues: the indexed sweep against the sliced one.
    for &n in &[28usize, 36, 45] {
        let a = spd(n, 5);
        let old = best_of_3(&mut || {
            black_box(naive_min_eigenvalue(black_box(&a))).expect("converges");
        });
        let new = best_of_3(&mut || {
            black_box(black_box(&a).min_eigenvalue()).expect("converges");
        });
        println!(
            "min_eigenvalue {n:4}   {:10.3}   {:10.3}   {:6.2}x",
            old * 1e3,
            new * 1e3,
            old / new
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_gemm_matches_naive_on_random_matrices(
        entries in proptest::collection::vec(-10.0f64..10.0, 72),
    ) {
        // 6×4 · 4×6 plus a 6×6 square from the same pool.
        let a = Matrix::from_vec(6, 4, entries[..24].to_vec());
        let b = Matrix::from_vec(4, 6, entries[24..48].to_vec());
        let want = naive_matmul(&a, &b);
        let got = a.matmul(&b);
        for i in 0..6 {
            for j in 0..6 {
                prop_assert_eq!(got[(i, j)].to_bits(), want[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn panelled_cholesky_matches_naive_on_random_spd(
        entries in proptest::collection::vec(-5.0f64..5.0, 36),
    ) {
        let b = Matrix::from_vec(6, 6, entries.clone());
        let mut a = b.matmul(&b.transpose());
        for i in 0..6 {
            a[(i, i)] += 1e-2;
        }
        let want = naive_cholesky(&a).expect("SPD reference must factor");
        let got = a.cholesky().expect("SPD must factor");
        for i in 0..6 {
            for j in 0..6 {
                prop_assert_eq!(got.l()[(i, j)].to_bits(), want[(i, j)].to_bits());
            }
        }
    }
}
