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
    println!("(eigen rows: symmetric_eigen vs min_eigenvalue)");
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
