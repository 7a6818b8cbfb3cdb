//! Property test: on well-posed inputs the runtime checks must be invisible
//! — Cholesky and LU factorizations of random SPD matrices succeed without
//! a check firing (no false positives).
//!
//! A debug `cargo test` runs the checks for real; a `--release` run, which
//! compiles them out, pins the baseline behavior they must not change.

use proptest::prelude::*;
use snbc_linalg::Matrix;

/// `B·Bᵀ + εI` is SPD for any `B`; the shift keeps the smallest eigenvalue
/// away from the rounding noise floor so Cholesky is well-defined.
fn random_spd(entries: &[f64], n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, entries[..n * n].to_vec());
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += 1e-3;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_on_spd_never_trips_sanitizer(
        entries in proptest::collection::vec(-10.0f64..10.0, 16),
    ) {
        let a = random_spd(&entries, 4);
        // In a debug build any non-finite entry or non-positive pivot in the
        // factor panics; reaching the assertions below therefore proves the
        // checks stayed silent.
        let c = a.cholesky().expect("SPD input must factor");
        let back = c.l().matmul(&c.l().transpose());
        prop_assert!((&back - &a).norm_max() < 1e-8 * (1.0 + a.norm_max()));
        let x = c.solve(&[1.0, -1.0, 2.0, 0.5]);
        prop_assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lu_on_spd_never_trips_sanitizer(
        entries in proptest::collection::vec(-10.0f64..10.0, 16),
    ) {
        let a = random_spd(&entries, 4);
        let lu = a.lu().expect("SPD input is nonsingular");
        prop_assert!(lu.det() > 0.0, "SPD determinant must be positive, got {}", lu.det());
        let x = lu.solve(&[0.5, 0.0, -3.0, 1.0]);
        let r = a.matvec(&x);
        prop_assert!((r[0] - 0.5).abs() < 1e-6 * (1.0 + a.norm_max()));
    }
}
