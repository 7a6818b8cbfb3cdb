//! Runtime numeric sanitizer — the dynamic counterpart of the static gates
//! (`snbc-audit` and clippy, see docs/AUDIT.md).
//!
//! Enabled with the `sanitize` cargo feature (`snbc-lp` and `snbc-sdp`
//! forward their own `sanitize` features here). When active, factorization
//! outputs and interior-point iterates are checked after every producing
//! operation; the **first** operation that yields a non-finite value (or
//! breaks a step invariant such as "Cholesky pivots are positive" or "the
//! duality measure is non-negative") aborts with a message naming that
//! operation — the numerics analog of an address-sanitizer report. Without
//! the feature every check compiles to nothing.
//!
//! The checks deliberately panic rather than return errors: a sanitizer
//! firing means the *solver's own invariants* are broken (not the user's
//! input), and the stack at the first bad write is exactly what one wants.

#![expect(
    clippy::panic,
    reason = "a firing sanitizer reports broken solver invariants at the first bad write"
)]

/// Abort if any value in `values` is NaN or ±∞, naming the producing `op`.
#[inline]
pub fn check_finite(op: &'static str, values: &[f64]) {
    if cfg!(feature = "sanitize") {
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                panic!("sanitize: `{op}` produced non-finite value {v} at index {i}");
            }
        }
    }
}

/// Abort if any value in `values` is not strictly positive (or non-finite).
/// Used for Cholesky/LDLᵀ pivots and interior-point slack variables.
#[inline]
pub fn check_positive(op: &'static str, values: &[f64]) {
    if cfg!(feature = "sanitize") {
        for (i, v) in values.iter().enumerate() {
            if !(*v > 0.0) || !v.is_finite() {
                panic!("sanitize: `{op}` invariant violated: value {v} at index {i} is not strictly positive");
            }
        }
    }
}

/// Abort if a step invariant does not hold. `detail` is the violating value.
#[inline]
pub fn check_invariant(op: &'static str, holds: bool, detail: f64) {
    if cfg!(feature = "sanitize") && !holds {
        panic!("sanitize: `{op}` step invariant violated (value {detail})");
    }
}

/// True when the sanitizer is compiled in (for tests and diagnostics).
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "sanitize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_values_pass() {
        check_finite("test", &[0.0, -1.0, 1e300]);
        check_positive("test", &[1e-300, 2.0]);
        check_invariant("test", true, 0.0);
    }

    #[test]
    #[cfg_attr(not(feature = "sanitize"), ignore = "sanitize feature disabled")]
    fn non_finite_aborts_when_enabled() {
        let caught = std::panic::catch_unwind(|| check_finite("op-name", &[1.0, f64::NAN]));
        let err = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("op-name"), "message should name the op: {err}");
        assert!(err.contains("index 1"), "message should locate the value: {err}");
    }

    #[test]
    #[cfg_attr(not(feature = "sanitize"), ignore = "sanitize feature disabled")]
    fn nonpositive_pivot_aborts_when_enabled() {
        assert!(std::panic::catch_unwind(|| check_positive("chol", &[1.0, 0.0])).is_err());
        assert!(std::panic::catch_unwind(|| check_invariant("gap", false, -1.0)).is_err());
    }
}
