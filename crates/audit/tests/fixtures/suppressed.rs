//! Audit fixture: suppression scoping.
//!
//! Suppressions attach to the enclosing statement: a marker on any line of
//! the statement, or on the line directly above it, silences `hot-alloc`.
//! A marker that silences nothing is a finding itself.

// audit:hot
pub fn all_suppressed(xs: &[f64]) -> f64 {
    // audit:allow(hot-alloc)
    let a = xs.to_vec();
    let b = xs.to_vec(); // audit:allow(hot-alloc)
    a[0] + b[0]
}

// audit:hot
pub fn multiline_statement_suppressed(xs: &[f64]) -> usize {
    // audit:allow(hot-alloc)
    xs.iter()
        .copied()
        .collect::<Vec<f64>>()
        .len()
}

// audit:hot
pub fn wrong_rule_does_not_suppress(xs: &[f64]) -> usize {
    // audit:allow(arch) — expect: stale marker @ 26
    xs.to_vec().len() // expect: hot-alloc @ 27 (the allow above names another rule)
}

// audit:hot
pub fn too_far_does_not_suppress(xs: &[f64]) -> usize {
    // audit:allow(hot-alloc) — expect: stale marker @ 32

    xs.to_vec().len() // expect: hot-alloc @ 34 (blank line between allow and finding)
}

// audit:hot
pub fn closure_allow_stays_inside(xs: &[f64]) -> f64 {
    xs.to_vec()[0] * apply(xs, |x| { // expect: hot-alloc @ 39
        // audit:allow(hot-alloc) — expect: stale marker @ 40
        x * 2.0
    })
}
