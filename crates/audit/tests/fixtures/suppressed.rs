//! Audit fixture: suppression scoping.
//!
//! Suppressions attach to the enclosing statement: a marker on any line of
//! the statement, or on the line directly above it, silences the named rule.

pub fn all_suppressed(n: usize) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    // audit:allow(unordered-reduce)
    let a = parts.iter().sum::<f64>();
    let b = parts.iter().sum::<f64>(); // audit:allow(unordered-reduce)
    a + b
}

pub fn multiline_statement_suppressed(n: usize) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    // audit:allow(unordered-reduce)
    parts
        .iter()
        .sum::<f64>()
}

pub fn wrong_rule_does_not_suppress(n: usize) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    // audit:allow(hot-alloc)
    parts.iter().sum::<f64>() // expect: unordered-reduce @ 25 (the allow above names another rule)
}

pub fn too_far_does_not_suppress(n: usize) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    // audit:allow(unordered-reduce)

    parts.iter().sum::<f64>() // expect: unordered-reduce @ 32 (blank line between allow and finding)
}

pub fn closure_allow_stays_inside(n: usize, scale: f64) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    parts.iter().sum::<f64>() * snbc_par::par_map_collect(n, |i| { // expect: unordered-reduce @ 37
        // audit:allow(unordered-reduce)
        i as f64 * scale
    })[0]
}
