//! Audit fixture: zero findings expected.

pub fn serial_sum(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += x;
    }
    acc
}

pub fn indexed_par_output(n: usize) -> f64 {
    let parts = snbc_par::par_map_collect(n, |i| i as f64);
    parts[0] + parts[n - 1]
}

pub fn pure_par_closure(n: usize, scale: f64) -> Vec<f64> {
    snbc_par::par_map_collect(n, |i| i as f64 * scale)
}

pub fn code_in_strings_and_comments() -> &'static str {
    // The tokenizer must not see code inside strings or comments:
    // let xs = snbc_par::par_map_collect(n, f); xs.iter().sum::<f64>()
    "let xs = snbc_par::par_map_collect(n, f); xs.iter().sum::<f64>()"
}

pub fn raw_string() -> &'static str {
    r#"acc += "nested"; snbc_par::par_for_chunks(n, 4, |lo, hi| { acc += hi })"#
}
