//! Audit fixture: zero findings expected.

// audit:hot
pub fn kernel_into(xs: &[f64], out: &mut [f64]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o = 2.0 * x;
    }
}

/// Cold code may allocate; a doc comment may name `// audit:hot` and
/// `// audit:allow(hot-alloc)` without being either marker.
pub fn setup(n: usize) -> Vec<f64> {
    vec![0.0; n]
}

// audit:hot
pub fn kernel_with_reviewed_setup(xs: &[f64]) -> f64 {
    // audit:allow(hot-alloc) — once per call, not per element
    let buf = setup(xs.len());
    buf.iter().zip(xs).map(|(b, x)| b + x).sum()
}

pub fn code_in_strings_and_comments() -> &'static str {
    // The tokenizer must not see code inside strings or comments, and a
    // quoted `audit:allow(hot-alloc)` in prose is not a marker:
    // let v = xs.to_vec();
    "// audit:hot\nfn k(xs: &[f64]) -> Vec<f64> { xs.to_vec() }"
}

pub fn raw_string() -> &'static str {
    r#"// audit:allow(unordered-reduce)
    let v = "nested".to_string();"#
}
