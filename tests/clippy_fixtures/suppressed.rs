//! The unsuppressed lines of the audit's old `suppressed.rs` fixture: an
//! exception is now an `#[expect]`, which names its lint and covers only
//! the item it sits on.

#[expect(clippy::float_cmp, reason = "a reviewed exception is silent")]
pub fn covered(a: f64) -> bool {
    a == 0.5
}

#[allow(clippy::panic)]
pub fn another_lint_does_not_cover(a: f64) -> bool {
    a == 0.25
}

pub fn the_next_item_is_not_covered(a: f64) -> bool {
    a == 0.75
}

pub fn closure_expect_stays_inside(bias: f64) -> Vec<f32> {
    (0..bias as usize)
        .map(|i| {
            #[expect(clippy::cast_possible_truncation, reason = "covers this statement only")]
            let y = (i as f64 + bias) as f32;
            y * 2.0
        })
        .collect()
}
