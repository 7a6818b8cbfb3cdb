//! `float-eq`, `lossy-cast` and `panicking`: the violations of the audit's
//! old `violations.rs` fixture, in the same order.

pub fn float_eq_hit(a: f64) -> bool {
    a == 0.5
}

pub fn float_ne_hit(a: f64) -> bool {
    1.0e-3 != a
}

pub fn negative_literal_hit(a: f64) -> bool {
    a == -2.5
}

pub fn lossy_hits(v: f64, n: i64) -> (f32, i32) {
    (v as f32, n as i32)
}

pub fn widening_is_fine(x: u32, v: f32) -> (u64, f64) {
    (x as u64, v as f64)
}

pub fn unwrap_hit(v: Option<u64>) -> u64 {
    v.unwrap()
}

pub fn expect_hit(v: Option<u64>) -> u64 {
    v.expect("boom")
}

pub fn panic_hit() {
    panic!("boom")
}

pub fn unreachable_hit() {
    unreachable!()
}

pub fn todo_hit() {
    todo!()
}

pub fn unimplemented_hit() {
    unimplemented!()
}

#[cfg(test)]
mod tests {
    // Test code may unwrap, expect, panic and print.
    #[test]
    fn exempt() {
        let v = "1".parse::<u64>().ok();
        assert_eq!(v.unwrap(), 1);
        assert_eq!(v.expect("fine in tests"), 1);
        println!("fine in tests");
        eprintln!("fine in tests");
    }

    #[test]
    #[should_panic]
    fn panics() {
        panic!("fine in tests");
    }
}
