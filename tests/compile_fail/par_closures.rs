//! The four shared-state hazards of snbc-audit's old `par-capture-race`
//! rule that rustc itself rejects under snbc-par's `Fn + Sync` closure
//! bounds. tests/clippy_migration.rs compiles this file against the real
//! `crates/par` and expects exactly these four errors, at these lines.

use std::cell::Cell;

pub fn captured_accumulator(data: &mut [f64]) -> usize {
    let mut acc = 0;
    snbc_par::par_for_chunks(data, 16, |_, piece| {
        acc += piece.len(); // E0594: a write to a captured name
    });
    acc
}

pub fn cell_counter(data: &mut [f64], hits: &Cell<u64>) {
    snbc_par::par_for_chunks(data, 16, |_, _| hits.set(hits.get() + 1)); // E0277: `Cell` is not `Sync`
}

pub fn mut_borrow_capture(data: &mut [f64], buf: &mut Vec<f64>) {
    snbc_par::par_for_chunks(data, 16, |_, _| buf.clear()); // E0596: a `&mut` borrow of a capture
}

pub fn output_alias(out: &mut [f64]) {
    snbc_par::par_for_chunks(out, 16, |c, piece| piece[0] = out[c]); // E0502: reads the `&mut` output
}
