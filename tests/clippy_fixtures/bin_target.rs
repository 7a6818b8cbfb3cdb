//! A binary target: it owns the terminal, by one crate-root `#[expect]`.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "binary entry point: the terminal is its output"
)]

fn main() {
    println!("out");
    eprintln!("err");
}
