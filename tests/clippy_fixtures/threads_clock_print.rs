//! `raw-thread`, `raw-instant` and `raw-print`.

use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

pub fn raw_spawn() -> JoinHandle<()> {
    std::thread::spawn(|| {})
}

pub fn renamed_spawn() -> JoinHandle<()> {
    use std::thread::spawn as sp;
    sp(|| {})
}

pub fn builder_spawn() -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().spawn(|| {})
}

pub fn scoped() {
    std::thread::scope(|_| {});
}

pub fn raw_clock() -> Duration {
    std::time::Instant::now().elapsed()
}

pub fn renamed_clock() -> Duration {
    use std::time::Instant as Clock;
    Clock::now().elapsed()
}

pub fn wall_clock() -> SystemTime {
    SystemTime::now()
}

pub fn prints() {
    println!("a");
    eprintln!("b");
    print!("c");
    eprint!("d");
}

pub fn fn_named_print_is_fine() {
    print(3);
}

fn print(_x: u8) {}
