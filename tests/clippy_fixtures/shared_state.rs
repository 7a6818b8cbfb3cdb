//! The shared-state hazards of snbc-audit's old `par-capture-race` rule
//! that compile under snbc-par's `Fn + Sync` closure bounds: a lock or an
//! atomic shared into parallel work, with every banned lock method and
//! atomic type, and the exemptions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// The shape of an snbc-par entry point: the closure runs on many workers.
fn each(n: u64, f: impl Fn(u64) + Sync) {
    (0..n).for_each(f);
}

pub fn locked_push(n: u64, out: &Mutex<Vec<u64>>) {
    each(n, |i| {
        if let Ok(mut v) = out.lock() {
            v.push(i);
        }
    });
}

pub fn try_locked_push(n: u64, out: &Mutex<Vec<u64>>) {
    each(n, |i| {
        if let Ok(mut v) = out.try_lock() {
            v.push(i);
        }
    });
}

pub fn read_then_write(n: u64, table: &RwLock<Vec<u64>>) {
    each(n, |i| {
        let seen = table.read().is_ok_and(|v| v.contains(&i));
        if let (false, Ok(mut v)) = (seen, table.write()) {
            v.push(i);
        }
    });
}

pub fn atomic_ticks(n: u64, ticks: &AtomicU64) {
    each(n, |i| {
        ticks.fetch_add(i, Ordering::Relaxed);
    });
}

/// The other std atomic integers, and the bool.
pub struct Flags {
    pub done: std::sync::atomic::AtomicBool,
    pub i8: std::sync::atomic::AtomicI8,
    pub i16: std::sync::atomic::AtomicI16,
    pub i32: std::sync::atomic::AtomicI32,
    pub i64: std::sync::atomic::AtomicI64,
    pub isize: std::sync::atomic::AtomicIsize,
    pub u8: std::sync::atomic::AtomicU8,
    pub u16: std::sync::atomic::AtomicU16,
    pub u32: std::sync::atomic::AtomicU32,
    pub usize: std::sync::atomic::AtomicUsize,
}

pub fn building_and_consuming_a_lock_is_fine(v: u64) -> u64 {
    Mutex::new(v).into_inner().unwrap_or_default()
}

#[expect(clippy::disallowed_methods, reason = "a reviewed exception is silent")]
pub fn reviewed(total: &Mutex<u64>) -> u64 {
    total.lock().map_or(0, |g| *g)
}
