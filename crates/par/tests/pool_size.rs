//! How many threads the persistent pool starts. The pool is process-wide, so
//! this file holds a single test: it must see the pool before any other
//! region of the process has grown it.

use std::collections::BTreeSet;
use std::sync::Mutex;

use snbc_par::{join3, par_for_chunks, par_for_each_mut, par_map_collect, par_map_reduce};

/// Runs one region of every kind, one of them nested, and records the name
/// of every thread that ran a piece of it.
#[expect(clippy::disallowed_methods, reason = "the set of thread names the workers record is what this test measures")]
fn regions(seen: &Mutex<BTreeSet<String>>, round: usize) {
    let note = || {
        let name = std::thread::current().name().unwrap_or("").to_string();
        seen.lock().unwrap().insert(name);
    };
    let v = par_map_collect(5, |i| {
        note();
        i + round
    });
    assert_eq!(v, (round..round + 5).collect::<Vec<_>>());
    let mut data = vec![0usize; 17];
    par_for_chunks(&mut data, 3, |c, piece| {
        note();
        piece.fill(c);
    });
    assert_eq!(data[16], 5);
    let mut items = [0usize; 4];
    par_for_each_mut(&mut items, |i, item| {
        note();
        *item = par_map_collect(3, |j| {
            note();
            i + j
        })
        .iter()
        .sum();
    });
    assert_eq!(items, [3, 6, 9, 12]);
    let s = par_map_reduce(
        20,
        4,
        |r| {
            note();
            r.sum::<usize>()
        },
        |a, b| a + b,
    );
    assert_eq!(s, Some(190));
    let (a, b, c) = join3(note, note, note);
    assert_eq!((a, b, c), ((), (), ()));
}

/// The number of threads of this process, where the OS tells it.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn the_pool_starts_at_most_threads_minus_one_workers_and_none_when_serial() {
    let caller = std::thread::current().name().unwrap_or("").to_string();
    let before = os_threads();

    // One worker: every region runs inline and no thread is started.
    snbc_par::set_threads(Some(1));
    let seen = Mutex::new(BTreeSet::new());
    for round in 0..200 {
        regions(&seen, round);
    }
    assert_eq!(
        seen.into_inner().unwrap().iter().collect::<Vec<_>>(),
        vec![&caller]
    );
    assert_eq!(os_threads(), before, "the serial path started a thread");

    // Three workers: over 1 000 regions, at most two pool threads ever run a
    // task, and the process gains at most two threads.
    snbc_par::set_threads(Some(3));
    let seen = Mutex::new(BTreeSet::new());
    for round in 0..200 {
        regions(&seen, round);
    }
    snbc_par::set_threads(None);
    let seen = seen.into_inner().unwrap();
    let workers: Vec<_> = seen.iter().filter(|n| **n != caller).collect();
    assert!(
        workers.len() <= 2,
        "pool threads that ran tasks: {workers:?}"
    );
    assert!(
        workers.iter().all(|n| n.starts_with("snbc-par-")),
        "{workers:?}"
    );
    if let (Some(b), Some(a)) = (before, os_threads()) {
        assert!(a <= b + 2, "threads before {b}, after {a}");
    }
}
