//! **snbc-par** — a zero-dependency, std-only deterministic parallel runtime.
//!
//! The container that builds this workspace has no registry access, so the
//! usual data-parallelism crates (rayon et al.) are unavailable; this crate
//! is the first-party substitute that every hot loop in the SNBC pipeline
//! routes through (enforced by clippy's `disallowed-methods`, clippy.toml).
//! It provides:
//!
//! * [`join3`] — structured fork–join for three heterogeneous tasks (the
//!   verifier's three independent LMI problems);
//! * [`par_map_collect`] — parallel map over `0..n` with results returned
//!   **in index order** (counterexample restarts, mesh chunks);
//! * [`par_map_reduce`] — chunked parallel map over `0..n` with a
//!   **deterministic reduction order** (the §3 mesh probe, SDP block
//!   factorizations);
//! * [`par_for_chunks`] / [`par_for_chunks_scratch`] — partition a mutable
//!   slice into fixed-length chunks processed in parallel, optionally with a
//!   per-worker scratch state so inner loops do not allocate (Schur
//!   complement row assembly);
//! * [`par_for_each_mut`] — visit caller-owned buffers of uneven cost in
//!   parallel, one item at a time (the learner's per-job gradient rows).
//!
//! # Determinism contract
//!
//! Every helper here is bitwise deterministic **across thread counts**: the
//! work decomposition is a fixed chunk grid that depends only on the problem
//! size (never on the number of workers), chunk results are stored by chunk
//! index, and reductions fold those slots serially in ascending index order.
//! The guaranteed-serial path taken when [`threads`]` == 1` runs the *same*
//! chunk grid in the same order without spawning a single thread, so
//! `SNBC_THREADS=1` and `SNBC_THREADS=64` produce byte-identical certificates
//! and telemetry reports (timings aside). See `docs/PARALLELISM.md`.
//!
//! # Pool size
//!
//! The worker count is resolved per parallel region, in priority order:
//! a process-wide override installed via [`set_threads`], the `SNBC_THREADS` environment variable, and
//! finally [`std::thread::available_parallelism`]. The calling thread always
//! participates as worker 0, so a region with `threads() == k` spawns at
//! most `k - 1` scoped threads and `k == 1` spawns none.
//!
//! # Panics
//!
//! A panic on any worker is captured at the scope boundary and rethrown on
//! the calling thread (first panicking worker in spawn order wins); the
//! remaining workers finish draining their chunks first, so no partial state
//! escapes the scope.

#![expect(
    clippy::disallowed_methods,
    reason = "snbc-par is the deterministic runtime: it owns SNBC_THREADS and every worker thread"
)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; `0` means "not set" (fall back to the
/// `SNBC_THREADS` environment variable, then `available_parallelism`).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (`Some(n)`) or clears (`None`) the process-wide worker-count
/// override. `Some(0)` is coerced to `Some(1)`.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::SeqCst);
}

/// Worker count for the next parallel region: the [`set_threads`] override
/// if installed, else `SNBC_THREADS`, else `available_parallelism()`.
///
/// The environment variable is re-read on every call (regions are coarse:
/// one epoch, one interior-point iteration), so tests can flip it between
/// in-process runs.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    env_threads()
}

fn env_threads() -> usize {
    match std::env::var("SNBC_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(v) if v >= 1 => v,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `a`, `b` and `c` and returns their results, in parallel when the
/// pool has at least two workers (serial in declaration order otherwise):
/// the verifier's init/unsafe/flow LMI problems.
///
/// `a` runs on the calling thread; `b` and `c` are spawned (when the pool
/// allows). Results come back in declaration order regardless of completion
/// order; with two workers, `b` and `c` share the spawned thread.
pub fn join3<RA, RB, RC>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
    c: impl FnOnce() -> RC + Send,
) -> (RA, RB, RC)
where
    RA: Send,
    RB: Send,
    RC: Send,
{
    let t = threads();
    if t <= 1 {
        let ra = a();
        let rb = b();
        let rc = c();
        return (ra, rb, rc);
    }
    let parent = snbc_trace::current_worker();
    if t == 2 {
        let (ra, (rb, rc)) = std::thread::scope(|s| {
            let label = snbc_trace::child_worker_label(&parent, 1);
            let h = s.spawn(move || {
                let _g = snbc_trace::enter_worker(label);
                let rb = b();
                let rc = c();
                (rb, rc)
            });
            let ra = a();
            match h.join() {
                Ok(bc) => (ra, bc),
                Err(p) => std::panic::resume_unwind(p),
            }
        });
        return (ra, rb, rc);
    }
    std::thread::scope(|s| {
        let lb = snbc_trace::child_worker_label(&parent, 1);
        let lc = snbc_trace::child_worker_label(&parent, 2);
        let hb = s.spawn(move || {
            let _g = snbc_trace::enter_worker(lb);
            b()
        });
        let hc = s.spawn(move || {
            let _g = snbc_trace::enter_worker(lc);
            c()
        });
        let ra = a();
        let rb = hb.join();
        let rc = hc.join();
        match (rb, rc) {
            (Ok(rb), Ok(rc)) => (ra, rb, rc),
            (Err(p), _) | (_, Err(p)) => std::panic::resume_unwind(p),
        }
    })
}

/// Fixed chunk grid over `0..n`: chunk `c` covers
/// `c*chunk .. min((c+1)*chunk, n)`. The grid depends only on `(n, chunk)`,
/// never on the worker count — the root of the determinism contract.
fn chunk_grid(n: usize, chunk: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    (chunk, n.div_ceil(chunk))
}

#[cfg(feature = "sanitize")]
fn check_cover(parts: &[Range<usize>], n: usize) {
    let mut next = 0usize;
    for r in parts {
        assert!(
            r.start == next && r.end >= r.start,
            "snbc-par sanitize: partition {:?} does not start at {} (grid over 0..{})",
            r,
            next,
            n
        );
        next = r.end;
    }
    assert!(
        next == n,
        "snbc-par sanitize: partitions cover 0..{next} but the index range is 0..{n}"
    );
}

/// Parallel map over `0..n`, returning results **in index order**.
///
/// Items are dealt to workers one at a time (suited to a small number of
/// coarse tasks: gradient-ascent restarts, mesh chunks); each
/// result is stored in its item's slot, so the output is independent of
/// which worker computed what.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let work = |_wid: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        sink.lock().expect("snbc-par result sink").extend(local);
    };
    run_on_pool(workers, &work);
    for (i, r) in sink.into_inner().expect("snbc-par result sink") {
        debug_assert!(slots[i].is_none());
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("snbc-par: item not produced exactly once"))
        .collect()
}

/// Runs `f(i, &mut items[i])` for every item, in parallel, dealing items
/// to workers one at a time like [`par_map_collect`] (suited to items of
/// uneven cost), but in place: each item is a caller-owned buffer reused
/// across calls, so a region allocates no result storage.
///
/// Every item is visited exactly once through a disjoint `&mut`, so worker
/// assignment cannot affect the result. With one worker the items are
/// processed inline in ascending order.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    let work = |_wid: usize| loop {
        let next = queue.lock().expect("snbc-par item queue").next();
        let Some((i, item)) = next else { break };
        f(i, item);
    };
    run_on_pool(workers, &work);
}

/// Chunked parallel map–reduce over `0..n` with a deterministic fold order.
///
/// `map` is applied to each range of the fixed chunk grid (see the module
/// docs); the per-chunk results are then folded serially in ascending chunk
/// order with `fold`. Because the grid depends only on `(n, chunk)` and the
/// fold is ordered, floating-point accumulation is bitwise identical at any
/// thread count. Returns `None` iff `n == 0`.
pub fn par_map_reduce<R, M, F>(n: usize, chunk: usize, map: M, mut fold: F) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    F: FnMut(R, R) -> R,
{
    if n == 0 {
        return None;
    }
    let (chunk, nchunks) = chunk_grid(n, chunk);
    let workers = threads().min(nchunks);
    let bounds = move |c: usize| c * chunk..((c + 1) * chunk).min(n);
    #[cfg(feature = "sanitize")]
    check_cover(&(0..nchunks).map(bounds).collect::<Vec<_>>(), n);
    let mut slots: Vec<Option<R>> = (0..nchunks).map(|_| None).collect();
    if workers <= 1 {
        // Guaranteed-serial path: same grid, same fold order, no spawns.
        for (c, slot) in slots.iter_mut().enumerate() {
            *slot = Some(map(bounds(c)));
        }
    } else {
        let next = AtomicUsize::new(0);
        let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(nchunks));
        let work = |_wid: usize| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= nchunks {
                    break;
                }
                local.push((c, map(bounds(c))));
            }
            sink.lock().expect("snbc-par result sink").extend(local);
        };
        run_on_pool(workers, &work);
        for (c, r) in sink.into_inner().expect("snbc-par result sink") {
            debug_assert!(slots[c].is_none());
            slots[c] = Some(r);
        }
    }
    let mut acc: Option<R> = None;
    for slot in slots {
        let r = slot.expect("snbc-par: chunk not produced exactly once");
        acc = Some(match acc {
            None => r,
            Some(a) => fold(a, r),
        });
    }
    acc
}

/// Partitions `data` into consecutive `chunk_len`-element chunks (the last
/// may be short) and processes them in parallel; `f(chunk_index, chunk)`.
///
/// Chunks are disjoint `&mut` sub-slices, so worker assignment cannot affect
/// the result; workers receive contiguous runs of chunks. With one worker
/// the chunks are processed inline in ascending order.
pub fn par_for_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_for_chunks_scratch(data, chunk_len, || (), |(), c, s| f(c, s));
}

/// [`par_for_chunks`] with a per-worker scratch state.
///
/// `init` runs once per worker and the resulting state is threaded through
/// every chunk that worker processes — the hook for reusable buffers that
/// keep inner loops allocation-free (e.g. the `U_k = Z⁻¹ (Σ Aₖ ∘ X)`
/// temporaries of the Schur assembly). Scratch contents must not influence
/// results (sanitize builds cannot check this; the determinism regression
/// test does, end to end).
pub fn par_for_chunks_scratch<T, S, I, F>(data: &mut [T], chunk_len: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let (chunk_len, nchunks) = chunk_grid(n, chunk_len);
    let workers = threads().min(nchunks);
    if workers <= 1 {
        let mut scratch = init();
        for (c, piece) in data.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, c, piece);
        }
        return;
    }
    // Static contiguous partition of the chunk grid across workers: worker w
    // takes chunks [w*per, min((w+1)*per, nchunks)). Deterministic because
    // each chunk's slice is disjoint from all others.
    let per = nchunks.div_ceil(workers);
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut c0 = 0usize;
    while c0 < nchunks {
        let c1 = (c0 + per).min(nchunks);
        let hi = (c1 * chunk_len).min(n);
        let lo = c0 * chunk_len;
        let (head, tail) = rest.split_at_mut(hi - lo);
        parts.push((c0, head));
        rest = tail;
        c0 = c1;
    }
    #[cfg(feature = "sanitize")]
    {
        let mut cover = Vec::new();
        let mut at = 0usize;
        for (_, p) in &parts {
            cover.push(at..at + p.len());
            at += p.len();
        }
        check_cover(&cover, n);
    }
    debug_assert!(rest.is_empty());
    let run_part = |first_chunk: usize, piece: &mut [T]| {
        let mut scratch = init();
        for (k, sub) in piece.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, first_chunk + k, sub);
        }
    };
    let parent = snbc_trace::current_worker();
    std::thread::scope(|s| {
        let mut iter = parts.into_iter();
        let mine = iter.next().expect("at least one partition");
        let handles: Vec<_> = iter
            .enumerate()
            .map(|(k, (c, piece))| {
                let label = snbc_trace::child_worker_label(&parent, k + 1);
                s.spawn(move || {
                    let _g = snbc_trace::enter_worker(label);
                    run_part(c, piece)
                })
            })
            .collect();
        run_part(mine.0, mine.1);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
}

/// Spawns `workers - 1` scoped threads running `work(wid)` and runs
/// `work(0)` on the calling thread; rethrows the first worker panic (in
/// spawn order) after all workers have joined.
fn run_on_pool(workers: usize, work: &(impl Fn(usize) + Sync)) {
    let parent = snbc_trace::current_worker();
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let label = snbc_trace::child_worker_label(&parent, w);
                s.spawn(move || {
                    let _g = snbc_trace::enter_worker(label);
                    work(w)
                })
            })
            .collect();
        work(0);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The override and `SNBC_THREADS` are process-global; serialize every
    /// test that touches them (cargo runs test fns on parallel threads).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        // The panic-propagation test poisons the lock by design.
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` under a forced worker count, restoring the override after
    /// (also on unwind).
    fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_threads(None);
            }
        }
        let _guard = test_lock();
        let _restore = Restore;
        set_threads(Some(t));
        f()
    }

    #[test]
    fn join_returns_in_declaration_order() {
        for t in [1, 2, 3, 4] {
            let (a, b, c) = with_threads(t, || join3(|| "a", || "b", || "c"));
            assert_eq!((a, b, c), ("a", "b", "c"));
        }
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let serial: Vec<usize> = with_threads(1, || par_map_collect(97, |i| i * i));
        for t in [2, 3, 8] {
            let par: Vec<usize> = with_threads(t, || par_map_collect(97, |i| i * i));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn map_reduce_is_bitwise_deterministic_across_thread_counts() {
        // Sum of values whose FP addition is order-sensitive; identical bits
        // at every thread count proves the fold order is fixed.
        let vals: Vec<f64> = (0..1000).map(|i| ((i * 2654435761_usize) as f64).sqrt() * 1e-3).collect();
        let sum_at = |t: usize| {
            with_threads(t, || {
                par_map_reduce(
                    vals.len(),
                    7,
                    |r| r.map(|i| vals[i]).fold(0.0f64, |a, v| a + v),
                    |a, b| a + b,
                )
                .unwrap()
            })
        };
        let s1 = sum_at(1);
        for t in [2, 3, 4, 16] {
            assert_eq!(s1.to_bits(), sum_at(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn map_reduce_empty_range_is_none() {
        let r: Option<f64> = par_map_reduce(0, 8, |_| 0.0, |a, b| a + b);
        assert!(r.is_none());
    }

    #[test]
    fn for_chunks_writes_every_chunk_exactly_once() {
        for t in [1, 2, 5] {
            let mut data = vec![0u32; 103];
            with_threads(t, || {
                par_for_chunks(&mut data, 10, |c, piece| {
                    for (k, v) in piece.iter_mut().enumerate() {
                        assert_eq!(*v, 0);
                        *v = u32::try_from(c * 10 + k).unwrap();
                    }
                });
            });
            let expect: Vec<u32> = (0..103).collect();
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn for_chunks_scratch_reuses_per_worker_state() {
        let mut data = vec![0usize; 64];
        with_threads(3, || {
            par_for_chunks_scratch(
                &mut data,
                4,
                || Vec::<usize>::with_capacity(4),
                |scratch, c, piece| {
                    scratch.clear();
                    scratch.extend(piece.iter().map(|_| c));
                    piece.copy_from_slice(scratch);
                },
            );
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 4);
        }
    }

    #[test]
    fn worker_panic_is_rethrown_at_scope_boundary() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_collect(16, |i| {
                    if i == 7 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn env_var_sets_pool_size_when_no_override() {
        let _guard = test_lock();
        set_threads(None);
        std::env::set_var("SNBC_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("SNBC_THREADS", "not-a-number");
        assert_eq!(threads(), default_threads());
        std::env::remove_var("SNBC_THREADS");
        assert_eq!(threads(), default_threads());
        // Override beats the environment.
        std::env::set_var("SNBC_THREADS", "5");
        set_threads(Some(2));
        assert_eq!(threads(), 2);
        set_threads(None);
        std::env::remove_var("SNBC_THREADS");
    }

    #[test]
    fn serial_config_never_spawns() {
        // Indirect check: record the thread id seen by every item and assert
        // it is always the caller's.
        let me = std::thread::current().id();
        let ids = with_threads(1, || par_map_collect(32, |_| std::thread::current().id()));
        assert!(ids.iter().all(|id| *id == me));
    }
}
