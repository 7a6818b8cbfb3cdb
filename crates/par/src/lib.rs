//! **snbc-par** — a zero-dependency, std-only deterministic parallel runtime.
//!
//! The container that builds this workspace has no registry access, so the
//! usual data-parallelism crates (rayon et al.) are unavailable; this crate
//! is the first-party substitute that every hot loop in the SNBC pipeline
//! routes through (enforced by clippy's `disallowed-methods`, clippy.toml).
//! It provides:
//!
//! * [`join`] / [`join3`] — structured fork–join for two or three
//!   heterogeneous tasks (the SDP's primal and dual step lengths, the
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
//! a process-wide override installed via [`set_threads`], the
//! `SNBC_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A region with `threads() == k`
//! splits into at most `k` tasks: the caller runs task 0 and queues the
//! rest on one process-wide pool. The pool's workers start on first use, up
//! to `k − 1`, and then persist, so a region costs a queue push and a
//! wakeup rather than a thread spawn. While the caller waits it runs queued
//! tasks itself, so a region opened inside a task (the flow SDP inside the
//! verifier's [`join3`]) uses idle threads instead of starting new ones.
//! With `k == 1` every helper runs inline and no thread is ever started.
//!
//! # Panics
//!
//! A panic in any task is caught and rethrown on the calling thread at the
//! region boundary (the lowest task index's first), after every task of the
//! region has finished, so no partial state escapes the region and the
//! pool stays usable.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "snbc-par is the deterministic runtime: it owns SNBC_THREADS, every worker thread, and the locks and atomics that hand results back in index order"
)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Runs `a` and `b` and returns their results, in parallel when the pool
/// has at least two workers (serial, `a` first, otherwise): `a` on the
/// calling thread, `b` as a pool task. The SDP's primal and dual step
/// lengths.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    let work = |w: usize| {
        if w == 0 {
            let r = take(&a).map(|f| f());
            *lock(&ra) = r;
        } else {
            let r = take(&b).map(|f| f());
            *lock(&rb) = r;
        }
    };
    run_on_pool(2, &work);
    (joined(ra), joined(rb))
}

/// Runs `a`, `b` and `c` and returns their results, in parallel when the
/// pool has at least two workers (serial in declaration order otherwise):
/// the verifier's init/unsafe/flow LMI problems.
///
/// `a` runs on the calling thread. With two workers `b` and `c` form one
/// pool task, run in that order; with three or more each is its own task.
/// Results come back in declaration order regardless of completion order.
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
    // Each closure runs exactly once, from whichever task owns it; the
    // mutexes only hand the `FnOnce` and its result across threads.
    let (a, b, c) = (Mutex::new(Some(a)), Mutex::new(Some(b)), Mutex::new(Some(c)));
    let (ra, rb, rc) = (Mutex::new(None), Mutex::new(None), Mutex::new(None));
    let work = |w: usize| {
        if w == 0 {
            let r = take(&a).map(|f| f());
            *lock(&ra) = r;
        }
        if w == 1 {
            let r = take(&b).map(|f| f());
            *lock(&rb) = r;
        }
        if w == 2 || (w == 1 && t == 2) {
            let r = take(&c).map(|f| f());
            *lock(&rc) = r;
        }
    };
    run_on_pool(t.min(3), &work);
    (joined(ra), joined(rb), joined(rc))
}

/// A [`join`] or [`join3`] closure's result, which its task stored before
/// the region ended.
fn joined<R>(slot: Mutex<Option<R>>) -> R {
    into_inner(slot).expect("snbc-par: every joined closure runs once")
}

/// Fixed chunk grid over `0..n`: chunk `c` covers
/// `c*chunk .. min((c+1)*chunk, n)`. The grid depends only on `(n, chunk)`,
/// never on the worker count — the root of the determinism contract.
fn chunk_grid(n: usize, chunk: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    (chunk, n.div_ceil(chunk))
}

/// Debug-build check that `parts` tile `0..n` in order, each index once;
/// release builds never pull `parts`.
fn check_cover(parts: impl IntoIterator<Item = Range<usize>>, n: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut next = 0usize;
    for r in parts {
        assert!(
            r.start == next && r.end >= r.start,
            "snbc-par: partition {r:?} does not start at {next} (grid over 0..{n})"
        );
        next = r.end;
    }
    assert!(
        next == n,
        "snbc-par: partitions cover 0..{next} but the index range is 0..{n}"
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
    check_cover((0..nchunks).map(bounds), n);
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
/// results (no runtime check can see this; the determinism regression
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
    let mut at = 0usize;
    check_cover(
        parts.iter().map(|(_, p)| {
            at += p.len();
            at - p.len()..at
        }),
        n,
    );
    debug_assert!(rest.is_empty());
    // Each task takes its own partition out of its slot, so every chunk is
    // reached through exactly one `&mut`.
    let parts: Vec<_> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let work = |w: usize| {
        let Some((first_chunk, piece)) = take(&parts[w]) else {
            return;
        };
        let mut scratch = init();
        for (k, sub) in piece.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, first_chunk + k, sub);
        }
    };
    run_on_pool(parts.len(), &work);
}

// ---------------------------------------------------------------------------
// The pool

/// The work of one parallel region: task `w` calls it with `w`.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// What a panicking task unwound with.
type Panic = Box<dyn std::any::Any + Send>;

/// One parallel region: the opener's closure, and the queued tasks that
/// have not finished yet.
struct Region {
    /// The opener's closure, its lifetime erased (see [`run_on_pool`]).
    work: &'static Work<'static>,
    /// The opener's trace label; task `w` runs under child label `w`.
    parent: String,
    /// Queued tasks not finished yet. Changed and read only under the queue
    /// lock, so an opener that checks it there cannot miss the wakeup of
    /// the last task.
    pending: AtomicUsize,
    /// The panics of finished tasks, with their task index.
    panics: Mutex<Vec<(usize, Panic)>>,
}

/// Task `index` of a region, waiting in the queue.
struct Task {
    region: Arc<Region>,
    index: usize,
}

/// The process-wide pool: one queue of tasks, drained by persistent workers
/// and by openers waiting for their regions.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when tasks are queued and when a region's last task ends.
    changed: Condvar,
    /// `queue.tasks.len()`, changed under the queue lock and polled without
    /// it by threads about to sleep.
    queued: AtomicUsize,
}

/// Polls a thread makes for new work (or for its region's end) before it
/// sleeps on [`Pool::changed`]. An interior-point iteration opens its
/// regions microseconds apart, and a sleeping thread takes tens of
/// microseconds to wake; 4 096 polls last some tens of microseconds.
const SPIN_POLLS: u32 = 4096;

/// Polls `done` up to [`SPIN_POLLS`] times, yielding the core now and then
/// so that a spinning thread never starves a busy one.
fn spin_until(done: impl Fn() -> bool) {
    for i in 0..SPIN_POLLS {
        if done() {
            return;
        }
        if i % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Queue {
    tasks: VecDeque<Task>,
    /// Worker threads started so far. They never exit.
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue {
            tasks: VecDeque::new(),
            workers: 0,
        }),
        changed: Condvar::new(),
        queued: AtomicUsize::new(0),
    })
}

impl Pool {
    /// Queues `tasks` and starts workers until `want` exist.
    fn submit(&'static self, tasks: impl Iterator<Item = Task>, want: usize) {
        let mut q = lock(&self.queue);
        q.tasks.extend(tasks);
        self.queued.store(q.tasks.len(), Ordering::Relaxed);
        while q.workers < want {
            let started = std::thread::Builder::new()
                .name(format!("snbc-par-{}", q.workers + 1))
                .spawn(move || self.serve());
            if started.is_err() {
                // Waiting openers run whatever no worker takes.
                break;
            }
            q.workers += 1;
        }
        drop(q);
        self.changed.notify_all();
    }

    /// Takes a queued task: the latest of `region` if it has one queued,
    /// else the oldest.
    fn pop(&self, q: &mut Queue, region: Option<&Arc<Region>>) -> Option<Task> {
        let mine = region.and_then(|r| q.tasks.iter().rposition(|t| Arc::ptr_eq(&t.region, r)));
        let task = mine.and_then(|i| q.tasks.remove(i)).or_else(|| q.tasks.pop_front());
        self.queued.store(q.tasks.len(), Ordering::Relaxed);
        task
    }

    /// A worker's loop: run queued tasks, oldest first, polling for a while
    /// before it sleeps.
    fn serve(&self) {
        loop {
            spin_until(|| self.queued.load(Ordering::Relaxed) > 0);
            let mut q = lock(&self.queue);
            loop {
                if let Some(task) = self.pop(&mut q, None) {
                    drop(q);
                    self.run(task);
                    break;
                }
                q = wait(&self.changed, q);
            }
        }
    }

    /// Runs `task` under its worker label, keeps its panic for the opener
    /// and counts it finished. Once `work` has returned, the task touches
    /// only the `Arc`-owned region, never the opener's closure.
    fn run(&self, task: Task) {
        let Task { region, index } = task;
        let outcome = {
            let _label = snbc_trace::enter_worker(snbc_trace::child_worker_label(
                &region.parent,
                index,
            ));
            catch_unwind(AssertUnwindSafe(|| (region.work)(index)))
        };
        if let Err(p) = outcome {
            lock(&region.panics).push((index, p));
        }
        let _q = lock(&self.queue);
        if region.pending.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.changed.notify_all();
        }
    }
}

/// Runs `work(0)` on the calling thread and `work(1)`, …, `work(tasks − 1)`
/// as pool tasks, and returns once all of them have finished. While it
/// waits, the caller runs queued tasks itself (its own region's first), so
/// a region opened inside a task puts an idle thread to work instead of
/// starting a new one. A panic is rethrown here, the lowest task index's
/// first, after every task has finished.
fn run_on_pool(tasks: usize, work: &Work<'_>) {
    debug_assert!(tasks >= 2, "a one-task region runs inline");
    // SAFETY: queued tasks call `work` through this `'static` reference only
    // while the current frame is alive. Every queued task is run, never
    // dropped: workers and waiting openers pop a task only to run it, and
    // the queue is a static that is never dropped. This function neither
    // returns nor unwinds before `pending` is zero: `work(0)` runs under
    // `catch_unwind`, and the wait loop below neither panics nor gives up.
    // A task stops using `work` before it decrements `pending`. `work` is
    // `Sync`, so calling it from several threads at once is sound.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
    let region = Arc::new(Region {
        work: erased,
        parent: snbc_trace::current_worker(),
        pending: AtomicUsize::new(tasks - 1),
        panics: Mutex::new(Vec::new()),
    });
    let pool = pool();
    pool.submit(
        (1..tasks).map(|index| Task {
            region: Arc::clone(&region),
            index,
        }),
        tasks - 1,
    );
    let own = catch_unwind(AssertUnwindSafe(|| work(0)));
    loop {
        spin_until(|| {
            region.pending.load(Ordering::Relaxed) == 0 || pool.queued.load(Ordering::Relaxed) > 0
        });
        let mut q = lock(&pool.queue);
        if region.pending.load(Ordering::Relaxed) == 0 {
            break;
        }
        match pool.pop(&mut q, Some(&region)) {
            Some(task) => {
                drop(q);
                pool.run(task);
            }
            None => drop(wait(&pool.changed, q)),
        }
    }
    let mut panics = std::mem::take(&mut *lock(&region.panics));
    if let Err(p) = own {
        panics.push((0, p));
    }
    if let Some((_, p)) = panics.into_iter().min_by_key(|(w, _)| *w) {
        resume_unwind(p);
    }
}

/// Locks `m`, ignoring poison: a task's panic reaches its opener through
/// [`Region::panics`], and no critical section here leaves its data torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn take<T>(m: &Mutex<Option<T>>) -> Option<T> {
    lock(m).take()
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
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
            assert_eq!(with_threads(t, || join(|| 1, || "b")), (1, "b"));
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
    fn panics_are_rethrown_after_every_task_finished_lowest_index_first() {
        for t in [3, 4] {
            // The last task panics at once and, in the second case, so does
            // the caller's task 0; the others finish late. The region
            // rethrows only after all of them, and the lowest index wins.
            for caller_panics in [false, true] {
                let finished = AtomicUsize::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(t, || {
                        run_on_pool(t, &|w| {
                            if w == t - 1 || (w == 0 && caller_panics) {
                                panic!("{}", if w == 0 { "caller" } else { "task" });
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            finished.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }));
                let p = caught.expect_err("the region must rethrow");
                let got = p.downcast_ref::<String>().map(String::as_str);
                let want = if caller_panics { "caller" } else { "task" };
                assert_eq!(got, Some(want), "threads = {t}");
                let survivors = t - 1 - usize::from(caller_panics);
                assert_eq!(finished.load(Ordering::SeqCst), survivors, "threads = {t}");
                // The pool still serves regions afterwards.
                let v: Vec<usize> = with_threads(t, || par_map_collect(9, |i| i + 1));
                assert_eq!(v, (1..10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn nested_regions_match_the_serial_result() {
        let nested = || {
            let rows: Vec<u64> = par_map_collect(12, |i| {
                let mut row = vec![0u64; 40];
                par_for_chunks(&mut row, 3, |c, piece| {
                    for (k, v) in piece.iter_mut().enumerate() {
                        *v = (i * 1000 + c * 3 + k) as u64;
                    }
                });
                let (a, b, c) = join3(
                    || row.iter().sum::<u64>(),
                    || par_map_collect(5, |j| j as u64 * row[j]).iter().sum::<u64>(),
                    || par_map_reduce(40, 7, |r| r.map(|j| row[j]).max().unwrap_or(0), u64::max),
                );
                a + b + c.unwrap_or(0)
            });
            rows
        };
        let serial = with_threads(1, nested);
        for t in [2, 3, 4] {
            assert_eq!(with_threads(t, nested), serial, "threads = {t}");
        }
    }

    #[test]
    fn regions_opened_from_several_threads_at_once_are_independent() {
        let _guard = test_lock();
        set_threads(Some(3));
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|o| {
                    s.spawn(move || {
                        (0..50)
                            .map(|r| {
                                let v = par_map_collect(7, |i| o * 10_000 + r * 10 + i);
                                let mut data = vec![0usize; 33];
                                par_for_chunks(&mut data, 4, |c, piece| piece.fill(c + o));
                                v.iter().sum::<usize>() + data.iter().sum::<usize>()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("opener thread")).collect()
        });
        set_threads(None);
        for (o, got) in results.iter().enumerate() {
            let want: Vec<usize> = (0..50)
                .map(|r| {
                    let v: usize = (0..7).map(|i| o * 10_000 + r * 10 + i).sum();
                    let d: usize = (0..33).map(|j| j / 4 + o).sum();
                    v + d
                })
                .collect();
            assert_eq!(got, &want, "opener {o}");
        }
    }

    /// Not a correctness test: the wall cost of near-empty regions, the
    /// figure behind the parallel thresholds (docs/PERFORMANCE.md,
    /// "Parallel thresholds"). Run it with
    /// `cargo test --release -p snbc-par -- --ignored --nocapture region_cost`.
    #[test]
    #[ignore = "perf probe, run manually with --release --ignored --nocapture"]
    fn region_cost_probe() {
        let per_region = |t: usize, f: &dyn Fn()| {
            with_threads(t, || {
                f();
                let watch = snbc_trace::Stopwatch::start();
                let reps = 2000;
                for _ in 0..reps {
                    f();
                }
                watch.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
            })
        };
        let mut data = vec![0.0f64; 40];
        let data = Mutex::new(&mut data);
        let chunks = || {
            par_for_chunks(&mut data.lock().unwrap()[..], 1, |c, piece| piece[0] = c as f64);
        };
        let collect = || {
            std::hint::black_box(par_map_collect(40, |i| i));
        };
        let joined = || {
            std::hint::black_box(join3(|| 1, || 2, || 3));
        };
        println!("region (40 items)      1 thread (us)   2 threads (us)");
        for (name, f) in [
            ("par_for_chunks", &chunks as &dyn Fn()),
            ("par_map_collect", &collect),
            ("join3", &joined),
        ] {
            println!("{name:<20} {:>14.2} {:>16.2}", per_region(1, f), per_region(2, f));
        }
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
