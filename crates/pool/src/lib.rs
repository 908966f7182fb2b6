//! Persistent compute-worker pool with per-thread core budgeting.
//!
//! The tensor kernels used to pay a scoped `thread::spawn` per matmul call,
//! and every data-parallel rank claimed `available_parallelism()` threads —
//! a `p`-rank trainer oversubscribed the machine `p`-fold. This crate
//! replaces both with one process-wide pool of **parked OS threads** and an
//! explicit **core budget**:
//!
//! * [`global`] returns the lazily-initialized pool. Workers are spawned on
//!   first demand and then parked on a condvar; a dispatch wakes exactly the
//!   workers it needs and costs no thread creation.
//! * Dispatch is chunk-based: [`ComputePool::run_rows`] splits a
//!   `&mut [f32]` row-major buffer into disjoint row chunks via the exact
//!   [`chunk_range`] partition (tail rows spread over the first chunks, so
//!   `rows % parts != 0` never loses or duplicates a row) and runs the
//!   caller's kernel on each chunk. The calling thread executes chunk 0
//!   itself and then helps drain its own job's queue, so a budget of `b`
//!   uses the caller plus at most `b − 1` workers.
//! * The budget is a thread-local cap read by [`core_budget`]: every rank
//!   of a `summit_comm::World` execution runs under the per-rank budget of
//!   the lease its world holds from the [`arbiter`] (pinned instead by the
//!   `SUMMIT_THREADS` environment variable), so concurrently live worlds
//!   together use at most the machine, not `p ×` the machine each.
//! * Rank threads are **leased, not spawned**: [`run_parked`] runs index 0
//!   on the caller and the others on parked rank runners, spawning one
//!   only when none is idle. Ranks block on each other, so runners are a
//!   separate, uncapped list beside the compute workers; at most 64 stay
//!   parked between uses.
//!
//! Dispatch is allocation-free in steady state: the job header (counter,
//! completion condvar) lives on the caller's stack, queue entries reuse the
//! queue's capacity, and chunk boundaries are computed arithmetically. A
//! counting-allocator test in `tests/tests/gemm_alloc.rs` pins this.
//!
//! Worker panics are caught, counted, and re-raised on the dispatching
//! thread once the job has fully drained, so a poisoned kernel cannot
//! deadlock the pool or tear down a worker.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on pool workers: a backstop against runaway budgets, far above
/// any sane per-process thread count for this workload.
pub const MAX_WORKERS: usize = 64;

/// Erased task callable: `f(i)` executes sub-task `i` of its job.
type TaskFn<'a> = dyn Fn(usize) + Sync + 'a;

/// One dispatch in flight — a pool job or a [`run_parked`] call. Lives on
/// the dispatching thread's stack; workers and runners reach it through a
/// raw pointer that is guaranteed valid because the dispatcher cannot
/// return until `pending` hits zero. `pending` is only decremented — and
/// `done_cv` only notified — while holding `done_lock`, and the dispatcher
/// only reads `pending` under the same lock, so it can never observe zero
/// (and destroy this header) while an executor is still between its
/// decrement and its notify.
struct JobHeader {
    /// The caller's closure, lifetime-erased for the queue. Only touched
    /// while `pending > 0`.
    task: *const TaskFn<'static>,
    /// Sub-tasks not yet completed (queued, running, or not yet popped).
    pending: AtomicUsize,
    /// Set when any sub-task panicked; the dispatcher re-raises.
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl JobHeader {
    /// A job of `n ≥ 1` sub-tasks of `task`. The caller must `wait` on it
    /// before `task` goes out of scope.
    fn new(task: &TaskFn<'_>, n: usize) -> Self {
        JobHeader {
            // SAFETY: lifetime erasure only; `task` outlives the job because
            // every dispatcher waits for `pending` to reach zero before it
            // returns, and nothing dereferences `task` after that. Nor can a
            // dispatcher unwind past the job early: every fallible step
            // (spawning workers or runners) precedes the first hand-off.
            task: unsafe { std::mem::transmute::<&TaskFn<'_>, *const TaskFn<'static>>(task) },
            pending: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Execute sub-task `index` through `run` — which must not unwind, and
    /// returns whether the sub-task panicked — and signal completion when
    /// the job's last sub-task finishes.
    fn execute(&self, index: usize, run: impl FnOnce(&TaskFn<'_>, usize) -> bool) {
        // SAFETY: `pending > 0` (this sub-task has not completed), so the
        // dispatcher's stack frame and closure are alive.
        let task = unsafe { &*self.task };
        if run(task, index) {
            self.panicked.store(true, Ordering::Release);
        }
        // The decrement AND the notify both happen under `done_lock`: the
        // dispatcher only reads `pending` while holding the same lock, so it
        // cannot observe zero — and destroy the stack-allocated header —
        // until this thread has finished notifying and released the lock.
        // (Decrementing before taking the lock would open exactly that
        // use-after-free window between the fetch_sub and the notify.)
        let guard = self.done_lock.lock().expect("job lock poisoned");
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_cv.notify_all();
        }
        drop(guard);
    }

    /// Block until every sub-task completed; whether any of them panicked.
    fn wait(&self) -> bool {
        let mut guard = self.done_lock.lock().expect("job lock poisoned");
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = self.done_cv.wait(guard).expect("job condvar poisoned");
        }
        drop(guard);
        self.panicked.load(Ordering::Acquire)
    }
}

/// A queue entry: one sub-task of one job.
#[derive(Clone, Copy)]
struct Entry {
    job: *const JobHeader,
    index: usize,
}

// SAFETY: the raw pointers are only dereferenced while the job's `pending`
// count keeps the pointed-to stack frame alive (see `JobHeader`), and the
// closure behind `task` is `Sync`.
unsafe impl Send for Entry {}

/// Counters describing pool activity since process start. Snapshot via
/// [`ComputePool::stats`]; all counters are cumulative and monotone except
/// `max_concurrency`, which is a high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeStats {
    /// Sub-tasks handed to the pool (inline + stolen).
    pub tasks_dispatched: u64,
    /// Sub-tasks executed by the dispatching thread itself (its own chunk 0
    /// plus any of its job's entries it drained while waiting).
    pub tasks_inline: u64,
    /// Sub-tasks executed by pool workers.
    pub tasks_stolen: u64,
    /// Times a worker parked on the empty queue.
    pub parks: u64,
    /// Worker threads ever spawned (never exceeds [`MAX_WORKERS`]).
    pub workers_spawned: u64,
    /// Cumulative wall-clock nanoseconds spent executing sub-tasks, summed
    /// over all executing threads.
    pub busy_nanos: u64,
    /// High-water mark of sub-tasks executing at the same instant — the
    /// oversubscription witness: it must never exceed the sum of the
    /// dispatching threads' core budgets.
    pub max_concurrency: u64,
}

impl ComputeStats {
    /// Cumulative busy time in seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Counter-wise difference `self − earlier`, for measuring one window
    /// of work between two snapshots. `workers_spawned` and
    /// `max_concurrency` are level/high-water values, not cumulative, so
    /// the later snapshot's value is kept as-is.
    pub fn since(&self, earlier: &ComputeStats) -> ComputeStats {
        ComputeStats {
            tasks_dispatched: self.tasks_dispatched - earlier.tasks_dispatched,
            tasks_inline: self.tasks_inline - earlier.tasks_inline,
            tasks_stolen: self.tasks_stolen - earlier.tasks_stolen,
            parks: self.parks - earlier.parks,
            workers_spawned: self.workers_spawned,
            busy_nanos: self.busy_nanos - earlier.busy_nanos,
            max_concurrency: self.max_concurrency,
        }
    }
}

/// The persistent worker pool. One per process — see [`global`].
pub struct ComputePool {
    queue: Mutex<VecDeque<Entry>>,
    work_cv: Condvar,
    workers: AtomicUsize,
    spawn_lock: Mutex<()>,
    tasks_dispatched: AtomicU64,
    tasks_inline: AtomicU64,
    tasks_stolen: AtomicU64,
    parks: AtomicU64,
    busy_nanos: AtomicU64,
    concurrency: AtomicU64,
    max_concurrency: AtomicU64,
}

impl ComputePool {
    fn new() -> Self {
        ComputePool {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            workers: AtomicUsize::new(0),
            spawn_lock: Mutex::new(()),
            tasks_dispatched: AtomicU64::new(0),
            tasks_inline: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            concurrency: AtomicU64::new(0),
            max_concurrency: AtomicU64::new(0),
        }
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> ComputeStats {
        ComputeStats {
            tasks_dispatched: self.tasks_dispatched.load(Ordering::Relaxed),
            tasks_inline: self.tasks_inline.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            workers_spawned: self.workers.load(Ordering::Relaxed) as u64,
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            max_concurrency: self.max_concurrency.load(Ordering::Relaxed),
        }
    }

    /// Run `n ≥ 2` sub-tasks of the erased `task`, blocking until all
    /// complete. Sub-task 0 runs on the calling thread; 1..n are queued for
    /// workers (the caller helps drain them while it waits).
    ///
    /// # Panics
    /// Re-raises (as a panic on this thread) if any sub-task panicked.
    fn run_tasks(&'static self, n: usize, task: &TaskFn<'_>) {
        debug_assert!(n >= 2, "a single part runs inline in `run_rows`");
        self.tasks_dispatched.fetch_add(n as u64, Ordering::Relaxed);
        let header = JobHeader::new(task, n);
        self.ensure_workers(n - 1);
        {
            let mut q = self.queue.lock().expect("pool queue poisoned");
            for index in 1..n {
                q.push_back(Entry {
                    job: &header,
                    index,
                });
            }
        }
        self.work_cv.notify_all();

        // The caller's own share, then help with its job's queued entries
        // (a slow wake of a worker must not serialize the whole dispatch).
        self.tasks_inline.fetch_add(1, Ordering::Relaxed);
        header.execute(0, |task, i| self.timed(task, i));
        loop {
            let mut q = self.queue.lock().expect("pool queue poisoned");
            let mine = q.iter().position(|e| std::ptr::eq(e.job, &header));
            let Some(e) = mine.and_then(|pos| q.remove(pos)) else {
                break;
            };
            drop(q);
            self.tasks_inline.fetch_add(1, Ordering::Relaxed);
            header.execute(e.index, |task, i| self.timed(task, i));
        }

        if header.wait() {
            panic!("a pooled compute task panicked");
        }
    }

    /// Run one sub-task, maintaining the busy-time and concurrency stats;
    /// whether it panicked.
    fn timed(&self, task: &TaskFn<'_>, index: usize) -> bool {
        let running = self.concurrency.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_concurrency.fetch_max(running, Ordering::Relaxed);
        let t0 = Instant::now();
        let panicked = catch_unwind(AssertUnwindSafe(|| task(index))).is_err();
        self.busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.concurrency.fetch_sub(1, Ordering::Relaxed);
        panicked
    }

    /// Make sure at least `wanted` workers exist (capped at
    /// [`MAX_WORKERS`]). Cheap when already satisfied: one relaxed load.
    fn ensure_workers(&'static self, wanted: usize) {
        let wanted = wanted.min(MAX_WORKERS);
        if self.workers.load(Ordering::Relaxed) >= wanted {
            return;
        }
        let _guard = self.spawn_lock.lock().expect("spawn lock poisoned");
        let current = self.workers.load(Ordering::Relaxed);
        for i in current..wanted {
            std::thread::Builder::new()
                .name(format!("summit-pool-{i}"))
                .spawn(move || self.worker_loop())
                .expect("failed to spawn pool worker");
        }
        if wanted > current {
            self.workers.store(wanted, Ordering::Relaxed);
        }
    }

    /// Worker body: pop, execute, park when the queue is empty.
    fn worker_loop(&self) {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        loop {
            match q.pop_front() {
                Some(entry) => {
                    drop(q);
                    self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: entries only exist while their job is alive.
                    let header = unsafe { &*entry.job };
                    header.execute(entry.index, |task, i| self.timed(task, i));
                    q = self.queue.lock().expect("pool queue poisoned");
                }
                None => {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    q = self.work_cv.wait(q).expect("pool condvar poisoned");
                }
            }
        }
    }

    /// Dispatch a kernel over disjoint row chunks of a row-major buffer.
    ///
    /// `out` must be exactly `rows × row_len` long; it is split into
    /// `parts.min(rows)` contiguous row ranges by [`chunk_range`], and
    /// `f(chunk, row_range)` runs once per range with `chunk` the mutable
    /// sub-slice covering exactly those rows. `parts <= 1` (or a single
    /// row) runs `f` inline on the whole buffer — the serial path, which
    /// parallel runs must match bitwise because the partition only splits
    /// rows, never reorders arithmetic within one.
    ///
    /// # Panics
    /// Panics if `out.len() != rows * row_len`, if `row_len == 0` while
    /// `out` is non-empty, or (re-raised) if the kernel panicked.
    pub fn run_rows<F>(&'static self, out: &mut [f32], row_len: usize, parts: usize, f: F)
    where
        F: Fn(&mut [f32], Range<usize>) + Sync,
    {
        if out.is_empty() {
            return;
        }
        assert!(row_len > 0, "row length must be positive");
        assert_eq!(out.len() % row_len, 0, "buffer is not whole rows");
        let rows = out.len() / row_len;
        let parts = parts.clamp(1, rows);
        if parts == 1 {
            f(out, 0..rows);
            return;
        }
        let base = SendPtr(out.as_mut_ptr());
        let task = move |i: usize| {
            // Capture the whole `SendPtr` (2021 closures would otherwise
            // disjoint-capture the raw field, which is not Sync).
            let base = base;
            let r = chunk_range(rows, parts, i);
            // SAFETY: `chunk_range` yields disjoint, in-bounds row ranges
            // covering 0..rows exactly once, so each sub-task gets an
            // exclusive sub-slice of `out` that the dispatcher keeps
            // borrowed for the duration of the job.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.0.add(r.start * row_len), r.len() * row_len)
            };
            f(chunk, r);
        };
        self.run_tasks(parts, &task);
    }
}

/// A raw pointer that may cross threads; safety is argued at each use site.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: the one field is a bare address with no owner or drop: moving it
// to another thread accesses nothing. Every dereference is an `unsafe`
// block that argues its own exclusivity and lifetime.
unsafe impl Send for SendPtr {}
// SAFETY: sharing `&SendPtr` only copies the address out; the pointee is
// reached solely through those use-site `unsafe` blocks, each of which
// derives a sub-slice disjoint from every other task's.
unsafe impl Sync for SendPtr {}

/// The process-wide pool, created (empty, no threads) on first use.
pub fn global() -> &'static ComputePool {
    static POOL: OnceLock<ComputePool> = OnceLock::new();
    POOL.get_or_init(ComputePool::new)
}

// ---------------------------------------------------------------------------
// Rank runners: parked threads for tasks that block on each other.
// ---------------------------------------------------------------------------

/// The most rank runners kept parked between uses; the rest exit. A parked
/// runner keeps its touched stack and allocator thread cache: keeping all
/// ≈ 400 a `facility_wave` leaves behind took its `peak_rss_mb` from ≈ 12 to
/// 28–30 MB, while 64 kept it flat and ran faster than 8 (DESIGN.md §10).
const IDLE_RUNNERS: usize = MAX_WORKERS;

/// Parked runners, at most [`IDLE_RUNNERS`]. Its capacity is reserved
/// before any runner returns here, so a runner never allocates on its way
/// back — possibly inside a sibling rank's allocation-counted window.
static IDLE: Mutex<Vec<Arc<Seat>>> = Mutex::new(Vec::new());
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// A runner's mailbox: a dispatcher drops the next sub-task in and wakes
/// exactly this thread; `Some(None)` retires the runner.
#[derive(Default)]
struct Seat {
    next: Mutex<Option<Option<Entry>>>,
    wake: Condvar,
}

impl Seat {
    fn give(&self, entry: Option<Entry>) {
        *self.next.lock().expect("runner seat poisoned") = Some(entry);
        self.wake.notify_one();
    }
}

/// Rank-runner counters since process start. Snapshot via
/// [`runner_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// Runner threads ever spawned.
    pub spawned: u64,
    /// Runners parked right now (never more than the idle cap, which
    /// equals [`MAX_WORKERS`]).
    pub idle: usize,
}

/// Snapshot the rank-runner counters.
pub fn runner_stats() -> RunnerStats {
    RunnerStats {
        spawned: SPAWNED.load(Ordering::Relaxed),
        idle: IDLE.lock().expect("runner list poisoned").len(),
    }
}

/// Seats of `k` runners waiting for a sub-task: parked ones first, then new
/// ones. Never waits for a free runner: the sub-tasks are ranks that block
/// on each other, so a capped list would deadlock. On a spawn failure the
/// runners taken so far are retired.
fn take_runners(k: usize) -> std::io::Result<Vec<Arc<Seat>>> {
    let mut seats = Vec::with_capacity(k);
    let mut idle = IDLE.lock().expect("runner list poisoned");
    let parked = idle.len();
    idle.reserve_exact(IDLE_RUNNERS - parked);
    seats.extend(idle.drain(parked.saturating_sub(k)..));
    drop(idle);
    while seats.len() < k {
        let seat = Arc::new(Seat::default());
        let mine = Arc::clone(&seat);
        let spawn = std::thread::Builder::new().name("summit-rank".into());
        if let Err(e) = spawn.spawn(move || serve(&mine)) {
            seats.iter().for_each(|seat| seat.give(None));
            return Err(e);
        }
        SPAWNED.fetch_add(1, Ordering::Relaxed);
        seats.push(seat);
    }
    Ok(seats)
}

/// Runner body: wait on the seat, execute the sub-task, and rejoin the idle
/// list before the job counts it complete (so the dispatcher's next call
/// finds this runner parked) — or exit if [`IDLE_RUNNERS`] are parked
/// already, or when retired.
fn serve(seat: &Arc<Seat>) {
    let mut parked = true;
    while parked {
        let next = seat.next.lock().expect("runner seat poisoned");
        let next = seat.wake.wait_while(next, |e| e.is_none());
        let Some(entry) = next.expect("runner seat poisoned").take().flatten() else {
            return;
        };
        // SAFETY: the job counts this sub-task as pending until `execute`
        // returns, so its header is alive.
        let header = unsafe { &*entry.job };
        header.execute(entry.index, |task, i| {
            task(i);
            let mut idle = IDLE.lock().expect("runner list poisoned");
            parked = idle.len() < IDLE_RUNNERS;
            if parked {
                idle.push(Arc::clone(seat));
            }
            false
        });
    }
}

/// Run `f(0)`, …, `f(n − 1)` concurrently and return each outcome in index
/// order, a panic as its `Err` payload. Index 0 runs on the calling thread,
/// the others on parked rank runners (spawned only when none is idle);
/// returns once every index has finished. Unlike
/// [`ComputePool::run_rows`], the indices may block on each other: each has
/// its own thread for as long as it runs.
///
/// # Panics
/// Panics, before any index runs, if a runner cannot be spawned.
pub fn run_parked<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<std::thread::Result<R>> {
    if n == 0 {
        return Vec::new();
    }
    let seats = take_runners(n - 1).expect("failed to spawn rank runner");
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i)));
        *slots[i].lock().expect("result slot poisoned") = Some(outcome);
    };
    // Runners point into this frame from the first hand-off until `wait`
    // returns, so nothing in between may unwind: all runners were taken
    // above, `task` catches `f`'s panics, and no lock here can be poisoned.
    let header = JobHeader::new(&task, n);
    for (index, seat) in (1..).zip(&seats) {
        seat.give(Some(Entry {
            job: &header,
            index,
        }));
    }
    header.execute(0, |task, i| {
        task(i);
        false
    });
    header.wait();
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok().flatten().expect("every index ran"))
        .collect()
}

/// Exact partition of `n` items into `parts` chunks: chunk `i` is
/// `chunk_range(n, parts, i)`. The first `n % parts` chunks hold
/// `n / parts + 1` items, the rest `n / parts`, so the union is exactly
/// `0..n` with no overlap — including every `n % parts != 0` tail case the
/// old per-variant copy-pasted chunking mishandled conceptually (it relied
/// on `chunks_mut` agreeing with an independently computed row range).
///
/// # Panics
/// Panics if `parts == 0` or `i >= parts`.
pub fn chunk_range(n: usize, parts: usize, i: usize) -> Range<usize> {
    assert!(parts > 0, "cannot partition into zero parts");
    assert!(i < parts, "chunk index out of range");
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// Iterator over all chunks of the exact partition — convenience for
/// callers that walk every chunk.
pub fn partition(n: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    (0..parts).map(move |i| chunk_range(n, parts, i))
}

thread_local! {
    /// This thread's explicit core budget; `None` means "use the process
    /// default" (see [`core_budget`]).
    static BUDGET: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Machine parallelism, with the same fallback the old scoped-spawn code
/// used when the query fails.
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
}

/// Process-default budget: `SUMMIT_THREADS` when set and parseable,
/// otherwise the machine parallelism. Read fresh on every call — the same
/// policy as [`rank_budget_from_env`] — so changing the variable at runtime
/// (tests do) yields consistent budgets between the two paths.
fn default_budget() -> usize {
    summit_threads_override()
        .map(|n| n.min(MAX_WORKERS))
        .unwrap_or_else(machine_parallelism)
}

/// The number of compute lanes a dispatch from this thread may use
/// (caller + workers). Explicit [`set_core_budget`] wins; otherwise the
/// `SUMMIT_THREADS` environment variable; otherwise
/// `available_parallelism`.
pub fn core_budget() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(default_budget)
}

/// Set this thread's core budget. Values are clamped to
/// `1..=`[`MAX_WORKERS`]. `summit_comm::World` executions set it (through
/// [`with_core_budget`]) on every rank to the per-rank budget of their
/// [`arbiter`] lease, so concurrent ranks never claim `p ×` the machine.
pub fn set_core_budget(n: usize) {
    BUDGET.with(|b| b.set(Some(n.clamp(1, MAX_WORKERS))));
}

/// Run `f` under a temporary core budget, restoring the previous setting
/// afterwards. The restore runs in a drop guard, so it happens even if `f`
/// panics and the panic is later caught — the temporary budget never leaks
/// onto the thread.
pub fn with_core_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.get()));
    set_core_budget(n);
    f()
}

/// The per-rank compute budget for a `ranks`-way world on a machine with
/// `machine` cores: an even share `machine / ranks` (at least 1), unless
/// `override_threads` (the parsed `SUMMIT_THREADS` variable) pins it
/// explicitly. Pure so it unit-tests without touching the environment.
pub fn rank_budget(machine: usize, ranks: usize, override_threads: Option<usize>) -> usize {
    match override_threads {
        Some(n) if n >= 1 => n.min(MAX_WORKERS),
        _ => (machine / ranks.max(1)).clamp(1, MAX_WORKERS),
    }
}

/// [`rank_budget`] with `SUMMIT_THREADS` read from the environment: the
/// budget a world of `ranks` ranks gets when it is the only one live (the
/// ceiling of what the [`arbiter`] grants it).
pub fn rank_budget_from_env(ranks: usize) -> usize {
    rank_budget(machine_parallelism(), ranks, summit_threads_override())
}

/// The parsed `SUMMIT_THREADS` pin, if set.
fn summit_threads_override() -> Option<usize> {
    std::env::var("SUMMIT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

// ---------------------------------------------------------------------------
// Core-budget arbiter: disjoint leases for concurrently live worlds.
// ---------------------------------------------------------------------------

/// Snapshot of the arbiter's books, for conservation assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArbiterStats {
    /// Lanes the arbiter may lease out (its machine parallelism).
    pub capacity: usize,
    /// Currently live leases.
    pub live_leases: usize,
    /// Lanes currently leased out. Invariant: `leased <= capacity`, always.
    pub leased: usize,
    /// High-water mark of `leased` — the conservation witness: it must
    /// never exceed `capacity`.
    pub peak_leased: usize,
    /// High-water mark of `live_leases`.
    pub peak_live: usize,
    /// Leases ever granted (including zero-lane grants).
    pub total_leases: u64,
}

#[derive(Debug, Default)]
struct ArbiterBook {
    live: usize,
    leased: usize,
    peak_leased: usize,
    peak_live: usize,
    total: u64,
}

/// Leases disjoint core budgets to concurrently live worlds.
///
/// The old scheme carved the machine by a fixed `available_parallelism / p`
/// division *per world* — correct for one world, and an oversubscription
/// the moment two worlds coexist (each claims the full machine divided by
/// its own size). The arbiter replaces the division with accounting: a
/// world leases lanes when it starts and returns them when it drops (the
/// lease is RAII, so a panicking world cannot leak its share), and the sum
/// of live leases never exceeds the machine.
///
/// A lease counts the **extra** compute lanes a world's ranks may occupy
/// beyond the rank threads themselves: per-rank budget `b` means the rank's
/// own thread plus `b − 1` pool workers, so a world granted `g` lanes over
/// `p` ranks runs each rank at budget `1 + g/p`. A world granted nothing
/// still runs — every rank computes inline on its own thread at budget 1 —
/// which is what makes hundreds of concurrent small worlds finite: late
/// worlds degrade to serial compute instead of deadlocking on an empty pot
/// or oversubscribing the machine.
///
/// When exactly one world is live the grant works out to the classic even
/// share: `1 + (machine − p)/p ≈ machine / p` per rank, so single-world
/// runs budget exactly as before the arbiter existed. An explicit
/// `SUMMIT_THREADS` pin bypasses arbitration (the pin is an operator
/// override; it books zero lanes).
pub struct CoreArbiter {
    capacity: usize,
    book: Mutex<ArbiterBook>,
}

impl CoreArbiter {
    /// An arbiter over an explicit lane capacity (tests use small ones).
    pub fn with_capacity(capacity: usize) -> Self {
        CoreArbiter {
            capacity,
            book: Mutex::new(ArbiterBook::default()),
        }
    }

    /// Lanes this arbiter manages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lease a core budget for a world of `ranks` ranks. The want is the
    /// classic even-share division (`machine/ranks` per rank, minus the
    /// rank threads themselves); the grant is the want clamped to what is
    /// still unleased, possibly zero. Never blocks.
    pub fn lease(&self, ranks: usize) -> CoreLease<'_> {
        let ranks = ranks.max(1);
        if let Some(pin) = summit_threads_override() {
            // Operator override: budgets are pinned, nothing is booked.
            let mut book = self.book.lock().expect("arbiter book poisoned");
            book.live += 1;
            book.peak_live = book.peak_live.max(book.live);
            book.total += 1;
            return CoreLease {
                arbiter: self,
                granted: 0,
                per_rank: pin.min(MAX_WORKERS),
            };
        }
        let per_rank_even = (self.capacity / ranks).clamp(1, MAX_WORKERS);
        let want = ranks * (per_rank_even - 1);
        let mut book = self.book.lock().expect("arbiter book poisoned");
        let granted = want.min(self.capacity - book.leased);
        book.leased += granted;
        book.live += 1;
        book.peak_leased = book.peak_leased.max(book.leased);
        book.peak_live = book.peak_live.max(book.live);
        book.total += 1;
        CoreLease {
            arbiter: self,
            granted,
            per_rank: 1 + granted / ranks,
        }
    }

    /// Snapshot the books.
    pub fn stats(&self) -> ArbiterStats {
        let book = self.book.lock().expect("arbiter book poisoned");
        ArbiterStats {
            capacity: self.capacity,
            live_leases: book.live,
            leased: book.leased,
            peak_leased: book.peak_leased,
            peak_live: book.peak_live,
            total_leases: book.total,
        }
    }

    fn release(&self, granted: usize) {
        let mut book = self.book.lock().expect("arbiter book poisoned");
        debug_assert!(book.leased >= granted && book.live >= 1, "double release");
        book.leased -= granted;
        book.live -= 1;
    }
}

/// A live core lease. Dropping it returns the lanes to the arbiter —
/// including during unwind, so a panicking world cannot leak its share.
#[must_use = "dropping the lease immediately returns the lanes"]
pub struct CoreLease<'a> {
    arbiter: &'a CoreArbiter,
    granted: usize,
    per_rank: usize,
}

impl CoreLease<'_> {
    /// Extra lanes this lease holds (beyond the rank threads).
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// The per-rank core budget this lease funds (≥ 1: a rank always has
    /// its own thread).
    pub fn per_rank_budget(&self) -> usize {
        self.per_rank
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.arbiter.release(self.granted);
    }
}

/// The process-wide arbiter, capacity = machine parallelism. Every
/// `summit_comm::World` execution leases from it.
pub fn arbiter() -> &'static CoreArbiter {
    static ARBITER: OnceLock<CoreArbiter> = OnceLock::new();
    ARBITER.get_or_init(|| CoreArbiter::with_capacity(machine_parallelism()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_ranges_tile_exactly() {
        // 10 rows over 4 parts: 3,3,2,2.
        assert_eq!(chunk_range(10, 4, 0), 0..3);
        assert_eq!(chunk_range(10, 4, 1), 3..6);
        assert_eq!(chunk_range(10, 4, 2), 6..8);
        assert_eq!(chunk_range(10, 4, 3), 8..10);
        // More parts than rows: trailing chunks are empty.
        assert_eq!(chunk_range(2, 4, 1), 1..2);
        assert_eq!(chunk_range(2, 4, 3), 2..2);
    }

    proptest! {
        /// The exact partition is a tiling: consecutive, disjoint, covers
        /// 0..n, and chunk sizes differ by at most one.
        #[test]
        fn prop_partition_is_exact(n in 0usize..10_000, parts in 1usize..64) {
            let mut expect_start = 0usize;
            let mut min_len = usize::MAX;
            let mut max_len = 0usize;
            for r in partition(n, parts) {
                prop_assert_eq!(r.start, expect_start);
                expect_start = r.end;
                min_len = min_len.min(r.len());
                max_len = max_len.max(r.len());
            }
            prop_assert_eq!(expect_start, n);
            prop_assert!(max_len - min_len <= 1, "uneven partition: {}..{}", min_len, max_len);
        }
    }

    #[test]
    fn run_rows_executes_every_row_once() {
        let rows = 37;
        let row_len = 5;
        let mut buf = vec![0.0f32; rows * row_len];
        global().run_rows(&mut buf, row_len, 6, |chunk, range| {
            for (local, r) in range.enumerate() {
                for v in &mut chunk[local * row_len..(local + 1) * row_len] {
                    *v += (r + 1) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(buf[r * row_len + c], (r + 1) as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn run_rows_serial_when_budget_one() {
        let before = global().stats();
        let mut buf = vec![0.0f32; 64];
        global().run_rows(&mut buf, 8, 1, |chunk, range| {
            assert_eq!(range, 0..8);
            chunk.fill(1.0);
        });
        let after = global().stats();
        assert!(buf.iter().all(|&v| v == 1.0));
        // parts = 1 must not enqueue anything for workers.
        assert_eq!(after.tasks_stolen, before.tasks_stolen);
    }

    #[test]
    fn pooled_task_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut buf = vec![0.0f32; 256];
            global().run_rows(&mut buf, 1, 4, |_chunk, range| {
                if range.start == 0 {
                    panic!("kernel bug");
                }
            });
        });
        assert!(result.is_err(), "worker panic must reach the dispatcher");
        // The pool must survive the panic and run later jobs.
        let mut buf = vec![0.0f32; 16];
        global().run_rows(&mut buf, 2, 4, |chunk, _| chunk.fill(2.0));
        assert!(buf.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn stats_count_dispatches() {
        // A private pool: sibling tests dispatch on `global()` concurrently,
        // which would make the exact deltas below race.
        let pool: &'static ComputePool = Box::leak(Box::new(ComputePool::new()));
        let before = pool.stats();
        let mut buf = vec![0.0f32; 1024];
        pool.run_rows(&mut buf, 16, 4, |chunk, _| chunk.fill(3.0));
        let after = pool.stats();
        assert!(buf.iter().all(|&v| v == 3.0));
        assert_eq!(after.tasks_dispatched - before.tasks_dispatched, 4);
        assert_eq!(
            (after.tasks_inline - before.tasks_inline) + (after.tasks_stolen - before.tasks_stolen),
            4
        );
        assert!(after.busy_nanos >= before.busy_nanos);
        assert!(after.max_concurrency >= 1);
        assert!(after.workers_spawned as usize <= MAX_WORKERS);
    }

    #[test]
    fn budget_resolution_shares_the_machine() {
        // Even shares, floored, at least one.
        assert_eq!(rank_budget(8, 4, None), 2);
        assert_eq!(rank_budget(8, 3, None), 2);
        assert_eq!(rank_budget(1, 4, None), 1);
        assert_eq!(rank_budget(16, 1, None), 16);
        // SUMMIT_THREADS pins the per-rank cap.
        assert_eq!(rank_budget(8, 4, Some(6)), 6);
        assert_eq!(rank_budget(8, 4, Some(0)), 2);
        // Clamped to the hard worker cap.
        assert_eq!(rank_budget(1, 1, Some(10_000)), MAX_WORKERS);
        assert_eq!(rank_budget(10_000, 1, None), MAX_WORKERS);
    }

    #[test]
    fn thread_local_budget_scopes() {
        let base = core_budget();
        assert!(base >= 1);
        let inside = with_core_budget(3, core_budget);
        assert_eq!(inside, 3);
        assert_eq!(core_budget(), base, "budget must restore after scope");
        // Clamped up to 1.
        assert_eq!(with_core_budget(0, core_budget), 1);
        assert_eq!(core_budget(), base);
    }

    /// A panicking closure inside `with_core_budget` — a bench iteration
    /// blowing up mid-sweep — must not leak its pool-size override into
    /// the next configuration on the same thread.
    #[test]
    fn panicking_scope_cannot_leak_budget_override() {
        std::thread::spawn(|| {
            set_core_budget(2);
            let result = std::panic::catch_unwind(|| {
                with_core_budget(7, || {
                    assert_eq!(core_budget(), 7);
                    panic!("bench iteration failed");
                })
            });
            assert!(result.is_err(), "closure must have panicked");
            assert_eq!(
                core_budget(),
                2,
                "panic leaked the temporary budget override"
            );
            // Nested scopes restore pairwise even when the inner panics.
            let result = std::panic::catch_unwind(|| {
                with_core_budget(5, || with_core_budget(3, || -> () { panic!("inner") }))
            });
            assert!(result.is_err());
            assert_eq!(core_budget(), 2);
        })
        .join()
        .expect("budget thread");
    }

    #[test]
    fn budgets_are_per_thread() {
        let other = with_core_budget(2, || std::thread::spawn(core_budget).join());
        let other = other.expect("thread ok");
        assert_ne!(other, 0);
        // The spawned thread saw the default, not this thread's override
        // (unless the default happens to equal 2 on a 2-core box — compare
        // against the actual default instead).
        assert_eq!(other, default_budget());
    }

    #[test]
    fn concurrent_dispatchers_share_the_pool() {
        // Several "ranks" dispatching at once must all complete correctly.
        let outputs = run_parked(4, |rank| {
            with_core_budget(2, || {
                let mut buf = vec![0.0f32; 600];
                for round in 0..8 {
                    let want = (rank * 10 + round) as f32;
                    global().run_rows(&mut buf, 3, core_budget(), |chunk, _| {
                        chunk.fill(want);
                    });
                    assert!(buf.iter().all(|&v| v == want));
                }
                buf
            })
        });
        for (rank, buf) in outputs.into_iter().enumerate() {
            let buf = buf.expect("rank ok");
            let want = (rank * 10 + 7) as f32;
            assert!(buf.iter().all(|&v| v == want), "rank {rank} final state");
        }
    }

    #[test]
    fn single_lease_matches_even_share() {
        // One live world must budget exactly as the old fixed division did.
        let arb = CoreArbiter::with_capacity(16);
        for ranks in [1usize, 2, 3, 4, 8, 16, 32] {
            let lease = arb.lease(ranks);
            let classic = rank_budget(16, ranks, None);
            assert_eq!(
                lease.per_rank_budget(),
                classic,
                "solo lease for {ranks} ranks"
            );
            drop(lease);
            assert_eq!(arb.stats().leased, 0, "lanes returned");
        }
    }

    #[test]
    fn leases_conserve_capacity() {
        let arb = CoreArbiter::with_capacity(8);
        // Three 2-rank worlds each want 2·(4−1)=6 extra lanes; only 8 exist.
        let a = arb.lease(2);
        let b = arb.lease(2);
        let c = arb.lease(2);
        let s = arb.stats();
        assert!(s.leased <= s.capacity, "conservation: {s:?}");
        assert!(s.peak_leased <= s.capacity, "peak conservation: {s:?}");
        assert_eq!(s.live_leases, 3);
        // First world got the full even share, later ones degrade, never to 0.
        assert_eq!(a.per_rank_budget(), 4);
        assert!(b.per_rank_budget() >= 1 && b.per_rank_budget() <= 4);
        assert!(c.per_rank_budget() >= 1);
        drop(a);
        drop(b);
        drop(c);
        let s = arb.stats();
        assert_eq!((s.leased, s.live_leases), (0, 0), "all released: {s:?}");
        assert_eq!(s.total_leases, 3);
    }

    #[test]
    fn exhausted_arbiter_still_grants_budget_one() {
        let arb = CoreArbiter::with_capacity(4);
        let big = arb.lease(1); // takes min(0? no: base=4, want=1·3=3) → 3 lanes
        assert_eq!(big.per_rank_budget(), 4);
        let squeezed = arb.lease(1); // only 1 lane left
        assert_eq!(squeezed.per_rank_budget(), 2);
        let starved = arb.lease(1); // nothing left
        assert_eq!(starved.per_rank_budget(), 1, "inline compute floor");
        assert_eq!(starved.granted(), 0);
        assert!(arb.stats().leased <= arb.stats().capacity);
    }

    #[test]
    fn panicking_holder_releases_lease() {
        let arb = CoreArbiter::with_capacity(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lease = arb.lease(2);
            panic!("world died");
        }));
        assert!(result.is_err());
        let s = arb.stats();
        assert_eq!((s.leased, s.live_leases), (0, 0), "RAII release on panic");
    }
}
