//! Shared chunked thread pool — the process-wide parallel execution
//! substrate.
//!
//! Every parallel code path in the workspace (data-parallel minibatch
//! training, pooled link-prediction evaluation, concurrent candidate
//! evaluation, batched serve scoring) dispatches through one
//! [`ThreadPool`] so the process keeps a single fixed worker set instead
//! of spawning threads at every call site.
//!
//! ## Design
//!
//! - **Fixed worker set, steal-free.** A pool of parallelism `T` owns
//!   `T − 1` parked worker threads; the caller participates as the `T`-th
//!   executor. There are no per-worker deques and no work stealing: a
//!   dispatch publishes one job (an index range `0..tasks`) and all
//!   executors pull the next index from a single shared cursor
//!   (chunked self-scheduling). Which executor runs which index is
//!   scheduling-dependent, so *callers must make per-index work
//!   independent*; every deterministic algorithm built on top (see
//!   `eras-train`'s tree-reduced gradient shards) keys its output on the
//!   index, never on the worker.
//! - **One dispatcher at a time.** The pool has a single job slot, so a
//!   dispatch mutex serialises outer dispatches for the whole
//!   publish → drain → barrier sequence. Any dispatch that cannot take
//!   the mutex — a nested dispatch from inside a pool task, or an
//!   independent OS thread dispatching while another job is live (e.g.
//!   two serve workers batch-scoring concurrently) — degrades to inline
//!   execution on the caller, which is semantically identical because
//!   results are index-keyed. `run` therefore never blocks on another
//!   dispatcher and can never strand a check-in barrier.
//! - **Scoped borrows.** [`ThreadPool::run`] and [`ThreadPool::map`]
//!   accept closures borrowing the caller's stack. The dispatch barrier
//!   (every worker checks in exactly once per job) guarantees no worker
//!   can touch the closure after the call returns, which is what makes
//!   the lifetime erasure in `JobHandle` sound.
//! - **Sizing.** [`ThreadPool::global`] is the process-wide pool, sized
//!   by the `ERAS_THREADS` environment variable with an
//!   `available_parallelism()` fallback.
//!
//! ## Counters
//!
//! Each pool counts the jobs it published to its workers, the calls it
//! ran inline on the caller instead (worker-less pool, single task,
//! nested or contended dispatch), and the tasks either kind ran
//! ([`ThreadPool::stats`]; mirrored process-wide as `pool.dispatches`,
//! `pool.inline_dispatches` and `pool.tasks`). A call with no tasks
//! counts as neither.

use crate::faults;
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use eras_obs::metrics::Counter;
use eras_obs::profile::{self, ZoneName};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Profiler zone covering task execution: while a thread (worker or
/// dispatching caller) is draining a job, the obs sampler attributes
/// its wall time here unless a finer span is open inside the task.
static POOL_TASK_ZONE: ZoneName = ZoneName::new("pool.task");

thread_local! {
    /// True while this thread is executing a pool task. A nested
    /// dispatch from inside a task runs inline instead of publishing a
    /// second job: two tasks publishing concurrently would race on the
    /// single job slot and strand one dispatch's check-in barrier.
    /// Inline execution is semantically identical because every
    /// deterministic caller produces index-keyed results. (The dispatch
    /// mutex would catch a nested dispatch too — a worker can never
    /// hold it while the dispatcher does — but this flag skips the
    /// failed `try_lock` and documents the invariant.)
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Snapshot of a pool's dispatch counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `run`/`map` calls whose job was published to the workers.
    pub dispatches: u64,
    /// `run`/`map` calls that ran all their tasks on the caller: a
    /// worker-less pool, a single task, or a nested or contended call.
    pub inline: u64,
    /// Individual task indices executed, published or inline.
    pub tasks: u64,
}

/// One published job: a type-erased `Fn(usize)` plus the shared cursor.
struct Job {
    /// Pointer to the caller's closure. Valid for the lifetime of the
    /// dispatch only; the check-in barrier enforces that.
    func: *const (),
    /// Monomorphized trampoline that re-types `func` and calls it.
    call: unsafe fn(*const (), usize),
    /// Number of task indices.
    tasks: usize,
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    /// Set when a task panicked; the dispatching caller re-panics.
    panicked: AtomicBool,
    /// Workers that have not yet finished this job.
    pending: AtomicUsize,
}

// SAFETY: `func` points at a `F: Fn(usize) + Sync` borrowed by the
// dispatching caller, which blocks until every worker has checked in.
unsafe impl Send for Job {}
unsafe impl Sync for Job {} // SAFETY: as above.

/// Pool state shared with workers.
struct Shared {
    /// Current job and its sequence number (bumped per dispatch), plus
    /// the shutdown flag. Workers sleep on `work_cv` until the sequence
    /// number moves past the one they last served.
    slot: Mutex<JobSlot>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Workers that died (unwound out of the worker loop) over the
    /// pool's lifetime. Purely observational; `JobSlot::live` is the
    /// authoritative count dispatches size their barrier with.
    lost_workers: AtomicUsize,
}

struct JobSlot {
    seq: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
    /// Worker threads still serving jobs. A dispatch sizes its check-in
    /// barrier with this count (under the slot lock), so a worker that
    /// died — a panic outside the per-task catch, however unlikely —
    /// can never strand a future dispatch waiting for a check-in that
    /// will not come.
    live: usize,
}

/// A fixed set of worker threads executing chunked parallel-for jobs.
///
/// Parallelism 1 is the degenerate pool: no threads are spawned and
/// every dispatch runs inline on the caller, so sequential and parallel
/// call sites share one code path.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    parallelism: usize,
    /// Owned by the dispatcher for the whole publish → drain → barrier
    /// sequence: the pool has one job slot, so at most one outer
    /// dispatch may be live at a time. Contended dispatches run inline
    /// instead of blocking (see [`ThreadPool::run`]).
    dispatch: Mutex<()>,
    dispatches: AtomicU64,
    inline: AtomicU64,
    tasks: AtomicU64,
    /// Process-wide mirrors of the per-pool counters, registered in the
    /// obs global registry (`pool.*`) so `/metrics` sees every pool.
    /// Handles are resolved once here; the hot path never takes the
    /// registry lock.
    obs_dispatches: Counter,
    obs_tasks: Counter,
    obs_inline: Counter,
}

impl ThreadPool {
    /// Create a pool with the given total parallelism (caller included).
    /// `threads` is clamped to at least 1; a pool of 1 spawns nothing.
    pub fn new(threads: usize) -> ThreadPool {
        let parallelism = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                seq: 0,
                job: None,
                shutdown: false,
                live: parallelism - 1,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            lost_workers: AtomicUsize::new(0),
        });
        let workers = (1..parallelism)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eras-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker") // audit:allow(E701, W402): startup-time spawn failure is fatal by design
            })
            .collect();
        let registry = eras_obs::metrics::global();
        ThreadPool {
            shared,
            workers,
            parallelism,
            dispatch: Mutex::new(()),
            dispatches: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            obs_dispatches: registry.counter("pool.dispatches"),
            obs_tasks: registry.counter("pool.tasks"),
            obs_inline: registry.counter("pool.inline_dispatches"),
        }
    }

    /// The process-wide shared pool, created on first use. Its size is
    /// `ERAS_THREADS` when set to a positive integer, otherwise
    /// `std::thread::available_parallelism()`.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(configured_threads()))
    }

    /// Total parallelism (worker threads + the participating caller).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Worker threads lost to a panic outside the per-task catch over
    /// the pool's lifetime (in practice only the chaos harness's
    /// injected worker deaths). The pool keeps dispatching with the
    /// survivors; it never deadlocks on a dead worker's check-in.
    pub fn lost_workers(&self) -> usize {
        self.shared.lost_workers.load(Ordering::Relaxed)
    }

    /// Dispatch counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
        }
    }

    /// Run `f(i)` for every `i in 0..tasks`, distributing indices across
    /// the pool. Blocks until all tasks have finished. Panics (after all
    /// workers check in) if any task panicked.
    ///
    /// Indices are claimed dynamically, so `f` must not depend on which
    /// executor serves which index.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.obs_tasks.add(tasks as u64);
        if tasks == 0 {
            return;
        }
        // Degenerate, tiny, or nested dispatch: run inline, skip the
        // barrier. Nested means we are already inside a pool task (see
        // `IN_POOL_TASK`).
        if self.workers.is_empty() || tasks == 1 || IN_POOL_TASK.with(Cell::get) {
            self.run_inline(tasks, &f);
            return;
        }
        // Claim the single job slot. If another OS thread is mid-
        // dispatch (two serve workers batch-scoring at once, say),
        // publishing over its live job would bump `seq` under workers
        // that had not yet claimed it — they would skip to the new job,
        // never decrement the first job's `pending`, and strand its
        // caller on `done_cv` forever. Contended dispatches run inline
        // instead: semantically identical (results are index-keyed) and
        // the caller makes progress immediately rather than idling.
        let _dispatch = match self.dispatch.try_lock() {
            Ok(guard) => guard,
            // A prior dispatcher panicked after the barrier; the slot
            // itself is back in a sound state (its job was drained).
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.run_inline(tasks, &f);
                return;
            }
        };
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.obs_dispatches.inc();

        // SAFETY: caller must pass a `ptr` obtained from `&F` that
        // outlives the call; `run` passes the borrow it holds for the
        // duration of the job.
        unsafe fn trampoline<F: Fn(usize) + Sync>(ptr: *const (), idx: usize) {
            // SAFETY: `ptr` came from `&f` below and `run` blocks until
            // every worker is done with the job, so the borrow is live.
            let f = unsafe { &*(ptr as *const F) };
            f(idx);
        }

        let job = Arc::new(Job {
            func: &f as *const F as *const (),
            call: trampoline::<F>,
            tasks,
            cursor: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
        });

        {
            let mut slot = lock(&self.shared.slot);
            // Size the barrier with the workers actually alive, read
            // under the same lock a dying worker updates `live` under:
            // a dead worker can neither claim this job nor check in.
            job.pending.store(slot.live, Ordering::Release);
            slot.seq += 1;
            slot.job = Some(Arc::clone(&job));
            self.shared.work_cv.notify_all();
        }

        // The caller is an executor too.
        drain(&job);

        // Barrier: wait until every worker has checked in, so no worker
        // can still hold a pointer into our stack frame when we return.
        let mut slot = lock(&self.shared.slot);
        while job.pending.load(Ordering::Acquire) != 0 {
            slot = self
                .shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        slot.job = None;
        drop(slot);

        if job.panicked.load(Ordering::Acquire) {
            // audit:allow(E701): deliberate re-panic propagating a task panic to the dispatching caller
            panic!("a thread-pool task panicked");
        }
    }

    /// Run every task on the calling thread, counted as inline.
    fn run_inline(&self, tasks: usize, f: &impl Fn(usize)) {
        self.inline.fetch_add(1, Ordering::Relaxed);
        self.obs_inline.inc();
        for i in 0..tasks {
            f(i);
        }
    }

    /// Run `f(i)` for every index and collect the results in index
    /// order. The output order is always `0..tasks` regardless of pool
    /// size or scheduling, which is what the deterministic callers rely
    /// on.
    pub fn map<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        use std::cell::UnsafeCell;
        use std::mem::MaybeUninit;

        struct Slots<T>(Vec<UnsafeCell<MaybeUninit<T>>>);
        // SAFETY: each task index writes exactly its own slot.
        unsafe impl<T: Send> Sync for Slots<T> {}

        let mut slots = Slots(Vec::with_capacity(tasks));
        slots
            .0
            .resize_with(tasks, || UnsafeCell::new(MaybeUninit::uninit()));
        // Capture the `Sync` wrapper, not its (non-Sync) field: edition
        // 2021 closures would otherwise capture `slots.0` directly.
        let slots_ref = &slots;
        self.run(tasks, |i| {
            let value = f(i);
            // SAFETY: index i is claimed by exactly one executor.
            unsafe { (*slots_ref.0[i].get()).write(value) };
        });
        slots
            .0
            .into_iter()
            // SAFETY: `run` returned without panicking, so every slot
            // was initialized by exactly one executor above.
            .map(|c| unsafe { c.into_inner().assume_init() })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock(m: &Mutex<JobSlot>) -> MutexGuard<'_, JobSlot> {
    // A poisoned slot only means a worker panicked while holding the
    // guard; the slot data itself stays structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pull task indices off the job's cursor until it is exhausted.
fn drain(job: &Job) {
    // Attribute this executor's wall time to the pool unless a task
    // opens a finer span; one relaxed load when no profiler is running.
    let _zone = profile::zone(&POOL_TASK_ZONE);
    IN_POOL_TASK.with(|f| f.set(true));
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.tasks {
            break;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            if faults::check(faults::Site::PoolTask).is_some() {
                // audit:allow(E701): chaos-harness injection point, caught by catch_unwind just above
                panic!("injected fault: pool task panic");
            }
            // SAFETY: the dispatching caller keeps the closure alive
            // until every worker checks in.
            unsafe { (job.call)(job.func, i) }
        }));
        if result.is_err() {
            job.panicked.store(true, Ordering::Release);
        }
    }
    IN_POOL_TASK.with(|f| f.set(false));
}

/// Keeps the pool's live-worker accounting truthful even if the worker
/// thread unwinds: on drop it retires the worker from `JobSlot::live`
/// and, if a job was claimed but not checked in, checks in for it (as
/// panicked — a worker that died mid-job cannot prove it lost nothing)
/// so the dispatching caller is never stranded on the barrier.
struct WorkerGuard<'a> {
    shared: &'a Shared,
    /// The job claimed but not yet checked in, if any.
    current: Option<Arc<Job>>,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.live -= 1;
        }
        if std::thread::panicking() {
            self.shared.lost_workers.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(job) = self.current.take() {
            job.panicked.store(true, Ordering::Release);
            if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _slot = lock(&self.shared.slot);
                self.shared.done_cv.notify_all();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut served = 0u64;
    let mut guard = WorkerGuard {
        shared,
        current: None,
    };
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return; // guard drop retires this worker from `live`
                }
                if slot.seq > served {
                    served = slot.seq;
                    break slot.job.clone();
                }
                slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { continue };
        guard.current = Some(Arc::clone(&job));
        // Worker-death injection point: a panic here unwinds the whole
        // thread (no per-task catch), exercising the guard above.
        if faults::check(faults::Site::PoolWorker).is_some() {
            // audit:allow(E701): chaos-harness injection point — worker death is the scenario under test
            panic!("injected fault: pool worker death");
        }
        drain(&job);
        // Check in: the last worker out wakes the dispatching caller.
        // Clear the guard first so the check-in happens exactly once.
        guard.current = None;
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _slot = lock(&shared.slot);
            shared.done_cv.notify_all();
        }
    }
}

/// Thread count the global pool is sized with: `ERAS_THREADS` when set
/// to a positive integer, else `available_parallelism()`, else 1.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("ERAS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1usize, 3, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_one_task_dispatches() {
        let pool = ThreadPool::new(4);
        pool.run(0, |_| panic!("no tasks to run"));
        let one = pool.map(1, |i| i + 41);
        assert_eq!(one, vec![41]);
        // The empty call counts as nothing; the single task ran inline.
        let stats = pool.stats();
        assert_eq!((stats.dispatches, stats.inline, stats.tasks), (0, 1, 1));
    }

    #[test]
    fn more_threads_than_tasks() {
        let pool = ThreadPool::new(8);
        let out = pool.map(3, |i| i as u64 + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let pool = ThreadPool::new(3);
        let mut total = 0usize;
        for round in 0..50 {
            let out = pool.map(round % 7 + 1, |i| i);
            total += out.len();
        }
        // Rounds 0, 7, …, 49 have a single task, which runs inline.
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 42);
        assert_eq!(stats.inline, 8);
        assert_eq!(stats.tasks as usize, total);
    }

    #[test]
    fn borrows_caller_stack() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let doubled = pool.map(input.len(), |i| input[i] * 2);
        assert_eq!(doubled[999], 1998);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps working.
        assert_eq!(pool.map(4, |i| i).len(), 4);
    }

    #[test]
    fn parallelism_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.parallelism(), 1);
        assert_eq!(pool.map(5, |i| i).len(), 5);
        // A worker-less pool publishes nothing.
        let stats = pool.stats();
        assert_eq!((stats.dispatches, stats.inline, stats.tasks), (0, 1, 5));
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global() as *const ThreadPool;
        let b = ThreadPool::global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(ThreadPool::global().parallelism() >= 1);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn concurrent_dispatchers_do_not_deadlock() {
        // Regression: two OS threads dispatching at once used to race
        // on the single job slot — the second publish bumped `seq` under
        // workers that had not yet claimed the first job, stranding the
        // first caller on its check-in barrier forever. Contended
        // dispatches must instead run inline and complete.
        let pool = ThreadPool::new(4);
        let dispatchers = 6;
        let rounds = 25;
        let tasks = 64;
        let hits: Vec<AtomicU32> = (0..dispatchers * tasks)
            .map(|_| AtomicU32::new(0))
            .collect();
        std::thread::scope(|s| {
            for d in 0..dispatchers {
                let pool = &pool;
                let hits = &hits;
                s.spawn(move || {
                    for _ in 0..rounds {
                        pool.run(tasks, |i| {
                            hits[d * tasks + i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert!(hits
            .iter()
            .all(|h| h.load(Ordering::Relaxed) == rounds as u32));
        let stats = pool.stats();
        assert_eq!(
            stats.dispatches + stats.inline,
            (dispatchers * rounds) as u64,
            "every call counts once: published, or inline when contended"
        );
        assert_eq!(stats.tasks, (dispatchers * rounds * tasks) as u64);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..8 * 16).map(|_| AtomicU32::new(0)).collect();
        pool.run(8, |outer| {
            // A dispatch from inside a pool task must degrade to inline
            // execution instead of publishing a competing job.
            pool.run(16, |inner| {
                hits[outer * 16 + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // The outer call is the one published job; each nested call ran
        // inline on whichever executor claimed its outer task.
        let stats = pool.stats();
        assert_eq!(
            (stats.dispatches, stats.inline, stats.tasks),
            (1, 8, 8 + 8 * 16)
        );
    }
}
