//! The work-stealing thread pool.
//!
//! Layout is the classic injector + per-worker-deque shape (the same
//! structure crossbeam/rayon use, hand-rolled on `std` so the workspace
//! stays dependency-free):
//!
//! * a **global injector** queue takes submissions from non-pool threads;
//! * each worker owns a **local deque**: it pushes nested spawns to the back
//!   and pops its own work from the front, while idle workers **steal from
//!   the back** of other workers' deques;
//! * idle workers **park on a `Condvar`** guarded by a work-sequence
//!   counter, so a push never races a parking worker into a lost wakeup.
//!
//! Scheduling order is *not* deterministic — determinism is the job of the
//! layers above ([`crate::par_map`] keys results and seeds by item index,
//! the DAG runner keys results by job name), which is exactly how the
//! harness gets bitwise-identical outputs regardless of worker count.
//!
//! Every task runs under `catch_unwind` as a backstop: a panicking raw
//! `spawn` increments the pool's panic counter and the worker survives.
//! (The [`crate::dag`] and [`crate::par`] layers catch first and report
//! structured errors; the pool-level catch only sees panics from tasks
//! submitted directly.)

use crate::memo::Memo;
use reram_obs::{Counter, Obs};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Distinguishes pools so a worker thread never pushes to the local queue
/// of a *different* pool's worker slot.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Aggregate counters, mirrored into `reram-obs` when a registry is
/// attached (see [`ThreadPool::with_obs`]).
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    pub jobs: AtomicU64,
    pub steals: AtomicU64,
    pub panics: AtomicU64,
}

pub(crate) struct Shared {
    pub id: u64,
    pub injector: Mutex<VecDeque<Task>>,
    pub locals: Vec<Mutex<VecDeque<Task>>>,
    /// Incremented on every push; parkers re-check it under `park` before
    /// waiting so a concurrent push can never be missed.
    pub work_seq: AtomicU64,
    pub park: Mutex<()>,
    pub cv: Condvar,
    pub shutdown: AtomicBool,
    pub counters: PoolCounters,
    /// Tasks submitted and not yet finished (for the depth gauge and tests).
    pub pending: AtomicUsize,
    pub obs: Obs,
}

impl Shared {
    fn pop_local(&self, me: usize) -> Option<Task> {
        self.locals[me]
            .lock()
            .expect("local queue poisoned")
            .pop_front()
    }

    fn pop_injector(&self) -> Option<Task> {
        self.injector.lock().expect("injector poisoned").pop_front()
    }

    fn steal(&self, me: usize) -> Option<Task> {
        // Rotate the victim scan by the thief's index so workers don't all
        // hammer worker 0's lock.
        let n = self.locals.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(t) = self.locals[victim]
                .lock()
                .expect("local queue poisoned")
                .pop_back()
            {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    pub fn push(&self, task: Task) {
        let depth = {
            let me = WORKER.with(std::cell::Cell::get);
            match me {
                Some((pool, idx)) if pool == self.id => {
                    let mut q = self.locals[idx].lock().expect("local queue poisoned");
                    q.push_back(task);
                    q.len()
                }
                _ => {
                    let mut q = self.injector.lock().expect("injector poisoned");
                    q.push_back(task);
                    q.len()
                }
            }
        };
        if self.obs.enabled() {
            self.obs.hist("exec.pool.queue_depth").record(depth as f64);
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.work_seq.fetch_add(1, Ordering::SeqCst);
        // Serialize against a parker sitting between its seq re-check and
        // its wait, then wake one worker.
        drop(self.park.lock().expect("park lock poisoned"));
        self.cv.notify_one();
    }

    /// Runs one queued task on the calling thread if any is available.
    /// Returns whether a task ran. Used by helpers (e.g. `par_map`'s
    /// caller participation) — counted like worker-run jobs.
    pub fn run_one(&self, me: Option<usize>) -> bool {
        let task = me
            .and_then(|i| self.pop_local(i))
            .or_else(|| self.pop_injector())
            .or_else(|| me.and_then(|i| self.steal(i)));
        match task {
            Some(t) => {
                self.run_task(t, None);
                true
            }
            None => false,
        }
    }

    fn run_task(&self, task: Task, jobs_counter: Option<&Counter>) {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            if self.obs.enabled() {
                self.obs.counter("exec.pool.panics").inc();
            }
        }
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = jobs_counter {
            c.inc();
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    WORKER.with(|w| w.set(Some((shared.id, me))));
    let obs = &shared.obs;
    let jobs_c = obs.counter(&format!("exec.worker.{me}.jobs"));
    let steals_c = obs.counter(&format!("exec.worker.{me}.steals"));
    loop {
        let seq = shared.work_seq.load(Ordering::SeqCst);
        let task = shared
            .pop_local(me)
            .or_else(|| shared.pop_injector())
            .or_else(|| {
                let t = shared.steal(me);
                if t.is_some() {
                    steals_c.inc();
                }
                t
            });
        if let Some(t) = task {
            shared.run_task(t, Some(&jobs_c));
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let guard = shared.park.lock().expect("park lock poisoned");
        if shared.work_seq.load(Ordering::SeqCst) != seq {
            continue; // work arrived while we were scanning
        }
        // The timeout is belt-and-braces only; the seq protocol above
        // already prevents lost wakeups.
        let _unused = shared
            .cv
            .wait_timeout(guard, Duration::from_millis(50))
            .expect("park lock poisoned");
    }
    WORKER.with(|w| w.set(None));
}

/// A fixed-size work-stealing thread pool.
///
/// [`ThreadPool::serial`] builds a pool with **zero** worker threads: work
/// submitted to it only runs when a caller drains it (as
/// [`crate::par_map`] and the DAG runner do), which makes the serial pool
/// the exact single-threaded reference that parallel runs must match
/// bitwise.
///
/// Each pool owns a [`Memo`] of deterministic results
/// ([`ThreadPool::memo`]), dropped with the pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    memo: Memo,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers)
            .field("pending", &self.shared.pending.load(Ordering::SeqCst))
            .field("memo", &self.memo)
            .finish()
    }
}

impl ThreadPool {
    /// A pool with `workers` OS threads and telemetry into `obs`
    /// (per-worker `exec.worker.N.jobs` / `exec.worker.N.steals` counters,
    /// pool-wide `exec.pool.*`).
    #[must_use]
    pub fn with_obs(workers: usize, obs: &Obs) -> Self {
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            id,
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_seq: AtomicU64::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: PoolCounters::default(),
            pending: AtomicUsize::new(0),
            obs: obs.clone(),
        });
        if obs.enabled() {
            obs.gauge("exec.pool.workers").set(workers as f64);
        }
        let handles = (0..workers)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("reram-exec-{i}"))
                    .spawn(move || worker_loop(&s, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
            memo: Memo::new(),
        }
    }

    /// A pool with `workers` OS threads and no telemetry.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_obs(workers, &Obs::off())
    }

    /// The zero-worker pool: everything runs inline on the draining caller,
    /// in submission order. The serial reference for determinism checks.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(0)
    }

    /// `std::thread::available_parallelism()`, defaulting to 1.
    #[must_use]
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Number of worker threads (0 for [`ThreadPool::serial`]).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a task. From a worker thread of this pool the task lands on
    /// that worker's local deque (stealable from the back); from any other
    /// thread it goes through the global injector.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.push(Box::new(f));
    }

    /// Total tasks completed (including panicked ones).
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.shared.counters.jobs.load(Ordering::Relaxed)
    }

    /// Total successful steals across all workers.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.shared.counters.steals.load(Ordering::Relaxed)
    }

    /// Total tasks that panicked (isolated by the pool's backstop catch).
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.shared.counters.panics.load(Ordering::Relaxed)
    }

    /// Tasks submitted and not yet finished.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// The telemetry registry this pool records into (`Obs::off()` unless
    /// built via [`ThreadPool::with_obs`]).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The pool's memo of deterministic results: it starts empty and lives
    /// exactly as long as the pool, so every run on one pool (every job of
    /// one `experiments all`, one benchmark pass) shares it and nothing
    /// else does.
    #[must_use]
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// Runs one queued task inline on the calling thread, if any is
    /// queued. This is how a [`ThreadPool::serial`] pool makes progress —
    /// callers (like `par_map`'s caller participation) drain it. Called
    /// from one of this pool's own worker threads it drains that worker's
    /// local deque first (nested `spawn`s land there, and a blocked nested
    /// helper is the only thread guaranteed to come back for them), then
    /// the injector, then steals.
    pub fn try_run_pending(&self) -> bool {
        let me = WORKER
            .with(std::cell::Cell::get)
            .and_then(|(pool, idx)| (pool == self.shared.id).then_some(idx));
        self.shared.run_one(me)
    }

    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_seq.fetch_add(1, Ordering::SeqCst);
        drop(self.shared.park.lock().expect("park lock poisoned"));
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _unused = h.join();
        }
        if self.shared.obs.enabled() {
            let c = &self.shared.counters;
            let obs = &self.shared.obs;
            obs.counter("exec.pool.jobs")
                .add(c.jobs.load(Ordering::Relaxed));
            obs.counter("exec.pool.steals")
                .add(c.steals.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_spawned_tasks() {
        let pool = ThreadPool::new(3);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..64 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(pool.jobs_completed(), 64);
    }

    #[test]
    fn serial_pool_runs_nothing_until_drained() {
        let pool = ThreadPool::serial();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert!(pool.try_run_pending());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!pool.try_run_pending());
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = ThreadPool::new(1);
        pool.spawn(|| panic!("boom"));
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn nested_spawn_lands_on_local_deque_and_completes() {
        let pool = ThreadPool::new(2);
        let hits = Arc::new(AtomicU32::new(0));
        let shared = Arc::clone(pool.shared());
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            for _ in 0..8 {
                let h2 = Arc::clone(&h);
                shared.push(Box::new(move || {
                    h2.fetch_add(1, Ordering::SeqCst);
                }));
            }
        });
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn obs_records_pool_shape() {
        let obs = Obs::new();
        {
            let pool = ThreadPool::with_obs(2, &obs);
            for _ in 0..16 {
                pool.spawn(|| {});
            }
            while pool.pending() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(obs.gauge("exec.pool.workers").get(), 2.0);
        assert_eq!(obs.counter("exec.pool.jobs").get(), 16);
        let d = obs.hist("exec.pool.queue_depth").snapshot();
        assert_eq!(d.count(), 16);
    }
}
