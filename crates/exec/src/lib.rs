//! `reram-exec` — zero-dependency parallel execution engine for the
//! `reram-vdrop` workspace.
//!
//! Every substrate in the paper's evaluation is embarrassingly parallel:
//! the per-figure solver sweeps (Fig. 19/20 vary wire resistance and the
//! selector ON/OFF ratio), the 512×512 nonlinear DC solves, and the 8-core
//! trace-driven runs behind Figs. 13–18. This crate is the scheduling
//! substrate that lets the harness exploit that — hand-rolled on `std`
//! alone, like everything else in the workspace.
//!
//! # Pieces
//!
//! * [`ThreadPool`] — a work-stealing pool over `std::thread`: per-worker
//!   deques + a global injector, `Condvar` parking, panic-isolated tasks,
//!   per-worker telemetry into [`reram_obs`] (`exec.worker.N.jobs`,
//!   `exec.worker.N.steals`, `exec.pool.*`). [`ThreadPool::serial`] is the
//!   zero-worker pool: everything runs inline on the draining caller — the
//!   exact serial reference parallel runs must match.
//! * [`par_map`] / [`try_par_map`] — a **deterministic parallel map**:
//!   output ordering and seeding are keyed by item index, so results are
//!   bitwise-identical to serial execution regardless of worker count or
//!   steal order. The caller participates, so nested maps never deadlock.
//! * [`Dag`] — a small job-DAG runner: named jobs with explicit
//!   dependencies ("solve baseline array" → "calibrate analytic model" →
//!   "run figure"), upfront cycle detection, per-job [`catch_unwind`]
//!   isolation, configurable retries, and wall-clock deadlines that cancel
//!   stragglers into structured [`JobError`]s instead of hanging the
//!   harness.
//! * [`Memo`] — a pool-scoped memo of deterministic results: every
//!   [`ThreadPool`] owns one ([`ThreadPool::memo`]), so a layer above can
//!   run each distinct computation once per pool and serve its repeats
//!   from the first result. Concurrent askers for one key run it once.
//! * [`Journal`] — checkpoint/resume: completed-job payloads are appended
//!   to a JSONL state file, so an interrupted `experiments all --full`
//!   resumes without recomputing journaled jobs.
//!
//! # Determinism contract
//!
//! The pool schedules nondeterministically; determinism is recovered one
//! layer up. [`par_map`] writes each result into its item's slot and hands
//! the vector back in item order, so downstream reductions (gmeans over a
//! sweep, CSV row emission) perform their floating-point operations in
//! exactly the serial order. Anything random must be seeded from the item
//! index, never from worker identity — the experiment harness already
//! seeds per (figure, sweep point, benchmark), so fan-out is free.
//!
//! [`catch_unwind`]: std::panic::catch_unwind
//!
//! # Example
//!
//! ```
//! use reram_exec::{par_map, Dag, JobSpec, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let squares = par_map(&pool, (0..100u64).collect(), |_i, &x| x * x);
//! assert_eq!(squares[7], 49);
//!
//! let mut dag = Dag::new();
//! dag.add(JobSpec::new("solve"), |_| Ok("1.6725".into()));
//! dag.add(JobSpec::new("figure").after("solve"), |ctx| {
//!     Ok(format!("worst-case Veff = {} V", ctx.dep("solve").unwrap()))
//! });
//! let report = dag.run(&pool, None, |_, _| {}).unwrap();
//! assert_eq!(report.ok("figure"), Some("worst-case Veff = 1.6725 V"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod journal;
pub mod memo;
pub mod par;
pub mod pool;

pub use dag::{Dag, DagError, DagReport, JobCtx, JobSpec, RunReport};
pub use journal::{Journal, JournalEntry, JournalError, Quarantined};
pub use memo::Memo;
pub use par::{par_map, try_par_map};
pub use pool::ThreadPool;

use std::time::Duration;

/// Why a job did not produce a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked (isolated by `catch_unwind`).
    Panicked(String),
    /// The job body returned an error.
    Failed(String),
    /// The scheduler gave up after the job's wall-clock deadline.
    TimedOut {
        /// How long the job had been running when it was cancelled.
        after: Duration,
    },
    /// A (transitive) dependency did not succeed.
    DepFailed {
        /// The direct dependency that failed.
        dep: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(m) => write!(f, "panicked: {m}"),
            JobError::Failed(m) => write!(f, "failed: {m}"),
            JobError::TimedOut { after } => {
                write!(f, "timed out after {:.2} s", after.as_secs_f64())
            }
            JobError::DepFailed { dep } => write!(f, "dependency {dep:?} failed"),
        }
    }
}

impl std::error::Error for JobError {}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
