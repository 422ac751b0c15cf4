//! The job-DAG runner: named jobs with explicit dependencies, executed on
//! a [`ThreadPool`] with panic isolation, per-job retries, wall-clock
//! deadlines and checkpoint/resume through a [`Journal`].
//!
//! A job is a `Fn(&JobCtx) -> Result<String, String>`: the `String`
//! payload is the job's durable result — it is journaled verbatim and
//! handed to dependents through [`JobCtx::dep`], so a parent job (e.g. a
//! figure) can assemble the rows its sweep-point children produced.
//!
//! Execution model: the caller of [`Dag::run`] is the scheduler. It
//! validates the graph (duplicates, missing deps, cycles — Kahn's
//! algorithm) before anything runs, seeds completed jobs from the journal,
//! then dispatches ready jobs — to the pool when it has workers, inline on
//! the calling thread otherwise, so a [`ThreadPool::serial`] pool runs the
//! whole DAG in deterministic topological (insertion) order. Each attempt
//! runs under `catch_unwind`; a panicking or failing job consumes its
//! retry budget and then resolves to a structured [`JobError`] that
//! cascades to its dependents as [`JobError::DepFailed`] — one poisoned
//! figure never takes the harness down.
//!
//! Deadlines are enforced by the scheduler: an overdue job is resolved as
//! [`JobError::TimedOut`], its [`JobCtx::cancelled`] flag is raised so a
//! cooperative body can bail out, and the run completes without it. Safe
//! Rust cannot preempt a non-cooperative body — the worker finishes the
//! stale attempt in the background and its late result is discarded. (On a
//! zero-worker pool jobs run inline, so a deadline can only be checked
//! after the body returns; the real result is kept.)

use crate::journal::Journal;
use crate::pool::ThreadPool;
use crate::JobError;
use reram_fault::{FaultInjector, FaultKind};
use reram_obs::json::write_string;
use reram_workloads::Rng64;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// FNV-1a over the job name: seeds the per-job backoff-jitter stream, so
/// retry pacing is deterministic per job and uncorrelated across jobs.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A job's static description: name, dependencies, robustness knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name (also the journal key).
    pub name: String,
    /// Names of jobs that must complete successfully first.
    pub deps: Vec<String>,
    /// Extra attempts after a panic/failure (0 = single attempt).
    pub retries: u32,
    /// Wall-clock budget from first dispatch; `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with no deps, no retries, no deadline.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            deps: Vec::new(),
            retries: 0,
            deadline: None,
        }
    }

    /// Adds a dependency.
    #[must_use]
    pub fn after(mut self, dep: impl Into<String>) -> Self {
        self.deps.push(dep.into());
        self
    }

    /// Sets the retry budget.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// What a running job sees.
#[derive(Debug)]
pub struct JobCtx {
    /// The job's name.
    pub name: String,
    /// 0-based attempt number (> 0 on retries).
    pub attempt: u32,
    deps: BTreeMap<String, String>,
    cancel: Arc<AtomicBool>,
}

impl JobCtx {
    /// The payload a named dependency produced.
    #[must_use]
    pub fn dep(&self, name: &str) -> Option<&str> {
        self.deps.get(name).map(String::as_str)
    }

    /// True once the scheduler gave up on this job (deadline exceeded);
    /// long-running bodies should poll this and return early.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

type JobFn = Arc<dyn Fn(&JobCtx) -> Result<String, String> + Send + Sync>;

/// Graph construction errors, detected before any job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two jobs share a name.
    Duplicate(String),
    /// A job depends on a name that was never added.
    UnknownDep {
        /// The depending job.
        job: String,
        /// The missing dependency.
        dep: String,
    },
    /// The dependency graph has a cycle through these jobs.
    Cycle(Vec<String>),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::Duplicate(n) => write!(f, "duplicate job name {n:?}"),
            DagError::UnknownDep { job, dep } => {
                write!(f, "job {job:?} depends on unknown job {dep:?}")
            }
            DagError::Cycle(names) => write!(f, "dependency cycle through {}", names.join(" -> ")),
        }
    }
}

impl std::error::Error for DagError {}

/// The outcome of a [`Dag::run`].
#[derive(Debug)]
pub struct DagReport {
    /// Per-job outcome: payload or structured error, keyed by name.
    pub results: BTreeMap<String, Result<String, JobError>>,
    /// Jobs satisfied from the journal without re-running.
    pub cached: BTreeSet<String>,
    /// Retries each executed job consumed (0 = first attempt sufficed;
    /// cached and cascade-failed jobs are absent).
    pub attempts: BTreeMap<String, u32>,
}

impl DagReport {
    /// The payload of a successful job.
    #[must_use]
    pub fn ok(&self, name: &str) -> Option<&str> {
        match self.results.get(name) {
            Some(Ok(p)) => Some(p),
            _ => None,
        }
    }

    /// All jobs that did not succeed, with their errors (sorted by name).
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, &JobError)> {
        self.results
            .iter()
            .filter_map(|(n, r)| r.as_ref().err().map(|e| (n.as_str(), e)))
            .collect()
    }

    /// Condenses the per-job outcomes into a [`RunReport`].
    #[must_use]
    pub fn run_report(&self) -> RunReport {
        let mut completed = Vec::new();
        let mut recovered = Vec::new();
        let mut failed = Vec::new();
        for (name, result) in &self.results {
            match result {
                Ok(_) => {
                    completed.push(name.clone());
                    if let Some(&a) = self.attempts.get(name) {
                        if a > 0 {
                            recovered.push((name.clone(), a));
                        }
                    }
                }
                Err(e) => failed.push((name.clone(), e.to_string())),
            }
        }
        RunReport {
            completed,
            recovered,
            failed,
        }
    }
}

/// A run's condensed ledger: what finished, what needed retries to finish,
/// what did not finish. This is the structure the experiment harness turns
/// into its failure manifest, so a faulted run ends with partial results
/// and an explicit account instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Every job that produced a payload (including journal-cached ones),
    /// sorted by name.
    pub completed: Vec<String>,
    /// Jobs that succeeded only after retries: `(name, retries consumed)`,
    /// sorted by name. Always a subset of `completed`.
    pub recovered: Vec<(String, u32)>,
    /// Jobs that did not succeed: `(name, rendered error)`, sorted by name.
    pub failed: Vec<(String, String)>,
}

impl RunReport {
    /// True when every job completed on its first attempt.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty() && self.recovered.is_empty()
    }

    /// Renders the report as deterministic, diff-friendly JSON (sorted
    /// fields, one job per line) — the format the CI fault-smoke leg diffs
    /// against its golden manifest.
    #[must_use]
    pub fn render_json(&self) -> String {
        let quote = |s: &str| {
            let mut q = String::new();
            write_string(&mut q, s);
            q
        };
        let section = |key: &str, items: Vec<String>| {
            if items.is_empty() {
                format!("  \"{key}\": []")
            } else {
                format!("  \"{key}\": [\n    {}\n  ]", items.join(",\n    "))
            }
        };
        let completed = self.completed.iter().map(|n| quote(n)).collect();
        let recovered = (self.recovered.iter())
            .map(|(n, a)| format!("{{\"job\":{},\"retries\":{a}}}", quote(n)))
            .collect();
        let failed = (self.failed.iter())
            .map(|(n, e)| format!("{{\"job\":{},\"error\":{}}}", quote(n), quote(e)))
            .collect();
        format!(
            "{{\n{},\n{},\n{}\n}}\n",
            section("completed", completed),
            section("recovered", recovered),
            section("failed", failed),
        )
    }
}

enum JobState {
    /// `unmet` successful deps outstanding.
    Waiting {
        unmet: usize,
    },
    Running {
        started: Instant,
    },
    Resolved,
}

/// One completion message: job index, outcome, retries used.
type Completion = (usize, Result<String, JobError>, u32);

/// Worker → scheduler completion channel.
struct Inbox {
    done: Mutex<Vec<Completion>>,
    cv: Condvar,
}

/// A named-job dependency graph.
pub struct Dag {
    specs: Vec<JobSpec>,
    work: Vec<JobFn>,
    index: BTreeMap<String, usize>,
    faults: Option<Arc<FaultInjector>>,
    backoff_base: Duration,
    backoff_cap: Duration,
}

impl Default for Dag {
    fn default() -> Self {
        Self {
            specs: Vec::new(),
            work: Vec::new(),
            index: BTreeMap::new(),
            faults: None,
            // Decorrelated-jitter retry backoff: starts near `base`, grows
            // toward `cap`. Small defaults — retries here shield against
            // transient in-process failures, not remote services.
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dag")
            .field("jobs", &self.specs.len())
            .finish()
    }
}

impl Dag {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of jobs added.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no jobs were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Arms deterministic fault injection: every job attempt consults
    /// `injector` at [`reram_fault::site::JOB_PANIC`] and
    /// [`reram_fault::site::JOB_STALL`] (target = job name), and recovered
    /// injections are reported back through it.
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Overrides the retry backoff window (decorrelated jitter between
    /// `base` and `cap`); `Duration::ZERO` for `base` disables sleeping
    /// between retries entirely.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Adds a job. Duplicate names are reported by [`Dag::run`], not here,
    /// so construction stays infallible for builder-style call sites.
    pub fn add(
        &mut self,
        spec: JobSpec,
        work: impl Fn(&JobCtx) -> Result<String, String> + Send + Sync + 'static,
    ) {
        self.index
            .entry(spec.name.clone())
            .or_insert(self.specs.len());
        self.specs.push(spec);
        self.work.push(Arc::new(work));
    }

    /// Validates the graph: duplicates, unknown deps, cycles (Kahn).
    fn validate(&self) -> Result<(), DagError> {
        let mut seen = BTreeSet::new();
        for s in &self.specs {
            if !seen.insert(s.name.as_str()) {
                return Err(DagError::Duplicate(s.name.clone()));
            }
        }
        for s in &self.specs {
            for d in &s.deps {
                if !self.index.contains_key(d) {
                    return Err(DagError::UnknownDep {
                        job: s.name.clone(),
                        dep: d.clone(),
                    });
                }
            }
        }
        let n = self.specs.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.specs.iter().enumerate() {
            for d in &s.deps {
                indeg[i] += 1;
                out[self.index[d]].push(i);
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop_front() {
            visited += 1;
            for &k in &out[i] {
                indeg[k] -= 1;
                if indeg[k] == 0 {
                    queue.push_back(k);
                }
            }
        }
        if visited != n {
            let cyclic: Vec<String> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.specs[i].name.clone())
                .collect();
            return Err(DagError::Cycle(cyclic));
        }
        Ok(())
    }

    /// Builds the attempt loop for job `i` as an owned closure.
    fn attempt_fn(
        &self,
        i: usize,
        deps: BTreeMap<String, String>,
        cancel: Arc<AtomicBool>,
    ) -> impl FnOnce() -> (Result<String, JobError>, u32) {
        let name = self.specs[i].name.clone();
        let retries = self.specs[i].retries;
        let work = Arc::clone(&self.work[i]);
        let faults = self.faults.clone();
        let (base, cap) = (self.backoff_base, self.backoff_cap);
        move || {
            // Per-job jitter stream: deterministic for a given job name, so
            // retry pacing never depends on worker identity.
            let mut jitter = Rng64::new(name_seed(&name));
            let mut prev_backoff = base;
            let mut attempt = 0u32;
            let mut injected = false;
            loop {
                // Injection hooks, consulted once per attempt. A stall is
                // resolved as the deadline machinery would resolve it —
                // unrecoverable by retrying, because the worker is (as
                // modeled) still occupied.
                if let Some(inj) = &faults {
                    if let Some(f) = inj.fire(reram_fault::site::JOB_STALL, &name) {
                        if f.kind == FaultKind::JobStall {
                            let ms = if f.param > 0.0 { f.param } else { 1.0 };
                            let after = Duration::from_millis(ms as u64);
                            return (Err(JobError::TimedOut { after }), attempt);
                        }
                    }
                }
                let injected_panic = faults
                    .as_ref()
                    .and_then(|inj| inj.fire(reram_fault::site::JOB_PANIC, &name))
                    .is_some_and(|f| f.kind == FaultKind::JobPanic);
                let outcome = if injected_panic {
                    injected = true;
                    JobError::Panicked("injected fault: job panic".to_string())
                } else {
                    let ctx = JobCtx {
                        name: name.clone(),
                        attempt,
                        deps: deps.clone(),
                        cancel: Arc::clone(&cancel),
                    };
                    match catch_unwind(AssertUnwindSafe(|| work(&ctx))) {
                        Ok(Ok(payload)) => {
                            if injected {
                                if let Some(inj) = &faults {
                                    inj.note_recovery("exec.job", "retry");
                                }
                            }
                            return (Ok(payload), attempt);
                        }
                        Ok(Err(e)) => JobError::Failed(e),
                        Err(p) => JobError::Panicked(crate::panic_message(p.as_ref())),
                    }
                };
                if attempt >= retries || cancel.load(Ordering::Relaxed) {
                    return (Err(outcome), attempt);
                }
                attempt += 1;
                // Decorrelated jitter (AWS Architecture Blog, "Exponential
                // Backoff And Jitter"): next ∈ [base, 3·prev), capped.
                if base > Duration::ZERO {
                    let lo = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX);
                    let hi = u64::try_from(prev_backoff.as_nanos())
                        .unwrap_or(u64::MAX)
                        .saturating_mul(3)
                        .max(lo.saturating_add(1));
                    let next = Duration::from_nanos(jitter.gen_range_u64(lo, hi)).min(cap);
                    std::thread::sleep(next);
                    prev_backoff = next;
                }
            }
        }
    }

    /// Runs the graph to completion on `pool`.
    ///
    /// With a `journal`, jobs already recorded done are skipped (their
    /// payloads feed dependents) and every job resolution is appended as it
    /// happens. `on_done` is invoked on the scheduler thread, in resolution
    /// order, for progress reporting.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] if the graph is malformed; individual job
    /// failures are reported per-job in the [`DagReport`] instead.
    pub fn run(
        &self,
        pool: &ThreadPool,
        mut journal: Option<&mut Journal>,
        mut on_done: impl FnMut(&str, &Result<String, JobError>),
    ) -> Result<DagReport, DagError> {
        self.validate()?;
        let n = self.specs.len();
        let obs = pool.obs().clone();
        let c_done = obs.counter("exec.dag.jobs_done");
        let c_failed = obs.counter("exec.dag.jobs_failed");
        let c_cached = obs.counter("exec.dag.jobs_cached");
        let c_retries = obs.counter("exec.dag.retries");
        let c_timeouts = obs.counter("exec.dag.timeouts");

        let mut report = DagReport {
            results: BTreeMap::new(),
            cached: BTreeSet::new(),
            attempts: BTreeMap::new(),
        };
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.specs.iter().enumerate() {
            for d in &s.deps {
                dependents[self.index[d]].push(i);
            }
        }
        let mut states: Vec<JobState> = self
            .specs
            .iter()
            .map(|s| JobState::Waiting {
                unmet: s.deps.len(),
            })
            .collect();
        let mut payloads: Vec<Option<String>> = vec![None; n];
        let mut failed: Vec<bool> = vec![false; n];
        let cancels: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let inbox = Arc::new(Inbox {
            done: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        });
        let inline = pool.workers() == 0;

        // Resolutions to apply, in deterministic order: (job, outcome,
        // from_cache, attempts when the job body actually ran). Cached jobs,
        // inline completions, worker completions and timeouts all funnel
        // through this queue.
        #[allow(clippy::type_complexity)]
        let mut to_resolve: VecDeque<(usize, Result<String, JobError>, bool, Option<u32>)> =
            VecDeque::new();
        let mut ready: VecDeque<usize> = VecDeque::new();
        for i in 0..n {
            let cached = journal
                .as_ref()
                .and_then(|j| j.completed().get(&self.specs[i].name).cloned());
            if let Some(p) = cached {
                to_resolve.push_back((i, Ok(p), true, None));
            } else if self.specs[i].deps.is_empty() {
                ready.push_back(i);
            }
        }

        let mut resolved = 0usize;
        while resolved < n {
            // 1. Apply pending resolutions (dedup guard: first wins).
            while let Some((i, outcome, from_cache, attempts)) = to_resolve.pop_front() {
                if matches!(states[i], JobState::Resolved) {
                    continue;
                }
                states[i] = JobState::Resolved;
                resolved += 1;
                let name = &self.specs[i].name;
                if let Some(a) = attempts {
                    report.attempts.insert(name.clone(), a);
                }
                if from_cache {
                    report.cached.insert(name.clone());
                    c_cached.inc();
                }
                match &outcome {
                    Ok(p) => {
                        if !from_cache {
                            if let Some(j) = journal.as_deref_mut() {
                                j.record_done(name, p);
                            }
                            c_done.inc();
                        }
                        payloads[i] = Some(p.clone());
                    }
                    Err(e) => {
                        if let Some(j) = journal.as_deref_mut() {
                            j.record_failed(name, &e.to_string());
                        }
                        c_failed.inc();
                        failed[i] = true;
                    }
                }
                on_done(name, &outcome);
                report.results.insert(name.clone(), outcome);
                for &k in &dependents[i] {
                    if failed[i] {
                        to_resolve.push_back((
                            k,
                            Err(JobError::DepFailed { dep: name.clone() }),
                            false,
                            None,
                        ));
                    } else if let JobState::Waiting { unmet } = &mut states[k] {
                        *unmet -= 1;
                        if *unmet == 0 {
                            ready.push_back(k);
                        }
                    }
                }
            }
            if resolved >= n {
                break;
            }

            // 2. Dispatch ready jobs. A job can reach the ready queue and
            // still be resolved already (journal-cached job whose deps also
            // resolved), so only Waiting jobs dispatch.
            while let Some(i) = ready.pop_front() {
                if !matches!(states[i], JobState::Waiting { .. }) {
                    continue;
                }
                states[i] = JobState::Running {
                    started: Instant::now(),
                };
                let deps: BTreeMap<String, String> = self.specs[i]
                    .deps
                    .iter()
                    .map(|d| {
                        let di = self.index[d];
                        (d.clone(), payloads[di].clone().expect("dep payload"))
                    })
                    .collect();
                let attempt = self.attempt_fn(i, deps, Arc::clone(&cancels[i]));
                if inline {
                    let (outcome, attempts) = attempt();
                    c_retries.add(u64::from(attempts));
                    to_resolve.push_back((i, outcome, false, Some(attempts)));
                } else {
                    let inbox2 = Arc::clone(&inbox);
                    pool.spawn(move || {
                        let (outcome, attempts) = attempt();
                        inbox2
                            .done
                            .lock()
                            .expect("dag inbox poisoned")
                            .push((i, outcome, attempts));
                        inbox2.cv.notify_all();
                    });
                }
            }
            if inline {
                // Inline completions are already queued; nothing to wait on.
                debug_assert!(!to_resolve.is_empty(), "validated DAG cannot stall");
                continue;
            }

            // 3. Wait for worker completions (or a deadline tick), then
            //    drain the inbox in deterministic (job-index) order.
            let has_deadline = self.specs.iter().any(|s| s.deadline.is_some());
            let tick = if has_deadline {
                Duration::from_millis(25)
            } else {
                Duration::from_millis(200)
            };
            let mut done = inbox.done.lock().expect("dag inbox poisoned");
            if done.is_empty() {
                done = inbox
                    .cv
                    .wait_timeout(done, tick)
                    .expect("dag inbox poisoned")
                    .0;
            }
            let mut completions: Vec<(usize, Result<String, JobError>, u32)> =
                done.drain(..).collect();
            drop(done);
            completions.sort_by_key(|(i, _, _)| *i);
            for (i, outcome, attempts) in completions {
                c_retries.add(u64::from(attempts));
                to_resolve.push_back((i, outcome, false, Some(attempts)));
            }
            // Deadline scan.
            let now = Instant::now();
            for i in 0..n {
                if let (JobState::Running { started }, Some(limit)) =
                    (&states[i], self.specs[i].deadline)
                {
                    let elapsed = now.duration_since(*started);
                    if elapsed > limit {
                        cancels[i].store(true, Ordering::Relaxed);
                        c_timeouts.inc();
                        to_resolve.push_back((
                            i,
                            Err(JobError::TimedOut { after: elapsed }),
                            false,
                            None,
                        ));
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_job(p: &str) -> impl Fn(&JobCtx) -> Result<String, String> + Send + Sync {
        let p = p.to_string();
        move |_ctx| Ok(p.clone())
    }

    #[test]
    fn runs_in_dependency_order_and_passes_payloads() {
        for pool in [ThreadPool::serial(), ThreadPool::new(4)] {
            let mut dag = Dag::new();
            dag.add(JobSpec::new("solve"), payload_job("42"));
            dag.add(JobSpec::new("calibrate").after("solve"), |ctx: &JobCtx| {
                Ok(format!("cal({})", ctx.dep("solve").unwrap()))
            });
            dag.add(JobSpec::new("figure").after("calibrate"), |ctx: &JobCtx| {
                Ok(format!("fig[{}]", ctx.dep("calibrate").unwrap()))
            });
            let report = dag.run(&pool, None, |_, _| {}).unwrap();
            assert_eq!(report.ok("figure"), Some("fig[cal(42)]"));
            assert!(report.failures().is_empty());
        }
    }

    #[test]
    fn cycle_is_detected_before_any_job_runs() {
        let ran = Arc::new(AtomicBool::new(false));
        let mut dag = Dag::new();
        let r = Arc::clone(&ran);
        dag.add(JobSpec::new("a").after("b"), move |_| {
            r.store(true, Ordering::SeqCst);
            Ok(String::new())
        });
        let r = Arc::clone(&ran);
        dag.add(JobSpec::new("b").after("a"), move |_| {
            r.store(true, Ordering::SeqCst);
            Ok(String::new())
        });
        let err = dag
            .run(&ThreadPool::serial(), None, |_, _| {})
            .expect_err("cycle");
        assert!(matches!(err, DagError::Cycle(_)), "{err}");
        assert!(!ran.load(Ordering::SeqCst), "no job may run");
    }

    #[test]
    fn unknown_dep_and_duplicate_are_rejected() {
        let mut dag = Dag::new();
        dag.add(JobSpec::new("a").after("ghost"), payload_job(""));
        let err = dag
            .run(&ThreadPool::serial(), None, |_, _| {})
            .expect_err("unknown dep");
        assert_eq!(
            err,
            DagError::UnknownDep {
                job: "a".into(),
                dep: "ghost".into()
            }
        );
        let mut dag = Dag::new();
        dag.add(JobSpec::new("a"), payload_job(""));
        dag.add(JobSpec::new("a"), payload_job(""));
        let err = dag
            .run(&ThreadPool::serial(), None, |_, _| {})
            .expect_err("duplicate");
        assert_eq!(err, DagError::Duplicate("a".into()));
    }

    #[test]
    fn panic_is_isolated_and_cascades_as_dep_failed() {
        for pool in [ThreadPool::serial(), ThreadPool::new(2)] {
            let mut dag = Dag::new();
            dag.add(JobSpec::new("ok"), payload_job("fine"));
            dag.add(
                JobSpec::new("boom"),
                |_: &JobCtx| -> Result<String, String> { panic!("poisoned job") },
            );
            dag.add(JobSpec::new("child").after("boom"), payload_job("never"));
            dag.add(
                JobSpec::new("grandchild").after("child"),
                payload_job("never"),
            );
            let report = dag.run(&pool, None, |_, _| {}).unwrap();
            assert_eq!(report.ok("ok"), Some("fine"), "healthy job unaffected");
            assert!(matches!(
                report.results["boom"],
                Err(JobError::Panicked(ref m)) if m.contains("poisoned")
            ));
            assert!(matches!(
                report.results["child"],
                Err(JobError::DepFailed { ref dep }) if dep == "boom"
            ));
            assert!(matches!(
                report.results["grandchild"],
                Err(JobError::DepFailed { ref dep }) if dep == "child"
            ));
        }
    }

    #[test]
    fn retries_eventually_succeed() {
        use std::sync::atomic::AtomicU32;
        let tries = Arc::new(AtomicU32::new(0));
        let mut dag = Dag::new();
        let t = Arc::clone(&tries);
        dag.add(JobSpec::new("flaky").retries(3), move |ctx: &JobCtx| {
            t.fetch_add(1, Ordering::SeqCst);
            if ctx.attempt < 2 {
                Err(format!("transient failure {}", ctx.attempt))
            } else {
                Ok("recovered".into())
            }
        });
        let report = dag.run(&ThreadPool::new(1), None, |_, _| {}).unwrap();
        assert_eq!(report.ok("flaky"), Some("recovered"));
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn deadline_cancels_straggler_without_hanging() {
        let mut dag = Dag::new();
        dag.add(
            JobSpec::new("straggler").deadline(Duration::from_millis(80)),
            |ctx: &JobCtx| {
                // A cooperative long job: polls for cancellation.
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_secs(30) {
                    if ctx.cancelled() {
                        return Err("saw cancellation".into());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok("finished?!".into())
            },
        );
        dag.add(JobSpec::new("quick"), payload_job("done"));
        let t0 = Instant::now();
        let report = dag.run(&ThreadPool::new(2), None, |_, _| {}).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "run must not hang on the straggler"
        );
        assert_eq!(report.ok("quick"), Some("done"));
        assert!(matches!(
            report.results["straggler"],
            Err(JobError::TimedOut { .. })
        ));
    }

    /// Satellite 3: a panicking job with a nested `par_map` must not leak
    /// its failure into the pool. The panic is isolated, the retry succeeds
    /// (running the nested fan-out again), no worker deadlocks, and the
    /// same pool serves a second DAG run afterwards.
    #[test]
    fn pool_survives_panicking_jobs_with_nested_par_map() {
        use crate::par_map;
        use std::sync::atomic::AtomicU32;
        let pool = ThreadPool::new(3);
        for round in 0..2 {
            let tries = Arc::new(AtomicU32::new(0));
            let mut dag = Dag::new().with_backoff(Duration::ZERO, Duration::ZERO);
            for j in 0..4 {
                let t = Arc::clone(&tries);
                dag.add(
                    JobSpec::new(format!("nested/{j}")).retries(1),
                    move |ctx: &JobCtx| {
                        t.fetch_add(1, Ordering::SeqCst);
                        // Nested fan-out on the same pool from inside a
                        // pool-executed job: the caller participates, so
                        // this must not deadlock even with every worker
                        // busy running one of these jobs.
                        let pool = ThreadPool::serial();
                        let parts = par_map(&pool, (0..8u64).collect(), |_k, &x| x + 1);
                        if ctx.attempt == 0 {
                            panic!("transient panic in nested/{j}");
                        }
                        Ok(parts.iter().sum::<u64>().to_string())
                    },
                );
            }
            let report = dag.run(&pool, None, |_, _| {}).unwrap();
            for j in 0..4 {
                assert_eq!(
                    report.ok(&format!("nested/{j}")),
                    Some("36"),
                    "round {round}"
                );
                assert_eq!(report.attempts[&format!("nested/{j}")], 1);
            }
            assert_eq!(tries.load(Ordering::SeqCst), 8, "each job ran twice");
            let rr = report.run_report();
            assert_eq!(rr.completed.len(), 4);
            assert_eq!(rr.recovered.len(), 4, "all four recovered via retry");
            assert!(rr.failed.is_empty());
        }
        // The pool is still fully functional after two panic-heavy runs.
        let check = par_map(&pool, (0..64u64).collect(), |_i, &x| x * 2);
        assert_eq!(check[63], 126);
    }

    #[test]
    fn injected_job_panic_recovers_by_retry_and_stall_does_not() {
        use reram_fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = || {
            FaultPlan::new(1)
                .with(
                    FaultSpec::new(reram_fault::site::JOB_PANIC, FaultKind::JobPanic)
                        .target("flaky"),
                )
                .with(
                    FaultSpec::new(reram_fault::site::JOB_STALL, FaultKind::JobStall)
                        .target("stuck")
                        .param(250.0),
                )
        };
        for pool in [ThreadPool::serial(), ThreadPool::new(2)] {
            let inj = Arc::new(FaultInjector::new(plan(), &reram_obs::Obs::off()));
            let mut dag = Dag::new()
                .with_faults(Arc::clone(&inj))
                .with_backoff(Duration::ZERO, Duration::ZERO);
            dag.add(JobSpec::new("flaky").retries(2), payload_job("ok"));
            dag.add(JobSpec::new("stuck"), payload_job("never"));
            dag.add(JobSpec::new("clean"), payload_job("fine"));
            let report = dag.run(&pool, None, |_, _| {}).unwrap();
            assert_eq!(report.ok("flaky"), Some("ok"), "panic absorbed by retry");
            assert_eq!(report.attempts["flaky"], 1);
            assert!(matches!(
                report.results["stuck"],
                Err(JobError::TimedOut { .. })
            ));
            assert_eq!(report.ok("clean"), Some("fine"));
            assert_eq!(inj.injected(), 2);
            assert_eq!(inj.recovered(), 1, "only the panic recovers");
            let rr = report.run_report();
            assert_eq!(rr.recovered, vec![("flaky".to_string(), 1)]);
            assert_eq!(rr.failed.len(), 1);
            assert!(rr.failed[0].1.contains("timed out"), "{:?}", rr.failed);
        }
    }

    #[test]
    fn run_report_json_is_stable() {
        let rr = RunReport {
            completed: vec!["a".into(), "b".into()],
            recovered: vec![("b".into(), 2)],
            failed: vec![("c".into(), "timed out after 0.25 s".into())],
        };
        let text = rr.render_json();
        assert_eq!(text, rr.render_json(), "deterministic");
        assert!(text.contains("\"completed\""));
        assert!(text.contains("{\"job\":\"b\",\"retries\":2}"));
        assert!(text.contains("{\"job\":\"c\",\"error\":\"timed out after 0.25 s\"}"));
        let empty = RunReport {
            completed: vec![],
            recovered: vec![],
            failed: vec![],
        };
        assert!(empty.is_clean());
        assert!(empty.render_json().ends_with("\"failed\": []\n}\n"));
    }

    #[test]
    fn journal_resume_skips_completed_jobs() {
        use std::sync::atomic::AtomicU32;
        let dir = std::env::temp_dir().join("reram_exec_dag_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _unused = std::fs::remove_file(&path);

        let build = |runs: Arc<AtomicU32>, fail_c: bool| {
            let mut dag = Dag::new();
            let r = Arc::clone(&runs);
            dag.add(JobSpec::new("a"), move |_: &JobCtx| {
                r.fetch_add(1, Ordering::SeqCst);
                Ok("A".into())
            });
            let r = Arc::clone(&runs);
            dag.add(JobSpec::new("b").after("a"), move |ctx: &JobCtx| {
                r.fetch_add(1, Ordering::SeqCst);
                Ok(format!("B+{}", ctx.dep("a").unwrap()))
            });
            let r = Arc::clone(&runs);
            dag.add(JobSpec::new("c").after("b"), move |ctx: &JobCtx| {
                r.fetch_add(1, Ordering::SeqCst);
                if fail_c {
                    Err("killed".into())
                } else {
                    Ok(format!("C+{}", ctx.dep("b").unwrap()))
                }
            });
            dag
        };

        // First run: a and b complete, c "dies".
        let runs1 = Arc::new(AtomicU32::new(0));
        let mut j = Journal::open(&path).unwrap();
        let report = build(Arc::clone(&runs1), true)
            .run(&ThreadPool::serial(), Some(&mut j), |_, _| {})
            .unwrap();
        assert_eq!(runs1.load(Ordering::SeqCst), 3);
        assert!(matches!(report.results["c"], Err(JobError::Failed(_))));
        drop(j);

        // Resume: only c reruns; b's payload comes from the journal.
        let runs2 = Arc::new(AtomicU32::new(0));
        let mut j = Journal::open(&path).unwrap();
        let report = build(Arc::clone(&runs2), false)
            .run(&ThreadPool::serial(), Some(&mut j), |_, _| {})
            .unwrap();
        assert_eq!(runs2.load(Ordering::SeqCst), 1, "only c reruns");
        assert_eq!(report.ok("c"), Some("C+B+A"));
        assert_eq!(report.cached.len(), 2);
        assert!(report.cached.contains("a") && report.cached.contains("b"));
    }
}
