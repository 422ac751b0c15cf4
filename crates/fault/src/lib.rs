//! Deterministic fault injection for the reram-vdrop workspace.
//!
//! A [`FaultPlan`] is a list of *scheduled* faults, each keyed by an
//! injection **site** (a stable string like `circuit.solve` or
//! `exec.journal.corrupt`), an optional **target** qualifier (a job name, a
//! line index, …) and an **occurrence** index: the fault fires on the
//! `occurrence`-th time that (site, target) stream is consulted, and never
//! again. Layers that opt into injection hold an [`Arc<FaultInjector>`] and
//! call [`FaultInjector::fire`] at their hook points; with no matching
//! spec the call is a counter increment and a `BTreeMap` probe — cheap
//! enough to leave compiled in.
//!
//! # Determinism
//!
//! Two properties make a faulted run bitwise-reproducible:
//!
//! * Occurrence counters are kept **per (site, target) stream**, so
//!   concurrent streams (e.g. DAG jobs on different workers) never race for
//!   the same occurrence slot — each stream sees its own deterministic
//!   0, 1, 2, … sequence as long as the stream itself is fired from
//!   deterministic code.
//! * Random fault *parameters* (e.g. corruption offsets) come from the
//!   in-repo xoshiro PRNG seeded by [`FaultPlan::seed`], drawn via
//!   [`FaultInjector::rand_below`]. Call it only from sites that are
//!   themselves serialized (the DAG scheduler thread, a single-threaded
//!   sweep) and the draw sequence is reproducible.
//!
//! Every injection emits `fault.injected` / `fault.<site>` telemetry and a
//! `fault.injected` event through [`reram_obs`]; recovery paths report
//! back through [`FaultInjector::note_recovery`] (`recovery.<site>`).
//!
//! # Plan files
//!
//! Plans round-trip through a tiny hand-rolled JSON subset (no external
//! parsers in this workspace):
//!
//! ```json
//! {
//!   "seed": 42,
//!   "faults": [
//!     {"site": "circuit.solve", "kind": "solver_not_converged", "occurrence": 0},
//!     {"site": "exec.job.panic", "target": "fig19/1", "kind": "job_panic", "occurrence": 0},
//!     {"site": "mem.pump.droop", "kind": "pump_droop", "occurrence": 2, "param": 0.25}
//!   ]
//! }
//! ```

mod json;

pub use json::PlanError;

use reram_obs::{Obs, Value};
use reram_workloads::Rng64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Canonical site names used by the workspace's built-in hooks. Plans may
/// use any string; these constants just keep the layers and the docs in
/// agreement.
pub mod site {
    /// Solver entry: consulted once per solve attempt.
    pub const SOLVER: &str = "circuit.solve";
    /// Charge-pump output check: consulted once per serviced write.
    pub const PUMP: &str = "mem.pump.droop";
    /// Write-verify comparison: consulted once per verified line write.
    pub const VERIFY: &str = "mem.verify.miscompare";
    /// Cell stuck-at: consulted once per verified line write.
    pub const CELL: &str = "mem.cell.stuck";
    /// Job body: consulted once per attempt (target = job name).
    pub const JOB_PANIC: &str = "exec.job.panic";
    /// Job stall: consulted once per attempt (target = job name).
    pub const JOB_STALL: &str = "exec.job.stall";
    /// Journal append: consulted once per record (target = job name).
    pub const JOURNAL: &str = "exec.journal.corrupt";
    /// Service connection: consulted once per received frame (target =
    /// `conn<id>`).
    pub const CONN_DROP: &str = "serve.conn.drop";
    /// Shard batch loop: consulted once per batch (target = `shard<idx>`).
    pub const SHARD_STALL: &str = "serve.shard.stall";
    /// Response framing: consulted once per response (target = `conn<id>`).
    pub const RESP_CORRUPT: &str = "serve.resp.corrupt";
    /// Cluster pump heartbeat: consulted once per pump tick (target =
    /// `group`); fires a leader kill at the scheduled tick.
    pub const LEADER_KILL: &str = "cluster.leader.kill";
    /// Cluster pump heartbeat: consulted once per pump tick per replica
    /// (target = `peer<id>`); isolates that replica for `param` ticks.
    pub const PARTITION: &str = "cluster.net.partition";
    /// Cluster message delivery: consulted once per delivered message
    /// (target = `peer<id>`); rewrites the message's term to a stale value
    /// so the receiver's term checks must reject it.
    pub const STALE_TERM: &str = "cluster.msg.stale_term";
    /// WAL record append: consulted once per persisted record (target =
    /// the log's target label, e.g. `replica<id>`); injects torn writes,
    /// bit rot, or lost fsyncs into the record just written.
    pub const WAL_APPEND: &str = "durable.wal.append";
    /// WAL replay: consulted once per segment opened during recovery
    /// (target = the log's target label); truncates the read mid-record to
    /// model a short read.
    pub const WAL_REPLAY: &str = "durable.wal.replay";
    /// Durable persistence point: consulted once per batch of records
    /// persisted by a replica (target = `replica<id>`); a fired
    /// [`FaultKind::ReplicaCrash`] kills the replica process-style right
    /// after that persistence point, keeping its on-disk state.
    pub const CRASH: &str = "durable.crash";
}

/// What kind of failure to inject. The `param` on the [`FaultSpec`] scales
/// the fault where that makes sense (volts of droop, amps of residual bias,
/// milliseconds of stall, bytes to corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Solver reports `NotConverged` without iterating.
    SolverNotConverged,
    /// Solver reports a singular line system (`param` = line index).
    SolverSingularLine,
    /// Solver's KCL residual check is biased by `param` amperes, so the
    /// converged iterate is rejected (models a corrupted linearization).
    SolverPerturbLinearization,
    /// Charge-pump output sags by `param` volts for one write.
    PumpDroop,
    /// Charge pump sticks at its lowest DRVR level for one write.
    PumpLevelStuck,
    /// Write-verify readback miscompares once (transient write failure).
    VerifyMiscompare,
    /// A cell sticks at its current state (`param` = cell index within the
    /// line; wear-independent, permanent).
    CellStuck,
    /// Job body panics on this attempt.
    JobPanic,
    /// Job body stalls `param` milliseconds (drives deadline overruns).
    JobStall,
    /// The journal record being appended is corrupted (`param` = number of
    /// byte flips, default 1).
    JournalCorrupt,
    /// The server drops a client connection abruptly (the client's
    /// reconnect-and-resend ladder absorbs it).
    ConnDrop,
    /// A service shard stalls `param` milliseconds; admission control sheds
    /// load with `Busy` while it lasts and slow-starts on recovery.
    ShardStall,
    /// One response frame's payload is corrupted in flight; the wire CRC
    /// catches it and the client re-requests.
    RespCorrupt,
    /// The current cluster leader is killed (process-style: its listener
    /// stops and its replica stays dead); the survivors elect a successor
    /// and clients follow `NotLeader` redirects.
    LeaderKill,
    /// One replica is isolated from the cluster bus for `param` pump ticks
    /// (default 50); it catches up from the leader's log or a snapshot when
    /// the partition heals.
    Partition,
    /// A delivered cluster message has its term rewound to a stale value;
    /// the receiver's term checks must reject it without state damage.
    StaleTerm,
    /// A WAL record append writes only a prefix of the record (power cut
    /// mid-write); recovery must truncate the torn tail, never apply it.
    TornWrite,
    /// A WAL segment read stops mid-record during replay (`param` = bytes
    /// to cut, default half a record); handled exactly like a torn tail.
    ShortRead,
    /// One byte of the record just written is flipped on media (`param` =
    /// byte offset, default drawn from the plan PRNG); the record CRC must
    /// catch it on replay and the suffix is discarded, never applied.
    BitRot,
    /// The record append is acknowledged but the bytes never reach the
    /// media (a lost buffered write / dropped fsync); recovery comes back
    /// without the record and re-replicates it from the leader.
    LostFsync,
    /// The replica is killed process-style at the persistence point where
    /// this fires, keeping its on-disk state; the crashpoint harness
    /// restarts it and asserts byte-identical recovery.
    ReplicaCrash,
}

impl FaultKind {
    /// Stable plan-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SolverNotConverged => "solver_not_converged",
            FaultKind::SolverSingularLine => "solver_singular_line",
            FaultKind::SolverPerturbLinearization => "solver_perturb_linearization",
            FaultKind::PumpDroop => "pump_droop",
            FaultKind::PumpLevelStuck => "pump_level_stuck",
            FaultKind::VerifyMiscompare => "verify_miscompare",
            FaultKind::CellStuck => "cell_stuck",
            FaultKind::JobPanic => "job_panic",
            FaultKind::JobStall => "job_stall",
            FaultKind::JournalCorrupt => "journal_corrupt",
            FaultKind::ConnDrop => "conn_drop",
            FaultKind::ShardStall => "shard_stall",
            FaultKind::RespCorrupt => "resp_corrupt",
            FaultKind::LeaderKill => "leader_kill",
            FaultKind::Partition => "partition",
            FaultKind::StaleTerm => "stale_term",
            FaultKind::TornWrite => "torn_write",
            FaultKind::ShortRead => "short_read",
            FaultKind::BitRot => "bit_rot",
            FaultKind::LostFsync => "lost_fsync",
            FaultKind::ReplicaCrash => "replica_crash",
        }
    }

    /// Parses a plan-file name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "solver_not_converged" => FaultKind::SolverNotConverged,
            "solver_singular_line" => FaultKind::SolverSingularLine,
            "solver_perturb_linearization" => FaultKind::SolverPerturbLinearization,
            "pump_droop" => FaultKind::PumpDroop,
            "pump_level_stuck" => FaultKind::PumpLevelStuck,
            "verify_miscompare" => FaultKind::VerifyMiscompare,
            "cell_stuck" => FaultKind::CellStuck,
            "job_panic" => FaultKind::JobPanic,
            "job_stall" => FaultKind::JobStall,
            "journal_corrupt" => FaultKind::JournalCorrupt,
            "conn_drop" => FaultKind::ConnDrop,
            "shard_stall" => FaultKind::ShardStall,
            "resp_corrupt" => FaultKind::RespCorrupt,
            "leader_kill" => FaultKind::LeaderKill,
            "partition" => FaultKind::Partition,
            "stale_term" => FaultKind::StaleTerm,
            "torn_write" => FaultKind::TornWrite,
            "short_read" => FaultKind::ShortRead,
            "bit_rot" => FaultKind::BitRot,
            "lost_fsync" => FaultKind::LostFsync,
            "replica_crash" => FaultKind::ReplicaCrash,
            _ => return None,
        })
    }

    /// True for faults the paired recovery ladder is contractually able to
    /// absorb (see DESIGN.md §9): the run completes with output identical
    /// to (solver) or functionally equivalent to (mem, exec) the fault-free
    /// run. Unrecoverable kinds may surface in a run's failure manifest.
    #[must_use]
    pub fn recoverable(self) -> bool {
        !matches!(self, FaultKind::CellStuck | FaultKind::JobStall)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Injection site (see [`site`]).
    pub site: String,
    /// Optional qualifier the hook supplies (job name, line index, array
    /// size…); `None` matches any target at the site.
    pub target: Option<String>,
    /// Fires on the `occurrence`-th consultation of the (site, target)
    /// stream (0-based).
    pub occurrence: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// Kind-specific magnitude; 0.0 means "the kind's default".
    pub param: f64,
}

impl FaultSpec {
    /// A spec firing on the first consultation of `site`, any target.
    #[must_use]
    pub fn new(site: impl Into<String>, kind: FaultKind) -> Self {
        Self {
            site: site.into(),
            target: None,
            occurrence: 0,
            kind,
            param: 0.0,
        }
    }

    /// Restricts the spec to one target stream.
    #[must_use]
    pub fn target(mut self, t: impl Into<String>) -> Self {
        self.target = Some(t.into());
        self
    }

    /// Sets the occurrence index.
    #[must_use]
    pub fn occurrence(mut self, n: u64) -> Self {
        self.occurrence = n;
        self
    }

    /// Sets the kind-specific parameter.
    #[must_use]
    pub fn param(mut self, p: f64) -> Self {
        self.param = p;
        self
    }
}

/// A deterministic, seeded schedule of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seeds the injector's parameter PRNG.
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given PRNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a spec (builder style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Parses the JSON plan format shown in the crate docs.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] describing the first syntactic or semantic
    /// problem (unknown kind, missing site, non-numeric seed…).
    pub fn parse_json(text: &str) -> Result<Self, PlanError> {
        json::parse_plan(text)
    }

    /// Reads and parses a plan file.
    ///
    /// # Errors
    ///
    /// [`PlanError::Io`] on filesystem errors, otherwise as
    /// [`FaultPlan::parse_json`].
    pub fn load(path: &std::path::Path) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PlanError::Io(format!("{}: {e}", path.display())))?;
        Self::parse_json(&text)
    }

    /// Renders the plan back to its JSON format (used by tests and to echo
    /// the effective plan into run manifests).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::render_plan(self)
    }

    /// Number of distinct [`FaultKind`]s scheduled.
    #[must_use]
    pub fn distinct_kinds(&self) -> usize {
        let mut kinds: Vec<&str> = self.faults.iter().map(|f| f.kind.name()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds.len()
    }
}

/// A fired fault, as seen by a hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Kind-specific magnitude (0.0 = kind default).
    pub param: f64,
}

/// The live injection plane: owns the plan, the per-stream occurrence
/// counters and the parameter PRNG. Shared across layers as an
/// `Arc<FaultInjector>`.
#[derive(Debug)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    counts: Mutex<BTreeMap<(String, String), u64>>,
    rng: Mutex<Rng64>,
    injected: AtomicU64,
    recovered: AtomicU64,
    obs: Obs,
}

impl FaultInjector {
    /// Arms `plan` against the given telemetry handle.
    #[must_use]
    pub fn new(plan: FaultPlan, obs: &Obs) -> Self {
        Self {
            rng: Mutex::new(Rng64::new(plan.seed)),
            specs: plan.faults,
            counts: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            obs: obs.clone(),
        }
    }

    /// Consults the (site, target) stream: advances its occurrence counter
    /// and returns the scheduled fault, if any. Specs with a target match
    /// only that stream; specs without match every stream at the site.
    pub fn fire(&self, site: &str, target: &str) -> Option<Fault> {
        let occurrence = {
            let mut counts = self.counts.lock().expect("fault counters poisoned");
            let c = counts
                .entry((site.to_string(), target.to_string()))
                .or_insert(0);
            let o = *c;
            *c += 1;
            o
        };
        let spec = self.specs.iter().find(|s| {
            s.site == site
                && s.occurrence == occurrence
                && s.target.as_deref().is_none_or(|t| t == target)
        })?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.obs.counter("fault.injected").inc();
        self.obs.counter(&format!("fault.{site}")).inc();
        self.obs.event(
            "fault.injected",
            &[
                ("site", Value::Str(site.to_string())),
                ("target", Value::Str(target.to_string())),
                ("kind", Value::Str(spec.kind.name().to_string())),
                ("occurrence", Value::U64(occurrence)),
            ],
        );
        Some(Fault {
            kind: spec.kind,
            param: spec.param,
        })
    }

    /// Reports that a layer's recovery ladder absorbed a fault (or a real
    /// failure): emits `recovery.<site>` and a `recovery` event naming the
    /// `action` taken (ladder rung, retry, quarantine…).
    pub fn note_recovery(&self, site: &str, action: &str) {
        self.recovered.fetch_add(1, Ordering::Relaxed);
        self.obs.counter("fault.recovered").inc();
        self.obs.counter(&format!("recovery.{site}")).inc();
        self.obs.event(
            "recovery",
            &[
                ("site", Value::Str(site.to_string())),
                ("action", Value::Str(action.to_string())),
            ],
        );
    }

    /// A deterministic draw in `[0, n)` from the plan-seeded PRNG (fault
    /// parameters only — see the crate docs for the serialization caveat).
    /// `n` must be positive.
    pub fn rand_below(&self, n: u64) -> u64 {
        self.rng
            .lock()
            .expect("fault rng poisoned")
            .gen_u64_below(n.max(1))
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Recoveries reported so far.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// The telemetry handle the injector was armed with (lets layers that
    /// carry no [`Obs`] of their own emit through the injector's).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(7)
            .with(FaultSpec::new(site::SOLVER, FaultKind::SolverNotConverged).occurrence(1))
            .with(
                FaultSpec::new(site::JOB_PANIC, FaultKind::JobPanic)
                    .target("fig19/1")
                    .occurrence(0),
            )
            .with(FaultSpec::new(site::PUMP, FaultKind::PumpDroop).param(0.25))
    }

    #[test]
    fn fires_on_exact_occurrence_only() {
        let inj = FaultInjector::new(plan(), &Obs::off());
        assert_eq!(inj.fire(site::SOLVER, ""), None, "occurrence 0");
        let f = inj.fire(site::SOLVER, "").expect("occurrence 1");
        assert_eq!(f.kind, FaultKind::SolverNotConverged);
        assert_eq!(inj.fire(site::SOLVER, ""), None, "occurrence 2: spent");
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn target_streams_are_independent() {
        let inj = FaultInjector::new(plan(), &Obs::off());
        assert_eq!(inj.fire(site::JOB_PANIC, "fig19/0"), None);
        assert_eq!(inj.fire(site::JOB_PANIC, "fig19/0"), None);
        // A different target has its own occurrence counter.
        let f = inj.fire(site::JOB_PANIC, "fig19/1").expect("targeted");
        assert_eq!(f.kind, FaultKind::JobPanic);
    }

    #[test]
    fn untargeted_spec_matches_any_target() {
        let inj = FaultInjector::new(plan(), &Obs::off());
        let f = inj.fire(site::PUMP, "line-9").expect("wildcard target");
        assert_eq!(f.kind, FaultKind::PumpDroop);
        assert_eq!(f.param, 0.25);
    }

    #[test]
    fn rand_below_is_seed_deterministic() {
        let a = FaultInjector::new(FaultPlan::new(99), &Obs::off());
        let b = FaultInjector::new(FaultPlan::new(99), &Obs::off());
        let da: Vec<u64> = (0..8).map(|_| a.rand_below(1000)).collect();
        let db: Vec<u64> = (0..8).map(|_| b.rand_below(1000)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&x| x != da[0]), "not a constant stream");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            FaultKind::SolverNotConverged,
            FaultKind::SolverSingularLine,
            FaultKind::SolverPerturbLinearization,
            FaultKind::PumpDroop,
            FaultKind::PumpLevelStuck,
            FaultKind::VerifyMiscompare,
            FaultKind::CellStuck,
            FaultKind::JobPanic,
            FaultKind::JobStall,
            FaultKind::JournalCorrupt,
            FaultKind::ConnDrop,
            FaultKind::ShardStall,
            FaultKind::RespCorrupt,
            FaultKind::LeaderKill,
            FaultKind::Partition,
            FaultKind::StaleTerm,
            FaultKind::TornWrite,
            FaultKind::ShortRead,
            FaultKind::BitRot,
            FaultKind::LostFsync,
            FaultKind::ReplicaCrash,
        ] {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("meteor_strike"), None);
    }

    #[test]
    fn plan_json_round_trips() {
        let p = plan();
        let text = p.to_json();
        let back = FaultPlan::parse_json(&text).expect("round trip");
        assert_eq!(back, p);
        assert_eq!(back.distinct_kinds(), 3);
        let big = FaultPlan::new((1 << 53) + 1);
        assert_eq!(FaultPlan::parse_json(&big.to_json()), Ok(big));
    }

    #[test]
    fn recovery_notes_count() {
        let inj = FaultInjector::new(FaultPlan::new(0), &Obs::off());
        inj.note_recovery("solver", "cold_restart");
        inj.note_recovery("verify", "retry=2");
        assert_eq!(inj.recovered(), 2);
    }

    #[test]
    fn fault_and_recovery_counters_land_in_the_telemetry_summary() {
        let obs = Obs::new();
        let plan = FaultPlan::new(11).with(
            FaultSpec::new(site::WAL_APPEND, FaultKind::TornWrite)
                .target("replica1")
                .occurrence(0),
        );
        let inj = FaultInjector::new(plan, &obs);
        inj.fire(site::WAL_APPEND, "replica1").expect("armed");
        inj.note_recovery(site::WAL_REPLAY, "truncate_to_last_good");
        let json = obs.summary_json();
        for row in [
            "\"fault.injected\"",
            "\"fault.durable.wal.append\"",
            "\"fault.recovered\"",
            "\"recovery.durable.wal.replay\"",
        ] {
            assert!(json.contains(row), "summary_json missing {row}: {json}");
        }
        let csv = obs.summary_csv();
        assert!(csv.contains("recovery.durable.wal.replay"));
    }
}
