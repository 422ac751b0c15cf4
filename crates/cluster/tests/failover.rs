//! Live failover drill: a leader kill mid-run must be byte-invisible in
//! the client's outcome ledger (PR 7 acceptance).
//!
//! Two runs of the same seeded workload against a real 3-replica
//! [`ClusterGroup`] over TCP: a fault-free baseline and a run whose
//! leader is killed mid-traffic by a [`FaultPlan`]. Clients follow
//! `NotLeader` redirects and rotate off the dead peer; every write
//! re-resolves against the successor. Because duplicate applies of
//! identical data are idempotent through the write-verify ladder, the
//! two runs' ledger digests must be identical — and the surviving
//! replicas must converge on one replicated-log digest.
//!
//! The kill is pinned to a pump tick, and a fast host can finish a fixed
//! amount of traffic before that tick. So the workload runs in seeded
//! rounds: the kill run keeps starting rounds until the plan has fired and
//! one whole round has run after it, and the baseline runs the same number
//! of rounds.

use reram_cluster::{ClusterGroup, GroupConfig};
use reram_fault::{site, FaultInjector, FaultKind, FaultPlan, FaultSpec};
use reram_loadgen::{LoadConfig, LoadReport};
use reram_obs::{Obs, Tracer};
use reram_serve::ServeConfig;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xFA11_07E2;

struct DrillResult {
    /// One load report per round, in order.
    rounds: Vec<LoadReport>,
    replica_digests: Vec<Option<u32>>,
    killed: bool,
}

impl DrillResult {
    fn total(&self, field: fn(&LoadReport) -> u64) -> u64 {
        self.rounds.iter().map(field).sum()
    }

    fn ledgers(&self) -> Vec<u32> {
        self.rounds.iter().map(|r| r.ledger_crc).collect()
    }
}

/// Runs at least `min_rounds` rounds of the seeded workload (round `r` on
/// seed `SEED + r`); with a kill plan, also until a round has started
/// after the plan fired.
fn run_drill(kill_plan: Option<FaultPlan>, min_rounds: usize) -> DrillResult {
    let obs = Obs::new();
    let serve = ServeConfig {
        shards: 2,
        lines_per_shard: 1024,
        ..ServeConfig::default()
    };
    let gcfg = GroupConfig::new(serve, SEED);
    let faults = kill_plan.map(|plan| Arc::new(FaultInjector::new(plan, &obs)));
    let wants_kill = faults.is_some();
    let group =
        ClusterGroup::start(&gcfg, &obs, Tracer::off(), faults.clone()).expect("group starts");
    group
        .wait_for_leader(Duration::from_secs(10))
        .expect("initial election");

    let addrs = group.addrs();
    let mut lcfg = LoadConfig::new(addrs[0]);
    lcfg.peers = addrs.clone();
    lcfg.clients = 4;
    lcfg.requests_per_client = 400;
    lcfg.total_lines = 2 * 1024;
    lcfg.audit = true;
    let mut rounds = Vec::new();
    let mut ran_after_kill = false;
    while rounds.len() < min_rounds || (wants_kill && !ran_after_kill) {
        let fired = faults.as_ref().is_some_and(|f| f.injected() > 0);
        lcfg.seed = SEED + rounds.len() as u64;
        rounds.push(reram_loadgen::run(&lcfg, &obs));
        ran_after_kill |= fired;
    }

    assert!(
        group.wait_converged(Duration::from_secs(30)),
        "replicas did not converge after the run"
    );
    let replica_digests = group.ledger_digests();
    let killed = wants_kill && replica_digests.iter().filter(|d| d.is_none()).count() == 1;
    group.shutdown();
    DrillResult {
        rounds,
        replica_digests,
        killed,
    }
}

#[test]
fn leader_kill_mid_run_is_byte_invisible_in_the_ledger() {
    // Kill the leader a few hundred pump ticks in (1 ms ticks); the kill
    // run's rounds outlast that tick on any host.
    let plan = FaultPlan::new(SEED).with(
        FaultSpec::new(site::LEADER_KILL, FaultKind::LeaderKill)
            .target("group")
            .occurrence(120),
    );
    let drilled = run_drill(Some(plan), 1);
    let baseline = run_drill(None, drilled.rounds.len());
    assert_eq!(baseline.total(|r| r.audit_failures), 0, "baseline audit");
    assert_eq!(baseline.total(|r| r.read_mismatches), 0, "baseline reads");

    assert!(drilled.killed, "the fault plan never killed a leader");
    assert_eq!(drilled.total(|r| r.audit_failures), 0, "post-kill audit");
    assert_eq!(drilled.total(|r| r.read_mismatches), 0, "post-kill reads");
    assert!(
        drilled.total(|r| r.redirects) > 0,
        "clients never followed a NotLeader redirect"
    );
    assert_eq!(
        drilled.ledgers(),
        baseline.ledgers(),
        "leader kill perturbed the outcome ledger"
    );

    // Every surviving replica's replicated log folds to one digest.
    let live: Vec<u32> = drilled.replica_digests.iter().flatten().copied().collect();
    assert_eq!(live.len(), 2, "exactly one replica should be dead");
    assert_eq!(live[0], live[1], "survivors diverged");

    // The fault-free group converges to a single digest too. (It need not
    // match the kill run's: log digests fold in terms, and the kill run
    // elected twice.)
    let base_live: Vec<u32> = baseline.replica_digests.iter().flatten().copied().collect();
    assert_eq!(base_live.len(), 3);
    assert!(
        base_live.iter().all(|d| *d == base_live[0]),
        "baseline replicas diverged"
    );
}
