//! The `cluster` subcommand: run the replicated shard group and its
//! failover drill.
//!
//! ```text
//! experiments cluster [--replicas N] [--shards N] [--lines-per-shard N]
//!                     [--clients N] [--requests N] [--seed S]
//!                     [--mode majority|all] [--kill] [--kill-tick N] [--poll-stats MS]
//!                     [--faults PLAN.json] [--telemetry DIR] [--json PATH]
//! ```
//!
//! Runs the same seeded workload against an in-process N-replica
//! [`ClusterGroup`] twice: (with `--kill` or `--faults`) a **drill** whose
//! leader is killed mid-traffic, then a fault-free **baseline**. The
//! acceptance gate of the replication subsystem is printed at the end and
//! sets the exit code: the drill's outcome-ledger digests must be
//! **byte-identical** to the baseline's, and all surviving replicas must
//! fold their replicated logs to a single digest.
//!
//! The kill is pinned to a pump tick, and a fast host can finish a fixed
//! amount of traffic before that tick. So the workload runs in seeded
//! rounds (round `r` on seed `--seed + r`, one group for all rounds): the
//! drill keeps starting rounds until the plan has fired and one whole
//! round has run after it, and the baseline runs the same number of
//! rounds. Without a drill the baseline runs one round.
//!
//! `--kill` arms a built-in plan (one `cluster.leader.kill` at pump tick
//! `--kill-tick`, default 60); `--faults PLAN.json` loads an explicit
//! plan instead — CI's `cluster-smoke` leg uses the checked-in
//! `ci/cluster_fault_plan.json` so the drill schedule is reviewable.

use crate::serve_cmd::{finish_telemetry, load_faults, obs_for, parse_num};
use reram_cluster::{ClusterGroup, GroupConfig};
use reram_fault::{site, FaultInjector, FaultKind, FaultPlan, FaultSpec};
use reram_loadgen::{LoadConfig, LoadReport};
use reram_obs::{Obs, Tracer};
use reram_serve::{ReplicationMode, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Rounds a drill starts at most while its plan has not fired: a plan
/// that never kills a leader fails the kill gate instead of looping.
const MAX_DRILL_ROUNDS: usize = 1000;

struct DrillRun {
    /// One load report per round, in order.
    rounds: Vec<LoadReport>,
    digests: Vec<Option<u32>>,
    leader_kills: u64,
}

impl DrillRun {
    fn total(&self, field: fn(&LoadReport) -> u64) -> u64 {
        self.rounds.iter().map(field).sum()
    }

    fn ledgers(&self) -> Vec<u32> {
        self.rounds.iter().map(|r| r.ledger_crc).collect()
    }

    /// Resolved requests per second over every round.
    fn req_per_s(&self) -> f64 {
        let secs: f64 = self.rounds.iter().map(|r| r.elapsed_s).sum();
        self.total(|r| r.requests) as f64 / secs.max(f64::MIN_POSITIVE)
    }

    fn rounds_json(&self) -> String {
        let parts: Vec<String> = self.rounds.iter().map(|r| indent(&r.to_json())).collect();
        format!("[\n  {}\n]", parts.join(",\n  "))
    }
}

/// One full cluster run: elect, drive at least `min_rounds` rounds of the
/// workload (with `faults`, also until a round has started after the plan
/// fired), converge, digest.
fn run_once(
    gcfg: &GroupConfig,
    lcfg_base: &LoadConfig,
    obs: &Obs,
    faults: Option<Arc<FaultInjector>>,
    min_rounds: usize,
) -> Result<DrillRun, String> {
    let kills = || obs.counter("cluster.leader.kills").get();
    let kills_before = kills();
    let group = ClusterGroup::start(gcfg, obs, Tracer::off(), faults.clone())
        .map_err(|e| format!("cannot start cluster group: {e}"))?;
    group
        .wait_for_leader(Duration::from_secs(10))
        .ok_or("no leader elected within 10 s")?;
    let addrs = group.addrs();
    let mut lcfg = lcfg_base.clone();
    lcfg.addr = addrs[0];
    lcfg.peers = addrs;
    let mut rounds = Vec::new();
    let mut ran_after_fire = false;
    while rounds.len() < min_rounds
        || (faults.is_some() && !ran_after_fire && rounds.len() < MAX_DRILL_ROUNDS)
    {
        let fired = faults.as_ref().is_some_and(|f| f.injected() > 0);
        lcfg.seed = lcfg_base.seed + rounds.len() as u64;
        rounds.push(reram_loadgen::run(&lcfg, obs));
        ran_after_fire |= fired;
    }
    if !group.wait_converged(Duration::from_secs(30)) {
        return Err("replicas did not converge after the run".into());
    }
    let digests = group.ledger_digests();
    group.shutdown();
    Ok(DrillRun {
        rounds,
        digests,
        leader_kills: kills() - kills_before,
    })
}

fn digest_json(digests: &[Option<u32>]) -> String {
    let parts: Vec<String> = digests
        .iter()
        .map(|d| d.map_or("null".to_string(), |v| format!("\"{v:08x}\"")))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Re-indents a pretty-printed JSON object for embedding at depth 1.
fn indent(json: &str) -> String {
    json.replace('\n', "\n  ")
}

/// `experiments cluster ...` — replicated-group run + failover drill.
#[allow(clippy::too_many_lines)]
pub fn cluster_cmd(args: &[String]) -> ExitCode {
    let mut serve = ServeConfig {
        shards: 2,
        lines_per_shard: 1024,
        ..ServeConfig::default()
    };
    let mut replicas = 3u16;
    let mut clients = 4usize;
    let mut requests = 400u64;
    let mut seed = 2026u64;
    let mut mode = ReplicationMode::Majority;
    let mut kill = false;
    let mut kill_tick = 60u64;
    let mut poll_stats_ms = 0u64;
    let mut fault_path: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut it = args.iter().cloned();
    let parsed: Result<(), String> = (|| {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--replicas" => replicas = parse_num("--replicas", it.next())?,
                "--shards" => serve.shards = parse_num("--shards", it.next())?,
                "--lines-per-shard" => {
                    serve.lines_per_shard = parse_num("--lines-per-shard", it.next())?;
                }
                "--clients" => clients = parse_num("--clients", it.next())?,
                "--requests" => requests = parse_num("--requests", it.next())?,
                "--seed" => seed = parse_num("--seed", it.next())?,
                "--mode" => {
                    mode = match it.next().as_deref() {
                        Some("majority") => ReplicationMode::Majority,
                        Some("all") => ReplicationMode::All,
                        _ => return Err("--mode needs majority|all".into()),
                    };
                }
                "--kill" => kill = true,
                "--poll-stats" => poll_stats_ms = parse_num("--poll-stats", it.next())?,
                "--kill-tick" => kill_tick = parse_num("--kill-tick", it.next())?,
                "--faults" => {
                    fault_path = Some(PathBuf::from(it.next().ok_or("--faults needs a file")?));
                }
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a dir")?));
                }
                "--json" => {
                    json_path = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
                }
                other => return Err(format!("unknown cluster flag {other}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if replicas < 3 && (kill || fault_path.is_some()) {
        eprintln!("error: a failover drill needs --replicas 3 or more");
        return ExitCode::FAILURE;
    }

    // The kill gate reads `cluster.leader.kills`, so the registry must be
    // live even without a telemetry sink (Obs::off would pin it at 0).
    let obs = match telemetry.as_ref() {
        Some(_) => match obs_for(telemetry.as_ref()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Obs::new(),
    };
    let drill_faults = match fault_path.as_ref() {
        Some(_) => match load_faults(fault_path.as_ref(), &obs) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None if kill => {
            let plan = FaultPlan::new(seed).with(
                FaultSpec::new(site::LEADER_KILL, FaultKind::LeaderKill)
                    .target("group")
                    .occurrence(kill_tick),
            );
            Some(Arc::new(FaultInjector::new(plan, &obs)))
        }
        None => None,
    };

    let mut gcfg = GroupConfig::new(serve.clone(), seed);
    gcfg.replicas = replicas;
    gcfg.mode = mode;
    let mut lcfg = LoadConfig::new("127.0.0.1:0".parse().expect("literal addr"));
    lcfg.clients = clients;
    lcfg.requests_per_client = requests;
    lcfg.seed = seed;
    lcfg.total_lines = serve.shards as u64 * serve.lines_per_shard;
    lcfg.audit = true;
    lcfg.poll_stats_ms = poll_stats_ms;

    let mode_name = match mode {
        ReplicationMode::Majority => "majority",
        ReplicationMode::All => "all",
    };
    eprintln!(
        "[cluster: {replicas} replicas, mode {mode_name}, {clients} clients x {requests} reqs, \
         seed {seed}]"
    );
    let drill = match drill_faults {
        Some(f) => match run_once(&gcfg, &lcfg, &obs, Some(f), 1) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: drill run: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let rounds = drill.as_ref().map_or(1, |d| d.rounds.len());
    let baseline = match run_once(&gcfg, &lcfg, &obs, None, rounds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: baseline run: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[baseline: {rounds} round(s), {:.0} req/s, ledger {:08x}]",
        baseline.req_per_s(),
        baseline.rounds[0].ledger_crc
    );

    let Some(drill) = drill else {
        // No drill requested: report the baseline alone.
        let json = format!(
            "{{\n  \"replicas\": {replicas},\n  \"mode\": \"{mode_name}\",\n  \
             \"seed\": {seed},\n  \"baseline\": {},\n  \
             \"replica_digests\": {}\n}}",
            indent(&baseline.rounds[0].to_json()),
            digest_json(&baseline.digests),
        );
        println!("{json}");
        if let Some(p) = json_path.as_ref() {
            if let Err(e) = std::fs::write(p, json + "\n") {
                eprintln!("failed to write {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
        finish_telemetry(&obs, telemetry.as_ref());
        return ExitCode::SUCCESS;
    };

    // The gate: the drill must be byte-invisible in every round's client
    // ledger and leave the survivors on one replicated-log digest.
    let survivors: Vec<u32> = drill.digests.iter().flatten().copied().collect();
    let digests_match = baseline.ledgers() == drill.ledgers();
    let survivors_agree = !survivors.is_empty() && survivors.iter().all(|d| *d == survivors[0]);
    let clean = drill.total(|r| r.audit_failures) == 0 && drill.total(|r| r.read_mismatches) == 0;
    let killed = drill.leader_kills > 0;
    let redirects = drill.total(|r| r.redirects);
    eprintln!(
        "[drill: {rounds} round(s), {:.0} req/s, ledger {:08x}, {redirects} redirect(s), \
         {} kill(s), {} survivor(s)]",
        drill.req_per_s(),
        drill.rounds[0].ledger_crc,
        drill.leader_kills,
        survivors.len(),
    );

    let json = format!(
        "{{\n  \"replicas\": {replicas},\n  \"mode\": \"{mode_name}\",\n  \"seed\": {seed},\n  \
         \"rounds\": {rounds},\n  \"baseline\": {},\n  \"drill\": {},\n  \
         \"baseline_digests\": {},\n  \"drill_digests\": {},\n  \
         \"ledger_match\": {digests_match},\n  \"survivors_agree\": {survivors_agree}\n}}",
        indent(&baseline.rounds_json()),
        indent(&drill.rounds_json()),
        digest_json(&baseline.digests),
        digest_json(&drill.digests),
    );
    println!("{json}");
    if let Some(p) = json_path.as_ref() {
        if let Err(e) = std::fs::write(p, json + "\n") {
            eprintln!("failed to write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    finish_telemetry(&obs, telemetry.as_ref());

    let mut ok = true;
    for (cond, msg) in [
        (killed, "FAIL: the fault plan never killed a leader"),
        (
            !killed || redirects > 0,
            "FAIL: the leader kill never redirected a client",
        ),
        (
            clean,
            "FAIL: drill run had audit failures or read mismatches",
        ),
        (
            digests_match,
            "FAIL: drill ledger digest differs from the fault-free baseline",
        ),
        (survivors_agree, "FAIL: surviving replicas diverged"),
    ] {
        if !cond {
            eprintln!("{msg}");
            ok = false;
        }
    }
    if ok {
        eprintln!(
            "PASS: leader kill was byte-invisible (ledger {:08x}, {rounds} round(s))",
            drill.rounds[0].ledger_crc
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
