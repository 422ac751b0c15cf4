//! The `recovery` subcommand: the deterministic crash-recovery drill.
//!
//! ```text
//! experiments recovery [--shards N] [--lines-per-shard N] [--clients N]
//!                      [--requests N] [--seed S] [--segment-records N]
//!                      [--plan ci/crash_plan.json] [--dir DIR]
//!                      [--telemetry DIR] [--json PATH]
//! ```
//!
//! Runs the seeded workload against a 3-replica **durable**
//! [`ClusterGroup`] once fault-free (the baseline), then once per case in
//! the crash plan. Each case crash-stops one replica at a scheduled
//! persistence point (`durable.crash`), optionally after planting a disk
//! fault (`torn_write` / `bit_rot` / `lost_fsync` on the append path,
//! `short_read` on the replay path), reboots the replica from its durable
//! directory, and gates on byte-identity with the baseline:
//!
//! * the client outcome-ledger digest matches the crash-free baseline,
//! * every live replica folds its replicated log to the baseline digest,
//! * every live replica's store image digests to the baseline value,
//! * the post-crash read-back audit is clean.
//!
//! Any divergence prints `FAIL` and sets a nonzero exit code — this is
//! the acceptance gate CI's `recovery-smoke` leg runs against the
//! checked-in `ci/crash_plan.json`.
//!
//! ## Plan format
//!
//! ```json
//! {
//!   "seed": 2026,
//!   "cases": [
//!     {"name": "crash_early", "replica": 1, "crash_occurrence": 40},
//!     {"name": "torn_write_crash", "replica": 1, "crash_occurrence": 60,
//!      "disk_kind": "torn_write", "disk_occurrence": 50}
//!   ]
//! }
//! ```
//!
//! `crash_occurrence` indexes the replica's `durable.crash` consultation
//! stream (one consult per persisted record); `disk_occurrence` indexes
//! `durable.wal.append` (or `durable.wal.replay` for `short_read`, which
//! fires during the reboot's recovery scan rather than during traffic).

use crate::serve_cmd::{finish_telemetry, obs_for, parse_num};
use reram_cluster::{ClusterGroup, GroupConfig};
use reram_fault::{site, FaultInjector, FaultKind, FaultPlan, FaultSpec};
use reram_loadgen::{LoadConfig, LoadReport};
use reram_obs::{json::write_string, Json, Obs, Tracer};
use reram_serve::ServeConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// One scheduled crash case from the plan file.
#[derive(Debug, Clone)]
struct CrashCase {
    name: String,
    replica: u16,
    crash_occurrence: u64,
    /// A disk fault planted alongside the crash: `torn_write`, `bit_rot`
    /// or `lost_fsync` damage the WAL before the crash; `short_read`
    /// fires during the reboot's replay.
    disk_kind: Option<FaultKind>,
    disk_occurrence: u64,
}

/// The parsed crash plan.
#[derive(Debug, Clone)]
pub(crate) struct CrashPlan {
    seed: u64,
    cases: Vec<CrashCase>,
}

/// Parses the crash-plan JSON (format in the module docs). Whole-number
/// fields take exact integer literals only: `"replica": 1.5` or a quoted
/// `"disk_occurrence": "50"` is an error, never a silent 1 or 0.
pub(crate) fn parse_plan(text: &str) -> Result<CrashPlan, String> {
    let doc = Json::parse(text).map_err(|e| format!("crash plan syntax error: {e}"))?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("plan needs a whole-number \"seed\"")?;
    let Some(Json::Arr(cases)) = doc.get("cases") else {
        return Err("plan needs a \"cases\" array".into());
    };
    let cases = cases
        .iter()
        .map(parse_case)
        .collect::<Result<Vec<_>, _>>()?;
    if cases.is_empty() {
        return Err("plan has no cases".into());
    }
    Ok(CrashPlan { seed, cases })
}

fn parse_case(obj: &Json) -> Result<CrashCase, String> {
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or("case needs a \"name\"")?;
    let num = |key: &str| match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(format!("{name}: {key} must be a whole number")),
    };
    let replica = num("replica")?.ok_or_else(|| format!("{name}: needs \"replica\""))?;
    let crash_occurrence =
        num("crash_occurrence")?.ok_or_else(|| format!("{name}: needs \"crash_occurrence\""))?;
    let kind = |k: &Json| {
        k.as_str()
            .and_then(FaultKind::parse)
            .ok_or(format!("{name}: bad disk_kind {k:?}"))
    };
    Ok(CrashCase {
        name: name.to_string(),
        replica: u16::try_from(replica).map_err(|_| format!("{name}: replica id out of range"))?,
        crash_occurrence,
        disk_kind: obj.get("disk_kind").map(kind).transpose()?,
        disk_occurrence: num("disk_occurrence")?.unwrap_or(0),
    })
}

/// The fault plan for one case: the scheduled crash, plus the optional
/// disk fault aimed at the same replica's WAL.
fn case_faults(case: &CrashCase, seed: u64) -> FaultPlan {
    let target = format!("replica{}", case.replica);
    let mut plan = FaultPlan::new(seed).with(
        FaultSpec::new(site::CRASH, FaultKind::ReplicaCrash)
            .target(&target)
            .occurrence(case.crash_occurrence),
    );
    if let Some(kind) = case.disk_kind {
        let disk_site = if kind == FaultKind::ShortRead {
            site::WAL_REPLAY
        } else {
            site::WAL_APPEND
        };
        plan = plan.with(
            FaultSpec::new(disk_site, kind)
                .target(&target)
                .occurrence(case.disk_occurrence),
        );
    }
    plan
}

/// What one group run (baseline or case) measured.
struct RunOutcome {
    report: LoadReport,
    /// Per-replica replicated-log digests (term-sensitive — compared
    /// *within* a run only, since election timing varies term values
    /// across runs).
    ledgers: Vec<Option<u32>>,
    /// Per-replica committed-write-sequence digests (term-free — the
    /// cross-run byte-identity oracle).
    writes: Vec<Option<u32>>,
    /// Per-replica store-image digests after convergence.
    stores: Vec<Option<u32>>,
}

/// The per-case gate results, rendered into the report JSON.
struct CaseResult {
    name: String,
    ledger_match: bool,
    log_match: bool,
    store_match: bool,
    restarted: bool,
    audit_clean: bool,
    injected: u64,
    pass: bool,
}

/// Drives the seeded workload against `group` and returns its report.
fn run_load(group: &ClusterGroup, lcfg_base: &LoadConfig, obs: &Obs) -> LoadReport {
    let addrs = group.addrs();
    let mut lcfg = lcfg_base.clone();
    lcfg.addr = addrs[0];
    lcfg.peers = addrs;
    reram_loadgen::run(&lcfg, obs)
}

fn live(d: &[Option<u32>]) -> Vec<u32> {
    d.iter().flatten().copied().collect()
}

fn all_equal_to(d: &[Option<u32>], want: u32, n: usize) -> bool {
    let l = live(d);
    l.len() == n && l.iter().all(|v| *v == want)
}

/// One full drill run. `fault`: `None` for the baseline, `Some` for a
/// case (which then also performs the crash-replica reboot).
fn run_once(
    gcfg: &GroupConfig,
    lcfg: &LoadConfig,
    obs: &Obs,
    faults: Option<(Arc<FaultInjector>, u16)>,
) -> Result<RunOutcome, String> {
    let expect_dead = faults.as_ref().map(|(_, r)| *r);
    let group = ClusterGroup::start(gcfg, obs, Tracer::off(), faults.map(|(f, _)| f))
        .map_err(|e| format!("cannot start group: {e}"))?;
    group
        .wait_for_leader(Duration::from_secs(10))
        .ok_or("no leader elected within 10 s")?;
    let report = run_load(&group, lcfg, obs);
    if !group.wait_converged(Duration::from_secs(30)) {
        return Err("replicas did not converge after traffic".into());
    }
    if let Some(r) = expect_dead {
        if group.dead_replicas() != vec![r] {
            return Err(format!(
                "expected replica {r} dead, got {:?} — the crash never fired",
                group.dead_replicas()
            ));
        }
        if !group.restart_replica(r) {
            return Err(format!("replica {r} failed to restart from disk"));
        }
        if !group.wait_converged(Duration::from_secs(30)) {
            return Err("rebooted replica did not converge".into());
        }
    }
    let out = RunOutcome {
        report,
        ledgers: group.ledger_digests(),
        writes: group.write_digests(),
        stores: group.store_digests(),
    };
    group.shutdown();
    Ok(out)
}

/// `experiments recovery ...` — crashpoint sweep against the baseline.
#[allow(clippy::too_many_lines)]
pub fn recovery_cmd(args: &[String]) -> ExitCode {
    let mut serve = ServeConfig {
        shards: 2,
        lines_per_shard: 512,
        ..ServeConfig::default()
    };
    let mut clients = 4usize;
    let mut requests = 200u64;
    let mut seed = 2026u64;
    let mut segment_records = 128u64;
    let mut plan_path = PathBuf::from("ci/crash_plan.json");
    let mut scratch: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut it = args.iter().cloned();
    let parsed: Result<(), String> = (|| {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--shards" => serve.shards = parse_num("--shards", it.next())?,
                "--lines-per-shard" => {
                    serve.lines_per_shard = parse_num("--lines-per-shard", it.next())?;
                }
                "--clients" => clients = parse_num("--clients", it.next())?,
                "--requests" => requests = parse_num("--requests", it.next())?,
                "--seed" => seed = parse_num("--seed", it.next())?,
                "--segment-records" => {
                    segment_records = parse_num("--segment-records", it.next())?;
                }
                "--plan" => plan_path = PathBuf::from(it.next().ok_or("--plan needs a file")?),
                "--dir" => scratch = Some(PathBuf::from(it.next().ok_or("--dir needs a path")?)),
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a dir")?));
                }
                "--json" => {
                    json_path = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
                }
                other => return Err(format!("unknown recovery flag {other}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let plan = match std::fs::read_to_string(&plan_path)
        .map_err(|e| format!("cannot read {}: {e}", plan_path.display()))
        .and_then(|t| parse_plan(&t))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: crash plan: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_for(telemetry.as_ref()) {
        Ok(o) => match telemetry {
            Some(_) => o,
            // Gates read counters, so the registry must be live even
            // without a sink (Obs::off would pin everything at 0).
            None => Obs::new(),
        },
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scratch = scratch.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("reram_recovery_{}", std::process::id()))
    });
    let durable_dir = |tag: &str| -> PathBuf { scratch.join(tag) };

    let gcfg_for = |dir: &Path| {
        let mut g = GroupConfig::new(serve.clone(), seed);
        g.durable_dir = Some(dir.to_path_buf());
        g.wal_segment_records = segment_records;
        g
    };
    let mut lcfg = LoadConfig::new("127.0.0.1:0".parse().expect("literal addr"));
    lcfg.clients = clients;
    lcfg.requests_per_client = requests;
    lcfg.seed = seed;
    lcfg.total_lines = serve.shards as u64 * serve.lines_per_shard;
    lcfg.audit = true;

    eprintln!(
        "[recovery: {} case(s), {clients} clients x {requests} reqs, seed {seed}, \
         plan {}]",
        plan.cases.len(),
        plan_path.display()
    );

    // Crash-free durable baseline: the byte-identity reference.
    let base_dir = durable_dir("baseline");
    let baseline = match run_once(&gcfg_for(&base_dir), &lcfg, &obs, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: baseline run: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::fs::remove_dir_all(&base_dir).ok();
    let base_ledgers = live(&baseline.ledgers);
    let base_writes = live(&baseline.writes);
    let base_stores = live(&baseline.stores);
    if base_ledgers.len() != 3
        || base_writes.len() != 3
        || base_stores.len() != 3
        || !base_ledgers.iter().all(|d| *d == base_ledgers[0])
        || !base_writes.iter().all(|d| *d == base_writes[0])
        || !base_stores.iter().all(|d| *d == base_stores[0])
    {
        eprintln!("error: baseline replicas diverged — the harness itself is broken");
        return ExitCode::FAILURE;
    }
    let (base_log, base_store) = (base_writes[0], base_stores[0]);
    eprintln!(
        "[baseline: {:.0} req/s, ledger {:08x}, log {base_log:08x}, store {base_store:08x}]",
        baseline.report.req_per_s, baseline.report.ledger_crc
    );

    // The crashpoint sweep: every case replays the identical workload.
    let mut results: Vec<CaseResult> = Vec::with_capacity(plan.cases.len());
    for case in &plan.cases {
        let dir = durable_dir(&case.name);
        std::fs::remove_dir_all(&dir).ok();
        let inj = Arc::new(FaultInjector::new(case_faults(case, plan.seed), &obs));
        let expect_faults = 1 + u64::from(case.disk_kind.is_some());
        let outcome = run_once(
            &gcfg_for(&dir),
            &lcfg,
            &obs,
            Some((Arc::clone(&inj), case.replica)),
        );
        std::fs::remove_dir_all(&dir).ok();
        let result = match outcome {
            Ok(run) => {
                let ledger_match = run.report.ledger_crc == baseline.report.ledger_crc;
                // Cross-run: the committed write sequence must match the
                // baseline byte-for-byte. Within-run: the three replicas
                // must also agree on the full (term-sensitive) log.
                let drill_logs = live(&run.ledgers);
                let log_match = all_equal_to(&run.writes, base_log, 3)
                    && drill_logs.len() == 3
                    && drill_logs.iter().all(|d| *d == drill_logs[0]);
                let store_match = all_equal_to(&run.stores, base_store, 3);
                let audit_clean = run.report.audit_failures == 0 && run.report.read_mismatches == 0;
                let injected = inj.injected();
                let pass = ledger_match
                    && log_match
                    && store_match
                    && audit_clean
                    && injected >= expect_faults;
                CaseResult {
                    name: case.name.clone(),
                    ledger_match,
                    log_match,
                    store_match,
                    restarted: true,
                    audit_clean,
                    injected,
                    pass,
                }
            }
            Err(e) => {
                eprintln!("error: case {}: {e}", case.name);
                CaseResult {
                    name: case.name.clone(),
                    ledger_match: false,
                    log_match: false,
                    store_match: false,
                    restarted: false,
                    audit_clean: false,
                    injected: inj.injected(),
                    pass: false,
                }
            }
        };
        eprintln!(
            "[{}: {} (ledger {}, log {}, store {}, {} fault(s))]",
            result.name,
            if result.pass { "PASS" } else { "FAIL" },
            result.ledger_match,
            result.log_match,
            result.store_match,
            result.injected,
        );
        results.push(result);
    }
    std::fs::remove_dir_all(&scratch).ok();

    let all_pass = results.iter().all(|r| r.pass);
    let case_json: Vec<String> = results
        .iter()
        .map(|r| {
            let mut name = String::new();
            write_string(&mut name, &r.name);
            format!(
                "    {{\"name\": {name}, \"ledger_match\": {}, \"log_match\": {}, \
                 \"store_match\": {}, \"restarted\": {}, \"audit_clean\": {}, \
                 \"faults_injected\": {}, \"pass\": {}}}",
                r.ledger_match,
                r.log_match,
                r.store_match,
                r.restarted,
                r.audit_clean,
                r.injected,
                r.pass
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"mode\": \"durable\",\n  \
         \"baseline_ledger\": \"{:08x}\",\n  \"baseline_log\": \"{base_log:08x}\",\n  \
         \"baseline_store\": \"{base_store:08x}\",\n  \"cases\": [\n{}\n  ],\n  \
         \"recovered\": {},\n  \"pass\": {all_pass}\n}}",
        baseline.report.ledger_crc,
        case_json.join(",\n"),
        obs.counter("fault.recovered").get(),
    );
    println!("{json}");
    if let Some(p) = json_path.as_ref() {
        if let Err(e) = std::fs::write(p, json + "\n") {
            eprintln!("failed to write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    finish_telemetry(&obs, telemetry.as_ref());

    if all_pass {
        eprintln!(
            "PASS: every crash point recovered byte-identically (ledger {:08x})",
            baseline.report.ledger_crc
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: at least one crash case diverged from the baseline");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_checked_in_plan_shape() {
        let text = r#"{
          "seed": 7,
          "cases": [
            {"name": "crash_early", "replica": 1, "crash_occurrence": 40},
            {"name": "torn", "replica": 2, "crash_occurrence": 60,
             "disk_kind": "torn_write", "disk_occurrence": 50}
          ]
        }"#;
        let plan = parse_plan(text).expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.cases.len(), 2);
        assert_eq!(plan.cases[0].name, "crash_early");
        assert_eq!(plan.cases[0].replica, 1);
        assert_eq!(plan.cases[0].crash_occurrence, 40);
        assert!(plan.cases[0].disk_kind.is_none());
        assert_eq!(plan.cases[1].disk_kind, Some(FaultKind::TornWrite));
        assert_eq!(plan.cases[1].disk_occurrence, 50);
    }

    #[test]
    fn plan_errors_are_loud() {
        assert!(parse_plan("{}").is_err(), "missing seed");
        assert!(parse_plan("{\"seed\": 1}").is_err(), "missing cases");
        assert!(
            parse_plan("{\"seed\": 1, \"cases\": []}").is_err(),
            "empty cases"
        );
        assert!(
            parse_plan(
                "{\"seed\": 1, \"cases\": [{\"name\": \"x\", \"replica\": 1, \
                 \"crash_occurrence\": 2, \"disk_kind\": \"nope\"}]}"
            )
            .is_err(),
            "unknown kind"
        );
        // Whole numbers are exact integer literals: never truncated to 1,
        // never defaulted to 0.
        for case in [
            r#""replica": 1.5, "crash_occurrence": 2"#,
            r#""replica": 1, "crash_occurrence": 2, "disk_occurrence": "50""#,
        ] {
            let text = format!(r#"{{"seed": 1, "cases": [{{"name": "x", {case}}}]}}"#);
            assert!(parse_plan(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn case_fault_plans_aim_at_the_right_sites() {
        let case = CrashCase {
            name: "t".into(),
            replica: 2,
            crash_occurrence: 9,
            disk_kind: Some(FaultKind::ShortRead),
            disk_occurrence: 1,
        };
        let plan = case_faults(&case, 5);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].site, site::CRASH);
        assert_eq!(plan.faults[0].target.as_deref(), Some("replica2"));
        assert_eq!(plan.faults[0].occurrence, 9);
        // short_read is a replay-path fault; everything else appends.
        assert_eq!(plan.faults[1].site, site::WAL_REPLAY);
        let case = CrashCase {
            disk_kind: Some(FaultKind::BitRot),
            ..case
        };
        assert_eq!(case_faults(&case, 5).faults[1].site, site::WAL_APPEND);
    }
}
