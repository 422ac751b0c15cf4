//! `experiments` — regenerate any table or figure of the paper.
//!
//! ```text
//! experiments <exp>... [--quick|--full] [--jobs N] [--solver-jobs N] [--cold-solver]
//!                      [--resume DIR] [--out DIR] [--telemetry DIR]
//! experiments all      [... same flags ...]
//! experiments list
//! experiments serve    [--addr HOST:PORT] [--shards N] [...]   # memory service
//! experiments loadgen  [--clients N] [--requests N] [...]      # traffic generator
//! experiments cluster  [--replicas N] [--kill] [...]           # replicated group + failover drill
//! experiments recovery [--plan ci/crash_plan.json] [...]       # durable crashpoint sweep
//! experiments trace-report SPANS.jsonl... [--check]            # span critical path
//! experiments trajectory-check TRAJECTORY.jsonl                # bench growth gate
//! ```
//!
//! `serve` and `loadgen` (see [`serve_cmd`]) expose the `reram-serve`
//! sharded memory service and its seeded load generator.
//!
//! Every selected experiment becomes a job in a `reram-exec` DAG; the
//! sensitivity sweeps (figs. 18/19/20) further split into one job per sweep
//! point (`fig19/0`, `fig19/1`, …) feeding an assembly job. Jobs fan out
//! over `--jobs N` worker threads (default: available parallelism;
//! `--jobs 1` is the exact serial reference) and their own simulator runs
//! fan out over the same pool, so wall-clock scales with cores while every
//! CSV stays bitwise-identical to a serial run.
//!
//! `--resume DIR` journals each finished job to `DIR/exec_journal.jsonl`;
//! rerunning with the same flags skips completed jobs and reuses their
//! payloads. Resume with the *same* budget flags — the journal records
//! outcomes, not configurations.
//!
//! `--solver-jobs N` and `--cold-solver` steer the `solver_grid`
//! experiment's circuit-solver configuration (the number of threads each
//! line-relaxation phase is banded over, and warm starts). Its CSV is
//! bitwise-identical for every `--solver-jobs` value, and `--cold-solver`
//! changes only the sweep counts, never a voltage — that determinism is
//! the point of the experiment.
//!
//! `--telemetry DIR` attaches a JSONL event sink: every simulator run and
//! the execution engine itself feed the shared [`reram_obs::Obs`] registry
//! (`exec.worker.*`, `exec.pool.*`, `exec.dag.*`), events stream to
//! `DIR/events.jsonl`, and on exit the harness writes
//! `DIR/telemetry_summary.csv` (metric, count, mean, p50, p99, p999, max) and
//! prints the human-readable report.

mod cluster_cmd;
mod recovery_cmd;
mod report_cmd;
mod serve_cmd;

use reram_exec::{Dag, JobSpec, Journal, ThreadPool};
use reram_experiments::{
    ablation, fault_drill, lifetime_exp, micro, perf, solver, traffic, Budget, ExpTable, SolverCfg,
};
use reram_fault::{FaultInjector, FaultPlan};
use reram_obs::Obs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Separates rendered text from CSV text inside a job payload (ASCII
/// record separator — cannot appear in either half).
const PAYLOAD_SEP: char = '\u{1e}';

fn experiment_names() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "table3",
        "table4",
        "fig1e",
        "fig4",
        "fig5b",
        "fig5c",
        "fig5d",
        "fig6",
        "fig7",
        "fig9",
        "fig11",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "ablation_drvr",
        "ablation_pr",
        "ablation_wc",
        "solver_grid",
        "fault_drill",
    ]
}

/// Maps a user-supplied experiment name (including the `fig11a`/`fig11b`
/// aliases) to its canonical registry name.
fn canonical(name: &str) -> Option<&'static str> {
    match name {
        "fig11a" => Some("fig11"),
        "fig11b" => Some("fig13"),
        other => experiment_names().into_iter().find(|n| *n == other),
    }
}

/// Builds one (non-sweep-split) experiment table, fanning any simulator
/// runs out over `pool`.
fn build_table(
    name: &str,
    budget: Budget,
    solver_cfg: SolverCfg,
    faults: Option<&Arc<FaultInjector>>,
    pool: &ThreadPool,
    obs: &Obs,
) -> Option<ExpTable> {
    Some(match name {
        "table1" => micro::table1(),
        "table2" => micro::table2(),
        "table3" => micro::table3(),
        "table4" => traffic::table4(),
        "fig1e" => micro::fig1e(),
        "fig4" => micro::fig4(),
        "fig5b" => lifetime_exp::fig5b(),
        "fig5c" => perf::fig5c_par(budget, pool, obs),
        "fig5d" => lifetime_exp::fig5d(),
        "fig6" => micro::fig6(),
        "fig7" => micro::fig7(),
        "fig9" => traffic::fig9(),
        "fig11" => micro::fig11(),
        "fig13" => micro::fig13(),
        "fig14" => traffic::fig14(),
        "fig15" => perf::fig15_par(budget, pool, obs),
        "fig16" => perf::fig16_par(budget, pool, obs),
        "fig17" => perf::fig17_par(budget, pool, obs),
        "fig18" => perf::fig18_par(budget, pool, obs),
        "fig19" => perf::fig19_par(budget, pool, obs),
        "fig20" => perf::fig20_par(budget, pool, obs),
        "ablation_drvr" => ablation::ablation_drvr_levels(),
        "ablation_pr" => ablation::ablation_pr_cap(),
        "ablation_wc" => ablation::ablation_coalescence(),
        "solver_grid" => solver::solver_grid(budget, solver_cfg, faults, obs),
        "fault_drill" => fault_drill::fault_drill(faults, obs),
        _ => return None,
    })
}

/// Packs a finished table into the journal-able job payload.
fn table_payload(t: &ExpTable) -> String {
    format!("{}{PAYLOAD_SEP}{}", t.render(), t.csv())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The service subcommands have their own flag grammars — dispatch
    // before the experiment-table parser sees the arguments.
    match args.first().map(String::as_str) {
        Some("serve") => return serve_cmd::serve_cmd(&args[1..]),
        Some("loadgen") => return serve_cmd::loadgen_cmd(&args[1..]),
        Some("cluster") => return cluster_cmd::cluster_cmd(&args[1..]),
        Some("recovery") => return recovery_cmd::recovery_cmd(&args[1..]),
        Some("trace-report") => return report_cmd::trace_report_cmd(&args[1..]),
        Some("trajectory-check") => return report_cmd::trajectory_cmd(&args[1..]),
        _ => {}
    }
    let mut budget = Budget::Standard;
    let mut out = PathBuf::from("results");
    let mut telemetry: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut jobs = ThreadPool::default_jobs();
    let mut solver_cfg = SolverCfg::default();
    let mut fault_plan_path: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => budget = Budget::Quick,
            "--full" => budget = Budget::Full,
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--solver-jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => solver_cfg.jobs = n,
                _ => {
                    eprintln!("--solver-jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--cold-solver" => solver_cfg.warm_start = false,
            "--resume" => match it.next() {
                Some(dir) => resume = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--resume needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--telemetry" => match it.next() {
                Some(dir) => telemetry = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--telemetry needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match it.next() {
                Some(p) => fault_plan_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--faults needs a fault-plan JSON file");
                    return ExitCode::FAILURE;
                }
            },
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() || targets[0] == "help" {
        eprintln!(
            "usage: experiments <exp>...|all|list [--quick|--full] [--jobs N] [--solver-jobs N] [--cold-solver] [--resume DIR] [--out DIR] [--telemetry DIR] [--faults PLAN.json]"
        );
        eprintln!("experiments: {}", experiment_names().join(" "));
        return ExitCode::SUCCESS;
    }
    if targets[0] == "list" {
        for n in experiment_names() {
            println!("{n}");
        }
        return ExitCode::SUCCESS;
    }

    // Validate every target up front: nothing runs (and nothing is written)
    // if any name is unknown.
    let run_all = targets.iter().any(|t| t == "all");
    let names: Vec<&'static str> = if run_all {
        experiment_names()
    } else {
        let mut seen = Vec::new();
        let mut unknown = Vec::new();
        for t in &targets {
            match canonical(t) {
                Some(c) if !seen.contains(&c) => seen.push(c),
                Some(_duplicate) => {}
                None => unknown.push(t.clone()),
            }
        }
        if !unknown.is_empty() {
            eprintln!("error: unknown experiment(s): {}", unknown.join(", "));
            eprintln!("valid experiments: {}", experiment_names().join(" "));
            return ExitCode::FAILURE;
        }
        seen
    };

    let obs = match &telemetry {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create telemetry dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            match Obs::jsonl(&dir.join("events.jsonl")) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot open telemetry sink: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Obs::off(),
    };
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create output dir {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    // The deterministic fault-injection plane (DESIGN.md §9): one seeded
    // injector shared by the DAG scheduler, the resume journal, the solver
    // workspaces and the fault drill.
    let faults: Option<Arc<FaultInjector>> = match &fault_plan_path {
        Some(path) => match FaultPlan::load(path) {
            Ok(plan) => {
                eprintln!(
                    "[faults: {} scheduled, {} distinct kind(s), seed {}]",
                    plan.faults.len(),
                    plan.distinct_kinds(),
                    plan.seed
                );
                Some(Arc::new(FaultInjector::new(plan, &obs)))
            }
            Err(e) => {
                eprintln!("cannot load fault plan {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut journal = match &resume {
        Some(dir) => match Journal::open_observed(&dir.join("exec_journal.jsonl"), &obs) {
            Ok(j) => Some(match &faults {
                Some(inj) => j.with_faults(Arc::clone(inj)),
                None => j,
            }),
            Err(e) => {
                eprintln!("cannot open resume journal in {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // --jobs 1 means zero pool workers: the scheduler runs everything inline
    // on this thread — the exact serial reference the determinism contract
    // is anchored to.
    let pool = Arc::new(ThreadPool::with_obs(if jobs > 1 { jobs } else { 0 }, &obs));

    let mut dag = Dag::new();
    if let Some(inj) = &faults {
        dag = dag.with_faults(Arc::clone(inj));
    }
    // With faults armed, give every job one retry: a recoverable injected
    // panic is absorbed by the scheduler (and lands in the manifest's
    // `recovered` list) instead of failing the run.
    let retries = u32::from(faults.is_some());
    for &name in &names {
        if let Some(spec) = perf::sweep_spec(name) {
            // One job per sweep point (checkpointed individually), plus an
            // assembly job that turns the point ratios into the table.
            let npoints = spec.points.len();
            for (k, (_label, array)) in spec.points.iter().enumerate() {
                let sub = format!("{name}/{k}");
                let array = *array;
                let pool = Arc::clone(&pool);
                let obs = obs.clone();
                dag.add(JobSpec::new(sub.clone()).retries(retries), move |_ctx| {
                    let t0 = Instant::now();
                    let ratio = perf::sweep_point_ratio(budget, array, &pool, &obs);
                    eprintln!("[{sub}: {:.2} s]", t0.elapsed().as_secs_f64());
                    Ok(ratio.to_bits().to_string())
                });
            }
            let mut spec_job = JobSpec::new(name).retries(retries);
            for k in 0..npoints {
                spec_job = spec_job.after(format!("{name}/{k}"));
            }
            dag.add(spec_job, move |ctx| {
                let spec = perf::sweep_spec(name).expect("sweep id");
                let mut ratios = Vec::with_capacity(npoints);
                for k in 0..npoints {
                    let dep = format!("{name}/{k}");
                    let bits: u64 = ctx
                        .dep(&dep)
                        .ok_or_else(|| format!("missing payload from {dep}"))?
                        .parse()
                        .map_err(|e| format!("bad payload from {dep}: {e}"))?;
                    ratios.push(f64::from_bits(bits));
                }
                Ok(table_payload(&perf::assemble_sweep(&spec, &ratios)))
            });
        } else {
            let pool = Arc::clone(&pool);
            let obs = obs.clone();
            let faults = faults.clone();
            dag.add(JobSpec::new(name).retries(retries), move |_ctx| {
                let t0 = Instant::now();
                let t = build_table(name, budget, solver_cfg, faults.as_ref(), &pool, &obs)
                    .ok_or_else(|| format!("no builder registered for {name}"))?;
                eprintln!("[{name}: {:.2} s]", t0.elapsed().as_secs_f64());
                Ok(table_payload(&t))
            });
        }
    }

    let t_total = Instant::now();
    let report = match dag.run(&pool, journal.as_mut(), |_name, _result| {}) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Release the job closures' pool handles, then the pool itself, so its
    // aggregate counters land in the telemetry summary below.
    drop(dag);
    drop(pool);
    if !report.cached.is_empty() {
        eprintln!(
            "[resumed: {} job(s) restored from {}]",
            report.cached.len(),
            resume
                .as_ref()
                .map_or_else(|| "journal".to_string(), |d| d.display().to_string())
        );
    }

    // Emit tables (stdout) and CSVs in registry order, regardless of the
    // order jobs finished in.
    let mut status = ExitCode::SUCCESS;
    for &name in &names {
        let Some(payload) = report.ok(name) else {
            status = ExitCode::FAILURE;
            continue;
        };
        let (rendered, csv) = payload.split_once(PAYLOAD_SEP).unwrap_or((payload, ""));
        println!("{rendered}");
        let path = out.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("failed to write {}: {e}", path.display());
            status = ExitCode::FAILURE;
        }
    }
    for (job, err) in report.failures() {
        eprintln!("error: {job}: {err}");
    }
    if let Some(inj) = &faults {
        // The failure manifest: partial results stay on disk above; this
        // accounts for every job and every injected/recovered fault. The
        // run exits nonzero only when an unrecoverable class left a job in
        // `failed` (recoverable classes were absorbed by the ladders).
        let rr = report.run_report();
        let manifest = format!(
            "{{\n\"faults\": {{\"injected\": {}, \"recovered\": {}}},\n\"jobs\": {}\n}}\n",
            inj.injected(),
            inj.recovered(),
            rr.render_json().trim_end()
        );
        let path = out.join("failure_manifest.json");
        if let Err(e) = std::fs::write(&path, &manifest) {
            eprintln!("failed to write {}: {e}", path.display());
            status = ExitCode::FAILURE;
        } else {
            println!("failure manifest written to {}", path.display());
        }
    }
    if run_all {
        println!("[all: {:.2} s]", t_total.elapsed().as_secs_f64());
    }
    println!("CSV written to {}", out.display());
    if let Some(dir) = &telemetry {
        obs.flush();
        for (name, text) in [
            ("telemetry_summary.csv", obs.summary_csv()),
            ("telemetry_summary.json", obs.summary_json()),
        ] {
            let summary_path = dir.join(name);
            if let Err(e) = std::fs::write(&summary_path, text) {
                eprintln!("failed to write {}: {e}", summary_path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{}", obs.report());
        println!("telemetry written to {}", dir.display());
    }
    status
}
