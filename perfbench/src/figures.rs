//! `figures`: the paper's figure suite — `experiments all` without its two
//! solver diagnostics — as a `reram-exec` job DAG at one fixed budget.
//!
//! Untraced, one run sets up (pool spawn plus a smoke-budget warm-up,
//! several times), runs one pass on a serial pool (`jobs = 1`, the "low"
//! load: every job runs alone) and then 2-worker passes (the "high" load)
//! until the time budget is spent. `wall_s` is the median 2-worker pass;
//! the latency metrics treat one pass as one request under each load (see
//! [`set_pass_latencies`]). Every pass's CSVs must match the recorded
//! digests byte for byte.

use crate::report::{cpu_seconds, median, quantile, ratio, Report};
use crate::Args;
use reram_exec::{Dag, JobSpec, ThreadPool};
use reram_experiments::{ablation, lifetime_exp, micro, perf, traffic, Budget, ExpTable};
use reram_obs::{EventSink, Obs, Value};
use reram_serve::proto::crc32;
use reram_workloads::{BenchProfile, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The simulation budget every figure runs at.
const BUDGET: Budget = Budget::Standard;

/// Pool workers of the "high" passes.
const JOBS: usize = 2;

/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 5;

/// The paper's tables, figures and ablations in `experiments list` order.
/// `solver_grid` and `fault_drill` are left out: they are solver
/// diagnostics, not paper figures, and this workload must not run the
/// circuit solver.
const SUITE: [&str; 24] = [
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
];

/// CSV digests of the suite at [`BUDGET`], recorded by
/// `perfbench record figures`.
const GOLDEN: &str = include_str!("../golden/figures.txt");

fn table(name: &str, pool: &ThreadPool, obs: &Obs) -> Option<ExpTable> {
    Some(match name {
        "table1" => micro::table1(),
        "table2" => micro::table2(),
        "table3" => micro::table3(),
        "table4" => traffic::table4(),
        "fig1e" => micro::fig1e(),
        "fig4" => micro::fig4(),
        "fig5b" => lifetime_exp::fig5b(),
        "fig5c" => perf::fig5c_par(BUDGET, pool, obs),
        "fig5d" => lifetime_exp::fig5d(),
        "fig6" => micro::fig6(),
        "fig7" => micro::fig7(),
        "fig9" => traffic::fig9(),
        "fig11" => micro::fig11(),
        "fig13" => micro::fig13(),
        "fig14" => traffic::fig14(),
        "fig15" => perf::fig15_par(BUDGET, pool, obs),
        "fig16" => perf::fig16_par(BUDGET, pool, obs),
        "fig17" => perf::fig17_par(BUDGET, pool, obs),
        "ablation_drvr" => ablation::ablation_drvr_levels(),
        "ablation_pr" => ablation::ablation_pr_cap(),
        "ablation_wc" => ablation::ablation_coalescence(),
        _ => return None,
    })
}

/// One job's span within its pass, seconds from the pass start.
#[derive(Debug, Clone)]
struct JobTime {
    name: String,
    start: f64,
    end: f64,
}

/// One pass of the suite.
struct Pass {
    /// CSV digest per experiment.
    digests: BTreeMap<String, u32>,
    wall_s: f64,
    jobs: Vec<JobTime>,
    steals: u64,
    failed: u64,
}

/// Runs the suite once on a pool of `workers` threads (0 = the serial
/// reference), recording each job's span.
fn pass(workers: usize, obs: &Obs) -> Result<Pass, String> {
    let pool = Arc::new(ThreadPool::with_obs(workers, obs));
    let times: Arc<Mutex<Vec<JobTime>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let stamp = move |times: &Mutex<Vec<JobTime>>, name: &str, start: Instant| {
        times.lock().expect("job times poisoned").push(JobTime {
            name: name.to_string(),
            start: start.duration_since(t0).as_secs_f64(),
            end: t0.elapsed().as_secs_f64(),
        });
    };
    let mut dag = Dag::new();
    for &name in &SUITE {
        if let Some(spec) = perf::sweep_spec(name) {
            let npoints = spec.points.len();
            for (k, (_label, array)) in spec.points.into_iter().enumerate() {
                let sub = format!("{name}/{k}");
                let (pool, obs, times) = (Arc::clone(&pool), obs.clone(), Arc::clone(&times));
                dag.add(JobSpec::new(sub.clone()), move |_ctx| {
                    let start = Instant::now();
                    let ratio = perf::sweep_point_ratio(BUDGET, array, &pool, &obs);
                    stamp(&times, &sub, start);
                    Ok(ratio.to_bits().to_string())
                });
            }
            let mut job = JobSpec::new(name);
            for k in 0..npoints {
                job = job.after(format!("{name}/{k}"));
            }
            let times = Arc::clone(&times);
            dag.add(job, move |ctx| {
                let start = Instant::now();
                let spec = perf::sweep_spec(name).ok_or("sweep spec vanished")?;
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
                let csv = perf::assemble_sweep(&spec, &ratios).csv();
                stamp(&times, name, start);
                Ok(csv)
            });
        } else {
            let (pool, obs, times) = (Arc::clone(&pool), obs.clone(), Arc::clone(&times));
            dag.add(JobSpec::new(name), move |_ctx| {
                let start = Instant::now();
                let t = table(name, &pool, &obs).ok_or_else(|| format!("no builder for {name}"))?;
                stamp(&times, name, start);
                Ok(t.csv())
            });
        }
    }
    let rep = dag.run(&pool, None, |_, _| {}).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    drop(dag);
    let mut digests = BTreeMap::new();
    let mut failed = 0;
    for &name in &SUITE {
        match rep.ok(name) {
            Some(csv) => {
                digests.insert(name.to_string(), crc32(csv.as_bytes()));
            }
            None => failed += 1,
        }
    }
    let jobs = times.lock().expect("job times poisoned").clone();
    Ok(Pass {
        digests,
        wall_s,
        jobs,
        steals: pool.steals(),
        failed,
    })
}

fn render_digests(d: &BTreeMap<String, u32>) -> String {
    d.iter().map(|(k, v)| format!("{k} {v:08x}\n")).collect()
}

/// The golden digest file for the suite, from a serial pass.
///
/// # Errors
///
/// A malformed job graph or a failed job.
pub fn record() -> Result<String, String> {
    let p = pass(0, &Obs::off())?;
    if p.failed > 0 {
        return Err(format!("{} figure jobs failed", p.failed));
    }
    Ok(render_digests(&p.digests))
}

/// Compares a pass with the golden digests; `None` when they match.
fn gate(p: &Pass, golden: &str) -> Option<String> {
    if p.failed > 0 {
        return Some(format!("{} figure jobs failed", p.failed));
    }
    let got = render_digests(&p.digests);
    (got != golden).then(|| {
        let diff: Vec<&str> = got
            .lines()
            .filter(|l| !golden.lines().any(|g| g == *l))
            .collect();
        format!("figure CSVs differ from the recorded digests: {diff:?}")
    })
}

/// Counts `sim.run_complete` events and the instructions they retired.
struct RunCounter {
    runs: Arc<AtomicU64>,
    instructions: Arc<AtomicU64>,
}

impl EventSink for RunCounter {
    fn emit(&mut self, _seq: u64, name: &str, fields: &[(&str, Value)]) {
        if name == "sim.run_complete" {
            self.runs.fetch_add(1, Ordering::Relaxed);
            for (k, v) in fields {
                if let (&"instructions", Value::U64(n)) = (k, v) {
                    self.instructions.fetch_add(*n, Ordering::Relaxed);
                }
            }
        }
    }
}

/// An enabled registry plus the run/instruction counters its sink feeds.
pub fn counting_obs() -> (Obs, Arc<AtomicU64>, Arc<AtomicU64>) {
    let runs = Arc::new(AtomicU64::new(0));
    let instructions = Arc::new(AtomicU64::new(0));
    let obs = Obs::with_sink(Box::new(RunCounter {
        runs: Arc::clone(&runs),
        instructions: Arc::clone(&instructions),
    }));
    (obs, runs, instructions)
}

/// Records the simulated-system counts every simulator workload shares
/// (`sim`, `workloads`, `mem`, `core` and physics counters) from `obs`.
pub fn set_sim_layers(rep: &mut Report, obs: &Obs, runs: u64, instructions: u64, wall_s: f64) {
    let h = |n: &str| obs.hist(n).snapshot();
    let reads = h("mem.controller.read_latency_ns").count();
    let writes = h("mem.controller.write_latency_ns").count();
    rep.set("sim.runs", runs as f64);
    rep.set("sim.minst", instructions as f64 / 1e6);
    rep.set(
        "sim.host_ns_per_kinst",
        ratio(wall_s * 1e9, instructions as f64 / 1e3),
    );
    rep.set("workloads.accesses", (reads + writes) as f64);
    rep.set("workloads.ns_per_access", ns_per_access());
    rep.set("mem.controller.writes", writes as f64);
    rep.set(
        "mem.controller.write_bursts",
        h("mem.controller.write_burst_len").count() as f64,
    );
    rep.set(
        "mem.controller.read_priority_stalls",
        obs.counter("mem.controller.read_priority_stalls").get() as f64,
    );
    rep.set(
        "mem.pump.recharges",
        obs.counter("mem.pump.recharges").get() as f64,
    );
    rep.set(
        "core.pr.dummy_resets",
        obs.counter("core.pr.dummy_resets").get() as f64,
    );
    rep.set(
        "core.pr.concurrent_resets.p50",
        h("core.pr.concurrent_resets").p50(),
    );
    rep.set(
        "sim.physics.exact_solves",
        obs.counter("sim.physics.exact_solves").get() as f64,
    );
}

/// Host time of the workload generator alone: the median of three timed
/// runs of 200k `mcf_m` accesses, ns per access.
fn ns_per_access() -> f64 {
    const N: u32 = 200_000;
    let p = BenchProfile::by_name("mcf_m").expect("table IV profile");
    let times: Vec<f64> = (0..3)
        .map(|r| {
            let mut g = TraceGenerator::new(p, 11 + r);
            let t = Instant::now();
            for _ in 0..N {
                std::hint::black_box(g.next_access());
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    median(&times)
}

/// Spawns the pool and runs a smoke-budget figure: the one-time cost a
/// user pays before the suite's first job.
fn setup_once() -> f64 {
    let t = Instant::now();
    let pool = ThreadPool::new(JOBS);
    std::hint::black_box(perf::fig15_par(Budget::Smoke, &pool, &Obs::off()));
    drop(pool);
    t.elapsed().as_secs_f64()
}

/// The batch workloads' end-to-end timings. One request is one whole pass
/// (every figure, or every simulation): the low load runs it on one worker,
/// the high load on two. Per-job durations cannot serve: a job waiting on
/// its simulations runs other jobs' work meanwhile, so jobs overlap.
pub fn set_pass_latencies(rep: &mut Report, serial_s: f64, walls: &[f64]) {
    let high: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    rep.set("wall_s", median(walls));
    rep.set("lat_p50_us.low", serial_s * 1e6);
    rep.set("lat_p90_us.low", serial_s * 1e6);
    rep.set("lat_p50_us.high", median(&high));
    rep.set("lat_p90_us.high", quantile(&high, 0.9));
}

/// The longest dependency chain of a pass: a sweep's slowest point plus
/// its assembly, or a standalone job.
fn critical_path_s(p: &Pass) -> f64 {
    let dur = |n: &str| {
        p.jobs
            .iter()
            .find(|j| j.name == n)
            .map_or(0.0, |j| j.end - j.start)
    };
    SUITE
        .iter()
        .map(|&name| {
            let points = p
                .jobs
                .iter()
                .filter(|j| j.name.starts_with(&format!("{name}/")))
                .map(|j| j.end - j.start)
                .fold(0.0, f64::max);
            points + dur(name)
        })
        .fold(0.0, f64::max)
}

/// Runs the workload.
///
/// # Errors
///
/// A malformed job graph.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::new();
    let golden = GOLDEN;
    if golden.trim().is_empty() {
        rep.fail("no recorded figure digests (run `perfbench record figures`)");
    }
    let check = |rep: &mut Report, p: &Pass| {
        rep.attempted += p.jobs.len() as u64 + p.failed;
        rep.failed += p.failed;
        if let Some(why) = gate(p, golden) {
            rep.failed += 1;
            rep.fail(why);
        }
    };
    let t_run = Instant::now();
    if !args.trace {
        let setups: Vec<f64> = (0..SETUPS).map(|_| setup_once()).collect();
        rep.set("setup_s", median(&setups));
        let serial = pass(0, &Obs::off())?;
        check(&mut rep, &serial);
        let mut walls = Vec::new();
        while walls.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
            let p = pass(JOBS, &Obs::off())?;
            check(&mut rep, &p);
            walls.push(p.wall_s);
        }
        set_pass_latencies(&mut rep, serial.wall_s, &walls);
        return Ok(rep);
    }
    // Traced: an untraced pass for the overhead baseline, then a pass with
    // every simulator, the pool and the DAG reporting into one registry.
    let cpu0 = cpu_seconds();
    let plain = pass(JOBS, &Obs::off())?;
    let cpu_s = cpu_seconds() - cpu0;
    check(&mut rep, &plain);
    let (obs, runs, instructions) = counting_obs();
    let traced = pass(JOBS, &obs)?;
    check(&mut rep, &traced);
    let job = |n: &str| {
        traced
            .jobs
            .iter()
            .filter(|j| j.name == n)
            .map(|j| j.end - j.start)
            .sum::<f64>()
    };
    for fig in ["fig14", "fig15", "fig16", "fig17"] {
        rep.set(&format!("experiments.job_s.{fig}"), job(fig));
    }
    let sweeps: f64 = traced
        .jobs
        .iter()
        .filter(|j| {
            ["fig18", "fig19", "fig20"]
                .iter()
                .any(|s| j.name.starts_with(s))
        })
        .map(|j| j.end - j.start)
        .sum();
    rep.set("experiments.job_s.sweeps", sweeps);
    rep.set("experiments.critical_path_s", critical_path_s(&traced));
    rep.set(
        "exec.idle_share",
        1.0 - ratio(cpu_s, JOBS as f64 * plain.wall_s),
    );
    rep.set(
        "exec.dag.jobs_done",
        obs.counter("exec.dag.jobs_done").get() as f64,
    );
    set_sim_layers(
        &mut rep,
        &obs,
        runs.load(Ordering::Relaxed),
        instructions.load(Ordering::Relaxed),
        plain.wall_s,
    );
    rep.set("exec.pool.steals", traced.steals as f64);
    rep.set(
        "trace.overhead_share",
        ratio(traced.wall_s - plain.wall_s, plain.wall_s),
    );
    rep.set(
        "error_share",
        ratio(rep.failed as f64, rep.attempted as f64),
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_pass(csvs: &[(&str, &str)]) -> Pass {
        Pass {
            digests: csvs
                .iter()
                .map(|(k, v)| ((*k).to_string(), crc32(v.as_bytes())))
                .collect(),
            wall_s: 1.0,
            jobs: Vec::new(),
            steals: 0,
            failed: 0,
        }
    }

    #[test]
    fn gate_passes_identical_csvs_and_trips_on_an_altered_one() {
        let golden = render_digests(&fake_pass(&[("fig4", "a,b\n1,2\n")]).digests);
        assert!(gate(&fake_pass(&[("fig4", "a,b\n1,2\n")]), &golden).is_none());
        assert!(gate(&fake_pass(&[("fig4", "a,b\n1,3\n")]), &golden).is_some());
        let mut failed = fake_pass(&[("fig4", "a,b\n1,2\n")]);
        failed.failed = 1;
        assert!(gate(&failed, &golden).is_some());
    }

    #[test]
    fn critical_path_chains_sweep_points_into_their_assembly() {
        let mut p = fake_pass(&[]);
        let jt = |name: &str, start: f64, end: f64| JobTime {
            name: name.into(),
            start,
            end,
        };
        p.jobs = vec![
            jt("fig19/0", 0.0, 2.0),
            jt("fig19/1", 0.0, 3.0),
            jt("fig19", 3.0, 3.5),
            jt("fig15", 0.0, 3.2),
        ];
        assert!((critical_path_s(&p) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn golden_digests_cover_the_whole_suite() {
        for name in SUITE {
            assert!(
                GOLDEN.lines().any(|l| l.split(' ').next() == Some(name)),
                "no golden digest for {name}"
            );
        }
    }
}
