//! `exact-physics`: the simulator with every write-RESET latency priced by
//! the exact KCL solver (`Physics::Solver`) — Hard+Sys, DRVR and UDRVR+PR
//! on `mcf_m` — the one workload where `circuit` dominates host time.
//!
//! Untraced, one run sets up several times (a tiny solver-mode run whose
//! telemetry probe cold-solves the worst-case cell), runs the three
//! simulations one at a time (the "low" load) and then on a 2-worker pool
//! (the "high" load) until the time budget is spent. `wall_s` is the
//! median 2-worker pass; the latency metrics treat one pass as one request.
//! Every pass must reproduce the serial pass's `SimResult`s exactly, and
//! the recorded digest. `--seed` is accepted and changes nothing: see
//! [`SIM_SEED`].

use crate::figures::{counting_obs, set_pass_latencies, set_sim_layers};
use crate::report::{cpu_seconds, median, ratio, Report};
use crate::Args;
use reram_core::Scheme;
use reram_exec::ThreadPool;
use reram_obs::Obs;
use reram_serve::proto::crc32;
use reram_sim::{run_batch, Physics, SimConfig, SimResult, Simulator};
use reram_workloads::BenchProfile;
use std::time::Instant;

/// Per-core instruction budget of each simulation.
const INSTRUCTIONS_PER_CORE: u64 = 25_000;

/// The schemes simulated, one simulation each.
const SCHEMES: [Scheme; 3] = [Scheme::HardSys, Scheme::Drvr, Scheme::UdrvrPr];

/// Pool workers of the "high" passes.
const JOBS: usize = 2;

/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 3;

/// Simulation seed: the design point is fixed, like the paper figures'
/// (`reram_experiments::perf` runs at the same seed). The number of
/// distinct exact solves a run needs varies by 30 % across trace seeds, so
/// deriving the trace from `--seed` would turn seed choice into noise.
const SIM_SEED: u64 = 2020;

/// `SimResult` digest of the serial pass, recorded by
/// `perfbench record exact-physics`.
const GOLDEN: &str = include_str!("../golden/exact_physics.txt");

fn sims(physics: Physics, obs: &Obs) -> Vec<Simulator> {
    let cfg = SimConfig::paper_baseline().with_instructions_per_core(INSTRUCTIONS_PER_CORE);
    let mcf = BenchProfile::by_name("mcf_m").expect("table IV profile");
    SCHEMES
        .iter()
        .map(|&s| {
            Simulator::new(cfg, s, mcf, SIM_SEED)
                .with_physics(physics)
                .with_obs(obs)
        })
        .collect()
}

/// One pass: every simulation on `workers` pool threads (0 = serially on
/// this thread). Returns the results' digest and the wall time.
fn pass(physics: Physics, workers: usize, obs: &Obs) -> (u32, f64) {
    let pool = ThreadPool::with_obs(workers, obs);
    let t = Instant::now();
    let results: Vec<SimResult> = run_batch(&pool, sims(physics, obs));
    (digest(&results), t.elapsed().as_secs_f64())
}

/// CRC-32 over the exact (shortest round-trip) rendering of every result.
fn digest(results: &[SimResult]) -> u32 {
    crc32(format!("{results:?}").as_bytes())
}

/// The golden digest file: the serial solver pass's digest.
///
/// # Errors
///
/// Never; the signature matches the other recorders.
pub fn record() -> Result<String, String> {
    let (d, _) = pass(Physics::Solver, 0, &Obs::off());
    Ok(format!("{d:08x}\n"))
}

/// A tiny solver-mode run with telemetry on: the probe cold-solves the
/// worst-case cell of a 512×512 MAT before the first instruction. Returns
/// its duration and whether the probe solve failed.
fn setup_once() -> (f64, bool) {
    let obs = Obs::new();
    let cfg = SimConfig::paper_baseline().with_instructions_per_core(1_000);
    let mcf = BenchProfile::by_name("mcf_m").expect("table IV profile");
    let t = Instant::now();
    std::hint::black_box(
        Simulator::new(cfg, Scheme::UdrvrPr, mcf, SIM_SEED)
            .with_physics(Physics::Solver)
            .with_obs(&obs)
            .run(),
    );
    let s = t.elapsed().as_secs_f64();
    (s, obs.counter("sim.probe.solve_failed").get() > 0)
}

/// Runs the workload.
///
/// # Errors
///
/// Never; failures trip the correctness gate instead.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::new();
    let t_run = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let (s, probe_failed) = setup_once();
        if probe_failed {
            rep.fail("sim.probe.solve_failed: the worst-case probe solve failed");
        }
        setups.push(s);
    }
    let (reference, serial_wall) = pass(Physics::Solver, 0, &Obs::off());
    rep.attempted += SCHEMES.len() as u64;
    if u32::from_str_radix(GOLDEN.trim(), 16) != Ok(reference) {
        rep.failed += SCHEMES.len() as u64;
        rep.fail(format!(
            "SimResult digest {reference:08x}, recorded {}",
            GOLDEN.trim()
        ));
    }
    let check = |rep: &mut Report, d: u32| {
        rep.attempted += SCHEMES.len() as u64;
        if d != reference {
            rep.failed += SCHEMES.len() as u64;
            rep.fail(format!(
                "2-worker SimResult digest {d:08x} differs from the serial {reference:08x}"
            ));
        }
    };
    if !args.trace {
        let mut walls = Vec::new();
        while walls.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
            let (d, wall) = pass(Physics::Solver, JOBS, &Obs::off());
            check(&mut rep, d);
            walls.push(wall);
        }
        rep.set("setup_s", median(&setups));
        set_pass_latencies(&mut rep, serial_wall, &walls);
        return Ok(rep);
    }
    // Traced: solver and analytic passes of the same simulators, untraced,
    // price the physics; a telemetry pass counts the layers.
    let cpu0 = cpu_seconds();
    let (d, solver_wall) = pass(Physics::Solver, JOBS, &Obs::off());
    let cpu_s = cpu_seconds() - cpu0;
    check(&mut rep, d);
    let (_, analytic_wall) = pass(Physics::Analytic, JOBS, &Obs::off());
    let (obs, runs, instructions) = counting_obs();
    let (d, traced_wall) = pass(Physics::Solver, JOBS, &obs);
    check(&mut rep, d);
    set_sim_layers(
        &mut rep,
        &obs,
        runs.load(std::sync::atomic::Ordering::Relaxed),
        instructions.load(std::sync::atomic::Ordering::Relaxed),
        solver_wall,
    );
    let solves = obs.counter("sim.physics.exact_solves").get() as f64;
    let physics_s = solver_wall - analytic_wall;
    rep.set("physics.share", ratio(physics_s, solver_wall));
    rep.set("circuit.exact_solve_ms", ratio(physics_s * 1e3, solves));
    rep.set(
        "trace.overhead_share",
        ratio(traced_wall - solver_wall, solver_wall),
    );
    rep.set(
        "exec.idle_share",
        1.0 - ratio(cpu_s, JOBS as f64 * solver_wall),
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

    #[test]
    fn digest_trips_on_an_altered_result() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(2_000);
        let mcf = BenchProfile::by_name("mcf_m").unwrap();
        let r = Simulator::new(cfg, Scheme::Drvr, mcf, 1).run();
        let mut altered = r;
        altered.elapsed_ns += 1e-6;
        assert_eq!(digest(&[r]), digest(&[r]));
        assert_ne!(digest(&[r]), digest(&[altered]));
    }
}
