//! System performance/energy experiments: Figs. 5c, 15, 16, 17 and the
//! Fig. 18/19/20 sensitivity sweeps.
//!
//! Every figure is a set of independent simulator runs reduced in a fixed
//! order, so each `*_par` entry point fans its runs out through
//! [`reram_sim::run_batch`] on a caller-supplied [`ThreadPool`] and then
//! assembles the table from the index-ordered results. The plain/`*_obs`
//! wrappers run on a [`ThreadPool::serial`] pool — the exact single-threaded
//! reference — and the determinism contract (see `reram-exec`) guarantees
//! any worker count reproduces it bitwise.
//!
//! The figures ask for the same simulation many times over: they share one
//! seed, the Table IV benchmarks and the 512×512 design point. On one pool
//! `run_batch` runs each distinct simulation once (the pool's memo, see
//! `reram_sim::run_batch`), so the suite's 235 requested runs cost 147:
//! Fig. 15's 88 runs cover all of Fig. 5c and Fig. 16, half of Fig. 17 and
//! the sweeps' baseline points (512×512, 20 nm, Kr = 1000).
//!
//! The sweep figures additionally export their structure
//! ([`sweep_spec`] / [`sweep_point_ratio`] / [`assemble_sweep`]) so the
//! `experiments` binary can schedule each sweep point as its own job in the
//! `reram-exec` DAG and checkpoint/resume at point granularity.

use crate::{Budget, ExpTable};
use reram_array::{ArrayGeometry, ArrayModel, CellParams, TechNode};
use reram_core::Scheme;
use reram_exec::ThreadPool;
use reram_obs::Obs;
use reram_sim::{run_batch, SimResult, Simulator};
use reram_workloads::BenchProfile;

/// Seed shared by all performance runs (deterministic results).
const SEED: u64 = 2020;

/// The benchmark subset used by the sensitivity sweeps (write-heavy, mixed,
/// read-heavy, plus a mix — keeps the sweeps tractable while spanning the
/// traffic space).
fn sweep_benchmarks() -> Vec<BenchProfile> {
    ["mcf_m", "ast_m", "gem_m", "mix_1"]
        .iter()
        .map(|n| BenchProfile::by_name(n).expect("table IV"))
        .collect()
}

fn sim(
    budget: Budget,
    scheme: Scheme,
    p: BenchProfile,
    array: Option<ArrayModel>,
    obs: &Obs,
) -> Simulator {
    let s = Simulator::new(budget.sim_config(), scheme, p, SEED).with_obs(obs);
    match array {
        Some(a) => s.with_array(a),
        None => s,
    }
}

/// Geometric mean of a slice of ratios.
fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Fig. 5c: the performance of the prior designs, normalized to ora-64×64.
#[must_use]
pub fn fig5c(budget: Budget) -> ExpTable {
    fig5c_obs(budget, &Obs::off())
}

/// [`fig5c`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig5c_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig5c_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig5c`] with its nine simulator runs fanned out over `pool`. All nine
/// (ora-64, Hard and Hard+Sys on three benchmarks) are [`fig15`] runs, so
/// a pool that has run one serves the other's.
#[must_use]
pub fn fig5c_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    let benches = [
        BenchProfile::by_name("mcf_m").expect("table IV"),
        BenchProfile::by_name("xal_m").expect("table IV"),
        BenchProfile::by_name("ast_m").expect("table IV"),
    ];
    let schemes = [Scheme::Oracle { window: 64 }, Scheme::Hard, Scheme::HardSys];
    let sims = benches
        .iter()
        .flat_map(|&p| schemes.iter().map(move |&s| sim(budget, s, p, None, obs)))
        .collect();
    let res = run_batch(pool, sims);

    let mut t = ExpTable::new(
        "fig5c",
        "Prior designs vs ora-64x64 (IPC ratio)",
        &["name", "Hard", "Hard+Sys"],
    );
    let mut hard_all = Vec::new();
    let mut hs_all = Vec::new();
    for (j, p) in benches.iter().enumerate() {
        let ora = &res[3 * j];
        let hard = res[3 * j + 1].speedup_over(ora);
        let hs = res[3 * j + 2].speedup_over(ora);
        hard_all.push(hard);
        hs_all.push(hs);
        t.row(vec![
            p.name.into(),
            format!("{hard:.3}"),
            format!("{hs:.3}"),
        ]);
    }
    t.row(vec![
        "gmean".into(),
        format!("{:.3}", gmean(&hard_all)),
        format!("{:.3}", gmean(&hs_all)),
    ]);
    t.note("Paper: hardware-only reaches <45% of ora-64x64 on mcf/xalancbmk; with SCH+RBDL <75%.");
    t.note("There is a large gap between all prior techniques and the oracle — the paper's motivation.");
    t
}

/// Fig. 15: the overall performance comparison, normalized to ora-64×64.
#[must_use]
pub fn fig15(budget: Budget) -> ExpTable {
    fig15_obs(budget, &Obs::off())
}

/// [`fig15`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig15_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig15_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig15`] with its 88 simulator runs (eight schemes × the 11 Table IV
/// benchmarks) fanned out over `pool`. They are a superset of [`fig5c`]'s
/// and [`fig16`]'s runs, of [`fig17`]'s UDRVR+PR runs and of the sweeps'
/// baseline points; a pool runs the shared ones once.
#[must_use]
pub fn fig15_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    let schemes = [
        Scheme::Baseline,
        Scheme::Hard,
        Scheme::HardSys,
        Scheme::Drvr,
        Scheme::UdrvrPr,
        Scheme::Oracle { window: 256 },
        Scheme::Oracle { window: 128 },
    ];
    let benches = BenchProfile::table_iv();
    let stride = 1 + schemes.len();
    let sims = benches
        .iter()
        .flat_map(|&p| {
            std::iter::once(sim(budget, Scheme::Oracle { window: 64 }, p, None, obs))
                .chain(schemes.iter().map(move |&s| sim(budget, s, p, None, obs)))
        })
        .collect();
    let res = run_batch(pool, sims);

    let mut headers = vec!["name".to_string()];
    headers.extend(schemes.iter().map(|s| s.label()));
    let mut t = ExpTable::new(
        "fig15",
        "Overall performance, normalized to ora-64x64",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (j, p) in benches.iter().enumerate() {
        let ora = &res[stride * j];
        let mut row = vec![p.name.to_string()];
        for k in 0..schemes.len() {
            let ratio = res[stride * j + 1 + k].speedup_over(ora);
            per_scheme[k].push(ratio);
            row.push(format!("{ratio:.3}"));
        }
        t.row(row);
    }
    let mut row = vec!["gmean".to_string()];
    for r in &per_scheme {
        row.push(format!("{:.3}", gmean(r)));
    }
    t.row(row);
    let udrvr = gmean(&per_scheme[4]);
    let hardsys = gmean(&per_scheme[2]);
    t.note(format!(
        "UDRVR+PR over Hard+Sys: {:+.1}% (paper: +11.7% average).",
        (udrvr / hardsys - 1.0) * 100.0
    ));
    t.note(format!(
        "UDRVR+PR reaches {:.0}% of ora-64x64 (paper: ~90%).",
        udrvr * 100.0
    ));
    t
}

/// Fig. 16: main-memory energy, normalized to Hard+Sys.
#[must_use]
pub fn fig16(budget: Budget) -> ExpTable {
    fig16_obs(budget, &Obs::off())
}

/// [`fig16`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig16_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig16_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig16`] with its 44 simulator runs fanned out over `pool`: Hard+Sys,
/// Hard, DRVR and UDRVR+PR per benchmark, every one a [`fig15`] run.
#[must_use]
pub fn fig16_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    let schemes = [Scheme::Hard, Scheme::Drvr, Scheme::UdrvrPr];
    let benches = BenchProfile::table_iv();
    let stride = 1 + schemes.len();
    let sims = benches
        .iter()
        .flat_map(|&p| {
            std::iter::once(sim(budget, Scheme::HardSys, p, None, obs))
                .chain(schemes.iter().map(move |&s| sim(budget, s, p, None, obs)))
        })
        .collect();
    let res = run_batch(pool, sims);

    let mut t = ExpTable::new(
        "fig16",
        "Main-memory energy vs Hard+Sys",
        &[
            "name",
            "Hard",
            "DRVR",
            "UDRVR+PR",
            "UPR read",
            "UPR write",
            "UPR leak",
        ],
    );
    let mut ratios = Vec::new();
    for (j, p) in benches.iter().enumerate() {
        let hs = &res[stride * j];
        let mut row = vec![p.name.to_string()];
        let mut upr: Option<&SimResult> = None;
        for (k, &s) in schemes.iter().enumerate() {
            let r = &res[stride * j + 1 + k];
            row.push(format!("{:.3}", r.energy_vs(hs)));
            if s == Scheme::UdrvrPr {
                ratios.push(r.energy_vs(hs));
                upr = Some(r);
            }
        }
        let upr = upr.expect("UDRVR+PR runs");
        let tot = upr.energy.total_pj();
        row.push(format!("{:.2}", upr.energy.read_pj / tot));
        row.push(format!("{:.2}", upr.energy.write_pj / tot));
        row.push(format!("{:.2}", upr.energy.leakage_pj / tot));
        t.row(row);
    }
    t.note(format!(
        "UDRVR+PR energy = {:.2}x Hard+Sys (paper: 0.53x, i.e. -46.6%): the prior techniques' leakage dominates.",
        gmean(&ratios)
    ));
    t
}

/// Fig. 17: UDRVR-3.94 (no PR, bigger pump) vs UDRVR+PR.
#[must_use]
pub fn fig17(budget: Budget) -> ExpTable {
    fig17_obs(budget, &Obs::off())
}

/// [`fig17`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig17_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig17_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig17`] with its 22 simulator runs fanned out over `pool`: the 11
/// UDRVR-3.94 runs are its own, the 11 UDRVR+PR runs are [`fig15`]'s.
#[must_use]
pub fn fig17_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    let benches = BenchProfile::table_iv();
    let sims = benches
        .iter()
        .flat_map(|&p| {
            [
                sim(budget, Scheme::Udrvr394, p, None, obs),
                sim(budget, Scheme::UdrvrPr, p, None, obs),
            ]
        })
        .collect();
    let res = run_batch(pool, sims);

    let mut t = ExpTable::new(
        "fig17",
        "UDRVR+PR speedup over UDRVR-3.94",
        &["name", "speedup"],
    );
    let mut all = Vec::new();
    for (j, p) in benches.iter().enumerate() {
        let s = res[2 * j + 1].speedup_over(&res[2 * j]);
        all.push(s);
        t.row(vec![p.name.into(), format!("{s:.3}")]);
    }
    t.row(vec!["gmean".into(), format!("{:.3}", gmean(&all))]);
    t.note(format!(
        "UDRVR+PR beats UDRVR-3.94 by {:+.1}% (paper: +7.2%): without PR, 3-6-bit data-driven",
        (gmean(&all) - 1.0) * 100.0
    ));
    t.note("RESETs coalesce un-partitioned current that the latency budget must cover.");
    t
}

/// The shape of one sensitivity sweep (Figs. 18/19/20): its points plus the
/// table dressing. Produced by [`sweep_spec`], consumed point-by-point via
/// [`sweep_point_ratio`] and reassembled with [`assemble_sweep`] — the split
/// lets the `experiments` DAG checkpoint each point independently.
pub struct SweepSpec {
    /// Experiment id (`fig18`/`fig19`/`fig20`).
    pub id: &'static str,
    title: &'static str,
    /// Sweep points: display label and the array model to simulate.
    pub points: Vec<(String, ArrayModel)>,
    paper: &'static str,
    note: &'static str,
}

/// Returns the sweep structure for `fig18`/`fig19`/`fig20`, `None` for
/// anything else.
#[must_use]
pub fn sweep_spec(id: &str) -> Option<SweepSpec> {
    Some(match id {
        "fig18" => SweepSpec {
            id: "fig18",
            title: "UDRVR+PR gain over Hard+Sys vs MAT size",
            points: [256usize, 512, 1024]
                .iter()
                .map(|&s| {
                    (
                        format!("{s}x{s}"),
                        ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(s, 8)),
                    )
                })
                .collect(),
            paper: "+6.7%, +11.7%, +18.2%",
            note: "Bigger arrays suffer more drop, so the mitigation matters more (paper Fig. 18).",
        },
        "fig19" => SweepSpec {
            id: "fig19",
            title: "UDRVR+PR gain over Hard+Sys vs process node",
            points: TechNode::sweep()
                .iter()
                .map(|&n| (n.to_string(), ArrayModel::paper_baseline().with_tech(n)))
                .collect(),
            paper: "+1.4%, +11.7%, +18.3%",
            note: "Wire resistance grows as the node shrinks; so does the gain (paper Fig. 19).",
        },
        "fig20" => SweepSpec {
            id: "fig20",
            title: "UDRVR+PR gain over Hard+Sys vs selector ON/OFF ratio",
            points: [500.0f64, 1000.0, 2000.0]
                .iter()
                .map(|&kr| {
                    (
                        format!("Kr={kr:.0}"),
                        ArrayModel::paper_baseline().with_cell(CellParams::default().with_kr(kr)),
                    )
                })
                .collect(),
            paper: "+18.9%, +11.7%, +5.8%",
            note: "Leakier selectors sneak more; the mitigation matters more (paper Fig. 20).",
        },
        _ => return None,
    })
}

/// One sweep point's result: the geometric-mean UDRVR+PR / Hard+Sys speedup
/// over the sweep benchmarks at the given array configuration. Its eight
/// runs fan out over `pool`; the reduction is index-ordered, so the value is
/// bitwise-identical to a serial loop. At the paper's baseline array (the
/// 512×512, 20 nm and Kr = 1000 points) the runs are [`fig15`]'s, and every
/// sweep's baseline point is the same eight runs.
#[must_use]
pub fn sweep_point_ratio(budget: Budget, array: ArrayModel, pool: &ThreadPool, obs: &Obs) -> f64 {
    let benches = sweep_benchmarks();
    let sims = benches
        .iter()
        .flat_map(|&p| {
            [
                sim(budget, Scheme::HardSys, p, Some(array), obs),
                sim(budget, Scheme::UdrvrPr, p, Some(array), obs),
            ]
        })
        .collect();
    let res = run_batch(pool, sims);
    let ratios: Vec<f64> = (0..benches.len())
        .map(|j| res[2 * j + 1].speedup_over(&res[2 * j]))
        .collect();
    gmean(&ratios)
}

/// Builds the sweep table from per-point [`sweep_point_ratio`] values
/// (`ratios[k]` belongs to `spec.points[k]`).
#[must_use]
pub fn assemble_sweep(spec: &SweepSpec, ratios: &[f64]) -> ExpTable {
    let mut t = ExpTable::new(
        spec.id,
        spec.title,
        &["point", "UDRVR+PR / Hard+Sys", "paper"],
    );
    let paper_vals: Vec<&str> = spec.paper.split(',').collect();
    for (k, (label, _array)) in spec.points.iter().enumerate() {
        t.row(vec![
            label.clone(),
            format!("{:+.1}%", (ratios[k] - 1.0) * 100.0),
            paper_vals.get(k).unwrap_or(&"-").trim().to_string(),
        ]);
    }
    t.note(spec.note);
    t
}

fn sweep_par(id: &str, budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    let spec = sweep_spec(id).expect("known sweep id");
    let ratios: Vec<f64> = spec
        .points
        .iter()
        .map(|(_label, array)| sweep_point_ratio(budget, *array, pool, obs))
        .collect();
    assemble_sweep(&spec, &ratios)
}

/// Fig. 18: the array-size sweep (256 / 512 / 1024).
#[must_use]
pub fn fig18(budget: Budget) -> ExpTable {
    fig18_obs(budget, &Obs::off())
}

/// [`fig18`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig18_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig18_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig18`] with its simulator runs fanned out over `pool`.
#[must_use]
pub fn fig18_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    sweep_par("fig18", budget, pool, obs)
}

/// Fig. 19: the wire-resistance (process node) sweep.
#[must_use]
pub fn fig19(budget: Budget) -> ExpTable {
    fig19_obs(budget, &Obs::off())
}

/// [`fig19`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig19_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig19_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig19`] with its simulator runs fanned out over `pool`.
#[must_use]
pub fn fig19_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    sweep_par("fig19", budget, pool, obs)
}

/// Fig. 20: the selector ON/OFF-ratio sweep.
#[must_use]
pub fn fig20(budget: Budget) -> ExpTable {
    fig20_obs(budget, &Obs::off())
}

/// [`fig20`] with telemetry attached to every simulator run.
#[must_use]
pub fn fig20_obs(budget: Budget, obs: &Obs) -> ExpTable {
    fig20_par(budget, &ThreadPool::serial(), obs)
}

/// [`fig20`] with its simulator runs fanned out over `pool`.
#[must_use]
pub fn fig20_par(budget: Budget, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    sweep_par("fig20", budget, pool, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_favors_pr() {
        let t = fig17(Budget::Quick);
        let gmean_row = t.rows.last().unwrap();
        let s: f64 = gmean_row[1].parse().unwrap();
        assert!(s > 1.0, "UDRVR+PR vs UDRVR-3.94 = {s}");
    }

    #[test]
    fn fig18_structure_and_512_point() {
        // The paper's Fig. 18 trend (gain grows with MAT size) does NOT
        // fully reproduce: at 1024×1024 DRVR's fixed 8 sections leave a
        // ~0.14 V in-section residual and SCH's heterogeneity exploitation
        // overtakes the uniform-latency design — recorded in EXPERIMENTS.md.
        // We assert the table structure and that the paper's own design
        // point (512×512) shows a solid positive gain.
        let t = fig18(Budget::Quick);
        assert_eq!(t.rows.len(), 3);
        let gain = |r: &Vec<String>| -> f64 { r[1].trim_end_matches('%').parse().unwrap() };
        assert!(
            gain(&t.rows[1]) > 0.0,
            "512x512 gain = {}",
            gain(&t.rows[1])
        );
    }

    #[test]
    fn fig17_parallel_is_bitwise_identical_to_serial() {
        let serial = fig17(Budget::Smoke);
        let par = fig17_par(Budget::Smoke, &ThreadPool::new(4), &Obs::off());
        assert_eq!(serial.rows, par.rows);
        assert_eq!(serial.notes, par.notes);
    }

    #[test]
    fn concurrent_runs_probe_the_solver_once_per_registry() {
        let obs = Obs::new();
        let _ = fig15_par(Budget::Smoke, &ThreadPool::new(2), &obs);
        assert_eq!(obs.counter("circuit.solve.solves").get(), 1);
    }

    #[test]
    fn fig16_after_fig15_on_one_pool_matches_a_fresh_serial_fig16() {
        let pool = ThreadPool::new(2);
        let obs = Obs::new();
        let _ = fig15_par(Budget::Smoke, &pool, &obs);
        assert_eq!(
            obs.counter("sim.memo.hits").get(),
            0,
            "fig15 has no repeats"
        );
        let shared = fig16_par(Budget::Smoke, &pool, &obs);
        assert_eq!(
            obs.counter("sim.memo.hits").get(),
            4 * BenchProfile::table_iv().len() as u64,
            "every fig16 run is a fig15 run"
        );
        let fresh = fig16(Budget::Smoke);
        assert_eq!(shared.rows, fresh.rows);
        assert_eq!(shared.notes, fresh.notes);
    }

    #[test]
    fn sweep_point_matches_assembled_figure() {
        let spec = sweep_spec("fig20").expect("fig20 is a sweep");
        let pool = ThreadPool::serial();
        let obs = Obs::off();
        let ratios: Vec<f64> = spec
            .points
            .iter()
            .map(|(_l, a)| sweep_point_ratio(Budget::Smoke, *a, &pool, &obs))
            .collect();
        let assembled = assemble_sweep(&spec, &ratios);
        let direct = fig20(Budget::Smoke);
        assert_eq!(assembled.rows, direct.rows);
    }
}
