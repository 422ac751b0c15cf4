//! Solver-acceleration validation grid: KCL operating points across array
//! sizes and a DRVR-style RESET voltage ramp, solved through a reusable
//! [`SolverWorkspace`] so the run exercises warm starts and (with
//! `--solver-jobs ≥ 2`) banded line relaxation on that many threads.
//!
//! The table doubles as a determinism witness: every voltage it prints
//! comes out of the bitwise-deterministic solver, so the CSV must be
//! byte-identical for any `--solver-jobs` value, and warm vs cold starts
//! may differ only in the sweeps column (warm iterates land within
//! `tol_volts`/`tol_amps` of cold, and the printed digits round far above
//! those tolerances).

use crate::table::{fnum, ExpTable};
use crate::Budget;
use reram_array::{ArrayGeometry, ArrayModel};
use reram_circuit::{SolveOptions, SolverWorkspace};
use reram_fault::FaultInjector;
use reram_obs::Obs;
use std::sync::Arc;

/// Solver-acceleration knobs threaded from the `experiments` CLI.
#[derive(Debug, Clone, Copy)]
pub struct SolverCfg {
    /// Threads each relaxation phase is banded over (`--solver-jobs N`,
    /// see [`SolverWorkspace::with_threads`]); 1 relaxes on the calling
    /// thread.
    pub jobs: usize,
    /// Seed each solve from the previous operating point
    /// (`--cold-solver` clears this).
    pub warm_start: bool,
}

impl Default for SolverCfg {
    fn default() -> Self {
        Self {
            jobs: 1,
            warm_start: true,
        }
    }
}

/// The `solver_grid` experiment: worst-case RESET at each array size, with
/// the RESET voltage regulated over a millivolt ramp as DRVR would. Every
/// solve runs behind [`Crosspoint::solve_recover`]'s ladder, so an armed
/// fault plan (`--faults`, scope `solver_grid`) can force failures without
/// changing a single printed voltage — recoverable rungs are exact.
///
/// [`Crosspoint::solve_recover`]: reram_circuit::Crosspoint::solve_recover
///
/// # Panics
///
/// Panics if a worst-case RESET solve fails even after every recovery
/// rung — a misconfigured grid, not a recoverable event (the execution
/// engine catches the panic and reports the job in the failure manifest).
#[must_use]
pub fn solver_grid(
    budget: Budget,
    cfg: SolverCfg,
    faults: Option<&Arc<FaultInjector>>,
    obs: &Obs,
) -> ExpTable {
    let mut t = ExpTable::new(
        "solver_grid",
        "KCL vs analytic worst-case Veff across sizes (warm-start ramp)",
        &[
            "N",
            "Vrst (V)",
            "Veff KCL (V)",
            "Veff analytic (V)",
            "sweeps",
        ],
    );
    let sizes: &[usize] = match budget {
        Budget::Smoke => &[32],
        Budget::Quick => &[32, 64],
        Budget::Standard => &[64, 128, 256],
        Budget::Full => &[64, 128, 256, 512],
    };
    let opts = SolveOptions::default();
    let mut warm_hits = 0u64;
    let mut recoveries = 0u64;
    for &n in sizes {
        let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(n, 8));
        let mut ws = SolverWorkspace::new().with_threads(cfg.jobs);
        if let Some(inj) = faults {
            ws = ws.with_faults(Arc::clone(inj), "solver_grid");
        }
        for &vrst in &[3.0f64, 2.998, 3.002] {
            if !cfg.warm_start {
                ws.clear_seed();
            }
            let cp = model.to_crosspoint(n - 1, &[n - 1], &[vrst]);
            let (sol, rec) = cp
                .solve_recover(&opts, &mut ws, obs)
                .expect("worst-case RESET grid converges even through the recovery ladder");
            if rec.recovered_from.is_some() {
                recoveries += 1;
                assert!(
                    rec.rung.is_exact(),
                    "only exact rungs keep the determinism note honest: {}",
                    rec.rung
                );
            }
            let veff_kcl = sol.cell_voltage(n - 1, n - 1);
            let veff_analytic = model.effective_vrst(vrst, n - 1, n - 1, 1);
            t.row(vec![
                n.to_string(),
                fnum(vrst),
                fnum(veff_kcl),
                fnum(veff_analytic),
                sol.stats().sweeps.to_string(),
            ]);
        }
        warm_hits += ws.warm_hits();
    }
    t.note(
        "KCL Veff upper-bounds the analytic (fixed-current) model; the gap \
         narrows as wire drops shrink.",
    );
    t.note(format!(
        "Solver config: jobs={}, warm_start={}; warm hits {}, \
         ladder recoveries {} (voltages identical for any jobs/warm/fault \
         setting — bitwise-deterministic relaxation, residual-gated warm \
         starts, exact recovery rungs).",
        cfg.jobs, cfg.warm_start, warm_hits, recoveries
    ));
    // (Warm vs cold may still differ in the sweeps column — fewer sweeps is
    // what warm starts buy — so only the voltage columns are setting-proof.)
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_byte_identical_across_jobs_and_warm_settings() {
        let obs = Obs::off();
        let base = solver_grid(
            Budget::Quick,
            SolverCfg {
                jobs: 1,
                warm_start: true,
            },
            None,
            &obs,
        );
        let par = solver_grid(
            Budget::Quick,
            SolverCfg {
                jobs: 2,
                warm_start: true,
            },
            None,
            &obs,
        );
        let cold = solver_grid(
            Budget::Quick,
            SolverCfg {
                jobs: 1,
                warm_start: false,
            },
            None,
            &obs,
        );
        // Rows must match cell-for-cell; notes may differ (they echo the
        // config), except the cold run's sweep counts, which are part of
        // the config echo too — compare the physics columns only there.
        assert_eq!(base.rows, par.rows);
        for (a, b) in base.rows.iter().zip(&cold.rows) {
            assert_eq!(a[..4], b[..4], "voltages must agree warm vs cold");
        }
    }

    #[test]
    fn injected_solver_fault_leaves_the_grid_byte_identical() {
        use reram_fault::{FaultKind, FaultPlan, FaultSpec};
        let obs = Obs::off();
        let clean = solver_grid(Budget::Smoke, SolverCfg::default(), None, &obs);
        let plan = FaultPlan::new(5).with(FaultSpec::new(
            reram_fault::site::SOLVER,
            FaultKind::SolverNotConverged,
        ));
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let faulted = solver_grid(Budget::Smoke, SolverCfg::default(), Some(&inj), &obs);
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.recovered(), 1, "the ladder absorbs the fault");
        assert_eq!(clean.rows, faulted.rows, "recovery is bitwise-exact");
    }

    #[test]
    fn quick_grid_rows_are_pinned() {
        // Recorded, sweeps included, while this grid still ran with a
        // per-cell linearization cache (1e-5 V): solving without it moved
        // neither a printed voltage nor a sweep count.
        let want = [
            ["32", "3.000", "2.935", "2.935", "4"],
            ["32", "2.998", "2.933", "2.933", "3"],
            ["32", "3.002", "2.937", "2.937", "3"],
            ["64", "3.000", "2.867", "2.866", "4"],
            ["64", "2.998", "2.865", "2.864", "3"],
            ["64", "3.002", "2.868", "2.868", "4"],
        ];
        for jobs in [1, 2] {
            let cfg = SolverCfg {
                jobs,
                warm_start: true,
            };
            let t = solver_grid(Budget::Quick, cfg, None, &Obs::off());
            assert_eq!(
                t.rows,
                want.map(|row| row.map(String::from).to_vec()),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn warm_ramp_reports_warm_hits() {
        let obs = Obs::off();
        let t = solver_grid(Budget::Smoke, SolverCfg::default(), None, &obs);
        assert_eq!(t.rows.len(), 3);
        assert!(t.notes.iter().any(|n| n.contains("warm hits 2")));
    }
}
