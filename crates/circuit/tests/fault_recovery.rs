//! Property: for *any* [`reram_fault::FaultPlan`] whose solver faults are
//! recoverable, the recovery ladder's output is bitwise identical to the
//! fault-free solve of the same network (ISSUE 4, satellite 4).
//!
//! Plans are generated from the in-repo [`reram_workloads::Rng64`]; the
//! `proptest` cargo feature (no extra dependencies) multiplies the case
//! count for a deeper soak.

use reram_circuit::{
    CellDevice, Crosspoint, LineEnd, PolySelector, RecoveryRung, SolveOptions, SolverWorkspace,
};
use reram_fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
use reram_workloads::Rng64;
use std::sync::Arc;

fn cases(base: usize) -> usize {
    if cfg!(feature = "proptest") {
        base * 8
    } else {
        base
    }
}

fn reset_array(rows: usize, cols: usize, r_wire: f64, vrst: f64) -> Crosspoint {
    let lrs = CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0));
    let mut cp = Crosspoint::uniform(rows, cols, r_wire, lrs);
    for i in 0..rows {
        cp.set_wl_left(
            i,
            if i == rows - 1 {
                LineEnd::ground()
            } else {
                LineEnd::driven(vrst / 2.0)
            },
        );
    }
    for j in 0..cols {
        cp.set_bl_near(
            j,
            if j == cols - 1 {
                LineEnd::driven(vrst)
            } else {
                LineEnd::driven(vrst / 2.0)
            },
        );
    }
    cp
}

/// The recoverable solver fault kinds a plan may schedule.
const SOLVER_KINDS: [FaultKind; 3] = [
    FaultKind::SolverNotConverged,
    FaultKind::SolverSingularLine,
    FaultKind::SolverPerturbLinearization,
];

/// Draws a random plan with 1–4 solver faults. Occurrence 0 always fires on
/// the first solve; the rest sit past the ladder's four-attempt reach, so
/// the property also covers plans whose faults lie beyond the run.
fn random_plan(rng: &mut Rng64) -> FaultPlan {
    let n_faults = 1 + rng.gen_u64_below(4) as usize;
    let mut plan = FaultPlan::new(rng.next_u64());
    for k in 0..n_faults {
        let kind = SOLVER_KINDS[rng.gen_u64_below(SOLVER_KINDS.len() as u64) as usize];
        // Fault 0 targets the first solve; later faults land on occurrences
        // this case's single recover call (≤ 4 attempts) never reaches.
        let occurrence = if k == 0 { 0 } else { 4 + rng.gen_u64_below(8) };
        let mut spec = FaultSpec::new(reram_fault::site::SOLVER, kind).occurrence(occurrence);
        if rng.gen_u64_below(2) == 1 {
            spec = spec.param(10f64.powf(rng.gen_range_f64(-4.0, 0.0)));
        }
        plan = plan.with(spec);
    }
    plan
}

/// For any plan of recoverable solver faults, `solve_recover` under
/// injection returns bitwise the same voltages as the fault-free solve.
#[test]
fn recovered_solve_is_bitwise_identical_to_fault_free() {
    let mut rng = Rng64::new(0xFA01);
    for case in 0..cases(24) {
        let rows = 4 + rng.gen_u64_below(8) as usize;
        let cols = 4 + rng.gen_u64_below(8) as usize;
        let r_wire = rng.gen_range_f64(2.0, 20.0);
        let vrst = rng.gen_range_f64(2.0, 3.6);
        let cp = reset_array(rows, cols, r_wire, vrst);
        let opts = SolveOptions::default();

        let reference = cp.solve(&opts).expect("fault-free solve");

        let plan = random_plan(&mut rng);
        let faulted = plan.faults.iter().any(|f| f.occurrence == 0);
        let inj = Arc::new(FaultInjector::new(plan, &reram_obs::Obs::off()));
        let mut ws = SolverWorkspace::new().with_faults(Arc::clone(&inj), "prop");
        let (sol, rec) = cp
            .solve_recover(&opts, &mut ws, &reram_obs::Obs::off())
            .unwrap_or_else(|e| panic!("case {case}: ladder must absorb, got {e}"));

        if faulted {
            assert_eq!(rec.rung, RecoveryRung::ColdRestart, "case {case}");
            assert_eq!(inj.recovered(), 1, "case {case}");
        } else {
            assert_eq!(rec.rung, RecoveryRung::Clean, "case {case}");
        }
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(
                    sol.cell_voltage(i, j).to_bits(),
                    reference.cell_voltage(i, j).to_bits(),
                    "case {case}: cell ({i},{j}) diverged"
                );
                assert_eq!(
                    sol.wl_voltage(i, j).to_bits(),
                    reference.wl_voltage(i, j).to_bits(),
                    "case {case}: WL node ({i},{j}) diverged"
                );
                assert_eq!(
                    sol.bl_voltage(i, j).to_bits(),
                    reference.bl_voltage(i, j).to_bits(),
                    "case {case}: BL node ({i},{j}) diverged"
                );
            }
        }
    }
}

/// A warm-started workspace recovers to the same bits too: the ladder's
/// cold-restart rung must shed all warm state.
#[test]
fn warm_workspace_recovers_to_cold_solve_bits() {
    let mut rng = Rng64::new(0xFA02);
    for case in 0..cases(12) {
        let n = 5 + rng.gen_u64_below(6) as usize;
        let vrst = rng.gen_range_f64(2.2, 3.4);
        let cp = reset_array(n, n, 11.5, vrst);
        let opts = SolveOptions::default();
        let reference = cp.solve(&opts).expect("fault-free solve");

        // Fault fires on the *second* solve — the warm one.
        let plan = FaultPlan::new(rng.next_u64()).with(
            FaultSpec::new(reram_fault::site::SOLVER, FaultKind::SolverNotConverged).occurrence(1),
        );
        let inj = Arc::new(FaultInjector::new(plan, &reram_obs::Obs::off()));
        let mut ws = SolverWorkspace::new().with_faults(inj, "prop-warm");
        cp.solve_into(&opts, &mut ws, &reram_obs::Obs::off())
            .unwrap_or_else(|e| panic!("case {case}: priming solve failed: {e}"));
        let (sol, rec) = cp
            .solve_recover(&opts, &mut ws, &reram_obs::Obs::off())
            .unwrap_or_else(|e| panic!("case {case}: ladder must absorb, got {e}"));
        assert_eq!(rec.rung, RecoveryRung::ColdRestart, "case {case}");
        assert_eq!(sol.stats(), reference.stats(), "case {case}");
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    sol.wl_voltage(i, j).to_bits(),
                    reference.wl_voltage(i, j).to_bits(),
                    "case {case}: WL node ({i},{j}) diverged after warm recovery"
                );
                assert_eq!(
                    sol.bl_voltage(i, j).to_bits(),
                    reference.bl_voltage(i, j).to_bits(),
                    "case {case}: BL node ({i},{j}) diverged after warm recovery"
                );
            }
        }
    }
}
