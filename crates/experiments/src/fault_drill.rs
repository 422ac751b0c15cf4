//! The `fault_drill` experiment: marches a canned workload through every
//! recovery ladder in the stack — the memory controller's write-verify
//! re-RESET loop ([`reram_mem::VerifiedStore`]) and the circuit solver's
//! rung ladder ([`reram_circuit::Crosspoint::solve_recover`]) — and reports
//! what each drill station saw.
//!
//! Without `--faults` every station comes back `clean`; with a fault plan
//! armed, the drill is where the plan's `mem.*` and `circuit.solve` faults
//! land, and the table records which ladder rung absorbed each one. The CI
//! fault-smoke leg diffs this table (and the run's failure manifest)
//! against a committed golden copy, so every cell must be deterministic.

use crate::table::{fnum, ExpTable};
use reram_array::{ArrayGeometry, ArrayModel};
use reram_circuit::{SolveOptions, SolverWorkspace};
use reram_core::{Drvr, Scheme, WriteModel};
use reram_fault::FaultInjector;
use reram_mem::{ChargePump, FunctionalStore, VerifiedStore};
use reram_obs::Obs;
use std::sync::Arc;

/// Lines the memory-controller drill writes.
const DRILL_LINES: usize = 8;

fn pattern(line: usize, round: usize) -> [u8; 64] {
    std::array::from_fn(|i| ((i * 37 + line * 11 + round * 131) % 256) as u8)
}

/// Runs the drill. `faults` arms the deterministic injection plane; the
/// drill consults `mem.pump.droop` / `mem.verify.miscompare` /
/// `mem.cell.stuck` (targets `line0`..`line7`) and `circuit.solve`
/// (scope `fault_drill`).
#[must_use]
pub fn fault_drill(faults: Option<&Arc<FaultInjector>>, obs: &Obs) -> ExpTable {
    let mut t = ExpTable::new(
        "fault_drill",
        "Recovery-ladder drill: write-verify re-RESET and solver rungs",
        &["station", "case", "attempts", "outcome", "detail"],
    );

    // Station 1: the write-verify controller. Two rounds over eight lines
    // gives targeted faults (occurrence-keyed per line) room to land.
    let store = FunctionalStore::new(DRILL_LINES, WriteModel::paper(Scheme::UdrvrPr));
    let drvr = Drvr::design(&ArrayModel::paper_baseline(), 3.0);
    let mut vs = VerifiedStore::new(store, drvr, ChargePump::udrvr(), obs);
    if let Some(inj) = faults {
        vs = vs.with_faults(Arc::clone(inj));
    }
    for round in 0..2 {
        for line in 0..DRILL_LINES {
            let data = pattern(line, round);
            let w = vs.write_verified(line, &data);
            let outcome = if w.degraded {
                "degraded"
            } else if w.recovered {
                "recovered"
            } else {
                "clean"
            };
            let readback_ok = vs.read_line(line) == data;
            t.row(vec![
                "mem.verify".to_string(),
                format!("line{line} r{round}"),
                w.attempts.to_string(),
                outcome.to_string(),
                format!("v_reset={} readback={}", fnum(w.v_reset), readback_ok),
            ]);
        }
    }
    let degraded: Vec<String> = vs
        .degraded_lines()
        .iter()
        .map(ToString::to_string)
        .collect();

    // Station 2: the solver ladder, on the worst-case RESET of a 32x32 MAT.
    let n = 32;
    let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(n, 8));
    let cp = model.to_crosspoint(n - 1, &[n - 1], &[3.0]);
    let mut ws = SolverWorkspace::new();
    if let Some(inj) = faults {
        ws = ws.with_faults(Arc::clone(inj), "fault_drill");
    }
    match cp.solve_recover(&SolveOptions::default(), &mut ws, obs) {
        Ok((sol, rec)) => {
            let outcome = if rec.recovered_from.is_some() {
                "recovered"
            } else {
                "clean"
            };
            t.row(vec![
                "circuit.solve".to_string(),
                format!("{n}x{n} worst-case RESET"),
                rec.attempts.to_string(),
                outcome.to_string(),
                format!(
                    "rung={} veff={}",
                    rec.rung.name(),
                    fnum(sol.cell_voltage(n - 1, n - 1))
                ),
            ]);
        }
        Err(e) => {
            t.row(vec![
                "circuit.solve".to_string(),
                format!("{n}x{n} worst-case RESET"),
                "-".to_string(),
                "failed".to_string(),
                e.to_string(),
            ]);
        }
    }

    t.note(format!(
        "degraded lines: [{}]; injected={} recovered={}",
        degraded.join(" "),
        faults.map_or(0, |inj| inj.injected()),
        faults.map_or(0, |inj| inj.recovered()),
    ));
    t.note(
        "Recoverable faults must leave readback=true with an escalated \
         v_reset; only unrecoverable classes (stuck cells) may degrade.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_fault::{FaultKind, FaultPlan, FaultSpec};

    /// Rows station 2 contributes: the solver case.
    const EXTRA_ROWS: usize = 1;

    #[test]
    fn clean_drill_is_all_clean() {
        let obs = Obs::off();
        let t = fault_drill(None, &obs);
        assert_eq!(t.rows.len(), DRILL_LINES * 2 + EXTRA_ROWS);
        assert!(t.rows.iter().all(|r| r[3] == "clean"), "{:?}", t.rows);
    }

    fn armed_plan() -> FaultPlan {
        FaultPlan::new(11)
            .with(
                FaultSpec::new(reram_fault::site::VERIFY, FaultKind::VerifyMiscompare)
                    .target("line2"),
            )
            .with(FaultSpec::new(reram_fault::site::PUMP, FaultKind::PumpDroop).target("line4"))
            .with(FaultSpec::new(reram_fault::site::CELL, FaultKind::CellStuck).target("line6"))
            .with(FaultSpec::new(
                reram_fault::site::SOLVER,
                FaultKind::SolverNotConverged,
            ))
    }

    #[test]
    fn armed_drill_recovers_recoverables_and_degrades_stuck_cells() {
        let obs = Obs::off();
        let inj = Arc::new(FaultInjector::new(armed_plan(), &obs));
        let t = fault_drill(Some(&inj), &obs);
        let outcome = |case: &str| {
            t.rows
                .iter()
                .find(|r| r[1] == case)
                .map(|r| r[3].clone())
                .expect("row")
        };
        assert_eq!(outcome("line2 r0"), "recovered");
        assert_eq!(outcome("line4 r0"), "recovered");
        assert_eq!(outcome("line6 r0"), "degraded");
        assert_eq!(outcome("32x32 worst-case RESET"), "recovered");
        assert_eq!(outcome("line2 r1"), "clean", "occurrence 0 only fires once");
        assert!(inj.injected() >= 4);
        assert!(inj.recovered() >= 3);
        // Determinism: a second drill under the same plan matches row-for-row.
        let obs2 = Obs::off();
        let inj2 = Arc::new(FaultInjector::new(armed_plan(), &obs2));
        let t2 = fault_drill(Some(&inj2), &obs2);
        assert_eq!(t.rows, t2.rows);
    }
}
