//! The solver recovery ladder (DESIGN.md §9).
//!
//! [`Crosspoint::solve_recover`] wraps a warm solve in an escalation
//! sequence that absorbs transient failures — an injected fault, a stale
//! warm seed, a marginally-conditioned system — before surfacing an error
//! to the caller:
//!
//! 1. **Requested solve** — warm-started if the workspace holds a seed,
//!    with the caller's exact [`SolveOptions`].
//! 2. **Cold restart** — drop the warm seed, then re-solve with the same
//!    options from the cold bias-ramp initial guess. Because this attempt
//!    shares nothing with the failed one, its iterate sequence is *bitwise
//!    identical* to a fault-free cold solve — the determinism guarantee the
//!    fault-injection property tests pin down.
//! 3. **Damped** — quarter the Newton step clamp and double the sweep
//!    budget: slower, but converges on stiffer systems that oscillate under
//!    the default damping.
//! 4. **Regularized pivot** — only for [`SolveError::SingularLine`]: add
//!    ~1 nS of leak to every node ([`SolveOptions::extra_leak_s`]), which
//!    bounds every pivot away from zero. The answer carries a sub-microvolt
//!    bias, so the rung is reported as degraded rather than clean.
//!
//! Every escalation emits `recovery.solver.*` telemetry; when the
//! workspace carries a [`reram_fault::FaultInjector`] the recovery is also
//! reported back through it (so run manifests can pair injections with
//! recoveries).

use crate::solve::{SolutionView, SolveOptions, SolveStats};
use crate::workspace::SolverWorkspace;
use crate::{Crosspoint, SolveError};
use reram_obs::{Obs, Value};

/// Extra leak conductance (siemens) the regularized rung adds per node: six
/// orders of magnitude above the built-in 1 pS floor — enough to bound any
/// pivot away from zero — yet still below a microamp at RESET voltages.
pub const RECOVERY_LEAK_S: f64 = 1e-9;

/// Which rung of the ladder produced the returned solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The requested solve succeeded; nothing was recovered.
    Clean,
    /// Succeeded after dropping the warm seed (bitwise identical to a
    /// fault-free cold solve).
    ColdRestart,
    /// Succeeded under tightened damping and an extended sweep budget.
    Damped,
    /// Succeeded only with the regularized pivot; the answer carries a
    /// bounded bias (see [`RECOVERY_LEAK_S`]).
    Regularized,
}

impl RecoveryRung {
    /// Stable telemetry/manifest label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Clean => "clean",
            RecoveryRung::ColdRestart => "cold_restart",
            RecoveryRung::Damped => "damped",
            RecoveryRung::Regularized => "regularized",
        }
    }

    /// True when the rung's answer is exact (no regularization bias).
    #[must_use]
    pub fn is_exact(self) -> bool {
        self != RecoveryRung::Regularized
    }
}

impl std::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a [`Crosspoint::solve_recover`] call succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The rung that produced the solution.
    pub rung: RecoveryRung,
    /// Solve attempts made (1 = clean first try).
    pub attempts: u32,
    /// The error the *first* attempt died with, when any rung above
    /// [`RecoveryRung::Clean`] was needed.
    pub recovered_from: Option<SolveError>,
}

impl Recovery {
    fn clean() -> Self {
        Self {
            rung: RecoveryRung::Clean,
            attempts: 1,
            recovered_from: None,
        }
    }
}

impl Crosspoint {
    /// [`Crosspoint::solve_into`] behind the recovery ladder described in
    /// the module docs. On success the [`Recovery`] reports which rung
    /// produced the answer; the error returned on total failure is the
    /// *last* rung's, whose diagnostics reflect the most-forgiving
    /// configuration tried.
    ///
    /// # Errors
    ///
    /// As [`Crosspoint::solve_into`], but only after every applicable rung
    /// failed.
    pub fn solve_recover<'w>(
        &self,
        opts: &SolveOptions,
        ws: &'w mut SolverWorkspace,
        obs: &Obs,
    ) -> Result<(SolutionView<'w>, Recovery), SolveError> {
        let (stats, rec) = self.climb(opts, ws, obs)?;
        Ok((self.view(ws, stats), rec))
    }

    /// The ladder itself: the converged statistics and how they were won.
    fn climb(
        &self,
        opts: &SolveOptions,
        ws: &mut SolverWorkspace,
        obs: &Obs,
    ) -> Result<(SolveStats, Recovery), SolveError> {
        let first = match self.solve_tracked(opts, ws, obs) {
            Ok(stats) => return Ok((stats, Recovery::clean())),
            Err(e) => e,
        };

        // Rung 2: cold restart. Dropping the seed leaves this attempt
        // nothing of the failed one, so it is bit-identical to a cold solve.
        ws.clear_seed();
        if let Ok(stats) = self.solve_tracked(opts, ws, obs) {
            let rec = self.recovered(RecoveryRung::ColdRestart, 2, first, ws, obs);
            return Ok((stats, rec));
        }

        // Rung 3: tightened damping, extended budget.
        let damped = SolveOptions {
            max_step_volts: opts.max_step_volts / 4.0,
            max_sweeps: opts.max_sweeps * 2,
            ..*opts
        };
        ws.clear_seed();
        let mut last = match self.solve_tracked(&damped, ws, obs) {
            Ok(stats) => {
                let rec = self.recovered(RecoveryRung::Damped, 3, first, ws, obs);
                return Ok((stats, rec));
            }
            Err(e) => e,
        };

        // Rung 4: regularized pivot — only useful against singular line
        // systems; masking a genuine non-convergence with a biased answer
        // would be worse than the error.
        if matches!(last, SolveError::SingularLine { .. }) {
            let regularized = SolveOptions {
                extra_leak_s: opts.extra_leak_s + RECOVERY_LEAK_S,
                ..damped
            };
            ws.clear_seed();
            match self.solve_tracked(&regularized, ws, obs) {
                Ok(stats) => {
                    let rec = self.recovered(RecoveryRung::Regularized, 4, first, ws, obs);
                    return Ok((stats, rec));
                }
                Err(e) => last = e,
            }
        }

        if obs.enabled() {
            obs.counter("recovery.solver.exhausted").inc();
            obs.event(
                "recovery.solver.exhausted",
                &[("error", Value::Str(last.to_string()))],
            );
        }
        Err(last)
    }

    /// Builds the [`Recovery`] record for a successful escalation and emits
    /// the `recovery.solver.*` telemetry.
    fn recovered(
        &self,
        rung: RecoveryRung,
        attempts: u32,
        first: SolveError,
        ws: &SolverWorkspace,
        obs: &Obs,
    ) -> Recovery {
        if obs.enabled() {
            obs.counter("recovery.solver.recovered").inc();
            obs.counter(&format!("recovery.solver.{}", rung.name()))
                .inc();
            obs.event(
                "recovery.solver",
                &[
                    ("rung", Value::Str(rung.name().to_string())),
                    ("attempts", Value::U64(u64::from(attempts))),
                    ("recovered_from", Value::Str(first.to_string())),
                ],
            );
        }
        if let Some((inj, _scope)) = ws.faults() {
            inj.note_recovery("solver", rung.name());
        }
        Recovery {
            rung,
            attempts,
            recovered_from: Some(first),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDevice, LineEnd, PolySelector};
    use reram_fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
    use std::sync::Arc;

    fn lrs() -> CellDevice {
        CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0))
    }

    fn reset_cp(n: usize, vrst: f64) -> Crosspoint {
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        for i in 0..n {
            cp.set_wl_left(
                i,
                if i == n - 1 {
                    LineEnd::ground()
                } else {
                    LineEnd::driven(vrst / 2.0)
                },
            );
        }
        for j in 0..n {
            cp.set_bl_near(
                j,
                if j == n - 1 {
                    LineEnd::driven(vrst)
                } else {
                    LineEnd::driven(vrst / 2.0)
                },
            );
        }
        cp
    }

    fn injector(kind: FaultKind) -> Arc<FaultInjector> {
        let plan = FaultPlan::new(1).with(FaultSpec::new(reram_fault::site::SOLVER, kind));
        Arc::new(FaultInjector::new(plan, &reram_obs::Obs::off()))
    }

    #[test]
    fn clean_solve_reports_no_recovery() {
        let cp = reset_cp(8, 3.0);
        let mut ws = SolverWorkspace::new();
        let (sol, rec) = cp
            .solve_recover(&SolveOptions::default(), &mut ws, &reram_obs::Obs::off())
            .expect("healthy system");
        assert_eq!(rec.rung, RecoveryRung::Clean);
        assert_eq!(rec.attempts, 1);
        assert!(rec.recovered_from.is_none());
        assert!(sol.cell_voltage(7, 7) > 2.0);
    }

    #[test]
    fn injected_not_converged_recovers_bitwise_identical() {
        let cp = reset_cp(8, 3.0);
        let opts = SolveOptions::default();
        let reference = cp.solve(&opts).expect("fault-free");

        for kind in [
            FaultKind::SolverNotConverged,
            FaultKind::SolverPerturbLinearization,
            FaultKind::SolverSingularLine,
        ] {
            let inj = injector(kind);
            let mut ws = SolverWorkspace::new().with_faults(Arc::clone(&inj), "test");
            let (sol, rec) = cp
                .solve_recover(&opts, &mut ws, &reram_obs::Obs::off())
                .unwrap_or_else(|e| panic!("{kind}: ladder must absorb, got {e}"));
            assert_eq!(rec.rung, RecoveryRung::ColdRestart, "{kind}");
            assert_eq!(rec.attempts, 2, "{kind}");
            assert!(rec.recovered_from.is_some(), "{kind}");
            assert_eq!(inj.injected(), 1, "{kind}");
            assert_eq!(inj.recovered(), 1, "{kind}");
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(
                        sol.cell_voltage(i, j).to_bits(),
                        reference.cell_voltage(i, j).to_bits(),
                        "{kind}: cell ({i},{j}) must be bitwise identical"
                    );
                }
            }
        }
    }

    #[test]
    fn perturbed_linearization_bails_out_fast() {
        // The biased residual check can never pass; the stall bail-out must
        // surface NotConverged long before the 20k sweep budget.
        let cp = reset_cp(8, 3.0);
        let inj = injector(FaultKind::SolverPerturbLinearization);
        let mut ws = SolverWorkspace::new().with_faults(inj, "test");
        let err = cp
            .solve_into(&SolveOptions::default(), &mut ws, &reram_obs::Obs::off())
            .expect_err("biased residual cannot converge");
        match err {
            SolveError::NotConverged { sweeps, .. } => {
                assert!(sweeps < 100, "stall bail-out took {sweeps} sweeps");
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn genuinely_singular_system_regularizes() {
        // The negative-conductance construction from the solver tests:
        // cancels the node leak exactly, so every unregularized rung sees a
        // zero pivot — only the extra-leak rung can produce an answer.
        let mut cp = Crosspoint::uniform(1, 1, 1.0, CellDevice::Linear(-1e-12));
        cp.set_bl_near(0, LineEnd::driven(1.0));
        let mut ws = SolverWorkspace::new();
        let (sol, rec) = cp
            .solve_recover(&SolveOptions::default(), &mut ws, &reram_obs::Obs::off())
            .expect("regularized rung must absorb the singular pivot");
        assert_eq!(rec.rung, RecoveryRung::Regularized);
        assert!(!rec.rung.is_exact());
        assert_eq!(rec.attempts, 4);
        assert!(
            matches!(rec.recovered_from, Some(SolveError::SingularLine { .. })),
            "{:?}",
            rec.recovered_from
        );
        assert!(sol.bl_voltage(0, 0).is_finite());
    }

    #[test]
    fn exhausted_ladder_surfaces_last_error() {
        // Biasing *every* attempt (four occurrence-keyed perturbations, one
        // per rung the ladder can reach for NotConverged) defeats recovery.
        let mut plan = FaultPlan::new(1);
        for occ in 0..4 {
            plan = plan.with(
                FaultSpec::new(
                    reram_fault::site::SOLVER,
                    FaultKind::SolverPerturbLinearization,
                )
                .occurrence(occ),
            );
        }
        let inj = Arc::new(FaultInjector::new(plan, &reram_obs::Obs::off()));
        let cp = reset_cp(8, 3.0);
        let mut ws = SolverWorkspace::new().with_faults(inj, "test");
        let err = cp
            .solve_recover(&SolveOptions::default(), &mut ws, &reram_obs::Obs::off())
            .expect_err("all rungs poisoned");
        assert!(matches!(err, SolveError::NotConverged { .. }), "{err:?}");
    }
}
