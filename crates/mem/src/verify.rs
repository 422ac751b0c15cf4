//! Write-verify with bounded re-RESET retries and DRVR voltage escalation
//! (DESIGN.md §9).
//!
//! Real ReRAM writes are verified: the controller reads the line back and
//! re-pulses any cell that did not switch. [`VerifiedStore`] wraps a
//! [`FunctionalStore`] with that loop:
//!
//! * A miscompare triggers a **re-RESET retry**, each retry escalating the
//!   RESET level one notch up the array's DRVR ladder ([`Drvr::levels`]) —
//!   the same levels the paper sizes for IR-drop pre-compensation double as
//!   the verify controller's escalation steps — capped at what the charge
//!   pump can output ([`ChargePump::v_out`]). Every retry is one extra pump
//!   recharge.
//! * After [`VerifyPolicy::max_retries`] the line is placed in **degraded
//!   mode**: recorded in [`VerifiedStore::degraded_lines`] and reported in
//!   the write receipt, never a panic. The paper's endurance story assumes
//!   uncorrectable lines are mapped out by the OS; this is that hook.
//!
//! Three fault-plane hooks make the loop testable deterministically
//! (consulted per write, target = `line<idx>`):
//! [`reram_fault::site::PUMP`] (voltage droop / level stuck),
//! [`reram_fault::site::VERIFY`] (transient miscompare) and
//! [`reram_fault::site::CELL`] (permanent stuck-at, which consumes an ECP
//! entry and — being un-re-RESET-able — drives the line degraded).

use crate::pump::{ChargePump, PumpMeter};
use crate::store::{FunctionalStore, WriteReceipt};
use reram_core::Drvr;
use reram_fault::{FaultInjector, FaultKind};
use reram_obs::{Counter, Hist, Obs, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of 8-bit slices in a line (matches [`FunctionalStore`]).
const SLICES: usize = 64;

/// Bounds for the write-verify loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyPolicy {
    /// Re-RESET retries after the initial write (the paper-adjacent
    /// controllers bound this small; endurance pays for every pulse).
    pub max_retries: u32,
}

impl Default for VerifyPolicy {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

/// Outcome of one verified write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedWrite {
    /// The initial write's datapath receipt.
    pub receipt: WriteReceipt,
    /// Write passes issued (1 = verified clean on the first pass).
    pub attempts: u32,
    /// The RESET level of the final pass, volts.
    pub v_reset: f64,
    /// True when retries (not the first pass) produced the verified state.
    pub recovered: bool,
    /// True when verification never succeeded and the line entered
    /// degraded mode.
    pub degraded: bool,
}

/// A [`FunctionalStore`] behind a write-verify controller.
#[derive(Debug)]
pub struct VerifiedStore {
    store: FunctionalStore,
    drvr: Drvr,
    pump: ChargePump,
    meter: PumpMeter,
    policy: VerifyPolicy,
    faults: Option<Arc<FaultInjector>>,
    degraded: BTreeSet<usize>,
    obs: Obs,
    c_writes: Counter,
    c_miscompares: Counter,
    c_retries: Counter,
    c_degraded: Counter,
    /// Distribution of write passes per verified write (1 = clean).
    h_attempts: Hist,
    /// Distribution of the final DRVR ladder rung index per write — the
    /// escalation depth the verify loop actually needed.
    h_rung: Hist,
    /// Distribution of the final RESET level per write, volts.
    h_v_reset: Hist,
}

impl VerifiedStore {
    /// Wraps `store`, escalating along `drvr`'s level ladder and never
    /// exceeding `pump`'s output. Telemetry (`mem.verify.*`) resolves on
    /// `obs`.
    #[must_use]
    pub fn new(store: FunctionalStore, drvr: Drvr, pump: ChargePump, obs: &Obs) -> Self {
        Self {
            store,
            drvr,
            pump,
            meter: PumpMeter::resolve(obs),
            policy: VerifyPolicy::default(),
            faults: None,
            degraded: BTreeSet::new(),
            obs: obs.clone(),
            c_writes: obs.counter("mem.verify.writes"),
            c_miscompares: obs.counter("mem.verify.miscompares"),
            c_retries: obs.counter("mem.verify.retries"),
            c_degraded: obs.counter("mem.verify.degraded_lines"),
            h_attempts: obs.hist("mem.verify.attempts_per_write"),
            h_rung: obs.hist("mem.verify.rung"),
            h_v_reset: obs.hist("mem.verify.v_reset"),
        }
    }

    /// Overrides the retry bound.
    #[must_use]
    pub fn with_policy(mut self, policy: VerifyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms deterministic fault injection (see the module docs for the
    /// sites consulted).
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The wrapped store (read-only).
    #[must_use]
    pub fn store(&self) -> &FunctionalStore {
        &self.store
    }

    /// Lines that exhausted their retry budget, in index order. These are
    /// the run's uncorrectable-line manifest entries.
    #[must_use]
    pub fn degraded_lines(&self) -> &BTreeSet<usize> {
        &self.degraded
    }

    /// Reads the logical contents of line `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn read_line(&self, idx: usize) -> [u8; SLICES] {
        self.store.read_line(idx)
    }

    /// Writes `data` to line `idx` through the verify loop described in
    /// the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn write_verified(&mut self, idx: usize, data: &[u8; SLICES]) -> VerifiedWrite {
        self.c_writes.inc();
        let target = format!("line{idx}");
        let receipt = self.store.write_line(idx, data);
        self.meter.on_recharge(&self.pump);

        // Fault hooks, one consultation per site per write.
        let mut transient_miscompare = false;
        let mut level_stuck = false;
        let mut stuck_cell = false;
        if let Some(inj) = &self.faults {
            if let Some(f) = inj.fire(reram_fault::site::PUMP, &target) {
                match f.kind {
                    FaultKind::PumpDroop => transient_miscompare = true,
                    FaultKind::PumpLevelStuck => {
                        transient_miscompare = true;
                        level_stuck = true;
                    }
                    _ => {}
                }
            }
            if let Some(f) = inj.fire(reram_fault::site::VERIFY, &target) {
                if f.kind == FaultKind::VerifyMiscompare {
                    transient_miscompare = true;
                }
            }
            if let Some(f) = inj.fire(reram_fault::site::CELL, &target) {
                if f.kind == FaultKind::CellStuck {
                    stuck_cell = true;
                    let _ = self.store.record_stuck_cell(idx);
                }
            }
        }

        let levels = self.drvr.levels();
        let mut level_idx = 0;
        let mut v_reset = levels[level_idx].min(self.pump.v_out);
        let mut attempts = 1u32;
        let verify = |store: &FunctionalStore| store.read_line(idx) == *data;
        let mut ok = verify(&self.store) && !transient_miscompare && !stuck_cell;
        if !ok {
            self.c_miscompares.inc();
        }
        while !ok && attempts <= self.policy.max_retries {
            // Re-RESET pass: escalate one DRVR notch (unless the pump's
            // level select is stuck), recharge, re-pulse.
            if !level_stuck {
                level_idx = (level_idx + 1).min(levels.len() - 1);
            }
            v_reset = levels[level_idx].min(self.pump.v_out);
            let _ = self.store.write_line(idx, data);
            self.meter.on_recharge(&self.pump);
            self.c_retries.inc();
            attempts += 1;
            // A transient cause (droop, flaky compare) clears with the
            // re-pulse; a stuck cell cannot be re-RESET at any voltage.
            ok = !stuck_cell && verify(&self.store);
        }

        let recovered = ok && attempts > 1;
        if recovered {
            if self.obs.enabled() {
                self.obs.counter("recovery.mem.verify").inc();
                self.obs.event(
                    "recovery.verify",
                    &[
                        ("line", Value::U64(idx as u64)),
                        ("attempts", Value::U64(u64::from(attempts))),
                        ("v_reset", Value::F64(v_reset)),
                    ],
                );
            }
            if let Some(inj) = &self.faults {
                inj.note_recovery("verify", &format!("re_reset@{v_reset:.2}V"));
            }
        }
        let degraded = !ok;
        if degraded && self.degraded.insert(idx) {
            self.c_degraded.inc();
            if self.obs.enabled() {
                self.obs.event(
                    "mem.verify.degraded",
                    &[
                        ("line", Value::U64(idx as u64)),
                        ("attempts", Value::U64(u64::from(attempts))),
                    ],
                );
            }
        }
        self.h_attempts.record(f64::from(attempts));
        self.h_rung.record(level_idx as f64);
        self.h_v_reset.record(v_reset);
        VerifiedWrite {
            receipt,
            attempts,
            v_reset,
            recovered,
            degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_array::ArrayModel;
    use reram_core::{Scheme, WriteModel};
    use reram_fault::{FaultPlan, FaultSpec};

    fn verified(plan: Option<FaultPlan>) -> (VerifiedStore, Option<Arc<FaultInjector>>) {
        let store = FunctionalStore::new(8, WriteModel::paper(Scheme::UdrvrPr));
        let drvr = Drvr::design(&ArrayModel::paper_baseline(), 3.0);
        let pump = ChargePump::udrvr();
        let obs = Obs::off();
        let vs = VerifiedStore::new(store, drvr, pump, &obs);
        match plan {
            Some(p) => {
                let inj = Arc::new(FaultInjector::new(p, &obs));
                (vs.with_faults(Arc::clone(&inj)), Some(inj))
            }
            None => (vs, None),
        }
    }

    fn pattern(k: u8) -> [u8; 64] {
        std::array::from_fn(|i| (i as u8).wrapping_mul(31) ^ k)
    }

    #[test]
    fn clean_write_verifies_first_pass() {
        let (mut vs, _) = verified(None);
        let w = vs.write_verified(0, &pattern(1));
        assert_eq!(w.attempts, 1);
        assert!(!w.recovered && !w.degraded);
        assert_eq!(w.v_reset, 3.0, "first DRVR level is the nominal Vrst");
        assert_eq!(vs.read_line(0), pattern(1));
        assert!(vs.degraded_lines().is_empty());
    }

    #[test]
    fn miscompare_recovers_with_escalated_reset() {
        let plan = FaultPlan::new(1).with(FaultSpec::new(
            reram_fault::site::VERIFY,
            FaultKind::VerifyMiscompare,
        ));
        let (mut vs, inj) = verified(Some(plan));
        let w = vs.write_verified(2, &pattern(7));
        assert_eq!(w.attempts, 2);
        assert!(w.recovered && !w.degraded);
        assert!(
            w.v_reset > 3.0,
            "retry escalates one DRVR notch, got {}",
            w.v_reset
        );
        assert_eq!(vs.read_line(2), pattern(7), "data correct after recovery");
        assert_eq!(inj.unwrap().recovered(), 1);
    }

    #[test]
    fn pump_droop_recovers_and_level_stuck_does_not_escalate() {
        let plan = FaultPlan::new(1)
            .with(
                FaultSpec::new(reram_fault::site::PUMP, FaultKind::PumpDroop)
                    .target("line0")
                    .param(0.3),
            )
            .with(
                FaultSpec::new(reram_fault::site::PUMP, FaultKind::PumpLevelStuck).target("line1"),
            );
        let (mut vs, _) = verified(Some(plan));
        let droop = vs.write_verified(0, &pattern(3));
        assert!(droop.recovered);
        assert!(droop.v_reset > 3.0, "droop retry escalates");
        let stuck = vs.write_verified(1, &pattern(4));
        assert!(stuck.recovered);
        assert_eq!(stuck.v_reset, 3.0, "stuck level select cannot escalate");
        assert!(vs.degraded_lines().is_empty());
    }

    #[test]
    fn stuck_cell_degrades_line_instead_of_panicking() {
        let plan = FaultPlan::new(1)
            .with(FaultSpec::new(reram_fault::site::CELL, FaultKind::CellStuck).target("line5"));
        let (mut vs, inj) = verified(Some(plan));
        let healthy = vs.write_verified(4, &pattern(9));
        assert!(!healthy.degraded);
        let w = vs.write_verified(5, &pattern(10));
        assert!(w.degraded, "stuck cell exhausts the retry budget");
        assert!(!w.recovered);
        assert_eq!(w.attempts, 1 + VerifyPolicy::default().max_retries);
        assert_eq!(vs.degraded_lines().iter().copied().collect::<Vec<_>>(), [5]);
        assert_eq!(vs.store().failures(5), 1, "the stuck cell consumed ECP");
        assert_eq!(inj.unwrap().recovered(), 0, "cell_stuck is unrecoverable");
        // The store still functions; the line is merely flagged.
        let again = vs.write_verified(5, &pattern(11));
        assert_eq!(vs.read_line(5), pattern(11));
        assert!(!again.degraded, "no second fault scheduled");
    }

    #[test]
    fn verify_histograms_record_attempts_rung_and_level() {
        let plan = FaultPlan::new(1).with(
            FaultSpec::new(reram_fault::site::VERIFY, FaultKind::VerifyMiscompare).target("line1"),
        );
        let store = FunctionalStore::new(8, WriteModel::paper(Scheme::UdrvrPr));
        let drvr = Drvr::design(&ArrayModel::paper_baseline(), 3.0);
        let obs = Obs::new();
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let mut vs = VerifiedStore::new(store, drvr, ChargePump::udrvr(), &obs).with_faults(inj);
        vs.write_verified(0, &pattern(1)); // clean: 1 attempt, rung 0
        vs.write_verified(1, &pattern(2)); // transient: 2 attempts, rung 1

        let attempts = obs.hist("mem.verify.attempts_per_write").snapshot();
        assert_eq!(attempts.count(), 2);
        assert_eq!(attempts.max(), 2.0, "faulted write took a retry");
        let rung = obs.hist("mem.verify.rung").snapshot();
        assert_eq!(rung.count(), 2);
        assert_eq!(rung.max(), 1.0, "escalated one DRVR notch");
        let v = obs.hist("mem.verify.v_reset").snapshot();
        assert_eq!(v.count(), 2);
        assert!(v.max() > 3.0, "escalated level recorded, got {}", v.max());
        // Pump recharges: 2 initial passes + 1 retry pulse.
        assert_eq!(obs.counter("mem.pump.recharges").get(), 3);
    }

    #[test]
    fn escalation_is_capped_by_the_pump() {
        // Retries forever-miscompare via repeated faults; the level must
        // never exceed the baseline pump's 3 V output.
        let mut plan = FaultPlan::new(1);
        plan = plan
            .with(FaultSpec::new(reram_fault::site::CELL, FaultKind::CellStuck).target("line0"));
        let store = FunctionalStore::new(2, WriteModel::paper(Scheme::UdrvrPr));
        let drvr = Drvr::design(&ArrayModel::paper_baseline(), 3.0);
        let obs = Obs::off();
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let mut vs = VerifiedStore::new(store, drvr, ChargePump::baseline(), &obs).with_faults(inj);
        let w = vs.write_verified(0, &pattern(2));
        assert!(w.degraded);
        assert!(
            w.v_reset <= ChargePump::baseline().v_out,
            "escalation capped at pump output, got {}",
            w.v_reset
        );
    }
}
