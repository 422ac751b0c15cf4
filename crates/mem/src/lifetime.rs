//! The Fig. 5b lifetime estimator.
//!
//! Methodology (paper §III-A, after Schechter et al.): non-stop writes
//! arrive at every bank; every write carries the worst-case data pattern
//! (50 % of the line's cells change under Flip-N-Write); perfect inter-line
//! and intra-line wear leveling spread the writes over every line and every
//! cell; the system dies with its first uncorrectable (post-ECP-6) line.
//!
//! The closed form: with `R` line-writes per second system-wide (all banks
//! writing back-to-back at the scheme's worst-case write latency), `L`
//! lines, and `c` cells written per line-write, each of the 512 cells of a
//! line is written `R·c / (L·512)` times per second, and the weakest cell —
//! the *fastest-resetting* cell the scheme produces — survives `E` writes:
//!
//! ```text
//! lifetime = E · 512 · L / (R · c)        (wear leveling on)
//! lifetime = E · 512 / (R · h · c)        (wear leveling off, hot share h)
//! ```
//!
//! Without wear leveling (the `Hard+Sys` configuration — SCH and RBDL are
//! incompatible with it) the hottest line absorbs a fixed share `h` of all
//! writes and the memory "can fail within few days"; `h` is calibrated to
//! that statement.

use crate::{ChargePump, MemoryConfig};
use reram_core::{Scheme, WriteModel};
use reram_workloads::SplitMix64;

/// Seconds per year (Julian).
const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// A computed lifetime and the quantities behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeEstimate {
    /// System lifetime, years.
    pub years: f64,
    /// Worst-case line-write service time, nanoseconds.
    pub t_write_ns: f64,
    /// System-wide line-writes per second.
    pub writes_per_sec: f64,
    /// Cells written per line-write (incl. PR/D-BL dummies).
    pub cells_per_write: f64,
    /// Endurance of the scheme's weakest cell, writes.
    pub endurance_writes: f64,
}

/// Lifetime model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    cfg: MemoryConfig,
    wear_leveling: bool,
    hot_line_share: f64,
}

impl LifetimeModel {
    /// The paper's setup: 64 GB memory, wear leveling on.
    #[must_use]
    pub fn paper_baseline() -> Self {
        Self {
            cfg: MemoryConfig::paper_baseline(),
            wear_leveling: true,
            hot_line_share: 3e-7,
        }
    }

    /// Disables wear leveling (the `Hard+Sys` case): the hottest line takes
    /// a fixed share of all writes.
    #[must_use]
    pub fn without_wear_leveling(mut self) -> Self {
        self.wear_leveling = false;
        self
    }

    /// Overrides the no-wear-leveling hot-line share.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < share <= 1`.
    #[must_use]
    pub fn with_hot_line_share(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0,1]");
        self.hot_line_share = share;
        self
    }

    /// The charge pump a scheme's memory runs on.
    #[must_use]
    pub fn pump_for(scheme: Scheme) -> ChargePump {
        match scheme {
            Scheme::Hard | Scheme::HardSys => ChargePump::dummy_bl(),
            Scheme::Drvr | Scheme::DrvrPr | Scheme::UdrvrPr => ChargePump::udrvr(),
            Scheme::Udrvr394 => ChargePump::udrvr_394(),
            _ => ChargePump::baseline(),
        }
    }

    /// Estimates the lifetime of `wm`'s scheme under worst-case non-stop
    /// writes. Returns `None` when the scheme cannot complete writes at all
    /// (effective voltage below the failure threshold).
    #[must_use]
    pub fn estimate(&self, wm: &WriteModel) -> Option<LifetimeEstimate> {
        let pump = Self::pump_for(wm.scheme());
        let reset_ns = wm.array_reset_latency_ns()?;
        let endurance = wm.array_endurance_writes()?;
        let t_write_ns = pump.write_overhead_ns() + reset_ns + wm.set_params().latency_ns;
        let writes_per_sec = self.cfg.total_banks() as f64 / (t_write_ns * 1e-9);
        let cells_per_write = self.worst_pattern_cells_per_write(wm);
        let line_cells = (self.cfg.line_bytes * 8) as f64;
        let per_cell_rate = if self.wear_leveling {
            writes_per_sec * cells_per_write / (self.cfg.total_lines() as f64 * line_cells)
        } else {
            writes_per_sec * self.hot_line_share * cells_per_write / line_cells
        };
        let years = endurance / per_cell_rate / SECONDS_PER_YEAR;
        Some(LifetimeEstimate {
            years,
            t_write_ns,
            writes_per_sec,
            cells_per_write,
            endurance_writes: endurance,
        })
    }

    /// Cells written per line-write under the worst-case pattern (50 % of
    /// cells change), averaged over sampled patterns — this is where PR's
    /// dummy RESET/SET pairs and D-BL's dummy-BL RESETs charge their wear.
    fn worst_pattern_cells_per_write(&self, wm: &WriteModel) -> f64 {
        let slices = self.cfg.line_bytes;
        let mut rng = SplitMix64::new(0x5DEE_CE66_D15E_A5E5);
        let samples = 16;
        let mut total = 0.0;
        for _ in 0..samples {
            let mut resets = vec![0u8; slices];
            let mut sets = vec![0u8; slices];
            let mut data = vec![0u8; slices];
            for s in 0..slices {
                let r = rng.next_u64();
                // Exactly 4 of 8 cells change per slice (the FNW worst case):
                // alternate the changed bits between RESETs and SETs.
                let changed = 0x0Fu8.rotate_left((r % 8) as u32);
                let dir = (r >> 8) as u8;
                resets[s] = changed & dir;
                sets[s] = changed & !dir;
                data[s] = (r >> 16) as u8 & !resets[s] | sets[s];
            }
            let plan = wm.plan_line_write_with_data(
                wm.model().geometry().size() / 2,
                wm.model().geometry().cols_per_group() / 2,
                &resets,
                &sets,
                Some(&data),
            );
            total += f64::from(plan.cell_writes());
        }
        total / f64::from(samples)
    }
}

impl Default for LifetimeModel {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn years(scheme: Scheme) -> f64 {
        let wm = WriteModel::paper(scheme);
        LifetimeModel::paper_baseline()
            .estimate(&wm)
            .expect("scheme completes writes")
            .years
    }

    #[test]
    fn baseline_lives_for_decades() {
        // Fig. 5b: the 2.3 µs baseline survives ~65 years.
        let y = years(Scheme::Baseline);
        assert!(y > 30.0 && y < 110.0, "baseline = {y} years");
    }

    #[test]
    fn static_overvoltage_dies_within_a_day() {
        // Fig. 5b: a static 3.7 V supply kills the memory in < 1 day.
        let y = years(Scheme::StaticOver { volts: 3.7 });
        assert!(y < 1.0 / 365.25, "static 3.7 V = {y} years");
    }

    #[test]
    fn drvr_lands_mid_single_digits() {
        // Fig. 5b: DRVR ≈ 6.75 years.
        let y = years(Scheme::Drvr);
        assert!(y > 2.0 && y < 15.0, "DRVR = {y} years");
    }

    #[test]
    fn drvr_pr_is_about_a_year() {
        // Fig. 5b: DRVR+PR ≈ 1 year; our calibration lands at ≈3 (same
        // order of magnitude, correct position in the ordering —
        // EXPERIMENTS.md records the delta).
        let y = years(Scheme::DrvrPr);
        assert!(y > 0.3 && y < 5.0, "DRVR+PR = {y} years");
    }

    #[test]
    fn udrvr_pr_restores_ten_plus_years() {
        // The paper's headline: UDRVR+PR keeps > 10 years.
        let y = years(Scheme::UdrvrPr);
        assert!(y > 10.0, "UDRVR+PR = {y} years");
    }

    #[test]
    fn fig5b_ordering_holds() {
        let base = years(Scheme::Baseline);
        let udrvr_pr = years(Scheme::UdrvrPr);
        let drvr = years(Scheme::Drvr);
        let drvr_pr = years(Scheme::DrvrPr);
        let over = years(Scheme::StaticOver { volts: 3.7 });
        assert!(base > udrvr_pr && udrvr_pr > drvr && drvr > drvr_pr && drvr_pr > over);
    }

    #[test]
    fn hard_sys_without_wear_leveling_fails_in_days() {
        let wm = WriteModel::paper(Scheme::HardSys);
        let est = LifetimeModel::paper_baseline()
            .without_wear_leveling()
            .estimate(&wm)
            .unwrap();
        let days = est.years * 365.25;
        assert!(days < 30.0, "Hard+Sys = {days} days");
        assert!(days > 0.01);
    }

    #[test]
    fn pr_wears_more_cells_per_write() {
        let base = WriteModel::paper(Scheme::Drvr);
        let pr = WriteModel::paper(Scheme::DrvrPr);
        let m = LifetimeModel::paper_baseline();
        let c_base = m.estimate(&base).unwrap().cells_per_write;
        let c_pr = m.estimate(&pr).unwrap().cells_per_write;
        assert!(c_pr > c_base * 1.2, "{c_pr} vs {c_base}");
    }
}
