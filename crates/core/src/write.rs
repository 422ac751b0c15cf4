//! Per-write planning: latency, energy and wear of a 64 B line write under
//! any [`Scheme`].
//!
//! A 64 B memory line is striped over 64 8-bit arrays (its §IV-B); the write
//! has a RESET phase and a SET phase. What happens in the RESET phase —
//! which bits fire, at what voltage, with how much concurrency and with what
//! placement — is exactly what distinguishes the schemes, so this module is
//! where the paper's proposals and baselines meet the array model.

use crate::pr::partition_reset;
use crate::{Drvr, Scheme, Udrvr};
use reram_array::{ArrayModel, Spread, WriteOutcome};
use reram_obs::{Counter, Hist, Obs};

/// Bits per array slice: the transition masks a plan takes are bytes.
const SLICE_BITS: usize = 8;

/// SET-phase electrical parameters (Table III): 3 V, 98.6 µA, 29.8 pJ per
/// bit — which imply a ≈100 ns SET pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetParams {
    /// SET voltage, volts.
    pub volts: f64,
    /// SET current per bit, amperes.
    pub amps: f64,
    /// SET pulse width, nanoseconds.
    pub latency_ns: f64,
}

impl SetParams {
    /// Energy of one SET, picojoules.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.volts * self.amps * self.latency_ns * 1e3
    }
}

impl Default for SetParams {
    fn default() -> Self {
        Self {
            volts: 3.0,
            amps: 98.6e-6,
            latency_ns: 100.0,
        }
    }
}

/// The planned execution of one 64 B line write.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WritePlan {
    /// RESET-phase duration: the slowest RESET across all arrays, ns.
    pub reset_phase_ns: f64,
    /// SET-phase duration, ns (0 when nothing sets).
    pub set_phase_ns: f64,
    /// RESETs driven, including dummies.
    pub resets: u32,
    /// SETs driven, including compensating SETs.
    pub sets: u32,
    /// Dummy RESETs inserted by PR or D-BL.
    pub dummy_resets: u32,
    /// Compensating SETs inserted by PR.
    pub dummy_sets: u32,
    /// RESET-phase array energy (before pump conversion loss), pJ.
    pub reset_energy_pj: f64,
    /// SET-phase array energy (before pump conversion loss), pJ.
    pub set_energy_pj: f64,
    /// True if any RESET's effective voltage fell below the failure
    /// threshold.
    pub failed: bool,
}

impl WritePlan {
    /// Total write latency (RESET phase + SET phase), ns.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.reset_phase_ns + self.set_phase_ns
    }

    /// Total cells written (RESETs + SETs).
    #[must_use]
    pub fn cell_writes(&self) -> u32 {
        self.resets + self.sets
    }

    /// Total array energy before pump losses, pJ.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.reset_energy_pj + self.set_energy_pj
    }
}

/// The `core.pr.*` telemetry handles, resolved once per attachment so a
/// plan never looks a name up. Every handle is a no-op on a detached
/// registry.
#[derive(Debug, Clone, Default)]
struct PrMetrics {
    concurrent_resets: Hist,
    dummy_pairs: Counter,
    dummy_resets: Counter,
    dummy_sets: Counter,
}

impl PrMetrics {
    fn resolve(obs: &Obs) -> Self {
        Self {
            concurrent_resets: obs.hist("core.pr.concurrent_resets"),
            dummy_pairs: obs.counter("core.pr.dummy_pairs"),
            dummy_resets: obs.counter("core.pr.dummy_resets"),
            dummy_sets: obs.counter("core.pr.dummy_sets"),
        }
    }
}

/// Telemetry never decides equality: two models differing only in their
/// registry compare equal.
impl PartialEq for PrMetrics {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A [`Scheme`] bound to an [`ArrayModel`], ready to plan writes.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteModel {
    model: ArrayModel,
    scheme: Scheme,
    set_params: SetParams,
    drvr: Option<Drvr>,
    udrvr: Option<Udrvr>,
    bl_drop: Vec<f64>,
    wl_drop_1bit: Vec<f64>,
    /// The drop model's window: the MAT size, or the oracle's `m`.
    window: usize,
    /// How a plan's concurrent RESETs spread over the word-line.
    plan_spread: Spread,
    metrics: PrMetrics,
}

impl WriteModel {
    /// Binds `scheme` to `base`, applying the scheme's hardware design,
    /// oracle window and data-layout effects, and designing its voltage
    /// tables.
    #[must_use]
    pub fn new(base: ArrayModel, scheme: Scheme) -> Self {
        let mut model = base.with_design(scheme.hardware_design());
        if let Scheme::Oracle { window } = scheme {
            model = model.with_oracle_window(window);
        }
        if scheme.uses_rbdl() {
            // RBDL spreads LRS cells evenly over the BLs: the worst BL sees
            // the average LRS density (≈50 % under Flip-N-Write) instead of
            // an all-LRS column.
            model = model.with_cell(model.cell().with_sneak_scale(0.55));
        }
        let (drvr, udrvr) = match scheme {
            Scheme::Drvr | Scheme::DrvrPr => (Some(Drvr::design(&model, 3.0)), None),
            Scheme::UdrvrPr => (None, Some(Udrvr::design(&model, 3.0, 4))),
            Scheme::Udrvr394 => {
                let reference = Udrvr::design(&model, 3.0, 4);
                (
                    None,
                    Some(Udrvr::design_for_effective(
                        &model,
                        reference.v_eff_target(),
                        1,
                    )),
                )
            }
            _ => (None, None),
        };
        // PR spreads its RESETs evenly by construction and D-BL fires every
        // column multiplexer; elsewhere the data put the bits anywhere.
        let plan_spread = if scheme.uses_pr() || model.design().dummy_bl {
            Spread::Even
        } else {
            Spread::Random
        };
        let dm = model.drop_model();
        let n = model.geometry().size();
        let bl_drop = (0..n).map(|i| dm.bl_drop(i)).collect();
        let wl_drop_1bit = (0..n).map(|j| dm.wl_drop(j, 1)).collect();
        Self {
            model,
            scheme,
            set_params: SetParams::default(),
            drvr,
            udrvr,
            bl_drop,
            wl_drop_1bit,
            window: dm.window(),
            plan_spread,
            metrics: PrMetrics::default(),
        }
    }

    /// Attaches a telemetry registry: per-write PR statistics (dummy
    /// RESET+SET pairs and the concurrent-RESET distribution) are recorded
    /// under `core.pr.*`. Two models differing only in telemetry attachment
    /// still compare equal per this type's `PartialEq`.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.metrics = PrMetrics::resolve(obs);
        self
    }

    /// Binds `scheme` to the paper's baseline array.
    #[must_use]
    pub fn paper(scheme: Scheme) -> Self {
        Self::new(ArrayModel::paper_baseline(), scheme)
    }

    /// The scheme.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The (scheme-adjusted) array model.
    #[must_use]
    pub fn model(&self) -> &ArrayModel {
        &self.model
    }

    /// The SET-phase parameters.
    #[must_use]
    pub fn set_params(&self) -> SetParams {
        self.set_params
    }

    /// The RESET voltage applied for a write to row `i` through the write
    /// driver of data bit `b`, volts.
    #[must_use]
    pub fn applied_volts(&self, i: usize, b: usize) -> f64 {
        match (&self.udrvr, &self.drvr, self.scheme) {
            (Some(u), _, _) => u.level_for(i, b),
            (None, Some(d), _) => d.level_for_row(i),
            (None, None, Scheme::StaticOver { volts }) => volts,
            _ => self.model.cell().v_full,
        }
    }

    /// Effective RESET voltage for data bit `b` of a write to row `i` at
    /// column offset `col_offset` within each group, with `n` concurrent
    /// RESETs placed with `spread`.
    #[must_use]
    pub fn effective_volts(
        &self,
        i: usize,
        b: usize,
        col_offset: usize,
        n: usize,
        spread: Spread,
    ) -> f64 {
        let geom = self.model.geometry();
        let j = geom.group_start(b) + col_offset;
        let w = self.window;
        let factor = self
            .model
            .partition()
            .wl_factor_spread_at(n, spread, j % w, w);
        self.applied_volts(i, b) - self.bl_drop[i] - self.wl_drop_1bit[j] * factor
    }

    /// Plans a 64 B (or any width) line write.
    ///
    /// `resets[s]` / `sets[s]` are the post-Flip-N-Write transition masks of
    /// 8-bit array slice `s`, `final_data[s]` the value the slice must hold
    /// afterwards. `row` is the word-line index inside the MAT and
    /// `col_offset` the bit-line offset the column address selects within
    /// every 64-BL group.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length, or `row`/`col_offset` are
    /// out of bounds.
    #[must_use]
    pub fn plan_line_write(
        &self,
        row: usize,
        col_offset: usize,
        resets: &[u8],
        sets: &[u8],
    ) -> WritePlan {
        self.plan_line_write_with_data(row, col_offset, resets, sets, None)
    }

    /// [`plan_line_write`](Self::plan_line_write) with the final data
    /// available, letting PR skip compensating SETs on cells that end HRS.
    /// Without data, PR conservatively compensates every dummy RESET.
    ///
    /// # Panics
    ///
    /// See [`plan_line_write`](Self::plan_line_write).
    #[must_use]
    pub fn plan_line_write_with_data(
        &self,
        row: usize,
        col_offset: usize,
        resets: &[u8],
        sets: &[u8],
        final_data: Option<&[u8]>,
    ) -> WritePlan {
        assert_eq!(resets.len(), sets.len(), "mask slices must align");
        if let Some(d) = final_data {
            assert_eq!(d.len(), resets.len(), "data slice must align");
        }
        let geom = self.model.geometry();
        assert!(row < geom.size(), "row out of bounds");
        assert!(
            col_offset < geom.cols_per_group(),
            "column offset out of bounds"
        );
        let data_width = geom.data_width();
        assert!(data_width <= SLICE_BITS, "a slice holds at most 8 bits");
        // The data-path bits of a slice mask.
        let lanes = (u16::MAX >> (16 - data_width)) as u8;
        let uses_pr = self.scheme.uses_pr();
        let design = self.model.design();
        let mut memo = ResetMemo::new(self, row, col_offset);
        let m = &self.metrics;
        // Slices per concurrent-RESET count, recorded once per plan.
        let mut concurrency = [0u64; SLICE_BITS + 1];

        let mut plan = WritePlan::default();
        for s in touched_slices(resets, sets) {
            let (r_mask, s_mask) = (resets[s], sets[s]);
            // The scheme shapes the RESET vector: PR fills 2-bit groups with
            // in-data dummies; D-BL fires its spare BLs; everything else
            // resets exactly the changed bits wherever the data put them.
            let (reset_bits, set_bits, pr_dummy_r, pr_dummy_s, dbl_dummies) = if uses_pr {
                let fd = final_data.map_or(0xFF, |d| d[s]);
                let p = partition_reset(r_mask, s_mask, fd);
                (
                    p.reset_bits,
                    p.set_bits,
                    p.dummy_resets.count_ones(),
                    p.dummy_sets.count_ones(),
                    0u32,
                )
            } else {
                let dummies = design.dummy_resets(r_mask.count_ones() as usize, data_width) as u32;
                (r_mask, s_mask, 0, 0, dummies)
            };
            // Iterative write-verify: the RESET phase pulses all remaining
            // bits together; bits whose effective voltage clears the failure
            // threshold switch, the rest are retried in the next round —
            // with fewer concurrent bits, so less current coalesces and the
            // voltage recovers. This is how real ReRAM rides out the rare
            // dense far-row writes whose first pulse is below threshold
            // (Ning et al.; the paper's Fig. 17 discussion). A bit failing
            // even alone marks the whole plan failed.
            let mut slice_slowest_ns = 0.0f64;
            let mut remaining = reset_bits;
            let extra = dbl_dummies as usize;
            while remaining != 0 {
                let n_concurrent = remaining.count_ones() as usize + extra;
                let mut round_ns = 0.0f64;
                let mut completed = 0u8;
                // Set bits in ascending order, so the energy sum keeps its
                // per-bit order.
                let mut pending = remaining & lanes;
                while pending != 0 {
                    let b = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    if let Some((latency_ns, energy_pj)) = memo.price(b, n_concurrent) {
                        completed |= 1 << b;
                        round_ns = round_ns.max(latency_ns);
                        plan.reset_energy_pj += energy_pj;
                    }
                }
                if completed == 0 {
                    if n_concurrent <= 1 {
                        // Genuine undervoltage: no retry can fix this.
                        plan.failed = true;
                        break;
                    }
                    // Every bit failed together: serialize the nearest bit
                    // alone this round.
                    let b = remaining.trailing_zeros() as usize;
                    let Some((latency_ns, energy_pj)) = memo.price(b, 1) else {
                        plan.failed = true;
                        break;
                    };
                    completed = 1 << b;
                    round_ns = latency_ns;
                    plan.reset_energy_pj += energy_pj;
                }
                slice_slowest_ns += round_ns;
                remaining &= !completed;
            }
            // D-BL's dummy resets fire on the spare BLs with the same pulse.
            if dbl_dummies > 0 {
                plan.reset_energy_pj += f64::from(dbl_dummies)
                    * self.model.cell().v_full
                    * self.model.cell().i_on
                    * slice_slowest_ns
                    * 1e3;
            }
            plan.reset_phase_ns = plan.reset_phase_ns.max(slice_slowest_ns);
            plan.resets += reset_bits.count_ones() + dbl_dummies;
            plan.sets += set_bits.count_ones();
            plan.dummy_resets += pr_dummy_r + dbl_dummies;
            plan.dummy_sets += pr_dummy_s;
            if reset_bits != 0 {
                concurrency[(reset_bits.count_ones() + dbl_dummies) as usize] += 1;
            }
        }
        if plan.sets > 0 {
            plan.set_phase_ns = self.set_params.latency_ns;
            plan.set_energy_pj = f64::from(plan.sets) * self.set_params.energy_pj();
        }
        m.concurrent_resets.record_counts(
            (1..=SLICE_BITS)
                .filter(|&c| concurrency[c] > 0)
                .map(|c| (c as f64, concurrency[c])),
        );
        // A dummy pair is a dummy RESET matched by its compensating SET.
        m.dummy_pairs.add(u64::from(plan.dummy_sets));
        m.dummy_resets.add(u64::from(plan.dummy_resets));
        m.dummy_sets.add(u64::from(plan.dummy_sets));
        plan
    }

    /// The concurrency/placement patterns a scheme's worst-case timing must
    /// budget for, following the paper's own accounting:
    ///
    /// * PR schemes always reset 1–4 evenly spread bits for the common
    ///   sparse writes (Fig. 9/Algorithm 1), so 4-even is the budget;
    /// * D-BL always fires all 8 column muxes (even by construction);
    /// * UDRVR-3.94 has no PR, so data-driven multi-bit RESETs land wherever
    ///   the data puts them — the "3∼6-bit RESETs accumulate too large
    ///   current" case of Fig. 17. Its budget covers the *common* patterns
    ///   (≤4 bits, Fig. 9's bulk; denser writes are rare enough to ride the
    ///   write-verify retry path), which calibrates the scheme to the
    ///   paper's observed +7.2 % gap;
    /// * the remaining schemes are budgeted at the paper's 1-bit worst case
    ///   (the 2.3 µs figure of §III-A).
    fn worst_case_patterns(&self) -> Vec<(usize, Spread)> {
        match self.scheme {
            Scheme::DrvrPr | Scheme::UdrvrPr => vec![(4, Spread::Even)],
            Scheme::Hard | Scheme::HardSys => {
                vec![(self.model.geometry().data_width(), Spread::Even)]
            }
            Scheme::Udrvr394 => (1..=4).map(|n| (n, Spread::Random)).collect(),
            _ => vec![(1, Spread::Even)],
        }
    }

    /// The scheme's worst-case array RESET latency — what the controller
    /// must budget for a write to the slowest row, and what the non-stop
    /// write traffic of the lifetime study runs at, nanoseconds. Returns
    /// `None` if the scheme has write failures.
    #[must_use]
    pub fn array_reset_latency_ns(&self) -> Option<f64> {
        let geom = self.model.geometry();
        let mut worst = 0.0f64;
        for (n_typ, spread) in self.worst_case_patterns() {
            for i in (0..geom.size()).step_by(geom.rows_per_section()) {
                // Latency is monotone within a section; check section ends.
                for row in [i, i + geom.rows_per_section() - 1] {
                    for b in 0..geom.data_width() {
                        for off in [0, geom.cols_per_group() - 1] {
                            let veff = self.effective_volts(row, b, off, n_typ, spread);
                            match self.model.kinetics().outcome(veff) {
                                WriteOutcome::Completes { latency_ns } => {
                                    worst = worst.max(latency_ns)
                                }
                                WriteOutcome::Fails { .. } => return None,
                            }
                        }
                    }
                }
            }
        }
        Some(worst)
    }

    /// The endurance of the array's weakest cell under this scheme (the
    /// fastest-resetting cell), writes. `None` if the scheme has write
    /// failures.
    #[must_use]
    pub fn array_endurance_writes(&self) -> Option<f64> {
        let geom = self.model.geometry();
        let mut best_latency = f64::INFINITY;
        for (n_typ, spread) in self.worst_case_patterns() {
            for i in (0..geom.size()).step_by(geom.rows_per_section() / 2) {
                for b in 0..geom.data_width() {
                    for off in [0, geom.cols_per_group() - 1] {
                        let veff = self.effective_volts(i, b, off, n_typ, spread);
                        match self.model.kinetics().outcome(veff) {
                            WriteOutcome::Completes { latency_ns } => {
                                best_latency = best_latency.min(latency_ns)
                            }
                            WriteOutcome::Fails { .. } => return None,
                        }
                    }
                }
            }
        }
        Some(self.model.endurance().writes(best_latency))
    }
}

/// The slices a write touches (`resets[s] | sets[s] != 0`), ascending.
///
/// An untouched slice drives nothing under any scheme (PR adds dummies
/// only next to a real RESET, D-BL only when something resets), so a plan
/// skipping it adds no float and leaves every max unchanged. The mask of
/// 64 slices is built without branches and walked by its set bits, which
/// keeps the touched-or-not coin flip of every slice off the branch
/// predictor.
fn touched_slices<'a>(resets: &'a [u8], sets: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
    let words = resets.chunks(64).zip(sets.chunks(64)).map(|(r, s)| {
        r.iter()
            .zip(s)
            .enumerate()
            .fold(0u64, |m, (k, (&r, &s))| m | u64::from(r | s != 0) << k)
    });
    words.enumerate().flat_map(|(w, mut mask)| {
        std::iter::from_fn(move || {
            let k = mask.trailing_zeros() as usize;
            (mask != 0).then(|| {
                mask &= mask - 1;
                w * 64 + k
            })
        })
    })
}

/// The RESET prices of one plan, memoised per (data bit, concurrent
/// RESETs).
///
/// Row, column offset and spread are fixed for a plan, so a key always
/// prices the same expression: a hit returns the bits a recomputation
/// would, and a plan evaluates Eq. 1 at most `8 × 8` times however many
/// slices repeat a pattern. The energy term is memoised whole; the plan
/// still adds it once per bit, in the order it always did.
struct ResetMemo<'a> {
    wm: &'a WriteModel,
    row: usize,
    col_offset: usize,
    /// Bit `(n − 1) · 8 + b` is set once key `(b, n)` is priced…
    known: u64,
    /// …and here when that pulse falls below the failure threshold.
    fails: u64,
    latency_ns: [f64; SLICE_BITS * SLICE_BITS],
    energy_pj: [f64; SLICE_BITS * SLICE_BITS],
}

impl<'a> ResetMemo<'a> {
    fn new(wm: &'a WriteModel, row: usize, col_offset: usize) -> Self {
        Self {
            wm,
            row,
            col_offset,
            known: 0,
            fails: 0,
            latency_ns: [0.0; SLICE_BITS * SLICE_BITS],
            energy_pj: [0.0; SLICE_BITS * SLICE_BITS],
        }
    }

    /// Data bit `b`'s RESET among `n` concurrent ones (`1 ≤ n ≤ 8`):
    /// `(latency_ns, energy_pj)`, or `None` if it cannot complete.
    fn price(&mut self, b: usize, n: usize) -> Option<(f64, f64)> {
        debug_assert!((1..=SLICE_BITS).contains(&n), "{n} concurrent RESETs");
        let k = (n - 1) * SLICE_BITS + b;
        if self.known & (1 << k) == 0 {
            self.known |= 1 << k;
            let wm = self.wm;
            let veff = wm.effective_volts(self.row, b, self.col_offset, n, wm.plan_spread);
            match wm.model.kinetics().outcome(veff) {
                WriteOutcome::Completes { latency_ns } => {
                    self.latency_ns[k] = latency_ns;
                    self.energy_pj[k] =
                        wm.applied_volts(self.row, b) * wm.model.cell().i_on * latency_ns * 1e3;
                }
                WriteOutcome::Fails { .. } => self.fails |= 1 << k,
            }
        }
        (self.fails & (1 << k) == 0).then(|| (self.latency_ns[k], self.energy_pj[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far_write() -> ([u8; 64], [u8; 64]) {
        ([0x80u8; 64], [0u8; 64])
    }

    #[test]
    fn baseline_worst_case_is_2_3_us() {
        let m = WriteModel::paper(Scheme::Baseline);
        let t = m.array_reset_latency_ns().unwrap();
        assert!((t - 2300.0).abs() / 2300.0 < 0.1, "t = {t}");
    }

    #[test]
    fn drvr_pr_hits_71ns_scale() {
        // Fig. 11c: PR shortens the right-most BL's RESET to ≈71 ns.
        let m = WriteModel::paper(Scheme::DrvrPr);
        let t = m.array_reset_latency_ns().unwrap();
        assert!((t - 71.0).abs() < 25.0, "t = {t} ns");
    }

    #[test]
    fn udrvr_pr_keeps_the_latency_and_boosts_endurance() {
        let drvr_pr = WriteModel::paper(Scheme::DrvrPr);
        let udrvr_pr = WriteModel::paper(Scheme::UdrvrPr);
        let t_a = drvr_pr.array_reset_latency_ns().unwrap();
        let t_b = udrvr_pr.array_reset_latency_ns().unwrap();
        assert!((t_a - t_b).abs() / t_a < 0.25, "{t_a} vs {t_b}");
        // §IV-C: endurance of the weakest cells rises from 5e6 to ≈6.7e7.
        let e_drvr = drvr_pr.array_endurance_writes().unwrap();
        let e_udrvr = udrvr_pr.array_endurance_writes().unwrap();
        assert!(e_udrvr > 5.0 * e_drvr, "{e_udrvr} vs {e_drvr}");
        assert!((4.9e6..5e7).contains(&e_drvr), "e_drvr = {e_drvr}");
    }

    #[test]
    fn scheme_latency_ordering_matches_fig15() {
        let t = |s: Scheme| {
            WriteModel::paper(s)
                .array_reset_latency_ns()
                .expect("no failures")
        };
        let base = t(Scheme::Baseline);
        let hard = t(Scheme::Hard);
        let ours = t(Scheme::UdrvrPr);
        let ora64 = t(Scheme::Oracle { window: 64 });
        assert!(hard < base, "Hard {hard} < Base {base}");
        assert!(ours < hard, "UDRVR+PR {ours} < Hard {hard}");
        assert!(ora64 < ours, "ora-64 {ora64} < UDRVR+PR {ours}");
    }

    #[test]
    fn hard_lands_near_ora_100x256() {
        // §VI: DSGB+DSWD+D-BL make a 512×512 array behave roughly like a
        // 100×256 one — i.e. between ora-256 and ora-128 in latency.
        let t = |s: Scheme| WriteModel::paper(s).array_reset_latency_ns().unwrap();
        let hard = t(Scheme::Hard);
        let ora256 = t(Scheme::Oracle { window: 256 });
        let ora64 = t(Scheme::Oracle { window: 64 });
        assert!(hard < ora256, "hard {hard} vs ora256 {ora256}");
        assert!(hard > ora64, "hard {hard} vs ora64 {ora64}");
    }

    #[test]
    fn plan_counts_pr_dummies() {
        let m = WriteModel::paper(Scheme::UdrvrPr);
        let (r, s) = far_write();
        let plan = m.plan_line_write_with_data(511, 63, &r, &s, Some(&[0xFFu8; 64]));
        // Each of the 64 slices resets bit 7 and gains dummies on bits 1, 3, 5.
        assert_eq!(plan.resets, 64 * 4);
        assert_eq!(plan.dummy_resets, 64 * 3);
        assert_eq!(plan.dummy_sets, 64 * 3);
        assert!(!plan.failed);
    }

    #[test]
    fn plan_dbl_fires_dummy_bls() {
        let m = WriteModel::paper(Scheme::Hard);
        let (r, s) = far_write();
        let plan = m.plan_line_write(511, 63, &r, &s);
        // One real RESET per slice → 7 dummy-BL RESETs per slice.
        assert_eq!(plan.resets, 64 * 8);
        assert_eq!(plan.dummy_resets, 64 * 7);
        assert_eq!(plan.dummy_sets, 0);
    }

    #[test]
    fn writes_to_near_rows_are_faster() {
        let m = WriteModel::paper(Scheme::Baseline);
        let (r, s) = far_write();
        let near = m.plan_line_write(0, 0, &r, &s);
        let far = m.plan_line_write(511, 63, &r, &s);
        assert!(near.reset_phase_ns < far.reset_phase_ns / 5.0);
    }

    #[test]
    fn telemetry_does_not_decide_equality() {
        let obs = Obs::new();
        let traced = WriteModel::paper(Scheme::UdrvrPr).with_obs(&obs);
        assert_eq!(traced, WriteModel::paper(Scheme::UdrvrPr));
        let (r, s) = far_write();
        let plan = traced.plan_line_write_with_data(511, 63, &r, &s, Some(&[0xFFu8; 64]));
        assert_eq!(plan.dummy_resets, 64 * 3);
        assert_eq!(obs.counter("core.pr.dummy_resets").get(), 64 * 3);
        assert_eq!(obs.hist("core.pr.concurrent_resets").snapshot().count(), 64);
    }

    #[test]
    fn empty_write_is_free() {
        let m = WriteModel::paper(Scheme::UdrvrPr);
        let plan = m.plan_line_write(100, 10, &[0u8; 64], &[0u8; 64]);
        assert_eq!(plan.total_ns(), 0.0);
        assert_eq!(plan.cell_writes(), 0);
    }

    #[test]
    fn set_phase_runs_when_sets_exist() {
        let m = WriteModel::paper(Scheme::Baseline);
        let plan = m.plan_line_write(0, 0, &[0u8; 64], &[0x01u8; 64]);
        assert!((plan.set_phase_ns - 100.0).abs() < 1e-9);
        assert_eq!(plan.sets, 64);
        assert!((plan.set_energy_pj - 64.0 * 29.8).abs() / (64.0 * 29.8) < 0.02);
    }

    #[test]
    fn static_over_voltage_is_fast_but_wears_cells() {
        let base = WriteModel::paper(Scheme::Baseline);
        let over = WriteModel::paper(Scheme::StaticOver { volts: 3.7 });
        assert!(
            over.array_reset_latency_ns().unwrap() < base.array_reset_latency_ns().unwrap() / 10.0
        );
        let e_over = over.array_endurance_writes().unwrap();
        assert!(e_over < 1e4, "e = {e_over}");
    }

    #[test]
    fn udrvr_394_is_slower_than_udrvr_pr_on_multibit_writes() {
        // Fig. 17's mechanism: a 4-bit data-driven RESET has Random spread
        // under UDRVR-3.94 but Even spread (by construction) under UDRVR+PR.
        let upr = WriteModel::paper(Scheme::UdrvrPr);
        let u394 = WriteModel::paper(Scheme::Udrvr394);
        let resets = [0b1010_1010u8; 64]; // a dense 4-bit reset pattern
        let sets = [0u8; 64];
        let a = upr.plan_line_write_with_data(511, 63, &resets, &sets, Some(&[0u8; 64]));
        let b = u394.plan_line_write(511, 63, &resets, &sets);
        assert!(
            b.reset_phase_ns > a.reset_phase_ns,
            "{} vs {}",
            b.reset_phase_ns,
            a.reset_phase_ns
        );
    }
}
