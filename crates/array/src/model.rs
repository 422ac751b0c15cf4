//! The assembled array model: geometry + technology + devices + kinetics.

use crate::kinetics::WriteOutcome;
use crate::{
    ArrayGeometry, CellParams, DropModel, EnduranceModel, HardwareDesign, PartitionModel,
    ResetKinetics, TechNode,
};
use reram_circuit::{Crosspoint, LineEnd};

/// A complete electrical/kinetic model of one cross-point MAT.
///
/// This is the object the mitigation schemes (`reram-core`) and the memory
/// system (`reram-mem`) are built on: it answers "if I apply `V` volts to
/// reset the cell at `(i, j)` while `N` cells of the word-line reset
/// concurrently, what is the effective voltage, the latency, and the wear?"
///
/// # Example
///
/// ```
/// use reram_array::ArrayModel;
/// use reram_array::kinetics::WriteOutcome;
///
/// let array = ArrayModel::paper_baseline();
/// // The zero-drop corner resets in the nominal 15 ns…
/// match array.reset_outcome(3.0, 0, 0, 1) {
///     WriteOutcome::Completes { latency_ns } => assert!((latency_ns - 15.0).abs() < 1e-6),
///     WriteOutcome::Fails { .. } => unreachable!(),
/// }
/// // …while the far corner of the 512×512 baseline needs ≈ 2.3 µs (Fig. 4c).
/// match array.reset_outcome(3.0, 511, 511, 1) {
///     WriteOutcome::Completes { latency_ns } => assert!(latency_ns > 1500.0),
///     WriteOutcome::Fails { .. } => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayModel {
    geom: ArrayGeometry,
    tech: TechNode,
    cell: CellParams,
    design: HardwareDesign,
    partition: PartitionModel,
    kinetics: ResetKinetics,
    endurance: EnduranceModel,
    oracle_window: Option<usize>,
}

impl ArrayModel {
    /// The paper's baseline: 512×512, 20 nm, Table-I cell, no prior
    /// technique, paper-calibrated kinetics and endurance.
    #[must_use]
    pub fn paper_baseline() -> Self {
        Self {
            geom: ArrayGeometry::baseline(),
            tech: TechNode::N20,
            cell: CellParams::default(),
            design: HardwareDesign::baseline(),
            partition: PartitionModel::paper(),
            kinetics: ResetKinetics::paper(),
            endurance: EnduranceModel::paper(),
            oracle_window: None,
        }
    }

    /// Replaces the MAT geometry (Fig. 18 sweeps 256 / 512 / 1024).
    #[must_use]
    pub fn with_geometry(mut self, geom: ArrayGeometry) -> Self {
        self.geom = geom;
        self
    }

    /// Replaces the process node (Fig. 19 sweeps 32 / 20 / 10 nm).
    #[must_use]
    pub fn with_tech(mut self, tech: TechNode) -> Self {
        self.tech = tech;
        self
    }

    /// Replaces the cell parameters (Fig. 20 sweeps the selector `Kr`).
    #[must_use]
    pub fn with_cell(mut self, cell: CellParams) -> Self {
        self.cell = cell;
        self
    }

    /// Enables prior hardware techniques (DSGB / DSWD / D-BL).
    #[must_use]
    pub fn with_design(mut self, design: HardwareDesign) -> Self {
        self.design = design;
        self
    }

    /// Replaces the partitioning model.
    #[must_use]
    pub fn with_partition(mut self, partition: PartitionModel) -> Self {
        self.partition = partition;
        self
    }

    /// Turns the model into the `ora-m×m` oracle of §III-C.
    ///
    /// # Panics
    ///
    /// Panics unless `m` divides the MAT size (checked when the drop model
    /// is built) or a non-baseline design is configured.
    #[must_use]
    pub fn with_oracle_window(mut self, m: usize) -> Self {
        self.oracle_window = Some(m);
        self
    }

    /// The MAT geometry.
    #[must_use]
    pub fn geometry(&self) -> ArrayGeometry {
        self.geom
    }

    /// The process node.
    #[must_use]
    pub fn tech(&self) -> TechNode {
        self.tech
    }

    /// The cell parameters.
    #[must_use]
    pub fn cell(&self) -> CellParams {
        self.cell
    }

    /// The hardware design (prior techniques).
    #[must_use]
    pub fn design(&self) -> HardwareDesign {
        self.design
    }

    /// The partitioning model.
    #[must_use]
    pub fn partition(&self) -> PartitionModel {
        self.partition
    }

    /// The RESET kinetics (Eq. 1).
    #[must_use]
    pub fn kinetics(&self) -> ResetKinetics {
        self.kinetics
    }

    /// The endurance model (Eq. 2).
    #[must_use]
    pub fn endurance(&self) -> EnduranceModel {
        self.endurance
    }

    /// Builds the IR-drop model for this configuration.
    #[must_use]
    pub fn drop_model(&self) -> DropModel {
        let m = DropModel::new(self.geom, self.tech, self.cell, self.design, self.partition);
        match self.oracle_window {
            Some(w) => m.with_oracle_window(w),
            None => m,
        }
    }

    /// Effective RESET voltage on cell `(i, j)` when `applied_volts` is
    /// driven onto its BL and `n_concurrent` cells of the WL reset together.
    #[must_use]
    pub fn effective_vrst(
        &self,
        applied_volts: f64,
        i: usize,
        j: usize,
        n_concurrent: usize,
    ) -> f64 {
        applied_volts - self.drop_model().total_drop(i, j, n_concurrent)
    }

    /// RESET outcome (latency or write failure) for cell `(i, j)`.
    #[must_use]
    pub fn reset_outcome(
        &self,
        applied_volts: f64,
        i: usize,
        j: usize,
        n_concurrent: usize,
    ) -> WriteOutcome {
        self.kinetics
            .outcome(self.effective_vrst(applied_volts, i, j, n_concurrent))
    }

    /// Cell endurance in writes, or `None` if the RESET fails outright.
    #[must_use]
    pub fn endurance_writes(
        &self,
        applied_volts: f64,
        i: usize,
        j: usize,
        n_concurrent: usize,
    ) -> Option<f64> {
        match self.reset_outcome(applied_volts, i, j, n_concurrent) {
            WriteOutcome::Completes { latency_ns } => Some(self.endurance.writes(latency_ns)),
            WriteOutcome::Fails { .. } => None,
        }
    }

    /// The array RESET latency under a uniform applied voltage and 1-bit
    /// RESETs: the slowest cell anywhere decides it (§III-A), nanoseconds.
    /// Returns `None` if any cell's RESET fails.
    #[must_use]
    pub fn array_reset_latency_ns(&self, applied_volts: f64) -> Option<f64> {
        let dm = self.drop_model();
        // The drop is monotone in each coordinate within a window, so the
        // worst cell is at the worst BL position + worst WL position.
        let worst = applied_volts - dm.worst_bl_drop() - dm.worst_wl_drop(1);
        match self.kinetics.outcome(worst) {
            WriteOutcome::Completes { latency_ns } => Some(latency_ns),
            WriteOutcome::Fails { .. } => None,
        }
    }

    /// Builds the full nonlinear circuit network for a RESET of
    /// `selected_cols` on `selected_row`, each driven with its own voltage
    /// (`applied_volts[k]` on `selected_cols[k]`), with every other cell LRS
    /// and half-biased per the paper's Fig. 2 scheme. Use the
    /// [`reram_circuit`] solver on the result to validate the analytic model.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length or any index is out of
    /// bounds.
    #[must_use]
    pub fn to_crosspoint(
        &self,
        selected_row: usize,
        selected_cols: &[usize],
        applied_volts: &[f64],
    ) -> Crosspoint {
        assert_eq!(
            selected_cols.len(),
            applied_volts.len(),
            "one applied voltage per selected column"
        );
        let n = self.geom.size();
        assert!(selected_row < n, "selected row out of bounds");
        let v_half = self.cell.v_full / 2.0;
        let mut cp = Crosspoint::uniform(n, n, self.tech.r_wire_ohms(), self.cell.lrs_device());
        for i in 0..n {
            cp.set_wl_left(
                i,
                if i == selected_row {
                    LineEnd::ground()
                } else {
                    LineEnd::driven(v_half)
                },
            );
            if self.design.dsgb && i == selected_row {
                cp.set_wl_right(i, LineEnd::ground());
            }
        }
        for j in 0..n {
            cp.set_bl_near(j, LineEnd::driven(v_half));
        }
        for (&c, &v) in selected_cols.iter().zip(applied_volts) {
            assert!(c < n, "selected column out of bounds");
            cp.set_bl_near(c, LineEnd::driven(v));
            if self.design.dswd {
                cp.set_bl_far(c, LineEnd::driven(v));
            }
            cp.set_cell(selected_row, c, self.cell.selected_device());
        }
        cp
    }
}

impl Default for ArrayModel {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_circuit::SolveOptions;

    #[test]
    fn baseline_array_latency_is_2_3_us() {
        // §III-A: "the RESET latency for the CP array has to be set to 2.3 µs".
        let m = ArrayModel::paper_baseline();
        let t = m.array_reset_latency_ns(3.0).unwrap();
        assert!((t - 2300.0).abs() / 2300.0 < 0.10, "t = {t}");
    }

    #[test]
    fn zero_drop_corner_keeps_nominal_latency_and_endurance() {
        let m = ArrayModel::paper_baseline();
        match m.reset_outcome(3.0, 0, 0, 1) {
            WriteOutcome::Completes { latency_ns } => {
                assert!((latency_ns - 15.0).abs() < 1e-9)
            }
            other => panic!("{other:?}"),
        }
        let e = m.endurance_writes(3.0, 0, 0, 1).unwrap();
        assert!((e - 5e6).abs() / 5e6 < 1e-9);
    }

    #[test]
    fn too_low_voltage_fails_the_far_corner() {
        // 3 V minus a ~1.33 V worst-case drop sits just at the 1.7 V failure
        // edge; anything lower must fail.
        let m = ArrayModel::paper_baseline();
        assert!(m.endurance_writes(2.9, 511, 511, 1).is_none());
        assert!(m.array_reset_latency_ns(2.9).is_none());
    }

    #[test]
    fn oracle_window_shortens_array_latency() {
        let base = ArrayModel::paper_baseline();
        let ora128 = ArrayModel::paper_baseline().with_oracle_window(128);
        let ora64 = ArrayModel::paper_baseline().with_oracle_window(64);
        let t_base = base.array_reset_latency_ns(3.0).unwrap();
        let t128 = ora128.array_reset_latency_ns(3.0).unwrap();
        let t64 = ora64.array_reset_latency_ns(3.0).unwrap();
        assert!(t64 < t128 && t128 < t_base);
    }

    #[test]
    fn hard_design_approaches_a_quarter_size_array() {
        // §VI: DSGB + DSWD make a 512×512 array's drop similar to 256×256;
        // with D-BL's always-8 partitioning it lands around ora-100×256.
        let hard = ArrayModel::paper_baseline().with_design(HardwareDesign::hard());
        let dm = hard.drop_model();
        let drop_hard = dm.worst_bl_drop() + dm.worst_wl_drop(8);
        let ora256 = ArrayModel::paper_baseline().with_oracle_window(256);
        let dm256 = ora256.drop_model();
        let drop_256 = dm256.worst_bl_drop() + dm256.worst_wl_drop(1);
        assert!(
            drop_hard < drop_256,
            "hard {drop_hard} should beat ora-256 {drop_256}"
        );
    }

    #[test]
    fn analytic_drop_is_pessimistic_vs_circuit_solver() {
        // The fixed-current analytic model (the paper's) upper-bounds the
        // self-consistent KCL solution on the same mesh.
        let m = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(64, 8));
        let cp = m.to_crosspoint(63, &[63], &[3.0]);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        let veff_circuit = sol.cell_voltage(63, 63);
        let veff_analytic = m.effective_vrst(3.0, 63, 63, 1);
        assert!(
            veff_analytic <= veff_circuit + 0.02,
            "analytic {veff_analytic} vs circuit {veff_circuit}"
        );
        // …and they agree on the scale of the drop.
        let drop_c = 3.0 - veff_circuit;
        let drop_a = 3.0 - veff_analytic;
        assert!(drop_a < 2.5 * drop_c + 0.02, "{drop_a} vs {drop_c}");
    }

    #[test]
    fn reset_network_holds_two_devices() {
        let m = ArrayModel::paper_baseline();
        let n = m.geometry().size();
        let cols = [0, n / 2, n - 1];
        let cp = m.to_crosspoint(n - 1, &cols, &[3.0, 3.1, 3.2]);
        assert_eq!(
            cp.palette(),
            &[m.cell().lrs_device(), m.cell().selected_device()]
        );
        assert_eq!(*cp.cell(n - 1, n / 2), m.cell().selected_device());
        assert_eq!(*cp.cell(n - 2, n / 2), m.cell().lrs_device());
    }

    #[test]
    fn builder_round_trips() {
        let m = ArrayModel::paper_baseline()
            .with_tech(TechNode::N10)
            .with_cell(CellParams::default().with_kr(500.0))
            .with_design(HardwareDesign::hard());
        assert_eq!(m.tech(), TechNode::N10);
        assert_eq!(m.cell().kr, 500.0);
        assert_eq!(m.design(), HardwareDesign::hard());
    }
}
