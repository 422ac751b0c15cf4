//! Cross-point array topology: cells, wires, and line-end boundary conditions.

use crate::{CellDevice, LineEnd};
use std::collections::BTreeMap;

/// A rectangular cross-point resistive network.
///
/// The array has `rows × cols` cells. Indexing follows the physical layout
/// used throughout this workspace (paper Fig. 4a):
///
/// * **Row `i`** is the distance of a junction from the **write-driver (WD)
///   side** of its bit-line; the column multiplexer and WDs sit at `i = 0`.
/// * **Column `j`** is the distance from the **row-decoder side** of its
///   word-line; the row decoder (the RESET ground) sits at `j = 0`.
///
/// Word-line `i` spans columns `0..cols` and terminates in
/// [`wl_left`](Self::wl_left) (`j = 0`, decoder side) and
/// [`wl_right`](Self::wl_right) (`j = cols-1`). Bit-line `j` spans rows
/// `0..rows` and terminates in [`bl_near`](Self::bl_near) (`i = 0`, WD side)
/// and [`bl_far`](Self::bl_far) (`i = rows-1`).
///
/// Adjacent junctions on a line are separated by one wire segment of
/// resistance [`r_wire_wl`](Self::r_wire_wl) / [`r_wire_bl`](Self::r_wire_bl).
///
/// Cells are stored as a device palette: each distinct device once in
/// [`palette`](Self::palette), and one 4-byte palette index per cell. A
/// RESET network holds two devices (the half-selected LRS cell and the
/// selected cell), so a 512×512 array takes 1 MB of cell storage instead of
/// one full device per cell. Devices are deduplicated by bit pattern, never
/// by `==`: `Linear(0.0)` and `Linear(-0.0)` compute differently and stay
/// two entries, and a NaN parameter still matches its own bits. Equality
/// of two networks compares them cell by cell, so it does not depend on
/// the order their palettes were built in.
#[derive(Debug, Clone)]
pub struct Crosspoint {
    rows: usize,
    cols: usize,
    r_wire_wl: f64,
    r_wire_bl: f64,
    /// Every device set on the network, once each (an overwritten device
    /// stays in the palette).
    devices: Vec<CellDevice>,
    /// Palette position of each device's [bit pattern](CellDevice::bit_key).
    lookup: BTreeMap<[u64; 6], u32>,
    /// Palette index of each cell, row-major.
    cells: Vec<u32>,
    wl_left: Vec<LineEnd>,
    wl_right: Vec<LineEnd>,
    bl_near: Vec<LineEnd>,
    bl_far: Vec<LineEnd>,
}

impl Crosspoint {
    /// Creates an array of `rows × cols` copies of `cell` with the same wire
    /// resistance `r_wire` (ohms per junction) on both planes. All line ends
    /// start [floating](LineEnd::Floating).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or `r_wire` is not positive.
    #[must_use]
    pub fn uniform(rows: usize, cols: usize, r_wire: f64, cell: CellDevice) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        assert!(r_wire > 0.0, "wire resistance must be positive");
        Self {
            rows,
            cols,
            r_wire_wl: r_wire,
            r_wire_bl: r_wire,
            devices: vec![cell],
            lookup: BTreeMap::from([(cell.bit_key(), 0)]),
            cells: vec![0; rows * cols],
            wl_left: vec![LineEnd::Floating; rows],
            wl_right: vec![LineEnd::Floating; rows],
            bl_near: vec![LineEnd::Floating; cols],
            bl_far: vec![LineEnd::Floating; cols],
        }
    }

    /// Number of rows (word-lines).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bit-lines).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Word-line wire resistance per junction, ohms.
    #[must_use]
    pub fn r_wire_wl(&self) -> f64 {
        self.r_wire_wl
    }

    /// Bit-line wire resistance per junction, ohms.
    #[must_use]
    pub fn r_wire_bl(&self) -> f64 {
        self.r_wire_bl
    }

    /// Sets distinct wire resistances for the WL and BL planes.
    ///
    /// # Panics
    ///
    /// Panics if either resistance is not positive.
    pub fn set_wire_resistance(&mut self, r_wl: f64, r_bl: f64) {
        assert!(r_wl > 0.0 && r_bl > 0.0, "wire resistance must be positive");
        self.r_wire_wl = r_wl;
        self.r_wire_bl = r_bl;
    }

    /// The device at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn cell(&self, i: usize, j: usize) -> &CellDevice {
        &self.devices[self.cells[self.idx(i, j)] as usize]
    }

    /// Replaces the device at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds, or if the network would
    /// hold more than `u32::MAX` distinct devices.
    pub fn set_cell(&mut self, i: usize, j: usize, cell: CellDevice) {
        let idx = self.idx(i, j);
        let devices = &mut self.devices;
        let id = *self.lookup.entry(cell.bit_key()).or_insert_with(|| {
            let id = u32::try_from(devices.len()).expect("at most u32::MAX distinct devices");
            devices.push(cell);
            id
        });
        self.cells[idx] = id;
    }

    /// The distinct devices of the network, each stored once, in the order
    /// they were first set. A device that no cell uses any more stays.
    #[must_use]
    pub fn palette(&self) -> &[CellDevice] {
        &self.devices
    }

    /// Boundary at the decoder-side end (`j = 0`) of word-line `i`.
    #[must_use]
    pub fn wl_left(&self, i: usize) -> LineEnd {
        self.wl_left[i]
    }

    /// Boundary at the far end (`j = cols-1`) of word-line `i`.
    #[must_use]
    pub fn wl_right(&self, i: usize) -> LineEnd {
        self.wl_right[i]
    }

    /// Boundary at the WD-side end (`i = 0`) of bit-line `j`.
    #[must_use]
    pub fn bl_near(&self, j: usize) -> LineEnd {
        self.bl_near[j]
    }

    /// Boundary at the far end (`i = rows-1`) of bit-line `j`.
    #[must_use]
    pub fn bl_far(&self, j: usize) -> LineEnd {
        self.bl_far[j]
    }

    /// Sets the decoder-side boundary of word-line `i`.
    pub fn set_wl_left(&mut self, i: usize, end: LineEnd) {
        self.wl_left[i] = end;
    }

    /// Sets the far boundary of word-line `i`.
    pub fn set_wl_right(&mut self, i: usize, end: LineEnd) {
        self.wl_right[i] = end;
    }

    /// Sets the WD-side boundary of bit-line `j`.
    pub fn set_bl_near(&mut self, j: usize, end: LineEnd) {
        self.bl_near[j] = end;
    }

    /// Sets the far boundary of bit-line `j`.
    pub fn set_bl_far(&mut self, j: usize, end: LineEnd) {
        self.bl_far[j] = end;
    }

    /// True if at least one line end is driven; a fully floating network has
    /// no unique DC operating point.
    #[must_use]
    pub fn has_source(&self) -> bool {
        self.wl_left
            .iter()
            .chain(&self.wl_right)
            .chain(&self.bl_near)
            .chain(&self.bl_far)
            .any(LineEnd::is_driven)
    }

    #[inline]
    pub(crate) fn idx(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "cell index out of bounds");
        i * self.cols + j
    }

    /// The palette and the row-major per-cell palette indices.
    #[inline]
    pub(crate) fn cells(&self) -> (&[CellDevice], &[u32]) {
        (&self.devices, &self.cells)
    }

    /// The device at row-major cell index `k`.
    #[inline]
    pub(crate) fn device(&self, k: usize) -> &CellDevice {
        &self.devices[self.cells[k] as usize]
    }
}

impl PartialEq for Crosspoint {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.r_wire_wl == other.r_wire_wl
            && self.r_wire_bl == other.r_wire_bl
            && self.wl_left == other.wl_left
            && self.wl_right == other.wl_right
            && self.bl_near == other.bl_near
            && self.bl_far == other.bl_far
            && (0..self.cells.len()).all(|k| self.device(k) == other.device(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolySelector;

    fn lrs() -> CellDevice {
        CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0))
    }

    #[test]
    fn uniform_starts_floating() {
        let cp = Crosspoint::uniform(4, 8, 11.5, lrs());
        assert_eq!(cp.rows(), 4);
        assert_eq!(cp.cols(), 8);
        assert!(!cp.has_source());
        assert_eq!(cp.wl_left(0), LineEnd::Floating);
        assert_eq!(cp.bl_far(7), LineEnd::Floating);
    }

    #[test]
    fn set_cell_round_trips() {
        let mut cp = Crosspoint::uniform(3, 3, 11.5, lrs());
        cp.set_cell(1, 2, CellDevice::Open);
        assert_eq!(*cp.cell(1, 2), CellDevice::Open);
        assert_eq!(*cp.cell(1, 1), lrs());
    }

    #[test]
    fn palette_stores_each_device_once() {
        let mut cp = Crosspoint::uniform(4, 4, 11.5, lrs());
        for j in 0..4 {
            cp.set_cell(3, j, CellDevice::Open);
        }
        cp.set_cell(0, 0, lrs());
        assert_eq!(cp.palette(), &[lrs(), CellDevice::Open]);
        assert_eq!(*cp.cell(3, 2), CellDevice::Open);
        assert_eq!(*cp.cell(0, 0), lrs());
    }

    #[test]
    fn palette_dedupes_by_bits_not_eq() {
        let mut cp = Crosspoint::uniform(2, 2, 1.0, CellDevice::Linear(0.0));
        // `0.0 == -0.0`, but the two compute differently signed zeros.
        cp.set_cell(0, 1, CellDevice::Linear(-0.0));
        assert_eq!(cp.palette().len(), 2);
        let g = |cp: &Crosspoint, i, j| match cp.cell(i, j) {
            CellDevice::Linear(g) => g.to_bits(),
            other => panic!("{other:?}"),
        };
        assert_eq!(g(&cp, 0, 0), 0.0f64.to_bits());
        assert_eq!(g(&cp, 0, 1), (-0.0f64).to_bits());
        // NaN never equals itself, yet two NaN cells share one entry.
        cp.set_cell(1, 0, CellDevice::Linear(f64::NAN));
        cp.set_cell(1, 1, CellDevice::Linear(f64::NAN));
        assert_eq!(cp.palette().len(), 3);
    }

    #[test]
    fn equality_is_cell_by_cell_whatever_the_palette_order() {
        let mut a = Crosspoint::uniform(3, 3, 11.5, lrs());
        a.set_cell(1, 1, CellDevice::Open);
        let mut b = Crosspoint::uniform(3, 3, 11.5, CellDevice::Open);
        for i in 0..3 {
            for j in 0..3 {
                if (i, j) != (1, 1) {
                    b.set_cell(i, j, lrs());
                }
            }
        }
        assert_ne!(a.palette(), b.palette());
        assert_eq!(a, b);
        b.set_cell(2, 2, CellDevice::Linear(1e-6));
        assert_ne!(a, b);
        // A device no cell uses any more does not count either.
        b.set_cell(2, 2, lrs());
        assert_eq!(b.palette().len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn has_source_detects_any_driven_end() {
        let mut cp = Crosspoint::uniform(2, 2, 1.0, lrs());
        assert!(!cp.has_source());
        cp.set_bl_far(1, LineEnd::driven(3.0));
        assert!(cp.has_source());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cell_out_of_bounds_panics() {
        let cp = Crosspoint::uniform(2, 2, 1.0, lrs());
        let _ = cp.cell(2, 0);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_rows_panics() {
        let _ = Crosspoint::uniform(0, 2, 1.0, lrs());
    }

    #[test]
    fn wire_resistance_setter() {
        let mut cp = Crosspoint::uniform(2, 2, 1.0, lrs());
        cp.set_wire_resistance(2.0, 3.0);
        assert_eq!(cp.r_wire_wl(), 2.0);
        assert_eq!(cp.r_wire_bl(), 3.0);
    }
}
