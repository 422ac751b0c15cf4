//! DC operating-point computation for [`Crosspoint`] networks.
//!
//! The solver performs nonlinear line relaxation: every sweep re-linearizes
//! each cross-point device around the current iterate (Newton) and solves
//! each word-line and each bit-line exactly as a tridiagonal system holding
//! the other plane fixed (block Gauss–Seidel). Because the plane-to-plane
//! coupling (cell conductance, ≤ µS) is orders of magnitude weaker than the
//! in-line coupling (wire conductance, ~0.1 S), the relaxation converges in
//! a small number of sweeps even for 512×512 arrays.
//!
//! # Acceleration
//!
//! Sweep-style callers (validation grids, voltage ramps, figure loops) can
//! hold a [`SolverWorkspace`] and call [`Crosspoint::solve_warm`] /
//! [`Crosspoint::solve_into`] to stack three optimizations, none of which
//! changes a converged answer:
//!
//! * **Warm starts** — the workspace keeps the previous converged operating
//!   point and seeds the next solve from it instead of the cold boundary
//!   guess, collapsing the sweep count when consecutive solves are similar.
//! * **Banded line relaxation** — within a phase, every word-line system
//!   depends only on the fixed bit-line plane (and vice versa). The one
//!   relaxation kernel interleaves up to [`LINE_BATCH`] line systems per
//!   batch and splits each phase into contiguous bands of whole batches,
//!   one per thread of [`SolverWorkspace::with_threads`], each band at
//!   least [`MIN_BAND_LINES`] lines. Every line's
//!   system is built, solved and applied with the same arithmetic at any
//!   thread count, so results are bitwise-identical to one thread.
//! * **Linearization caching** — each cell's last `(v, g, i0)` Newton
//!   linearization is kept; cells whose junction voltage moved less than
//!   [`SolveOptions::lin_cache_epsilon_volts`] skip the expensive device
//!   model. The exact nonlinear KCL residual check still gates convergence,
//!   so a stale cache can never produce a wrong answer — at worst it
//!   triggers a cache refresh and more sweeps.
//!
//! [`Crosspoint::solve_into`] returns a [`SolutionView`] of the workspace
//! planes instead of copying them into a [`Solution`].

use crate::workspace::SolverWorkspace;
use crate::{solve_tridiagonal_batch_const, Crosspoint, LineEnd, SolveError, TRIDIAG_BATCH_MAX};
use reram_obs::{Obs, Value};

/// A tiny conductance to ground added to every junction.
///
/// It regularizes otherwise-floating subnetworks (e.g. a floating line whose
/// cells are all [`Open`](crate::CellDevice::Open)) without measurably
/// perturbing driven networks: at the sub-milliampere currents of these
/// arrays the voltage error it introduces is below a picovolt.
const NODE_LEAK_S: f64 = 1e-12;

/// Lines relaxed per interleaved batch.
///
/// Batching serves two unrelated machine limits with one structure. (1)
/// *Latency*: the Thomas algorithm is a per-node chain of dependent
/// divisions; interleaving eight independent line systems
/// ([`solve_tridiagonal_batch_const`]) lets those chains pipeline. (2)
/// *Bandwidth*: a bit-line's nodes sit `cols` apart in the row-major
/// planes, so assembling one column at a time wastes 7/8 of every fetched
/// cache line — assembling eight adjacent columns per plane pass (one
/// cache line of `f64`s) cuts that traffic eightfold. Every line's system
/// is still built, solved, and applied with exactly the one-line
/// arithmetic, so results are bitwise unchanged.
const LINE_BATCH: usize = TRIDIAG_BATCH_MAX;

/// Consecutive stalled sweeps (iterate within `tol_volts` of its fixed
/// point, exact residual still above `tol_amps`, no linearization cache
/// left to refresh) before the solve gives up early. A per-sweep update
/// below `tol_volts` (1e-10 V by default) cannot close an ampere-scale
/// residual gap no matter how many sweeps remain, so a short confirmation
/// run is enough — this turns a guaranteed 20 000-sweep burn into a
/// handful of sweeps whenever a solve is truly wedged.
const STALL_BAIL_SWEEPS: u32 = 4;

/// Options controlling the nonlinear relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum number of full (all WLs + all BLs) sweeps.
    pub max_sweeps: usize,
    /// Declare convergence when no node moved by more than this per sweep
    /// (volts) *and* the KCL residual is below [`tol_amps`](Self::tol_amps).
    pub tol_volts: f64,
    /// Maximum allowed Kirchhoff-current-law residual at any node (amperes).
    pub tol_amps: f64,
    /// Per-node, per-sweep update clamp (volts); damps the Newton updates of
    /// strongly nonlinear selectors.
    pub max_step_volts: f64,
    /// Reuse a cell's previous Newton linearization while its junction
    /// voltage has moved by no more than this (volts); `None` (the default)
    /// disables the cache, so plain solves pay no lookup overhead.
    /// `Some(0.0)` skips only re-linearizations at a bitwise-identical
    /// junction voltage, so it matches `None` bitwise as long as every
    /// cell keeps the device its cache entry was computed for. Entries are
    /// keyed by cell position, not by device: a caller that swaps devices
    /// between warm solves on one workspace must call
    /// [`SolverWorkspace::invalidate_cache`] first, or a changed cell can
    /// reuse its old device's linearization. Looser values (e.g. `1e-5`)
    /// skip most device-model evaluations in warm-started sweeps and are
    /// still guarded by the exact nonlinear residual check.
    pub lin_cache_epsilon_volts: Option<f64>,
    /// Extra per-node leak conductance to ground (siemens), added on top of
    /// the built-in 1 pS node-leak regularization. The default `0.0`
    /// leaves every result bit-exact (`x + 0.0` is the identity on finite
    /// `f64`s); the recovery ladder's last rung
    /// ([`Crosspoint::solve_recover`](crate::Crosspoint::solve_recover))
    /// sets ~1e-9 S to regularize a singular line pivot, trading a bounded
    /// sub-microvolt bias for an answer instead of an error.
    pub extra_leak_s: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 20_000,
            tol_volts: 1e-10,
            // An order of magnitude above the numerical floor the 1e6-S
            // ideal-driver stamps leave in the residual.
            tol_amps: 1e-8,
            max_step_volts: 0.5,
            lin_cache_epsilon_volts: None,
            extra_leak_s: 0.0,
        }
    }
}

/// Convergence statistics of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Number of full sweeps performed.
    pub sweeps: usize,
    /// Final worst-node KCL residual, amperes.
    pub residual_amps: f64,
    /// Largest node update in the final sweep, volts.
    pub max_delta_volts: f64,
}

/// The DC operating point of a [`Crosspoint`] network.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    rows: usize,
    cols: usize,
    vw: Vec<f64>,
    vb: Vec<f64>,
    cell_currents: Vec<f64>,
    src_wl_left: Vec<f64>,
    src_wl_right: Vec<f64>,
    src_bl_near: Vec<f64>,
    src_bl_far: Vec<f64>,
    stats: SolveStats,
}

impl Solution {
    /// Voltage of the word-line-plane junction at row `i`, column `j` (volts).
    #[must_use]
    pub fn wl_voltage(&self, i: usize, j: usize) -> f64 {
        self.vw[self.idx(i, j)]
    }

    /// Voltage of the bit-line-plane junction at row `i`, column `j` (volts).
    #[must_use]
    pub fn bl_voltage(&self, i: usize, j: usize) -> f64 {
        self.vb[self.idx(i, j)]
    }

    /// Voltage across the cell at `(i, j)` in RESET polarity: `V(BL) − V(WL)`.
    ///
    /// During a RESET the selected BL is high and the selected WL grounded,
    /// so the *effective RESET voltage* of the selected cell is exactly this
    /// quantity; the applied voltage minus it is the cell's IR drop.
    #[must_use]
    pub fn cell_voltage(&self, i: usize, j: usize) -> f64 {
        let idx = self.idx(i, j);
        self.vb[idx] - self.vw[idx]
    }

    /// Current through the cell at `(i, j)`, positive when flowing from the
    /// BL plane to the WL plane (RESET polarity), amperes.
    #[must_use]
    pub fn cell_current(&self, i: usize, j: usize) -> f64 {
        self.cell_currents[self.idx(i, j)]
    }

    /// Current delivered *into* word-line `i` by its decoder-side source
    /// (amperes); zero for a floating end. Negative values mean the line
    /// sinks current into the source — e.g. the RESET ground.
    #[must_use]
    pub fn source_current_wl_left(&self, i: usize) -> f64 {
        self.src_wl_left[i]
    }

    /// Current delivered into word-line `i` by its far-end source (amperes).
    #[must_use]
    pub fn source_current_wl_right(&self, i: usize) -> f64 {
        self.src_wl_right[i]
    }

    /// Current delivered into bit-line `j` by its WD-side source (amperes).
    #[must_use]
    pub fn source_current_bl_near(&self, j: usize) -> f64 {
        self.src_bl_near[j]
    }

    /// Current delivered into bit-line `j` by its far-end source (amperes).
    #[must_use]
    pub fn source_current_bl_far(&self, j: usize) -> f64 {
        self.src_bl_far[j]
    }

    /// Sum of all source currents (amperes); ~0 by charge conservation up to
    /// the node-leak regularization.
    #[must_use]
    pub fn total_source_current(&self) -> f64 {
        self.src_wl_left
            .iter()
            .chain(&self.src_wl_right)
            .chain(&self.src_bl_near)
            .chain(&self.src_bl_far)
            .sum()
    }

    /// Convergence statistics.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        i * self.cols + j
    }
}

/// The operating point a [`SolverWorkspace`] converged to, read in place
/// ([`Crosspoint::solve_into`]): voltages bit for bit those of the owned
/// [`Solution`] of the same solve, without its cell and source currents.
#[derive(Debug, Clone, Copy)]
pub struct SolutionView<'w> {
    rows: usize,
    cols: usize,
    vw: &'w [f64],
    vb: &'w [f64],
    stats: SolveStats,
}

impl SolutionView<'_> {
    /// Voltage of the word-line-plane junction at row `i`, column `j` (volts).
    #[must_use]
    pub fn wl_voltage(&self, i: usize, j: usize) -> f64 {
        self.vw[self.idx(i, j)]
    }

    /// Voltage of the bit-line-plane junction at row `i`, column `j` (volts).
    #[must_use]
    pub fn bl_voltage(&self, i: usize, j: usize) -> f64 {
        self.vb[self.idx(i, j)]
    }

    /// Voltage across the cell at `(i, j)` in RESET polarity, `V(BL) − V(WL)`
    /// (see [`Solution::cell_voltage`]).
    #[must_use]
    pub fn cell_voltage(&self, i: usize, j: usize) -> f64 {
        let idx = self.idx(i, j);
        self.vb[idx] - self.vw[idx]
    }

    /// Convergence statistics.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        i * self.cols + j
    }
}

/// Everything the relaxation kernel reads besides the planes, shared by
/// every band of a phase.
struct Relax<'a> {
    cp: &'a Crosspoint,
    rows: usize,
    cols: usize,
    g_wl: f64,
    g_bl: f64,
    /// Per-node leak: `NODE_LEAK_S` plus [`SolveOptions::extra_leak_s`].
    leak: f64,
    max_step: f64,
    /// Linearization-cache epsilon; `None` = cache off.
    eps: Option<f64>,
    /// Word-line band boundaries (see [`band_bounds`]).
    wl_bounds: Vec<usize>,
    /// Bit-line band boundaries.
    bl_bounds: Vec<usize>,
}

/// One band's share of a phase: its largest node update and its
/// linearization-cache hits and lookups.
#[derive(Clone, Copy, Default)]
struct BandStats {
    max_dv: f64,
    hits: u64,
    lookups: u64,
}

/// A band's part of the three linearization-cache planes (`v`, `g`, `i0`),
/// empty while the cache is off: one contiguous slice for a word-line band,
/// one sub-slice per row for a bit-line band.
struct CacheBand<P> {
    v: P,
    g: P,
    i0: P,
}

/// Fewest lines a band holds: a band's thread is spawned afresh every phase,
/// and two threads lose to one at 64² and win from 128² up on the solver
/// bench. A multiple of [`LINE_BATCH`], so bands never outnumber batches.
const MIN_BAND_LINES: usize = 64;

/// Band boundaries for `lines` lines on up to `threads` threads, at least
/// [`MIN_BAND_LINES`] lines per band: band `b` is `bounds[b]..bounds[b + 1]`.
/// Bands are whole [`LINE_BATCH`] batches (bar the ragged last one), so
/// every batch holds exactly the lines it holds on one thread.
fn band_bounds(lines: usize, threads: usize) -> Vec<usize> {
    let batches = lines.div_ceil(LINE_BATCH);
    let bands = threads.min(lines / MIN_BAND_LINES).max(1);
    (0..=bands)
        .map(|b| (b * batches / bands * LINE_BATCH).min(lines))
        .collect()
}

/// Splits the row-major `plane` into one contiguous chunk of whole
/// `width`-wide rows per band; an empty plane yields empty chunks.
fn row_bands<'a>(mut plane: &'a mut [f64], bounds: &[usize], width: usize) -> Vec<&'a mut [f64]> {
    bounds
        .windows(2)
        .map(|w| {
            let len = ((w[1] - w[0]) * width).min(plane.len());
            let (band, rest) = std::mem::take(&mut plane).split_at_mut(len);
            plane = rest;
            band
        })
        .collect()
}

/// Splits every `cols`-wide row of `plane` at the column band boundaries:
/// entry `b` holds band `b`'s sub-slice of each row, top to bottom. An
/// empty plane yields empty bands.
fn col_bands<'a>(plane: &'a mut [f64], bounds: &[usize], cols: usize) -> Vec<Vec<&'a mut [f64]>> {
    let rows = plane.len() / cols;
    let mut bands: Vec<Vec<&mut [f64]>> = (1..bounds.len())
        .map(|_| Vec::with_capacity(rows))
        .collect();
    for mut row in plane.chunks_mut(cols) {
        for (band, w) in bands.iter_mut().zip(bounds.windows(2)) {
            let (part, rest) = std::mem::take(&mut row).split_at_mut(w[1] - w[0]);
            band.push(part);
            row = rest;
        }
    }
    bands
}

/// Zips per-band splits of the three cache planes into [`CacheBand`]s.
fn cache_bands<P>(v: Vec<P>, g: Vec<P>, i0: Vec<P>) -> impl Iterator<Item = CacheBand<P>> {
    v.into_iter()
        .zip(g)
        .zip(i0)
        .map(|((v, g), i0)| CacheBand { v, g, i0 })
}

/// Runs one job per band — the first on the calling thread, the rest on
/// scoped threads — and returns their results in band order.
fn run_bands<T: Send>(jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    let mut jobs = jobs.into_iter();
    let first = jobs.next().expect("every phase has at least one band");
    std::thread::scope(|s| {
        let rest: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        let mut out = vec![first()];
        out.extend(
            rest.into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        out
    })
}

/// Folds a phase's band results in band order. The lowest band's error
/// wins: its first singular line is the first one the one-thread schedule
/// meets. The max fold does not depend on order.
fn merge_bands(outs: Vec<Result<BandStats, SolveError>>) -> Result<BandStats, SolveError> {
    outs.into_iter().try_fold(BandStats::default(), |acc, out| {
        let b = out?;
        Ok(BandStats {
            max_dv: acc.max_dv.max(b.max_dv),
            hits: acc.hits + b.hits,
            lookups: acc.lookups + b.lookups,
        })
    })
}

/// Stamps one junction into slot `o` of an (interleaved) tridiagonal
/// system: cell + leak + wire coupling on the diagonal, boundary source on
/// the end nodes (`k` is the node's position along its `len`-node line).
/// Only the diagonal and RHS are materialized — every off-diagonal the
/// Thomas recurrence reads is exactly `-g_wire`, which
/// [`solve_tridiagonal_batch_const`] takes as a scalar.
/// For a WL node pass `i0` and the fixed BL voltage; for a BL node pass
/// `-i0` and the fixed WL voltage — `x - i0` and `x + (-i0)` are the same
/// f64 operation, so both phases share this exact arithmetic sequence
/// (bitwise identity between the cached and uncached arms).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stamp_node(
    k: usize,
    len: usize,
    o: usize,
    g: f64,
    leak: f64,
    i0: f64,
    v_fixed: f64,
    g_wire: f64,
    (ga, va): (f64, f64),
    (gb, vbn): (f64, f64),
    diag: &mut [f64],
    rhs: &mut [f64],
) {
    let mut d = g + leak;
    let mut r = g * v_fixed + i0;
    if k > 0 {
        d += g_wire;
    } else {
        d += ga;
        r += ga * va;
    }
    if k + 1 < len {
        d += g_wire;
    } else {
        d += gb;
        r += gb * vbn;
    }
    diag[o] = d;
    rhs[o] = r;
}

impl Relax<'_> {
    /// Relaxes one band of word-lines against the fixed BL plane: `vw`,
    /// `vb` and `lin` hold the band's rows, the first of which is row
    /// `r_lo`. Node `j` of batch-local row `t` lives at scratch slot
    /// `j*t_n + t`. Fixed row windows let the compiler drop the per-cell
    /// bounds checks on all five planes.
    fn wl_band(
        &self,
        r_lo: usize,
        vw: &mut [f64],
        vb: &[f64],
        lin: CacheBand<&mut [f64]>,
        diag: &mut [f64],
        rhs: &mut [f64],
    ) -> Result<BandStats, SolveError> {
        let Self {
            cp,
            cols,
            g_wl,
            leak,
            max_step,
            eps,
            ..
        } = *self;
        let (devices, cells) = cp.cells();
        let CacheBand {
            v: lin_v,
            g: lin_g,
            i0: lin_i0,
        } = lin;
        let band_rows = vw.len() / cols;
        let mut st = BandStats::default();
        let mut r0 = 0;
        while r0 < band_rows {
            let t_n = LINE_BATCH.min(band_rows - r0);
            #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
            for t in 0..t_n {
                let i = r_lo + r0 + t;
                let (gl, vl) = cp.wl_left(i).stamp();
                let (gr, vr) = cp.wl_right(i).stamp();
                let base = (r0 + t) * cols;
                let vbr = &vb[base..base + cols];
                let vwr = &vw[base..base + cols];
                let cr = &cells[i * cols..(i + 1) * cols];
                if let Some(e) = eps {
                    let lv = &mut lin_v[base..base + cols];
                    let lg = &mut lin_g[base..base + cols];
                    let li = &mut lin_i0[base..base + cols];
                    st.lookups += cols as u64;
                    for j in 0..cols {
                        let v = vbr[j] - vwr[j];
                        if (v - lv[j]).abs() <= e {
                            st.hits += 1;
                        } else {
                            let (g, i0) = devices[cr[j] as usize].linearize(v);
                            lv[j] = v;
                            lg[j] = g;
                            li[j] = i0;
                        }
                        stamp_node(
                            j,
                            cols,
                            j * t_n + t,
                            lg[j],
                            leak,
                            li[j],
                            vbr[j],
                            g_wl,
                            (gl, vl),
                            (gr, vr),
                            diag,
                            rhs,
                        );
                    }
                } else {
                    for j in 0..cols {
                        let (g, i0) = devices[cr[j] as usize].linearize(vbr[j] - vwr[j]);
                        stamp_node(
                            j,
                            cols,
                            j * t_n + t,
                            g,
                            leak,
                            i0,
                            vbr[j],
                            g_wl,
                            (gl, vl),
                            (gr, vr),
                            diag,
                            rhs,
                        );
                    }
                }
            }
            let m = t_n * cols;
            solve_tridiagonal_batch_const(t_n, cols, -g_wl, &mut diag[..m], &mut rhs[..m])
                .map_err(|(t, _)| SolveError::SingularLine {
                    line: r_lo + r0 + t,
                })?;
            for t in 0..t_n {
                let base = (r0 + t) * cols;
                for (j, w) in vw[base..base + cols].iter_mut().enumerate() {
                    let dv = (rhs[j * t_n + t] - *w).clamp(-max_step, max_step);
                    *w += dv;
                    st.max_dv = st.max_dv.max(dv.abs());
                }
            }
            r0 += t_n;
        }
        Ok(st)
    }

    /// Relaxes one band of bit-lines against the fixed WL plane (the twin
    /// of [`Relax::wl_band`]): `vb` and `lin` hold the band's sub-slice of
    /// every row, the first column of which is column `c_lo`. A batch is up
    /// to [`LINE_BATCH`] adjacent columns assembled in one plane pass; node
    /// `i` of batch-local column `t` lives at scratch slot `i*t_n + t`, and
    /// the stamp is shared with the WL phase by negating `i0` (see
    /// `stamp_node`).
    fn bl_band(
        &self,
        c_lo: usize,
        vb: &mut [&mut [f64]],
        vw: &[f64],
        lin: CacheBand<Vec<&mut [f64]>>,
        diag: &mut [f64],
        rhs: &mut [f64],
    ) -> Result<BandStats, SolveError> {
        let Self {
            cp,
            rows,
            cols,
            g_bl,
            leak,
            max_step,
            eps,
            ..
        } = *self;
        let (devices, cells) = cp.cells();
        let CacheBand {
            v: mut lin_v,
            g: mut lin_g,
            i0: mut lin_i0,
        } = lin;
        let width = vb.first().map_or(0, |row| row.len());
        let mut st = BandStats::default();
        let mut c0 = 0;
        while c0 < width {
            let t_n = LINE_BATCH.min(width - c0);
            let j0 = c_lo + c0;
            let mut near = [(0.0f64, 0.0f64); LINE_BATCH];
            let mut far = [(0.0f64, 0.0f64); LINE_BATCH];
            for t in 0..t_n {
                near[t] = cp.bl_near(j0 + t).stamp();
                far[t] = cp.bl_far(j0 + t).stamp();
            }
            #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
            for i in 0..rows {
                let base = i * cols + j0;
                let vbr = &vb[i][c0..c0 + t_n];
                let vwr = &vw[base..base + t_n];
                let cr = &cells[base..base + t_n];
                if let Some(e) = eps {
                    let lv = &mut lin_v[i][c0..c0 + t_n];
                    let lg = &mut lin_g[i][c0..c0 + t_n];
                    let li = &mut lin_i0[i][c0..c0 + t_n];
                    st.lookups += t_n as u64;
                    for t in 0..t_n {
                        let v = vbr[t] - vwr[t];
                        if (v - lv[t]).abs() <= e {
                            st.hits += 1;
                        } else {
                            let (g, i0) = devices[cr[t] as usize].linearize(v);
                            lv[t] = v;
                            lg[t] = g;
                            li[t] = i0;
                        }
                        stamp_node(
                            i,
                            rows,
                            i * t_n + t,
                            lg[t],
                            leak,
                            -li[t],
                            vwr[t],
                            g_bl,
                            near[t],
                            far[t],
                            diag,
                            rhs,
                        );
                    }
                } else {
                    for t in 0..t_n {
                        let (g, i0) = devices[cr[t] as usize].linearize(vbr[t] - vwr[t]);
                        stamp_node(
                            i,
                            rows,
                            i * t_n + t,
                            g,
                            leak,
                            -i0,
                            vwr[t],
                            g_bl,
                            near[t],
                            far[t],
                            diag,
                            rhs,
                        );
                    }
                }
            }
            let m = t_n * rows;
            solve_tridiagonal_batch_const(t_n, rows, -g_bl, &mut diag[..m], &mut rhs[..m])
                .map_err(|(t, _)| SolveError::SingularLine {
                    line: rows + j0 + t,
                })?;
            for (i, row) in vb.iter_mut().enumerate() {
                for (t, b) in row[c0..c0 + t_n].iter_mut().enumerate() {
                    let dv = (rhs[i * t_n + t] - *b).clamp(-max_step, max_step);
                    *b += dv;
                    st.max_dv = st.max_dv.max(dv.abs());
                }
            }
            c0 += t_n;
        }
        Ok(st)
    }

    /// One full sweep on the workspace planes — every word-line band, then
    /// every bit-line band, each phase's bands run concurrently. Returns
    /// the largest node update.
    fn sweep(&self, ws: &mut SolverWorkspace) -> Result<f64, SolveError> {
        let SolverWorkspace {
            vw,
            vb,
            lin_v,
            lin_g,
            lin_i0,
            diag,
            rhs,
            last_cache_hits,
            last_cache_lookups,
            ..
        } = ws;
        let (rows, cols) = (self.rows, self.cols);
        // Every band gets its own interleaved-batch scratch.
        let scratch = LINE_BATCH * rows.max(cols);
        let bands = (self.wl_bounds.len().max(self.bl_bounds.len()) - 1).max(1);
        for buf in [&mut *diag, &mut *rhs] {
            if buf.len() < bands * scratch {
                buf.resize(bands * scratch, 0.0);
            }
        }
        // With the cache off, every band's cache slices are empty.
        let n_cache = if self.eps.is_some() { rows * cols } else { 0 };

        let bounds = &self.wl_bounds;
        let jobs: Vec<_> = bounds
            .windows(2)
            .zip(row_bands(vw, bounds, cols))
            .zip(cache_bands(
                row_bands(&mut lin_v[..n_cache], bounds, cols),
                row_bands(&mut lin_g[..n_cache], bounds, cols),
                row_bands(&mut lin_i0[..n_cache], bounds, cols),
            ))
            .zip(diag.chunks_mut(scratch).zip(rhs.chunks_mut(scratch)))
            .map(|(((w, vw_band), lin), (d, r))| {
                let vb_band = &vb[w[0] * cols..w[1] * cols];
                move || self.wl_band(w[0], vw_band, vb_band, lin, d, r)
            })
            .collect();
        let wl = merge_bands(run_bands(jobs))?;

        let bounds = &self.bl_bounds;
        let vw: &[f64] = vw;
        let jobs: Vec<_> = bounds
            .windows(2)
            .zip(col_bands(vb, bounds, cols))
            .zip(cache_bands(
                col_bands(&mut lin_v[..n_cache], bounds, cols),
                col_bands(&mut lin_g[..n_cache], bounds, cols),
                col_bands(&mut lin_i0[..n_cache], bounds, cols),
            ))
            .zip(diag.chunks_mut(scratch).zip(rhs.chunks_mut(scratch)))
            .map(|(((w, mut vb_band), lin), (d, r))| {
                move || self.bl_band(w[0], &mut vb_band, vw, lin, d, r)
            })
            .collect();
        let bl = merge_bands(run_bands(jobs))?;

        *last_cache_hits += wl.hits + bl.hits;
        *last_cache_lookups += wl.lookups + bl.lookups;
        Ok(wl.max_dv.max(bl.max_dv))
    }
}

impl Crosspoint {
    /// Computes the DC operating point of the network.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoSource`] if no line end is driven,
    /// [`SolveError::Diverged`] if the iteration produced a non-finite
    /// voltage, [`SolveError::SingularLine`] if a line's tridiagonal system
    /// hit a zero pivot, and [`SolveError::NotConverged`] if the tolerance
    /// was not met within [`SolveOptions::max_sweeps`].
    pub fn solve(&self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        self.solve_observed(opts, &Obs::off())
    }

    /// [`Crosspoint::solve`] with telemetry: records per-solve sweep counts,
    /// final residuals and wall time into `obs` (metrics under
    /// `circuit.solve.*`) and emits a `circuit.solve.not_converged` event on
    /// failure. With a disabled handle ([`Obs::off`]) this is `solve` plus a
    /// few untaken branches — the clock is never read.
    ///
    /// # Errors
    ///
    /// Exactly as [`Crosspoint::solve`].
    pub fn solve_observed(&self, opts: &SolveOptions, obs: &Obs) -> Result<Solution, SolveError> {
        self.solve_warm_observed(opts, &mut SolverWorkspace::new(), obs)
    }

    /// [`Crosspoint::solve`] with a reusable [`SolverWorkspace`]: starts
    /// from the workspace's previous converged operating point when its
    /// dimensions match (cold-starting otherwise), reuses every scratch
    /// allocation, keeps the linearization cache across calls, and relaxes
    /// each phase in bands over the workspace's threads.
    ///
    /// A warm start changes the iteration *path*, not the answer: both
    /// starts converge to within [`SolveOptions::tol_volts`] /
    /// [`SolveOptions::tol_amps`] of the same operating point.
    ///
    /// # Errors
    ///
    /// Exactly as [`Crosspoint::solve`]. After any error the workspace's
    /// warm seed is dropped, so the next call cold-starts.
    pub fn solve_warm(
        &self,
        opts: &SolveOptions,
        ws: &mut SolverWorkspace,
    ) -> Result<Solution, SolveError> {
        self.solve_warm_observed(opts, ws, &Obs::off())
    }

    /// [`Crosspoint::solve_warm`] with telemetry (see
    /// [`Crosspoint::solve_observed`]); additionally counts
    /// `circuit.solve.warm_hits` and records the per-solve
    /// `circuit.solve.cache.skip_ratio`.
    ///
    /// # Errors
    ///
    /// Exactly as [`Crosspoint::solve_warm`].
    pub fn solve_warm_observed(
        &self,
        opts: &SolveOptions,
        ws: &mut SolverWorkspace,
        obs: &Obs,
    ) -> Result<Solution, SolveError> {
        let stats = self.solve_tracked(opts, ws, obs)?;
        Ok(self.solution(&ws.vw, &ws.vb, stats))
    }

    /// [`Crosspoint::solve_warm`] without copying the result: the returned
    /// view reads the converged voltage planes in place in the workspace,
    /// where they also seed the next warm solve. The tightest loop for
    /// sweep-style callers that inspect a few voltages per solve; it
    /// computes no cell or source currents.
    ///
    /// # Errors
    ///
    /// Exactly as [`Crosspoint::solve_warm`].
    pub fn solve_into<'w>(
        &self,
        opts: &SolveOptions,
        ws: &'w mut SolverWorkspace,
    ) -> Result<SolutionView<'w>, SolveError> {
        let stats = self.solve_tracked(opts, ws, &Obs::off())?;
        Ok(SolutionView {
            rows: self.rows(),
            cols: self.cols(),
            vw: &ws.vw,
            vb: &ws.vb,
            stats,
        })
    }

    /// Wraps [`Crosspoint::solve_core`] with the `circuit.solve.*`
    /// telemetry shared by every public entry point.
    fn solve_tracked(
        &self,
        opts: &SolveOptions,
        ws: &mut SolverWorkspace,
        obs: &Obs,
    ) -> Result<SolveStats, SolveError> {
        let span = obs.span("circuit.solve.wall_ns");
        let res = self.solve_core(opts, ws);
        drop(span);
        if obs.enabled() {
            obs.counter("circuit.solve.solves").inc();
            if ws.last_warm {
                obs.counter("circuit.solve.warm_hits").inc();
            }
            if ws.last_cache_lookups > 0 {
                obs.hist("circuit.solve.cache.skip_ratio")
                    .record(ws.cache_skip_ratio());
            }
            match &res {
                Ok(stats) => {
                    obs.hist("circuit.solve.sweeps").record(stats.sweeps as f64);
                    obs.hist("circuit.solve.residual_amps")
                        .record(stats.residual_amps);
                }
                Err(SolveError::NotConverged {
                    residual, sweeps, ..
                }) => {
                    obs.counter("circuit.solve.not_converged").inc();
                    obs.event(
                        "circuit.solve.not_converged",
                        &[
                            ("sweeps", Value::U64(*sweeps as u64)),
                            ("residual_amps", Value::F64(*residual)),
                        ],
                    );
                }
                Err(e) => {
                    obs.counter("circuit.solve.not_converged").inc();
                    obs.event(
                        "circuit.solve.not_converged",
                        &[("error", Value::Str(e.to_string()))],
                    );
                }
            }
        }
        res
    }

    /// The relaxation loop. Operates entirely on workspace storage; on
    /// success the workspace planes hold the converged operating point and
    /// are marked as the next warm seed.
    fn solve_core(
        &self,
        opts: &SolveOptions,
        ws: &mut SolverWorkspace,
    ) -> Result<SolveStats, SolveError> {
        ws.last_warm = false;
        ws.last_cache_hits = 0;
        ws.last_cache_lookups = 0;
        if !self.has_source() {
            return Err(SolveError::NoSource);
        }
        let rows = self.rows();
        let cols = self.cols();
        let n = rows * cols;
        let g_wl = 1.0 / self.r_wire_wl();
        let g_bl = 1.0 / self.r_wire_bl();
        let leak = NODE_LEAK_S + opts.extra_leak_s;

        let warm = ws.seeded == Some((rows, cols));
        ws.last_warm = warm;
        // The seed is consumed: it only becomes valid again if this solve
        // converges, so a failed solve can never warm-start the next one.
        ws.seeded = None;

        // Deterministic fault injection: each solve attempt consults its
        // (site, scope) stream exactly once, so an occurrence-keyed fault
        // poisons exactly one attempt and the recovery ladder's retry is a
        // clean solve. A biased residual check models a corrupted
        // linearization: the iterate converges in `max_dv` but the (biased)
        // exact check rejects it, exercising the stall bail-out below.
        let mut residual_bias = 0.0f64;
        if let Some((inj, scope)) = &ws.faults {
            if let Some(f) = inj.fire(reram_fault::site::SOLVER, scope) {
                match f.kind {
                    reram_fault::FaultKind::SolverSingularLine => {
                        return Err(SolveError::SingularLine {
                            line: f.param.max(0.0) as usize,
                        });
                    }
                    reram_fault::FaultKind::SolverPerturbLinearization => {
                        residual_bias = if f.param > 0.0 { f.param } else { 1e-3 };
                    }
                    _ => {
                        let residual = if f.param > 0.0 { f.param } else { 1.0 };
                        return Err(SolveError::NotConverged {
                            residual,
                            sweeps: 0,
                            residual_tail: vec![residual],
                        });
                    }
                }
            }
        }

        if !warm {
            self.initial_guess_into(&mut ws.vw, &mut ws.vb);
        }

        // `eps: None` disables the cache outright; it is also how the stall
        // recovery below retires a cache that twice failed the exact
        // residual check.
        let mut relax = Relax {
            cp: self,
            rows,
            cols,
            g_wl,
            g_bl,
            leak,
            max_step: opts.max_step_volts,
            eps: opts.lin_cache_epsilon_volts,
            wl_bounds: band_bounds(rows, ws.threads),
            bl_bounds: band_bounds(cols, ws.threads),
        };
        let mut cache_stalls = 0u32;
        if relax.eps.is_some() && ws.cache_dims != Some((rows, cols)) {
            ws.lin_v.clear();
            ws.lin_v.resize(n, f64::NAN);
            ws.lin_g.clear();
            ws.lin_g.resize(n, 0.0);
            ws.lin_i0.clear();
            ws.lin_i0.resize(n, 0.0);
            ws.cache_dims = Some((rows, cols));
        }

        let mut converged = None;
        // Residual trajectory for NotConverged diagnostics: sampled a few
        // times across the sweep budget. Healthy solves converge long before
        // the first sample point, so this costs nothing on the fast path.
        let sample_every = (opts.max_sweeps / SolveError::RESIDUAL_TAIL_LEN).max(1);
        let mut residual_tail: Vec<f64> = Vec::new();
        // Consecutive sweeps in which the iterate stopped moving while the
        // exact residual still rejected it *and* no cache refresh was left
        // to try. Gauss–Seidel cannot un-stall on its own from that state,
        // so after a few confirming sweeps the solve bails out with the
        // true sweep count instead of burning the whole budget.
        let mut dead_sweeps = 0u32;
        for sweep in 0..opts.max_sweeps {
            let max_dv = relax.sweep(ws).inspect_err(|_| {
                // A singular line stops each band at its own first failure,
                // so how far the cache got depends on the thread count:
                // drop it rather than let that leak into later solves.
                ws.invalidate_cache();
            })?;

            if !max_dv.is_finite() {
                return Err(SolveError::Diverged { sweep });
            }
            if max_dv < opts.tol_volts {
                let residual = self.kcl_residual(&ws.vw, &ws.vb, g_wl, g_bl, leak) + residual_bias;
                if residual < opts.tol_amps {
                    converged = Some(SolveStats {
                        sweeps: sweep + 1,
                        residual_amps: residual,
                        max_delta_volts: max_dv,
                    });
                    break;
                }
                // The iterate stopped moving but the exact nonlinear
                // residual rejects it: the cache has pinned some cell to a
                // stale linearization (a generous epsilon, or devices
                // swapped between warm solves). Refresh the cache — and on
                // repeat offense retire it — rather than fail a solvable
                // system.
                if relax.eps.is_some() {
                    if cache_stalls < 2 {
                        ws.lin_v.fill(f64::NAN);
                    } else {
                        relax.eps = None;
                    }
                    cache_stalls += 1;
                } else {
                    // No cache left to refresh: the stall is terminal once
                    // it survives a few confirming sweeps.
                    dead_sweeps += 1;
                    if dead_sweeps >= STALL_BAIL_SWEEPS {
                        residual_tail.push(residual);
                        return Err(SolveError::NotConverged {
                            residual,
                            sweeps: sweep + 1,
                            residual_tail,
                        });
                    }
                }
            } else {
                dead_sweeps = 0;
            }
            if (sweep + 1) % sample_every == 0
                && sweep + 1 < opts.max_sweeps
                && residual_tail.len() < SolveError::RESIDUAL_TAIL_LEN - 1
            {
                residual_tail
                    .push(self.kcl_residual(&ws.vw, &ws.vb, g_wl, g_bl, leak) + residual_bias);
            }
        }

        match converged {
            Some(stats) => {
                ws.seeded = Some((rows, cols));
                if warm {
                    ws.warm_hits_total += 1;
                }
                Ok(stats)
            }
            None => {
                // The final residual both caps the sampled trajectory and
                // fills the error field — computed exactly once.
                let residual = self.kcl_residual(&ws.vw, &ws.vb, g_wl, g_bl, leak) + residual_bias;
                residual_tail.push(residual);
                Err(SolveError::NotConverged {
                    residual,
                    sweeps: opts.max_sweeps,
                    residual_tail,
                })
            }
        }
    }

    /// Derives the full [`Solution`] (nonlinear cell currents, source
    /// currents) from converged plane voltages.
    fn solution(&self, vw: &[f64], vb: &[f64], stats: SolveStats) -> Solution {
        let (rows, cols) = (self.rows(), self.cols());
        let src = |end: LineEnd, v_node: f64| -> f64 {
            let (g, v) = end.stamp();
            g * (v - v_node)
        };
        Solution {
            rows,
            cols,
            vw: vw.to_vec(),
            vb: vb.to_vec(),
            cell_currents: (0..rows * cols)
                .map(|idx| self.device(idx).current(vb[idx] - vw[idx]))
                .collect(),
            src_wl_left: (0..rows)
                .map(|i| src(self.wl_left(i), vw[i * cols]))
                .collect(),
            src_wl_right: (0..rows)
                .map(|i| src(self.wl_right(i), vw[i * cols + cols - 1]))
                .collect(),
            src_bl_near: (0..cols).map(|j| src(self.bl_near(j), vb[j])).collect(),
            src_bl_far: (0..cols)
                .map(|j| src(self.bl_far(j), vb[(rows - 1) * cols + j]))
                .collect(),
            stats,
        }
    }

    /// Builds a starting iterate from the boundary conditions: every line
    /// whose end is driven starts at that source voltage; the rest start at
    /// the mean of all driven voltages.
    fn initial_guess_into(&self, vw: &mut Vec<f64>, vb: &mut Vec<f64>) {
        let rows = self.rows();
        let cols = self.cols();
        let mut driven_sum = 0.0;
        let mut driven_n = 0usize;
        let mut line_v = |a: LineEnd, b: LineEnd| -> Option<f64> {
            for end in [a, b] {
                if let LineEnd::Driven { volts, .. } = end {
                    driven_sum += volts;
                    driven_n += 1;
                    return Some(volts);
                }
            }
            None
        };
        let wl_v: Vec<Option<f64>> = (0..rows)
            .map(|i| line_v(self.wl_left(i), self.wl_right(i)))
            .collect();
        let bl_v: Vec<Option<f64>> = (0..cols)
            .map(|j| line_v(self.bl_near(j), self.bl_far(j)))
            .collect();
        let mean = if driven_n > 0 {
            driven_sum / driven_n as f64
        } else {
            0.0
        };
        vw.clear();
        vw.resize(rows * cols, 0.0);
        vb.clear();
        vb.resize(rows * cols, 0.0);
        for i in 0..rows {
            let v = wl_v[i].unwrap_or(mean);
            for j in 0..cols {
                vw[i * cols + j] = v;
            }
        }
        for j in 0..cols {
            let v = bl_v[j].unwrap_or(mean);
            for i in 0..rows {
                vb[i * cols + j] = v;
            }
        }
    }

    /// Worst KCL residual over all junctions, using the *nonlinear* device
    /// currents (amperes). One row-major pass evaluates each cell current
    /// once and feeds it to both of its nodes. Every node's sum keeps its
    /// term order, and the `max` fold over `|s|` does not depend on the
    /// order nodes are visited in (NaN is skipped in any order).
    fn kcl_residual(&self, vw: &[f64], vb: &[f64], g_wl: f64, g_bl: f64, leak: f64) -> f64 {
        let rows = self.rows();
        let cols = self.cols();
        let mut worst = 0.0f64;
        for i in 0..rows {
            let (gl, vl) = self.wl_left(i).stamp();
            let (gr, vr) = self.wl_right(i).stamp();
            for j in 0..cols {
                let idx = i * cols + j;
                let i_cell = self.device(idx).current(vb[idx] - vw[idx]);
                // Currents leaving the WL-plane node.
                let mut s = -i_cell + leak * vw[idx];
                if j > 0 {
                    s += g_wl * (vw[idx] - vw[idx - 1]);
                } else {
                    s += gl * (vw[idx] - vl);
                }
                if j + 1 < cols {
                    s += g_wl * (vw[idx] - vw[idx + 1]);
                } else {
                    s += gr * (vw[idx] - vr);
                }
                worst = worst.max(s.abs());
                // Currents leaving the BL-plane node.
                let mut s = i_cell + leak * vb[idx];
                if i > 0 {
                    s += g_bl * (vb[idx] - vb[idx - cols]);
                } else {
                    let (gn, vn) = self.bl_near(j).stamp();
                    s += gn * (vb[idx] - vn);
                }
                if i + 1 < rows {
                    s += g_bl * (vb[idx] - vb[idx + cols]);
                } else {
                    let (gf, vf) = self.bl_far(j).stamp();
                    s += gf * (vb[idx] - vf);
                }
                worst = worst.max(s.abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDevice, LineEnd, PolySelector};

    fn lrs() -> CellDevice {
        CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0))
    }

    /// Standard RESET bias of cell (`ri`, `rj`) in an `n × n` array.
    fn reset_bias(cp: &mut Crosspoint, ri: usize, rj: usize, vrst: f64) {
        let n = cp.rows();
        for i in 0..n {
            cp.set_wl_left(
                i,
                if i == ri {
                    LineEnd::ground()
                } else {
                    LineEnd::driven(vrst / 2.0)
                },
            );
            cp.set_wl_right(i, LineEnd::floating());
        }
        for j in 0..cp.cols() {
            cp.set_bl_near(
                j,
                if j == rj {
                    LineEnd::driven(vrst)
                } else {
                    LineEnd::driven(vrst / 2.0)
                },
            );
            cp.set_bl_far(j, LineEnd::floating());
        }
    }

    #[test]
    fn no_source_is_an_error() {
        let cp = Crosspoint::uniform(2, 2, 11.5, lrs());
        assert_eq!(
            cp.solve(&SolveOptions::default()),
            Err(SolveError::NoSource)
        );
    }

    #[test]
    fn single_linear_cell_divides_voltage() {
        // 1×1 array, WL grounded, BL driven to 3 V, cell of 30 kΩ: nearly the
        // whole 3 V lands on the cell (source stamps are 1e6 S).
        let mut cp = Crosspoint::uniform(1, 1, 1.0, CellDevice::Linear(1.0 / 30_000.0));
        cp.set_wl_left(0, LineEnd::ground());
        cp.set_bl_near(0, LineEnd::driven(3.0));
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        let v = sol.cell_voltage(0, 0);
        assert!((v - 3.0).abs() < 1e-3, "v = {v}");
        let i = sol.cell_current(0, 0);
        assert!((i - 3.0 / 30_000.0).abs() < 1e-7);
    }

    #[test]
    fn driver_impedance_drops_voltage() {
        // Same cell, but the BL driver has 30 kΩ output impedance: exactly
        // half the source voltage must appear on the cell.
        let mut cp = Crosspoint::uniform(1, 1, 1.0, CellDevice::Linear(1.0 / 30_000.0));
        cp.set_wl_left(0, LineEnd::ground());
        cp.set_bl_near(0, LineEnd::driven_with_impedance(3.0, 30_000.0));
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        assert!((sol.cell_voltage(0, 0) - 1.5).abs() < 1e-4);
    }

    /// Dense reference solve of the same stamped linear system, for
    /// cross-checking the line relaxation on small linear networks.
    fn dense_reference(cp: &Crosspoint) -> (Vec<f64>, Vec<f64>) {
        let rows = cp.rows();
        let cols = cp.cols();
        let n = rows * cols;
        let dim = 2 * n; // vw nodes then vb nodes
        let mut a = vec![vec![0.0f64; dim]; dim];
        let mut b = vec![0.0f64; dim];
        let g_wl = 1.0 / cp.r_wire_wl();
        let g_bl = 1.0 / cp.r_wire_bl();
        for i in 0..rows {
            for j in 0..cols {
                let idx = i * cols + j;
                let (g, _) = cp.device(idx).linearize(0.0);
                let (w, bb) = (idx, n + idx);
                // cell between w and b
                a[w][w] += g + NODE_LEAK_S;
                a[w][bb] -= g;
                a[bb][bb] += g + NODE_LEAK_S;
                a[bb][w] -= g;
                // WL wires
                if j > 0 {
                    a[w][w] += g_wl;
                    a[w][w - 1] -= g_wl;
                } else {
                    let (gs, vs) = cp.wl_left(i).stamp();
                    a[w][w] += gs;
                    b[w] += gs * vs;
                }
                if j + 1 < cols {
                    a[w][w] += g_wl;
                    a[w][w + 1] -= g_wl;
                } else {
                    let (gs, vs) = cp.wl_right(i).stamp();
                    a[w][w] += gs;
                    b[w] += gs * vs;
                }
                // BL wires
                if i > 0 {
                    a[bb][bb] += g_bl;
                    a[bb][bb - cols] -= g_bl;
                } else {
                    let (gs, vs) = cp.bl_near(j).stamp();
                    a[bb][bb] += gs;
                    b[bb] += gs * vs;
                }
                if i + 1 < rows {
                    a[bb][bb] += g_bl;
                    a[bb][bb + cols] -= g_bl;
                } else {
                    let (gs, vs) = cp.bl_far(j).stamp();
                    a[bb][bb] += gs;
                    b[bb] += gs * vs;
                }
            }
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..dim {
            let piv = (col..dim)
                .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
                .unwrap();
            a.swap(col, piv);
            b.swap(col, piv);
            let p = a[col][col];
            assert!(p.abs() > 1e-18);
            for r in col + 1..dim {
                let f = a[r][col] / p;
                if f != 0.0 {
                    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
                    for c in col..dim {
                        a[r][c] -= f * a[col][c];
                    }
                    b[r] -= f * b[col];
                }
            }
        }
        for col in (0..dim).rev() {
            let mut s = b[col];
            for c in col + 1..dim {
                s -= a[col][c] * b[c];
            }
            b[col] = s / a[col][col];
        }
        (b[..n].to_vec(), b[n..].to_vec())
    }

    #[test]
    fn matches_dense_solver_on_linear_network() {
        let mut rng = reram_workloads::Rng64::new(42);
        let mut cp = Crosspoint::uniform(4, 5, 11.5, CellDevice::Linear(1e-5));
        for i in 0..4 {
            for j in 0..5 {
                cp.set_cell(i, j, CellDevice::Linear(rng.gen_range_f64(1e-7, 1e-4)));
            }
        }
        reset_bias(&mut cp, 3, 4, 3.0);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        let (vw_ref, vb_ref) = dense_reference(&cp);
        for i in 0..4 {
            for j in 0..5 {
                let idx = i * 5 + j;
                assert!(
                    (sol.wl_voltage(i, j) - vw_ref[idx]).abs() < 1e-6,
                    "vw({i},{j})"
                );
                assert!(
                    (sol.bl_voltage(i, j) - vb_ref[idx]).abs() < 1e-6,
                    "vb({i},{j})"
                );
            }
        }
    }

    #[test]
    fn worst_case_cell_sees_largest_drop() {
        let n = 16;
        // Near cell (0,0): almost no drop.
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, 0, 0, 3.0);
        let near = cp
            .solve(&SolveOptions::default())
            .unwrap()
            .cell_voltage(0, 0);
        // Far cell (n-1, n-1): worst-case drop.
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let far = cp
            .solve(&SolveOptions::default())
            .unwrap()
            .cell_voltage(n - 1, n - 1);
        assert!(near > far, "near {near} vs far {far}");
        assert!(near > 2.99, "near cell should see almost full Vrst: {near}");
        assert!(far < 3.0 && far > 2.0);
    }

    #[test]
    fn charge_is_conserved() {
        let n = 12;
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        assert!(
            sol.total_source_current().abs() < 1e-8,
            "net source current = {}",
            sol.total_source_current()
        );
    }

    #[test]
    fn selected_bl_sources_reset_current() {
        let n = 8;
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        // The selected BL must deliver at least the selected-cell current.
        let i_bl = sol.source_current_bl_near(n - 1);
        let i_cell = sol.cell_current(n - 1, n - 1);
        assert!(i_cell > 50e-6, "i_cell = {i_cell}");
        assert!(i_bl >= i_cell);
        // The selected WL (ground) must sink current.
        assert!(sol.source_current_wl_left(n - 1) < 0.0);
    }

    #[test]
    fn stats_report_convergence() {
        let mut cp = Crosspoint::uniform(4, 4, 11.5, lrs());
        reset_bias(&mut cp, 3, 3, 3.0);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        let stats = sol.stats();
        assert!(stats.sweeps > 0);
        assert!(stats.residual_amps < 1e-8);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let mut cp = Crosspoint::uniform(8, 8, 11.5, lrs());
        reset_bias(&mut cp, 7, 7, 3.0);
        let opts = SolveOptions {
            max_sweeps: 1,
            ..SolveOptions::default()
        };
        match cp.solve(&opts) {
            Err(SolveError::NotConverged { sweeps, .. }) => assert_eq!(sweeps, 1),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn singular_line_maps_to_structured_error() {
        // A negative-conductance "cell" cancels the node leak and the
        // (floating ⇒ zero) boundary stamps exactly, zeroing the 1×1 WL
        // system's pivot. Physical device models cannot build this.
        let mut cp = Crosspoint::uniform(1, 1, 1.0, CellDevice::Linear(-NODE_LEAK_S));
        cp.set_bl_near(0, LineEnd::driven(1.0));
        assert_eq!(
            cp.solve(&SolveOptions::default()),
            Err(SolveError::SingularLine { line: 0 })
        );
    }

    #[test]
    fn warm_start_reuses_previous_operating_point() {
        let n = 12;
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let mut ws = SolverWorkspace::new();
        let opts = SolveOptions::default();
        let cold = cp.solve_warm(&opts, &mut ws).unwrap();
        assert!(!ws.last_used_warm_start());
        let warm = cp.solve_warm(&opts, &mut ws).unwrap();
        assert!(ws.last_used_warm_start());
        assert_eq!(ws.warm_hits(), 1);
        // Re-solving the identical network from its own solution converges
        // immediately.
        assert!(warm.stats().sweeps < cold.stats().sweeps);
        assert!((warm.cell_voltage(n - 1, n - 1) - cold.cell_voltage(n - 1, n - 1)).abs() < 1e-9);
    }

    #[test]
    fn solve_into_reuses_the_workspace_solution() {
        let n = 8;
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let opts = SolveOptions::default();
        let byval = cp.solve(&opts).unwrap();
        let mut ws = SolverWorkspace::new();
        let view = cp.solve_into(&opts, &mut ws).unwrap();
        let veff = view.cell_voltage(n - 1, n - 1);
        assert_eq!(veff.to_bits(), byval.cell_voltage(n - 1, n - 1).to_bits());
        assert_eq!(view.stats(), byval.stats());
        // The view reads the workspace planes, which seed the next call.
        let k = (n - 1) * n + n - 1;
        assert_eq!((ws.vb[k] - ws.vw[k]).to_bits(), veff.to_bits());
        let veff2 = cp
            .solve_into(&opts, &mut ws)
            .unwrap()
            .cell_voltage(n - 1, n - 1);
        assert!(ws.last_used_warm_start());
        assert!((veff2 - veff).abs() < 1e-9);
    }

    /// Asserts that a view and an owned solution hold the same voltage
    /// planes and statistics, bit for bit.
    fn assert_view_is(view: &SolutionView<'_>, sol: &Solution, ctx: &str) {
        assert_eq!(view.stats(), sol.stats(), "{ctx}");
        for i in 0..sol.rows {
            for j in 0..sol.cols {
                let got = [
                    view.wl_voltage(i, j),
                    view.bl_voltage(i, j),
                    view.cell_voltage(i, j),
                ];
                let want = [
                    sol.wl_voltage(i, j),
                    sol.bl_voltage(i, j),
                    sol.cell_voltage(i, j),
                ];
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{ctx} at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn solve_into_view_equals_the_owned_solution_bit_for_bit() {
        // 130 lines per plane: two bands on two threads.
        let n = 130;
        let mut first = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut first, n - 1, n - 1, 3.0);
        let mut second = first.clone();
        second.set_bl_near(n - 1, LineEnd::driven(3.004));
        let opts = SolveOptions::default();
        for threads in [1, 2] {
            let mut ws_view = SolverWorkspace::new().with_threads(threads);
            let mut ws_owned = SolverWorkspace::new().with_threads(threads);
            for (k, cp) in [&first, &second].into_iter().enumerate() {
                let owned = cp.solve_warm(&opts, &mut ws_owned).unwrap();
                let view = cp.solve_into(&opts, &mut ws_view).unwrap();
                assert_view_is(&view, &owned, &format!("threads={threads} warm={}", k > 0));
                assert_eq!(ws_view.last_used_warm_start(), k > 0);
            }
        }
    }

    #[test]
    fn solve_into_leaves_only_the_voltage_planes_and_batch_scratch() {
        let n = 512;
        let mut cp = Crosspoint::uniform(n, n, 11.5, lrs());
        reset_bias(&mut cp, n - 1, n - 1, 3.0);
        let mut ws = SolverWorkspace::new().with_threads(2);
        cp.solve_into(&SolveOptions::default(), &mut ws).unwrap();
        // Exhaustive on purpose: a new buffer must be accounted for here.
        let SolverWorkspace {
            threads: _,
            vw,
            vb,
            seeded,
            diag,
            rhs,
            lin_v,
            lin_g,
            lin_i0,
            cache_dims: _,
            last_warm: _,
            last_cache_hits: _,
            last_cache_lookups: _,
            warm_hits_total: _,
            faults: _,
        } = &ws;
        assert_eq!(*seeded, Some((n, n)));
        assert_eq!((vw.capacity(), vb.capacity()), (n * n, n * n));
        // One interleaved batch of line systems per band, two bands.
        let scratch = 2 * LINE_BATCH * n;
        assert_eq!((diag.capacity(), rhs.capacity()), (scratch, scratch));
        // The linearization cache is off by default.
        assert_eq!(lin_v.capacity() + lin_g.capacity() + lin_i0.capacity(), 0);
    }

    /// The residual as it was computed before the fused pass: every cell
    /// current into a plane first, then a row-major WL pass and a
    /// column-major BL pass over it.
    fn two_pass_residual(cp: &Crosspoint, vw: &[f64], vb: &[f64], leak: f64) -> f64 {
        let (rows, cols) = (cp.rows(), cp.cols());
        let (g_wl, g_bl) = (1.0 / cp.r_wire_wl(), 1.0 / cp.r_wire_bl());
        let cur: Vec<f64> = (0..rows * cols)
            .map(|idx| cp.device(idx).current(vb[idx] - vw[idx]))
            .collect();
        let mut worst = 0.0f64;
        for i in 0..rows {
            let (gl, vl) = cp.wl_left(i).stamp();
            let (gr, vr) = cp.wl_right(i).stamp();
            for j in 0..cols {
                let idx = i * cols + j;
                let mut s = -cur[idx] + leak * vw[idx];
                if j > 0 {
                    s += g_wl * (vw[idx] - vw[idx - 1]);
                } else {
                    s += gl * (vw[idx] - vl);
                }
                if j + 1 < cols {
                    s += g_wl * (vw[idx] - vw[idx + 1]);
                } else {
                    s += gr * (vw[idx] - vr);
                }
                worst = worst.max(s.abs());
            }
        }
        for j in 0..cols {
            let (gn, vn) = cp.bl_near(j).stamp();
            let (gf, vf) = cp.bl_far(j).stamp();
            for i in 0..rows {
                let idx = i * cols + j;
                let mut s = cur[idx] + leak * vb[idx];
                if i > 0 {
                    s += g_bl * (vb[idx] - vb[idx - cols]);
                } else {
                    s += gn * (vb[idx] - vn);
                }
                if i + 1 < rows {
                    s += g_bl * (vb[idx] - vb[idx + cols]);
                } else {
                    s += gf * (vb[idx] - vf);
                }
                worst = worst.max(s.abs());
            }
        }
        worst
    }

    #[test]
    fn fused_residual_equals_the_two_pass_residual() {
        let mut rng = reram_workloads::Rng64::new(0x4e51_d0a1);
        let end = |rng: &mut reram_workloads::Rng64| match rng.gen_range_usize(0, 3) {
            0 => LineEnd::floating(),
            1 => LineEnd::ground(),
            _ => LineEnd::driven(rng.gen_range_f64(0.0, 3.0)),
        };
        let mut solved = 0;
        for case in 0..24 {
            let (rows, cols) = (rng.gen_range_usize(1, 20), rng.gen_range_usize(1, 20));
            let selectors = case % 2 == 1;
            let mut cp = Crosspoint::uniform(rows, cols, rng.gen_range_f64(1.0, 20.0), lrs());
            for i in 0..rows {
                for j in 0..cols {
                    let g = rng.gen_range_f64(1e-7, 1e-4);
                    let sel = PolySelector::new(g, 3.0, rng.gen_range_f64(1.5, 2000.0));
                    let dev = match (selectors, rng.gen_range_usize(0, 4)) {
                        (false, _) => CellDevice::Linear(g),
                        (true, 0) => CellDevice::Series(crate::SeriesCell::new(sel, 1e5)),
                        (true, 1) => CellDevice::Compliant(crate::CompliantCell::new(g, 0.25)),
                        (true, _) => CellDevice::Selector(sel),
                    };
                    cp.set_cell(i, j, dev);
                }
                cp.set_wl_left(i, end(&mut rng));
                cp.set_wl_right(i, end(&mut rng));
            }
            for j in 0..cols {
                cp.set_bl_near(j, end(&mut rng));
                cp.set_bl_far(j, end(&mut rng));
            }
            let n = rows * cols;
            let vw: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-0.5, 3.5)).collect();
            let vb: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-0.5, 3.5)).collect();
            let (g_wl, g_bl) = (1.0 / cp.r_wire_wl(), 1.0 / cp.r_wire_bl());
            for leak in [NODE_LEAK_S, NODE_LEAK_S + 1e-9] {
                let want = two_pass_residual(&cp, &vw, &vb, leak);
                let got = cp.kcl_residual(&vw, &vb, g_wl, g_bl, leak);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}");
            }
            // And at the operating point, when the network has one.
            if let Ok(sol) = cp.solve(&SolveOptions::default()) {
                solved += 1;
                let got = cp.kcl_residual(&sol.vw, &sol.vb, g_wl, g_bl, NODE_LEAK_S);
                let want = two_pass_residual(&cp, &sol.vw, &sol.vb, NODE_LEAK_S);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case} solved");
                assert_eq!(got.to_bits(), sol.stats().residual_amps.to_bits());
            }
        }
        assert!(solved > 12, "only {solved} of 24 networks solved");
    }
}
