//! Two-terminal device models used at the cross-points of the array.
//!
//! The models are deliberately simple analytic forms whose parameters map
//! directly onto the figures of merit quoted for real selectors: the ON
//! current at full bias and the half-bias nonlinear selectivity `Kr`
//! (the ratio `I(V) / I(V/2)` evaluated at the full write voltage).

/// Logic state of a resistive memory element.
///
/// A SET cell is in the low resistance state ([`CellState::Lrs`], stores
/// `1`); a RESET cell is in the high resistance state ([`CellState::Hrs`],
/// stores `0`). LRS cells conduct more and therefore contribute more sneak
/// current — the paper's worst-case analysis assumes an all-LRS array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellState {
    /// Low resistance state (stores a logical `1`).
    #[default]
    Lrs,
    /// High resistance state (stores a logical `0`).
    Hrs,
}

impl CellState {
    /// Returns the state that stores the given bit.
    #[must_use]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            CellState::Lrs
        } else {
            CellState::Hrs
        }
    }

    /// Returns the bit stored by a cell in this state.
    #[must_use]
    pub fn to_bit(self) -> bool {
        self == CellState::Lrs
    }
}

/// A power-law selector-plus-cell composite: `I(V) = sign(V)·Ion·(|V|/Vfull)^γ`.
///
/// The exponent `γ = log2(Kr)` is chosen so the half-bias selectivity matches
/// the requested `Kr`: `I(Vfull/2) = Ion / Kr`. A small parallel leakage
/// conductance keeps the model numerically well-behaved near 0 V (and models
/// selector OFF-state leakage).
///
/// This is the composite I-V of a fully formed LRS cell stacked on a MASiM
/// selector — the dominant contributor to both RESET current and sneak
/// current in the paper's arrays (Table I: `Ion = 90 µA`, `Kr = 1000`).
///
/// # Quiet cells
///
/// Under the half-bias scheme nearly every cell of an array sits within
/// millivolts of 0 V, where the power-law term is far below the leakage
/// term it is added to. Below a per-device bound `|v| ≤ v_q`, chosen so the
/// power-law term (and its derivative) is at most `2^-60` of the leakage
/// term, [`current`](Self::current), [`conductance`](Self::conductance) and
/// [`linearize`](Self::linearize) return the leakage terms alone. Round-to-
/// nearest would return exactly those values anyway: the skipped addend has
/// the sign of the kept term, so it rounds away whenever it is below half an
/// ulp (> `2^-54` relative) of that term, and `2^-60` leaves a `2^6` margin
/// for the rounding of the power, the products and the bound itself. The
/// bound is set on `|v|/Vfull` but tested in volts, selecting exactly the
/// same `f64`s (NaN and ±∞ included), so no result changes by a bit. For
/// the paper's LRS selector `v_q ≈ 7 mV`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolySelector {
    i_on: f64,
    v_full: f64,
    gamma: f64,
    g_leak: f64,
    /// `v_q`, at or below which the power law rounds away (see the type docs).
    v_quiet: f64,
}

impl PolySelector {
    /// Default parallel leakage conductance in siemens.
    pub const DEFAULT_G_LEAK: f64 = 1e-9;

    /// Creates a selector model from its ON current `i_on` (amperes) at full
    /// bias `v_full` (volts) and its half-bias nonlinearity `kr`.
    ///
    /// # Panics
    ///
    /// Panics if `i_on`, `v_full` are not strictly positive or `kr <= 1`.
    #[must_use]
    pub fn new(i_on: f64, v_full: f64, kr: f64) -> Self {
        assert!(i_on > 0.0, "selector ON current must be positive");
        assert!(v_full > 0.0, "full-bias voltage must be positive");
        assert!(kr > 1.0, "half-bias nonlinearity Kr must exceed 1");
        Self {
            i_on,
            v_full,
            gamma: kr.log2(),
            g_leak: Self::DEFAULT_G_LEAK,
            v_quiet: 0.0,
        }
        .with_quiet_bound()
    }

    /// Replaces the parallel leakage conductance (siemens).
    #[must_use]
    pub fn with_leakage(mut self, g_leak: f64) -> Self {
        assert!(g_leak >= 0.0, "leakage conductance must be non-negative");
        self.g_leak = g_leak;
        self.with_quiet_bound()
    }

    /// Sets `v_quiet`. First `x_q`, the largest `x = |v| / v_full` at which
    /// `γ·Ion/Vfull · x^(γ-1) ≤ 2^-60 · g_leak`, which bounds both the power-law
    /// current against the leakage current (smaller by the factor `γ > 1`) and
    /// its conductance against `g_leak`: 0 if the ratio does not shrink towards
    /// 0 V (`γ ≤ 1`), without leakage or on overflow, and capped at `x = 1` so
    /// `x^γ` can never overflow on the skipped path. Then `v_quiet`, bisecting
    /// the bit patterns of the non-negative `f64`s (which sort like their
    /// values) on `u / v_full ≤ x_q`: monotone in `u`, true at `u = 0`, false at
    /// `u = ∞` (`∞` or NaN). So `|v| ≤ v_quiet` ⇔ `|v| / v_full ≤ x_q`.
    fn with_quiet_bound(mut self) -> Self {
        const MARGIN: f64 = 1.0 / (1u64 << 60) as f64;
        let r = self.g_leak * self.v_full / (self.gamma * self.i_on) * MARGIN;
        let x = r.powf(1.0 / (self.gamma - 1.0));
        let x_quiet = if self.gamma > 1.0 && self.g_leak > 0.0 && x.is_finite() {
            x.min(1.0)
        } else {
            0.0
        };
        let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if f64::from_bits(mid) / self.v_full <= x_quiet {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.v_quiet = f64::from_bits(lo);
        self
    }

    /// ON current at full bias, in amperes.
    #[must_use]
    pub fn i_on(&self) -> f64 {
        self.i_on
    }

    /// Full-bias voltage the model is anchored at, in volts.
    #[must_use]
    pub fn v_full(&self) -> f64 {
        self.v_full
    }

    /// Half-bias nonlinearity `Kr = I(Vfull) / I(Vfull/2)`.
    #[must_use]
    pub fn kr(&self) -> f64 {
        2f64.powf(self.gamma)
    }

    /// Current through the device at voltage `v`, in amperes. Quiet cells
    /// skip the power law without changing the result (see the type docs).
    #[must_use]
    pub fn current(&self, v: f64) -> f64 {
        if v.abs() <= self.v_quiet {
            return self.g_leak * v;
        }
        let x = v.abs() / self.v_full;
        v.signum() * self.i_on * x.powf(self.gamma) + self.g_leak * v
    }

    /// Differential conductance `dI/dV` at voltage `v`, in siemens. Quiet
    /// cells skip the power law without changing the result (see the type
    /// docs).
    #[must_use]
    pub fn conductance(&self, v: f64) -> f64 {
        if v.abs() <= self.v_quiet {
            return self.g_leak;
        }
        let x = v.abs() / self.v_full;
        let g = if x > 0.0 {
            self.gamma * self.i_on / self.v_full * x.powf(self.gamma - 1.0)
        } else {
            0.0
        };
        g + self.g_leak
    }

    /// Norton linearization `(g, i0)` at `v`: bit for bit `conductance` and
    /// `current − g·v`, with one quiet test for both.
    #[must_use]
    pub fn linearize(&self, v: f64) -> (f64, f64) {
        if v.abs() <= self.v_quiet {
            let g = self.g_leak;
            // Not folded to 0: `g·v − g·v` is NaN where `g·v` overflows.
            #[allow(clippy::eq_op)]
            return (g, g * v - g * v);
        }
        let g = self.conductance(v);
        (g, self.current(v) - g * v)
    }
}

/// A memory element (linear resistor) in series with a [`PolySelector`].
///
/// Use this when the memory element resistance is a significant fraction of
/// the total cell resistance (e.g. HRS cells). The series voltage split is
/// resolved internally with a few Newton steps per evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesCell {
    selector: PolySelector,
    r_mem: f64,
}

impl SeriesCell {
    /// Creates a series combination of `selector` and a memory element of
    /// `r_mem` ohms.
    ///
    /// # Panics
    ///
    /// Panics if `r_mem` is negative.
    #[must_use]
    pub fn new(selector: PolySelector, r_mem: f64) -> Self {
        assert!(
            r_mem >= 0.0,
            "memory element resistance must be non-negative"
        );
        Self { selector, r_mem }
    }

    /// The selector component.
    #[must_use]
    pub fn selector(&self) -> &PolySelector {
        &self.selector
    }

    /// Memory element resistance in ohms.
    #[must_use]
    pub fn r_mem(&self) -> f64 {
        self.r_mem
    }

    /// Current through the series combination at total voltage `v`.
    #[must_use]
    pub fn current(&self, v: f64) -> f64 {
        if self.r_mem == 0.0 {
            return self.selector.current(v);
        }
        // Solve I = sel(v - I * r_mem) by Newton iteration on I.
        let mut i = self.selector.current(v);
        for _ in 0..32 {
            let v_sel = v - i * self.r_mem;
            let f = self.selector.current(v_sel) - i;
            let df = -self.selector.conductance(v_sel) * self.r_mem - 1.0;
            let step = f / df;
            i -= step;
            if step.abs() <= 1e-15 + 1e-9 * i.abs() {
                break;
            }
        }
        i
    }

    /// Differential conductance of the series combination at voltage `v`.
    #[must_use]
    pub fn conductance(&self, v: f64) -> f64 {
        let i = self.current(v);
        let g_sel = self.selector.conductance(v - i * self.r_mem);
        g_sel / (1.0 + g_sel * self.r_mem)
    }
}

/// A quasi-constant-current cell: `I(V) = Isat·tanh(V/Vknee)`.
///
/// Above the knee voltage the device behaves like a current source. This is
/// the model the paper's voltage-drop analysis implies for the *selected*
/// cell during a RESET: Table I specifies a fixed `Ion = 90 µA` "cell current
/// of a LRS ReRAM during RESET", independent of the IR drop the cell suffers.
/// Using this device for selected cells makes the circuit solver reproduce
/// the paper's (pessimistic, fixed-current) drop figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompliantCell {
    i_sat: f64,
    v_knee: f64,
}

impl CompliantCell {
    /// Creates a compliance-limited cell saturating at `i_sat` amperes above
    /// roughly `v_knee` volts.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are strictly positive.
    #[must_use]
    pub fn new(i_sat: f64, v_knee: f64) -> Self {
        assert!(i_sat > 0.0 && v_knee > 0.0, "parameters must be positive");
        Self { i_sat, v_knee }
    }

    /// Saturation current, amperes.
    #[must_use]
    pub fn i_sat(&self) -> f64 {
        self.i_sat
    }

    /// Knee voltage, volts.
    #[must_use]
    pub fn v_knee(&self) -> f64 {
        self.v_knee
    }

    /// Current at voltage `v`, amperes.
    #[must_use]
    pub fn current(&self, v: f64) -> f64 {
        self.i_sat * (v / self.v_knee).tanh()
    }

    /// Differential conductance at voltage `v`, siemens.
    #[must_use]
    pub fn conductance(&self, v: f64) -> f64 {
        let t = (v / self.v_knee).tanh();
        self.i_sat / self.v_knee * (1.0 - t * t)
    }
}

/// A device placed at one cross-point of the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellDevice {
    /// An ideal linear conductance (siemens). Useful for tests with closed
    /// forms, and for modeling shorted or stuck cells.
    Linear(f64),
    /// A selector-limited cell — the standard model for an LRS cell whose
    /// filament resistance is negligible against the selector.
    Selector(PolySelector),
    /// A memory element in series with a selector — the standard model for an
    /// HRS cell.
    Series(SeriesCell),
    /// A compliance-limited cell drawing a quasi-constant current — the
    /// paper's model for the selected cell during a RESET.
    Compliant(CompliantCell),
    /// An open circuit (e.g. a removed or failed-open cell).
    Open,
}

impl CellDevice {
    /// Current through the device at voltage `v` (amperes).
    #[must_use]
    pub fn current(&self, v: f64) -> f64 {
        match self {
            CellDevice::Linear(g) => g * v,
            CellDevice::Selector(s) => s.current(v),
            CellDevice::Series(s) => s.current(v),
            CellDevice::Compliant(c) => c.current(v),
            CellDevice::Open => 0.0,
        }
    }

    /// Differential conductance `dI/dV` at voltage `v` (siemens).
    #[must_use]
    pub fn conductance(&self, v: f64) -> f64 {
        match self {
            CellDevice::Linear(g) => *g,
            CellDevice::Selector(s) => s.conductance(v),
            CellDevice::Series(s) => s.conductance(v),
            CellDevice::Compliant(c) => c.conductance(v),
            CellDevice::Open => 0.0,
        }
    }

    /// The variant and the raw bits of every parameter: equal keys mean
    /// devices that compute bit-identical currents, unlike `==`, which
    /// merges `0.0` and `-0.0` and never matches NaN.
    pub(crate) fn bit_key(&self) -> [u64; 6] {
        let (tag, params): (u64, &[f64]) = match self {
            CellDevice::Linear(g) => (0, &[*g]),
            CellDevice::Selector(s) => (1, &[s.i_on, s.v_full, s.gamma, s.g_leak]),
            CellDevice::Series(c) => {
                let s = c.selector;
                (2, &[s.i_on, s.v_full, s.gamma, s.g_leak, c.r_mem])
            }
            CellDevice::Compliant(c) => (3, &[c.i_sat, c.v_knee]),
            CellDevice::Open => (4, &[]),
        };
        let mut key = [0; 6];
        key[0] = tag;
        for (k, p) in key[1..].iter_mut().zip(params) {
            *k = p.to_bits();
        }
        key
    }

    /// Norton linearization around operating voltage `v0`: returns `(g, i0)`
    /// such that `I(v) ≈ g·v + i0` near `v0`.
    #[must_use]
    pub fn linearize(&self, v0: f64) -> (f64, f64) {
        if let CellDevice::Selector(s) = self {
            return s.linearize(v0);
        }
        let g = self.conductance(v0);
        let i0 = self.current(v0) - g * v0;
        (g, i0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_half_bias_selectivity_matches_kr() {
        let s = PolySelector::new(90e-6, 3.0, 1000.0).with_leakage(0.0);
        let ratio = s.current(3.0) / s.current(1.5);
        assert!((ratio - 1000.0).abs() / 1000.0 < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn selector_full_bias_current_is_i_on() {
        let s = PolySelector::new(90e-6, 3.0, 1000.0).with_leakage(0.0);
        assert!((s.current(3.0) - 90e-6).abs() < 1e-12);
    }

    #[test]
    fn selector_is_odd_symmetric() {
        let s = PolySelector::new(90e-6, 3.0, 1000.0);
        for v in [0.1, 0.7, 1.5, 2.9, 3.0] {
            assert!((s.current(v) + s.current(-v)).abs() < 1e-15);
        }
    }

    #[test]
    fn selector_conductance_matches_finite_difference() {
        let s = PolySelector::new(90e-6, 3.0, 1000.0);
        for v in [-2.5, -0.5, 0.3, 1.5, 2.9] {
            let h = 1e-7;
            let fd = (s.current(v + h) - s.current(v - h)) / (2.0 * h);
            let g = s.conductance(v);
            assert!(
                (fd - g).abs() <= 1e-6 * g.abs().max(1e-9),
                "v={v}: fd={fd}, g={g}"
            );
        }
    }

    #[test]
    fn selector_kr_round_trips() {
        for kr in [500.0, 1000.0, 2000.0] {
            let s = PolySelector::new(90e-6, 3.0, kr);
            assert!((s.kr() - kr).abs() / kr < 1e-12);
        }
    }

    #[test]
    fn series_cell_with_zero_resistance_equals_selector() {
        let sel = PolySelector::new(90e-6, 3.0, 1000.0);
        let cell = SeriesCell::new(sel, 0.0);
        for v in [0.5, 1.5, 3.0] {
            assert_eq!(cell.current(v), sel.current(v));
        }
    }

    #[test]
    fn series_cell_reduces_current() {
        let sel = PolySelector::new(90e-6, 3.0, 1000.0);
        let cell = SeriesCell::new(sel, 10_000.0);
        // 90 µA across 10 kΩ would drop 0.9 V, so the selector sees less bias.
        let i = cell.current(3.0);
        assert!(i < 90e-6, "series resistance must reduce current: {i}");
        assert!(i > 0.0);
        // The series KVL must hold at the solution.
        let v_sel = 3.0 - i * 10_000.0;
        assert!((sel.current(v_sel) - i).abs() < 1e-12);
    }

    #[test]
    fn series_conductance_matches_finite_difference() {
        let sel = PolySelector::new(90e-6, 3.0, 1000.0);
        let cell = SeriesCell::new(sel, 30_000.0);
        for v in [0.4, 1.5, 2.8] {
            let h = 1e-6;
            let fd = (cell.current(v + h) - cell.current(v - h)) / (2.0 * h);
            let g = cell.conductance(v);
            assert!(
                (fd - g).abs() <= 1e-4 * g.abs().max(1e-12),
                "v={v}: fd={fd}, g={g}"
            );
        }
    }

    #[test]
    fn linear_device_obeys_ohm() {
        let d = CellDevice::Linear(0.01);
        assert!((d.current(2.0) - 0.02).abs() < 1e-15);
        assert_eq!(d.conductance(2.0), 0.01);
    }

    #[test]
    fn open_device_carries_no_current() {
        let d = CellDevice::Open;
        assert_eq!(d.current(3.0), 0.0);
        assert_eq!(d.conductance(3.0), 0.0);
    }

    #[test]
    fn linearization_is_tangent() {
        let d = CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0));
        let v0 = 2.0;
        let (g, i0) = d.linearize(v0);
        assert!((g * v0 + i0 - d.current(v0)).abs() < 1e-15);
    }

    #[test]
    fn compliant_cell_saturates() {
        let c = CompliantCell::new(90e-6, 0.25);
        assert!((c.current(3.0) - 90e-6).abs() < 1e-9);
        assert!((c.current(1.0) - 90e-6).abs() < 1e-7);
        assert!(c.current(0.1) < 90e-6 * 0.5);
        assert!((c.current(2.0) + c.current(-2.0)).abs() < 1e-18);
    }

    #[test]
    fn compliant_conductance_matches_finite_difference() {
        let c = CompliantCell::new(90e-6, 0.25);
        // Tolerance is relative to the device's peak conductance: in the
        // saturated tail both fd and g underflow toward zero and a relative
        // check against g itself would amplify cancellation noise.
        let scale = c.conductance(0.0);
        for v in [-0.3, 0.05, 0.2, 1.0, 2.5] {
            let h = 1e-7;
            let fd = (c.current(v + h) - c.current(v - h)) / (2.0 * h);
            let g = c.conductance(v);
            assert!((fd - g).abs() <= 1e-5 * scale, "v={v}: fd={fd}, g={g}");
        }
    }

    /// The power law evaluated on every input, as before the quiet-cell
    /// shortcut: the reference the shortcut must match bit for bit.
    fn full_current(s: &PolySelector, v: f64) -> f64 {
        let x = v.abs() / s.v_full;
        v.signum() * s.i_on * x.powf(s.gamma) + s.g_leak * v
    }

    fn full_conductance(s: &PolySelector, v: f64) -> f64 {
        let x = v.abs() / s.v_full;
        let g = if x > 0.0 {
            s.gamma * s.i_on / s.v_full * x.powf(s.gamma - 1.0)
        } else {
            0.0
        };
        g + s.g_leak
    }

    /// `x_q` as the shortcut first computed it, on its own.
    fn quiet_ratio(s: &PolySelector) -> f64 {
        const MARGIN: f64 = 1.0 / (1u64 << 60) as f64;
        if s.gamma > 1.0 && s.g_leak > 0.0 {
            let r = s.g_leak * s.v_full / (s.gamma * s.i_on) * MARGIN;
            let x = r.powf(1.0 / (s.gamma - 1.0));
            if x.is_finite() {
                x.min(1.0)
            } else {
                0.0
            }
        } else {
            0.0
        }
    }

    /// The quiet-cell shortcut as it was first written: divide, then test
    /// the ratio against `x_q`. The volts bound must match it bit for bit.
    fn divide_first_current(s: &PolySelector, v: f64) -> f64 {
        let x = v.abs() / s.v_full;
        if x <= quiet_ratio(s) {
            return s.g_leak * v;
        }
        v.signum() * s.i_on * x.powf(s.gamma) + s.g_leak * v
    }

    fn divide_first_conductance(s: &PolySelector, v: f64) -> f64 {
        let x = v.abs() / s.v_full;
        if x <= quiet_ratio(s) {
            return s.g_leak;
        }
        full_conductance(s, v)
    }

    /// A selector reference: its current and its conductance.
    type Reference = (fn(&PolySelector, f64) -> f64, fn(&PolySelector, f64) -> f64);

    const FULL: Reference = (full_current, full_conductance);
    const DIVIDE_FIRST: Reference = (divide_first_current, divide_first_conductance);

    /// [`CellDevice::linearize`]'s two-call formula over a reference.
    fn ref_linearize((cur, cond): Reference, s: &PolySelector, v: f64) -> (u64, u64) {
        let g = cond(s, v);
        (bits(g), bits(cur(s, v) - g * v))
    }

    /// [`SeriesCell::current`] over a reference selector.
    fn ref_series_current((cur, cond): Reference, c: &SeriesCell, v: f64) -> f64 {
        let s = &c.selector;
        if c.r_mem == 0.0 {
            return cur(s, v);
        }
        let mut i = cur(s, v);
        for _ in 0..32 {
            let v_sel = v - i * c.r_mem;
            let f = cur(s, v_sel) - i;
            let df = -cond(s, v_sel) * c.r_mem - 1.0;
            let step = f / df;
            i -= step;
            if step.abs() <= 1e-15 + 1e-9 * i.abs() {
                break;
            }
        }
        i
    }

    fn ref_series_conductance(r: Reference, c: &SeriesCell, v: f64) -> f64 {
        let i = ref_series_current(r, c, v);
        let g_sel = (r.1)(&c.selector, v - i * c.r_mem);
        g_sel / (1.0 + g_sel * c.r_mem)
    }

    /// Probe voltages: seeded magnitudes over the whole exponent range,
    /// the ulps around the quiet bound `v_quiet`, signed zeros,
    /// subnormals, NaN and infinities, each with both signs.
    fn probe_voltages(s: &PolySelector, rng: &mut reram_workloads::Rng64) -> Vec<f64> {
        let mut vs = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            s.v_full,
            s.v_full / 2.0,
        ];
        let edge = s.v_quiet;
        let (mut up, mut down) = (edge, edge);
        for _ in 0..64 {
            vs.extend([up, down]);
            up = up.next_up();
            down = down.next_down();
        }
        for k in 1..=64 {
            vs.extend([
                edge * (1.0 + f64::from(k) * 1e-3),
                edge * (1.0 - f64::from(k) * 1e-3),
            ]);
        }
        for _ in 0..2000 {
            vs.push(10f64.powf(rng.gen_range_f64(-330.0, 1.0)));
            vs.push(rng.gen_range_f64(0.0, 4.0 * edge.max(1e-3)));
        }
        vs.iter().flat_map(|&v| [v, -v]).collect()
    }

    /// The bits of `x`, every NaN as one: Rust leaves the sign and payload
    /// of a NaN result unspecified, and optimized builds propagate either
    /// operand's NaN, so only "NaN or not" is a stable result.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn assert_same_bits(got: f64, want: f64, ctx: &str) {
        assert_eq!(bits(got), bits(want), "{ctx}: {got:e} vs {want:e}");
    }

    /// The quiet-cell shortcut returns exactly what `reference` returns, on
    /// every probe voltage of the selector, its series cell and the
    /// linearizations of both.
    fn check_against(reference: Reference, s: PolySelector, rng: &mut reram_workloads::Rng64) {
        let series = SeriesCell::new(s, 100e3);
        for v in probe_voltages(&s, rng) {
            let ctx = format!("{s:?} at v = {v:e}");
            assert_same_bits(s.current(v), (reference.0)(&s, v), &ctx);
            assert_same_bits(s.conductance(v), (reference.1)(&s, v), &ctx);
            let want = ref_linearize(reference, &s, v);
            let (g, i0) = s.linearize(v);
            assert_eq!((bits(g), bits(i0)), want, "{ctx}: linearize");
            let (g, i0) = CellDevice::Selector(s).linearize(v);
            assert_eq!((bits(g), bits(i0)), want, "{ctx}: device");
            assert_same_bits(
                series.current(v),
                ref_series_current(reference, &series, v),
                &ctx,
            );
            assert_same_bits(
                series.conductance(v),
                ref_series_conductance(reference, &series, v),
                &ctx,
            );
        }
    }

    #[test]
    fn quiet_shortcut_is_bit_exact_on_the_paper_devices() {
        let mut rng = reram_workloads::Rng64::new(0x0b17_e8ac);
        let lrs = PolySelector::new(90e-6, 3.0, 1000.0);
        let hrs = PolySelector::new(9e-6, 3.0, 1000.0);
        // The LRS bound is about 7 mV, so half-biased cells take it.
        let edge = lrs.v_quiet;
        assert!(edge > 5e-3 && edge < 9e-3, "LRS quiet bound {edge} V");
        assert!(hrs.v_quiet > lrs.v_quiet);
        let devices = [
            lrs,
            hrs,
            lrs.with_leakage(0.0),
            lrs.with_leakage(1e-6),
            lrs.with_leakage(f64::INFINITY),
        ];
        for s in devices {
            check_against(FULL, s, &mut rng);
        }
        // No leakage, or a power law no steeper than linear: no shortcut.
        assert_eq!(quiet_ratio(&lrs.with_leakage(0.0)), 0.0);
        for kr in [1.5, 2.0] {
            let s = PolySelector::new(90e-6, 3.0, kr);
            assert_eq!(quiet_ratio(&s), 0.0);
            check_against(FULL, s, &mut rng);
        }
    }

    #[test]
    fn volts_bound_matches_the_divide_first_test() {
        let mut rng = reram_workloads::Rng64::new(0x0d1f_f1a7);
        let lrs = PolySelector::new(90e-6, 3.0, 1000.0);
        let devices = [
            lrs,
            PolySelector::new(9e-6, 3.0, 1000.0),
            lrs.with_leakage(0.0),
            PolySelector::new(90e-6, 3.0, 1.5),
            PolySelector::new(90e-6, 3.0, 2.0),
            PolySelector::new(1e-4, 0.7, 30.0).with_leakage(1e-12),
            // Overflowing bound arithmetic: no ratio, NaN linearizations.
            lrs.with_leakage(f64::INFINITY),
        ];
        for s in devices {
            // `v_quiet` is the last voltage whose quotient passes the ratio
            // test, so the next one up is the first that fails it.
            let x_q = quiet_ratio(&s);
            assert!(s.v_quiet / s.v_full <= x_q, "{s:?}");
            assert!(s.v_quiet.next_up() / s.v_full > x_q, "{s:?}");
            check_against(DIVIDE_FIRST, s, &mut rng);
        }
    }

    #[test]
    fn quiet_shortcut_is_bit_exact_on_random_devices() {
        let mut rng = reram_workloads::Rng64::new(0x51ee_9001);
        for _ in 0..24 {
            let s = PolySelector::new(
                10f64.powf(rng.gen_range_f64(-7.0, -3.0)),
                rng.gen_range_f64(0.5, 5.0),
                10f64.powf(rng.gen_range_f64(0.1, 4.0)),
            );
            let s = if rng.gen_bool(0.2) {
                s.with_leakage(0.0)
            } else {
                s.with_leakage(10f64.powf(rng.gen_range_f64(-12.0, -6.0)))
            };
            check_against(FULL, s, &mut rng);
            check_against(DIVIDE_FIRST, s, &mut rng);
        }
    }

    #[test]
    fn bit_keys_separate_what_eq_merges_and_match_nan() {
        let pos = CellDevice::Linear(0.0);
        let neg = CellDevice::Linear(-0.0);
        assert_eq!(pos, neg);
        assert_ne!(pos.bit_key(), neg.bit_key());
        let nan = CellDevice::Linear(f64::NAN);
        assert_ne!(nan, nan);
        assert_eq!(nan.bit_key(), nan.bit_key());
        // Same parameters in another variant are another device.
        let sel = PolySelector::new(90e-6, 3.0, 1000.0);
        assert_ne!(
            CellDevice::Selector(sel).bit_key(),
            CellDevice::Series(SeriesCell::new(sel, 0.0)).bit_key()
        );
    }

    #[test]
    fn cell_state_bit_round_trip() {
        assert_eq!(CellState::from_bit(true), CellState::Lrs);
        assert_eq!(CellState::from_bit(false), CellState::Hrs);
        assert!(CellState::Lrs.to_bit());
        assert!(!CellState::Hrs.to_bit());
    }
}
