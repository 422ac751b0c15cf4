//! Offline calibration: sweep the full KCL solver over the surrogate's
//! domain, fit the LUT + rank-1 correction, and measure held-out error.
//!
//! The sweep walks, per scheme, every DRVR section's first and last row
//! (the fit rows) at every (concurrent-RESET count × pattern) point, then
//! re-solves the section midpoints as held-out rows to quantify the
//! surrogate error. Consecutive networks differ only in the selected cells
//! and line biases, so the sweep runs on one warm
//! [`SolverWorkspace`] per scheme via
//! [`Crosspoint::solve_warm`](reram_circuit::Crosspoint::solve_warm).
//!
//! `fit` commits the **measured** held-out maxima into the artifact after
//! rounding them up by a safety granule (so a rebuild on a different
//! libm/CPU cannot trip the bound); `check` re-runs the held-out sweep
//! against a loaded artifact and fails when any measured error exceeds its
//! committed bound — the CI drift gate behind `experiments
//! surrogate-check`.

use std::fmt;

use reram_array::{ArrayGeometry, ArrayModel};
use reram_circuit::{SolveError, SolveOptions, SolverWorkspace};
use reram_core::{Scheme, WriteModel};

use crate::model::{rank1_factor, Pattern, SchemeTable, SurrogateModel, PATTERNS};

/// Linearization-cache epsilon used by every calibration and check solve.
/// Fixed (rather than configurable) so `check` always re-measures under
/// the exact solver configuration `fit` calibrated against.
pub const CACHE_EPSILON_VOLTS: f64 = 1e-5;

/// Calibration domain and sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// MAT dimension (rows = cols); multiple of `data_width` and 8.
    pub size: usize,
    /// Write drivers per MAT (column groups).
    pub data_width: usize,
    /// Concurrent-RESET counts to calibrate: `1..=counts`.
    pub counts: usize,
    /// Seed for the deterministic random column placements.
    pub seed: u64,
    /// Schemes to calibrate (must have stable keys, see [`scheme_key`]).
    pub schemes: Vec<Scheme>,
}

impl Default for FitConfig {
    /// The committed-artifact configuration: the paper's 512×512 MAT,
    /// 1–4 concurrent RESETs, the three regulation schemes the serving
    /// stack runs.
    fn default() -> Self {
        Self {
            size: 512,
            data_width: 8,
            counts: 4,
            seed: 0x5EED_CA11_B007_ED01,
            schemes: vec![Scheme::Drvr, Scheme::DrvrPr, Scheme::UdrvrPr],
        }
    }
}

impl FitConfig {
    /// A small, fast domain (32×32, 2 counts, one scheme) for unit tests
    /// and fault drills — same code path, ~100 solves instead of ~600.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            size: 32,
            counts: 2,
            schemes: vec![Scheme::Drvr],
            ..Self::default()
        }
    }
}

/// Calibration or check failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// A calibration solve did not converge.
    Solve(String),
    /// The configuration cannot be swept.
    Domain(String),
    /// A scheme with no stable key (or no table in the artifact).
    UnknownScheme(String),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Solve(e) => write!(f, "calibration solve failed: {e}"),
            FitError::Domain(e) => write!(f, "calibration domain: {e}"),
            FitError::UnknownScheme(s) => write!(f, "no surrogate key for scheme {s}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Stable artifact key for `scheme`, if the surrogate supports it.
#[must_use]
pub fn scheme_key(scheme: Scheme) -> Option<&'static str> {
    match scheme {
        Scheme::Baseline => Some("baseline"),
        Scheme::Drvr => Some("drvr"),
        Scheme::DrvrPr => Some("drvr_pr"),
        Scheme::UdrvrPr => Some("udrvr_pr"),
        Scheme::Udrvr394 => Some("udrvr_3_94"),
        _ => None,
    }
}

/// Inverse of [`scheme_key`].
#[must_use]
pub fn key_scheme(key: &str) -> Option<Scheme> {
    match key {
        "baseline" => Some(Scheme::Baseline),
        "drvr" => Some(Scheme::Drvr),
        "drvr_pr" => Some(Scheme::DrvrPr),
        "udrvr_pr" => Some(Scheme::UdrvrPr),
        "udrvr_3_94" => Some(Scheme::Udrvr394),
        _ => None,
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic column placement of a `count`-cell concurrent RESET.
///
/// `Even` spreads the cells uniformly along the word-line (the Partition
/// RESET shape): `j_k = size/(2·count) + k·size/count`. `Random` draws
/// `count` distinct columns from a splitmix64 stream keyed by
/// `(seed, row)` — identical across fit, check and any re-run, so the
/// committed error bounds always refer to the same networks.
#[must_use]
pub fn pattern_cols(
    size: usize,
    count: usize,
    pattern: Pattern,
    seed: u64,
    row: usize,
) -> Vec<usize> {
    match pattern {
        Pattern::Even => (0..count)
            .map(|k| size / (2 * count) + k * size / count)
            .collect(),
        Pattern::Random => {
            let mut state = seed ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let mut cols = Vec::with_capacity(count);
            while cols.len() < count {
                let j = (splitmix64(&mut state) % size as u64) as usize;
                if !cols.contains(&j) {
                    cols.push(j);
                }
            }
            cols.sort_unstable();
            cols
        }
    }
}

/// Per-scheme held-out error summary. `measured_*` are from the sweep that
/// produced this report; `bound_*` are the committed artifact bounds the
/// measurements are judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeReport {
    /// Stable scheme key.
    pub scheme: String,
    /// Held-out points measured (rows × counts × patterns).
    pub points: usize,
    /// Largest `|surrogate − solver|` effective voltage, volts.
    pub measured_max_err_volts: f64,
    /// Mean absolute effective-voltage error, volts.
    pub measured_mean_err_volts: f64,
    /// Largest relative RESET-latency error.
    pub measured_max_latency_err_frac: f64,
    /// Largest relative RESET-energy error.
    pub measured_max_energy_err_frac: f64,
    /// Committed voltage-error bound.
    pub bound_max_err_volts: f64,
    /// Committed latency-error bound.
    pub bound_max_latency_err_frac: f64,
    /// Committed energy-error bound.
    pub bound_max_energy_err_frac: f64,
    /// Whether every measurement stayed within its committed bound.
    pub pass: bool,
}

/// Outcome of a held-out error sweep (`fit` and `check` both produce one).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Per-scheme summaries.
    pub schemes: Vec<SchemeReport>,
    /// Total solver invocations the sweep spent.
    pub solves: usize,
}

impl CheckReport {
    /// True when every scheme stayed within its committed bounds.
    #[must_use]
    pub fn pass(&self) -> bool {
        !self.schemes.is_empty() && self.schemes.iter().all(|s| s.pass)
    }

    /// The CI error-report artifact (JSON) uploaded by the
    /// `surrogate-smoke` workflow leg.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"pass\": {},\n", self.pass()));
        s.push_str(&format!("  \"solves\": {},\n", self.solves));
        s.push_str("  \"schemes\": [\n");
        for (i, r) in self.schemes.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"scheme\": \"{}\", ", r.scheme));
            s.push_str(&format!("\"pass\": {}, ", r.pass));
            s.push_str(&format!("\"points\": {}, ", r.points));
            s.push_str(&format!(
                "\"measured_max_err_volts\": {}, ",
                r.measured_max_err_volts
            ));
            s.push_str(&format!(
                "\"measured_mean_err_volts\": {}, ",
                r.measured_mean_err_volts
            ));
            s.push_str(&format!(
                "\"measured_max_latency_err_frac\": {}, ",
                r.measured_max_latency_err_frac
            ));
            s.push_str(&format!(
                "\"measured_max_energy_err_frac\": {}, ",
                r.measured_max_energy_err_frac
            ));
            s.push_str(&format!(
                "\"bound_max_err_volts\": {}, ",
                r.bound_max_err_volts
            ));
            s.push_str(&format!(
                "\"bound_max_latency_err_frac\": {}, ",
                r.bound_max_latency_err_frac
            ));
            s.push_str(&format!(
                "\"bound_max_energy_err_frac\": {}",
                r.bound_max_energy_err_frac
            ));
            s.push_str(if i + 1 < self.schemes.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// One scheme's warm solver sweep state.
struct Sweep {
    write: WriteModel,
    geom: ArrayGeometry,
    ws: SolverWorkspace,
    opts: SolveOptions,
    seed: u64,
    solves: usize,
}

impl Sweep {
    fn new(scheme: Scheme, size: usize, data_width: usize, seed: u64) -> Self {
        let geom = ArrayGeometry::new(size, data_width);
        let model = ArrayModel::paper_baseline().with_geometry(geom);
        Self {
            write: WriteModel::new(model, scheme),
            geom,
            ws: SolverWorkspace::new(),
            opts: SolveOptions {
                lin_cache_epsilon_volts: Some(CACHE_EPSILON_VOLTS),
                ..SolveOptions::default()
            },
            seed,
            solves: 0,
        }
    }

    /// Solver ground truth: the worst-case effective RESET voltage of a
    /// `count`-cell concurrent RESET on `row` with `pattern` placement.
    fn solve_veff(
        &mut self,
        row: usize,
        count: usize,
        pattern: Pattern,
    ) -> Result<f64, SolveError> {
        let cols = pattern_cols(self.geom.size(), count, pattern, self.seed, row);
        let applied: Vec<f64> = cols
            .iter()
            .map(|&j| self.write.applied_volts(row, self.geom.group_of_col(j)))
            .collect();
        let cp = self.write.model().to_crosspoint(row, &cols, &applied);
        let sol = cp.solve_warm(&self.opts, &mut self.ws)?;
        self.solves += 1;
        Ok(cols
            .iter()
            .map(|&j| sol.bl_voltage(row, j) - sol.wl_voltage(row, j))
            .fold(f64::INFINITY, f64::min))
    }
}

fn validate(size: usize, data_width: usize, counts: usize) -> Result<(), FitError> {
    if size == 0 || data_width == 0 || counts == 0 {
        return Err(FitError::Domain("domain must be non-trivial".into()));
    }
    if !size.is_multiple_of(data_width) || !size.is_multiple_of(8) {
        return Err(FitError::Domain(
            "size must be a multiple of data_width and of the 8 DRVR sections".into(),
        ));
    }
    if counts > size {
        return Err(FitError::Domain("counts exceeds the word-line".into()));
    }
    Ok(())
}

/// Rounds a measured error up to a committed bound: next `granule`
/// multiple, plus one granule of headroom, so a rebuild on a different
/// libm/CPU cannot drift across the bound.
fn commit_bound(measured: f64, granule: f64) -> f64 {
    (measured / granule).ceil() * granule + granule
}

/// Measures held-out error for one scheme table and judges it against the
/// bounds committed in `table`.
fn held_out_report(
    sweep: &mut Sweep,
    model: &SurrogateModel,
    table: &SchemeTable,
) -> Result<SchemeReport, FitError> {
    let rps = model.rows_per_section();
    let kin = sweep.write.model().kinetics();
    let i_on = sweep.write.model().cell().i_on;
    let mut max_v = 0.0f64;
    let mut sum_v = 0.0f64;
    let mut max_lat = 0.0f64;
    let mut max_energy = 0.0f64;
    let mut points = 0usize;
    for g in 0..model.sections {
        let row = g * rps + rps / 2;
        for count in 1..=model.counts {
            for pattern in Pattern::all() {
                let truth = sweep
                    .solve_veff(row, count, pattern)
                    .map_err(|e| FitError::Solve(e.to_string()))?;
                let pred = model.veff_in(table, row, count, pattern);
                let dv = (pred - truth).abs();
                max_v = max_v.max(dv);
                sum_v += dv;
                let lat_truth = kin.latency_ns(truth);
                let lat_pred = kin.latency_ns(pred);
                max_lat = max_lat.max((lat_pred - lat_truth).abs() / lat_truth);
                // Energy over the same placement the solver used, so the
                // metric isolates the surrogate's latency error.
                let cols = pattern_cols(model.size, count, pattern, model.seed, row);
                let applied: f64 = cols
                    .iter()
                    .map(|&j| sweep.write.applied_volts(row, sweep.geom.group_of_col(j)))
                    .sum();
                let e_truth = applied * i_on * lat_truth * 1e3;
                let e_pred = applied * i_on * lat_pred * 1e3;
                max_energy = max_energy.max((e_pred - e_truth).abs() / e_truth);
                points += 1;
            }
        }
    }
    Ok(SchemeReport {
        scheme: table.scheme.clone(),
        points,
        measured_max_err_volts: max_v,
        measured_mean_err_volts: sum_v / points as f64,
        measured_max_latency_err_frac: max_lat,
        measured_max_energy_err_frac: max_energy,
        bound_max_err_volts: table.max_err_volts,
        bound_max_latency_err_frac: table.max_latency_err_frac,
        bound_max_energy_err_frac: table.max_energy_err_frac,
        pass: max_v <= table.max_err_volts
            && max_lat <= table.max_latency_err_frac
            && max_energy <= table.max_energy_err_frac,
    })
}

/// Calibrates a [`SurrogateModel`] against the full solver.
///
/// Returns the fitted model (bounds committed from the held-out
/// measurements) together with the fit-time [`CheckReport`]; the report
/// always passes by construction.
pub fn fit(cfg: &FitConfig) -> Result<(SurrogateModel, CheckReport), FitError> {
    validate(cfg.size, cfg.data_width, cfg.counts)?;
    if cfg.schemes.is_empty() {
        return Err(FitError::Domain("no schemes to calibrate".into()));
    }
    let sections = ArrayGeometry::new(cfg.size, cfg.data_width).drvr_sections();
    let rps = cfg.size / sections;
    let mut model = SurrogateModel {
        version: crate::artifact::FORMAT_VERSION,
        seed: cfg.seed,
        size: cfg.size,
        data_width: cfg.data_width,
        sections,
        counts: cfg.counts,
        tables: Vec::new(),
    };
    let mut reports = Vec::new();
    let mut solves = 0usize;
    for &scheme in &cfg.schemes {
        let key = scheme_key(scheme)
            .ok_or_else(|| FitError::UnknownScheme(scheme.label()))?
            .to_string();
        let mut sweep = Sweep::new(scheme, cfg.size, cfg.data_width, cfg.seed);
        let cps = cfg.counts * PATTERNS;
        let mut base = vec![0.0f64; sections * cps];
        let mut slope = vec![0.0f64; sections * cps];
        // Fit rows: each section's first and last row. With the section
        // midpoint at position 0, they sit at ±(rps−1)/(2·rps).
        let span = if rps > 1 {
            (rps - 1) as f64 / rps as f64
        } else {
            1.0
        };
        for g in 0..sections {
            let (r_lo, r_hi) = (g * rps, g * rps + rps - 1);
            for count in 1..=cfg.counts {
                for pattern in Pattern::all() {
                    let v_lo = sweep
                        .solve_veff(r_lo, count, pattern)
                        .map_err(|e| FitError::Solve(e.to_string()))?;
                    let v_hi = if r_hi == r_lo {
                        v_lo
                    } else {
                        sweep
                            .solve_veff(r_hi, count, pattern)
                            .map_err(|e| FitError::Solve(e.to_string()))?
                    };
                    let cp = (count - 1) * PATTERNS + pattern.index();
                    base[g * cps + cp] = 0.5 * (v_lo + v_hi);
                    slope[g * cps + cp] = (v_hi - v_lo) / span;
                }
            }
        }
        let (slope_u, slope_v) = rank1_factor(&slope, sections, cps);
        let mut table = SchemeTable {
            scheme: key,
            base,
            slope_u,
            slope_v,
            max_err_volts: 0.0,
            mean_err_volts: 0.0,
            max_latency_err_frac: 0.0,
            max_energy_err_frac: 0.0,
        };
        // Measure on held-out rows, then commit the rounded-up bounds.
        let measured = held_out_report(&mut sweep, &model, &table)?;
        table.max_err_volts = commit_bound(measured.measured_max_err_volts, 1e-4);
        table.mean_err_volts = measured.measured_mean_err_volts;
        table.max_latency_err_frac = commit_bound(measured.measured_max_latency_err_frac, 1e-3);
        table.max_energy_err_frac = commit_bound(measured.measured_max_energy_err_frac, 1e-3);
        reports.push(SchemeReport {
            bound_max_err_volts: table.max_err_volts,
            bound_max_latency_err_frac: table.max_latency_err_frac,
            bound_max_energy_err_frac: table.max_energy_err_frac,
            pass: true,
            ..measured
        });
        model.tables.push(table);
        solves += sweep.solves;
    }
    Ok((
        model,
        CheckReport {
            schemes: reports,
            solves,
        },
    ))
}

/// Re-measures a loaded artifact's held-out error against the live solver
/// and judges it by the artifact's own committed bounds. The CI gate: a
/// solver or calibration change that silently drifts the surrogate fails
/// here before it can ship.
pub fn check(model: &SurrogateModel) -> Result<CheckReport, FitError> {
    validate(model.size, model.data_width, model.counts)?;
    let mut reports = Vec::new();
    let mut solves = 0usize;
    for table in &model.tables {
        let scheme = key_scheme(&table.scheme)
            .ok_or_else(|| FitError::UnknownScheme(table.scheme.clone()))?;
        let mut sweep = Sweep::new(scheme, model.size, model.data_width, model.seed);
        reports.push(held_out_report(&mut sweep, model, table)?);
        solves += sweep.solves;
    }
    Ok(CheckReport {
        schemes: reports,
        solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_cols_are_deterministic_and_distinct() {
        let even = pattern_cols(512, 4, Pattern::Even, 1, 0);
        assert_eq!(even, vec![64, 192, 320, 448]);
        let a = pattern_cols(512, 4, Pattern::Random, 42, 17);
        let b = pattern_cols(512, 4, Pattern::Random, 42, 17);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for w in a.windows(2) {
            assert!(w[0] < w[1], "columns must be sorted and distinct: {a:?}");
        }
        let c = pattern_cols(512, 4, Pattern::Random, 42, 18);
        assert_ne!(a, c, "different rows must draw different placements");
    }

    #[test]
    fn quick_fit_passes_its_own_check() {
        let cfg = FitConfig::quick();
        let (model, fit_report) = fit(&cfg).expect("fit");
        assert!(fit_report.pass());
        assert_eq!(model.tables.len(), 1);
        assert_eq!(model.sections, 8);
        // The committed bounds re-validate against a fresh sweep.
        let report = check(&model).expect("check");
        assert!(report.pass(), "fresh check failed: {}", report.to_json());
        // Bound committal leaves visible headroom over the measurement.
        let (r, t) = (&report.schemes[0], &model.tables[0]);
        assert!(r.measured_max_err_volts < t.max_err_volts);
        assert!(t.max_err_volts < 0.2, "surrogate is not usefully accurate");
        // The error report serializes into the CI artifact shape.
        let json = report.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"scheme\": \"drvr\""));
    }

    #[test]
    fn tampered_bound_fails_check() {
        let cfg = FitConfig::quick();
        let (mut model, _) = fit(&cfg).expect("fit");
        model.tables[0].max_err_volts = 0.0;
        model.tables[0].max_latency_err_frac = 0.0;
        let report = check(&model).expect("check");
        assert!(!report.pass(), "zeroed bounds must fail the drift gate");
    }
}
