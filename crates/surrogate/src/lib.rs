//! Calibrated IR-drop surrogate for physics-faithful write estimates at
//! service rates.
//!
//! The full Newton/KCL solver in [`reram_circuit`] is the ground truth for
//! effective RESET voltage under IR drop, but at ~100 ms per cold 512×512
//! solve it cannot sit on a serving hot path. This crate closes that gap
//! with an *offline-calibrated surrogate*:
//!
//! * [`fit`](mod@fit) sweeps the solver across the DRVR / DRVR+PR /
//!   UDRVR+PR operating points (row section × concurrent-RESET count ×
//!   partition pattern) — warm-started, via
//!   [`reram_circuit::Crosspoint::solve_warm`] — and fits a small
//!   LUT with a rank-1 within-section correction ([`model`]);
//! * held-out rows quantify the surrogate error against the solver, and
//!   the measured maxima (rounded up to a safety granule) are **committed
//!   into the artifact** as bounds that `experiments surrogate-check`
//!   re-validates in CI;
//! * [`artifact`] serializes the model to a versioned, CRC-32-guarded JSON
//!   file (`ci/surrogate_model.json`) with zero dependencies;
//! * [`estimate`] answers per-write latency/energy queries in well under a
//!   microsecond (`surrogate_lookup_*` in `BENCH_solver.json`), with
//!   fault-injectable load (`surrogate.load`) and lookup
//!   (`surrogate.miss`) sites so the solver/analytic fallback paths stay
//!   drilled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod estimate;
pub mod fit;
pub mod model;

pub use artifact::{
    load, load_with_faults, parse, to_json, ArtifactError, FORMAT_NAME, FORMAT_VERSION,
};
pub use estimate::{EstimatorError, SurrogateEstimator, WriteEstimate};
pub use fit::{
    check, fit, key_scheme, pattern_cols, scheme_key, CheckReport, FitConfig, FitError,
    SchemeReport, CACHE_EPSILON_VOLTS,
};
pub use model::{rank1_factor, Pattern, SchemeTable, SurrogateModel, PATTERNS};

/// CRC-32 (IEEE 802.3, reflected) — the same checksum the journal, wire
/// protocol and snapshot formats use, computed bitwise to avoid a table.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
