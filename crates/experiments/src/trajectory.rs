//! Benchmark-trajectory checks over `BENCH_trajectory.jsonl`
//! (`experiments trajectory-check`).
//!
//! The repo appends one line per PR with that PR's committed
//! `BENCH_serve.json` summary (`{"pr": N, "req_per_s": X, ...}`). The
//! checker enforces the growth contract CI gates on:
//!
//! * `pr` strictly increases — the file is an append-only ledger;
//! * `req_per_s` never regresses more than the tolerance (default 10%)
//!   against the **previous** entry — hardware drift between CI hosts is
//!   absorbed, a real throughput cliff is not.

use reram_obs::Json;

/// One trajectory entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajPoint {
    /// PR sequence number.
    pub pr: u64,
    /// Committed closed-loop throughput, requests per second.
    pub req_per_s: f64,
}

/// Parses every well-formed trajectory line; skips blanks, comments, and
/// any mode-tagged datapoint (`"mode": "replicated"` documents the
/// consensus tax, `"mode": "durable"` the WAL fsync tax; lines of retired
/// modes stay as history — only plain single-node analytic throughput is
/// gated).
#[must_use]
pub fn parse_points(text: &str) -> Vec<TrajPoint> {
    text.lines()
        .filter_map(|line| {
            let v = Json::parse(line).ok()?;
            if v.get("mode").is_some() {
                return None;
            }
            Some(TrajPoint {
                pr: v.get("pr")?.as_u64()?,
                req_per_s: v.get("req_per_s")?.as_f64()?,
            })
        })
        .collect()
}

/// Checks the growth contract; `tolerance` is the allowed fractional
/// regression against the previous entry (0.10 = 10%).
///
/// # Errors
///
/// Returns a human-readable violation description.
pub fn check(points: &[TrajPoint], tolerance: f64) -> Result<(), String> {
    if points.is_empty() {
        return Err("trajectory is empty — nothing to check".into());
    }
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b.pr <= a.pr {
            return Err(format!("pr must strictly increase: {} then {}", a.pr, b.pr));
        }
        let floor = a.req_per_s * (1.0 - tolerance);
        if b.req_per_s < floor {
            return Err(format!(
                "pr {} regressed: {:.1} req/s < {:.1} ({}% below pr {}'s {:.1})",
                b.pr,
                b.req_per_s,
                floor,
                (100.0 * (1.0 - b.req_per_s / a.req_per_s)).round(),
                a.pr,
                a.req_per_s
            ));
        }
    }
    Ok(())
}

/// Renders the trajectory with per-entry deltas.
#[must_use]
pub fn render(points: &[TrajPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>5} {:>12} {:>8}", "pr", "req_per_s", "delta%");
    let mut prev: Option<f64> = None;
    for p in points {
        let delta = prev.map_or_else(String::new, |q| {
            format!("{:+.1}", 100.0 * (p.req_per_s / q - 1.0))
        });
        let _ = writeln!(out, "{:>5} {:>12.1} {:>8}", p.pr, p.req_per_s, delta);
        prev = Some(p.req_per_s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trajectory_lines() {
        let text = "{\"pr\": 5, \"req_per_s\": 47680.9, \"p50_us\": 1191.7}\n\n{\"pr\": 6, \"req_per_s\": 48000.0}\n";
        let pts = parse_points(text);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].pr, 5);
        assert!((pts[0].req_per_s - 47_680.9).abs() < 1e-9);
    }

    #[test]
    fn replicated_mode_datapoints_are_documentation_not_gate_input() {
        // A mode-tagged entry would trip the regression floor: replicated
        // pays the consensus tax, durable the WAL fsync tax, and surrogate
        // tracked LUT-priced timing. The gate only reads single-node lines.
        for mode in ["replicated", "durable", "surrogate"] {
            let text = format!(
                "{{\"pr\": 6, \"req_per_s\": 48000.0}}\n\
                 {{\"pr\": 7, \"mode\": \"{mode}\", \"req_per_s\": 6000.0}}\n\
                 {{\"pr\": 7, \"req_per_s\": 48100.0}}\n"
            );
            let pts = parse_points(&text);
            assert_eq!(pts.len(), 2, "{mode}");
            assert_eq!(pts[1].pr, 7);
            assert!(check(&pts, 0.10).is_ok());
        }
    }

    #[test]
    fn accepts_growth_and_small_dips() {
        let pts = [
            TrajPoint {
                pr: 5,
                req_per_s: 100.0,
            },
            TrajPoint {
                pr: 6,
                req_per_s: 95.0, // -5% is inside the 10% tolerance
            },
        ];
        assert!(check(&pts, 0.10).is_ok());
        assert!(render(&pts).contains("-5.0"));
    }

    #[test]
    fn rejects_big_regressions_and_pr_reordering() {
        let cliff = [
            TrajPoint {
                pr: 5,
                req_per_s: 100.0,
            },
            TrajPoint {
                pr: 6,
                req_per_s: 80.0,
            },
        ];
        let err = check(&cliff, 0.10).unwrap_err();
        assert!(err.contains("regressed"), "{err}");

        let reorder = [
            TrajPoint {
                pr: 6,
                req_per_s: 100.0,
            },
            TrajPoint {
                pr: 6,
                req_per_s: 100.0,
            },
        ];
        assert!(check(&reorder, 0.10).unwrap_err().contains("strictly"));
        assert!(check(&[], 0.10).is_err());
    }
}
