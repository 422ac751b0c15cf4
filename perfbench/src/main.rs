//! `perfbench` — the repository benchmark: one workload per run, its
//! end-to-end metrics (untraced) or its per-layer metrics (traced), and a
//! correctness gate on every output it produces.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `figures`, `exact-physics`, `serve-read`, `serve-replicated-write`.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a run whose outputs are
//! wrong prints `"correct": false` and exits nonzero.

mod figures;
mod gen;
mod physics;
mod report;
mod serve;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget of the run, seconds.
    pub seconds: f64,
    /// True for the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record") {
        // Golden-digest recorder: `perfbench record figures|exact-physics`
        // prints the digest file the correctness gate compares against.
        let text = match argv.get(1).map(String::as_str) {
            Some("figures") => figures::record(),
            Some("exact-physics") => physics::record(),
            _ => Err("usage: perfbench record figures|exact-physics".into()),
        };
        return match text {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload figures|exact-physics|serve-read|\
                 serve-replicated-write --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "figures" => figures::run(&args),
        "exact-physics" => physics::run(&args),
        "serve-read" => serve::run(serve::Kind::Read, &args),
        "serve-replicated-write" => serve::run(serve::Kind::ReplicatedWrite, &args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(mut rep) => {
            rep.set("peak_rss_mb", report::peak_rss_mb());
            match rep.print(args.trace) {
                Ok(()) if rep.correct => ExitCode::SUCCESS,
                Ok(()) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload figures --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "figures");
        assert_eq!(a.seed, 7);
        assert!((a.seconds - 10.0).abs() < 1e-12);
        assert!(a.trace);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload figures --seed x --seconds 1",
            "--workload figures --seed 1 --seconds 0",
            "--workload figures --seed 1 --seconds 1 --trace 2",
            "--workload figures --seed 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
