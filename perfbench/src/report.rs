//! The metric catalogue, the run report and its printer, plus the small
//! statistics every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, each one measured
/// (never defaulted) on every workload. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_us.low", "us"),
    ("lat_p90_us.low", "us"),
    ("lat_p50_us.high", "us"),
    ("lat_p90_us.high", "us"),
];

/// Per-layer metrics: printed by every traced run. A layer a workload does
/// not load reads 0 — that is the prediction, not a missing value.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_share", "share"),
    ("experiments.job_s.fig14", "s"),
    ("experiments.job_s.fig15", "s"),
    ("experiments.job_s.fig16", "s"),
    ("experiments.job_s.fig17", "s"),
    ("experiments.job_s.sweeps", "s"),
    ("experiments.critical_path_s", "s"),
    ("exec.idle_share", "share"),
    ("exec.pool.steals", "count"),
    ("exec.dag.jobs_done", "count"),
    ("sim.runs", "count"),
    ("sim.minst", "Minst"),
    ("sim.host_ns_per_kinst", "ns"),
    ("workloads.accesses", "count"),
    ("workloads.ns_per_access", "ns"),
    ("mem.controller.writes", "count"),
    ("mem.controller.write_bursts", "count"),
    ("mem.controller.read_priority_stalls", "count"),
    ("mem.pump.recharges", "count"),
    ("core.pr.dummy_resets", "count"),
    ("core.pr.concurrent_resets.p50", "count"),
    ("sim.physics.exact_solves", "count"),
    ("circuit.exact_solve_ms", "ms"),
    ("physics.share", "share"),
    ("serve.decode_us.p50", "us"),
    ("serve.queue_us.p50", "us"),
    ("serve.gate_us.p50", "us"),
    ("serve.service_us.p50", "us"),
    ("serve.write_us.p50", "us"),
    ("serve.wire_other_us.p50", "us"),
    ("serve.decode.share", "share"),
    ("serve.queue.share", "share"),
    ("serve.gate.share", "share"),
    ("serve.service.share", "share"),
    ("serve.write.share", "share"),
    ("serve.wire_other.share", "share"),
    ("serve.queue_us.p99", "us"),
    ("serve.busy", "count"),
    ("serve.max_rate_rps", "1/s"),
    ("mem.verify.attempts_per_write.mean", "count"),
    ("mem.verify.retries", "count"),
    ("serve.shard.sim_write_ns.p50", "ns"),
    ("repl.wait_us.p50", "us"),
    ("repl.wait_us.p99", "us"),
    ("repl.wait.share", "share"),
    ("cluster.msgs_per_write", "count"),
    ("cluster.elections", "count"),
    ("durable.wal.appends_per_write", "count"),
    ("durable.share", "share"),
    ("durable.open_s", "s"),
    ("gen.late_us.p99", "us"),
    ("gen.backlog_max", "count"),
    ("gen.threads", "count"),
    ("gen.conns", "count"),
    ("trace.overhead_share", "share"),
    ("trace.stage_share_sum", "share"),
    ("trace.negative_residuals", "count"),
];

/// One run's outcome: the correctness verdict, the operation counts and
/// the measured metrics.
#[derive(Debug)]
pub struct Report {
    /// False once any correctness gate tripped.
    pub correct: bool,
    /// Operations attempted (jobs, simulations or requests).
    pub attempted: u64,
    /// Operations that failed, were shed or produced a wrong output.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both catalogues (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(known.0, value);
    }

    /// Trips the correctness gate with a reason on stderr.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: correctness gate: {why}");
        self.correct = false;
    }

    /// The result object (the last stdout line) for the `trace` mode.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that was not measured, or any non-finite value.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        ))
    }

    /// Prints every metric of the mode by name with its unit, the host
    /// fingerprint, then the result object as the last line.
    ///
    /// # Errors
    ///
    /// As [`Report::result_json`].
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let json = self.result_json(trace)?;
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in table {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            println!("{name:<40} {v:>16.4} {unit}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        println!("{}", host_fingerprint());
        println!("{json}");
        Ok(())
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

/// One JSON line naming the host the numbers came from: cores, CPU model,
/// kernel and compiler.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\"}}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc)
    )
}

/// CPU time this process has used so far (user + system), seconds, from
/// `/proc/self/stat` at the usual 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank `q`-quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in [
            "figures",
            "exact-physics",
            "serve-read",
            "serve-replicated-write",
        ] {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory alone, without the manifest
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_layers_default_to_zero() {
        let mut r = Report::new();
        r.set("setup_s", 1.0);
        assert!(r.result_json(false).is_err());
        let traced = r.result_json(true).unwrap();
        assert!(traced.contains("\"error_share\": {\"value\": 0, \"unit\": \"share\"}"));
        for (name, _) in END_TO_END {
            r.set(name, 2.5);
        }
        let json = r.result_json(false).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        r.set("wall_s", f64::NAN);
        assert!(r.result_json(false).is_err());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
