//! A tiny hand-rolled benchmark harness (no registry dependencies).
//!
//! Two bench suites live under `benches/`:
//!
//! * `kernels` — the performance-critical primitives: the nonlinear
//!   cross-point solve, the analytic drop model, PR vector construction,
//!   Flip-N-Write encoding, wear-leveling remap, write planning, the
//!   memory controller's scheduling loop, and a telemetry-off overhead
//!   comparison for the instrumented solver.
//! * `figures` — one group per paper table/figure, running the same
//!   experiment functions as the `experiments` binary on reduced budgets.
//!   Gated behind the `bench` cargo feature (`cargo bench --features
//!   bench --bench figures`) because a full sweep takes minutes.
//!
//! The harness auto-calibrates the iteration count so each measurement
//! round runs for at least a few milliseconds, takes the minimum over
//! rounds (the standard estimator for a noisy shared machine), and prints
//! one line per benchmark. `cargo test` executes each registered closure
//! exactly once (smoke mode), so benches stay compile- and run-checked
//! without costing test time.

#![forbid(unsafe_code)]

use reram_obs::json::write_string;
pub use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured timing for one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name.
    pub name: String,
    /// Iterations per measurement round.
    pub iters_per_round: u64,
    /// Number of measurement rounds.
    pub rounds: usize,
    /// Fastest per-iteration time observed (ns).
    pub min_ns: f64,
    /// Median per-iteration round time (ns).
    pub median_ns: f64,
    /// Mean per-iteration time across all rounds (ns).
    pub mean_ns: f64,
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The benchmark runner: register closures with [`Harness::bench`], then
/// call [`Harness::finish`].
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    smoke: bool,
    quick: bool,
    json_out: Option<PathBuf>,
    results: Vec<Stats>,
}

impl Harness {
    /// Builds a harness from the process arguments.
    ///
    /// Cargo's flags (`--bench`, `--test`, `--exact`, …) are ignored except
    /// that `--test` switches to smoke mode (each benchmark runs once); the
    /// first non-flag argument is a substring filter on benchmark names.
    /// `--quick` measures with a shorter calibration target and fewer
    /// rounds (for CI legs that assert on ratios, not publishable numbers),
    /// and `--json PATH` (or `--json=PATH`) dumps the measured [`Stats`] as
    /// JSON when the run finishes.
    #[must_use]
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut smoke = false;
        let mut quick = false;
        let mut json_out = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--test" {
                smoke = true;
            } else if arg == "--quick" {
                quick = true;
            } else if arg == "--json" {
                json_out = args.next().map(PathBuf::from);
            } else if let Some(path) = arg.strip_prefix("--json=") {
                json_out = Some(PathBuf::from(path));
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Self {
            filter,
            smoke,
            quick,
            json_out,
            results: Vec::new(),
        }
    }

    /// True when running under `cargo test` (`--test`): each benchmark body
    /// executes once, nothing is measured.
    #[must_use]
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// True for full-fidelity measurement runs (neither `--test` nor
    /// `--quick`); suites gate their most expensive entries on this.
    #[must_use]
    pub fn is_full(&self) -> bool {
        !self.smoke && !self.quick
    }

    /// True if `name` passes the command-line filter.
    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Runs (or, in smoke mode, just invokes) one benchmark.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        if self.smoke {
            black_box(f());
            println!("smoke {name}: ok");
            return;
        }
        // Calibrate: grow the iteration count until a round takes ≥ 2 ms
        // (0.5 ms in quick mode), capping calibration time for very slow
        // bodies.
        let round_target_s = if self.quick { 5e-4 } else { 2e-3 };
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt.as_secs_f64() >= round_target_s || iters >= 1 << 20 {
                break;
            }
            iters *= 4;
        }
        // Measure: enough rounds for a stable minimum, fewer for slow bodies.
        let rounds = match (self.quick, iters) {
            (true, _) => 3,
            (false, 1) => 5,
            (false, _) => 11,
        };
        let mut per_iter: Vec<f64> = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            name: name.to_string(),
            iters_per_round: iters,
            rounds,
            min_ns: per_iter[0],
            median_ns: per_iter[rounds / 2],
            mean_ns: per_iter.iter().sum::<f64>() / rounds as f64,
        };
        println!(
            "bench {:<44} min {:>12}  median {:>12}  ({} iters x {} rounds)",
            stats.name,
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            stats.iters_per_round,
            stats.rounds,
        );
        self.results.push(stats);
    }

    /// Results measured so far (empty in smoke mode).
    #[must_use]
    pub fn results(&self) -> &[Stats] {
        &self.results
    }

    /// Looks up a finished benchmark by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Stats> {
        self.results.iter().find(|s| s.name == name)
    }

    /// Prints the `a` / `b` minimum-time ratio and returns it (`None` in
    /// smoke mode or when either name was filtered out).
    pub fn compare(&self, a: &str, b: &str) -> Option<f64> {
        let (sa, sb) = (self.get(a)?, self.get(b)?);
        let ratio = sa.min_ns / sb.min_ns;
        println!("compare {a} / {b}: {ratio:.3}x");
        Some(ratio)
    }

    /// Serializes the measured results as a JSON document (hand-rolled —
    /// this workspace takes no serialization dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"results\": [\n");
        for (k, s) in self.results.iter().enumerate() {
            out.push_str("    {\"name\": ");
            write_string(&mut out, &s.name);
            out.push_str(&format!(
                ", \"iters_per_round\": {}, \"rounds\": {}, \
                 \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}}}{}\n",
                s.iters_per_round,
                s.rounds,
                s.min_ns,
                s.median_ns,
                s.mean_ns,
                if k + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`Harness::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Finishes the run; writes the `--json` report if one was requested.
    ///
    /// # Panics
    ///
    /// Panics if the `--json` path cannot be written.
    pub fn finish(self) {
        if let Some(path) = &self.json_out {
            self.write_json(path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
        if !self.smoke {
            println!("benchmarks complete: {}", self.results.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(filter: Option<String>) -> Harness {
        Harness {
            filter,
            smoke: false,
            quick: true,
            json_out: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn harness_measures_and_compares() {
        let mut h = bare(None);
        h.bench("noop", || black_box(1u64 + 1));
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(h.results().len(), 2);
        assert!(h.get("noop").unwrap().min_ns >= 0.0);
        let ratio = h.compare("spin", "noop").unwrap();
        assert!(ratio > 0.0);
        h.finish();
    }

    #[test]
    fn filter_skips_unselected() {
        let mut h = bare(Some("only_this".into()));
        h.bench("other", || 1);
        assert!(h.results().is_empty());
    }

    #[test]
    fn json_report_lists_every_result() {
        let mut h = bare(None);
        h.bench("alpha", || black_box(2u64 * 2));
        h.bench("beta", || black_box(3u64 * 3));
        let nasty = "gamma \\ \"q\"\t\u{1}";
        h.bench(nasty, || black_box(4u64 * 4));
        let json = h.to_json();
        assert!(json.contains("\"name\": \"alpha\""), "{json}");
        assert!(json.contains("\"name\": \"beta\""), "{json}");
        assert!(json.contains("\"min_ns\""), "{json}");
        // Valid JSON whatever the names hold: every one reads back.
        let doc = reram_obs::Json::parse(&json).expect("valid JSON");
        let Some(reram_obs::Json::Arr(results)) = doc.get("results") else {
            panic!("no results array: {json}");
        };
        let names: Vec<_> = results
            .iter()
            .filter_map(|r| r.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["alpha", "beta", nasty]);
    }
}
