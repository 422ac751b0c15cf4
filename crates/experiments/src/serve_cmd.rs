//! The `serve` and `loadgen` subcommands: run the sharded memory service
//! and drive it with seeded traffic.
//!
//! ```text
//! experiments serve   [--addr HOST:PORT] [--shards N] [--lines-per-shard N]
//!                     [--queue-cap N] [--batch-max N] [--workers N]
//!                     [--faults PLAN.json] [--telemetry DIR]
//!                     [--trace DIR] [--trace-sample N]
//! experiments loadgen [--addr HOST:PORT] [--clients N] [--requests N]
//!                     [--seed S] [--profile NAME] [--closed-loop]
//!                     [--open-loop GAP_US] [--no-audit] [--json PATH]
//!                     [--shards N] [--lines-per-shard N] [--queue-cap N]
//!                     [--batch-max N] [--faults PLAN.json] [--telemetry DIR]
//!                     [--trace DIR] [--trace-sample N] [--poll-stats MS]
//!                     [--slo-p99 US]
//! ```
//!
//! `serve` binds, prints the resolved address, and runs until a client
//! sends `DRAIN`. `loadgen` drives an external server when `--addr` is
//! given; without it, it **self-hosts** an in-process server (this is what
//! CI's `serve-smoke` leg and `BENCH_serve.json` use — one command, fully
//! deterministic, drained on exit). `--faults` arms the server-side
//! injection sites (`serve.conn.drop`, `serve.shard.stall`,
//! `serve.resp.corrupt`) and is therefore only legal when self-hosting.
//!
//! `--trace DIR` arms request-scoped tracing (`--trace-sample N` sets the
//! 1/N sampling period, default 64): the load generator writes
//! `DIR/client_spans.jsonl` and a self-hosted (or `serve`-side) server
//! writes `DIR/server_spans.jsonl`, ready for `experiments trace-report`.
//! `--poll-stats MS` polls the server's `STATS_JSON` snapshot mid-run and
//! `--slo-p99 US` scores the RTT distribution against a p99 budget
//! (burn-rate gauges under `loadgen.slo.*`).

use reram_fault::{FaultInjector, FaultPlan};
use reram_loadgen::{LoadConfig, Mode};
use reram_obs::{Obs, Tracer};
use reram_serve::{ServeConfig, Server};
use reram_workloads::BenchProfile;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Parses a required positive-integer flag value.
pub(crate) fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    v.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// Builds the obs registry for `--telemetry DIR` (JSONL events + summary
/// on drop is the caller's concern; the subcommands just need the sink).
pub(crate) fn obs_for(telemetry: Option<&PathBuf>) -> Result<Obs, String> {
    match telemetry {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create telemetry dir {}: {e}", dir.display()))?;
            Obs::jsonl(&dir.join("events.jsonl"))
                .map_err(|e| format!("cannot open telemetry sink: {e}"))
        }
        None => Ok(Obs::off()),
    }
}

pub(crate) fn load_faults(
    path: Option<&PathBuf>,
    obs: &Obs,
) -> Result<Option<Arc<FaultInjector>>, String> {
    match path {
        Some(p) => {
            let plan = FaultPlan::load(p)
                .map_err(|e| format!("cannot load fault plan {}: {e}", p.display()))?;
            eprintln!(
                "[faults: {} scheduled, seed {}]",
                plan.faults.len(),
                plan.seed
            );
            Ok(Some(Arc::new(FaultInjector::new(plan, obs))))
        }
        None => Ok(None),
    }
}

/// Writes the telemetry summaries (CSV + JSON) when a sink was attached.
pub(crate) fn finish_telemetry(obs: &Obs, telemetry: Option<&PathBuf>) {
    if let Some(dir) = telemetry {
        obs.flush();
        for (name, text) in [
            ("telemetry_summary.csv", obs.summary_csv()),
            ("telemetry_summary.json", obs.summary_json()),
        ] {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("failed to write {}: {e}", path.display());
            }
        }
    }
}

/// Builds the tracer for `--trace DIR` (ensuring the dir exists) or a
/// disabled one.
fn tracer_for(trace_dir: Option<&PathBuf>, sample: u64) -> Result<Tracer, String> {
    match trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create trace dir {}: {e}", dir.display()))?;
            Ok(Tracer::new(sample))
        }
        None => Ok(Tracer::off()),
    }
}

/// Drains a tracer to `DIR/<name>` when tracing was armed.
fn write_spans(tracer: &Tracer, trace_dir: Option<&PathBuf>, name: &str) {
    let Some(dir) = trace_dir else { return };
    let path = dir.join(name);
    match tracer.write_jsonl(&path) {
        Ok(n) => eprintln!("[{n} span(s) written to {}]", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// `experiments serve ...` — run the service until drained.
pub fn serve_cmd(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut fault_path: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_sample = 64u64;
    let mut it = args.iter().cloned();
    let parsed: Result<(), String> = (|| {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => cfg.addr = it.next().ok_or("--addr needs HOST:PORT")?,
                "--shards" => cfg.shards = parse_num("--shards", it.next())?,
                "--lines-per-shard" => {
                    cfg.lines_per_shard = parse_num("--lines-per-shard", it.next())?;
                }
                "--queue-cap" => cfg.queue_cap = parse_num("--queue-cap", it.next())?,
                "--batch-max" => cfg.batch_max = parse_num("--batch-max", it.next())?,
                "--workers" => cfg.workers = parse_num("--workers", it.next())?,
                "--faults" => {
                    fault_path = Some(PathBuf::from(it.next().ok_or("--faults needs a file")?))
                }
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a dir")?));
                }
                "--trace" => {
                    trace_dir = Some(PathBuf::from(it.next().ok_or("--trace needs a dir")?));
                }
                "--trace-sample" => trace_sample = parse_num("--trace-sample", it.next())?,
                other => return Err(format!("unknown serve flag {other}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let obs = match obs_for(telemetry.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = match load_faults(fault_path.as_ref(), &obs) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = match tracer_for(trace_dir.as_ref(), trace_sample) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start_traced(&cfg, &obs, tracer.clone(), faults) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "reram-serve listening on {} (shards={}, lines={}, queue_cap={}, batch_max={}, \
         scheme={:?})",
        server.local_addr(),
        cfg.shards,
        cfg.shards as u64 * cfg.lines_per_shard,
        cfg.queue_cap,
        cfg.batch_max,
        cfg.scheme,
    );
    server.join();
    println!("reram-serve drained and stopped");
    write_spans(&tracer, trace_dir.as_ref(), "server_spans.jsonl");
    finish_telemetry(&obs, telemetry.as_ref());
    ExitCode::SUCCESS
}

/// `experiments loadgen ...` — drive a server (self-hosted by default).
#[allow(clippy::too_many_lines)]
pub fn loadgen_cmd(args: &[String]) -> ExitCode {
    let mut server_cfg = ServeConfig::default();
    let mut external_addr: Option<String> = None;
    let mut clients = 64usize;
    let mut requests = 256u64;
    let mut seed = 42u64;
    let mut profile_name = "mix_1".to_string();
    let mut mode = Mode::Closed;
    let mut audit = true;
    let mut json_path: Option<PathBuf> = None;
    let mut fault_path: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_sample = 64u64;
    let mut poll_stats_ms = 0u64;
    let mut slo_p99_us = 0.0f64;
    let mut durable_dir: Option<PathBuf> = None;
    let mut it = args.iter().cloned();
    let parsed: Result<(), String> = (|| {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => external_addr = Some(it.next().ok_or("--addr needs HOST:PORT")?),
                "--clients" => clients = parse_num("--clients", it.next())?,
                "--requests" => requests = parse_num("--requests", it.next())?,
                "--seed" => seed = parse_num("--seed", it.next())?,
                "--profile" => profile_name = it.next().ok_or("--profile needs a name")?,
                "--closed-loop" => mode = Mode::Closed,
                "--open-loop" => {
                    mode = Mode::Open {
                        interval_us: parse_num("--open-loop", it.next())?,
                    };
                }
                "--no-audit" => audit = false,
                "--json" => {
                    json_path = Some(PathBuf::from(it.next().ok_or("--json needs a path")?))
                }
                "--shards" => server_cfg.shards = parse_num("--shards", it.next())?,
                "--lines-per-shard" => {
                    server_cfg.lines_per_shard = parse_num("--lines-per-shard", it.next())?;
                }
                "--queue-cap" => server_cfg.queue_cap = parse_num("--queue-cap", it.next())?,
                "--batch-max" => server_cfg.batch_max = parse_num("--batch-max", it.next())?,
                "--faults" => {
                    fault_path = Some(PathBuf::from(it.next().ok_or("--faults needs a file")?))
                }
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a dir")?));
                }
                "--trace" => {
                    trace_dir = Some(PathBuf::from(it.next().ok_or("--trace needs a dir")?));
                }
                "--trace-sample" => trace_sample = parse_num("--trace-sample", it.next())?,
                "--poll-stats" => poll_stats_ms = parse_num("--poll-stats", it.next())?,
                "--slo-p99" => slo_p99_us = parse_num("--slo-p99", it.next())?,
                "--durable" => {
                    durable_dir = Some(PathBuf::from(it.next().ok_or("--durable needs a dir")?));
                }
                other => return Err(format!("unknown loadgen flag {other}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if external_addr.is_some() && fault_path.is_some() {
        eprintln!("error: --faults arms the *server*; it requires self-hosting (drop --addr)");
        return ExitCode::FAILURE;
    }
    if external_addr.is_some() && durable_dir.is_some() {
        eprintln!("error: --durable opens the *hosted* server's WAL; drop --addr to self-host");
        return ExitCode::FAILURE;
    }
    let Some(profile) = BenchProfile::by_name(&profile_name) else {
        let names: Vec<&str> = BenchProfile::table_iv().iter().map(|p| p.name).collect();
        eprintln!(
            "error: unknown profile {profile_name}; valid: {}",
            names.join(" ")
        );
        return ExitCode::FAILURE;
    };
    let obs = match obs_for(telemetry.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let client_tracer = match tracer_for(trace_dir.as_ref(), trace_sample) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The hosted server gets its own tracer (own epoch, own file); an
    // external server writes spans on its side via `serve --trace`.
    let server_tracer = if trace_dir.is_some() {
        Tracer::new(trace_sample)
    } else {
        Tracer::off()
    };

    // Self-host unless an external address was given.
    let (addr, hosted) = match &external_addr {
        Some(a) => match a.parse() {
            Ok(sa) => (sa, None),
            Err(e) => {
                eprintln!("error: bad --addr {a}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let faults = match load_faults(fault_path.as_ref(), &obs) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let started = match &durable_dir {
                Some(dir) => {
                    Server::start_durable(&server_cfg, &obs, server_tracer.clone(), faults, dir)
                }
                None => Server::start_traced(&server_cfg, &obs, server_tracer.clone(), faults),
            };
            let server = match started {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot bind {}: {e}", server_cfg.addr);
                    return ExitCode::FAILURE;
                }
            };
            (server.local_addr(), Some(server))
        }
    };

    let cfg = LoadConfig {
        addr,
        clients,
        requests_per_client: requests,
        seed,
        profile,
        total_lines: server_cfg.shards as u64 * server_cfg.lines_per_shard,
        mode,
        audit,
        drain: hosted.is_some(),
        trace_sample: if trace_dir.is_some() { trace_sample } else { 0 },
        poll_stats_ms,
        slo_p99_budget_us: slo_p99_us,
        peers: Vec::new(),
    };
    let report = reram_loadgen::run_traced(&cfg, &obs, &client_tracer);
    let self_hosted = hosted.is_some();
    if let Some(server) = hosted {
        server.join();
    }
    write_spans(&client_tracer, trace_dir.as_ref(), "client_spans.jsonl");
    if self_hosted {
        write_spans(&server_tracer, trace_dir.as_ref(), "server_spans.jsonl");
    }

    let json = report.to_json();
    println!("{json}");
    if let Some(p) = &json_path {
        if let Err(e) = std::fs::write(p, format!("{json}\n")) {
            eprintln!("failed to write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[report written to {}]", p.display());
    }
    finish_telemetry(&obs, telemetry.as_ref());
    if report.audit_failures > 0 || report.read_mismatches > 0 {
        eprintln!(
            "error: durability violated (audit_failures={}, read_mismatches={})",
            report.audit_failures, report.read_mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
