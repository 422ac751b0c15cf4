//! The serve workloads: the memory service driven open-loop by
//! [`crate::gen`] over two connections.
//!
//! * `serve-read` — one in-memory, analytic `Server` and `tig_m` traffic
//!   (92 % reads): wire decode, admission and the shard read path.
//! * `serve-replicated-write` — a 3-replica majority `ClusterGroup` with a
//!   per-replica WAL and `mcf_m` traffic (48 % writes): writes block their
//!   connection in `replicate_write`, pass the verify ladder and are
//!   journaled on every replica.
//!
//! Untraced, one run starts the system several times (`setup_s`: start to
//! first answered probe), then offers a frozen low and a frozen high rate
//! (latency from each request's due time), then pushes fixed closed-loop
//! batches (`wall_s`: the median batch), then audits every acknowledged
//! write and, for the cluster, replica convergence.

use crate::gen::{self, Conn, Pace, PhaseStats, CONNS};
use crate::report::{median, quantile, ratio, Report};
use crate::Args;
use reram_cluster::{ClusterGroup, GroupConfig};
use reram_durable::{DurableConfig, DurableLog};
use reram_experiments::trace_report::{analyze, Span};
use reram_obs::{Obs, Tracer};
use reram_serve::{Client, Request, Response, ServeConfig, Server, WIRE_ENTRY_BYTES};
use reram_workloads::BenchProfile;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-read`.
    Read,
    /// `serve-replicated-write`.
    ReplicatedWrite,
}

/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 3;

/// Closed-loop batches per run (`wall_s` is their median).
const BATCHES: usize = 5;

/// Slices each open-loop phase's latency percentiles are taken over. WAL
/// and snapshot I/O on a shared disk stalls the replicated group for
/// milliseconds at random moments; with 32 slices of a phase a stall
/// moves a few slices' p99 instead of the reported median of slices.
const WINDOWS: usize = 32;

/// The p99 limit of the rate ladder, µs.
const P99_LIMIT_US: f64 = 1000.0;

/// Consensus tick of the replicated group. The pump catches up missed
/// ticks in a burst, so at the default 1 ms a scheduler stall of ~10 ms on
/// a 2-core host fires an election mid-run; 10 ms ticks need a 100 ms
/// stall. Write latency does not depend on it: proposals wake the pump.
const TICK_MS: u64 = 10;

/// Seconds per ladder rung.
const RUNG_S: f64 = 1.0;

struct Shape {
    profile: &'static str,
    /// Frozen offered rates, req/s, below the knee of the
    /// `serve.max_rate_rps` measured when the benchmark was defined (40-70k
    /// and 6-8k req/s): closer to the knee the run-to-run spread of the
    /// tail exceeded the bound on a 2-core host.
    low_rps: f64,
    high_rps: f64,
    /// Requests per closed-loop batch, and outstanding per connection.
    batch: u64,
    window: usize,
    /// The fixed rate ladder for `serve.max_rate_rps`, ascending.
    ladder: &'static [f64],
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::Read => Shape {
            profile: "tig_m",
            low_rps: 8_000.0,
            high_rps: 24_000.0,
            batch: 60_000,
            window: 16,
            ladder: &[
                10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0,
                90_000.0, 100_000.0, 120_000.0, 140_000.0,
            ],
        },
        Kind::ReplicatedWrite => Shape {
            profile: "mcf_m",
            low_rps: 1_500.0,
            high_rps: 3_000.0,
            batch: 10_000,
            window: 8,
            ladder: &[
                2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0,
                18_000.0, 20_000.0, 24_000.0, 28_000.0, 32_000.0,
            ],
        },
    }
}

/// A running system under test.
struct System {
    server: Option<Server>,
    group: Option<ClusterGroup>,
    addr: SocketAddr,
    dir: Option<PathBuf>,
}

impl System {
    /// Starts the system and times it until a first read is answered.
    fn start(
        kind: Kind,
        obs: &Obs,
        tracer: &Tracer,
        seed: u64,
        dir: Option<PathBuf>,
    ) -> Result<(System, f64), String> {
        let t = Instant::now();
        let sys = match kind {
            Kind::Read => {
                let s = Server::start_traced(&ServeConfig::default(), obs, tracer.clone(), None)
                    .map_err(|e| format!("server start: {e}"))?;
                System {
                    addr: s.local_addr(),
                    server: Some(s),
                    group: None,
                    dir,
                }
            }
            Kind::ReplicatedWrite => {
                let mut cfg = GroupConfig::new(ServeConfig::default(), seed);
                cfg.durable_dir.clone_from(&dir);
                cfg.tick_ms = TICK_MS;
                let g = ClusterGroup::start(&cfg, obs, tracer.clone(), None)
                    .map_err(|e| format!("cluster start: {e}"))?;
                let leader = g
                    .wait_for_leader(Duration::from_secs(10))
                    .ok_or("no leader elected within 10 s")?;
                System {
                    addr: g.addrs()[leader as usize],
                    server: None,
                    group: Some(g),
                    dir,
                }
            }
        };
        let mut probe = Client::connect(sys.addr).map_err(|e| format!("probe connect: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match probe.call(&Request::ReadLine { line: 0 }) {
                Ok(Response::ReadOk { .. }) => break,
                Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("first probe answered {other:?}")),
            }
        }
        Ok((sys, t.elapsed().as_secs_f64()))
    }

    /// Checks replica convergence (cluster only), then stops everything and
    /// removes the durable directory. Returns the gate failure, if any.
    fn stop(self) -> Option<String> {
        let mut why = None;
        if let Some(g) = self.group {
            if !g.wait_converged(Duration::from_secs(10)) {
                why = Some("replicas did not converge within 10 s".to_string());
            } else {
                // Every replica must hold the same stored lines. Log digests
                // legitimately differ once a lagging follower catches up
                // from a snapshot instead of the entries it missed.
                let stores = g.store_digests();
                if stores.is_empty() || !stores.iter().all(|d| d.is_some() && *d == stores[0]) {
                    why = Some(format!("replica store digests disagree: {stores:?}"));
                }
            }
            g.shutdown();
        }
        if let Some(s) = self.server {
            s.stop();
            s.join();
        }
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
        why
    }
}

/// A scratch directory for WAL state inside the build directory of the
/// checkout the benchmark runs from.
fn state_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench-state")
        .join(format!("{tag}-{}", std::process::id()))
}

fn open_conns(sys: &System, profile: &str, seed: u64) -> Result<Vec<Conn>, String> {
    let p = BenchProfile::by_name(profile).expect("table IV profile");
    let cfg = ServeConfig::default();
    let lines = cfg.shards as u64 * cfg.lines_per_shard / CONNS as u64;
    (0..CONNS)
        .map(|i| Conn::open(sys.addr, i, p, seed, lines).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Folds a phase into the report's operation counts and gates.
fn account(rep: &mut Report, what: &str, s: &PhaseStats) {
    rep.attempted += s.attempted;
    rep.failed += s.failed;
    if s.mismatches > 0 {
        rep.fail(format!(
            "{what}: {} reads inconsistent with the client's acknowledged writes",
            s.mismatches
        ));
    }
}

/// Times opening the three replica logs of a fresh durable group — the WAL
/// work inside the cluster's set-up.
fn wal_open_s(dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    for id in 0..3 {
        let cfg = DurableConfig::new(dir.join(format!("replica{id}")), WIRE_ENTRY_BYTES);
        DurableLog::open(cfg, &Obs::off(), None).map_err(|e| format!("wal open: {e}"))?;
    }
    let s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok(s)
}

/// Runs a serve workload.
///
/// # Errors
///
/// Start-up, transport or framing failures.
pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(kind, args);
    }
    let sh = shape(kind);
    let mut rep = Report::new();
    let t_run = Instant::now();
    let durable = kind == Kind::ReplicatedWrite;
    let mut setups = Vec::new();
    let mut sys = None;
    for i in 0..SETUPS {
        let dir = durable.then(|| state_dir(&format!("setup{i}")));
        let (s, secs) = System::start(kind, &Obs::off(), &Tracer::off(), args.seed, dir)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            if let Some(why) = s.stop() {
                rep.fail(why);
            }
        } else {
            sys = Some(s);
        }
    }
    let sys = sys.expect("at least one set-up");
    rep.set("setup_s", median(&setups));
    let mut conns = open_conns(&sys, sh.profile, args.seed)?;
    let warm = gen::run_phase(
        &mut conns,
        Pace::Open {
            rate_rps: sh.low_rps,
            seconds: 0.5,
        },
        0,
    )?;
    account(&mut rep, "warm-up", &warm);
    // The rest of the budget: two open-loop phases and the batches.
    let batch_s_guess = 0.5;
    let phase_s = ((args.seconds - t_run.elapsed().as_secs_f64() - BATCHES as f64 * batch_s_guess)
        / 2.0)
        .max(1.0);
    let low = gen::run_phase(
        &mut conns,
        Pace::Open {
            rate_rps: sh.low_rps,
            seconds: phase_s,
        },
        0,
    )?;
    account(&mut rep, "low rate", &low);
    let high = gen::run_phase(
        &mut conns,
        Pace::Open {
            rate_rps: sh.high_rps,
            seconds: phase_s,
        },
        0,
    )?;
    account(&mut rep, "high rate", &high);
    let mut walls = Vec::new();
    for _ in 0..BATCHES {
        let b = gen::run_phase(
            &mut conns,
            Pace::Closed {
                window: sh.window,
                requests: sh.batch,
            },
            0,
        )?;
        account(&mut rep, "batch", &b);
        walls.push(b.wall_s);
    }
    rep.set("wall_s", median(&walls));
    rep.set("lat_p50_us.low", low.windowed_us(0.50, WINDOWS));
    rep.set("lat_p90_us.low", low.windowed_us(0.90, WINDOWS));
    rep.set("lat_p50_us.high", high.windowed_us(0.50, WINDOWS));
    rep.set("lat_p90_us.high", high.windowed_us(0.90, WINDOWS));
    let audit = gen::run_phase(&mut conns, Pace::Audit { window: sh.window }, 0)?;
    account(&mut rep, "read-back audit", &audit);
    drop(conns);
    if let Some(why) = sys.stop() {
        rep.fail(why);
    }
    Ok(rep)
}

/// Per-stage p50 and share of the traced requests' RTT, via the trace
/// report's duration join of client roots and server spans.
fn stage_breakdown(rep: &mut Report, tracer: &Tracer, traced: &[(u64, u64)]) {
    let mut spans: Vec<Span> = tracer
        .drain()
        .into_iter()
        .map(|s| Span {
            trace: s.trace_id,
            span: s.span_id,
            parent: s.parent_span_id.max(1),
            stage: s.stage.to_string(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            detail: s.detail,
        })
        .collect();
    // Server spans of untraced traffic cannot exist; any span whose trace
    // has no client root (e.g. a leader-change marker) is not a request.
    let roots: std::collections::HashSet<u64> = traced.iter().map(|t| t.0).collect();
    spans.retain(|s| roots.contains(&s.trace));
    spans.extend(traced.iter().map(|&(trace, rtt)| Span {
        trace,
        span: trace,
        parent: 0,
        stage: "client.rtt".into(),
        start_ns: 0,
        end_ns: rtt,
        detail: 0,
    }));
    let r = analyze(&spans, 1);
    let mut share_sum = 0.0;
    for (stage, key) in [
        ("server.decode", "decode"),
        ("server.queue", "queue"),
        ("server.gate", "gate"),
        ("server.service", "service"),
        ("server.write", "write"),
        ("wire.other", "wire_other"),
        ("repl.wait", "repl"),
    ] {
        let Some(s) = r.stages.iter().find(|s| s.stage == stage) else {
            continue;
        };
        share_sum += s.share_pct / 100.0;
        if key == "repl" {
            rep.set("repl.wait.share", s.share_pct / 100.0);
            continue;
        }
        rep.set(&format!("serve.{key}_us.p50"), s.p50_us);
        rep.set(&format!("serve.{key}.share"), s.share_pct / 100.0);
        if key == "queue" {
            rep.set("serve.queue_us.p99", s.p99_us);
        }
    }
    rep.set("trace.stage_share_sum", share_sum);
    rep.set("trace.negative_residuals", r.overshoot as f64);
    if r.overshoot > 0 || !r.is_sound() {
        eprintln!(
            "perfbench: measurement error: {} of {} traces have server stages longer than \
             their RTT (negative wire.other residual), {} orphan spans",
            r.overshoot, r.joined, r.orphans
        );
    }
}

fn run_traced(kind: Kind, args: &Args) -> Result<Report, String> {
    let sh = shape(kind);
    let mut rep = Report::new();
    let obs = Obs::new();
    let tracer = Tracer::with_capacity(1, 1 << 20);
    let durable = kind == Kind::ReplicatedWrite;
    if durable {
        rep.set("durable.open_s", wal_open_s(&state_dir("walopen"))?);
    }
    let dir = durable.then(|| state_dir("traced"));
    let (sys, _) = System::start(kind, &obs, &tracer, args.seed, dir)?;
    let _ = tracer.drain();
    let mut conns = open_conns(&sys, sh.profile, args.seed)?;
    let phase_s = (args.seconds / 4.0).clamp(1.0, 5.0);
    let open = |rate_rps: f64, seconds: f64| Pace::Open { rate_rps, seconds };
    let warm = gen::run_phase(&mut conns, open(sh.low_rps, 0.5), 0)?;
    account(&mut rep, "warm-up", &warm);
    let plain = gen::run_phase(&mut conns, open(sh.high_rps, phase_s), 0)?;
    account(&mut rep, "high rate", &plain);
    let traced = gen::run_phase(&mut conns, open(sh.high_rps, phase_s), 8)?;
    account(&mut rep, "high rate, traced", &traced);
    if tracer.dropped() > 0 {
        eprintln!(
            "perfbench: {} spans dropped by full rings",
            tracer.dropped()
        );
    }
    stage_breakdown(&mut rep, &tracer, &traced.traced);
    let p50_plain = plain.windowed_us(0.5, WINDOWS);
    let p50_traced = traced.windowed_us(0.5, WINDOWS);
    rep.set(
        "trace.overhead_share",
        ratio(p50_traced - p50_plain, p50_plain),
    );
    rep.set(
        "gen.late_us.p99",
        quantile(
            &plain
                .late_ns
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect::<Vec<_>>(),
            0.99,
        ),
    );
    rep.set("gen.backlog_max", plain.backlog_max as f64);
    rep.set("gen.threads", CONNS as f64);
    rep.set("gen.conns", CONNS as f64);
    // The rate ladder: the highest rung whose p99 stays within the limit
    // with no growing backlog and nothing shed.
    let mut max_rate = 0.0;
    for &rate in sh.ladder {
        let s = gen::run_phase(&mut conns, open(rate, RUNG_S), 0)?;
        account(&mut rep, "rate ladder", &s);
        let p99 = s.windowed_us(0.99, WINDOWS);
        let ok = p99 <= P99_LIMIT_US && !s.backlog_grew && s.failed == 0;
        eprintln!(
            "perfbench: rung {rate} req/s: p99 {p99:.1} us, backlog max {}, grew {}, failed {}",
            s.backlog_max, s.backlog_grew, s.failed
        );
        if !ok {
            break;
        }
        max_rate = rate;
    }
    rep.set("serve.max_rate_rps", max_rate);
    let audit = gen::run_phase(&mut conns, Pace::Audit { window: sh.window }, 0)?;
    account(&mut rep, "read-back audit", &audit);
    drop(conns);
    let h = |n: &str| obs.hist(n).snapshot();
    let c = |n: &str| obs.counter(n).get() as f64;
    rep.set("serve.busy", c("serve.busy"));
    rep.set(
        "mem.verify.attempts_per_write.mean",
        h("mem.verify.attempts_per_write").mean(),
    );
    rep.set("mem.verify.retries", c("mem.verify.retries"));
    rep.set(
        "serve.shard.sim_write_ns.p50",
        h("serve.shard.sim_write_ns").p50(),
    );
    let repl = h("serve.repl.wait_ns");
    rep.set("repl.wait_us.p50", repl.p50() / 1e3);
    rep.set("repl.wait_us.p99", repl.p99() / 1e3);
    // Every replica verifies every write, so the ladder's write count over
    // the replica count is the number of client writes applied.
    let acked = ratio(c("mem.verify.writes"), if durable { 3.0 } else { 1.0 });
    rep.set(
        "cluster.msgs_per_write",
        ratio(c("cluster.msgs.sent"), acked),
    );
    rep.set("cluster.elections", c("cluster.elections"));
    rep.set(
        "durable.wal.appends_per_write",
        ratio(c("durable.wal.appends"), acked),
    );
    if let Some(why) = sys.stop() {
        rep.fail(why);
    }
    if durable {
        // The WAL's share: the same seed and rate against a memory-only
        // group.
        let (mem_sys, _) = System::start(kind, &Obs::off(), &Tracer::off(), args.seed, None)?;
        let mut conns = open_conns(&mem_sys, sh.profile, args.seed)?;
        let warm = gen::run_phase(&mut conns, open(sh.low_rps, 0.5), 0)?;
        account(&mut rep, "memory-only warm-up", &warm);
        let mem = gen::run_phase(&mut conns, open(sh.high_rps, phase_s), 0)?;
        account(&mut rep, "memory-only high rate", &mem);
        drop(conns);
        if let Some(why) = mem_sys.stop() {
            rep.fail(why);
        }
        let p50_mem = mem.windowed_us(0.5, WINDOWS);
        rep.set("durable.share", ratio(p50_plain - p50_mem, p50_plain));
    }
    rep.set(
        "error_share",
        ratio(rep.failed as f64, rep.attempted as f64),
    );
    Ok(rep)
}
