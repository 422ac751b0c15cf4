//! # reram-loadgen — seeded traffic generation for `reram-serve`
//!
//! Replays `reram-workloads` profiles against a running memory service and
//! reports what the paper's serving story needs measured: throughput, the
//! wall-clock latency tail (p50/p99/p999 via `reram-obs` histograms), how
//! much load admission control shed, and — the part that matters under
//! fault injection — whether every acknowledged write survived, verified
//! by a post-run read-back audit.
//!
//! ## Determinism contract
//!
//! Each client is an independent seeded [`TraceGenerator`] stream over a
//! **disjoint address partition**: client `c` of `C` owns every service
//! line `g × C + c` (generator line `g`). No two clients ever touch the
//! same line, so each client's request/response history is a pure function
//! of its seed regardless of thread scheduling, batching, or injected
//! faults — closed-loop clients retry `Busy`, reconnect on drops and
//! re-request on corrupted responses until every request resolves. The
//! per-run [`ledger`] digest is therefore byte-stable across runs *and*
//! across fault plans, which is exactly what CI diffs against its golden.
//!
//! Open-loop mode paces requests on wall time and sheds `Busy` without
//! retrying; its report is for latency/throughput characterization, and
//! its ledger is **not** timing-stable (document of record: closed loop).
//!
//! ## Tracing and SLO (obs v2)
//!
//! [`run_traced`] samples 1 request in [`LoadConfig::trace_sample`]: each
//! sampled request opens a `client.rtt` root span covering the whole
//! resolve (retries included) and stamps the request frame with a
//! [`TraceContext`], so the server's stage spans join the client's by
//! trace id in `experiments trace-report`. Trace ids are
//! `(client + 1) << 32 | request_seq` — unique across clients without
//! coordination. When [`LoadConfig::poll_stats_ms`] is set, a monitor
//! thread polls the server's `STATS_JSON` snapshot mid-run and records
//! queue-depth / busy observations under `loadgen.poll.*`. When
//! [`LoadConfig::slo_p99_budget_us`] is set, the merged RTT distribution
//! feeds a [`SloTracker`] whose burn-rate / budget-remaining gauges land
//! in the report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;

use ledger::{combine_digests, Ledger, Outcome};
use reram_obs::{crc32, Histogram, Json, Obs, SloTracker, SpanRecord, TraceContext, Tracer};
use reram_serve::proto::{code, Request, Response, WireError, LINE_BYTES};
use reram_serve::server::Client;
use reram_workloads::{AccessKind, BenchProfile, Rng64, TraceGenerator};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How clients pace themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One outstanding request per client; the next departs when the
    /// previous resolves. Retries until success — the deterministic mode.
    Closed,
    /// Requests depart on a fixed wall-clock cadence; `Busy` is shed, not
    /// retried. Characterization mode, not deterministic.
    Open {
        /// Inter-departure gap per client, microseconds.
        interval_us: u64,
    },
}

/// Load-generation configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client resolves.
    pub requests_per_client: u64,
    /// Base seed; client `c` derives its stream seed from it.
    pub seed: u64,
    /// Workload shape (rpki/wpki mix, data patterns).
    pub profile: BenchProfile,
    /// Served address space (must not exceed the server's).
    pub total_lines: u64,
    /// Pacing mode.
    pub mode: Mode,
    /// Run the post-run read-back audit of every acknowledged write.
    pub audit: bool,
    /// Send `DRAIN` after the run and record the server's served count.
    pub drain: bool,
    /// Trace 1 request in `trace_sample` (0 = tracing off). Only effective
    /// through [`run_traced`] with an enabled [`Tracer`].
    pub trace_sample: u64,
    /// Poll the server's `STATS_JSON` snapshot every this many
    /// milliseconds during the traffic phase (0 = no polling).
    pub poll_stats_ms: u64,
    /// Latency SLO: the p99 budget in microseconds (0 = no SLO tracking).
    /// Violations are RTTs over budget; the error budget is 1 %.
    pub slo_p99_budget_us: f64,
    /// Every replica of a clustered service (including `addr`). Clients
    /// follow `NotLeader` redirect hints, and rotate through this list
    /// when a hint is missing (mid-election) or a peer stops answering
    /// (leader kill). Empty = single-node service, no redirect handling
    /// beyond the hint itself.
    pub peers: Vec<SocketAddr>,
}

impl LoadConfig {
    /// A small deterministic default against `addr` (closed loop, audit
    /// on, no drain).
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            clients: 4,
            requests_per_client: 256,
            seed: 42,
            profile: BenchProfile::table_iv()[0],
            total_lines: 4 * 4096,
            mode: Mode::Closed,
            audit: true,
            drain: false,
            trace_sample: 0,
            poll_stats_ms: 0,
            slo_p99_budget_us: 0.0,
            peers: Vec::new(),
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Clients that ran.
    pub clients: usize,
    /// Requests resolved (sum over clients, audit excluded).
    pub requests: u64,
    /// Wall time of the traffic phase, seconds.
    pub elapsed_s: f64,
    /// Resolved requests per second.
    pub req_per_s: f64,
    /// Median client-perceived latency, µs (includes retries).
    pub p50_us: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th percentile latency, µs.
    pub p999_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Worst latency, µs.
    pub max_us: f64,
    /// `Busy` responses absorbed by retry (closed loop).
    pub busy_retries: u64,
    /// Open loop: requests shed on `Busy` without retry.
    pub shed: u64,
    /// Reconnects after dropped connections.
    pub reconnects: u64,
    /// Responses re-requested after CRC corruption.
    pub corrupt_retries: u64,
    /// `NotLeader` redirects followed (clustered services; retries, never
    /// ledger entries).
    pub redirects: u64,
    /// Reads whose data contradicted the client's own writes (must be 0).
    pub read_mismatches: u64,
    /// Audit reads that contradicted an acknowledged write (must be 0).
    pub audit_failures: u64,
    /// Acknowledged writes audited.
    pub audited_writes: u64,
    /// The run-level outcome-ledger digest.
    pub ledger_crc: u32,
    /// The server's lifetime served count, when the run drained it.
    pub drained_served: Option<u64>,
    /// RTTs over the SLO budget (when SLO tracking is on).
    pub slo_violations: Option<u64>,
    /// SLO burn rate: observed violation rate over the error budget
    /// (1.0 = budget exactly consumed).
    pub slo_burn_rate: Option<f64>,
    /// Fraction of the error budget still unspent, clamped at 0.
    pub slo_budget_remaining: Option<f64>,
    /// Mid-run `STATS_JSON` snapshots the monitor thread collected.
    pub stats_polls: u64,
}

impl LoadReport {
    /// Serializes the report as pretty JSON (the `BENCH_serve.json` shape).
    #[must_use]
    pub fn to_json(&self) -> String {
        let drained = self
            .drained_served
            .map_or("null".to_string(), |v| v.to_string());
        let opt_u = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let opt_f = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        format!(
            "{{\n  \"clients\": {},\n  \"requests\": {},\n  \"elapsed_s\": {:.4},\n  \
             \"req_per_s\": {:.1},\n  \"p50_us\": {:.1},\n  \"p99_us\": {:.1},\n  \
             \"p999_us\": {:.1},\n  \"mean_us\": {:.1},\n  \"max_us\": {:.1},\n  \
             \"busy_retries\": {},\n  \"shed\": {},\n  \"reconnects\": {},\n  \
             \"corrupt_retries\": {},\n  \"redirects\": {},\n  \"read_mismatches\": {},\n  \
             \"audit_failures\": {},\n  \"audited_writes\": {},\n  \
             \"ledger_crc\": \"{:08x}\",\n  \"drained_served\": {},\n  \
             \"slo_violations\": {},\n  \"slo_burn_rate\": {},\n  \
             \"slo_budget_remaining\": {},\n  \"stats_polls\": {}\n}}",
            self.clients,
            self.requests,
            self.elapsed_s,
            self.req_per_s,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.max_us,
            self.busy_retries,
            self.shed,
            self.reconnects,
            self.corrupt_retries,
            self.redirects,
            self.read_mismatches,
            self.audit_failures,
            self.audited_writes,
            self.ledger_crc,
            drained,
            opt_u(self.slo_violations),
            opt_f(self.slo_burn_rate),
            opt_f(self.slo_budget_remaining),
            self.stats_polls,
        )
    }
}

/// Consecutive `NotLeader` hops one request may chase before the run
/// aborts. A healthy group settles an election within a handful of hops;
/// a request still bouncing after this many means the cluster has no
/// reachable leader (partition, total failure), and spinning further
/// would hang the harness silently instead of reporting it.
const MAX_REDIRECT_HOPS: u32 = 64;

/// Shortest redirect backoff, µs — the floor of the jitter window.
const REDIRECT_BASE_US: u64 = 200;

/// Longest redirect backoff, µs — caps the decorrelated growth so a
/// long election never parks clients for whole seconds.
const REDIRECT_CAP_US: u64 = 20_000;

/// Retry bookkeeping for one client, including the bounded
/// decorrelated-jitter backoff state for `NotLeader` redirect chasing.
#[derive(Debug)]
struct Retries {
    busy: u64,
    reconnects: u64,
    corrupt: u64,
    redirects: u64,
    /// Consecutive redirect hops on the in-flight request; cleared by
    /// [`Retries::settle`] when any substantive response arrives.
    hops: u32,
    /// The previous redirect sleep, µs — the decorrelation state.
    prev_us: u64,
    rng: Rng64,
}

impl Default for Retries {
    fn default() -> Self {
        Self::seeded(0xBAC0_0FF5)
    }
}

impl Retries {
    /// Backoff state seeded per client, so clients chasing the same
    /// election draw different jitter instead of stampeding in lockstep.
    fn seeded(seed: u64) -> Self {
        Retries {
            busy: 0,
            reconnects: 0,
            corrupt: 0,
            redirects: 0,
            hops: 0,
            prev_us: REDIRECT_BASE_US,
            rng: Rng64::new(seed ^ 0xBAC0_0FF5_0000_0000),
        }
    }

    /// Counts one redirect hop, enforces the per-request hop cap, and
    /// returns the next decorrelated-jitter sleep: uniform in
    /// `[base, prev × 3]`, capped at [`REDIRECT_CAP_US`]. Growth keyed
    /// to the *previous draw* (not the attempt number) is what spreads
    /// concurrent chasers apart — two clients that collide once draw
    /// from different windows ever after.
    ///
    /// # Panics
    ///
    /// Panics once a single request exceeds [`MAX_REDIRECT_HOPS`]
    /// consecutive hops — an unreachable-leader condition the run must
    /// surface, not spin on.
    fn next_redirect_us(&mut self) -> u64 {
        self.redirects += 1;
        self.hops += 1;
        assert!(
            self.hops <= MAX_REDIRECT_HOPS,
            "request chased {MAX_REDIRECT_HOPS} consecutive NotLeader redirects \
             without reaching a leader"
        );
        let hi = self
            .prev_us
            .saturating_mul(3)
            .clamp(REDIRECT_BASE_US + 1, REDIRECT_CAP_US);
        let us = self.rng.gen_range_u64(REDIRECT_BASE_US, hi + 1);
        self.prev_us = us;
        us
    }

    /// One redirect hop: count, cap, then sleep the jitter interval.
    fn redirect_hop(&mut self) {
        let us = self.next_redirect_us();
        thread::sleep(Duration::from_micros(us));
    }

    /// A substantive (non-redirect) response arrived: the node we
    /// reached is serving, so the hop chain and backoff window reset.
    fn settle(&mut self) {
        self.hops = 0;
        self.prev_us = REDIRECT_BASE_US;
    }
}

/// One client's results, returned to the orchestrator.
struct ClientResult {
    ledger_digest: u32,
    rtt_us: Histogram,
    retries: Retries,
    shed: u64,
    read_mismatches: u64,
    audit_failures: u64,
    audited_writes: u64,
    requests: u64,
}

/// Safety bound on retries per request: a server that never answers is a
/// test-harness bug, not a condition to spin on forever.
const MAX_ATTEMPTS: u32 = 100_000;

/// The next address to try after a `NotLeader` redirect: the server's
/// hint when it parses, otherwise (mid-election, empty hint) the peer
/// after `current` in the known-peer ring.
fn redirect_target(hint: &str, current: SocketAddr, peers: &[SocketAddr]) -> SocketAddr {
    if let Ok(a) = hint.parse::<SocketAddr>() {
        return a;
    }
    next_peer(current, peers)
}

/// The peer after `current` in the ring (or `current` when the list is
/// empty — single-node services have nowhere else to go).
fn next_peer(current: SocketAddr, peers: &[SocketAddr]) -> SocketAddr {
    if peers.is_empty() {
        return current;
    }
    let i = peers
        .iter()
        .position(|p| *p == current)
        .map_or(0, |i| (i + 1) % peers.len());
    peers[i]
}

/// Connects with bounded patience (the server may briefly be between
/// accept cycles under fault injection). With a peer list, a peer that
/// keeps refusing is assumed dead (leader kill) and the ring rotates.
fn connect_retry(addr: &mut SocketAddr, peers: &[SocketAddr], _retries: &mut Retries) -> Client {
    let mut backoff_us = 100;
    for attempt in 0..MAX_ATTEMPTS {
        match Client::connect(*addr) {
            Ok(c) => return c,
            Err(_) if attempt + 1 < MAX_ATTEMPTS => {
                if !peers.is_empty() && attempt % 8 == 7 {
                    *addr = next_peer(*addr, peers);
                    backoff_us = 100;
                }
                thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = (backoff_us * 2).min(10_000);
            }
            Err(e) => panic!("loadgen could not connect to {addr}: {e}"),
        }
    }
    unreachable!()
}

/// Resolves one request: retries `Busy` (bounded backoff honoring the
/// server's hint), reconnects on transport failure, re-requests on a
/// corrupted response, follows `NotLeader` redirects. Returns the final
/// non-transient response.
fn resolve(
    conn: &mut Option<Client>,
    addr: &mut SocketAddr,
    peers: &[SocketAddr],
    req: &Request,
    retries: &mut Retries,
) -> Response {
    for _ in 0..MAX_ATTEMPTS {
        if conn.is_none() {
            *conn = Some(connect_retry(addr, peers, retries));
        }
        let c = conn.as_mut().expect("connected");
        match c.call(req) {
            Ok(Response::Busy { retry_after_us }) => {
                retries.busy += 1;
                retries.settle();
                thread::sleep(Duration::from_micros(u64::from(retry_after_us.min(2_000))));
            }
            Ok(Response::Err {
                code: code::DRAINING,
                ..
            }) => {
                retries.settle();
                thread::sleep(Duration::from_micros(500));
            }
            Ok(Response::NotLeader { leader }) => {
                // Transient, never ledger-recorded: hop to the leader (or
                // the next peer while the election settles) and re-ask,
                // with bounded decorrelated-jitter backoff.
                *addr = redirect_target(&leader, *addr, peers);
                *conn = None;
                retries.redirect_hop();
            }
            Ok(resp) => {
                retries.settle();
                return resp;
            }
            Err(WireError::CrcMismatch { .. }) => {
                // The stream is still in frame sync — just ask again.
                retries.corrupt += 1;
            }
            Err(_) => {
                // Transport gone (dropped connection, mid-frame EOF):
                // reconnect and resend. Data ops are idempotent, so a
                // request the server may already have applied is safe to
                // repeat.
                retries.reconnects += 1;
                *conn = None;
            }
        }
    }
    panic!("request did not resolve within {MAX_ATTEMPTS} attempts");
}

/// Maps a generator-local line to the client's partition.
fn partition_line(gen_line: u64, clients: usize, client: usize) -> u64 {
    gen_line * clients as u64 + client as u64
}

/// The trace half of an in-flight request: the wire context (reused
/// verbatim across retransmits, so retried stages accumulate under one
/// trace) and the root span's start stamp.
#[derive(Clone, Copy)]
struct ReqTrace {
    ctx: TraceContext,
    t0_ns: u64,
}

/// A request sent but not yet resolved (closed-loop multiplexing).
struct PendingReq {
    id: u64,
    req: Request,
    line: u64,
    is_write: bool,
    sent_crc: u32,
    t0: Instant,
    trace: Option<ReqTrace>,
}

/// The trace id for client `idx`'s request number `seq`: unique across
/// clients without coordination, never 0.
fn trace_id_for(idx: usize, seq: u64) -> u64 {
    ((idx as u64 + 1) << 32) | (seq & 0xFFFF_FFFF)
}

/// Opens a root `client.rtt` span for a sampled request: allocates the
/// root span id and builds the wire context the server parents under.
fn open_root(tracer: &Tracer, idx: usize, seq: u64) -> Option<ReqTrace> {
    if !tracer.sampled(seq) {
        return None;
    }
    Some(ReqTrace {
        ctx: TraceContext {
            trace_id: trace_id_for(idx, seq),
            parent_span_id: tracer.next_span_id(),
        },
        t0_ns: tracer.now_ns(),
    })
}

/// Closes a root `client.rtt` span opened by [`open_root`].
fn close_root(tracer: &Tracer, tr: ReqTrace, idx: usize) {
    tracer.record(SpanRecord {
        trace_id: tr.ctx.trace_id,
        span_id: tr.ctx.parent_span_id,
        parent_span_id: 0,
        stage: "client.rtt",
        start_ns: tr.t0_ns,
        end_ns: tracer.now_ns(),
        detail: idx as u64,
    });
}

/// One closed-loop client's full state. Clients are hosted several to an
/// OS thread (wrk-style: connections are the concurrency unit, threads
/// are a hardware resource), but each remains an independent closed loop —
/// one connection, one outstanding request, its own seeded trace.
struct ClientState {
    idx: usize,
    gen: TraceGenerator,
    /// Current target: starts at `cfg.addr`, moves with `NotLeader`
    /// redirects and dead-peer rotation.
    addr: SocketAddr,
    conn: Option<Client>,
    retries: Retries,
    ledger: Ledger,
    rtt_us: Histogram,
    expected: BTreeMap<u64, [u8; LINE_BYTES]>,
    read_mismatches: u64,
    done: u64,
    pending: Option<PendingReq>,
    tracer: Tracer,
}

impl ClientState {
    fn new(cfg: &LoadConfig, idx: usize, tracer: &Tracer) -> Self {
        let lines_per_client = (cfg.total_lines / cfg.clients as u64).max(1);
        let stream_seed = cfg
            .seed
            .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ClientState {
            idx,
            gen: TraceGenerator::new(cfg.profile, stream_seed).with_address_lines(lines_per_client),
            addr: cfg.addr,
            conn: None,
            retries: Retries::seeded(stream_seed),
            ledger: Ledger::new(),
            rtt_us: Histogram::new(),
            expected: BTreeMap::new(),
            read_mismatches: 0,
            done: 0,
            pending: None,
            tracer: tracer.clone(),
        }
    }

    /// Sends `req`, reconnecting until the send succeeds. The original
    /// departure time is preserved across retransmits so RTT covers the
    /// whole resolve, retries included.
    fn transmit(&mut self, cfg: &LoadConfig, p: PendingReq) -> PendingReq {
        for _ in 0..MAX_ATTEMPTS {
            if self.conn.is_none() {
                self.conn = Some(connect_retry(&mut self.addr, &cfg.peers, &mut self.retries));
            }
            let trace = p.trace.map(|t| t.ctx);
            match self
                .conn
                .as_mut()
                .expect("connected")
                .send_with_trace(&p.req, trace)
            {
                Ok(id) => return PendingReq { id, ..p },
                Err(_) => {
                    self.retries.reconnects += 1;
                    self.conn = None;
                }
            }
        }
        panic!("request did not transmit within {MAX_ATTEMPTS} attempts");
    }

    /// Generates the next access and puts it on the wire.
    fn send_next(&mut self, cfg: &LoadConfig) {
        let access = self.gen.next_access();
        let (req, line, is_write, sent_crc) = match access.kind {
            AccessKind::Read { line } => {
                let g = partition_line(line, cfg.clients, self.idx);
                (Request::ReadLine { line: g }, g, false, 0u32)
            }
            AccessKind::Write { line, new, .. } => {
                let g = partition_line(line, cfg.clients, self.idx);
                let c = crc32(&new[..]);
                (Request::WriteLine { line: g, data: new }, g, true, c)
            }
        };
        let p = PendingReq {
            id: 0,
            req,
            line,
            is_write,
            sent_crc,
            t0: Instant::now(),
            trace: open_root(&self.tracer, self.idx, self.done),
        };
        let p = self.transmit(cfg, p);
        self.pending = Some(p);
    }

    /// Blocks for the pending request's final response — retrying `Busy`
    /// with the server's hint, re-requesting after corruption, resending
    /// after a transport drop — then applies it to the ledger and the
    /// expected-data map.
    fn collect(&mut self, cfg: &LoadConfig) {
        let mut p = self.pending.take().expect("collect without pending");
        let mut resp = None;
        for _ in 0..MAX_ATTEMPTS {
            let c = self.conn.as_mut().expect("pending implies connected");
            match c.recv(p.id) {
                Ok(Response::Busy { retry_after_us }) => {
                    self.retries.busy += 1;
                    self.retries.settle();
                    thread::sleep(Duration::from_micros(u64::from(retry_after_us.min(2_000))));
                    p = self.transmit(cfg, p);
                }
                Ok(Response::Err {
                    code: code::DRAINING,
                    ..
                }) => {
                    self.retries.settle();
                    thread::sleep(Duration::from_micros(500));
                    p = self.transmit(cfg, p);
                }
                Ok(Response::NotLeader { leader }) => {
                    // Transient, never ledger-recorded: hop toward the
                    // leader and resend the same request, with bounded
                    // decorrelated-jitter backoff.
                    self.addr = redirect_target(&leader, self.addr, &cfg.peers);
                    self.conn = None;
                    self.retries.redirect_hop();
                    p = self.transmit(cfg, p);
                }
                Ok(r) => {
                    self.retries.settle();
                    resp = Some(r);
                    break;
                }
                Err(WireError::CrcMismatch { .. }) => {
                    // The stream is still in frame sync — just ask again.
                    self.retries.corrupt += 1;
                    p = self.transmit(cfg, p);
                }
                Err(_) => {
                    // Transport gone (dropped connection, mid-frame EOF):
                    // reconnect and resend. Data ops are idempotent, so a
                    // request the server may already have applied is safe
                    // to repeat.
                    self.retries.reconnects += 1;
                    self.conn = None;
                    p = self.transmit(cfg, p);
                }
            }
        }
        let resp = resp
            .unwrap_or_else(|| panic!("request did not resolve within {MAX_ATTEMPTS} attempts"));
        let us = p.t0.elapsed().as_secs_f64() * 1e6;
        self.rtt_us.record(us);
        if let Some(tr) = p.trace {
            close_root(&self.tracer, tr, self.idx);
        }
        match resp {
            Response::ReadOk { data } => {
                if let Some(want) = self.expected.get(&p.line) {
                    if want != &*data {
                        self.read_mismatches += 1;
                    }
                }
                self.ledger
                    .record(false, p.line, crc32(&data[..]), Outcome::ReadOk);
            }
            Response::WriteOk { degraded, .. } => {
                if let Request::WriteLine { data, .. } = &p.req {
                    self.expected.insert(p.line, **data);
                }
                let outcome = if degraded {
                    Outcome::WriteDegraded
                } else {
                    Outcome::WriteOk
                };
                self.ledger.record(p.is_write, p.line, p.sent_crc, outcome);
            }
            _ => {
                self.ledger
                    .record(p.is_write, p.line, p.sent_crc, Outcome::Error);
            }
        }
        self.done += 1;
    }

    /// Post-run read-back audit, then the per-client result. Clients own
    /// disjoint lines, so the audit needs no cross-client barrier.
    fn finish(mut self, cfg: &LoadConfig) -> ClientResult {
        let mut audit_failures = 0u64;
        let mut audited_writes = 0u64;
        if cfg.audit {
            for (&line, want) in &self.expected {
                audited_writes += 1;
                let resp = resolve(
                    &mut self.conn,
                    &mut self.addr,
                    &cfg.peers,
                    &Request::ReadLine { line },
                    &mut self.retries,
                );
                match resp {
                    Response::ReadOk { data } if *data == *want => {}
                    _ => audit_failures += 1,
                }
            }
        }
        ClientResult {
            ledger_digest: self.ledger.digest(),
            rtt_us: self.rtt_us,
            retries: self.retries,
            shed: 0,
            read_mismatches: self.read_mismatches,
            audit_failures,
            audited_writes,
            requests: self.done,
        }
    }
}

/// OS threads hosting closed-loop clients. A few threads per core keep
/// socket wakeups overlapped without flooding the scheduler's runqueue —
/// with thread-per-client, 64 clients on a small box lose ~30% throughput
/// to context-switch overhead alone.
fn closed_loop_threads(clients: usize) -> usize {
    let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (hw * 8).clamp(1, clients)
}

/// Hosts a contiguous chunk of closed-loop clients on one thread: each
/// round sends every idle client's next request, then collects every
/// response. Connections stay one-outstanding, so responses arrive in
/// order per connection and blocking reads multiplex cleanly — while one
/// client's response is being read, the server is already working on the
/// others'.
fn run_closed_chunk(
    cfg: &LoadConfig,
    clients: std::ops::Range<usize>,
    obs: &Obs,
    tracer: &Tracer,
) -> (Vec<ClientResult>, Instant) {
    let obs_rtt = obs.hist("loadgen.rtt_us");
    let mut states: Vec<ClientState> = clients.map(|i| ClientState::new(cfg, i, tracer)).collect();
    for cs in &mut states {
        if cs.done < cfg.requests_per_client {
            cs.send_next(cfg);
        }
    }
    loop {
        let mut live = false;
        for cs in &mut states {
            if cs.pending.is_some() {
                cs.collect(cfg);
                // Re-arm immediately so the hosted clients stay fully
                // outstanding instead of draining to zero each round.
                if cs.done < cfg.requests_per_client {
                    cs.send_next(cfg);
                }
            }
            live |= cs.pending.is_some();
        }
        if !live {
            break;
        }
    }
    // Traffic done; the audit in `finish` is off the throughput clock.
    let traffic_end = Instant::now();
    for cs in &states {
        obs_rtt.merge_from(&cs.rtt_us);
    }
    let results = states.into_iter().map(|cs| cs.finish(cfg)).collect();
    (results, traffic_end)
}

/// One open-loop client on its own thread: departures on a fixed cadence,
/// `Busy` shed rather than retried.
fn run_client_open(
    cfg: &LoadConfig,
    client_idx: usize,
    interval_us: u64,
    obs: &Obs,
    tracer: &Tracer,
) -> (ClientResult, Instant) {
    let lines_per_client = (cfg.total_lines / cfg.clients as u64).max(1);
    let stream_seed = cfg
        .seed
        .wrapping_add((client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut gen =
        TraceGenerator::new(cfg.profile, stream_seed).with_address_lines(lines_per_client);
    let mut addr = cfg.addr;
    let mut conn: Option<Client> = None;
    let mut retries = Retries::seeded(stream_seed);
    let mut ledger = Ledger::new();
    let mut rtt_us = Histogram::new();
    let obs_rtt = obs.hist("loadgen.rtt_us");
    let mut expected: BTreeMap<u64, [u8; LINE_BYTES]> = BTreeMap::new();
    let mut shed = 0u64;
    let mut read_mismatches = 0u64;
    let start = Instant::now();

    for k in 0..cfg.requests_per_client {
        // Departures on a fixed cadence from the start mark.
        let due = start + Duration::from_micros(interval_us.saturating_mul(k));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let access = gen.next_access();
        let (req, line, is_write, sent_crc) = match access.kind {
            AccessKind::Read { line } => {
                let g = partition_line(line, cfg.clients, client_idx);
                (Request::ReadLine { line: g }, g, false, 0u32)
            }
            AccessKind::Write { line, new, .. } => {
                let g = partition_line(line, cfg.clients, client_idx);
                let c = crc32(&new[..]);
                (Request::WriteLine { line: g, data: new }, g, true, c)
            }
        };
        let t0 = Instant::now();
        let trace = open_root(tracer, client_idx, k);
        // One shot; Busy is shed, transport errors resend.
        let mut r = None;
        for _ in 0..MAX_ATTEMPTS {
            if conn.is_none() {
                conn = Some(connect_retry(&mut addr, &cfg.peers, &mut retries));
            }
            let c = conn.as_mut().expect("connected");
            let sent = c
                .send_with_trace(&req, trace.map(|t| t.ctx))
                .and_then(|id| c.recv(id));
            match sent {
                Ok(Response::NotLeader { leader }) => {
                    // Transient, never ledger-recorded; bounded
                    // decorrelated-jitter backoff between hops.
                    addr = redirect_target(&leader, addr, &cfg.peers);
                    conn = None;
                    retries.redirect_hop();
                }
                Ok(resp) => {
                    retries.settle();
                    r = Some(resp);
                    break;
                }
                Err(WireError::CrcMismatch { .. }) => retries.corrupt += 1,
                Err(_) => {
                    retries.reconnects += 1;
                    conn = None;
                }
            }
        }
        let resp = r.expect("request resolved");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        rtt_us.record(us);
        if let Some(tr) = trace {
            close_root(tracer, tr, client_idx);
        }

        match resp {
            Response::ReadOk { data } => {
                if let Some(want) = expected.get(&line) {
                    if want != &*data {
                        read_mismatches += 1;
                    }
                }
                ledger.record(false, line, crc32(&data[..]), Outcome::ReadOk);
            }
            Response::WriteOk { degraded, .. } => {
                if let Request::WriteLine { data, .. } = &req {
                    expected.insert(line, **data);
                }
                let outcome = if degraded {
                    Outcome::WriteDegraded
                } else {
                    Outcome::WriteOk
                };
                ledger.record(is_write, line, sent_crc, outcome);
            }
            Response::Busy { .. } => {
                shed += 1;
                ledger.record(is_write, line, sent_crc, Outcome::Shed);
            }
            _ => {
                ledger.record(is_write, line, sent_crc, Outcome::Error);
            }
        }
    }

    // Traffic done; audit below is off the throughput clock.
    let traffic_end = Instant::now();
    obs_rtt.merge_from(&rtt_us);

    // Read-back audit, as in the closed loop.
    let mut audit_failures = 0u64;
    let mut audited_writes = 0u64;
    if cfg.audit {
        for (&line, want) in &expected {
            audited_writes += 1;
            let resp = resolve(
                &mut conn,
                &mut addr,
                &cfg.peers,
                &Request::ReadLine { line },
                &mut retries,
            );
            match resp {
                Response::ReadOk { data } if *data == *want => {}
                _ => audit_failures += 1,
            }
        }
    }

    (
        ClientResult {
            ledger_digest: ledger.digest(),
            rtt_us,
            retries,
            shed,
            read_mismatches,
            audit_failures,
            audited_writes,
            requests: cfg.requests_per_client,
        },
        traffic_end,
    )
}

/// Reads a `STATS_JSON` snapshot (from TCP: malformed is `None`, never a
/// panic) into `[queued, window, busy, term, commit, lag]`: summed queue
/// depth, narrowest window, lifetime busy count, and cluster state.
fn read_stats(json: &str) -> Option<[Option<u64>; 6]> {
    let doc = Json::parse(json).ok()?;
    let num = |obj: Option<&Json>, key: &str| obj?.get(key)?.as_u64();
    let shards = match doc.get("shards") {
        Some(Json::Arr(shards)) => &shards[..],
        _ => &[],
    };
    let cluster = doc.get("cluster");
    Some([
        Some(shards.iter().filter_map(|s| num(Some(s), "queued")).sum()),
        shards.iter().filter_map(|s| num(Some(s), "window")).min(),
        num(doc.get("service"), "busy"),
        num(cluster, "term"),
        num(cluster, "commit"),
        num(cluster, "lag"),
    ])
}

/// The monitor loop: polls the server's `STATS_JSON` snapshot every
/// `poll_ms` until `stop` flips, recording aggregate admission-queue depth
/// (`loadgen.poll.queue_depth` histogram), the narrowest slow-start window
/// (`loadgen.poll.min_window` gauge), and the server's lifetime busy-shed
/// count (`loadgen.poll.server_busy` gauge). Returns snapshots collected.
fn poll_stats(addr: SocketAddr, poll_ms: u64, obs: &Obs, stop: &AtomicBool) -> u64 {
    let h_depth = obs.hist("loadgen.poll.queue_depth");
    let g_window = obs.gauge("loadgen.poll.min_window");
    let g_busy = obs.gauge("loadgen.poll.server_busy");
    let g_term = obs.gauge("loadgen.poll.cluster.term");
    let g_commit = obs.gauge("loadgen.poll.cluster.commit");
    let h_lag = obs.hist("loadgen.poll.cluster.lag");
    let mut polls = 0u64;
    let Ok(mut c) = Client::connect(addr) else {
        return 0;
    };
    while !stop.load(Ordering::Relaxed) {
        match c.call(&Request::StatsJson) {
            Ok(Response::StatsJsonOk { json }) => {
                polls += 1;
                let Some([queued, window, busy, term, commit, lag]) = read_stats(&json) else {
                    break;
                };
                h_depth.record(queued.unwrap_or(0) as f64);
                for (v, g) in [
                    (window, &g_window),
                    (busy, &g_busy),
                    (term, &g_term),
                    (commit, &g_commit),
                ] {
                    if let Some(v) = v {
                        g.set(v as f64);
                    }
                }
                if let Some(l) = lag {
                    h_lag.record(l as f64);
                }
            }
            // The server vanished (drain/stop) or answered oddly: the
            // monitor is best-effort observability, never a run failure.
            Ok(_) | Err(_) => break,
        }
        thread::sleep(Duration::from_millis(poll_ms.max(1)));
    }
    polls
}

/// Runs the configured load against the server and gathers the report.
/// Telemetry (the `loadgen.rtt_us` histogram) resolves on `obs`.
/// Equivalent to [`run_traced`] with a [`Tracer::off`] handle.
///
/// # Panics
///
/// Panics if the server is unreachable for the entire retry budget, or if
/// a client thread panics.
#[must_use]
pub fn run(cfg: &LoadConfig, obs: &Obs) -> LoadReport {
    run_traced(cfg, obs, &Tracer::off())
}

/// [`run`] plus obs v2: sampled `client.rtt` root spans recorded into
/// `tracer` (joined with the server's stage spans by trace id), the
/// optional mid-run `STATS_JSON` monitor, and optional SLO burn-rate
/// tracking over the merged RTT distribution.
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_traced(cfg: &LoadConfig, obs: &Obs, tracer: &Tracer) -> LoadReport {
    assert!(cfg.clients > 0, "need at least one client");
    // Sampling is configured on the run, recorded through the tracer: a
    // zero sample period (or an off tracer) disables tracing entirely.
    let tracer = if cfg.trace_sample > 0 {
        tracer.clone()
    } else {
        Tracer::off()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = (cfg.poll_stats_ms > 0).then(|| {
        let addr = cfg.addr;
        let poll_ms = cfg.poll_stats_ms;
        let obs = obs.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || poll_stats(addr, poll_ms, &obs, &stop))
    });
    let start = Instant::now();
    // Client results are gathered in client-index order: the run-level
    // ledger digest combines per-client digests positionally. The
    // throughput clock stops at the *last* client's final resolved request
    // (the read-back audit runs after that mark).
    let (results, traffic_end): (Vec<ClientResult>, Instant) = match cfg.mode {
        Mode::Closed => thread::scope(|s| {
            let threads = closed_loop_threads(cfg.clients);
            let base = cfg.clients / threads;
            let extra = cfg.clients % threads;
            let mut next = 0usize;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let n = base + usize::from(t < extra);
                    let range = next..next + n;
                    next += n;
                    let cfg = cfg.clone();
                    let obs = obs.clone();
                    let tracer = tracer.clone();
                    s.spawn(move || run_closed_chunk(&cfg, range, &obs, &tracer))
                })
                .collect();
            let mut all = Vec::with_capacity(cfg.clients);
            let mut end = start;
            for h in handles {
                let (chunk, chunk_end) = h.join().expect("client thread panicked");
                all.extend(chunk);
                end = end.max(chunk_end);
            }
            (all, end)
        }),
        Mode::Open { interval_us } => thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|c| {
                    let cfg = cfg.clone();
                    let obs = obs.clone();
                    let tracer = tracer.clone();
                    s.spawn(move || run_client_open(&cfg, c, interval_us, &obs, &tracer))
                })
                .collect();
            let mut all = Vec::with_capacity(cfg.clients);
            let mut end = start;
            for h in handles {
                let (res, client_end) = h.join().expect("client thread panicked");
                all.push(res);
                end = end.max(client_end);
            }
            (all, end)
        }),
    };
    let elapsed_s = traffic_end.duration_since(start).as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let stats_polls = monitor.map_or(0, |h| h.join().unwrap_or(0));

    let mut rtt = Histogram::new();
    let mut digests = Vec::with_capacity(results.len());
    let mut busy_retries = 0;
    let mut shed = 0;
    let mut reconnects = 0;
    let mut corrupt_retries = 0;
    let mut redirects = 0;
    let mut read_mismatches = 0;
    let mut audit_failures = 0;
    let mut audited_writes = 0;
    let mut requests = 0;
    for r in &results {
        rtt.merge(&r.rtt_us);
        digests.push(r.ledger_digest);
        busy_retries += r.retries.busy;
        shed += r.shed;
        reconnects += r.retries.reconnects;
        corrupt_retries += r.retries.corrupt;
        redirects += r.retries.redirects;
        read_mismatches += r.read_mismatches;
        audit_failures += r.audit_failures;
        audited_writes += r.audited_writes;
        requests += r.requests;
    }

    let drained_served = if cfg.drain {
        let mut retries = Retries::default();
        let mut addr = cfg.addr;
        let mut conn = Some(connect_retry(&mut addr, &cfg.peers, &mut retries));
        match resolve(
            &mut conn,
            &mut addr,
            &cfg.peers,
            &Request::Drain,
            &mut retries,
        ) {
            Response::DrainOk { served } => Some(served),
            other => panic!("drain answered {other:?}"),
        }
    } else {
        None
    };

    // SLO burn rate over the merged RTT distribution (bucket resolution).
    let slo = (cfg.slo_p99_budget_us > 0.0).then(|| {
        let mut t = SloTracker::new(obs, "loadgen", cfg.slo_p99_budget_us, 0.01);
        t.observe_hist(&rtt);
        t
    });

    LoadReport {
        clients: cfg.clients,
        requests,
        elapsed_s,
        req_per_s: requests as f64 / elapsed_s.max(1e-9),
        p50_us: rtt.p50(),
        p99_us: rtt.p99(),
        p999_us: rtt.p999(),
        mean_us: rtt.mean(),
        max_us: rtt.max(),
        busy_retries,
        shed,
        reconnects,
        corrupt_retries,
        redirects,
        read_mismatches,
        audit_failures,
        audited_writes,
        ledger_crc: combine_digests(&digests),
        drained_served,
        slo_violations: slo.as_ref().map(SloTracker::violations),
        slo_burn_rate: slo.as_ref().map(SloTracker::burn_rate),
        slo_budget_remaining: slo.as_ref().map(SloTracker::budget_remaining),
        stats_polls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let clients = 8;
        let mut seen = std::collections::HashSet::new();
        for c in 0..clients {
            for g in 0..16u64 {
                assert!(seen.insert(partition_line(g, clients, c)));
            }
        }
        assert_eq!(seen.len(), clients * 16);
    }

    #[test]
    fn report_json_has_the_expected_keys() {
        let r = LoadReport {
            clients: 2,
            requests: 10,
            elapsed_s: 0.5,
            req_per_s: 20.0,
            p50_us: 1.0,
            p99_us: 2.0,
            p999_us: 3.0,
            mean_us: 1.5,
            max_us: 4.0,
            busy_retries: 1,
            shed: 0,
            reconnects: 2,
            corrupt_retries: 3,
            redirects: 4,
            read_mismatches: 0,
            audit_failures: 0,
            audited_writes: 5,
            ledger_crc: 0xDEAD_BEEF,
            drained_served: Some(10),
            slo_violations: Some(3),
            slo_burn_rate: Some(1.5),
            slo_budget_remaining: Some(0.0),
            stats_polls: 7,
        };
        let j = r.to_json();
        for key in [
            "\"clients\"",
            "\"req_per_s\"",
            "\"p999_us\"",
            "\"ledger_crc\": \"deadbeef\"",
            "\"redirects\": 4",
            "\"audit_failures\": 0",
            "\"drained_served\": 10",
            "\"slo_violations\": 3",
            "\"slo_burn_rate\": 1.5000",
            "\"stats_polls\": 7",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn trace_ids_are_unique_across_clients_and_requests() {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..8 {
            for seq in 0..64 {
                assert!(seen.insert(trace_id_for(idx, seq)));
            }
        }
        assert!(trace_id_for(0, 0) != 0, "trace ids are never zero");
    }

    #[test]
    fn redirect_backoff_stays_in_bounds_and_decorrelates() {
        let mut r = Retries::seeded(7);
        let mut prev = REDIRECT_BASE_US;
        for _ in 0..MAX_REDIRECT_HOPS {
            let us = r.next_redirect_us();
            assert!(us >= REDIRECT_BASE_US, "below floor: {us}");
            assert!(us <= REDIRECT_CAP_US, "over cap: {us}");
            assert!(
                us <= prev
                    .saturating_mul(3)
                    .clamp(REDIRECT_BASE_US + 1, REDIRECT_CAP_US),
                "outside the decorrelated window: {us} after {prev}"
            );
            prev = us;
        }
        assert_eq!(r.redirects, u64::from(MAX_REDIRECT_HOPS));
        // Two clients with different seeds draw different jitter.
        let (mut a, mut b) = (Retries::seeded(1), Retries::seeded(2));
        let sa: Vec<u64> = (0..8).map(|_| a.next_redirect_us()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_redirect_us()).collect();
        assert_ne!(sa, sb, "per-client seeds should decorrelate backoff");
    }

    #[test]
    fn redirect_settle_resets_the_hop_chain() {
        let mut r = Retries::seeded(3);
        for _ in 0..MAX_REDIRECT_HOPS {
            r.next_redirect_us();
        }
        r.settle();
        assert_eq!(r.hops, 0);
        assert_eq!(r.prev_us, REDIRECT_BASE_US);
        // The chain restarts cleanly: another full run of hops is fine.
        for _ in 0..MAX_REDIRECT_HOPS {
            r.next_redirect_us();
        }
        assert_eq!(r.redirects, 2 * u64::from(MAX_REDIRECT_HOPS));
    }

    #[test]
    #[should_panic(expected = "consecutive NotLeader redirects")]
    fn redirect_hop_cap_panics_instead_of_spinning() {
        let mut r = Retries::seeded(5);
        for _ in 0..=MAX_REDIRECT_HOPS {
            r.next_redirect_us();
        }
    }

    #[test]
    fn stats_json_extraction_finds_every_occurrence() {
        let json = "{\"shards\":[{\"queued\":3,\"window\":16,\"busy\":1},\
                    {\"queued\":12,\"window\":4,\"busy\":0}],\
                    \"service\":{\"requests\":40,\"busy\":9}}";
        let want = [Some(15), Some(4), Some(9), None, None, None];
        assert_eq!(read_stats(json), Some(want));
        let json = "{\"shards\":[],\"cluster\":{\"role\":\"leader\",\"term\":3,\"lag\":0}}";
        let want = [Some(0), None, None, Some(3), None, Some(0)];
        assert_eq!(read_stats(json), Some(want));
        assert_eq!(read_stats("{\"shards\":[{\"queued\":3}"), None);
    }
}
