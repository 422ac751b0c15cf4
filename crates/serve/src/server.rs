//! The sharded TCP memory service.
//!
//! Layout: one accept loop, one reader thread per connection, and one
//! *batch task at a time per shard* on the shared `reram-exec` pool — the
//! actor-on-a-pool shape. Admission happens on the connection thread under
//! the shard's state lock (bounded queue + slow-start window); servicing
//! happens on the pool under a *separate* backend lock, so a slow batch
//! never blocks admission — overload is shed as `Busy`, never absorbed as
//! unbounded queueing.
//!
//! **Admission control.** Each shard queue is bounded by
//! [`ServeConfig::queue_cap`], further clamped by a slow-start window:
//! after a shard stall the window collapses to 1 and doubles per
//! successfully serviced batch until it reaches the cap again, so a
//! recovering shard is re-loaded gradually instead of being buried by the
//! backlog that accumulated while it was stalled. Rejections carry a
//! retry-after hint derived from queue depth.
//!
//! **Faults** (armed via [`Server::start`]'s injector, consulted at the
//! sites `reram_fault::site::{CONN_DROP, SHARD_STALL, RESP_CORRUPT}`):
//! connection drop closes the socket mid-stream (clients reconnect and
//! resend), shard stall freezes a shard's batch loop and triggers
//! slow-start, and response corruption flips a CRC-covered byte in an
//! outbound frame without breaking frame sync (clients detect the CRC
//! mismatch and re-request). All three are *recoverable by construction*:
//! acknowledged writes are never lost because an acknowledgement only ever
//! follows the write retiring through the verify loop.
//!
//! **Drain.** The `DRAIN` opcode stops admission (`Err{DRAINING}` for new
//! data ops), waits for every shard queue to empty and every batch task to
//! finish, acknowledges with the lifetime served count, then shuts the
//! server down.
//!
//! **Tracing.** Started via [`Server::start_traced`], frames carrying a v2
//! trace context get per-stage spans — request decode, admission-queue
//! wait, slow-start gate, shard-batch service (verify attempts in the
//! span's detail), response encode + socket write — recorded into the
//! supplied [`Tracer`], every span parented under the client's root span so
//! `experiments trace-report` can attribute the full RTT. Untraced frames
//! pay one branch per stage. The `STATS_JSON` opcode returns a
//! machine-readable snapshot (per-shard queue depth, slow-start window,
//! busy/shed counters, sim-latency histogram summaries) that the load
//! generator polls mid-run.
//!
//! **Replication.** Started via [`Server::start_replicated`], the server
//! delegates cluster decisions to a [`Replicator`] (implemented by
//! `reram-cluster`): data ops on a non-leader answer
//! [`Response::NotLeader`] with a leader-address hint, and writes on the
//! leader go through [`Replicator::replicate_write`] — append to the
//! replicated write-ledger, wait for the [`ReplicationMode`]'s ack
//! condition, apply through the shard backend's write-verify ladder —
//! *before* the `WriteOk` is sent, so an acknowledged write survives a
//! leader kill by construction. The append→ack wait is surfaced as the
//! `repl.wait` trace stage and the `serve.repl.wait_ns` histogram; the
//! `STATS_JSON` snapshot gains a `cluster` object (role / term /
//! commit-index / replication lag) that loadgen's poll monitor re-exports
//! as `loadgen.poll.cluster.*`.

use crate::proto::{code, read_frame, Frame, Request, Response, WireError, LINE_BYTES};
use crate::shard::{ShardBackend, ShardMap, ShardOp};
use reram_core::Scheme;
use reram_durable::{DurableConfig, DurableLog, REC_ENTRY};
use reram_exec::ThreadPool;
use reram_fault::FaultInjector;
use reram_obs::{Counter, Gauge, Hist, Obs, TraceContext, Tracer};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Number of shards (backend workers).
    pub shards: usize,
    /// Local lines per shard.
    pub lines_per_shard: u64,
    /// Per-shard admission queue bound.
    pub queue_cap: usize,
    /// Max ops serviced per batch task iteration.
    pub batch_max: usize,
    /// Write scheme the backends simulate.
    pub scheme: Scheme,
    /// Exec-pool workers (0 = the pool's default sizing).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            lines_per_shard: 4096,
            queue_cap: 256,
            batch_max: 16,
            scheme: Scheme::UdrvrPr,
            workers: 0,
        }
    }
}

/// When a replicated write may be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Ack once a majority of replicas hold the entry and the leader has
    /// applied it (the raft commit rule; survives any minority loss).
    Majority,
    /// Ack only once *every* live replica holds the entry — slower, but a
    /// failover loses zero replication lag.
    All,
}

impl ReplicationMode {
    /// Stable flag-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplicationMode::Majority => "majority",
            ReplicationMode::All => "all",
        }
    }

    /// Parses a flag value (`majority` / `all`).
    #[must_use]
    pub fn parse(s: &str) -> Option<ReplicationMode> {
        match s {
            "majority" => Some(ReplicationMode::Majority),
            "all" => Some(ReplicationMode::All),
            _ => None,
        }
    }
}

/// The verify-ladder outcome of a replicated write, reported by the apply
/// pump so the leader can answer `WriteOk` without re-running the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Write passes the verify controller issued (1 = clean).
    pub attempts: u32,
    /// True when the line entered degraded mode (uncorrectable).
    pub degraded: bool,
}

/// A point-in-time view of one replica's consensus state, rendered into
/// the `STATS_JSON` snapshot's `cluster` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatus {
    /// `leader` / `follower` / `candidate` / `dead`.
    pub role: &'static str,
    /// Current term.
    pub term: u64,
    /// Highest committed log index.
    pub commit: u64,
    /// Highest log index applied through the write-verify ladder.
    pub applied: u64,
    /// Replication lag in entries (`commit - applied`).
    pub lag: u64,
    /// `host:port` of the believed leader (empty when unknown).
    pub leader: String,
}

/// The consensus hook a cluster engine plugs into the server. The server
/// stays ignorant of elections and logs; it only asks three questions:
/// am I the leader, where should clients go instead, and — for writes —
/// replicate this and tell me the verify outcome.
pub trait Replicator: Send + Sync {
    /// True while this replica believes it is the group's leader.
    fn is_leader(&self) -> bool;

    /// `host:port` redirect hint for [`Response::NotLeader`] (empty while
    /// an election is in flight).
    fn leader_hint(&self) -> String;

    /// Appends `write line = data` to the replicated log, waits for the
    /// configured [`ReplicationMode`]'s ack condition plus the local
    /// apply, and returns the verify-ladder outcome.
    ///
    /// # Errors
    ///
    /// The current leader hint, when this replica is not (or stopped
    /// being) the leader — the server turns it into a `NotLeader`
    /// redirect and the client resends elsewhere, so a failed replicate
    /// is never acknowledged.
    fn replicate_write(&self, line: u64, data: &[u8; LINE_BYTES]) -> Result<WriteAck, String>;

    /// Snapshot of this replica's role/term/commit/lag for `STATS_JSON`.
    fn status(&self) -> ClusterStatus;
}

/// The trace half of a queued op: the wire context to parent spans under
/// and the enqueue stamp the admission-queue span starts from.
#[derive(Clone, Copy)]
struct PendTrace {
    ctx: TraceContext,
    enq_ns: u64,
}

/// A queued data operation awaiting its shard's batch task.
struct Pending {
    op: ShardOp,
    request_id: u64,
    conn: Arc<ConnWriter>,
    trace: Option<PendTrace>,
}

/// Admission-side state of one shard (guarded separately from the backend
/// so admission never blocks behind servicing).
struct ShardState {
    queue: VecDeque<Pending>,
    /// True while a batch task owns the shard.
    inflight: bool,
    /// Slow-start admission window (≤ `queue_cap`).
    window: usize,
    /// Stalls absorbed (for the stats text).
    stalls: u64,
}

/// Serialized writer half of a connection. Responses from the connection
/// thread (Busy, errors, stats) and from batch tasks on the pool interleave
/// here; the mutex keeps frames whole.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    id: u64,
}

struct Inner {
    map: ShardMap,
    queue_cap: usize,
    batch_max: usize,
    states: Vec<Mutex<ShardState>>,
    backends: Arc<Vec<Mutex<ShardBackend>>>,
    pool: ThreadPool,
    draining: AtomicBool,
    shutdown: AtomicBool,
    faults: Option<Arc<FaultInjector>>,
    replicator: Option<Arc<dyn Replicator>>,
    /// Single-node write-ahead log ([`Server::start_durable`]): every
    /// acknowledged write is appended (global line + data) before its
    /// `WriteOk` leaves the server. `None` in in-memory and replicated
    /// modes (a cluster pump persists replicated entries itself).
    durable: Option<Mutex<DurableLog>>,
    conn_seq: AtomicU64,
    tracer: Tracer,
    c_requests: Counter,
    c_busy: Counter,
    c_drops: Counter,
    c_stalls: Counter,
    c_corrupt: Counter,
    /// WAL append failures in durable mode (`serve.wal.errors`).
    c_wal_errors: Counter,
    /// Per-shard admission-queue depth (`serve.shard{i}.queue_depth`).
    g_queue: Vec<Gauge>,
    /// Per-shard batch-task occupancy (`serve.shard{i}.in_flight`).
    g_inflight: Vec<Gauge>,
    h_sim_read: Hist,
    h_sim_write: Hist,
    /// Local-append → ack-condition wait of replicated writes
    /// (`serve.repl.wait_ns`; empty in single-node mode).
    h_repl_wait: Hist,
}

impl Inner {
    /// Sends `resp` on `conn`, applying the response-corruption fault if
    /// one is scheduled for this connection's stream. Send failures are
    /// swallowed: a vanished client's responses have nowhere to go, and the
    /// reader thread notices the close independently. When `trace` is set
    /// the context is echoed on the response frame and the encode + socket
    /// write becomes a `server.write` span.
    fn send(
        &self,
        conn: &ConnWriter,
        request_id: u64,
        resp: &Response,
        trace: Option<TraceContext>,
    ) {
        let t0 = if trace.is_some() {
            self.tracer.now_ns()
        } else {
            0
        };
        let frame = resp.to_frame(request_id).with_trace(trace);
        let mut bytes = frame.encode();
        if let Some(inj) = &self.faults {
            let target = format!("conn{}", conn.id);
            if let Some(f) = inj.fire(reram_fault::site::RESP_CORRUPT, &target) {
                if f.kind == reram_fault::FaultKind::RespCorrupt {
                    // Flip one CRC-covered byte (inside the request id, so
                    // every frame has one) while leaving the length prefix
                    // and CRC untouched: the client sees a CRC mismatch but
                    // stays in frame sync and re-requests.
                    bytes[6] ^= 0x01;
                    self.c_corrupt.inc();
                    inj.note_recovery("serve.resp", "client_re_request");
                }
            }
        }
        let mut s = conn.stream.lock().expect("conn writer poisoned");
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        drop(s);
        if let Some(ctx) = trace {
            self.tracer.record_span(
                ctx,
                "server.write",
                t0,
                self.tracer.now_ns(),
                bytes.len() as u64,
            );
        }
    }

    /// Consults the shard-stall fault site once per batch: freezes the
    /// caller for the scheduled duration and collapses the shard's
    /// slow-start window.
    fn maybe_stall(&self, shard: usize) {
        let Some(inj) = &self.faults else { return };
        let Some(f) = inj.fire(reram_fault::site::SHARD_STALL, &format!("shard{shard}")) else {
            return;
        };
        if f.kind == reram_fault::FaultKind::ShardStall {
            self.c_stalls.inc();
            let stall_ms = if f.param > 0.0 { f.param } else { 20.0 };
            thread::sleep(Duration::from_micros((stall_ms * 1000.0) as u64));
            let mut st = self.states[shard].lock().expect("shard state poisoned");
            st.window = 1;
            st.stalls += 1;
            drop(st);
            inj.note_recovery("serve.shard", "slow_start");
        }
    }

    /// Services one batch on the shard backend and responds. Traced ops get
    /// `server.queue` (enqueue → batch pickup, shard index in detail),
    /// `server.gate` (slow-start / stall time), and `server.service`
    /// (backend batch, verify attempts in detail for writes) spans.
    fn service_and_respond(&self, shard: usize, batch: &[Pending]) {
        let traced = batch.iter().any(|p| p.trace.is_some());
        let t_batch = if traced { self.tracer.now_ns() } else { 0 };
        self.maybe_stall(shard);
        let t_gate = if traced { self.tracer.now_ns() } else { 0 };
        let ops: Vec<ShardOp> = batch.iter().map(|p| p.op.clone()).collect();
        let outcomes = {
            let mut be = self.backends[shard].lock().expect("backend poisoned");
            be.service_batch(&ops)
        };
        let t_svc = if traced { self.tracer.now_ns() } else { 0 };
        // Durable mode: every acknowledged write's record must be on the
        // log before its ack can leave — the write-ahead half of the
        // recovery contract. The whole batch goes down in one staged
        // append (one log lock, one media write) before any response is
        // sent, so the per-write WAL tax amortizes across the batch.
        if let Some(log) = &self.durable {
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for o in &outcomes {
                let p = &batch[o.batch_index];
                if let (ShardOp::Write { local, data }, Response::WriteOk { .. }) =
                    (&p.op, &o.response)
                {
                    let line = self.map.global(shard, *local);
                    let mut payload = Vec::with_capacity(8 + LINE_BYTES);
                    payload.extend_from_slice(&line.to_le_bytes());
                    payload.extend_from_slice(&data[..]);
                    payloads.push(payload);
                }
            }
            if !payloads.is_empty() {
                let records: Vec<(u8, &[u8])> =
                    payloads.iter().map(|p| (REC_ENTRY, p.as_slice())).collect();
                let mut log = log.lock().expect("durable log poisoned");
                if log.append_batch(&records).is_err() {
                    self.c_wal_errors.inc();
                }
            }
        }
        for o in outcomes {
            let p = &batch[o.batch_index];
            if matches!(o.response, Response::Busy { .. }) {
                self.c_busy.inc();
            }
            if let Some(tr) = &p.trace {
                self.tracer
                    .record_span(tr.ctx, "server.queue", tr.enq_ns, t_batch, shard as u64);
                self.tracer
                    .record_span(tr.ctx, "server.gate", t_batch, t_gate, 0);
                let detail = match o.response {
                    Response::WriteOk { attempts, .. } => u64::from(attempts),
                    _ => 0,
                };
                self.tracer
                    .record_span(tr.ctx, "server.service", t_gate, t_svc, detail);
            }
            self.send(&p.conn, p.request_id, &o.response, p.trace.map(|t| t.ctx));
        }
        // A clean batch re-opens the slow-start window one doubling.
        let mut st = self.states[shard].lock().expect("shard state poisoned");
        st.window = (st.window * 2).min(self.queue_cap);
    }

    /// The batch loop for one shard: drains the queue in `batch_max`
    /// slices, services each slice on the backend, and responds. Exactly
    /// one instance runs per shard (`inflight`); it exits only after
    /// observing an empty queue *under the state lock*, so an admission
    /// that saw `inflight == true` can never be stranded.
    fn run_batches(self: &Arc<Self>, shard: usize) {
        loop {
            let batch: Vec<Pending> = {
                let mut st = self.states[shard].lock().expect("shard state poisoned");
                if st.queue.is_empty() {
                    st.inflight = false;
                    self.g_queue[shard].set(0.0);
                    self.g_inflight[shard].set(0.0);
                    return;
                }
                let n = st.queue.len().min(self.batch_max);
                let batch: Vec<Pending> = st.queue.drain(..n).collect();
                self.g_queue[shard].set(st.queue.len() as f64);
                batch
            };
            self.service_and_respond(shard, &batch);
        }
    }

    /// Admits one data op, or answers immediately with `Busy`/`Err`.
    fn admit(
        self: &Arc<Self>,
        line: u64,
        op: ShardOp,
        request_id: u64,
        conn: &Arc<ConnWriter>,
        trace: Option<TraceContext>,
    ) {
        if self.draining.load(Ordering::SeqCst) {
            self.send(
                conn,
                request_id,
                &Response::Err {
                    code: code::DRAINING,
                    detail: "server is draining".into(),
                },
                trace,
            );
            return;
        }
        if !self.map.contains(line) {
            self.send(
                conn,
                request_id,
                &Response::Err {
                    code: code::OUT_OF_RANGE,
                    detail: format!("line {line} >= {}", self.map.total_lines()),
                },
                trace,
            );
            return;
        }
        let shard = self.map.shard_of(line);
        let pend_trace = trace.map(|ctx| PendTrace {
            ctx,
            enq_ns: self.tracer.now_ns(),
        });
        let mut op = Some(op);
        let spawn = {
            let mut st = self.states[shard].lock().expect("shard state poisoned");
            let cap = st.window.min(self.queue_cap);
            if st.queue.len() >= cap {
                let retry_after_us = (100 + 20 * st.queue.len()) as u32;
                drop(st);
                self.c_busy.inc();
                self.send(conn, request_id, &Response::Busy { retry_after_us }, trace);
                return;
            }
            if !st.inflight && st.queue.is_empty() {
                // Fast path: the shard is idle — claim it and service this
                // op inline on the connection thread, skipping the
                // queue → pool → wakeup round trip (the dominant cost for
                // closed-loop traffic). Contended shards still batch on
                // the pool below.
                st.inflight = true;
                drop(st);
                self.g_inflight[shard].set(1.0);
                let batch = [Pending {
                    op: op.take().expect("op consumed once"),
                    request_id,
                    conn: Arc::clone(conn),
                    trace: pend_trace,
                }];
                self.service_and_respond(shard, &batch);
                // Work may have queued behind us while we serviced; keep
                // the inflight invariant by handing it to a batch task.
                let follow_up = {
                    let mut st = self.states[shard].lock().expect("shard state poisoned");
                    if st.queue.is_empty() {
                        st.inflight = false;
                        false
                    } else {
                        true
                    }
                };
                if follow_up {
                    let inner = Arc::clone(self);
                    self.pool.spawn(move || inner.run_batches(shard));
                } else {
                    self.g_inflight[shard].set(0.0);
                }
                return;
            }
            st.queue.push_back(Pending {
                op: op.take().expect("op consumed once"),
                request_id,
                conn: Arc::clone(conn),
                trace: pend_trace,
            });
            self.g_queue[shard].set(st.queue.len() as f64);
            if st.inflight {
                false
            } else {
                st.inflight = true;
                true
            }
        };
        if spawn {
            self.g_inflight[shard].set(1.0);
            let inner = Arc::clone(self);
            self.pool.spawn(move || inner.run_batches(shard));
        }
    }

    /// Services one write through the replication path: append to the
    /// replicated log, wait for the ack condition (the `repl.wait` stage),
    /// and answer from the apply pump's verify outcome. A replica that is
    /// not — or stops being — the leader answers `NotLeader` with a hint;
    /// the client re-routes and resends, so nothing is acknowledged that
    /// replication did not retire.
    fn replicated_write(
        &self,
        line: u64,
        data: &[u8; LINE_BYTES],
        request_id: u64,
        conn: &Arc<ConnWriter>,
        trace: Option<TraceContext>,
    ) {
        let repl = self.replicator.as_ref().expect("replicated path");
        if self.draining.load(Ordering::SeqCst) {
            self.send(
                conn,
                request_id,
                &Response::Err {
                    code: code::DRAINING,
                    detail: "server is draining".into(),
                },
                trace,
            );
            return;
        }
        if !self.map.contains(line) {
            self.send(
                conn,
                request_id,
                &Response::Err {
                    code: code::OUT_OF_RANGE,
                    detail: format!("line {line} >= {}", self.map.total_lines()),
                },
                trace,
            );
            return;
        }
        let t0 = if trace.is_some() {
            self.tracer.now_ns()
        } else {
            0
        };
        let start = std::time::Instant::now();
        let result = repl.replicate_write(line, data);
        self.h_repl_wait.record(start.elapsed().as_nanos() as f64);
        if let Some(ctx) = trace {
            let detail = match &result {
                Ok(ack) => u64::from(ack.attempts),
                Err(_) => 0,
            };
            self.tracer
                .record_span(ctx, "repl.wait", t0, self.tracer.now_ns(), detail);
        }
        let resp = match result {
            Ok(ack) => Response::WriteOk {
                attempts: ack.attempts,
                degraded: ack.degraded,
            },
            Err(hint) => Response::NotLeader { leader: hint },
        };
        self.send(conn, request_id, &resp, trace);
    }

    /// The stats text: one row per shard plus a service summary line.
    fn stats_text(&self) -> String {
        let mut text = String::new();
        for (i, be) in self.backends.iter().enumerate() {
            let row = be.lock().expect("backend poisoned").stats_line();
            let st = self.states[i].lock().expect("shard state poisoned");
            text.push_str(&format!(
                "{row} window={} queued={} stalls={}\n",
                st.window,
                st.queue.len(),
                st.stalls
            ));
        }
        text.push_str(&format!(
            "service: requests={} busy={} drops={} stalls={} corrupt={}\n",
            self.c_requests.get(),
            self.c_busy.get(),
            self.c_drops.get(),
            self.c_stalls.get(),
            self.c_corrupt.get(),
        ));
        text
    }

    /// The `STATS_JSON` payload: a machine-readable snapshot of per-shard
    /// admission state (queue depth, slow-start window, in-flight flag),
    /// backend counters, service totals, and sim-latency histogram
    /// summaries. One JSON object, no trailing newline, hand-rolled like
    /// every other serializer in the workspace.
    fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.backends.len());
        let _ = write!(
            out,
            "{{\"draining\":{},\"shards\":[",
            self.draining.load(Ordering::SeqCst)
        );
        for (i, be) in self.backends.iter().enumerate() {
            let s = be.lock().expect("backend poisoned").stats();
            let (queued, window, inflight, stalls) = {
                let st = self.states[i].lock().expect("shard state poisoned");
                (st.queue.len(), st.window, st.inflight, st.stalls)
            };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{i},\"queued\":{queued},\"window\":{window},\
                 \"inflight\":{inflight},\"stalls\":{stalls},\"served\":{},\
                 \"reads\":{},\"writes\":{},\"busy\":{},\"degraded\":{},\
                 \"sim_ms\":{:.3}}}",
                s.served,
                s.reads,
                s.writes,
                s.busy_rejections,
                s.degraded_lines,
                s.sim_now_ns / 1e6,
            );
        }
        let _ = write!(
            out,
            "],\"service\":{{\"requests\":{},\"busy\":{},\"conn_drops\":{},\
             \"shard_stalls\":{},\"corrupt_frames\":{}}}",
            self.c_requests.get(),
            self.c_busy.get(),
            self.c_drops.get(),
            self.c_stalls.get(),
            self.c_corrupt.get(),
        );
        if let Some(repl) = &self.replicator {
            let s = repl.status();
            let _ = write!(
                out,
                ",\"cluster\":{{\"role\":\"{}\",\"term\":{},\"commit\":{},\
                 \"applied\":{},\"lag\":{},\"leader\":\"{}\"}}",
                s.role,
                s.term,
                s.commit,
                s.applied,
                s.lag,
                s.leader.replace('"', ""),
            );
        }
        let fin = |x: f64| if x.is_finite() { x } else { 0.0 };
        let r = self.h_sim_read.snapshot();
        let w = self.h_sim_write.snapshot();
        let _ = write!(
            out,
            ",\"hist\":{{\"sim_read_ns\":{{\"count\":{},\"p50\":{:.1},\"p99\":{:.1}}},\
             \"sim_write_ns\":{{\"count\":{},\"p50\":{:.1},\"p99\":{:.1}}}}}}}",
            r.count(),
            fin(r.p50()),
            fin(r.p99()),
            w.count(),
            fin(w.p50()),
            fin(w.p99()),
        );
        out
    }

    /// Total data requests retired across shards.
    fn total_served(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.lock().expect("backend poisoned").stats().served)
            .sum()
    }

    /// True when every shard queue is empty and no batch task is running.
    fn quiesced(&self) -> bool {
        self.states.iter().all(|s| {
            let st = s.lock().expect("shard state poisoned");
            st.queue.is_empty() && !st.inflight
        })
    }

    /// One connection's read loop.
    fn handle_conn(self: &Arc<Self>, stream: TcpStream, addr: SocketAddr, conn_id: u64) {
        let _ = stream.set_nodelay(true);
        // Buffer the read side: a frame's length prefix and body become one
        // syscall instead of two (and zero when frames arrive back-to-back).
        let mut reader = match stream.try_clone() {
            Ok(r) => std::io::BufReader::with_capacity(16 * 1024, r),
            Err(_) => return,
        };
        let conn = Arc::new(ConnWriter {
            stream: Mutex::new(stream),
            id: conn_id,
        });
        loop {
            let frame = match read_frame(&mut reader) {
                Ok(f) => f,
                Err(WireError::Closed | WireError::Io(_)) => return,
                Err(e) => {
                    // Decode errors leave the stream in sync: report and
                    // keep serving the connection.
                    self.send(
                        &conn,
                        u64::MAX,
                        &Response::Err {
                            code: code::BAD_FRAME,
                            detail: e.to_string(),
                        },
                        None,
                    );
                    continue;
                }
            };
            // Scheduled connection drop: close abruptly, client reconnects.
            if let Some(inj) = &self.faults {
                if let Some(f) = inj.fire(reram_fault::site::CONN_DROP, &format!("conn{conn_id}")) {
                    if f.kind == reram_fault::FaultKind::ConnDrop {
                        self.c_drops.inc();
                        inj.note_recovery("serve.conn", "client_reconnect");
                        return;
                    }
                }
            }
            self.c_requests.inc();
            // A v2 trace context on the frame opts this request into span
            // recording (when the server has a tracer at all).
            let trace = if self.tracer.enabled() {
                frame.trace
            } else {
                None
            };
            let t_dec = if trace.is_some() {
                self.tracer.now_ns()
            } else {
                0
            };
            let parsed = Request::from_frame(&frame);
            if let Some(ctx) = trace {
                self.tracer.record_span(
                    ctx,
                    "server.decode",
                    t_dec,
                    self.tracer.now_ns(),
                    frame.payload.len() as u64,
                );
            }
            // Data ops on a non-leader replica redirect instead of
            // serving: followers may lag the committed log, so neither
            // reads nor writes are safe off-leader.
            let redirect = |req: &Result<Request, WireError>| -> Option<String> {
                let repl = self.replicator.as_ref()?;
                if matches!(
                    req,
                    Ok(Request::ReadLine { .. } | Request::WriteLine { .. })
                ) && !repl.is_leader()
                {
                    Some(repl.leader_hint())
                } else {
                    None
                }
            };
            if let Some(leader) = redirect(&parsed) {
                self.send(
                    &conn,
                    frame.request_id,
                    &Response::NotLeader { leader },
                    trace,
                );
                continue;
            }
            match parsed {
                Ok(Request::ReadLine { line }) => {
                    let op = ShardOp::Read {
                        local: self.map.local_of(line),
                    };
                    self.admit(line, op, frame.request_id, &conn, trace);
                }
                Ok(Request::WriteLine { line, data }) => {
                    if self.replicator.is_some() {
                        self.replicated_write(line, &data, frame.request_id, &conn, trace);
                        continue;
                    }
                    let op = ShardOp::Write {
                        local: self.map.local_of(line),
                        data,
                    };
                    self.admit(line, op, frame.request_id, &conn, trace);
                }
                Ok(Request::Stats) => {
                    let text = self.stats_text();
                    self.send(&conn, frame.request_id, &Response::StatsOk { text }, trace);
                }
                Ok(Request::StatsJson) => {
                    let json = self.snapshot_json();
                    self.send(
                        &conn,
                        frame.request_id,
                        &Response::StatsJsonOk { json },
                        trace,
                    );
                }
                Ok(Request::Drain) => {
                    self.draining.store(true, Ordering::SeqCst);
                    while !self.quiesced() {
                        thread::sleep(Duration::from_micros(200));
                    }
                    // A graceful drain leaves the log fully synced; an
                    // abrupt stop intentionally does not (that is what
                    // the recovery path is for).
                    if let Some(log) = &self.durable {
                        let _ = log.lock().expect("durable log poisoned").sync();
                    }
                    let served = self.total_served();
                    self.send(
                        &conn,
                        frame.request_id,
                        &Response::DrainOk { served },
                        trace,
                    );
                    self.shutdown.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(addr);
                    return;
                }
                Err(e) => {
                    self.send(
                        &conn,
                        frame.request_id,
                        &Response::Err {
                            code: code::BAD_FRAME,
                            detail: e.to_string(),
                        },
                        trace,
                    );
                }
            }
        }
    }
}

/// A running memory service.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `cfg.addr` and starts serving without tracing. Telemetry
    /// resolves on `obs` (`serve.*` counters, `serve.shard.*` histograms);
    /// `faults` arms the connection-drop / shard-stall /
    /// response-corruption sites.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        cfg: &ServeConfig,
        obs: &Obs,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Server> {
        Self::start_traced(cfg, obs, Tracer::off(), faults)
    }

    /// [`Server::start`] plus request-scoped tracing: frames carrying a v2
    /// trace context record per-stage spans into `tracer` (drain it after
    /// the run with [`Tracer::write_jsonl`]). A [`Tracer::off`] handle
    /// makes this identical to [`Server::start`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_traced(
        cfg: &ServeConfig,
        obs: &Obs,
        tracer: Tracer,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Server> {
        let backends = Self::build_backends(cfg, obs);
        Self::start_impl(cfg, obs, tracer, faults, None, None, backends)
    }

    /// [`Server::start_traced`] plus single-node durability: every
    /// acknowledged write is appended to a segmented write-ahead log
    /// under `dir` (global line + data per record) *before* its `WriteOk`
    /// is sent, and on start the surviving log is replayed through the
    /// write-verify ladder into fresh backends — so a crash-stopped
    /// server reboots with every acknowledged write intact. Torn or
    /// bit-rotted log tails are truncated and counted during the replay
    /// ([`reram_durable::DurableLog::open`]'s recovery contract), never
    /// silently applied.
    ///
    /// Counters: `serve.wal.replayed` (records re-applied on boot),
    /// `serve.wal.errors` (append failures), plus the `durable.wal.*`
    /// family from the log itself.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure and log-open I/O errors.
    pub fn start_durable(
        cfg: &ServeConfig,
        obs: &Obs,
        tracer: Tracer,
        faults: Option<Arc<FaultInjector>>,
        dir: &std::path::Path,
    ) -> std::io::Result<Server> {
        let mut dcfg = DurableConfig::new(dir, 8 + LINE_BYTES);
        dcfg.target = "serve".to_string();
        let (log, recovered) = DurableLog::open(dcfg, obs, faults.clone())?;
        let backends = Self::build_backends(cfg, obs);
        let map = ShardMap::new(cfg.shards, cfg.lines_per_shard);
        let mut replayed = 0u64;
        for rec in &recovered.records {
            if rec.kind != REC_ENTRY || rec.payload.len() != 8 + LINE_BYTES {
                continue;
            }
            let line = u64::from_le_bytes(rec.payload[..8].try_into().expect("8 bytes"));
            if !map.contains(line) {
                continue;
            }
            let mut data = Box::new([0u8; LINE_BYTES]);
            data.copy_from_slice(&rec.payload[8..]);
            let shard = map.shard_of(line);
            let local = map.local_of(line);
            let mut be = backends[shard].lock().expect("backend poisoned");
            let _ = be.service_batch(&[ShardOp::Write { local, data }]);
            replayed += 1;
        }
        obs.counter("serve.wal.replayed").add(replayed);
        Self::start_impl(cfg, obs, tracer, faults, None, Some(log), backends)
    }

    /// Builds the per-shard backend stack for `cfg` without starting a
    /// server. A cluster engine builds one set per replica, hands it to
    /// [`Server::start_replicated`], and applies committed log entries to
    /// the same backends from its pump — one write-verify ladder per
    /// replica, shared by the serving and the replication path.
    #[must_use]
    pub fn build_backends(cfg: &ServeConfig, obs: &Obs) -> Arc<Vec<Mutex<ShardBackend>>> {
        let map = ShardMap::new(cfg.shards, cfg.lines_per_shard);
        Arc::new(
            (0..cfg.shards)
                .map(|s| Mutex::new(ShardBackend::new(map, s, cfg.scheme, obs)))
                .collect(),
        )
    }

    /// [`Server::start_traced`] plus a consensus hook: data ops redirect
    /// off non-leaders with [`Response::NotLeader`], and writes replicate
    /// through `replicator` before they are acknowledged. `backends` must
    /// come from [`Server::build_backends`] with the same `cfg` — the
    /// replicator's apply pump shares them.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_replicated(
        cfg: &ServeConfig,
        obs: &Obs,
        tracer: Tracer,
        faults: Option<Arc<FaultInjector>>,
        replicator: Arc<dyn Replicator>,
        backends: Arc<Vec<Mutex<ShardBackend>>>,
    ) -> std::io::Result<Server> {
        Self::start_impl(cfg, obs, tracer, faults, Some(replicator), None, backends)
    }

    fn start_impl(
        cfg: &ServeConfig,
        obs: &Obs,
        tracer: Tracer,
        faults: Option<Arc<FaultInjector>>,
        replicator: Option<Arc<dyn Replicator>>,
        durable: Option<DurableLog>,
        backends: Arc<Vec<Mutex<ShardBackend>>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let map = ShardMap::new(cfg.shards, cfg.lines_per_shard);
        let workers = if cfg.workers == 0 {
            ThreadPool::default_jobs().min(cfg.shards.max(2))
        } else {
            cfg.workers
        };
        let inner = Arc::new(Inner {
            map,
            queue_cap: cfg.queue_cap,
            batch_max: cfg.batch_max.max(1),
            states: (0..cfg.shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        inflight: false,
                        window: cfg.queue_cap,
                        stalls: 0,
                    })
                })
                .collect(),
            backends,
            pool: ThreadPool::with_obs(workers, obs),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            faults,
            replicator,
            durable: durable.map(Mutex::new),
            conn_seq: AtomicU64::new(0),
            tracer,
            c_requests: obs.counter("serve.requests"),
            c_busy: obs.counter("serve.busy"),
            c_drops: obs.counter("serve.conn_drops"),
            c_stalls: obs.counter("serve.shard_stalls"),
            c_corrupt: obs.counter("serve.corrupt_frames"),
            c_wal_errors: obs.counter("serve.wal.errors"),
            g_queue: (0..cfg.shards)
                .map(|i| obs.gauge(&format!("serve.shard{i}.queue_depth")))
                .collect(),
            g_inflight: (0..cfg.shards)
                .map(|i| obs.gauge(&format!("serve.shard{i}.in_flight")))
                .collect(),
            h_sim_read: obs.hist("serve.shard.sim_read_ns"),
            h_sim_write: obs.hist("serve.shard.sim_write_ns"),
            h_repl_wait: obs.hist("serve.repl.wait_ns"),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                for s in listener.incoming() {
                    if accept_inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = s else { continue };
                    let conn_id = accept_inner.conn_seq.fetch_add(1, Ordering::SeqCst);
                    let ci = Arc::clone(&accept_inner);
                    let _ = thread::Builder::new()
                        .name(format!("serve-conn{conn_id}"))
                        .spawn(move || ci.handle_conn(stream, addr, conn_id));
                }
            })?;
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` binds).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Data requests retired so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.inner.total_served()
    }

    /// Forces shutdown without draining (tests / abnormal exit). In-flight
    /// batches finish; queued-but-unserviced ops are dropped *unanswered*
    /// (their clients see the close), never acknowledged-then-lost.
    pub fn stop(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the server shuts down (a `DRAIN` request or
    /// [`Server::stop`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
            if let Some(h) = self.accept.take() {
                let _ = h.join();
            }
        }
    }
}

/// A minimal blocking client for the wire protocol — one outstanding
/// request at a time, used by the load generator, the audit pass and the
/// tests. Retry policy lives in the caller; this type only moves frames.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: std::io::BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = std::io::BufReader::with_capacity(4 * 1024, stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends `req` without waiting for the response; returns the request
    /// id to pass to [`Client::recv`]. Splitting send from receive lets a
    /// load-generator thread keep many one-outstanding connections in
    /// flight at once.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        self.send_with_trace(req, None)
    }

    /// [`Client::send`] with an optional trace context stamped on the
    /// frame (upgrading it to wire v2). The server parents its stage spans
    /// under [`TraceContext::parent_span_id`] and echoes the context on
    /// the response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_with_trace(
        &mut self,
        req: &Request,
        trace: Option<TraceContext>,
    ) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = req.to_frame(id).with_trace(trace);
        self.stream.write_all(&frame.encode())?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Blocks for the response to request `id` (from [`Client::send`]).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] — including `CrcMismatch` when the server's
    /// response was corrupted in flight (the caller re-requests) and
    /// `BadPayload` when the response id does not match the request.
    pub fn recv(&mut self, id: u64) -> Result<Response, WireError> {
        let resp: Frame = read_frame(&mut self.reader)?;
        if resp.request_id != id && resp.request_id != u64::MAX {
            return Err(WireError::BadPayload(format!(
                "response id {} for request {id}",
                resp.request_id
            )));
        }
        Response::from_frame(&resp)
    }

    /// Sends `req` and blocks for the matching response.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let id = self.send(req)?;
        self.recv(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::LINE_BYTES;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            shards: 2,
            lines_per_shard: 128,
            queue_cap: 16,
            batch_max: 4,
            workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn write_read_round_trip_over_tcp() {
        let obs = Obs::off();
        let server = Server::start(&tiny_cfg(), &obs, None).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let data = Box::new([0xABu8; LINE_BYTES]);
        let w = c
            .call(&Request::WriteLine {
                line: 37,
                data: data.clone(),
            })
            .unwrap();
        assert!(matches!(
            w,
            Response::WriteOk {
                attempts: 1,
                degraded: false
            }
        ));
        match c.call(&Request::ReadLine { line: 37 }).unwrap() {
            Response::ReadOk { data: d } => assert_eq!(d, data),
            other => panic!("expected ReadOk, got {other:?}"),
        }
        server.stop();
        server.join();
    }

    #[test]
    fn out_of_range_lines_are_typed_errors() {
        let obs = Obs::off();
        let server = Server::start(&tiny_cfg(), &obs, None).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        match c.call(&Request::ReadLine { line: 1 << 40 }).unwrap() {
            Response::Err { code: c2, .. } => assert_eq!(c2, code::OUT_OF_RANGE),
            other => panic!("expected Err, got {other:?}"),
        }
        server.stop();
        server.join();
    }

    #[test]
    fn stats_and_drain_round_trip() {
        let obs = Obs::off();
        let server = Server::start(&tiny_cfg(), &obs, None).unwrap();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        for k in 0..8u64 {
            let data = Box::new([k as u8; LINE_BYTES]);
            let r = c.call(&Request::WriteLine { line: k, data }).unwrap();
            assert!(matches!(r, Response::WriteOk { .. }));
        }
        match c.call(&Request::Stats).unwrap() {
            Response::StatsOk { text } => {
                assert!(text.contains("shard0:"), "{text}");
                assert!(text.contains("shard1:"), "{text}");
                assert!(text.contains("service:"), "{text}");
            }
            other => panic!("expected StatsOk, got {other:?}"),
        }
        match c.call(&Request::Drain).unwrap() {
            Response::DrainOk { served } => assert_eq!(served, 8),
            other => panic!("expected DrainOk, got {other:?}"),
        }
        server.join();
        // Post-drain data ops fail at the transport (server gone).
        assert!(
            Client::connect(addr).is_err() || {
                let mut c2 = Client::connect(addr).unwrap();
                c2.call(&Request::ReadLine { line: 0 }).is_err()
            }
        );
    }

    #[test]
    fn garbage_frames_do_not_kill_the_connection() {
        let obs = Obs::off();
        let server = Server::start(&tiny_cfg(), &obs, None).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Hand-corrupt a frame: flip a payload byte after encoding.
        let mut bytes = Request::ReadLine { line: 1 }.to_frame(1).encode();
        bytes[12] ^= 0x80;
        c.stream.write_all(&bytes).unwrap();
        c.stream.flush().unwrap();
        let resp = read_frame(&mut c.reader).unwrap();
        match Response::from_frame(&resp).unwrap() {
            Response::Err { code: c2, .. } => assert_eq!(c2, code::BAD_FRAME),
            other => panic!("expected Err, got {other:?}"),
        }
        // The connection still serves.
        match c.call(&Request::ReadLine { line: 1 }).unwrap() {
            Response::ReadOk { .. } => {}
            other => panic!("expected ReadOk, got {other:?}"),
        }
        server.stop();
        server.join();
    }

    #[test]
    fn connection_drop_fault_closes_then_reconnect_succeeds() {
        use reram_fault::{FaultKind, FaultPlan, FaultSpec};
        let obs = Obs::off();
        let plan = FaultPlan::new(7).with(
            FaultSpec::new(reram_fault::site::CONN_DROP, FaultKind::ConnDrop).target("conn0"),
        );
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let server = Server::start(&tiny_cfg(), &obs, Some(Arc::clone(&inj))).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // First frame on conn0 triggers the drop: the call fails.
        assert!(c.call(&Request::ReadLine { line: 0 }).is_err());
        // Reconnect (conn1) and resend — recovered.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            c2.call(&Request::ReadLine { line: 0 }).unwrap(),
            Response::ReadOk { .. }
        ));
        assert_eq!(inj.injected(), 1);
        server.stop();
        server.join();
    }

    #[test]
    fn response_corruption_is_detected_and_survivable() {
        use reram_fault::{FaultKind, FaultPlan, FaultSpec};
        let obs = Obs::off();
        let plan = FaultPlan::new(7).with(FaultSpec::new(
            reram_fault::site::RESP_CORRUPT,
            FaultKind::RespCorrupt,
        ));
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let server = Server::start(&tiny_cfg(), &obs, Some(inj)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // The corrupted response must surface as a CRC mismatch…
        match c.call(&Request::ReadLine { line: 0 }) {
            Err(WireError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        // …and the stream stays usable: re-request succeeds.
        assert!(matches!(
            c.call(&Request::ReadLine { line: 0 }).unwrap(),
            Response::ReadOk { .. }
        ));
        server.stop();
        server.join();
    }

    #[test]
    fn traced_requests_record_every_server_stage() {
        let obs = Obs::new();
        let tracer = Tracer::new(1);
        let server = Server::start_traced(&tiny_cfg(), &obs, tracer.clone(), None).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let ctx = TraceContext {
            trace_id: 42,
            parent_span_id: 7,
        };
        let data = Box::new([0x5Au8; LINE_BYTES]);
        let id = c
            .send_with_trace(&Request::WriteLine { line: 3, data }, Some(ctx))
            .unwrap();
        assert!(matches!(c.recv(id).unwrap(), Response::WriteOk { .. }));
        // An untraced request on the same connection records nothing.
        assert!(matches!(
            c.call(&Request::ReadLine { line: 3 }).unwrap(),
            Response::ReadOk { .. }
        ));
        server.stop();
        server.join();
        let spans = tracer.drain();
        assert!(
            spans
                .iter()
                .all(|s| s.trace_id == 42 && s.parent_span_id == 7),
            "{spans:?}"
        );
        let stages: Vec<&str> = spans.iter().map(|s| s.stage).collect();
        for want in [
            "server.decode",
            "server.queue",
            "server.gate",
            "server.service",
            "server.write",
        ] {
            assert_eq!(
                stages.iter().filter(|s| **s == want).count(),
                1,
                "stage {want} in {stages:?}"
            );
        }
        let service = spans.iter().find(|s| s.stage == "server.service").unwrap();
        assert_eq!(service.detail, 1, "write verify attempts ride in detail");
    }

    #[test]
    fn stats_json_returns_a_machine_readable_snapshot() {
        let obs = Obs::new();
        let server = Server::start(&tiny_cfg(), &obs, None).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for k in 0..4u64 {
            let data = Box::new([k as u8; LINE_BYTES]);
            let r = c.call(&Request::WriteLine { line: k, data }).unwrap();
            assert!(matches!(r, Response::WriteOk { .. }));
        }
        match c.call(&Request::StatsJson).unwrap() {
            Response::StatsJsonOk { json } => {
                assert!(json.starts_with("{\"draining\":false"), "{json}");
                assert!(json.contains("\"shard\":0"), "{json}");
                assert!(json.contains("\"shard\":1"), "{json}");
                assert!(json.contains("\"writes\":2"), "{json}");
                assert!(json.contains("\"window\":16"), "{json}");
                assert!(json.contains("\"service\":{\"requests\":"), "{json}");
                assert!(json.contains("\"sim_write_ns\":{\"count\":4"), "{json}");
            }
            other => panic!("expected StatsJsonOk, got {other:?}"),
        }
        // Per-shard admission gauges registered and quiesced back to zero.
        assert_eq!(obs.gauge("serve.shard0.queue_depth").get(), 0.0);
        assert_eq!(obs.gauge("serve.shard1.in_flight").get(), 0.0);
        server.stop();
        server.join();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "reram_serve_{tag}_{}_{n}_{nanos}",
            std::process::id()
        ))
    }

    #[test]
    fn durable_server_recovers_acknowledged_writes_after_abrupt_stop() {
        let dir = scratch_dir("durable");
        let obs = Obs::off();
        let server = Server::start_durable(&tiny_cfg(), &obs, Tracer::off(), None, &dir).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for k in 0..24u64 {
            let data = Box::new([(k as u8) ^ 0x5A; LINE_BYTES]);
            let r = c.call(&Request::WriteLine { line: k, data }).unwrap();
            assert!(matches!(r, Response::WriteOk { .. }));
        }
        // Abrupt stop: no drain, no final sync — the crash signature.
        server.stop();
        server.join();

        let obs = Obs::new();
        let server = Server::start_durable(&tiny_cfg(), &obs, Tracer::off(), None, &dir).unwrap();
        assert_eq!(obs.counter("serve.wal.replayed").get(), 24);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for k in 0..24u64 {
            match c.call(&Request::ReadLine { line: k }).unwrap() {
                Response::ReadOk { data } => {
                    assert_eq!(data[0], (k as u8) ^ 0x5A, "line {k} lost on restart");
                }
                other => panic!("expected ReadOk, got {other:?}"),
            }
        }
        server.stop();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_stall_collapses_the_window_then_slow_starts() {
        use reram_fault::{FaultKind, FaultPlan, FaultSpec};
        let obs = Obs::off();
        let plan = FaultPlan::new(7).with(
            FaultSpec::new(reram_fault::site::SHARD_STALL, FaultKind::ShardStall)
                .target("shard0")
                .param(1.0), // 1 ms stall
        );
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let server = Server::start(&tiny_cfg(), &obs, Some(inj)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Line 0 → shard 0: the first batch stalls 1 ms, then recovers.
        let data = Box::new([1u8; LINE_BYTES]);
        let r = c
            .call(&Request::WriteLine {
                line: 0,
                data: data.clone(),
            })
            .unwrap();
        assert!(matches!(r, Response::WriteOk { .. }));
        // Subsequent traffic flows (window doubles back open).
        for _ in 0..6 {
            let r = c
                .call(&Request::WriteLine {
                    line: 0,
                    data: data.clone(),
                })
                .unwrap();
            assert!(matches!(r, Response::WriteOk { .. }));
        }
        match c.call(&Request::Stats).unwrap() {
            Response::StatsOk { text } => assert!(text.contains("stalls=1"), "{text}"),
            other => panic!("expected StatsOk, got {other:?}"),
        }
        server.stop();
        server.join();
    }
}
