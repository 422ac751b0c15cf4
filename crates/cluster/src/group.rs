//! The live in-process replicated shard group.
//!
//! [`ClusterGroup::start`] spins up N replicas. Each replica is a full
//! [`reram_serve::Server`] (its own TCP listener and shard backends)
//! plugged into consensus through the [`Replicator`] hook; one **pump
//! thread** owns every replica's [`RaftCore`] and drives the whole group:
//!
//! * delivers replica-to-replica messages over an in-memory bus, each hop
//!   round-tripping the v3 CRC-framed wire codec;
//! * advances logical time (`tick_ms` per tick) for elections and
//!   heartbeats;
//! * applies committed entries **in log order** through each replica's own
//!   [`ShardBackend::service_batch`] — the same write-verify ladder the
//!   single-node server uses, so DRVR escalation state converges
//!   deterministically on every replica;
//! * resolves pending client writes: a leader's `WriteLine` parks in
//!   [`Replicator::replicate_write`] until its entry is committed and
//!   applied (plus, under [`ReplicationMode::All`], held by every live
//!   replica), and the ack carries the *pump's* verify outcome.
//!
//! Fault sites ([`reram_fault::site`]): `cluster.leader.kill` (per tick,
//! target `group`) stops the leader's server and crash-stops its core;
//! `cluster.net.partition` (per tick, target `peer<id>`) isolates a
//! replica; `cluster.msg.stale_term` (per delivery, target `peer<id>`)
//! rewrites a message's term downward to prove the term checks hold.

use crate::core::{CoreConfig, RaftCore, Role, WalOp};
use reram_durable::{DurableConfig, DurableLog, Recovered, REC_ENTRY, REC_META, REC_TRUNCATE};
use reram_fault::{site, FaultInjector, FaultKind};
use reram_obs::{Obs, TraceContext, Tracer};
use reram_serve::cluster::{ClusterMsg, ReplicaId, SnapshotLine, WireEntry};
use reram_serve::proto::{Frame, Response, LINE_BYTES};
use reram_serve::shard::{ShardBackend, ShardMap, ShardOp};
use reram_serve::{
    ClusterStatus, ReplicationMode, Replicator, ServeConfig, Server, WriteAck, WIRE_ENTRY_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a live replica group.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Replicas in the group (3+ to survive a leader kill).
    pub replicas: u16,
    /// Per-replica server config (`addr` should be `127.0.0.1:0`; every
    /// replica binds its own port).
    pub serve: ServeConfig,
    /// Cluster seed: election timeouts and all consensus randomness.
    pub seed: u64,
    /// Write-ack condition.
    pub mode: ReplicationMode,
    /// Milliseconds per consensus tick (elections take 10–20 ticks).
    pub tick_ms: u64,
    /// Log-compaction threshold (entries kept beyond the applied prefix).
    pub snapshot_keep: u64,
    /// Persist every replica's log and snapshots under this directory
    /// (one `replica<id>` subdirectory each). `None` keeps the group
    /// memory-only, as before PR 9.
    pub durable_dir: Option<PathBuf>,
    /// Base records per WAL segment before the seeded rotation jitter
    /// (only meaningful with `durable_dir`).
    pub wal_segment_records: u64,
}

impl GroupConfig {
    /// A 3-replica majority-ack group on loopback with 1 ms ticks.
    #[must_use]
    pub fn new(serve: ServeConfig, seed: u64) -> GroupConfig {
        GroupConfig {
            replicas: 3,
            serve,
            seed,
            mode: ReplicationMode::Majority,
            tick_ms: 1,
            snapshot_keep: 4096,
            durable_dir: None,
            wal_segment_records: 1024,
        }
    }
}

/// Per-replica durable-log configuration under the group directory.
fn durable_cfg(dir: &Path, cfg: &GroupConfig, id: ReplicaId) -> DurableConfig {
    DurableConfig {
        dir: dir.join(format!("replica{id}")),
        payload_bytes: WIRE_ENTRY_BYTES,
        segment_records: cfg.wal_segment_records,
        seed: cfg.seed.wrapping_add(u64::from(id) + 1),
        target: format!("replica{id}"),
    }
}

/// Encodes a line image as a snapshot's opaque state blob
/// (`line (u64 LE) | 64 B data` per line, in line order).
fn encode_image(lines: &[SnapshotLine]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lines.len() * (8 + LINE_BYTES));
    for (line, data) in lines {
        out.extend_from_slice(&line.to_le_bytes());
        out.extend_from_slice(&data[..]);
    }
    out
}

fn decode_image(blob: &[u8]) -> Vec<SnapshotLine> {
    blob.chunks_exact(8 + LINE_BYTES)
        .map(|c| {
            let line = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let mut data = Box::new([0u8; LINE_BYTES]);
            data.copy_from_slice(&c[8..]);
            (line, data)
        })
        .collect()
}

/// Wire-encodes one entry as a WAL record payload.
fn entry_payload(e: &WireEntry) -> Vec<u8> {
    let mut p = Vec::with_capacity(WIRE_ENTRY_BYTES);
    e.encode_into(&mut p);
    p
}

/// Replays a recovered WAL into consensus state: the newest meta record
/// wins, entry appends self-heal conflicts (an index at or below a
/// previous one supersedes that suffix), explicit truncations drop
/// suffixes, and any record that cannot be proven contiguous with the
/// log so far ends the replay — the leader re-teaches the lost tail.
#[allow(clippy::type_complexity)]
fn replay_wal(
    recovered: &Recovered,
    obs: &Obs,
) -> (
    u64,
    Option<ReplicaId>,
    u64,
    u64,
    Vec<SnapshotLine>,
    Vec<WireEntry>,
) {
    let (base_index, base_term, image) =
        recovered.snapshot.as_ref().map_or((0, 0, Vec::new()), |s| {
            (s.last_index, s.last_term, decode_image(&s.state))
        });
    let mut term = 0u64;
    let mut voted: Option<ReplicaId> = None;
    let mut entries: Vec<WireEntry> = Vec::new();
    let u64_at = |p: &[u8], o: usize| u64::from_le_bytes(p[o..o + 8].try_into().expect("8 bytes"));
    for rec in &recovered.records {
        match rec.kind {
            REC_META if rec.payload.len() == 16 => {
                term = u64_at(&rec.payload, 0);
                let v = u64_at(&rec.payload, 8);
                #[allow(clippy::cast_possible_truncation)]
                {
                    voted = (v != u64::MAX).then_some(v as ReplicaId);
                }
            }
            REC_TRUNCATE if rec.payload.len() == 8 => {
                let from = u64_at(&rec.payload, 0);
                entries.retain(|e| e.index < from);
            }
            REC_ENTRY => match WireEntry::decode_from(&rec.payload) {
                Ok(e) => {
                    if e.index <= base_index {
                        continue; // covered by the snapshot (stale segment)
                    }
                    while entries.last().is_some_and(|p| p.index >= e.index) {
                        entries.pop();
                    }
                    if e.index != base_index + 1 + entries.len() as u64 {
                        // A gap: continuity is unprovable from here on.
                        obs.counter("durable.wal.gap_discards").inc();
                        break;
                    }
                    entries.push(e);
                }
                Err(_) => {
                    // The record CRC passed but the entry's own seal did
                    // not: treat like bit rot, never apply the suffix.
                    obs.counter("durable.entry.corrupt").inc();
                    break;
                }
            },
            _ => {}
        }
    }
    (term, voted, base_index, base_term, image, entries)
}

/// Replays recovered image lines through a replica's own shard
/// backends — the VerifiedStore write-verify ladder — so per-replica
/// verify state is re-derived, not assumed.
fn replay_image(
    map: &ShardMap,
    backends: &[Mutex<ShardBackend>],
    lines: &[SnapshotLine],
    obs: &Obs,
) {
    for (line, data) in lines {
        let shard = map.shard_of(*line);
        let local = map.local_of(*line);
        let mut b = backends[shard].lock().expect("backend poisoned");
        let _ = b.service_batch(&[ShardOp::Write {
            local,
            data: data.clone(),
        }]);
    }
    obs.counter("cluster.recovery.lines_replayed")
        .add(lines.len() as u64);
}

/// A client write parked in [`Replicator::replicate_write`].
struct Proposal {
    ticket: u64,
    node: ReplicaId,
    line: u64,
    data: Box<[u8; LINE_BYTES]>,
}

/// Cross-thread state shared between server connection threads and the
/// pump. Kept small: the cores, backends and bus live inside the pump.
struct PumpState {
    shutdown: bool,
    next_ticket: u64,
    proposals: VecDeque<Proposal>,
    results: HashMap<u64, Result<WriteAck, String>>,
    kill_leader_req: bool,
    killed_ack: Option<Option<ReplicaId>>,
    digest_req: bool,
    digests: Option<Vec<Option<u32>>>,
    write_digests: Option<Vec<Option<u32>>>,
    store_digest_req: bool,
    store_digests: Option<Vec<Option<u32>>>,
    restart_req: Option<ReplicaId>,
    restart_ack: Option<bool>,
}

struct Shared {
    state: Mutex<PumpState>,
    /// Wakes the pump (new proposal / control request / shutdown).
    work: Condvar,
    /// Wakes threads waiting on results / control acks.
    done: Condvar,
    /// Per-replica status snapshot, refreshed every pump pass.
    statuses: Mutex<Vec<ClusterStatus>>,
    addrs: Vec<SocketAddr>,
}

impl Shared {
    fn addr_of(&self, id: ReplicaId) -> String {
        self.addrs
            .get(id as usize)
            .map(|a| a.to_string())
            .unwrap_or_default()
    }
}

/// The [`Replicator`] each server plugs in: forwards writes to the pump
/// and answers leadership questions from the status snapshot.
struct NodeReplicator {
    shared: Arc<Shared>,
    node: ReplicaId,
}

impl NodeReplicator {
    fn snapshot(&self) -> ClusterStatus {
        self.shared.statuses.lock().expect("statuses poisoned")[self.node as usize].clone()
    }
}

impl Replicator for NodeReplicator {
    fn is_leader(&self) -> bool {
        self.snapshot().role == "leader"
    }

    fn leader_hint(&self) -> String {
        self.snapshot().leader
    }

    fn replicate_write(&self, line: u64, data: &[u8; LINE_BYTES]) -> Result<WriteAck, String> {
        let ticket = {
            let mut st = self.shared.state.lock().expect("pump state poisoned");
            if st.shutdown {
                return Err(String::new());
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.proposals.push_back(Proposal {
                ticket,
                node: self.node,
                line,
                data: Box::new(*data),
            });
            self.shared.work.notify_one();
            ticket
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        loop {
            if let Some(res) = st.results.remove(&ticket) {
                return res;
            }
            if st.shutdown || Instant::now() >= deadline {
                return Err(self.snapshot().leader);
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    fn status(&self) -> ClusterStatus {
        self.snapshot()
    }
}

/// One replica as the pump sees it.
struct Node {
    core: RaftCore,
    backends: Arc<Vec<Mutex<ShardBackend>>>,
    server: Option<Server>,
    inbox: VecDeque<(ReplicaId, Vec<u8>)>,
    /// Verify outcomes by log index (term, ack), pruned as `applied`
    /// advances; pending tickets resolve against this.
    acks: HashMap<u64, (u64, WriteAck)>,
    killed: bool,
    /// Tick until which this replica is partitioned off the bus.
    partitioned_until: u64,
    /// This replica's on-disk log (durable groups only). Dropped on
    /// crash — like a dead process closing its files — and reopened,
    /// with full recovery, on restart.
    durable: Option<DurableLog>,
}

/// State recovered from one replica's durable directory at open time.
struct RecoveredNode {
    log: DurableLog,
    term: u64,
    voted: Option<ReplicaId>,
    base_index: u64,
    base_term: u64,
    image: Vec<SnapshotLine>,
    entries: Vec<WireEntry>,
}

/// Opens replica `id`'s durable log and replays it into consensus state.
fn recover_node(
    cfg: &GroupConfig,
    dir: &Path,
    id: ReplicaId,
    obs: &Obs,
    faults: Option<Arc<FaultInjector>>,
) -> std::io::Result<RecoveredNode> {
    let (log, recovered) = DurableLog::open(durable_cfg(dir, cfg, id), obs, faults)?;
    let (term, voted, base_index, base_term, image, entries) = replay_wal(&recovered, obs);
    Ok(RecoveredNode {
        log,
        term,
        voted,
        base_index,
        base_term,
        image,
        entries,
    })
}

/// Builds replica `id`'s consensus core from recovered state (or fresh
/// when `rec` is `None`) with WAL-op recording switched on for durable
/// groups.
fn build_core(cfg: &GroupConfig, id: ReplicaId, rec: Option<&RecoveredNode>) -> RaftCore {
    let mut core_cfg = CoreConfig::new(id, cfg.replicas, cfg.seed);
    core_cfg.snapshot_keep = cfg.snapshot_keep;
    let mut core = match rec {
        Some(r) => RaftCore::restore(
            core_cfg,
            r.term,
            r.voted,
            r.base_index,
            r.base_term,
            r.image.clone(),
            r.entries.clone(),
        ),
        None => RaftCore::new(core_cfg),
    };
    if cfg.durable_dir.is_some() {
        core.enable_wal();
    }
    core
}

struct PendingTicket {
    ticket: u64,
    node: ReplicaId,
    index: u64,
    term: u64,
}

/// A running replica group. Stop it with [`ClusterGroup::shutdown`].
pub struct ClusterGroup {
    shared: Arc<Shared>,
    pump: Option<JoinHandle<()>>,
    cfg: GroupConfig,
}

impl std::fmt::Debug for ClusterGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterGroup")
            .field("replicas", &self.cfg.replicas)
            .field("addrs", &self.shared.addrs)
            .finish()
    }
}

impl ClusterGroup {
    /// Binds `cfg.replicas` servers on loopback, wires each into the
    /// consensus pump, and starts the pump thread. A leader emerges within
    /// a few election timeouts (tens of milliseconds at the default
    /// `tick_ms`).
    ///
    /// # Errors
    ///
    /// Propagates a bind failure from any replica's server.
    pub fn start(
        cfg: &GroupConfig,
        obs: &Obs,
        tracer: Tracer,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<ClusterGroup> {
        assert!(cfg.replicas >= 1, "at least one replica");
        let statuses = vec![
            ClusterStatus {
                role: "follower",
                term: 0,
                commit: 0,
                applied: 0,
                lag: 0,
                leader: String::new(),
            };
            cfg.replicas as usize
        ];
        // Servers must exist before `Shared` is final (it embeds the bound
        // addresses), but the replicators need `Shared`. Two-phase: build
        // servers against a pre-shared core, then freeze the addresses.
        let mut servers = Vec::new();
        let mut backends_by_node = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        let shared_cell: Arc<Mutex<Option<Arc<Shared>>>> = Arc::new(Mutex::new(None));
        // Recover persisted state first, so a rebooted replica's backends
        // already hold its snapshot image before the listener goes live.
        let mut recovered: Vec<Option<RecoveredNode>> = Vec::new();
        for id in 0..cfg.replicas {
            recovered.push(match &cfg.durable_dir {
                Some(dir) => Some(recover_node(cfg, dir, id, obs, faults.clone())?),
                None => None,
            });
        }
        let map = ShardMap::new(cfg.serve.shards, cfg.serve.lines_per_shard);
        for id in 0..cfg.replicas {
            let backends = Server::build_backends(&cfg.serve, obs);
            if let Some(rec) = &recovered[id as usize] {
                replay_image(&map, &backends, &rec.image, obs);
            }
            let repl = Arc::new(LateBoundReplicator {
                cell: Arc::clone(&shared_cell),
                node: id,
            });
            let server = Server::start_replicated(
                &cfg.serve,
                obs,
                tracer.clone(),
                faults.clone(),
                repl,
                Arc::clone(&backends),
            )?;
            addrs.push(server.local_addr());
            servers.push(server);
            backends_by_node.push(backends);
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(PumpState {
                shutdown: false,
                next_ticket: 1,
                proposals: VecDeque::new(),
                results: HashMap::new(),
                kill_leader_req: false,
                killed_ack: None,
                digest_req: false,
                digests: None,
                write_digests: None,
                store_digest_req: false,
                store_digests: None,
                restart_req: None,
                restart_ack: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            statuses: Mutex::new(statuses),
            addrs,
        });
        *shared_cell.lock().expect("shared cell") = Some(Arc::clone(&shared));

        let nodes: Vec<Node> = servers
            .into_iter()
            .zip(backends_by_node)
            .zip(recovered)
            .enumerate()
            .map(|(id, ((server, backends), rec))| Node {
                core: build_core(cfg, id as ReplicaId, rec.as_ref()),
                backends,
                server: Some(server),
                inbox: VecDeque::new(),
                acks: HashMap::new(),
                killed: false,
                partitioned_until: 0,
                durable: rec.map(|r| r.log),
            })
            .collect();

        let pump = {
            let shared = Arc::clone(&shared);
            let obs = obs.clone();
            let tracer = tracer.clone();
            let faults = faults.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("cluster-pump".into())
                .spawn(move || {
                    Pump {
                        shared,
                        nodes,
                        pending: Vec::new(),
                        map: ShardMap::new(cfg.serve.shards, cfg.serve.lines_per_shard),
                        mode: cfg.mode,
                        tick_ms: cfg.tick_ms.max(1),
                        obs,
                        tracer,
                        faults,
                        tick: 0,
                        last_leader: None,
                        leaderless_since_tick: 0,
                        span_seq: 0,
                        cfg,
                    }
                    .run();
                })
                .expect("spawn cluster pump")
        };
        Ok(ClusterGroup {
            shared,
            pump: Some(pump),
            cfg: cfg.clone(),
        })
    }

    /// Bound addresses, indexed by replica id.
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shared.addrs.clone()
    }

    /// Latest status snapshot for every replica.
    #[must_use]
    pub fn statuses(&self) -> Vec<ClusterStatus> {
        self.shared
            .statuses
            .lock()
            .expect("statuses poisoned")
            .clone()
    }

    /// The current leader's replica id, if one is established.
    #[must_use]
    pub fn leader(&self) -> Option<ReplicaId> {
        self.statuses()
            .iter()
            .position(|s| s.role == "leader")
            .map(|i| i as ReplicaId)
    }

    /// Blocks until a leader is established (or `timeout` elapses).
    #[must_use]
    pub fn wait_for_leader(&self, timeout: Duration) -> Option<ReplicaId> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(l) = self.leader() {
                return Some(l);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Blocks until every live replica has applied everything it has
    /// committed and all live commit indexes agree.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let st = self.statuses();
            let live: Vec<&ClusterStatus> = st.iter().filter(|s| s.role != "dead").collect();
            let commits: Vec<u64> = live.iter().map(|s| s.commit).collect();
            let settled = live.iter().all(|s| s.lag == 0)
                && commits.windows(2).all(|w| w[0] == w[1])
                && !live.is_empty();
            if settled {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Crash-stops the current leader (the failover drill's kill switch):
    /// its server stops accepting and its core leaves the group. Returns
    /// the killed replica id, or `None` when no leader was established.
    pub fn kill_leader(&self) -> Option<ReplicaId> {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.kill_leader_req = true;
        st.killed_ack = None;
        self.shared.work.notify_one();
        loop {
            if let Some(ack) = st.killed_ack.take() {
                return ack;
            }
            if st.shutdown {
                return None;
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    /// Replica ids currently crash-stopped (role `"dead"`).
    #[must_use]
    pub fn dead_replicas(&self) -> Vec<ReplicaId> {
        self.statuses()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role == "dead")
            .map(|(i, _)| i as ReplicaId)
            .collect()
    }

    /// Reboots a crashed replica from its durable directory: the WAL and
    /// snapshots are re-read (running the full torn-tail/bit-rot recovery
    /// path), the consensus core is restored, backend verify state is
    /// re-derived by replaying the snapshot image through the
    /// write-verify ladder, and the replica rebinds its original address
    /// and rejoins the group as a follower.
    ///
    /// Returns `false` when the replica is not crashed, the group is not
    /// durable, or recovery could not complete.
    pub fn restart_replica(&self, id: ReplicaId) -> bool {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.restart_req = Some(id);
        st.restart_ack = None;
        self.shared.work.notify_one();
        loop {
            if let Some(ok) = st.restart_ack.take() {
                return ok;
            }
            if st.shutdown {
                return false;
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    /// Per-replica write-ledger digests (`None` for killed replicas).
    /// Live replicas that have converged report identical digests — this
    /// is the byte-identity check the failover drill gates on.
    #[must_use]
    pub fn ledger_digests(&self) -> Vec<Option<u32>> {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.digest_req = true;
        st.digests = None;
        self.shared.work.notify_one();
        loop {
            if let Some(d) = st.digests.take() {
                return d;
            }
            if st.shutdown {
                return Vec::new();
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    /// Per-replica **committed-write-sequence** digests (`None` for
    /// killed replicas): terms and noop barriers excluded, so the value
    /// is stable across independent runs of the same seeded workload —
    /// election timing legitimately varies the term values that
    /// [`ClusterGroup::ledger_digests`] folds in. The crash-recovery
    /// drill compares these against its crash-free baseline run.
    #[must_use]
    pub fn write_digests(&self) -> Vec<Option<u32>> {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.digest_req = true;
        st.write_digests = None;
        self.shared.work.notify_one();
        loop {
            if let Some(d) = st.write_digests.take() {
                return d;
            }
            if st.shutdown {
                return Vec::new();
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    /// Per-replica store-image digests (`None` for killed replicas): a
    /// CRC-32 over every data line, shard-major in local-line order.
    /// Converged replicas report identical store digests even when their
    /// log digests differ by election noise — this is the oracle the
    /// snapshot catch-up property gates on.
    #[must_use]
    pub fn store_digests(&self) -> Vec<Option<u32>> {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.store_digest_req = true;
        st.store_digests = None;
        self.shared.work.notify_one();
        loop {
            if let Some(d) = st.store_digests.take() {
                return d;
            }
            if st.shutdown {
                return Vec::new();
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .expect("pump state poisoned");
            st = guard;
        }
    }

    /// Stops every replica's server and the pump, then joins them.
    pub fn shutdown(mut self) {
        {
            let mut st = self.shared.state.lock().expect("pump state poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
            self.shared.done.notify_all();
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClusterGroup {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        st.shutdown = true;
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        drop(st);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

/// Replicator whose `Shared` arrives after server construction (servers
/// must bind before the address table can be frozen).
struct LateBoundReplicator {
    cell: Arc<Mutex<Option<Arc<Shared>>>>,
    node: ReplicaId,
}

impl LateBoundReplicator {
    fn bound(&self) -> Option<NodeReplicator> {
        self.cell
            .lock()
            .expect("shared cell")
            .as_ref()
            .map(|s| NodeReplicator {
                shared: Arc::clone(s),
                node: self.node,
            })
    }
}

impl Replicator for LateBoundReplicator {
    fn is_leader(&self) -> bool {
        self.bound().is_some_and(|r| r.is_leader())
    }

    fn leader_hint(&self) -> String {
        self.bound().map(|r| r.leader_hint()).unwrap_or_default()
    }

    fn replicate_write(&self, line: u64, data: &[u8; LINE_BYTES]) -> Result<WriteAck, String> {
        match self.bound() {
            Some(r) => r.replicate_write(line, data),
            None => Err(String::new()),
        }
    }

    fn status(&self) -> ClusterStatus {
        self.bound().map(|r| r.status()).unwrap_or(ClusterStatus {
            role: "follower",
            term: 0,
            commit: 0,
            applied: 0,
            lag: 0,
            leader: String::new(),
        })
    }
}

/// The pump thread's working set.
struct Pump {
    shared: Arc<Shared>,
    nodes: Vec<Node>,
    pending: Vec<PendingTicket>,
    map: ShardMap,
    mode: ReplicationMode,
    tick_ms: u64,
    obs: Obs,
    tracer: Tracer,
    faults: Option<Arc<FaultInjector>>,
    tick: u64,
    last_leader: Option<ReplicaId>,
    leaderless_since_tick: u64,
    span_seq: u64,
    cfg: GroupConfig,
}

impl Pump {
    fn run(&mut self) {
        let mut last_tick = Instant::now();
        loop {
            // 1. Pull work from the shared state.
            let (proposals, shutdown, kill_req, digest_req, store_digest_req, restart_req) = {
                let mut st = self.shared.state.lock().expect("pump state poisoned");
                let props: Vec<Proposal> = st.proposals.drain(..).collect();
                let kill = std::mem::take(&mut st.kill_leader_req);
                let dig = std::mem::take(&mut st.digest_req);
                let sdig = std::mem::take(&mut st.store_digest_req);
                let restart = st.restart_req.take();
                (props, st.shutdown, kill, dig, sdig, restart)
            };
            if shutdown {
                self.fail_all_pending();
                for n in &mut self.nodes {
                    if let Some(s) = n.server.take() {
                        s.stop();
                        s.join();
                    }
                }
                self.shared.done.notify_all();
                return;
            }
            if kill_req {
                let victim = self.kill_current_leader();
                let mut st = self.shared.state.lock().expect("pump state poisoned");
                st.killed_ack = Some(victim);
                self.shared.done.notify_all();
            }
            if let Some(id) = restart_req {
                let ok = self.restart_replica(id);
                // Refresh statuses before acking so callers never observe
                // the rebooted replica as still dead (wait_converged would
                // otherwise settle on the old survivors alone).
                self.publish_status();
                let mut st = self.shared.state.lock().expect("pump state poisoned");
                st.restart_ack = Some(ok);
                self.shared.done.notify_all();
            }

            // 2. Proposals → leader log appends.
            for p in proposals {
                self.handle_proposal(p);
            }

            // 3. Drain the bus until quiescent.
            self.deliver_all();

            // 4. Advance logical time on cadence.
            let mut ticked = false;
            while last_tick.elapsed() >= Duration::from_millis(self.tick_ms) {
                last_tick += Duration::from_millis(self.tick_ms);
                self.advance_tick();
                ticked = true;
            }
            if ticked {
                self.deliver_all();
            }

            // 5. Apply committed entries through each replica's ladder.
            self.apply_all();

            // 5b. Persist recorded WAL ops before any ack can escape —
            // the write-ahead half of the durability contract. A
            // scheduled `durable.crash` fault lands here.
            self.persist_all();

            // 6. Resolve parked writes.
            self.resolve_pending();

            // 7. Publish status (and digests when asked).
            self.publish_status();
            if digest_req {
                let digs: Vec<Option<u32>> = self
                    .nodes
                    .iter()
                    .map(|n| (!n.killed).then(|| n.core.ledger_digest()))
                    .collect();
                let writes: Vec<Option<u32>> = self
                    .nodes
                    .iter()
                    .map(|n| (!n.killed).then(|| n.core.writes_digest()))
                    .collect();
                let mut st = self.shared.state.lock().expect("pump state poisoned");
                st.digests = Some(digs);
                st.write_digests = Some(writes);
                self.shared.done.notify_all();
            }
            if store_digest_req {
                let digs: Vec<Option<u32>> = (0..self.nodes.len())
                    .map(|id| (!self.nodes[id].killed).then(|| self.store_digest(id)))
                    .collect();
                let mut st = self.shared.state.lock().expect("pump state poisoned");
                st.store_digests = Some(digs);
                self.shared.done.notify_all();
            }

            // 8. Sleep until the next tick or the next piece of work.
            let st = self.shared.state.lock().expect("pump state poisoned");
            if st.proposals.is_empty()
                && !st.shutdown
                && !st.kill_leader_req
                && !st.digest_req
                && !st.store_digest_req
                && st.restart_req.is_none()
            {
                let _ = self
                    .shared
                    .work
                    .wait_timeout(st, Duration::from_millis(self.tick_ms))
                    .expect("pump state poisoned");
            }
        }
    }

    fn live_count(&self) -> u32 {
        self.nodes.iter().filter(|n| !n.killed).count() as u32
    }

    fn leader_id(&self) -> Option<ReplicaId> {
        let mut it = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.killed && n.core.role() == Role::Leader)
            .map(|(i, _)| i as ReplicaId);
        match (it.next(), it.next()) {
            (Some(l), None) => Some(l),
            _ => None,
        }
    }

    fn hint_for(&self, node: ReplicaId) -> String {
        self.nodes[node as usize]
            .core
            .leader_hint()
            .filter(|l| !self.nodes[*l as usize].killed)
            .map(|l| self.shared.addr_of(l))
            .unwrap_or_default()
    }

    fn fail_all_pending(&mut self) {
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        for p in self.pending.drain(..) {
            st.results.insert(p.ticket, Err(String::new()));
        }
        self.shared.done.notify_all();
    }

    fn handle_proposal(&mut self, p: Proposal) {
        let node = p.node as usize;
        if self.nodes[node].killed || self.nodes[node].core.role() != Role::Leader {
            let hint = self.hint_for(p.node);
            let mut st = self.shared.state.lock().expect("pump state poisoned");
            st.results.insert(p.ticket, Err(hint));
            self.shared.done.notify_all();
            return;
        }
        self.obs.counter("cluster.proposals").inc();
        let (index, out) = self.nodes[node]
            .core
            .propose(p.line, p.data)
            .expect("role checked above");
        let term = self.nodes[node].core.term();
        self.pending.push(PendingTicket {
            ticket: p.ticket,
            node: p.node,
            index,
            term,
        });
        self.route(p.node, out);
    }

    /// Encodes outbound messages through the v3 codec onto the bus,
    /// honoring partitions and kills.
    fn route(&mut self, from: ReplicaId, out: Vec<(ReplicaId, ClusterMsg)>) {
        for (to, msg) in out {
            let cut = |n: &Node| n.killed || self.tick < n.partitioned_until;
            if cut(&self.nodes[from as usize]) || cut(&self.nodes[to as usize]) {
                self.obs.counter("cluster.msgs.dropped").inc();
                continue;
            }
            self.obs.counter("cluster.msgs.sent").inc();
            let bytes = msg.to_frame(0).encode();
            self.nodes[to as usize].inbox.push_back((from, bytes));
        }
    }

    fn deliver_all(&mut self) {
        loop {
            let mut progressed = false;
            for id in 0..self.nodes.len() {
                while let Some((from, bytes)) = self.nodes[id].inbox.pop_front() {
                    progressed = true;
                    if self.nodes[id].killed {
                        self.obs.counter("cluster.msgs.dropped").inc();
                        continue;
                    }
                    let frame = Frame::decode_body(&bytes[4..]).expect("bus frames decode");
                    let mut msg = ClusterMsg::from_frame(&frame).expect("bus frames re-type");
                    if let Some(f) = self
                        .faults
                        .as_ref()
                        .and_then(|fi| fi.fire(site::STALE_TERM, &format!("peer{id}")))
                    {
                        let back = (f.param as u64).max(1);
                        msg = msg.with_term(msg.term().saturating_sub(back));
                        self.obs.counter("cluster.faults.stale_term").inc();
                    }
                    let out = self.nodes[id].core.step(&msg);
                    let _ = from;
                    self.route(id as ReplicaId, out);
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn advance_tick(&mut self) {
        self.tick += 1;
        if let Some(fi) = self.faults.clone() {
            if fi.fire(site::LEADER_KILL, "group").is_some() {
                let _ = self.kill_current_leader();
            }
            for id in 0..self.nodes.len() {
                if self.nodes[id].killed {
                    continue;
                }
                if let Some(f) = fi.fire(site::PARTITION, &format!("peer{id}")) {
                    let ticks = if f.param > 0.0 { f.param as u64 } else { 40 };
                    self.nodes[id].partitioned_until = self.tick + ticks;
                    self.obs.counter("cluster.faults.partition").inc();
                }
            }
        }
        for id in 0..self.nodes.len() {
            if self.nodes[id].killed {
                continue;
            }
            let before = self.nodes[id].core.elections_started();
            let out = self.nodes[id].core.tick();
            if self.nodes[id].core.elections_started() > before {
                self.obs.counter("cluster.elections").inc();
            }
            self.route(id as ReplicaId, out);
        }
        self.note_leadership();
    }

    fn note_leadership(&mut self) {
        let now_leader = self.leader_id();
        if now_leader == self.last_leader {
            return;
        }
        match now_leader {
            Some(l) => {
                self.obs.counter("cluster.leader_changes").inc();
                self.obs
                    .hist("cluster.election.ticks")
                    .record((self.tick - self.leaderless_since_tick) as f64);
                if self.tracer.enabled() {
                    // A synthetic trace id keyed off the change sequence:
                    // leader-change spans ride the same v2 stream as
                    // request spans but never collide with client ids.
                    self.span_seq += 1;
                    let ctx = TraceContext {
                        trace_id: (0xC1 << 56) | self.span_seq,
                        parent_span_id: 0,
                    };
                    let now = self.tracer.now_ns();
                    self.tracer
                        .record_span(ctx, "cluster.leader_change", now, now, u64::from(l));
                }
            }
            None => self.leaderless_since_tick = self.tick,
        }
        self.last_leader = now_leader;
    }

    /// CRC-32 over replica `id`'s entire store image, shard-major in
    /// local-line order — the byte-identity oracle for catch-up checks.
    fn store_digest(&self, id: usize) -> u32 {
        let n = &self.nodes[id];
        let mut image = Vec::with_capacity(self.map.total_lines() as usize * LINE_BYTES);
        for shard in 0..self.map.shards() {
            let b = n.backends[shard].lock().expect("backend poisoned");
            for local in 0..self.map.lines_per_shard() {
                image.extend_from_slice(&b.peek(local));
            }
        }
        reram_obs::crc32(&image)
    }

    fn kill_current_leader(&mut self) -> Option<ReplicaId> {
        let l = self.leader_id()?;
        self.obs.counter("cluster.leader.kills").inc();
        self.crash_replica(l);
        Some(l)
    }

    /// Crash-stops replica `id` process-style: the server stops
    /// accepting, the core leaves the group, the durable-log handle is
    /// dropped (a dead process closes its files) — but the on-disk state
    /// stays put for a later [`Pump::restart_replica`].
    fn crash_replica(&mut self, id: ReplicaId) {
        let node = &mut self.nodes[id as usize];
        if node.killed {
            return;
        }
        node.killed = true;
        node.inbox.clear();
        node.durable = None;
        if let Some(s) = node.server.take() {
            s.stop();
            s.join();
        }
        self.obs.counter("cluster.replica.crashes").inc();
        if self.last_leader == Some(id) {
            self.last_leader = None;
            self.leaderless_since_tick = self.tick;
        }
        // Writes parked on the dead replica can never be acked by it.
        let mut st = self.shared.state.lock().expect("pump state poisoned");
        let mut kept = Vec::new();
        for p in self.pending.drain(..) {
            if p.node == id {
                st.results.insert(p.ticket, Err(String::new()));
            } else {
                kept.push(p);
            }
        }
        self.pending = kept;
        self.shared.done.notify_all();
    }

    /// Persists every live replica's recorded WAL ops. After each
    /// persisted record the `durable.crash` fault site is consulted for
    /// that replica — a scheduled [`FaultKind::ReplicaCrash`] crash-stops
    /// it at exactly that persistence point, cutting the rest of its
    /// batch short the way a real crash would.
    fn persist_all(&mut self) {
        let mut crashed: Vec<ReplicaId> = Vec::new();
        for id in 0..self.nodes.len() {
            if self.nodes[id].killed || self.nodes[id].durable.is_none() {
                // Recording stays on while unpersistable so a crashed
                // replica's core (inert anyway) cannot grow unbounded.
                self.nodes[id].core.take_wal_ops();
                continue;
            }
            let ops = self.nodes[id].core.take_wal_ops();
            let mut crash_here = false;
            for op in ops {
                if crash_here {
                    break; // the crash cut persistence short
                }
                // Snapshot materialization needs the core immutably, so
                // pull the image before borrowing the log mutably.
                let (image, tail) = if matches!(op, WalOp::SnapshotAt { .. }) {
                    (
                        self.nodes[id].core.image_lines(),
                        self.nodes[id].core.tail_entries(),
                    )
                } else {
                    (Vec::new(), Vec::new())
                };
                let log = self.nodes[id].durable.as_mut().expect("checked above");
                let res = match op {
                    WalOp::Append(e) => log.append(REC_ENTRY, &entry_payload(&e)),
                    WalOp::TruncateFrom(i) => log.append(REC_TRUNCATE, &i.to_le_bytes()),
                    WalOp::Meta { term, voted_for } => {
                        let mut p = [0u8; 16];
                        p[..8].copy_from_slice(&term.to_le_bytes());
                        p[8..]
                            .copy_from_slice(&voted_for.map_or(u64::MAX, u64::from).to_le_bytes());
                        log.append(REC_META, &p)
                    }
                    WalOp::SnapshotAt {
                        last_index,
                        last_term,
                    } => {
                        let blob = encode_image(&image);
                        let tail_recs: Vec<(u8, Vec<u8>)> =
                            tail.iter().map(|e| (REC_ENTRY, entry_payload(e))).collect();
                        self.obs.counter("cluster.durable.snapshots").inc();
                        log.install_snapshot(last_index, last_term, &blob, &tail_recs)
                    }
                };
                if res.is_err() {
                    self.obs.counter("cluster.durable.io_errors").inc();
                }
                self.obs.counter("cluster.durable.persisted").inc();
                if let Some(f) = self
                    .faults
                    .as_ref()
                    .and_then(|fi| fi.fire(site::CRASH, &format!("replica{id}")))
                {
                    if f.kind == FaultKind::ReplicaCrash {
                        crash_here = true;
                    }
                }
            }
            if crash_here {
                crashed.push(id as ReplicaId);
            }
        }
        for id in crashed {
            self.obs.counter("cluster.faults.crash").inc();
            self.crash_replica(id);
        }
    }

    /// Reboots a crashed replica from its durable directory: reopen the
    /// log (running the full torn-tail/bit-rot recovery), rebuild the
    /// core via [`RaftCore::restore`], re-derive backend verify state by
    /// replaying the snapshot image through the write-verify ladder, and
    /// rebind the replica's original address. The rejoined follower
    /// re-learns any lost log tail from the leader.
    fn restart_replica(&mut self, id: ReplicaId) -> bool {
        let idx = id as usize;
        if idx >= self.nodes.len() || !self.nodes[idx].killed {
            return false;
        }
        let Some(dir) = self.cfg.durable_dir.clone() else {
            return false;
        };
        let Ok(rec) = recover_node(&self.cfg, &dir, id, &self.obs, self.faults.clone()) else {
            self.obs.counter("cluster.durable.io_errors").inc();
            return false;
        };
        let core = build_core(&self.cfg, id, Some(&rec));
        let backends = Server::build_backends(&self.cfg.serve, &self.obs);
        replay_image(&self.map, &backends, &rec.image, &self.obs);
        // Rebind the replica's original address (freed when its server
        // stopped); a brief retry absorbs the OS releasing the port.
        let mut serve_cfg = self.cfg.serve.clone();
        serve_cfg.addr = self.shared.addr_of(id);
        let repl: Arc<dyn Replicator> = Arc::new(NodeReplicator {
            shared: Arc::clone(&self.shared),
            node: id,
        });
        let mut server = None;
        for _ in 0..200 {
            match Server::start_replicated(
                &serve_cfg,
                &self.obs,
                self.tracer.clone(),
                self.faults.clone(),
                Arc::clone(&repl),
                Arc::clone(&backends),
            ) {
                Ok(s) => {
                    server = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let Some(server) = server else {
            self.obs.counter("cluster.durable.io_errors").inc();
            return false;
        };
        let node = &mut self.nodes[idx];
        node.core = core;
        node.backends = backends;
        node.server = Some(server);
        node.inbox.clear();
        node.acks.clear();
        node.killed = false;
        node.partitioned_until = 0;
        node.durable = Some(rec.log);
        self.obs.counter("cluster.replica.restarts").inc();
        self.obs.event(
            "cluster.recovery",
            &[
                ("replica", reram_obs::Value::U64(u64::from(id))),
                ("base_index", reram_obs::Value::U64(rec.base_index)),
                (
                    "tail_entries",
                    reram_obs::Value::U64(rec.entries.len() as u64),
                ),
            ],
        );
        if let Some(fi) = &self.faults {
            fi.note_recovery(site::CRASH, "replica_restarted");
        }
        true
    }

    /// Applies committed entries on every live replica, in log order,
    /// through that replica's own shard backends.
    fn apply_all(&mut self) {
        for id in 0..self.nodes.len() {
            if self.nodes[id].killed {
                continue;
            }
            if let Some((_, _, lines)) = self.nodes[id].core.take_install() {
                self.obs.counter("cluster.snapshots.installed").inc();
                for (line, data) in lines {
                    let shard = self.map.shard_of(line);
                    let local = self.map.local_of(line);
                    let mut b = self.nodes[id].backends[shard]
                        .lock()
                        .expect("backend poisoned");
                    let _ = b.service_batch(&[ShardOp::Write { local, data }]);
                }
            }
            let entries = self.nodes[id].core.take_applyable();
            if entries.is_empty() {
                continue;
            }
            for e in entries {
                if e.is_noop() {
                    continue;
                }
                self.obs.counter("cluster.applies").inc();
                let shard = self.map.shard_of(e.line);
                let local = self.map.local_of(e.line);
                let outcomes = {
                    let mut b = self.nodes[id].backends[shard]
                        .lock()
                        .expect("backend poisoned");
                    b.service_batch(&[ShardOp::Write {
                        local,
                        data: e.data.clone(),
                    }])
                };
                let ack = match outcomes.first().map(|o| &o.response) {
                    Some(Response::WriteOk { attempts, degraded }) => WriteAck {
                        attempts: *attempts,
                        degraded: *degraded,
                    },
                    _ => WriteAck {
                        attempts: 0,
                        degraded: true,
                    },
                };
                self.nodes[id].acks.insert(e.index, (e.term, ack));
            }
            // Prune the ack window well behind the applied frontier.
            let applied = self.nodes[id].core.applied();
            if self.nodes[id].acks.len() > 8192 {
                self.nodes[id].acks.retain(|&i, _| i + 1024 >= applied);
            }
        }
    }

    fn resolve_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let live = self.live_count();
        let mode = self.mode;
        let mut resolved: Vec<(u64, Result<WriteAck, String>)> = Vec::new();
        let mut kept = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            let n = &self.nodes[p.node as usize];
            if n.killed {
                resolved.push((p.ticket, Err(String::new())));
                continue;
            }
            match n.acks.get(&p.index) {
                Some((t, ack)) if *t == p.term => {
                    let replicated = n.core.replicated_count(p.index);
                    let need = match mode {
                        ReplicationMode::Majority => 0, // commit already proves majority
                        ReplicationMode::All => live,
                    };
                    if replicated >= need {
                        resolved.push((p.ticket, Ok(*ack)));
                    } else {
                        kept.push(p);
                    }
                }
                Some(_) => {
                    // The index applied under a different term: the
                    // proposal was overwritten by a new leader's log.
                    resolved.push((p.ticket, Err(self.hint_for(p.node))));
                }
                None if n.core.applied() >= p.index => {
                    // Applied past it without an ack: the slot became a
                    // no-op barrier — the original entry is gone.
                    resolved.push((p.ticket, Err(self.hint_for(p.node))));
                }
                None if n.core.role() != Role::Leader => {
                    // Deposed before commit. The client retries through
                    // the redirect; if the entry still commits later the
                    // duplicate apply is idempotent.
                    resolved.push((p.ticket, Err(self.hint_for(p.node))));
                }
                None => kept.push(p),
            }
        }
        self.pending = kept;
        if !resolved.is_empty() {
            let mut st = self.shared.state.lock().expect("pump state poisoned");
            for (ticket, res) in resolved {
                st.results.insert(ticket, res);
            }
            self.shared.done.notify_all();
        }
    }

    fn publish_status(&self) {
        let mut out = Vec::with_capacity(self.nodes.len());
        for (id, n) in self.nodes.iter().enumerate() {
            let role = if n.killed {
                "dead"
            } else {
                n.core.role().name()
            };
            let commit = n.core.commit();
            let applied = n.core.applied();
            let lag = commit.saturating_sub(applied);
            if !n.killed {
                self.obs.hist("cluster.repl.lag").record(lag as f64);
            }
            let leader = n
                .core
                .leader_hint()
                .filter(|l| !self.nodes[*l as usize].killed)
                .map(|l| self.shared.addr_of(l))
                .unwrap_or_default();
            out.push(ClusterStatus {
                role,
                term: n.core.term(),
                commit,
                applied,
                lag,
                leader,
            });
            let _ = id;
        }
        *self.shared.statuses.lock().expect("statuses poisoned") = out;
    }
}
