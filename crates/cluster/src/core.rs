//! The seeded-deterministic raft-style consensus core.
//!
//! [`RaftCore`] is a pure state machine: no threads, no sockets, no wall
//! clock. Time is an explicit [`RaftCore::tick`]; every message in and out
//! is a typed [`ClusterMsg`]; the only randomness is the election timeout,
//! drawn from a [`Rng64`] seeded per replica from the cluster seed — so a
//! given (seed, tick schedule, message schedule) replays bit-identically.
//! The live transport ([`crate::group`]) and the single-threaded simulator
//! ([`crate::sim`]) both drive this same core.
//!
//! The election rules are standard raft, compacted:
//!
//! * One vote per term, granted only to candidates whose log is at least
//!   as up-to-date (last term, then last index) — which is what makes a
//!   new leader provably hold every committed entry.
//! * A follower or candidate that hears nothing for its randomized
//!   timeout (`election_min..election_max` ticks) stands for election:
//!   term + 1, vote for itself, broadcast [`ClusterMsg::VoteReq`].
//! * A candidate with a majority becomes leader, appends a no-op barrier
//!   entry in its own term (committing it commits every earlier entry —
//!   raft's guard against the stale-commit anomaly), and heartbeats every
//!   `heartbeat_every` ticks.
//!
//! The log holds [`WireEntry`] records (term / index / line / data / CRC).
//! Entries at or below `applied` are periodically folded into a line-image
//! snapshot; a follower whose next entry was compacted away receives
//! [`ClusterMsg::Snapshot`] and resumes from the image's base index.

use reram_serve::cluster::{ClusterMsg, ReplicaId, SnapshotLine, WireEntry};
use reram_serve::proto::LINE_BYTES;
use reram_workloads::Rng64;
use std::collections::BTreeMap;

/// Outbound messages produced by a core transition: `(destination, msg)`.
pub type Outbound = Vec<(ReplicaId, ClusterMsg)>;

/// One persistence obligation recorded by a core transition. With WAL
/// recording enabled ([`RaftCore::enable_wal`]) the host drains these via
/// [`RaftCore::take_wal_ops`] after every transition and persists them
/// (through `reram-durable`) **before** externalizing the transition's
/// effects (acks, votes, outbound messages) — the standard write-ahead
/// contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Append one log entry at its index. An index at or below a
    /// previously appended one supersedes that entry and its suffix
    /// (the conflict-truncation case folds into replay).
    Append(WireEntry),
    /// Discard persisted entries from `0` (the index) upward — recorded
    /// when a conflicting suffix is dropped before re-append.
    TruncateFrom(u64),
    /// Durable vote state changed; must hit the media before the vote
    /// or the higher term is acted on.
    Meta {
        /// The new current term.
        term: u64,
        /// Who this replica voted for in `term`, if anyone.
        voted_for: Option<ReplicaId>,
    },
    /// The log base moved — local compaction folded entries into the
    /// image, or a leader-sent snapshot was adopted wholesale. The host
    /// persists a snapshot of [`RaftCore::image_lines`] plus the
    /// surviving [`RaftCore::tail_entries`] and GCs older segments.
    SnapshotAt {
        /// New snapshot base index.
        last_index: u64,
        /// Term of the entry at `last_index`.
        last_term: u64,
    },
}

/// A replica's consensus role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts entries from the leader; times out into candidacy.
    Follower,
    /// Standing for election in the current term.
    Candidate,
    /// Appends, replicates and commits entries.
    Leader,
}

impl Role {
    /// Stable lowercase name (for stats and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        }
    }
}

/// Static configuration of one replica's core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// This replica's id (dense, `0..replicas`).
    pub id: ReplicaId,
    /// Group size (3+ for fault tolerance; ≤ 64).
    pub replicas: u16,
    /// Cluster seed; each replica derives its own timeout stream from it.
    pub seed: u64,
    /// Election timeout lower bound, ticks (inclusive).
    pub election_min: u64,
    /// Election timeout upper bound, ticks (exclusive).
    pub election_max: u64,
    /// Leader heartbeat period, ticks.
    pub heartbeat_every: u64,
    /// Max log entries per `AppendEntries` batch.
    pub max_batch: usize,
    /// Compact the log once more than this many applied entries accumulate.
    pub snapshot_keep: u64,
}

impl CoreConfig {
    /// Defaults for a 3-replica group: timeouts 10..20 ticks, heartbeat
    /// every 3, batches of 64, compaction past 4096 applied entries.
    #[must_use]
    pub fn new(id: ReplicaId, replicas: u16, seed: u64) -> CoreConfig {
        CoreConfig {
            id,
            replicas,
            seed,
            election_min: 10,
            election_max: 20,
            heartbeat_every: 3,
            max_batch: 64,
            snapshot_keep: 4096,
        }
    }
}

/// The per-replica consensus state machine. See the module docs for the
/// protocol; see [`crate::sim::SimCluster`] for the invariant harness.
#[derive(Debug)]
pub struct RaftCore {
    cfg: CoreConfig,
    role: Role,
    term: u64,
    voted_for: Option<ReplicaId>,
    /// Bitmask of replicas that granted a vote this candidacy.
    votes: u64,
    /// Snapshot base: the log is `entries[k] ↔ index base_index + 1 + k`.
    base_index: u64,
    base_term: u64,
    entries: Vec<WireEntry>,
    /// Line image of everything at or below `base_index` (the snapshot
    /// payload). `BTreeMap` keeps snapshot encoding order deterministic.
    image: BTreeMap<u64, Box<[u8; LINE_BYTES]>>,
    commit: u64,
    applied: u64,
    /// A snapshot received from the leader, waiting for the host to
    /// install it into the shard backends (take with
    /// [`RaftCore::take_install`] *before* the next
    /// [`RaftCore::take_applyable`]).
    pending_install: Option<(u64, u64, Vec<SnapshotLine>)>,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    /// Highest index already streamed to each peer this leadership (an
    /// optimistic send cursor so back-to-back proposes don't resend the
    /// whole unacked tail; nacks and heartbeats re-sync it).
    sent_index: Vec<u64>,
    ticks_idle: u64,
    ticks_since_hb: u64,
    timeout: u64,
    rng: Rng64,
    leader_hint: Option<ReplicaId>,
    elections_started: u64,
    /// Persistence obligations since the last `take_wal_ops` (only
    /// recorded when `wal_enabled`, so memory-only groups pay nothing).
    wal_ops: Vec<WalOp>,
    wal_enabled: bool,
}

impl RaftCore {
    /// A fresh follower with an empty log.
    ///
    /// # Panics
    ///
    /// Panics when the config is degenerate (0 or > 64 replicas, id out of
    /// range, empty timeout window).
    #[must_use]
    pub fn new(cfg: CoreConfig) -> RaftCore {
        assert!(cfg.replicas >= 1 && cfg.replicas <= 64, "1..=64 replicas");
        assert!(cfg.id < cfg.replicas, "id within group");
        assert!(cfg.election_min < cfg.election_max, "timeout window");
        assert!(cfg.heartbeat_every >= 1 && cfg.max_batch >= 1);
        let n = cfg.replicas as usize;
        let mut rng =
            Rng64::new(cfg.seed ^ (u64::from(cfg.id) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let timeout = cfg.election_min + rng.gen_u64_below(cfg.election_max - cfg.election_min);
        RaftCore {
            cfg,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: 0,
            base_index: 0,
            base_term: 0,
            entries: Vec::new(),
            image: BTreeMap::new(),
            commit: 0,
            applied: 0,
            pending_install: None,
            next_index: vec![1; n],
            match_index: vec![0; n],
            sent_index: vec![0; n],
            ticks_idle: 0,
            ticks_since_hb: 0,
            timeout,
            rng,
            leader_hint: None,
            elections_started: 0,
            wal_ops: Vec::new(),
            wal_enabled: false,
        }
    }

    /// Rebuilds a core from recovered durable state: the snapshot base
    /// (`base_index`, `base_term`, `image`), the surviving log tail and
    /// the persisted vote state. `commit` and `applied` restart at the
    /// snapshot base — only the image is provably committed; the
    /// recovered tail re-commits when the leader next re-teaches the
    /// commit index, so a possibly-uncommitted suffix is never applied.
    ///
    /// # Panics
    ///
    /// As [`RaftCore::new`]; additionally when `entries` is not a
    /// gap-free run starting at `base_index + 1`.
    #[must_use]
    pub fn restore(
        cfg: CoreConfig,
        term: u64,
        voted_for: Option<ReplicaId>,
        base_index: u64,
        base_term: u64,
        image: Vec<SnapshotLine>,
        entries: Vec<WireEntry>,
    ) -> RaftCore {
        let mut core = RaftCore::new(cfg);
        for (k, e) in entries.iter().enumerate() {
            assert_eq!(
                e.index,
                base_index + 1 + k as u64,
                "recovered log must be gap-free above the snapshot base"
            );
        }
        core.term = term;
        core.voted_for = voted_for;
        core.base_index = base_index;
        core.base_term = base_term;
        core.image = image.into_iter().collect();
        core.entries = entries;
        core.commit = base_index;
        core.applied = base_index;
        core
    }

    /// Turns on WAL-op recording (see [`WalOp`]); hosts that persist
    /// call this right after `new`/`restore`.
    pub fn enable_wal(&mut self) {
        self.wal_enabled = true;
    }

    /// Drains the persistence obligations recorded since the last call,
    /// in transition order.
    pub fn take_wal_ops(&mut self) -> Vec<WalOp> {
        std::mem::take(&mut self.wal_ops)
    }

    fn wal(&mut self, op: WalOp) {
        if self.wal_enabled {
            self.wal_ops.push(op);
        }
    }

    fn wal_meta(&mut self) {
        if self.wal_enabled {
            self.wal_ops.push(WalOp::Meta {
                term: self.term,
                voted_for: self.voted_for,
            });
        }
    }

    // ----- accessors ------------------------------------------------------

    /// This replica's id.
    #[must_use]
    pub fn id(&self) -> ReplicaId {
        self.cfg.id
    }

    /// Who this replica voted for in the current term, if anyone.
    #[must_use]
    pub fn voted_for(&self) -> Option<ReplicaId> {
        self.voted_for
    }

    /// The snapshot base as `(base_index, base_term)`.
    #[must_use]
    pub fn base(&self) -> (u64, u64) {
        (self.base_index, self.base_term)
    }

    /// The line image at or below the snapshot base, in deterministic
    /// (line-sorted) order — the payload a host persists on
    /// [`WalOp::SnapshotAt`].
    #[must_use]
    pub fn image_lines(&self) -> Vec<SnapshotLine> {
        self.image.iter().map(|(l, d)| (*l, d.clone())).collect()
    }

    /// The log entries still above the snapshot base, in index order —
    /// rewritten into a fresh WAL segment on [`WalOp::SnapshotAt`].
    #[must_use]
    pub fn tail_entries(&self) -> Vec<WireEntry> {
        self.entries.clone()
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest committed index.
    #[must_use]
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Highest index handed to the host for apply.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The replica this core believes is leader (itself when leading).
    #[must_use]
    pub fn leader_hint(&self) -> Option<ReplicaId> {
        self.leader_hint
    }

    /// Elections this replica has started (candidacies, not wins).
    #[must_use]
    pub fn elections_started(&self) -> u64 {
        self.elections_started
    }

    /// Index of the last log entry (0 = empty).
    #[must_use]
    pub fn last_index(&self) -> u64 {
        self.base_index + self.entries.len() as u64
    }

    fn last_term(&self) -> u64 {
        self.entries.last().map_or(self.base_term, |e| e.term)
    }

    /// Term of the entry at `index`, if it is still in the log (or is the
    /// snapshot base).
    fn term_at(&self, index: u64) -> Option<u64> {
        if index == self.base_index {
            Some(self.base_term)
        } else if index > self.base_index && index <= self.last_index() {
            Some(self.entries[(index - self.base_index - 1) as usize].term)
        } else {
            None
        }
    }

    fn majority(&self) -> u32 {
        u32::from(self.cfg.replicas) / 2 + 1
    }

    /// CRC-chain digest over the log suffix still in memory plus the
    /// snapshot base — two replicas with equal digests hold identical
    /// (base, entries) states. Drills compare this across failover runs.
    #[must_use]
    pub fn ledger_digest(&self) -> u32 {
        let mut acc = Vec::with_capacity(16 + self.entries.len() * 4);
        acc.extend_from_slice(&self.base_index.to_le_bytes());
        acc.extend_from_slice(&self.base_term.to_le_bytes());
        for e in &self.entries {
            acc.extend_from_slice(&e.crc().to_le_bytes());
        }
        reram_obs::crc32(&acc)
    }

    /// Digest of the **committed client-write set**: per-entry CRCs
    /// over `(line, data)`, deduplicated and folded in sorted order —
    /// terms, indices, noop barriers and entry order all excluded.
    /// Unlike [`RaftCore::ledger_digest`] this is stable across *runs*
    /// of the same seeded workload: election timing varies term
    /// values, concurrent clients interleave their (individually
    /// deterministic) writes in a scheduling-dependent order, and a
    /// leader crash makes clients re-propose a possibly-committed
    /// write (data ops are idempotent, so raft legitimately commits it
    /// twice) — but the *set* of committed writes is invariant. The
    /// crash-recovery drill compares this against its crash-free
    /// baseline run: a lost or corrupted write is a missing element, a
    /// foreign write an extra one. Entries already folded into a
    /// snapshot base are not covered; the drill runs compaction-free.
    #[must_use]
    pub fn writes_digest(&self) -> u32 {
        let committed = (self.commit - self.base_index) as usize;
        let mut crcs = std::collections::BTreeSet::new();
        let mut buf = [0u8; 8 + LINE_BYTES];
        for e in self.entries[..committed].iter().filter(|e| !e.is_noop()) {
            buf[..8].copy_from_slice(&e.line.to_le_bytes());
            buf[8..].copy_from_slice(&e.data[..]);
            crcs.insert(reram_obs::crc32(&buf));
        }
        let mut acc = Vec::with_capacity(crcs.len() * 4);
        for c in crcs {
            acc.extend_from_slice(&c.to_le_bytes());
        }
        reram_obs::crc32(&acc)
    }

    // ----- time -----------------------------------------------------------

    /// Advances logical time by one tick: leaders heartbeat, followers and
    /// candidates count toward their election timeout.
    pub fn tick(&mut self) -> Outbound {
        match self.role {
            Role::Leader => {
                self.ticks_since_hb += 1;
                if self.ticks_since_hb >= self.cfg.heartbeat_every {
                    self.ticks_since_hb = 0;
                    // Heartbeats re-sync the optimistic send cursors, so a
                    // lost append is retransmitted within one period.
                    for p in 0..self.cfg.replicas {
                        self.sent_index[p as usize] = 0;
                    }
                    return self.broadcast_appends();
                }
                Vec::new()
            }
            Role::Follower | Role::Candidate => {
                self.ticks_idle += 1;
                if self.ticks_idle >= self.timeout {
                    self.start_election()
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn start_election(&mut self) -> Outbound {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.cfg.id);
        self.votes = 1 << self.cfg.id;
        self.ticks_idle = 0;
        self.timeout = self.cfg.election_min
            + self
                .rng
                .gen_u64_below(self.cfg.election_max - self.cfg.election_min);
        self.leader_hint = None;
        self.elections_started += 1;
        self.wal_meta();
        if self.majority() == 1 {
            // replicas == 1: self-vote is the majority.
            return self.become_leader();
        }
        let msg = ClusterMsg::VoteReq {
            term: self.term,
            candidate: self.cfg.id,
            last_index: self.last_index(),
            last_term: self.last_term(),
        };
        self.to_peers(&msg)
    }

    fn to_peers(&self, msg: &ClusterMsg) -> Outbound {
        (0..self.cfg.replicas)
            .filter(|&p| p != self.cfg.id)
            .map(|p| (p, msg.clone()))
            .collect()
    }

    fn become_follower(&mut self, term: u64) {
        self.role = Role::Follower;
        self.term = term;
        self.voted_for = None;
        self.votes = 0;
        self.ticks_idle = 0;
        self.wal_meta();
    }

    fn become_leader(&mut self) -> Outbound {
        self.role = Role::Leader;
        self.leader_hint = Some(self.cfg.id);
        self.ticks_since_hb = 0;
        let next = self.last_index() + 1;
        for p in 0..self.cfg.replicas as usize {
            self.next_index[p] = next;
            self.match_index[p] = 0;
            self.sent_index[p] = 0;
        }
        // The no-op barrier: committing an entry of the new term is the
        // only way raft may commit the predecessors' tail.
        let noop = WireEntry::noop(self.term, next);
        self.wal(WalOp::Append(noop.clone()));
        self.entries.push(noop);
        self.match_index[self.cfg.id as usize] = self.last_index();
        if self.cfg.replicas == 1 {
            self.advance_commit();
        }
        self.broadcast_appends()
    }

    // ----- leader-side replication ---------------------------------------

    /// One append (or snapshot) message for `peer`, respecting the send
    /// cursor when `from_cursor` is set.
    fn replicate_to(&mut self, peer: ReplicaId, from_cursor: bool) -> Option<ClusterMsg> {
        let p = peer as usize;
        if self.next_index[p] <= self.base_index {
            // The entry the peer needs was compacted: ship the image.
            self.sent_index[p] = self.base_index;
            return Some(ClusterMsg::Snapshot {
                term: self.term,
                leader: self.cfg.id,
                last_index: self.base_index,
                last_term: self.base_term,
                lines: self.image.iter().map(|(l, d)| (*l, d.clone())).collect(),
            });
        }
        let start = if from_cursor {
            self.next_index[p].max(self.sent_index[p] + 1)
        } else {
            self.next_index[p]
        };
        let last = self.last_index();
        if from_cursor && start > last {
            return None; // nothing new for this peer
        }
        let end = last.min(start + self.cfg.max_batch as u64 - 1);
        let prev_index = start - 1;
        let prev_term = self.term_at(prev_index).unwrap_or_else(|| {
            panic!(
                "prev {} outside log: peer {} from_cursor {} next {} sent {} base {} last {}",
                prev_index,
                peer,
                from_cursor,
                self.next_index[p],
                self.sent_index[p],
                self.base_index,
                last
            )
        });
        let batch: Vec<WireEntry> = if start > last {
            Vec::new() // heartbeat
        } else {
            self.entries
                [(start - self.base_index - 1) as usize..=(end - self.base_index - 1) as usize]
                .to_vec()
        };
        self.sent_index[p] = self.sent_index[p].max(end.min(last));
        Some(ClusterMsg::AppendEntries {
            term: self.term,
            leader: self.cfg.id,
            prev_index,
            prev_term,
            commit: self.commit,
            entries: batch,
        })
    }

    fn broadcast_appends(&mut self) -> Outbound {
        let mut out = Vec::new();
        for p in 0..self.cfg.replicas {
            if p == self.cfg.id {
                continue;
            }
            if let Some(m) = self.replicate_to(p, false) {
                out.push((p, m));
            }
        }
        out
    }

    /// Leader-side append of one client write. Returns the entry's index
    /// and the replication fan-out, or `None` when this replica is not the
    /// leader (redirect the client).
    pub fn propose(&mut self, line: u64, data: Box<[u8; LINE_BYTES]>) -> Option<(u64, Outbound)> {
        if self.role != Role::Leader {
            return None;
        }
        let index = self.last_index() + 1;
        let entry = WireEntry {
            term: self.term,
            index,
            line,
            data,
        };
        self.wal(WalOp::Append(entry.clone()));
        self.entries.push(entry);
        self.match_index[self.cfg.id as usize] = index;
        if self.cfg.replicas == 1 {
            self.advance_commit();
        }
        let mut out = Vec::new();
        for p in 0..self.cfg.replicas {
            if p == self.cfg.id {
                continue;
            }
            if let Some(m) = self.replicate_to(p, true) {
                out.push((p, m));
            }
        }
        Some((index, out))
    }

    fn advance_commit(&mut self) {
        let mut n = self.last_index();
        while n > self.commit {
            let replicated = self.match_index.iter().filter(|&&m| m >= n).count() as u32;
            if replicated >= self.majority() && self.term_at(n) == Some(self.term) {
                self.commit = n;
                break;
            }
            n -= 1;
        }
    }

    /// `(index, term, crc)` identity of every committed entry still in the
    /// in-memory log. The simulator records these to prove committed
    /// entries are write-once across replicas and time.
    #[must_use]
    pub fn committed_identities(&self) -> Vec<(u64, u64, u32)> {
        let to = self.commit.min(self.last_index());
        self.entries
            .iter()
            .take(to.saturating_sub(self.base_index) as usize)
            .map(|e| (e.index, e.term, e.crc()))
            .collect()
    }

    /// Count of replicas whose log holds `index` (leader's bookkeeping;
    /// itself included). [`crate::group`] uses it for
    /// [`reram_serve::ReplicationMode::All`] acks.
    #[must_use]
    pub fn replicated_count(&self, index: u64) -> u32 {
        self.match_index.iter().filter(|&&m| m >= index).count() as u32
    }

    // ----- message handling ----------------------------------------------

    /// Applies one inbound message, returning the replies/fan-out.
    pub fn step(&mut self, msg: &ClusterMsg) -> Outbound {
        if msg.term() > self.term {
            self.become_follower(msg.term());
        }
        let me = self.cfg.id;
        match msg {
            ClusterMsg::VoteReq {
                term,
                candidate,
                last_index,
                last_term,
            } => {
                let granted = *term >= self.term
                    && (self.voted_for.is_none() || self.voted_for == Some(*candidate))
                    && (*last_term, *last_index) >= (self.last_term(), self.last_index());
                if granted {
                    self.voted_for = Some(*candidate);
                    self.ticks_idle = 0;
                    self.wal_meta();
                }
                vec![(
                    *candidate,
                    ClusterMsg::VoteResp {
                        term: self.term,
                        from: me,
                        granted,
                    },
                )]
            }
            ClusterMsg::VoteResp {
                term,
                from,
                granted,
            } => {
                if self.role == Role::Candidate && *term == self.term && *granted {
                    self.votes |= 1 << from;
                    if self.votes.count_ones() >= self.majority() {
                        return self.become_leader();
                    }
                }
                Vec::new()
            }
            ClusterMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                if *term < self.term {
                    return vec![(
                        *leader,
                        ClusterMsg::AppendResp {
                            term: self.term,
                            from: me,
                            success: false,
                            match_index: self.commit,
                        },
                    )];
                }
                // Equal or newer term: the sender is the term's leader.
                if self.role != Role::Follower {
                    self.role = Role::Follower;
                    self.votes = 0;
                }
                self.ticks_idle = 0;
                self.leader_hint = Some(*leader);
                let ok =
                    *prev_index >= self.base_index && self.term_at(*prev_index) == Some(*prev_term);
                if !ok {
                    // The resync hint is the commit index: committed
                    // prefixes agree on every replica, so the leader can
                    // safely restart from commit + 1.
                    return vec![(
                        *leader,
                        ClusterMsg::AppendResp {
                            term: self.term,
                            from: me,
                            success: false,
                            match_index: self.commit,
                        },
                    )];
                }
                for e in entries {
                    match self.term_at(e.index) {
                        Some(t) if t == e.term => {} // already have it
                        Some(_) => {
                            // Conflict: drop the divergent (uncommitted)
                            // suffix, then append.
                            debug_assert!(e.index > self.commit, "no conflicts below commit");
                            self.wal(WalOp::TruncateFrom(e.index));
                            self.wal(WalOp::Append(e.clone()));
                            self.entries
                                .truncate((e.index - self.base_index - 1) as usize);
                            self.entries.push(e.clone());
                        }
                        None => {
                            debug_assert_eq!(e.index, self.last_index() + 1, "gap-free append");
                            self.wal(WalOp::Append(e.clone()));
                            self.entries.push(e.clone());
                        }
                    }
                }
                let match_index = *prev_index + entries.len() as u64;
                self.commit = self.commit.max((*commit).min(self.last_index()));
                vec![(
                    *leader,
                    ClusterMsg::AppendResp {
                        term: self.term,
                        from: me,
                        success: true,
                        match_index,
                    },
                )]
            }
            ClusterMsg::AppendResp {
                term,
                from,
                success,
                match_index,
            } => {
                if self.role != Role::Leader || *term < self.term {
                    return Vec::new();
                }
                let p = *from as usize;
                if *success {
                    self.match_index[p] = self.match_index[p].max(*match_index);
                    self.next_index[p] = self.match_index[p] + 1;
                    self.advance_commit();
                    if self.next_index[p] <= self.last_index() {
                        if let Some(m) = self.replicate_to(*from, true) {
                            return vec![(*from, m)];
                        }
                    }
                } else {
                    self.next_index[p] = *match_index + 1;
                    self.sent_index[p] = 0;
                    if let Some(m) = self.replicate_to(*from, false) {
                        return vec![(*from, m)];
                    }
                }
                Vec::new()
            }
            ClusterMsg::Snapshot {
                term,
                leader,
                last_index,
                last_term,
                lines,
            } => {
                if *term < self.term {
                    return vec![(
                        *leader,
                        ClusterMsg::SnapshotResp {
                            term: self.term,
                            from: me,
                            match_index: self.commit,
                        },
                    )];
                }
                if self.role != Role::Follower {
                    self.role = Role::Follower;
                    self.votes = 0;
                }
                self.ticks_idle = 0;
                self.leader_hint = Some(*leader);
                if self.term_at(*last_index) != Some(*last_term) {
                    // Genuinely behind: adopt the image wholesale. The
                    // host must install it (take_install) before applying
                    // anything further.
                    self.base_index = *last_index;
                    self.base_term = *last_term;
                    self.entries.clear();
                    self.image = lines.iter().map(|(l, d)| (*l, d.clone())).collect();
                    self.commit = self.commit.max(*last_index);
                    self.applied = *last_index;
                    self.pending_install = Some((*last_index, *last_term, lines.clone()));
                    self.wal(WalOp::SnapshotAt {
                        last_index: *last_index,
                        last_term: *last_term,
                    });
                }
                vec![(
                    *leader,
                    ClusterMsg::SnapshotResp {
                        term: self.term,
                        from: me,
                        match_index: *last_index,
                    },
                )]
            }
            ClusterMsg::SnapshotResp {
                term,
                from,
                match_index,
            } => {
                if self.role != Role::Leader || *term < self.term {
                    return Vec::new();
                }
                let p = *from as usize;
                self.match_index[p] = self.match_index[p].max(*match_index);
                self.next_index[p] = self.match_index[p] + 1;
                self.advance_commit();
                if self.next_index[p] <= self.last_index() {
                    if let Some(m) = self.replicate_to(*from, false) {
                        return vec![(*from, m)];
                    }
                }
                Vec::new()
            }
        }
    }

    // ----- host interface -------------------------------------------------

    /// Committed-but-unapplied entries, in log order; advances `applied`.
    /// The host must replay every returned entry through its shard
    /// backend's write-verify ladder (skipping no-op barriers). Compaction
    /// happens here too, once the applied prefix outgrows
    /// [`CoreConfig::snapshot_keep`].
    pub fn take_applyable(&mut self) -> Vec<WireEntry> {
        let to = self.commit.min(self.last_index());
        if to <= self.applied {
            return Vec::new();
        }
        let from = self.applied;
        let out: Vec<WireEntry> = self.entries
            [(from - self.base_index) as usize..(to - self.base_index) as usize]
            .to_vec();
        self.applied = to;
        self.maybe_compact();
        out
    }

    /// A leader-sent snapshot awaiting installation into the host's shard
    /// backends, if one arrived since the last call.
    pub fn take_install(&mut self) -> Option<(u64, u64, Vec<SnapshotLine>)> {
        self.pending_install.take()
    }

    fn maybe_compact(&mut self) {
        if self.applied - self.base_index <= self.cfg.snapshot_keep {
            return;
        }
        let keep_from = self.applied; // drop entries ≤ applied
        let new_base_term = self.term_at(keep_from).expect("applied is in log");
        let dropped = (keep_from - self.base_index) as usize;
        for e in self.entries.drain(..dropped) {
            if !e.is_noop() {
                self.image.insert(e.line, e.data);
            }
        }
        self.base_index = keep_from;
        self.base_term = new_base_term;
        self.wal(WalOp::SnapshotAt {
            last_index: keep_from,
            last_term: new_base_term,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(cores: &mut [RaftCore], mut inflight: Outbound) {
        // Deterministic synchronous delivery until quiescent.
        while let Some((to, msg)) = inflight.pop() {
            let more = cores[to as usize].step(&msg);
            inflight.extend(more);
        }
    }

    fn elect_leader(cores: &mut [RaftCore]) -> usize {
        for _ in 0..200 {
            for i in 0..cores.len() {
                let out = cores[i].tick();
                deliver(cores, out);
            }
            if let Some(l) = cores.iter().position(|c| c.role() == Role::Leader) {
                return l;
            }
        }
        panic!("no leader elected");
    }

    fn group(n: u16, seed: u64) -> Vec<RaftCore> {
        (0..n)
            .map(|id| RaftCore::new(CoreConfig::new(id, n, seed)))
            .collect()
    }

    #[test]
    fn a_three_replica_group_elects_exactly_one_leader() {
        let mut cores = group(3, 42);
        let l = elect_leader(&mut cores);
        assert_eq!(cores.iter().filter(|c| c.role() == Role::Leader).count(), 1);
        for c in &cores {
            assert_eq!(c.leader_hint(), Some(l as u16));
        }
    }

    #[test]
    fn proposed_writes_commit_and_apply_everywhere() {
        let mut cores = group(3, 7);
        let l = elect_leader(&mut cores);
        for k in 0..10u64 {
            let (_, out) = cores[l]
                .propose(k, Box::new([k as u8; LINE_BYTES]))
                .unwrap();
            deliver(&mut cores, out);
        }
        // One heartbeat round carries the final commit index out.
        for _ in 0..cores[l].cfg.heartbeat_every {
            let out = cores[l].tick();
            deliver(&mut cores, out);
        }
        for c in &mut cores {
            assert_eq!(c.commit(), 11, "noop + 10 writes");
            let applied = c.take_applyable();
            let writes: Vec<&WireEntry> = applied.iter().filter(|e| !e.is_noop()).collect();
            assert_eq!(writes.len(), 10);
            assert!(writes.iter().enumerate().all(|(k, e)| e.line == k as u64));
        }
        let d0 = cores[0].ledger_digest();
        assert!(cores.iter().all(|c| c.ledger_digest() == d0));
    }

    #[test]
    fn compaction_triggers_snapshot_catch_up() {
        let mut cores = group(3, 99);
        let l = elect_leader(&mut cores);
        let mut small = CoreConfig::new(0, 3, 99);
        small.snapshot_keep = 8;
        for c in cores.iter_mut() {
            c.cfg.snapshot_keep = 8;
        }
        let lagger = (l + 1) % 3;
        // Writes delivered to everyone except the lagger.
        for k in 0..40u64 {
            let (_, out) = cores[l].propose(k, Box::new([1u8; LINE_BYTES])).unwrap();
            let filtered: Outbound = out
                .into_iter()
                .filter(|(to, _)| *to != lagger as u16)
                .collect();
            deliver_filtered(&mut cores, filtered, lagger as u16);
            let _ = cores[l].take_applyable(); // drive compaction
        }
        assert!(cores[l].base_index > 0, "leader compacted");
        // Now heal: heartbeats reach the lagger, which must be caught up
        // via a snapshot plus the remaining entries.
        for _ in 0..20 {
            let out = cores[l].tick();
            deliver(&mut cores, out);
        }
        assert_eq!(cores[lagger].last_index(), cores[l].last_index());
        assert_eq!(cores[lagger].commit(), cores[l].commit());
        let installed = cores[lagger].take_install();
        assert!(installed.is_some(), "snapshot was installed");
        assert_eq!(small.snapshot_keep, 8);
    }

    fn deliver_filtered(cores: &mut [RaftCore], mut inflight: Outbound, drop_for: u16) {
        while let Some((to, msg)) = inflight.pop() {
            if to == drop_for {
                continue;
            }
            let more = cores[to as usize].step(&msg);
            inflight.extend(more.into_iter().filter(|(t, _)| *t != drop_for));
        }
    }

    #[test]
    fn wal_ops_replay_restores_an_identical_ledger() {
        let mut cores = group(3, 13);
        for c in cores.iter_mut() {
            c.enable_wal();
        }
        let l = elect_leader(&mut cores);
        for k in 0..6u64 {
            let (_, out) = cores[l]
                .propose(k, Box::new([k as u8; LINE_BYTES]))
                .unwrap();
            deliver(&mut cores, out);
        }
        let f = (l + 1) % 3;
        // Replay the follower's recorded ops the way a recovery would:
        // meta latest-wins, appends self-healing on conflict.
        let mut term = 0;
        let mut voted = None;
        let mut entries: Vec<WireEntry> = Vec::new();
        for op in cores[f].take_wal_ops() {
            match op {
                WalOp::Meta { term: t, voted_for } => {
                    term = t;
                    voted = voted_for;
                }
                WalOp::Append(e) => {
                    while entries.last().is_some_and(|p| p.index >= e.index) {
                        entries.pop();
                    }
                    entries.push(e);
                }
                WalOp::TruncateFrom(i) => entries.retain(|e| e.index < i),
                WalOp::SnapshotAt { .. } => {}
            }
        }
        let restored = RaftCore::restore(
            CoreConfig::new(f as u16, 3, 13),
            term,
            voted,
            0,
            0,
            Vec::new(),
            entries,
        );
        assert_eq!(restored.term(), cores[f].term());
        assert_eq!(restored.ledger_digest(), cores[f].ledger_digest());
        assert_eq!(restored.commit(), 0, "recovered tail is not yet committed");
    }

    #[test]
    fn stale_term_messages_are_rejected_without_damage() {
        let mut cores = group(3, 5);
        let l = elect_leader(&mut cores);
        let (_, out) = cores[l].propose(1, Box::new([2u8; LINE_BYTES])).unwrap();
        deliver(&mut cores, out);
        let before_term = cores[l].term();
        let before_commit = cores[l].commit();
        // A stale-term append (the fault site's rewrite) must bounce.
        let stale = ClusterMsg::AppendEntries {
            term: before_term.saturating_sub(1),
            leader: ((l + 1) % 3) as u16,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entries: Vec::new(),
        };
        let f = (l + 1) % 3;
        let out = cores[f].step(&stale);
        assert!(matches!(
            out.as_slice(),
            [(_, ClusterMsg::AppendResp { success: false, .. })]
        ));
        assert_eq!(cores[l].term(), before_term);
        assert_eq!(cores[l].commit(), before_commit);
    }
}
