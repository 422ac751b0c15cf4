//! Typed replica-to-replica consensus messages (the v3 opcode block).
//!
//! These are the payload shapes behind [`op::APPEND_ENTRIES`],
//! [`op::REQUEST_VOTE`] and [`op::INSTALL_SNAPSHOT`] (plus their
//! responses). They live in the serve crate, next to the frame codec, so
//! `reram-cluster` depends on the wire format instead of the other way
//! around; the consensus *logic* lives in `reram-cluster`.
//!
//! Log entries are self-checking: each [`WireEntry`] carries a CRC-32 over
//! its term, index, line address and data, verified again at decode time
//! on top of the frame CRC. That makes the replicated write-ledger
//! digestible and tamper-evident independently of the transport framing —
//! the same belt-and-braces posture the exec journal takes.
//!
//! All integers are little-endian, matching the rest of the protocol.

use crate::proto::{op, Frame, WireError, LINE_BYTES};
use reram_obs::crc32;

/// Replica identifier inside one shard group (dense, `0..n`).
pub type ReplicaId = u16;

/// One replicated write-ledger entry: "write `data` to global line `line`",
/// stamped with the leader's `term` and the log `index`, sealed by a CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEntry {
    /// Leader term under which the entry was appended.
    pub term: u64,
    /// 1-based position in the replicated log.
    pub index: u64,
    /// Flat line address in the served space. `u64::MAX` marks the no-op
    /// barrier a fresh leader appends to commit its predecessors' tail.
    pub line: u64,
    /// The 64 B line contents (zero for the no-op barrier).
    pub data: Box<[u8; LINE_BYTES]>,
}

/// Encoded size of one [`WireEntry`]: three u64 fields, the line data and
/// the entry CRC.
pub const WIRE_ENTRY_BYTES: usize = 8 + 8 + 8 + LINE_BYTES + 4;

impl WireEntry {
    /// A no-op barrier entry (ignored by the apply path).
    #[must_use]
    pub fn noop(term: u64, index: u64) -> WireEntry {
        WireEntry {
            term,
            index,
            line: u64::MAX,
            data: Box::new([0u8; LINE_BYTES]),
        }
    }

    /// True for the no-op barrier a fresh leader appends.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.line == u64::MAX
    }

    /// CRC-32 over term, index, line and data (the sealed region).
    #[must_use]
    pub fn crc(&self) -> u32 {
        let mut buf = [0u8; WIRE_ENTRY_BYTES - 4];
        buf[..8].copy_from_slice(&self.term.to_le_bytes());
        buf[8..16].copy_from_slice(&self.index.to_le_bytes());
        buf[16..24].copy_from_slice(&self.line.to_le_bytes());
        buf[24..].copy_from_slice(&self.data[..]);
        crc32(&buf)
    }

    /// Appends the [`WIRE_ENTRY_BYTES`]-byte encoding (fields + CRC) to
    /// `out`. The same encoding rides inside consensus frames and inside
    /// the durable WAL's fixed-size records.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.term.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.line.to_le_bytes());
        out.extend_from_slice(&self.data[..]);
        out.extend_from_slice(&self.crc().to_le_bytes());
    }

    /// Decodes one entry from the front of `p`, verifying the entry CRC.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] when `p` is shorter than
    /// [`WIRE_ENTRY_BYTES`], [`WireError::CrcMismatch`] when the sealed
    /// region fails its CRC.
    pub fn decode_from(p: &[u8]) -> Result<WireEntry, WireError> {
        if p.len() < WIRE_ENTRY_BYTES {
            return Err(WireError::BadPayload(format!(
                "log entry needs {WIRE_ENTRY_BYTES} B, got {}",
                p.len()
            )));
        }
        let mut data = Box::new([0u8; LINE_BYTES]);
        data.copy_from_slice(&p[24..24 + LINE_BYTES]);
        let e = WireEntry {
            term: u64::from_le_bytes(p[..8].try_into().expect("8 bytes")),
            index: u64::from_le_bytes(p[8..16].try_into().expect("8 bytes")),
            line: u64::from_le_bytes(p[16..24].try_into().expect("8 bytes")),
            data,
        };
        let want = u32::from_le_bytes(
            p[24 + LINE_BYTES..WIRE_ENTRY_BYTES]
                .try_into()
                .expect("4 bytes"),
        );
        let got = e.crc();
        if got != want {
            return Err(WireError::CrcMismatch { got, want });
        }
        Ok(e)
    }
}

/// One `(line, data)` pair of an [`ClusterMsg::Snapshot`] state transfer.
pub type SnapshotLine = (u64, Box<[u8; LINE_BYTES]>);

/// A typed consensus message between replicas of one shard group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterMsg {
    /// Leader → follower: replicate `entries` after (`prev_index`,
    /// `prev_term`); an empty batch is the heartbeat.
    AppendEntries {
        /// Leader's current term.
        term: u64,
        /// Leader's replica id (doubles as the redirect hint source).
        leader: ReplicaId,
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Leader's commit index (followers apply up to it).
        commit: u64,
        /// Entries to append (empty = heartbeat).
        entries: Vec<WireEntry>,
    },
    /// Follower → leader: ack/nack for an `AppendEntries`.
    AppendResp {
        /// Responder's current term (a higher term deposes the leader).
        term: u64,
        /// Responder's replica id.
        from: ReplicaId,
        /// True when the batch matched and was appended.
        success: bool,
        /// On success: highest index now replicated on the responder. On
        /// failure: the responder's commit index — a safe resync hint,
        /// since committed prefixes always agree.
        match_index: u64,
    },
    /// Candidate → peer: request a vote for `term`.
    VoteReq {
        /// The term the candidate is standing for.
        term: u64,
        /// The candidate's replica id.
        candidate: ReplicaId,
        /// Index of the candidate's last log entry (up-to-date check).
        last_index: u64,
        /// Term of the candidate's last log entry (up-to-date check).
        last_term: u64,
    },
    /// Peer → candidate: vote grant or denial.
    VoteResp {
        /// Responder's current term.
        term: u64,
        /// Responder's replica id.
        from: ReplicaId,
        /// True when the vote was granted.
        granted: bool,
    },
    /// Leader → lagging follower: full state up to (`last_index`,
    /// `last_term`) as the set of lines ever written.
    Snapshot {
        /// Leader's current term.
        term: u64,
        /// Leader's replica id.
        leader: ReplicaId,
        /// Log index the snapshot covers through.
        last_index: u64,
        /// Term of the entry at `last_index`.
        last_term: u64,
        /// Every line the ledger has touched, with its current contents.
        lines: Vec<SnapshotLine>,
    },
    /// Follower → leader: snapshot installed through `match_index`.
    SnapshotResp {
        /// Responder's current term.
        term: u64,
        /// Responder's replica id.
        from: ReplicaId,
        /// The snapshot's `last_index`, now the responder's base.
        match_index: u64,
    },
}

fn take_u64(p: &[u8], at: usize) -> Result<u64, WireError> {
    p.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or_else(|| WireError::BadPayload(format!("u64 at {at} out of bounds ({} B)", p.len())))
}

fn take_u16(p: &[u8], at: usize) -> Result<u16, WireError> {
    p.get(at..at + 2)
        .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
        .ok_or_else(|| WireError::BadPayload(format!("u16 at {at} out of bounds ({} B)", p.len())))
}

impl ClusterMsg {
    /// Packs the message into a frame carrying `request_id`; the frame
    /// encodes under [`crate::proto::WIRE_VERSION_CLUSTER`].
    #[must_use]
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let (opcode, payload) = match self {
            ClusterMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                let mut p = Vec::with_capacity(36 + entries.len() * WIRE_ENTRY_BYTES);
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&leader.to_le_bytes());
                p.extend_from_slice(&prev_index.to_le_bytes());
                p.extend_from_slice(&prev_term.to_le_bytes());
                p.extend_from_slice(&commit.to_le_bytes());
                p.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for e in entries {
                    e.encode_into(&mut p);
                }
                (op::APPEND_ENTRIES, p)
            }
            ClusterMsg::AppendResp {
                term,
                from,
                success,
                match_index,
            } => {
                let mut p = Vec::with_capacity(19);
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&from.to_le_bytes());
                p.push(u8::from(*success));
                p.extend_from_slice(&match_index.to_le_bytes());
                (op::APPEND_OK, p)
            }
            ClusterMsg::VoteReq {
                term,
                candidate,
                last_index,
                last_term,
            } => {
                let mut p = Vec::with_capacity(26);
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&candidate.to_le_bytes());
                p.extend_from_slice(&last_index.to_le_bytes());
                p.extend_from_slice(&last_term.to_le_bytes());
                (op::REQUEST_VOTE, p)
            }
            ClusterMsg::VoteResp {
                term,
                from,
                granted,
            } => {
                let mut p = Vec::with_capacity(11);
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&from.to_le_bytes());
                p.push(u8::from(*granted));
                (op::VOTE_OK, p)
            }
            ClusterMsg::Snapshot {
                term,
                leader,
                last_index,
                last_term,
                lines,
            } => {
                let mut p = Vec::with_capacity(30 + lines.len() * (8 + LINE_BYTES));
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&leader.to_le_bytes());
                p.extend_from_slice(&last_index.to_le_bytes());
                p.extend_from_slice(&last_term.to_le_bytes());
                p.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for (line, data) in lines {
                    p.extend_from_slice(&line.to_le_bytes());
                    p.extend_from_slice(&data[..]);
                }
                (op::INSTALL_SNAPSHOT, p)
            }
            ClusterMsg::SnapshotResp {
                term,
                from,
                match_index,
            } => {
                let mut p = Vec::with_capacity(18);
                p.extend_from_slice(&term.to_le_bytes());
                p.extend_from_slice(&from.to_le_bytes());
                p.extend_from_slice(&match_index.to_le_bytes());
                (op::SNAPSHOT_OK, p)
            }
        };
        Frame::new(opcode, request_id, payload)
    }

    /// Unpacks a consensus message from a decoded frame.
    ///
    /// # Errors
    ///
    /// [`WireError::BadOpcode`] for non-cluster opcodes,
    /// [`WireError::BadPayload`] for shape violations, and
    /// [`WireError::CrcMismatch`] when an embedded log entry fails its own
    /// CRC.
    pub fn from_frame(frame: &Frame) -> Result<ClusterMsg, WireError> {
        let p = &frame.payload;
        match frame.opcode {
            op::APPEND_ENTRIES => {
                let term = take_u64(p, 0)?;
                let leader = take_u16(p, 8)?;
                let prev_index = take_u64(p, 10)?;
                let prev_term = take_u64(p, 18)?;
                let commit = take_u64(p, 26)?;
                let n = take_u16(p, 34)? as usize;
                if p.len() != 36 + n * WIRE_ENTRY_BYTES {
                    return Err(WireError::BadPayload(format!(
                        "append_entries declares {n} entries but carries {} B",
                        p.len()
                    )));
                }
                let mut entries = Vec::with_capacity(n);
                for k in 0..n {
                    entries.push(WireEntry::decode_from(&p[36 + k * WIRE_ENTRY_BYTES..])?);
                }
                Ok(ClusterMsg::AppendEntries {
                    term,
                    leader,
                    prev_index,
                    prev_term,
                    commit,
                    entries,
                })
            }
            op::APPEND_OK => {
                if p.len() != 19 {
                    return Err(WireError::BadPayload(format!(
                        "append_ok payload {} B",
                        p.len()
                    )));
                }
                Ok(ClusterMsg::AppendResp {
                    term: take_u64(p, 0)?,
                    from: take_u16(p, 8)?,
                    success: p[10] != 0,
                    match_index: take_u64(p, 11)?,
                })
            }
            op::REQUEST_VOTE => {
                if p.len() != 26 {
                    return Err(WireError::BadPayload(format!(
                        "request_vote payload {} B",
                        p.len()
                    )));
                }
                Ok(ClusterMsg::VoteReq {
                    term: take_u64(p, 0)?,
                    candidate: take_u16(p, 8)?,
                    last_index: take_u64(p, 10)?,
                    last_term: take_u64(p, 18)?,
                })
            }
            op::VOTE_OK => {
                if p.len() != 11 {
                    return Err(WireError::BadPayload(format!(
                        "vote_ok payload {} B",
                        p.len()
                    )));
                }
                Ok(ClusterMsg::VoteResp {
                    term: take_u64(p, 0)?,
                    from: take_u16(p, 8)?,
                    granted: p[10] != 0,
                })
            }
            op::INSTALL_SNAPSHOT => {
                let term = take_u64(p, 0)?;
                let leader = take_u16(p, 8)?;
                let last_index = take_u64(p, 10)?;
                let last_term = take_u64(p, 18)?;
                let n = p
                    .get(26..30)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .ok_or_else(|| WireError::BadPayload("snapshot header short".into()))?
                    as usize;
                if p.len() != 30 + n * (8 + LINE_BYTES) {
                    return Err(WireError::BadPayload(format!(
                        "snapshot declares {n} lines but carries {} B",
                        p.len()
                    )));
                }
                let mut lines = Vec::with_capacity(n);
                for k in 0..n {
                    let at = 30 + k * (8 + LINE_BYTES);
                    let line = take_u64(p, at)?;
                    let mut data = Box::new([0u8; LINE_BYTES]);
                    data.copy_from_slice(&p[at + 8..at + 8 + LINE_BYTES]);
                    lines.push((line, data));
                }
                Ok(ClusterMsg::Snapshot {
                    term,
                    leader,
                    last_index,
                    last_term,
                    lines,
                })
            }
            op::SNAPSHOT_OK => {
                if p.len() != 18 {
                    return Err(WireError::BadPayload(format!(
                        "snapshot_ok payload {} B",
                        p.len()
                    )));
                }
                Ok(ClusterMsg::SnapshotResp {
                    term: take_u64(p, 0)?,
                    from: take_u16(p, 8)?,
                    match_index: take_u64(p, 10)?,
                })
            }
            other => Err(WireError::BadOpcode(other)),
        }
    }

    /// The message's term field (every consensus message carries one).
    #[must_use]
    pub fn term(&self) -> u64 {
        match self {
            ClusterMsg::AppendEntries { term, .. }
            | ClusterMsg::AppendResp { term, .. }
            | ClusterMsg::VoteReq { term, .. }
            | ClusterMsg::VoteResp { term, .. }
            | ClusterMsg::Snapshot { term, .. }
            | ClusterMsg::SnapshotResp { term, .. } => *term,
        }
    }

    /// Returns a copy with the term rewound to `term` (the stale-term
    /// fault site uses this; receivers must reject the result).
    #[must_use]
    pub fn with_term(&self, term: u64) -> ClusterMsg {
        let mut m = self.clone();
        match &mut m {
            ClusterMsg::AppendEntries { term: t, .. }
            | ClusterMsg::AppendResp { term: t, .. }
            | ClusterMsg::VoteReq { term: t, .. }
            | ClusterMsg::VoteResp { term: t, .. }
            | ClusterMsg::Snapshot { term: t, .. }
            | ClusterMsg::SnapshotResp { term: t, .. } => *t = term,
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, WIRE_VERSION_CLUSTER};

    fn sample_entry(index: u64) -> WireEntry {
        WireEntry {
            term: 3,
            index,
            line: 40 + index,
            data: Box::new([index as u8; LINE_BYTES]),
        }
    }

    #[test]
    fn messages_round_trip_through_v3_frames() {
        let msgs = [
            ClusterMsg::AppendEntries {
                term: 3,
                leader: 1,
                prev_index: 9,
                prev_term: 2,
                commit: 8,
                entries: vec![sample_entry(10), sample_entry(11)],
            },
            ClusterMsg::AppendResp {
                term: 3,
                from: 2,
                success: true,
                match_index: 11,
            },
            ClusterMsg::VoteReq {
                term: 4,
                candidate: 0,
                last_index: 11,
                last_term: 3,
            },
            ClusterMsg::VoteResp {
                term: 4,
                from: 2,
                granted: false,
            },
            ClusterMsg::Snapshot {
                term: 4,
                leader: 0,
                last_index: 11,
                last_term: 3,
                lines: vec![(7, Box::new([0xAB; LINE_BYTES]))],
            },
            ClusterMsg::SnapshotResp {
                term: 4,
                from: 1,
                match_index: 11,
            },
        ];
        for (k, m) in msgs.iter().enumerate() {
            let bytes = m.to_frame(k as u64).encode();
            assert_eq!(bytes[4], WIRE_VERSION_CLUSTER, "{m:?}");
            let back = read_frame(&mut &bytes[..]).unwrap();
            assert_eq!(&ClusterMsg::from_frame(&back).unwrap(), m);
        }
    }

    #[test]
    fn entry_crc_is_checked_on_decode() {
        let msg = ClusterMsg::AppendEntries {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entries: vec![sample_entry(1)],
        };
        let mut f = msg.to_frame(1);
        // Flip one data byte inside the entry but re-seal the frame, so
        // only the entry-level CRC can catch it.
        f.payload[36 + 30] ^= 0x01;
        let bytes = f.encode();
        let back = read_frame(&mut &bytes[..]).unwrap();
        assert!(matches!(
            ClusterMsg::from_frame(&back),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn stale_term_rewrite_only_touches_the_term() {
        let m = ClusterMsg::VoteReq {
            term: 9,
            candidate: 1,
            last_index: 4,
            last_term: 8,
        };
        let stale = m.with_term(2);
        assert_eq!(stale.term(), 2);
        assert_eq!(
            stale,
            ClusterMsg::VoteReq {
                term: 2,
                candidate: 1,
                last_index: 4,
                last_term: 8,
            }
        );
    }
}
