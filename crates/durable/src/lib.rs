//! # reram-durable — crash-safe persistence for the memory service
//!
//! A zero-dependency (`std` only) persistence layer with two artifacts:
//!
//! * **Segmented write-ahead log** — fixed-size CRC-guarded records
//!   appended to `wal-<seq>.seg` segment files. Segments rotate at a
//!   seeded-deterministic capacity (base size plus a per-segment jitter
//!   drawn from the configured seed, so two runs with the same seed
//!   rotate at the same records); old segments are garbage-collected
//!   when a snapshot covers them.
//! * **Atomic snapshots** — `snap-<index>.img` files written as a temp
//!   file, flushed, then renamed into place, sealed by a CRC-32 footer
//!   over the entire body. The two newest generations are kept so a
//!   bit-rotted newest snapshot degrades to the previous one instead of
//!   to nothing.
//!
//! The log stores **opaque payloads**: callers (the cluster pump, the
//! single-node server) encode their own record bodies (wire entries,
//! vote metadata) so this crate depends on no wire format. Record
//! integrity is this crate's job; record *meaning* is the caller's.
//!
//! ## Recovery contract
//!
//! [`DurableLog::open`] replays every surviving segment in order and
//! returns the decoded records plus the newest valid snapshot. A record
//! that fails its CRC is **never returned**: the bad record and the
//! entire log suffix after it are discarded, the segment file is
//! truncated back to its last good record, and the event is counted —
//! as `durable.wal.torn_tail` when the corruption sits at the very end
//! of the log (a torn final write) or `durable.wal.bit_rot` when valid
//! data follows it (media corruption). A replica that loses a log
//! suffix this way rejoins its group and re-replicates the lost tail
//! from the leader; it never applies bytes it cannot prove intact.
//!
//! ## Fault hooks (`reram-fault`)
//!
//! * `durable.wal.append` — consulted once per appended record:
//!   [`reram_fault::FaultKind::TornWrite`] persists only a prefix,
//!   [`reram_fault::FaultKind::BitRot`] flips one on-media byte,
//!   [`reram_fault::FaultKind::LostFsync`] acknowledges the append
//!   without writing anything.
//! * `durable.wal.replay` — consulted once per segment during
//!   [`DurableLog::open`]: [`reram_fault::FaultKind::ShortRead`] cuts
//!   the segment read mid-record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod snapshot;
mod wal;

pub use snapshot::SnapshotState;
pub use wal::{
    DurableConfig, DurableLog, Recovered, WalRecord, RECORD_OVERHEAD, REC_ENTRY, REC_META,
    REC_TRUNCATE,
};
