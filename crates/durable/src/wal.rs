//! The segmented write-ahead log: fixed-size CRC-guarded records,
//! seeded-deterministic rotation, torn-tail truncation on replay.

use crate::snapshot::{self, SnapshotState};
use reram_fault::{site, FaultInjector, FaultKind};
use reram_obs::{crc32, Obs, Value};
use reram_workloads::Rng64;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record kind: an opaque log-entry payload (the caller's encoding; the
/// cluster stores wire entries, `WIRE_ENTRY_BYTES` each).
pub const REC_ENTRY: u8 = 1;
/// Record kind: "discard every entry from index `payload[0..8]` (LE)
/// up" — written when the consensus core resolves a log conflict.
pub const REC_TRUNCATE: u8 = 2;
/// Record kind: persistent vote state, `term (u64 LE) | voted_for
/// (u64 LE, MAX = none)` — written on every term or vote change.
pub const REC_META: u8 = 3;

/// Fixed per-record framing cost: kind byte, payload length (u16) and
/// the CRC-32 over everything before it. On-disk record size is
/// `RECORD_OVERHEAD + payload_bytes` with the payload zero-padded.
pub const RECORD_OVERHEAD: usize = 1 + 2 + 4;

/// Configuration for one durable log directory.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory the segments and snapshots live in (created on open).
    pub dir: PathBuf,
    /// Maximum payload bytes per record; every record occupies
    /// `RECORD_OVERHEAD + payload_bytes` on disk so replay can walk the
    /// segment by fixed strides.
    pub payload_bytes: usize,
    /// Base records per segment before rotation; the effective capacity
    /// of segment `seq` adds a seeded jitter in `[0, base/4]` so
    /// rotation points are deterministic per seed, not per wall clock.
    pub segment_records: u64,
    /// Seeds the per-segment capacity jitter.
    pub seed: u64,
    /// Fault-site target label for this log's `durable.wal.*` streams
    /// (e.g. `replica0`), so plans can aim at one replica's disk.
    pub target: String,
}

impl DurableConfig {
    /// A config with the workspace defaults (1024-record base segments,
    /// seed 0, target `wal`).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, payload_bytes: usize) -> Self {
        Self {
            dir: dir.into(),
            payload_bytes,
            segment_records: 1024,
            seed: 0,
            target: "wal".to_string(),
        }
    }
}

/// One decoded WAL record, as handed back by [`DurableLog::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// [`REC_ENTRY`], [`REC_TRUNCATE`] or [`REC_META`] (callers may use
    /// further kinds; the log does not interpret them).
    pub kind: u8,
    /// The payload, un-padded back to its written length.
    pub payload: Vec<u8>,
}

/// Everything [`DurableLog::open`] recovered from the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Newest snapshot that passed its CRC footer, if any.
    pub snapshot: Option<SnapshotState>,
    /// Every intact WAL record, in append order across segments.
    pub records: Vec<WalRecord>,
    /// Torn final writes truncated away (corruption at the very end of
    /// the log — the expected crash signature).
    pub torn_tail: u64,
    /// Mid-log corruption events (valid data followed the bad record);
    /// the suffix from the bad record on was discarded.
    pub bit_rot: u64,
    /// Snapshot generations that failed their CRC and were skipped.
    pub corrupt_snapshots: u64,
}

/// The live write-ahead log handle. One writer per directory.
#[derive(Debug)]
pub struct DurableLog {
    cfg: DurableConfig,
    file: File,
    seq: u64,
    records_in_seg: u64,
    obs: Obs,
    faults: Option<Arc<FaultInjector>>,
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

fn parse_seg_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Scans `dir` for WAL segments and snapshots, each sorted ascending.
fn scan_dir(dir: &Path) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let mut segs = Vec::new();
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seg_name(name) {
            segs.push(seq);
        } else if let Some(idx) = snapshot::parse_snap_name(name) {
            snaps.push(idx);
        }
    }
    segs.sort_unstable();
    snaps.sort_unstable();
    Ok((segs, snaps))
}

fn encode_record(kind: u8, payload: &[u8], payload_bytes: usize) -> Vec<u8> {
    assert!(
        payload.len() <= payload_bytes,
        "record payload {} B exceeds the log's fixed {payload_bytes} B",
        payload.len()
    );
    let mut buf = vec![0u8; RECORD_OVERHEAD + payload_bytes];
    buf[0] = kind;
    buf[1..3].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    buf[3..3 + payload.len()].copy_from_slice(payload);
    let sealed = 3 + payload_bytes;
    let crc = crc32(&buf[..sealed]);
    buf[sealed..sealed + 4].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_record(chunk: &[u8]) -> Option<WalRecord> {
    let sealed = chunk.len() - 4;
    let want = u32::from_le_bytes(chunk[sealed..].try_into().expect("4 bytes"));
    if crc32(&chunk[..sealed]) != want {
        return None;
    }
    let len = u16::from_le_bytes(chunk[1..3].try_into().expect("2 bytes")) as usize;
    if len > sealed - 3 {
        return None;
    }
    Some(WalRecord {
        kind: chunk[0],
        payload: chunk[3..3 + len].to_vec(),
    })
}

impl DurableLog {
    /// Opens (creating if needed) the log directory, replays every
    /// surviving record and returns the handle positioned for appends.
    ///
    /// Corrupt tails are truncated on disk (see the crate docs for the
    /// torn-tail / bit-rot policy); the counts come back in
    /// [`Recovered`] and as `durable.wal.torn_tail` /
    /// `durable.wal.bit_rot` counters.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corruption is never an error, it
    /// is truncated and counted.
    pub fn open(
        cfg: DurableConfig,
        obs: &Obs,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<(DurableLog, Recovered)> {
        fs::create_dir_all(&cfg.dir)?;
        let record_bytes = RECORD_OVERHEAD + cfg.payload_bytes;
        let (segs, snaps) = scan_dir(&cfg.dir)?;

        let mut corrupt_snapshots = 0;
        let mut snap = None;
        for &idx in snaps.iter().rev() {
            match snapshot::read_snapshot(&snapshot::snap_path(&cfg.dir, idx)) {
                Some(s) => {
                    obs.counter("durable.snapshot.loads").inc();
                    snap = Some(s);
                    break;
                }
                None => {
                    corrupt_snapshots += 1;
                    obs.counter("durable.snapshot.corrupt").inc();
                }
            }
        }

        let mut records = Vec::new();
        let mut torn_tail = 0u64;
        let mut bit_rot = 0u64;
        // (seq, surviving record count) per segment, in order; a
        // corrupt record cuts the log here and discards later segments.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut cut: Option<(usize, u64, u64, bool)> = None; // (live idx, seq, good records, torn?)
        'replay: for (si, &seq) in segs.iter().enumerate() {
            let mut bytes = fs::read(seg_path(&cfg.dir, seq))?;
            if let Some(inj) = &faults {
                if let Some(f) = inj.fire(site::WAL_REPLAY, &cfg.target) {
                    if f.kind == FaultKind::ShortRead {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let cut_bytes = if f.param > 0.0 {
                            f.param as usize
                        } else {
                            record_bytes / 2
                        };
                        bytes.truncate(bytes.len().saturating_sub(cut_bytes));
                    }
                }
            }
            let n_full = bytes.len() / record_bytes;
            let partial = bytes.len() % record_bytes != 0;
            for k in 0..n_full {
                match decode_record(&bytes[k * record_bytes..(k + 1) * record_bytes]) {
                    Some(r) => records.push(r),
                    None => {
                        // Torn only when nothing valid can follow: the
                        // last full chunk of the last segment.
                        let torn = si == segs.len() - 1 && k == n_full - 1;
                        cut = Some((live.len(), seq, k as u64, torn));
                        live.push((seq, k as u64));
                        break 'replay;
                    }
                }
            }
            if partial {
                let torn = si == segs.len() - 1;
                cut = Some((live.len(), seq, n_full as u64, torn));
                live.push((seq, n_full as u64));
                break 'replay;
            }
            live.push((seq, n_full as u64));
        }

        if let Some((li, seq, good, torn)) = cut {
            // Truncate the segment back to its last intact record and
            // drop every later segment: the suffix is unprovable.
            let f = OpenOptions::new()
                .write(true)
                .open(seg_path(&cfg.dir, seq))?;
            f.set_len(good * record_bytes as u64)?;
            f.sync_all()?;
            for &later in &segs[segs.iter().position(|&s| s == seq).expect("seq listed") + 1..] {
                fs::remove_file(seg_path(&cfg.dir, later))?;
            }
            debug_assert_eq!(li + 1, live.len());
            if torn {
                torn_tail += 1;
                obs.counter("durable.wal.torn_tail").inc();
            } else {
                bit_rot += 1;
                obs.counter("durable.wal.bit_rot").inc();
            }
            let action = if torn {
                "truncate_torn_tail"
            } else {
                "discard_corrupt_suffix"
            };
            obs.event(
                "durable.recovery",
                &[
                    ("target", Value::Str(cfg.target.clone())),
                    ("segment", Value::U64(seq)),
                    ("surviving_records", Value::U64(good)),
                    ("action", Value::Str(action.to_string())),
                ],
            );
            if let Some(inj) = &faults {
                inj.note_recovery(site::WAL_REPLAY, action);
            }
        }

        // Position for appends: the last surviving segment, or a fresh
        // segment 0 on an empty directory.
        let (seq, records_in_seg) = live.last().copied().unwrap_or((0, 0));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(seg_path(&cfg.dir, seq))?;

        obs.counter("durable.wal.replayed")
            .add(records.len() as u64);
        let log = DurableLog {
            file,
            seq,
            records_in_seg,
            obs: obs.clone(),
            faults,
            cfg,
        };
        Ok((
            log,
            Recovered {
                snapshot: snap,
                records,
                torn_tail,
                bit_rot,
                corrupt_snapshots,
            },
        ))
    }

    /// Effective record capacity of segment `seq`: the configured base
    /// plus a seed-deterministic jitter in `[0, base/4]`.
    #[must_use]
    pub fn capacity_for(&self, seq: u64) -> u64 {
        let base = self.cfg.segment_records.max(1);
        let mut rng = Rng64::new(
            self.cfg
                .seed
                .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        base + rng.gen_u64_below(base / 4 + 1)
    }

    /// The segment currently receiving appends.
    #[must_use]
    pub fn current_segment(&self) -> u64 {
        self.seq
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.seq += 1;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(seg_path(&self.cfg.dir, self.seq))?;
        self.records_in_seg = 0;
        self.obs.counter("durable.wal.rotations").inc();
        Ok(())
    }

    /// Appends one record (CRC-sealed, zero-padded to the fixed record
    /// size), rotating to a new segment at the seeded capacity.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// When `payload` exceeds the configured `payload_bytes` — a
    /// caller bug, not a runtime condition.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let mut staged = Vec::new();
        self.stage_record(kind, payload, &mut staged)?;
        self.flush_staged(&mut staged)
    }

    /// Appends a batch of records with one media write for every
    /// fault-free contiguous run (rotation and injected disk faults
    /// flush the staged run first, so on-media layout is byte-identical
    /// to the same sequence of single [`DurableLog::append`] calls).
    /// The serving hot path uses this: one log-lock acquisition and one
    /// `write` syscall per shard batch instead of one per write keeps
    /// the durable-mode throughput tax under the 5% budget.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// When a payload exceeds the configured `payload_bytes`.
    pub fn append_batch(&mut self, records: &[(u8, &[u8])]) -> io::Result<()> {
        let mut staged =
            Vec::with_capacity(records.len() * (RECORD_OVERHEAD + self.cfg.payload_bytes));
        for &(kind, payload) in records {
            self.stage_record(kind, payload, &mut staged)?;
        }
        self.flush_staged(&mut staged)
    }

    fn flush_staged(&mut self, staged: &mut Vec<u8>) -> io::Result<()> {
        if !staged.is_empty() {
            self.file.write_all(staged)?;
            staged.clear();
        }
        Ok(())
    }

    fn stage_record(&mut self, kind: u8, payload: &[u8], staged: &mut Vec<u8>) -> io::Result<()> {
        if self.records_in_seg >= self.capacity_for(self.seq) {
            self.flush_staged(staged)?;
            self.rotate()?;
        }
        let mut buf = encode_record(kind, payload, self.cfg.payload_bytes);
        let fault = self
            .faults
            .as_ref()
            .and_then(|inj| inj.fire(site::WAL_APPEND, &self.cfg.target));
        match fault.map(|f| (f.kind, f.param)) {
            Some((FaultKind::LostFsync, _)) => {
                // Acknowledged but never reaches the media: the record
                // simply does not exist after a crash.
            }
            Some((FaultKind::TornWrite, _)) => {
                self.flush_staged(staged)?;
                let inj = self.faults.as_ref().expect("fault fired");
                #[allow(clippy::cast_possible_truncation)]
                let keep = 1 + inj.rand_below(buf.len() as u64 - 1) as usize;
                self.file.write_all(&buf[..keep])?;
            }
            Some((FaultKind::BitRot, param)) => {
                let inj = self.faults.as_ref().expect("fault fired");
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let at = if param > 0.0 {
                    (param as usize).min(buf.len() - 1)
                } else {
                    inj.rand_below(buf.len() as u64) as usize
                };
                buf[at] ^= 0x01;
                staged.extend_from_slice(&buf);
            }
            _ => staged.extend_from_slice(&buf),
        }
        self.records_in_seg += 1;
        self.obs.counter("durable.wal.appends").inc();
        Ok(())
    }

    /// Atomically persists a snapshot of the caller's state as of
    /// (`last_index`, `last_term`), rewrites the surviving log `tail`
    /// into a fresh segment, garbage-collects every older segment (the
    /// snapshot covers them) and prunes all but the two newest snapshot
    /// generations.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn install_snapshot(
        &mut self,
        last_index: u64,
        last_term: u64,
        state: &[u8],
        tail: &[(u8, Vec<u8>)],
    ) -> io::Result<()> {
        snapshot::write_snapshot(
            &self.cfg.dir,
            &SnapshotState {
                last_index,
                last_term,
                state: state.to_vec(),
            },
        )?;
        self.obs.counter("durable.snapshot.writes").inc();

        self.rotate()?;
        let fresh = self.seq;
        for (kind, payload) in tail {
            self.append(*kind, payload)?;
        }
        self.file.sync_all()?;

        let (segs, snaps) = scan_dir(&self.cfg.dir)?;
        let mut gc = 0u64;
        for &seq in segs.iter().filter(|&&s| s < fresh) {
            fs::remove_file(seg_path(&self.cfg.dir, seq))?;
            gc += 1;
        }
        self.obs.counter("durable.wal.gc_segments").add(gc);
        if snaps.len() > 2 {
            for &idx in &snaps[..snaps.len() - 2] {
                fs::remove_file(snapshot::snap_path(&self.cfg.dir, idx))?;
            }
        }
        Ok(())
    }

    /// Flushes the current segment to the media.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// A unique, freshly-created scratch directory for tests (`std` only —
/// no tempfile crate in this workspace).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "reram-durable-{tag}-{}-{}-{nanos}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_fault::{FaultPlan, FaultSpec};

    const PB: usize = 92; // WIRE_ENTRY_BYTES in the serve crate

    fn cfg(dir: &Path) -> DurableConfig {
        DurableConfig {
            segment_records: 8,
            seed: 7,
            target: "replica0".to_string(),
            ..DurableConfig::new(dir, PB)
        }
    }

    fn payload(k: u64) -> Vec<u8> {
        (0..PB as u64).map(|i| (i ^ k) as u8).collect()
    }

    #[test]
    fn append_reopen_round_trips_across_rotations() {
        let dir = test_dir("round_trip");
        let (mut log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert!(rec.records.is_empty() && rec.snapshot.is_none());
        for k in 0..40u64 {
            log.append(REC_ENTRY, &payload(k)).unwrap();
        }
        assert!(log.current_segment() >= 3, "8-record base must rotate");
        drop(log);

        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert_eq!(rec.records.len(), 40);
        assert_eq!(rec.torn_tail + rec.bit_rot, 0);
        for (k, r) in rec.records.iter().enumerate() {
            assert_eq!(r.kind, REC_ENTRY);
            assert_eq!(r.payload, payload(k as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_points_are_seed_deterministic() {
        let a = test_dir("rot_a");
        let b = test_dir("rot_b");
        let mut seqs = Vec::new();
        for dir in [&a, &b] {
            let (mut log, _) = DurableLog::open(cfg(dir), &Obs::off(), None).unwrap();
            let mut s = Vec::new();
            for k in 0..64u64 {
                log.append(REC_ENTRY, &payload(k)).unwrap();
                s.push(log.current_segment());
            }
            seqs.push(s);
        }
        assert_eq!(seqs[0], seqs[1]);
        assert!(seqs[0].iter().any(|&s| s > 0));
        fs::remove_dir_all(&a).unwrap();
        fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = test_dir("torn");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        for k in 0..5u64 {
            log.append(REC_ENTRY, &payload(k)).unwrap();
        }
        let seq = log.current_segment();
        drop(log);
        // Cut the last record in half: the classic power-cut signature.
        let p = seg_path(&dir, seq);
        let len = fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - (RECORD_OVERHEAD + PB) as u64 / 2).unwrap();
        drop(f);

        let obs = Obs::new();
        let (mut log, rec) = DurableLog::open(cfg(&dir), &obs, None).unwrap();
        assert_eq!(rec.records.len(), 4, "the torn record must not replay");
        assert_eq!(rec.torn_tail, 1);
        assert_eq!(rec.bit_rot, 0);
        assert!(obs.summary_json().contains("durable.wal.torn_tail"));

        // The truncated log accepts appends and replays cleanly again.
        log.append(REC_ENTRY, &payload(99)).unwrap();
        drop(log);
        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.records[4].payload, payload(99));
        assert_eq!(rec.torn_tail, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_bit_rot_discards_the_suffix() {
        let dir = test_dir("rot_mid");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        for k in 0..20u64 {
            log.append(REC_ENTRY, &payload(k)).unwrap();
        }
        drop(log);
        // Flip a byte in record 2 of segment 0: records 0..2 survive,
        // everything after — including later segments — is discarded.
        let p = seg_path(&dir, 0);
        let mut bytes = fs::read(&p).unwrap();
        bytes[2 * (RECORD_OVERHEAD + PB) + 10] ^= 0x40;
        fs::write(&p, &bytes).unwrap();

        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.bit_rot, 1);
        assert_eq!(rec.torn_tail, 0);
        let (segs, _) = scan_dir(&dir).unwrap();
        assert_eq!(segs, vec![0], "later segments must be deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rewrites_tail_and_collects_old_segments() {
        let dir = test_dir("snap_gc");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        for k in 0..30u64 {
            log.append(REC_ENTRY, &payload(k)).unwrap();
        }
        let tail: Vec<(u8, Vec<u8>)> = (28..30).map(|k| (REC_ENTRY, payload(k))).collect();
        log.install_snapshot(28, 2, b"state-blob", &tail).unwrap();
        drop(log);

        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        let snap = rec.snapshot.expect("snapshot survives");
        assert_eq!((snap.last_index, snap.last_term), (28, 2));
        assert_eq!(snap.state, b"state-blob");
        assert_eq!(rec.records.len(), 2, "only the rewritten tail remains");
        assert_eq!(rec.records[0].payload, payload(28));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_a_generation() {
        let dir = test_dir("snap_fb");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        log.install_snapshot(10, 1, b"gen-one", &[]).unwrap();
        log.install_snapshot(20, 1, b"gen-two", &[]).unwrap();
        drop(log);
        let newest = snapshot::snap_path(&dir, 20);
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() - 6;
        bytes[at] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        let snap = rec.snapshot.expect("older generation");
        assert_eq!(snap.last_index, 10);
        assert_eq!(snap.state, b"gen-one");
        assert_eq!(rec.corrupt_snapshots, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_fault_kinds_lose_only_unprovable_records() {
        // torn_write / bit_rot / lost_fsync each hit record 3 of a
        // 6-record log; recovery must return exactly records 0..3 (the
        // faulted record and — for in-place corruption — its suffix are
        // discarded, never silently applied).
        for kind in [
            FaultKind::TornWrite,
            FaultKind::BitRot,
            FaultKind::LostFsync,
        ] {
            let dir = test_dir("fault");
            let obs = Obs::new();
            let plan = FaultPlan::new(11).with(
                FaultSpec::new(site::WAL_APPEND, kind)
                    .target("replica0")
                    .occurrence(3),
            );
            let inj = Arc::new(FaultInjector::new(plan, &obs));
            let (mut log, _) = DurableLog::open(cfg(&dir), &obs, Some(inj.clone())).unwrap();
            for k in 0..6u64 {
                log.append(REC_ENTRY, &payload(k)).unwrap();
            }
            drop(log);
            assert_eq!(inj.injected(), 1, "{kind:?}");

            let (_log, rec) = DurableLog::open(cfg(&dir), &obs, None).unwrap();
            match kind {
                // The lost record simply is not there; later writes
                // landed earlier in the file, so 5 records survive.
                FaultKind::LostFsync => {
                    assert_eq!(rec.records.len(), 5, "{kind:?}");
                    assert_eq!(rec.records[3].payload, payload(4));
                }
                // In-place corruption of record 3 cuts the log there.
                _ => {
                    assert_eq!(rec.records.len(), 3, "{kind:?}");
                    assert!(rec.torn_tail + rec.bit_rot >= 1, "{kind:?}");
                }
            }
            for (k, r) in rec.records.iter().take(3).enumerate() {
                assert_eq!(r.payload, payload(k as u64), "{kind:?}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn short_read_on_replay_is_a_torn_tail() {
        let dir = test_dir("short");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        for k in 0..4u64 {
            log.append(REC_ENTRY, &payload(k)).unwrap();
        }
        drop(log);
        let obs = Obs::new();
        let plan = FaultPlan::new(3)
            .with(FaultSpec::new(site::WAL_REPLAY, FaultKind::ShortRead).target("replica0"));
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let (_log, rec) = DurableLog::open(cfg(&dir), &obs, Some(inj)).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.torn_tail, 1);
        // The short read truncated the file too: a second open is clean.
        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.torn_tail, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_and_truncate_records_round_trip() {
        let dir = test_dir("kinds");
        let (mut log, _) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        log.append(REC_META, &7u64.to_le_bytes()).unwrap();
        log.append(REC_ENTRY, &payload(0)).unwrap();
        log.append(REC_TRUNCATE, &1u64.to_le_bytes()).unwrap();
        drop(log);
        let (_log, rec) = DurableLog::open(cfg(&dir), &Obs::off(), None).unwrap();
        assert_eq!(
            rec.records.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![REC_META, REC_ENTRY, REC_TRUNCATE]
        );
        assert_eq!(rec.records[0].payload, 7u64.to_le_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }
}
