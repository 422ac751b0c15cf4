//! Atomic CRC-footed snapshot files (`snap-<index>.img`).
//!
//! A snapshot freezes the caller's applied state (an opaque byte blob)
//! as of one log position. The file is written to a `.tmp` sibling,
//! flushed, then renamed into place, so a crash mid-write leaves either
//! the old generation or the new one — never a half-written file under
//! the live name. The CRC-32 footer seals the whole body, so bit rot is
//! detected at load and the reader falls back to an older generation.

use reram_obs::crc32;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "RSNP" followed by a format version byte.
const MAGIC: [u8; 4] = *b"RSNP";
const VERSION: u8 = 1;

/// One recovered (or to-be-written) snapshot: the caller's opaque state
/// blob as of log position (`last_index`, `last_term`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotState {
    /// Log index the state covers through.
    pub last_index: u64,
    /// Term of the entry at `last_index`.
    pub last_term: u64,
    /// Caller-encoded applied state (the durable layer never looks
    /// inside).
    pub state: Vec<u8>,
}

/// Canonical file name for the snapshot at `index` (zero-padded so
/// lexicographic order is numeric order).
pub(crate) fn snap_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("snap-{index:020}.img"))
}

/// Parses `snap-<index>.img` names back to the index.
pub(crate) fn parse_snap_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".img")?
        .parse()
        .ok()
}

/// Writes `snap` atomically under `dir` and returns the final path.
pub(crate) fn write_snapshot(dir: &Path, snap: &SnapshotState) -> io::Result<PathBuf> {
    let mut body = Vec::with_capacity(5 + 24 + snap.state.len() + 4);
    body.extend_from_slice(&MAGIC);
    body.push(VERSION);
    body.extend_from_slice(&snap.last_index.to_le_bytes());
    body.extend_from_slice(&snap.last_term.to_le_bytes());
    body.extend_from_slice(&(snap.state.len() as u64).to_le_bytes());
    body.extend_from_slice(&snap.state);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());

    let path = snap_path(dir, snap.last_index);
    let tmp = path.with_extension("img.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&body)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Loads and verifies one snapshot file; `None` when the file is
/// missing, malformed, or fails its CRC footer (the caller falls back
/// to an older generation).
pub(crate) fn read_snapshot(path: &Path) -> Option<SnapshotState> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < 5 + 24 + 4 || bytes[..4] != MAGIC || bytes[4] != VERSION {
        return None;
    }
    let (body, foot) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(foot.try_into().expect("4 bytes"));
    if crc32(body) != want {
        return None;
    }
    let at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().expect("8 bytes"));
    let last_index = at(5);
    let last_term = at(13);
    let state_len = at(21) as usize;
    if body.len() != 5 + 24 + state_len {
        return None;
    }
    Some(SnapshotState {
        last_index,
        last_term,
        state: body[29..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_and_detects_rot() {
        let dir = crate::wal::test_dir("snap_rt");
        let snap = SnapshotState {
            last_index: 42,
            last_term: 3,
            state: (0u16..600).map(|x| x as u8).collect(),
        };
        let path = write_snapshot(&dir, &snap).unwrap();
        assert_eq!(read_snapshot(&path), Some(snap.clone()));

        // Flip one byte inside the state blob: the footer must catch it.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snap_names_round_trip() {
        let p = snap_path(Path::new("/x"), 7);
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(parse_snap_name(&name), Some(7));
        assert_eq!(parse_snap_name("snap-zzz.img"), None);
        assert_eq!(parse_snap_name("wal-00000001.seg"), None);
    }
}
