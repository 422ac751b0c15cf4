//! Checkpoint/resume journal: one CRC-guarded JSONL line per finished job.
//!
//! The DAG runner appends a line when a job resolves:
//!
//! ```json
//! {"job":"fig19/1","status":"done","payload":"<job output>","crc":"93b1f00d"}
//! {"job":"fig13","status":"failed","error":"panicked: ...","crc":"0a11ce55"}
//! ```
//!
//! Opening an existing journal replays it: jobs recorded `done` are
//! **skipped on resume** and their payloads handed straight to their
//! dependents; `failed` jobs rerun. The file is append-only and flushed
//! after every record, so an interrupted `experiments all --full` loses at
//! most the jobs that were mid-flight.
//!
//! # Corruption tolerance
//!
//! Every record carries a CRC-32 over its semantic content, checked on
//! replay. A record that fails the check — or does not parse at all — is
//! **quarantined**: it is skipped (its job simply reruns), counted, and
//! reported through [`Journal::quarantined`], while every valid record
//! before *and after* it still loads. A torn tail line from a killed run
//! and a byte flipped mid-file by bad storage degrade identically: one
//! rerun job, never a poisoned resume. Records written by older versions
//! without a `crc` field are accepted as-is.
//!
//! Records are read and written with `reram-obs`'s JSON reader and writer;
//! whatever the reader rejects (a missing comma between fields, bytes after
//! the closing `}` that the CRC does not cover) is quarantined.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use reram_fault::FaultInjector;
use reram_obs::{crc32, json::write_string, Json, Obs, Value};

/// A journal operation that could not touch its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal file (or its parent directory) could not be opened,
    /// created or read.
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying OS error, rendered.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// The CRC input: the record's semantic fields joined with a separator no
/// payload can contain unescaped (the JSON layer escapes control chars, so
/// the joint is unambiguous).
fn record_crc(job: &str, status: &str, body: &str) -> u32 {
    let mut buf = Vec::with_capacity(job.len() + status.len() + body.len() + 2);
    buf.extend_from_slice(job.as_bytes());
    buf.push(0x1f);
    buf.extend_from_slice(status.as_bytes());
    buf.push(0x1f);
    buf.extend_from_slice(body.as_bytes());
    crc32(&buf)
}

/// How a journaled job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// Completed with this payload; skipped on resume.
    Done(String),
    /// Failed with this error; rerun on resume.
    Failed(String),
}

/// A record [`Journal::open`] refused to trust.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// 1-based line number in the journal file.
    pub line: usize,
    /// Why the record was rejected.
    pub reason: String,
}

/// An append-only JSONL checkpoint file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    w: BufWriter<File>,
    completed: BTreeMap<String, String>,
    quarantined: Vec<Quarantined>,
    faults: Option<Arc<FaultInjector>>,
    obs: Obs,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and replays any
    /// existing records. Records that do not parse or fail their CRC check
    /// are quarantined (see the module docs and [`Journal::quarantined`]).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem errors.
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        Self::open_observed(path, &Obs::off())
    }

    /// [`Journal::open`] with a telemetry handle: each quarantined record
    /// bumps `recovery.exec.journal.corrupt` and emits a
    /// `recovery.journal.quarantine` event.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem errors.
    pub fn open_observed(path: &Path, obs: &Obs) -> Result<Self, JournalError> {
        let io_err = |e: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
            }
        }
        let mut completed = BTreeMap::new();
        let mut quarantined = Vec::new();
        let mut existing = String::new();
        let mut f = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(io_err)?;
        f.read_to_string(&mut existing).map_err(io_err)?;
        for (idx, line) in existing.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_line(line) {
                Ok((job, JournalEntry::Done(payload))) => {
                    completed.insert(job, payload);
                }
                Ok((_, JournalEntry::Failed(_))) => {}
                Err(reason) => {
                    if obs.enabled() {
                        obs.counter("recovery.exec.journal.corrupt").inc();
                        obs.event(
                            "recovery.journal.quarantine",
                            &[
                                ("line", Value::U64(idx as u64 + 1)),
                                ("reason", Value::Str(reason.clone())),
                            ],
                        );
                    }
                    quarantined.push(Quarantined {
                        line: idx + 1,
                        reason,
                    });
                }
            }
        }
        Ok(Self {
            path: path.to_path_buf(),
            w: BufWriter::new(f),
            completed,
            quarantined,
            faults: None,
            obs: obs.clone(),
        })
    }

    /// Arms deterministic corruption injection: every appended record
    /// consults the injector at [`reram_fault::site::JOURNAL`] with the job
    /// name as target; a fired [`reram_fault::FaultKind::JournalCorrupt`]
    /// mangles the durable bytes (the in-memory result stays correct — the
    /// damage surfaces on the *next* open, as quarantine).
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Parses one line into a trusted entry, or explains why it cannot be
    /// trusted.
    fn parse_line(line: &str) -> Result<(String, JournalEntry), String> {
        let obj = Json::parse(line).map_err(|e| format!("unparseable record: {e}"))?;
        let field = |key: &str| obj.get(key).and_then(Json::as_str);
        let job = field("job").ok_or("record missing \"job\"")?;
        let status = field("status").ok_or("record missing \"status\"")?;
        let (key, entry): (_, fn(String) -> JournalEntry) = match status {
            "done" => ("payload", JournalEntry::Done),
            "failed" => ("error", JournalEntry::Failed),
            other => return Err(format!("unknown status {other:?}")),
        };
        let body = field(key).ok_or_else(|| format!("{status} record missing {key}"))?;
        if let Some(stored) = obj.get("crc") {
            let expect = format!("{:08x}", record_crc(job, status, body));
            if stored.as_str() != Some(expect.as_str()) {
                return Err(format!(
                    "crc mismatch (stored {stored:?}, computed {expect})"
                ));
            }
        }
        Ok((job.to_string(), entry(body.to_string())))
    }

    /// Journal file location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Jobs already recorded `done` (job → payload); the DAG runner skips
    /// these on resume.
    #[must_use]
    pub fn completed(&self) -> &BTreeMap<String, String> {
        &self.completed
    }

    /// Records the replay refused to trust (unparseable or CRC-failing),
    /// in file order. Their jobs rerun as if never journaled.
    #[must_use]
    pub fn quarantined(&self) -> &[Quarantined] {
        &self.quarantined
    }

    fn append(&mut self, job: &str, status: &str, body_key: &str, body: &str) {
        let crc = format!("{:08x}", record_crc(job, status, body));
        // Injected corruption: mangle one byte of the durable body *after*
        // the CRC was computed over the clean content, so the record is
        // still valid JSON but fails verification on the next open.
        let mut durable = body.to_string();
        if let Some(inj) = &self.faults {
            if let Some(f) = inj.fire(reram_fault::site::JOURNAL, job) {
                if f.kind == reram_fault::FaultKind::JournalCorrupt {
                    let pos = if durable.is_empty() {
                        0
                    } else {
                        (f.param.max(0.0) as usize) % durable.len()
                    };
                    let pos = (0..=pos).rev().find(|p| durable.is_char_boundary(*p));
                    match pos {
                        Some(p) if p < durable.len() => {
                            let end = (p + 1..=durable.len())
                                .find(|e| durable.is_char_boundary(*e))
                                .unwrap_or(durable.len());
                            durable.replace_range(p..end, "\u{7}");
                        }
                        _ => durable.push('\u{7}'),
                    }
                    if self.obs.enabled() {
                        self.obs.counter("fault.journal.records_corrupted").inc();
                    }
                }
            }
        }
        let mut line = String::with_capacity(64);
        line.push('{');
        for (k, v) in [
            ("job", job),
            ("status", status),
            (body_key, durable.as_str()),
            ("crc", crc.as_str()),
        ] {
            if line.len() > 1 {
                line.push(',');
            }
            write_string(&mut line, k);
            line.push(':');
            write_string(&mut line, v);
        }
        line.push('}');
        // Checkpointing must never take the run down: IO errors degrade to
        // "no checkpoint", they don't fail the job.
        let _unused = writeln!(self.w, "{line}");
        let _unused = self.w.flush();
    }

    /// Records a completed job (and remembers it for [`Journal::completed`]).
    pub fn record_done(&mut self, job: &str, payload: &str) {
        self.append(job, "done", "payload", payload);
        self.completed.insert(job.to_string(), payload.to_string());
    }

    /// Records a failed job (rerun on resume).
    pub fn record_failed(&mut self, job: &str, error: &str) {
        self.append(job, "failed", "error", error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_fault::{FaultKind, FaultPlan, FaultSpec};
    use reram_workloads::Rng64;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("reram_exec_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _unused = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trips_done_and_failed() {
        let path = tmp("round_trip.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record_done("fig19/0", "row\twith\ttabs\nand \"quotes\"");
            j.record_failed("fig13", "panicked: poisoned");
            j.record_done("fig20", "plain");
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.completed().len(), 2);
        assert_eq!(j.completed()["fig19/0"], "row\twith\ttabs\nand \"quotes\"");
        assert!(!j.completed().contains_key("fig13"), "failed jobs rerun");
        assert!(j.quarantined().is_empty());
    }

    #[test]
    fn torn_tail_line_is_quarantined() {
        let path = tmp("torn.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record_done("a", "1");
        }
        // Legacy (crc-less) records with no comma between fields or bytes
        // after the closing brace, then a kill mid-write.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"job\":\"c\"\"status\":\"done\",\"payload\":\"x\"}\n");
        text.push_str("{\"job\":\"d\",\"status\":\"done\",\"payload\":\"y\"} junk\n");
        text.push_str("{\"job\":\"b\",\"sta");
        std::fs::write(&path, text).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.completed().len(), 1);
        assert!(j.completed().contains_key("a"));
        let lines: Vec<usize> = j.quarantined().iter().map(|q| q.line).collect();
        assert_eq!(lines, [2, 3, 4]);
    }

    #[test]
    fn later_records_append_not_truncate() {
        let path = tmp("append.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record_done("a", "1");
        }
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.completed().len(), 1);
            j.record_done("b", "2");
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.completed().len(), 2);
    }

    #[test]
    fn parses_unicode_escapes() {
        let rec = r#"{"job":"x","status":"done","payload":"a\u0007b"}"#;
        let want = ("x".to_string(), JournalEntry::Done("a\u{7}b".into()));
        assert_eq!(Journal::parse_line(rec), Ok(want));
    }

    #[test]
    fn legacy_records_without_crc_still_load() {
        let path = tmp("legacy.jsonl");
        std::fs::write(
            &path,
            "{\"job\":\"old\",\"status\":\"done\",\"payload\":\"v1\"}\n",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.completed()["old"], "v1");
        assert!(j.quarantined().is_empty());
    }

    /// Satellite 2: seeded mid-file byte flips. Each corrupted record is
    /// quarantined; every untouched record — including those *after* the
    /// damage — still loads, and the journal stays usable for appends.
    #[test]
    fn seeded_byte_flips_quarantine_only_the_hit_records() {
        let mut rng = Rng64::new(0xC0FFEE);
        for case in 0..8 {
            let path = tmp(&format!("flip_{case}.jsonl"));
            {
                let mut j = Journal::open(&path).unwrap();
                for k in 0..10 {
                    j.record_done(&format!("job/{k}"), &format!("payload-{k}-{case}"));
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            // Per-line [start, end) byte spans.
            let mut spans = Vec::new();
            let mut start = 0usize;
            for (k, &b) in bytes.iter().enumerate() {
                if b == b'\n' {
                    spans.push((start, k));
                    start = k + 1;
                }
            }
            // Flip 1–3 bytes at random offsets within the record content
            // (job/status/payload bytes — everything before the trailing
            // `,"crc":"xxxxxxxx"}` suffix; damage to the crc *key* itself
            // degrades the record to the accepted legacy no-crc format,
            // which is a different contract).
            let crc_suffix = ",\"crc\":\"00000000\"}".len();
            let flips = 1 + rng.gen_u64_below(3) as usize;
            let mut hit_lines = std::collections::BTreeSet::new();
            for _ in 0..flips {
                let li = rng.gen_range_usize(0, spans.len());
                let (s, e) = spans[li];
                let off = rng.gen_range_usize(s, e - crc_suffix);
                hit_lines.insert(li);
                // Swap the byte for a different printable character so the
                // line stays one line of (possibly invalid) text.
                bytes[off] = if bytes[off] == b'x' { b'y' } else { b'x' };
            }
            std::fs::write(&path, &bytes).unwrap();

            let mut j = Journal::open(&path).unwrap();
            assert_eq!(
                j.completed().len(),
                10 - hit_lines.len(),
                "case {case}: exactly the hit records drop out"
            );
            assert_eq!(
                j.quarantined().len(),
                hit_lines.len(),
                "case {case}: every hit record is quarantined, the rest load"
            );
            for k in 0..10 {
                let untouched = !hit_lines.contains(&k);
                assert_eq!(
                    j.completed().contains_key(&format!("job/{k}")),
                    untouched,
                    "case {case}: record {k} (hit lines {hit_lines:?})"
                );
            }
            // The journal must remain usable: rerun the lost jobs, resume.
            let lost: Vec<usize> = hit_lines.iter().copied().collect();
            for k in &lost {
                j.record_done(&format!("job/{k}"), "rerun");
            }
            drop(j);
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.completed().len(), 10, "case {case}: complete after rerun");
        }
    }

    /// The `exec.journal.corrupt` fault: the in-memory run is unaffected,
    /// the durable record fails its CRC on the next open.
    #[test]
    fn injected_corruption_is_caught_on_reopen() {
        let path = tmp("inject.jsonl");
        let plan = FaultPlan::new(3).with(
            FaultSpec::new(reram_fault::site::JOURNAL, FaultKind::JournalCorrupt)
                .target("victim")
                .param(4.0),
        );
        let inj = Arc::new(FaultInjector::new(plan, &Obs::off()));
        {
            let mut j = Journal::open(&path).unwrap().with_faults(Arc::clone(&inj));
            j.record_done("healthy", "ok");
            j.record_done("victim", "precious payload");
            j.record_done("later", "also ok");
            // The live process still trusts its own result.
            assert_eq!(j.completed()["victim"], "precious payload");
        }
        assert_eq!(inj.injected(), 1);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.completed().len(), 2, "victim reruns");
        assert!(j.completed().contains_key("healthy"));
        assert!(j.completed().contains_key("later"));
        assert_eq!(j.quarantined().len(), 1);
        assert!(
            j.quarantined()[0].reason.contains("crc mismatch"),
            "{}",
            j.quarantined()[0].reason
        );
    }

    #[test]
    fn open_on_unwritable_path_is_a_typed_error() {
        let path = Path::new("/proc/definitely/not/writable/journal.jsonl");
        match Journal::open(path) {
            Err(JournalError::Io { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
