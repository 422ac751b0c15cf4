//! Structured event sinks with hand-rolled JSONL serialization.
//!
//! An event is a name plus a flat list of `(key, value)` fields. The JSONL
//! sink writes one JSON object per line:
//!
//! ```json
//! {"seq":17,"event":"mem.controller.write_burst","len":24,"start_ns":91235.5}
//! ```
//!
//! `seq` is a registry-wide monotonic sequence number (deterministic, unlike
//! wall clocks), `event` is the event name, and the remaining keys are the
//! fields in emission order. Serialization is hand-rolled on `std` so the
//! build needs no registry access; non-finite floats serialize as `null`.

use crate::json::write_string;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A sink could not be opened. Carries the path so the message names the
/// file the user asked for, not just the OS errno text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError {
    /// The file the sink tried to open.
    pub path: PathBuf,
    /// The rendered OS error.
    pub message: String,
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot open {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for SinkError {}

/// A field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on output).
    Str(String),
}

/// Appends the JSON encoding of `v` to `out`.
fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => write_string(out, s),
    }
}

/// Renders one event as a single JSONL line (no trailing newline).
#[must_use]
pub fn render_jsonl(seq: u64, name: &str, fields: &[(&str, Value)]) -> String {
    let mut line = String::with_capacity(64 + fields.len() * 16);
    let _ = write!(line, "{{\"seq\":{seq},\"event\":");
    write_string(&mut line, name);
    for (k, v) in fields {
        line.push(',');
        write_string(&mut line, k);
        line.push(':');
        write_value(&mut line, v);
    }
    line.push('}');
    line
}

/// Where structured events go.
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, seq: u64, name: &str, fields: &[(&str, Value)]);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _seq: u64, _name: &str, _fields: &[(&str, Value)]) {}
}

/// Appends events to a file, one JSON object per line.
#[derive(Debug)]
pub struct JsonlSink {
    w: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// [`SinkError`] naming the path on filesystem errors. Only opening is
    /// fallible: once a sink exists, telemetry writes must never take the
    /// run down, so [`EventSink::emit`] swallows IO errors.
    pub fn create(path: &Path) -> Result<Self, SinkError> {
        let f = File::create(path).map_err(|e| SinkError {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Ok(Self {
            w: BufWriter::new(f),
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, seq: u64, name: &str, fields: &[(&str, Value)]) {
        let line = render_jsonl(seq, name, fields);
        // Telemetry must never take the run down: IO errors are swallowed.
        let _ = writeln!(self.w, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json_object() {
        let line = render_jsonl(
            3,
            "sim.epoch",
            &[
                ("t_ns", Value::F64(1234.5)),
                ("reads", Value::U64(10)),
                ("delta", Value::I64(-2)),
                ("warm", Value::Bool(true)),
                ("bench", Value::Str("mcf_m".into())),
            ],
        );
        assert_eq!(
            line,
            r#"{"seq":3,"event":"sim.epoch","t_ns":1234.5,"reads":10,"delta":-2,"warm":true,"bench":"mcf_m"}"#
        );
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let line = render_jsonl(
            1,
            "e",
            &[
                ("s", Value::Str("a\"b\\c\nd".into())),
                ("inf", Value::F64(f64::INFINITY)),
                ("nan", Value::F64(f64::NAN)),
            ],
        );
        assert_eq!(
            line,
            r#"{"seq":1,"event":"e","s":"a\"b\\c\nd","inf":null,"nan":null}"#
        );
    }

    #[test]
    fn create_on_unwritable_path_is_a_typed_error() {
        let path = Path::new("/proc/definitely/not/writable/events.jsonl");
        let err = JsonlSink::create(path).expect_err("must fail");
        assert_eq!(err.path, path);
        assert!(err.to_string().contains("/proc/definitely"), "{err}");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join("reram_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.emit(1, "a", &[("x", Value::U64(1))]);
        sink.emit(2, "b", &[]);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"seq":1,"event":"a","x":1}"#);
        assert_eq!(lines[1], r#"{"seq":2,"event":"b"}"#);
    }
}
