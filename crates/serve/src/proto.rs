//! The versioned binary wire protocol (v1, plus the v2 trace extension).
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────┬─────────┬────────┬──────────────┬─────────┬──────────┐
//! │ len: u32 LE│ ver: u8 │ op: u8 │ req_id: u64 LE│ payload │ crc: u32 │
//! └────────────┴─────────┴────────┴──────────────┴─────────┴──────────┘
//! ```
//!
//! `len` counts everything after itself (version through CRC), so a reader
//! always knows how many bytes to consume and stays in sync even when a
//! frame's *contents* turn out to be garbage. The CRC-32 (IEEE, the same
//! polynomial the exec journal uses) covers version, opcode, request id and
//! payload; a mismatch is reported as a typed [`WireError::CrcMismatch`]
//! without desynchronizing the stream — which is exactly what lets the
//! client absorb an injected `resp_corrupt` fault by re-requesting.
//!
//! **Trace extension (v2).** A frame carrying a [`TraceContext`] uses
//! version byte [`WIRE_VERSION_TRACED`] and inserts 16 extension bytes
//! (trace id + parent span id, both u64 LE) between the request id and the
//! payload — all CRC-covered:
//!
//! ```text
//! │ len │ ver=2 │ op │ req_id │ trace_id: u64 LE │ parent_span: u64 LE │ payload │ crc │
//! ```
//!
//! The negotiation is per-frame and implicit: a frame *without* a context
//! encodes byte-identically to v1, an old decoder rejects only the frames
//! it could not interpret anyway (typed [`WireError::BadVersion`], stream
//! still in sync), and the server echoes a context only to clients that
//! sent one — so old clients never see a v2 frame.
//!
//! Request opcodes: `READ_LINE` / `WRITE_LINE` / `STATS` / `STATS_JSON` /
//! `DRAIN`. Response opcodes mirror them, plus `BUSY` (admission control
//! shed the request; carries a retry-after hint) and `ERR` (typed failure).
//!
//! **Cluster extension (v3).** Replica-to-replica consensus traffic
//! (AppendEntries / RequestVote / InstallSnapshot, see [`cluster`](crate::cluster)) rides
//! the same frame layout under version byte [`WIRE_VERSION_CLUSTER`] — no
//! extension bytes, just a reserved opcode block (`0x10..0x20` requests,
//! `0x90..0xA0` responses). The negotiation is per-frame like the trace
//! extension: data frames keep encoding byte-identically to v1/v2, and a
//! pre-cluster peer that receives a v3 frame rejects it as a typed
//! [`WireError::BadVersion`] while staying in stream sync (the length
//! prefix, not the version byte, delimits the frame). Clients never see a
//! v3 frame; the one cluster-era opcode a client can observe is the
//! [`Response::NotLeader`] redirect, which travels as plain v1/v2.

use reram_obs::TraceContext;
use std::io::{Read, Write};

/// Protocol version emitted and accepted by this build.
pub const WIRE_VERSION: u8 = 1;

/// Version byte of a frame carrying the 16-byte trace-context extension.
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Version byte of replica-to-replica cluster frames (same layout as v1;
/// the version gate keeps pre-cluster peers from misreading consensus
/// opcodes as anything but a typed rejection).
pub const WIRE_VERSION_CLUSTER: u8 = 3;

/// Size of the trace-context extension (trace id + parent span id).
pub const TRACE_EXT_BYTES: usize = 16;

/// Hard cap on a frame's payload (stats text is the largest legal payload).
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Bytes in a memory line (matches `reram-mem`'s functional store).
pub const LINE_BYTES: usize = 64;

/// Frame overhead after the length prefix: version + opcode + request id +
/// CRC.
const FRAME_OVERHEAD: usize = 1 + 1 + 8 + 4;

/// Request opcodes (client → server).
pub mod op {
    /// Read one line.
    pub const READ_LINE: u8 = 0x01;
    /// Write one line.
    pub const WRITE_LINE: u8 = 0x02;
    /// Fetch the server's stats text.
    pub const STATS: u8 = 0x03;
    /// Flush every shard queue, then shut the server down.
    pub const DRAIN: u8 = 0x04;
    /// Fetch a machine-readable JSON stats snapshot.
    pub const STATS_JSON: u8 = 0x05;
    /// Read completed (payload = line data).
    pub const READ_OK: u8 = 0x81;
    /// Write retired (payload = attempts, degraded flag).
    pub const WRITE_OK: u8 = 0x82;
    /// Admission control rejected the request; retry after the hint.
    pub const BUSY: u8 = 0x83;
    /// Stats text follows.
    pub const STATS_OK: u8 = 0x84;
    /// All queues flushed; the server is exiting.
    pub const DRAIN_OK: u8 = 0x85;
    /// JSON stats snapshot follows.
    pub const STATS_JSON_OK: u8 = 0x86;
    /// The node is a follower; payload = leader address hint (may be
    /// empty while an election is in flight). Clients re-route and resend.
    pub const NOT_LEADER: u8 = 0x87;
    /// Cluster: leader → follower log replication / heartbeat.
    pub const APPEND_ENTRIES: u8 = 0x10;
    /// Cluster: candidate → peer vote solicitation.
    pub const REQUEST_VOTE: u8 = 0x11;
    /// Cluster: leader → lagging follower state transfer.
    pub const INSTALL_SNAPSHOT: u8 = 0x12;
    /// Cluster: follower → leader replication ack/nack.
    pub const APPEND_OK: u8 = 0x90;
    /// Cluster: peer → candidate vote grant/denial.
    pub const VOTE_OK: u8 = 0x91;
    /// Cluster: follower → leader snapshot installed.
    pub const SNAPSHOT_OK: u8 = 0x92;
    /// Typed failure (payload = code byte + detail text).
    pub const ERR: u8 = 0xFF;

    /// True for opcodes in the reserved replica-to-replica block; frames
    /// carrying them encode under [`super::WIRE_VERSION_CLUSTER`].
    #[must_use]
    pub fn is_cluster(opcode: u8) -> bool {
        matches!(opcode, 0x10..=0x1F | 0x90..=0x9F)
    }
}

/// Error codes carried by an [`Response::Err`] payload.
pub mod code {
    /// The line address is outside the served address space.
    pub const OUT_OF_RANGE: u8 = 1;
    /// The request frame failed to decode (bad payload shape).
    pub const BAD_FRAME: u8 = 2;
    /// The server is draining and admits no new data operations.
    pub const DRAINING: u8 = 3;
    /// Internal failure (should never surface in a healthy run).
    pub const INTERNAL: u8 = 4;
}

/// What went wrong on the wire. Every variant is typed so service layers
/// can choose shed/retry/abort per class instead of string-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(String),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The frame declared an impossible length.
    BadLength(u32),
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The opcode is not one this build knows.
    BadOpcode(u8),
    /// The CRC-32 over the frame body did not match.
    CrcMismatch {
        /// CRC computed over the received body.
        got: u32,
        /// CRC carried by the frame.
        want: u32,
    },
    /// The payload did not decode as the opcode's message shape.
    BadPayload(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::CrcMismatch { got, want } => {
                write!(
                    f,
                    "frame CRC mismatch (computed {got:#010x}, framed {want:#010x})"
                )
            }
            WireError::BadPayload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// The workspace's one CRC-32 seals frames. `perfbench`, a separate
// workspace built against this crate, imports it from this path.
pub use reram_obs::crc32;

/// One decoded frame: the transport unit under the typed messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message opcode (see [`op`]).
    pub opcode: u8,
    /// Caller-chosen correlation id, echoed in the response frame.
    pub request_id: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
    /// The v2 trace-context extension; `None` encodes byte-identically to
    /// a v1 frame.
    pub trace: Option<TraceContext>,
}

impl Frame {
    /// An untraced (v1) frame.
    #[must_use]
    pub fn new(opcode: u8, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            opcode,
            request_id,
            payload,
            trace: None,
        }
    }

    /// Attaches (or clears) the trace-context extension.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Frame {
        self.trace = trace;
        self
    }

    /// Serializes the frame (length prefix, body, CRC) into a byte vector.
    /// A frame without a trace context encodes exactly as protocol v1; one
    /// with a context uses [`WIRE_VERSION_TRACED`] and inserts the 16
    /// extension bytes between the request id and the payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] — encoding oversized
    /// frames is a programming error, not a runtime condition.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.payload.len() <= MAX_PAYLOAD, "payload too large");
        let ext = if self.trace.is_some() {
            TRACE_EXT_BYTES
        } else {
            0
        };
        let body_len = FRAME_OVERHEAD + ext + self.payload.len();
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(if self.trace.is_some() {
            WIRE_VERSION_TRACED
        } else if op::is_cluster(self.opcode) {
            WIRE_VERSION_CLUSTER
        } else {
            WIRE_VERSION
        });
        out.push(self.opcode);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        if let Some(t) = &self.trace {
            out.extend_from_slice(&t.trace_id.to_le_bytes());
            out.extend_from_slice(&t.parent_span_id.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a frame *body* (everything after the length prefix).
    /// Accepts both v1 frames (`trace = None`) and v2 traced frames.
    ///
    /// # Errors
    ///
    /// [`WireError`] on version/opcode/CRC/shape violations.
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        if body.len() < FRAME_OVERHEAD {
            return Err(WireError::BadLength(body.len() as u32));
        }
        let (head, crc_bytes) = body.split_at(body.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let got = crc32(head);
        if got != want {
            return Err(WireError::CrcMismatch { got, want });
        }
        let trace = match head[0] {
            WIRE_VERSION | WIRE_VERSION_CLUSTER => None,
            WIRE_VERSION_TRACED => {
                if head.len() < FRAME_OVERHEAD - 4 + TRACE_EXT_BYTES {
                    return Err(WireError::BadLength(body.len() as u32));
                }
                Some(TraceContext {
                    trace_id: u64::from_le_bytes(head[10..18].try_into().expect("8 bytes")),
                    parent_span_id: u64::from_le_bytes(head[18..26].try_into().expect("8 bytes")),
                })
            }
            other => return Err(WireError::BadVersion(other)),
        };
        let opcode = head[1];
        let request_id = u64::from_le_bytes(head[2..10].try_into().expect("8 bytes"));
        let payload_at = if trace.is_some() {
            10 + TRACE_EXT_BYTES
        } else {
            10
        };
        Ok(Frame {
            opcode,
            request_id,
            payload: head[payload_at..].to_vec(),
            trace,
        })
    }
}

/// Writes one frame to `w` (no flush — callers batch then flush).
///
/// # Errors
///
/// [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.encode())?;
    Ok(())
}

/// Reads one frame from `r`, blocking until a full frame (or EOF) arrives.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF between frames, [`WireError::Io`] on
/// mid-frame EOF or transport failure, and the decode errors of
/// [`Frame::decode_body`] — after which the stream remains in sync (the
/// declared length was fully consumed).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Io("EOF inside frame length".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if (len as usize) < FRAME_OVERHEAD
        || len as usize > MAX_PAYLOAD + FRAME_OVERHEAD + TRACE_EXT_BYTES
    {
        return Err(WireError::BadLength(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| WireError::Io(format!("EOF inside frame body: {e}")))?;
    Frame::decode_body(&body)
}

/// A typed request (client → server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read line `line`.
    ReadLine {
        /// Flat line address in the served space.
        line: u64,
    },
    /// Write `data` to line `line`.
    WriteLine {
        /// Flat line address in the served space.
        line: u64,
        /// The 64 B line contents.
        data: Box<[u8; LINE_BYTES]>,
    },
    /// Fetch the server's stats text.
    Stats,
    /// Fetch a machine-readable JSON stats snapshot.
    StatsJson,
    /// Flush all queues, acknowledge, then shut the server down.
    Drain,
}

impl Request {
    /// Packs the request into a frame carrying `request_id`.
    #[must_use]
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let (opcode, payload) = match self {
            Request::ReadLine { line } => (op::READ_LINE, line.to_le_bytes().to_vec()),
            Request::WriteLine { line, data } => {
                let mut p = Vec::with_capacity(8 + LINE_BYTES);
                p.extend_from_slice(&line.to_le_bytes());
                p.extend_from_slice(&data[..]);
                (op::WRITE_LINE, p)
            }
            Request::Stats => (op::STATS, Vec::new()),
            Request::StatsJson => (op::STATS_JSON, Vec::new()),
            Request::Drain => (op::DRAIN, Vec::new()),
        };
        Frame::new(opcode, request_id, payload)
    }

    /// Unpacks a request from a decoded frame.
    ///
    /// # Errors
    ///
    /// [`WireError::BadOpcode`] for response/unknown opcodes,
    /// [`WireError::BadPayload`] for shape violations.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        let p = &frame.payload;
        match frame.opcode {
            op::READ_LINE => {
                let bytes: [u8; 8] = p
                    .as_slice()
                    .try_into()
                    .map_err(|_| WireError::BadPayload(format!("read payload {} B", p.len())))?;
                Ok(Request::ReadLine {
                    line: u64::from_le_bytes(bytes),
                })
            }
            op::WRITE_LINE => {
                if p.len() != 8 + LINE_BYTES {
                    return Err(WireError::BadPayload(format!(
                        "write payload {} B",
                        p.len()
                    )));
                }
                let line = u64::from_le_bytes(p[..8].try_into().expect("8 bytes"));
                let mut data = Box::new([0u8; LINE_BYTES]);
                data.copy_from_slice(&p[8..]);
                Ok(Request::WriteLine { line, data })
            }
            op::STATS if p.is_empty() => Ok(Request::Stats),
            op::STATS_JSON if p.is_empty() => Ok(Request::StatsJson),
            op::DRAIN if p.is_empty() => Ok(Request::Drain),
            op::STATS | op::STATS_JSON | op::DRAIN => Err(WireError::BadPayload(
                "control request carries a payload".into(),
            )),
            other => Err(WireError::BadOpcode(other)),
        }
    }
}

/// A typed response (server → client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Read data.
    ReadOk {
        /// The line contents.
        data: Box<[u8; LINE_BYTES]>,
    },
    /// Write retired through the verify loop.
    WriteOk {
        /// Write passes the verify controller issued (1 = clean).
        attempts: u32,
        /// True when the line entered degraded mode (uncorrectable).
        degraded: bool,
    },
    /// Admission control shed the request.
    Busy {
        /// Suggested client back-off before retrying, µs.
        retry_after_us: u32,
    },
    /// The server's stats text.
    StatsOk {
        /// Human-readable per-shard statistics.
        text: String,
    },
    /// A machine-readable stats snapshot.
    StatsJsonOk {
        /// JSON text: per-shard queue depth, slow-start window, in-flight
        /// flag, busy/shed counters and histogram summaries.
        json: String,
    },
    /// Every queue flushed; the server is exiting.
    DrainOk {
        /// Data requests served over the server's lifetime.
        served: u64,
    },
    /// This replica is not the shard group's leader; the client should
    /// re-route to `leader` (or rotate through its peer list when the hint
    /// is empty, i.e. an election is still in flight) and resend.
    NotLeader {
        /// `host:port` of the believed leader, or empty when unknown.
        leader: String,
    },
    /// Typed failure.
    Err {
        /// One of [`code`]'s constants.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// Packs the response into a frame echoing `request_id`.
    #[must_use]
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let (opcode, payload) = match self {
            Response::ReadOk { data } => (op::READ_OK, data.to_vec()),
            Response::WriteOk { attempts, degraded } => {
                let mut p = attempts.to_le_bytes().to_vec();
                p.push(u8::from(*degraded));
                (op::WRITE_OK, p)
            }
            Response::Busy { retry_after_us } => (op::BUSY, retry_after_us.to_le_bytes().to_vec()),
            Response::StatsOk { text } => (op::STATS_OK, text.as_bytes().to_vec()),
            Response::StatsJsonOk { json } => (op::STATS_JSON_OK, json.as_bytes().to_vec()),
            Response::DrainOk { served } => (op::DRAIN_OK, served.to_le_bytes().to_vec()),
            Response::NotLeader { leader } => (op::NOT_LEADER, leader.as_bytes().to_vec()),
            Response::Err { code, detail } => {
                let mut p = vec![*code];
                p.extend_from_slice(detail.as_bytes());
                (op::ERR, p)
            }
        };
        Frame::new(opcode, request_id, payload)
    }

    /// Unpacks a response from a decoded frame.
    ///
    /// # Errors
    ///
    /// [`WireError::BadOpcode`] for request/unknown opcodes,
    /// [`WireError::BadPayload`] for shape violations.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        let p = &frame.payload;
        match frame.opcode {
            op::READ_OK => {
                if p.len() != LINE_BYTES {
                    return Err(WireError::BadPayload(format!(
                        "read_ok payload {} B",
                        p.len()
                    )));
                }
                let mut data = Box::new([0u8; LINE_BYTES]);
                data.copy_from_slice(p);
                Ok(Response::ReadOk { data })
            }
            op::WRITE_OK => {
                if p.len() != 5 {
                    return Err(WireError::BadPayload(format!(
                        "write_ok payload {} B",
                        p.len()
                    )));
                }
                Ok(Response::WriteOk {
                    attempts: u32::from_le_bytes(p[..4].try_into().expect("4 bytes")),
                    degraded: p[4] != 0,
                })
            }
            op::BUSY => {
                let bytes: [u8; 4] = p
                    .as_slice()
                    .try_into()
                    .map_err(|_| WireError::BadPayload(format!("busy payload {} B", p.len())))?;
                Ok(Response::Busy {
                    retry_after_us: u32::from_le_bytes(bytes),
                })
            }
            op::STATS_OK => Ok(Response::StatsOk {
                text: String::from_utf8_lossy(p).into_owned(),
            }),
            op::STATS_JSON_OK => Ok(Response::StatsJsonOk {
                json: String::from_utf8_lossy(p).into_owned(),
            }),
            op::DRAIN_OK => {
                let bytes: [u8; 8] = p.as_slice().try_into().map_err(|_| {
                    WireError::BadPayload(format!("drain_ok payload {} B", p.len()))
                })?;
                Ok(Response::DrainOk {
                    served: u64::from_le_bytes(bytes),
                })
            }
            op::NOT_LEADER => Ok(Response::NotLeader {
                leader: String::from_utf8_lossy(p).into_owned(),
            }),
            op::ERR => {
                if p.is_empty() {
                    return Err(WireError::BadPayload("empty err payload".into()));
                }
                Ok(Response::Err {
                    code: p[0],
                    detail: String::from_utf8_lossy(&p[1..]).into_owned(),
                })
            }
            other => Err(WireError::BadOpcode(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check values of the workspace CRC-32, through the path
        // `perfbench` imports.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frames_survive_an_io_round_trip() {
        let f = Frame::new(op::WRITE_LINE, 0xDEAD_BEEF_0042, (0..72u8).collect());
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back, f);
        // A second read on the exhausted stream is a clean close.
        assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));
    }

    #[test]
    fn typed_messages_round_trip() {
        let data = Box::new([0x5Au8; LINE_BYTES]);
        let reqs = [
            Request::ReadLine { line: 77 },
            Request::WriteLine {
                line: 12,
                data: data.clone(),
            },
            Request::Stats,
            Request::StatsJson,
            Request::Drain,
        ];
        for (k, r) in reqs.iter().enumerate() {
            let f = r.to_frame(k as u64);
            assert_eq!(&Request::from_frame(&f).unwrap(), r);
            assert_eq!(f.request_id, k as u64);
        }
        let resps = [
            Response::ReadOk { data },
            Response::WriteOk {
                attempts: 3,
                degraded: true,
            },
            Response::Busy {
                retry_after_us: 250,
            },
            Response::StatsOk {
                text: "shard0: ok".into(),
            },
            Response::StatsJsonOk {
                json: "{\"shards\":[]}".into(),
            },
            Response::DrainOk { served: 10_000 },
            Response::NotLeader {
                leader: "127.0.0.1:7171".into(),
            },
            Response::NotLeader {
                leader: String::new(),
            },
            Response::Err {
                code: code::OUT_OF_RANGE,
                detail: "line 1e9".into(),
            },
        ];
        for (k, r) in resps.iter().enumerate() {
            let back = Response::from_frame(&r.to_frame(k as u64)).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn corrupted_bytes_are_rejected_in_sync() {
        let f = Request::ReadLine { line: 3 }.to_frame(9);
        let mut bytes = f.encode();
        // Flip one payload byte: CRC must catch it…
        bytes[10] ^= 0x40;
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            Err(WireError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        // …and the stream stays in sync: the whole frame was consumed.
        assert!(cursor.is_empty());
    }

    #[test]
    fn wrong_version_and_opcode_are_typed() {
        let f = Request::Stats.to_frame(1);
        let mut bytes = f.encode();
        bytes[4] = 9; // version byte
        let crc = crc32(&bytes[4..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(read_frame(&mut &bytes[..]), Err(WireError::BadVersion(9)));
        let bogus = Frame::new(0x7F, 0, Vec::new());
        assert_eq!(Request::from_frame(&bogus), Err(WireError::BadOpcode(0x7F)));
        assert_eq!(
            Response::from_frame(&bogus),
            Err(WireError::BadOpcode(0x7F))
        );
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_stay_v1() {
        let ctx = TraceContext {
            trace_id: 0x1111_2222_3333_4444,
            parent_span_id: 99,
        };
        let traced =
            Frame::new(op::READ_LINE, 7, 5u64.to_le_bytes().to_vec()).with_trace(Some(ctx));
        let bytes = traced.encode();
        assert_eq!(bytes[4], WIRE_VERSION_TRACED);
        let back = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(back, traced);
        assert_eq!(back.trace, Some(ctx));
        // Stripping the context restores the exact v1 encoding.
        let plain = traced.clone().with_trace(None);
        let v1 = plain.encode();
        assert_eq!(v1[4], WIRE_VERSION);
        assert_eq!(v1.len() + TRACE_EXT_BYTES, bytes.len());
        assert_eq!(read_frame(&mut &v1[..]).unwrap().trace, None);
    }

    #[test]
    fn truncated_trace_extension_is_rejected() {
        // A v2 frame whose body is too short to hold the extension: force
        // the version byte on a payload-less v1 frame and re-CRC.
        let mut bytes = Frame::new(op::STATS, 1, Vec::new()).encode();
        bytes[4] = WIRE_VERSION_TRACED;
        let n = bytes.len();
        let crc = crc32(&bytes[4..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn cluster_opcodes_ride_version_three_and_redirects_stay_v1() {
        let f = Frame::new(op::APPEND_ENTRIES, 42, vec![1, 2, 3]);
        let bytes = f.encode();
        assert_eq!(bytes[4], WIRE_VERSION_CLUSTER);
        assert_eq!(read_frame(&mut &bytes[..]).unwrap(), f);
        // The client-visible redirect is an ordinary v1 response.
        let nl = Response::NotLeader {
            leader: "127.0.0.1:9".into(),
        }
        .to_frame(7)
        .encode();
        assert_eq!(nl[4], WIRE_VERSION);
    }

    #[test]
    fn impossible_lengths_are_rejected() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0]);
        assert_eq!(read_frame(&mut &bytes[..]), Err(WireError::BadLength(3)));
        let huge = ((MAX_PAYLOAD + FRAME_OVERHEAD + TRACE_EXT_BYTES + 1) as u32).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::BadLength(_))
        ));
    }
}
