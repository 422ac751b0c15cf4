//! Zero-dependency telemetry for the `reram-vdrop` workspace.
//!
//! The paper's evaluation lives on quantities the simulator computes and
//! would otherwise throw away: Newton sweep counts and KCL residuals in the
//! circuit solver, queue occupancy and write-burst behaviour in the memory
//! controller, the per-slice concurrent-RESET distribution that drives
//! Figs. 9/11, and pump recharge activity. This crate is the measurement
//! substrate those components record into — the moral equivalent of a
//! GEM5-style per-component stat registry, hand-rolled on `std` alone so the
//! build stays hermetic (no serde, no registry access).
//!
//! # Pieces
//!
//! * [`Obs`] — a cheap, cloneable handle to a metric [registry]. The
//!   default handle ([`Obs::off`]) is a no-op: every record call reduces to
//!   an `Option` check, so instrumented hot kernels cost nothing when
//!   telemetry is disabled (asserted by the `kernels` bench).
//! * [`Counter`] / [`Gauge`] / [`Hist`] — pre-resolved metric handles a
//!   component grabs once (at attach time) and hits on the hot path.
//! * [`Histogram`] — a mergeable log-scaled histogram (16 sub-buckets per
//!   octave, ≈4.4 % relative bucket error) with exact count/sum/min/max.
//! * [`Span`] — an RAII wall-time timer recording nanoseconds into a
//!   histogram on drop.
//! * [`EventSink`] — structured events; [`JsonlSink`] appends one JSON
//!   object per line, [`NullSink`] discards. Serialization is hand-rolled.
//! * [`Tracer`] — request-scoped distributed tracing (obs v2): sampled
//!   per-stage [`SpanRecord`]s in preallocated per-thread ring buffers,
//!   drained to JSONL and joined across processes by
//!   [`TraceContext::trace_id`].
//! * [`SloTracker`] — a latency SLO restated as an error budget, exported
//!   as burn-rate / budget-remaining gauges.
//! * [`crc32`] and [`json`] — the workspace's one checksum and its one JSON
//!   reader ([`Json::parse`]) and string writer ([`json::write_string`]).
//!
//! # Naming scheme
//!
//! Metrics are dot-separated `crate.component.metric`, e.g.
//! `circuit.solve.sweeps`, `mem.controller.queue_depth_read`,
//! `core.pr.concurrent_resets`, `sim.system.epoch_ipc`. Units are spelled
//! out in the final segment where ambiguous (`_ns`, `_amps`, `_pj`).
//!
//! # Example
//!
//! ```
//! use reram_obs::{Obs, Value};
//!
//! let obs = Obs::new(); // enabled, events discarded (null sink)
//! let solves = obs.counter("circuit.solve.solves");
//! let sweeps = obs.hist("circuit.solve.sweeps");
//! solves.inc();
//! sweeps.record(17.0);
//! obs.event("circuit.solve.not_converged", &[("sweeps", Value::U64(20_000))]);
//! let csv = obs.summary_csv();
//! assert!(csv.starts_with("metric,count,mean,p50,p99,p999,max"));
//! assert!(csv.contains("circuit.solve.sweeps"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod registry;
pub mod sink;
pub mod slo;
pub mod trace;

pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use registry::{Counter, Gauge, Hist, MetricKind, MetricSummary, Obs, Span};
pub use sink::{EventSink, JsonlSink, NullSink, SinkError, Value};
pub use slo::SloTracker;
pub use trace::{SpanRecord, TraceContext, Tracer};

/// CRC-32 (IEEE 802.3, reflected `0xEDB88320`), bitwise: the checksum of
/// wire frames, WAL records, snapshots, journal records and ledgers.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}
