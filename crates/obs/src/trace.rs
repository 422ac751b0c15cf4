//! Request-scoped distributed tracing (obs v2).
//!
//! A **trace** is one request's life across processes: the client opens a
//! root span around its RTT and stamps the request frame with a
//! [`TraceContext`] (trace id + the root's span id); every stage the
//! request crosses on the server — decode, admission-queue wait, slow-start
//! gate, shard-batch service, response encode + socket write — records a
//! child [`SpanRecord`] under that context. Spans land in fixed-size
//! per-thread ring buffers (preallocated, so the hot path never allocates;
//! each ring has a single writer, so its mutex is uncontended — acquiring
//! it is one CAS) and are drained to JSONL after the run, where
//! `experiments trace-report` joins the client and server files by trace id
//! and attributes every microsecond of RTT to a stage.
//!
//! **Sampling.** Tracing is opt-in per request at a configurable 1/N rate
//! (the client samples its own request sequence; the server records spans
//! for any frame that carries a context). The `kernels` bench asserts the
//! 1/64 overhead stays ≤ 2 % of shard service cost.
//!
//! **Clocks.** Span timestamps are nanoseconds since the owning
//! [`Tracer`]'s epoch. Client and server tracers have *different* epochs —
//! the report joins on durations and intra-process ordering only, never on
//! cross-process timestamp alignment.

use crate::sink::SinkError;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The wire-carried identity of a trace: which request this is and which
/// span the receiver should parent its own spans under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Globally unique request identity (client-assigned, never 0).
    pub trace_id: u64,
    /// Span id of the sender's enclosing span.
    pub parent_span_id: u64,
}

/// One completed span: a named stage of one trace, with start/end stamps
/// relative to the recording tracer's epoch. `Copy` and fixed-size so the
/// ring buffers never allocate per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
    /// Stage name (`client.rtt`, `server.service`, …).
    pub stage: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Stage-specific detail (e.g. verify attempts for a write's service
    /// span, shard index for queue spans). 0 when unused.
    pub detail: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (saturating).
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Renders the span as one JSONL line (no trailing newline). Stage
    /// names are `&'static str` identifiers without quotes or control
    /// characters, so no escaping is needed.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"detail\":{}}}",
            self.trace_id,
            self.span_id,
            self.parent_span_id,
            self.stage,
            self.start_ns,
            self.end_ns,
            self.detail,
        );
        line
    }
}

/// Stripe count: recording threads hash onto these by thread id. With a
/// handful of connection/pool threads, each stripe has (almost always) a
/// single writer, so the per-stripe mutex is uncontended on the hot path.
const STRIPES: usize = 16;

/// Default total span capacity across stripes.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A preallocated overwrite-oldest ring of spans.
struct Ring {
    buf: Vec<SpanRecord>,
    /// Next write position.
    head: usize,
    /// Spans overwritten because the ring wrapped.
    dropped: u64,
    cap: usize,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.cap;
    }
}

struct TracerInner {
    epoch: Instant,
    sample_period: u64,
    span_seq: AtomicU64,
    stripes: Vec<Mutex<Ring>>,
}

/// A cheap cloneable handle to a span store; [`Tracer::off`] (also
/// `Default`) is a no-op whose record calls reduce to an `Option` check.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(t) => write!(f, "Tracer(1/{})", t.sample_period),
            None => f.write_str("Tracer(off)"),
        }
    }
}

impl Tracer {
    /// The no-op handle: nothing samples, nothing records.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer sampling one request in `sample_period` (clamped
    /// to ≥ 1), holding up to 2^16 spans.
    #[must_use]
    pub fn new(sample_period: u64) -> Self {
        Self::with_capacity(sample_period, DEFAULT_CAPACITY)
    }

    /// An enabled tracer with an explicit total span capacity. The rings
    /// are preallocated here so recording never allocates.
    #[must_use]
    pub fn with_capacity(sample_period: u64, capacity: usize) -> Self {
        let per_stripe = (capacity / STRIPES).max(16);
        Self {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                sample_period: sample_period.max(1),
                span_seq: AtomicU64::new(0),
                stripes: (0..STRIPES)
                    .map(|_| {
                        Mutex::new(Ring {
                            buf: Vec::with_capacity(per_stripe),
                            head: 0,
                            dropped: 0,
                            cap: per_stripe,
                        })
                    })
                    .collect(),
            })),
        }
    }

    /// True when this handle records anywhere.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured 1/N sampling period (0 when off).
    #[must_use]
    pub fn sample_period(&self) -> u64 {
        self.inner.as_ref().map_or(0, |t| t.sample_period)
    }

    /// Deterministic sampling decision for request sequence number `seq`:
    /// true for one request in `sample_period`. Always false when off.
    #[must_use]
    pub fn sampled(&self, seq: u64) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|t| seq.is_multiple_of(t.sample_period))
    }

    /// Nanoseconds since this tracer's epoch (0 when off).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |t| t.epoch.elapsed().as_nanos() as u64)
    }

    /// Allocates the next span id (never 0; 0 when off).
    #[must_use]
    pub fn next_span_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |t| t.span_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records a completed span into the caller's thread stripe.
    pub fn record(&self, rec: SpanRecord) {
        if let Some(t) = &self.inner {
            let mut ring = t.stripes[stripe_of()].lock().expect("span ring poisoned");
            ring.push(rec);
        }
    }

    /// Allocates a span id, records the span, and returns the id — the
    /// one-call path the serve stack uses for stages it timed explicitly.
    pub fn record_span(
        &self,
        ctx: TraceContext,
        stage: &'static str,
        start_ns: u64,
        end_ns: u64,
        detail: u64,
    ) -> u64 {
        if self.inner.is_none() {
            return 0;
        }
        let span_id = self.next_span_id();
        self.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent_span_id: ctx.parent_span_id,
            stage,
            start_ns,
            end_ns,
            detail,
        });
        span_id
    }

    /// Spans overwritten because a ring wrapped (0 when off). A non-zero
    /// value means the capacity was undersized for the sampled volume.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |t| {
            t.stripes
                .iter()
                .map(|s| s.lock().expect("span ring poisoned").dropped)
                .sum()
        })
    }

    /// Drains every ring and returns all spans sorted by
    /// `(trace_id, start_ns, span_id)` — a deterministic order for a given
    /// set of records.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        let Some(t) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for s in &t.stripes {
            let mut ring = s.lock().expect("span ring poisoned");
            out.append(&mut ring.buf);
            ring.head = 0;
        }
        out.sort_by_key(|r| (r.trace_id, r.start_ns, r.span_id));
        out
    }

    /// Drains the rings and writes one JSONL line per span to `path`,
    /// returning the number of spans written.
    ///
    /// # Errors
    ///
    /// [`SinkError`] naming the path on filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> Result<usize, SinkError> {
        let spans = self.drain();
        let mut text = String::with_capacity(spans.len() * 96);
        for s in &spans {
            text.push_str(&s.to_jsonl());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| SinkError {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Ok(spans.len())
    }
}

/// The caller's stripe index: a hash of the thread id. `DefaultHasher` is
/// SipHash with fixed keys, so the mapping is stable within a process.
fn stripe_of() -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    (h.finish() as usize) % STRIPES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            parent_span_id: 1,
        }
    }

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.enabled());
        assert!(!t.sampled(0));
        assert_eq!(t.now_ns(), 0);
        assert_eq!(t.record_span(ctx(1), "x", 0, 1, 0), 0);
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn sampling_is_one_in_n() {
        let t = Tracer::new(8);
        let hits = (0..64).filter(|&s| t.sampled(s)).count();
        assert_eq!(hits, 8);
        assert!(t.sampled(0), "sequence 0 always samples");
        let every = Tracer::new(1);
        assert!((0..10).all(|s| every.sampled(s)));
    }

    #[test]
    fn recorded_spans_drain_sorted_and_render_jsonl() {
        let t = Tracer::new(1);
        let b = t.record_span(ctx(2), "b", 50, 70, 0);
        let a = t.record_span(ctx(1), "a", 10, 30, 7);
        assert!(a > 0 && b > 0 && a != b);
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace_id, 1);
        assert_eq!(spans[0].dur_ns(), 20);
        assert_eq!(
            spans[0].to_jsonl(),
            format!(
                "{{\"trace\":1,\"span\":{a},\"parent\":1,\"stage\":\"a\",\"start_ns\":10,\"end_ns\":30,\"detail\":7}}"
            )
        );
        // Drain empties the rings.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn rings_overwrite_oldest_and_count_drops() {
        // Tiny capacity: 16 per stripe is the floor.
        let t = Tracer::with_capacity(1, 1);
        for k in 0..40 {
            t.record_span(ctx(k), "s", k, k + 1, 0);
        }
        // Everything landed on one stripe (single thread), capacity 16.
        assert_eq!(t.drain().len(), 16);
        assert_eq!(t.dropped(), 24);
    }

    #[test]
    fn jsonl_file_round_trips_line_count() {
        let dir = std::env::temp_dir().join("reram_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        let t = Tracer::new(1);
        for k in 0..5 {
            t.record_span(ctx(k), "stage", k * 10, k * 10 + 5, 0);
        }
        let n = t.write_jsonl(&path).unwrap();
        assert_eq!(n, 5);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| l.starts_with("{\"trace\":")));
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let t = Tracer::new(1);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    for k in 0..100 {
                        t.record_span(ctx(w * 1000 + k), "s", k, k + 1, 0);
                    }
                });
            }
        });
        assert_eq!(t.drain().len(), 400);
        assert_eq!(t.dropped(), 0);
    }
}
