//! The metric registry and its no-op-capable handles.
//!
//! [`Obs`] is a cheap cloneable handle to a shared registry of named
//! metrics. The disabled handle ([`Obs::off`], also `Default`) carries no
//! registry at all: every handle it returns is a `None` wrapper whose record
//! methods compile down to a branch — so instrumented hot kernels pay
//! nothing when telemetry is off. Components resolve their handles once (at
//! construction or attach time) and record through them on the hot path.

use crate::hist::Histogram;
use crate::sink::{EventSink, JsonlSink, NullSink, SinkError, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Writes a `Debug` impl body for an `Option`-wrapped handle type.
macro_rules! fmt_noop_handle {
    ($name:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(if self.0.is_some() {
                concat!($name, "(on)")
            } else {
                concat!($name, "(off)")
            })
        }
    };
}

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
    claims: Mutex<BTreeSet<String>>,
    seq: AtomicU64,
    events: AtomicU64,
    sink: Mutex<Box<dyn EventSink>>,
}

impl Registry {
    fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            claims: Mutex::new(BTreeSet::new()),
            seq: AtomicU64::new(0),
            events: AtomicU64::new(0),
            sink: Mutex::new(sink),
        }
    }
}

/// A handle to a telemetry registry; `Obs::off()` (the default) is a no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Registry>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(on)"
        } else {
            "Obs(off)"
        })
    }
}

/// Instrumented structs often derive `PartialEq`; two handles compare equal
/// when both are on or both are off — telemetry never makes two models
/// semantically different.
impl PartialEq for Obs {
    fn eq(&self, other: &Self) -> bool {
        self.inner.is_some() == other.inner.is_some()
    }
}

impl Obs {
    /// The no-op handle: all metric handles it returns do nothing.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled registry whose events are discarded (null sink).
    #[must_use]
    #[allow(clippy::new_without_default)] // Default is the *off* handle
    pub fn new() -> Self {
        Self::with_sink(Box::new(NullSink))
    }

    /// An enabled registry emitting events into `sink`.
    #[must_use]
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Self {
            inner: Some(Arc::new(Registry::with_sink(sink))),
        }
    }

    /// An enabled registry appending JSONL events to `path`.
    ///
    /// # Errors
    ///
    /// [`SinkError`] naming the path on filesystem errors.
    pub fn jsonl(path: &Path) -> Result<Self, SinkError> {
        Ok(Self::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// True when this handle records anywhere.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (creating if needed) the monotonic counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| {
            Arc::clone(
                r.counters
                    .lock()
                    .expect("counter registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolves (creating if needed) the gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|r| {
            Arc::clone(
                r.gauges
                    .lock()
                    .expect("gauge registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolves (creating if needed) the histogram `name`.
    #[must_use]
    pub fn hist(&self, name: &str) -> Hist {
        Hist(self.inner.as_ref().map(|r| {
            Arc::clone(
                r.hists
                    .lock()
                    .expect("histogram registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Starts a wall-time span recording nanoseconds into histogram `name`
    /// when the returned guard drops.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        self.hist(name).start()
    }

    /// Claims the once-per-registry duty `name`: `true` for exactly one
    /// caller per registry, however many race for it, and `false` on a
    /// detached handle. Claims are not metrics and never appear in a
    /// summary.
    #[must_use]
    pub fn claim_once(&self, name: &str) -> bool {
        self.inner.as_ref().is_some_and(|r| {
            r.claims
                .lock()
                .expect("claim set poisoned")
                .insert(name.to_string())
        })
    }

    /// Emits a structured event into the sink.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if let Some(r) = &self.inner {
            let seq = r.seq.fetch_add(1, Ordering::Relaxed) + 1;
            r.events.fetch_add(1, Ordering::Relaxed);
            r.sink
                .lock()
                .expect("event sink poisoned")
                .emit(seq, name, fields);
        }
    }

    /// Number of events emitted so far.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.events.load(Ordering::Relaxed))
    }

    /// Flushes the event sink.
    pub fn flush(&self) {
        if let Some(r) = &self.inner {
            r.sink.lock().expect("event sink poisoned").flush();
        }
    }

    /// A snapshot of every metric, sorted by name.
    #[must_use]
    pub fn summary(&self) -> Vec<MetricSummary> {
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (name, c) in r.counters.lock().expect("counter registry poisoned").iter() {
            let v = c.load(Ordering::Relaxed);
            out.push(MetricSummary {
                name: name.clone(),
                kind: MetricKind::Counter,
                count: v,
                mean: None,
                p50: None,
                p99: None,
                p999: None,
                max: None,
            });
        }
        for (name, g) in r.gauges.lock().expect("gauge registry poisoned").iter() {
            let v = f64::from_bits(g.load(Ordering::Relaxed));
            out.push(MetricSummary {
                name: name.clone(),
                kind: MetricKind::Gauge,
                count: 1,
                mean: Some(v),
                p50: Some(v),
                p99: Some(v),
                p999: Some(v),
                max: Some(v),
            });
        }
        for (name, h) in r.hists.lock().expect("histogram registry poisoned").iter() {
            let h = h.lock().expect("histogram poisoned");
            out.push(MetricSummary {
                name: name.clone(),
                kind: MetricKind::Histogram,
                count: h.count(),
                mean: Some(h.mean()),
                p50: Some(h.p50()),
                p99: Some(h.p99()),
                p999: Some(h.p999()),
                max: Some(h.max()),
            });
        }
        // Name-sorted with a kind tie-break: the summary (and the CSV built
        // from it) must be byte-stable across runs even if one name is ever
        // registered under two kinds.
        out.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then_with(|| a.kind.label().cmp(b.kind.label()))
        });
        out
    }

    /// Renders the summary as CSV with header
    /// `metric,count,mean,p50,p99,p999,max` (counters leave the statistical
    /// columns blank). Values far from 1.0 switch to scientific notation so
    /// sub-microampere residuals survive the formatting.
    #[must_use]
    pub fn summary_csv(&self) -> String {
        let mut out = String::from("metric,count,mean,p50,p99,p999,max\n");
        let fmt_opt = |v: Option<f64>| v.map_or(String::new(), |x| fmt_stat(x, 6));
        for m in self.summary() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                m.name,
                m.count,
                fmt_opt(m.mean),
                fmt_opt(m.p50),
                fmt_opt(m.p99),
                fmt_opt(m.p999),
                fmt_opt(m.max),
            );
        }
        out
    }

    /// Renders the summary as a JSON array (one object per metric, sorted
    /// by name like [`Obs::summary_csv`]), so machine consumers —
    /// `experiments trace-report`, the CI smoke legs — read metrics without
    /// CSV parsing. Statistical fields are `null` for counters; non-finite
    /// values serialize as `null`.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x}"),
            _ => "null".to_string(),
        };
        let mut out = String::from("[");
        for (k, m) in self.summary().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"metric\":");
            crate::json::write_string(&mut out, &m.name);
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                m.kind.label(),
                m.count,
                fmt_opt(m.mean),
                fmt_opt(m.p50),
                fmt_opt(m.p99),
                fmt_opt(m.p999),
                fmt_opt(m.max),
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders a human-readable run report.
    #[must_use]
    pub fn report(&self) -> String {
        let summary = self.summary();
        let mut out = String::from("== telemetry report ==\n");
        if summary.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let width = summary.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| fmt_stat(x, 4));
        for m in &summary {
            let _ = writeln!(
                out,
                "{:width$}  {:9}  count={:<10} mean={:<12} p50={:<12} p99={:<12} p999={:<12} max={}",
                m.name,
                m.kind.label(),
                m.count,
                fmt_opt(m.mean),
                fmt_opt(m.p50),
                fmt_opt(m.p99),
                fmt_opt(m.p999),
                fmt_opt(m.max),
            );
        }
        let _ = writeln!(out, "events emitted: {}", self.events_emitted());
        out
    }
}

/// Fixed-point for human-scale magnitudes, scientific for the rest.
fn fmt_stat(x: f64, places: usize) -> String {
    if x == 0.0 || (1e-3..1e15).contains(&x.abs()) {
        format!("{x:.places$}")
    } else {
        format!("{x:.places$e}")
    }
}

/// What a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Log-scaled histogram.
    Histogram,
}

impl MetricKind {
    /// Short lowercase label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric's summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Dot-separated metric name (`crate.component.metric`).
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Counter value, or number of samples.
    pub count: u64,
    /// Mean sample (histograms/gauges).
    pub mean: Option<f64>,
    /// Median sample (histograms/gauges).
    pub p50: Option<f64>,
    /// 99th-percentile sample (histograms/gauges).
    pub p99: Option<f64>,
    /// 99.9th-percentile sample (histograms/gauges).
    pub p999: Option<f64>,
    /// Maximum sample (histograms/gauges).
    pub max: Option<f64>,
}

/// A pre-resolved monotonic counter; no-op when obtained from `Obs::off()`.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Counter {
    fmt_noop_handle!("Counter");
}

/// A pre-resolved last-value gauge; no-op when obtained from `Obs::off()`.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

impl fmt::Debug for Gauge {
    fmt_noop_handle!("Gauge");
}

/// A pre-resolved histogram handle; no-op when obtained from `Obs::off()`.
#[derive(Clone, Default)]
pub struct Hist(Option<Arc<Mutex<Histogram>>>);

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().expect("histogram poisoned").record(v);
        }
    }

    /// Records each `(value, n)` pair as `n` samples under one lock: a hot
    /// loop counts its samples locally and hands them over once.
    pub fn record_counts(&self, samples: impl IntoIterator<Item = (f64, u64)>) {
        if let Some(h) = &self.0 {
            let mut h = h.lock().expect("histogram poisoned");
            for (v, n) in samples {
                h.record_n(v, n);
            }
        }
    }

    /// Starts a wall-time span recording nanoseconds here on drop. A no-op
    /// handle's span never reads the clock.
    #[must_use]
    pub fn start(&self) -> Span {
        Span {
            hist: self.0.as_ref().map(|h| (Arc::clone(h), Instant::now())),
        }
    }

    /// Folds a locally-accumulated histogram in with one lock acquisition.
    /// Hot loops record into a thread-local [`Histogram`] and merge here
    /// once, instead of contending on the shared handle per sample.
    pub fn merge_from(&self, local: &Histogram) {
        if let Some(h) = &self.0 {
            h.lock().expect("histogram poisoned").merge(local);
        }
    }

    /// A copy of the underlying histogram (empty for a no-op handle).
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::new, |h| {
            h.lock().expect("histogram poisoned").clone()
        })
    }
}

impl fmt::Debug for Hist {
    fmt_noop_handle!("Hist");
}

/// RAII wall-time timer: records elapsed nanoseconds into its histogram on
/// drop.
#[derive(Debug)]
pub struct Span {
    hist: Option<(Arc<Mutex<Histogram>>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.hist.take() {
            let ns = t0.elapsed().as_nanos() as f64;
            h.lock().expect("histogram poisoned").record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        let c = obs.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = obs.hist("y");
        h.record(5.0);
        assert_eq!(h.snapshot().count(), 0);
        obs.event("e", &[]);
        assert_eq!(obs.events_emitted(), 0);
        assert!(obs.summary().is_empty());
    }

    #[test]
    fn handles_share_the_registry() {
        let obs = Obs::new();
        let a = obs.counter("hits");
        let b = obs.clone().counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(obs.counter("hits").get(), 3);
    }

    #[test]
    fn claims_go_to_one_caller_per_registry() {
        assert!(!Obs::off().claim_once("probe"));
        let obs = Obs::new();
        let won: usize = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| usize::from(obs.clone().claim_once("probe"))))
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).sum()
        });
        assert_eq!(won, 1);
        assert!(obs.claim_once("other"));
        assert!(Obs::new().claim_once("probe"), "a new registry claims anew");
        assert!(obs.summary().is_empty(), "claims are not metrics");
    }

    #[test]
    fn summary_covers_all_kinds() {
        let obs = Obs::new();
        obs.counter("a.count").add(7);
        obs.gauge("b.gauge").set(2.5);
        let h = obs.hist("c.hist");
        h.record(1.0);
        h.record(3.0);
        let s = obs.summary();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "a.count");
        assert_eq!(s[0].count, 7);
        assert_eq!(s[1].kind, MetricKind::Gauge);
        assert_eq!(s[1].mean, Some(2.5));
        assert_eq!(s[2].count, 2);
        assert_eq!(s[2].mean, Some(2.0));
        assert_eq!(s[2].max, Some(3.0));
    }

    #[test]
    fn summary_csv_has_expected_shape() {
        let obs = Obs::new();
        obs.counter("mem.reads").add(4);
        obs.hist("mem.lat").record(10.0);
        let csv = obs.summary_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,count,mean,p50,p99,p999,max");
        assert!(lines[1].starts_with("mem.lat,1,10.000000"));
        assert_eq!(
            lines[1].split(',').count(),
            7,
            "histogram rows carry the p999 column"
        );
        assert_eq!(lines[2], "mem.reads,4,,,,,");
    }

    #[test]
    fn summary_json_mirrors_the_csv() {
        let obs = Obs::new();
        obs.counter("mem.reads").add(4);
        obs.hist("mem.lat").record(10.0);
        obs.gauge("mem.g").set(2.5);
        let json = obs.summary_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(
            json.contains(r#"{"metric":"mem.reads","kind":"counter","count":4,"mean":null"#),
            "{json}"
        );
        assert!(
            json.contains(r#""metric":"mem.lat","kind":"histogram","count":1,"mean":10"#),
            "{json}"
        );
        assert!(
            json.contains(r#""metric":"mem.g","kind":"gauge""#),
            "{json}"
        );
        // Same row set and order as the CSV.
        let csv = obs.summary_csv();
        let csv_names: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        for (k, m) in obs.summary().iter().enumerate() {
            assert_eq!(csv_names[k], m.name);
        }
        assert_eq!(Obs::off().summary_json(), "[\n]\n");
    }

    #[test]
    fn summary_rows_are_sorted_by_name_regardless_of_registration_order() {
        let obs = Obs::new();
        // Register deliberately out of order and across kinds.
        obs.hist("exec.worker.1.jobs").record(3.0);
        obs.counter("exec.dag.jobs_done").inc();
        obs.gauge("exec.pool.workers").set(4.0);
        obs.counter("exec.pool.steals").add(2);
        let names: Vec<String> = obs.summary().into_iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let csv = obs.summary_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let mut sorted_rows = rows.clone();
        sorted_rows.sort();
        assert_eq!(rows, sorted_rows, "CSV rows must be name-sorted");
    }

    #[test]
    fn span_records_wall_time() {
        let obs = Obs::new();
        {
            let _s = obs.span("t.wall_ns");
        }
        let snap = obs.hist("t.wall_ns").snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.max() >= 0.0);
    }

    #[test]
    fn gauge_holds_last_value() {
        let obs = Obs::new();
        let g = obs.gauge("g");
        g.set(1.0);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }
}
