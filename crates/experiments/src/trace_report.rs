//! Critical-path analysis over request-scoped trace spans (`experiments
//! trace-report`).
//!
//! Input: one or more JSONL span files as written by
//! [`reram_obs::Tracer::write_jsonl`] — typically `client_spans.jsonl` from
//! `reram-loadgen` and `server_spans.jsonl` from `reram-serve`. Client and
//! server tracers have **different epochs**, so the join works on durations
//! only, never on absolute timestamps across files:
//!
//! * the client's `client.rtt` span (parent 0) is the root of each trace;
//! * every server span carries the same trace id and parents under the
//!   root's span id;
//! * the residual `wire.other` stage is the RTT minus the summed server
//!   stages — client encode, both socket hops, and the reader-thread gap.
//!   With it, the reported stages sum to the measured RTT by construction,
//!   and an *overshoot* (server stages exceeding the RTT) is a join bug the
//!   checker flags instead of hiding.
//!
//! The report gives per-stage p50/p99 and share-of-RTT, then a span tree
//! for the slowest percentile of traces — the "where did my tail go"
//! answer the paper's partition-RESET story needs when the verify ladder
//! or pump recharge stretches `server.service`.

use reram_obs::{json::write_string, Json};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One parsed span record (see `reram_obs::SpanRecord::to_jsonl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request-scoped trace id (never 0).
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id; 0 marks a root (`client.rtt`).
    pub parent: u64,
    /// Stage label, e.g. `server.queue`.
    pub stage: String,
    /// Start, nanoseconds since the recording tracer's epoch.
    pub start_ns: u64,
    /// End, same epoch.
    pub end_ns: u64,
    /// Stage-specific payload (bytes, shard index, verify attempts…).
    pub detail: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Parses one JSONL span line; `None` for blanks or foreign lines.
#[must_use]
pub fn parse_span(line: &str) -> Option<Span> {
    let v = Json::parse(line).ok()?;
    let num = |key: &str| v.get(key).and_then(Json::as_u64);
    Some(Span {
        trace: num("trace")?,
        span: num("span")?,
        parent: num("parent")?,
        stage: v.get("stage")?.as_str()?.to_string(),
        start_ns: num("start_ns")?,
        end_ns: num("end_ns")?,
        detail: num("detail").unwrap_or(0),
    })
}

/// Parses every span in a JSONL blob, skipping non-span lines.
#[must_use]
pub fn parse_spans(text: &str) -> Vec<Span> {
    text.lines().filter_map(parse_span).collect()
}

/// Aggregate stats for one stage across all joined traces.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage label (`client.rtt`, `server.*`, or the synthesized
    /// `wire.other` residual).
    pub stage: String,
    /// Spans observed (a retransmitted request contributes several).
    pub count: usize,
    /// Median of the per-trace stage total, microseconds.
    pub p50_us: f64,
    /// 99th percentile of the per-trace stage total, microseconds.
    pub p99_us: f64,
    /// Stage total across all traces as a percentage of total RTT.
    pub share_pct: f64,
}

/// The joined critical-path report.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Traces with a client root and at least one server span.
    pub joined: usize,
    /// Server spans whose trace id matched no client root.
    pub orphans: usize,
    /// Client roots that no server span referenced.
    pub childless_roots: usize,
    /// Traces where server stages *excluding* `server.write` exceeded
    /// the RTT by >5% — a join or clock bug (see
    /// [`TraceReport::is_sound`]). Every other stage completes before
    /// the response leaves the server, so it must fit inside the RTT.
    pub overshoot: usize,
    /// Traces where only the `server.write` flush tail pushed the stage
    /// sum past the RTT: the span ends after `write`+`flush` return,
    /// which can land after the client already consumed the response
    /// when the server thread is descheduled. Benign; reported for
    /// visibility, never gated on.
    pub write_tails: usize,
    /// Summed server stages as a percentage of summed RTT.
    pub server_share_pct: f64,
    /// Per-stage breakdown, display order.
    pub stages: Vec<StageStat>,
    /// Rendered span trees for the slowest percentile of traces.
    pub slowest: String,
}

impl TraceReport {
    /// True when the join is sound: something joined, nothing orphaned,
    /// and at most 1% of traces overshoot. The CI trace-smoke leg gates
    /// on this. Write-tails (`server.write` flush landing after the
    /// client's read) are attributed separately and never count against
    /// soundness; what remains in `overshoot` is a join or clock bug,
    /// with 1% slack for measurement noise.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.joined > 0 && self.orphans == 0 && self.overshoot * 100 <= self.joined
    }
}

/// Percentile of an ascending-sorted slice (nearest-rank on the closed
/// index range, matching `reram_obs::Histogram`).
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Fixed display order for the known server stages; unknown stages sort
/// after these, alphabetically, and `wire.other` is always last.
fn stage_rank(stage: &str) -> usize {
    match stage {
        "server.decode" => 0,
        "server.queue" => 1,
        "server.gate" => 2,
        "server.service" => 3,
        "server.write" => 4,
        "repl.wait" => 5,
        _ => 6,
    }
}

/// The residual stage name: RTT not attributed to any server span.
pub const RESIDUAL_STAGE: &str = "wire.other";

/// Joins client and server spans by trace id and computes the critical
/// path. `slow_traces` bounds the span-tree section (0 = slowest 1%,
/// minimum one trace).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(spans: &[Span], slow_traces: usize) -> TraceReport {
    // Roots (client.rtt) by trace id; server spans grouped by trace id.
    let mut roots: HashMap<u64, &Span> = HashMap::new();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent == 0 {
            roots.insert(s.trace, s);
        } else {
            children.entry(s.trace).or_default().push(s);
        }
    }
    let orphans = children
        .iter()
        .filter(|(t, _)| !roots.contains_key(t))
        .map(|(_, v)| v.len())
        .sum();
    let childless_roots = roots.keys().filter(|t| !children.contains_key(t)).count();

    // Per-trace: stage totals + residual; per-stage: sample lists.
    let mut stage_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut stage_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut stage_totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut total_rtt_us = 0.0f64;
    let mut total_server_us = 0.0f64;
    let mut overshoot = 0usize;
    let mut write_tails = 0usize;
    let mut joined_traces: Vec<(u64, &Span, Vec<&Span>)> = Vec::new();
    for (trace, root) in &roots {
        let Some(kids) = children.get(trace) else {
            continue;
        };
        let rtt_us = root.dur_ns() as f64 / 1e3;
        let mut per_stage: BTreeMap<&str, f64> = BTreeMap::new();
        let mut server_us = 0.0f64;
        for k in kids {
            let d = k.dur_ns() as f64 / 1e3;
            *per_stage.entry(k.stage.as_str()).or_default() += d;
            *stage_counts.entry(k.stage.clone()).or_default() += 1;
            server_us += d;
        }
        if server_us > rtt_us * 1.05 {
            // Only `server.write` may legitimately end after the client's
            // read (its flush tail); if the sum fits once write is
            // excluded, this is a benign write-tail, not a join bug.
            let write_us = per_stage.get("server.write").copied().unwrap_or(0.0);
            if server_us - write_us <= rtt_us * 1.05 {
                write_tails += 1;
            } else {
                overshoot += 1;
            }
        }
        let residual = (rtt_us - server_us).max(0.0);
        per_stage.insert(RESIDUAL_STAGE, residual);
        per_stage.insert("client.rtt", rtt_us);
        for (stage, us) in per_stage {
            stage_samples.entry(stage.to_string()).or_default().push(us);
            *stage_totals.entry(stage.to_string()).or_default() += us;
        }
        *stage_counts.entry("client.rtt".into()).or_default() += 1;
        *stage_counts.entry(RESIDUAL_STAGE.into()).or_default() += 1;
        total_rtt_us += rtt_us;
        total_server_us += server_us;
        let mut kids = kids.clone();
        kids.sort_by_key(|s| (s.start_ns, s.span));
        joined_traces.push((*trace, root, kids));
    }
    let joined = joined_traces.len();

    // Stage table, display order.
    let mut names: Vec<&String> = stage_samples.keys().collect();
    names.sort_by(|a, b| {
        let last_a = *a == RESIDUAL_STAGE;
        let last_b = *b == RESIDUAL_STAGE;
        let root_a = *a == "client.rtt";
        let root_b = *b == "client.rtt";
        (last_a, !root_a, stage_rank(a), a.as_str()).cmp(&(
            last_b,
            !root_b,
            stage_rank(b),
            b.as_str(),
        ))
    });
    let stages: Vec<StageStat> = names
        .into_iter()
        .map(|name| {
            let mut samples = stage_samples[name].clone();
            samples.sort_by(f64::total_cmp);
            StageStat {
                stage: name.clone(),
                count: stage_counts.get(name).copied().unwrap_or(0),
                p50_us: pct(&samples, 0.50),
                p99_us: pct(&samples, 0.99),
                share_pct: if total_rtt_us > 0.0 {
                    100.0 * stage_totals[name] / total_rtt_us
                } else {
                    0.0
                },
            }
        })
        .collect();

    // Span trees for the slowest percentile.
    joined_traces.sort_by_key(|t| std::cmp::Reverse(t.1.dur_ns()));
    let show = if slow_traces > 0 {
        slow_traces
    } else {
        joined.div_ceil(100).max(1)
    }
    .min(joined);
    let mut slowest = String::new();
    for (trace, root, kids) in joined_traces.iter().take(show) {
        let rtt_us = root.dur_ns() as f64 / 1e3;
        let _ = writeln!(
            slowest,
            "trace {trace:#018x}  client.rtt {rtt_us:9.1} us  (client {})",
            root.detail
        );
        let mut server_us = 0.0;
        for k in kids {
            let d = k.dur_ns() as f64 / 1e3;
            server_us += d;
            let _ = writeln!(
                slowest,
                "  {:<16} {d:9.1} us  [detail={}]",
                k.stage, k.detail
            );
        }
        let _ = writeln!(
            slowest,
            "  {RESIDUAL_STAGE:<16} {:9.1} us",
            (rtt_us - server_us).max(0.0)
        );
    }

    TraceReport {
        joined,
        orphans,
        childless_roots,
        overshoot,
        write_tails,
        server_share_pct: if total_rtt_us > 0.0 {
            100.0 * total_server_us / total_rtt_us
        } else {
            0.0
        },
        stages,
        slowest,
    }
}

/// Renders the human-readable report.
#[must_use]
pub fn render(r: &TraceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace-report: {} trace(s) joined, {} orphaned server span(s), {} childless root(s), {} overshoot, {} write-tail(s)",
        r.joined, r.orphans, r.childless_roots, r.overshoot, r.write_tails
    );
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>10} {:>10} {:>7}",
        "stage", "count", "p50_us", "p99_us", "share%"
    );
    for s in &r.stages {
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>10.1} {:>10.1} {:>7.1}",
            s.stage, s.count, s.p50_us, s.p99_us, s.share_pct
        );
    }
    let _ = writeln!(
        out,
        "server-side stages cover {:.1}% of RTT; stages + {RESIDUAL_STAGE} sum to the RTT",
        r.server_share_pct
    );
    if !r.slowest.is_empty() {
        let _ = writeln!(out, "--- slowest traces ---");
        out.push_str(&r.slowest);
    }
    out
}

/// Machine-readable summary (the CI trace-smoke leg parses this).
#[must_use]
pub fn render_json(r: &TraceReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"joined\": {}, \"orphans\": {}, \"childless_roots\": {}, \"overshoot\": {}, \"write_tails\": {}, \"server_share_pct\": {:.2}, \"stages\": [",
        r.joined, r.orphans, r.childless_roots, r.overshoot, r.write_tails, r.server_share_pct
    );
    for (i, s) in r.stages.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"stage\": ");
        write_string(&mut out, &s.stage);
        let _ = write!(
            out,
            ", \"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"share_pct\": {:.2}}}",
            s.count, s.p50_us, s.p99_us, s.share_pct
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u64, parent: u64, stage: &str, start: u64, end: u64) -> Span {
        Span {
            trace,
            span,
            parent,
            stage: stage.into(),
            start_ns: start,
            end_ns: end,
            detail: 0,
        }
    }

    #[test]
    fn parses_tracer_jsonl_lines() {
        let line = "{\"trace\":4294967306,\"span\":7,\"parent\":3,\"stage\":\"server.queue\",\"start_ns\":1000,\"end_ns\":5500,\"detail\":2}";
        let s = parse_span(line).unwrap();
        assert_eq!(s.trace, 4_294_967_306);
        assert_eq!(s.span, 7);
        assert_eq!(s.parent, 3);
        assert_eq!(s.stage, "server.queue");
        assert_eq!(s.dur_ns(), 4500);
        assert_eq!(s.detail, 2);
        assert!(parse_span("").is_none());
        assert!(parse_span("{\"metric\":\"x\"}").is_none());
    }

    #[test]
    fn joins_traces_and_attributes_the_residual() {
        // Trace 1: rtt 100 µs, server stages 60 µs → residual 40 µs.
        // Server spans use a different epoch on purpose.
        let spans = vec![
            span(1, 10, 0, "client.rtt", 0, 100_000),
            span(1, 11, 10, "server.decode", 900_000, 910_000),
            span(1, 12, 10, "server.service", 910_000, 960_000),
        ];
        let r = analyze(&spans, 0);
        assert_eq!(r.joined, 1);
        assert_eq!(r.orphans, 0);
        assert_eq!(r.overshoot, 0);
        assert!(r.is_sound());
        assert!((r.server_share_pct - 60.0).abs() < 1e-9);
        let residual = r.stages.iter().find(|s| s.stage == RESIDUAL_STAGE).unwrap();
        assert!((residual.p50_us - 40.0).abs() < 1e-9);
        // Stage order: root first, residual last.
        assert_eq!(r.stages.first().unwrap().stage, "client.rtt");
        assert_eq!(r.stages.last().unwrap().stage, RESIDUAL_STAGE);
        // Shares sum to 200%: 100 for the root + 100 for its decomposition.
        let total: f64 = r.stages.iter().map(|s| s.share_pct).sum();
        assert!((total - 200.0).abs() < 1e-6, "got {total}");
        assert!(r.slowest.contains("trace 0x0000000000000001"));
    }

    #[test]
    fn flags_orphans_and_overshoot() {
        let orphan = vec![span(9, 2, 1, "server.decode", 0, 10)];
        let r = analyze(&orphan, 0);
        assert_eq!(r.orphans, 1);
        assert_eq!(r.joined, 0);
        assert!(!r.is_sound());

        // Server stages (200 µs) exceed the 100 µs RTT → overshoot.
        let bad = vec![
            span(1, 1, 0, "client.rtt", 0, 100_000),
            span(1, 2, 1, "server.service", 0, 200_000),
        ];
        let r = analyze(&bad, 0);
        assert_eq!(r.overshoot, 1);
        assert_eq!(r.write_tails, 0);
        assert!(!r.is_sound());
    }

    #[test]
    fn a_write_flush_tail_is_benign_not_overshoot() {
        // Only `server.write` (180 µs flush tail) pushes the sum past
        // the 100 µs RTT: the server thread was descheduled after the
        // client already read the response. Attributed as a write-tail,
        // and the join stays sound.
        let spans = vec![
            span(1, 1, 0, "client.rtt", 0, 100_000),
            span(1, 2, 1, "server.service", 0, 40_000),
            span(1, 3, 1, "server.write", 40_000, 220_000),
        ];
        let r = analyze(&spans, 0);
        assert_eq!(r.overshoot, 0);
        assert_eq!(r.write_tails, 1);
        assert!(r.is_sound());
    }

    #[test]
    fn a_replicated_write_decomposes_into_decode_and_repl_wait() {
        // Replicated writes record `server.decode` plus `repl.wait`
        // (local append → majority ack) and nothing else — the apply
        // happens inside the cluster pump, not the connection thread. The
        // stages must still sum under the client RTT (`--check` sound),
        // and `repl.wait` ranks after the single-node server stages.
        let spans = vec![
            span(1, 1, 0, "client.rtt", 0, 100_000),
            span(1, 2, 1, "server.decode", 0, 5_000),
            span(1, 3, 1, "repl.wait", 5_000, 80_000),
        ];
        let r = analyze(&spans, 0);
        assert_eq!(r.joined, 1);
        assert_eq!(r.overshoot, 0);
        assert!(r.is_sound());
        let names: Vec<&str> = r.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            ["client.rtt", "server.decode", "repl.wait", RESIDUAL_STAGE]
        );
        let repl = r.stages.iter().find(|s| s.stage == "repl.wait").unwrap();
        assert!((repl.p50_us - 75.0).abs() < 1e-9);
    }

    #[test]
    fn retransmits_fold_into_one_per_trace_sample() {
        // Two decode spans in one trace (a retransmit) sum into a single
        // per-trace sample, so p50 sees 20 µs, not two 10 µs samples.
        let spans = vec![
            span(1, 1, 0, "client.rtt", 0, 100_000),
            span(1, 2, 1, "server.decode", 0, 10_000),
            span(1, 3, 1, "server.decode", 50_000, 60_000),
        ];
        let r = analyze(&spans, 0);
        let dec = r
            .stages
            .iter()
            .find(|s| s.stage == "server.decode")
            .unwrap();
        assert_eq!(dec.count, 2);
        assert!((dec.p50_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn json_summary_carries_the_check_fields() {
        let spans = vec![
            span(1, 1, 0, "client.rtt", 0, 100_000),
            span(1, 2, 1, "server.service", 0, 50_000),
        ];
        let j = render_json(&analyze(&spans, 0));
        assert!(j.contains("\"joined\": 1"));
        assert!(j.contains("\"orphans\": 0"));
        assert!(j.contains("\"write_tails\": 0"));
        assert!(j.contains("\"server_share_pct\": 50.00"));
        assert!(j.contains("\"stage\": \"wire.other\""));
    }
}
