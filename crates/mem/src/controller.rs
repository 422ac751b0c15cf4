//! The memory controller (paper Table III, §V).
//!
//! Scheduling policy, quoted from the paper: 24-entry read/write queues per
//! channel, "scheduling reads first, issuing writes when there is no read;
//! when \[the\] W queue is full, issuing \[a\] write burst (sending only writes
//! and delaying read\[s\] until \[the\] W queue is empty)" — the standard
//! PCM/ReRAM write-burst discipline of Hay et al. (MICRO 2011).
//!
//! Bank timing: reads occupy their bank for `tRCD + tCL` and return data
//! after the command and burst latencies; writes occupy their bank for
//! `tCWD` plus the scheme-dependent write service time (pump charging +
//! RESET phase + SET phase), which the caller computes with
//! [`reram_core::WriteModel`] and passes in — the controller is deliberately
//! scheme-agnostic.

use crate::MemoryConfig;
use reram_obs::{Counter, Hist, Obs, Value};
use std::collections::VecDeque;

/// A request handed to the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Caller's identifier, returned in the [`Completion`].
    pub id: u64,
    /// Flat bank index.
    pub bank: usize,
    /// Arrival time, ns.
    pub arrival_ns: f64,
    /// For writes: the write service time at the bank (pump + RESET phase +
    /// SET phase), ns. Ignored for reads.
    pub service_ns: f64,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The caller's identifier.
    pub id: u64,
    /// True for writes.
    pub is_write: bool,
    /// Completion time: data returned (reads) or write retired, ns.
    pub done_ns: f64,
    /// Time spent queued before issue, ns.
    pub queued_ns: f64,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControllerStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Sum of read latencies (arrival → data), ns.
    pub read_latency_sum_ns: f64,
    /// Sum of write queue+service latencies, ns.
    pub write_latency_sum_ns: f64,
    /// Write bursts triggered by a full write queue.
    pub write_bursts: u64,
    /// Total bank-busy time, ns (for utilization and leakage accounting).
    pub bank_busy_ns: f64,
    /// Reads rejected because the read queue was full.
    pub read_rejections: u64,
    /// Writes rejected because the write queue was full.
    pub write_rejections: u64,
}

impl ControllerStats {
    /// Mean read latency, ns (0 when no reads completed — never `NaN`).
    #[must_use]
    pub fn mean_read_latency_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_sum_ns / self.reads as f64
        }
    }

    /// Mean write latency, ns (0 when no writes completed — never `NaN`).
    #[must_use]
    pub fn mean_write_latency_ns(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_latency_sum_ns / self.writes as f64
        }
    }
}

/// A typed queue-full rejection: the controller could not admit a request.
///
/// Carries everything an admission-control layer needs to shed load
/// intelligently: which queue filled, how deep it is, and when the
/// controller could plausibly issue next (the retry-after hint a service
/// front-end converts into a `Busy` response).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueFull {
    /// True when the write queue rejected; false for the read queue.
    pub is_write: bool,
    /// Entries queued at rejection time.
    pub depth: usize,
    /// The queue's capacity (`queue_entries × channels`).
    pub capacity: usize,
    /// Earliest time the controller could issue its next operation, ns
    /// (equals the rejected request's arrival when the queues could drain
    /// immediately — callers add their own backoff on top).
    pub retry_at_ns: f64,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queue full ({}/{} entries, retry at {:.1} ns)",
            if self.is_write { "write" } else { "read" },
            self.depth,
            self.capacity,
            self.retry_at_ns
        )
    }
}

impl std::error::Error for QueueFull {}

/// Pre-resolved telemetry handles so the scheduling loop never does a
/// name lookup. Every handle is a no-op until [`MemoryController::attach_obs`]
/// is called.
#[derive(Debug, Clone, Default)]
struct CtrlMetrics {
    obs: Obs,
    queue_depth_read: Hist,
    queue_depth_write: Hist,
    write_burst_len: Hist,
    read_priority_stalls: Counter,
    read_latency_ns: Hist,
    write_latency_ns: Hist,
    read_rejections: Counter,
    write_rejections: Counter,
}

impl CtrlMetrics {
    fn resolve(obs: &Obs) -> Self {
        Self {
            obs: obs.clone(),
            queue_depth_read: obs.hist("mem.controller.queue_depth_read"),
            queue_depth_write: obs.hist("mem.controller.queue_depth_write"),
            write_burst_len: obs.hist("mem.controller.write_burst_len"),
            read_priority_stalls: obs.counter("mem.controller.read_priority_stalls"),
            read_latency_ns: obs.hist("mem.controller.read_latency_ns"),
            write_latency_ns: obs.hist("mem.controller.write_latency_ns"),
            read_rejections: obs.counter("mem.controller.read_rejections"),
            write_rejections: obs.counter("mem.controller.write_rejections"),
        }
    }
}

/// The read-first / write-burst memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: MemoryConfig,
    bank_free_ns: Vec<f64>,
    read_q: VecDeque<Request>,
    write_q: VecDeque<Request>,
    in_burst: bool,
    burst_issued: u64,
    burst_start_ns: f64,
    stats: ControllerStats,
    met: CtrlMetrics,
}

impl MemoryController {
    /// Creates a controller for `cfg`.
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> Self {
        let banks = cfg.total_banks();
        Self {
            cfg,
            bank_free_ns: vec![0.0; banks],
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            in_burst: false,
            burst_issued: 0,
            burst_start_ns: 0.0,
            stats: ControllerStats::default(),
            met: CtrlMetrics::default(),
        }
    }

    /// Attaches a telemetry registry. Queue depths, burst lengths, latencies
    /// and read-priority stalls are recorded under `mem.controller.*`; with
    /// no attachment every recording is a no-op branch.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.met = CtrlMetrics::resolve(obs);
    }

    /// True when the read queue cannot take another entry.
    #[must_use]
    pub fn read_queue_full(&self) -> bool {
        self.read_q.len() >= self.cfg.queue_entries * self.cfg.channels
    }

    /// True when the write queue cannot take another entry.
    #[must_use]
    pub fn write_queue_full(&self) -> bool {
        self.write_q.len() >= self.cfg.queue_entries * self.cfg.channels
    }

    /// The retry-at hint attached to a rejection: the earliest time the
    /// controller could issue next, never before the rejected arrival.
    fn retry_hint_ns(&self, arrival_ns: f64) -> f64 {
        self.next_issue_ns().unwrap_or(arrival_ns).max(arrival_ns)
    }

    /// Enqueues a read, or returns a typed [`QueueFull`] rejection (counted
    /// in [`ControllerStats::read_rejections`] and under
    /// `mem.controller.read_rejections`). Nothing is dropped on rejection —
    /// the caller sheds, stalls, or retries at the hinted time.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the read queue cannot take another entry.
    pub fn try_submit_read(&mut self, req: Request) -> Result<(), QueueFull> {
        if self.read_queue_full() {
            self.stats.read_rejections += 1;
            self.met.read_rejections.inc();
            return Err(QueueFull {
                is_write: false,
                depth: self.read_q.len(),
                capacity: self.cfg.queue_entries * self.cfg.channels,
                retry_at_ns: self.retry_hint_ns(req.arrival_ns),
            });
        }
        self.read_q.push_back(req);
        self.met.queue_depth_read.record(self.read_q.len() as f64);
        Ok(())
    }

    /// Enqueues a write, or returns a typed [`QueueFull`] rejection
    /// (counted in [`ControllerStats::write_rejections`] and under
    /// `mem.controller.write_rejections`). Filling the last entry triggers
    /// a write burst.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the write queue cannot take another entry.
    pub fn try_submit_write(&mut self, req: Request) -> Result<(), QueueFull> {
        if self.write_queue_full() {
            self.stats.write_rejections += 1;
            self.met.write_rejections.inc();
            return Err(QueueFull {
                is_write: true,
                depth: self.write_q.len(),
                capacity: self.cfg.queue_entries * self.cfg.channels,
                retry_at_ns: self.retry_hint_ns(req.arrival_ns),
            });
        }
        self.write_q.push_back(req);
        self.met.queue_depth_write.record(self.write_q.len() as f64);
        if self.write_queue_full() && !self.in_burst {
            self.in_burst = true;
            self.burst_issued = 0;
            self.burst_start_ns = req.arrival_ns;
            self.stats.write_bursts += 1;
        }
        Ok(())
    }

    /// Enqueues a read. Returns `false` (and drops nothing) if the queue is
    /// full — the caller must stall and retry. Boolean convenience over
    /// [`MemoryController::try_submit_read`]; rejections are still counted.
    pub fn submit_read(&mut self, req: Request) -> bool {
        self.try_submit_read(req).is_ok()
    }

    /// Enqueues a write. Returns `false` if the queue is full. Boolean
    /// convenience over [`MemoryController::try_submit_write`]; rejections
    /// are still counted.
    pub fn submit_write(&mut self, req: Request) -> bool {
        self.try_submit_write(req).is_ok()
    }

    /// Pending requests (both queues).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The earliest time at which the controller could issue its next
    /// operation, or `None` when idle.
    #[must_use]
    pub fn next_issue_ns(&self) -> Option<f64> {
        let candidate = |q: &VecDeque<Request>| {
            q.iter()
                .map(|r| r.arrival_ns.max(self.bank_free_ns[r.bank]))
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                })
        };
        if self.in_burst {
            candidate(&self.write_q)
        } else if !self.read_q.is_empty() {
            candidate(&self.read_q)
        } else {
            candidate(&self.write_q)
        }
    }

    /// Issues every operation that can start at or before `now`, appending
    /// its completions to `done` (reads complete when their data returns;
    /// writes when they retire at the bank). An event loop passes one
    /// buffer it clears between calls, so issuing never allocates.
    pub fn advance(&mut self, now: f64, done: &mut Vec<Completion>) {
        loop {
            let serve_writes = self.in_burst || self.read_q.is_empty();
            let q = if serve_writes {
                &self.write_q
            } else {
                &self.read_q
            };
            // FR-FCFS-lite: the queued request that can start earliest.
            let pick = q
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.arrival_ns.max(self.bank_free_ns[r.bank])))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
            let Some((idx, t0)) = pick else { break };
            if t0 > now {
                break;
            }
            if serve_writes {
                let r = self.write_q.remove(idx).expect("index valid");
                self.met.queue_depth_write.record(self.write_q.len() as f64);
                if self.in_burst && !self.read_q.is_empty() {
                    // A write issued ahead of a pending read: the burst
                    // discipline stalled a read — the contention PR exists
                    // to shorten.
                    self.met.read_priority_stalls.inc();
                }
                let busy = self.cfg.t_cwd_ns + r.service_ns + self.cfg.t_wtr_ns;
                self.bank_free_ns[r.bank] = t0 + busy;
                self.stats.bank_busy_ns += busy;
                let done_ns = t0 + self.cfg.mc_to_bank_ns() + self.cfg.t_cwd_ns + r.service_ns;
                self.stats.writes += 1;
                self.stats.write_latency_sum_ns += done_ns - r.arrival_ns;
                self.met.write_latency_ns.record(done_ns - r.arrival_ns);
                if self.in_burst {
                    self.burst_issued += 1;
                }
                done.push(Completion {
                    id: r.id,
                    is_write: true,
                    done_ns,
                    queued_ns: t0 - r.arrival_ns,
                });
                if self.write_q.is_empty() {
                    if self.in_burst {
                        self.met.write_burst_len.record(self.burst_issued as f64);
                        self.met.obs.event(
                            "mem.controller.write_burst",
                            &[
                                ("len", Value::U64(self.burst_issued)),
                                ("start_ns", Value::F64(self.burst_start_ns)),
                                ("end_ns", Value::F64(done_ns)),
                            ],
                        );
                    }
                    self.in_burst = false;
                }
            } else {
                let r = self.read_q.remove(idx).expect("index valid");
                self.met.queue_depth_read.record(self.read_q.len() as f64);
                let busy = self.cfg.read_service_ns();
                self.bank_free_ns[r.bank] = t0 + busy;
                self.stats.bank_busy_ns += busy;
                let done_ns = t0 + self.cfg.mc_to_bank_ns() + busy + self.cfg.burst_ns();
                self.stats.reads += 1;
                self.stats.read_latency_sum_ns += done_ns - r.arrival_ns;
                self.met.read_latency_ns.record(done_ns - r.arrival_ns);
                done.push(Completion {
                    id: r.id,
                    is_write: false,
                    done_ns,
                    queued_ns: t0 - r.arrival_ns,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, bank: usize, at: f64) -> Request {
        Request {
            id,
            bank,
            arrival_ns: at,
            service_ns: 0.0,
        }
    }

    fn write(id: u64, bank: usize, at: f64, service: f64) -> Request {
        Request {
            id,
            bank,
            arrival_ns: at,
            service_ns: service,
        }
    }

    fn advance(mc: &mut MemoryController, now: f64) -> Vec<Completion> {
        let mut done = Vec::new();
        mc.advance(now, &mut done);
        done
    }

    #[test]
    fn unloaded_read_latency_is_command_plus_service_plus_burst() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        assert!(mc.submit_read(read(1, 0, 0.0)));
        let done = advance(&mut mc, 1000.0);
        assert_eq!(done.len(), 1);
        let expect = cfg.mc_to_bank_ns() + cfg.read_service_ns() + cfg.burst_ns();
        assert!(
            (done[0].done_ns - expect).abs() < 1e-9,
            "{}",
            done[0].done_ns
        );
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
        assert!(mc.submit_write(write(1, 0, 0.0, 2000.0)));
        assert!(mc.submit_read(read(2, 0, 0.0)));
        let done = advance(&mut mc, 10_000.0);
        // The read must issue first even though the write arrived first.
        let read_done = done.iter().find(|c| !c.is_write).unwrap();
        let write_done = done.iter().find(|c| c.is_write).unwrap();
        assert!(read_done.queued_ns < 1e-9);
        assert!(write_done.queued_ns > 10.0);
    }

    #[test]
    fn same_bank_reads_serialize() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        assert!(mc.submit_read(read(1, 3, 0.0)));
        assert!(mc.submit_read(read(2, 3, 0.0)));
        let done = advance(&mut mc, 1000.0);
        let d1 = done.iter().find(|c| c.id == 1).unwrap().done_ns;
        let d2 = done.iter().find(|c| c.id == 2).unwrap().done_ns;
        assert!((d2 - d1 - cfg.read_service_ns()).abs() < 1e-9);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        assert!(mc.submit_read(read(1, 0, 0.0)));
        assert!(mc.submit_read(read(2, 1, 0.0)));
        let done = advance(&mut mc, 1000.0);
        assert!((done[0].done_ns - done[1].done_ns).abs() < 1e-9);
    }

    #[test]
    fn full_write_queue_triggers_a_burst_that_blocks_reads() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        let cap = cfg.queue_entries * cfg.channels;
        for k in 0..cap {
            assert!(mc.submit_write(write(k as u64, k % 16, 0.0, 500.0)));
        }
        assert!(mc.write_queue_full());
        assert!(mc.submit_read(read(999, 0, 0.0)));
        let done = advance(&mut mc, 100_000.0);
        assert_eq!(mc.stats().write_bursts, 1);
        let read_done = done.iter().find(|c| c.id == 999).unwrap();
        // Reads were delayed until the write queue drained: the bank-0 write
        // must retire before the read issues.
        let bank0_write = done
            .iter()
            .filter(|c| c.is_write)
            .map(|c| c.done_ns)
            .fold(0.0f64, f64::max);
        assert!(read_done.queued_ns > 0.0);
        assert!(read_done.done_ns > bank0_write - 1000.0);
    }

    #[test]
    fn writes_flow_when_no_reads_pending() {
        let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
        assert!(mc.submit_write(write(1, 0, 0.0, 300.0)));
        let done = advance(&mut mc, 10_000.0);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert!(done[0].queued_ns < 1e-9);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        let cap = cfg.queue_entries * cfg.channels;
        for k in 0..cap {
            assert!(mc.submit_read(read(k as u64, 0, 0.0)));
        }
        assert!(!mc.submit_read(read(1000, 0, 0.0)));
    }

    #[test]
    fn rejections_are_typed_and_counted() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        let cap = cfg.queue_entries * cfg.channels;
        for k in 0..cap {
            assert!(mc.try_submit_read(read(k as u64, k % 16, 10.0)).is_ok());
            assert!(mc
                .try_submit_write(write(1000 + k as u64, k % 16, 10.0, 200.0))
                .is_ok());
        }
        let r = mc.try_submit_read(read(9000, 0, 10.0)).unwrap_err();
        assert!(!r.is_write);
        assert_eq!((r.depth, r.capacity), (cap, cap));
        assert!(r.retry_at_ns >= 10.0, "hint never predates arrival");
        let w = mc
            .try_submit_write(write(9001, 0, 10.0, 200.0))
            .unwrap_err();
        assert!(w.is_write);
        // The boolean wrappers go through the same counted path.
        assert!(!mc.submit_write(write(9002, 0, 10.0, 200.0)));
        let st = mc.stats();
        assert_eq!(st.read_rejections, 1);
        assert_eq!(st.write_rejections, 2);
        assert!(w.to_string().contains("write queue full"));
        // Draining the queues clears the rejection condition but not the
        // counts.
        let _ = advance(&mut mc, 1e9);
        assert!(mc.try_submit_read(read(9003, 0, 1e9)).is_ok());
        assert_eq!(mc.stats().read_rejections, 1);
    }

    #[test]
    fn next_issue_reflects_bank_availability() {
        let cfg = MemoryConfig::paper_baseline();
        let mut mc = MemoryController::new(cfg);
        assert_eq!(mc.next_issue_ns(), None);
        assert!(mc.submit_read(read(1, 0, 50.0)));
        assert_eq!(mc.next_issue_ns(), Some(50.0));
        let _ = advance(&mut mc, 50.0);
        assert!(mc.submit_read(read(2, 0, 50.0)));
        // Bank 0 is now busy until the first read finishes its service.
        let t = mc.next_issue_ns().unwrap();
        assert!((t - (50.0 + cfg.read_service_ns())).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
        for k in 0..4 {
            assert!(mc.submit_read(read(k, k as usize, 0.0)));
        }
        let _ = advance(&mut mc, 1e6);
        let st = mc.stats();
        assert_eq!(st.reads, 4);
        assert!(st.mean_read_latency_ns() > 0.0);
        assert!(st.bank_busy_ns > 0.0);
    }

    #[test]
    fn mean_latencies_are_zero_not_nan_with_no_traffic() {
        let st = ControllerStats::default();
        assert_eq!(st.mean_read_latency_ns(), 0.0);
        assert_eq!(st.mean_write_latency_ns(), 0.0);
        // A write-only run must keep the read mean finite (and vice versa).
        let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
        assert!(mc.submit_write(Request {
            id: 1,
            bank: 0,
            arrival_ns: 0.0,
            service_ns: 100.0,
        }));
        let _ = advance(&mut mc, 1e6);
        let st = mc.stats();
        assert_eq!(st.reads, 0);
        assert_eq!(st.mean_read_latency_ns(), 0.0);
        assert!(st.mean_read_latency_ns().is_finite());
        assert!(st.mean_write_latency_ns() > 0.0);
    }
}
