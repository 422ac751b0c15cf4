//! Address sharding and the per-shard memory backend.
//!
//! The served address space is striped across shards on the low bits
//! (`shard = line mod shards`) so streaming traffic spreads evenly, the
//! same way the memory's own bank interleave works. Each shard owns a full
//! vertical slice of the stack: a [`VerifiedStore`] (functional data +
//! write-verify), a [`MemoryController`] (read-first/write-burst queueing
//! and bank timing), and an [`AddressMapper`] + [`WriteModel`] pair that
//! converts each write's transition masks into the scheme-dependent service
//! time the controller charges. Shards share nothing mutable, which is what
//! lets the server service them concurrently on the `reram-exec` pool
//! without locks across shards.
//!
//! Time inside a shard is **simulated**: requests arrive at the shard's
//! current sim clock, the controller resolves queueing + bank occupancy,
//! and the clock advances to the last completion. Wall-clock latency is the
//! load generator's business; sim latency (what the ReRAM timing model
//! says) is recorded under `serve.shard.sim_*` histograms.

use crate::proto::{Response, LINE_BYTES};
use reram_array::ArrayModel;
use reram_core::{Drvr, Scheme, WriteModel};
use reram_mem::pump::ChargePump;
use reram_mem::store::FunctionalStore;
use reram_mem::verify::VerifiedStore;
use reram_mem::{AddressMapper, MemoryController, Request as MemRequest};
use reram_obs::{Hist, Obs};

/// Maps flat service-level line addresses onto shards.
///
/// `shard = line mod shards`, `local = line div shards` — a bijection
/// between `[0, shards × lines_per_shard)` and the per-shard local spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    lines_per_shard: u64,
}

impl ShardMap {
    /// Creates a map of `shards` shards, each holding `lines_per_shard`
    /// local lines.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(shards: usize, lines_per_shard: u64) -> Self {
        assert!(shards > 0 && lines_per_shard > 0, "empty shard map");
        Self {
            shards,
            lines_per_shard,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Local lines per shard.
    #[must_use]
    pub fn lines_per_shard(&self) -> u64 {
        self.lines_per_shard
    }

    /// Total served lines.
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.shards as u64 * self.lines_per_shard
    }

    /// True when `line` is inside the served space.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        line < self.total_lines()
    }

    /// The shard serving `line`.
    #[must_use]
    pub fn shard_of(&self, line: u64) -> usize {
        (line % self.shards as u64) as usize
    }

    /// The shard-local index of `line`.
    #[must_use]
    pub fn local_of(&self, line: u64) -> u64 {
        line / self.shards as u64
    }

    /// Recomposes a (shard, local) pair into the flat service address —
    /// the inverse of [`ShardMap::shard_of`] / [`ShardMap::local_of`].
    #[must_use]
    pub fn global(&self, shard: usize, local: u64) -> u64 {
        local * self.shards as u64 + shard as u64
    }
}

/// One data operation bound for a shard, already resolved to a local line.
#[derive(Debug, Clone)]
pub enum ShardOp {
    /// Read the local line.
    Read {
        /// Shard-local line index.
        local: u64,
    },
    /// Write the local line.
    Write {
        /// Shard-local line index.
        local: u64,
        /// The 64 B payload.
        data: Box<[u8; LINE_BYTES]>,
    },
}

/// The result of servicing one [`ShardOp`].
#[derive(Debug)]
pub struct ShardOutcome {
    /// Index of the op within the submitted batch.
    pub batch_index: usize,
    /// The typed wire response.
    pub response: Response,
    /// Simulated request latency (arrival → completion), ns. Zero for
    /// rejected ops.
    pub sim_latency_ns: f64,
}

/// Running statistics for one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Data requests retired (reads + writes).
    pub served: u64,
    /// Reads retired.
    pub reads: u64,
    /// Writes retired.
    pub writes: u64,
    /// Ops shed with `Busy` because the controller queue was full.
    pub busy_rejections: u64,
    /// Lines currently in degraded mode.
    pub degraded_lines: u64,
    /// The shard's simulated clock, ns.
    pub sim_now_ns: f64,
}

/// A shard's vertical slice of the memory stack.
#[derive(Debug)]
pub struct ShardBackend {
    store: VerifiedStore,
    ctrl: MemoryController,
    mapper: AddressMapper,
    model: WriteModel,
    map: ShardMap,
    shard: usize,
    pump_overhead_ns: f64,
    now_ns: f64,
    stats: ShardStats,
    h_sim_read_ns: Hist,
    h_sim_write_ns: Hist,
}

impl ShardBackend {
    /// Builds shard `shard` of `map`, writing under `scheme`, with
    /// telemetry resolving on `obs`.
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_shard` does not fit `usize` or `shard` is out
    /// of range.
    #[must_use]
    pub fn new(map: ShardMap, shard: usize, scheme: Scheme, obs: &Obs) -> Self {
        assert!(shard < map.shards(), "shard index out of range");
        let lines = usize::try_from(map.lines_per_shard()).expect("shard fits usize");
        let model = WriteModel::paper(scheme);
        let store = FunctionalStore::new(lines, model.clone());
        let drvr = Drvr::design(&ArrayModel::paper_baseline(), 3.0);
        let pump = ChargePump::udrvr();
        let pump_overhead_ns = pump.write_overhead_ns();
        let mapper = AddressMapper::paper_baseline();
        let mut ctrl = MemoryController::new(*mapper.config());
        ctrl.attach_obs(obs);
        Self {
            store: VerifiedStore::new(store, drvr, pump, obs),
            ctrl,
            mapper,
            model,
            map,
            shard,
            pump_overhead_ns,
            now_ns: 0.0,
            stats: ShardStats::default(),
            h_sim_read_ns: obs.hist("serve.shard.sim_read_ns"),
            h_sim_write_ns: obs.hist("serve.shard.sim_write_ns"),
        }
    }

    /// Statistics so far (including the controller's rejection counts via
    /// [`ShardStats::busy_rejections`]).
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            degraded_lines: self.store.degraded_lines().len() as u64,
            sim_now_ns: self.now_ns,
            ..self.stats
        }
    }

    /// One-line human-readable stats (the `STATS` opcode's payload row).
    #[must_use]
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        let c = self.ctrl.stats();
        format!(
            "shard{}: served={} reads={} writes={} busy={} degraded={} \
             bursts={} sim_ms={:.3}",
            self.shard,
            s.served,
            s.reads,
            s.writes,
            s.busy_rejections,
            s.degraded_lines,
            c.write_bursts,
            s.sim_now_ns / 1e6,
        )
    }

    /// Reads a local line directly (bypasses the controller — used by the
    /// post-run audit and tests, not the service path).
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[must_use]
    pub fn peek(&self, local: u64) -> [u8; LINE_BYTES] {
        self.store
            .read_line(usize::try_from(local).expect("local fits usize"))
    }

    /// The scheme-dependent write service time for writing `data` over the
    /// line's current contents: pump charge-up plus the RESET and SET
    /// phases the transition masks require.
    fn write_service_ns(&self, local: usize, data: &[u8; LINE_BYTES]) -> f64 {
        let global = self.map.global(self.shard, local as u64);
        let a = self.mapper.decompose(global);
        let old = self.store.read_line(local);
        let mut resets = [0u8; LINE_BYTES];
        let mut sets = [0u8; LINE_BYTES];
        for s in 0..LINE_BYTES {
            resets[s] = old[s] & !data[s];
            sets[s] = !old[s] & data[s];
        }
        let plan = self.model.plan_line_write_with_data(
            a.mat_row,
            a.col_offset,
            &resets,
            &sets,
            Some(&data[..]),
        );
        self.pump_overhead_ns + plan.total_ns()
    }

    /// Services a batch of ops: admits each into the controller (shedding
    /// `Busy` on queue-full, with the controller's retry hint converted to
    /// microseconds), resolves queueing and bank timing, applies the data
    /// operations in completion order, and advances the shard clock.
    pub fn service_batch(&mut self, batch: &[ShardOp]) -> Vec<ShardOutcome> {
        let mut out = Vec::with_capacity(batch.len());
        // Map controller completion ids back to batch indices.
        let mut admitted: Vec<usize> = Vec::with_capacity(batch.len());
        let arrival = self.now_ns;
        for (i, op) in batch.iter().enumerate() {
            let (local, service_ns, is_write) = match op {
                ShardOp::Read { local } => (*local, 0.0, false),
                ShardOp::Write { local, data } => {
                    let l = usize::try_from(*local).expect("local fits usize");
                    (*local, self.write_service_ns(l, data), true)
                }
            };
            let global = self.map.global(self.shard, local);
            let bank = self
                .mapper
                .decompose(global)
                .flat_bank(self.mapper.config());
            let req = MemRequest {
                id: admitted.len() as u64,
                bank,
                arrival_ns: arrival,
                service_ns,
            };
            let res = if is_write {
                self.ctrl.try_submit_write(req)
            } else {
                self.ctrl.try_submit_read(req)
            };
            match res {
                Ok(()) => admitted.push(i),
                Err(full) => {
                    self.stats.busy_rejections += 1;
                    let wait_ns = (full.retry_at_ns - arrival).max(0.0);
                    // Hint: the controller's own estimate, floored at 50 µs
                    // so clients back off even when the queue could drain
                    // instantly in sim time.
                    let retry_after_us = (wait_ns / 1000.0).ceil().max(50.0) as u32;
                    out.push(ShardOutcome {
                        batch_index: i,
                        response: Response::Busy { retry_after_us },
                        sim_latency_ns: 0.0,
                    });
                }
            }
        }

        // Drain everything admitted: step the controller to each next-issue
        // instant until both queues empty.
        let mut completions = Vec::with_capacity(admitted.len());
        while let Some(t) = self.ctrl.next_issue_ns() {
            self.ctrl.advance(t, &mut completions);
        }
        self.ctrl.advance(f64::INFINITY, &mut completions);

        // Latency per admitted op, keyed by submission id.
        let mut latency = vec![0.0f64; admitted.len()];
        for c in &completions {
            latency[usize::try_from(c.id).expect("id fits")] = c.done_ns - arrival;
            self.now_ns = self.now_ns.max(c.done_ns);
        }

        // Data effects apply in *submission* order, not completion order:
        // the controller's read-first discipline reorders issue, but a read
        // that arrived behind a same-batch write observes it — write-queue
        // forwarding, the behaviour every real controller provides.
        for (id, &batch_index) in admitted.iter().enumerate() {
            let sim_latency_ns = latency[id];
            let response = match &batch[batch_index] {
                ShardOp::Read { local } => {
                    self.stats.reads += 1;
                    self.h_sim_read_ns.record(sim_latency_ns);
                    let data = self.peek(*local);
                    Response::ReadOk {
                        data: Box::new(data),
                    }
                }
                ShardOp::Write { local, data } => {
                    self.stats.writes += 1;
                    self.h_sim_write_ns.record(sim_latency_ns);
                    let l = usize::try_from(*local).expect("local fits usize");
                    let w = self.store.write_verified(l, data);
                    Response::WriteOk {
                        attempts: w.attempts,
                        degraded: w.degraded,
                    }
                }
            };
            self.stats.served += 1;
            out.push(ShardOutcome {
                batch_index,
                response,
                sim_latency_ns,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_a_bijection() {
        let m = ShardMap::new(4, 1024);
        assert_eq!(m.total_lines(), 4096);
        let mut seen = std::collections::HashSet::new();
        for line in 0..m.total_lines() {
            let (s, l) = (m.shard_of(line), m.local_of(line));
            assert!(s < 4 && l < 1024);
            assert_eq!(m.global(s, l), line);
            assert!(seen.insert((s, l)));
        }
        assert!(!m.contains(4096));
        assert!(m.contains(4095));
    }

    #[test]
    fn adjacent_lines_land_on_distinct_shards() {
        let m = ShardMap::new(4, 64);
        let shards: Vec<usize> = (0..4).map(|l| m.shard_of(l)).collect();
        assert_eq!(shards, [0, 1, 2, 3]);
    }

    #[test]
    fn batch_round_trips_data_through_the_stack() {
        let obs = Obs::off();
        let map = ShardMap::new(2, 128);
        let mut b = ShardBackend::new(map, 0, Scheme::UdrvrPr, &obs);
        let data = Box::new([0x3Cu8; LINE_BYTES]);
        let ops = vec![
            ShardOp::Write {
                local: 5,
                data: data.clone(),
            },
            ShardOp::Read { local: 5 },
        ];
        let out = b.service_batch(&ops);
        assert_eq!(out.len(), 2);
        let write = out.iter().find(|o| o.batch_index == 0).unwrap();
        assert!(matches!(
            write.response,
            Response::WriteOk {
                attempts: 1,
                degraded: false
            }
        ));
        assert!(write.sim_latency_ns > 0.0, "writes take scheme time");
        let read = out.iter().find(|o| o.batch_index == 1).unwrap();
        match &read.response {
            Response::ReadOk { data: d } => assert_eq!(**d, *data),
            other => panic!("expected ReadOk, got {other:?}"),
        }
        let s = b.stats();
        assert_eq!((s.served, s.reads, s.writes), (2, 1, 1));
        assert!(s.sim_now_ns > 0.0);
    }

    #[test]
    fn reads_of_pristine_lines_return_zeroes() {
        let obs = Obs::off();
        let mut b = ShardBackend::new(ShardMap::new(1, 8), 0, Scheme::UdrvrPr, &obs);
        let out = b.service_batch(&[ShardOp::Read { local: 3 }]);
        match &out[0].response {
            Response::ReadOk { data } => assert_eq!(**data, [0u8; LINE_BYTES]),
            other => panic!("expected ReadOk, got {other:?}"),
        }
    }

    #[test]
    fn overload_sheds_busy_with_a_retry_hint() {
        let obs = Obs::off();
        let mut b = ShardBackend::new(ShardMap::new(1, 4096), 0, Scheme::UdrvrPr, &obs);
        // The controller's write queue holds queue_entries × channels; a
        // single enormous batch of same-bank writes must overflow it.
        let data = Box::new([0xFFu8; LINE_BYTES]);
        let cap = b.mapper.config().queue_entries * b.mapper.config().channels;
        let ops: Vec<ShardOp> = (0..cap as u64 + 8)
            .map(|k| ShardOp::Write {
                // Same bank: stride by the bank-interleave period.
                local: k * 16,
                data: data.clone(),
            })
            .collect();
        let out = b.service_batch(&ops);
        let busy = out
            .iter()
            .filter(|o| matches!(o.response, Response::Busy { .. }))
            .count();
        assert!(busy > 0, "overflow must shed Busy");
        let served = out.len() - busy;
        assert_eq!(served as u64, b.stats().served);
        assert_eq!(b.stats().busy_rejections, busy as u64);
        if let Some(Response::Busy { retry_after_us }) = out
            .iter()
            .map(|o| &o.response)
            .find(|r| matches!(r, Response::Busy { .. }))
        {
            assert!(*retry_after_us >= 50, "hint floored at 50 µs");
        }
    }

    #[test]
    fn sim_clock_is_monotone_across_batches() {
        let obs = Obs::off();
        let mut b = ShardBackend::new(ShardMap::new(1, 64), 0, Scheme::UdrvrPr, &obs);
        let data = Box::new([0x11u8; LINE_BYTES]);
        let mut last = 0.0;
        for k in 0..4u64 {
            let _ = b.service_batch(&[ShardOp::Write {
                local: k,
                data: data.clone(),
            }]);
            let now = b.stats().sim_now_ns;
            assert!(now > last, "clock must advance");
            last = now;
        }
    }
}
