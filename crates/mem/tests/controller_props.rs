//! Randomized property tests for the memory controller's scheduling
//! discipline, driven by the in-repo [`reram_workloads::Rng64`] generator.
//! The `proptest` cargo feature multiplies the case counts.

use reram_mem::{MemoryConfig, MemoryController, Request};
use reram_workloads::Rng64;

/// Cases per property: 32 by default (matching the old proptest config),
/// 8× that under `--features proptest`.
fn cases(base: usize) -> usize {
    if cfg!(feature = "proptest") {
        base * 8
    } else {
        base
    }
}

#[derive(Debug, Clone)]
struct Arrival {
    is_write: bool,
    bank: usize,
    gap_ns: f64,
    service_ns: f64,
}

fn random_arrivals(rng: &mut Rng64, n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|_| Arrival {
            is_write: rng.gen_bool(0.5),
            bank: rng.gen_range_usize(0, 16),
            gap_ns: rng.gen_range_f64(1.0, 200.0),
            service_ns: rng.gen_range_f64(20.0, 2500.0),
        })
        .collect()
}

fn drive(arrivals: &[Arrival]) -> (Vec<reram_mem::Completion>, u64, u64) {
    let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
    let mut done = Vec::new();
    let mut t = 0.0;
    let (mut reads, mut writes) = (0u64, 0u64);
    for (k, a) in arrivals.iter().enumerate() {
        t += a.gap_ns;
        let req = Request {
            id: k as u64,
            bank: a.bank,
            arrival_ns: t,
            service_ns: a.service_ns,
        };
        loop {
            let ok = if a.is_write {
                mc.submit_write(req)
            } else {
                mc.submit_read(req)
            };
            if ok {
                if a.is_write {
                    writes += 1;
                } else {
                    reads += 1;
                }
                break;
            }
            // Queue full: wait for progress before retrying.
            let next = mc.next_issue_ns().unwrap_or(t) + 1.0;
            t = t.max(next);
            mc.advance(t, &mut done);
        }
    }
    mc.advance(f64::INFINITY, &mut done);
    (done, reads, writes)
}

/// No request is ever lost or duplicated: everything submitted
/// completes exactly once.
#[test]
fn conservation() {
    let mut rng = Rng64::new(0xC1);
    for _ in 0..cases(32) {
        let arrivals = random_arrivals(&mut rng, 120);
        let (done, reads, writes) = drive(&arrivals);
        assert_eq!(done.len() as u64, reads + writes);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, reads + writes);
        let done_writes = done.iter().filter(|c| c.is_write).count() as u64;
        assert_eq!(done_writes, writes);
    }
}

/// Causality: nothing completes before it arrived plus its minimum
/// service, and queue waits are non-negative.
#[test]
fn causality() {
    let mut rng = Rng64::new(0xC2);
    let cfg = MemoryConfig::paper_baseline();
    for _ in 0..cases(32) {
        let arrivals = random_arrivals(&mut rng, 80);
        let (done, _, _) = drive(&arrivals);
        for c in &done {
            assert!(c.queued_ns >= -1e-9, "negative queue wait");
            let min_service = if c.is_write {
                cfg.mc_to_bank_ns() + cfg.t_cwd_ns
            } else {
                cfg.mc_to_bank_ns() + cfg.read_service_ns()
            };
            assert!(c.done_ns >= c.queued_ns + min_service - 1e-6);
        }
    }
}

/// Same-bank operations never overlap: per bank, the busy intervals the
/// stats report add up to at least the per-op floor.
#[test]
fn bank_busy_accounting() {
    let mut rng = Rng64::new(0xC3);
    let cfg = MemoryConfig::paper_baseline();
    for _ in 0..cases(32) {
        let arrivals = random_arrivals(&mut rng, 60);
        let mut mc = MemoryController::new(cfg);
        let mut t = 0.0;
        let mut accepted = 0u64;
        let mut done = Vec::new();
        for (k, a) in arrivals.iter().enumerate() {
            t += a.gap_ns;
            let req = Request {
                id: k as u64,
                bank: a.bank,
                arrival_ns: t,
                service_ns: a.service_ns,
            };
            if if a.is_write {
                mc.submit_write(req)
            } else {
                mc.submit_read(req)
            } {
                accepted += 1;
            }
            mc.advance(t, &mut done);
        }
        mc.advance(f64::INFINITY, &mut done);
        let st = mc.stats();
        assert_eq!(st.reads + st.writes, accepted);
        assert!(st.bank_busy_ns >= accepted as f64 * cfg.t_cwd_ns.min(cfg.read_service_ns()));
    }
}
