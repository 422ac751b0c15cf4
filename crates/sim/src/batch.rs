//! Deterministic parallel execution of independent simulator runs.
//!
//! Every figure in the paper's evaluation is a set of *independent*
//! [`Simulator`] runs (scheme × benchmark × array point) whose results are
//! reduced in a fixed order. [`run_batch`] fans such a set out over a
//! [`reram_exec::ThreadPool`] and returns results **in submission order**,
//! so any downstream reduction (speedup ratios, gmeans) performs its
//! floating-point operations exactly as the serial loop would —
//! bitwise-identical output regardless of worker count.
//!
//! Each run is internally deterministic already (explicit seed, no wall
//! clock in the model), so index-ordered collection is the only thing
//! parallelism needs to preserve — and a run's result is a pure function of
//! its [`Simulator::memo_key`]. [`run_batch`] therefore runs each distinct
//! key once per pool, through the pool's [`reram_exec::Memo`]: Fig. 16 and
//! Fig. 17 reuse Fig. 15's runs, Fig. 5c its ora-64/Hard/Hard+Sys runs, and
//! the sweeps' baseline points one another's, whenever they share a pool.
//! A repeat does not re-emit the run's telemetry; it counts one
//! `sim.memo.hits` in its own simulator's registry instead.

use crate::{SimResult, Simulator};
use reram_exec::{par_map, ThreadPool};

/// Runs every simulator on the pool; `results[i]` is `sims[i].run()`.
///
/// A simulator whose [`Simulator::memo_key`] the pool has seen before —
/// earlier in this batch or in an earlier batch on the same pool — is
/// served from the pool's memo instead of running again; concurrent
/// requests for one key run it once. Runs without a key (fault injection,
/// surrogate physics) always execute.
///
/// On a [`ThreadPool::serial`] pool this degrades to exact serial
/// iteration on the calling thread.
#[must_use]
pub fn run_batch(pool: &ThreadPool, sims: Vec<Simulator>) -> Vec<SimResult> {
    let memo = pool.memo().clone();
    par_map(pool, sims, move |_i, sim| match sim.memo_key() {
        Some(key) => {
            let hits = sim.obs().counter("sim.memo.hits");
            let (result, hit) = memo.get_or_run(key, || sim.run());
            if hit {
                hits.inc();
            }
            result
        }
        None => sim.run(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Knobs, Physics, SimConfig};
    use reram_array::{ArrayGeometry, ArrayModel, TechNode};
    use reram_core::Scheme;
    use reram_fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
    use reram_obs::Obs;
    use reram_workloads::BenchProfile;
    use std::sync::Arc;

    fn mcf() -> BenchProfile {
        BenchProfile::by_name("mcf_m").expect("table IV")
    }

    #[test]
    fn batch_matches_individual_runs() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(8_000);
        let sims: Vec<Simulator> = [Scheme::Baseline, Scheme::Hard, Scheme::UdrvrPr]
            .iter()
            .map(|&s| Simulator::new(cfg, s, mcf(), 7))
            .collect();
        let serial: Vec<SimResult> = sims.iter().map(Simulator::run).collect();
        let batched = run_batch(&ThreadPool::new(3), sims);
        assert_eq!(serial, batched);
    }

    #[test]
    fn repeats_are_served_from_the_pool_memo() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(8_000);
        let obs = Obs::new();
        let a = Simulator::new(cfg, Scheme::Hard, mcf(), 7).with_obs(&obs);
        let b = Simulator::new(cfg, Scheme::UdrvrPr, mcf(), 7).with_obs(&obs);
        let sims = vec![a.clone(), b.clone(), a.clone(), a.clone(), b.clone()];
        let expect: Vec<SimResult> = sims.iter().map(Simulator::run).collect();
        let pool = ThreadPool::new(2);
        assert_eq!(run_batch(&pool, sims), expect);
        assert_eq!(obs.counter("sim.memo.hits").get(), 3);
        assert_eq!(pool.memo().len(), 2);
        // A later batch on the same pool is served too; a fresh pool is not.
        assert_eq!(run_batch(&pool, vec![b.clone()]), vec![expect[1]]);
        assert_eq!(obs.counter("sim.memo.hits").get(), 4);
        assert_eq!(run_batch(&ThreadPool::serial(), vec![b]), vec![expect[1]]);
        assert_eq!(obs.counter("sim.memo.hits").get(), 4);
    }

    #[test]
    fn changing_any_key_field_is_a_miss() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(4_000);
        let small = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(64, 8));
        let base = || Simulator::new(cfg, Scheme::Drvr, mcf(), 11).with_array(small);
        let variants = vec![
            base(),
            Simulator::new(
                cfg.with_instructions_per_core(4_001),
                Scheme::Drvr,
                mcf(),
                11,
            )
            .with_array(small),
            Simulator::new(cfg, Scheme::UdrvrPr, mcf(), 11).with_array(small),
            Simulator::new(
                cfg,
                Scheme::Drvr,
                BenchProfile::by_name("ast_m").expect("iv"),
                11,
            )
            .with_array(small),
            Simulator::new(cfg, Scheme::Drvr, mcf(), 12).with_array(small),
            base().with_knobs(Knobs {
                per_plan_timing: Some(true),
                ..Knobs::default()
            }),
            base().with_array(small.with_tech(TechNode::N32)),
            base().with_physics(Physics::Solver),
        ];
        let keys: std::collections::BTreeSet<String> = variants
            .iter()
            .map(|s| s.memo_key().expect("memoizable"))
            .collect();
        assert_eq!(keys.len(), variants.len(), "every field reaches the key");
        let obs = Obs::new();
        let variants: Vec<Simulator> = variants.into_iter().map(|s| s.with_obs(&obs)).collect();
        let pool = ThreadPool::new(2);
        let first = run_batch(&pool, variants.clone());
        assert_eq!(obs.counter("sim.memo.hits").get(), 0);
        assert_eq!(run_batch(&pool, variants.clone()), first);
        assert_eq!(obs.counter("sim.memo.hits").get(), variants.len() as u64);
    }

    #[test]
    fn fault_injected_twins_both_execute() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(20_000);
        let droops = 4u64;
        let plan = || {
            (0..droops).fold(FaultPlan::new(7), |plan, k| {
                plan.with(
                    FaultSpec::new(reram_fault::site::PUMP, FaultKind::PumpDroop)
                        .occurrence(k * 17),
                )
            })
        };
        let obs = Obs::new();
        let injectors: Vec<Arc<FaultInjector>> = (0..2)
            .map(|_| Arc::new(FaultInjector::new(plan(), &obs)))
            .collect();
        let twin = |inj: &Arc<FaultInjector>| {
            Simulator::new(cfg, Scheme::Baseline, mcf(), 42)
                .with_obs(&obs)
                .with_faults(Arc::clone(inj))
        };
        assert_eq!(twin(&injectors[0]).memo_key(), None);
        let pool = ThreadPool::new(2);
        let res = run_batch(&pool, injectors.iter().map(twin).collect());
        for inj in &injectors {
            assert_eq!(inj.injected(), droops, "the injector fires for each twin");
        }
        assert_eq!(res[0], res[1], "injection is seeded");
        let clean_obs = Obs::new();
        let _clean = Simulator::new(cfg, Scheme::Baseline, mcf(), 42)
            .with_obs(&clean_obs)
            .run();
        assert_eq!(
            obs.counter("mem.pump.recharges").get(),
            2 * (clean_obs.counter("mem.pump.recharges").get() + droops),
            "both twins ran, each droop costing one extra recharge"
        );
        assert_eq!(obs.counter("sim.memo.hits").get(), 0);
        assert!(pool.memo().is_empty());
    }
}
