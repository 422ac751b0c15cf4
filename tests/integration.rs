//! Cross-crate integration: the full pipeline from workload bytes to array
//! pulses, and the paper's headline claims.

use reram::core::{Scheme, WriteModel};
use reram::mem::{AddressMapper, FnwCodec, LifetimeModel};
use reram::workloads::{AccessKind, BenchProfile, TraceGenerator};

#[test]
fn headline_lifetime_claim_holds() {
    // "while still maintaining > 10-year main memory system lifetime".
    let wm = WriteModel::paper(Scheme::UdrvrPr);
    let est = LifetimeModel::paper_baseline().estimate(&wm).unwrap();
    assert!(est.years > 10.0, "UDRVR+PR lifetime = {} years", est.years);
}

#[test]
fn headline_latency_improvement_holds() {
    // The array RESET latency collapses from 2.3 µs to the ~71 ns scale.
    let base = WriteModel::paper(Scheme::Baseline)
        .array_reset_latency_ns()
        .unwrap();
    let ours = WriteModel::paper(Scheme::UdrvrPr)
        .array_reset_latency_ns()
        .unwrap();
    assert!(base / ours > 20.0, "ratio = {}", base / ours);
}

#[test]
fn workload_bytes_flow_to_array_pulses() {
    // Trace → FNW → address decomposition → write plan, for every Table IV
    // workload, without failures and with sane magnitudes.
    let mapper = AddressMapper::paper_baseline();
    let fnw = FnwCodec::paper();
    let wm = WriteModel::paper(Scheme::UdrvrPr);
    for profile in BenchProfile::table_iv() {
        let mut writes = 0;
        for acc in TraceGenerator::new(profile, 99).take(3000) {
            let AccessKind::Write { line, old, new, .. } = acc.kind else {
                continue;
            };
            writes += 1;
            let addr = mapper.decompose(line);
            let w = fnw.encode(&old, &[false; 64], &new);
            let plan = wm.plan_line_write_with_data(
                addr.mat_row,
                addr.col_offset,
                &w.resets,
                &w.sets,
                Some(&w.stored),
            );
            assert!(!plan.failed, "{}: write failure", profile.name);
            assert!(plan.cell_writes() <= 512 + 64 * 7, "{}", profile.name);
            if plan.resets > 0 {
                assert!(plan.reset_phase_ns > 0.0);
                assert!(
                    plan.reset_phase_ns < 2500.0,
                    "{}: RESET phase {} ns under UDRVR+PR",
                    profile.name,
                    plan.reset_phase_ns
                );
            }
        }
        assert!(writes > 100, "{}: too few writes generated", profile.name);
    }
}

#[test]
fn pr_extra_writes_match_fig14_scale() {
    // Fig. 14: PR raises cell writes by ≈50 % over plain Flip-N-Write, and
    // D-BL roughly doubles them (+108 %).
    let fnw = FnwCodec::paper();
    let base = WriteModel::paper(Scheme::Drvr);
    let pr = WriteModel::paper(Scheme::DrvrPr);
    let dbl = WriteModel::paper(Scheme::Hard);
    let mapper = AddressMapper::paper_baseline();
    let (mut w_base, mut w_pr, mut w_dbl) = (0u64, 0u64, 0u64);
    let profile = BenchProfile::by_name("mcf_m").unwrap();
    for acc in TraceGenerator::new(profile, 5).take(20_000) {
        let AccessKind::Write { line, old, new, .. } = acc.kind else {
            continue;
        };
        let addr = mapper.decompose(line);
        let w = fnw.encode(&old, &[false; 64], &new);
        let go = |m: &WriteModel| {
            u64::from(
                m.plan_line_write_with_data(
                    addr.mat_row,
                    addr.col_offset,
                    &w.resets,
                    &w.sets,
                    Some(&w.stored),
                )
                .cell_writes(),
            )
        };
        w_base += go(&base);
        w_pr += go(&pr);
        w_dbl += go(&dbl);
    }
    let pr_ratio = w_pr as f64 / w_base as f64;
    let dbl_ratio = w_dbl as f64 / w_base as f64;
    assert!((1.2..2.2).contains(&pr_ratio), "PR ratio = {pr_ratio}");
    assert!(
        dbl_ratio > pr_ratio,
        "D-BL ({dbl_ratio}) must exceed PR ({pr_ratio})"
    );
    assert!((1.6..3.5).contains(&dbl_ratio), "D-BL ratio = {dbl_ratio}");
}

#[test]
fn fig5b_lifetime_ordering() {
    let model = LifetimeModel::paper_baseline();
    let years = |s: Scheme| model.estimate(&WriteModel::paper(s)).unwrap().years;
    let base = years(Scheme::Baseline);
    let udrvr_pr = years(Scheme::UdrvrPr);
    let drvr = years(Scheme::Drvr);
    let drvr_pr = years(Scheme::DrvrPr);
    let over = years(Scheme::StaticOver { volts: 3.7 });
    let hard_sys = model
        .without_wear_leveling()
        .estimate(&WriteModel::paper(Scheme::HardSys))
        .unwrap()
        .years;
    assert!(base > udrvr_pr);
    assert!(udrvr_pr > drvr);
    assert!(drvr > drvr_pr);
    assert!(drvr_pr > hard_sys);
    assert!(hard_sys > over);
}

#[test]
fn overheads_favor_the_proposal() {
    // Fig. 5d vs §IV-D: prior hardware costs ~53 % area / 75 % power; the
    // DRVR family costs a pump upgrade (a few percent of the chip).
    let ours = Scheme::UdrvrPr.chip_overhead();
    let prior = Scheme::HardSys.chip_overhead();
    assert!(ours.area_frac < 0.06);
    assert!(prior.area_frac > 0.5);
    assert!(ours.leakage_frac < 0.06);
    assert!(prior.leakage_frac > 0.7);
}
