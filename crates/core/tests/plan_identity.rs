//! The write planner against a verbatim copy of the planner it replaced:
//! every [`WritePlan`] field must agree bit for bit, for every [`Scheme`],
//! on seeded random rows, column offsets, masks and data.

use reram_array::{ArrayGeometry, ArrayModel, Spread, TechNode, WriteOutcome};
use reram_core::{partition_reset, Scheme, WriteModel, WritePlan};
use reram_workloads::Rng64;

/// Random lines per (model, scheme): 64 by default, 8× that under
/// `--features proptest`.
fn cases() -> usize {
    if cfg!(feature = "proptest") {
        512
    } else {
        64
    }
}

/// The reference planner: per-bit effective voltages recomputed from the
/// drop model, every bit's Eq. 1 outcome evaluated afresh, every slice
/// visited.
fn reference_plan(
    wm: &WriteModel,
    row: usize,
    col_offset: usize,
    resets: &[u8],
    sets: &[u8],
    final_data: Option<&[u8]>,
) -> WritePlan {
    let model = wm.model();
    let geom = model.geometry();
    let dm = model.drop_model();
    let data_width = geom.data_width();
    let kin = model.kinetics();
    let effective_volts = |i: usize, b: usize, n: usize, spread: Spread| {
        let j = geom.group_start(b) + col_offset;
        let w = dm.window();
        let factor = model.partition().wl_factor_spread_at(n, spread, j % w, w);
        wm.applied_volts(i, b) - dm.bl_drop(i) - dm.wl_drop(j, 1) * factor
    };
    let mut plan = WritePlan::default();
    for (s, (&r_mask, &s_mask)) in resets.iter().zip(sets).enumerate() {
        let (reset_bits, set_bits, pr_dummy_r, pr_dummy_s, dbl_dummies, spread) =
            if wm.scheme().uses_pr() {
                let fd = final_data.map_or(0xFF, |d| d[s]);
                let p = partition_reset(r_mask, s_mask, fd);
                (
                    p.reset_bits,
                    p.set_bits,
                    p.dummy_resets.count_ones(),
                    p.dummy_sets.count_ones(),
                    0u32,
                    Spread::Even,
                )
            } else {
                let design = model.design();
                let dummies = design.dummy_resets(r_mask.count_ones() as usize, data_width) as u32;
                let spread = if design.dummy_bl {
                    Spread::Even
                } else {
                    Spread::Random
                };
                (r_mask, s_mask, 0, 0, dummies, spread)
            };
        let mut slice_slowest_ns = 0.0f64;
        let mut remaining = reset_bits;
        let extra = dbl_dummies as usize;
        while remaining != 0 {
            let n_concurrent = remaining.count_ones() as usize + extra;
            let mut round_ns = 0.0f64;
            let mut completed = 0u8;
            for b in 0..data_width {
                if remaining & (1 << b) == 0 {
                    continue;
                }
                let veff = effective_volts(row, b, n_concurrent, spread);
                if let WriteOutcome::Completes { latency_ns } = kin.outcome(veff) {
                    completed |= 1 << b;
                    round_ns = round_ns.max(latency_ns);
                    plan.reset_energy_pj +=
                        wm.applied_volts(row, b) * model.cell().i_on * latency_ns * 1e3;
                }
            }
            if completed == 0 {
                if n_concurrent <= 1 {
                    plan.failed = true;
                    break;
                }
                let b = remaining.trailing_zeros() as usize;
                let veff = effective_volts(row, b, 1, spread);
                match kin.outcome(veff) {
                    WriteOutcome::Completes { latency_ns } => {
                        completed = 1 << b;
                        round_ns = latency_ns;
                        plan.reset_energy_pj +=
                            wm.applied_volts(row, b) * model.cell().i_on * latency_ns * 1e3;
                    }
                    WriteOutcome::Fails { .. } => {
                        plan.failed = true;
                        break;
                    }
                }
            }
            slice_slowest_ns += round_ns;
            remaining &= !completed;
        }
        if dbl_dummies > 0 {
            plan.reset_energy_pj += f64::from(dbl_dummies)
                * model.cell().v_full
                * model.cell().i_on
                * slice_slowest_ns
                * 1e3;
        }
        plan.reset_phase_ns = plan.reset_phase_ns.max(slice_slowest_ns);
        plan.resets += reset_bits.count_ones() + dbl_dummies;
        plan.sets += set_bits.count_ones();
        plan.dummy_resets += pr_dummy_r + dbl_dummies;
        plan.dummy_sets += pr_dummy_s;
    }
    if plan.sets > 0 {
        let sp = wm.set_params();
        plan.set_phase_ns = sp.latency_ns;
        plan.set_energy_pj = f64::from(plan.sets) * sp.energy_pj();
    }
    plan
}

fn assert_same(got: &WritePlan, want: &WritePlan, what: &str) {
    let floats = |p: &WritePlan| {
        [
            p.reset_phase_ns,
            p.set_phase_ns,
            p.reset_energy_pj,
            p.set_energy_pj,
        ]
        .map(f64::to_bits)
    };
    let counts = |p: &WritePlan| (p.resets, p.sets, p.dummy_resets, p.dummy_sets, p.failed);
    assert_eq!(floats(got), floats(want), "{what}: {got:?} vs {want:?}");
    assert_eq!(counts(got), counts(want), "{what}: {got:?} vs {want:?}");
}

/// A line's transition masks at one of three densities: untouched slices
/// dominate sparse lines (the common trace write), dense lines drive the
/// retry and failure paths.
fn random_line(rng: &mut Rng64, density: usize) -> ([u8; 64], [u8; 64], [u8; 64]) {
    let mut resets = [0u8; 64];
    let mut sets = [0u8; 64];
    let mut data = [0u8; 64];
    rng.fill_bytes(&mut data);
    for s in 0..64 {
        let (r, st) = (rng.next_u64() as u8, rng.next_u64() as u8);
        let (r, st) = match density {
            0 if rng.gen_bool(0.6) => (0, 0),
            0 => (r & rng.next_u64() as u8 & rng.next_u64() as u8, 0),
            1 => (r, st),
            _ => (r | rng.next_u64() as u8, st),
        };
        resets[s] = r;
        sets[s] = st & !r;
    }
    (resets, sets, data)
}

#[test]
fn planner_matches_the_reference_bit_for_bit() {
    let schemes = [
        Scheme::Baseline,
        Scheme::StaticOver { volts: 3.7 },
        Scheme::Hard,
        Scheme::HardSys,
        Scheme::Drvr,
        Scheme::DrvrPr,
        Scheme::UdrvrPr,
        Scheme::Udrvr394,
        Scheme::Oracle { window: 64 },
        Scheme::Oracle { window: 256 },
    ];
    let models = [
        ArrayModel::paper_baseline(),
        ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(1024, 8)),
        ArrayModel::paper_baseline()
            .with_geometry(ArrayGeometry::new(256, 8))
            .with_tech(TechNode::Custom(12.0)),
    ];
    let mut rng = Rng64::new(0x91A7);
    let mut failed = 0;
    let mut plans = 0;
    for base in models {
        for scheme in schemes {
            let wm = WriteModel::new(base, scheme);
            let geom = wm.model().geometry();
            for case in 0..cases() {
                let row = match case % 4 {
                    0 => geom.size() - 1,
                    _ => rng.gen_range_usize(0, geom.size()),
                };
                let off = rng.gen_range_usize(0, geom.cols_per_group());
                let (resets, sets, data) = random_line(&mut rng, case % 3);
                for final_data in [Some(&data[..]), None] {
                    let got = wm.plan_line_write_with_data(row, off, &resets, &sets, final_data);
                    let want = reference_plan(&wm, row, off, &resets, &sets, final_data);
                    let what = format!("{scheme:?} on {geom:?}, row {row}, offset {off}");
                    assert_same(&got, &want, &what);
                    failed += usize::from(got.failed);
                    plans += 1;
                }
            }
        }
    }
    // The sweep reaches the failure path without living on it.
    assert!(
        failed > 0 && failed < plans / 2,
        "{failed} of {plans} failed"
    );
}
