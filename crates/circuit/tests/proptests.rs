//! Randomized property tests for the cross-point solver: conservation laws
//! and monotonicity on seeded random networks.
//!
//! These were originally `proptest` suites; they now run on the in-repo
//! [`reram_workloads::Rng64`] generator so the workspace builds with zero
//! registry access. The `proptest` cargo feature (no extra dependencies)
//! multiplies the case counts for a deeper soak.

use reram_circuit::{CellDevice, Crosspoint, LineEnd, PolySelector, SolveOptions, SolverWorkspace};
use reram_obs::Obs;
use reram_workloads::Rng64;

/// Cases per property: 24 by default (matching the old proptest config),
/// 8× that under `--features proptest`.
fn cases(base: usize) -> usize {
    if cfg!(feature = "proptest") {
        base * 8
    } else {
        base
    }
}

fn biased_array(rows: usize, cols: usize, g_cells: &[f64], vrst: f64) -> Crosspoint {
    let mut cp = Crosspoint::uniform(rows, cols, 11.5, CellDevice::Linear(1e-6));
    for i in 0..rows {
        for j in 0..cols {
            cp.set_cell(i, j, CellDevice::Linear(g_cells[i * cols + j]));
        }
    }
    for i in 0..rows {
        cp.set_wl_left(
            i,
            if i == rows - 1 {
                LineEnd::ground()
            } else {
                LineEnd::driven(vrst / 2.0)
            },
        );
    }
    for j in 0..cols {
        cp.set_bl_near(
            j,
            if j == cols - 1 {
                LineEnd::driven(vrst)
            } else {
                LineEnd::driven(vrst / 2.0)
            },
        );
    }
    cp
}

/// Log-uniform cell conductances in `[1e-8, 1e-4)` — matches the old
/// proptest strategy's range while exercising every decade.
fn random_conductances(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| 10f64.powf(rng.gen_range_f64(-8.0, -4.0)))
        .collect()
}

/// Charge conservation: total source current sums to ~0 for arbitrary
/// linear conductance fields.
#[test]
fn charge_conserved_on_random_networks() {
    let mut rng = Rng64::new(0x11);
    for _ in 0..cases(24) {
        let gs = random_conductances(&mut rng, 36);
        let vrst = rng.gen_range_f64(1.0, 4.0);
        let cp = biased_array(6, 6, &gs, vrst);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        assert!(
            sol.total_source_current().abs() < 1e-7,
            "net current {}",
            sol.total_source_current()
        );
    }
}

/// A workspace that cold-starts each network (its seed dropped in
/// between) reproduces the owned one-shot solve plane by plane, bit for
/// bit, whatever network it solved before.
#[test]
fn cold_workspace_solves_match_owned_solves() {
    let mut rng = Rng64::new(0x55);
    let mut ws = SolverWorkspace::new();
    for case in 0..cases(24) {
        let (rows, cols) = (rng.gen_range_usize(2, 9), rng.gen_range_usize(2, 9));
        let gs = random_conductances(&mut rng, rows * cols);
        let cp = biased_array(rows, cols, &gs, rng.gen_range_f64(1.0, 4.0));
        let owned = cp.solve(&SolveOptions::default()).unwrap();
        ws.clear_seed();
        let view = cp
            .solve_into(&SolveOptions::default(), &mut ws, &Obs::off())
            .unwrap();
        assert_eq!(view.stats(), owned.stats(), "case {case}");
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(
                    [view.wl_voltage(i, j), view.bl_voltage(i, j)].map(f64::to_bits),
                    [owned.wl_voltage(i, j), owned.bl_voltage(i, j)].map(f64::to_bits),
                    "case {case}: node ({i},{j})"
                );
            }
        }
    }
}

/// Node voltages stay within the convex hull of the source voltages
/// (maximum principle for resistive networks).
#[test]
fn voltages_bounded_by_sources() {
    let mut rng = Rng64::new(0x22);
    for _ in 0..cases(24) {
        let gs = random_conductances(&mut rng, 25);
        let vrst = rng.gen_range_f64(1.0, 4.0);
        let cp = biased_array(5, 5, &gs, vrst);
        let sol = cp.solve(&SolveOptions::default()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                for v in [sol.wl_voltage(i, j), sol.bl_voltage(i, j)] {
                    assert!(v >= -1e-6 && v <= vrst + 1e-6, "v = {v}");
                }
            }
        }
    }
}

/// The selected cell's voltage never exceeds the applied voltage, and
/// the drop grows monotonically with wire resistance.
#[test]
fn drop_monotone_in_wire_resistance() {
    let mut rng = Rng64::new(0x33);
    let n = 8;
    let mk = |r: f64| {
        let mut cp = Crosspoint::uniform(
            n,
            n,
            r,
            CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0)),
        );
        for i in 0..n {
            cp.set_wl_left(
                i,
                if i == n - 1 {
                    LineEnd::ground()
                } else {
                    LineEnd::driven(1.5)
                },
            );
        }
        for j in 0..n {
            cp.set_bl_near(
                j,
                if j == n - 1 {
                    LineEnd::driven(3.0)
                } else {
                    LineEnd::driven(1.5)
                },
            );
        }
        cp.solve(&SolveOptions::default())
            .unwrap()
            .cell_voltage(n - 1, n - 1)
    };
    for _ in 0..cases(24) {
        let r1 = rng.gen_range_f64(1.0, 20.0);
        let dr = rng.gen_range_f64(1.0, 30.0);
        let v_lo_r = mk(r1);
        let v_hi_r = mk(r1 + dr);
        assert!(v_lo_r <= 3.0 + 1e-9);
        assert!(v_hi_r <= v_lo_r + 1e-9, "{v_hi_r} vs {v_lo_r}");
    }
}

/// Raising the applied voltage raises the selected cell's voltage.
#[test]
fn cell_voltage_monotone_in_applied() {
    let mut rng = Rng64::new(0x44);
    let n = 6;
    let gs = vec![1e-5; n * n];
    for _ in 0..cases(24) {
        let v = rng.gen_range_f64(2.0, 3.5);
        let dv = rng.gen_range_f64(0.05, 1.0);
        let a = biased_array(n, n, &gs, v)
            .solve(&SolveOptions::default())
            .unwrap()
            .cell_voltage(n - 1, n - 1);
        let b = biased_array(n, n, &gs, v + dv)
            .solve(&SolveOptions::default())
            .unwrap()
            .cell_voltage(n - 1, n - 1);
        assert!(b > a, "{b} vs {a}");
    }
}
