//! Instrumentation must not perturb the numerics: `solve_observed` and
//! `solve_into` through a null-sink registry (and through a detached
//! handle) must produce voltage maps bitwise identical to the plain `solve`
//! entry point.

use reram_circuit::{CellDevice, Crosspoint, LineEnd, SolveOptions, SolverWorkspace};
use reram_obs::Obs;
use reram_workloads::Rng64;

fn random_array(rng: &mut Rng64, rows: usize, cols: usize) -> Crosspoint {
    let mut cp = Crosspoint::uniform(rows, cols, 11.5, CellDevice::Linear(1e-6));
    for i in 0..rows {
        for j in 0..cols {
            let g = 10f64.powf(rng.gen_range_f64(-8.0, -4.0));
            cp.set_cell(i, j, CellDevice::Linear(g));
        }
    }
    for i in 0..rows {
        cp.set_wl_left(
            i,
            if i == rows - 1 {
                LineEnd::ground()
            } else {
                LineEnd::driven(1.5)
            },
        );
    }
    for j in 0..cols {
        cp.set_bl_near(
            j,
            if j == cols - 1 {
                LineEnd::driven(3.0)
            } else {
                LineEnd::driven(1.5)
            },
        );
    }
    cp
}

#[test]
fn null_sink_solve_is_bitwise_identical() {
    let mut rng = Rng64::new(0xB51D);
    let opts = SolveOptions::default();
    for _ in 0..8 {
        let cp = random_array(&mut rng, 24, 24);
        let plain = cp.solve(&opts).expect("converges");
        let nullsink = cp.solve_observed(&opts, &Obs::new()).expect("converges");
        let detached = cp.solve_observed(&opts, &Obs::off()).expect("converges");
        let (mut ws_null, mut ws_off) = (SolverWorkspace::new(), SolverWorkspace::new());
        let view_null = cp
            .solve_into(&opts, &mut ws_null, &Obs::new())
            .expect("converges");
        let view_off = cp
            .solve_into(&opts, &mut ws_off, &Obs::off())
            .expect("converges");
        let want = |i, j| [plain.wl_voltage(i, j), plain.bl_voltage(i, j)].map(f64::to_bits);
        for i in 0..24 {
            for j in 0..24 {
                let got = [
                    (
                        "null-sink",
                        [nullsink.wl_voltage(i, j), nullsink.bl_voltage(i, j)],
                    ),
                    (
                        "detached",
                        [detached.wl_voltage(i, j), detached.bl_voltage(i, j)],
                    ),
                    (
                        "null-sink view",
                        [view_null.wl_voltage(i, j), view_null.bl_voltage(i, j)],
                    ),
                    (
                        "detached view",
                        [view_off.wl_voltage(i, j), view_off.bl_voltage(i, j)],
                    ),
                ];
                for (label, planes) in got {
                    assert_eq!(
                        planes.map(f64::to_bits),
                        want(i, j),
                        "{label} (WL, BL) voltages differ at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn observed_warm_solve_counts_warm_hits() {
    let mut rng = Rng64::new(0xB53D);
    let obs = Obs::new();
    let cp = random_array(&mut rng, 16, 16);
    let mut ws = SolverWorkspace::new();
    for _ in 0..3 {
        cp.solve_into(&SolveOptions::default(), &mut ws, &obs)
            .expect("converges");
    }
    let count = |name: &str| {
        obs.summary()
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} registered"))
            .count
    };
    assert_eq!(count("circuit.solve.solves"), 3);
    assert_eq!(count("circuit.solve.warm_hits"), 2);
    assert_eq!(count("circuit.solve.sweeps"), 3);
}

#[test]
fn observed_solve_records_iterations() {
    let mut rng = Rng64::new(0xB52D);
    let obs = Obs::new();
    let cp = random_array(&mut rng, 16, 16);
    cp.solve_observed(&SolveOptions::default(), &obs)
        .expect("converges");
    let summary = obs.summary();
    let sweeps = summary
        .iter()
        .find(|m| m.name == "circuit.solve.sweeps")
        .expect("sweep histogram registered");
    assert_eq!(sweeps.count, 1);
    assert!(sweeps.max.unwrap() >= 1.0);
    assert_eq!(
        summary
            .iter()
            .find(|m| m.name == "circuit.solve.solves")
            .expect("solve counter registered")
            .count,
        1
    );
}
