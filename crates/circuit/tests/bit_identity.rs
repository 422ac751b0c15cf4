//! Pinned solver output: the WL and BL voltage planes of a few fixed solves
//! must reproduce, bit for bit, the digests recorded below. Any change to
//! the device models, the network storage or the relaxation kernel that
//! moves a single low-order bit of a node voltage fails here, not only in
//! the end-to-end `SimResult` digest of the benchmark.
//!
//! Each network is solved cold (fresh workspace) and warm (from the
//! converged point of a neighbouring network), on one and on two relaxation
//! threads; both thread counts must land on the same recorded digest, and
//! the cold one on that of the owned [`Crosspoint::solve`].

use reram_circuit::{
    CellDevice, CompliantCell, Crosspoint, LineEnd, PolySelector, SeriesCell, SolveOptions,
    SolverWorkspace,
};
use reram_obs::Obs;
use reram_workloads::Rng64;

const ROWS: usize = 48;
const COLS: usize = 40;

/// The paper's LRS selector (Table I: `Ion = 90 µA`, `Kr = 1000`).
fn lrs() -> PolySelector {
    PolySelector::new(90e-6, 3.0, 1000.0)
}

/// Half-bias RESET scheme: the last row is grounded, `selected` bit-lines
/// are driven at `vrst`, every other line end near `vrst / 2`. The
/// unselected ends are offset by a few tens of millivolts, line by line,
/// so the unselected cells' biases spread from 0 to ~80 mV and the solves
/// evaluate selectors on both sides of their quiet bound (≈ 7 mV).
fn bias(cp: &mut Crosspoint, selected: &[usize], vrst: f64) {
    for i in 0..ROWS {
        let end = if i == ROWS - 1 {
            LineEnd::ground()
        } else {
            LineEnd::driven(vrst / 2.0 - 0.004 * (i % 7) as f64)
        };
        cp.set_wl_left(i, end);
    }
    for j in 0..COLS {
        let v = if selected.contains(&j) {
            vrst
        } else {
            vrst / 2.0 + 0.006 * (j % 11) as f64
        };
        cp.set_bl_near(j, LineEnd::driven(v));
    }
}

/// All-LRS array with three compliance-limited selected cells.
fn lrs_compliant(vrst: f64) -> Crosspoint {
    let selected = [5, 21, COLS - 1];
    let mut cp = Crosspoint::uniform(ROWS, COLS, 2.82, CellDevice::Selector(lrs()));
    for &j in &selected {
        cp.set_cell(
            ROWS - 1,
            j,
            CellDevice::Compliant(CompliantCell::new(90e-6, 0.25)),
        );
    }
    bias(&mut cp, &selected, vrst);
    cp
}

/// HRS-heavy array: weak selectors, with a checkerboard of series cells.
fn hrs(vrst: f64) -> Crosspoint {
    let weak = CellDevice::Selector(PolySelector::new(9e-6, 3.0, 1000.0));
    let series = CellDevice::Series(SeriesCell::new(lrs(), 100e3));
    let mut cp = Crosspoint::uniform(ROWS, COLS, 2.82, weak);
    for i in 0..ROWS {
        for j in 0..COLS {
            if (i + j) % 2 == 0 {
                cp.set_cell(i, j, series);
            }
        }
    }
    bias(&mut cp, &[COLS - 1], vrst);
    cp
}

/// Random linear conductances over four decades.
fn random_linear(vrst: f64) -> Crosspoint {
    let mut rng = Rng64::new(0x5eed_0001);
    let mut cp = Crosspoint::uniform(ROWS, COLS, 11.5, CellDevice::Linear(1e-6));
    for i in 0..ROWS {
        for j in 0..COLS {
            let g = 10f64.powf(rng.gen_range_f64(-8.0, -4.0));
            cp.set_cell(i, j, CellDevice::Linear(g));
        }
    }
    bias(&mut cp, &[COLS - 1], vrst);
    cp
}

/// FNV-1a over the bit patterns of both voltage planes, row-major; `node`
/// gives the (WL, BL) voltages at a junction.
fn planes_digest(node: impl Fn(usize, usize) -> [f64; 2]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..ROWS {
        for j in 0..COLS {
            for v in node(i, j) {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Digests of the cold solve of `build(3.0)` and of the warm solve of
/// `build(3.01)` seeded from it, on `threads` relaxation threads.
fn digests(build: fn(f64) -> Crosspoint, threads: usize) -> (u64, u64) {
    let opts = SolveOptions::default();
    let mut ws = SolverWorkspace::new().with_threads(threads);
    let sol = build(3.0)
        .solve_into(&opts, &mut ws, &Obs::off())
        .expect("cold solve");
    let cold = planes_digest(|i, j| [sol.wl_voltage(i, j), sol.bl_voltage(i, j)]);
    assert!(!ws.last_used_warm_start());
    let sol = build(3.01)
        .solve_into(&opts, &mut ws, &Obs::off())
        .expect("warm solve");
    let warm = planes_digest(|i, j| [sol.wl_voltage(i, j), sol.bl_voltage(i, j)]);
    assert!(ws.last_used_warm_start());
    (cold, warm)
}

fn check(name: &str, build: fn(f64) -> Crosspoint, want: (u64, u64)) {
    let owned = build(3.0)
        .solve(&SolveOptions::default())
        .expect("owned solve");
    assert_eq!(
        planes_digest(|i, j| [owned.wl_voltage(i, j), owned.bl_voltage(i, j)]),
        want.0,
        "{name}: owned cold solve"
    );
    for threads in [1, 2] {
        let got = digests(build, threads);
        assert_eq!(
            got, want,
            "{name} on {threads} thread(s): (cold, warm) digests {:#018x}, {:#018x}",
            got.0, got.1
        );
    }
}

#[test]
fn lrs_compliant_planes_are_pinned() {
    check(
        "lrs+compliant",
        lrs_compliant,
        (0x9874_9ea4_2ad8_8e81, 0x27aa_6bc8_4039_99db),
    );
}

#[test]
fn hrs_planes_are_pinned() {
    check("hrs", hrs, (0x660c_6e07_37da_9e96, 0x4b7d_bd68_e34b_a718));
}

#[test]
fn random_linear_planes_are_pinned() {
    check(
        "random-linear",
        random_linear,
        (0x7544_d10a_292f_ff1f, 0x8dd4_2ebf_3cc3_9257),
    );
}
