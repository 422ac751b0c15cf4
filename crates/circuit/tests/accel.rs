//! Acceleration correctness suite: banded line relaxation on any number of
//! threads must be bitwise-identical to one thread, a cold workspace solve
//! must be bitwise-identical to [`Crosspoint::solve`], and warm starts must
//! land on the cold-start answer within solver tolerance.

use reram_circuit::{
    CellDevice, Crosspoint, LineEnd, PolySelector, Solution, SolutionView, SolveError,
    SolveOptions, SolveStats, SolverWorkspace,
};
use reram_obs::Obs;

/// Worst-case RESET bias: selected cell at the far corner, every other
/// line half-selected (rectangular, to exercise strided BL write-back).
fn biased(rows: usize, cols: usize, kr: f64, r_wire: f64) -> Crosspoint {
    let mut cp = Crosspoint::uniform(
        rows,
        cols,
        r_wire,
        CellDevice::Selector(PolySelector::new(90e-6, 3.0, kr)),
    );
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

/// A converged operating point as bit patterns: both voltage planes,
/// row-major, and every statistic.
#[derive(Debug, PartialEq)]
struct Bits {
    wl: Vec<u64>,
    bl: Vec<u64>,
    stats: [u64; 3],
}

impl Bits {
    fn new(cp: &Crosspoint, node: impl Fn(usize, usize) -> (f64, f64), stats: SolveStats) -> Self {
        let (mut wl, mut bl) = (Vec::new(), Vec::new());
        for i in 0..cp.rows() {
            for j in 0..cp.cols() {
                let (w, b) = node(i, j);
                wl.push(w.to_bits());
                bl.push(b.to_bits());
            }
        }
        let stats = [
            stats.sweeps as u64,
            stats.residual_amps.to_bits(),
            stats.max_delta_volts.to_bits(),
        ];
        Self { wl, bl, stats }
    }

    fn of_view(cp: &Crosspoint, view: &SolutionView<'_>) -> Self {
        Self::new(
            cp,
            |i, j| (view.wl_voltage(i, j), view.bl_voltage(i, j)),
            view.stats(),
        )
    }

    fn of_solution(cp: &Crosspoint, sol: &Solution) -> Self {
        Self::new(
            cp,
            |i, j| (sol.wl_voltage(i, j), sol.bl_voltage(i, j)),
            sol.stats(),
        )
    }
}

/// Solves `first` then `second` through one workspace on `threads`
/// threads, returning the second operating point: cold when `warm` is
/// false (the seed is dropped in between), warm-started from `first`
/// otherwise.
fn solve_pair(first: &Crosspoint, second: &Crosspoint, threads: usize, warm: bool) -> Bits {
    let opts = SolveOptions::default();
    let mut ws = SolverWorkspace::new().with_threads(threads);
    first
        .solve_into(&opts, &mut ws, &Obs::off())
        .expect("first solve converges");
    if !warm {
        ws.clear_seed();
    }
    let bits = Bits::of_view(
        second,
        &second
            .solve_into(&opts, &mut ws, &Obs::off())
            .expect("second solve converges"),
    );
    assert_eq!(ws.last_used_warm_start(), warm);
    bits
}

#[test]
fn parallel_solve_is_bitwise_identical_to_serial() {
    // Bands hold at least 64 lines, so 64×64 stays one band, the 200 WLs
    // split 0..96 | 96..200 on two threads and 0..64 | 64..128 | 128..200
    // on three, and the 130 BLs split 0..64 | 64..130. Neither the bands
    // nor the 8-line batches divide the line counts evenly.
    for &(rows, cols) in &[(64usize, 64usize), (200, 72), (65, 130)] {
        let first = biased(rows, cols, 1000.0, 2.82);
        // The second network moves the selected BL by a few millivolts and
        // swaps one device, as a DRVR ramp over a row would.
        let mut second = first.clone();
        second.set_bl_near(cols - 1, LineEnd::driven(3.004));
        second.set_cell(rows / 2, cols / 3, CellDevice::Linear(1e-4));
        let owned = second
            .solve(&SolveOptions::default())
            .expect("owned solve converges");
        for warm in [false, true] {
            let one = solve_pair(&first, &second, 1, warm);
            if !warm {
                assert_eq!(
                    one,
                    Bits::of_solution(&second, &owned),
                    "{rows}x{cols}: a cold workspace solve is Crosspoint::solve"
                );
            }
            for threads in [2usize, 3] {
                let banded = solve_pair(&first, &second, threads, warm);
                assert_eq!(one, banded, "{rows}x{cols} warm={warm} threads={threads}");
            }
        }
    }
}

#[test]
fn warm_start_lands_on_the_cold_start_solution() {
    let n = 32;
    let opts = SolveOptions::default();
    let mut ws = SolverWorkspace::new();
    let (mut warm_sweeps, mut cold_sweeps) = (0usize, 0usize);
    // A RESET voltage ramp, the canonical sweep-style caller.
    for step in 0..8 {
        let vrst = 2.99 + 0.002 * f64::from(step);
        let mut cp = biased(n, n, 1000.0, 2.82);
        for j in 0..n {
            cp.set_bl_near(
                j,
                if j == n - 1 {
                    LineEnd::driven(vrst)
                } else {
                    LineEnd::driven(vrst / 2.0)
                },
            );
        }
        let warm = cp
            .solve_into(&opts, &mut ws, &Obs::off())
            .expect("warm solve converges");
        let cold = cp.solve(&opts).expect("cold solve converges");
        let dv = (warm.cell_voltage(n - 1, n - 1) - cold.cell_voltage(n - 1, n - 1)).abs();
        // Both iterates stopped inside the same tol_volts/tol_amps basin.
        assert!(dv < 1e-9, "warm vs cold differ by {dv} V at vrst={vrst}");
        assert!(warm.stats().residual_amps < opts.tol_amps);
        if step > 0 {
            warm_sweeps += warm.stats().sweeps;
            cold_sweeps += cold.stats().sweeps;
        }
        assert_eq!(ws.last_used_warm_start(), step > 0);
    }
    assert_eq!(ws.warm_hits(), 7);
    // An individual step may cost one extra sweep (the seed is from a
    // slightly different bias), but over the ramp warm starting must win.
    assert!(
        warm_sweeps < cold_sweeps,
        "warm ramp took {warm_sweeps} sweeps vs {cold_sweeps} cold"
    );
}

/// A `rows × cols` array of 10 µS cells whose lines all float except one
/// driven bit-line, with a negative-conductance cell at each of `bad`.
/// When the array is one column (one row) wide, each such cell cancels the
/// node leak of its one-node word-line (bit-line) exactly, so that line's
/// pivot is zero. Physical device models cannot build this.
fn singular(rows: usize, cols: usize, bad: &[(usize, usize)]) -> Crosspoint {
    let mut cp = Crosspoint::uniform(rows, cols, 1.0, CellDevice::Linear(1e-5));
    for &(i, j) in bad {
        cp.set_cell(i, j, CellDevice::Linear(-1e-12));
    }
    if rows == 1 {
        cp.set_wl_left(0, LineEnd::driven(1.0));
    } else {
        cp.set_bl_near(0, LineEnd::driven(1.0));
    }
    cp
}

#[test]
fn singular_line_surfaces_through_the_parallel_path() {
    // Two threads split the 192 word-lines 0..96 | 96..192, three threads
    // 0..64 | 64..128 | 128..192. Word-line 100 is in the second band on
    // two threads; 50 and 70 share a band on two threads and straddle two
    // on three, where the lower band's error must win. Bit-line 100 of a
    // one-row array is flattened line 1 + 100.
    let cases = [
        (singular(192, 1, &[(100, 0)]), 100),
        (singular(192, 1, &[(70, 0), (50, 0)]), 50),
        (singular(1, 192, &[(0, 100)]), 101),
    ];
    for (cp, line) in &cases {
        for threads in [1usize, 2, 3] {
            let mut ws = SolverWorkspace::new().with_threads(threads);
            assert_eq!(
                cp.solve_into(&SolveOptions::default(), &mut ws, &Obs::off())
                    .err(),
                Some(SolveError::SingularLine { line: *line }),
                "threads={threads}"
            );
        }
    }
    // A failed solve must not leave a warm seed behind.
    let mut cp = singular(192, 1, &[(100, 0)]);
    let mut ws = SolverWorkspace::new().with_threads(2);
    assert!(cp
        .solve_into(&SolveOptions::default(), &mut ws, &Obs::off())
        .is_err());
    cp.set_cell(100, 0, CellDevice::Linear(1e-5));
    cp.solve_into(&SolveOptions::default(), &mut ws, &Obs::off())
        .expect("repaired network converges");
    assert!(!ws.last_used_warm_start());
}
