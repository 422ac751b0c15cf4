//! Acceleration correctness suite: banded line relaxation on any number of
//! threads must be bitwise-identical to one thread, warm starts must land
//! on the cold-start answer within solver tolerance, and the linearization
//! cache must never change a converged solution (exact-match epsilon:
//! bitwise; loose epsilon: within the residual-checked tolerance).

use reram_circuit::{
    CellDevice, Crosspoint, LineEnd, PolySelector, Solution, SolveError, SolveOptions,
    SolverWorkspace,
};

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

/// Asserts two solutions are bitwise-identical in every observable field.
fn assert_bitwise_eq(a: &Solution, b: &Solution, ctx: &str) {
    assert_eq!(a.stats().sweeps, b.stats().sweeps, "sweeps differ: {ctx}");
    assert_eq!(
        a.stats().residual_amps.to_bits(),
        b.stats().residual_amps.to_bits(),
        "residual differs: {ctx}"
    );
    assert_eq!(a, b, "solutions differ: {ctx}");
}

/// Solves `first` then `second` through one workspace on `threads`
/// threads, returning the second solution: cold when `warm` is false (the
/// seed is dropped in between), warm-started from `first` otherwise.
fn solve_pair(
    first: &Crosspoint,
    second: &Crosspoint,
    opts: &SolveOptions,
    threads: usize,
    warm: bool,
) -> Solution {
    let mut ws = SolverWorkspace::new().with_threads(threads);
    first
        .solve_warm(opts, &mut ws)
        .expect("first solve converges");
    if !warm {
        ws.clear_seed();
    }
    let sol = second
        .solve_warm(opts, &mut ws)
        .expect("second solve converges");
    assert_eq!(ws.last_used_warm_start(), warm);
    sol
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
        for eps in [None, Some(1e-5)] {
            let opts = SolveOptions {
                lin_cache_epsilon_volts: eps,
                ..SolveOptions::default()
            };
            for warm in [false, true] {
                let one = solve_pair(&first, &second, &opts, 1, warm);
                for threads in [2usize, 3] {
                    let banded = solve_pair(&first, &second, &opts, threads, warm);
                    let ctx = format!("{rows}x{cols} eps={eps:?} warm={warm} threads={threads}");
                    assert_bitwise_eq(&one, &banded, &ctx);
                    assert_eq!(
                        one.stats().max_delta_volts.to_bits(),
                        banded.stats().max_delta_volts.to_bits(),
                        "max_delta_volts differs: {ctx}"
                    );
                    // Spot-check the planes cell by cell, not just via
                    // PartialEq.
                    for i in [0, rows / 2, rows - 1] {
                        for j in [0, cols / 2, cols - 1] {
                            assert_eq!(
                                one.wl_voltage(i, j).to_bits(),
                                banded.wl_voltage(i, j).to_bits()
                            );
                            assert_eq!(
                                one.bl_voltage(i, j).to_bits(),
                                banded.bl_voltage(i, j).to_bits()
                            );
                            assert_eq!(
                                one.cell_current(i, j).to_bits(),
                                banded.cell_current(i, j).to_bits()
                            );
                        }
                    }
                }
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
        let warm = cp.solve_warm(&opts, &mut ws).expect("warm solve converges");
        let cold = cp.solve(&opts).expect("cold solve converges");
        assert_eq!(ws.last_used_warm_start(), step > 0);
        let dv = (warm.cell_voltage(n - 1, n - 1) - cold.cell_voltage(n - 1, n - 1)).abs();
        // Both iterates stopped inside the same tol_volts/tol_amps basin.
        assert!(dv < 1e-9, "warm vs cold differ by {dv} V at vrst={vrst}");
        assert!(warm.stats().residual_amps < opts.tol_amps);
        if step > 0 {
            warm_sweeps += warm.stats().sweeps;
            cold_sweeps += cold.stats().sweeps;
        }
    }
    assert_eq!(ws.warm_hits(), 7);
    // An individual step may cost one extra sweep (the seed is from a
    // slightly different bias), but over the ramp warm starting must win.
    assert!(
        warm_sweeps < cold_sweeps,
        "warm ramp took {warm_sweeps} sweeps vs {cold_sweeps} cold"
    );
}

#[test]
fn exact_match_cache_is_bitwise_identical_to_disabled() {
    let cp = biased(24, 24, 1000.0, 2.82);
    let cached = cp
        .solve(&SolveOptions {
            lin_cache_epsilon_volts: Some(0.0),
            ..SolveOptions::default()
        })
        .expect("cached solve converges");
    let plain = cp
        .solve(&SolveOptions {
            lin_cache_epsilon_volts: None,
            ..SolveOptions::default()
        })
        .expect("uncached solve converges");
    assert_bitwise_eq(&cached, &plain, "eps=0.0 vs disabled");
}

#[test]
fn exact_match_cache_after_device_swap_needs_invalidation() {
    // Cache entries are keyed by cell position: once devices change under
    // a warm workspace, `Some(0.0)` only matches `None` bitwise if the
    // caller invalidates the cache first.
    let n = 24;
    let zero = SolveOptions {
        lin_cache_epsilon_volts: Some(0.0),
        ..SolveOptions::default()
    };
    let none = SolveOptions::default();
    let mut cp = biased(n, n, 1000.0, 2.82);
    let mut ws_zero = SolverWorkspace::new();
    let mut ws_none = SolverWorkspace::new();
    cp.solve_warm(&zero, &mut ws_zero)
        .expect("cached solve converges");
    cp.solve_warm(&none, &mut ws_none)
        .expect("uncached solve converges");
    for j in [0, n / 2, n - 1] {
        cp.set_cell(n - 1, j, CellDevice::Linear(1e-4));
    }
    ws_zero.invalidate_cache();
    let cached = cp.solve_warm(&zero, &mut ws_zero).expect("cached re-solve");
    let plain = cp
        .solve_warm(&none, &mut ws_none)
        .expect("uncached re-solve");
    assert!(ws_zero.last_used_warm_start() && ws_none.last_used_warm_start());
    assert_bitwise_eq(
        &cached,
        &plain,
        "eps=0.0 after swap + invalidate vs disabled",
    );
}

#[test]
fn loose_cache_epsilon_passes_the_exact_residual_check() {
    let n = 32;
    let cp = biased(n, n, 1000.0, 2.82);
    let base = SolveOptions::default();
    let plain = cp
        .solve(&SolveOptions {
            lin_cache_epsilon_volts: None,
            ..base
        })
        .expect("uncached solve converges");
    let mut ws = SolverWorkspace::new();
    let loose = cp
        .solve_warm(
            &SolveOptions {
                lin_cache_epsilon_volts: Some(1e-6),
                ..base
            },
            &mut ws,
        )
        .expect("loosely cached solve converges");
    // The loose cache may take a different path, but the accepted answer is
    // still gated by the same exact nonlinear KCL residual.
    assert!(loose.stats().residual_amps < base.tol_amps);
    assert!(plain.stats().residual_amps < base.tol_amps);
    let dv = (loose.cell_voltage(n - 1, n - 1) - plain.cell_voltage(n - 1, n - 1)).abs();
    assert!(dv < 1e-8, "loose-cache answer off by {dv} V");
    assert!(
        ws.cache_skip_ratio() > 0.5,
        "loose epsilon should skip most linearizations, got {}",
        ws.cache_skip_ratio()
    );
}

#[test]
fn stale_cache_after_cell_swap_recovers_via_residual_check() {
    let n = 16;
    let mut cp = biased(n, n, 1000.0, 2.82);
    let opts = SolveOptions {
        lin_cache_epsilon_volts: Some(1e-6),
        ..SolveOptions::default()
    };
    let mut ws = SolverWorkspace::new();
    cp.solve_warm(&opts, &mut ws)
        .expect("first solve converges");
    // Swap a device without telling the workspace: the warm seed and cache
    // are now stale. The exact residual check must force re-linearization
    // rather than accept the old operating point.
    cp.set_cell(n - 1, n - 1, CellDevice::Linear(1e-4));
    let warm = cp
        .solve_warm(&opts, &mut ws)
        .expect("stale-cache solve converges");
    let cold = cp
        .solve(&SolveOptions::default())
        .expect("fresh solve converges");
    let dv = (warm.cell_voltage(n - 1, n - 1) - cold.cell_voltage(n - 1, n - 1)).abs();
    assert!(dv < 1e-8, "stale-cache answer off by {dv} V");
    assert!(warm.stats().residual_amps < opts.tol_amps);
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
                cp.solve_warm(&SolveOptions::default(), &mut ws),
                Err(SolveError::SingularLine { line: *line }),
                "threads={threads}"
            );
        }
    }
    // A failed solve must not leave a warm seed behind.
    let mut cp = singular(192, 1, &[(100, 0)]);
    let mut ws = SolverWorkspace::new().with_threads(2);
    assert!(cp.solve_warm(&SolveOptions::default(), &mut ws).is_err());
    cp.set_cell(100, 0, CellDevice::Linear(1e-5));
    cp.solve_warm(&SolveOptions::default(), &mut ws)
        .expect("repaired network converges");
    assert!(!ws.last_used_warm_start());
}
