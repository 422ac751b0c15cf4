//! Tridiagonal linear solver (Thomas algorithm).

/// Solves a tridiagonal system in place.
///
/// The system is `sub[i]·x[i-1] + diag[i]·x[i] + sup[i]·x[i+1] = rhs[i]`
/// with `sub[0]` and `sup[n-1]` ignored. The solution overwrites `rhs`,
/// `diag` and `sup` are used as scratch space.
///
/// # Errors
///
/// Returns `Err(i)` — the element index of the exactly-zero pivot — when
/// the elimination encounters a singular system, leaving the buffers in a
/// partially-eliminated state. This cannot occur for the strictly
/// diagonally dominant systems assembled from physical device models; the
/// solver maps it to [`crate::SolveError::SingularLine`] instead of
/// aborting the process mid-experiment.
///
/// # Panics
///
/// Panics (in debug builds) if the slices disagree in length.
#[cfg_attr(not(test), allow(dead_code))] // reference kernel for the batch tests
pub(crate) fn solve_tridiagonal(
    sub: &[f64],
    diag: &mut [f64],
    sup: &mut [f64],
    rhs: &mut [f64],
) -> Result<(), usize> {
    let n = rhs.len();
    debug_assert_eq!(sub.len(), n);
    debug_assert_eq!(diag.len(), n);
    debug_assert_eq!(sup.len(), n);
    if n == 0 {
        return Ok(());
    }
    // Forward elimination.
    for i in 1..n {
        if diag[i - 1] == 0.0 {
            return Err(i - 1);
        }
        let w = sub[i] / diag[i - 1];
        diag[i] -= w * sup[i - 1];
        rhs[i] -= w * rhs[i - 1];
    }
    // Back substitution.
    if diag[n - 1] == 0.0 {
        return Err(n - 1);
    }
    rhs[n - 1] /= diag[n - 1];
    for i in (0..n - 1).rev() {
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i];
    }
    Ok(())
}

/// Largest batch width [`solve_tridiagonal_batch`] accepts.
pub(crate) const TRIDIAG_BATCH_MAX: usize = 8;

/// Solves `m` independent tridiagonal systems of length `n` in lockstep.
///
/// The systems are interleaved: element `k` of system `t` lives at index
/// `k * m + t`, so each elimination step reads/writes one contiguous
/// `m`-wide stripe. Each system undergoes *exactly* the operation sequence
/// of [`solve_tridiagonal`] — the interleaving only lets the m independent
/// per-node division chains pipeline instead of serializing, which is
/// where the Thomas algorithm spends its latency. Results are therefore
/// bitwise-identical to solving each system alone.
///
/// # Errors
///
/// Returns `Err((t, k))` for the lowest-numbered system `t` that hit an
/// exactly-zero pivot, with `k` the element index of its first zero pivot
/// (matching [`solve_tridiagonal`]'s `Err(k)`). Later systems still
/// complete elimination arithmetic but nothing is back-substituted.
///
/// # Panics
///
/// Panics (in debug builds) if `m` exceeds [`TRIDIAG_BATCH_MAX`] or the
/// slices disagree in length.
#[cfg_attr(not(test), allow(dead_code))] // reference kernel for the const-offdiag tests
pub(crate) fn solve_tridiagonal_batch(
    m: usize,
    n: usize,
    sub: &[f64],
    diag: &mut [f64],
    sup: &mut [f64],
    rhs: &mut [f64],
) -> Result<(), (usize, usize)> {
    debug_assert!(0 < m && m <= TRIDIAG_BATCH_MAX);
    debug_assert_eq!(sub.len(), m * n);
    debug_assert_eq!(diag.len(), m * n);
    debug_assert_eq!(sup.len(), m * n);
    debug_assert_eq!(rhs.len(), m * n);
    if n == 0 {
        return Ok(());
    }
    // First zero-pivot element per system; a failed system's lanes keep
    // computing (division by zero is well-defined garbage confined to that
    // stripe) so the healthy systems' arithmetic is undisturbed.
    let mut fail = [usize::MAX; TRIDIAG_BATCH_MAX];
    let mut any_fail = false;
    for k in 1..n {
        let base = (k - 1) * m;
        let (d_prev, d_cur) = diag[base..base + 2 * m].split_at_mut(m);
        let (r_prev, r_cur) = rhs[base..base + 2 * m].split_at_mut(m);
        let s_cur = &sub[base + m..base + 2 * m];
        let u_prev = &sup[base..base + m];
        for t in 0..m {
            let p = d_prev[t];
            if p == 0.0 && fail[t] == usize::MAX {
                fail[t] = k - 1;
                any_fail = true;
            }
            let w = s_cur[t] / p;
            d_cur[t] -= w * u_prev[t];
            r_cur[t] -= w * r_prev[t];
        }
    }
    let last = (n - 1) * m;
    for t in 0..m {
        if diag[last + t] == 0.0 && fail[t] == usize::MAX {
            fail[t] = n - 1;
            any_fail = true;
        }
    }
    if any_fail {
        let t = fail.iter().position(|&k| k != usize::MAX).expect("flagged");
        return Err((t, fail[t]));
    }
    for t in 0..m {
        rhs[last + t] /= diag[last + t];
    }
    for k in (0..n - 1).rev() {
        let base = k * m;
        let (r_cur, r_next) = rhs[base..base + 2 * m].split_at_mut(m);
        let d_cur = &diag[base..base + m];
        let u_cur = &sup[base..base + m];
        for t in 0..m {
            r_cur[t] = (r_cur[t] - u_cur[t] * r_next[t]) / d_cur[t];
        }
    }
    Ok(())
}

/// [`solve_tridiagonal_batch`] specialized to systems whose every *used*
/// off-diagonal entry equals `off` (`sub[0]` and `sup[n-1]` are never read
/// by the Thomas recurrence, so only interior couplings matter).
///
/// Cross-point line systems have exactly this shape — every interior
/// coupling is the same wire conductance `-g_wire` — so the solver can skip
/// assembling, storing, and re-reading two of the four scratch planes.
/// The arithmetic per system is *exactly* the [`solve_tridiagonal`]
/// sequence with `sub[k]`/`sup[k]` replaced by the identical value `off`,
/// so results stay bitwise-identical to the general kernels.
///
/// # Errors
///
/// As [`solve_tridiagonal_batch`]: `Err((t, k))` for the lowest-numbered
/// system with a zero pivot.
///
/// # Panics
///
/// Panics (in debug builds) if `m` exceeds [`TRIDIAG_BATCH_MAX`] or the
/// slices disagree in length.
pub(crate) fn solve_tridiagonal_batch_const(
    m: usize,
    n: usize,
    off: f64,
    diag: &mut [f64],
    rhs: &mut [f64],
) -> Result<(), (usize, usize)> {
    debug_assert!(0 < m && m <= TRIDIAG_BATCH_MAX);
    debug_assert_eq!(diag.len(), m * n);
    debug_assert_eq!(rhs.len(), m * n);
    if n == 0 {
        return Ok(());
    }
    let mut fail = [usize::MAX; TRIDIAG_BATCH_MAX];
    let mut any_fail = false;
    for k in 1..n {
        let base = (k - 1) * m;
        let (d_prev, d_cur) = diag[base..base + 2 * m].split_at_mut(m);
        let (r_prev, r_cur) = rhs[base..base + 2 * m].split_at_mut(m);
        for t in 0..m {
            let p = d_prev[t];
            if p == 0.0 && fail[t] == usize::MAX {
                fail[t] = k - 1;
                any_fail = true;
            }
            let w = off / p;
            d_cur[t] -= w * off;
            r_cur[t] -= w * r_prev[t];
        }
    }
    let last = (n - 1) * m;
    for t in 0..m {
        if diag[last + t] == 0.0 && fail[t] == usize::MAX {
            fail[t] = n - 1;
            any_fail = true;
        }
    }
    if any_fail {
        let t = fail.iter().position(|&k| k != usize::MAX).expect("flagged");
        return Err((t, fail[t]));
    }
    for t in 0..m {
        rhs[last + t] /= diag[last + t];
    }
    for k in (0..n - 1).rev() {
        let base = k * m;
        let (r_cur, r_next) = rhs[base..base + 2 * m].split_at_mut(m);
        let d_cur = &diag[base..base + m];
        for t in 0..m {
            r_cur[t] = (r_cur[t] - off * r_next[t]) / d_cur[t];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiply(sub: &[f64], diag: &[f64], sup: &[f64], x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                let mut v = diag[i] * x[i];
                if i > 0 {
                    v += sub[i] * x[i - 1];
                }
                if i + 1 < n {
                    v += sup[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    #[test]
    fn solves_identity() {
        let sub = vec![0.0; 4];
        let mut diag = vec![1.0; 4];
        let mut sup = vec![0.0; 4];
        let mut rhs = vec![1.0, 2.0, 3.0, 4.0];
        solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs).unwrap();
        assert_eq!(rhs, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solves_known_system() {
        // Laplacian-like system with known solution.
        let n = 6;
        let sub = vec![-1.0; n];
        let diag0 = vec![3.0; n];
        let sup0 = vec![-1.0; n];
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let mut rhs = multiply(&sub, &diag0, &sup0, &x_true);
        let mut diag = diag0.clone();
        let mut sup = sup0.clone();
        solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs).unwrap();
        for (a, b) in rhs.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn single_element() {
        let sub = vec![0.0];
        let mut diag = vec![4.0];
        let mut sup = vec![0.0];
        let mut rhs = vec![8.0];
        solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs).unwrap();
        assert_eq!(rhs[0], 2.0);
    }

    #[test]
    fn empty_is_noop() {
        let sub: Vec<f64> = vec![];
        let mut diag: Vec<f64> = vec![];
        let mut sup: Vec<f64> = vec![];
        let mut rhs: Vec<f64> = vec![];
        solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs).unwrap();
        assert!(rhs.is_empty());
    }

    #[test]
    fn zero_pivot_reports_element_index() {
        // diag[1] becomes exactly zero after eliminating row 0:
        // diag[1] - (sub[1]/diag[0])*sup[0] = 1 - (2/2)*1 = 0.
        let sub = vec![0.0, 2.0, 1.0];
        let mut diag = vec![2.0, 1.0, 1.0];
        let mut sup = vec![1.0, 1.0, 0.0];
        let mut rhs = vec![1.0, 1.0, 1.0];
        assert_eq!(
            solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs),
            Err(1)
        );
    }

    #[test]
    fn zero_pivot_on_last_element() {
        let sub = vec![0.0];
        let mut diag = vec![0.0];
        let mut sup = vec![0.0];
        let mut rhs = vec![1.0];
        assert_eq!(
            solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs),
            Err(0)
        );
    }

    #[test]
    fn batch_is_bitwise_identical_to_single_system_solves() {
        let mut rng = reram_workloads::Rng64::new(99);
        for (m, n) in [(1usize, 5usize), (3, 17), (8, 64), (8, 1)] {
            // Build m diagonally dominant systems in interleaved layout.
            let len = m * n;
            let sub: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            let sup0: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            let diag0: Vec<f64> = (0..len)
                .map(|o| sub[o].abs() + sup0[o].abs() + rng.gen_range_f64(0.5, 2.0))
                .collect();
            let rhs0: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
            let mut diag = diag0.clone();
            let mut sup = sup0.clone();
            let mut rhs = rhs0.clone();
            solve_tridiagonal_batch(m, n, &sub, &mut diag, &mut sup, &mut rhs).unwrap();
            for t in 0..m {
                // De-interleave system t and solve it alone.
                let pick = |v: &[f64]| -> Vec<f64> { (0..n).map(|k| v[k * m + t]).collect() };
                let s_sub = pick(&sub);
                let mut s_diag = pick(&diag0);
                let mut s_sup = pick(&sup0);
                let mut s_rhs = pick(&rhs0);
                solve_tridiagonal(&s_sub, &mut s_diag, &mut s_sup, &mut s_rhs).unwrap();
                for k in 0..n {
                    assert_eq!(
                        rhs[k * m + t].to_bits(),
                        s_rhs[k].to_bits(),
                        "m={m} n={n} t={t} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn const_offdiag_batch_is_bitwise_identical_to_general_batch() {
        let mut rng = reram_workloads::Rng64::new(123);
        let off = -0.354; // plays the wire-conductance role
        for (m, n) in [(1usize, 7usize), (8, 64), (8, 1), (5, 2)] {
            let len = m * n;
            // General-kernel inputs with every used off-diagonal = `off`
            // (end entries zeroed as the solver stamps them — they are
            // never read, so the const kernel must agree regardless).
            let sub: Vec<f64> = (0..len).map(|o| if o < m { 0.0 } else { off }).collect();
            let sup0: Vec<f64> = (0..len)
                .map(|o| if o >= len - m { 0.0 } else { off })
                .collect();
            let diag0: Vec<f64> = (0..len)
                .map(|_| 2.0 * off.abs() + rng.gen_range_f64(0.5, 2.0))
                .collect();
            let rhs0: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
            let mut diag_g = diag0.clone();
            let mut sup_g = sup0.clone();
            let mut rhs_g = rhs0.clone();
            solve_tridiagonal_batch(m, n, &sub, &mut diag_g, &mut sup_g, &mut rhs_g).unwrap();
            let mut diag_c = diag0.clone();
            let mut rhs_c = rhs0.clone();
            solve_tridiagonal_batch_const(m, n, off, &mut diag_c, &mut rhs_c).unwrap();
            for o in 0..len {
                assert_eq!(rhs_c[o].to_bits(), rhs_g[o].to_bits(), "m={m} n={n} o={o}");
            }
        }
    }

    #[test]
    fn const_offdiag_batch_reports_zero_pivots() {
        // System 0 healthy, system 1 hits a zero pivot at element 0.
        let m = 2;
        let mut diag = vec![1.0, 0.0, 1.0, 1.0];
        let mut rhs = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(
            solve_tridiagonal_batch_const(m, 2, 0.0, &mut diag, &mut rhs),
            Err((1, 0))
        );
    }

    #[test]
    fn batch_reports_lowest_failing_system_and_its_first_zero_pivot() {
        // Three systems of length 3, interleaved. System 1 reproduces the
        // zero_pivot_reports_element_index case (fails at element 1);
        // systems 0 and 2 are healthy identity-like systems.
        let m = 3;
        let weave = |a: [f64; 3], b: [f64; 3], c: [f64; 3]| -> Vec<f64> {
            (0..3).flat_map(|k| [a[k], b[k], c[k]]).collect()
        };
        let sub = weave([0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.0]);
        let mut diag = weave([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [4.0, 4.0, 4.0]);
        let mut sup = weave([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]);
        let mut rhs = weave([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [8.0, 8.0, 8.0]);
        assert_eq!(
            solve_tridiagonal_batch(m, 3, &sub, &mut diag, &mut sup, &mut rhs),
            Err((1, 1))
        );
    }

    #[test]
    fn random_diagonally_dominant_systems() {
        let mut rng = reram_workloads::Rng64::new(7);
        for n in [2usize, 3, 17, 100] {
            let sub: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            let sup0: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            let diag0: Vec<f64> = (0..n)
                .map(|i| {
                    let m: f64 = sub[i].abs() + sup0[i].abs();
                    m + rng.gen_range_f64(0.5, 2.0)
                })
                .collect();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
            let mut rhs = multiply(&sub, &diag0, &sup0, &x_true);
            let mut diag = diag0.clone();
            let mut sup = sup0.clone();
            solve_tridiagonal(&sub, &mut diag, &mut sup, &mut rhs).unwrap();
            for (a, b) in rhs.iter().zip(&x_true) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }
}
