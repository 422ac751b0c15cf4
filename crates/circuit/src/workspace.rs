//! Reusable solver state for sweep-style callers.
//!
//! A [`SolverWorkspace`] owns everything a solve needs beyond the network
//! itself: the working voltage planes (which double as the warm-start seed
//! for the next solve), the tridiagonal scratch buffers, the per-cell
//! linearization cache, and the number of threads the relaxation kernel
//! runs its line bands on. Callers that solve the same (or a
//! slowly-varying) network many times — validation grids, voltage ramps,
//! figure sweeps — hold one workspace and call
//! [`Crosspoint::solve_warm`](crate::Crosspoint::solve_warm) or
//! [`Crosspoint::solve_into`](crate::Crosspoint::solve_into) instead of
//! [`Crosspoint::solve`](crate::Crosspoint::solve), so each solve starts
//! from the previous operating point and reuses every allocation;
//! `solve_into` reads its result from the workspace planes in place.

use reram_fault::FaultInjector;
use std::sync::Arc;

/// Scratch vectors, warm-start seed, linearization cache and relaxation
/// thread count, reused across solves.
///
/// Create one per solving thread with [`SolverWorkspace::new`], optionally
/// spread each relaxation phase over more cores via
/// [`SolverWorkspace::with_threads`], and pass it to the `solve_warm*` /
/// `solve_into` entry points. The workspace adapts to whatever network
/// dimensions it is handed; a dimension change simply drops the seed and
/// cache.
#[derive(Debug)]
pub struct SolverWorkspace {
    /// Threads each relaxation phase is split across (≥ 1).
    pub(crate) threads: usize,
    /// Working WL-plane voltages; after a successful solve these hold the
    /// converged operating point and seed the next warm solve.
    pub(crate) vw: Vec<f64>,
    /// Working BL-plane voltages (see [`Self::vw`]).
    pub(crate) vb: Vec<f64>,
    /// `Some((rows, cols))` when `vw`/`vb` hold a converged solution of
    /// those dimensions usable as a warm seed.
    pub(crate) seeded: Option<(usize, usize)>,
    /// Tridiagonal scratch, one interleaved batch of line systems per
    /// band; only the diagonal and RHS are stored — the used off-diagonals
    /// of a cross-point line system are all `-g_wire`.
    pub(crate) diag: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    /// Linearization cache, indexed by cell: the junction voltage each
    /// cell was last linearized at (`NaN` = no entry) …
    pub(crate) lin_v: Vec<f64>,
    /// … the Norton conductance computed there …
    pub(crate) lin_g: Vec<f64>,
    /// … and the Norton current offset.
    pub(crate) lin_i0: Vec<f64>,
    /// Dimensions the cache arrays are sized for.
    pub(crate) cache_dims: Option<(usize, usize)>,
    /// Whether the most recent solve started from a warm seed.
    pub(crate) last_warm: bool,
    /// Linearization-cache hits in the most recent solve.
    pub(crate) last_cache_hits: u64,
    /// Linearization-cache lookups in the most recent solve.
    pub(crate) last_cache_lookups: u64,
    /// Cumulative count of solves that used a warm seed.
    pub(crate) warm_hits_total: u64,
    /// Fault-injection plane and the (site, target) scope this workspace
    /// fires under; `None` disables injection entirely.
    pub(crate) faults: Option<(Arc<FaultInjector>, String)>,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverWorkspace {
    /// An empty workspace: cold first solve, one relaxation thread.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: 1,
            vw: Vec::new(),
            vb: Vec::new(),
            seeded: None,
            diag: Vec::new(),
            rhs: Vec::new(),
            lin_v: Vec::new(),
            lin_g: Vec::new(),
            lin_i0: Vec::new(),
            cache_dims: None,
            last_warm: false,
            last_cache_hits: 0,
            last_cache_lookups: 0,
            warm_hits_total: 0,
            faults: None,
        }
    }

    /// Splits each relaxation phase into up to `threads` contiguous bands
    /// of lines, relaxed concurrently on scoped threads (`0` counts as
    /// `1`). Bands are whole interleaved batches of at least 64 lines, so a
    /// small plane uses fewer threads (one under 128 lines). Every line's
    /// system is built, solved and applied with the one-thread arithmetic,
    /// so any thread count gives bitwise the same solution and
    /// [`SolveStats`](crate::SolveStats).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Arms deterministic fault injection: every solve through this
    /// workspace consults `injector` at [`reram_fault::site::SOLVER`] with
    /// `scope` as the target stream (pick a scope unique to this
    /// workspace's call sequence so occurrence indices stay deterministic —
    /// see the `reram-fault` crate docs).
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>, scope: impl Into<String>) -> Self {
        self.faults = Some((injector, scope.into()));
        self
    }

    /// The fault injector and scope armed via
    /// [`SolverWorkspace::with_faults`], if any.
    #[must_use]
    pub fn faults(&self) -> Option<(&Arc<FaultInjector>, &str)> {
        self.faults
            .as_ref()
            .map(|(inj, scope)| (inj, scope.as_str()))
    }

    /// True if the most recent solve through this workspace started from
    /// the previous converged operating point instead of the cold initial
    /// guess.
    #[must_use]
    pub fn last_used_warm_start(&self) -> bool {
        self.last_warm
    }

    /// Number of solves so far that reused a warm seed.
    #[must_use]
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits_total
    }

    /// Fraction of linearizations the cache skipped in the most recent
    /// solve (0.0 when the cache was disabled or the solve never ran).
    #[must_use]
    pub fn cache_skip_ratio(&self) -> f64 {
        if self.last_cache_lookups == 0 {
            0.0
        } else {
            self.last_cache_hits as f64 / self.last_cache_lookups as f64
        }
    }

    /// Drops the warm-start seed: the next solve starts from the cold
    /// initial guess (the cache is kept).
    pub fn clear_seed(&mut self) {
        self.seeded = None;
    }

    /// Invalidates every linearization-cache entry. Cache entries are keyed
    /// by cell position, not by device, so call this after mutating cell
    /// devices between cached warm solves: it keeps even
    /// `lin_cache_epsilon_volts: Some(0.0)` bitwise-identical to the
    /// uncached solve, and skips the (automatic, but slower)
    /// stall-detect-and-retry recovery under looser epsilons.
    pub fn invalidate_cache(&mut self) {
        self.lin_v.fill(f64::NAN);
    }
}
