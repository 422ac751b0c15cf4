//! The closed-loop event-driven system simulator.

use crate::{SimConfig, SimResult};
use reram_array::{ArrayGeometry, ArrayModel, ResetKinetics};
use reram_circuit::{SolveOptions, SolverWorkspace};
use reram_core::{Scheme, WriteModel};
use reram_fault::{FaultInjector, FaultKind};
use reram_mem::lifetime::LifetimeModel;
use reram_mem::{
    AddressMapper, EnergyLedger, EnergyParams, FnwCodec, MemoryConfig, MemoryController, PumpMeter,
    Request, RowMapper, SecurityRefresh,
};
use reram_obs::{Counter, Obs, Value};
use reram_workloads::{BenchProfile, LineWrite, TraceGenerator};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// 8-bit words per 64 B line — converts a plan's total RESET count into
/// the mean concurrent-RESET group size a physics lookup prices.
const LINE_WORDS: usize = 64;

/// A min-heap event, ordered by time (then insertion sequence for
/// determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time_ns: f64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A core finished executing up to its next access.
    CoreReady(usize),
    /// A read's data returned to its core.
    ReadDone(usize),
    /// Re-examine the controller (issue ops, free queue slots, wake cores).
    MemCheck,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A prepared access, ready to hand to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Prepared {
    Read {
        bank: usize,
    },
    Write {
        bank: usize,
        service_ns: f64,
        array_energy_pj: f64,
        cell_writes: u32,
        resets: u32,
        sets: u32,
        /// An injected pump droop forced one extra recharge cycle.
        drooped: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    No,
    /// All MSHRs in flight; waiting for a read to return.
    Mshr,
    /// The controller's read queue was full.
    ReadQueue,
    /// The controller's write queue was full.
    WriteQueue,
}

struct Core {
    gen: TraceGenerator,
    retired: u64,
    outstanding: usize,
    pending: Option<Prepared>,
    blocked: Blocked,
    done: bool,
    finish_ns: f64,
}

/// Write-RESET timing source, chosen with [`Simulator::with_physics`].
///
/// The trace-driven loop never solves a circuit per write; this selects
/// where the RESET-phase latency numbers come from instead:
///
/// * [`Physics::Analytic`] (default) — the pre-characterized drop model
///   ([`WriteModel`]'s plan latencies).
/// * [`Physics::Solver`] — the exact KCL solver, memoized per
///   (section midpoint row, concurrent-RESET count) so a run costs at most
///   `sections × data_width` solves plus one worst-case probe. A solver
///   failure or an effective voltage below `v_fail` falls back to the
///   analytic value and counts `sim.physics.exact_fallbacks`.
///
/// Only write *timing* switches sources; the energy ledger stays on the
/// analytic plan in every mode so the modes remain energy-comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Physics {
    /// Pre-characterized analytic drop model (the default).
    #[default]
    Analytic,
    /// Exact KCL solver, memoized per (section, count).
    Solver,
}

/// Exact-solver timing source for [`Physics::Solver`]: warm-started solves,
/// each relaxation phase banded over every available core, memoized per
/// (row, count). Per-plan prices solve each DRVR section at its midpoint
/// row, so a run pays for at most `sections × data_width` solves plus the
/// worst-case budget probe. The solves run in the order the run first asks
/// for each key, each warm-started from the one before and read in place.
struct ExactTimer {
    write: WriteModel,
    geom: ArrayGeometry,
    kin: ResetKinetics,
    ws: SolverWorkspace,
    opts: SolveOptions,
    cache: HashMap<(usize, usize), Option<f64>>,
    solves: Counter,
    fallbacks: Counter,
}

impl ExactTimer {
    fn new(array: ArrayModel, scheme: Scheme, solves: Counter, fallbacks: Counter) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_threads(array, scheme, threads, solves, fallbacks)
    }

    fn with_threads(
        array: ArrayModel,
        scheme: Scheme,
        threads: usize,
        solves: Counter,
        fallbacks: Counter,
    ) -> Self {
        Self {
            write: WriteModel::new(array, scheme),
            geom: array.geometry(),
            kin: array.kinetics(),
            ws: SolverWorkspace::new().with_threads(threads),
            opts: SolveOptions::default(),
            cache: HashMap::new(),
            solves,
            fallbacks,
        }
    }

    /// Worst-case effective RESET voltage of an evenly spread `count`-cell
    /// group on `row`, from the exact solver. `None` = solver failure.
    fn veff(&mut self, row: usize, count: usize) -> Option<f64> {
        if let Some(v) = self.cache.get(&(row, count)) {
            return *v;
        }
        // Even spread: one cell at the centre of each of `count` equal
        // column spans.
        let size = self.geom.size();
        let cols: Vec<usize> = (0..count)
            .map(|k| size / (2 * count) + k * size / count)
            .collect();
        let applied: Vec<f64> = cols
            .iter()
            .map(|&j| self.write.applied_volts(row, self.geom.group_of_col(j)))
            .collect();
        let cp = self.write.model().to_crosspoint(row, &cols, &applied);
        let veff = cp
            .solve_into(&self.opts, &mut self.ws, &Obs::off())
            .ok()
            .map(|sol| {
                cols.iter()
                    .map(|&j| sol.cell_voltage(row, j))
                    .fold(f64::INFINITY, f64::min)
            });
        self.solves.inc();
        self.cache.insert((row, count), veff);
        veff
    }

    /// The midpoint row of `row`'s DRVR section, which stands for every
    /// row of the section in per-plan prices.
    fn section_row(&self, row: usize) -> usize {
        let rps = self.geom.size() / self.geom.drvr_sections();
        (row / rps) * rps + rps / 2
    }

    /// RESET latency of `count` concurrent RESETs on `row`, from the exact
    /// solver. A solver failure or an effective voltage below `v_fail`
    /// returns `analytic` instead and counts a fallback.
    fn reset_ns(&mut self, row: usize, count: usize, analytic: f64) -> f64 {
        let v_fail = self.kin.v_fail();
        match self.veff(row, count).filter(|&v| v >= v_fail) {
            Some(v) => self.kin.latency_ns(v),
            None => {
                self.fallbacks.inc();
                analytic
            }
        }
    }
}

/// Ablation overrides for the mechanisms SCH bundles, letting experiments
/// separate *where* writes land (row mapping), *how* they are timed
/// (deterministic worst case vs per-plan), and whether the wear-leveling
/// remap is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Knobs {
    /// Force the row mapper (None = scheme default).
    pub row_mapper: Option<RowMapper>,
    /// Force wear-leveling remap on/off (None = scheme default).
    pub remap: Option<bool>,
    /// Force per-plan (data/row-exact) write timing (None = scheme default:
    /// only SCH times per plan).
    pub per_plan_timing: Option<bool>,
}

/// One simulation run: a [`Scheme`] × [`BenchProfile`] × seed.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
    scheme: Scheme,
    profile: BenchProfile,
    seed: u64,
    knobs: Knobs,
    array: ArrayModel,
    obs: Obs,
    faults: Option<Arc<FaultInjector>>,
    physics: Physics,
}

impl Simulator {
    /// Creates a run.
    #[must_use]
    pub fn new(cfg: SimConfig, scheme: Scheme, profile: BenchProfile, seed: u64) -> Self {
        Self {
            cfg,
            scheme,
            profile,
            seed,
            knobs: Knobs::default(),
            array: ArrayModel::paper_baseline(),
            obs: Obs::off(),
            faults: None,
            physics: Physics::Analytic,
        }
    }

    /// Selects the write-RESET timing source (see [`Physics`]).
    #[must_use]
    pub fn with_physics(mut self, physics: Physics) -> Self {
        self.physics = physics;
        self
    }

    /// Replaces the array model — the Fig. 18/19/20 sweeps change the MAT
    /// size, process node and selector through this.
    #[must_use]
    pub fn with_array(mut self, array: ArrayModel) -> Self {
        self.array = array;
        self
    }

    /// Applies ablation overrides (see [`Knobs`]).
    #[must_use]
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Attaches a telemetry registry. The simulator threads it through the
    /// write model, the memory controller and the charge pump, and records
    /// its own per-epoch IPC and read-latency histograms. A detached handle
    /// (the default) keeps every instrumentation site a no-op.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Arms deterministic fault injection. The simulator consults two
    /// sites: [`reram_fault::site::SOLVER`] in the telemetry probe (solved
    /// behind the [`Crosspoint::solve_recover`] ladder, so recoverable
    /// solver faults leave the run bit-identical), and
    /// [`reram_fault::site::PUMP`] on each write recharge, where a
    /// [`FaultKind::PumpDroop`] forces one extra recharge cycle — a
    /// deterministic service-time and pump-energy penalty.
    ///
    /// [`Crosspoint::solve_recover`]: reram_circuit::Crosspoint::solve_recover
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The memo key of this run: every input that determines its
    /// [`SimResult`] (`cfg`, `scheme`, `profile`, `seed`, `knobs`, `array`,
    /// `physics`), rendered with `Debug`, whose `f64`s round-trip bit for
    /// bit. Two simulators with equal keys produce identical results, so
    /// [`crate::run_batch`] runs each key once per pool.
    ///
    /// `None` when the run must always execute: a fault injector advances
    /// its occurrence counters per run. The telemetry registry is not an
    /// input.
    #[must_use]
    pub fn memo_key(&self) -> Option<String> {
        // Destructured so a new field cannot silently escape the key.
        let Simulator {
            cfg,
            scheme,
            profile,
            seed,
            knobs,
            array,
            obs: _,
            faults,
            physics,
        } = self;
        if faults.is_some() {
            return None;
        }
        Some(format!(
            "{cfg:?}|{scheme:?}|{profile:?}|{seed}|{knobs:?}|{array:?}|{physics:?}"
        ))
    }

    /// The telemetry registry this run records into.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Executes the run to completion.
    ///
    /// # Panics
    ///
    /// Panics if the scheme produces write failures (effective RESET voltage
    /// below the threshold) — a misconfigured scheme, not a workload effect.
    #[must_use]
    pub fn run(&self) -> SimResult {
        let wm = WriteModel::new(self.array, self.scheme).with_obs(&self.obs);
        let geom = self.array.geometry();
        let obs_on = self.obs.enabled();
        if obs_on
            && self.obs.counter("circuit.solve.solves").get() == 0
            && self.obs.claim_once("sim.probe")
        {
            // The trace-driven loop never invokes the circuit solver (write
            // latency comes from the pre-characterized drop model), so probe
            // the worst-case cell once per attached registry to put the
            // solver's iteration and residual distributions into every
            // telemetry capture. The claim is atomic: simulations racing on
            // one registry still probe it once.
            let n = geom.size();
            // Registered before the solve so the count shows up in every
            // telemetry summary, zero included.
            let probe_failed = self.obs.counter("sim.probe.solve_failed");
            let cp = self.array.to_crosspoint(n - 1, &[n - 1], &[3.0]);
            let mut ws = SolverWorkspace::new();
            if let Some(inj) = &self.faults {
                ws = ws.with_faults(Arc::clone(inj), "sim.probe");
            }
            match cp.solve_recover(&SolveOptions::default(), &mut ws, &self.obs) {
                Ok((_, rec)) if rec.recovered_from.is_some() => {
                    self.obs.event(
                        "sim.probe.solve_recovered",
                        &[
                            ("rung", Value::Str(rec.rung.name().to_string())),
                            ("attempts", Value::U64(u64::from(rec.attempts))),
                        ],
                    );
                }
                Ok(_) => {}
                Err(e) => {
                    // Diagnostic, not fatal: write latencies come from the
                    // pre-characterized drop model either way.
                    probe_failed.inc();
                    self.obs.event(
                        "sim.probe.solve_failed",
                        &[
                            (
                                "bias",
                                Value::Str(format!(
                                    "worst-case RESET of cell ({sel}, {sel}) in a {n}x{n} MAT at 3 V",
                                    sel = n - 1
                                )),
                            ),
                            ("error", Value::Str(e.to_string())),
                        ],
                    );
                }
            }
        }
        let mapper = AddressMapper::new(
            reram_mem::MemoryConfig::paper_baseline(),
            geom.size(),
            geom.cols_per_group(),
        );
        let mem_cfg: MemoryConfig = *mapper.config();
        let pump = LifetimeModel::pump_for(self.scheme);
        let energy_params = EnergyParams::paper_baseline()
            .with_scheme(self.scheme.chip_overhead().leakage_multiplier(), pump);
        let fnw = FnwCodec::paper();
        let use_sch = self.scheme.uses_sch();
        let row_mapper = self.knobs.row_mapper.unwrap_or(if use_sch {
            RowMapper::Sch
        } else {
            RowMapper::Interleaved
        });
        // SCH pins hot lines to fast rows and therefore cannot coexist with
        // the randomized inter-line remap (§III-B).
        let remap_on = self.knobs.remap.unwrap_or(!use_sch);
        let mut remap = remap_on.then(|| SecurityRefresh::new(30, self.seed, 100_000));
        let per_plan_timing = self.knobs.per_plan_timing.unwrap_or(use_sch);
        // Write timing discipline: the controller must budget writes
        // deterministically, so every scheme runs its RESET phase at the
        // scheme's worst-case array latency (the paper fixes the baseline at
        // 2.3 µs, §III-A). SCH is the one technique whose point is
        // exploiting per-row latency, so it times each write by its actual
        // plan — and pays for it with migration/re-layout writes ("they
        // introduce more writes", §III-C), amortized as a service/energy/
        // wear multiplier.
        let worst_reset_ns = wm
            .array_reset_latency_ns()
            .expect("scheme must complete writes");
        // Physics timing source: the memoized exact solver overrides the
        // analytic RESET latencies, falling back to them per price. Both
        // counters register in every mode, so a summary always shows them.
        let c_exact_solves = self.obs.counter("sim.physics.exact_solves");
        let c_exact_fallbacks = self.obs.counter("sim.physics.exact_fallbacks");
        let mut exact = (self.physics == Physics::Solver)
            .then(|| ExactTimer::new(self.array, self.scheme, c_exact_solves, c_exact_fallbacks));
        // The worst-case write budget (non-per-plan timing discipline)
        // derives from the same source: the farthest row driving a full
        // data-width group.
        let budget_reset_ns = match exact.as_mut() {
            Some(x) => x.reset_ns(geom.size() - 1, geom.data_width(), worst_reset_ns),
            None => worst_reset_ns,
        };
        const SCH_MIGRATION_OVERHEAD: f64 = 1.25;
        // SCH schedules at page granularity with reactive migration: its
        // fast-row latency classes cannot undercut a floor relative to the
        // array's worst case (hot pages contain warm lines, share MATs with
        // cold data, and lag their heat).
        const SCH_LATENCY_FLOOR: f64 = 0.5;

        let mut mc = MemoryController::new(mem_cfg);
        mc.attach_obs(&self.obs);
        let pump_meter = PumpMeter::resolve(&self.obs);
        let epoch_ipc = self.obs.hist("sim.system.epoch_ipc");
        let read_lat = self.obs.hist("sim.system.read_latency_ns");
        // Epochs are fixed wall-clock quanta: a stall-free run covers ~32.
        let epoch_len_ns = (self.cfg.exec_ns(self.cfg.instructions_per_core) / 32.0).max(1.0);
        let mut next_epoch_ns = epoch_len_ns;
        let mut epoch_idx = 0u64;
        let mut epoch_retired = 0u64;
        let mut read_issue: HashMap<u64, f64> = HashMap::new();
        let mut ledger = EnergyLedger::new();
        let mut cores: Vec<Core> = (0..self.cfg.cores)
            .map(|c| Core {
                gen: TraceGenerator::new(self.profile, self.seed.wrapping_add(c as u64 * 7919)),
                retired: 0,
                outstanding: 0,
                pending: None,
                blocked: Blocked::No,
                done: false,
                finish_ns: 0.0,
            })
            .collect();

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<Event>, time_ns: f64, kind: EventKind| {
            seq += 1;
            heap.push(Event { time_ns, seq, kind });
        };

        let mut cell_writes = 0u64;
        let mut resets_total = 0u64;
        let mut sets_total = 0u64;
        let mut reads_issued = 0u64;
        // At most one outstanding MemCheck: without this, every blocked
        // core pushing its own retry event multiplies events exponentially.
        let mut memcheck_at: Option<f64> = None;

        // Prepares the next access of core `c`; returns the delay until it is
        // ready to issue, or `None` when the core retires instead.
        let mut prepare = |cores: &mut Vec<Core>, c: usize| -> Option<f64> {
            let budget = self.cfg.instructions_per_core;
            let acc = cores[c].gen.next_inline();
            let remaining = budget - cores[c].retired;
            if acc.icount_gap >= remaining {
                cores[c].retired = budget;
                cores[c].done = true;
                return Some(self.cfg.exec_ns(remaining)); // time to retirement
            }
            cores[c].retired += acc.icount_gap;
            let line = acc.line;
            let prepared = match &acc.write {
                None => {
                    let phys = remap.as_ref().map_or(line, |r| r.remap(line));
                    Prepared::Read {
                        bank: mapper.decompose(phys).flat_bank(&mem_cfg),
                    }
                }
                Some(LineWrite { heat, old, new }) => {
                    if let Some(r) = remap.as_mut() {
                        r.on_write();
                    }
                    let phys = remap.as_ref().map_or(line, |r| r.remap(line));
                    let addr = mapper.decompose(phys);
                    let row = row_mapper.row_for(addr.mat_row, *heat, mapper.mat_size());
                    let w = fnw.encode(old, &[false; 64], new);
                    let plan = wm.plan_line_write_with_data(
                        row,
                        addr.col_offset,
                        &w.resets,
                        &w.sets,
                        Some(&w.stored),
                    );
                    assert!(
                        !plan.failed,
                        "scheme {} produced a write failure",
                        self.scheme
                    );
                    let overhead = if use_sch { SCH_MIGRATION_OVERHEAD } else { 1.0 };
                    let floor = if use_sch {
                        worst_reset_ns * SCH_LATENCY_FLOOR
                    } else {
                        0.0
                    };
                    let reset_ns = if plan.resets == 0 {
                        0.0
                    } else if per_plan_timing {
                        // Per-plan discipline: price this write's own RESET
                        // group through the selected physics source.
                        let analytic = plan.reset_phase_ns.max(floor);
                        let count = (plan.resets as usize).div_ceil(LINE_WORDS).max(1);
                        match exact.as_mut() {
                            Some(x) => {
                                let row = x.section_row(row);
                                let count = count.min(geom.data_width());
                                x.reset_ns(row, count, analytic).max(floor)
                            }
                            None => analytic,
                        }
                    } else {
                        budget_reset_ns
                    };
                    let mut service_ns =
                        (pump.write_overhead_ns() + reset_ns + plan.set_phase_ns) * overhead;
                    let mut drooped = false;
                    if let Some(inj) = &self.faults {
                        if let Some(f) = inj.fire(reram_fault::site::PUMP, "sim.write") {
                            if f.kind == FaultKind::PumpDroop {
                                // The pump output sagged below target
                                // mid-RESET: the controller holds the write
                                // for one full recharge cycle and re-drives
                                // it, so the droop costs exactly one extra
                                // recharge of latency and energy.
                                service_ns += pump.write_overhead_ns();
                                drooped = true;
                                inj.note_recovery("pump", "recharge");
                            }
                        }
                    }
                    Prepared::Write {
                        bank: addr.flat_bank(&mem_cfg),
                        service_ns,
                        array_energy_pj: plan.energy_pj() * overhead,
                        cell_writes: (f64::from(plan.cell_writes()) * overhead) as u32,
                        resets: (f64::from(plan.resets) * overhead) as u32,
                        sets: (f64::from(plan.sets) * overhead) as u32,
                        drooped,
                    }
                }
            };
            cores[c].pending = Some(prepared);
            Some(self.cfg.exec_ns(acc.icount_gap))
        };

        // Seed each core's first event.
        for c in 0..self.cfg.cores {
            let delay = prepare(&mut cores, c).expect("fresh core");
            push(&mut heap, delay, EventKind::CoreReady(c));
        }

        let read_id = |c: usize, n: u64| ((c as u64) << 48) | (n & 0xFFFF_FFFF_FFFF);

        // Per-event buffers, cleared and reused from one event to the next.
        let mut completions = Vec::new();
        let mut to_try: Vec<usize> = Vec::new();
        while let Some(ev) = heap.pop() {
            let now = ev.time_ns;
            // Let the controller issue everything it can; deliver read
            // returns as future events and wake queue-blocked cores.
            completions.clear();
            mc.advance(now, &mut completions);
            let queue_freed = !completions.is_empty();
            for comp in &completions {
                if !comp.is_write {
                    let c = (comp.id >> 48) as usize;
                    if obs_on {
                        if let Some(t0) = read_issue.remove(&comp.id) {
                            read_lat.record(comp.done_ns.max(now) - t0);
                        }
                    }
                    push(&mut heap, comp.done_ns.max(now), EventKind::ReadDone(c));
                }
            }

            if obs_on {
                while now >= next_epoch_ns {
                    let retired: u64 = cores.iter().map(|c| c.retired).sum();
                    let d = retired - epoch_retired;
                    let ipc = d as f64 / (epoch_len_ns * self.cfg.freq_ghz);
                    epoch_ipc.record(ipc);
                    self.obs.event(
                        "sim.epoch",
                        &[
                            ("epoch", Value::U64(epoch_idx)),
                            ("t_ns", Value::F64(next_epoch_ns)),
                            ("ipc", Value::F64(ipc)),
                            ("retired", Value::U64(retired)),
                        ],
                    );
                    epoch_retired = retired;
                    epoch_idx += 1;
                    next_epoch_ns += epoch_len_ns;
                }
            }

            to_try.clear();
            match ev.kind {
                EventKind::CoreReady(c) => to_try.push(c),
                EventKind::ReadDone(c) => {
                    cores[c].outstanding = cores[c].outstanding.saturating_sub(1);
                    if cores[c].blocked == Blocked::Mshr {
                        cores[c].blocked = Blocked::No;
                        to_try.push(c);
                    }
                }
                EventKind::MemCheck => {
                    if memcheck_at.is_some_and(|m| m <= now + 1e-9) {
                        memcheck_at = None;
                    }
                }
            }
            if queue_freed || ev.kind == EventKind::MemCheck {
                #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
                for c in 0..cores.len() {
                    if matches!(cores[c].blocked, Blocked::ReadQueue | Blocked::WriteQueue) {
                        cores[c].blocked = Blocked::No;
                        to_try.push(c);
                    }
                }
            }

            for &c in &to_try {
                // Issue the core's pending access, then run ahead to its
                // next one; block (and stop) on any structural hazard.
                'issue: {
                    let Some(p) = cores[c].pending else {
                        break 'issue;
                    };
                    match p {
                        Prepared::Read { bank } => {
                            if cores[c].outstanding >= self.cfg.mshrs {
                                cores[c].blocked = Blocked::Mshr;
                                break 'issue;
                            }
                            let ok = mc.submit_read(Request {
                                id: read_id(c, reads_issued),
                                bank,
                                arrival_ns: now,
                                service_ns: 0.0,
                            });
                            if !ok {
                                cores[c].blocked = Blocked::ReadQueue;
                                let t = mc.next_issue_ns().unwrap_or(now).max(now) + 0.01;
                                if memcheck_at.is_none_or(|m| t + 1e-9 < m) {
                                    memcheck_at = Some(t);
                                    push(&mut heap, t, EventKind::MemCheck);
                                }
                                break 'issue;
                            }
                            if obs_on {
                                read_issue.insert(read_id(c, reads_issued), now);
                            }
                            reads_issued += 1;
                            cores[c].outstanding += 1;
                            ledger.add_read(&energy_params);
                        }
                        Prepared::Write {
                            bank,
                            service_ns,
                            array_energy_pj,
                            cell_writes: cw,
                            resets,
                            sets,
                            drooped,
                        } => {
                            let ok = mc.submit_write(Request {
                                id: read_id(c, u64::MAX >> 16),
                                bank,
                                arrival_ns: now,
                                service_ns,
                            });
                            if !ok {
                                cores[c].blocked = Blocked::WriteQueue;
                                let t = mc.next_issue_ns().unwrap_or(now).max(now) + 0.01;
                                if memcheck_at.is_none_or(|m| t + 1e-9 < m) {
                                    memcheck_at = Some(t);
                                    push(&mut heap, t, EventKind::MemCheck);
                                }
                                break 'issue;
                            }
                            pump_meter.on_recharge(&pump);
                            if drooped {
                                pump_meter.on_recharge(&pump);
                            }
                            ledger.add_write(&energy_params, array_energy_pj);
                            cell_writes += u64::from(cw);
                            resets_total += u64::from(resets);
                            sets_total += u64::from(sets);
                        }
                    }
                    cores[c].pending = None;
                    // The access issued; execute forward to the next one.
                    match prepare(&mut cores, c) {
                        Some(delay) if cores[c].done => {
                            cores[c].finish_ns = now + delay;
                        }
                        Some(delay) => {
                            push(&mut heap, now + delay, EventKind::CoreReady(c));
                            break 'issue;
                        }
                        None => break 'issue,
                    }
                }
            }

            if cores.iter().all(|c| c.done) {
                break;
            }
            // Keep the controller moving even when every core is waiting.
            if heap.is_empty() {
                if let Some(t) = mc.next_issue_ns() {
                    let t = t.max(now) + 0.01;
                    memcheck_at = Some(t);
                    push(&mut heap, t, EventKind::MemCheck);
                }
            }
        }

        let elapsed_ns = cores
            .iter()
            .map(|c| c.finish_ns)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let stats = mc.stats();
        // Leakage: the average bank is busy `bank_busy/banks`; power gating
        // trims the rest.
        let busy = (stats.bank_busy_ns / mem_cfg.total_banks() as f64).min(elapsed_ns);
        ledger.add_time(&energy_params, busy, elapsed_ns - busy);

        if obs_on {
            let instructions = self.cfg.total_instructions();
            self.obs.event(
                "sim.run_complete",
                &[
                    ("scheme", Value::Str(self.scheme.to_string())),
                    ("instructions", Value::U64(instructions)),
                    ("elapsed_ns", Value::F64(elapsed_ns)),
                    (
                        "ipc",
                        Value::F64(instructions as f64 / (elapsed_ns * self.cfg.freq_ghz)),
                    ),
                ],
            );
        }

        SimResult {
            instructions: self.cfg.total_instructions(),
            elapsed_ns,
            freq_ghz: self.cfg.freq_ghz,
            mem: stats,
            energy: ledger,
            cell_writes,
            resets: resets_total,
            sets: sets_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme, name: &str) -> SimResult {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(60_000);
        let p = BenchProfile::by_name(name).expect("benchmark");
        Simulator::new(cfg, scheme, p, 42).run()
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = quick(Scheme::Baseline, "mcf_m");
        let b = quick(Scheme::Baseline, "mcf_m");
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.cell_writes, b.cell_writes);
    }

    #[test]
    fn udrvr_pr_beats_baseline_on_write_heavy_workloads() {
        let base = quick(Scheme::Baseline, "mcf_m");
        let ours = quick(Scheme::UdrvrPr, "mcf_m");
        assert!(
            ours.speedup_over(&base) > 1.02,
            "speedup = {}",
            ours.speedup_over(&base)
        );
    }

    #[test]
    fn oracle_bounds_real_schemes() {
        let ours = quick(Scheme::UdrvrPr, "mcf_m");
        let ora = quick(Scheme::Oracle { window: 64 }, "mcf_m");
        assert!(
            ora.ipc() >= ours.ipc() * 0.98,
            "{} vs {}",
            ora.ipc(),
            ours.ipc()
        );
    }

    #[test]
    fn ipc_stays_physical() {
        let r = quick(Scheme::Baseline, "tig_m");
        let cfg = SimConfig::paper_baseline();
        assert!(r.ipc() > 0.0);
        assert!(r.ipc() <= cfg.base_ipc * cfg.cores as f64 + 1e-9);
        assert!(r.mem.reads > 0 && r.mem.writes > 0);
    }

    #[test]
    fn writes_reach_the_arrays() {
        let r = quick(Scheme::UdrvrPr, "zeu_m");
        assert!(r.cell_writes > 0);
        assert!(r.resets > 0 && r.sets > 0);
        assert!(r.energy.write_pj > 0.0 && r.energy.read_pj > 0.0);
        assert!(r.energy.leakage_pj > 0.0);
    }

    #[test]
    fn pump_droop_fault_deterministically_adds_recharge_overhead() {
        use reram_fault::{FaultPlan, FaultSpec};
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(60_000);
        let p = BenchProfile::by_name("mcf_m").expect("benchmark");
        let run = |plan: Option<FaultPlan>| {
            let obs = Obs::new();
            let mut sim = Simulator::new(cfg, Scheme::Baseline, p, 42).with_obs(&obs);
            if let Some(plan) = plan {
                sim = sim.with_faults(Arc::new(FaultInjector::new(plan, &obs)));
            }
            let r = sim.run();
            (r, obs.counter("mem.pump.recharges").get())
        };
        let droops = 5u64;
        let plan = || {
            let mut plan = FaultPlan::new(7);
            for k in 0..droops {
                plan = plan.with(
                    FaultSpec::new(reram_fault::site::PUMP, FaultKind::PumpDroop)
                        .occurrence(k * 17),
                );
            }
            plan
        };
        let (clean, clean_recharges) = run(None);
        let (faulted, fault_recharges) = run(Some(plan()));
        let (again, again_recharges) = run(Some(plan()));
        assert_eq!(
            fault_recharges,
            clean_recharges + droops,
            "each droop costs exactly one extra recharge"
        );
        assert!(
            faulted.elapsed_ns > clean.elapsed_ns,
            "recharge stalls must cost wall-clock time: {} vs {}",
            faulted.elapsed_ns,
            clean.elapsed_ns
        );
        assert_eq!(faulted.elapsed_ns, again.elapsed_ns, "injection is seeded");
        assert_eq!(fault_recharges, again_recharges);
    }

    #[test]
    fn solver_probe_fault_recovers_without_changing_the_run() {
        use reram_fault::{FaultPlan, FaultSpec};
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(40_000);
        let p = BenchProfile::by_name("tig_m").expect("benchmark");
        let clean_obs = Obs::new();
        let clean = Simulator::new(cfg, Scheme::UdrvrPr, p, 9)
            .with_obs(&clean_obs)
            .run();
        let plan = FaultPlan::new(3).with(FaultSpec::new(
            reram_fault::site::SOLVER,
            FaultKind::SolverNotConverged,
        ));
        let obs = Obs::new();
        let inj = Arc::new(FaultInjector::new(plan, &obs));
        let faulted = Simulator::new(cfg, Scheme::UdrvrPr, p, 9)
            .with_obs(&obs)
            .with_faults(Arc::clone(&inj))
            .run();
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.recovered(), 1, "probe recovers through the ladder");
        assert_eq!(obs.counter("sim.probe.solve_failed").get(), 0);
        assert_eq!(clean.elapsed_ns, faulted.elapsed_ns);
        assert_eq!(clean.cell_writes, faulted.cell_writes);
    }

    #[test]
    fn solver_physics_memoizes_per_section_and_count() {
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(30_000);
        let p = BenchProfile::by_name("mcf_m").expect("benchmark");
        let size = 64;
        let array =
            ArrayModel::paper_baseline().with_geometry(reram_array::ArrayGeometry::new(size, 8));
        let run = || {
            let obs = Obs::new();
            let knobs = Knobs {
                per_plan_timing: Some(true),
                ..Knobs::default()
            };
            let r = Simulator::new(cfg, Scheme::Drvr, p, 11)
                .with_array(array)
                .with_knobs(knobs)
                .with_physics(Physics::Solver)
                .with_obs(&obs)
                .run();
            (r, obs.counter("sim.physics.exact_solves").get())
        };
        let (r, solves) = run();
        assert!(r.ipc() > 0.0);
        assert!(solves > 0, "solver mode must solve");
        let geom = array.geometry();
        let cap = (geom.drvr_sections() * geom.data_width() + 1) as u64;
        assert!(
            solves <= cap,
            "memoization bounds the solves: {solves} > {cap}"
        );
        let (r2, solves2) = run();
        assert_eq!(r.elapsed_ns, r2.elapsed_ns, "solver mode is deterministic");
        assert_eq!(solves, solves2);
    }

    /// Every effective voltage [`ExactTimer`] solves at the paper's 512²
    /// array, in the order a run asks for them (the budget probe, then
    /// one mid-section row with 1 and 4 concurrent RESETs), as `to_bits`.
    /// Each solve warm-starts from the one before, so the pin covers the
    /// whole warm-started solver, on one band and on two.
    #[test]
    fn exact_timer_veffs_are_bit_identical_at_the_paper_baseline() {
        let pins: [(Scheme, [u64; 3]); 3] = [
            (
                Scheme::HardSys,
                [
                    0x4003_c218_6b91_0f12,
                    0x4005_9efd_b2d7_ef4b,
                    0x4004_a645_fa76_b55f,
                ],
            ),
            (
                Scheme::Drvr,
                [
                    0x3fe6_d7b4_fd16_7224,
                    0x4005_69f7_2be4_36dd,
                    0x3ffe_6418_dd72_0b37,
                ],
            ),
            (
                Scheme::UdrvrPr,
                [
                    0x3fe6_cc16_9d9c_d74c,
                    0x4005_44d0_3013_bb8d,
                    0x3ffe_5bcc_3d6d_8f46,
                ],
            ),
        ];
        let array = ArrayModel::paper_baseline();
        let geom = array.geometry();
        let probes = [(geom.size() - 1, geom.data_width()), (224, 1), (224, 4)];
        for threads in [1, 2] {
            for (scheme, bits) in pins {
                let obs = Obs::off();
                let mut x = ExactTimer::with_threads(
                    array,
                    scheme,
                    threads,
                    obs.counter("solves"),
                    obs.counter("fallbacks"),
                );
                assert_eq!(x.section_row(200), 224);
                for ((row, count), want) in probes.into_iter().zip(bits) {
                    let got = x.veff(row, count).map(f64::to_bits);
                    assert_eq!(
                        got,
                        Some(want),
                        "{scheme:?} row {row} count {count} on {threads} thread(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_fallbacks_count_the_budget_probes_the_solver_cannot_price() {
        let array = ArrayModel::paper_baseline();
        let geom = array.geometry();
        let budget = |scheme: Scheme| {
            let obs = Obs::new();
            let fallbacks = obs.counter("sim.physics.exact_fallbacks");
            let mut x = ExactTimer::new(
                array,
                scheme,
                obs.counter("sim.physics.exact_solves"),
                fallbacks.clone(),
            );
            let analytic = WriteModel::new(array, scheme)
                .array_reset_latency_ns()
                .expect("scheme completes writes");
            let ns = x.reset_ns(geom.size() - 1, geom.data_width(), analytic);
            (ns, analytic, fallbacks.get())
        };
        // Hard+Sys keeps ~2.47 V at the far row: the solver prices it.
        let (ns, analytic, fallbacks) = budget(Scheme::HardSys);
        assert_eq!(fallbacks, 0);
        assert_ne!(ns, analytic);
        // DRVR's 8-cell probe leaves ~0.71 V, below v_fail: analytic.
        let (ns, analytic, fallbacks) = budget(Scheme::Drvr);
        assert_eq!(fallbacks, 1);
        assert_eq!(ns.to_bits(), analytic.to_bits());
        // A run registers the counter before any price, in every mode.
        let obs = Obs::new();
        let cfg = SimConfig::paper_baseline().with_instructions_per_core(2_000);
        let p = BenchProfile::by_name("mcf_m").expect("benchmark");
        let _ = Simulator::new(cfg, Scheme::Drvr, p, 1).with_obs(&obs).run();
        assert!(obs
            .summary()
            .iter()
            .any(|m| m.name == "sim.physics.exact_fallbacks" && m.count == 0));
    }

    #[test]
    fn hard_sys_uses_more_leakage_energy() {
        let ours = quick(Scheme::UdrvrPr, "ast_m");
        let hard = quick(Scheme::HardSys, "ast_m");
        // Fig. 16's main effect: Hard+Sys leaks far more.
        assert!(hard.energy.leakage_pj > ours.energy.leakage_pj);
    }
}
