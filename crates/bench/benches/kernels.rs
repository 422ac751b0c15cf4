//! Performance-critical kernels: solver, drop model, PR, FNW, wear leveling,
//! write planning, controller scheduling — plus the telemetry-off overhead
//! check (an instrumented solve through a detached [`reram_obs::Obs`] must
//! cost the same as the plain entry point).

use reram_array::{ArrayGeometry, ArrayModel};
use reram_bench::{black_box, Harness};
use reram_circuit::{Crosspoint, SolveOptions, SolverWorkspace};
use reram_core::{partition_reset, Scheme, WriteModel};
use reram_durable::{DurableConfig, DurableLog, REC_ENTRY};
use reram_exec::{par_map, ThreadPool};
use reram_loadgen::{run_traced, LoadConfig};
use reram_mem::{
    AddressMapper, FnwCodec, FnwWrite, MemoryConfig, MemoryController, Request, SecurityRefresh,
};
use reram_obs::{Obs, TraceContext, Tracer};
use reram_serve::{ServeConfig, Server};
use reram_workloads::{AccessKind, BenchProfile, TraceGenerator};

fn bench_solver(h: &mut Harness) {
    let sizes: &[usize] = if h.is_full() {
        &[32, 64, 128, 256, 512]
    } else {
        &[32, 64, 128, 256]
    };
    for &n in sizes {
        let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(n, 8));
        let cp = model.to_crosspoint(n - 1, &[n - 1], &[3.0]);
        h.bench(&format!("kcl_solve_{n}x{n}"), || {
            cp.solve(black_box(&SolveOptions::default())).unwrap()
        });
    }
}

/// The accelerated solver configurations on the same worst-case RESET bias:
/// warm-started (a small voltage ramp, as sweep-style callers produce),
/// cold on two relaxation threads, and warm on two threads. The warm
/// entries use a loose linearization-cache epsilon; correctness is still
/// pinned by the exact residual check inside the solver.
fn bench_solver_accel(h: &mut Harness) {
    let sizes: &[usize] = if h.is_full() {
        &[64, 128, 256, 512]
    } else {
        &[64, 128, 256]
    };
    let warm_opts = SolveOptions {
        lin_cache_epsilon_volts: Some(1e-5),
        ..SolveOptions::default()
    };
    for &n in sizes {
        let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(n, 8));
        // Three nearby biases (DRVR-style millivolt regulation steps),
        // cycled so every warm solve starts from the previous (slightly
        // different) operating point.
        let ramp: Vec<Crosspoint> = [3.0, 2.998, 3.002]
            .iter()
            .map(|&v| model.to_crosspoint(n - 1, &[n - 1], &[v]))
            .collect();
        {
            let ramp = ramp.clone();
            let mut ws = SolverWorkspace::new();
            let mut k = 0usize;
            h.bench(&format!("kcl_solve_warm_{n}x{n}"), move || {
                let cp = &ramp[k % ramp.len()];
                k += 1;
                cp.solve_warm(black_box(&warm_opts), &mut ws).unwrap()
            });
        }
        {
            let cp = ramp[0].clone();
            let mut ws = SolverWorkspace::new().with_threads(2);
            h.bench(&format!("kcl_solve_par_{n}x{n}"), move || {
                ws.clear_seed(); // isolate the thread axis: always cold
                cp.solve_warm(black_box(&SolveOptions::default()), &mut ws)
                    .unwrap()
            });
        }
        {
            let ramp = ramp.clone();
            let mut ws = SolverWorkspace::new().with_threads(2);
            let mut k = 0usize;
            h.bench(&format!("kcl_solve_warm_par_{n}x{n}"), move || {
                let cp = &ramp[k % ramp.len()];
                k += 1;
                cp.solve_warm(black_box(&warm_opts), &mut ws).unwrap()
            });
        }
    }
    if let Some(ratio) = h.compare("kcl_solve_warm_par_256x256", "kcl_solve_256x256") {
        assert!(
            ratio < 1.0,
            "warm+parallel solve is {ratio:.3}x cold-serial at 256x256 (must be < 1.0x)"
        );
    }
    // The headline acceptance number, only meaningful on a full run.
    if let Some(ratio) = h.compare("kcl_solve_warm_par_512x512", "kcl_solve_512x512") {
        println!(
            "512x512 warm+parallel speedup over cold-serial: {:.2}x",
            1.0 / ratio
        );
    }
}

/// Telemetry off must be free: `solve_observed` with a detached `Obs` vs the
/// plain `solve` on the same 64×64 network. Ratios near 1.0 mean the no-op
/// handles cost nothing; a hard failure here means instrumentation leaked
/// into the hot path.
fn bench_telemetry_overhead(h: &mut Harness) {
    let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(64, 8));
    let cp = model.to_crosspoint(63, &[63], &[3.0]);
    h.bench("solve_plain_64x64", || {
        cp.solve(black_box(&SolveOptions::default())).unwrap()
    });
    let off = Obs::off();
    h.bench("solve_obs_off_64x64", || {
        cp.solve_observed(black_box(&SolveOptions::default()), &off)
            .unwrap()
    });
    if let Some(ratio) = h.compare("solve_obs_off_64x64", "solve_plain_64x64") {
        assert!(
            ratio < 1.10,
            "telemetry-off solve is {ratio:.3}x the plain solve (must be < 1.10x)"
        );
    }
}

fn bench_drop_model(h: &mut Harness) {
    let model = ArrayModel::paper_baseline();
    let dm = model.drop_model();
    h.bench("analytic_total_drop", || {
        let mut acc = 0.0;
        for i in (0..512).step_by(7) {
            acc += dm.total_drop(black_box(i), black_box(511 - i), 4);
        }
        acc
    });
}

fn bench_partition_reset(h: &mut Harness) {
    h.bench("pr_algorithm1_256_slices", || {
        let mut acc = 0u32;
        for s in 0u16..256 {
            let r = (s as u8).rotate_left(3);
            let st = (s as u8).wrapping_mul(31) & !r;
            acc += partition_reset(black_box(r), black_box(st), black_box(!s as u8))
                .concurrent_resets();
        }
        acc
    });
}

fn bench_fnw(h: &mut Harness) {
    let codec = FnwCodec::paper();
    let old: [u8; 64] = std::array::from_fn(|i| (i * 37) as u8);
    let new: [u8; 64] = std::array::from_fn(|i| (i * 91 + 13) as u8);
    let flips = [false; 64];
    h.bench("fnw_encode_64B", || {
        codec.encode(black_box(&old), black_box(&flips), black_box(&new))
    });
}

fn bench_wear_leveling(h: &mut Harness) {
    let sr = SecurityRefresh::new(30, 7, 1_000_000);
    let mut l = 0u64;
    h.bench("security_refresh_remap", || {
        l = (l + 0x9E37) & ((1 << 30) - 1);
        sr.remap(black_box(l))
    });
}

fn bench_write_planning(h: &mut Harness) {
    for scheme in [Scheme::Baseline, Scheme::Hard, Scheme::UdrvrPr] {
        let wm = WriteModel::paper(scheme);
        let resets = [0x91u8; 64];
        let sets = [0x44u8; 64];
        let data = [0xEEu8; 64];
        h.bench(&format!("plan_line_{}", scheme.label()), || {
            wm.plan_line_write_with_data(
                black_box(300),
                black_box(17),
                black_box(&resets),
                black_box(&sets),
                Some(black_box(&data)),
            )
        });
    }
}

/// 1k `mcf_m` write-backs, Flip-N-Write encoded up front, with their rows
/// and column offsets: the planner's real input (mostly untouched slices,
/// 1–3-bit RESETs), which one constant mask on every slice cannot show once
/// a plan memoises its prices per (bit, concurrent RESETs).
fn mcf_writes() -> Vec<(usize, usize, FnwWrite)> {
    let mapper = AddressMapper::paper_baseline();
    let codec = FnwCodec::paper();
    let mut gen = TraceGenerator::new(BenchProfile::by_name("mcf_m").expect("Table IV"), 1);
    let mut writes = Vec::with_capacity(1000);
    while writes.len() < 1000 {
        if let AccessKind::Write { line, old, new, .. } = gen.next_access().kind {
            let addr = mapper.decompose(line);
            let w = codec.encode(&old, &[false; 64], &new);
            writes.push((addr.mat_row, addr.col_offset, w));
        }
    }
    writes
}

fn bench_trace_planning(h: &mut Harness) {
    let writes = mcf_writes();
    for scheme in [
        Scheme::Baseline,
        Scheme::Hard,
        Scheme::Drvr,
        Scheme::DrvrPr,
        Scheme::UdrvrPr,
        Scheme::Udrvr394,
    ] {
        let wm = WriteModel::paper(scheme);
        h.bench(&format!("plan_mcf_1k_{}", scheme.label()), || {
            let mut ns = 0.0;
            for (row, off, w) in black_box(&writes) {
                let plan =
                    wm.plan_line_write_with_data(*row, *off, &w.resets, &w.sets, Some(&w.stored));
                ns += plan.reset_phase_ns;
            }
            ns
        });
    }
    let mut gen = TraceGenerator::new(BenchProfile::by_name("mcf_m").expect("Table IV"), 11);
    h.bench("trace_next_access_mcf_m", || gen.next_access());
}

fn bench_controller(h: &mut Harness) {
    h.bench("controller_1k_requests", || {
        let mut mc = MemoryController::new(MemoryConfig::paper_baseline());
        let mut done = Vec::new();
        let mut t = 0.0;
        for k in 0..1000u64 {
            t += 37.0;
            let req = Request {
                id: k,
                bank: (k % 16) as usize,
                arrival_ns: t,
                service_ns: 200.0,
            };
            if k % 3 == 0 {
                while !mc.submit_write(req) {
                    mc.advance(t + 10_000.0, &mut done);
                }
            } else {
                while !mc.submit_read(req) {
                    mc.advance(t + 10_000.0, &mut done);
                }
            }
        }
        mc.advance(1e12, &mut done);
        done.len()
    });
}

/// Pool-dispatch overhead: `par_map` over 1024 trivial closures on a
/// two-worker pool vs the serial pool. The difference, amortized per job,
/// bounds what the execution engine adds on top of the work itself — the
/// acceptance bar is < 5 µs/job.
fn bench_par_map_overhead(h: &mut Harness) {
    const N: u64 = 1024;
    let items: Vec<u64> = (0..N).collect();
    let serial = ThreadPool::serial();
    {
        let items = items.clone();
        h.bench("par_map_serial_1024_trivial", move || {
            par_map(&serial, items.clone(), |i, x| x.wrapping_mul(i as u64 + 1)).len()
        });
    }
    let pool = ThreadPool::new(2);
    h.bench("par_map_pool2_1024_trivial", move || {
        par_map(&pool, items.clone(), |i, x| x.wrapping_mul(i as u64 + 1)).len()
    });
    if let (Some(par), Some(ser)) = (
        h.get("par_map_pool2_1024_trivial"),
        h.get("par_map_serial_1024_trivial"),
    ) {
        let overhead_ns_per_job = (par.min_ns - ser.min_ns) / N as f64;
        println!("par_map dispatch overhead: {overhead_ns_per_job:.1} ns/job");
        assert!(
            overhead_ns_per_job < 5_000.0,
            "pool dispatch overhead is {overhead_ns_per_job:.1} ns/job (must be < 5 µs/job)"
        );
    }
}

/// WAL append path: one CRC-guarded fixed-stride record into a segment
/// file, with and without the per-record fsync the durable serve/cluster
/// paths batch away (they sync per drained batch, not per record — the
/// unsynced number is the hot-path cost, the synced one the worst case).
fn bench_wal_append(h: &mut Harness) {
    let dir = std::env::temp_dir().join(format!("reram-bench-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let payload = [0xA5u8; 64];
    let mut cfg = DurableConfig::new(dir.join("plain"), payload.len());
    cfg.segment_records = 4096;
    let (mut log, _) = DurableLog::open(cfg, &Obs::off(), None).expect("open wal");
    h.bench("wal_append_64b", move || {
        log.append(REC_ENTRY, black_box(&payload)).expect("append");
        log.current_segment()
    });

    let wide = [0x5Au8; 512];
    let mut cfg = DurableConfig::new(dir.join("wide"), wide.len());
    cfg.segment_records = 4096;
    let (mut log, _) = DurableLog::open(cfg, &Obs::off(), None).expect("open wal");
    h.bench("wal_append_512b", move || {
        log.append(REC_ENTRY, black_box(&wide)).expect("append");
        log.current_segment()
    });

    let mut cfg = DurableConfig::new(dir.join("synced"), payload.len());
    cfg.segment_records = 4096;
    let (mut log, _) = DurableLog::open(cfg, &Obs::off(), None).expect("open wal");
    h.bench("wal_append_64b_synced", move || {
        log.append(REC_ENTRY, black_box(&payload)).expect("append");
        log.sync().expect("sync");
        log.current_segment()
    });

    std::fs::remove_dir_all(&dir).ok();
}

/// One self-hosted closed-loop serve run; returns measured req/s.
/// `trace_sample` = 0 means tracing fully off (the v1 baseline path).
fn serve_run(trace_sample: u64, clients: usize, requests: u64) -> f64 {
    let obs = Obs::off();
    let (server_tracer, client_tracer) = if trace_sample > 0 {
        (Tracer::new(trace_sample), Tracer::new(trace_sample))
    } else {
        (Tracer::off(), Tracer::off())
    };
    let cfg = ServeConfig {
        shards: 4,
        lines_per_shard: 512,
        queue_cap: 64,
        batch_max: 8,
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start_traced(&cfg, &obs, server_tracer, None).unwrap();
    let load = LoadConfig {
        clients,
        requests_per_client: requests,
        seed: 0xBE7C,
        total_lines: 4 * 512,
        profile: BenchProfile::table_iv()[0],
        audit: false,
        drain: true,
        trace_sample,
        ..LoadConfig::new(server.local_addr())
    };
    let report = run_traced(&load, &obs, &client_tracer);
    server.join();
    report.req_per_s
}

/// The PR-6 acceptance check: request-scoped tracing at 1/64 sampling must
/// cost ≤ 2% of serve throughput. Two layers of evidence:
///
/// * microbenches of the two hot-path costs — the per-request `sampled()`
///   check every request pays, and `record_span` only sampled requests pay
///   — feed a **modeled** per-request overhead against the untraced run's
///   measured per-request time (hard-asserted < 2%);
/// * a direct A/B of the same deterministic closed-loop run, untraced vs
///   traced 1/64, best-of-N wall clock (asserted < 1.02x).
fn bench_trace_overhead(h: &mut Harness) {
    let tracer = Tracer::new(64);
    let mut seq = 0u64;
    h.bench("trace_sample_skip_1in64", move || {
        seq += 1;
        tracer.sampled(black_box(seq))
    });
    let rec = Tracer::new(1);
    let ctx = TraceContext {
        trace_id: 42,
        parent_span_id: 7,
    };
    h.bench("trace_record_span", move || {
        let t0 = rec.now_ns();
        rec.record_span(ctx, "bench.span", t0, t0 + 1, 0)
    });

    let (clients, requests) = if h.is_smoke() { (2, 25) } else { (8, 1250) };
    h.bench("trace_serve_untraced", move || {
        serve_run(0, clients, requests)
    });
    h.bench("trace_serve_traced_1in64", move || {
        serve_run(64, clients, requests)
    });

    if let (Some(skip), Some(record), Some(base)) = (
        h.get("trace_sample_skip_1in64"),
        h.get("trace_record_span"),
        h.get("trace_serve_untraced"),
    ) {
        // Per request: every request pays one sampling check; 1/64 pay the
        // root span client-side plus five server-stage spans.
        let added_ns = skip.min_ns + (6.0 / 64.0) * record.min_ns;
        let per_req_ns = base.min_ns / (clients as f64 * requests as f64);
        let modeled = added_ns / per_req_ns;
        println!(
            "trace overhead modeled: {:.4}% of {:.1} ns/request",
            100.0 * modeled,
            per_req_ns
        );
        assert!(
            modeled < 0.02,
            "modeled tracing overhead is {:.3}% per request (must be < 2%)",
            100.0 * modeled
        );
    }
    if let Some(ratio) = h.compare("trace_serve_traced_1in64", "trace_serve_untraced") {
        assert!(
            ratio < 1.02,
            "traced serve run is {ratio:.4}x the untraced run (must be < 1.02x)"
        );
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_solver(&mut h);
    bench_solver_accel(&mut h);
    bench_telemetry_overhead(&mut h);
    bench_drop_model(&mut h);
    bench_partition_reset(&mut h);
    bench_fnw(&mut h);
    bench_wear_leveling(&mut h);
    bench_write_planning(&mut h);
    bench_trace_planning(&mut h);
    bench_controller(&mut h);
    bench_par_map_overhead(&mut h);
    bench_wal_append(&mut h);
    bench_trace_overhead(&mut h);
    h.finish();
}
