//! Closed-loop benchmark of the `qdd-serve` solve service.
//!
//! Issues N right-hand sides against ONE gauge configuration two ways,
//! on a single thread in both cases:
//!
//! * **cold** — N independent one-shot solves back to back, each paying
//!   the full setup (gauge materialization, clover inversion, precision
//!   conversion, domain coloring) before its solve, as a caller without
//!   the service would;
//! * **served** — the same N sources submitted to the service, which pays
//!   setup once (LRU cache), coalesces queued requests into multi-RHS
//!   batches, and reuses pooled workspaces.
//!
//! Both paths run the identical solver configuration over the identical
//! operator and sources (xoshiro256** seeding throughout); the Schwarz
//! worker pool is bitwise-deterministic in the worker count (see
//! `parallel_matches_serial_bitwise` in qdd-core), so the solutions and
//! residuals must agree **bitwise** — asserted below.
//! Emits `results/BENCH_serve.json` with throughput, p50/p99 latency and
//! cache hit rate in the shared `Report` schema.
//!
//! Run: `cargo run -p qdd-bench --release --bin serve [-- --smoke]`

use qdd_bench::Report;
use qdd_core::dd_solver::{DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_serve::{
    serve, ConfigKey, ConfigSource, ServeStatus, ServiceConfig, SolveRequest, SyntheticSource,
    Ticket,
};
use qdd_trace::TraceSink;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ColdPoint {
    request: usize,
    ms: f64,
}

#[derive(Serialize)]
struct ServedPoint {
    request: usize,
    ms: f64,
    queue_wait_ms: f64,
    iterations: usize,
}

#[derive(Serialize)]
struct ModelPoint {
    phase: String,
    measured_s: f64,
    predicted_s: f64,
    ratio: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims = if smoke { Dims::new(8, 4, 4, 4) } else { Dims::new(8, 8, 8, 8) };
    let n_rhs = 24usize;
    let tolerance = 2e-2;
    let solver_cfg = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 8, deflate: 2, tolerance, max_iterations: 100 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 2,
            mr: MrConfig { iterations: 2, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        precision: Precision::HalfCompressed,
        ..Default::default()
    };
    // Heavy quark on a smooth field: the operator is well conditioned,
    // so the solve is short and per-request setup (gauge materialization,
    // clover build + inversion, f16 compression, coloring) dominates the
    // cold path — the propagator-production regime the service targets.
    let mut source = SyntheticSource::new(dims);
    source.mass = 1.5;
    source.spread = 0.15;
    let config = ConfigKey(7);
    let rhs: Vec<SpinorField<f64>> = (0..n_rhs)
        .map(|i| {
            let mut rng = Rng64::new(1000 + i as u64);
            SpinorField::random(dims, &mut rng)
        })
        .collect();

    println!("serve benchmark: {n_rhs} right-hand sides, one configuration, {dims}");
    println!("target {tolerance:.0e}, 4^4 domains, ISchwarz=2, Idomain=2, single-threaded\n");

    // --- cold path: each request pays materialization + setup ---
    let cold_cfg = solver_cfg;
    let t_cold = Instant::now();
    let mut cold = Vec::with_capacity(n_rhs);
    let mut cold_ms = Vec::with_capacity(n_rhs);
    let mut setup_ms = 0.0;
    let mut solve_ms = 0.0;
    for f in &rhs {
        let t0 = Instant::now();
        let op = source.materialize(config).expect("synthetic config");
        let solver = DdSolver::new(op, cold_cfg).expect("non-singular clover");
        let t1 = Instant::now();
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve(f, &mut stats);
        assert!(out.converged, "cold solve failed: {}", out.relative_residual);
        setup_ms += t1.duration_since(t0).as_secs_f64() * 1e3;
        solve_ms += t1.elapsed().as_secs_f64() * 1e3;
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cold.push((x, out));
    }
    let cold_wall = t_cold.elapsed().as_secs_f64();
    println!(
        "cold per-request mean: setup {:.1} ms, solve {:.1} ms ({} outer iterations)",
        setup_ms / n_rhs as f64,
        solve_ms / n_rhs as f64,
        cold[0].1.iterations
    );

    // --- served path: same sources through the service, sharing one
    // cached setup; max_batch below the request count forces a second
    // batch so the run exercises a cache hit as well as a miss ---
    let svc = ServiceConfig {
        queue_capacity: 64,
        workers: 1,
        max_batch: n_rhs / 2,
        cache_capacity: 2,
        solver: solver_cfg,
        fallback_max_iterations: 10_000,
        ..ServiceConfig::default()
    };
    let sink = TraceSink::disabled();
    let t_served = Instant::now();
    let (responses, report) = serve(&svc, &source, &sink, |h| {
        let tickets: Vec<Ticket> = rhs
            .iter()
            .map(|f| {
                let mut req = SolveRequest::new(config, f.clone());
                req.tolerance = tolerance;
                req.precision = solver_cfg.precision;
                h.submit(req).expect("queue cannot fill at this depth")
            })
            .collect();
        tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
    });
    let served_wall = t_served.elapsed().as_secs_f64();

    // The service must return bitwise what the cold path computed.
    assert_eq!(responses.len(), cold.len());
    for (i, (resp, (x_cold, out_cold))) in responses.iter().zip(&cold).enumerate() {
        assert_eq!(resp.status, ServeStatus::Converged, "request {i} not converged");
        assert_eq!(
            resp.relative_residual.to_bits(),
            out_cold.relative_residual.to_bits(),
            "request {i}: served residual differs from cold solve"
        );
        assert!(
            resp.solution.as_slice() == x_cold.as_slice(),
            "request {i}: served solution differs bitwise from cold solve"
        );
    }
    println!("bitwise agreement: {} served solutions == cold one-shot solutions\n", n_rhs);

    // Telemetry acceptance: every answered request left a complete
    // admission → solve → completion timeline, and the model join priced
    // at least the Dirac apply and halo exchange phases.
    assert_eq!(report.timelines.len(), n_rhs, "one timeline per request");
    assert!(
        report.timelines.iter().all(qdd_serve::RequestTimeline::is_complete),
        "every timeline must span admission to completion"
    );
    for key in ["dirac_apply", "halo_exchange"] {
        assert!(report.model.get(key).is_some(), "model join missing {key}");
    }

    let speedup = cold_wall / served_wall;
    let lat = report.latency.summary();
    let cold_thr = n_rhs as f64 / cold_wall;
    let served_thr = n_rhs as f64 / served_wall;
    println!("{:>10} {:>12} {:>14}", "path", "wall [s]", "solves/s");
    println!("{:>10} {:>12.3} {:>14.2}", "cold", cold_wall, cold_thr);
    println!("{:>10} {:>12.3} {:>14.2}", "served", served_wall, served_thr);
    println!(
        "\nspeedup: {speedup:.2}x (setup cached {:.0}% of lookups)",
        100.0 * report.cache_hit_rate
    );
    println!(
        "batches: {} (sizes {:?})",
        report.metrics.counter("serve.batches"),
        report.metrics.summary("serve.batch.size")
    );
    println!(
        "served latency: p50 {:.1} ms, p99 {:.1} ms; queue wait p50 {:.1} ms",
        lat.p50_ms,
        lat.p99_ms,
        report.queue_wait.quantile_ms(0.5)
    );

    let mut out = Report::new("BENCH_serve");
    out.param("dims", format!("{dims}"))
        .param("block", "4x4x4x4")
        .param("rhs", n_rhs as u64)
        .param("tolerance", tolerance)
        .param("i_schwarz", 2u64)
        .param("i_domain", 2u64)
        .param("smoke", smoke);
    for (i, ms) in cold_ms.iter().enumerate() {
        out.push("cold_latency_ms", ColdPoint { request: i, ms: *ms });
    }
    for (i, r) in responses.iter().enumerate() {
        out.push(
            "served_latency_ms",
            ServedPoint {
                request: i,
                ms: r.latency.as_secs_f64() * 1e3,
                queue_wait_ms: r.queue_wait.as_secs_f64() * 1e3,
                iterations: r.iterations,
            },
        );
    }
    for t in &report.timelines {
        out.push("request_timelines", t.clone());
    }
    for (key, e) in report.model.entries() {
        out.push(
            "model_join",
            ModelPoint {
                phase: key.to_string(),
                measured_s: e.measured_s,
                predicted_s: e.predicted_s,
                ratio: e.ratio(),
            },
        );
    }
    out.meta("cold_wall_s", cold_wall)
        .meta("served_wall_s", served_wall)
        .meta("speedup", speedup)
        .meta("throughput_cold_solves_per_s", cold_thr)
        .meta("throughput_served_solves_per_s", served_thr)
        .meta("latency_p50_ms", lat.p50_ms)
        .meta("latency_p99_ms", lat.p99_ms)
        .meta("cache_hit_rate", report.cache_hit_rate)
        .meta("cache_hits", report.cache_hits)
        .meta("cache_misses", report.cache_misses)
        .meta("bitwise_identical", true);
    out.write();
    println!("\nwrote results/BENCH_serve.json");

    if !smoke {
        assert!(
            speedup >= 2.0,
            "service must be >= 2x faster than cold one-shot solves, got {speedup:.2}x"
        );
    }
}
