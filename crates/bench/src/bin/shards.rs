//! Sharded-service chaos benchmark: self-healing under a permanently
//! sick shard.
//!
//! Closed-loop driver against [`qdd_serve::shard_serve`], in three acts:
//!
//! 1. **Fault-free**: a wave of requests through an N-shard pool with
//!    inert fault plans. Every solution is asserted *bitwise identical*
//!    to running the same resilient distributed solve directly on one
//!    world — healthy shards are interchangeable with the single-world
//!    path.
//! 2. **Degraded**: the same wave with shard 0 under a 100% message-loss
//!    plan. The run is executed twice and asserted bitwise-reproducible
//!    (statuses, iteration counts, failover totals, solution bits) under
//!    the same `QDD_FAULT_SEED`. Acceptance: zero dropped acknowledged
//!    requests, shard 0's breaker opens within its failure threshold,
//!    and the p99 of surviving traffic (requests that never touched the
//!    sick shard) stays within 2x the fault-free p99.
//! 3. **Load sweep**: p50/p99/shed-rate versus wave size with shard 0
//!    still sick. Shedding is driven by already-expired deadlines (one
//!    request in eight arrives with a lapsed budget), so shed counts are
//!    deterministic and gated; latencies are wall clock and are not.
//!
//! Emits `results/BENCH_shards.json` in the shared `Report` schema.
//!
//! Run: `cargo run -p qdd-bench --release --bin shards [-- --smoke]`

use qdd_bench::Report;
use qdd_comm::{
    dd_solve_resilient, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig,
};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::wilson::WilsonClover;
use qdd_faults::{FaultRates, ShardFaults};
use qdd_field::fields::SpinorField;
use qdd_lattice::{Dims, RankGrid};
use qdd_serve::{
    BreakerState, ConfigKey, ConfigSource, PoolReport, PoolTicket, ServeStatus, ShardPoolConfig,
    SolveRequest, SolveResponse, SyntheticSource,
};
use qdd_trace::TraceSink;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use serde::Serialize;
use std::time::Duration;

/// One request's deterministic outcome projection (gated fields only;
/// latency rides along for the human-readable table).
#[derive(Serialize)]
struct RequestPoint {
    request: u64,
    trace: u64,
    config: u64,
    status: String,
    iterations: usize,
    attempts: u32,
    latency_ms: f64,
}

#[derive(Serialize)]
struct TransitionPoint {
    shard: usize,
    from: String,
    to: String,
    round: u64,
}

#[derive(Serialize)]
struct SweepPoint {
    load: usize,
    shed: u64,
    converged: u64,
    degraded: u64,
    failovers: u64,
    breaker_trips: u64,
    p50_ms: f64,
    p99_ms: f64,
}

fn request_point(r: &SolveResponse, config: ConfigKey) -> RequestPoint {
    RequestPoint {
        request: r.request_id.0,
        trace: r.trace_id.0,
        config: config.0,
        status: r.status.to_string(),
        iterations: r.iterations,
        attempts: r.attempts,
        latency_ms: r.latency.as_secs_f64() * 1e3,
    }
}

/// FNV-1a over the raw bits of every solution, in request order: one
/// number that pins the whole run's numerics.
fn solution_digest(responses: &[SolveResponse]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in responses {
        for spinor in r.solution.as_slice() {
            for c3 in &spinor.0 {
                for z in &c3.0 {
                    eat(z.re);
                    eat(z.im);
                }
            }
        }
    }
    h
}

fn requests(n: u64, dims: Dims, expired_every: Option<u64>) -> Vec<SolveRequest> {
    (0..n)
        .map(|i| {
            let mut rng = Rng64::new(900 + i);
            let mut req =
                SolveRequest::new(ConfigKey(1 + i % 2), SpinorField::random(dims, &mut rng));
            // A client whose latency budget already lapsed: admitted,
            // then shed at dequeue — deterministically.
            if expired_every.is_some_and(|k| i % k == k - 1) {
                req.deadline = Some(Duration::ZERO);
            }
            req
        })
        .collect()
}

fn run_pool(
    cfg: &ShardPoolConfig,
    source: &SyntheticSource,
    faults: &ShardFaults,
    reqs: Vec<SolveRequest>,
) -> (Vec<SolveResponse>, PoolReport) {
    let sink = TraceSink::disabled();
    qdd_serve::shard_serve(cfg, source, faults, &sink, |h| {
        h.submit_wave(reqs).into_iter().map(PoolTicket::wait).collect::<Vec<_>>()
    })
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx]
}

fn p50_p99(responses: &[SolveResponse], keep: impl Fn(&SolveResponse) -> bool) -> (f64, f64) {
    let mut ms: Vec<f64> =
        responses.iter().filter(|r| keep(r)).map(|r| r.latency.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (percentile(&ms, 0.50), percentile(&ms, 0.99))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims = if smoke { Dims::new(8, 4, 4, 8) } else { Dims::new(8, 8, 8, 8) };
    let shards = 3usize;
    let tolerance = if smoke { 1e-8 } else { 1e-10 };
    let fault_seed =
        std::env::var("QDD_FAULT_SEED").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(7);
    let n_requests: u64 = if smoke { 9 } else { 18 };
    let loads: &[usize] = if smoke { &[4, 8, 16] } else { &[8, 16, 32] };

    let cfg = ShardPoolConfig {
        shards,
        rank_dims: Dims::new(1, 1, 1, 2),
        solver: DistDdConfig {
            fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance, max_iterations: 300 },
            schwarz: SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 4,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            ..Default::default()
        },
        max_restarts: 1,
        retry_budget: 2,
        ..ShardPoolConfig::default()
    };
    let source = SyntheticSource::new(dims);
    let sick = FaultRates { loss: 1.0, ..FaultRates::default() };

    let mut report = Report::new("BENCH_shards");
    report
        .param("dims", dims.to_string())
        .param("ranks", cfg.rank_dims.to_string())
        .param("shards", shards as f64)
        .param("tolerance", tolerance)
        .param("fault_seed", fault_seed as f64)
        .param("requests", n_requests as f64)
        .param("retry_budget", cfg.retry_budget as f64)
        .param("failure_threshold", cfg.breaker.failure_threshold as f64)
        .param("smoke", smoke)
        .meta(
            "note",
            "degraded runs put shard 0 under 100% message loss; sweep shed counts come from \
             already-expired deadlines (every 8th request) so they are deterministic; latency \
             fields are wall clock and not gated",
        );
    std::fs::create_dir_all("results").ok();

    // ---- Act 1: fault-free pool vs the single-world path, bitwise. ----
    let clean_reqs = requests(n_requests, dims, None);
    let configs: Vec<ConfigKey> = clean_reqs.iter().map(|r| r.config).collect();
    let sources: Vec<SpinorField<f64>> = clean_reqs.iter().map(|r| r.source.clone()).collect();
    let (clean_rsp, clean_rep) =
        run_pool(&cfg, &source, &ShardFaults::none(fault_seed), clean_reqs);
    assert_eq!(clean_rep.completed, n_requests, "fault-free pool dropped requests");
    for (i, r) in clean_rsp.iter().enumerate() {
        assert_eq!(r.status, ServeStatus::Converged, "fault-free request {i}: {}", r.status);
        let op = source.materialize(configs[i]).unwrap();
        let grid = RankGrid::new(*op.dims(), cfg.rank_dims);
        let gauge = scatter_gauge(op.gauge(), &grid);
        let clover = scatter_clover(op.clover(), &grid);
        let b_local = scatter_field(&sources[i], &grid);
        let world = CommWorld::new(grid.clone());
        let results = run_spmd(&world, |ctx| {
            let rk = ctx.rank();
            let op_l =
                WilsonClover::new(gauge[rk].clone(), clover[rk].clone(), op.mass(), *op.phases());
            let mut stats = SolveStats::new();
            dd_solve_resilient(ctx, &op_l, &b_local[rk], &cfg.solver, cfg.max_restarts, &mut stats)
        });
        let locals: Vec<SpinorField<f64>> = results.iter().map(|t| t.0.clone()).collect();
        let reference = gather_field(&locals, &grid);
        assert_eq!(
            r.solution.as_slice(),
            reference.as_slice(),
            "request {i}: pool solution diverged from the single-world path"
        );
        report.push("fault_free", request_point(r, configs[i]));
    }
    let (clean_p50, clean_p99) = p50_p99(&clean_rsp, |_| true);
    report.meta("bitwise_identical", true);
    report.meta("fault_free_digest", format!("{:016x}", solution_digest(&clean_rsp)));
    println!(
        "fault-free: {n_requests} requests over {shards} shards, all converged, \
         bitwise == single-world path  (p50 {clean_p50:.1} ms, p99 {clean_p99:.1} ms)"
    );

    // ---- Act 2: shard 0 permanently sick; run twice, must reproduce. ----
    let faults = ShardFaults::none(fault_seed).with_shard(0, sick);
    let (deg_rsp, deg_rep) = run_pool(&cfg, &source, &faults, requests(n_requests, dims, None));
    let (deg_rsp2, deg_rep2) = run_pool(&cfg, &source, &faults, requests(n_requests, dims, None));

    // Rerun determinism: same seed, same wave, same everything.
    assert_eq!(deg_rep.failovers, deg_rep2.failovers, "failover count drifted across reruns");
    assert_eq!(deg_rep.breaker_trips, deg_rep2.breaker_trips);
    assert_eq!(deg_rep.shard_jobs, deg_rep2.shard_jobs);
    assert_eq!(
        solution_digest(&deg_rsp),
        solution_digest(&deg_rsp2),
        "degraded run is not bitwise-reproducible under the same fault seed"
    );
    for (a, b) in deg_rsp.iter().zip(&deg_rsp2) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.trace_id, b.trace_id);
    }

    // Zero dropped acknowledged requests; every survivor converged.
    assert_eq!(deg_rep.completed, n_requests, "degraded pool dropped requests");
    for (i, r) in deg_rsp.iter().enumerate() {
        assert_eq!(
            r.status,
            ServeStatus::Converged,
            "degraded request {i} should have failed over and converged: {}",
            r.status
        );
        report.push("degraded", request_point(r, configs[i]));
    }
    assert!(deg_rep.failovers >= 1, "the sick shard never forced a failover");

    // The breaker must open within its failure threshold (rounds are the
    // pool's logical clock; one failure per round at most).
    assert!(deg_rep.breaker_trips >= 1, "shard 0's breaker never tripped");
    let open = deg_rep
        .breaker_transitions
        .iter()
        .find(|(s, t)| *s == 0 && t.to == BreakerState::Open)
        .expect("no Open transition recorded for shard 0");
    assert!(
        open.1.round <= cfg.breaker.failure_threshold as u64,
        "breaker opened at round {} > threshold {}",
        open.1.round,
        cfg.breaker.failure_threshold
    );
    for (shard, t) in &deg_rep.breaker_transitions {
        report.push(
            "breaker_transitions",
            &TransitionPoint {
                shard: *shard,
                from: t.from.label().to_string(),
                to: t.to.label().to_string(),
                round: t.round,
            },
        );
    }

    // Surviving traffic (never touched the sick shard) must not pay more
    // than 2x the fault-free p99. Smoke runs get a small absolute slack
    // against scheduler jitter on tiny solves.
    let (deg_p50, deg_p99) = p50_p99(&deg_rsp, |r| r.attempts == 1);
    let slack_ms = if smoke { 100.0 } else { 0.0 };
    assert!(
        deg_p99 <= 2.0 * clean_p99 + slack_ms,
        "surviving-traffic p99 {deg_p99:.1} ms exceeds 2x fault-free p99 {clean_p99:.1} ms"
    );
    report.meta("rerun_bitwise", true);
    report.meta("zero_dropped", true);
    report.meta("degraded_digest", format!("{:016x}", solution_digest(&deg_rsp)));
    report.meta("breaker_open_round", open.1.round as f64);
    report.meta("failovers", deg_rep.failovers as f64);
    println!(
        "degraded:   shard 0 at 100% loss: {} failovers, breaker open at round {}, \
         all {} requests converged, rerun bitwise  (survivor p50 {deg_p50:.1} ms, p99 {deg_p99:.1} ms)",
        deg_rep.failovers, open.1.round, n_requests
    );

    // ---- Act 3: p50/p99/shed-rate vs load, shard 0 still sick. ----
    println!(
        "\n{:>6} {:>6} {:>10} {:>10} {:>9} {:>6} {:>10} {:>10}",
        "load", "shed", "converged", "degraded", "failover", "trips", "p50_ms", "p99_ms"
    );
    for &load in loads {
        let (rsp, rep) = run_pool(&cfg, &source, &faults, requests(load as u64, dims, Some(8)));
        assert_eq!(rep.completed, load as u64, "load {load}: dropped requests");
        let converged = rsp.iter().filter(|r| r.status == ServeStatus::Converged).count() as u64;
        let degraded =
            rsp.iter().filter(|r| matches!(r.status, ServeStatus::Degraded(_))).count() as u64;
        assert_eq!(rep.shed + converged + degraded, load as u64, "load {load}: lost a request");
        let (p50, p99) = p50_p99(&rsp, |r| r.status != ServeStatus::Shed);
        let point = SweepPoint {
            load,
            shed: rep.shed,
            converged,
            degraded,
            failovers: rep.failovers,
            breaker_trips: rep.breaker_trips,
            p50_ms: p50,
            p99_ms: p99,
        };
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>9} {:>6} {:>10.1} {:>10.1}",
            point.load,
            point.shed,
            point.converged,
            point.degraded,
            point.failovers,
            point.breaker_trips,
            point.p50_ms,
            point.p99_ms
        );
        report.push("load_sweep", &point);
    }

    report.write();
    println!("\nwritten: results/BENCH_shards.json");
}
