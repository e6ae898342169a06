//! Chaos-under-supervision: seeded fault injection against the sharded
//! service, checking *request conservation* — every admitted request ends
//! in exactly one terminal state (converged | degraded | shed), none are
//! lost, none are double-counted — plus rerun determinism and bitwise
//! equivalence of the fault-free pool with the single-world solve path.

use qdd_comm::{
    dd_solve_resilient, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig,
};
use qdd_core::{FgmresConfig, MrConfig, SchwarzConfig};
use qdd_faults::{FaultRates, ShardFaults};
use qdd_field::fields::SpinorField;
use qdd_lattice::{Dims, RankGrid};
use qdd_serve::{
    shard_serve, ConfigKey, ConfigSource, PoolTicket, ServeStatus, ShardPoolConfig, SolveRequest,
    SolveResponse, SyntheticSource,
};
use qdd_trace::TraceSink;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use std::collections::HashSet;
use std::time::Duration;

fn dims() -> Dims {
    Dims::new(8, 4, 4, 8)
}

fn pool_cfg(shards: usize) -> ShardPoolConfig {
    ShardPoolConfig {
        shards,
        rank_dims: Dims::new(1, 1, 1, 2),
        solver: DistDdConfig {
            fgmres: FgmresConfig {
                max_basis: 10,
                deflate: 4,
                tolerance: 1e-8,
                max_iterations: 120,
            },
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
    }
}

fn requests(n: u64) -> Vec<SolveRequest> {
    (0..n)
        .map(|i| {
            let mut rng = Rng64::new(900 + i);
            // Spread requests over two configs to exercise the shared
            // setup cache alongside the chaos.
            SolveRequest::new(ConfigKey(1 + i % 2), SpinorField::random(dims(), &mut rng))
        })
        .collect()
}

fn run_pool(
    shards: usize,
    faults: &ShardFaults,
    reqs: Vec<SolveRequest>,
) -> (Vec<SolveResponse>, qdd_serve::PoolReport) {
    let cfg = pool_cfg(shards);
    let source = SyntheticSource::new(dims());
    let sink = TraceSink::disabled();
    shard_serve(&cfg, &source, faults, &sink, |h| {
        h.submit_wave(reqs).into_iter().map(PoolTicket::wait).collect::<Vec<_>>()
    })
}

/// Every admitted request must end in exactly one terminal state — no
/// lost replies, no duplicates — whatever the shard count and however
/// sick part of the pool is.
#[test]
fn conservation_across_shard_counts_under_chaos() {
    for shards in [1usize, 2, 3] {
        // Shard 0 drops everything; the rest run clean. With one shard
        // the whole pool is sick and every request must still come back
        // (degraded), never hang or vanish.
        let faults =
            ShardFaults::none(11).with_shard(0, FaultRates { loss: 1.0, ..FaultRates::default() });
        let mut reqs = requests(5);
        // One immediately-expired request exercises the shed path.
        reqs[4].deadline = Some(Duration::ZERO);
        let admitted = reqs.len() as u64;
        let (responses, report) = run_pool(shards, &faults, reqs);

        assert_eq!(responses.len() as u64, admitted, "{shards} shards: lost replies");
        assert_eq!(report.completed, admitted, "{shards} shards: completed != admitted");

        // Exactly one reply per request id, ids exactly 0..n.
        let ids: HashSet<u64> = responses.iter().map(|r| r.request_id.0).collect();
        assert_eq!(ids.len() as u64, admitted, "{shards} shards: duplicated reply ids");
        assert_eq!(ids, (0..admitted).collect::<HashSet<u64>>());

        // One timeline per request, each with exactly one terminal stage.
        assert_eq!(report.timelines.len() as u64, admitted);
        for t in &report.timelines {
            assert!(t.is_complete(), "{shards} shards: incomplete timeline {:?}", t.stages);
            let terminals = t
                .stages
                .iter()
                .filter(|s| matches!(s.0, "solved" | "fallback" | "degraded" | "shed"))
                .count();
            assert_eq!(terminals, 1, "{shards} shards: {} terminal stages", terminals);
        }

        // Status counters add up to the admitted total (no double counting).
        let c = report.metrics.counters();
        let by_status: f64 = ["converged", "fallback", "degraded", "shed"]
            .iter()
            .map(|s| c.get(&format!("serve.status.{s}")).copied().unwrap_or(0.0))
            .sum();
        assert_eq!(by_status, admitted as f64, "{shards} shards: status counters disagree");

        // The zero-deadline request was shed, never solved.
        let shed: Vec<_> = responses.iter().filter(|r| r.status == ServeStatus::Shed).collect();
        assert_eq!(shed.len(), 1, "{shards} shards: shed count");
        assert_eq!(shed[0].iterations, 0);

        if shards > 1 {
            // A healthy sibling existed: everything not shed converged.
            for r in responses.iter().filter(|r| r.status != ServeStatus::Shed) {
                assert_eq!(r.status, ServeStatus::Converged, "{shards} shards: {}", r.status);
                assert!(r.relative_residual <= 1e-8);
            }
            assert!(report.failovers >= 1, "{shards} shards: sick shard never failed over");
        } else {
            // Nowhere to fail over: honest degradation, not a hang.
            for r in responses.iter().filter(|r| r.status != ServeStatus::Shed) {
                assert!(!r.status.meets_target(), "{shards} shards: {}", r.status);
            }
        }
    }
}

/// The same fault seed and the same wave must reproduce the run exactly:
/// statuses, iteration counts, failover totals, and every solution bit.
#[test]
fn chaos_runs_are_deterministic_under_a_fixed_seed() {
    let faults =
        ShardFaults::none(23).with_shard(0, FaultRates { loss: 1.0, ..FaultRates::default() });
    let (a, ra) = run_pool(2, &faults, requests(4));
    let (b, rb) = run_pool(2, &faults, requests(4));
    assert_eq!(ra.failovers, rb.failovers);
    assert_eq!(ra.breaker_trips, rb.breaker_trips);
    assert_eq!(ra.shard_jobs, rb.shard_jobs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.status, y.status);
        assert_eq!(x.iterations, y.iterations);
        assert_eq!(x.relative_residual.to_bits(), y.relative_residual.to_bits());
        assert_eq!(x.solution.as_slice(), y.solution.as_slice(), "solution bits differ");
    }
}

/// Fault-free pool solutions are bitwise identical to running the same
/// resilient distributed solve directly on one world — healthy shards are
/// interchangeable with the single-world path.
#[test]
fn fault_free_pool_matches_single_world_path_bitwise() {
    let cfg = pool_cfg(2);
    let faults = ShardFaults::none(1);
    let reqs = requests(3);
    let sources: Vec<SpinorField<f64>> = reqs.iter().map(|r| r.source.clone()).collect();
    let configs: Vec<ConfigKey> = reqs.iter().map(|r| r.config).collect();
    let (responses, _) = run_pool(2, &faults, reqs);

    let synth = SyntheticSource::new(dims());
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.status, ServeStatus::Converged, "request {i}");
        // Reference: one plain world, same rank grid, same solver config.
        let op = synth.materialize(configs[i]).unwrap();
        let grid = RankGrid::new(*op.dims(), cfg.rank_dims);
        let gauge = scatter_gauge(op.gauge(), &grid);
        let clover = scatter_clover(op.clover(), &grid);
        let b_local = scatter_field(&sources[i], &grid);
        let world = CommWorld::new(grid.clone());
        let results = run_spmd(&world, |ctx| {
            let rk = ctx.rank();
            let local_op = qdd_dirac::wilson::WilsonClover::new(
                gauge[rk].clone(),
                clover[rk].clone(),
                op.mass(),
                *op.phases(),
            );
            let mut stats = SolveStats::new();
            dd_solve_resilient(
                ctx,
                &local_op,
                &b_local[rk],
                &cfg.solver,
                cfg.max_restarts,
                &mut stats,
            )
        });
        let locals: Vec<SpinorField<f64>> = results.iter().map(|t| t.0.clone()).collect();
        let reference = gather_field(&locals, &grid);
        assert_eq!(
            r.solution.as_slice(),
            reference.as_slice(),
            "request {i}: pool solution diverged from the single-world path"
        );
        assert_eq!(r.iterations, results[0].1.outcome.iterations, "request {i}: iterations");
    }
}
