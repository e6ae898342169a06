//! Shard workers: one simulated multi-rank world per worker.
//!
//! A *shard* is the sharded service's unit of failure: one worker thread
//! owning a [`qdd_comm`] communication world (a rank grid of SPMD
//! threads) that executes resilient distributed solves
//! ([`qdd_comm::dd_solve_resilient_warm`]) one job at a time. Each shard
//! carries its own seeded fault plan (from
//! [`qdd_faults::ShardFaults::plan_for`]) and retry policy, so a "sick"
//! shard misbehaves deterministically while its siblings — whose plans
//! are inert and therefore dropped at world construction — run the
//! bitwise-clean fast path. That is what makes healthy shards
//! *interchangeable*: a job solved on any healthy shard produces the
//! same bits as the single-world resilient solve.
//!
//! The expensive part of a cold job is the scatter of the materialized
//! configuration into per-rank local fields; [`ShardSetupCache`] keeps
//! the most recently used [`ShardSetup`]s in one LRU shared (behind a
//! mutex) by every shard in the pool, so eviction is coordinated
//! pool-wide instead of duplicated per shard.

use crate::cache::ShardSetupCache;
use crate::request::{ConfigKey, ConfigSource};
use qdd_comm::{
    dd_solve_resilient_warm, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig, HealthVerdict, RetryPolicy,
};
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_faults::FaultPlan;
use qdd_field::fields::{CloverField, GaugeField, SpinorField};
use qdd_lattice::{Dims, RankGrid};
use qdd_trace::{FlightLane, Phase, TraceId, TraceSink};
use qdd_util::stats::SolveStats;
use std::sync::Arc;

/// A gauge configuration scattered for one rank grid: everything a shard
/// needs to stand up its per-rank local operators without touching the
/// [`ConfigSource`] again.
pub struct ShardSetup {
    pub grid: RankGrid,
    pub gauge: Vec<GaugeField<f64>>,
    pub clover: Vec<CloverField<f64>>,
    pub mass: f64,
    pub phases: BoundaryPhases,
}

impl ShardSetup {
    /// Materialize `key` and scatter it across a `rank_dims` grid of the
    /// configuration's own lattice. `None` if the source does not know
    /// the key.
    pub fn build(source: &dyn ConfigSource, key: ConfigKey, rank_dims: Dims) -> Option<Self> {
        let op = source.materialize(key)?;
        let grid = RankGrid::new(*op.dims(), rank_dims);
        Some(Self {
            gauge: scatter_gauge(op.gauge(), &grid),
            clover: scatter_clover(op.clover(), &grid),
            mass: op.mass(),
            phases: *op.phases(),
            grid,
        })
    }
}

/// One unit of work for a shard: solve `A x = source` on the scattered
/// configuration `setup`, optionally warm-started from a best-so-far
/// iterate handed over by a failover.
pub struct ShardJob {
    /// Request id (supervisor-scoped).
    pub id: u64,
    /// Trace id every flight event of this attempt carries.
    pub trace: TraceId,
    /// Failover attempt number (0 = first dispatch).
    pub attempt: u32,
    /// Setup-cache key of the configuration.
    pub setup_key: u64,
    pub config: ConfigKey,
    /// Right-hand side, shared so failover re-dispatches don't copy it.
    pub source: Arc<SpinorField<f64>>,
    pub tolerance: f64,
    /// Best-so-far iterate from a previous (failed) attempt; the solver
    /// audits it against the honest residual and falls back to a cold
    /// start bitwise if it is no better.
    pub x0: Option<SpinorField<f64>>,
}

/// What a shard hands back to the supervisor for one job.
pub struct ShardOutcome {
    pub id: u64,
    pub attempt: u32,
    /// Gathered global solution (best iterate if unconverged).
    pub solution: SpinorField<f64>,
    pub relative_residual: f64,
    /// Outer iterations summed over restart rounds.
    pub iterations: usize,
    /// Restart rounds the resilient wrapper took.
    pub restarts: u32,
    /// The solve's health summary (drives the shard's breaker).
    pub verdict: HealthVerdict,
    pub warm_started: bool,
    pub warm_rejected: bool,
    /// The configuration could not be materialized; nothing ran. Not a
    /// shard-health signal (the config is bad, not the shard).
    pub setup_failed: bool,
}

/// Per-shard execution parameters, fixed for the pool's lifetime.
#[derive(Clone)]
pub struct ShardRuntime {
    /// The shard's index in the pool (flight lane `shard + 1`).
    pub shard: usize,
    /// Rank-grid decomposition each solve runs on (applied to the
    /// request's own lattice dims).
    pub rank_dims: Dims,
    /// Distributed solver configuration (tolerance overridden per job).
    pub solver: DistDdConfig,
    /// Restart budget of the resilient wrapper.
    pub max_restarts: u32,
    /// Retry policy installed into every rank context.
    pub retry: RetryPolicy,
    /// This shard's seeded fault plan (inert plans are dropped by the
    /// world constructor, preserving the bitwise-clean fast path).
    pub faults: FaultPlan,
}

/// The shard worker loop: drain `jobs` until the channel closes, handing
/// each [`ShardOutcome`] to `emit` (the supervisor's event channel).
///
/// Every job builds a fresh [`CommWorld`] from the shard's fault plan,
/// so fault decisions — pure functions of `(seed, rank, message
/// coordinates)` — replay identically for identical job streams: the
/// whole pool is deterministic given the fault seed and the schedule.
pub fn shard_worker_loop(
    rt: &ShardRuntime,
    source: &dyn ConfigSource,
    setups: &std::sync::Mutex<ShardSetupCache>,
    sink: &TraceSink,
    flane: &FlightLane,
    jobs: &crossbeam::channel::Receiver<ShardJob>,
    emit: impl Fn(ShardOutcome),
) {
    let mut lane = sink.thread(rt.shard as u32 + 1);
    while let Ok(job) = jobs.recv() {
        emit(run_shard_job(rt, source, setups, &mut lane, flane, job));
    }
}

/// Execute one job on this shard's world. Split out of the loop so tests
/// can drive a shard synchronously.
pub fn run_shard_job(
    rt: &ShardRuntime,
    source: &dyn ConfigSource,
    setups: &std::sync::Mutex<ShardSetupCache>,
    lane: &mut qdd_trace::ThreadRecorder,
    flane: &FlightLane,
    job: ShardJob,
) -> ShardOutcome {
    flane.set_trace(job.trace);
    flane.record(Phase::ServeShard, "shard.job", job.id as f64, job.attempt as f64);
    // Resolve the scattered configuration through the pool-shared LRU;
    // the lock serializes duplicate builds of the same key.
    let setup = {
        let mut guard = setups.lock().unwrap();
        guard.get_or_build(job.setup_key, || ShardSetup::build(source, job.config, rt.rank_dims))
    };
    let Some(setup) = setup else {
        flane.record(Phase::ServeShard, "shard.setup.failed", job.id as f64, 0.0);
        return ShardOutcome {
            id: job.id,
            attempt: job.attempt,
            solution: SpinorField::zeros(*job.source.dims()),
            relative_residual: 1.0,
            iterations: 0,
            restarts: 0,
            verdict: HealthVerdict::default(),
            warm_started: false,
            warm_rejected: false,
            setup_failed: true,
        };
    };

    let b_local = scatter_field(&job.source, &setup.grid);
    let x0_local = job.x0.as_ref().map(|x| scatter_field(x, &setup.grid));
    let mut cfg = rt.solver;
    cfg.fgmres.tolerance = job.tolerance;

    let world =
        CommWorld::with_faults(setup.grid.clone(), rt.faults.clone()).with_retry_policy(rt.retry);
    lane.begin(Phase::ServeShard);
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        // Every rank of this shard records fault breadcrumbs on the
        // shard's flight lane under the request's trace id.
        ctx.attach_flight(flane.clone());
        ctx.set_trace_id(job.trace);
        let op = WilsonClover::new(
            setup.gauge[r].clone(),
            setup.clover[r].clone(),
            setup.mass,
            setup.phases,
        );
        let mut stats = SolveStats::new();
        dd_solve_resilient_warm(
            ctx,
            &op,
            &b_local[r],
            x0_local.as_ref().map(|v| &v[r]),
            &cfg,
            rt.max_restarts,
            &mut stats,
        )
    });
    lane.end(Phase::ServeShard);
    lane.flush();

    let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
    let solution = gather_field(&locals, &setup.grid);
    // The outcome is collectively agreed (every rank reports the same
    // converged/faulted flags); fault counters are summed across ranks.
    let out = &results[0].1;
    let mut comm = results[0].2.clone();
    for (_, _, c) in results.iter().skip(1) {
        comm.faults.merge(&c.faults);
    }
    let verdict = HealthVerdict::from_solve(out, &comm);
    flane.record(
        Phase::ServeShard,
        if verdict.unhealthy() { "shard.job.failed" } else { "shard.job.done" },
        job.id as f64,
        out.outcome.iterations as f64,
    );
    ShardOutcome {
        id: job.id,
        attempt: job.attempt,
        solution,
        relative_residual: out.outcome.relative_residual,
        iterations: out.outcome.iterations,
        restarts: out.restarts,
        verdict,
        warm_started: out.warm_started,
        warm_rejected: out.warm_rejected,
        setup_failed: false,
    }
}
