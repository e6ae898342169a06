//! `qdd-serve`: a batched multi-RHS solve service over the `qdd-core`
//! domain-decomposition solvers.
//!
//! Propagator production in lattice QCD issues many right-hand sides
//! against few gauge configurations. This crate turns the one-shot
//! solver into a multi-tenant service shaped around that workload:
//!
//! * **Admission control** — a bounded queue ([`BoundedQueue`]) sheds
//!   load with [`SubmitError::QueueFull`] instead of growing without
//!   bound or blocking producers.
//! * **Request batching** — queued requests that share a setup key
//!   ([`setup_key`]: config id, geometry, precision policy, tolerance)
//!   are coalesced into one multi-RHS batch through
//!   `DdSolver::solve_batch`, amortizing Schwarz setup and reusing
//!   pooled workspaces. Batched results are bitwise identical to
//!   independent solves.
//! * **Setup caching** — prepared solvers (clover inversion, precision
//!   conversion, domain coloring) are kept in an LRU [`SetupCache`],
//!   with hit/miss/eviction counters exported through `qdd-trace`. At
//!   most `cache_capacity` of them are resident (eviction precedes the
//!   build) and all are built on one setup thread, so the footprint does
//!   not depend on which worker took a miss.
//! * **Autotuning** — with `ServiceConfig::autotune` on, the
//!   `qdd-autotune` model search picks the Schwarz operating point
//!   (block geometry, `ISchwarz`, `Idomain`) for each request shape on
//!   the configured machine backend; tuned plans are cached in an LRU
//!   [`TuneCache`] beside the setup cache (`serve.tune.*` metrics), so
//!   tuning runs once per shape and is served thereafter.
//! * **Graceful degradation** — each response carries an honest
//!   [`ServeStatus`]: `Converged`, `Fallback` (plain BiCGstab rescued a
//!   primary miss), or `Degraded` with a [`DegradeReason`]. Deadline
//!   misses return the best iterate so far; nothing panics or hangs.
//!
//! * **Sharded self-healing** — [`shard_serve`] runs the service as a
//!   supervised pool of *shard workers*, each owning a simulated
//!   multi-rank communication world with its own seeded fault plan
//!   ([`qdd_faults::ShardFaults`]). A supervisor thread tracks per-shard
//!   health from solve verdicts, trips a per-shard [`CircuitBreaker`]
//!   on repeated failures (Closed → Open → HalfOpen probe), fails
//!   requests over to healthy shards with a best-so-far warm-restart
//!   iterate, and sheds deadline-expired requests at dequeue — all on a
//!   round-synchronous logical clock that keeps the whole pool
//!   bitwise-reproducible under a fixed fault seed.
//!
//! Entry points: [`serve`] runs the single-world worker pool around a
//! client closure and returns a [`ServiceReport`] with
//! queue-depth/batch-size metrics and p50/p99 latency; [`shard_serve`]
//! runs the supervised shard pool and returns a [`PoolReport`].

pub mod breaker;
pub mod cache;
pub mod latency;
pub mod queue;
pub mod request;
pub mod service;
pub mod shard;
pub mod supervisor;
pub mod telemetry;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use cache::{CacheOutcome, SetupCache, ShardSetupCache, TuneCache};
pub use latency::{LatencyRecorder, LatencySummary};
pub use queue::{BoundedQueue, QueueFull};
pub use request::{
    setup_key, ConfigKey, ConfigSource, DegradeReason, ServeStatus, SolveRequest, SolveResponse,
    SyntheticSource,
};
pub use service::{
    serve, serve_with_flight, ServiceConfig, ServiceHandle, ServiceReport, SubmitError, Ticket,
    STRAGGLER_RATIO,
};
pub use shard::{
    run_shard_job, shard_worker_loop, ShardJob, ShardOutcome, ShardRuntime, ShardSetup,
};
pub use supervisor::{
    shard_serve, shard_serve_with_flight, PoolHandle, PoolReport, PoolTicket, ShardPoolConfig,
};
pub use telemetry::{join_against_model, RequestTimeline};
