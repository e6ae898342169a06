//! The solve service: admission, batching, caching, degradation.
//!
//! Request lifecycle: [`ServiceHandle::submit`] admits a request into the
//! bounded queue (or sheds it with `QueueFull`); a worker pops it and
//! coalesces every queued request sharing its setup key into one
//! multi-RHS batch; the batch resolves its prepared solver through the
//! LRU setup cache (built under a `ServeSetup` span on a miss, on the
//! service's one setup thread) and runs through `DdSolver::solve_batch`
//! with a worker-local workspace pool. Per request, the degradation ladder is:
//!
//! 1. primary FGMRES-DR + Schwarz (status `Converged`),
//! 2. plain BiCGstab fallback if the primary misses the target and the
//!    deadline still has budget (status `Fallback`),
//! 3. otherwise the best iterate so far with a `Degraded` status naming
//!    the reason — a request is answered in every case; nothing panics or
//!    hangs.
//!
//! Queue depth, batch size, cache hits and latency are recorded both as
//! counter events on the attached [`TraceSink`] (visible in the
//! Chrome-trace export) and in the returned [`ServiceReport`] metrics.
//!
//! **Telemetry.** Every admitted request is stamped with a
//! [`RequestId`]/[`TraceId`] pair at admission; the ids ride through
//! coalescing, the setup cache, the batched solve and the fallback
//! ladder, come back on the [`SolveResponse`], and key the per-request
//! [`RequestTimeline`]s in the report. Workers record wait-free into
//! per-worker [`ShardedMetrics`] shards (merged in lane order at
//! shutdown, so worker count never changes the merged result), feed the
//! measured phase times into the `model.err.*` join, and — when a
//! [`FlightRecorder`] is attached via [`serve_with_flight`] — leave a
//! ring-buffer breadcrumb trail that is auto-dumped on load shed, solver
//! breakdown, or worker-lane straggling.

use crate::cache::{CacheOutcome, SetupCache, TuneCache};
use crate::latency::LatencyRecorder;
use crate::queue::BoundedQueue;
use crate::request::{
    setup_key, ConfigKey, ConfigSource, DegradeReason, ServeStatus, SolveRequest, SolveResponse,
};
use crate::telemetry::{join_against_model, RequestTimeline};
use crossbeam::channel::{unbounded, Receiver, Sender};
use qdd_autotune::{fnv1a_u64, Autotuner, TuneProblem};
use qdd_core::{bicgstab, BiCgStabConfig, DdSolver, DdSolverConfig, LocalSystem, WorkspacePool};
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_machine::BackendKind;
use qdd_trace::{
    FlightLane, FlightRecorder, MetricsRegistry, ModelJoin, Phase, RequestId, ShardedMetrics,
    ThreadRecorder, TraceId, TraceSink,
};
use qdd_util::stats::SolveStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Service tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ServiceConfig {
    /// Admission-queue bound; a full queue sheds load (`QueueFull`).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum right-hand sides coalesced into one batch.
    pub max_batch: usize,
    /// Prepared solvers kept in the LRU setup cache.
    pub cache_capacity: usize,
    /// Solver template; each request overrides the outer tolerance and
    /// preconditioner precision with its own.
    pub solver: DdSolverConfig,
    /// Iteration cap of the BiCGstab fallback stage.
    pub fallback_max_iterations: usize,
    /// Seed the per-request [`TraceId`]s are derived from; two runs with
    /// the same seed and admission order assign identical trace ids.
    pub trace_seed: u64,
    /// Autotune the Schwarz operating point (block geometry, `ISchwarz`,
    /// `Idomain`) per request *shape* before building solvers. Tuned
    /// plans are cached in an LRU alongside the setup cache: tuning runs
    /// once per shape and is served thereafter (`serve.tune.*` metrics).
    pub autotune: bool,
    /// Machine backend the tuner searches and the `model.err.*` join
    /// prices against. The default (KNC 7110P) reproduces the historical
    /// hard-coded pricing bitwise.
    pub backend: BackendKind,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 1,
            max_batch: 8,
            cache_capacity: 4,
            solver: DdSolverConfig::default(),
            fallback_max_iterations: 4000,
            trace_seed: 0x5e7e_5e7e_5e7e_5e7e,
            autotune: false,
            backend: BackendKind::Knc7110p,
        }
    }
}

/// Tune-cache key: the problem *shape* — lattice dims, backend,
/// preconditioner precision, worker count. Requests that share a shape
/// share a tuned plan regardless of gauge configuration or tolerance.
fn tune_key(
    dims: &Dims,
    backend: BackendKind,
    precision: qdd_core::Precision,
    workers: usize,
) -> u64 {
    let mut h = qdd_autotune::fnv1a(&[
        backend as u8,
        matches!(precision, qdd_core::Precision::HalfCompressed) as u8,
    ]);
    for &e in &dims.0 {
        h = fnv1a_u64(h, e as u64);
    }
    fnv1a_u64(h, workers as u64)
}

/// A worker's busy time must exceed the worker mean by this factor
/// before the lane-imbalance anomaly trips (and auto-dumps the flight
/// recorder): the signature of one straggling lane, paper Sec. VI.
pub const STRAGGLER_RATIO: f64 = 4.0;

/// A queued request plus its bookkeeping.
struct Pending {
    request: SolveRequest,
    key: u64,
    id: RequestId,
    trace: TraceId,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<SolveResponse>,
}

/// Per-request bookkeeping kept after the source is moved into the batch.
struct Meta {
    id: RequestId,
    trace: TraceId,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<SolveResponse>,
}

/// Why a submission was not admitted.
pub enum SubmitError {
    /// Load shed: the queue is at capacity (or the service is shutting
    /// down). The request is handed back for the caller to retry.
    QueueFull(SolveRequest),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => f.write_str("QueueFull(..)"),
        }
    }
}

/// Claim check for a submitted request.
pub struct Ticket {
    rx: Receiver<SolveResponse>,
}

impl Ticket {
    /// Block until the service answers. Every admitted request is
    /// answered (degraded at worst), including during shutdown drain.
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().expect("serve worker dropped a request reply")
    }
}

/// Client-side handle; valid inside the [`serve`] closure.
pub struct ServiceHandle<'s> {
    queue: &'s BoundedQueue<Pending>,
    sink: TraceSink,
    rejected: AtomicU64,
    next_request: AtomicU64,
    trace_seed: u64,
    flight: FlightRecorder,
    /// Flight lane 0: the admission path.
    flight_lane: FlightLane,
}

impl ServiceHandle<'_> {
    /// Admit a request, or shed it if the queue is full. Never blocks.
    /// Either way the request gets a [`RequestId`]/[`TraceId`] pair here;
    /// a shed request's ids appear only in the flight recorder.
    pub fn submit(&self, request: SolveRequest) -> Result<Ticket, SubmitError> {
        let key =
            setup_key(request.config, *request.source.dims(), request.precision, request.tolerance);
        let n = self.next_request.fetch_add(1, Ordering::Relaxed);
        let id = RequestId(n);
        let trace = TraceId::derive(self.trace_seed, n);
        self.flight_lane.set_trace(trace);
        self.flight_lane.record(Phase::ServeBatch, "req.admit", n as f64, key as f64);
        let submitted = Instant::now();
        let deadline = request.deadline.map(|d| submitted + d);
        let (tx, rx) = unbounded();
        let pending = Pending { request, key, id, trace, submitted, deadline, reply: tx };
        match self.queue.try_push(pending) {
            Ok(()) => Ok(Ticket { rx }),
            Err(crate::queue::QueueFull(p)) => {
                self.flight_lane.record(Phase::ServeBatch, "req.shed", n as f64, 0.0);
                // The first shed of a run snapshots the flight rings:
                // the breadcrumbs leading up to the overload.
                if self.rejected.fetch_add(1, Ordering::Relaxed) == 0 {
                    self.flight.dump("shed");
                }
                self.sink.counter(Phase::ServeBatch, "serve.rejected", 1.0);
                Err(SubmitError::QueueFull(p.request))
            }
        }
    }

    /// Requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests assigned an id so far (admitted plus shed).
    pub fn submitted(&self) -> u64 {
        self.next_request.load(Ordering::Relaxed)
    }
}

/// Aggregated result of one [`serve`] run.
pub struct ServiceReport {
    /// Service metrics (`serve.*`, `model.err.*` keys) for export.
    pub metrics: MetricsRegistry,
    /// End-to-end latency samples (submission → response).
    pub latency: LatencyRecorder,
    /// Queue-wait samples (submission → worker pickup).
    pub queue_wait: LatencyRecorder,
    /// One timeline per answered request, in request-id order.
    pub timelines: Vec<RequestTimeline>,
    /// Measured-vs-predicted join over every solved batch.
    pub model: ModelJoin,
    /// Requests answered (all admitted requests are).
    pub completed: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_rate: f64,
    /// Tune-cache traffic (both zero unless `ServiceConfig::autotune`).
    pub tune_hits: u64,
    pub tune_misses: u64,
}

/// One prepared-solver build, handed to the service's setup thread.
///
/// Every `DdSolver` of a service is built there, not on the worker that
/// took the miss: the allocator keeps an arena per thread, and what an
/// eviction frees only serves later allocations from the arena it came
/// from. One building thread means a replacement solver always lands in
/// the memory the evicted one left; on the workers that would depend on
/// which of them wins each miss, and so would the service's footprint.
struct SetupJob {
    config: ConfigKey,
    solver: DdSolverConfig,
    reply: Sender<Option<DdSolver>>,
}

/// The setup thread: builds until every worker has hung up.
fn setup_loop(source: &dyn ConfigSource, jobs: Receiver<SetupJob>) {
    while let Ok(job) = jobs.recv() {
        let solver = source.materialize(job.config).and_then(|op| DdSolver::new(op, job.solver));
        // A worker that stopped waiting has no use for the solver.
        let _ = job.reply.send(solver);
    }
}

/// What one worker hands back at shutdown (its metrics shard lives in
/// the service's [`ShardedMetrics`] and is folded separately).
struct WorkerOutput {
    latency: LatencyRecorder,
    queue_wait: LatencyRecorder,
    timelines: Vec<RequestTimeline>,
    model: ModelJoin,
    completed: u64,
    /// Seconds this worker spent processing batches (straggler signal).
    busy_s: f64,
}

/// [`serve_with_flight`] without a flight recorder attached.
pub fn serve<R: Send>(
    cfg: &ServiceConfig,
    source: &dyn ConfigSource,
    sink: &TraceSink,
    client: impl FnOnce(&ServiceHandle<'_>) -> R + Send,
) -> (R, ServiceReport) {
    serve_with_flight(cfg, source, sink, &FlightRecorder::disabled(), client)
}

/// Run the solve service: spawn the worker pool, hand the client closure
/// a submission handle, and — once the closure returns — drain the queue,
/// shut the workers down and aggregate the [`ServiceReport`]. Flight
/// lane 0 is the admission path; worker `w` records on lane `w + 1`.
pub fn serve_with_flight<R: Send>(
    cfg: &ServiceConfig,
    source: &dyn ConfigSource,
    sink: &TraceSink,
    flight: &FlightRecorder,
    client: impl FnOnce(&ServiceHandle<'_>) -> R + Send,
) -> (R, ServiceReport) {
    let queue = BoundedQueue::new(cfg.queue_capacity);
    let cache = Mutex::new(SetupCache::new(cfg.cache_capacity));
    let tunes = Mutex::new(TuneCache::new(cfg.cache_capacity));
    let handle = ServiceHandle {
        queue: &queue,
        sink: sink.clone(),
        rejected: AtomicU64::new(0),
        next_request: AtomicU64::new(0),
        trace_seed: cfg.trace_seed,
        flight: flight.clone(),
        flight_lane: flight.lane(0),
    };

    // One private metrics shard per worker: hot-path recording is a plain
    // `&mut` write (wait-free by ownership), and the fold below merges the
    // shards in ascending lane order, so the merged registry is identical
    // for every worker count.
    let nworkers = cfg.workers.max(1);
    let mut shards = ShardedMetrics::new(nworkers);
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    let mut result: Option<R> = None;
    let (setups, setup_jobs) = unbounded::<SetupJob>();
    crossbeam::scope(|s| {
        let queue = &queue;
        let cache = &cache;
        let tunes = &tunes;
        s.spawn(move |_| setup_loop(source, setup_jobs));
        let mut workers = Vec::new();
        for (wid, shard) in shards.shards_mut().iter_mut().enumerate() {
            let setups = setups.clone();
            workers.push(s.spawn(move |_| {
                worker_loop(wid, cfg, &setups, queue, cache, tunes, sink, flight, shard)
            }));
        }
        result = Some(client(&handle));
        queue.close();
        for w in workers {
            outputs.push(w.join().expect("serve worker panicked"));
        }
        // The workers' senders went with them; this one ends the setup thread.
        drop(setups);
    })
    .expect("serve scope failed");

    let mut report = ServiceReport {
        metrics: MetricsRegistry::new(),
        latency: LatencyRecorder::new(),
        queue_wait: LatencyRecorder::new(),
        timelines: Vec::new(),
        model: ModelJoin::new(),
        completed: 0,
        rejected: handle.rejected(),
        cache_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
        tune_hits: 0,
        tune_misses: 0,
    };
    shards.fold(&mut report.metrics);
    let busy: Vec<f64> = outputs.iter().map(|o| o.busy_s).collect();
    for out in outputs {
        report.latency.merge(&out.latency);
        report.queue_wait.merge(&out.queue_wait);
        report.model.merge(&out.model);
        report.completed += out.completed;
        report.timelines.extend(out.timelines);
    }
    report.timelines.sort_by_key(|t| t.request.0);
    report.model.export(&mut report.metrics);

    // Straggler anomaly: one worker lane far busier than the mean is the
    // service-level analogue of the paper's per-core load imbalance
    // (Sec. VI); trip the flight recorder so the dump shows what the
    // straggling lane was chewing on.
    if busy.len() > 1 {
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().cloned().fold(0.0, f64::max);
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        report.metrics.set_gauge("serve.worker.imbalance", imbalance);
        if imbalance > STRAGGLER_RATIO {
            flight.dump("straggler");
        }
    }

    let cache = cache.into_inner().unwrap();
    report.cache_hits = cache.hits();
    report.cache_misses = cache.misses();
    report.cache_hit_rate = cache.hit_rate();
    report.metrics.add("serve.cache.hits", cache.hits() as f64);
    report.metrics.add("serve.cache.misses", cache.misses() as f64);
    report.metrics.add("serve.cache.evictions", cache.evictions() as f64);
    let tunes = tunes.into_inner().unwrap();
    report.tune_hits = tunes.hits();
    report.tune_misses = tunes.misses();
    report.metrics.add("serve.tune.hits", tunes.hits() as f64);
    report.metrics.add("serve.tune.misses", tunes.misses() as f64);
    report.metrics.add("serve.tune.evictions", tunes.evictions() as f64);
    report.metrics.add("serve.rejected", report.rejected as f64);
    let lat = report.latency.summary();
    report.metrics.set_gauge("serve.latency.p50_ms", lat.p50_ms);
    report.metrics.set_gauge("serve.latency.p99_ms", lat.p99_ms);
    (result.expect("client closure ran"), report)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    wid: usize,
    cfg: &ServiceConfig,
    setups: &Sender<SetupJob>,
    queue: &BoundedQueue<Pending>,
    cache: &Mutex<SetupCache>,
    tunes: &Mutex<TuneCache>,
    sink: &TraceSink,
    flight: &FlightRecorder,
    metrics: &mut MetricsRegistry,
) -> WorkerOutput {
    let mut out = WorkerOutput {
        latency: LatencyRecorder::new(),
        queue_wait: LatencyRecorder::new(),
        timelines: Vec::new(),
        model: ModelJoin::new(),
        completed: 0,
        busy_s: 0.0,
    };
    // Spans from this worker land on their own trace lane (the shared
    // begin/end lane 0 would interleave unbalanced across workers);
    // counter samples go through the shared sink. Flight events go on
    // lane `wid + 1` (lane 0 is admission).
    let mut lane = sink.thread(wid as u32 + 1);
    let flane = flight.lane(wid as u32 + 1);
    let mut pool = WorkspacePool::<f64>::new();

    while let Some((first, depth)) = queue.pop_wait() {
        let t0 = Instant::now();
        let key = first.key;
        let mut batch = vec![first];
        if cfg.max_batch > 1 {
            batch.extend(queue.drain_where(cfg.max_batch - 1, |p| p.key == key));
        }
        metrics.observe("serve.queue.depth", depth as f64);
        metrics.observe("serve.batch.size", batch.len() as f64);
        metrics.add("serve.batches", 1.0);
        sink.counter(Phase::ServeBatch, "serve.queue_depth", depth as f64);
        sink.counter(Phase::ServeBatch, "serve.batch_size", batch.len() as f64);
        flane.set_trace(batch[0].trace);
        flane.record(Phase::ServeBatch, "batch.start", depth as f64, batch.len() as f64);

        lane.begin(Phase::ServeBatch);
        run_batch(
            batch, cfg, setups, cache, tunes, sink, &mut lane, flight, &flane, &mut pool, metrics,
            &mut out,
        );
        lane.end(Phase::ServeBatch);
        lane.flush();
        out.busy_s += t0.elapsed().as_secs_f64();
    }
    out
}

/// Answer one request: record latency/status metrics, the `serve.*`
/// histograms, the flight breadcrumb, and the request's timeline, then
/// send the response.
#[allow(clippy::too_many_arguments)]
fn respond(
    out: &mut WorkerOutput,
    metrics: &mut MetricsRegistry,
    sink: &TraceSink,
    flane: &FlightLane,
    picked_up: Instant,
    m: Meta,
    status: ServeStatus,
    solution: SpinorField<f64>,
    residual: f64,
    iterations: usize,
) {
    let wait = picked_up.saturating_duration_since(m.submitted);
    let total = m.submitted.elapsed();
    let wait_ms = wait.as_secs_f64() * 1e3;
    let total_ms = total.as_secs_f64() * 1e3;
    out.queue_wait.record(wait);
    out.latency.record(total);
    out.completed += 1;
    metrics.add("serve.requests", 1.0);
    metrics.add(&format!("serve.status.{}", status.label()), 1.0);
    // Histograms: iterations is a deterministic distribution (identical
    // across reruns and worker counts); latency is wall-clock.
    metrics.record_hist("serve.iterations", iterations as f64);
    metrics.record_hist("serve.latency_ms", total_ms);
    sink.counter(Phase::ServeBatch, "serve.latency_ms", total_ms);
    flane.set_trace(m.trace);
    flane.record(Phase::ServeBatch, "req.done", m.id.0 as f64, total_ms);
    let terminal = match status {
        ServeStatus::Converged => "solved",
        ServeStatus::Fallback => "fallback",
        ServeStatus::Degraded(_) => "degraded",
        ServeStatus::Shed => "shed",
    };
    out.timelines.push(RequestTimeline {
        request: m.id,
        trace: m.trace,
        status,
        stages: vec![
            ("admitted", 0.0),
            ("coalesced", wait_ms),
            (terminal, total_ms),
            ("done", total_ms),
        ],
    });
    // A dropped ticket is the client's prerogative; ignore it.
    let _ = m.reply.send(SolveResponse {
        request_id: m.id,
        trace_id: m.trace,
        status,
        solution,
        relative_residual: residual,
        iterations,
        attempts: if status == ServeStatus::Shed { 0 } else { 1 },
        queue_wait: wait,
        latency: total,
    });
}

#[allow(clippy::too_many_arguments)]
fn run_batch(
    batch: Vec<Pending>,
    cfg: &ServiceConfig,
    setups: &Sender<SetupJob>,
    cache: &Mutex<SetupCache>,
    tunes: &Mutex<TuneCache>,
    sink: &TraceSink,
    lane: &mut ThreadRecorder,
    flight: &FlightRecorder,
    flane: &FlightLane,
    pool: &mut WorkspacePool<f64>,
    metrics: &mut MetricsRegistry,
    out: &mut WorkerOutput,
) {
    let picked_up = Instant::now();
    let key = batch[0].key;
    let config = batch[0].request.config;
    let tolerance = batch[0].request.tolerance;
    let precision = batch[0].request.precision;

    // Split bookkeeping from the sources. Requests whose deadline already
    // passed are shed at dequeue: answered immediately with the untouched
    // zero initial guess and a `Shed` status — the solver never sees them.
    let mut metas: Vec<Meta> = Vec::with_capacity(batch.len());
    let mut sources: Vec<SpinorField<f64>> = Vec::with_capacity(batch.len());
    for p in batch {
        let Pending { request, id, trace, submitted, deadline, reply, .. } = p;
        let meta = Meta { id, trace, submitted, deadline, reply };
        if deadline.is_some_and(|d| picked_up > d) {
            let zero = SpinorField::zeros(*request.source.dims());
            metrics.add("serve.shed.expired", 1.0);
            flane.set_trace(meta.trace);
            flane.record(Phase::ServeBatch, "req.shed.expired", meta.id.0 as f64, 0.0);
            respond(out, metrics, sink, flane, picked_up, meta, ServeStatus::Shed, zero, 1.0, 0);
        } else {
            metas.push(meta);
            sources.push(request.source);
        }
    }
    if metas.is_empty() {
        return;
    }

    // Resolve the prepared solver through the setup cache. Misses build
    // (on the setup thread) under this worker's ServeSetup span; the cache
    // lock serializes duplicate builds of the same key across workers.
    let mut solver_cfg = cfg.solver;
    solver_cfg.fgmres.tolerance = tolerance;
    solver_cfg.precision = precision;

    // Autotune the Schwarz operating point for this request shape. The
    // search space is restricted to the request's precision contract;
    // the tune cache makes this a once-per-shape model search (a shape
    // with no feasible candidate keeps the hand-set configuration).
    if cfg.autotune {
        let dims = *sources[0].dims();
        let workers = qdd_core::resolve_workers(solver_cfg.workers);
        let tkey = tune_key(&dims, cfg.backend, precision, workers);
        let (tuned, outcome) = {
            let mut guard = tunes.lock().unwrap();
            guard.get_or_tune(tkey, || {
                let t0 = Instant::now();
                let mut tuner = Autotuner::new(cfg.backend);
                tuner.space.precisions = vec![match precision {
                    qdd_core::Precision::Single => qdd_machine::Precision::Single,
                    qdd_core::Precision::HalfCompressed => qdd_machine::Precision::Half,
                }];
                let problem =
                    TuneProblem::single_node(dims, workers, solver_cfg.fgmres.max_iterations);
                let best = tuner.tune(&problem).best().copied();
                metrics.observe("serve.tune_ms", t0.elapsed().as_secs_f64() * 1e3);
                best
            })
        };
        let hit = outcome == CacheOutcome::Hit;
        flane.record(
            Phase::ServeSetup,
            if hit { "tune.hit" } else { "tune.miss" },
            tkey as f64,
            tuned.is_some() as u64 as f64,
        );
        if let Some(t) = tuned {
            solver_cfg = solver_cfg.with_tuned(&t);
            // The request's precision contract wins (the search was
            // already restricted to it; this is belt and braces).
            solver_cfg.precision = precision;
        }
    }
    let (solver, cache_outcome) = {
        let mut guard = cache.lock().unwrap();
        guard.get_or_build(key, || {
            lane.begin(Phase::ServeSetup);
            let t0 = Instant::now();
            let (reply, built) = unbounded();
            let job = SetupJob { config, solver: solver_cfg, reply };
            let solver = setups.send(job).ok().and_then(|()| built.recv().ok()).flatten();
            lane.end(Phase::ServeSetup);
            metrics.observe("serve.setup_ms", t0.elapsed().as_secs_f64() * 1e3);
            solver
        })
    };
    let hit = cache_outcome == CacheOutcome::Hit;
    sink.counter(Phase::ServeSetup, "serve.cache_hit", hit as u64 as f64);
    flane.record(Phase::ServeSetup, if hit { "setup.hit" } else { "setup.miss" }, key as f64, 0.0);
    let Some(solver) = solver else {
        for (m, f) in metas.into_iter().zip(sources) {
            let zero = SpinorField::zeros(*f.dims());
            let status = ServeStatus::Degraded(DegradeReason::SetupFailed);
            respond(out, metrics, sink, flane, picked_up, m, status, zero, 1.0, 0);
        }
        return;
    };

    // Primary multi-RHS solve. The attached sink makes the inner solver
    // phases visible in the same trace; phase timing feeds the model
    // join (bookkeeping only — numerics are untouched either way).
    let mut stats = SolveStats::new();
    stats.attach_sink(sink.clone());
    stats.enable_phase_timing();
    let results = solver.solve_batch(&sources, pool, &mut stats);
    out.model.merge(&join_against_model(
        &stats,
        cfg.backend,
        precision,
        solver_cfg.schwarz.mr.iterations,
        1,
    ));

    let fallback_cfg = BiCgStabConfig { tolerance, max_iterations: cfg.fallback_max_iterations };
    for ((m, f), (x, r)) in metas.into_iter().zip(&sources).zip(results) {
        // A detected solver breakdown (non-finite residual, divergence,
        // recurrence underflow) rides the normal degradation ladder —
        // `converged` is false, so the fallback rung runs — but is
        // counted separately so operators can tell "slow" from "broken",
        // and the flight rings are snapshotted with the breakdown fresh.
        if let Some(b) = r.breakdown {
            metrics.add("serve.breakdowns", 1.0);
            metrics.add(&format!("serve.breakdown.{}", b.label()), 1.0);
            flane.set_trace(m.trace);
            flane.record(Phase::ServeBatch, "solver.breakdown", m.id.0 as f64, 0.0);
            flight.dump("breakdown");
        }
        if r.converged {
            let s = ServeStatus::Converged;
            respond(
                out,
                metrics,
                sink,
                flane,
                picked_up,
                m,
                s,
                x,
                r.relative_residual,
                r.iterations,
            );
            continue;
        }
        if m.deadline.is_some_and(|d| Instant::now() > d) {
            let s = ServeStatus::Degraded(DegradeReason::DeadlineExceeded);
            respond(
                out,
                metrics,
                sink,
                flane,
                picked_up,
                m,
                s,
                x,
                r.relative_residual,
                r.iterations,
            );
            continue;
        }
        // Fallback rung: plain BiCGstab against the same operator.
        lane.begin(Phase::ServeFallback);
        metrics.add("serve.fallbacks", 1.0);
        flane.set_trace(m.trace);
        flane.record(Phase::ServeFallback, "req.fallback", m.id.0 as f64, 0.0);
        let (xb, ob) = bicgstab(&LocalSystem::new(solver.op()), f, &fallback_cfg, &mut stats);
        lane.end(Phase::ServeFallback);
        let iterations = r.iterations + ob.iterations;
        if ob.converged {
            let s = ServeStatus::Fallback;
            respond(
                out,
                metrics,
                sink,
                flane,
                picked_up,
                m,
                s,
                xb,
                ob.relative_residual,
                iterations,
            );
        } else if ob.relative_residual < r.relative_residual {
            let s = ServeStatus::Degraded(DegradeReason::TargetMissed);
            respond(
                out,
                metrics,
                sink,
                flane,
                picked_up,
                m,
                s,
                xb,
                ob.relative_residual,
                iterations,
            );
        } else {
            let s = ServeStatus::Degraded(DegradeReason::TargetMissed);
            respond(out, metrics, sink, flane, picked_up, m, s, x, r.relative_residual, iterations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigKey, SyntheticSource};
    use qdd_core::{FgmresConfig, MrConfig, SchwarzConfig};
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;
    use std::time::Duration;

    fn test_solver_cfg() -> DdSolverConfig {
        DdSolverConfig {
            fgmres: FgmresConfig { max_basis: 12, deflate: 4, tolerance: 1e-8, max_iterations: 60 },
            schwarz: SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 4,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn service_cfg() -> ServiceConfig {
        ServiceConfig { solver: test_solver_cfg(), ..ServiceConfig::default() }
    }

    fn dims() -> Dims {
        Dims::new(8, 4, 4, 4)
    }

    fn sources_for(n: u64) -> Vec<SpinorField<f64>> {
        (0..n)
            .map(|i| {
                let mut rng = Rng64::new(100 + i);
                SpinorField::random(dims(), &mut rng)
            })
            .collect()
    }

    #[test]
    fn same_config_requests_converge_with_one_setup() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let (responses, report) = serve(&cfg, &source, &sink, |h| {
            let tickets: Vec<Ticket> = sources_for(4)
                .into_iter()
                .map(|s| h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap())
                .collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        assert_eq!(responses.len(), 4);
        for r in &responses {
            assert_eq!(r.status, ServeStatus::Converged);
            assert!(r.relative_residual <= 1e-8);
            assert!(r.latency >= r.queue_wait);
        }
        assert_eq!(report.completed, 4);
        assert_eq!(report.rejected, 0);
        // One gauge configuration ⇒ exactly one setup-cache miss.
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.latency.count(), 4);
    }

    #[test]
    fn autotuned_service_tunes_once_per_shape_and_still_converges() {
        let mut cfg = service_cfg();
        cfg.autotune = true;
        cfg.backend = BackendKind::KnlFlat;
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let (responses, report) = serve(&cfg, &source, &sink, |h| {
            let tickets: Vec<Ticket> = sources_for(4)
                .into_iter()
                .map(|s| h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap())
                .collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        for r in &responses {
            assert!(r.status.meets_target(), "tuned solver must still hit the target");
        }
        // One request shape ⇒ the model search ran exactly once; every
        // later batch of the same shape was served from the tune cache.
        assert_eq!(report.tune_misses, 1);
        assert_eq!(
            report.metrics.counters().get("serve.tune.misses").copied(),
            Some(1.0),
            "tune traffic must be exported as serve.tune.* metrics"
        );
        // Tuning happens before the setup build, so the tuned solver is
        // still built (and cached) once.
        assert_eq!(report.cache_misses, 1);
    }

    #[test]
    fn untuned_service_reports_zero_tune_traffic() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::disabled();
        let ((), report) = serve(&cfg, &source, &sink, |h| {
            for s in sources_for(2) {
                h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap().wait();
            }
        });
        assert_eq!((report.tune_hits, report.tune_misses), (0, 0));
    }

    #[test]
    fn expired_while_queued_is_shed_at_dequeue_never_solved() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let flight = qdd_trace::FlightRecorder::with_capacity(64);
        let (response, report) = serve_with_flight(&cfg, &source, &sink, &flight, |h| {
            let mut req = SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap());
            req.deadline = Some(Duration::ZERO);
            let ticket = h.submit(req).unwrap();
            // Let the deadline expire before a worker picks the request up.
            std::thread::sleep(Duration::from_millis(5));
            ticket.wait()
        });
        // Shed, not degraded: the solver never ran (zero iterations, the
        // zero guess untouched), the shed counter fired, and the flight
        // recorder carries the shed breadcrumb under the request's trace.
        assert_eq!(response.status, ServeStatus::Shed);
        assert!(!response.status.meets_target());
        assert_eq!(response.iterations, 0);
        assert_eq!(response.solution.norm(), 0.0);
        assert_eq!(report.metrics.counters().get("serve.shed.expired").copied(), Some(1.0));
        let timeline = &report.timelines[0];
        assert!(timeline.stages.iter().any(|s| s.0 == "shed"));
        let shed = flight
            .snapshot()
            .into_iter()
            .find(|e| e.code == "req.shed.expired")
            .expect("req.shed.expired flight event");
        assert_eq!(shed.trace, response.trace_id.0);
    }

    #[test]
    fn hopeless_target_walks_the_full_ladder() {
        // An unreachable tolerance with tiny iteration caps: the primary
        // misses, the fallback misses, and the service still answers with
        // an honest TargetMissed instead of hanging or panicking.
        let mut cfg = service_cfg();
        cfg.solver.fgmres.max_iterations = 2;
        cfg.fallback_max_iterations = 2;
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let (response, report) = serve(&cfg, &source, &sink, |h| {
            let mut req = SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap());
            req.tolerance = 1e-300;
            h.submit(req).unwrap().wait()
        });
        assert_eq!(response.status, ServeStatus::Degraded(DegradeReason::TargetMissed));
        assert!(!response.status.meets_target());
        assert!(response.relative_residual > 0.0);
        assert!(report.metrics.counters().get("serve.fallbacks").is_some());
    }

    #[test]
    fn fallback_rescues_a_starved_primary() {
        // Primary capped to a single outer iteration (misses 1e-8); the
        // BiCGstab fallback has the budget to finish the job.
        let mut cfg = service_cfg();
        cfg.solver.fgmres.max_iterations = 1;
        cfg.solver.fgmres.max_basis = 2;
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let (response, _report) = serve(&cfg, &source, &sink, |h| {
            h.submit(SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap())).unwrap().wait()
        });
        assert_eq!(response.status, ServeStatus::Fallback);
        assert!(response.relative_residual <= 1e-8);
    }

    #[test]
    fn full_queue_sheds_load_with_queue_full() {
        let mut cfg = service_cfg();
        cfg.queue_capacity = 1;
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let ((), report) = serve(&cfg, &source, &sink, |h| {
            // 64 back-to-back submissions cannot all fit through a
            // depth-1 queue while each solve takes milliseconds.
            let mut tickets = Vec::new();
            let mut shed = 0u64;
            for s in sources_for(64) {
                match h.submit(SolveRequest::new(ConfigKey(1), s)) {
                    Ok(t) => tickets.push(t),
                    Err(SubmitError::QueueFull(_req)) => shed += 1,
                }
            }
            assert!(shed > 0, "a depth-1 queue must shed some of 64 instant submissions");
            assert_eq!(h.rejected(), shed);
            for t in tickets {
                assert!(t.wait().status.meets_target());
            }
        });
        assert!(report.rejected > 0);
        assert_eq!(report.completed + report.rejected, 64);
    }

    #[test]
    fn requests_carry_ids_timelines_and_model_join() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let (responses, report) = serve(&cfg, &source, &sink, |h| {
            let tickets: Vec<Ticket> = sources_for(3)
                .into_iter()
                .map(|s| h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap())
                .collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        // Ids are the admission order; traces derive from the seed.
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.request_id.0, i as u64);
            assert_eq!(r.trace_id, qdd_trace::TraceId::derive(cfg.trace_seed, i as u64));
        }
        // One complete timeline per request, in request order, with the
        // trace id matching the response's.
        assert_eq!(report.timelines.len(), 3);
        for (i, t) in report.timelines.iter().enumerate() {
            assert_eq!(t.request.0, i as u64);
            assert_eq!(t.trace, responses[i].trace_id);
            assert!(t.is_complete(), "incomplete timeline: {:?}", t.stages);
            assert_eq!(t.status, ServeStatus::Converged);
        }
        // The model join priced all four phases and exported gauges.
        for key in ["dirac_apply", "schwarz_sweep", "halo_exchange", "global_sums"] {
            let g = report.metrics.gauge(&format!("model.err.{key}"));
            assert!(g.is_some_and(f64::is_finite), "model.err.{key} missing/non-finite: {g:?}");
        }
        assert!(
            report.model.get("dirac_apply").unwrap().measured_s > 0.0,
            "operator spans should have accumulated measured time"
        );
        // Histograms: the iteration distribution counts every request.
        let iters = report.metrics.histogram("serve.iterations").expect("iterations histogram");
        assert_eq!(iters.count(), 3);
        assert_eq!(report.metrics.histogram("serve.latency_ms").unwrap().count(), 3);
    }

    #[test]
    fn flight_recorder_sees_admission_and_completion_with_matching_traces() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let flight = qdd_trace::FlightRecorder::with_capacity(64);
        let (response, _report) = serve_with_flight(&cfg, &source, &sink, &flight, |h| {
            h.submit(SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap())).unwrap().wait()
        });
        let events = flight.snapshot();
        let admit = events.iter().find(|e| e.code == "req.admit").expect("req.admit event");
        let done = events.iter().find(|e| e.code == "req.done").expect("req.done event");
        assert_eq!(admit.lane, 0, "admission records on lane 0");
        assert!(done.lane >= 1, "completion records on a worker lane");
        assert_eq!(admit.trace, response.trace_id.0);
        assert_eq!(done.trace, response.trace_id.0);
        assert!(events.iter().any(|e| e.code == "batch.start"));
        assert!(events.iter().any(|e| e.code == "setup.miss"));
    }

    #[test]
    fn worker_count_does_not_change_merged_iteration_histogram() {
        // The deterministic distributions (iteration counts, request
        // tallies) must come out bucket-identical for any worker count:
        // shards merge in lane order and batching is bitwise-stable.
        let source = SyntheticSource::new(dims());
        let run = |workers: usize, solver_workers: usize| {
            let mut cfg = ServiceConfig { workers, ..service_cfg() };
            cfg.solver.workers = solver_workers;
            let sink = TraceSink::disabled();
            let ((), report) = serve(&cfg, &source, &sink, |h| {
                let tickets: Vec<Ticket> = sources_for(6)
                    .into_iter()
                    .map(|s| h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap())
                    .collect();
                for t in tickets {
                    t.wait();
                }
            });
            report
        };
        let one = run(1, 1);
        let four = run(4, 1);
        let pooled = run(2, 2);
        let snap =
            |r: &ServiceReport| r.metrics.histogram("serve.iterations").unwrap().bucket_snapshot();
        assert_eq!(
            snap(&one),
            snap(&four),
            "iteration histogram must be serve-worker-count independent"
        );
        assert_eq!(
            snap(&one),
            snap(&pooled),
            "iteration histogram must be solver-pool-width independent"
        );
        assert_eq!(one.completed, four.completed);
        assert_eq!(one.timelines.len(), four.timelines.len());
    }

    #[test]
    fn trace_has_serve_spans_and_counters() {
        let cfg = service_cfg();
        let source = SyntheticSource::new(dims());
        let sink = TraceSink::enabled();
        let ((), _report) = serve(&cfg, &source, &sink, |h| {
            let tickets: Vec<Ticket> = sources_for(2)
                .into_iter()
                .map(|s| h.submit(SolveRequest::new(ConfigKey(1), s)).unwrap())
                .collect();
            for t in tickets {
                t.wait();
            }
        });
        let events = sink.events();
        assert!(
            events.iter().any(|e| e.phase == Phase::ServeBatch),
            "missing ServeBatch span/counter"
        );
        assert!(
            events.iter().any(|e| e.phase == Phase::ServeSetup),
            "missing ServeSetup span/counter"
        );
    }
}
