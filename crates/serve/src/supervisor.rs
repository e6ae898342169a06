//! The shard supervisor: deadline-ordered admission, round-synchronous
//! dispatch, circuit breaking, and request failover.
//!
//! [`shard_serve`] runs a pool of [shard workers](crate::shard) under
//! one supervisor thread. The supervisor owns every scheduling decision
//! and consumes a single event channel (admissions from the client
//! handle, results from the shards), so the whole pool behaves like a
//! sequential state machine wrapped around parallel solves:
//!
//! * **Admission** is fully asynchronous: [`PoolHandle::submit`] stamps
//!   the request with a [`RequestId`]/[`TraceId`] pair and enqueues it
//!   without ever blocking on a solve. The admission queue is a
//!   deadline-ordered heap (earliest deadline first, ties by id);
//!   requests whose deadline expired while queued are *shed at
//!   dispatch* — answered [`ServeStatus::Shed`] with the untouched zero
//!   guess, counted in `serve.shed.expired`, never handed to a solver.
//! * **Dispatch is round-synchronous**: the supervisor assigns at most
//!   one job per idle shard (round-robin over shards whose breaker
//!   admits), then waits for *every* in-flight job before scheduling
//!   the next round. Rounds are the pool's logical clock — breaker
//!   cooldowns are counted in rounds, results are processed in shard
//!   order at each round boundary — which makes scheduling, failover,
//!   breaker transitions and (in the wave-driven benchmark) every
//!   solution bit reproducible from the fault seed alone.
//! * **Supervision**: each shard's [`HealthVerdict`]s feed its
//!   [`CircuitBreaker`]. A tripped breaker stops dispatch to the shard,
//!   dumps the flight recorder (`"breaker"`), and cools for a fixed
//!   number of rounds before a single half-open probe is risked.
//!   Completed jobs double as heartbeats (`serve.shard.*` gauges report
//!   jobs, failures, last-heartbeat round and breaker state per shard).
//! * **Failover**: a request failed by one shard (communication fault
//!   or unrecovered breakdown) is re-enqueued with its best-so-far
//!   iterate as a warm start, its attempt counter bumped against
//!   [`ShardPoolConfig::retry_budget`], and the failed shard excluded.
//!   The receiving shard audits the warm iterate against the honest
//!   residual ([`qdd_comm::dd_solve_resilient_warm`]) and falls back to
//!   a cold start — bitwise — if it is no better than zero. A request
//!   that exhausts its budget (or has tried every shard) is answered
//!   `Degraded(ShardsExhausted)` with the best surviving iterate.

use crate::breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use crate::cache::ShardSetupCache;
use crate::latency::LatencyRecorder;
use crate::request::{
    setup_key, ConfigSource, DegradeReason, ServeStatus, SolveRequest, SolveResponse,
};
use crate::shard::{shard_worker_loop, ShardJob, ShardOutcome, ShardRuntime};
use crate::telemetry::RequestTimeline;
use crossbeam::channel::{unbounded, Receiver, Sender};
use qdd_comm::{DistDdConfig, RetryPolicy};
use qdd_faults::ShardFaults;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_trace::{
    FlightLane, FlightRecorder, MetricsRegistry, Phase, RequestId, TraceId, TraceSink,
};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shard-pool tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ShardPoolConfig {
    /// Shard workers (each one simulated multi-rank world).
    pub shards: usize,
    /// Rank-grid decomposition per shard (applied to each request's
    /// lattice dims).
    pub rank_dims: Dims,
    /// Distributed solver template; each request overrides the outer
    /// tolerance with its own.
    pub solver: DistDdConfig,
    /// Restart budget of the resilient wrapper, per attempt.
    pub max_restarts: u32,
    /// Failover re-dispatches allowed per request (0 = fail fast on the
    /// first sick shard).
    pub retry_budget: u32,
    /// Per-shard circuit breaker parameters.
    pub breaker: BreakerConfig,
    /// Communication retry/backoff policy installed into every rank.
    pub retry: RetryPolicy,
    /// Seed the per-request [`TraceId`]s derive from.
    pub trace_seed: u64,
    /// Scattered configurations kept in the pool-shared LRU.
    pub setup_cache_capacity: usize,
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            rank_dims: Dims::new(1, 1, 1, 2),
            solver: DistDdConfig::default(),
            max_restarts: 2,
            retry_budget: 2,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            trace_seed: 0x5e7e_5e7e_5e7e_5e7e,
            setup_cache_capacity: 4,
        }
    }
}

/// Claim check for a submitted request.
pub struct PoolTicket {
    rx: Receiver<SolveResponse>,
}

impl PoolTicket {
    /// Block until the pool answers. Every admitted request is answered
    /// (shed or degraded at worst), including during shutdown drain.
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().expect("shard supervisor dropped a request reply")
    }
}

/// What crosses the supervisor's single event channel.
enum PoolEvent {
    Admit(Vec<Admission>),
    Done(usize, ShardOutcome),
    Close,
}

/// One admitted request, stamped by the handle.
struct Admission {
    id: u64,
    trace: TraceId,
    key: u64,
    request: SolveRequest,
    submitted: Instant,
    reply: Sender<SolveResponse>,
}

/// Client-side handle; valid inside the [`shard_serve`] closure.
pub struct PoolHandle {
    events: Sender<PoolEvent>,
    next_request: AtomicU64,
    trace_seed: u64,
    flight_lane: FlightLane,
}

impl PoolHandle {
    /// Admit one request. Never blocks on a solve.
    pub fn submit(&self, request: SolveRequest) -> PoolTicket {
        self.submit_wave(vec![request]).pop().expect("one ticket per request")
    }

    /// Admit a whole wave of requests as *one* supervisor event: the
    /// wave enters the deadline heap atomically, so the dispatch order
    /// (and with it every downstream decision) is a deterministic
    /// function of the wave contents — the benchmark's reproducibility
    /// hinges on this.
    pub fn submit_wave(&self, requests: Vec<SolveRequest>) -> Vec<PoolTicket> {
        let mut admissions = Vec::with_capacity(requests.len());
        let mut tickets = Vec::with_capacity(requests.len());
        let submitted = Instant::now();
        for request in requests {
            let n = self.next_request.fetch_add(1, Ordering::Relaxed);
            let trace = TraceId::derive(self.trace_seed, n);
            let key = setup_key(
                request.config,
                *request.source.dims(),
                request.precision,
                request.tolerance,
            );
            self.flight_lane.set_trace(trace);
            self.flight_lane.record(Phase::ServeBatch, "req.admit", n as f64, key as f64);
            let (tx, rx) = unbounded();
            admissions.push(Admission { id: n, trace, key, request, submitted, reply: tx });
            tickets.push(PoolTicket { rx });
        }
        // A closed channel means the supervisor is gone — only possible
        // after the serve scope ended, where no handle survives.
        self.events.send(PoolEvent::Admit(admissions)).expect("supervisor event channel closed");
        tickets
    }

    /// Requests assigned an id so far.
    pub fn submitted(&self) -> u64 {
        self.next_request.load(Ordering::Relaxed)
    }
}

/// Aggregated result of one [`shard_serve`] run.
pub struct PoolReport {
    /// `serve.*` metrics for export.
    pub metrics: MetricsRegistry,
    /// End-to-end latency samples (submission → response).
    pub latency: LatencyRecorder,
    /// Queue-wait samples (submission → first dispatch).
    pub queue_wait: LatencyRecorder,
    /// One timeline per answered request, in request-id order.
    pub timelines: Vec<RequestTimeline>,
    /// Requests answered (every admitted request is).
    pub completed: u64,
    /// Requests shed because their deadline expired while queued.
    pub shed: u64,
    /// Failover re-dispatches performed.
    pub failovers: u64,
    /// Breaker trips (Closed/HalfOpen → Open) across all shards.
    pub breaker_trips: u64,
    /// Every breaker transition, tagged with its shard.
    pub breaker_transitions: Vec<(usize, BreakerTransition)>,
    /// Dispatch rounds the supervisor clocked.
    pub rounds: u64,
    /// Jobs completed per shard (heartbeat tally).
    pub shard_jobs: Vec<u64>,
    /// Failed jobs per shard.
    pub shard_failures: Vec<u64>,
    pub setup_hits: u64,
    pub setup_misses: u64,
    pub setup_evictions: u64,
}

/// [`shard_serve_with_flight`] without a flight recorder attached.
pub fn shard_serve<R: Send>(
    cfg: &ShardPoolConfig,
    source: &dyn ConfigSource,
    faults: &ShardFaults,
    sink: &TraceSink,
    client: impl FnOnce(&PoolHandle) -> R + Send,
) -> (R, PoolReport) {
    shard_serve_with_flight(cfg, source, faults, sink, &FlightRecorder::disabled(), client)
}

/// Run the sharded solve service: spawn the shard workers and the
/// supervisor, hand the client closure a submission handle, and — once
/// the closure returns — drain the heap, shut everything down and
/// aggregate the [`PoolReport`]. Flight lane 0 is the admission path,
/// shard `i` records on lane `i + 1`, the supervisor on lane
/// `shards + 1`.
pub fn shard_serve_with_flight<R: Send>(
    cfg: &ShardPoolConfig,
    source: &dyn ConfigSource,
    faults: &ShardFaults,
    sink: &TraceSink,
    flight: &FlightRecorder,
    client: impl FnOnce(&PoolHandle) -> R + Send,
) -> (R, PoolReport) {
    let nshards = cfg.shards.max(1);
    let setups = Mutex::new(ShardSetupCache::new(cfg.setup_cache_capacity));
    let (events_tx, events_rx) = unbounded::<PoolEvent>();
    let handle = PoolHandle {
        events: events_tx.clone(),
        next_request: AtomicU64::new(0),
        trace_seed: cfg.trace_seed,
        flight_lane: flight.lane(0),
    };

    let mut job_channels = Vec::with_capacity(nshards);
    let mut job_senders = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (tx, rx) = unbounded::<ShardJob>();
        job_senders.push(tx);
        job_channels.push(rx);
    }

    let mut result: Option<R> = None;
    let mut report: Option<PoolReport> = None;
    crossbeam::scope(|s| {
        let setups = &setups;
        let mut workers = Vec::new();
        for (i, jobs) in job_channels.into_iter().enumerate() {
            let rt = ShardRuntime {
                shard: i,
                rank_dims: cfg.rank_dims,
                solver: cfg.solver,
                max_restarts: cfg.max_restarts,
                retry: cfg.retry,
                faults: faults.plan_for(i),
            };
            let emit = events_tx.clone();
            let flane = flight.lane(i as u32 + 1);
            workers.push(s.spawn(move |_| {
                shard_worker_loop(&rt, source, setups, sink, &flane, &jobs, |out| {
                    // The supervisor may already have exited (final
                    // drain); a dead channel just drops the heartbeat.
                    let _ = emit.send(PoolEvent::Done(rt.shard, out));
                });
            }));
        }
        let sup_flane = flight.lane(nshards as u32 + 1);
        let supervisor =
            s.spawn(|_| Supervisor::new(cfg, job_senders, sink, flight, sup_flane).run(events_rx));
        result = Some(client(&handle));
        handle.events.send(PoolEvent::Close).expect("supervisor event channel closed");
        let mut rep = supervisor.join().expect("shard supervisor panicked");
        for w in workers {
            w.join().expect("shard worker panicked");
        }
        let setups = setups.lock().unwrap();
        rep.setup_hits = setups.hits();
        rep.setup_misses = setups.misses();
        rep.setup_evictions = setups.evictions();
        rep.metrics.add("serve.setup.hits", setups.hits() as f64);
        rep.metrics.add("serve.setup.misses", setups.misses() as f64);
        rep.metrics.add("serve.setup.evictions", setups.evictions() as f64);
        report = Some(rep);
    })
    .expect("shard serve scope failed");

    (result.expect("client closure ran"), report.expect("supervisor report collected"))
}

/// Heap key of a queued request: earliest deadline first (deadline-less
/// requests last), ties broken by admission id. `BinaryHeap` is a
/// max-heap, so `Ord` is inverted.
struct HeapKey {
    deadline: Option<Instant>,
    id: u64,
}

impl HeapKey {
    fn priority(&self) -> (bool, Option<Instant>, u64) {
        (self.deadline.is_none(), self.deadline, self.id)
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.priority() == other.priority()
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.priority().cmp(&self.priority())
    }
}

/// One queued (or in-flight) request with its failover bookkeeping.
struct PendingRequest {
    trace: TraceId,
    key: u64,
    config: crate::request::ConfigKey,
    source: Arc<SpinorField<f64>>,
    tolerance: f64,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Failover attempt counter (0 = never dispatched or first attempt).
    attempt: u32,
    /// Shards that already failed this request.
    tried: Vec<usize>,
    /// Best-so-far iterate from a failed attempt (warm-restart seed).
    x0: Option<SpinorField<f64>>,
    /// Outer iterations accumulated across attempts.
    iterations: usize,
    /// Queue wait, frozen at first dispatch.
    queue_wait: Option<std::time::Duration>,
    reply: Sender<SolveResponse>,
}

struct ShardSlot {
    jobs: Sender<ShardJob>,
    breaker: CircuitBreaker,
    busy: bool,
    jobs_done: u64,
    failures: u64,
    /// Round of the shard's most recent completed job (heartbeat).
    last_heartbeat: u64,
}

struct Supervisor {
    retry_budget: u32,
    shards: Vec<ShardSlot>,
    heap: BinaryHeap<HeapKey>,
    pending: HashMap<u64, PendingRequest>,
    /// Round-robin start shard for the next dispatch.
    rr: usize,
    /// The pool's logical clock: one tick per dispatch round.
    round: u64,
    sink: TraceSink,
    flight: FlightRecorder,
    flane: FlightLane,
    metrics: MetricsRegistry,
    latency: LatencyRecorder,
    queue_wait: LatencyRecorder,
    timelines: Vec<RequestTimeline>,
    completed: u64,
    shed: u64,
    failovers: u64,
}

impl Supervisor {
    fn new(
        cfg: &ShardPoolConfig,
        job_senders: Vec<Sender<ShardJob>>,
        sink: &TraceSink,
        flight: &FlightRecorder,
        flane: FlightLane,
    ) -> Self {
        let shards = job_senders
            .into_iter()
            .map(|jobs| ShardSlot {
                jobs,
                breaker: CircuitBreaker::new(cfg.breaker),
                busy: false,
                jobs_done: 0,
                failures: 0,
                last_heartbeat: 0,
            })
            .collect();
        Self {
            retry_budget: cfg.retry_budget,
            shards,
            heap: BinaryHeap::new(),
            pending: HashMap::new(),
            rr: 0,
            round: 0,
            sink: sink.clone(),
            flight: flight.clone(),
            flane,
            metrics: MetricsRegistry::new(),
            latency: LatencyRecorder::new(),
            queue_wait: LatencyRecorder::new(),
            timelines: Vec::new(),
            completed: 0,
            shed: 0,
            failovers: 0,
        }
    }

    /// The supervisor event loop. Round-synchronous: results are
    /// buffered until the whole round is back, then processed in shard
    /// order, then the next round is dispatched — every scheduling
    /// decision happens at a deterministic point of the logical clock.
    fn run(mut self, events: Receiver<PoolEvent>) -> PoolReport {
        let mut outstanding = 0usize;
        let mut round_results: Vec<(usize, ShardOutcome)> = Vec::new();
        let mut closing = false;
        loop {
            if outstanding == 0 {
                round_results.sort_by_key(|&(shard, _)| shard);
                for (shard, out) in round_results.drain(..) {
                    self.handle_result(shard, out);
                }
                while outstanding == 0 && !self.heap.is_empty() {
                    self.round += 1;
                    self.tick_breakers();
                    let n = self.dispatch_round();
                    outstanding += n;
                    if n == 0
                        && !self.shards.iter().any(|s| s.breaker.state() == BreakerState::Open)
                    {
                        // No breaker is cooling and still nothing
                        // dispatched: the remaining requests have no
                        // shard left to try. Answer them now rather
                        // than spin.
                        self.drain_unservable();
                        break;
                    }
                }
                if closing && outstanding == 0 && self.heap.is_empty() {
                    break;
                }
            }
            match events.recv() {
                Ok(PoolEvent::Admit(batch)) => {
                    for adm in batch {
                        self.admit(adm);
                    }
                }
                Ok(PoolEvent::Done(shard, out)) => {
                    self.shards[shard].busy = false;
                    self.shards[shard].last_heartbeat = self.round;
                    round_results.push((shard, out));
                    outstanding -= 1;
                }
                Ok(PoolEvent::Close) => closing = true,
                Err(_) => break,
            }
        }
        self.finish()
    }

    fn admit(&mut self, adm: Admission) {
        let Admission { id, trace, key, request, submitted, reply } = adm;
        let deadline = request.deadline.map(|d| submitted + d);
        self.heap.push(HeapKey { deadline, id });
        self.pending.insert(
            id,
            PendingRequest {
                trace,
                key,
                config: request.config,
                source: Arc::new(request.source),
                tolerance: request.tolerance,
                deadline,
                submitted,
                attempt: 0,
                tried: Vec::new(),
                x0: None,
                iterations: 0,
                queue_wait: None,
                reply,
            },
        );
        self.metrics.observe("serve.queue.depth", self.heap.len() as f64);
        self.sink.counter(Phase::ServeBatch, "serve.queue_depth", self.heap.len() as f64);
    }

    /// Advance every breaker's cooldown by one round; newly armed
    /// half-open probes are breadcrumbed.
    fn tick_breakers(&mut self) {
        for i in 0..self.shards.len() {
            if self.shards[i].breaker.tick(self.round) {
                self.flane.record(
                    Phase::ServeShard,
                    "breaker.halfopen",
                    i as f64,
                    self.round as f64,
                );
            }
        }
    }

    /// Assign at most one job to every idle shard whose breaker admits,
    /// shedding expired requests on the way. Returns the jobs dispatched.
    fn dispatch_round(&mut self) -> usize {
        let n = self.shards.len();
        let now = Instant::now();
        let mut dispatched = 0;
        let mut blocked: Vec<HeapKey> = Vec::new();
        while self.shards.iter().any(|s| !s.busy && s.breaker.admits()) {
            let Some(k) = self.heap.pop() else { break };
            let p = self.pending.get(&k.id).expect("heap entry without pending request");
            // Shed-at-dequeue: an expired request never reaches a shard.
            if p.deadline.is_some_and(|d| now > d) {
                self.shed_expired(k.id);
                continue;
            }
            let mut target = None;
            for j in 0..n {
                let cand = (self.rr + j) % n;
                let slot = &self.shards[cand];
                if !slot.busy && slot.breaker.admits() && !p.tried.contains(&cand) {
                    target = Some(cand);
                    break;
                }
            }
            match target {
                Some(shard) => {
                    self.rr = (shard + 1) % n;
                    self.dispatch_to(shard, k.id, now);
                    dispatched += 1;
                }
                // Every currently admitting shard already failed this
                // request. If no shard is left at all, answer it; if
                // some are merely open/busy, park it for a later round.
                None => {
                    if p.tried.len() >= n {
                        self.finalize_exhausted(k.id);
                    } else {
                        blocked.push(k);
                    }
                }
            }
        }
        for k in blocked {
            self.heap.push(k);
        }
        dispatched
    }

    fn dispatch_to(&mut self, shard: usize, id: u64, now: Instant) {
        let p = self.pending.get_mut(&id).expect("dispatching unknown request");
        if p.queue_wait.is_none() {
            let wait = now.saturating_duration_since(p.submitted);
            p.queue_wait = Some(wait);
            self.queue_wait.record(wait);
        }
        let job = ShardJob {
            id,
            trace: p.trace,
            attempt: p.attempt,
            setup_key: p.key,
            config: p.config,
            source: p.source.clone(),
            tolerance: p.tolerance,
            x0: p.x0.take(),
        };
        self.flane.set_trace(p.trace);
        self.flane.record(Phase::ServeShard, "req.dispatch", id as f64, shard as f64);
        self.metrics.add("serve.dispatches", 1.0);
        self.shards[shard].busy = true;
        // A closed jobs channel would mean the worker died; the scope
        // would already be propagating its panic.
        self.shards[shard].jobs.send(job).expect("shard worker gone");
    }

    fn handle_result(&mut self, shard: usize, out: ShardOutcome) {
        self.shards[shard].jobs_done += 1;
        let mut p = self.pending.remove(&out.id).expect("result for unknown request");
        if out.setup_failed {
            // A bad configuration indicts the request, not the shard:
            // the breaker is left alone.
            let zero = SpinorField::zeros(*p.source.dims());
            self.finalize(out.id, p, ServeStatus::Degraded(DegradeReason::SetupFailed), zero, 1.0);
            return;
        }
        p.iterations += out.iterations;
        if out.warm_started {
            self.metrics.add("serve.failover.warm_accepted", 1.0);
        }
        if out.warm_rejected {
            self.metrics.add("serve.failover.warm_rejected", 1.0);
        }
        if out.verdict.unhealthy() {
            self.shards[shard].failures += 1;
            self.metrics.add("serve.shard.failures", 1.0);
            if self.shards[shard].breaker.record_failure(self.round) {
                self.metrics.add("serve.breaker.trips", 1.0);
                self.flane.record(
                    Phase::ServeShard,
                    "breaker.open",
                    shard as f64,
                    self.round as f64,
                );
                // Post-mortem: the rings hold the fault breadcrumbs
                // that led to the trip.
                self.flight.dump("breaker");
            }
            p.tried.push(shard);
            if p.attempt >= self.retry_budget || p.tried.len() >= self.shards.len() {
                let residual = out.relative_residual;
                self.finalize(
                    out.id,
                    p,
                    ServeStatus::Degraded(DegradeReason::ShardsExhausted),
                    out.solution,
                    residual,
                );
            } else {
                // Failover: hand the best-so-far iterate to a sibling
                // as a warm start and put the request back in the heap.
                p.attempt += 1;
                p.x0 = Some(out.solution);
                self.failovers += 1;
                self.metrics.add("serve.failover", 1.0);
                self.sink.counter(Phase::ServeFailover, "serve.failover", 1.0);
                self.flane.set_trace(p.trace);
                self.flane.record(
                    Phase::ServeFailover,
                    "req.failover",
                    out.id as f64,
                    p.attempt as f64,
                );
                self.heap.push(HeapKey { deadline: p.deadline, id: out.id });
                self.pending.insert(out.id, p);
            }
        } else {
            self.shards[shard].breaker.record_success(self.round);
            let status = if out.verdict.converged {
                if p.attempt > 0 {
                    self.metrics.add("serve.failover.rescued", 1.0);
                }
                ServeStatus::Converged
            } else {
                ServeStatus::Degraded(DegradeReason::TargetMissed)
            };
            let residual = out.relative_residual;
            self.finalize(out.id, p, status, out.solution, residual);
        }
    }

    fn shed_expired(&mut self, id: u64) {
        let p = self.pending.remove(&id).expect("shedding unknown request");
        self.shed += 1;
        self.metrics.add("serve.shed.expired", 1.0);
        self.sink.counter(Phase::ServeBatch, "serve.shed.expired", 1.0);
        self.flane.set_trace(p.trace);
        self.flane.record(Phase::ServeBatch, "req.shed.expired", id as f64, 0.0);
        let zero = SpinorField::zeros(*p.source.dims());
        self.finalize(id, p, ServeStatus::Shed, zero, 1.0);
    }

    fn finalize_exhausted(&mut self, id: u64) {
        let mut p = self.pending.remove(&id).expect("finalizing unknown request");
        let best = p.x0.take().unwrap_or_else(|| SpinorField::zeros(*p.source.dims()));
        self.finalize(id, p, ServeStatus::Degraded(DegradeReason::ShardsExhausted), best, 1.0);
    }

    /// Remaining heap entries that can never dispatch (safety valve for
    /// a fully tripped pool with nothing cooling): answer each with its
    /// best surviving iterate.
    fn drain_unservable(&mut self) {
        while let Some(k) = self.heap.pop() {
            self.finalize_exhausted(k.id);
        }
    }

    /// Answer one request: record latency/status metrics, the timeline,
    /// and send the response.
    fn finalize(
        &mut self,
        id: u64,
        p: PendingRequest,
        status: ServeStatus,
        solution: SpinorField<f64>,
        residual: f64,
    ) {
        let total = p.submitted.elapsed();
        let total_ms = total.as_secs_f64() * 1e3;
        let wait = p.queue_wait.unwrap_or(total);
        let wait_ms = wait.as_secs_f64() * 1e3;
        let attempts = if status == ServeStatus::Shed { 0 } else { p.attempt + 1 };
        self.latency.record(total);
        self.completed += 1;
        self.metrics.add("serve.requests", 1.0);
        self.metrics.add(&format!("serve.status.{}", status.label()), 1.0);
        self.metrics.record_hist("serve.iterations", p.iterations as f64);
        self.metrics.record_hist("serve.latency_ms", total_ms);
        self.metrics.record_hist("serve.attempts", attempts as f64);
        self.sink.counter(Phase::ServeBatch, "serve.latency_ms", total_ms);
        self.flane.set_trace(p.trace);
        self.flane.record(Phase::ServeBatch, "req.done", id as f64, total_ms);
        let terminal = match status {
            ServeStatus::Converged => "solved",
            ServeStatus::Fallback => "fallback",
            ServeStatus::Degraded(_) => "degraded",
            ServeStatus::Shed => "shed",
        };
        self.timelines.push(RequestTimeline {
            request: RequestId(id),
            trace: p.trace,
            status,
            stages: vec![
                ("admitted", 0.0),
                ("dispatched", wait_ms),
                (terminal, total_ms),
                ("done", total_ms),
            ],
        });
        // A dropped ticket is the client's prerogative; ignore it.
        let _ = p.reply.send(SolveResponse {
            request_id: RequestId(id),
            trace_id: p.trace,
            status,
            solution,
            relative_residual: residual,
            iterations: p.iterations,
            attempts,
            queue_wait: wait,
            latency: total,
        });
    }

    fn finish(mut self) -> PoolReport {
        let mut breaker_transitions = Vec::new();
        let mut breaker_trips = 0;
        let mut shard_jobs = Vec::with_capacity(self.shards.len());
        let mut shard_failures = Vec::with_capacity(self.shards.len());
        for (i, slot) in self.shards.iter().enumerate() {
            breaker_trips += slot.breaker.trips();
            for t in slot.breaker.transitions() {
                breaker_transitions.push((i, *t));
            }
            shard_jobs.push(slot.jobs_done);
            shard_failures.push(slot.failures);
            self.metrics.set_gauge(&format!("serve.shard.{i}.jobs"), slot.jobs_done as f64);
            self.metrics.set_gauge(&format!("serve.shard.{i}.failures"), slot.failures as f64);
            self.metrics.set_gauge(&format!("serve.shard.{i}.trips"), slot.breaker.trips() as f64);
            self.metrics
                .set_gauge(&format!("serve.shard.{i}.state"), slot.breaker.state().as_gauge());
            self.metrics
                .set_gauge(&format!("serve.shard.{i}.last_heartbeat"), slot.last_heartbeat as f64);
        }
        self.metrics.set_gauge("serve.rounds", self.round as f64);
        let lat = self.latency.summary();
        self.metrics.set_gauge("serve.latency.p50_ms", lat.p50_ms);
        self.metrics.set_gauge("serve.latency.p99_ms", lat.p99_ms);
        self.timelines.sort_by_key(|t| t.request.0);
        PoolReport {
            metrics: self.metrics,
            latency: self.latency,
            queue_wait: self.queue_wait,
            timelines: self.timelines,
            completed: self.completed,
            shed: self.shed,
            failovers: self.failovers,
            breaker_trips,
            breaker_transitions,
            rounds: self.round,
            shard_jobs,
            shard_failures,
            setup_hits: 0,
            setup_misses: 0,
            setup_evictions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigKey, SyntheticSource};
    use qdd_core::{FgmresConfig, MrConfig, SchwarzConfig};
    use qdd_faults::{FaultRates, ShardFaults};
    use qdd_util::rng::Rng64;
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
            breaker: BreakerConfig { failure_threshold: 2, cooldown_rounds: 2 },
            retry: RetryPolicy::default(),
            trace_seed: 0xfeed_beef,
            setup_cache_capacity: 4,
        }
    }

    fn sources_for(n: u64) -> Vec<SpinorField<f64>> {
        (0..n)
            .map(|i| {
                let mut rng = Rng64::new(300 + i);
                SpinorField::random(dims(), &mut rng)
            })
            .collect()
    }

    #[test]
    fn fault_free_pool_converges_and_spreads_load() {
        let cfg = pool_cfg(2);
        let source = SyntheticSource::new(dims());
        let faults = ShardFaults::none(1);
        let sink = TraceSink::enabled();
        let (responses, report) = shard_serve(&cfg, &source, &faults, &sink, |h| {
            let tickets = h.submit_wave(
                sources_for(4).into_iter().map(|s| SolveRequest::new(ConfigKey(1), s)).collect(),
            );
            tickets.into_iter().map(PoolTicket::wait).collect::<Vec<_>>()
        });
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.status, ServeStatus::Converged, "request {i}: {}", r.status);
            assert!(r.relative_residual <= 1e-8);
            assert_eq!(r.request_id.0, i as u64);
            assert_eq!(r.trace_id, TraceId::derive(cfg.trace_seed, i as u64));
        }
        assert_eq!(report.completed, 4);
        assert_eq!(report.shed, 0);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.breaker_trips, 0);
        // Two shards, four requests, round-robin: two jobs each.
        assert_eq!(report.shard_jobs, vec![2, 2]);
        // One config, one scatter: the pool-shared cache built it once.
        assert_eq!(report.setup_misses, 1);
        assert_eq!(report.setup_hits, 3);
        assert_eq!(report.timelines.len(), 4);
        for t in &report.timelines {
            assert!(t.is_complete());
            assert!(t.stages.iter().any(|s| s.0 == "solved"));
        }
    }

    #[test]
    fn sick_shard_trips_breaker_and_failover_rescues_requests() {
        let mut cfg = pool_cfg(2);
        cfg.breaker = BreakerConfig { failure_threshold: 1, cooldown_rounds: 100 };
        let source = SyntheticSource::new(dims());
        // Shard 0 drops every message; shard 1 is clean.
        let faults =
            ShardFaults::none(7).with_shard(0, FaultRates { loss: 1.0, ..FaultRates::default() });
        let sink = TraceSink::enabled();
        let flight = FlightRecorder::with_capacity(128);
        let (responses, report) =
            shard_serve_with_flight(&cfg, &source, &faults, &sink, &flight, |h| {
                let tickets = h.submit_wave(
                    sources_for(4)
                        .into_iter()
                        .map(|s| SolveRequest::new(ConfigKey(1), s))
                        .collect(),
                );
                tickets.into_iter().map(PoolTicket::wait).collect::<Vec<_>>()
            });
        // Every request was answered and met its target: the ones that
        // hit the sick shard failed over to the healthy one.
        assert_eq!(report.completed, 4);
        for r in &responses {
            assert_eq!(r.status, ServeStatus::Converged, "{}", r.status);
            assert!(r.relative_residual <= 1e-8);
        }
        // The sick shard failed at least one request, tripped its
        // breaker, and the flight recorder dumped on the trip.
        assert!(report.failovers >= 1, "failovers: {}", report.failovers);
        assert_eq!(report.breaker_trips, 1);
        assert!(report.shard_failures[0] >= 1);
        assert_eq!(report.shard_failures[1], 0);
        assert!(flight.dumps() >= 1, "breaker trip must dump the flight rings");
        assert!(flight.snapshot().iter().any(|e| e.code == "req.failover"));
        assert!(flight.snapshot().iter().any(|e| e.code == "breaker.open"));
        // With the breaker open (cooldown 100 rounds ≫ run length), the
        // healthy shard carried the rest of the load alone.
        let open_at = report
            .breaker_transitions
            .iter()
            .find(|(s, t)| *s == 0 && t.to == BreakerState::Open)
            .expect("shard 0 must have opened");
        assert!(open_at.1.round >= 1);
        assert!(report.metrics.counters().get("serve.failover").copied().unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn expired_requests_are_shed_at_dispatch() {
        let cfg = pool_cfg(1);
        let source = SyntheticSource::new(dims());
        let faults = ShardFaults::none(3);
        let sink = TraceSink::disabled();
        let (response, report) = shard_serve(&cfg, &source, &faults, &sink, |h| {
            let mut req = SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap());
            req.deadline = Some(Duration::ZERO);
            let t = h.submit(req);
            std::thread::sleep(Duration::from_millis(5));
            t.wait()
        });
        assert_eq!(response.status, ServeStatus::Shed);
        assert_eq!(response.iterations, 0);
        assert_eq!(response.solution.norm(), 0.0);
        assert_eq!(report.shed, 1);
        assert_eq!(report.metrics.counters().get("serve.shed.expired").copied(), Some(1.0));
        // Shed at dequeue: the shard never saw a job.
        assert_eq!(report.shard_jobs, vec![0]);
        assert!(report.timelines[0].stages.iter().any(|s| s.0 == "shed"));
    }

    #[test]
    fn every_shard_sick_exhausts_the_ladder_honestly() {
        let mut cfg = pool_cfg(2);
        cfg.retry_budget = 3;
        cfg.breaker = BreakerConfig { failure_threshold: 10, cooldown_rounds: 1 };
        let source = SyntheticSource::new(dims());
        let faults = ShardFaults::new(9, FaultRates { loss: 1.0, ..FaultRates::default() });
        let sink = TraceSink::disabled();
        let (response, report) = shard_serve(&cfg, &source, &faults, &sink, |h| {
            h.submit(SolveRequest::new(ConfigKey(1), sources_for(1).pop().unwrap())).wait()
        });
        // Both shards failed it; after trying each once the tried set
        // covers the pool and the answer is an honest exhaustion.
        assert_eq!(response.status, ServeStatus::Degraded(DegradeReason::ShardsExhausted));
        assert!(!response.status.meets_target());
        assert_eq!(report.completed, 1);
        assert_eq!(report.failovers, 1, "one failover before the pool was exhausted");
        assert_eq!(report.shard_failures, vec![1, 1]);
    }
}
