//! `qdd` — command-line driver for the lattice-qcd-dd library.
//!
//! ```text
//! qdd solve [--dims X,Y,Z,T] [--block X,Y,Z,T] [--mass M] [--spread S]
//!           [--ischwarz N] [--idomain N] [--basis M] [--deflate K]
//!           [--tol T] [--solver dd|bicgstab|cgnr|richardson] [--workers N]
//!           [--seed N] [--half] [--no-overlap] [--trace PATH]
//! qdd hmc   [--dims X,Y,Z,T] [--beta B] [--trajectories N] [--steps N]
//!           [--length L] [--seed N]
//! qdd serve [--dims X,Y,Z,T] [--block X,Y,Z,T] [--requests N] [--configs K]
//!           [--tol T] [--deadline-ms D] [--workers N] [--max-batch B]
//!           [--queue N] [--cache N] [--seed N] [--half] [--trace PATH]
//!           [--flight-dump PATH] [--timelines] [--autotune]
//!           [--backend knc|knl-flat|knl-cache]
//!           [--shards N] [--retry-budget N] [--sick-shard I]
//!           [--ranks X,Y,Z,T] [--fault-seed N]
//! qdd chaos [--dims X,Y,Z,T] [--block X,Y,Z,T] [--ranks X,Y,Z,T]
//!           [--loss P] [--corrupt P] [--delay P] [--hiccup P]
//!           [--fault-seed N] [--restarts N] [--mass M] [--spread S]
//!           [--tol T] [--seed N] [--no-overlap] [--flight-dump PATH]
//! qdd tune  [--backend knc|knl-flat|knl-cache|all] [--nodes N]
//!           [--dims X,Y,Z,T] [--layout X,Y,Z,T] [--cores N]
//!           [--basis M] [--deflate K] [--base-outer N] [--top N]
//!           [--seed N] [--calibrate PATH] [--json PATH]
//! qdd info
//! ```
//!
//! Everything is deterministic for a fixed `--seed`; `qdd chaos` is
//! additionally deterministic in its fault schedule for a fixed
//! `--fault-seed` (default: the `QDD_FAULT_SEED` environment variable).

use lattice_qcd_dd::prelude::*;
use lattice_qcd_dd::serve::{
    serve_with_flight, ConfigKey, ServeStatus, ServiceConfig, SolveRequest, SubmitError,
    SyntheticSource, Ticket,
};
use lattice_qcd_dd::trace::{breakdown_table, write_trace_files, FlightRecorder, TraceSink};
use qdd_hmc::{Hmc, HmcConfig, LeapfrogConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|e| format!("bad dims '{s}': {e}")))
        .collect::<Result<_, _>>()?;
    if parts.len() != 4 {
        return Err(format!("dims must have 4 components, got '{s}'"));
    }
    Ok(Dims::new(parts[0], parts[1], parts[2], parts[3]))
}

struct Args {
    flags: HashMap<String, String>,
    bools: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    bools.push(name.to_string());
                    i += 1;
                }
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(Args { flags, bools })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|e| format!("--{name}: {e}")),
        }
    }

    fn dims(&self, name: &str, default: Dims) -> Result<Dims, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => parse_dims(v),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    let dims = args.dims("dims", Dims::new(8, 8, 8, 8))?;
    let block = args.dims("block", Dims::new(4, 4, 4, 4))?;
    let mass: f64 = args.get("mass", 0.1)?;
    let spread: f64 = args.get("spread", 0.45)?;
    let seed: u64 = args.get("seed", 1)?;
    let tol: f64 = args.get("tol", 1e-9)?;
    let solver_kind: String = args.get("solver", "dd".to_string())?;
    let workers: usize = args.get("workers", 1)?;

    if solver_kind == "dd" && !dims.divisible_by(&block) {
        return Err(format!("block {block} does not tile lattice {dims}"));
    }
    if solver_kind == "dd" && block.0.iter().any(|b| b % 2 != 0) {
        return Err(format!("block extents must be even, got {block}"));
    }
    println!("building synthetic configuration on {dims} (spread {spread}, seed {seed}) ...");
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let op = WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t());
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let mut stats = SolveStats::new();
    let trace_path = args.flags.get("trace").cloned();
    if trace_path.is_some() {
        stats.attach_sink(TraceSink::enabled());
    }

    let outcome = match solver_kind.as_str() {
        "dd" => {
            let cfg = DdSolverConfig {
                fgmres: FgmresConfig {
                    max_basis: args.get("basis", 10)?,
                    deflate: args.get("deflate", 4)?,
                    tolerance: tol,
                    max_iterations: args.get("max-iterations", 500)?,
                },
                schwarz: SchwarzConfig {
                    block,
                    i_schwarz: args.get("ischwarz", 5)?,
                    mr: MrConfig {
                        iterations: args.get("idomain", 4)?,
                        tolerance: 0.0,
                        f16_vectors: args.has("f16-spinors"),
                    },
                    additive: args.has("additive"),
                    // One switch for both schedules: the Schwarz sweep's
                    // Fig. 4 overlap and the staged outer matvec.
                    overlap: !args.has("no-overlap"),
                    ..Default::default()
                },
                precision: if args.has("half") {
                    Precision::HalfCompressed
                } else {
                    Precision::Single
                },
                workers,
                ..Default::default()
            };
            let solver = DdSolver::new(op, cfg).ok_or("singular clover block")?;
            let (_, out) = if args.has("mixed") {
                solver.solve_mixed(&b, 1e-4, &mut stats)
            } else {
                solver.solve(&b, &mut stats)
            };
            out
        }
        "bicgstab" => {
            let sys = LocalSystem::new(&op);
            let (_, out) = bicgstab(
                &sys,
                &b,
                &BiCgStabConfig { tolerance: tol, max_iterations: 100_000 },
                &mut stats,
            );
            out
        }
        "cgnr" => {
            let sys = LocalSystem::new(&op);
            let (_, out) =
                cgnr(&sys, &b, &CgConfig { tolerance: tol, max_iterations: 200_000 }, &mut stats);
            out
        }
        "richardson" => {
            let op32: WilsonClover<f32> = op.cast();
            let sys = LocalSystem::new(&op);
            let sys32 = LocalSystem::new(&op32);
            let (_, out) = richardson_bicgstab(
                &sys,
                &sys32,
                &b,
                &RichardsonConfig { tolerance: tol, ..Default::default() },
                &mut stats,
            );
            out
        }
        other => return Err(format!("unknown solver '{other}' (dd|bicgstab|cgnr|richardson)")),
    };

    println!(
        "\n{}: {} iterations, relative residual {:.2e}",
        if outcome.converged { "converged" } else { "NOT converged" },
        outcome.iterations,
        outcome.relative_residual
    );
    println!("{stats}");
    if let Some(path) = &trace_path {
        let streams = [stats.sink().stream()];
        write_trace_files(&streams, path)
            .map_err(|e| format!("could not write trace to {path}: {e}"))?;
        println!("\ntrace written: {path} (chrome://tracing), {path}.jsonl");
        println!("{}", breakdown_table(&streams));
    }
    if outcome.converged {
        Ok(())
    } else {
        Err("solver did not reach the target".into())
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.flags.contains_key("shards") {
        return cmd_serve_sharded(args);
    }
    let dims = args.dims("dims", Dims::new(8, 8, 8, 8))?;
    let block = args.dims("block", Dims::new(4, 4, 4, 4))?;
    let requests: usize = args.get("requests", 8)?;
    let configs: u64 = args.get("configs", 2)?;
    let tol: f64 = args.get("tol", 1e-8)?;
    let deadline_ms: u64 = args.get("deadline-ms", 0)?;
    let seed: u64 = args.get("seed", 1)?;
    if !dims.divisible_by(&block) {
        return Err(format!("block {block} does not tile lattice {dims}"));
    }
    if configs == 0 {
        return Err("--configs must be positive".into());
    }

    let mut svc = ServiceConfig {
        queue_capacity: args.get("queue", 64)?,
        workers: args.get("workers", 1)?,
        max_batch: args.get("max-batch", 8)?,
        cache_capacity: args.get("cache", 4)?,
        ..ServiceConfig::default()
    };
    svc.solver.schwarz.block = block;
    svc.solver.fgmres.tolerance = tol;
    let precision = if args.has("half") { Precision::HalfCompressed } else { Precision::Single };
    svc.solver.precision = precision;
    svc.autotune = args.has("autotune");
    if let Some(b) = args.flags.get("backend") {
        svc.backend = lattice_qcd_dd::machine::BackendKind::parse(b)
            .ok_or_else(|| format!("unknown backend '{b}' (knc|knl-flat|knl-cache)"))?;
    }

    let trace_path = args.flags.get("trace").cloned();
    let sink = if trace_path.is_some() { TraceSink::enabled() } else { TraceSink::disabled() };
    let flight_path = args.flags.get("flight-dump").cloned();
    let flight = if flight_path.is_some() {
        FlightRecorder::with_capacity(256)
    } else {
        FlightRecorder::disabled()
    };
    if let Some(p) = &flight_path {
        if let Some(dir) = std::path::Path::new(p).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        flight.set_auto_dump_path(p);
    }
    let source = SyntheticSource::new(dims);
    println!(
        "serving {requests} requests over {configs} synthetic configuration(s) on {dims} \
         ({} worker(s), batch <= {}, queue {}, cache {}) ...",
        svc.workers, svc.max_batch, svc.queue_capacity, svc.cache_capacity
    );

    let t0 = std::time::Instant::now();
    let ((responses, shed), report) = serve_with_flight(&svc, &source, &sink, &flight, |h| {
        let mut rng = Rng64::new(seed);
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut shed = 0u64;
        for i in 0..requests {
            let b = SpinorField::<f64>::random(dims, &mut rng);
            let mut req = SolveRequest::new(ConfigKey(i as u64 % configs), b);
            req.tolerance = tol;
            req.precision = precision;
            if deadline_ms > 0 {
                req.deadline = Some(std::time::Duration::from_millis(deadline_ms));
            }
            match h.submit(req) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull(_)) => shed += 1,
            }
        }
        (tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>(), shed)
    });
    let wall = t0.elapsed();

    let count =
        |pred: fn(&ServeStatus) -> bool| responses.iter().filter(|r| pred(&r.status)).count();
    println!("\n{:>12}  {}", "converged", count(|s| matches!(s, ServeStatus::Converged)));
    println!("{:>12}  {}", "fallback", count(|s| matches!(s, ServeStatus::Fallback)));
    println!("{:>12}  {}", "degraded", count(|s| matches!(s, ServeStatus::Degraded(_))));
    println!("{:>12}  {shed}", "shed");
    let lat = report.latency.summary();
    println!(
        "\ncache: {} hit(s) / {} miss(es) ({:.0}% hit rate)",
        report.cache_hits,
        report.cache_misses,
        100.0 * report.cache_hit_rate
    );
    if svc.autotune {
        println!(
            "tune cache [{}]: {} hit(s) / {} miss(es)",
            svc.backend, report.tune_hits, report.tune_misses
        );
    }
    println!(
        "latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms; queue wait p50 {:.1} ms",
        lat.p50_ms,
        lat.p99_ms,
        lat.max_ms,
        report.queue_wait.quantile_ms(0.5)
    );
    println!(
        "throughput: {:.2} solves/s ({} answered in {:.2} s)",
        report.completed as f64 / wall.as_secs_f64(),
        report.completed,
        wall.as_secs_f64()
    );

    // Model-validation join: measured wall time vs the KNC machine
    // model's price per phase (ratio 1 = the model nailed it).
    if !report.model.is_empty() {
        println!(
            "\n{:>14}  {:>11} {:>11} {:>9}",
            "model join", "measured_s", "predicted_s", "ratio"
        );
        for (key, e) in report.model.entries() {
            println!(
                "{key:>14}  {:>11.3e} {:>11.3e} {:>9.3}",
                e.measured_s,
                e.predicted_s,
                e.ratio()
            );
        }
    }

    if args.has("timelines") {
        println!("\nper-request timelines (ms since admission):");
        for t in &report.timelines {
            let stages: Vec<String> =
                t.stages.iter().map(|(s, ms)| format!("{s}@{ms:.2}")).collect();
            println!("  {} trace {}  {}", t.request, t.trace, stages.join(" -> "));
        }
    }

    if let Some(path) = &trace_path {
        let streams = [sink.stream()];
        write_trace_files(&streams, path)
            .map_err(|e| format!("could not write trace to {path}: {e}"))?;
        println!("\ntrace written: {path} (chrome://tracing), {path}.jsonl");
        println!("{}", breakdown_table(&streams));
    }
    if flight_path.is_some() {
        if let Some(p) = flight.dump("on-demand") {
            println!("flight dump written: {p} ({} event(s))", flight.snapshot().len());
        }
    }
    let failed = responses.iter().filter(|r| !r.status.meets_target()).count();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} request(s) did not reach the target"))
    }
}

/// `qdd serve --shards N`: the supervised shard pool. Each shard is one
/// simulated multi-rank world; `--sick-shard I` puts shard `I` under a
/// 100% message-loss plan to demonstrate breaker + failover, and the
/// whole run is deterministic for a fixed `--fault-seed`.
fn cmd_serve_sharded(args: &Args) -> Result<(), String> {
    use lattice_qcd_dd::faults::{FaultRates, ShardFaults};
    use lattice_qcd_dd::serve::{shard_serve_with_flight, PoolTicket, ShardPoolConfig};

    let dims = args.dims("dims", Dims::new(8, 8, 8, 8))?;
    let block = args.dims("block", Dims::new(4, 4, 4, 4))?;
    let ranks = args.dims("ranks", Dims::new(1, 1, 1, 2))?;
    let requests: usize = args.get("requests", 8)?;
    let configs: u64 = args.get("configs", 2)?;
    let tol: f64 = args.get("tol", 1e-8)?;
    let deadline_ms: u64 = args.get("deadline-ms", 0)?;
    let seed: u64 = args.get("seed", 1)?;
    let shards: usize = args.get("shards", 2)?;
    let retry_budget: u32 = args.get("retry-budget", 2)?;
    let fault_seed_default =
        std::env::var("QDD_FAULT_SEED").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(1);
    let fault_seed: u64 = args.get("fault-seed", fault_seed_default)?;
    if !dims.divisible_by(&block) {
        return Err(format!("block {block} does not tile lattice {dims}"));
    }
    if !dims.divisible_by(&ranks) {
        return Err(format!("rank grid {ranks} does not tile lattice {dims}"));
    }
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    if configs == 0 {
        return Err("--configs must be positive".into());
    }

    let mut cfg = ShardPoolConfig {
        shards,
        rank_dims: ranks,
        retry_budget,
        setup_cache_capacity: args.get("cache", 4)?,
        ..ShardPoolConfig::default()
    };
    cfg.solver.schwarz.block = block;
    cfg.solver.fgmres.tolerance = tol;
    let precision = if args.has("half") { Precision::HalfCompressed } else { Precision::Single };
    cfg.solver.precision = precision;

    let mut faults = ShardFaults::none(fault_seed);
    let sick: Option<usize> = match args.flags.get("sick-shard") {
        None => None,
        Some(v) => Some(v.parse::<usize>().map_err(|e| format!("--sick-shard: {e}"))?),
    };
    if let Some(s) = sick {
        if s >= shards {
            return Err(format!("--sick-shard {s} out of range (pool has {shards} shards)"));
        }
        faults = faults.with_shard(s, FaultRates { loss: 1.0, ..FaultRates::default() });
    }

    let sink = TraceSink::disabled();
    let flight_path = args.flags.get("flight-dump").cloned();
    let flight = if flight_path.is_some() {
        FlightRecorder::with_capacity(256)
    } else {
        FlightRecorder::disabled()
    };
    if let Some(p) = &flight_path {
        if let Some(dir) = std::path::Path::new(p).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        flight.set_auto_dump_path(p);
    }
    let source = SyntheticSource::new(dims);
    println!(
        "serving {requests} requests over {configs} synthetic configuration(s) on {dims} \
         ({shards} shard(s) of {ranks} rank(s), retry budget {retry_budget}, fault seed \
         {fault_seed}{}) ...",
        sick.map(|s| format!(", shard {s} sick")).unwrap_or_default()
    );

    let t0 = std::time::Instant::now();
    let (responses, report) =
        shard_serve_with_flight(&cfg, &source, &faults, &sink, &flight, |h| {
            let mut rng = Rng64::new(seed);
            let reqs: Vec<SolveRequest> = (0..requests)
                .map(|i| {
                    let b = SpinorField::<f64>::random(dims, &mut rng);
                    let mut req = SolveRequest::new(ConfigKey(i as u64 % configs), b);
                    req.tolerance = tol;
                    req.precision = precision;
                    if deadline_ms > 0 {
                        req.deadline = Some(std::time::Duration::from_millis(deadline_ms));
                    }
                    req
                })
                .collect();
            h.submit_wave(reqs).into_iter().map(PoolTicket::wait).collect::<Vec<_>>()
        });
    let wall = t0.elapsed();

    let count =
        |pred: fn(&ServeStatus) -> bool| responses.iter().filter(|r| pred(&r.status)).count();
    println!("\n{:>12}  {}", "converged", count(|s| matches!(s, ServeStatus::Converged)));
    println!("{:>12}  {}", "fallback", count(|s| matches!(s, ServeStatus::Fallback)));
    println!("{:>12}  {}", "degraded", count(|s| matches!(s, ServeStatus::Degraded(_))));
    println!("{:>12}  {}", "shed", report.shed);
    println!("{:>12}  {}", "failovers", report.failovers);

    println!(
        "\n{:>6} {:>6} {:>9} {:>6} {:>11} {:>10}",
        "shard", "jobs", "failures", "trips", "breaker", "heartbeat"
    );
    for (i, (jobs, fails)) in report.shard_jobs.iter().zip(&report.shard_failures).enumerate() {
        let state = report
            .metrics
            .gauge(&format!("serve.shard.{i}.state"))
            .map(|g| {
                if g == 0.0 {
                    "closed"
                } else if g == 1.0 {
                    "open"
                } else {
                    "half-open"
                }
            })
            .unwrap_or("?");
        let hb = report.metrics.gauge(&format!("serve.shard.{i}.last_heartbeat")).unwrap_or(0.0);
        println!(
            "{i:>6} {jobs:>6} {fails:>9} {:>6} {state:>11} {hb:>10}",
            report
                .breaker_transitions
                .iter()
                .filter(|(s, t)| *s == i && t.to == lattice_qcd_dd::serve::BreakerState::Open)
                .count()
        );
    }
    if !report.breaker_transitions.is_empty() {
        println!("\nbreaker transitions (round-clocked):");
        for (s, t) in &report.breaker_transitions {
            println!("  shard {s}: {} -> {} at round {}", t.from.label(), t.to.label(), t.round);
        }
    }
    println!(
        "\nsetup cache: {} hit(s) / {} miss(es) / {} eviction(s)",
        report.setup_hits, report.setup_misses, report.setup_evictions
    );
    let lat = report.latency.summary();
    println!(
        "latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms; {} dispatch round(s)",
        lat.p50_ms, lat.p99_ms, lat.max_ms, report.rounds
    );
    println!(
        "throughput: {:.2} solves/s ({} answered in {:.2} s)",
        report.completed as f64 / wall.as_secs_f64(),
        report.completed,
        wall.as_secs_f64()
    );

    if args.has("timelines") {
        println!("\nper-request timelines (ms since admission):");
        for t in &report.timelines {
            let stages: Vec<String> =
                t.stages.iter().map(|(s, ms)| format!("{s}@{ms:.2}")).collect();
            println!("  {} trace {}  {}", t.request, t.trace, stages.join(" -> "));
        }
    }
    if flight_path.is_some() {
        if let Some(p) = flight.dump("on-demand") {
            println!("flight dump written: {p} ({} event(s))", flight.snapshot().len());
        }
    }

    // Shed requests are an explicit service decision, not a failure; a
    // degraded answer with every shard tried is only acceptable when the
    // operator made the whole pool sick on purpose.
    let failed = responses
        .iter()
        .filter(|r| !r.status.meets_target() && r.status != ServeStatus::Shed)
        .count();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} request(s) did not reach the target"))
    }
}

fn cmd_chaos(args: &Args) -> Result<(), String> {
    use lattice_qcd_dd::comm::{
        dd_solve_resilient, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
        CommWorld, DistDdConfig,
    };
    use lattice_qcd_dd::faults::{FaultPlan, FaultRates};

    let dims = args.dims("dims", Dims::new(8, 8, 8, 8))?;
    let block = args.dims("block", Dims::new(4, 4, 4, 4))?;
    let ranks = args.dims("ranks", Dims::new(1, 1, 1, 2))?;
    let mass: f64 = args.get("mass", 0.1)?;
    let spread: f64 = args.get("spread", 0.45)?;
    let seed: u64 = args.get("seed", 1)?;
    let tol: f64 = args.get("tol", 1e-9)?;
    let max_restarts: u32 = args.get("restarts", 2)?;
    let fault_seed_default =
        std::env::var("QDD_FAULT_SEED").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(1);
    let fault_seed: u64 = args.get("fault-seed", fault_seed_default)?;
    let rates = FaultRates {
        loss: args.get("loss", 0.01)?,
        corrupt: args.get("corrupt", 0.01)?,
        delay: args.get("delay", 0.01)?,
        hiccup: args.get("hiccup", 0.005)?,
    };

    if !dims.divisible_by(&ranks) {
        return Err(format!("rank grid {ranks} does not tile lattice {dims}"));
    }
    let grid = RankGrid::new(dims, ranks);
    let local = *grid.local();
    if !local.divisible_by(&block) {
        return Err(format!("block {block} does not tile the rank-local lattice {local}"));
    }
    if block.0.iter().any(|b| b % 2 != 0) {
        return Err(format!("block extents must be even, got {block}"));
    }

    println!(
        "chaos solve on {dims} over {} rank(s) {ranks}; faults: loss {:.3} corrupt {:.3} \
         delay {:.3} hiccup {:.3} (fault seed {fault_seed})",
        grid.num_ranks(),
        rates.loss,
        rates.corrupt,
        rates.delay,
        rates.hiccup,
    );
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let phases = BoundaryPhases::antiperiodic_t();

    let local_gauge = scatter_gauge(&gauge, &grid);
    let local_clover = scatter_clover(&clover, &grid);
    let b_local = scatter_field(&b, &grid);
    let cfg = DistDdConfig {
        fgmres: FgmresConfig {
            max_basis: args.get("basis", 10)?,
            deflate: args.get("deflate", 4)?,
            tolerance: tol,
            max_iterations: args.get("max-iterations", 300)?,
        },
        schwarz: SchwarzConfig {
            block,
            i_schwarz: args.get("ischwarz", 4)?,
            mr: MrConfig {
                iterations: args.get("idomain", 4)?,
                tolerance: 0.0,
                f16_vectors: false,
            },
            // Governs the outer matvec's staged schedule too, so chaos
            // runs exercise the same drain paths the solve CLI uses.
            overlap: !args.has("no-overlap"),
            ..Default::default()
        },
        precision: if args.has("half") { Precision::HalfCompressed } else { Precision::Single },
    };

    // Flight recorder: each rank records on its own lane under a trace
    // id derived from the fault seed, so a dump correlates injected
    // faults with the rank/attempt they hit.
    let flight_path = args.flags.get("flight-dump").cloned();
    let flight = if flight_path.is_some() {
        FlightRecorder::with_capacity(256)
    } else {
        FlightRecorder::disabled()
    };
    if let Some(p) = &flight_path {
        if let Some(dir) = std::path::Path::new(p).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        flight.set_auto_dump_path(p);
    }

    let world = CommWorld::with_faults(grid.clone(), FaultPlan::new(fault_seed, rates));
    let flight_ref = &flight;
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        ctx.attach_flight(flight_ref.lane(r as u32));
        ctx.set_trace_id(lattice_qcd_dd::trace::TraceId::derive(fault_seed, r as u64));
        let op = WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), mass, phases);
        let mut stats = SolveStats::new();
        let (x, out, comm) =
            dd_solve_resilient(ctx, &op, &b_local[r], &cfg, max_restarts, &mut stats);
        (x, out, comm)
    });

    let (_, out0, _) = &results[0];
    println!(
        "\n{}: {} iterations, relative residual {:.2e}, {} restart(s), {} rollback(s)",
        if out0.outcome.converged { "converged" } else { "NOT converged" },
        out0.outcome.iterations,
        out0.outcome.relative_residual,
        out0.restarts,
        out0.rollbacks,
    );
    if let Some(b) = out0.outcome.breakdown {
        println!("unrecovered breakdown: {b}");
    }
    if out0.comm_faulted {
        println!("communication faults exhausted retries on at least one rank (degraded faces)");
    }
    println!(
        "\n{:>4}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "rank",
        "retries",
        "timeout",
        "corrupt",
        "delays",
        "hiccups",
        "pskips",
        "zerofills",
        "delay_us"
    );
    for (r, (_, _, comm)) in results.iter().enumerate() {
        let f = &comm.faults;
        println!(
            "{r:>4}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10.0}",
            f.retries,
            f.timeouts,
            f.corruptions,
            f.delays,
            f.hiccups,
            f.peer_skips,
            f.zero_fills,
            f.delay_us
        );
    }

    // Fault verdict: any injected-fault activity auto-dumps the flight
    // rings — the black box lands next to the run that tripped it.
    let fault_activity = results.iter().any(|(_, _, c)| {
        let f = &c.faults;
        f.retries + f.timeouts + f.corruptions + f.delays + f.hiccups + f.peer_skips > 0
    });
    if fault_activity {
        if let Some(p) = flight.dump("fault-verdict") {
            println!("\nflight dump written: {p} ({} event(s))", flight.snapshot().len());
        }
    }

    // Ground-truth check: the recovered solution must actually solve the
    // fault-free system.
    let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
    let x = gather_field(&locals, &grid);
    let op = WilsonClover::new(gauge, clover, mass, phases);
    let mut ax = SpinorField::zeros(dims);
    op.apply(&mut ax, &x);
    ax.sub_assign(&b);
    let true_rel = ax.norm() / b.norm();
    println!("\ntrue residual against the fault-free operator: {true_rel:.2e}");

    if out0.outcome.converged && true_rel <= 10.0 * tol {
        Ok(())
    } else {
        Err("chaos solve did not reach the target".into())
    }
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    use lattice_qcd_dd::autotune::{Autotuner, Calibration, TuneProblem};
    use lattice_qcd_dd::machine::BackendKind;

    // Which backends to search. "all" ranks the same problem on every
    // modeled machine side by side.
    let backend_s: String = args.get("backend", "knc".to_string())?;
    let kinds: Vec<BackendKind> = if backend_s == "all" {
        BackendKind::ALL.to_vec()
    } else {
        vec![BackendKind::parse(&backend_s)
            .ok_or_else(|| format!("unknown backend '{backend_s}' (knc|knl-flat|knl-cache|all)"))?]
    };

    // The problem: either the paper's 48^3x64 strong-scaling workload on
    // --nodes co-processors, or a custom --dims/--layout/--cores shape.
    let problem = if args.flags.contains_key("dims") {
        let dims = args.dims("dims", Dims::new(8, 8, 8, 8))?;
        let layout = args.dims("layout", Dims::new(1, 1, 1, 1))?;
        if !dims.divisible_by(&layout) {
            return Err(format!("layout {layout} does not tile lattice {dims}"));
        }
        let cores: usize = args.get("cores", 0)?;
        TuneProblem {
            dims,
            layout,
            max_basis: args.get("basis", 16)?,
            deflate: args.get("deflate", 4)?,
            base_outer: args.get("base-outer", 100)?,
            cores: if cores == 0 { None } else { Some(cores) },
        }
    } else {
        let nodes: usize = args.get("nodes", 64)?;
        TuneProblem::paper_48(nodes)
            .ok_or_else(|| format!("no rank layout tiles the paper lattice over {nodes} nodes"))?
    };

    // Optional predict -> measure -> correct: calibrate from a bench
    // report that carries a model_join series (BENCH_serve.json,
    // BENCH_telemetry.json, BENCH_autotune.json).
    let calibration = match args.flags.get("calibrate") {
        None => Calibration::identity(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
            Calibration::from_bench_json(&text)
                .ok_or_else(|| format!("{path} carries no model_join series"))?
        }
    };

    let top: usize = args.get("top", 5)?;
    println!(
        "tuning {} on ranks {} (local {}){}",
        problem.dims,
        problem.layout,
        problem.local(),
        if calibration.is_identity() { "" } else { " [calibrated]" }
    );

    let mut json_plans = Vec::new();
    for kind in kinds {
        let mut tuner = Autotuner::new(kind).with_calibration(calibration.clone());
        if let Some(seed) = args.flags.get("seed") {
            tuner = tuner.with_seed(seed.parse().map_err(|e| format!("--seed: {e}"))?);
        }
        let plan = tuner.tune(&problem);
        println!(
            "\n{kind}: {} candidate(s) ranked of {} evaluated \
             (rejected: {} load, {} hiding, {} invalid; fingerprint {:016x})",
            plan.ranked.len(),
            plan.evaluated,
            plan.rejected_load,
            plan.rejected_hiding,
            plan.rejected_invalid,
            plan.fingerprint,
        );
        match &plan.default_params {
            Some(d) => println!("  default  {}", d.describe()),
            None => println!("  default  (paper point infeasible on this problem)"),
        }
        for (i, p) in plan.ranked.iter().take(top).enumerate() {
            println!("  #{:<6} {}", i + 1, p.describe());
        }
        if let Some(s) = plan.speedup_over_default() {
            println!("  model-predicted speedup over default: {s:.3}x");
        }
        if plan.ranked.is_empty() {
            println!("  no feasible operating point (constraints reject every candidate)");
        }
        json_plans.push(plan);
    }

    if let Some(path) = args.flags.get("json") {
        let text = serde_json::to_string_pretty(&json_plans)
            .map_err(|e| format!("serialize plans: {e}"))?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::write(path, text).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("\nplans written: {path}");
    }
    Ok(())
}

fn cmd_hmc(args: &Args) -> Result<(), String> {
    let dims = args.dims("dims", Dims::new(4, 4, 4, 8))?;
    let beta: f64 = args.get("beta", 5.9)?;
    let n: usize = args.get("trajectories", 20)?;
    let steps: usize = args.get("steps", 50)?;
    let length: f64 = args.get("length", 0.5)?;
    let seed: u64 = args.get("seed", 1)?;

    println!("quenched HMC on {dims} at beta = {beta} ({n} trajectories) ...");
    let cfg = HmcConfig { beta, leapfrog: LeapfrogConfig { steps, length } };
    let mut hmc = Hmc::cold_start(dims, cfg, seed);
    for i in 0..n {
        let (acc, dh) = hmc.trajectory();
        println!(
            "traj {i:>3}: dH {dh:+9.4}  {}  plaquette {:.4}",
            if acc { "accept" } else { "reject" },
            hmc.stats.plaquette.last().unwrap()
        );
    }
    println!(
        "\nacceptance {:.0}%, <exp(-dH)> = {:.3}, final plaquette {:.4}",
        100.0 * hmc.stats.acceptance(),
        hmc.stats.creutz(),
        hmc.stats.plaquette.last().unwrap()
    );
    Ok(())
}

fn cmd_info() {
    println!("lattice-qcd-dd: Rust reproduction of Heybrock et al., SC 2014");
    println!("(domain-decomposition Wilson-Clover solver for KNC clusters)\n");
    let chip = lattice_qcd_dd::machine::chip::ChipSpec::knc_7110p();
    println!(
        "modeled chip: {} cores @ {} GHz, {:.0} Gflop/s sp peak",
        chip.cores,
        chip.freq_ghz,
        chip.peak_sp_gflops()
    );
    let (eff, bound) = lattice_qcd_dd::machine::kernel::wilson_clover_bound(&chip);
    println!(
        "Wilson-Clover compute bound: {:.1}% efficiency, {:.1} Gflop/s/core",
        100.0 * eff,
        bound
    );
    println!("\nsubcommands: solve, serve, hmc, chaos, tune, info");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(|s| s.as_str()) {
        Some("solve") => Args::parse(&argv[1..]).and_then(|a| cmd_solve(&a)),
        Some("serve") => Args::parse(&argv[1..]).and_then(|a| cmd_serve(&a)),
        Some("hmc") => Args::parse(&argv[1..]).and_then(|a| cmd_hmc(&a)),
        Some("tune") => Args::parse(&argv[1..]).and_then(|a| cmd_tune(&a)),
        Some("chaos") => Args::parse(&argv[1..]).and_then(|a| cmd_chaos(&a)),
        Some("info") | None => {
            cmd_info();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
