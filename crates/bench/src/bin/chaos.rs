//! Chaos benchmark: convergence and recovery cost versus fault rate.
//!
//! Runs the distributed DD solve (2 ranks in t) on one synthetic problem
//! under increasing seeded fault pressure — message loss, payload
//! corruption, stragglers and rank hiccups scale together — and records,
//! per rate: convergence, outer iterations, restarts, the recovery
//! counters (`fault.*`), and the *true* residual of the gathered solution
//! against the fault-free operator. The zero-rate row is asserted
//! bitwise-identical to a run on a fault-free world: the injection
//! machinery must cost nothing when disabled.
//!
//! Emits `results/BENCH_chaos.json` in the shared `Report` schema.
//!
//! Run: `cargo run -p qdd-bench --release --bin chaos [-- --smoke]`

use qdd_bench::Report;
use qdd_comm::{
    dd_solve_resilient, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig,
};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_faults::{FaultPlan, FaultRates};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::{Dims, RankGrid};
use qdd_trace::{FlightRecorder, TraceId};
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use serde::Serialize;

#[derive(Serialize)]
struct ChaosPoint {
    rate: f64,
    converged: bool,
    iterations: usize,
    restarts: u32,
    rollbacks: u32,
    relative_residual: f64,
    true_residual: f64,
    retries: u64,
    timeouts: u64,
    corruptions: u64,
    delays: u64,
    hiccups: u64,
    peer_skips: u64,
    zero_fills: u64,
    comm_faulted: bool,
    flight_fault_events: usize,
    wall_ms: f64,
}

struct RunResult {
    x: SpinorField<f64>,
    point: ChaosPoint,
}

#[allow(clippy::too_many_arguments)]
fn run_at_rate(
    rate: f64,
    fault_seed: u64,
    grid: &RankGrid,
    local_gauge: &[GaugeField<f64>],
    local_clover: &[qdd_field::fields::CloverField<f64>],
    b_local: &[SpinorField<f64>],
    cfg: &DistDdConfig,
    mass: f64,
    flight: &FlightRecorder,
) -> RunResult {
    let rates = FaultRates { loss: rate, corrupt: rate, delay: rate, hiccup: 0.5 * rate };
    let world = CommWorld::with_faults(grid.clone(), FaultPlan::new(fault_seed, rates));
    let phases = BoundaryPhases::antiperiodic_t();
    let t0 = std::time::Instant::now();
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        // SPMD rank r records into flight lane r under a per-rank trace
        // derived from the fault seed, so dumped fault events can be
        // matched back to the rank's trace id.
        ctx.attach_flight(flight.lane(r as u32));
        ctx.set_trace_id(TraceId::derive(fault_seed, r as u64));
        let op = WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), mass, phases);
        let mut stats = SolveStats::new();
        dd_solve_resilient(ctx, &op, &b_local[r], cfg, 2, &mut stats)
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
    let x = gather_field(&locals, grid);
    let out = &results[0].1;
    let mut agg = qdd_trace::FaultStats::default();
    for (_, _, comm) in &results {
        agg.merge(&comm.faults);
    }
    let flight_fault_events =
        flight.snapshot().iter().filter(|e| e.code.starts_with("fault.")).count();
    RunResult {
        x,
        point: ChaosPoint {
            rate,
            converged: out.outcome.converged,
            iterations: out.outcome.iterations,
            restarts: out.restarts,
            rollbacks: out.rollbacks,
            relative_residual: out.outcome.relative_residual,
            true_residual: 0.0, // filled by the caller against the global operator
            retries: agg.retries,
            timeouts: agg.timeouts,
            corruptions: agg.corruptions,
            delays: agg.delays,
            hiccups: agg.hiccups,
            peer_skips: agg.peer_skips,
            zero_fills: agg.zero_fills,
            comm_faulted: out.comm_faulted,
            flight_fault_events,
            wall_ms,
        },
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims = if smoke { Dims::new(8, 4, 4, 8) } else { Dims::new(8, 8, 8, 8) };
    let ranks = Dims::new(1, 1, 1, 2);
    let mass = 0.1;
    let tolerance = if smoke { 1e-8 } else { 1e-10 };
    let fault_seed = 7u64;
    let rates: &[f64] = if smoke { &[0.0, 0.01] } else { &[0.0, 0.005, 0.01, 0.02, 0.05] };

    let grid = RankGrid::new(dims, ranks);
    let mut rng = Rng64::new(11);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let phases = BoundaryPhases::antiperiodic_t();
    let global_op = WilsonClover::new(gauge.clone(), clover.clone(), mass, phases);
    let local_gauge = scatter_gauge(&gauge, &grid);
    let local_clover = scatter_clover(&clover, &grid);
    let b_local = scatter_field(&b, &grid);
    let cfg = DistDdConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };

    let true_residual = |x: &SpinorField<f64>| {
        let mut ax = SpinorField::zeros(dims);
        global_op.apply(&mut ax, x);
        ax.sub_assign(&b);
        ax.norm() / b.norm()
    };

    // Reference: a fault-free world (no plan attached at all).
    let clean_world = CommWorld::new(grid.clone());
    let clean = run_spmd(&clean_world, |ctx| {
        let r = ctx.rank();
        let op = WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), mass, phases);
        let mut stats = SolveStats::new();
        dd_solve_resilient(ctx, &op, &b_local[r], &cfg, 2, &mut stats)
    });
    let clean_locals: Vec<SpinorField<f64>> = clean.iter().map(|r| r.0.clone()).collect();
    let x_clean = gather_field(&clean_locals, &grid);
    assert!(clean[0].1.outcome.converged, "fault-free reference failed to converge");

    let mut report = Report::new("BENCH_chaos");
    report
        .param("dims", dims.to_string())
        .param("ranks", ranks.to_string())
        .param("tolerance", tolerance)
        .param("fault_seed", fault_seed as f64)
        .param("smoke", smoke)
        .meta(
            "note",
            "loss/corrupt/delay rates all equal `rate`, hiccup rate = rate/2; \
             true_residual is against the fault-free global operator",
        );

    println!(
        "{:>7} {:>5} {:>6} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "rate",
        "conv",
        "iters",
        "restarts",
        "retries",
        "corrupt",
        "hiccups",
        "pskips",
        "zfills",
        "true_res",
        "wall_ms"
    );
    let mut all_ok = true;
    std::fs::create_dir_all("results").ok();
    for &rate in rates {
        // Fresh recorder per rate so each dump holds exactly one run's
        // fault history; the last nonzero-rate dump survives as the
        // `results/FLIGHT_chaos.jsonl` artifact.
        let flight = FlightRecorder::with_capacity(256);
        flight.set_auto_dump_path("results/FLIGHT_chaos.jsonl");
        let mut run = run_at_rate(
            rate,
            fault_seed,
            &grid,
            &local_gauge,
            &local_clover,
            &b_local,
            &cfg,
            mass,
            &flight,
        );
        run.point.true_residual = true_residual(&run.x);
        let injected =
            run.point.retries + run.point.corruptions + run.point.delays + run.point.hiccups;
        if injected > 0 {
            // Fault-verdict auto-dump: injected faults must surface as
            // flight events whose trace ids match the per-rank traces
            // assigned at attach time.
            flight.dump("fault-verdict").expect("flight dump must write its artifact");
            assert!(run.point.flight_fault_events > 0, "faults injected but none recorded");
            let n_ranks = grid.num_ranks();
            assert!(
                flight
                    .snapshot()
                    .iter()
                    .filter(|e| e.code.starts_with("fault."))
                    .all(|e| (0..n_ranks).any(|r| e.lane == r as u32
                        && e.trace == TraceId::derive(fault_seed, r as u64).0)),
                "fault flight events must carry the trace id of their rank's lane"
            );
        }
        if rate == 0.0 {
            // A zero-rate plan is inert and must be dropped at attach:
            // the run is required to be bitwise identical to the
            // fault-free world, faults machinery and all.
            assert_eq!(
                run.x.as_slice(),
                x_clean.as_slice(),
                "zero-rate chaos run is not bitwise identical to the fault-free world"
            );
            assert_eq!(run.point.retries + run.point.corruptions + run.point.hiccups, 0);
        }
        println!(
            "{:>7.3} {:>5} {:>6} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10.2e} {:>12.1}",
            run.point.rate,
            run.point.converged,
            run.point.iterations,
            run.point.restarts,
            run.point.retries,
            run.point.corruptions,
            run.point.hiccups,
            run.point.peer_skips,
            run.point.zero_fills,
            run.point.true_residual,
            run.point.wall_ms
        );
        all_ok &= run.point.converged;
        report.push("convergence_vs_fault_rate", &run.point);
    }
    report.meta("all_converged", all_ok);
    report.write();
    println!("\nwritten: results/BENCH_chaos.json");
    assert!(all_ok, "at least one fault rate failed to converge");
}
