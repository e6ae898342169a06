//! Telemetry overhead guard: instrumented vs uninstrumented solves.
//!
//! Runs the same fused-outer DD solve twice per right-hand side — once
//! bare, once under the full per-request instrumentation surface (phase
//! timing spans, latency histogram, flight-recorder events) — and
//! asserts:
//!
//! * the instrumented solution and residual are **bitwise identical** to
//!   the uninstrumented ones (telemetry must never perturb the numerics;
//!   this is the serving-path guarantee the observability layer rides on);
//! * the median instrumented wall time stays within 2 % of the bare
//!   median (full runs only — smoke runs on loaded CI machines report
//!   the ratio without gating on it).
//!
//! Emits `results/BENCH_telemetry.json` in the shared `Report` schema.
//!
//! Run: `cargo run -p qdd-bench --release --bin telemetry [-- --smoke]`

use qdd_bench::Report;
use qdd_core::dd_solver::{DdSolver, DdSolverConfig};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_trace::{FlightRecorder, LogHistogram, Phase, TraceId};
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct TrialPoint {
    trial: usize,
    bare_ms: f64,
    instrumented_ms: f64,
    iterations: usize,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims = if smoke { Dims::new(8, 4, 4, 4) } else { Dims::new(8, 8, 8, 8) };
    let trials = if smoke { 6usize } else { 24 };
    let mass = 0.1;
    let cfg = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-8, max_iterations: 200 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 2,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };

    let mut rng = Rng64::new(11);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let phases = BoundaryPhases::antiperiodic_t();
    let op = WilsonClover::new(gauge, clover, mass, phases);
    let solver = DdSolver::new(op, cfg).expect("non-singular clover");

    let rhs: Vec<SpinorField<f64>> = (0..trials)
        .map(|i| {
            let mut r = Rng64::new(500 + i as u64);
            SpinorField::random(dims, &mut r)
        })
        .collect();

    // The instrumentation surface under test: per-phase timing spans in
    // the stats sink, a latency histogram record per solve, and a flight
    // event per solve. This mirrors what `qdd-serve` hangs on the hot
    // path per request.
    let flight = FlightRecorder::with_capacity(128);
    let lane = flight.lane(0);
    lane.set_trace(TraceId::derive(3, 0));
    let mut latency = LogHistogram::new();

    println!("telemetry overhead guard: {trials} solves each way, {dims}, fused outer\n");
    let mut points = Vec::with_capacity(trials);
    let mut bare_ms = Vec::with_capacity(trials);
    let mut instr_ms = Vec::with_capacity(trials);
    for (i, f) in rhs.iter().enumerate() {
        // Alternate which variant runs first so cache-warmth drift
        // cancels instead of biasing one side.
        let run_bare = |bare: &mut Vec<f64>| {
            let mut stats = SolveStats::new();
            let t = Instant::now();
            let (x, out) = solver.solve(f, &mut stats);
            bare.push(t.elapsed().as_secs_f64() * 1e3);
            (x, out)
        };
        let run_instr = |instr: &mut Vec<f64>, latency: &mut LogHistogram| {
            let mut stats = SolveStats::new();
            stats.enable_phase_timing();
            let t = Instant::now();
            let (x, out) = solver.solve(f, &mut stats);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            instr.push(ms);
            latency.record(ms);
            lane.record(Phase::Solve, "solve.done", out.iterations as f64, ms);
            assert!(stats.phase_seconds(Phase::OperatorApply) > 0.0, "phase timing inactive");
            (x, out)
        };
        let ((x_b, out_b), (x_i, out_i)) = if i % 2 == 0 {
            let b = run_bare(&mut bare_ms);
            let ins = run_instr(&mut instr_ms, &mut latency);
            (b, ins)
        } else {
            let ins = run_instr(&mut instr_ms, &mut latency);
            let b = run_bare(&mut bare_ms);
            (b, ins)
        };
        assert!(out_b.converged && out_i.converged, "trial {i} did not converge");
        assert_eq!(
            out_b.relative_residual.to_bits(),
            out_i.relative_residual.to_bits(),
            "trial {i}: instrumented residual differs from bare solve"
        );
        assert!(
            x_b.as_slice() == x_i.as_slice(),
            "trial {i}: instrumented solution differs bitwise from bare solve"
        );
        points.push(TrialPoint {
            trial: i,
            bare_ms: bare_ms[i],
            instrumented_ms: instr_ms[i],
            iterations: out_b.iterations,
        });
    }

    let med_bare = median(&mut bare_ms.clone());
    let med_instr = median(&mut instr_ms.clone());
    let overhead = med_instr / med_bare - 1.0;
    println!("bitwise agreement: {trials} instrumented solutions == bare solutions");
    println!(
        "median wall: bare {med_bare:.2} ms, instrumented {med_instr:.2} ms ({:+.2}%)",
        overhead * 1e2
    );
    println!(
        "instrumented latency histogram: p50 {:.2} ms, p99 {:.2} ms over {} samples",
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.count()
    );
    assert_eq!(flight.snapshot().len(), trials, "one flight event per instrumented solve");

    let mut out = Report::new("BENCH_telemetry");
    out.param("dims", dims.to_string())
        .param("trials", trials as u64)
        .param("smoke", smoke)
        .meta("median_bare_ms", med_bare)
        .meta("median_instrumented_ms", med_instr)
        .meta("overhead_fraction", overhead)
        .meta("latency_p50_ms", latency.quantile(0.5))
        .meta("latency_p99_ms", latency.quantile(0.99))
        .meta("bitwise_identical", true);
    for p in points {
        out.push("trial_wall_ms", p);
    }
    out.write();
    println!("\nwrote results/BENCH_telemetry.json");

    if !smoke {
        assert!(
            overhead <= 0.02,
            "instrumentation overhead {:.2}% exceeds the 2% budget",
            overhead * 1e2
        );
    }
}
