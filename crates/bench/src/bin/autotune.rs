//! Autotuner benchmark: model-tuned vs hand-set parameters on every
//! machine backend, with the predict → measure → correct loop closed
//! against a real solve.
//!
//! Three parts:
//!
//! 1. **Tuned vs default** — for each [`BackendKind`] the [`Autotuner`]
//!    ranks the full block × precision × prefetch × `Is`/`Id` space on
//!    the paper's 48^3x96 / 64-node problem and the plan's best point is
//!    compared against the paper's hand-set operating point (8x4x4x4,
//!    f16, `Is=16`, `Id=5`). The tuned point must not be slower in
//!    model-predicted time (asserted).
//! 2. **Determinism** — every search runs twice, plus once under a
//!    perturbed `QDD_WORKERS` environment; the plan fingerprints must be
//!    bitwise identical (asserted). These fingerprints cover every
//!    tunable and the bit pattern of the predicted times, so the gate
//!    can pin them.
//! 3. **Predict → measure → correct** — a real single-node solve runs
//!    with phase timing, is joined against the KNC backend's data-sheet
//!    model ([`join_against_backend`]), and the resulting `model.err.*`
//!    ratios feed a [`Calibration`] under which the tuner re-ranks. The
//!    emitted `model_join` series has the exact shape
//!    `Calibration::from_bench_json` parses, so this report can itself
//!    be passed to `qdd tune --calibrate results/BENCH_autotune.json`.
//!
//! Emits `results/BENCH_autotune.json` in the shared `Report` schema.
//! Measured wall times live only in the `model_join` series and the
//! `measured_*` metadata keys; everything else is pure model output and
//! reproduces bitwise across hosts.
//!
//! Run: `cargo run -p qdd-bench --release --bin autotune [-- --smoke]`

use qdd_autotune::{join_against_backend, Autotuner, Calibration, TuneProblem};
use qdd_bench::{test_operator, test_source, Report};
use qdd_core::dd_solver::{DdSolver, DdSolverConfig};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_lattice::Dims;
use qdd_machine::{BackendKind, MachineBackend, Precision as ModelPrecision};
use qdd_util::stats::SolveStats;
use serde::Serialize;

#[derive(Serialize)]
struct BackendPoint {
    backend: &'static str,
    block: String,
    precision: &'static str,
    prefetch: &'static str,
    i_schwarz: usize,
    i_domain: usize,
    outer_iterations: usize,
    predicted_total_s: f64,
    default_predicted_total_s: f64,
    speedup_over_default: f64,
    fingerprint: String,
    evaluated: usize,
    ranked: usize,
}

#[derive(Serialize)]
struct JoinPoint {
    phase: String,
    measured_s: f64,
    predicted_s: f64,
    ratio: f64,
}

fn precision_str(p: ModelPrecision) -> &'static str {
    match p {
        ModelPrecision::Single => "f32",
        ModelPrecision::Half => "f16",
    }
}

fn prefetch_str(p: qdd_machine::PrefetchMode) -> &'static str {
    match p {
        qdd_machine::PrefetchMode::None => "none",
        qdd_machine::PrefetchMode::L1 => "l1",
        qdd_machine::PrefetchMode::L1L2 => "l1l2",
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let problem = TuneProblem::paper_48(64).expect("paper decomposition is valid");
    let mut report = Report::new("BENCH_autotune");
    report
        .param("problem", "48^3x96 on 64 co-processors (paper Sec. V)")
        .param("smoke", smoke)
        .meta("paper_default", "8x4x4x4 f16 pf:l1l2 Is=16 Id=5 (Secs. III-C, IV-B)");

    // Part 1 + 2: tuned vs default per backend, with bitwise rerun and
    // environment-independence checks.
    println!("tuned vs hand-set default, model-predicted seconds:\n");
    let mut all_identical = true;
    for kind in BackendKind::ALL {
        let tuner = Autotuner::new(kind);
        let plan = tuner.tune(&problem);
        let rerun = tuner.tune(&problem);

        // A worker-count env var must not leak into the plan: the tuner
        // prices the problem's explicit core/domain counts, never the
        // host it happens to run on.
        let saved = std::env::var("QDD_WORKERS").ok();
        std::env::set_var("QDD_WORKERS", "3");
        let perturbed = Autotuner::new(kind).tune(&problem);
        match saved {
            Some(v) => std::env::set_var("QDD_WORKERS", v),
            None => std::env::remove_var("QDD_WORKERS"),
        }

        let identical =
            plan.fingerprint == rerun.fingerprint && plan.fingerprint == perturbed.fingerprint;
        all_identical &= identical;
        assert!(identical, "{kind}: tune plan not bitwise reproducible");

        let best = *plan.best().expect("paper problem has feasible candidates");
        let default = plan.default_params.expect("paper default is feasible");
        let speedup = plan.speedup_over_default().expect("both points priced");
        assert!(
            best.predicted_total_s <= default.predicted_total_s,
            "{kind}: tuned point slower than hand-set default"
        );

        println!("  {:<16} default {}", kind.label(), default.describe());
        println!("  {:<16} tuned   {}  ({speedup:.3}x)", "", best.describe());
        report.push(
            "tuned_vs_default",
            BackendPoint {
                backend: kind.label(),
                block: format!(
                    "{}x{}x{}x{}",
                    best.block.0[0], best.block.0[1], best.block.0[2], best.block.0[3]
                ),
                precision: precision_str(best.precision),
                prefetch: prefetch_str(best.prefetch),
                i_schwarz: best.i_schwarz,
                i_domain: best.i_domain,
                outer_iterations: best.outer_iterations,
                predicted_total_s: best.predicted_total_s,
                default_predicted_total_s: default.predicted_total_s,
                speedup_over_default: speedup,
                fingerprint: format!("{:016x}", plan.fingerprint),
                evaluated: plan.evaluated,
                ranked: plan.ranked.len(),
            },
        );
        for p in plan.ranked.iter().take(3) {
            report.push(format!("ranked_{}", kind.label()).as_str(), *p);
        }
    }
    report.meta("plans_bitwise_identical", all_identical);

    // Part 3: predict → measure → correct. One real solve with phase
    // timing, joined against the KNC backend; its component ratios
    // calibrate the tuner, which re-ranks under the corrected rates.
    let dims = if smoke { Dims::new(8, 4, 4, 4) } else { Dims::new(8, 8, 8, 8) };
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
    let i_domain = cfg.schwarz.mr.iterations;
    let op = test_operator(dims, 0.45, 0.1, 11);
    let solver = DdSolver::new(op, cfg).expect("non-singular clover");
    let rhs = test_source(dims, 503);
    let mut stats = SolveStats::new();
    stats.enable_phase_timing();
    let (_, out) = solver.solve(&rhs, &mut stats);
    assert!(out.converged, "calibration solve did not converge");

    let knc: &dyn MachineBackend = BackendKind::Knc7110p.instance();
    let join = join_against_backend(
        &stats,
        knc,
        ModelPrecision::Single,
        knc.default_prefetch(),
        i_domain,
        1,
    );
    println!(
        "\nmeasure: {dims} solve joined against {} ({} outer iterations)",
        knc.kind().label(),
        out.iterations
    );
    for (key, err) in join.entries() {
        println!(
            "  {:>16} measured {:.3e}s predicted {:.3e}s ratio {:.3}",
            key,
            err.measured_s,
            err.predicted_s,
            err.ratio()
        );
        report.push(
            "model_join",
            JoinPoint {
                phase: key.to_string(),
                measured_s: err.measured_s,
                predicted_s: err.predicted_s,
                ratio: err.ratio(),
            },
        );
    }

    let calibration = Calibration::from_join(&join);
    let calibrated =
        Autotuner::new(BackendKind::Knc7110p).with_calibration(calibration).tune(&problem);
    let cal_best = *calibrated.best().expect("calibrated search stays feasible");
    let raw = Autotuner::new(BackendKind::Knc7110p).tune(&problem);
    let raw_best = *raw.best().expect("raw search is feasible");
    println!(
        "correct: calibrated re-rank picks {} (raw model picked {})",
        cal_best.describe(),
        raw_best.describe()
    );
    report
        .meta("calibration_solve_dims", dims.to_string())
        .meta("calibration_solve_iterations", out.iterations as u64)
        .meta("measured_calibrated_choice", cal_best.describe())
        .meta("calibrated_same_block_as_raw", cal_best.block == raw_best.block);
    report.push("calibrated_knc", cal_best);

    report.write();
    println!("\nwrote results/BENCH_autotune.json");
}
