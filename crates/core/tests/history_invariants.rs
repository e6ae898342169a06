//! Cross-solver contracts: every solver's `SolveOutcome.history` is one
//! continuous trajectory with `history.len() == iterations + 1` and
//! `history[0] == 1.0` (or `[0.0]` for a zero right-hand side), and every
//! solver leaves the trace sink span-balanced.

use qdd_core::bicgstab::{bicgstab, BiCgStabConfig};
use qdd_core::cg::{cgnr, CgConfig};
use qdd_core::fgmres_dr::{fgmres_dr, FgmresConfig, SolveOutcome};
use qdd_core::gcr::{gcr, GcrConfig};
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::richardson::{richardson_bicgstab, RichardsonConfig};
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_core::system::LocalSystem;
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_trace::{validate_balance, Phase, TraceSink};
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;

fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let g = GaugeField::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let c = build_clover_field(&g, 1.5, &basis);
    WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
}

fn check_invariants(name: &str, out: &SolveOutcome) {
    assert_eq!(
        out.history.len(),
        out.iterations + 1,
        "{name}: history length {} != iterations {} + 1",
        out.history.len(),
        out.iterations
    );
    assert_eq!(out.history[0], 1.0, "{name}: history must start at 1.0");
    assert!(
        out.history.iter().all(|h| h.is_finite() && *h >= 0.0),
        "{name}: non-finite or negative history entry"
    );
}

fn traced_stats() -> SolveStats {
    let mut stats = SolveStats::new();
    stats.attach_sink(TraceSink::enabled());
    stats
}

/// Run all solvers on the same small system and check the shared
/// contract on each outcome, with tracing enabled throughout.
#[test]
fn every_solver_upholds_the_history_contract() {
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.4, 0.3, 301);
    let op32: WilsonClover<f32> = op.cast();
    let sys = LocalSystem::new(&op);
    let mut rng = Rng64::new(302);
    let f = SpinorField::<f64>::random(dims, &mut rng);

    {
        let mut stats = traced_stats();
        let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
        let cfg = FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-8, max_iterations: 2000 };
        let (_, out) = fgmres_dr(&sys, &f, &mut ident, &cfg, &mut stats);
        assert!(out.converged);
        check_invariants("fgmres_dr", &out);
        validate_balance(&stats.sink().events()).expect("fgmres_dr spans unbalanced");
    }
    {
        let mut stats = traced_stats();
        let cfg = BiCgStabConfig { tolerance: 1e-8, max_iterations: 2000 };
        let (_, out) = bicgstab(&sys, &f, &cfg, &mut stats);
        assert!(out.converged);
        check_invariants("bicgstab", &out);
        validate_balance(&stats.sink().events()).expect("bicgstab spans unbalanced");
    }
    {
        let mut stats = traced_stats();
        let cfg = CgConfig { tolerance: 1e-7, max_iterations: 20_000 };
        let (_, out) = cgnr(&sys, &f, &cfg, &mut stats);
        assert!(out.converged);
        check_invariants("cgnr", &out);
        validate_balance(&stats.sink().events()).expect("cgnr spans unbalanced");
    }
    {
        let mut stats = traced_stats();
        let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
        let cfg = GcrConfig { restart: 12, tolerance: 1e-8, max_iterations: 2000 };
        let (_, out) = gcr(&sys, &f, &mut ident, &cfg, &mut stats);
        assert!(out.converged);
        check_invariants("gcr", &out);
        validate_balance(&stats.sink().events()).expect("gcr spans unbalanced");
    }
    {
        let mut stats = traced_stats();
        let sys32 = LocalSystem::new(&op32);
        let cfg = RichardsonConfig { tolerance: 1e-9, ..Default::default() };
        let (_, out) = richardson_bicgstab(&sys, &sys32, &f, &cfg, &mut stats);
        assert!(out.converged);
        check_invariants("richardson", &out);
        validate_balance(&stats.sink().events()).expect("richardson spans unbalanced");
    }
}

/// A zero right-hand side yields the degenerate `[0.0]` history in every
/// solver, with `iterations == 0`, and spans stay balanced on the early
/// return.
#[test]
fn zero_rhs_history_is_singleton_zero() {
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.4, 0.3, 303);
    let op32: WilsonClover<f32> = op.cast();
    let sys = LocalSystem::new(&op);
    let f = SpinorField::<f64>::zeros(dims);

    let outs: Vec<(&str, SolveOutcome, SolveStats)> = vec![
        {
            let mut stats = traced_stats();
            let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
            let (_, out) = fgmres_dr(&sys, &f, &mut ident, &FgmresConfig::default(), &mut stats);
            ("fgmres_dr", out, stats)
        },
        {
            let mut stats = traced_stats();
            let (_, out) = bicgstab(&sys, &f, &BiCgStabConfig::default(), &mut stats);
            ("bicgstab", out, stats)
        },
        {
            let mut stats = traced_stats();
            let (_, out) = cgnr(&sys, &f, &CgConfig::default(), &mut stats);
            ("cgnr", out, stats)
        },
        {
            let mut stats = traced_stats();
            let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
            let (_, out) = gcr(&sys, &f, &mut ident, &GcrConfig::default(), &mut stats);
            ("gcr", out, stats)
        },
        {
            let mut stats = traced_stats();
            let sys32 = LocalSystem::new(&op32);
            let (_, out) =
                richardson_bicgstab(&sys, &sys32, &f, &RichardsonConfig::default(), &mut stats);
            ("richardson", out, stats)
        },
    ];
    for (name, out, stats) in &outs {
        assert!(out.converged, "{name}");
        assert_eq!(out.iterations, 0, "{name}");
        assert_eq!(out.history, vec![0.0], "{name}");
        validate_balance(&stats.sink().events()).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A Schwarz-preconditioned traced solve produces the full nesting
/// Solve > ArnoldiStep > Precondition > SchwarzSweep > ColorSweep >
/// DomainSolve on the main lane and the bits of the untraced solve, and
/// the parallel preconditioner records domain solves on per-worker lanes
/// that are balanced too.
#[test]
fn schwarz_preconditioned_solve_traces_nested_phases() {
    let dims = Dims::new(8, 4, 4, 4);
    let op = operator(dims, 0.5, 0.2, 304);
    let pre = SchwarzPreconditioner::new(
        op.cast::<f32>(),
        SchwarzConfig {
            block: Dims::new(4, 2, 2, 2),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = Rng64::new(305);
    let f = SpinorField::<f64>::random(dims, &mut rng);
    let sys = LocalSystem::new(&op);

    let mut stats = traced_stats();
    stats.enable_phase_timing();
    let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
        pre.apply(&r.cast(), st).cast()
    };
    let cfg = FgmresConfig { max_basis: 16, deflate: 4, tolerance: 1e-9, max_iterations: 200 };
    let (x, out) = fgmres_dr(&sys, &f, &mut precond, &cfg, &mut stats);
    assert!(out.converged);
    check_invariants("schwarz+fgmres_dr", &out);
    assert!(stats.phase_seconds(Phase::OperatorApply) > 0.0, "phase timing inactive");

    // Telemetry never perturbs the numerics: the solve above, under the
    // full instrumentation surface (spans + phase timing), is bitwise the
    // bare one — the guarantee the serving path's observability rides on.
    let (x_bare, bare) = fgmres_dr(&sys, &f, &mut precond, &cfg, &mut SolveStats::new());
    assert_eq!(x.as_slice(), x_bare.as_slice(), "instrumented solution differs from bare solve");
    assert_eq!(out.relative_residual.to_bits(), bare.relative_residual.to_bits());
    assert_eq!(out.history, bare.history);

    let events = stats.sink().events();
    let depth = validate_balance(&events).expect("spans unbalanced");
    assert!(depth >= 6, "expected >= 6 levels of nesting, got {depth}");
    for phase in [
        Phase::Solve,
        Phase::ArnoldiStep,
        Phase::Precondition,
        Phase::SchwarzSweep,
        Phase::ColorSweep,
        Phase::DomainSolve,
        Phase::OperatorApply,
        Phase::GlobalSum,
    ] {
        assert!(events.iter().any(|e| e.phase == phase), "no {phase:?} event recorded");
    }

    // Parallel preconditioner: worker lanes carry the domain solves.
    let mut pstats = traced_stats();
    let pool = WorkerPool::new(2);
    let _ = pre.apply_parallel(&f.cast(), &pool, &mut pstats);
    let pevents = pstats.sink().events();
    validate_balance(&pevents).expect("parallel spans unbalanced");
    for tid in [1, 2] {
        assert!(
            pevents.iter().any(|e| e.tid == tid && e.phase == Phase::DomainSolve),
            "worker lane {tid} recorded no domain solves"
        );
    }
    assert!(
        pevents.iter().all(|e| e.tid != 0),
        "parallel preconditioner must not record on the main lane"
    );
}

/// The disabled sink is the default and records nothing anywhere in the
/// stack.
#[test]
fn tracing_is_off_by_default() {
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.4, 0.3, 306);
    let sys = LocalSystem::new(&op);
    let mut rng = Rng64::new(307);
    let f = SpinorField::<f64>::random(dims, &mut rng);
    let mut stats = SolveStats::new();
    let (_, out) = bicgstab(&sys, &f, &BiCgStabConfig::default(), &mut stats);
    assert!(out.converged);
    assert!(!stats.sink().is_enabled());
    assert!(stats.sink().events().is_empty());
}
