//! The parallel fused outer hot path must be *deterministic in the worker
//! count*: the fused operator partitions tiles and the blocked BLAS
//! partitions reduction blocks, but neither partitioning may change a
//! single bit of the answer. This is the invariant behind `qdd-serve`'s
//! reproducible answers and the paper's bitwise-reproducible solves.

use qdd_core::dd_solver::{preconditioner_operator, DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::{fgmres_dr, FgmresConfig};
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_core::system::LocalSystem;
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::fused_full::build_full_operator;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;

fn operator(dims: Dims, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let g = GaugeField::random(dims, &mut rng, 0.5);
    let basis = GammaBasis::degrand_rossi();
    let c = build_clover_field(&g, 1.5, &basis);
    WilsonClover::new(g, c, 0.2, BoundaryPhases::antiperiodic_t())
}

fn config(workers: usize) -> DdSolverConfig {
    DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-10, max_iterations: 400 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 2, 2),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        workers,
        ..Default::default()
    }
}

fn assert_bits_equal(a: &SpinorField<f64>, b: &SpinorField<f64>, what: &str) {
    for (s, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        for k in 0..12 {
            assert_eq!(
                x.component(k).re.to_bits(),
                y.component(k).re.to_bits(),
                "{what}: site {s} comp {k} re"
            );
            assert_eq!(
                x.component(k).im.to_bits(),
                y.component(k).im.to_bits(),
                "{what}: site {s} comp {k} im"
            );
        }
    }
}

/// The fused full-lattice apply is bitwise independent of how many
/// workers the pool splits the tiles over.
#[test]
fn fused_apply_bitwise_independent_of_workers() {
    let dims = Dims::new(8, 8, 4, 4);
    let op = operator(dims, 41);
    let fused = build_full_operator::<f64>(&op).expect("even extents");
    let mut rng = Rng64::new(42);
    let inp = SpinorField::<f64>::random(dims, &mut rng);

    let pool1 = WorkerPool::new(1);
    let mut reference = SpinorField::zeros(dims);
    fused.apply(&mut reference, &inp, &pool1);

    for workers in [2, 3, 8] {
        let pool = WorkerPool::new(workers);
        let mut out = SpinorField::zeros(dims);
        fused.apply(&mut out, &inp, &pool);
        assert_bits_equal(&out, &reference, &format!("apply w={workers}"));
    }
}

/// Full outer solves — fused operator, blocked reductions, parallel
/// Schwarz — return bitwise-identical solutions AND residual histories
/// for workers 1, 2, 3, 8.
#[test]
fn outer_solve_bitwise_identical_across_worker_counts() {
    let dims = Dims::new(8, 8, 4, 4);
    let mut rng = Rng64::new(43);
    let f = SpinorField::<f64>::random(dims, &mut rng);

    let reference = DdSolver::new(operator(dims, 44), config(1)).unwrap();
    let mut st = SolveStats::new();
    let (x_ref, out_ref) = reference.solve(&f, &mut st);
    assert!(out_ref.converged, "residual {}", out_ref.relative_residual);

    for workers in [2, 3, 8] {
        let solver = DdSolver::new(operator(dims, 44), config(workers)).unwrap();
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve(&f, &mut stats);
        assert_eq!(out.iterations, out_ref.iterations, "w={workers}");
        let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.history), bits(&out_ref.history), "history w={workers}");
        assert_bits_equal(&x, &x_ref, &format!("solution w={workers}"));
    }
}

/// Same bitwise guarantee for the mixed-precision outer loop, whose inner
/// f32 solves also run the fused operator and blocked BLAS.
#[test]
fn mixed_precision_solve_bitwise_identical_across_worker_counts() {
    let dims = Dims::new(8, 4, 4, 4);
    let mut rng = Rng64::new(45);
    let f = SpinorField::<f64>::random(dims, &mut rng);
    let mut cfg = config(1);
    cfg.schwarz.block = Dims::new(4, 2, 2, 2);

    let reference = DdSolver::new(operator(dims, 46), cfg).unwrap();
    let mut st = SolveStats::new();
    let (x_ref, out_ref) = reference.solve_mixed(&f, 1e-4, &mut st);
    assert!(out_ref.converged);

    for workers in [2, 3] {
        let mut c = cfg;
        c.workers = workers;
        let solver = DdSolver::new(operator(dims, 46), c).unwrap();
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve_mixed(&f, 1e-4, &mut stats);
        assert_eq!(out.iterations, out_ref.iterations, "w={workers}");
        assert_bits_equal(&x, &x_ref, &format!("mixed solution w={workers}"));
    }
}

/// The f16-storage hot path (HalfCompressed preconditioner constants
/// streamed as genuine f16, plus L2 tile blocking and software prefetch)
/// is bitwise deterministic in the worker count, and bitwise identical to
/// the untuned HalfCompressed run: storage compression of pre-rounded
/// constants is lossless, and blocking/prefetch only reorder or hint.
#[test]
fn f16_storage_solve_bitwise_identical_across_workers_and_tuning() {
    use qdd_dirac::fused_full::SwPrefetch;
    let dims = Dims::new(8, 4, 4, 4);
    let mut rng = Rng64::new(51);
    let f = SpinorField::<f64>::random(dims, &mut rng);
    let mut cfg = config(1);
    cfg.schwarz.block = Dims::new(4, 2, 2, 2);
    cfg.precision = Precision::HalfCompressed;

    let reference = DdSolver::new(operator(dims, 52), cfg).unwrap();
    let mut st = SolveStats::new();
    let (x_ref, out_ref) = reference.solve_mixed(&f, 1e-4, &mut st);
    assert!(out_ref.converged, "residual {}", out_ref.relative_residual);

    for workers in [1usize, 2, 4] {
        let mut c = cfg;
        c.workers = workers;
        c.prefetch = SwPrefetch::L1L2;
        c.l2_bytes = Some(1 << 15); // tight budget: forces real z-blocking
        let solver = DdSolver::new(operator(dims, 52), c).unwrap();
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve_mixed(&f, 1e-4, &mut stats);
        assert_eq!(out.iterations, out_ref.iterations, "w={workers}");
        assert_bits_equal(&x, &x_ref, &format!("f16-storage solution w={workers}"));
    }
}

/// The scalar oracle — `fgmres_dr` over `LocalSystem` (site-loop operator,
/// plain left-to-right sums) with the same Schwarz preconditioner —
/// converges to the solver's solution (not bitwise: the summation orders
/// differ), cross-checking the fused path end to end.
#[test]
fn scalar_outer_baseline_agrees_with_fused() {
    let dims = Dims::new(8, 4, 4, 4);
    let mut rng = Rng64::new(47);
    let f = SpinorField::<f64>::random(dims, &mut rng);
    let mut cfg = config(1);
    cfg.schwarz.block = Dims::new(4, 2, 2, 2);

    let fused = DdSolver::new(operator(dims, 48), cfg).unwrap();
    let mut s1 = SolveStats::new();
    let (x_f, out_f) = fused.solve(&f, &mut s1);

    let op = operator(dims, 48);
    let pre = SchwarzPreconditioner::new(preconditioner_operator(&op, cfg.precision), cfg.schwarz)
        .unwrap();
    let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
        pre.apply(&r.cast(), st).cast()
    };
    let mut s2 = SolveStats::new();
    let (x_s, out_s) = fgmres_dr(&LocalSystem::new(&op), &f, &mut precond, &cfg.fgmres, &mut s2);
    assert!(out_f.converged && out_s.converged);
    let mut d = x_f.clone();
    d.sub_assign(&x_s);
    assert!(d.norm() < 1e-8 * x_s.norm(), "rel diff {}", d.norm() / x_s.norm());
}

/// Steady state allocates nothing: after the first solve warms the
/// workspace pool, repeated solves reuse every temporary field.
#[test]
fn outer_workspace_reused_across_repeated_solves() {
    let dims = Dims::new(8, 4, 4, 4);
    let mut cfg = config(1);
    cfg.schwarz.block = Dims::new(4, 2, 2, 2);
    let solver = DdSolver::new(operator(dims, 49), cfg).unwrap();
    let mut rng = Rng64::new(50);
    let f = SpinorField::<f64>::random(dims, &mut rng);

    let mut stats = SolveStats::new();
    let _ = solver.solve(&f, &mut stats);
    let warm = solver.outer_workspace_allocations();
    assert!(warm > 0, "outer solver must draw temporaries from the pool");
    for _ in 0..3 {
        let _ = solver.solve(&f, &mut stats);
    }
    assert_eq!(
        solver.outer_workspace_allocations(),
        warm,
        "steady-state solves must not allocate new workspaces"
    );
}
