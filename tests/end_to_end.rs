//! Cross-crate end-to-end tests: the full solver pipeline on problems big
//! enough to exercise every subsystem together (geometry, fields, clover
//! construction, Schur blocks, Schwarz sweeps, FGMRES-DR, precision
//! mixing, threading).

use lattice_qcd_dd::prelude::*;

fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

fn dd_config(block: Dims) -> DdSolverConfig {
    DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-10, max_iterations: 400 },
        schwarz: SchwarzConfig {
            block,
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn dd_recovers_manufactured_solution() {
    let dims = Dims::new(8, 8, 8, 8);
    let op = operator(dims, 0.5, 0.15, 1001);
    let mut rng = Rng64::new(1002);
    let x_true = SpinorField::<f64>::random(dims, &mut rng);
    let mut b = SpinorField::zeros(dims);
    op.apply(&mut b, &x_true);

    let solver =
        DdSolver::new(operator(dims, 0.5, 0.15, 1001), dd_config(Dims::new(4, 4, 4, 4))).unwrap();
    let mut stats = SolveStats::new();
    let (x, out) = solver.solve(&b, &mut stats);
    assert!(out.converged);
    let mut d = x.clone();
    d.sub_assign(&x_true);
    let rel = d.norm() / x_true.norm();
    assert!(rel < 1e-8, "solution error {rel}");
}

#[test]
fn all_solvers_agree_on_the_same_problem() {
    let dims = Dims::new(8, 4, 4, 8);
    let op = operator(dims, 0.4, 0.2, 1003);
    let mut rng = Rng64::new(1004);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let sys = LocalSystem::new(&op);

    let mut stats = SolveStats::new();
    let (x_bi, out_bi) = bicgstab(
        &sys,
        &b,
        &BiCgStabConfig { tolerance: 1e-10, max_iterations: 20_000 },
        &mut stats,
    );
    assert!(out_bi.converged);

    let solver =
        DdSolver::new(operator(dims, 0.4, 0.2, 1003), dd_config(Dims::new(4, 4, 2, 4))).unwrap();
    let (x_dd, out_dd) = solver.solve(&b, &mut stats);
    assert!(out_dd.converged);

    let (x_cg, out_cg) =
        cgnr(&sys, &b, &CgConfig { tolerance: 1e-9, max_iterations: 100_000 }, &mut stats);
    assert!(out_cg.converged);

    let mut d = x_dd.clone();
    d.sub_assign(&x_bi);
    assert!(d.norm() / x_bi.norm() < 1e-7, "DD vs BiCGstab: {}", d.norm() / x_bi.norm());
    let mut d = x_cg.clone();
    d.sub_assign(&x_bi);
    assert!(d.norm() / x_bi.norm() < 1e-6, "CGNR vs BiCGstab: {}", d.norm() / x_bi.norm());
}

#[test]
fn multi_worker_solve_is_deterministic_and_correct() {
    let dims = Dims::new(8, 8, 4, 8);
    let mut rng = Rng64::new(1005);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let mut cfg = dd_config(Dims::new(4, 4, 2, 4));
    let s1 = DdSolver::new(operator(dims, 0.5, 0.2, 1006), cfg).unwrap();
    cfg.workers = 3;
    let s3 = DdSolver::new(operator(dims, 0.5, 0.2, 1006), cfg).unwrap();
    let mut st1 = SolveStats::new();
    let mut st3 = SolveStats::new();
    let (x1, o1) = s1.solve(&b, &mut st1);
    let (x3, o3) = s3.solve(&b, &mut st3);
    assert_eq!(o1.iterations, o3.iterations);
    assert_eq!(x1.as_slice(), x3.as_slice(), "threading changed the arithmetic");
}

#[test]
fn half_precision_preconditioner_full_pipeline() {
    let dims = Dims::new(8, 8, 4, 4);
    let mut rng = Rng64::new(1007);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let mut cfg = dd_config(Dims::new(4, 4, 2, 2));
    cfg.precision = Precision::HalfCompressed;
    let solver = DdSolver::new(operator(dims, 0.5, 0.2, 1008), cfg).unwrap();
    let mut stats = SolveStats::new();
    let (x, out) = solver.solve(&b, &mut stats);
    assert!(out.converged, "residual {}", out.relative_residual);
    // Final accuracy is still the double-precision target: the f16
    // storage only lives inside the preconditioner.
    assert!(out.relative_residual < 1e-9);
    assert!(x.norm() > 0.0);
}

#[test]
fn free_field_solve_matches_analytic_eigenvalue() {
    // U = 1, constant source: A^-1 b = b / m for the constant mode.
    let dims = Dims::new(8, 4, 4, 4);
    let gauge = GaugeField::<f64>::identity(dims);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.0, &basis);
    let mass = 0.5;
    let op = WilsonClover::new(gauge, clover, mass, BoundaryPhases::periodic());
    let mut rng = Rng64::new(1009);
    let s0 = Spinor::<f64>::random(&mut rng);
    let b = SpinorField::from_fn(dims, |_| s0);
    let sys = LocalSystem::new(&op);
    let mut stats = SolveStats::new();
    let (x, out) =
        bicgstab(&sys, &b, &BiCgStabConfig { tolerance: 1e-12, max_iterations: 100 }, &mut stats);
    assert!(out.converged);
    for site in 0..dims.volume() {
        let expect = s0.scale(1.0 / mass);
        let d = x.site(site).sub(expect);
        assert!(d.norm_sqr() < 1e-18, "site {site}");
    }
}

#[test]
fn stats_ledger_is_consistent_across_pipeline() {
    let dims = Dims::new(8, 4, 4, 8);
    let mut rng = Rng64::new(1010);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let solver =
        DdSolver::new(operator(dims, 0.4, 0.3, 1011), dd_config(Dims::new(4, 4, 2, 4))).unwrap();
    let mut stats = SolveStats::new();
    let (_, out) = solver.solve(&b, &mut stats);
    assert!(out.converged);
    // Operator applications: one per outer iteration plus the final true
    // residual (and possibly restarts).
    let apps = stats.operator_applications();
    assert!(apps as usize >= out.iterations);
    assert!((apps as usize) <= out.iterations + out.cycles + 2);
    // Global sums: ~2 per iteration (batched CGS).
    let per_iter = stats.global_sums() as f64 / out.iterations.max(1) as f64;
    assert!((1.5..3.5).contains(&per_iter), "sums/iter {per_iter}");
    // The preconditioner dominates the flop budget.
    assert!(stats.flop_fractions()[1] > 0.6);
}
