//! Algorithmic comparison of the full solver family on one problem —
//! the content of the paper's Sec. II-C/II-D argument, measured with the
//! real implementations: the DD solver needs far fewer outer iterations
//! and global sums than the Krylov baselines, which is exactly what makes
//! it strong-scale.
//!
//! Run: `cargo run --example solver_comparison --release`

use lattice_qcd_dd::prelude::*;
use std::time::Instant;

fn op(dims: Dims, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.4, &basis);
    WilsonClover::new(gauge, clover, 0.08, BoundaryPhases::antiperiodic_t())
}

fn main() {
    let dims = Dims::new(8, 8, 8, 8);
    let tol = 1e-9;
    let mut rng = Rng64::new(91);
    let b = SpinorField::<f64>::random(dims, &mut rng);

    println!("solver comparison on {dims}, synthetic configuration, target {tol:.0e}\n");
    println!(
        "{:>22} {:>9} {:>9} {:>12} {:>12} {:>10}",
        "solver", "iters", "gsums", "A-apps", "resid", "time [s]"
    );

    let report = |name: &str, iters: usize, stats: &SolveStats, resid: f64, secs: f64| {
        println!(
            "{:>22} {:>9} {:>9} {:>12} {:>12.1e} {:>10.2}",
            name,
            iters,
            stats.global_sums(),
            stats.operator_applications(),
            resid,
            secs
        );
    };

    // DD: FGMRES-DR + multiplicative Schwarz.
    {
        let cfg = DdSolverConfig {
            fgmres: FgmresConfig { max_basis: 12, deflate: 6, tolerance: tol, max_iterations: 400 },
            schwarz: SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 6,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = DdSolver::new(op(dims, 90), cfg).unwrap();
        let mut stats = SolveStats::new();
        let t = Instant::now();
        let (_, out) = solver.solve(&b, &mut stats);
        assert!(out.converged);
        report(
            "DD (FGMRES-DR+SAP)",
            out.iterations,
            &stats,
            out.relative_residual,
            t.elapsed().as_secs_f64(),
        );
    }

    let operator = op(dims, 90);
    let sys = LocalSystem::new(&operator);

    // Lüscher's combination: SAP-preconditioned flexible GCR (Sec. V).
    {
        let pre = SchwarzPreconditioner::new(
            op(dims, 90).cast::<f32>(),
            SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 6,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
        )
        .unwrap();
        let mut stats = SolveStats::new();
        let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
            pre.apply(&r.cast(), st).cast()
        };
        let t = Instant::now();
        let (_, out) = gcr(
            &sys,
            &b,
            &mut precond,
            &GcrConfig { restart: 12, tolerance: tol, max_iterations: 400 },
            &mut stats,
        );
        assert!(out.converged);
        report(
            "GCR+SAP (Luscher)",
            out.iterations,
            &stats,
            out.relative_residual,
            t.elapsed().as_secs_f64(),
        );
    }

    // Unpreconditioned FGMRES-DR.
    {
        let cfg = FgmresConfig { max_basis: 16, deflate: 8, tolerance: tol, max_iterations: 4000 };
        let mut stats = SolveStats::new();
        let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
        let t = Instant::now();
        let (_, out) = fgmres_dr(&sys, &b, &mut ident, &cfg, &mut stats);
        assert!(out.converged);
        report(
            "GMRES-DR(16,8)",
            out.iterations,
            &stats,
            out.relative_residual,
            t.elapsed().as_secs_f64(),
        );
    }

    // BiCGstab (double).
    {
        let mut stats = SolveStats::new();
        let t = Instant::now();
        let (_, out) = bicgstab(
            &sys,
            &b,
            &BiCgStabConfig { tolerance: tol, max_iterations: 50_000 },
            &mut stats,
        );
        assert!(out.converged);
        report(
            "BiCGstab (f64)",
            out.iterations,
            &stats,
            out.relative_residual,
            t.elapsed().as_secs_f64(),
        );
    }

    // Mixed-precision Richardson/BiCGstab.
    {
        let op32: WilsonClover<f32> = operator.cast();
        let sys32 = LocalSystem::new(&op32);
        let mut stats = SolveStats::new();
        let t = Instant::now();
        let (_, out) = richardson_bicgstab(
            &sys,
            &sys32,
            &b,
            &RichardsonConfig { tolerance: tol, ..Default::default() },
            &mut stats,
        );
        assert!(out.converged);
        report(
            "Richardson mixed",
            out.iterations,
            &stats,
            out.relative_residual,
            t.elapsed().as_secs_f64(),
        );
    }

    // CGNR — the "CG on normal equations" strawman.
    {
        let mut stats = SolveStats::new();
        let t = Instant::now();
        let (_, out) =
            cgnr(&sys, &b, &CgConfig { tolerance: tol, max_iterations: 100_000 }, &mut stats);
        assert!(out.converged);
        report("CGNR", out.iterations, &stats, out.relative_residual, t.elapsed().as_secs_f64());
    }

    println!("\nThe DD row shows the paper's headline pattern: an order of magnitude");
    println!("fewer outer iterations and global sums than any Krylov baseline, at the");
    println!("price of (cache-resident, communication-free) block solves inside M.");
}
