//! The full lattice-QCD campaign in miniature — both of the paper's use
//! cases in one pipeline (Sec. IV-C):
//!
//! 1. **data generation**: a quenched HMC Markov chain produces a
//!    thermalized gauge ensemble (the inherently serial part whose
//!    strong-scaling limit the DD solver extends);
//! 2. **data analysis**: on each saved configuration, the DD solver
//!    computes a propagator-style solve (the embarrassingly parallel part
//!    whose KNC-minutes cost Fig. 7 optimizes).
//!
//! Run: `cargo run --example ensemble --release`

use lattice_qcd_dd::prelude::*;
use qdd_hmc::{Hmc, HmcConfig, LeapfrogConfig};

fn main() {
    let dims = Dims::new(4, 4, 4, 8);
    let beta = 5.9;

    // --- Phase 1: generate the ensemble -------------------------------
    println!("phase 1: quenched HMC at beta = {beta} on {dims}");
    let cfg = HmcConfig { beta, leapfrog: LeapfrogConfig { steps: 60, length: 0.5 } };
    let mut hmc = Hmc::cold_start(dims, cfg, 12345);
    println!("thermalizing (15 trajectories) ...");
    hmc.run(15);
    println!(
        "  acceptance {:.0}%, <exp(-dH)> = {:.3} (must be ~1), plaquette {:.4}",
        100.0 * hmc.stats.acceptance(),
        hmc.stats.creutz(),
        hmc.stats.plaquette.last().unwrap()
    );

    let n_configs = 3;
    let separation = 4;
    let mut ensemble = Vec::new();
    println!("sampling {n_configs} configurations ({separation} trajectories apart) ...");
    for i in 0..n_configs {
        hmc.run(separation);
        println!("  config {i}: plaquette {:.4}", hmc.stats.plaquette.last().unwrap());
        ensemble.push(hmc.gauge.clone());
    }

    // --- Phase 2: measure on each configuration -----------------------
    println!("\nphase 2: DD solves on each configuration");
    let solver_cfg = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-9, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 2, 2, 2),
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };
    let basis = GammaBasis::degrand_rossi();
    let mut rng = Rng64::new(999);
    let b = SpinorField::<f64>::random(dims, &mut rng);

    let mut results = Vec::new();
    for (i, gauge) in ensemble.into_iter().enumerate() {
        let clover = build_clover_field(&gauge, 1.5, &basis);
        let op = WilsonClover::new(gauge, clover, 0.3, BoundaryPhases::antiperiodic_t());
        let solver = DdSolver::new(op, solver_cfg).expect("invertible clover blocks");
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve(&b, &mut stats);
        assert!(out.converged);
        let norm = x.norm();
        println!(
            "  config {i}: {} outer iterations, residual {:.1e}, |x| = {:.4}",
            out.iterations, out.relative_residual, norm
        );
        results.push(norm);
    }

    // Configurations differ, so the observables fluctuate gauge by gauge —
    // that fluctuation IS the Monte Carlo signal.
    let mean = results.iter().sum::<f64>() / results.len() as f64;
    let var = results.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / results.len() as f64;
    println!("\nobservable |x| over the ensemble: mean {:.4}, stddev {:.4}", mean, var.sqrt());
    println!("pipeline complete: generation (HMC) + analysis (DD solves).");
}
