//! Data-analysis scenario (paper Sec. IV-C3): compute a point-to-all quark
//! propagator — twelve Dirac solves, one per source spin-color — and
//! contract it into a pion correlator `C(t)`.
//!
//! This is exactly the workload for which the paper optimizes
//! KNC-minutes-per-solve: propagators dominate the analysis phase of a
//! lattice computation. The correlator must decay exponentially in t
//! (a positive effective mass), which is a physics-level validation that
//! the whole solver stack produces a genuine Dirac-operator inverse.
//!
//! Run: `cargo run --example propagator --release`

use lattice_qcd_dd::prelude::*;

fn main() {
    let dims = Dims::new(8, 8, 8, 16);
    let mut rng = Rng64::new(42);

    println!("generating synthetic configuration on {dims} ...");
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.35);
    println!("  average plaquette: {:.4}", average_plaquette(&gauge));
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.3, &basis);
    let op = WilsonClover::new(gauge, clover, 0.35, BoundaryPhases::antiperiodic_t());

    let config = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-9, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        workers: 4,
        ..Default::default()
    };
    let solver = DdSolver::new(op, config).expect("solver setup");
    let indexer = solver.op().indexer();
    let src_site = indexer.index(&Coord::new(0, 0, 0, 0));

    // Twelve solves: one per (spin, color) of the point source.
    println!("computing point propagator: 12 solves ...");
    let mut propagator: Vec<SpinorField<f64>> = Vec::with_capacity(12);
    let mut total_iters = 0;
    for s in 0..4 {
        for c in 0..3 {
            let mut b = SpinorField::<f64>::zeros(dims);
            b.site_mut(src_site).0[s].0[c] = Complex::ONE;
            let mut stats = SolveStats::new();
            let (x, out) = solver.solve(&b, &mut stats);
            assert!(out.converged, "source ({s},{c}) failed: {}", out.relative_residual);
            total_iters += out.iterations;
            println!(
                "  source (spin {s}, color {c}): {} iterations, residual {:.1e}",
                out.iterations, out.relative_residual
            );
            propagator.push(x);
        }
    }
    println!("average outer iterations per solve: {:.1}", total_iters as f64 / 12.0);

    // Pion correlator: C(t) = sum_{x,t fixed} sum_{s,c,s',c'} |S(x; s c <- s' c')|^2.
    // (gamma5-hermiticity makes the pion contraction a plain square sum.)
    let lt = dims[Dir::T];
    let mut corr = vec![0.0f64; lt];
    for src in &propagator {
        for site in 0..dims.volume() {
            let t = indexer.coord(site)[Dir::T];
            corr[t] += src.site(site).norm_sqr();
        }
    }

    println!("\npion correlator and effective mass:");
    println!("{:>3} {:>14} {:>10}", "t", "C(t)", "m_eff(t)");
    for t in 0..lt / 2 {
        let meff =
            if t + 1 < lt && corr[t + 1] > 0.0 { (corr[t] / corr[t + 1]).ln() } else { f64::NAN };
        println!("{:>3} {:>14.6e} {:>10.4}", t, corr[t], meff);
    }

    // Physics sanity: the correlator decays away from the source.
    assert!(corr[1] > corr[3] && corr[3] > corr[5], "correlator must decay");
    println!("\ncorrelator decays monotonically away from the source: OK");
}
