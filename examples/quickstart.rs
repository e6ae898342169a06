//! Quickstart: assemble a Wilson-Clover operator on a synthetic gauge
//! configuration and solve `A x = b` with the paper's DD solver —
//! FGMRES-DR outer, multiplicative Schwarz preconditioner inner.
//!
//! Run: `cargo run --example quickstart --release`

use lattice_qcd_dd::prelude::*;

fn main() {
    // A 16x8x8x8 lattice with 4^4 Schwarz domains (the paper uses 8x4^3
    // domains on production volumes; everything here is scaled down to
    // laptop size).
    let dims = Dims::new(16, 8, 8, 8);
    let mut rng = Rng64::new(7);

    println!("building synthetic gauge configuration on {dims} ...");
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.5);
    println!("  average plaquette: {:.4}", average_plaquette(&gauge));

    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let op = WilsonClover::new(gauge, clover, 0.1, BoundaryPhases::antiperiodic_t());

    let config = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 12, deflate: 4, tolerance: 1e-10, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 6,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        workers: 4,
        ..Default::default()
    };
    let solver = DdSolver::new(op, config).expect("clover blocks invertible");

    let b = SpinorField::<f64>::random(dims, &mut rng);
    println!("solving A x = b to 1e-10 (outer f64, preconditioner f32) ...");
    let mut stats = SolveStats::new();
    let (x, outcome) = solver.solve(&b, &mut stats);

    println!(
        "\nconverged: {} in {} outer iterations ({} restart cycles)",
        outcome.converged, outcome.iterations, outcome.cycles
    );
    println!("true relative residual: {:.2e}", outcome.relative_residual);
    println!("\n{stats}");
    let fr = stats.flop_fractions();
    println!(
        "\nflop split: A {:.0}%  M {:.0}%  GS {:.0}%  other {:.0}%  (paper: M dominates at 80-90%)",
        100.0 * fr[0],
        100.0 * fr[1],
        100.0 * fr[2],
        100.0 * fr[3]
    );

    // Verify independently.
    let mut ax = SpinorField::zeros(dims);
    solver.op().apply(&mut ax, &x);
    let mut r = b.clone();
    r.sub_assign(&ax);
    println!("independent residual check: {:.2e}", r.norm() / b.norm());
}
