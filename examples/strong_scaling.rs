//! Data-generation scenario (paper Sec. IV-C2): strong-scale one solve
//! over 1, 2, 4, and 8 simulated ranks and watch the communication
//! bookkeeping — the miniature version of the paper's Fig. 6 measurement,
//! run with the *real* distributed solver (threads as ranks, real halo
//! traffic, deterministic collectives).
//!
//! Run: `cargo run --example strong_scaling --release`

use lattice_qcd_dd::comm::{
    dd_solve_distributed, run_spmd, scatter_clover, scatter_field, scatter_gauge, CommWorld,
    DistDdConfig,
};
use lattice_qcd_dd::prelude::*;
use qdd_util::stats::Component;
use std::time::Instant;

fn main() {
    let dims = Dims::new(16, 8, 8, 16);
    let mut rng = Rng64::new(11);
    println!("global lattice {dims}, synthetic configuration ...");
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.4, &basis);
    let phases = BoundaryPhases::antiperiodic_t();
    let b = SpinorField::<f64>::random(dims, &mut rng);

    let cfg = DistDdConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-9, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };

    println!(
        "\n{:>6} {:>10} {:>8} {:>14} {:>14} {:>10}",
        "ranks", "layout", "iters", "M comm MB/rk", "A comm MB/rk", "time [s]"
    );
    for layout in
        [Dims::new(1, 1, 1, 1), Dims::new(1, 1, 1, 2), Dims::new(2, 1, 1, 2), Dims::new(2, 2, 1, 2)]
    {
        let grid = RankGrid::new(dims, layout);
        let lg = scatter_gauge(&gauge, &grid);
        let lc = scatter_clover(&clover, &grid);
        let lb = scatter_field(&b, &grid);
        let world = CommWorld::new(grid.clone());
        let start = Instant::now();
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.15, phases);
            let mut stats = SolveStats::new();
            let (_, out, _) = dd_solve_distributed(ctx, &op, &lb[r], &cfg, &mut stats);
            assert!(out.converged, "rank {r} did not converge");
            (out.iterations, stats)
        });
        let secs = start.elapsed().as_secs_f64();
        let (iters, stats) = &results[0];
        println!(
            "{:>6} {:>10} {:>8} {:>14.2} {:>14.2} {:>10.2}",
            grid.num_ranks(),
            format!("{layout}"),
            iters,
            stats.comm_bytes(Component::PreconditionerM) / 1e6,
            stats.comm_bytes(Component::OperatorA) / 1e6,
            secs
        );
    }
    println!("\nNotes: iteration counts are rank-count independent (deterministic");
    println!("collectives). Per-rank traffic follows the local surface area, and the");
    println!("M/A traffic ratio ~ ISchwarz/2 shows the DD communication pattern.");
    println!("Wall-clock speedup appears on multi-core hosts (ranks are threads);");
    println!("on a single-core machine the ranks time-slice and the time stays flat.");
}
