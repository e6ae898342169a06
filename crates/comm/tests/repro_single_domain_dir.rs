//! Repro: DistSchwarz with a direction having exactly ONE global domain
//! (block spans the full global extent of an unsplit direction).

use qdd_comm::{
    gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge, CommWorld, DistSchwarz,
};
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::{Dims, RankGrid};
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;

#[test]
fn dist_schwarz_single_domain_direction() {
    let global_dims = Dims::new(8, 8, 8, 8);
    // 2 ranks in t; block 8x4x4x4 -> x direction has ONE global domain.
    let rank_dims = Dims::new(1, 1, 1, 2);
    let block = Dims::new(8, 4, 4, 4);
    let cfg = SchwarzConfig {
        block,
        i_schwarz: 2,
        mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
        ..Default::default()
    };
    let grid = RankGrid::new(global_dims, rank_dims);
    let mut rng = Rng64::new(31);
    let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.6);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let phases = BoundaryPhases::antiperiodic_t();
    let f = SpinorField::<f64>::random(global_dims, &mut rng);

    // Serial reference.
    let pre = SchwarzPreconditioner::new(
        WilsonClover::new(gauge.clone(), clover.clone(), 0.2, phases),
        cfg,
    )
    .unwrap();
    let mut st = SolveStats::new();
    let expect = pre.apply(&f, &mut st);

    let local_gauge = scatter_gauge(&gauge, &grid);
    let local_clover = scatter_clover(&clover, &grid);
    let f_local = scatter_field(&f, &grid);
    let world = CommWorld::new(grid.clone());
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let op = WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
        let pre = DistSchwarz::new(ctx, &op, cfg).unwrap();
        let mut stats = SolveStats::new();
        pre.apply(&f_local[r], &mut stats)
    });
    let got = gather_field(&results, &grid);
    let mut diff = got.clone();
    diff.sub_assign(&expect);
    let rel = diff.norm() / expect.norm();
    assert!(rel < 1e-14, "distributed Schwarz diverged from serial: rel {rel}");
}
