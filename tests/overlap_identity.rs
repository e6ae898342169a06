//! Bitwise-identity property sweep for the one Schwarz sweep engine: the
//! worker count, the rank geometry and the Fig. 4 overlapped schedule may
//! change only *who computes what when* and *when data moves*, never any
//! arithmetic. Every row must reproduce the serial reference
//! `SchwarzPreconditioner::apply` bit for bit:
//!
//! - the pool engine on one rank (`apply_parallel`) at 1/2/4 workers;
//! - `DistSchwarz` on a 1x1x1x1 world — the literal "empty halo" case —
//!   and on three split geometries, each at 1/2/4 workers, overlap on/off;
//! - an odd domain grid at 1 worker, where the two-coloring does not close
//!   and only the one-worker engine may run.
//!
//! One `#[test]` function on purpose: `QDD_WORKERS` is process-global
//! state, so the sweep must run serially.

use qdd_comm::dist_schwarz::DistSchwarz;
use qdd_comm::runtime::{run_spmd, CommWorld};
use qdd_comm::scatter::{gather_field, scatter_clover, scatter_field, scatter_gauge};
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{CloverField, GaugeField, SpinorField};
use qdd_lattice::{Dims, RankGrid};
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;

const MASS: f64 = 0.2;

fn problem(dims: Dims, seed: u64) -> (GaugeField<f64>, CloverField<f64>, SpinorField<f64>) {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.6);
    let clover = build_clover_field(&gauge, 1.5, &GammaBasis::degrand_rossi());
    let f = SpinorField::<f64>::random(dims, &mut rng);
    (gauge, clover, f)
}

fn cfg(block: Dims, overlap: bool) -> SchwarzConfig {
    SchwarzConfig {
        block,
        i_schwarz: 2,
        mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
        overlap,
        ..Default::default()
    }
}

#[test]
fn overlap_workers_and_geometry_never_change_the_bits() {
    let global_dims = Dims::new(8, 8, 8, 8);
    let block = Dims::new(4, 4, 4, 4);
    let phases = BoundaryPhases::antiperiodic_t();
    let (gauge, clover, f) = problem(global_dims, 41);

    // Serial reference, computed once. Nothing is split on one rank, so
    // `overlap` has nothing to reorder there.
    let pre = SchwarzPreconditioner::new(
        WilsonClover::new(gauge.clone(), clover.clone(), MASS, phases),
        cfg(block, true),
    )
    .unwrap();
    let expect = pre.apply(&f, &mut SolveStats::new());

    // The engine with the unit boundary.
    for workers in [1usize, 2, 4] {
        let got = pre.apply_parallel(&f, &WorkerPool::new(workers), &mut SolveStats::new());
        assert_eq!(
            got.as_slice(),
            expect.as_slice(),
            "bits changed: pool engine, {workers} workers"
        );
    }

    // The engine with a rank boundary, from no neighbor at all to 16 ranks.
    let saved = std::env::var("QDD_WORKERS").ok();
    for rank_dims in
        [Dims::new(1, 1, 1, 1), Dims::new(1, 1, 1, 2), Dims::new(2, 2, 1, 1), Dims::new(2, 2, 2, 2)]
    {
        let grid = RankGrid::new(global_dims, rank_dims);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);
        for workers in [1usize, 2, 4] {
            std::env::set_var("QDD_WORKERS", workers.to_string());
            for overlap in [true, false] {
                let world = CommWorld::new(grid.clone());
                let locals = run_spmd(&world, |ctx| {
                    let r = ctx.rank();
                    let op = WilsonClover::new(
                        local_gauge[r].clone(),
                        local_clover[r].clone(),
                        MASS,
                        phases,
                    );
                    let pre = DistSchwarz::new(ctx, &op, cfg(block, overlap)).unwrap();
                    pre.apply(&f_local[r], &mut SolveStats::new())
                });
                let got = gather_field(&locals, &grid);
                assert_eq!(
                    got.as_slice(),
                    expect.as_slice(),
                    "bits changed: ranks {rank_dims}, workers {workers}, overlap {overlap}"
                );
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("QDD_WORKERS", v),
        None => std::env::remove_var("QDD_WORKERS"),
    }

    // Three domains in x: the checkerboard wraps onto itself, more than
    // one worker would race (and is refused), one worker is the reference.
    let odd_dims = Dims::new(12, 8, 4, 4);
    let (gauge, clover, f) = problem(odd_dims, 43);
    let pre = SchwarzPreconditioner::new(
        WilsonClover::new(gauge, clover, MASS, phases),
        cfg(Dims::new(4, 4, 2, 2), true),
    )
    .unwrap();
    let expect = pre.apply(&f, &mut SolveStats::new());
    let got = pre.apply_parallel(&f, &WorkerPool::new(1), &mut SolveStats::new());
    assert_eq!(got.as_slice(), expect.as_slice(), "bits changed: odd domain grid, 1 worker");
}
