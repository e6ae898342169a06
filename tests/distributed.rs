//! Integration tests of the simulated multi-node pipeline: distributed
//! runs must reproduce single-rank ground truth, and the communication
//! ledger must behave like the paper says it does.

use lattice_qcd_dd::comm::{
    dd_solve_distributed, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig, DistSystem,
};
use lattice_qcd_dd::prelude::*;
use lattice_qcd_dd::trace::{chrome_trace, phase_totals, validate_balance, Phase, TraceSink};
use qdd_util::stats::Component;

fn setup(dims: Dims, seed: u64) -> (GaugeField<f64>, CloverField<f64>, SpinorField<f64>) {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.4, &basis);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    (gauge, clover, b)
}

fn dist_cfg() -> DistDdConfig {
    DistDdConfig {
        fgmres: FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-9, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn eight_rank_dd_solve_matches_serial() {
    let dims = Dims::new(8, 8, 8, 16);
    let (gauge, clover, b) = setup(dims, 2001);
    let phases = BoundaryPhases::antiperiodic_t();

    // Serial reference.
    let serial = DdSolver::new(
        WilsonClover::new(gauge.clone(), clover.clone(), 0.2, phases),
        DdSolverConfig {
            fgmres: dist_cfg().fgmres,
            schwarz: dist_cfg().schwarz,
            ..Default::default()
        },
    )
    .unwrap();
    let mut st = SolveStats::new();
    let (x_ref, out_ref) = serial.solve(&b, &mut st);
    assert!(out_ref.converged);

    // 8 ranks: 2x1x2x2.
    let grid = RankGrid::new(dims, Dims::new(2, 1, 2, 2));
    let lg = scatter_gauge(&gauge, &grid);
    let lc = scatter_clover(&clover, &grid);
    let lb = scatter_field(&b, &grid);
    let world = CommWorld::new(grid.clone());
    let cfg = dist_cfg();
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.2, phases);
        let mut stats = SolveStats::new();
        let (x, out, _) = dd_solve_distributed(ctx, &op, &lb[r], &cfg, &mut stats);
        (x, out.converged, out.iterations)
    });
    for (_, conv, iters) in &results {
        assert!(conv);
        assert_eq!(*iters, results[0].2);
    }
    let x = gather_field(&results.iter().map(|r| r.0.clone()).collect::<Vec<_>>(), &grid);
    let mut d = x.clone();
    d.sub_assign(&x_ref);
    assert!(d.norm() < 1e-7 * x_ref.norm(), "rel diff {}", d.norm() / x_ref.norm());
}

#[test]
fn traffic_scales_with_surface_not_volume() {
    // Two partitionings of the same lattice: splitting more directions
    // moves more bytes per rank only in proportion to the extra surface.
    let dims = Dims::new(16, 16, 8, 8);
    let (gauge, clover, b) = setup(dims, 2002);
    let phases = BoundaryPhases::periodic();
    let cfg = dist_cfg();

    let run = |layout: Dims| {
        let grid = RankGrid::new(dims, layout);
        let lg = scatter_gauge(&gauge, &grid);
        let lc = scatter_clover(&clover, &grid);
        let lb = scatter_field(&b, &grid);
        let world = CommWorld::new(grid.clone());
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.2, phases);
            let mut stats = SolveStats::new();
            let (_, out, _) = dd_solve_distributed(ctx, &op, &lb[r], &cfg, &mut stats);
            assert!(out.converged);
            (
                out.iterations,
                stats.comm_bytes(Component::PreconditionerM),
                stats.comm_bytes(Component::OperatorA),
            )
        });
        results[0]
    };

    let (it_a, m_a, a_a) = run(Dims::new(2, 1, 1, 1)); // one split dir, face 16*8*8
    let (it_b, m_b, a_b) = run(Dims::new(2, 2, 1, 1)); // two split dirs, faces 8*8*8+16*8*... per rank
    assert_eq!(it_a, it_b, "iteration counts must not depend on the layout");
    // Layout A: per-rank surface = 2 * (16*8*8) = 2048 sites.
    // Layout B: per-rank surface = 2 * (8*8*8) + 2 * (16*8*8 / 2) = 2048.
    // Same surface here, so bytes per iteration must match closely.
    let per_iter_a = (m_a + a_a) / it_a as f64;
    let per_iter_b = (m_b + a_b) / it_b as f64;
    assert!(
        (per_iter_a / per_iter_b - 1.0).abs() < 1e-9,
        "equal-surface layouts must move equal bytes: {per_iter_a} vs {per_iter_b}"
    );
}

#[test]
fn halo_bytes_match_analytic_surface_prediction() {
    // Every byte the runtime counts must be predictable from the local
    // surface area: A applications exchange full f64 halos, each Schwarz
    // preconditioner application exchanges `i_schwarz - 1/2` full f32
    // halos (one masked half-face per half-sweep, last one skipped).
    let dims = Dims::new(8, 8, 8, 8);
    let (gauge, clover, b) = setup(dims, 2004);
    let phases = BoundaryPhases::antiperiodic_t();
    let cfg = dist_cfg();

    let grid = RankGrid::new(dims, Dims::new(2, 1, 1, 2));
    let lg = scatter_gauge(&gauge, &grid);
    let lc = scatter_clover(&clover, &grid);
    let lb = scatter_field(&b, &grid);
    let local = *grid.local();
    let world = CommWorld::new(grid.clone());
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.2, phases);
        let mut stats = SolveStats::new();
        let (_, out, comm) = dd_solve_distributed(ctx, &op, &lb[r], &cfg, &mut stats);
        assert!(out.converged);
        (out.iterations, stats.operator_applications(), comm)
    });

    // Per-rank split surface: both x and t are split here.
    let split_faces: f64 = [Dir::X, Dir::T].iter().map(|&d| 2.0 * local.face_area(d) as f64).sum();
    let halo_f64 = split_faces * 12.0 * 8.0;
    let halo_f32 = split_faces * 12.0 * 4.0;
    for (iters, a_ops, comm) in &results {
        // One preconditioner application per outer iteration.
        let expect = *a_ops as f64 * halo_f64
            + *iters as f64 * (cfg.schwarz.i_schwarz as f64 - 0.5) * halo_f32;
        assert!(
            (comm.bytes_sent - expect).abs() < 1e-6,
            "bytes {} vs analytic {expect}",
            comm.bytes_sent
        );
        // Per-direction counters tile the total, and unsplit directions
        // stay at zero.
        let by_dir: f64 = comm.bytes_by_dir.iter().flatten().sum();
        assert!((by_dir - comm.bytes_sent).abs() < 1e-6);
        assert_eq!(comm.bytes_by_dir[1], [0.0, 0.0]);
        assert_eq!(comm.bytes_by_dir[2], [0.0, 0.0]);
    }
}

#[test]
fn distributed_solve_produces_balanced_per_rank_traces() {
    // Full observability run: every rank records solver, Schwarz and comm
    // spans into its own sink; the merged streams export to a valid
    // Chrome trace and a per-phase breakdown that includes communication.
    let dims = Dims::new(8, 8, 8, 8);
    let (gauge, clover, b) = setup(dims, 2005);
    let phases = BoundaryPhases::antiperiodic_t();
    let cfg = dist_cfg();

    let grid = RankGrid::new(dims, Dims::new(2, 1, 1, 1));
    let lg = scatter_gauge(&gauge, &grid);
    let lc = scatter_clover(&clover, &grid);
    let lb = scatter_field(&b, &grid);
    let world = CommWorld::new(grid.clone());
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let sink = TraceSink::for_rank(r as u32);
        ctx.attach_trace(sink.clone());
        let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.2, phases);
        let mut stats = SolveStats::new();
        stats.attach_sink(sink.clone());
        let (_, out, comm) = dd_solve_distributed(ctx, &op, &lb[r], &cfg, &mut stats);
        assert!(out.converged);
        (sink.stream(), comm)
    });

    let streams: Vec<_> = results.iter().map(|(s, _)| s.clone()).collect();
    for (rank, events) in &streams {
        validate_balance(events).unwrap_or_else(|e| panic!("rank {rank}: unbalanced spans: {e}"));
        for phase in [
            Phase::Solve,
            Phase::ArnoldiStep,
            Phase::Precondition,
            Phase::SchwarzSweep,
            Phase::DomainSolve,
            Phase::HaloPack,
            Phase::HaloSend,
            Phase::HaloRecv,
            Phase::HaloUnpack,
            Phase::GlobalSum,
        ] {
            assert!(events.iter().any(|e| e.phase == phase), "rank {rank}: no {phase:?} event");
        }
    }

    // The Chrome export over all ranks is valid JSON with both pids.
    let chrome = chrome_trace(&streams);
    let v: serde_json::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
    let evs = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!evs.is_empty());
    for rank in 0..streams.len() {
        assert!(
            evs.iter().any(|e| e["pid"].as_f64() == Some(rank as f64)),
            "no events for pid {rank}"
        );
    }

    // Per-phase time shares: the preconditioner dominates an operator-
    // bound DD solve, and communication phases carry nonzero time.
    let totals = phase_totals(&streams);
    let pre = totals.get(&Phase::Precondition).expect("Precondition total");
    assert!(pre.total_ns > 0);
    for phase in [Phase::HaloSend, Phase::HaloRecv, Phase::GlobalSum] {
        assert!(totals.get(&phase).is_some_and(|t| t.total_ns > 0), "{phase:?} has no time");
    }

    // Both ranks moved the same bytes (symmetric layout).
    assert_eq!(results[0].1.bytes_sent, results[1].1.bytes_sent);
    assert!(results[0].1.bytes_sent > 0.0);
}

#[test]
fn distributed_gmres_without_preconditioner_matches_serial() {
    // The bare outer solver through the DistSystem plumbing.
    let dims = Dims::new(8, 8, 4, 8);
    let (gauge, clover, b) = setup(dims, 2003);
    let phases = BoundaryPhases::antiperiodic_t();
    let cfg = FgmresConfig { max_basis: 12, deflate: 4, tolerance: 1e-8, max_iterations: 500 };

    let op_ref = WilsonClover::new(gauge.clone(), clover.clone(), 0.25, phases);
    let mut st = SolveStats::new();
    let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
    let (x_ref, out_ref) = fgmres_dr(&LocalSystem::new(&op_ref), &b, &mut ident, &cfg, &mut st);
    assert!(out_ref.converged);

    let grid = RankGrid::new(dims, Dims::new(1, 2, 1, 2));
    let lg = scatter_gauge(&gauge, &grid);
    let lc = scatter_clover(&clover, &grid);
    let lb = scatter_field(&b, &grid);
    let world = CommWorld::new(grid.clone());
    let results = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let op = WilsonClover::new(lg[r].clone(), lc[r].clone(), 0.25, phases);
        let sys = DistSystem::new(ctx, &op);
        let mut stats = SolveStats::new();
        let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
        let (x, out) = fgmres_dr(&sys, &lb[r], &mut ident, &cfg, &mut stats);
        assert!(out.converged);
        x
    });
    let x = gather_field(&results, &grid);
    let mut d = x.clone();
    d.sub_assign(&x_ref);
    assert!(d.norm() < 1e-6 * x_ref.norm(), "rel {}", d.norm() / x_ref.norm());
}
