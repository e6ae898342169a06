//! Chaos determinism: the fault injector is part of the reproducibility
//! contract. Fault decisions are keyed by (seed, rank, class, channel,
//! sequence, attempt) hashes — never by wall clock or thread scheduling —
//! so a seeded chaotic run is as bitwise-reproducible as a clean one, and
//! a disabled injector costs nothing.

use lattice_qcd_dd::comm::{
    dd_solve_resilient, gather_field, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig, ResilientOutcome,
};
use lattice_qcd_dd::faults::{FaultPlan, FaultRates};
use lattice_qcd_dd::prelude::*;
use lattice_qcd_dd::trace::FaultStats;

struct Problem {
    grid: RankGrid,
    gauge: GaugeField<f64>,
    clover: CloverField<f64>,
    b: SpinorField<f64>,
    local_gauge: Vec<GaugeField<f64>>,
    local_clover: Vec<CloverField<f64>>,
    b_local: Vec<SpinorField<f64>>,
    cfg: DistDdConfig,
    mass: f64,
}

fn problem(dims: Dims, ranks: Dims, tolerance: f64) -> Problem {
    let grid = RankGrid::new(dims, ranks);
    let mut rng = Rng64::new(77);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.45);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    Problem {
        local_gauge: scatter_gauge(&gauge, &grid),
        local_clover: scatter_clover(&clover, &grid),
        b_local: scatter_field(&b, &grid),
        grid,
        gauge,
        clover,
        b,
        cfg: DistDdConfig {
            fgmres: FgmresConfig { max_basis: 8, deflate: 4, tolerance, max_iterations: 300 },
            schwarz: SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 4,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            ..Default::default()
        },
        mass: 0.1,
    }
}

fn run(p: &Problem, world: &CommWorld) -> Vec<(SpinorField<f64>, ResilientOutcome, FaultStats)> {
    let phases = BoundaryPhases::antiperiodic_t();
    run_spmd(world, |ctx| {
        let r = ctx.rank();
        let op =
            WilsonClover::new(p.local_gauge[r].clone(), p.local_clover[r].clone(), p.mass, phases);
        let mut stats = SolveStats::new();
        let (x, out, comm) = dd_solve_resilient(ctx, &op, &p.b_local[r], &p.cfg, 2, &mut stats);
        (x, out, comm.faults)
    })
}

#[test]
fn same_fault_seed_is_bitwise_reproducible() {
    // Two runs of the same chaotic world: identical solutions (bitwise),
    // identical iteration counts, and identical per-rank recovery
    // counters — thread scheduling differs between runs, the fault
    // schedule must not.
    let p = problem(Dims::new(8, 4, 4, 8), Dims::new(1, 1, 1, 2), 1e-8);
    let rates = FaultRates { loss: 0.02, corrupt: 0.02, delay: 0.02, hiccup: 0.01 };
    let a = run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(5, rates)));
    let b = run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(5, rates)));
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.0.as_slice(), rb.0.as_slice(), "solutions differ between identical runs");
        assert_eq!(ra.1.outcome.iterations, rb.1.outcome.iterations);
        assert_eq!(ra.1.restarts, rb.1.restarts);
        assert_eq!(ra.2, rb.2, "fault counters differ between identical runs");
    }
    // The schedule actually fired (otherwise this test proves nothing).
    let total: u64 = a.iter().map(|r| r.2.retries).sum();
    assert!(total > 0, "no retries at 2% loss + 2% corruption");

    // A different seed gives a different schedule.
    let c = run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(6, rates)));
    let counters_a: Vec<FaultStats> = a.iter().map(|r| r.2).collect();
    let counters_c: Vec<FaultStats> = c.iter().map(|r| r.2).collect();
    assert_ne!(counters_a, counters_c, "different fault seeds produced identical schedules");
}

#[test]
fn disabled_faults_are_bitwise_identical_to_a_clean_world() {
    // Three worlds must agree bitwise: no plan, an inert plan (zero
    // rates), and by construction the pre-fault-machinery behavior —
    // checksums are only computed when a live plan is attached, so the
    // clean fast path is untouched.
    let p = problem(Dims::new(8, 4, 4, 8), Dims::new(1, 1, 1, 2), 1e-8);
    let clean = run(&p, &CommWorld::new(p.grid.clone()));
    let inert =
        run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(123, FaultRates::NONE)));
    for (rc, ri) in clean.iter().zip(&inert) {
        assert_eq!(rc.0.as_slice(), ri.0.as_slice());
        assert_eq!(rc.1.outcome.iterations, ri.1.outcome.iterations);
        assert_eq!(ri.2, FaultStats::default(), "inert plan bumped a fault counter");
    }
    assert!(clean[0].1.outcome.converged);
    assert!(!clean[0].1.comm_faulted);
}

#[test]
fn acceptance_one_percent_loss_and_corruption_converges_like_fault_free() {
    // The PR's acceptance bar: seeded 1% loss + 1% corruption on a
    // 2-rank 8^4 solve converges to the same tolerance as the fault-free
    // run (extra iterations allowed), with fault.retries > 0 and zero
    // panics (a rank panic would abort run_spmd).
    let tol = 1e-10;
    let p = problem(Dims::new(8, 8, 8, 8), Dims::new(1, 1, 1, 2), tol);
    let clean = run(&p, &CommWorld::new(p.grid.clone()));
    assert!(clean[0].1.outcome.converged, "fault-free reference must converge");

    let rates = FaultRates { loss: 0.01, corrupt: 0.01, delay: 0.0, hiccup: 0.0 };
    let chaotic = run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(1, rates)));
    let out = &chaotic[0].1;
    assert!(
        out.outcome.converged,
        "chaotic solve failed: residual {}",
        out.outcome.relative_residual
    );
    assert!(out.outcome.relative_residual <= tol);
    let retries: u64 = chaotic.iter().map(|r| r.2.retries).sum();
    assert!(retries > 0, "1% loss + 1% corruption triggered no retries");

    // The recovered solution solves the *fault-free* global system.
    let locals: Vec<SpinorField<f64>> = chaotic.iter().map(|r| r.0.clone()).collect();
    let x = gather_field(&locals, &p.grid);
    let op = WilsonClover::new(
        p.gauge.clone(),
        p.clover.clone(),
        p.mass,
        BoundaryPhases::antiperiodic_t(),
    );
    let mut ax = SpinorField::zeros(*p.b.dims());
    op.apply(&mut ax, &x);
    ax.sub_assign(&p.b);
    let true_rel = ax.norm() / p.b.norm();
    assert!(true_rel <= 10.0 * tol, "true residual {true_rel} vs tolerance {tol}");
}

#[test]
fn every_rank_agrees_on_the_collective_fault_verdict() {
    // comm_faulted is all-reduced: under heavy loss some rank exhausts
    // its retry budget, and then EVERY rank must report the same verdict
    // (SPMD discipline — diverging rank-local decisions would deadlock
    // later collectives).
    let p = problem(Dims::new(8, 4, 4, 8), Dims::new(1, 1, 1, 2), 1e-6);
    let rates = FaultRates { loss: 0.30, corrupt: 0.10, delay: 0.0, hiccup: 0.0 };
    let results = run(&p, &CommWorld::with_faults(p.grid.clone(), FaultPlan::new(3, rates)));
    let verdicts: Vec<bool> = results.iter().map(|r| r.1.comm_faulted).collect();
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "ranks disagree on comm_faulted");
    // At 30% loss the 4-attempt budget is exhausted somewhere with
    // overwhelming probability; if not, the timeout path went untested.
    let timeouts: u64 = results.iter().map(|r| r.2.timeouts).sum();
    assert!(timeouts > 0, "no retry budget exhausted at 30% loss");
    assert!(verdicts[0], "timeouts must surface as a collective fault verdict");
}
