//! The complete distributed DD solver: FGMRES-DR over `DistSystem` with a
//! `DistSchwarz` preconditioner — the full multi-node pipeline of the
//! paper, per rank.

use crate::dist_schwarz::DistSchwarz;
use crate::dist_system::DistSystem;
use crate::runtime::{CommError, RankCtx};
use qdd_core::dd_solver::{preconditioner_operator, Precision};
use qdd_core::fgmres_dr::{fgmres_dr, Breakdown, FgmresConfig, SolveOutcome};
use qdd_core::schwarz::SchwarzConfig;
use qdd_core::system::SystemOps;
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_trace::CommStats;
use qdd_util::stats::SolveStats;

/// Configuration of a distributed DD solve.
#[derive(Copy, Clone, Debug, Default)]
pub struct DistDdConfig {
    pub fgmres: FgmresConfig,
    pub schwarz: SchwarzConfig,
    pub precision: Precision,
}

/// The flexible preconditioner as the outer solver takes it.
type Precond<'p> = dyn FnMut(&SpinorField<f64>, &mut SolveStats) -> SpinorField<f64> + 'p;

/// One rank's assembled DD solver, handed to `run`: the outer system over
/// `op`, the preconditioner `cast · M · cast` over the distributed Schwarz
/// sweep on the f32 (or f16-rounded) operator, and that sweep itself (for
/// its fault record). One switch, `cfg.schwarz.overlap`, governs hiding in
/// both the inner sweep and the outer matvec. Returns `run`'s result and
/// this rank's network traffic while it ran (the delta of the context's
/// [`CommCounters`](crate::runtime::CommCounters)).
fn with_rank_solver<R>(
    ctx: &RankCtx<'_>,
    op: &WilsonClover<f64>,
    cfg: &DistDdConfig,
    run: impl FnOnce(&DistSystem<'_, f64>, &mut Precond<'_>, &DistSchwarz<'_, f32>) -> R,
) -> (R, CommStats) {
    let before = ctx.counters.snapshot();
    let op32 = preconditioner_operator(op, cfg.precision);
    let pre =
        DistSchwarz::new(ctx, &op32, cfg.schwarz).expect("singular clover block in preconditioner");
    let sys = DistSystem::new(ctx, op).with_overlap(cfg.schwarz.overlap);
    let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| pre.apply(&r.cast(), st).cast();
    let result = run(&sys, &mut precond, &pre);
    (result, ctx.counters.snapshot().since(&before))
}

/// Run the paper's solver on this rank: double-precision FGMRES-DR outer,
/// single- (or half-compressed-) precision distributed Schwarz inner.
/// SPMD: every rank calls this with its local operator and local rhs.
///
/// The third return value is this rank's network traffic during the solve,
/// so callers can attribute bytes per direction without bookkeeping of
/// their own.
pub fn dd_solve_distributed(
    ctx: &RankCtx<'_>,
    op: &WilsonClover<f64>,
    f: &SpinorField<f64>,
    cfg: &DistDdConfig,
    stats: &mut SolveStats,
) -> (SpinorField<f64>, SolveOutcome, CommStats) {
    let ((x, out), comm) = with_rank_solver(ctx, op, cfg, |sys, precond, _| {
        fgmres_dr(sys, f, precond, &cfg.fgmres, stats)
    });
    (x, out, comm)
}

/// What a self-healing distributed solve did on top of the plain one.
#[derive(Clone, Debug)]
pub struct ResilientOutcome {
    /// Aggregated solver outcome: `converged` and `relative_residual` are
    /// with respect to the *original* right-hand side; `iterations` and
    /// `cycles` sum over all rounds; `breakdown` is the last unrecovered
    /// breakdown (`None` when the final round ended healthy).
    pub outcome: SolveOutcome,
    /// Restart rounds taken after the first solve (0 = nothing went wrong).
    pub restarts: u32,
    /// Every breakdown the restart ladder recovered from (or died on), in
    /// order of occurrence.
    pub breakdowns: Vec<Breakdown>,
    /// Rounds whose correction was discarded because it made the true
    /// residual worse or non-finite (rollback to the previous checkpoint).
    pub rollbacks: u32,
    /// True if *any* rank saw a communication fault during the solve
    /// (collectively agreed, so every rank reports the same value). The
    /// serve layer maps this to a degraded status even on convergence.
    pub comm_faulted: bool,
    /// This rank's first communication fault, if any (rank-local detail
    /// behind `comm_faulted`).
    pub local_comm_error: Option<CommError>,
    /// True when the solve was seeded from a caller-provided iterate
    /// (failover warm restart) instead of the zero vector.
    pub warm_started: bool,
    /// True when a provided warm-start iterate was *rejected* because its
    /// honest residual on this world was no better than starting cold.
    pub warm_rejected: bool,
}

/// A per-solve health verdict a shard supervisor can consume without
/// digging through solver internals: the collectively agreed fault flag
/// plus this rank's timeout/straggler evidence from the fault ledger.
///
/// `unhealthy()` is the breaker input: it fires on communication faults
/// and unrecovered breakdowns — the failure modes that implicate the
/// *world* (fabric or runtime) rather than the problem. A convergence
/// miss on a clean fabric stays a request-level concern (degrade, don't
/// trip the breaker).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthVerdict {
    /// Collectively agreed: some rank saw a communication fault.
    pub comm_faulted: bool,
    /// The final round died in an unrecovered numerical breakdown.
    pub breakdown: bool,
    /// The solve reached its tolerance (after restarts/rollbacks).
    pub converged: bool,
    /// Receives that exhausted their retry budget (timeout verdicts).
    pub timeouts: u64,
    /// Retransmission attempts (straggler evidence short of a timeout).
    pub retries: u64,
    /// Modeled straggler/backoff delay accumulated, microseconds.
    pub delay_us: f64,
    /// Schwarz exchange rounds skipped by a hiccuping peer.
    pub hiccups: u64,
    /// Skip markers received from hiccuping peers — deliberate absences,
    /// reported separately from retry-exhausted `timeouts`.
    pub peer_skips: u64,
    /// Faces zero-filled after an abandoned delivery.
    pub zero_fills: u64,
}

impl HealthVerdict {
    /// Summarize one resilient solve for the supervisor.
    pub fn from_solve(out: &ResilientOutcome, comm: &CommStats) -> Self {
        Self {
            comm_faulted: out.comm_faulted,
            breakdown: out.outcome.breakdown.is_some(),
            converged: out.outcome.converged,
            timeouts: comm.faults.timeouts,
            retries: comm.faults.retries,
            delay_us: comm.faults.delay_us,
            hiccups: comm.faults.hiccups,
            peer_skips: comm.faults.peer_skips,
            zero_fills: comm.faults.zero_fills,
        }
    }

    /// Should this solve count against the shard's circuit breaker?
    pub fn unhealthy(&self) -> bool {
        self.comm_faulted || self.breakdown
    }
}

/// Self-healing wrapper around [`dd_solve_distributed`]: runs the solve,
/// and when it ends in a detected breakdown (non-finite residual,
/// divergence) instead of convergence, restarts from the best surviving
/// iterate — solving the *residual correction* system `A e = f - A x` —
/// up to `max_restarts` times. A round whose correction made things worse
/// is rolled back (the checkpoint `x` is kept; the correction discarded).
///
/// SPMD-safe by construction: every accept/rollback/stop decision derives
/// from `SolveOutcome` fields and norms computed via deterministic
/// all-reduces, so all ranks take identical branches; the final
/// `comm_faulted` flag is agreed through one explicit collective.
pub fn dd_solve_resilient(
    ctx: &RankCtx<'_>,
    op: &WilsonClover<f64>,
    f: &SpinorField<f64>,
    cfg: &DistDdConfig,
    max_restarts: u32,
    stats: &mut SolveStats,
) -> (SpinorField<f64>, ResilientOutcome, CommStats) {
    dd_solve_resilient_warm(ctx, op, f, None, cfg, max_restarts, stats)
}

/// [`dd_solve_resilient`] seeded from a caller-provided iterate: the
/// failover path of a sharded service hands the best-so-far iterate of a
/// solve that died on a sick shard (the resilient wrapper's rollback
/// checkpoint) to a healthy shard, which continues from it by solving the
/// residual-correction system `A e = f - A x0` instead of starting cold.
///
/// The warm start is *audited*, not trusted: its honest residual is
/// recomputed on this world first, and an iterate that is no better than
/// the zero vector (e.g. poisoned by zero-filled halos on the sick shard)
/// is rejected (`warm_rejected`), falling back to a cold start. With
/// `x0 = None` this is exactly `dd_solve_resilient`, bit for bit.
pub fn dd_solve_resilient_warm(
    ctx: &RankCtx<'_>,
    op: &WilsonClover<f64>,
    f: &SpinorField<f64>,
    x0: Option<&SpinorField<f64>>,
    cfg: &DistDdConfig,
    max_restarts: u32,
    stats: &mut SolveStats,
) -> (SpinorField<f64>, ResilientOutcome, CommStats) {
    let ((x, res), comm) = with_rank_solver(ctx, op, cfg, |sys, precond, pre| {
        let f_norm = sys.norm_sqr(f, stats).sqrt();
        let mut res = ResilientOutcome {
            outcome: SolveOutcome {
                converged: f_norm == 0.0,
                iterations: 0,
                cycles: 0,
                relative_residual: if f_norm == 0.0 { 0.0 } else { 1.0 },
                history: Vec::new(),
                breakdown: None,
            },
            restarts: 0,
            breakdowns: Vec::new(),
            rollbacks: 0,
            comm_faulted: false,
            local_comm_error: None,
            warm_started: false,
            warm_rejected: false,
        };
        // Checkpoint: the accepted solution so far, with its true relative
        // residual (vs. `f`). Rollback = refusing a round's correction.
        let mut x = SpinorField::<f64>::zeros(*f.dims());
        let mut best_rel = res.outcome.relative_residual;
        // Audit a warm-start iterate against the cold start: accept it as the
        // initial checkpoint only if its honest residual on *this* world
        // improves on the zero vector's (rel = 1).
        let mut x_is_zero = true;
        if let Some(x0) = x0 {
            if f_norm > 0.0 {
                let mut ax = SpinorField::zeros(*f.dims());
                sys.apply(&mut ax, x0, stats);
                let mut g0 = f.clone();
                g0.sub_assign(&ax);
                let rel = sys.norm_sqr(&g0, stats).sqrt() / f_norm;
                if rel.is_finite() && rel < best_rel {
                    x = x0.clone();
                    best_rel = rel;
                    x_is_zero = false;
                    res.warm_started = true;
                } else {
                    res.warm_rejected = true;
                }
            }
        }

        let mut round = 0u32;
        while best_rel > cfg.fgmres.tolerance && round <= max_restarts {
            // Residual correction system: g = f - A x (first round from a
            // cold start: g = f, no operator application needed).
            let g = if round == 0 && x_is_zero {
                f.clone()
            } else {
                let mut ax = SpinorField::zeros(*f.dims());
                sys.apply(&mut ax, &x, stats);
                let mut g = f.clone();
                g.sub_assign(&ax);
                g
            };
            let g_norm = sys.norm_sqr(&g, stats).sqrt();
            if !g_norm.is_finite() || g_norm <= 0.0 {
                break;
            }
            // The inner tolerance is relative to ||g||; convert the outer
            // target (relative to ||f||) into this round's frame.
            let mut round_cfg = cfg.fgmres;
            round_cfg.tolerance = (cfg.fgmres.tolerance * f_norm / g_norm).min(0.99);
            let (e, out) = fgmres_dr(sys, &g, precond, &round_cfg, stats);
            res.outcome.iterations += out.iterations;
            res.outcome.cycles += out.cycles;
            res.outcome.history.extend(out.history.iter().copied());
            if let Some(b) = out.breakdown {
                res.breakdowns.push(b);
            }
            // out.relative_residual is the honest, recomputed residual of the
            // correction solve (vs. ||g||); rebase to the original system.
            let cand_rel = out.relative_residual * g_norm / f_norm;
            if cand_rel.is_finite() && cand_rel < best_rel {
                // Accept: the round made progress (even a broken-down round
                // leaves its iterate at the last healthy cycle boundary, so
                // partial progress survives the breakdown).
                x.axpy(qdd_util::complex::Complex::real(1.0), &e);
                best_rel = cand_rel;
            } else {
                // Rollback: keep the checkpoint, discard the correction.
                res.rollbacks += 1;
            }
            res.outcome.breakdown = out.breakdown;
            if out.breakdown.is_none() && !out.converged && cand_rel > cfg.fgmres.tolerance {
                // The solver ran out of iterations without misbehaving:
                // restarting would just repeat the same stall. Stop honestly.
                break;
            }
            round += 1;
        }
        res.restarts = round.saturating_sub(1);
        res.outcome.relative_residual = best_rel;
        res.outcome.converged = best_rel <= cfg.fgmres.tolerance;
        if res.outcome.converged {
            res.outcome.breakdown = None;
        }

        // Collective agreement on "did anything fault anywhere": every rank
        // must report the same flag (SPMD discipline), while the local error
        // detail stays rank-local.
        res.local_comm_error = sys.comm_error().or_else(|| pre.comm_error());
        let any = ctx.all_sum(&[res.local_comm_error.is_some() as u64 as f64]);
        res.comm_faulted = any[0] > 0.0;
        (x, res)
    });
    (x, res, comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_spmd, CommWorld};
    use crate::scatter::{gather_field, scatter_clover, scatter_field, scatter_gauge};
    use qdd_core::dd_solver::{DdSolver, DdSolverConfig};
    use qdd_core::mr::MrConfig;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::{Dims, RankGrid};
    use qdd_util::rng::Rng64;
    use qdd_util::stats::Component;

    #[test]
    fn distributed_dd_solve_matches_single_rank() {
        let global_dims = Dims::new(8, 8, 8, 8);
        let grid = RankGrid::new(global_dims, Dims::new(2, 1, 1, 2));
        let mut rng = Rng64::new(41);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.5, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);

        let fgmres =
            FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-10, max_iterations: 300 };
        let schwarz = SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        };

        // Single-rank reference.
        let solver = DdSolver::new(
            WilsonClover::new(gauge.clone(), clover.clone(), 0.2, phases),
            DdSolverConfig { fgmres, schwarz, ..Default::default() },
        )
        .unwrap();
        let mut st = SolveStats::new();
        let (x_ref, out_ref) = solver.solve(&f, &mut st);
        assert!(out_ref.converged);

        // Distributed.
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);
        let world = CommWorld::new(grid.clone());
        let cfg = DistDdConfig { fgmres, schwarz, ..Default::default() };
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op =
                WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
            let mut stats = SolveStats::new();
            let (x, out, comm) = dd_solve_distributed(ctx, &op, &f_local[r], &cfg, &mut stats);
            (x, out, stats, comm)
        });

        for (_, out, _, _) in &results {
            assert!(out.converged, "rank failed: residual {}", out.relative_residual);
            assert_eq!(out.iterations, results[0].1.iterations);
        }
        let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
        let x = gather_field(&locals, &grid);
        let mut diff = x.clone();
        diff.sub_assign(&x_ref);
        assert!(
            diff.norm() < 1e-7 * x_ref.norm(),
            "distributed DD solution deviates: rel {}",
            diff.norm() / x_ref.norm()
        );
        // Outer iteration counts agree with the serial solve (collectives
        // are deterministic; only reduction association differs).
        let di = results[0].1.iterations as i64;
        let si = out_ref.iterations as i64;
        assert!((di - si).abs() <= 1, "iterations {di} vs {si}");

        // Traffic sanity: the preconditioner communicates, and per outer
        // iteration it moves ~ISchwarz full halos versus 1 for A.
        let stats = &results[0].2;
        assert!(stats.comm_bytes(Component::PreconditionerM) > 0.0);
        assert!(stats.comm_bytes(Component::OperatorA) > 0.0);
        // The returned counter delta agrees with the ledger, and the split
        // directions carry symmetric traffic.
        let comm = &results[0].3;
        let ledger =
            stats.comm_bytes(Component::PreconditionerM) + stats.comm_bytes(Component::OperatorA);
        assert!((comm.bytes_sent - ledger).abs() < 1e-6, "{} vs {ledger}", comm.bytes_sent);
        assert_eq!(comm.bytes_by_dir[0][0], comm.bytes_by_dir[0][1]);
        assert_eq!(comm.bytes_by_dir[1], [0.0, 0.0], "y is unsplit");
        assert!(comm.reductions > 0);
    }

    #[test]
    fn f16_face_solve_converges_to_the_same_tolerance() {
        // Switching the preconditioner's halo envelopes to f16 perturbs
        // only the preconditioner (the flexible outer solver tolerates
        // that): the solve must still converge to the same residual
        // tolerance, while the preconditioner's traffic ledger halves
        // exactly.
        let global_dims = Dims::new(8, 8, 4, 8);
        let grid = RankGrid::new(global_dims, Dims::new(2, 1, 1, 1));
        let mut rng = Rng64::new(43);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.4, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);

        let fgmres =
            FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-9, max_iterations: 300 };
        let run = |f16_faces: bool| {
            let schwarz = SchwarzConfig {
                block: Dims::new(4, 4, 4, 4),
                i_schwarz: 4,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                f16_faces,
                ..Default::default()
            };
            let cfg = DistDdConfig { fgmres, schwarz, ..Default::default() };
            let world = CommWorld::new(grid.clone());
            run_spmd(&world, |ctx| {
                let r = ctx.rank();
                let op =
                    WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
                let mut stats = SolveStats::new();
                let (x, out, _) = dd_solve_distributed(ctx, &op, &f_local[r], &cfg, &mut stats);
                (x, out, stats.comm_bytes(Component::PreconditionerM))
            })
        };
        let wide = run(false);
        let packed = run(true);
        for ((_, out_w, _), (_, out_p, _)) in wide.iter().zip(&packed) {
            assert!(out_w.converged);
            assert!(
                out_p.converged,
                "f16-face solve failed to reach the tolerance: residual {}",
                out_p.relative_residual
            );
            assert!(out_p.relative_residual <= fgmres.tolerance);
        }
        // Bytes per preconditioner application halve; iteration counts may
        // differ slightly, so compare per-application traffic.
        let per_apply_w = wide[0].2 / wide[0].1.iterations as f64;
        let per_apply_p = packed[0].2 / packed[0].1.iterations as f64;
        assert_eq!(per_apply_p, per_apply_w / 2.0, "f16 faces must halve preconditioner bytes");
        // Both runs solve the same f64 outer system to the same tolerance;
        // the solutions agree to that tolerance (not bitwise — the
        // preconditioner differs).
        let x_w = gather_field(&wide.iter().map(|r| r.0.clone()).collect::<Vec<_>>(), &grid);
        let x_p = gather_field(&packed.iter().map(|r| r.0.clone()).collect::<Vec<_>>(), &grid);
        let mut diff = x_w.clone();
        diff.sub_assign(&x_p);
        assert!(diff.norm() < 1e-6 * x_w.norm());
    }

    #[test]
    fn dd_vs_bicgstab_communication_ratio() {
        // The core claim (Table III last column): per solve, DD moves far
        // fewer bytes than BiCGstab. Measure both on the same distributed
        // problem.
        let global_dims = Dims::new(8, 8, 4, 8);
        let grid = RankGrid::new(global_dims, Dims::new(2, 1, 1, 1));
        let mut rng = Rng64::new(42);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.4);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.4, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);

        // Near-critical quark mass on a smooth field: the regime where the
        // paper's comparison lives (light pion, many BiCGstab iterations).
        let fgmres =
            FgmresConfig { max_basis: 12, deflate: 6, tolerance: 1e-9, max_iterations: 400 };
        let schwarz = SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 8,
            mr: MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        };
        let cfg = DistDdConfig { fgmres, schwarz, ..Default::default() };

        let world = CommWorld::new(grid.clone());
        let dd = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op =
                WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), -0.15, phases);
            let mut stats = SolveStats::new();
            let (_, out, _) = dd_solve_distributed(ctx, &op, &f_local[r], &cfg, &mut stats);
            assert!(out.converged);
            (stats.total_comm_bytes(), stats.global_sums())
        });

        let world = CommWorld::new(grid.clone());
        let bi = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op =
                WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), -0.15, phases);
            let sys = crate::dist_system::DistSystem::new(ctx, &op);
            let mut stats = SolveStats::new();
            let (_, out) = qdd_core::bicgstab::bicgstab(
                &sys,
                &f_local[r],
                &qdd_core::bicgstab::BiCgStabConfig { tolerance: 1e-9, max_iterations: 20_000 },
                &mut stats,
            );
            assert!(out.converged);
            (stats.total_comm_bytes(), stats.global_sums())
        });

        let (dd_bytes, dd_sums) = dd[0];
        let (bi_bytes, bi_sums) = bi[0];
        assert!(
            dd_bytes < 0.5 * bi_bytes,
            "DD bytes {dd_bytes} not well below BiCGstab {bi_bytes}"
        );
        assert!(
            (dd_sums as f64) < 0.15 * bi_sums as f64,
            "DD sums {dd_sums} vs BiCGstab {bi_sums}"
        );
    }

    #[test]
    fn warm_restart_continues_from_checkpoint_and_audits_it() {
        // A healthy world finishing a solve another world started: the
        // warm-started solve must accept a good iterate (fewer iterations
        // than cold), reject a poisoned one, and agree with the cold
        // solution to the solver tolerance either way.
        let global_dims = Dims::new(8, 4, 4, 8);
        let grid = RankGrid::new(global_dims, Dims::new(1, 1, 1, 2));
        let mut rng = Rng64::new(77);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.5, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);
        let fgmres =
            FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-9, max_iterations: 300 };
        let schwarz = SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 4,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        };
        let cfg = DistDdConfig { fgmres, schwarz, ..Default::default() };

        let solve = |x0: Option<&Vec<SpinorField<f64>>>| {
            let world = CommWorld::new(grid.clone());
            run_spmd(&world, |ctx| {
                let r = ctx.rank();
                let op =
                    WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
                let mut stats = SolveStats::new();
                let (x, out, _) = dd_solve_resilient_warm(
                    ctx,
                    &op,
                    &f_local[r],
                    x0.map(|v| &v[r]),
                    &cfg,
                    2,
                    &mut stats,
                );
                (x, out)
            })
        };

        // Cold reference.
        let cold = solve(None);
        assert!(cold[0].1.outcome.converged);
        assert!(!cold[0].1.warm_started && !cold[0].1.warm_rejected);
        let x_cold = gather_field(&cold.iter().map(|r| r.0.clone()).collect::<Vec<_>>(), &grid);

        // Warm start from a deliberately imperfect copy of the solution
        // (solves the last digits only): must be accepted and converge in
        // strictly fewer iterations.
        let mut near = x_cold.clone();
        near.scale(qdd_util::complex::Complex::real(0.999));
        let near_local = scatter_field(&near, &grid);
        let warm = solve(Some(&near_local));
        for (_, out) in &warm {
            assert!(out.warm_started && !out.warm_rejected);
            assert!(out.outcome.converged);
            assert!(
                out.outcome.iterations < cold[0].1.outcome.iterations,
                "warm {} vs cold {}",
                out.outcome.iterations,
                cold[0].1.outcome.iterations
            );
        }
        let x_warm = gather_field(&warm.iter().map(|r| r.0.clone()).collect::<Vec<_>>(), &grid);
        let mut diff = x_warm.clone();
        diff.sub_assign(&x_cold);
        assert!(diff.norm() < 1e-6 * x_cold.norm());

        // A poisoned iterate (huge garbage) must be rejected, landing on
        // the cold path — bitwise equal to the cold solve.
        let mut garbage = x_cold.clone();
        garbage.scale(qdd_util::complex::Complex::real(1e12));
        let garbage_local = scatter_field(&garbage, &grid);
        let audited = solve(Some(&garbage_local));
        for ((x_a, out), (x_c, _)) in audited.iter().zip(&cold) {
            assert!(!out.warm_started && out.warm_rejected);
            assert!(out.outcome.converged);
            assert_eq!(
                x_a.as_slice(),
                x_c.as_slice(),
                "rejected warm start must reduce to the cold solve bitwise"
            );
        }
    }
}
