//! The assembled DD solver of the paper: FGMRES-DR (double precision)
//! preconditioned by the multiplicative Schwarz method (single precision,
//! optionally with half-precision gauge and clover storage).
//!
//! This is the top-level API a user of the library calls; everything in
//! Table I is wired together here.

use crate::fgmres_dr::{fgmres_dr_with_workspace, FgmresConfig, SolveOutcome};
use crate::pool::{resolve_workers, WorkerPool, WorkspacePool};
use crate::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use crate::system::FusedSystem;
use qdd_dirac::fused_full::{
    build_full_operator_tuned, FullOperator, FusedTuning, StoragePrecision, SwPrefetch,
};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::{CloverFieldF16, GaugeFieldF16, SpinorField};
use qdd_util::stats::SolveStats;
use std::sync::Mutex;

/// Storage precision of the preconditioner's constant data (gauge links
/// and clover matrices). Iteration vectors are always f32 in the
/// preconditioner (paper Sec. III-B).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Precision {
    /// Gauge and clover in f32.
    #[default]
    Single,
    /// Gauge and clover stored in f16 (KNC up/down-conversion semantics),
    /// halving the constant working set from 144 kB to 72 kB per domain.
    HalfCompressed,
}

/// Complete DD-solver configuration.
#[derive(Copy, Clone, Debug)]
pub struct DdSolverConfig {
    pub fgmres: FgmresConfig,
    pub schwarz: SchwarzConfig,
    pub precision: Precision,
    /// Worker threads for the Schwarz sweeps and the outer hot path
    /// (1 = serial). Mirrors the number of KNC cores in the paper's
    /// on-chip experiments. The `QDD_WORKERS` environment variable
    /// overrides this at solver construction.
    pub workers: usize,
    /// Software prefetch depth for the fused outer operator's compute
    /// loop. Bitwise-neutral; set from the backend's `PrefetchMode` by
    /// [`Self::with_tuned`] (collapses to `None` on `hw_prefetch`
    /// chips).
    pub prefetch: SwPrefetch,
    /// L2 working-set budget for the fused outer tile traversal
    /// (z-blocking); `None` keeps the flat order. Bitwise-neutral.
    pub l2_bytes: Option<usize>,
}

impl Default for DdSolverConfig {
    fn default() -> Self {
        Self {
            fgmres: FgmresConfig::default(),
            schwarz: SchwarzConfig::default(),
            precision: Precision::Single,
            workers: 1,
            prefetch: SwPrefetch::None,
            l2_bytes: None,
        }
    }
}

impl DdSolverConfig {
    /// Apply a tuned operating point from the autotuner: the Schwarz
    /// geometry and sweep counts plus the preconditioner storage
    /// precision (model `Single` → f32, `Half` → f16-compressed gauge
    /// and clover — which the fused mixed-precision operator then
    /// *streams* as f16), the software-prefetch mode, and an L2
    /// traversal budget of half the backend chip's per-core L2 (the
    /// other half is left to the output tiles and halo scratch). The
    /// tuned outer-iteration count is a model forecast, not a budget,
    /// so `fgmres.max_iterations` is left alone.
    pub fn with_tuned(mut self, tuned: &qdd_autotune::TunedParams) -> Self {
        self.schwarz = self.schwarz.with_tuned(tuned);
        self.precision = match tuned.precision {
            qdd_machine::Precision::Single => Precision::Single,
            qdd_machine::Precision::Half => Precision::HalfCompressed,
        };
        self.prefetch = match tuned.prefetch {
            qdd_machine::PrefetchMode::None => SwPrefetch::None,
            qdd_machine::PrefetchMode::L1 => SwPrefetch::L1,
            qdd_machine::PrefetchMode::L1L2 => SwPrefetch::L1L2,
        };
        let l2_kb = tuned.backend.instance().chip().l2_per_core_kb;
        self.l2_bytes = Some((l2_kb * 1024.0 / 2.0) as usize);
        self
    }

    /// The execution tuning the outer fused operators run with: storage
    /// follows the preconditioner precision for the f32 operator (the
    /// f64 outer operator always stays native — its constants are not
    /// pre-rounded, so compressed storage would change results).
    fn outer_tuning(&self, storage: StoragePrecision) -> FusedTuning {
        FusedTuning { storage, prefetch: self.prefetch, l2_bytes: self.l2_bytes }
    }
}

/// The preconditioner's operator, derived from the double-precision one:
/// cast to f32, with gauge and clover rounded through f16 for
/// [`Precision::HalfCompressed`] (so streaming them as genuine f16 later is
/// lossless). Every DD solve — single-rank, distributed, benchmarked —
/// builds its `M` on this.
pub fn preconditioner_operator(op: &WilsonClover<f64>, precision: Precision) -> WilsonClover<f32> {
    match precision {
        Precision::Single => op.cast::<f32>(),
        Precision::HalfCompressed => {
            let g16 = GaugeFieldF16::compress(&op.gauge().cast()).decompress();
            let c16 = CloverFieldF16::compress(&op.clover().cast()).decompress();
            WilsonClover::new(g16, c16, op.mass() as f32, *op.phases())
        }
    }
}

/// The assembled solver.
pub struct DdSolver {
    op: WilsonClover<f64>,
    pre: SchwarzPreconditioner<f32>,
    cfg: DdSolverConfig,
    /// Persistent worker pool shared by the Schwarz sweeps, the fused
    /// operator, and the blocked BLAS. Workers park between jobs, so a
    /// serial solve pays nothing for its existence.
    pool: WorkerPool,
    /// Full-lattice fused operator for the outer f64 matvec (`None` when
    /// the geometry does not admit the xy-tile layout).
    fused: Option<Box<dyn FullOperator<f64>>>,
    /// Same, in f32, for the mixed-precision outer loop.
    fused32: Option<Box<dyn FullOperator<f32>>>,
    /// Workspace fields for the outer solver (Krylov basis, residuals,
    /// operator outputs). Warmed by the first solve; later solves of the
    /// same geometry allocate only their returned solution vector.
    ws: Mutex<WorkspacePool<f64>>,
    /// f32 workspaces for the mixed-precision inner solves.
    ws32: Mutex<WorkspacePool<f32>>,
}

impl DdSolver {
    /// Build the solver. The f32 (or f16-compressed) preconditioner
    /// operator is derived from the double-precision `op`. Returns `None`
    /// if a clover site block is singular.
    pub fn new(op: WilsonClover<f64>, cfg: DdSolverConfig) -> Option<Self> {
        let op32 = preconditioner_operator(&op, cfg.precision);
        let pool = WorkerPool::new(resolve_workers(cfg.workers));
        let fused = build_full_operator_tuned(&op, cfg.outer_tuning(StoragePrecision::Native));
        // The f16-compressed preconditioner operator is already rounded
        // through f16, so streaming its constants as genuine f16 is
        // lossless: the mixed-precision matvec stays bitwise identical
        // while the hot loop moves half the bytes.
        let storage32 = match cfg.precision {
            Precision::Single => StoragePrecision::Native,
            Precision::HalfCompressed => StoragePrecision::Half,
        };
        let fused32 = build_full_operator_tuned(&op32, cfg.outer_tuning(storage32));
        // Last, so the block constants are the newest (topmost) heap blocks:
        // at 864 B/site they stay under glibc's trim threshold (twice the
        // largest freed block, `op`'s 576 B/site fields), and dropping a
        // solver leaves the heap for the next set-up instead of returning
        // it to the OS to be page-faulted in again (measured: `setup_s` on
        // `serve_campaign` +17 % this way round, +34 % the other).
        let pre = SchwarzPreconditioner::new(op32, cfg.schwarz)?;
        Some(Self {
            op,
            pre,
            cfg,
            pool,
            fused,
            fused32,
            ws: Mutex::new(WorkspacePool::new()),
            ws32: Mutex::new(WorkspacePool::new()),
        })
    }

    #[inline]
    pub fn op(&self) -> &WilsonClover<f64> {
        &self.op
    }

    #[inline]
    pub fn config(&self) -> &DdSolverConfig {
        &self.cfg
    }

    /// `M`: one Schwarz application on the solver's pool, whatever its size
    /// (bitwise equal to the serial reference at every worker count).
    fn precondition(&self, v: &SpinorField<f32>, stats: &mut SolveStats) -> SpinorField<f32> {
        self.pre.apply_parallel(v, &self.pool, stats)
    }

    /// The outer system over `op`: the fused operator (the scalar site loop
    /// where the geometry admits none) with the blocked deterministic BLAS,
    /// bitwise independent of the worker count.
    fn system<'s, T: qdd_util::complex::Real>(
        &'s self,
        op: &'s WilsonClover<T>,
        fused: &'s Option<Box<dyn FullOperator<T>>>,
    ) -> FusedSystem<'s, T> {
        FusedSystem::new(op, fused.as_deref(), &self.pool)
    }

    /// Mixed-precision variant of [`Self::solve`] — the paper's Sec. VI
    /// future-work option: "the outer solver could be implemented in
    /// mixed-precision (single- and double-precision) ... do most of the
    /// linear algebra for basis orthogonalization and the operator
    /// application in single-precision."
    ///
    /// Outer loop: double-precision Richardson refinement on the true
    /// residual. Inner: the whole FGMRES-DR + Schwarz pipeline in f32,
    /// solving each correction to `inner_tolerance`. Gram-Schmidt, the
    /// Krylov basis, and the operator applications inside the inner solver
    /// all run in single precision; only one f64 residual per correction
    /// remains.
    pub fn solve_mixed(
        &self,
        f: &SpinorField<f64>,
        inner_tolerance: f64,
        stats: &mut SolveStats,
    ) -> (SpinorField<f64>, SolveOutcome) {
        let dims = *f.dims();
        let tol = self.cfg.fgmres.tolerance;
        let mut outcome = SolveOutcome {
            converged: false,
            iterations: 0,
            cycles: 0,
            relative_residual: 1.0,
            history: vec![1.0],
            breakdown: None,
        };
        stats.span_begin(qdd_trace::Phase::Solve);
        let f_norm = f.norm();
        stats.count_global_sum();
        let mut x = SpinorField::<f64>::zeros(dims);
        if f_norm == 0.0 {
            outcome.converged = true;
            outcome.relative_residual = 0.0;
            outcome.history = vec![0.0];
            stats.span_end(qdd_trace::Phase::Solve);
            return (x, outcome);
        }
        stats.trace_residual(0, 1.0);

        let inner_cfg = FgmresConfig { tolerance: inner_tolerance, ..self.cfg.fgmres };
        let sys32 = self.system(self.pre.op(), &self.fused32);
        let mut precond = |v: &SpinorField<f32>, st: &mut SolveStats| self.precondition(v, st);
        // Hoisted workspaces: the refinement loop reuses one residual, one
        // operator output, and one cast buffer per precision for all
        // cycles, so steady state allocates nothing.
        let ws = &mut *self.ws.lock().unwrap();
        let ws32 = &mut *self.ws32.lock().unwrap();
        let mut r = ws.acquire(dims);
        r.copy_from(f);
        let mut ax = ws.acquire(dims);
        let mut d = ws.acquire(dims);
        let mut r32 = ws32.acquire(dims);
        // Each f32 inner solve gains a factor inner_tolerance; cap the
        // outer refinements generously.
        for _ in 0..60 {
            let rel = r.norm() / f_norm;
            stats.count_global_sum();
            if rel < tol {
                outcome.converged = true;
                break;
            }
            outcome.cycles += 1;
            stats.span_begin(qdd_trace::Phase::OuterIteration);
            // Inner f32 DD solve: A32 d = r.
            r32.cast_assign(&r);
            let (d32, inner_out) =
                fgmres_dr_with_workspace(&sys32, &r32, &mut precond, &inner_cfg, ws32, stats);
            outcome.iterations += inner_out.iterations;
            // Rescale the inner trajectory by the cycle-start residual so
            // the outer history has one entry per inner iteration
            // (`history.len() == iterations + 1`).
            outcome.history.extend(inner_out.history[1..].iter().map(|h| h * rel));
            d.cast_assign(&d32);
            x.axpy(qdd_util::complex::Complex::ONE, &d);
            // True f64 residual.
            self.op.apply(&mut ax, &x);
            stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
            stats.count_operator_application();
            r.copy_from(f);
            r.sub_assign(&ax);
            stats.span_end(qdd_trace::Phase::OuterIteration);
        }
        outcome.relative_residual = r.norm() / f_norm;
        ws.release(r);
        ws.release(ax);
        ws.release(d);
        ws32.release(r32);
        stats.count_global_sum();
        outcome.converged = outcome.relative_residual < tol;
        stats.span_end(qdd_trace::Phase::Solve);
        self.emit_par_counters(stats);
        (x, outcome)
    }

    /// Solve `A x = f` to the configured tolerance.
    pub fn solve(
        &self,
        f: &SpinorField<f64>,
        stats: &mut SolveStats,
    ) -> (SpinorField<f64>, SolveOutcome) {
        self.solve_in(f, &mut self.ws.lock().unwrap(), stats)
    }

    /// [`Self::solve`] with the outer solver's temporaries drawn from `ws`.
    fn solve_in(
        &self,
        f: &SpinorField<f64>,
        ws: &mut WorkspacePool<f64>,
        stats: &mut SolveStats,
    ) -> (SpinorField<f64>, SolveOutcome) {
        let sys = self.system(&self.op, &self.fused);
        let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
            self.precondition(&r.cast(), st).cast()
        };
        let out = fgmres_dr_with_workspace(&sys, f, &mut precond, &self.cfg.fgmres, ws, stats);
        self.emit_par_counters(stats);
        out
    }

    /// Fields ever allocated by the outer solver's f64 workspace pool —
    /// tests assert this stays flat across repeated solves.
    pub fn outer_workspace_allocations(&self) -> usize {
        self.ws.lock().unwrap().allocations()
    }

    /// Record the worker-pool utilization counters (`par.*`) on the
    /// trace sink. No-op when tracing is disabled.
    fn emit_par_counters(&self, stats: &SolveStats) {
        let sink = stats.sink();
        sink.counter(qdd_trace::Phase::PoolJob, "par.workers", self.pool.workers() as f64);
        sink.counter(qdd_trace::Phase::PoolJob, "par.jobs", self.pool.jobs_dispatched() as f64);
        sink.counter(
            qdd_trace::Phase::PoolJob,
            "par.fused_outer",
            if self.fused.is_some() || self.fused32.is_some() { 1.0 } else { 0.0 },
        );
    }

    /// Solve `A x_j = f_j` for a batch of right-hand sides against this
    /// solver's prepared operator.
    ///
    /// This is the multi-RHS entry point the solve service batches
    /// through: the expensive setup (clover inversion, precision
    /// conversion, domain coloring — all done in [`DdSolver::new`]) is
    /// paid once for the whole batch, and every temporary field — Krylov
    /// workspace and per-RHS true-residual verification — comes from the
    /// caller's `pool`: steady state allocates nothing, and a solver that
    /// only serves batches (a cached one in `qdd-serve`) holds constants,
    /// the workspaces existing once per caller. Each right-hand side runs
    /// the same code path as [`Self::solve`]; a batched solve is therefore
    /// bitwise identical to N independent solves on the same solver.
    ///
    /// The verification guards against the f32/f16 preconditioner
    /// silently corrupting a solution: if the true double-precision
    /// residual misses the configured tolerance, the outcome is demoted to
    /// `converged = false` with the measured residual.
    pub fn solve_batch(
        &self,
        rhs: &[SpinorField<f64>],
        pool: &mut WorkspacePool<f64>,
        stats: &mut SolveStats,
    ) -> Vec<(SpinorField<f64>, SolveOutcome)> {
        let mut results = Vec::with_capacity(rhs.len());
        for f in rhs {
            // One solve at a time on the solver's worker pool, as in `solve`
            // (the same lock); only the fields come from the caller.
            let one_at_a_time = self.ws.lock().unwrap();
            let (x, mut out) = self.solve_in(f, pool, stats);
            drop(one_at_a_time);
            let f_norm = f.norm();
            if f_norm > 0.0 {
                let mut ax = pool.acquire(*f.dims());
                self.op.apply(&mut ax, &x);
                stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
                stats.count_operator_application();
                let mut r = pool.acquire(*f.dims());
                r.copy_from(f);
                r.sub_assign(&ax);
                let true_rel = r.norm() / f_norm;
                pool.release(ax);
                pool.release(r);
                if out.converged && true_rel > self.cfg.fgmres.tolerance {
                    out.converged = false;
                    out.relative_residual = true_rel;
                }
            }
            results.push((x, out));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::{bicgstab, BiCgStabConfig};
    use crate::mr::MrConfig;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
    }

    fn config(block: Dims, i_schwarz: usize, i_domain: usize) -> DdSolverConfig {
        DdSolverConfig {
            fgmres: FgmresConfig {
                max_basis: 8,
                deflate: 4,
                tolerance: 1e-10,
                max_iterations: 400,
            },
            schwarz: SchwarzConfig {
                block,
                i_schwarz,
                mr: MrConfig { iterations: i_domain, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn with_tuned_applies_the_tuned_operating_point() {
        let tuned = qdd_autotune::TunedParams {
            backend: qdd_machine::BackendKind::KnlFlat,
            block: Dims::new(4, 4, 2, 2),
            precision: qdd_machine::Precision::Half,
            prefetch: qdd_machine::PrefetchMode::L1L2,
            i_schwarz: 8,
            i_domain: 6,
            outer_iterations: 250,
            predicted_total_s: 1.0,
            raw_total_s: 1.0,
            predicted_m_gflops: 100.0,
            load: 0.9,
            can_hide: true,
        };
        let cfg = DdSolverConfig::default().with_tuned(&tuned);
        assert_eq!(cfg.schwarz.block, Dims::new(4, 4, 2, 2));
        assert_eq!(cfg.schwarz.i_schwarz, 8);
        assert_eq!(cfg.schwarz.mr.iterations, 6);
        assert_eq!(cfg.precision, Precision::HalfCompressed);
        // Half precision extends to the preconditioner's halo wire format,
        // and the fused-outer execution knobs follow the backend model.
        assert!(cfg.schwarz.f16_faces);
        assert_eq!(cfg.prefetch, SwPrefetch::L1L2);
        let l2_kb = qdd_machine::BackendKind::KnlFlat.instance().chip().l2_per_core_kb;
        assert_eq!(cfg.l2_bytes, Some((l2_kb * 1024.0 / 2.0) as usize));
        // The forecasted outer count is a prediction, not a budget.
        assert_eq!(cfg.fgmres.max_iterations, DdSolverConfig::default().fgmres.max_iterations);

        // A tuned solver builds and converges on a matching lattice.
        let dims = Dims::new(8, 8, 4, 4);
        let op = operator(dims, 0.5, 0.2, 107);
        let mut full = config(Dims::new(4, 4, 2, 2), 4, 4).with_tuned(&tuned);
        full.fgmres.tolerance = 1e-8;
        let solver = DdSolver::new(op, full).unwrap();
        let mut rng = Rng64::new(108);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let (_, out) = solver.solve(&f, &mut stats);
        assert!(out.converged, "tuned config must still converge: {}", out.relative_residual);
    }

    #[test]
    fn dd_solver_converges_to_double_precision_target() {
        let dims = Dims::new(8, 8, 4, 4);
        let op = operator(dims, 0.5, 0.2, 101);
        let solver = DdSolver::new(op, config(Dims::new(4, 4, 2, 2), 4, 4)).unwrap();
        let mut rng = Rng64::new(102);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve(&f, &mut stats);
        assert!(out.converged, "residual {}", out.relative_residual);
        assert!(out.relative_residual < 1e-9);
        // True residual confirms (the preconditioner ran in f32!).
        let mut ax = SpinorField::zeros(dims);
        solver.op().apply(&mut ax, &x);
        let mut r = f.clone();
        r.sub_assign(&ax);
        assert!(r.norm() / f.norm() < 1e-9);
    }

    #[test]
    fn dd_needs_far_fewer_outer_iterations_than_bicgstab() {
        let dims = Dims::new(8, 8, 4, 4);
        let mut rng = Rng64::new(103);
        let f = SpinorField::<f64>::random(dims, &mut rng);

        let op = operator(dims, 0.5, 0.15, 104);
        let mut s_dd = SolveStats::new();
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.15, 104), config(Dims::new(4, 4, 2, 2), 6, 4))
                .unwrap();
        let (_, dd_out) = solver.solve(&f, &mut s_dd);
        assert!(dd_out.converged);

        let mut s_bi = SolveStats::new();
        let (_, bi_out) = bicgstab(
            &crate::system::LocalSystem::new(&op),
            &f,
            &BiCgStabConfig { tolerance: 1e-10, max_iterations: 20_000 },
            &mut s_bi,
        );
        assert!(bi_out.converged);

        // The headline algorithmic effect: outer iterations (and hence
        // global sums) collapse by a large factor.
        assert!(
            (dd_out.iterations as f64) < 0.25 * bi_out.iterations as f64,
            "DD {} vs BiCGstab {}",
            dd_out.iterations,
            bi_out.iterations
        );
        assert!(
            (s_dd.global_sums() as f64) < 0.5 * s_bi.global_sums() as f64,
            "DD sums {} vs BiCGstab sums {}",
            s_dd.global_sums(),
            s_bi.global_sums()
        );
    }

    #[test]
    fn half_compressed_preconditioner_converges_like_single() {
        // Paper Sec. IV-B1: residual-vs-iteration differs by < 0.14%
        // between single and half preconditioner storage.
        let dims = Dims::new(8, 4, 4, 4);
        let mut rng = Rng64::new(105);
        let f = SpinorField::<f64>::random(dims, &mut rng);

        let mut cfg = config(Dims::new(4, 2, 2, 2), 4, 4);
        let solver_s = DdSolver::new(operator(dims, 0.5, 0.2, 106), cfg).unwrap();
        cfg.precision = Precision::HalfCompressed;
        let solver_h = DdSolver::new(operator(dims, 0.5, 0.2, 106), cfg).unwrap();

        let mut s1 = SolveStats::new();
        let (_, out_s) = solver_s.solve(&f, &mut s1);
        let mut s2 = SolveStats::new();
        let (_, out_h) = solver_h.solve(&f, &mut s2);
        assert!(out_s.converged && out_h.converged);
        // Same iteration count, or within one iteration of each other.
        let diff = (out_s.iterations as i64 - out_h.iterations as i64).abs();
        assert!(diff <= 1, "single {} vs half {}", out_s.iterations, out_h.iterations);
    }

    #[test]
    fn parallel_workers_give_identical_solution() {
        let dims = Dims::new(8, 8, 4, 4);
        let mut rng = Rng64::new(107);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut cfg = config(Dims::new(4, 4, 2, 2), 3, 4);
        let solver1 = DdSolver::new(operator(dims, 0.5, 0.2, 108), cfg).unwrap();
        cfg.workers = 4;
        let solver4 = DdSolver::new(operator(dims, 0.5, 0.2, 108), cfg).unwrap();
        let mut s1 = SolveStats::new();
        let mut s4 = SolveStats::new();
        let (x1, o1) = solver1.solve(&f, &mut s1);
        let (x4, o4) = solver4.solve(&f, &mut s4);
        assert_eq!(o1.iterations, o4.iterations);
        assert_eq!(x1.as_slice(), x4.as_slice());
    }

    #[test]
    fn mixed_precision_outer_reaches_double_target() {
        // Sec. VI future work: f32 outer solver + f64 refinement must hit
        // the same 1e-10 target with most flops in single precision.
        let dims = Dims::new(8, 8, 4, 4);
        let mut rng = Rng64::new(111);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.2, 112), config(Dims::new(4, 4, 2, 2), 5, 4))
                .unwrap();
        let mut stats = SolveStats::new();
        let (x, out) = solver.solve_mixed(&f, 1e-4, &mut stats);
        assert!(out.converged, "residual {}", out.relative_residual);
        assert!(out.relative_residual < 1e-10);
        // Cross-check against the standard solve.
        let mut st2 = SolveStats::new();
        let (x_ref, out_ref) = solver.solve(&f, &mut st2);
        assert!(out_ref.converged);
        let mut d = x.clone();
        d.sub_assign(&x_ref);
        assert!(d.norm() < 1e-8 * x_ref.norm());
        // One continuous trajectory descending from 1.0 to the target.
        assert_eq!(out.history.len(), out.iterations + 1);
        assert_eq!(out.history[0], 1.0);
        assert!(*out.history.last().unwrap() < 1e-9);
    }

    #[test]
    fn f16_spinor_storage_still_converges() {
        // Sec. VI future work: half-precision spinors in the block solves.
        let dims = Dims::new(8, 4, 4, 4);
        let mut rng = Rng64::new(113);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut cfg = config(Dims::new(4, 2, 2, 2), 5, 4);
        cfg.schwarz.mr.f16_vectors = true;
        let solver = DdSolver::new(operator(dims, 0.5, 0.2, 114), cfg).unwrap();
        let mut stats = SolveStats::new();
        let (_, out) = solver.solve(&f, &mut stats);
        assert!(out.converged, "residual {}", out.relative_residual);
        // Compare iteration counts against the f32-spinor run: the f16
        // storage may cost a few extra outer iterations but not blow up.
        let mut cfg32 = config(Dims::new(4, 2, 2, 2), 5, 4);
        cfg32.schwarz.mr.f16_vectors = false;
        let solver32 = DdSolver::new(operator(dims, 0.5, 0.2, 114), cfg32).unwrap();
        let mut st = SolveStats::new();
        let (_, out32) = solver32.solve(&f, &mut st);
        assert!(
            out.iterations <= out32.iterations + 4,
            "f16 spinors degraded too much: {} vs {}",
            out.iterations,
            out32.iterations
        );
    }

    #[test]
    fn batched_solve_is_bitwise_identical_to_independent_solves() {
        let dims = Dims::new(8, 4, 4, 4);
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.2, 120), config(Dims::new(4, 2, 2, 2), 4, 4))
                .unwrap();
        let mut rng = Rng64::new(121);
        let rhs: Vec<SpinorField<f64>> =
            (0..3).map(|_| SpinorField::random(dims, &mut rng)).collect();

        let mut pool = WorkspacePool::new();
        let mut stats = SolveStats::new();
        let batched = solver.solve_batch(&rhs, &mut pool, &mut stats);

        for (f, (x, out)) in rhs.iter().zip(&batched) {
            assert!(out.converged, "residual {}", out.relative_residual);
            let mut st = SolveStats::new();
            let (x_ref, out_ref) = solver.solve(f, &mut st);
            // Same code path per RHS: bitwise identical solutions and
            // residual trajectories.
            assert_eq!(x.as_slice(), x_ref.as_slice());
            assert_eq!(out.iterations, out_ref.iterations);
            assert_eq!(out.history, out_ref.history);
        }
    }

    #[test]
    fn workspace_pool_reused_across_repeated_batches() {
        let dims = Dims::new(8, 4, 4, 4);
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.2, 122), config(Dims::new(4, 2, 2, 2), 4, 4))
                .unwrap();
        let mut rng = Rng64::new(123);
        let rhs: Vec<SpinorField<f64>> =
            (0..2).map(|_| SpinorField::random(dims, &mut rng)).collect();

        let mut pool = WorkspacePool::new();
        let mut stats = SolveStats::new();
        let _ = solver.solve_batch(&rhs, &mut pool, &mut stats);
        let after_first = pool.allocations();
        assert!(after_first > 0, "verification must draw from the pool");
        for _ in 0..3 {
            let _ = solver.solve_batch(&rhs, &mut pool, &mut stats);
        }
        // Steady state: every later batch recycles the first batch's
        // fields; no new allocation with unchanged geometry.
        assert_eq!(pool.allocations(), after_first, "workspaces were reallocated");
        assert_eq!(pool.pooled(), after_first);
        // The Krylov workspace is the caller's too: a solver that only
        // serves batches (a cached one in qdd-serve) holds none of its own.
        assert_eq!(solver.outer_workspace_allocations(), 0);
    }

    #[test]
    fn solver_workspace_pools_take_back_only_their_own_fields() {
        // Regression: the outer solver released the preconditioner's
        // freshly allocated z-vectors (and the mixed loop its inner
        // solutions) into the pools, which then grew by one field per
        // outer iteration, forever, inside a cached solver.
        let dims = Dims::new(8, 4, 4, 4);
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.2, 124), config(Dims::new(4, 2, 2, 2), 1, 2))
                .unwrap();
        let mut rng = Rng64::new(125);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let pooled = |s: &DdSolver| {
            let (ws, ws32) = (s.ws.lock().unwrap(), s.ws32.lock().unwrap());
            assert_eq!(ws.pooled(), ws.allocations(), "a foreign field entered the f64 pool");
            assert_eq!(ws32.pooled(), ws32.allocations(), "a foreign field entered the f32 pool");
            (ws.pooled(), ws32.pooled())
        };
        let (_, out) = solver.solve(&f, &mut stats);
        assert!(out.iterations > 8, "the solve must restart to exercise deflation");
        let _ = solver.solve_mixed(&f, 1e-4, &mut stats);
        let warm = pooled(&solver);
        assert!(warm.0 > 0 && warm.1 > 0);
        for _ in 0..3 {
            let _ = solver.solve(&f, &mut stats);
            let _ = solver.solve_mixed(&f, 1e-4, &mut stats);
            assert_eq!(pooled(&solver), warm, "pool size must be flat from the second solve on");
        }
    }

    #[test]
    fn workspace_pool_drops_stale_geometry() {
        let mut pool = WorkspacePool::<f64>::new();
        let small = Dims::new(4, 4, 4, 4);
        let large = Dims::new(8, 4, 4, 4);
        let a = pool.acquire(small);
        pool.release(a);
        assert_eq!((pool.allocations(), pool.pooled()), (1, 1));
        // New geometry: the cached small field cannot be recycled.
        let b = pool.acquire(large);
        assert_eq!(*b.dims(), large);
        assert_eq!((pool.allocations(), pool.pooled()), (2, 0));
        // Releasing the stale-geometry field after the switch drops it.
        let c = pool.acquire(small);
        pool.release(b);
        assert_eq!(pool.pooled(), 0);
        drop(c);
    }

    #[test]
    fn preconditioner_dominates_flop_budget() {
        // Paper Table III: M takes 80-90% of the time; in flops it
        // dominates similarly.
        let dims = Dims::new(8, 8, 4, 4);
        let mut rng = Rng64::new(109);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let solver =
            DdSolver::new(operator(dims, 0.5, 0.2, 110), config(Dims::new(4, 4, 2, 2), 8, 4))
                .unwrap();
        let mut stats = SolveStats::new();
        let (_, out) = solver.solve(&f, &mut stats);
        assert!(out.converged);
        let fracs = stats.flop_fractions();
        // Component order: A, M, GS, Other.
        assert!(fracs[1] > 0.7, "M fraction {}", fracs[1]);
    }
}
