//! Every call into the workspace crates: input generation, constructors,
//! solve entry points, the solves recomposed from the layers' public
//! functions for tracing, and the kernel calls. When a refactor on the
//! ROADMAP moves or merges one of these entry points, this file is the one
//! place a later benchmark PR re-points. Nothing here is timed except
//! where a function says it returns seconds.

use crate::kernels::{Bench, Work};
use crate::report::Digest;
use crate::spans::{Span, Spans};
use qdd_comm::{
    dd_solve_distributed, exchange_halo, run_spmd, scatter_clover, scatter_field, scatter_gauge,
    CommWorld, DistDdConfig, DistSchwarz, DistSystem,
};
use qdd_core::blas;
use qdd_core::{
    bicgstab, fgmres_dr, mr_solve_schur, BiCgStabConfig, DdSolver, DdSolverConfig, FgmresConfig,
    FusedSystem, MrConfig, Precision, SchwarzConfig, SchwarzPreconditioner, SolveOutcome,
    SystemOps, WorkerPool,
};
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_dirac::boundary::pack_for_forward_hop;
use qdd_dirac::fused::{fused_from_cb, FusedSchur};
use qdd_dirac::fused_full::{build_full_operator_tuned, FusedTuning, StoragePrecision};
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_dirac::{build_clover_field, FullOperator, SerialRunner};
use qdd_field::fields::{CloverFieldF16, GaugeField, GaugeFieldF16, SpinorField};
use qdd_field::fused::FusedField;
use qdd_field::spinor::Spinor;
use qdd_field::su3::Su3;
use qdd_lattice::{Dims, Dir, DomainGrid, RankGrid, SiteIndexer};
use qdd_machine::BackendKind;
use qdd_serve::{
    join_against_model, serve, ConfigKey, ConfigSource, ServeStatus, ServiceConfig, SolveRequest,
};
use qdd_trace::model::keys;
use qdd_trace::TraceSink;
use qdd_util::complex::{Complex, Real};
use qdd_util::half::F16;
use qdd_util::stats::SolveStats;
use std::hint::black_box;
use std::time::Instant;

pub use qdd_util::rng::Rng64;

pub type Gauge = GaugeField<f64>;
pub type Field = SpinorField<f64>;

/// Clover coefficient of every workload.
const CSW: f64 = 1.5;
/// The paper's operating point: 4^4 blocks, ISchwarz 5, Idomain 4,
/// FGMRES-DR(10, 4).
const BLOCK: [usize; 4] = [4, 4, 4, 4];
const I_SCHWARZ: usize = 5;
const I_DOMAIN: usize = 4;
/// Inner tolerance of the mixed-precision outer loop.
const MIXED_INNER_TOLERANCE: f64 = 1e-4;

/// Size and physics of one workload's operator.
#[derive(Copy, Clone, Debug)]
pub struct Shape {
    pub dims: [usize; 4],
    pub mass: f64,
    pub spread: f64,
    pub tolerance: f64,
    /// Names the workload's fixed gauge orbit and sources.
    pub ensemble: u64,
}

fn dims4([x, y, z, t]: [usize; 4]) -> Dims {
    Dims::new(x, y, z, t)
}

impl Shape {
    fn dims(&self) -> Dims {
        dims4(self.dims)
    }
}

// ---------------------------------------------------------------- inputs

/// A random element of the 24 signed permutation matrices of determinant
/// one. They form a subgroup of SU(3) whose action on a link or a color
/// vector only permutes and negates components, which is exact in f64,
/// f32 and f16 alike.
fn signed_permutation(rng: &mut Rng64) -> Su3<f64> {
    const PERMS: [([usize; 3], f64); 6] = [
        ([0, 1, 2], 1.0),
        ([1, 2, 0], 1.0),
        ([2, 0, 1], 1.0),
        ([0, 2, 1], -1.0),
        ([2, 1, 0], -1.0),
        ([1, 0, 2], -1.0),
    ];
    let (perm, parity) = PERMS[rng.below(6)];
    let s0 = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let s1 = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let signs = [s0, s1, parity * s0 * s1];
    let mut m = Su3::ZERO;
    for row in 0..3 {
        m.0[row][perm[row]] = Complex::new(signs[row], 0.0);
    }
    m
}

/// One configuration with its sources, as the seed presents them.
///
/// The physical problem — the gauge orbit and the sources, drawn from
/// `shape.ensemble` and `config` — is the workload's fixed data set. The
/// run's `seed` draws a gauge transformation `g(x)` from the signed
/// permutations and hands the library `g U g^+` and `g s`. Every number
/// the library sees changes with the seed; the spectrum, and with it the
/// outer iteration count, does not. Across independently drawn
/// configurations the iteration count has a relative standard deviation
/// of 6 % (measured, 24 draws), more than any bound this benchmark
/// enforces, and rounding to f16 commutes with a signed permutation, so
/// the half-precision workloads are as steady as the f32 ones.
pub fn make_inputs(shape: &Shape, config: u64, n_sources: usize, seed: u64) -> (Gauge, Vec<Field>) {
    let dims = shape.dims();
    let mut rng = Rng64::new(shape.ensemble.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ config);
    let orbit = Gauge::random(dims, &mut rng, shape.spread);
    let sources: Vec<Field> = (0..n_sources).map(|_| Field::random(dims, &mut rng)).collect();

    let mut grng = Rng64::new(seed.wrapping_mul(0xd134_2543_de82_ef95) ^ config ^ shape.ensemble);
    let g: Vec<Su3<f64>> = (0..dims.volume()).map(|_| signed_permutation(&mut grng)).collect();
    let idx = SiteIndexer::new(dims);
    let mut gauge = orbit.clone();
    for c in idx.iter() {
        let site = idx.index(&c);
        for dir in Dir::ALL {
            let (fwd, _) = idx.neighbor_index(&c, dir, true);
            *gauge.link_mut(site, dir) = g[site].mul(orbit.link(site, dir)).mul_adj(&g[fwd]);
        }
    }
    let sources = sources
        .iter()
        .map(|s| Field::from_fn(dims, |i| Spinor(s.site(i).0.map(|c| g[i].mul_vec(c)))))
        .collect();
    (gauge, sources)
}

/// `gauge in hand` to operator: the clover term and the operator object.
fn build_operator(gauge: Gauge, mass: f64) -> WilsonClover<f64> {
    let clover = build_clover_field(&gauge, CSW, &GammaBasis::degrand_rossi());
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

/// The oracle: `|b - A x| / |b|` recomputed in f64 with the scalar site
/// loop, sharing no kernel with the fused paths under test.
pub fn true_residual(op: &WilsonClover<f64>, b: &Field, x: &Field) -> f64 {
    let mut r = Field::zeros(*b.dims());
    op.apply(&mut r, x);
    r.scale(Complex::new(-1.0, 0.0));
    r.axpy(Complex::ONE, b);
    r.norm() / b.norm()
}

pub fn field_values(x: &Field) -> impl Iterator<Item = f64> + '_ {
    x.as_slice().iter().flat_map(|s| {
        (0..12).flat_map(|c| {
            let z = s.component(c);
            [z.re, z.im]
        })
    })
}

fn fgmres_config(tolerance: f64) -> FgmresConfig {
    FgmresConfig { max_basis: 10, deflate: 4, tolerance, max_iterations: 2000 }
}

fn schwarz_config(f16_vectors: bool) -> SchwarzConfig {
    SchwarzConfig {
        block: dims4(BLOCK),
        i_schwarz: I_SCHWARZ,
        mr: MrConfig { iterations: I_DOMAIN, tolerance: 0.0, f16_vectors },
        ..SchwarzConfig::default()
    }
}

fn dd_config(tolerance: f64, half: bool) -> DdSolverConfig {
    DdSolverConfig {
        fgmres: fgmres_config(tolerance),
        schwarz: schwarz_config(half),
        precision: if half { Precision::HalfCompressed } else { Precision::Single },
        workers: 1,
        ..DdSolverConfig::default()
    }
}

// ------------------------------------------------------- solver workloads

/// Per-rank communication of one solve (rank 0; zero on one rank).
#[derive(Copy, Clone, Debug, Default)]
pub struct Comm {
    pub bytes_sent: f64,
    pub messages: u64,
    pub reductions: u64,
    pub recv_wait_s: f64,
    pub retries: u64,
    pub faults_injected: u64,
}

impl Comm {
    fn of(c: &qdd_trace::CommStats) -> Self {
        let f = &c.faults;
        Comm {
            bytes_sent: c.bytes_sent,
            messages: c.messages_sent,
            reductions: c.reductions,
            recv_wait_s: c.recv_wait_s,
            retries: f.retries,
            faults_injected: f.retries
                + f.timeouts
                + f.corruptions
                + f.delays
                + f.hiccups
                + f.peer_skips
                + f.zero_fills,
        }
    }
}

pub struct Solved {
    pub x: Field,
    pub converged: bool,
    pub iterations: usize,
    pub global_sums: u64,
    /// Wall time of the solve call alone.
    pub seconds: f64,
    pub comm: Comm,
}

/// What a traced solve adds: span lanes (one per recording thread), the
/// count of events the program's own `TraceSink` took, and the measured /
/// predicted ratios of the machine model (a prediction, for context).
pub struct Traced {
    pub lanes: Vec<(u32, Vec<Span>)>,
    pub sink_events: usize,
    pub model_err_dirac_apply: f64,
    pub model_err_schwarz_sweep: f64,
}

pub trait Solver: Sized {
    /// Everything between "gauge field in hand" and "the first solve can
    /// start"; returns the seconds it took.
    fn setup(gauge: Gauge, shape: &Shape) -> (Self, f64);
    /// The operator the oracle checks solutions against.
    fn oracle(&self) -> &WilsonClover<f64>;
    /// The library's entry point, tracing off.
    fn solve(&self, b: &Field) -> Solved;
    /// The same solve composed from the layers' public functions exactly
    /// as the entry point composes it, with spans around every call into
    /// a layer and the program's own sink attached. Must be bitwise equal
    /// to [`Solver::solve`].
    fn solve_traced(&self, b: &Field, epoch: Instant, solve_id: u32) -> (Solved, Traced);
    /// Seconds `dd_single` takes for the same solve, where the workload is
    /// a strong-scaled version of it.
    fn single_rank_reference_s(&self, _b: &Field) -> Option<f64> {
        None
    }
}

/// `SystemOps` decorator: spans `A` around operator applications and
/// `global_sum` around reductions; everything else passes through.
struct Timed<'a, S> {
    inner: S,
    spans: &'a Spans,
}

impl<T: Real, S: SystemOps<T>> SystemOps<T> for Timed<'_, S> {
    fn local_dims(&self) -> Dims {
        self.inner.local_dims()
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats) {
        let _s = self.spans.enter("A");
        self.inner.apply(out, inp, stats)
    }

    fn apply_adjoint(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        stats: &mut SolveStats,
    ) {
        let _s = self.spans.enter("A");
        self.inner.apply_adjoint(out, inp, stats)
    }

    fn apply_flops(&self) -> f64 {
        self.inner.apply_flops()
    }

    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T> {
        let _s = self.spans.enter("global_sum");
        self.inner.dot(a, b, stats)
    }

    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T {
        let _s = self.spans.enter("global_sum");
        self.inner.norm_sqr(a, stats)
    }

    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>> {
        let _s = self.spans.enter("global_sum");
        self.inner.dots_batched(vs, w, stats)
    }

    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T) {
        let _s = self.spans.enter("global_sum");
        self.inner.dot_and_norm(a, b, stats)
    }
}

/// Stats for a traced solve: the program's sink attached and its phase
/// clock on, so the shares can be cross-checked and the model joined.
fn traced_stats() -> (SolveStats, TraceSink) {
    let sink = TraceSink::enabled();
    let mut stats = SolveStats::new();
    stats.attach_sink(sink.clone());
    stats.enable_phase_timing();
    (stats, sink)
}

fn traced(
    lanes: Vec<(u32, Vec<Span>)>,
    sink: &TraceSink,
    stats: &SolveStats,
    precision: Precision,
    ranks: usize,
) -> Traced {
    let join = join_against_model(stats, BackendKind::Knc7110p, precision, I_DOMAIN, ranks);
    let ratio = |key| join.get(key).map_or(0.0, |e| e.ratio());
    Traced {
        lanes,
        sink_events: sink.events().len(),
        model_err_dirac_apply: ratio(keys::DIRAC_APPLY),
        model_err_schwarz_sweep: ratio(keys::SCHWARZ_SWEEP),
    }
}

/// The f32 (or f16-rounded) preconditioner operator, as `DdSolver::new`
/// and `dd_solve_distributed` derive it from the f64 operator.
fn preconditioner_operator(op: &WilsonClover<f64>, precision: Precision) -> WilsonClover<f32> {
    match precision {
        Precision::Single => op.cast::<f32>(),
        Precision::HalfCompressed => {
            let g16 = GaugeFieldF16::compress(&op.gauge().cast()).decompress();
            let c16 = CloverFieldF16::compress(&op.clover().cast()).decompress();
            WilsonClover::new(g16, c16, op.mass() as f32, *op.phases())
        }
    }
}

/// `dd_single` (`MIXED = false`, `DdSolver::solve`, f32 preconditioner)
/// and `dd_half_mixed` (`MIXED = true`, `DdSolver::solve_mixed`, f16
/// constants and f16 iteration vectors).
pub struct DdLocal<const MIXED: bool> {
    solver: DdSolver,
}

pub type DdSingle = DdLocal<false>;
pub type DdHalfMixed = DdLocal<true>;

fn apply_m(
    pre: &SchwarzPreconditioner<f32>,
    pool: &WorkerPool,
    v: &SpinorField<f32>,
    stats: &mut SolveStats,
) -> SpinorField<f32> {
    if pool.workers() > 1 {
        pre.apply_parallel(v, pool, stats)
    } else {
        pre.apply(v, stats)
    }
}

/// `DdSolver::solve_mixed`, step for step: f64 Richardson refinement on
/// the true residual around f32 FGMRES-DR + Schwarz corrections.
fn compose_mixed(
    solver: &DdSolver,
    f: &Field,
    pre: &SchwarzPreconditioner<f32>,
    pool: &WorkerPool,
    spans: &Spans,
    stats: &mut SolveStats,
) -> (Field, bool, usize) {
    let cfg = solver.config();
    let op = solver.op();
    let dims = *f.dims();
    let tol = cfg.fgmres.tolerance;
    let f_norm = f.norm();
    stats.count_global_sum();
    let mut x = Field::zeros(dims);
    if f_norm == 0.0 {
        return (x, true, 0);
    }
    let storage = match cfg.precision {
        Precision::Single => StoragePrecision::Native,
        Precision::HalfCompressed => StoragePrecision::Half,
    };
    let fused32 =
        build_full_operator_tuned(pre.op(), FusedTuning { storage, ..Default::default() });
    let inner_cfg = FgmresConfig { tolerance: MIXED_INNER_TOLERANCE, ..cfg.fgmres };
    let sys32 = Timed { inner: FusedSystem::new(pre.op(), fused32.as_deref(), pool), spans };
    let mut precond = |v: &SpinorField<f32>, st: &mut SolveStats| -> SpinorField<f32> {
        let _s = spans.enter("M");
        apply_m(pre, pool, v, st)
    };
    let mut r = f.clone();
    let mut ax = Field::zeros(dims);
    let mut d = Field::zeros(dims);
    let mut r32 = SpinorField::<f32>::zeros(dims);
    let mut iterations = 0;
    for _ in 0..60 {
        let rel = r.norm() / f_norm;
        stats.count_global_sum();
        if rel < tol {
            break;
        }
        r32.cast_assign(&r);
        let (d32, inner) = fgmres_dr(&sys32, &r32, &mut precond, &inner_cfg, stats);
        iterations += inner.iterations;
        d.cast_assign(&d32);
        x.axpy(Complex::ONE, &d);
        {
            let _s = spans.enter("A");
            op.apply(&mut ax, &x);
        }
        stats.count_operator_application();
        r.copy_from(f);
        r.sub_assign(&ax);
    }
    let rel = r.norm() / f_norm;
    stats.count_global_sum();
    (x, rel < tol, iterations)
}

impl<const MIXED: bool> Solver for DdLocal<MIXED> {
    fn setup(gauge: Gauge, shape: &Shape) -> (Self, f64) {
        let t = Instant::now();
        let op = build_operator(gauge, shape.mass);
        let solver =
            DdSolver::new(op, dd_config(shape.tolerance, MIXED)).expect("clover blocks invertible");
        (Self { solver }, t.elapsed().as_secs_f64())
    }

    fn oracle(&self) -> &WilsonClover<f64> {
        self.solver.op()
    }

    fn solve(&self, b: &Field) -> Solved {
        let mut stats = SolveStats::new();
        let t = Instant::now();
        let (x, out) = if MIXED {
            self.solver.solve_mixed(b, MIXED_INNER_TOLERANCE, &mut stats)
        } else {
            self.solver.solve(b, &mut stats)
        };
        let seconds = t.elapsed().as_secs_f64();
        Solved {
            x,
            converged: out.converged,
            iterations: out.iterations,
            global_sums: stats.global_sums(),
            seconds,
            comm: Comm::default(),
        }
    }

    fn solve_traced(&self, b: &Field, epoch: Instant, solve_id: u32) -> (Solved, Traced) {
        let cfg = *self.solver.config();
        let op = self.solver.op();
        // The pieces `DdSolver::new` assembles, from their public constructors.
        let pre =
            SchwarzPreconditioner::new(preconditioner_operator(op, cfg.precision), cfg.schwarz)
                .expect("clover blocks invertible");
        let pool = WorkerPool::new(cfg.workers);
        let fused = build_full_operator_tuned(op, FusedTuning::default());
        let spans = Spans::new(epoch);
        spans.set_solve(solve_id);
        let (mut stats, sink) = traced_stats();
        let t = Instant::now();
        let (x, converged, iterations) = {
            let _solve = spans.enter("solve");
            if MIXED {
                compose_mixed(&self.solver, b, &pre, &pool, &spans, &mut stats)
            } else {
                let sys =
                    Timed { inner: FusedSystem::new(op, fused.as_deref(), &pool), spans: &spans };
                let mut precond = |r: &Field, st: &mut SolveStats| -> Field {
                    let _s = spans.enter("M");
                    let r32: SpinorField<f32> = r.cast();
                    apply_m(&pre, &pool, &r32, st).cast()
                };
                let (x, out) = fgmres_dr(&sys, b, &mut precond, &cfg.fgmres, &mut stats);
                (x, out.converged, out.iterations)
            }
        };
        let seconds = t.elapsed().as_secs_f64();
        let solved = Solved {
            x,
            converged,
            iterations,
            global_sums: stats.global_sums(),
            seconds,
            comm: Comm::default(),
        };
        (solved, traced(vec![(0, spans.into_vec())], &sink, &stats, cfg.precision, 1))
    }
}

/// `krylov_single`: BiCGstab in f64 on the fused full-lattice operator.
pub struct Krylov {
    op: WilsonClover<f64>,
    fused: Option<Box<dyn FullOperator<f64>>>,
    pool: WorkerPool,
    cfg: BiCgStabConfig,
}

impl Krylov {
    fn run<S: SystemOps<f64>>(&self, sys: &S, b: &Field, stats: &mut SolveStats) -> Solved {
        let t = Instant::now();
        let (x, out) = bicgstab(sys, b, &self.cfg, stats);
        let seconds = t.elapsed().as_secs_f64();
        Solved {
            x,
            converged: out.converged,
            iterations: out.iterations,
            global_sums: stats.global_sums(),
            seconds,
            comm: Comm::default(),
        }
    }
}

impl Solver for Krylov {
    fn setup(gauge: Gauge, shape: &Shape) -> (Self, f64) {
        let t = Instant::now();
        let op = build_operator(gauge, shape.mass);
        let fused = build_full_operator_tuned(&op, FusedTuning::default());
        let pool = WorkerPool::new(1);
        let cfg = BiCgStabConfig { tolerance: shape.tolerance, max_iterations: 20_000 };
        (Self { op, fused, pool, cfg }, t.elapsed().as_secs_f64())
    }

    fn oracle(&self) -> &WilsonClover<f64> {
        &self.op
    }

    fn solve(&self, b: &Field) -> Solved {
        let sys = FusedSystem::new(&self.op, self.fused.as_deref(), &self.pool);
        self.run(&sys, b, &mut SolveStats::new())
    }

    fn solve_traced(&self, b: &Field, epoch: Instant, solve_id: u32) -> (Solved, Traced) {
        let spans = Spans::new(epoch);
        spans.set_solve(solve_id);
        let (mut stats, sink) = traced_stats();
        let sys = Timed {
            inner: FusedSystem::new(&self.op, self.fused.as_deref(), &self.pool),
            spans: &spans,
        };
        let solved = {
            let _solve = spans.enter("solve");
            self.run(&sys, b, &mut stats)
        };
        (solved, traced(vec![(0, spans.into_vec())], &sink, &stats, Precision::Single, 1))
    }
}

/// `dd_dist2`: `dd_solve_distributed` on a 1x1x1x2 rank grid, threads as
/// ranks, overlap on, f32 faces.
pub struct Dist2 {
    global: WilsonClover<f64>,
    world: CommWorld,
    local_ops: Vec<WilsonClover<f64>>,
    cfg: DistDdConfig,
}

const RANK_LAYOUT: [usize; 4] = [1, 1, 1, 2];

/// One rank's share of a distributed solve.
struct RankPart {
    x: Field,
    converged: bool,
    iterations: usize,
    global_sums: u64,
    comm: Comm,
}

impl RankPart {
    fn new(x: Field, out: &SolveOutcome, stats: &SolveStats, comm: Comm) -> Self {
        Self {
            x,
            converged: out.converged,
            iterations: out.iterations,
            global_sums: stats.global_sums(),
            comm,
        }
    }
}

impl Dist2 {
    fn gather(&self, parts: Vec<RankPart>, seconds: f64) -> Solved {
        let converged = parts.iter().all(|p| p.converged);
        let (iterations, global_sums, comm) =
            (parts[0].iterations, parts[0].global_sums, parts[0].comm);
        let locals: Vec<Field> = parts.into_iter().map(|p| p.x).collect();
        Solved {
            x: qdd_comm::gather_field(&locals, self.world.grid()),
            converged,
            iterations,
            global_sums,
            seconds,
            comm,
        }
    }
}

impl Solver for Dist2 {
    fn setup(gauge: Gauge, shape: &Shape) -> (Self, f64) {
        let cfg = DistDdConfig {
            fgmres: fgmres_config(shape.tolerance),
            schwarz: schwarz_config(false),
            precision: Precision::Single,
        };
        let grid = RankGrid::new(shape.dims(), dims4(RANK_LAYOUT));
        let phases = BoundaryPhases::antiperiodic_t();
        let t = Instant::now();
        let clover = build_clover_field(&gauge, CSW, &GammaBasis::degrand_rossi());
        let lg = scatter_gauge(&gauge, &grid);
        let lc = scatter_clover(&clover, &grid);
        let local_ops: Vec<WilsonClover<f64>> = lg
            .into_iter()
            .zip(lc)
            .map(|(g, c)| WilsonClover::new(g, c, shape.mass, phases))
            .collect();
        let scatter_s = t.elapsed().as_secs_f64();
        let world = CommWorld::new(grid);
        // The per-rank constructors borrow the rank context, so they are
        // timed where they can live and dropped; every solve rebuilds
        // them, as `dd_solve_distributed` does.
        let rank_s = run_spmd(&world, |ctx| {
            let t = Instant::now();
            let op = &local_ops[ctx.rank()];
            let op32 = preconditioner_operator(op, cfg.precision);
            let pre = DistSchwarz::new(ctx, &op32, cfg.schwarz);
            let sys = DistSystem::new(ctx, op).with_overlap(cfg.schwarz.overlap);
            black_box((&pre, &sys));
            t.elapsed().as_secs_f64()
        });
        let seconds = scatter_s + rank_s.into_iter().fold(0.0, f64::max);
        let global = WilsonClover::new(gauge, clover, shape.mass, phases);
        (Self { global, world, local_ops, cfg }, seconds)
    }

    fn oracle(&self) -> &WilsonClover<f64> {
        &self.global
    }

    fn solve(&self, b: &Field) -> Solved {
        let lb = scatter_field(b, self.world.grid());
        let t = Instant::now();
        let parts = run_spmd(&self.world, |ctx| {
            let r = ctx.rank();
            let mut stats = SolveStats::new();
            let (x, out, comm) =
                dd_solve_distributed(ctx, &self.local_ops[r], &lb[r], &self.cfg, &mut stats);
            RankPart::new(x, &out, &stats, Comm::of(&comm))
        });
        let seconds = t.elapsed().as_secs_f64();
        self.gather(parts, seconds)
    }

    fn solve_traced(&self, b: &Field, epoch: Instant, solve_id: u32) -> (Solved, Traced) {
        let lb = scatter_field(b, self.world.grid());
        let cfg = &self.cfg;
        let t = Instant::now();
        let parts = run_spmd(&self.world, |ctx| {
            let r = ctx.rank();
            let op = &self.local_ops[r];
            let spans = Spans::new(epoch);
            spans.set_solve(solve_id);
            let (mut stats, sink) = traced_stats();
            let before = ctx.counters.snapshot();
            let solve = spans.enter("solve");
            // `dd_solve_distributed`, step for step.
            let op32 = preconditioner_operator(op, cfg.precision);
            let pre = DistSchwarz::new(ctx, &op32, cfg.schwarz).expect("clover blocks invertible");
            let sys = Timed {
                inner: DistSystem::new(ctx, op).with_overlap(cfg.schwarz.overlap),
                spans: &spans,
            };
            let mut precond = |v: &Field, st: &mut SolveStats| -> Field {
                let _s = spans.enter("M");
                let v32: SpinorField<f32> = v.cast();
                pre.apply(&v32, st).cast()
            };
            let (x, out) = fgmres_dr(&sys, &lb[r], &mut precond, &cfg.fgmres, &mut stats);
            drop(solve);
            let comm = Comm::of(&ctx.counters.snapshot().since(&before));
            drop((precond, sys));
            let tr = traced(vec![(r as u32, spans.into_vec())], &sink, &stats, cfg.precision, 2);
            (RankPart::new(x, &out, &stats, comm), tr)
        });
        let seconds = t.elapsed().as_secs_f64();
        let (solved_parts, traces): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        let mut traces = traces.into_iter();
        let mut rank0 = traces.next().expect("a world has a rank 0");
        for tr in traces {
            rank0.lanes.extend(tr.lanes);
        }
        (self.gather(solved_parts, seconds), rank0)
    }

    fn single_rank_reference_s(&self, b: &Field) -> Option<f64> {
        let shape = Shape {
            dims: self.global.dims().0,
            mass: self.global.mass(),
            tolerance: self.cfg.fgmres.tolerance,
            spread: 0.0,
            ensemble: 0,
        };
        let (single, _) = DdSingle::setup(self.global.gauge().clone(), &shape);
        single.solve(b);
        Some(single.solve(b).seconds)
    }
}

// ------------------------------------------------------- serve_campaign

/// The campaign's ensemble: `configs` gauge-transformed configurations
/// behind the service's `ConfigSource`, and the operators the oracle
/// checks responses against.
pub struct Ensemble {
    shape: Shape,
    sources: Vec<Vec<Field>>,
    oracles: Vec<WilsonClover<f64>>,
}

impl ConfigSource for Ensemble {
    fn materialize(&self, key: ConfigKey) -> Option<WilsonClover<f64>> {
        let gauge = self.oracles.get(key.0 as usize)?.gauge().clone();
        Some(build_operator(gauge, self.shape.mass))
    }
}

/// One wave of the campaign.
#[derive(Clone, Debug, Default)]
pub struct Wave {
    pub seconds: f64,
    pub latency_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub iterations: Vec<usize>,
    pub failed: u64,
    /// Digest of the wave's solutions, in reply order.
    pub digest: Digest,
    /// `VmHWM` of the process when the wave's last reply arrived.
    pub peak_rss_mb: f64,
}

/// Service-side counters of one campaign, from its `ServiceReport`.
#[derive(Clone, Debug, Default)]
pub struct ServeLayer {
    pub queue_wait_p50_ms: f64,
    pub setup_miss_ms: f64,
    pub cache_hit_rate: f64,
    pub cache_evictions: f64,
    pub batches: f64,
    pub batch_size_mean: f64,
    pub worker_imbalance: f64,
    pub shed: f64,
    pub fallbacks: f64,
    pub sink_events: usize,
}

pub const SOURCES_PER_WAVE: usize = 12;

impl Ensemble {
    pub fn new(shape: &Shape, configs: usize, seed: u64) -> Self {
        let (mut oracles, mut sources) = (Vec::new(), Vec::new());
        for c in 0..configs {
            let (gauge, s) = make_inputs(shape, c as u64, SOURCES_PER_WAVE, seed);
            oracles.push(build_operator(gauge, shape.mass));
            sources.push(s);
        }
        Self { shape: *shape, sources, oracles }
    }

    fn service_config(&self, workers: usize) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 64,
            workers,
            max_batch: 6,
            cache_capacity: 3,
            solver: dd_config(self.shape.tolerance, false),
            fallback_max_iterations: 10_000,
            ..ServiceConfig::default()
        }
    }

    /// What the service does on a setup-cache miss, timed.
    pub fn setup_seconds(&self, config: usize) -> f64 {
        let t = Instant::now();
        let op = self.materialize(ConfigKey(config as u64)).expect("known config");
        let solver = DdSolver::new(op, dd_config(self.shape.tolerance, false));
        black_box(&solver);
        t.elapsed().as_secs_f64()
    }

    /// Closed loop, one generator: each wave submits the 12 sources of
    /// one configuration and waits for all 12 replies before the next.
    /// Waves are drawn from `next_config` until it returns `None`. Every
    /// response is checked by the oracle between waves, off the clock.
    /// With `trace` (the span epoch) the program's sink is enabled and the
    /// generator records `wave` > `submit`, `wait` spans.
    pub fn campaign(
        &self,
        workers: usize,
        trace: Option<Instant>,
        mut next_config: impl FnMut(usize) -> Option<usize> + Send,
    ) -> (Vec<Wave>, ServeLayer, Vec<Span>) {
        let svc = self.service_config(workers);
        let sink = if trace.is_some() { TraceSink::enabled() } else { TraceSink::disabled() };
        let tolerance = self.shape.tolerance;
        let ((waves, spans), report) = serve(&svc, self, &sink, |h| {
            let spans = trace.map(Spans::new);
            let enter = |name| spans.as_ref().map(|s| s.enter(name));
            let mut waves = Vec::new();
            while let Some(config) = next_config(waves.len()) {
                if let Some(s) = &spans {
                    s.set_solve(waves.len() as u32);
                }
                let wave_span = enter("wave");
                let mut wave = Wave::default();
                let requests: Vec<SolveRequest> = self.sources[config]
                    .iter()
                    .map(|s| {
                        let mut req = SolveRequest::new(ConfigKey(config as u64), s.clone());
                        req.tolerance = tolerance;
                        req
                    })
                    .collect();
                let t = Instant::now();
                let mut tickets = Vec::new();
                for req in requests {
                    let _s = enter("submit");
                    let t_submit = Instant::now();
                    match h.submit(req) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(_) => wave.failed += 1,
                    }
                    wave.submit_us.push(t_submit.elapsed().as_secs_f64() * 1e6);
                }
                let responses: Vec<_> = {
                    let _s = enter("wait");
                    tickets.into_iter().map(|t| t.wait()).collect()
                };
                wave.seconds = t.elapsed().as_secs_f64();
                drop(wave_span);
                wave.peak_rss_mb = crate::host::peak_rss_mb();
                for (resp, b) in responses.iter().zip(&self.sources[config]) {
                    let ok = resp.status == ServeStatus::Converged
                        && true_residual(&self.oracles[config], b, &resp.solution)
                            <= 10.0 * tolerance;
                    wave.failed += !ok as u64;
                    wave.latency_ms.push(resp.latency.as_secs_f64() * 1e3);
                    wave.iterations.push(resp.iterations);
                    wave.digest.update(field_values(&resp.solution));
                }
                waves.push(wave);
            }
            (waves, spans.map_or(Vec::new(), Spans::into_vec))
        });
        let m = &report.metrics;
        let layer = ServeLayer {
            queue_wait_p50_ms: report.queue_wait.quantile_ms(0.5),
            setup_miss_ms: m.summary("serve.setup_ms").map_or(0.0, |s| s.mean()),
            cache_hit_rate: report.cache_hit_rate,
            cache_evictions: m.counter("serve.cache.evictions"),
            batches: m.counter("serve.batches"),
            batch_size_mean: m.summary("serve.batch.size").map_or(0.0, |s| s.mean()),
            worker_imbalance: m.gauge("serve.worker.imbalance").unwrap_or(1.0),
            shed: m.counter("serve.shed.expired") + report.rejected as f64,
            fallbacks: m.counter("serve.fallbacks"),
            sink_events: sink.events().len(),
        };
        (waves, layer, spans)
    }
}

// ---------------------------------------------------------------- kernels

/// Lattices of the kernel rows: the DD workloads' (cache-resident 4^4
/// domains on 8^3x16) and the Krylov workload's (16^4, constants larger
/// than the last-level cache).
const KERNEL_DD: [usize; 4] = [8, 8, 8, 16];
const KERNEL_BIG: [usize; 4] = [16, 16, 16, 16];

fn kernel_operator(dims: [usize; 4], seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    build_operator(Gauge::random(dims4(dims), &mut rng, 0.45), 0.2)
}

/// Bytes one scalar `WilsonClover::apply` must move per site, computed
/// from array sizes: 4 links of 18 reals, the 72-real clover diagonal,
/// one spinor read and one written.
fn scalar_apply_bytes_per_site<T>() -> f64 {
    ((4 * 18 + 72 + 24 + 24) * std::mem::size_of::<T>()) as f64
}

/// Run every kernel row through `bench`. `small` shrinks the lattices for
/// smoke runs.
pub fn run_kernels(bench: &mut Bench, small: bool) {
    let dd_dims = if small { [4, 4, 4, 8] } else { KERNEL_DD };
    let big_dims = if small { [8, 8, 8, 8] } else { KERNEL_BIG };

    // qdd-util: software half conversion.
    {
        let n = 1 << 16;
        let src: Vec<f32> = (0..n).map(|i| (i as f32 - 3.0e4) * 1.0e-3).collect();
        let mut halves = vec![F16(0); n];
        bench.run("util.f32_to_f16", Work::f32(n as f64, 6.0 * n as f64), &mut || {
            for (h, &x) in halves.iter_mut().zip(&src) {
                *h = F16::from_f32(x);
            }
            black_box(&mut halves);
        });
        let mut back = vec![0.0f32; n];
        bench.run("util.f16_to_f32", Work::f32(n as f64, 6.0 * n as f64), &mut || {
            for (x, &h) in back.iter_mut().zip(&halves) {
                *x = h.to_f32();
            }
            black_box(&mut back);
        });
    }

    let op = kernel_operator(dd_dims, 11);
    let dims = *op.dims();
    let sites = dims.volume() as f64;
    let mut rng = Rng64::new(12);
    let v64 = Field::random(dims, &mut rng);

    // qdd-field.
    bench.run("field.cast_f64_f32", Work::bytes(sites * 24.0 * 12.0), &mut || {
        black_box(v64.cast::<f32>());
    });
    let g32 = op.gauge().cast::<f32>();
    let c32 = op.clover().cast::<f32>();
    bench.run("field.f16_compress", Work::bytes(sites * (72.0 + 72.0) * 6.0), &mut || {
        black_box(GaugeFieldF16::compress(&g32).decompress());
        black_box(CloverFieldF16::compress(&c32).decompress());
    });
    let grid2 = RankGrid::new(dims, dims4(RANK_LAYOUT));
    bench.run("field.scatter", Work::bytes(sites * (72.0 + 72.0 + 24.0) * 16.0), &mut || {
        black_box(scatter_gauge(op.gauge(), &grid2));
        black_box(scatter_clover(op.clover(), &grid2));
        black_box(scatter_field(&v64, &grid2));
    });

    // qdd-dirac: clover construction, face packing, the scalar oracle.
    let basis = GammaBasis::degrand_rossi();
    bench.run("dirac.clover_build", Work::bytes(sites * (72.0 + 72.0) * 8.0), &mut || {
        black_box(build_clover_field(op.gauge(), CSW, &basis));
    });
    let face = dims.face_area(Dir::T) as f64;
    bench.run("dirac.pack_face", Work::bytes(face * (24.0 + 12.0) * 8.0), &mut || {
        black_box(pack_for_forward_hop(&op, &v64, Dir::T, 1.0));
    });
    let mut out64 = Field::zeros(dims);
    let scalar = Work::f64(op.apply_flops(), sites * scalar_apply_bytes_per_site::<f64>());
    bench.run("dirac.apply_scalar_f64", scalar, &mut || {
        op.apply(&mut out64, &v64);
        black_box(&mut out64);
    });

    // qdd-dirac: the fused full-lattice operator on the big lattice.
    {
        let big = kernel_operator(big_dims, 13);
        let bdims = *big.dims();
        let bsites = bdims.volume() as f64;
        let inp64 = Field::random(bdims, &mut rng);
        let mut o64 = Field::zeros(bdims);
        let f64op = build_full_operator_tuned(&big, FusedTuning::default()).expect("even extents");
        let bytes = bsites * f64op.streamed_bytes_per_site() as f64;
        bench.run("dirac.fused_f64", Work::f64(big.apply_flops(), bytes), &mut || {
            f64op.apply(&mut o64, &inp64, &SerialRunner);
            black_box(&mut o64);
        });
        drop(f64op);

        // qdd-core BLAS-1 on the same vectors the Krylov workload streams.
        let pool1 = WorkerPool::new(1);
        let vbytes = bsites * 24.0 * 8.0;
        let l1 = blas::level1_flops(bdims.volume());
        bench.run("core.blas_dot", Work::f64(l1, 2.0 * vbytes), &mut || {
            black_box(blas::par_dot(&pool1, inp64.as_slice(), o64.as_slice()));
        });
        let alpha = Complex::new(1.0e-3, 2.0e-3);
        bench.run("core.blas_axpy", Work::f64(l1, 3.0 * vbytes), &mut || {
            blas::par_axpy(&pool1, o64.as_mut_slice(), alpha, inp64.as_slice());
            black_box(&mut o64);
        });
        drop(o64);

        let inp32: SpinorField<f32> = inp64.cast();
        let mut o32 = SpinorField::<f32>::zeros(bdims);
        let big32 = preconditioner_operator(&big, Precision::HalfCompressed);
        for (name, storage) in [
            ("dirac.fused_f32", StoragePrecision::Native),
            ("dirac.fused_f32h", StoragePrecision::Half),
        ] {
            let fop =
                build_full_operator_tuned(&big32, FusedTuning { storage, ..Default::default() })
                    .expect("even extents");
            let bytes = bsites * fop.streamed_bytes_per_site() as f64;
            bench.run(name, Work::f32(big32.apply_flops(), bytes), &mut || {
                fop.apply(&mut o32, &inp32, &SerialRunner);
                black_box(&mut o32);
            });
        }
    }

    // qdd-dirac / qdd-core: one 4^4 domain of the f32 preconditioner.
    let op32 = op.cast::<f32>();
    let block = dims4(BLOCK);
    let grid = DomainGrid::new(dims, block);
    let fields = DomainFields::new(&op32).expect("clover blocks invertible");
    let schur = SchurOperator::new(&op32, &fields, grid.domain(0));
    let n = schur.cb_len();
    let rhs: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
    let mut q = vec![Spinor::ZERO; n];
    let mut scratch = vec![Spinor::ZERO; 2 * n];
    // Computed bytes of one Schur apply: the domain's links, its clover
    // diagonal and inverse, the even input and output.
    let bsites = block.volume() as f64;
    let schur_bytes = (bsites * (72.0 + 72.0 + 72.0) + 2.0 * n as f64 * 24.0) * 4.0;
    let schur_work = Work::f32(schur.schur_flops(), schur_bytes);
    bench.run("dirac.schur_scalar", schur_work, &mut || {
        schur.apply_schur(&mut q, &rhs, &mut scratch);
        black_box(&mut q);
    });
    {
        let fschur =
            FusedSchur::<f32, 8>::new(&op32, &grid.domain(0)).expect("clover blocks invertible");
        let zeros = vec![Spinor::ZERO; n];
        let finp = fused_from_cb::<f32, 8>(block, &rhs, &zeros);
        let mut fout = FusedField::<f32, 8>::zeros(block);
        let mut s1 = FusedField::<f32, 8>::zeros(block);
        let mut s2 = FusedField::<f32, 8>::zeros(block);
        bench.run("dirac.schur_fused", schur_work, &mut || {
            fschur.apply_schur(&mut fout, &finp, &mut s1, &mut s2);
            black_box(&mut fout);
        });
    }
    let mut u = vec![Spinor::ZERO; n];
    let mut r = vec![Spinor::ZERO; n];
    for (name, f16_vectors) in [("core.mr_block_solve", false), ("core.mr_block_solve_f16", true)] {
        let cfg = MrConfig { iterations: I_DOMAIN, tolerance: 0.0, f16_vectors };
        let flops = I_DOMAIN as f64 * (schur.schur_flops() + 4.0 * blas::level1_flops(n));
        bench.run(name, Work::f32(flops, I_DOMAIN as f64 * schur_bytes), &mut || {
            black_box(mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch));
        });
    }

    // qdd-core: the Schwarz preconditioner, serial and on two workers.
    let pre = SchwarzPreconditioner::new(op.cast::<f32>(), schwarz_config(false))
        .expect("clover blocks invertible");
    let v32: SpinorField<f32> = v64.cast();
    let mut stats = SolveStats::new();
    let pre_bytes = sites * (72.0 + 72.0 + 72.0 + 48.0) * 4.0 * I_SCHWARZ as f64;
    let pre_work = Work::f32(pre.flops_per_application(), pre_bytes);
    bench.run_counting_allocs("core.schwarz_apply", pre_work, &mut || {
        black_box(pre.apply(&v32, &mut stats));
    });
    let pool2 = WorkerPool::new(2);
    bench.run("core.schwarz_apply_w2", pre_work, &mut || {
        black_box(pre.apply_parallel(&v32, &pool2, &mut stats));
    });
    bench.run("core.pool_dispatch", Work::NONE, &mut || pool2.run(&|_| {}));
    drop(pool2);

    // qdd-comm on two ranks: fixed repetition counts, because both ranks
    // must make the same sequence of collective calls.
    let world = CommWorld::new(grid2.clone());
    let lg = scatter_gauge(op.gauge(), &grid2);
    let lc = scatter_clover(op.clover(), &grid2);
    let lv = scatter_field(&v64, &grid2);
    let reps: [usize; 4] = if small { [20, 200, 1, 5] } else { [100, 2000, 2, 20] };
    let rows = run_spmd(&world, |ctx| {
        let r = ctx.rank();
        let lop = WilsonClover::new(
            lg[r].clone(),
            lc[r].clone(),
            op.mass(),
            BoundaryPhases::antiperiodic_t(),
        );
        let lop32 = lop.cast::<f32>();
        let per_call = |reps: usize, f: &mut dyn FnMut()| {
            f();
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        };
        let exchange = per_call(reps[0], &mut || {
            black_box(
                exchange_halo(ctx, &lop, &lv[r]).map_err(|e| e.first()).expect("clean fabric"),
            );
        });
        let all_sum = per_call(reps[1], &mut || {
            black_box(ctx.all_sum(&[1.0]));
        });
        let pre = DistSchwarz::new(ctx, &lop32, schwarz_config(false)).expect("invertible");
        let lv32: SpinorField<f32> = lv[r].cast();
        let mut st = SolveStats::new();
        let schwarz = per_call(reps[2], &mut || {
            black_box(pre.apply(&lv32, &mut st));
        });
        let sys = DistSystem::new(ctx, &lop).with_overlap(true);
        let mut out = Field::zeros(*lop.dims());
        let system = per_call(reps[3], &mut || {
            sys.apply(&mut out, &lv[r], &mut st);
            black_box(&mut out);
        });
        [exchange, all_sum, schwarz, system]
    });
    for (i, name) in
        ["comm.exchange_halo", "comm.all_sum", "comm.dist_schwarz_apply", "comm.dist_system_apply"]
            .into_iter()
            .enumerate()
    {
        bench.record(name, rows[0][i], Work::NONE);
    }
}
