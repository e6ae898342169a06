//! The multiplicative Schwarz domain-decomposition preconditioner.
//!
//! This is the paper's `M` (Table I, lines 4-12): `ISchwarz` sweeps over
//! the two-colored domain grid; each domain is solved approximately by a
//! few MR iterations on its even-odd Schur complement; updated domains
//! immediately feed the residuals of the next half-sweep (multiplicative
//! variant). The additive variant (all domains updated from the same
//! frozen iterate) is provided for comparison.
//!
//! The preconditioner is deliberately *stateless across applications* — it
//! returns `u ~= A^-1 f` from `u0 = 0` — exactly what a flexible outer
//! solver expects.

use crate::block_update::{schwarz_block_update, BlockKernels, Iterate};
use crate::mr::MrConfig;
use crate::pool::{blocked_range, LeaderOnly, SharedCells, SharedSpinors, SpinBarrier, WorkerPool};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_field::halo::HaloData;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, DomainColor, DomainGrid};
use qdd_util::complex::Real;
use qdd_util::stats::{Component, SolveStats};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schwarz parameters (paper defaults: 8x4x4x4 blocks, ISchwarz = 16,
/// Idomain = 5).
#[derive(Copy, Clone, Debug)]
pub struct SchwarzConfig {
    /// Domain (block) extents.
    pub block: Dims,
    /// Number of full Schwarz sweeps (`ISchwarz`).
    pub i_schwarz: usize,
    /// MR block-solve parameters (`Idomain`).
    pub mr: MrConfig,
    /// Use the additive instead of the multiplicative method.
    pub additive: bool,
    /// Execute the Fig. 4b/4c communication-hiding schedule in the
    /// distributed sweep: boundary domains first, faces sent eagerly
    /// (t full, x/y/z in halves), receives drained before the dependent
    /// half-sweep. Ignored by the single-rank preconditioner. Overlap
    /// changes only *when* data moves, never the result.
    pub overlap: bool,
    /// Pack distributed halo faces as f16 on the wire, halving halo
    /// bytes under the overlap schedule (paper Sec. III-B extends the
    /// f16 storage choice to the preconditioner's communication).
    /// Ignored by the single-rank preconditioner. Off by default: f16
    /// faces round the exchanged boundary spinors, so existing f32-face
    /// solves stay bitwise untouched unless explicitly opted in.
    pub f16_faces: bool,
}

impl Default for SchwarzConfig {
    fn default() -> Self {
        Self {
            block: Dims::new(8, 4, 4, 4),
            i_schwarz: 16,
            mr: MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false },
            additive: false,
            overlap: true,
            f16_faces: false,
        }
    }
}

impl SchwarzConfig {
    /// Apply a tuned operating point from `qdd-autotune`: block geometry,
    /// `ISchwarz`, the MR iteration count (`Idomain`), and — when the
    /// tuned storage precision is `Half` — f16 halo faces, extending the
    /// compressed-storage choice to the preconditioner's wire traffic.
    /// The tuned prefetch mode applies to the fused *outer* operator
    /// (see `DdSolverConfig::with_tuned`); the block kernel here leaves
    /// prefetching to codegen.
    pub fn with_tuned(mut self, tuned: &qdd_autotune::TunedParams) -> Self {
        self.block = tuned.block;
        self.i_schwarz = tuned.i_schwarz;
        self.mr.iterations = tuned.i_domain;
        self.f16_faces = tuned.precision == qdd_machine::Precision::Half;
        self
    }
}

/// Which part of a face a send wave covers. Halves split the *masked*
/// (color-filtered) face-position list at `n.div_ceil(2)`; sender and
/// receiver derive the same split from their respective face masks, which
/// the global checkerboard keeps aligned across the rank boundary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaceHalf {
    Full,
    First,
    Second,
}

impl FaceHalf {
    /// Sub-range of an `n`-entry masked face list this part covers.
    #[inline]
    pub fn range(self, n: usize) -> std::ops::Range<usize> {
        let mid = n.div_ceil(2);
        match self {
            FaceHalf::Full => 0..n,
            FaceHalf::First => 0..mid,
            FaceHalf::Second => mid..n,
        }
    }
}

/// One face send scheduled after a compute stage (both orientations of
/// `dir` are sent).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SendSlot {
    pub dir: qdd_lattice::Dir,
    pub half: FaceHalf,
}

/// The executed Fig. 4 schedule for one color half-sweep: compute stages
/// (each a barrier epoch of domain solves) and the send wave posted at the
/// *start* of the following stage, so packing and sending interleave with
/// the next stage's domain solves. Why staging cannot change a bit is
/// argued once, at [`Sweep::run`].
#[derive(Clone, Debug)]
pub struct ColorSchedule {
    /// Domain indices per stage; their disjoint union is the color's
    /// domain list (order within a stage follows the input list).
    pub stages: Vec<Vec<usize>>,
    /// `sends_after[i]` is posted once stage `i` has completed (during
    /// stage `i + 1` when one exists). Same length as `stages`.
    pub sends_after: Vec<Vec<SendSlot>>,
}

/// Plan one color's Fig. 4b schedule over the local domain grid.
///
/// With `overlap` (and at least one split direction): stage 0 holds the
/// t-boundary domains (their faces — the t full-face send — go out first,
/// Fig. 4b), stage 1 the remaining x/y/z-boundary domains (first halves of
/// the x/y/z faces follow), stages 2 and 3 split the interior so the
/// second halves ride behind roughly half the remaining compute (Fig. 4c).
/// Without `overlap` (or with nothing split) the schedule degenerates to
/// one stage with every send posted after it — the legacy bulk exchange.
pub fn plan_color_schedule(
    grid: &DomainGrid,
    split: [bool; 4],
    color_domains: &[usize],
    overlap: bool,
) -> ColorSchedule {
    use qdd_lattice::Dir;
    let split_dirs: Vec<Dir> = Dir::ALL.into_iter().filter(|d| split[d.index()]).collect();
    if !overlap || split_dirs.is_empty() {
        let sends = split_dirs.iter().map(|&dir| SendSlot { dir, half: FaceHalf::Full }).collect();
        return ColorSchedule { stages: vec![color_domains.to_vec()], sends_after: vec![sends] };
    }
    let boundary_in = |idx: usize, d: Dir| {
        let c = grid.domain(idx).grid_coord[d];
        split[d.index()] && (c == 0 || c == grid.grid()[d] - 1)
    };
    let mut t_boundary = Vec::new();
    let mut xyz_boundary = Vec::new();
    let mut interior = Vec::new();
    for &idx in color_domains {
        if boundary_in(idx, Dir::T) {
            t_boundary.push(idx);
        } else if [Dir::X, Dir::Y, Dir::Z].iter().any(|&d| boundary_in(idx, d)) {
            xyz_boundary.push(idx);
        } else {
            interior.push(idx);
        }
    }
    let mid = interior.len().div_ceil(2);
    let interior_tail = interior.split_off(mid);
    let xyz_split: Vec<Dir> = split_dirs.iter().copied().filter(|&d| d != Dir::T).collect();
    let wave_t: Vec<SendSlot> = split_dirs
        .iter()
        .filter(|&&d| d == Dir::T)
        .map(|&dir| SendSlot { dir, half: FaceHalf::Full })
        .collect();
    let wave_first: Vec<SendSlot> =
        xyz_split.iter().map(|&dir| SendSlot { dir, half: FaceHalf::First }).collect();
    let wave_second: Vec<SendSlot> =
        xyz_split.iter().map(|&dir| SendSlot { dir, half: FaceHalf::Second }).collect();
    ColorSchedule {
        stages: vec![t_boundary, xyz_boundary, interior, interior_tail],
        sends_after: vec![wave_t, wave_first, wave_second, Vec::new()],
    }
}

/// The assembled preconditioner for one operator.
pub struct SchwarzPreconditioner<T: Real> {
    op: WilsonClover<T>,
    kernels: BlockKernels<T>,
    grid: DomainGrid,
    cfg: SchwarzConfig,
    colors: [Vec<usize>; 2],
}

impl<T: Real> SchwarzPreconditioner<T> {
    /// Build from an operator (typically the f32 cast of the outer
    /// operator). Returns `None` if a clover block is singular.
    pub fn new(op: WilsonClover<T>, cfg: SchwarzConfig) -> Option<Self> {
        let grid = DomainGrid::new(*op.dims(), cfg.block);
        let kernels = BlockKernels::new(&op, &grid)?;
        let colors =
            [grid.domains_of_color(DomainColor::Black), grid.domains_of_color(DomainColor::White)];
        Some(Self { op, kernels, grid, cfg, colors })
    }

    #[inline]
    pub fn op(&self) -> &WilsonClover<T> {
        &self.op
    }

    #[inline]
    pub fn config(&self) -> &SchwarzConfig {
        &self.cfg
    }

    /// Apply the preconditioner serially: returns `u ~= A^-1 f`.
    pub fn apply(&self, f: &SpinorField<T>, stats: &mut SolveStats) -> SpinorField<T> {
        assert_eq!(f.dims(), self.op.dims());
        let mut u = SpinorField::zeros(*f.dims());
        let mut worker = self.kernels.worker(&self.op);
        let halo = HaloData::zeros_split(*f.dims(), [false; 4]);
        let mut flops = 0.0;
        for _ in 0..self.cfg.i_schwarz {
            stats.span_begin(qdd_trace::Phase::SchwarzSweep);
            if self.cfg.additive {
                // All updates from the frozen iterate.
                let mut delta = SpinorField::zeros(*f.dims());
                let iterate = Iterate { fetch: &|i| *u.site(i), halo: &halo, split: [false; 4] };
                for dom_idx in 0..self.grid.num_domains() {
                    stats.span_begin(qdd_trace::Phase::DomainSolve);
                    flops += schwarz_block_update(
                        &mut *worker,
                        dom_idx,
                        &self.cfg.mr,
                        f,
                        &iterate,
                        &mut |g, z| *delta.site_mut(g) = z,
                    );
                    stats.span_end(qdd_trace::Phase::DomainSolve);
                }
                for (u, z) in u.as_mut_slice().iter_mut().zip(delta.as_slice()) {
                    *u = u.add(*z);
                }
            } else {
                let cells = Cell::from_mut(u.as_mut_slice()).as_slice_of_cells();
                let iterate =
                    Iterate { fetch: &|i| cells[i].get(), halo: &halo, split: [false; 4] };
                for color in DomainColor::ALL {
                    stats.span_begin(qdd_trace::Phase::ColorSweep);
                    for &dom_idx in &self.colors[color as usize] {
                        stats.span_begin(qdd_trace::Phase::DomainSolve);
                        flops += schwarz_block_update(
                            &mut *worker,
                            dom_idx,
                            &self.cfg.mr,
                            f,
                            &iterate,
                            &mut |g, z| cells[g].set(cells[g].get().add(z)),
                        );
                        stats.span_end(qdd_trace::Phase::DomainSolve);
                    }
                    stats.span_end(qdd_trace::Phase::ColorSweep);
                }
            }
            stats.span_end(qdd_trace::Phase::SchwarzSweep);
        }
        stats.add_flops(Component::PreconditionerM, flops);
        u
    }

    /// Apply the preconditioner on `pool`: the one [`Sweep`] engine with
    /// the unit boundary — nothing split, so each color is one stage and
    /// nothing is ever sent. Bit-identical to [`Self::apply`] for every
    /// worker count (see [`Sweep::run`]); one pool job per application.
    ///
    /// The additive method has no race-free parallel schedule (all domains
    /// update from the same frozen iterate), so it runs the serial
    /// reference rather than panicking.
    pub fn apply_parallel(
        &self,
        f: &SpinorField<T>,
        pool: &WorkerPool,
        stats: &mut SolveStats,
    ) -> SpinorField<T> {
        if self.cfg.additive {
            return self.apply(f, stats);
        }
        let sweep = Sweep {
            op: &self.op,
            kernels: &self.kernels,
            grid: &self.grid,
            cfg: &self.cfg,
            colors: &self.colors,
        };
        sweep.run(&Unsplit, pool, f, stats)
    }

    /// Nominal flops of one full preconditioner application (used by the
    /// machine model): per sweep and domain, one block residual, the MR
    /// solve, and the rhs/reconstruction steps.
    pub fn flops_per_application(&self) -> f64 {
        let v = self.cfg.block.volume() as f64;
        let per_domain = qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE * v // residual
            + 2.0 * 924.0 * v                                        // rhs + reconstruction
            + self.cfg.mr.iterations as f64
                * (qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE * v + 4.0 * 96.0 * v / 2.0);
        per_domain * self.grid.num_domains() as f64 * self.cfg.i_schwarz as f64
    }
}

/// The two-coloring precondition, stated once: a *periodic* domain-grid
/// extent must be even or 1, or the checkerboard wraps onto itself and two
/// adjacent domains share a color. The sweep checks the extents that are
/// periodic on its own grid; a distributed preconditioner checks the
/// rank-global extents, which close the torus across ranks.
pub fn assert_two_colorable(dir: qdd_lattice::Dir, extent: usize) {
    assert!(
        extent.is_multiple_of(2) || extent == 1,
        "domain grid extent {extent} in {dir} is odd: two-coloring breaks (adjacent domains \
         share a color across the periodic wrap) and concurrent half-sweeps would race; use an \
         even number of domains per direction, or one worker"
    );
}

/// The rank boundary of a sweep, as seen by the sweep's leader (worker 0,
/// which runs on the calling thread): the only place communication enters.
/// Every method is called by the leader alone, so an implementation may
/// hold `!Sync` state (a per-rank comm context).
pub trait RankBoundary<T: Real> {
    /// Directions in which a neighbor rank (not our own periodic wrap)
    /// sits across the face; those hops read the halo.
    fn split(&self) -> [bool; 4];

    /// Merge every face part the peers sent during the previous half-sweep
    /// into `halo`. Called before each half-sweep, while no worker reads
    /// the halo.
    fn drain(&self, halo: &mut HaloData<T>);

    /// Start one exchange round (one half-sweep whose boundary a later
    /// half-sweep reads): take the round's hiccup decision, before its
    /// first wave, so every wave of the round skips together.
    fn begin_round(&self);

    /// Post one send wave of the just-updated `color`. `u` reads the
    /// iterate; the wave's face sites are final (their owning domains
    /// finished behind a barrier) though other workers may already be
    /// computing the next stage.
    fn post_wave<F: Fn(usize) -> Spinor<T>>(&self, wave: &[SendSlot], color: DomainColor, u: &F);
}

/// The unit boundary: one rank holds the whole lattice, nothing is split,
/// nothing moves.
struct Unsplit;

impl<T: Real> RankBoundary<T> for Unsplit {
    fn split(&self) -> [bool; 4] {
        [false; 4]
    }

    fn drain(&self, _: &mut HaloData<T>) {}

    fn begin_round(&self) {}

    fn post_wave<F: Fn(usize) -> Spinor<T>>(&self, wave: &[SendSlot], _: DomainColor, _: &F) {
        debug_assert!(wave.is_empty(), "a send planned with nothing split");
    }
}

/// What one multiplicative sweep works on: the (rank-local) operator, its
/// per-domain constants, the domain grid, and each color's domain list —
/// colored *globally* when the lattice continues on other ranks.
pub struct Sweep<'a, T: Real> {
    pub op: &'a WilsonClover<T>,
    pub kernels: &'a BlockKernels<T>,
    pub grid: &'a DomainGrid,
    pub cfg: &'a SchwarzConfig,
    pub colors: &'a [Vec<usize>; 2],
}

impl<T: Real> Sweep<'_, T> {
    /// The paper's threading model and its Fig. 4 schedule, once: `u ~=
    /// A^-1 f` by `2 ISchwarz` half-sweeps, each executed as the stages of
    /// [`plan_color_schedule`], the pool's workers sharing every stage's
    /// domains with a barrier after each stage. The leader drains the
    /// boundary's deferred receives before a half-sweep and posts each
    /// finished stage's send wave while the next stage computes. With
    /// nothing split that is one stage per color and no send: the
    /// single-rank sweep is this one with an empty schedule.
    ///
    /// Bitwise identical to the serial [`SchwarzPreconditioner::apply`]
    /// for every worker count, rank geometry and overlap setting. Each
    /// site gets exactly one update per half-sweep, computed from its own
    /// domain and opposite-color neighbors, which nobody writes in that
    /// half-sweep. Same-color domains are never adjacent, so their order
    /// (stages, workers) changes no update. Face sites belong to boundary
    /// stages, finished before their face is packed, and a color-`C'`
    /// half-sweep reads only color-`C` halo entries: the freshly merged
    /// ones. One worker cannot race, so there the two-coloring
    /// precondition is waived (the domain order is then the reference's).
    pub fn run<B: RankBoundary<T>>(
        &self,
        boundary: &B,
        pool: &WorkerPool,
        f: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> SpinorField<T> {
        let dims = *self.op.dims();
        assert_eq!(*f.dims(), dims);
        let workers = pool.workers();
        let split = boundary.split();
        if workers > 1 {
            for d in qdd_lattice::Dir::ALL.into_iter().filter(|d| !split[d.index()]) {
                assert_two_colorable(d, self.grid.grid()[d]);
            }
        }
        let schedules = DomainColor::ALL.map(|c| {
            plan_color_schedule(self.grid, split, &self.colors[c as usize], self.cfg.overlap)
        });
        let rounds = 2 * self.cfg.i_schwarz;

        let mut u = SpinorField::<T>::zeros(dims);
        let mut halo_u = HaloData::<T>::zeros_split(dims, split);
        let shared = SharedSpinors::new(u.as_mut_slice());
        // The halo is epoch-shared: the leader writes it while everyone
        // else waits at the round barrier; all workers read it during the
        // compute stages.
        let halo_cell = SharedCells::new(std::slice::from_mut(&mut halo_u));
        let barrier = SpinBarrier::new(workers);
        let worker_flops: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        // Workers record into per-thread lanes (tid = worker + 1; lane 0 is
        // the rank's main thread and stays free of preconditioner-internal
        // events; the leader's lane carries the sweep spans) and flush once
        // at the end of the job.
        let sink = stats.sink().clone();
        let leader = LeaderOnly::new(boundary);

        pool.run(&|w| {
            let sense = Cell::new(false);
            let mut rec = sink.thread(w as u32 + 1);
            rec.begin(qdd_trace::Phase::PoolJob);
            // SAFETY (LeaderOnly): worker 0 runs on the thread that built
            // the wrapper — the one that owns `boundary`.
            let boundary = (w == 0).then(|| unsafe { leader.get() });
            // SAFETY (SharedSpinors): a domain solve reads its own domain
            // (owned by this worker in this epoch) and opposite-color
            // neighbors (not written in this epoch) and writes only its
            // own domain; a wave reads face sites of completed stages.
            let fetch = |i: usize| unsafe { shared.read(i) };
            let mut store = |g: usize, v: Spinor<T>| unsafe { shared.add(g, v) };
            // This worker's scratch for every block update of the job.
            let mut worker = self.kernels.worker(self.op);
            let mut flops = 0.0;
            for round in 0..rounds {
                let color = DomainColor::ALL[round % 2];
                let sched = &schedules[color as usize];
                // The last half-sweep's boundary is read by nobody.
                let exchange = boundary.filter(|_| round + 1 < rounds);
                if let Some(b) = boundary {
                    if round % 2 == 0 {
                        rec.begin(qdd_trace::Phase::SchwarzSweep);
                    }
                    // SAFETY (SharedCells): no reader before the barrier.
                    b.drain(&mut unsafe { halo_cell.slice_mut(0..1) }[0]);
                }
                barrier.wait(&sense);
                rec.begin(qdd_trace::Phase::ColorSweep);
                if let Some(b) = exchange {
                    b.begin_round();
                }
                // SAFETY (SharedCells): no halo writer until every worker
                // has passed this round's last stage barrier.
                let iterate = Iterate { fetch: &fetch, halo: unsafe { halo_cell.get(0) }, split };
                for (si, stage) in sched.stages.iter().enumerate() {
                    if let Some(b) = exchange.filter(|_| si > 0) {
                        // The previous stage's faces are final: pack and
                        // send them while this stage computes.
                        b.post_wave(&sched.sends_after[si - 1], color, &fetch);
                    }
                    for &dom_idx in &stage[blocked_range(stage.len(), workers, w)] {
                        rec.begin(qdd_trace::Phase::DomainSolve);
                        flops += schwarz_block_update(
                            &mut *worker,
                            dom_idx,
                            &self.cfg.mr,
                            f,
                            &iterate,
                            &mut store,
                        );
                        rec.end(qdd_trace::Phase::DomainSolve);
                    }
                    barrier.wait(&sense);
                }
                rec.end(qdd_trace::Phase::ColorSweep);
                if let Some(b) = exchange {
                    b.post_wave(sched.sends_after.last().map_or(&[][..], |v| v), color, &fetch);
                }
                if boundary.is_some() && round % 2 == 1 {
                    rec.end(qdd_trace::Phase::SchwarzSweep);
                }
            }
            rec.end(qdd_trace::Phase::PoolJob);
            rec.flush();
            worker_flops[w].store(flops.to_bits(), Ordering::Relaxed);
        });

        stats.add_flops(
            Component::PreconditionerM,
            worker_flops.iter().map(|b| f64::from_bits(b.load(Ordering::Relaxed))).sum(),
        );
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
    }

    /// Relative residual `||f - A u|| / ||f||`.
    fn preconditioner_quality<T: Real>(
        op: &WilsonClover<T>,
        f: &SpinorField<T>,
        u: &SpinorField<T>,
    ) -> f64 {
        let mut au = SpinorField::zeros(*f.dims());
        op.apply(&mut au, u);
        let mut r = f.clone();
        r.sub_assign(&au);
        (r.norm_sqr().to_f64() / f.norm_sqr().to_f64()).sqrt()
    }

    fn config(i_schwarz: usize, i_domain: usize, block: Dims) -> SchwarzConfig {
        SchwarzConfig {
            block,
            i_schwarz,
            mr: MrConfig { iterations: i_domain, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        }
    }

    #[test]
    fn color_schedule_partitions_and_orders_boundary_first() {
        use qdd_lattice::{Dir, DomainColor};
        // 16x8x8x16 local lattice, 4^4 blocks: grid 4x2x2x4 — interior
        // domains exist in x and t.
        let grid = DomainGrid::new(Dims::new(16, 8, 8, 16), Dims::new(4, 4, 4, 4));
        let split = [true, false, false, true];
        let color_domains = grid.domains_of_color(DomainColor::Black);
        let sched = plan_color_schedule(&grid, split, &color_domains, true);
        assert_eq!(sched.stages.len(), 4);
        assert_eq!(sched.sends_after.len(), 4);
        // Disjoint union of the stages = the color list.
        let mut seen: Vec<usize> = sched.stages.iter().flatten().copied().collect();
        seen.sort_unstable();
        let mut expect = color_domains.clone();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        // Stage 0 is exactly the t-boundary domains.
        for &idx in &sched.stages[0] {
            let c = grid.domain(idx).grid_coord[Dir::T];
            assert!(c == 0 || c == grid.grid()[Dir::T] - 1);
        }
        // Stage 1 domains touch a split x/y/z face but not the t face.
        for &idx in &sched.stages[1] {
            let d = grid.domain(idx);
            let cx = d.grid_coord[Dir::X];
            assert!(cx == 0 || cx == grid.grid()[Dir::X] - 1);
        }
        // Interior domains are split across the last two stages.
        assert!(!sched.stages[2].is_empty());
        assert!(sched.stages[2].len() >= sched.stages[3].len());
        // Send waves: t full after stage 0, x halves after stages 1 and 2.
        assert_eq!(sched.sends_after[0], vec![SendSlot { dir: Dir::T, half: FaceHalf::Full }]);
        assert_eq!(sched.sends_after[1], vec![SendSlot { dir: Dir::X, half: FaceHalf::First }]);
        assert_eq!(sched.sends_after[2], vec![SendSlot { dir: Dir::X, half: FaceHalf::Second }]);
        assert!(sched.sends_after[3].is_empty());
    }

    #[test]
    fn color_schedule_degenerates_without_overlap_or_split() {
        use qdd_lattice::{Dir, DomainColor};
        let grid = DomainGrid::new(Dims::new(8, 8, 8, 8), Dims::new(4, 4, 4, 4));
        let color_domains = grid.domains_of_color(DomainColor::White);
        // No overlap: one stage, all sends after it.
        let sched = plan_color_schedule(&grid, [true, true, false, false], &color_domains, false);
        assert_eq!(sched.stages, vec![color_domains.clone()]);
        assert_eq!(
            sched.sends_after,
            vec![vec![
                SendSlot { dir: Dir::X, half: FaceHalf::Full },
                SendSlot { dir: Dir::Y, half: FaceHalf::Full },
            ]]
        );
        // Nothing split: no sends at all, single stage.
        let sched = plan_color_schedule(&grid, [false; 4], &color_domains, true);
        assert_eq!(sched.stages, vec![color_domains.clone()]);
        assert_eq!(sched.sends_after, vec![Vec::new()]);
    }

    #[test]
    fn face_half_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 256] {
            let first = FaceHalf::First.range(n);
            let second = FaceHalf::Second.range(n);
            assert_eq!(first.end, second.start);
            assert_eq!(FaceHalf::Full.range(n), 0..n);
            assert_eq!(first.len() + second.len(), n);
            // The first half is never smaller than the second (div_ceil).
            assert!(first.len() >= second.len());
        }
    }

    #[test]
    fn preconditioner_reduces_residual() {
        let dims = Dims::new(8, 8, 4, 4);
        let op = operator(dims, 0.4, 0.3, 51);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(52);
        let f = SpinorField::<f64>::random(dims, &mut rng);

        let mut prev = 1.0;
        for sweeps in [1, 2, 4, 8] {
            let pre =
                SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 51), config(sweeps, 4, block))
                    .unwrap();
            let mut stats = SolveStats::new();
            let u = pre.apply(&f, &mut stats);
            let q = preconditioner_quality(&op, &f, &u);
            assert!(q < prev, "sweeps={sweeps}: {q} !< {prev}");
            prev = q;
        }
        // After 8 sweeps the residual must be substantially reduced.
        assert!(prev < 0.2, "rel residual {prev}");
    }

    #[test]
    fn multiplicative_beats_additive() {
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(53);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let op = operator(dims, 0.4, 0.3, 54);

        let mut mult_cfg = config(4, 4, block);
        let mut add_cfg = config(4, 4, block);
        add_cfg.additive = true;
        mult_cfg.additive = false;

        let pre_m = SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 54), mult_cfg).unwrap();
        let pre_a = SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 54), add_cfg).unwrap();
        let mut stats = SolveStats::new();
        let qm = preconditioner_quality(&op, &f, &pre_m.apply(&f, &mut stats));
        let qa = preconditioner_quality(&op, &f, &pre_a.apply(&f, &mut stats));
        assert!(qm < qa, "multiplicative {qm} !< additive {qa}");
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(55);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let pre =
            SchwarzPreconditioner::new(operator(dims, 0.5, 0.2, 56), config(3, 4, block)).unwrap();
        let mut stats = SolveStats::new();
        let serial = pre.apply(&f, &mut stats);
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let mut pstats = SolveStats::new();
            let parallel = pre.apply_parallel(&f, &pool, &mut pstats);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "workers={workers} diverged");
            // Flop accounting identical too.
            assert!(
                (stats.flops(Component::PreconditionerM)
                    - pstats.flops(Component::PreconditionerM))
                .abs()
                    < 1.0
            );
            assert_eq!(pool.jobs_dispatched(), 1, "one pool job per application");
        }
    }

    /// A block whose xy cross-section fills no power-of-two register (6x2:
    /// six lanes) has no fused kernel; the preconditioner still works —
    /// through the scalar block update — and keeps the worker contract.
    #[test]
    fn non_power_of_two_cross_section_still_preconditions() {
        let dims = Dims::new(12, 4, 4, 8);
        let block = Dims::new(6, 2, 2, 4);
        let op = operator(dims, 0.4, 0.3, 62);
        let mut rng = Rng64::new(63);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let pre =
            SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 62), config(4, 4, block)).unwrap();
        let mut stats = SolveStats::new();
        let u = pre.apply(&f, &mut stats);
        let q = preconditioner_quality(&op, &f, &u);
        assert!(q < 0.5, "rel residual {q}");
        let parallel = pre.apply_parallel(&f, &WorkerPool::new(2), &mut stats);
        assert_eq!(u.as_slice(), parallel.as_slice());
    }

    /// On the fused path and on the scalar one (6x2 cross-section).
    #[test]
    fn singular_clover_site_is_refused() {
        use qdd_field::clover::CloverSite;
        use qdd_field::fields::CloverField;
        let dims = Dims::new(12, 4, 4, 8);
        let good = operator(dims, 0.5, 0.2, 64);
        // Cancel the (4 + m) shift on one site: its diagonal vanishes.
        let clover = CloverField::from_fn(dims, |s| {
            if s == 123 {
                CloverSite::default().add_diag(-(4.0 + good.mass()))
            } else {
                *good.clover().site(s)
            }
        });
        for block in [Dims::new(4, 2, 2, 4), Dims::new(6, 2, 2, 4)] {
            let bad = WilsonClover::new(
                good.gauge().clone(),
                clover.clone(),
                good.mass(),
                *good.phases(),
            );
            assert!(SchwarzPreconditioner::new(bad, config(2, 3, block)).is_none(), "{block}");
        }
    }

    #[test]
    fn additive_parallel_falls_back_to_serial() {
        // Regression: the parallel entry point used to panic on additive
        // configs; it must now produce the serial result bitwise.
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut cfg = config(3, 4, block);
        cfg.additive = true;
        let pre = SchwarzPreconditioner::new(operator(dims, 0.5, 0.2, 60), cfg).unwrap();
        let mut rng = Rng64::new(61);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let serial = pre.apply(&f, &mut stats);
        let pool = WorkerPool::new(4);
        let mut pstats = SolveStats::new();
        let parallel = pre.apply_parallel(&f, &pool, &mut pstats);
        assert_eq!(serial.as_slice(), parallel.as_slice());
        // The fallback never dispatches a pool job.
        assert_eq!(pool.jobs_dispatched(), 0);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let dims = Dims::new(8, 4, 4, 4);
        let pre = SchwarzPreconditioner::new(
            operator(dims, 0.5, 0.2, 57),
            config(2, 3, Dims::new(4, 2, 2, 2)),
        )
        .unwrap();
        let f = SpinorField::<f64>::zeros(dims);
        let mut stats = SolveStats::new();
        let u = pre.apply(&f, &mut stats);
        assert_eq!(u.norm_sqr(), 0.0);
    }

    #[test]
    fn stats_record_flops() {
        let dims = Dims::new(8, 4, 4, 4);
        let pre = SchwarzPreconditioner::new(
            operator(dims, 0.5, 0.2, 58),
            config(2, 3, Dims::new(4, 2, 2, 2)),
        )
        .unwrap();
        let mut rng = Rng64::new(59);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let _ = pre.apply(&f, &mut stats);
        let recorded = stats.flops(Component::PreconditionerM);
        assert!(recorded > 0.0);
        // Within 25% of the nominal estimate (boundary effects et al.).
        let nominal = pre.flops_per_application();
        let ratio = recorded / nominal;
        assert!((0.5..1.5).contains(&ratio), "recorded/nominal = {ratio}");
    }
}
