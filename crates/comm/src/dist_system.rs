//! The distributed linear system: `SystemOps` over ranks.
//!
//! Plugging this into the *unchanged* solvers of `qdd-core` gives the
//! multi-node solver variants: operator applications exchange halos,
//! inner products become deterministic all-reduces, and every byte and
//! reduction is accounted in the `SolveStats` ledger.
//!
//! # The staged outer apply (Fig. 4, end to end)
//!
//! Every operator application runs the boundary-first staged schedule
//! that PR 5 built for the Schwarz sweep, now on the outer matvec:
//!
//! 1. **begin**: pack and post all split-direction face sends
//!    ([`begin_exchange`]) — boundary data leaves first, before any
//!    local flop.
//! 2. **interior**: pool workers steal chunks of the interior site list
//!    (sites with no split-direction coordinate on a rank face) off an
//!    atomic [`ChunkQueue`] and compute them while the receives are
//!    still in flight. Interior sites never consult the halo, so they
//!    read a persistent zeroed one.
//! 3. **drain**: the first worker to need the halo — the leader, once
//!    the interior queue runs dry — drains the receives lazily
//!    ([`drain_exchange`]), publishes the halo through a [`StageGate`],
//!    and steals straight into the boundary stage. Other workers wait
//!    on the *gate* (the data dependency), never on each other: there
//!    is no inter-stage barrier.
//! 4. **boundary**: workers steal boundary-site chunks and finish the
//!    apply with the real halo.
//!
//! Because the per-site kernel (`apply_site_with_halo_fetch_split`) is
//! pure and output sites are disjoint, the staged schedule is bitwise
//! identical to the bulk one (`--no-overlap`) for any worker count —
//! only *when* the drain happens differs, which is exactly the exposed
//! communication time the paper hides.

use crate::exchange::{
    begin_exchange, drain_exchange, exchange_bytes, face_bytes, PendingExchange,
};
use crate::runtime::{CommError, HaloScalar, RankCtx};
use qdd_core::pool::{resolve_workers, LeaderOnly, SharedCells, WorkerPool};
use qdd_core::stage::{ChunkQueue, StageGate};
use qdd_core::system::SystemOps;
use qdd_dirac::fused_full::{build_full_operator, FullOperator, SplitTiles};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_field::halo::HaloData;
use qdd_lattice::{Dims, SiteIndexer};
use qdd_util::complex::{Complex, Real};
use qdd_util::stats::{Component, SolveStats};
use std::cell::{Cell, RefCell};

/// Interior/boundary partition of the local site list for a rank split:
/// a site is *boundary* iff some split-direction coordinate sits on a
/// rank face (0 or L-1), i.e. iff its apply may consult the halo.
struct SitePartition {
    interior: Vec<usize>,
    boundary: Vec<usize>,
}

impl SitePartition {
    fn new(dims: Dims, split: [bool; 4]) -> Self {
        let idx = SiteIndexer::new(dims);
        let volume = dims.volume();
        let mut interior = Vec::with_capacity(volume);
        let mut boundary = Vec::new();
        for site in 0..volume {
            let c = idx.coord(site);
            let on_face = (0..4).any(|d| split[d] && (c.0[d] == 0 || c.0[d] == dims.0[d] - 1));
            if on_face {
                boundary.push(site);
            } else {
                interior.push(site);
            }
        }
        Self { interior, boundary }
    }
}

/// Optional fused-SIMD interior engine: the interior stage runs the
/// fused full-lattice kernel over interior (z, t) tiles, the boundary
/// stage stays scalar (it needs the halo fetch path). Opt-in via
/// [`DistSystem::with_fused_interior`] because fused and scalar
/// arithmetic differ in rounding: the hybrid apply is bitwise
/// *overlap-on vs overlap-off* (same engines either way), but only
/// tolerance-equal to the all-scalar apply.
struct FusedInterior<T: Real> {
    op: Box<dyn FullOperator<T>>,
    tiles: SplitTiles,
}

/// One rank's view of the distributed system.
pub struct DistSystem<'a, T: Real> {
    ctx: &'a RankCtx<'a>,
    op: &'a WilsonClover<T>,
    /// First communication fault, if any. `SystemOps` has no error channel
    /// (the solvers are oblivious to distribution), so a failed exchange
    /// degrades to a zeroed halo and is recorded here for the caller to
    /// inspect after the solve.
    fault: Cell<Option<CommError>>,
    /// Staged overlap schedule on (default) or bulk exchange-then-compute.
    overlap: bool,
    pool: WorkerPool,
    sites: SitePartition,
    /// The halo the interior stage reads while the real one is in
    /// flight. Interior sites never take the halo branch
    /// (`wrap && split` requires a face coordinate), so it stays zero.
    empty_halo: HaloData<T>,
    fused: Option<FusedInterior<T>>,
}

impl<'a, T: HaloScalar> DistSystem<'a, T> {
    pub fn new(ctx: &'a RankCtx<'a>, op: &'a WilsonClover<T>) -> Self {
        assert_eq!(
            op.dims(),
            ctx.grid().local(),
            "operator must be built on the rank-local lattice"
        );
        Self {
            ctx,
            op,
            fault: Cell::new(None),
            overlap: true,
            pool: WorkerPool::new(resolve_workers(1)),
            sites: SitePartition::new(*op.dims(), ctx.split_dirs()),
            empty_halo: HaloData::zeros(*op.dims()),
            fused: None,
        }
    }

    /// Enable (default) or disable the staged overlap schedule. Off, the
    /// apply drains the exchange before computing anything — the bulk
    /// baseline the overlap must match bitwise.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Use an explicit worker count for the staged apply, overriding the
    /// default (`QDD_WORKERS` or 1). Unlike the constructor default this
    /// ignores the environment — tests sweep it deterministically.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool = WorkerPool::new(workers.max(1));
        self
    }

    /// Run interior tiles through the fused SIMD kernel (boundary sites
    /// stay scalar: they need the halo fetch path). Falls back to the
    /// all-scalar schedule silently when the fused operator cannot be
    /// built (odd extents, unsupported lane count) or the split has x/y
    /// components (tiles span the x-y cross-section). Opt-in: the hybrid
    /// rounds like the fused kernel, not like the scalar loop, so it is
    /// bitwise-comparable only against itself across overlap/workers.
    pub fn with_fused_interior(mut self) -> Self {
        let split = self.ctx.split_dirs();
        self.fused = build_full_operator(self.op)
            .and_then(|op| op.split_tiles(split).map(|tiles| FusedInterior { op, tiles }));
        self
    }

    /// True if the fused-interior engine is active (diagnostics).
    pub fn fused_interior_active(&self) -> bool {
        self.fused.is_some()
    }

    pub fn ctx(&self) -> &RankCtx<'a> {
        self.ctx
    }

    pub fn op(&self) -> &WilsonClover<T> {
        self.op
    }

    /// The first communication fault seen by this rank's operator
    /// applications, if any. A solve whose system reports a fault must be
    /// treated as unreliable (the serve layer maps it to `Degraded`).
    pub fn comm_error(&self) -> Option<CommError> {
        self.fault.get()
    }

    fn comm_bytes_per_apply(&self) -> f64 {
        exchange_bytes(self.ctx, self.op)
    }

    /// Drain a staged exchange with an *explicit* degradation policy:
    /// faces that survive the retry budget are used as delivered; each
    /// undelivered face (retry-exhausted or peer-skipped) stays zeroed
    /// in the partial halo, is counted under `fault.zero_fills`, and the
    /// first typed error is recorded for the caller. Returns the halo
    /// together with the bytes actually received (full exchange minus
    /// undelivered faces, matching the runtime's `bytes_received`
    /// ledger — both derive per-face bytes from [`face_bytes`]).
    fn drain_or_degrade(&self, pending: PendingExchange) -> (HaloData<T>, f64) {
        let full = self.comm_bytes_per_apply();
        match drain_exchange(self.ctx, *self.op.dims(), pending) {
            Ok(h) => (h, full),
            Err(fail) => {
                if self.fault.get().is_none() {
                    self.fault.set(Some(fail.first()));
                }
                let zf = &self.ctx.counters.faults.zero_fills;
                zf.set(zf.get() + fail.faults().len() as u64);
                let lost: f64 = fail
                    .faults()
                    .iter()
                    .map(|f| face_bytes::<T>(self.op.dims().face_area(f.dir)))
                    .sum();
                (fail.into_partial(), full - lost)
            }
        }
    }

    /// One staged apply: begin the exchange, compute, drain where the
    /// schedule dictates. Returns the bytes actually received.
    fn staged_apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>) -> f64 {
        let pending = begin_exchange(self.ctx, self.op, inp);
        if let Some(fused) = &self.fused {
            return self.apply_fused_hybrid(fused, pending, out, inp);
        }
        if !self.overlap || self.sites.interior.is_empty() {
            // Bulk: drain first, then one split-aware pass over all sites.
            let (halo, received) = self.drain_or_degrade(pending);
            self.op.apply_with_halo_split(out, inp, &halo, self.ctx.split_dirs());
            return received;
        }
        self.apply_overlapped(pending, out, inp)
    }

    /// The barrier-free staged schedule (module docs). One pool job runs
    /// interior-steal → lazy drain behind a gate → boundary-steal.
    fn apply_overlapped(
        &self,
        pending: PendingExchange,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
    ) -> f64 {
        let op = self.op;
        let split = self.ctx.split_dirs();
        let interior = &self.sites.interior[..];
        let boundary = &self.sites.boundary[..];
        let empty = &self.empty_halo;
        let workers = self.pool.workers();
        let chunk = (interior.len() / (8 * workers)).clamp(32, 4096);
        let iq = ChunkQueue::new(interior.len(), chunk);
        let bq = ChunkQueue::new(boundary.len(), chunk);
        let gate = StageGate::new();
        // The halo starts zeroed and is replaced by the leader before the
        // gate opens; the received-byte count rides the same handoff.
        let mut halo_slot = [HaloData::<T>::zeros(*op.dims())];
        let halo_cells = SharedCells::new(&mut halo_slot[..]);
        let received = Cell::new(0.0f64);
        // `self` (Cell fault), the pending receives, and the byte ledger
        // are leader-confined: only worker 0 — the rank thread itself —
        // touches the comm context.
        let pending = RefCell::new(Some(pending));
        let leader_self = LeaderOnly::new(self);
        let leader_pending = LeaderOnly::new(&pending);
        let leader_received = LeaderOnly::new(&received);
        let out_cells = SharedCells::new(out.as_mut_slice());
        self.pool.run(&|w| {
            let fetch = |i: usize| *inp.site(i);
            // Interior stage: steal chunks while the faces fly.
            while let Some(r) = iq.next() {
                for &site in &interior[r] {
                    let v = op.apply_site_with_halo_fetch_split(site, fetch, empty, split);
                    unsafe { out_cells.write(site, v) };
                }
            }
            if w == 0 {
                // Leader: the interior queue is dry on this worker, so
                // the halo is now the critical path — drain it and open
                // the gate. Everything written here is published by the
                // gate's release store.
                let this = unsafe { leader_self.get() };
                let p = unsafe { leader_pending.get() }
                    .borrow_mut()
                    .take()
                    .expect("staged apply drains exactly once");
                let (halo, recv) = this.drain_or_degrade(p);
                let slot = unsafe { halo_cells.slice_mut(0..1) };
                slot[0] = halo;
                unsafe { leader_received.get() }.set(recv);
                gate.open();
            } else {
                // Not a barrier: waits on the halo (the data dependency),
                // not on other workers' interior shares.
                gate.wait();
            }
            let halo: &HaloData<T> = unsafe { halo_cells.get(0) };
            // Boundary stage: steal chunks against the drained halo.
            while let Some(r) = bq.next() {
                for &site in &boundary[r] {
                    let v = op.apply_site_with_halo_fetch_split(site, fetch, halo, split);
                    unsafe { out_cells.write(site, v) };
                }
            }
        });
        received.get()
    }

    /// Hybrid fused/scalar staged apply: fused kernel over interior
    /// (z, t) tiles, scalar halo path over boundary-tile sites. The two
    /// engines and their site assignment are identical with overlap on
    /// and off — only the drain position moves — so the hybrid keeps the
    /// bitwise overlap-on/off identity.
    fn apply_fused_hybrid(
        &self,
        fused: &FusedInterior<T>,
        pending: PendingExchange,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
    ) -> f64 {
        let split = self.ctx.split_dirs();
        if self.overlap {
            // Interior tiles compute while the faces are in flight.
            fused.op.apply_tiles(out, inp, &self.pool, &fused.tiles.interior);
            let (halo, received) = self.drain_or_degrade(pending);
            for &site in &fused.tiles.boundary_sites {
                *out.site_mut(site) =
                    self.op.apply_site_with_halo_fetch_split(site, |i| *inp.site(i), &halo, split);
            }
            received
        } else {
            let (halo, received) = self.drain_or_degrade(pending);
            fused.op.apply_tiles(out, inp, &self.pool, &fused.tiles.interior);
            for &site in &fused.tiles.boundary_sites {
                *out.site_mut(site) =
                    self.op.apply_site_with_halo_fetch_split(site, |i| *inp.site(i), &halo, split);
            }
            received
        }
    }
}

impl<T: HaloScalar> SystemOps<T> for DistSystem<'_, T> {
    fn local_dims(&self) -> Dims {
        *self.op.dims()
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats) {
        let received = self.staged_apply(out, inp);
        stats.add_flops(Component::OperatorA, self.op.apply_flops());
        stats.add_comm_bytes(Component::OperatorA, self.comm_bytes_per_apply());
        stats.add_comm_recv_bytes(Component::OperatorA, received);
        stats.count_operator_application();
    }

    fn apply_adjoint(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        stats: &mut SolveStats,
    ) {
        let basis = self.op.basis();
        let g5in = SpinorField::from_fn(*inp.dims(), |s| basis.apply_gamma5(inp.site(s)));
        let received = self.staged_apply(out, &g5in);
        for s in 0..out.len() {
            *out.site_mut(s) = basis.apply_gamma5(out.site(s));
        }
        stats.add_flops(Component::OperatorA, self.op.apply_flops());
        stats.add_comm_bytes(Component::OperatorA, self.comm_bytes_per_apply());
        stats.add_comm_recv_bytes(Component::OperatorA, received);
        stats.count_operator_application();
    }

    fn apply_flops(&self) -> f64 {
        self.op.apply_flops()
    }

    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T> {
        stats.count_global_sum();
        let local = a.dot(b);
        let global = self.ctx.all_sum(&[local.re.to_f64(), local.im.to_f64()]);
        Complex::new(T::from_f64(global[0]), T::from_f64(global[1]))
    }

    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T {
        stats.count_global_sum();
        let local = a.norm_sqr().to_f64();
        T::from_f64(self.ctx.all_sum(&[local])[0])
    }

    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>> {
        stats.count_global_sum();
        let mut partial = Vec::with_capacity(2 * vs.len());
        for v in vs {
            let d = v.dot(w);
            partial.push(d.re.to_f64());
            partial.push(d.im.to_f64());
        }
        let global = self.ctx.all_sum(&partial);
        global.chunks(2).map(|c| Complex::new(T::from_f64(c[0]), T::from_f64(c[1]))).collect()
    }

    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T) {
        stats.count_global_sum();
        let d = a.dot(b);
        let n = a.norm_sqr().to_f64();
        let global = self.ctx.all_sum(&[d.re.to_f64(), d.im.to_f64(), n]);
        (Complex::new(T::from_f64(global[0]), T::from_f64(global[1])), T::from_f64(global[2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_spmd, CommWorld};
    use crate::scatter::{gather_field, scatter_clover, scatter_field, scatter_gauge};
    use qdd_core::bicgstab::{bicgstab, BiCgStabConfig};
    use qdd_core::system::LocalSystem;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::{Dims, RankGrid};
    use qdd_util::rng::Rng64;

    struct Setup {
        grid: RankGrid,
        global_op: WilsonClover<f64>,
        local_gauge: Vec<GaugeField<f64>>,
        local_clover: Vec<qdd_field::fields::CloverField<f64>>,
        f_global: SpinorField<f64>,
        f_local: Vec<SpinorField<f64>>,
    }

    fn setup(rank_dims: Dims) -> Setup {
        let global_dims = Dims::new(8, 8, 4, 8);
        let grid = RankGrid::new(global_dims, rank_dims);
        let mut rng = Rng64::new(21);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.4, &basis);
        let global_op = WilsonClover::new(
            gauge.clone(),
            clover.clone(),
            0.25,
            BoundaryPhases::antiperiodic_t(),
        );
        let f_global = SpinorField::<f64>::random(global_dims, &mut rng);
        Setup {
            local_gauge: scatter_gauge(&gauge, &grid),
            local_clover: scatter_clover(&clover, &grid),
            f_local: scatter_field(&f_global, &grid),
            grid,
            global_op,
            f_global,
        }
    }

    #[test]
    fn partition_covers_all_sites_disjointly() {
        let dims = Dims::new(4, 8, 6, 8);
        for split in [[false; 4], [false, false, false, true], [true, true, true, true]] {
            let p = SitePartition::new(dims, split);
            let mut seen = vec![false; dims.volume()];
            for &s in p.interior.iter().chain(&p.boundary) {
                assert!(!seen[s], "site {s} in both classes");
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "partition misses sites for split {split:?}");
        }
        // No split: everything interior.
        let p = SitePartition::new(dims, [false; 4]);
        assert!(p.boundary.is_empty());
        // t-split: the boundary is the two t-faces (3072 / 1024 sites on the
        // 8^4 local lattice of `paper eq7`).
        let p = SitePartition::new(Dims::new(8, 8, 8, 8), [false, false, false, true]);
        assert_eq!((p.interior.len(), p.boundary.len()), (3072, 1024));
        // Full split: boundary = sites with any coordinate on any face.
        let p = SitePartition::new(dims, [true; 4]);
        assert_eq!(p.interior.len(), (4 - 2) * (8 - 2) * (6 - 2) * (8 - 2));
    }

    #[test]
    fn distributed_bicgstab_matches_single_rank() {
        let s = setup(Dims::new(2, 1, 1, 2));
        let cfg = BiCgStabConfig { tolerance: 1e-9, max_iterations: 3000 };

        // Single rank ground truth.
        let mut st = qdd_util::stats::SolveStats::new();
        let (x_ref, out_ref) =
            bicgstab(&LocalSystem::new(&s.global_op), &s.f_global, &cfg, &mut st);
        assert!(out_ref.converged);

        // Distributed.
        let world = CommWorld::new(s.grid.clone());
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                s.local_gauge[r].clone(),
                s.local_clover[r].clone(),
                0.25,
                BoundaryPhases::antiperiodic_t(),
            );
            let sys = DistSystem::new(ctx, &op);
            let mut stats = qdd_util::stats::SolveStats::new();
            let (x, out) = bicgstab(&sys, &s.f_local[r], &cfg, &mut stats);
            (x, out.iterations, out.converged, stats.total_comm_bytes())
        });
        // All ranks took the same iteration count and converged.
        for (_, iters, conv, _) in &results {
            assert!(*conv);
            assert_eq!(*iters, results[0].1);
        }
        // Solutions agree with the single-rank solve.
        let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
        let x = gather_field(&locals, &s.grid);
        let mut diff = x.clone();
        diff.sub_assign(&x_ref);
        assert!(
            diff.norm() < 1e-6 * x_ref.norm(),
            "solutions diverge: rel {}",
            diff.norm() / x_ref.norm()
        );
        // Communication happened.
        assert!(results[0].3 > 0.0);
    }

    #[test]
    fn distributed_dot_is_global() {
        let s = setup(Dims::new(2, 2, 1, 1));
        let world = CommWorld::new(s.grid.clone());
        let expect = s.f_global.norm_sqr();
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                s.local_gauge[r].clone(),
                s.local_clover[r].clone(),
                0.25,
                BoundaryPhases::antiperiodic_t(),
            );
            let sys = DistSystem::new(ctx, &op);
            let mut stats = qdd_util::stats::SolveStats::new();
            sys.norm_sqr(&s.f_local[r], &mut stats)
        });
        for r in results {
            assert!((r - expect).abs() < 1e-9 * expect);
        }
    }

    /// The hybrid fused-interior apply must agree with the all-scalar
    /// distributed apply to fused-vs-scalar rounding (not bitwise), and
    /// must be *bitwise* identical between overlap on and off.
    #[test]
    fn fused_interior_hybrid_matches_scalar_apply() {
        let s = setup(Dims::new(1, 1, 1, 2));
        let world = CommWorld::new(s.grid.clone());
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                s.local_gauge[r].clone(),
                s.local_clover[r].clone(),
                0.25,
                BoundaryPhases::antiperiodic_t(),
            );
            let mut stats = qdd_util::stats::SolveStats::new();
            let mut scalar = SpinorField::zeros(*op.dims());
            let mut hybrid_on = SpinorField::zeros(*op.dims());
            let mut hybrid_off = SpinorField::zeros(*op.dims());
            {
                let sys = DistSystem::new(ctx, &op);
                sys.apply(&mut scalar, &s.f_local[r], &mut stats);
            }
            {
                let sys = DistSystem::new(ctx, &op).with_fused_interior().with_workers(2);
                assert!(sys.fused_interior_active(), "t-split must support fused tiles");
                sys.apply(&mut hybrid_on, &s.f_local[r], &mut stats);
            }
            {
                let sys = DistSystem::new(ctx, &op).with_fused_interior().with_overlap(false);
                sys.apply(&mut hybrid_off, &s.f_local[r], &mut stats);
            }
            assert_eq!(
                hybrid_on.as_slice(),
                hybrid_off.as_slice(),
                "hybrid apply must be bitwise overlap-independent"
            );
            let mut diff = hybrid_on.clone();
            diff.sub_assign(&scalar);
            assert!(
                diff.norm() < 1e-10 * scalar.norm(),
                "hybrid vs scalar rel {}",
                diff.norm() / scalar.norm()
            );
            hybrid_on
        });
        assert_eq!(results.len(), 2);
    }

    /// An x-split cannot be expressed at tile granularity: the fused
    /// interior must silently fall back to the scalar schedule.
    #[test]
    fn fused_interior_falls_back_on_xy_split() {
        let s = setup(Dims::new(2, 1, 1, 1));
        let world = CommWorld::new(s.grid.clone());
        run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                s.local_gauge[r].clone(),
                s.local_clover[r].clone(),
                0.25,
                BoundaryPhases::antiperiodic_t(),
            );
            let sys = DistSystem::new(ctx, &op).with_fused_interior();
            assert!(!sys.fused_interior_active());
            let mut stats = qdd_util::stats::SolveStats::new();
            let mut out = SpinorField::zeros(*op.dims());
            sys.apply(&mut out, &s.f_local[r], &mut stats);
            out.norm()
        });
    }
}
