//! The site-fused SIMD operator extended from Dirichlet domain interiors
//! (paper Sec. III-A, [`crate::fused`]) to the **full local lattice** with
//! wrapping boundaries and boundary phases, so the outer Krylov matvec
//! runs the same lane kernel as the Schwarz blocks: the tile body is
//! [`FusedKernel::hop_tile`], built with wrapping instead of Dirichlet
//! edges.
//!
//! Key observations that make the full-lattice kernel mask-free:
//!
//! - An x/y hop that wraps lands on an `Internal` lane of the wrapped
//!   coordinate: the coordinate delta is odd either way, so the parity
//!   flip is identical and the permutation table simply encodes the
//!   wrapped source lane. No lanes are lost — unlike the Dirichlet block
//!   kernel's 2/16 (x) and 4/16 (y) masked lanes, the full-lattice hop
//!   runs at 100% SIMD efficiency. A per-lane sign vector is only needed
//!   when the boundary phase of that direction is not `+1`.
//! - A z/t hop that wraps lands on a whole tile: with even extents the
//!   wrapped tile's flavor equals the unwrapped neighbor relation (for
//!   even `bz`, `(0 + t) % 2 == (bz + t) % 2`), so lanes line up with
//!   zero shuffles and the boundary phase is a whole-tile scalar
//!   (anti-periodic time is `-1` on the wrapping hop only).
//!
//! Both require every lattice extent to be even; [`build_full_operator`]
//! returns `None` otherwise and callers keep the scalar path.

use crate::fused::{
    clover_apply_tile, CloverTile, CloverTileHalf, CloverVecs, FusedClover, FusedCloverHalf,
    FusedGauge, FusedGaugeF16, FusedKernel, GaugeTile, GaugeTileF16, GaugeTiles,
};
use crate::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_field::fused::{FusedField, FusedTile};
use qdd_field::spinor::Spinor;
use qdd_lattice::{Coord, Dims, Dir, Domain, DomainColor, Parity, SiteIndexer, TileLayout};
use qdd_util::complex::{Complex, Real};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Storage precision of the streamed gauge/clover constants (paper
/// Sec. II-A): `Native` keeps them at the compute type `T`, `Half` packs
/// them as f16 and up-converts lane-wise inside the SU(3) multiply, so
/// the hot loop streams half (f32) or a quarter (f64) of the constant
/// bytes. Compute precision is unaffected either way — every FMA runs on
/// `T` vectors in the identical order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum StoragePrecision {
    #[default]
    Native,
    Half,
}

/// Software prefetch depth for the compute phase, mirroring the machine
/// model's `PrefetchMode` (KNC has no useful hardware prefetcher, so the
/// paper's kernels prefetch in software; on chips with `hw_prefetch`
/// this should stay `None`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SwPrefetch {
    /// Rely on the hardware prefetcher.
    #[default]
    None,
    /// Prefetch the next tile's gauge/clover constants into L1.
    L1,
    /// Additionally stage the next tile's input spinors into L2.
    L1L2,
}

/// Execution tuning for the full-lattice fused operator. Every knob is
/// bitwise-neutral: storage only changes *where* constants live (an
/// operator whose constants are already f16-representable produces
/// identical results from either container), and blocking/prefetch only
/// reorder independent tiles.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FusedTuning {
    pub storage: StoragePrecision,
    pub prefetch: SwPrefetch,
    /// Per-core L2 working-set budget driving the z-block traversal;
    /// `None` keeps the flat z-then-t order.
    pub l2_bytes: Option<usize>,
}

impl Default for FusedTuning {
    fn default() -> Self {
        Self { storage: StoragePrecision::Native, prefetch: SwPrefetch::None, l2_bytes: None }
    }
}

/// How a kernel spreads its tiles over workers. Implemented by the solver
/// layer's persistent worker pool; [`SerialRunner`] is the trivial
/// single-worker fallback. Implementations must invoke `job(w)` exactly
/// once for every `w in 0..workers()` and return only when all calls have
/// finished (fork/join semantics).
pub trait ParallelRunner: Sync {
    fn workers(&self) -> usize;
    fn run(&self, job: &(dyn Fn(usize) + Sync));
}

/// Runs every job inline on the calling thread.
pub struct SerialRunner;

impl ParallelRunner for SerialRunner {
    fn workers(&self) -> usize {
        1
    }

    fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        job(0);
    }
}

/// The lane-count-erased interface of the full-lattice fused operator:
/// `out = A inp` over the whole local lattice, threaded over tiles by a
/// [`ParallelRunner`]. The result is bitwise independent of the worker
/// count (tiles write disjoint sites and each tile's accumulation order
/// is fixed).
pub trait FullOperator<T: Real>: Send + Sync {
    fn dims(&self) -> Dims;
    /// SIMD lanes per tile (`nx * ny / 2`).
    fn lanes(&self) -> usize;
    /// The execution tuning this operator was built with.
    fn tuning(&self) -> FusedTuning;
    /// Partition the (z, t) tile grid into tiles whose every hop stays
    /// on the local lattice (*interior*) and tiles touching a
    /// rank-boundary face in a split direction (*boundary*). `None`
    /// when the split cannot be expressed at tile granularity — tiles
    /// span the full x-y cross-section, so any x/y split intersects
    /// every tile and the caller must keep a site-granular schedule.
    fn split_tiles(&self, split: [bool; 4]) -> Option<SplitTiles> {
        let _ = split;
        None
    }
    /// Apply the operator to the listed tiles only, leaving every other
    /// output site untouched. Callers obtain a valid tile list from
    /// [`split_tiles`](Self::split_tiles); implementations that return
    /// `Some` there must override this.
    fn apply_tiles(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        runner: &dyn ParallelRunner,
        tiles: &[u32],
    ) {
        let _ = (out, inp, runner, tiles);
        unimplemented!("tile-subset apply not supported by this operator (split_tiles was None)")
    }
    /// Bytes one `apply` streams from/to memory per lattice site:
    /// gauge + clover constants at their storage width plus the AOS
    /// input read and output write at the compute width. The fused
    /// scratch tile is written and re-read per tile inside the cache
    /// working set, so it is not counted as DRAM traffic.
    fn streamed_bytes_per_site(&self) -> usize;
    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, runner: &dyn ParallelRunner);
}

/// A tile-granular interior/boundary partition of the (z, t) tile grid
/// for a rank split, from [`FullOperator::split_tiles`]. Interior tiles
/// never read a halo face in a split direction, so they can compute
/// while the exchange is still in flight; boundary tiles (equivalently
/// `boundary_sites`, site-granular) must wait for the drained halo.
#[derive(Clone, Debug, Default)]
pub struct SplitTiles {
    /// Tiles with no hop crossing a split-direction rank boundary, in
    /// the operator's traversal order.
    pub interior: Vec<u32>,
    /// Tiles touching a split-direction rank boundary, in traversal
    /// order. `interior` and `boundary` together cover every tile
    /// exactly once.
    pub boundary: Vec<u32>,
    /// Lattice sites of the boundary tiles (both parities), ascending —
    /// the site set a halo-dependent scalar pass must cover.
    pub boundary_sites: Vec<usize>,
}

/// Build the fused full-lattice operator for `op`, dispatching on the
/// xy-cross-section lane count. Returns `None` when an extent is odd or
/// the lane count has no compiled kernel; callers then keep the scalar
/// [`WilsonClover::apply`] path.
pub fn build_full_operator<T: Real>(op: &WilsonClover<T>) -> Option<Box<dyn FullOperator<T>>> {
    build_full_operator_tuned(op, FusedTuning::default())
}

/// [`build_full_operator`] with explicit execution tuning (compressed
/// constant storage, software prefetch, L2 traversal blocking).
pub fn build_full_operator_tuned<T: Real>(
    op: &WilsonClover<T>,
    tuning: FusedTuning,
) -> Option<Box<dyn FullOperator<T>>> {
    let dims = *op.dims();
    if dims.0.iter().any(|&e| e % 2 != 0) {
        return None;
    }
    let lanes = dims.0[0] * dims.0[1] / 2;
    Some(match lanes {
        2 => Box::new(FusedFullOperator::<T, 2>::with_tuning(op, tuning)),
        4 => Box::new(FusedFullOperator::<T, 4>::with_tuning(op, tuning)),
        8 => Box::new(FusedFullOperator::<T, 8>::with_tuning(op, tuning)),
        16 => Box::new(FusedFullOperator::<T, 16>::with_tuning(op, tuning)),
        32 => Box::new(FusedFullOperator::<T, 32>::with_tuning(op, tuning)),
        64 => Box::new(FusedFullOperator::<T, 64>::with_tuning(op, tuning)),
        128 => Box::new(FusedFullOperator::<T, 128>::with_tuning(op, tuning)),
        _ => return None,
    })
}

/// A raw window onto the output sites / scratch tiles that workers write
/// disjointly (each tile owns its sites). Private sibling of the solver
/// layer's shared-slice helpers; the tile partition guarantees
/// disjointness.
struct SharedMut<V> {
    ptr: *mut V,
    len: usize,
}

unsafe impl<V: Send> Send for SharedMut<V> {}
unsafe impl<V: Send> Sync for SharedMut<V> {}

impl<V> SharedMut<V> {
    fn new(data: &mut [V]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len() }
    }

    /// # Safety
    /// `idx` in bounds and owned by the calling worker for the job.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, idx: usize) -> &mut V {
        debug_assert!(idx < self.len);
        unsafe { &mut *self.ptr.add(idx) }
    }
}

/// The contiguous range of tiles worker `w` of `workers` owns.
#[inline]
fn tile_range(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    let rounds = if n == 0 { 0 } else { n.div_ceil(workers) };
    (w * rounds).min(n)..((w + 1) * rounds).min(n)
}

/// Sense-reversing barrier separating the gather and compute phases
/// *inside* one pool job, so an apply costs a single dispatch instead of
/// two. Yields while waiting — workers may be oversubscribed on few cores.
struct JobBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl JobBarrier {
    fn new(total: usize) -> Self {
        Self { arrived: AtomicUsize::new(0), generation: AtomicUsize::new(0), total }
    }

    fn wait(&self) {
        if self.total == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                std::thread::yield_now();
            }
        }
    }
}

/// Uniform lane-vector access to the streamed constants, whatever their
/// storage width: `compute_tile` is generic over this, so the native and
/// compressed paths share one (monomorphized) kernel body with the f16
/// up-conversion fused into the loads.
trait ConstStore<T: Real, const N: usize>: Sync {
    type G: GaugeTiles<T, N>;
    type C: CloverVecs<T, N>;
    fn gauge(&self) -> &Self::G;
    fn clover(&self, p: Parity, tile: usize) -> &Self::C;
}

struct NativeConsts<T: Real, const N: usize> {
    gauge: FusedGauge<T, N>,
    clover: FusedClover<T, N>,
}

struct HalfConsts<T: Real, const N: usize> {
    gauge: FusedGaugeF16<N>,
    clover: FusedCloverHalf<T, N>,
}

impl<T: Real, const N: usize> ConstStore<T, N> for NativeConsts<T, N> {
    type G = FusedGauge<T, N>;
    type C = CloverTile<T, N>;

    #[inline(always)]
    fn gauge(&self) -> &FusedGauge<T, N> {
        &self.gauge
    }

    #[inline(always)]
    fn clover(&self, p: Parity, tile: usize) -> &CloverTile<T, N> {
        self.clover.tile(p, tile)
    }
}

impl<T: Real, const N: usize> ConstStore<T, N> for HalfConsts<T, N> {
    type G = FusedGaugeF16<N>;
    type C = CloverTileHalf<T, N>;

    #[inline(always)]
    fn gauge(&self) -> &FusedGaugeF16<N> {
        &self.gauge
    }

    #[inline(always)]
    fn clover(&self, p: Parity, tile: usize) -> &CloverTileHalf<T, N> {
        &self.clover.data[p.index()][tile]
    }
}

/// The operator's constants in their selected storage width.
enum Storage<T: Real, const N: usize> {
    Native(NativeConsts<T, N>),
    Half(HalfConsts<T, N>),
}

/// The fused Wilson-Clover operator over the full local lattice for one
/// compiled lane count `N`.
pub struct FusedFullOperator<T: Real, const N: usize> {
    dims: Dims,
    layout: TileLayout,
    kernel: FusedKernel<T, N>,
    consts: Storage<T, N>,
    tuning: FusedTuning,
    /// Tile traversal order shared by every worker (each takes a
    /// contiguous chunk): flat z-then-t, or z-blocked to keep a block's
    /// constants + spinors inside the configured L2 budget. Tiles own
    /// disjoint sites, so any order is bitwise-equivalent.
    order: Vec<u32>,
    /// `[parity][tile * N + lane] -> lattice site`, precomputed so
    /// gather/scatter never pays per-site coordinate arithmetic.
    site_map: [Vec<u32>; 2],
    /// Gathered input in fused layout, reused across applications.
    scratch: Mutex<FusedField<T, N>>,
}

/// Per-parity-tile constant bytes at the given storage width.
fn const_tile_bytes<T: Real, const N: usize>(storage: StoragePrecision) -> usize {
    match storage {
        StoragePrecision::Native => {
            4 * std::mem::size_of::<GaugeTile<T, N>>() + std::mem::size_of::<CloverTile<T, N>>()
        }
        StoragePrecision::Half => {
            4 * std::mem::size_of::<GaugeTileF16<N>>() + std::mem::size_of::<CloverTileHalf<T, N>>()
        }
    }
}

/// Build the z-blocked tile traversal. The t hop reaches tile `(z, t±1)`,
/// which in the flat z-fastest order is a whole z-extent away — too far
/// for L2 reuse on large lattices. Restricting z to blocks of `zb` and
/// sweeping t inside each block shrinks that reach to `zb` tiles, so one
/// t row of constants + input tiles (both parities, times two adjacent
/// rows for the reuse window) fits the budget.
fn blocked_order(
    layout: &TileLayout,
    dims: Dims,
    tuning: &FusedTuning,
    per_tile: usize,
) -> Vec<u32> {
    let (bz, bt) = (dims[Dir::Z], dims[Dir::T]);
    let zb = match tuning.l2_bytes {
        Some(l2) => (l2 / (2 * per_tile).max(1)).clamp(1, bz),
        None => bz,
    };
    let mut order = Vec::with_capacity(bz * bt);
    let mut z0 = 0;
    while z0 < bz {
        let zend = (z0 + zb).min(bz);
        for t in 0..bt {
            for z in z0..zend {
                order.push(layout.tile_of(z, t) as u32);
            }
        }
        z0 = zend;
    }
    order
}

impl<T: Real, const N: usize> FusedFullOperator<T, N> {
    pub fn new(op: &WilsonClover<T>) -> Self {
        Self::with_tuning(op, FusedTuning::default())
    }

    pub fn with_tuning(op: &WilsonClover<T>, tuning: FusedTuning) -> Self {
        let dims = *op.dims();
        assert!(dims.0.iter().all(|&e| e % 2 == 0), "full fused operator needs even extents");
        let layout = TileLayout::new(dims);
        assert_eq!(layout.lanes(), N, "lane count mismatch");
        // Gauge/clover gathers and the kernel treat the whole lattice as
        // one block at the origin.
        let whole = Domain {
            index: 0,
            grid_coord: Coord([0; 4]),
            origin: Coord([0; 4]),
            dims,
            color: DomainColor::Black,
        };
        let kernel = FusedKernel::wrapping(dims, op.phases());
        let gauge = FusedGauge::gather(op, &whole);
        let clover = FusedClover::gather(op, &whole);
        let consts = match tuning.storage {
            StoragePrecision::Native => Storage::Native(NativeConsts { gauge, clover }),
            StoragePrecision::Half => Storage::Half(HalfConsts {
                gauge: FusedGaugeF16::compress(&gauge),
                clover: FusedCloverHalf::compress(&clover),
            }),
        };

        let idx = SiteIndexer::new(dims);
        let tiles = layout.tiles_per_parity();
        let mut site_map = [vec![0u32; tiles * N], vec![0u32; tiles * N]];
        for p in [Parity::Even, Parity::Odd] {
            for tile in 0..tiles {
                for lane in 0..N {
                    let c = layout.coord(p, tile, lane);
                    site_map[p.index()][tile * N + lane] = idx.index(&c) as u32;
                }
            }
        }

        // Blocking budget: both parities of constants + gathered input
        // spinors per (z, t) tile index.
        let per_tile =
            2 * (const_tile_bytes::<T, N>(tuning.storage) + std::mem::size_of::<FusedTile<T, N>>());
        let order = blocked_order(&layout, dims, &tuning, per_tile);
        debug_assert_eq!(order.len(), tiles);

        let scratch = Mutex::new(FusedField::zeros(dims));
        Self { dims, layout, kernel, consts, tuning, order, site_map, scratch }
    }

    /// Gather the AOS input sites of one tile into fused layout: one
    /// sequential pass over the tile's sites (the map is stride-2 in x, so
    /// reads stay in consecutive cache lines), transposing each site's 24
    /// reals into the component vectors. `site_map` entries are lattice
    /// sites by construction, so the unchecked reads are in bounds.
    #[inline]
    fn gather_tile(&self, src: &[Spinor<T>], dst: &mut FusedTile<T, N>, p: Parity, tile: usize) {
        let map = &self.site_map[p.index()][tile * N..(tile + 1) * N];
        debug_assert!(map.iter().all(|&s| (s as usize) < src.len()));
        for (l, &site) in map.iter().enumerate() {
            let s = unsafe { src.get_unchecked(site as usize) };
            for k in 0..12 {
                let z = s.component(k);
                dst[2 * k].0[l] = z.re;
                dst[2 * k + 1].0[l] = z.im;
            }
        }
    }

    /// Scatter one computed tile back to the AOS output sites.
    ///
    /// # Safety
    /// The tile must be owned by the calling worker (tiles partition the
    /// site set, so the per-tile partition guarantees this).
    #[inline]
    unsafe fn scatter_tile(
        &self,
        acc: &FusedTile<T, N>,
        out: &SharedMut<Spinor<T>>,
        p: Parity,
        tile: usize,
    ) {
        let map = &self.site_map[p.index()][tile * N..(tile + 1) * N];
        for (l, &site) in map.iter().enumerate() {
            let s = unsafe { out.get_mut(site as usize) };
            for k in 0..12 {
                s.set_component(k, Complex::new(acc[2 * k].0[l], acc[2 * k + 1].0[l]));
            }
        }
    }

    /// One output tile of `A inp = (diag - 1/2 Dw) inp` with wrapping
    /// boundaries: diagonal plus all eight hops, in a fixed order — no
    /// masks, all lanes live. Generic over the constant storage; the
    /// native instantiation is the exact pre-compression kernel.
    fn compute_tile<S: ConstStore<T, N>>(
        &self,
        consts: &S,
        inp: &FusedField<T, N>,
        tile: usize,
        to: Parity,
    ) -> FusedTile<T, N> {
        let mut acc = clover_apply_tile(consts.clover(to, tile), inp.tile(to, tile));
        self.kernel.hop_tile(&mut acc, inp, consts.gauge(), tile, to);
        acc
    }

    /// Issue prefetches for the constants (and, in `L1L2` mode, the
    /// gathered input spinors) of the tile the worker will compute next.
    #[inline]
    fn prefetch_tile<S: ConstStore<T, N>>(
        &self,
        consts: &S,
        inp: &FusedField<T, N>,
        tile: usize,
        mode: SwPrefetch,
    ) {
        for p in [Parity::Even, Parity::Odd] {
            for dir in Dir::ALL {
                prefetch_lines(consts.gauge().tile(p, tile, dir), true);
            }
            prefetch_lines(consts.clover(p, tile), true);
            if mode == SwPrefetch::L1L2 {
                prefetch_lines(inp.tile(p, tile), false);
            }
        }
    }

    /// Compute + scatter the worker's chunk of the traversal order,
    /// software-prefetching one tile ahead when configured.
    ///
    /// # Safety
    /// The chunk's tiles must be owned by the calling worker (the
    /// traversal order is a permutation of all tiles and workers take
    /// disjoint chunks, so the per-tile site sets are disjoint).
    unsafe fn compute_chunk<S: ConstStore<T, N>>(
        &self,
        consts: &S,
        fused: &FusedField<T, N>,
        chunk: &[u32],
        out: &SharedMut<Spinor<T>>,
    ) {
        let pf = self.tuning.prefetch;
        for (i, &tile) in chunk.iter().enumerate() {
            if pf != SwPrefetch::None {
                if let Some(&next) = chunk.get(i + 1) {
                    self.prefetch_tile(consts, fused, next as usize, pf);
                }
            }
            for p in [Parity::Even, Parity::Odd] {
                let acc = self.compute_tile(consts, fused, tile as usize, p);
                unsafe { self.scatter_tile(&acc, out, p, tile as usize) };
            }
        }
    }
}

/// Touch every cache line of `*v` with a prefetch hint: `to_l1` uses T0
/// (all levels), otherwise T1 (L2 and up). Compiles to nothing off
/// x86_64. Prefetches are architecturally side-effect-free, so this
/// never changes results — only residency.
#[inline(always)]
fn prefetch_lines<V>(v: &V, to_l1: bool) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0, _MM_HINT_T1};
        let p = (v as *const V).cast::<i8>();
        let n = std::mem::size_of::<V>();
        let mut off = 0usize;
        while off < n {
            if to_l1 {
                _mm_prefetch::<_MM_HINT_T0>(p.add(off));
            } else {
                _mm_prefetch::<_MM_HINT_T1>(p.add(off));
            }
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (v, to_l1);
    }
}

impl<T: Real, const N: usize> FullOperator<T> for FusedFullOperator<T, N> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn lanes(&self) -> usize {
        N
    }

    fn tuning(&self) -> FusedTuning {
        self.tuning
    }

    fn streamed_bytes_per_site(&self) -> usize {
        let consts_per_site = const_tile_bytes::<T, N>(self.tuning.storage) / N;
        let spinors_per_site = 2 * std::mem::size_of::<Spinor<T>>();
        // `const_tile_bytes` is per parity-tile; a parity-tile holds `N`
        // sites and both parities are streamed once per apply, so the
        // per-site constant cost is exactly `consts_per_site` (the
        // parity factor cancels against half the sites living on each).
        consts_per_site + spinors_per_site
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, runner: &dyn ParallelRunner) {
        self.apply_selected(out, inp, runner, &self.order);
    }

    fn split_tiles(&self, split: [bool; 4]) -> Option<SplitTiles> {
        // Tiles span the full x-y cross-section: an x/y split cuts
        // through every tile, so only z/t splits partition cleanly.
        if split[0] || split[1] {
            return None;
        }
        let (bz, bt) = (self.dims[Dir::Z], self.dims[Dir::T]);
        let is_boundary = |tile: u32| {
            let (tz, tt) = self.layout.tile_coords(tile as usize);
            (split[2] && (tz == 0 || tz == bz - 1)) || (split[3] && (tt == 0 || tt == bt - 1))
        };
        // Preserve the operator's traversal order within each class so
        // a staged apply keeps the L2-blocked locality of the full one.
        let mut parts = SplitTiles::default();
        for &tile in &self.order {
            if is_boundary(tile) {
                parts.boundary.push(tile);
            } else {
                parts.interior.push(tile);
            }
        }
        for &tile in &parts.boundary {
            for p in [Parity::Even, Parity::Odd] {
                let map = &self.site_map[p.index()][tile as usize * N..(tile as usize + 1) * N];
                parts.boundary_sites.extend(map.iter().map(|&s| s as usize));
            }
        }
        parts.boundary_sites.sort_unstable();
        Some(parts)
    }

    fn apply_tiles(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        runner: &dyn ParallelRunner,
        tiles: &[u32],
    ) {
        self.apply_selected(out, inp, runner, tiles);
    }
}

impl<T: Real, const N: usize> FusedFullOperator<T, N> {
    /// `apply` restricted to `select`ed tiles: gather covers the whole
    /// lattice (a selected tile's z/t hops read *neighbor* tiles from
    /// the fused scratch), compute and scatter touch only the selected
    /// tiles' sites. The full apply is `select = &self.order`.
    fn apply_selected(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        runner: &dyn ParallelRunner,
        select: &[u32],
    ) {
        assert_eq!(*inp.dims(), self.dims, "input geometry mismatch");
        assert_eq!(*out.dims(), self.dims, "output geometry mismatch");
        let tiles = self.layout.tiles_per_parity();
        debug_assert!(select.iter().all(|&t| (t as usize) < tiles), "tile out of range");
        let workers = runner.workers().max(1);
        let mut guard = self.scratch.lock().unwrap();

        // One dispatch, two phases separated by an internal barrier:
        // gather the AOS input into fused layout (disjoint tile writes),
        // then compute each selected output tile (diag + 8 hops, fixed
        // order) and scatter straight to the AOS output — tiles own
        // disjoint sites, so the result is bitwise independent of the
        // worker count.
        //
        // The scratch field is written through raw tile pointers before
        // the barrier and only read (through the same pointers) after it,
        // so the phases never alias a write with a read.
        struct ScratchPtr<T: Real, const N: usize>(*mut FusedField<T, N>);
        unsafe impl<T: Real, const N: usize> Send for ScratchPtr<T, N> {}
        unsafe impl<T: Real, const N: usize> Sync for ScratchPtr<T, N> {}
        impl<T: Real, const N: usize> ScratchPtr<T, N> {
            /// # Safety
            /// No write to the field may be concurrent with the returned
            /// borrow (here: all writes happen before the phase barrier).
            #[inline]
            unsafe fn get(&self) -> &FusedField<T, N> {
                unsafe { &*self.0 }
            }
        }
        let scratch = ScratchPtr::<T, N>(&mut *guard);
        let (even, odd) = unsafe { (*scratch.0).parity_slices_mut() };
        let se = SharedMut::new(even);
        let so = SharedMut::new(odd);
        let src = inp.as_slice();
        let shared_out = SharedMut::new(out.as_mut_slice());
        let barrier = JobBarrier::new(workers);
        runner.run(&|w| {
            for tile in tile_range(tiles, workers, w) {
                self.gather_tile(src, unsafe { se.get_mut(tile) }, Parity::Even, tile);
                self.gather_tile(src, unsafe { so.get_mut(tile) }, Parity::Odd, tile);
            }
            barrier.wait();
            let fused: &FusedField<T, N> = unsafe { scratch.get() };
            let chunk = &select[tile_range(select.len(), workers, w)];
            // One storage dispatch per worker job; the chunk loop runs a
            // fully monomorphized kernel either way.
            match &self.consts {
                Storage::Native(c) => unsafe {
                    self.compute_chunk(c, fused, chunk, &shared_out);
                },
                Storage::Half(c) => unsafe {
                    self.compute_chunk(c, fused, chunk, &shared_out);
                },
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clover::build_clover_field;
    use crate::gamma::GammaBasis;
    use crate::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, phases: BoundaryPhases, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, 0.7);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.6, &basis);
        WilsonClover::new(g, c, 0.2, phases)
    }

    fn check_matches_scalar(dims: Dims, phases: BoundaryPhases, seed: u64) {
        let op = operator(dims, phases, seed);
        let fused = build_full_operator(&op).expect("even extents must build");
        assert_eq!(fused.lanes(), dims.0[0] * dims.0[1] / 2);
        let mut rng = Rng64::new(seed ^ 0x5eed);
        let inp = SpinorField::<f64>::random(dims, &mut rng);
        let mut expect = SpinorField::zeros(dims);
        op.apply(&mut expect, &inp);
        let mut got = SpinorField::zeros(dims);
        fused.apply(&mut got, &inp, &SerialRunner);
        for site in 0..inp.len() {
            let d = got.site(site).sub(*expect.site(site));
            assert!(d.norm_sqr() < 1e-20, "dims {dims} seed {seed} site {site}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn full_fused_matches_scalar_periodic() {
        for (dims, seed) in [
            (Dims::new(4, 4, 4, 4), 11),
            (Dims::new(8, 4, 4, 4), 12),
            (Dims::new(4, 4, 2, 6), 13),
            (Dims::new(2, 2, 2, 2), 14),
        ] {
            check_matches_scalar(dims, BoundaryPhases::periodic(), seed);
        }
    }

    #[test]
    fn full_fused_matches_scalar_antiperiodic_t() {
        // The t-wrap hop carries the -1 phase; short t extents make every
        // tile touch the wrap.
        for (dims, seed) in
            [(Dims::new(4, 4, 4, 4), 21), (Dims::new(4, 4, 2, 2), 22), (Dims::new(8, 4, 2, 6), 23)]
        {
            check_matches_scalar(dims, BoundaryPhases::antiperiodic_t(), seed);
        }
    }

    #[test]
    fn full_fused_matches_scalar_many_gauge_fields() {
        // Property sweep: random gauge fields on the paper-shaped lattice
        // exercise odd/even tile edges in every direction.
        for seed in 31..39 {
            check_matches_scalar(Dims::new(8, 4, 4, 4), BoundaryPhases::antiperiodic_t(), seed);
        }
    }

    #[test]
    fn odd_extent_returns_none() {
        for dims in [Dims::new(3, 4, 4, 4), Dims::new(4, 4, 3, 4), Dims::new(4, 4, 4, 5)] {
            let op = operator(Dims::new(4, 4, 4, 4), BoundaryPhases::periodic(), 41);
            // Build a small op of the odd geometry directly; WilsonClover
            // itself has no evenness requirement.
            let mut rng = Rng64::new(42);
            let g = GaugeField::random(dims, &mut rng, 0.5);
            let basis = GammaBasis::degrand_rossi();
            let c = build_clover_field(&g, 1.6, &basis);
            let odd_op = WilsonClover::new(g, c, 0.2, BoundaryPhases::periodic());
            assert!(build_full_operator(&odd_op).is_none(), "dims {dims} must fall back");
            drop(op);
        }
    }

    /// Scoped-thread runner for worker-count sweeps inside this crate
    /// (the solver layer's persistent pool lives above qdd-dirac).
    struct TestPool(usize);

    impl ParallelRunner for TestPool {
        fn workers(&self) -> usize {
            self.0
        }

        fn run(&self, job: &(dyn Fn(usize) + Sync)) {
            std::thread::scope(|s| {
                for w in 0..self.0 {
                    s.spawn(move || job(w));
                }
            });
        }
    }

    fn assert_bitwise_eq<T: Real>(a: &SpinorField<T>, b: &SpinorField<T>, what: &str) {
        for site in 0..a.len() {
            for k in 0..12 {
                let (x, y) = (a.site(site).component(k), b.site(site).component(k));
                assert!(
                    x.re == y.re && x.im == y.im,
                    "{what}: site {site} component {k}: {:?} vs {:?}",
                    x,
                    y
                );
            }
        }
    }

    /// The compatibility contract the solver layer relies on: for an
    /// operator whose constants were already rounded through f16
    /// (`Precision::HalfCompressed` pre-rounds exactly like this),
    /// genuine f16 storage is lossless — re-compressing
    /// f16-representable values is exact and the FMA order is shared —
    /// so Native and Half applies agree bitwise.
    #[test]
    fn half_storage_of_prerounded_op_is_bitwise_native() {
        use qdd_field::fields::{CloverFieldF16, GaugeFieldF16};
        let dims = Dims::new(8, 4, 4, 4);
        let op = operator(dims, BoundaryPhases::antiperiodic_t(), 61);
        let g16 = GaugeFieldF16::compress(&op.gauge().cast()).decompress();
        let c16 = CloverFieldF16::compress(&op.clover().cast()).decompress();
        let op32 = WilsonClover::<f32>::new(g16, c16, op.mass() as f32, *op.phases());

        let native = build_full_operator(&op32).unwrap();
        let half = build_full_operator_tuned(
            &op32,
            FusedTuning {
                storage: StoragePrecision::Half,
                prefetch: SwPrefetch::L1,
                l2_bytes: Some(1 << 15),
            },
        )
        .unwrap();
        assert_eq!(half.streamed_bytes_per_site(), 504);
        assert_eq!(native.streamed_bytes_per_site(), 768);

        let mut rng = Rng64::new(62);
        let inp = SpinorField::<f32>::random(dims, &mut rng);
        let mut a = SpinorField::zeros(dims);
        let mut b = SpinorField::zeros(dims);
        native.apply(&mut a, &inp, &SerialRunner);
        half.apply(&mut b, &inp, &SerialRunner);
        assert_bitwise_eq(&a, &b, "native vs half storage of pre-rounded op");
    }

    /// f16-storage apply against the *unrounded* scalar f64 apply: the
    /// only perturbation is the constants' round to f16 (relative error
    /// <= 2^-12 per entry), so with O(1) gauge/clover entries and the
    /// diag + 8-hop sum the normwise relative error stays far below
    /// ~100 * 2^-12; assert an order-of-magnitude slack of 1e-2.
    #[test]
    fn half_storage_matches_scalar_f64_within_f16_bound() {
        let dims = Dims::new(8, 4, 4, 4);
        let op = operator(dims, BoundaryPhases::antiperiodic_t(), 63);
        let half = build_full_operator_tuned(
            &op,
            FusedTuning {
                storage: StoragePrecision::Half,
                prefetch: SwPrefetch::None,
                l2_bytes: None,
            },
        )
        .unwrap();
        let mut rng = Rng64::new(64);
        let inp = SpinorField::<f64>::random(dims, &mut rng);
        let mut expect = SpinorField::zeros(dims);
        op.apply(&mut expect, &inp);
        let mut got = SpinorField::zeros(dims);
        half.apply(&mut got, &inp, &SerialRunner);
        let (mut err2, mut ref2) = (0.0f64, 0.0f64);
        for site in 0..inp.len() {
            err2 += got.site(site).sub(*expect.site(site)).norm_sqr();
            ref2 += expect.site(site).norm_sqr();
        }
        let rel = (err2 / ref2).sqrt();
        assert!(rel < 1e-2, "normwise relative error {rel}");
        assert!(rel > 1e-8, "f16 storage must actually round (got {rel})");
    }

    /// Blocking + prefetch + compressed storage must be bitwise
    /// worker-count-independent and identical to the untuned traversal:
    /// tiles own disjoint sites and each tile's accumulation order is
    /// fixed, so order and residency hints cannot change results.
    #[test]
    fn tuned_paths_are_bitwise_worker_and_order_independent() {
        let dims = Dims::new(4, 4, 8, 6);
        let op = operator(dims, BoundaryPhases::antiperiodic_t(), 65);
        let plain = build_full_operator(&op).unwrap();
        let tuned = build_full_operator_tuned(
            &op,
            FusedTuning {
                storage: StoragePrecision::Native,
                prefetch: SwPrefetch::L1L2,
                // Tiny budget: forces zb = 1, the most reordered walk.
                l2_bytes: Some(1),
            },
        )
        .unwrap();
        let half = build_full_operator_tuned(
            &op,
            FusedTuning {
                storage: StoragePrecision::Half,
                prefetch: SwPrefetch::L1,
                l2_bytes: Some(1 << 14),
            },
        )
        .unwrap();

        let mut rng = Rng64::new(66);
        let inp = SpinorField::<f64>::random(dims, &mut rng);
        let mut reference = SpinorField::zeros(dims);
        plain.apply(&mut reference, &inp, &SerialRunner);
        let mut blocked = SpinorField::zeros(dims);
        tuned.apply(&mut blocked, &inp, &SerialRunner);
        assert_bitwise_eq(&reference, &blocked, "blocked+prefetch vs flat traversal");

        let mut half_ref = SpinorField::zeros(dims);
        half.apply(&mut half_ref, &inp, &SerialRunner);
        for workers in [2, 4] {
            let mut got = SpinorField::zeros(dims);
            half.apply(&mut got, &inp, &TestPool(workers));
            assert_bitwise_eq(&half_ref, &got, "half-storage worker sweep");
            let mut got_native = SpinorField::zeros(dims);
            tuned.apply(&mut got_native, &inp, &TestPool(workers));
            assert_bitwise_eq(&reference, &got_native, "blocked worker sweep");
        }
    }

    /// Pin the streamed-bytes accounting: the compression ratio vs the
    /// plateaued f64 path is what the memory-wall PR promises.
    #[test]
    fn streamed_bytes_per_site_pinned() {
        let dims = Dims::new(8, 4, 4, 4);
        let op = operator(dims, BoundaryPhases::periodic(), 67);
        let op32: WilsonClover<f32> = op.cast();
        let f64_native = build_full_operator(&op).unwrap();
        let f32_native = build_full_operator(&op32).unwrap();
        let f32_half = build_full_operator_tuned(
            &op32,
            FusedTuning {
                storage: StoragePrecision::Half,
                prefetch: SwPrefetch::None,
                l2_bytes: None,
            },
        )
        .unwrap();
        assert_eq!(f64_native.streamed_bytes_per_site(), 1536);
        assert_eq!(f32_native.streamed_bytes_per_site(), 768);
        assert_eq!(f32_half.streamed_bytes_per_site(), 504);
        let ratio =
            f64_native.streamed_bytes_per_site() as f64 / f32_half.streamed_bytes_per_site() as f64;
        assert!(ratio >= 1.8, "compression ratio {ratio}");
    }

    /// The blocked traversal is a permutation of all tiles for any
    /// budget, and degenerates to the identity without one.
    #[test]
    fn blocked_order_is_a_permutation() {
        let dims = Dims::new(4, 4, 10, 6);
        let layout = TileLayout::new(dims);
        let tiles = layout.tiles_per_parity();
        let flat = blocked_order(&layout, dims, &FusedTuning::default(), 1024);
        assert_eq!(flat, (0..tiles as u32).collect::<Vec<_>>());
        for l2 in [1usize, 4096, 1 << 20] {
            let tuning = FusedTuning {
                storage: StoragePrecision::Native,
                prefetch: SwPrefetch::None,
                l2_bytes: Some(l2),
            };
            let order = blocked_order(&layout, dims, &tuning, 1024);
            let mut seen = vec![false; tiles];
            for &t in &order {
                assert!(!std::mem::replace(&mut seen[t as usize], true), "tile {t} repeated");
            }
            assert!(seen.iter().all(|&s| s), "l2 {l2}: not all tiles covered");
        }
    }

    #[test]
    fn f32_full_fused_matches_scalar_at_f32_accuracy() {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, BoundaryPhases::antiperiodic_t(), 51);
        let op32: WilsonClover<f32> = op.cast();
        let fused = build_full_operator(&op32).unwrap();
        let mut rng = Rng64::new(52);
        let inp32 = SpinorField::<f32>::random(dims, &mut rng);
        let mut expect = SpinorField::zeros(dims);
        op32.apply(&mut expect, &inp32);
        let mut got = SpinorField::zeros(dims);
        fused.apply(&mut got, &inp32, &SerialRunner);
        for site in 0..inp32.len() {
            let d = got.site(site).sub(*expect.site(site));
            assert!(d.norm_sqr() < 1e-8, "site {site}: {}", d.norm_sqr());
        }
    }
}
