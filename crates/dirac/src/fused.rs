//! The site-fused SIMD block operator (paper Sec. III-A, Figs. 2-3).
//!
//! This is the paper's data-layout contribution executed literally: the
//! spinors of a domain live in xy-tile SOA form ([`FusedField`]), gauge
//! links and clover blocks in matching per-tile SOA ([`FusedGauge`],
//! [`FusedClover`]), and the Wilson hop runs on whole lanes:
//!
//! - z/t hops move tile-to-tile with no lane shuffling; a hop crossing the
//!   edge of the region is dropped wholesale (Dirichlet block) or reads
//!   the opposite-edge tile, times the boundary phase (whole lattice).
//! - x/y hops permute lanes in-register. The spin projection and the
//!   colour multiply are lane-wise, so the permutation runs on the 12
//!   half-spinor vectors, never on the 24 of the source or the 18 of a
//!   link: a backward hop multiplies by the source site's link in source
//!   lane order and brings `U^dag h` over. Lanes whose neighbour lies
//!   outside a Dirichlet block are masked to zero (the paper's mask_add,
//!   Fig. 2) — costing the documented 2/16 (x) and 4/16 (y) SIMD
//!   efficiency; on the whole lattice they wrap with the boundary phase.
//!
//! One tile body, [`FusedKernel::hop_tile`], serves the block kernel here
//! and the full-lattice operator in [`crate::fused_full`]. Everything is
//! validated lane-for-lane against the scalar
//! [`SchurOperator`](crate::block::SchurOperator) path.

use crate::gamma::GammaBasis;
use crate::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::clover::CloverSite;
use qdd_field::fused::{FusedField, FusedTile, VReal, VF16};
use qdd_field::lanes::LaneMask;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, Dir, Domain, Parity, SiteIndexer, TileLayout};
use qdd_util::complex::{Complex, Real, C64};
use std::sync::Arc;

/// `R` lane vectors of constants of one tile, packed: a row is exactly `N`
/// scalars, and the *tile* — not each row — is cache-line aligned. Rows of
/// 32 or 64 bytes then never straddle a line, and a cross-section narrower
/// than a register (the 4x4 f32 block: 8 lanes, 32 bytes) pays no padding,
/// where an array of 64-byte-aligned [`VReal`]s would double its constants.
/// Rows of a cache line or more are laid out exactly as `[VReal; R]`.
#[derive(Copy, Clone, PartialEq, Debug)]
#[repr(C, align(64))]
pub struct Rows<T: Real, const N: usize, const R: usize>(pub [[T; N]; R]);

impl<T: Real, const N: usize, const R: usize> Rows<T, N, R> {
    pub const ZERO: Self = Rows([[T::ZERO; N]; R]);

    /// Row `k` as a compute vector.
    #[inline(always)]
    pub fn vec(&self, k: usize) -> VReal<T, N> {
        VReal(self.0[k])
    }
}

/// One tile worth of gauge links for one direction: 3x3 complex in
/// re/im-split SOA (`idx = 2*(3*i + j) + {0: re, 1: im}`).
pub type GaugeTile<T, const N: usize> = Rows<T, N, 18>;

/// Same layout with packed f16 storage (paper Sec. II-A: constants are
/// stored compressed and up-converted on load). Half the bytes of the f32
/// tile, a quarter of the f64 one.
pub type GaugeTileF16<const N: usize> = [VF16<N>; 18];

/// Lane-vector read access to a gauge tile in *compute* precision — the
/// hook that lets the SU(3) kernels stream either native or compressed
/// storage. The native impl is a register copy; the f16 impl fuses the
/// lane-wise up-conversion into the consuming multiply, so the compressed
/// tile is never materialized at full width in memory.
pub trait GaugeVecs<T: Real, const N: usize>: Sync {
    fn vec(&self, k: usize) -> VReal<T, N>;
}

impl<T: Real, const N: usize> GaugeVecs<T, N> for GaugeTile<T, N> {
    #[inline(always)]
    fn vec(&self, k: usize) -> VReal<T, N> {
        Rows::vec(self, k)
    }
}

impl<T: Real, const N: usize> GaugeVecs<T, N> for GaugeTileF16<N> {
    #[inline(always)]
    fn vec(&self, k: usize) -> VReal<T, N> {
        self[k].decompress()
    }
}

/// Lane-vector read access to one tile's clover storage (both
/// chiralities), in compute precision. Mirrors [`GaugeVecs`].
pub trait CloverVecs<T: Real, const N: usize>: Sync {
    /// Real diagonal `i` (0..6) of chirality `ch`.
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N>;
    /// Re/im-split off-diagonal component `k` (0..30) of chirality `ch`.
    fn off(&self, ch: usize, k: usize) -> VReal<T, N>;
}

/// Native per-tile clover storage: `(diag[6], off_re_im[30])` per
/// chirality.
pub type CloverTile<T, const N: usize> = [(Rows<T, N, 6>, Rows<T, N, 30>); 2];

/// Compressed per-tile clover storage. The 30 off-diagonal vectors pack
/// to f16; the 6 real diagonals stay at compute width because they carry
/// the `(4 + m)` mass shift, which is folded in *after* the clover term
/// was rounded — keeping them native makes the compressed operator
/// express the f16-rounded operator exactly (and the diagonal is the
/// term whose dynamic range f16 handles worst).
pub type CloverTileHalf<T, const N: usize> = [(Rows<T, N, 6>, [VF16<N>; 30]); 2];

impl<T: Real, const N: usize> CloverVecs<T, N> for CloverTile<T, N> {
    #[inline(always)]
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N> {
        self[ch].0.vec(i)
    }

    #[inline(always)]
    fn off(&self, ch: usize, k: usize) -> VReal<T, N> {
        self[ch].1.vec(k)
    }
}

impl<T: Real, const N: usize> CloverVecs<T, N> for CloverTileHalf<T, N> {
    #[inline(always)]
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N> {
        self[ch].0.vec(i)
    }

    #[inline(always)]
    fn off(&self, ch: usize, k: usize) -> VReal<T, N> {
        self[ch].1[k].decompress()
    }
}

/// Apply one tile of the clover + mass diagonal: `dst = A src`, with the
/// constants streamed through [`CloverVecs`] (native or compressed). The
/// block kernel's [`FusedKernel::apply_diag`] and the full-lattice
/// operator's diagonal phase both run this exact FMA sequence, so native
/// storage stays bitwise identical across paths.
#[inline]
pub(crate) fn clover_apply_tile<T: Real, const N: usize, C: CloverVecs<T, N>>(
    clover: &C,
    src: &FusedTile<T, N>,
) -> FusedTile<T, N> {
    use qdd_field::clover::LOWER_PAIRS;
    let mut dst: FusedTile<T, N> = [VReal::ZERO; 24];
    for ch in 0..2 {
        // Diagonal.
        for i in 0..6 {
            let k = 6 * ch + i;
            let d = clover.diag(ch, i);
            dst[2 * k] = src[2 * k].mul(d);
            dst[2 * k + 1] = src[2 * k + 1].mul(d);
        }
        // Off-diagonals (i > j): dst_i += off * src_j;
        // dst_j += conj(off) * src_i.
        for (kk, &(i, j)) in LOWER_PAIRS.iter().enumerate() {
            let o_re = clover.off(ch, 2 * kk);
            let o_im = clover.off(ch, 2 * kk + 1);
            let gi = 6 * ch + i;
            let gj = 6 * ch + j;
            let (sj_re, sj_im) = (src[2 * gj], src[2 * gj + 1]);
            dst[2 * gi] = dst[2 * gi].fma(o_re, sj_re).fms(o_im, sj_im);
            dst[2 * gi + 1] = dst[2 * gi + 1].fma(o_re, sj_im).fma(o_im, sj_re);
            let (si_re, si_im) = (src[2 * gi], src[2 * gi + 1]);
            dst[2 * gj] = dst[2 * gj].fma(o_re, si_re).fma(o_im, si_im);
            dst[2 * gj + 1] = dst[2 * gj + 1].fma(o_re, si_im).fms(o_im, si_re);
        }
    }
    dst
}

/// `[parity][tile]` storage of one domain, gathered site by site through
/// `site(tile, lane, lattice site)`; `None` as soon as one site has no
/// value.
fn gather_tiles<V: Clone>(
    lattice: &Dims,
    domain: &Domain,
    zero: V,
    mut site: impl FnMut(&mut V, usize, usize) -> Option<()>,
) -> Option<[Vec<V>; 2]> {
    let layout = TileLayout::new(domain.dims);
    let tiles = layout.tiles_per_parity();
    let mut data = [vec![zero.clone(); tiles], vec![zero; tiles]];
    let lattice_idx = SiteIndexer::new(*lattice);
    for local in SiteIndexer::new(domain.dims).iter() {
        let (p, tile, lane) = layout.locate(&local);
        let gsite = lattice_idx.index(&domain.to_lattice(&local));
        site(&mut data[p.index()][tile], lane, gsite)?;
    }
    Some(data)
}

/// Per-domain gauge field in fused layout.
pub struct FusedGauge<T: Real, const N: usize> {
    /// `[parity][tile][dir]`.
    data: [Vec<[GaugeTile<T, N>; 4]>; 2],
}

impl<T: Real, const N: usize> FusedGauge<T, N> {
    /// Gather the links of `domain` from the whole-lattice operator.
    pub fn gather(op: &WilsonClover<T>, domain: &Domain) -> Self {
        assert_eq!(TileLayout::new(domain.dims).lanes(), N);
        let data = gather_tiles(op.dims(), domain, [Rows::ZERO; 4], |dirs, lane, gsite| {
            for dir in Dir::ALL {
                let u = op.gauge().link(gsite, dir);
                let gt = &mut dirs[dir.index()];
                for i in 0..3 {
                    for j in 0..3 {
                        gt.0[2 * (3 * i + j)][lane] = u.0[i][j].re;
                        gt.0[2 * (3 * i + j) + 1][lane] = u.0[i][j].im;
                    }
                }
            }
            Some(())
        });
        Self { data: data.expect("every site has links") }
    }
}

/// Per-domain clover + mass diagonal in fused layout: for each chirality,
/// 6 real diagonals and 15 complex off-diagonals (re/im split).
pub struct FusedClover<T: Real, const N: usize> {
    /// `[parity][tile][chirality]` -> (diag[6], off_re_im[30]).
    data: [Vec<CloverTile<T, N>>; 2],
}

impl<T: Real, const N: usize> FusedClover<T, N> {
    /// Gather the `(Nd+m) + Dcl` diagonal of `domain`.
    pub fn gather(op: &WilsonClover<T>, domain: &Domain) -> Self {
        Self::gather_with(op.dims(), domain, |gsite| Some(*op.diag().site(gsite)))
            .expect("every site has a diagonal")
    }

    /// Gather the per-site *inverse* of the diagonal, inverting each site
    /// block once on the way. `None` when a block is singular.
    pub fn gather_inverse(op: &WilsonClover<T>, domain: &Domain) -> Option<Self> {
        Self::gather_with(op.dims(), domain, |gsite| op.diag().site(gsite).invert())
    }

    fn gather_with(
        lattice: &Dims,
        domain: &Domain,
        mut site: impl FnMut(usize) -> Option<CloverSite<T>>,
    ) -> Option<Self> {
        assert_eq!(TileLayout::new(domain.dims).lanes(), N);
        let zero = [(Rows::ZERO, Rows::ZERO); 2];
        let data = gather_tiles(lattice, domain, zero, |tile, lane, gsite| {
            let site = site(gsite)?;
            for ch in 0..2 {
                let blk = &site.block[ch];
                let (diag, off) = &mut tile[ch];
                for i in 0..6 {
                    diag.0[i][lane] = blk.diag[i];
                }
                for k in 0..15 {
                    off.0[2 * k][lane] = blk.off[k].re;
                    off.0[2 * k + 1][lane] = blk.off[k].im;
                }
            }
            Some(())
        })?;
        Some(Self { data })
    }

    #[inline]
    pub(crate) fn tile(&self, parity: Parity, tile: usize) -> &CloverTile<T, N> {
        &self.data[parity.index()][tile]
    }
}

/// Per-domain gauge field with packed f16 tiles: the compressed-storage
/// counterpart of [`FusedGauge`] (paper Sec. II-A). Built by rounding a
/// native field; re-compressing values that are already
/// f16-representable is lossless, so an operator whose links were
/// pre-rounded through f16 yields bitwise-identical applies from either
/// container.
pub struct FusedGaugeF16<const N: usize> {
    /// `[parity][tile][dir]`.
    data: [Vec<[GaugeTileF16<N>; 4]>; 2],
}

impl<const N: usize> FusedGaugeF16<N> {
    /// Compress a gathered native gauge field tile-for-tile.
    pub fn compress<T: Real>(src: &FusedGauge<T, N>) -> Self {
        let data = std::array::from_fn(|p| {
            src.data[p]
                .iter()
                .map(|dirs| {
                    std::array::from_fn(|d| {
                        std::array::from_fn(|k| VF16::compress(&dirs[d].vec(k)))
                    })
                })
                .collect()
        });
        Self { data }
    }
}

/// Compressed counterpart of [`FusedClover`]: f16 off-diagonals, native
/// diagonals (see [`CloverTileHalf`]).
pub struct FusedCloverHalf<T: Real, const N: usize> {
    /// `[parity][tile][chirality]` -> (diag[6], off_re_im[30]).
    pub(crate) data: [Vec<CloverTileHalf<T, N>>; 2],
}

impl<T: Real, const N: usize> FusedCloverHalf<T, N> {
    /// Compress a gathered native clover field tile-for-tile.
    pub fn compress(src: &FusedClover<T, N>) -> Self {
        let data = std::array::from_fn(|p| {
            src.data[p]
                .iter()
                .map(|chs| {
                    std::array::from_fn(|ch| {
                        let (diag, off) = &chs[ch];
                        (*diag, std::array::from_fn(|k| VF16::compress(&off.vec(k))))
                    })
                })
                .collect()
        });
        Self { data }
    }
}

/// `[parity][tile][dir]` access to a gauge container's tiles — what the
/// hop body needs of the native and the compressed storage alike.
pub(crate) trait GaugeTiles<T: Real, const N: usize>: Sync {
    type Tile: GaugeVecs<T, N>;
    fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &Self::Tile;
}

impl<T: Real, const N: usize> GaugeTiles<T, N> for FusedGauge<T, N> {
    type Tile = GaugeTile<T, N>;

    #[inline(always)]
    fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTile<T, N> {
        &self.data[parity.index()][tile][dir.index()]
    }
}

impl<T: Real, const N: usize> GaugeTiles<T, N> for FusedGaugeF16<N> {
    type Tile = GaugeTileF16<N>;

    #[inline(always)]
    fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTileF16<N> {
        &self.data[parity.index()][tile][dir.index()]
    }
}

/// What becomes of the lanes of an x/y hop whose neighbour lies across
/// the edge of the cross-section.
enum Edge<T: Real, const N: usize> {
    /// Dirichlet block: they are dropped (masked to zero).
    Drop(LaneMask<N>),
    /// Whole lattice: they wrap, and every lane arrives unchanged.
    Wrap,
    /// Whole lattice with a boundary phase other than `+1`: the wrapping
    /// lanes pick it up, the others `1`.
    Phase(VReal<T, N>),
}

/// The lane movement of one x/y hop for one (flavor, destination parity).
struct XyHop<T: Real, const N: usize> {
    /// Destination lane -> source lane.
    table: [u32; N],
    edge: Edge<T, N>,
}

impl<T: Real, const N: usize> XyHop<T, N> {
    fn new(
        layout: &TileLayout,
        wrap: Option<&BoundaryPhases>,
        flavor: usize,
        to: Parity,
        dir: Dir,
        fwd: bool,
    ) -> Self {
        let extent = layout.block()[dir];
        let mut table = [0u32; N];
        let mut crosses = [false; N];
        for lane in 0..N {
            let (x, y) = layout.lane_site(flavor, to, lane);
            let c = if dir == Dir::X { x } else { y };
            crosses[lane] = if fwd { c + 1 == extent } else { c == 0 };
            let nc = (c + if fwd { 1 } else { extent - 1 }) % extent;
            let (sx, sy) = if dir == Dir::X { (nc, y) } else { (x, nc) };
            let (parity, src) = layout.site_lane(flavor, sx, sy);
            // A dropped lane's entry is never read; every other hop flips
            // parity (a wrap too: the extents of a wrapping lattice are even).
            debug_assert!(parity == to.flip() || (crosses[lane] && wrap.is_none()));
            table[lane] = src as u32;
        }
        let edge = match wrap.map(|phases| phases.of(dir)) {
            None => Edge::Drop(LaneMask::from_fn(|lane| !crosses[lane])),
            Some(phase) if phase != 1.0 && crosses.contains(&true) => {
                Edge::Phase(VReal::from_fn(|lane| {
                    T::from_f64(if crosses[lane] { phase } else { 1.0 })
                }))
            }
            Some(_) => Edge::Wrap,
        };
        Self { table, edge }
    }

    /// Bring a source-lane-order vector into destination lane order.
    #[inline(always)]
    fn bring(&self, v: &VReal<T, N>) -> VReal<T, N> {
        let v = v.permute(&self.table);
        match &self.edge {
            Edge::Drop(keep) => v.masked(keep),
            Edge::Wrap => v,
            Edge::Phase(sign) => v.mul(*sign),
        }
    }
}

/// A unit-modulus spin coefficient.
#[derive(Copy, Clone)]
enum Unit {
    One,
    MinusOne,
    I,
    MinusI,
}

impl Unit {
    fn of(coef: C64) -> Self {
        match (coef.re, coef.im) {
            (1.0, 0.0) => Unit::One,
            (-1.0, 0.0) => Unit::MinusOne,
            (0.0, 1.0) => Unit::I,
            (0.0, -1.0) => Unit::MinusI,
            _ => panic!("spin coefficient {coef:?} is not a fourth root of unity"),
        }
    }
}

/// How half-spinor spin row `src` feeds output spin row 2 or 3 of
/// `-1/2 recon`: `out.re += f_re * (swap ? h.im : h.re)` and
/// `out.im += f_im * (swap ? h.re : h.im)`.
#[derive(Copy, Clone)]
struct ReconRow<T> {
    src: usize,
    swap: bool,
    f_re: T,
    f_im: T,
}

/// The spin structure of one `(1 +- gamma_mu)` hop, resolved once.
#[derive(Copy, Clone)]
struct SpinRule<T> {
    /// `h_s = psi_s + unit * psi_src` for the two projected spin rows.
    proj: [(usize, Unit); 2],
    recon: [ReconRow<T>; 2],
}

impl<T: Real> SpinRule<T> {
    fn new(basis: &GammaBasis, dir: Dir, plus: bool) -> Self {
        let gamma = &basis.gamma[dir.index()];
        let recon = gamma.recon_rule(plus).map(|(src, coef)| {
            // coef is +-1 or +-i; the -1/2 of the hop is folded in.
            let c = coef.scale(-0.5);
            let (swap, f_re, f_im) =
                if c.im == 0.0 { (false, c.re, c.re) } else { (true, -c.im, c.im) };
            ReconRow { src, swap, f_re: T::from_f64(f_re), f_im: T::from_f64(f_im) }
        });
        Self { proj: gamma.proj_rule(plus).map(|(src, coef)| (src, Unit::of(coef))), recon }
    }
}

/// The fused hop kernel of one region shape — a Dirichlet block or the
/// whole local lattice: lane patterns and spin rules, precomputed.
pub struct FusedKernel<T: Real, const N: usize> {
    layout: TileLayout,
    /// `[flavor][dest parity][dir(0..2 = x,y)][fwd]`.
    xy: Vec<XyHop<T, N>>,
    /// Whole lattice: the phase (if not `+1`) of a wrapping z / t hop.
    /// `None` for a Dirichlet block, whose crossing hops are dropped.
    zt_wrap: Option<[Option<T>; 2]>,
    /// `[dir][plus]`.
    spin: [[SpinRule<T>; 2]; 4],
}

#[inline]
fn xy_idx(flavor: usize, parity: Parity, dir: usize, fwd: usize) -> usize {
    ((flavor * 2 + parity.index()) * 2 + dir) * 2 + fwd
}

/// 6 complex (2 spin x 3 color), `[re, im]`.
type Half<T, const N: usize> = [[VReal<T, N>; 2]; 6];

#[inline(always)]
fn scale_half<T: Real, const N: usize>(h: &mut Half<T, N>, s: T) {
    for c in h.iter_mut() {
        c[0] = c[0].scale(s);
        c[1] = c[1].scale(s);
    }
}

impl<T: Real, const N: usize> FusedKernel<T, N> {
    /// The kernel of a Dirichlet block: hops leaving `block` are dropped.
    pub fn new(block: Dims) -> Self {
        Self::with_boundary(block, None)
    }

    /// The kernel of a whole local lattice: hops leaving it wrap around
    /// with the boundary phase of their direction. Every extent is even.
    pub(crate) fn wrapping(dims: Dims, phases: &BoundaryPhases) -> Self {
        assert!(dims.0.iter().all(|&e| e % 2 == 0), "a wrapping kernel needs even extents");
        Self::with_boundary(dims, Some(phases))
    }

    fn with_boundary(block: Dims, wrap: Option<&BoundaryPhases>) -> Self {
        let layout = TileLayout::new(block);
        assert_eq!(layout.lanes(), N, "lane count mismatch");
        let mut xy = Vec::with_capacity(16);
        for flavor in 0..2 {
            for parity in [Parity::Even, Parity::Odd] {
                for dir in [Dir::X, Dir::Y] {
                    for fwd in [false, true] {
                        xy.push(XyHop::new(&layout, wrap, flavor, parity, dir, fwd));
                    }
                }
            }
        }
        let zt_wrap = wrap.map(|phases| {
            [Dir::Z, Dir::T].map(|dir| {
                let p = phases.of(dir);
                (p != 1.0).then(|| T::from_f64(p))
            })
        });
        let basis = GammaBasis::degrand_rossi();
        let spin = Dir::ALL.map(|dir| [false, true].map(|plus| SpinRule::new(&basis, dir, plus)));
        Self { layout, xy, zt_wrap, spin }
    }

    #[inline]
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Project `(1 + sign*gamma_mu)` on a tile.
    #[inline]
    fn project(&self, dir: Dir, plus: bool, tile: &FusedTile<T, N>) -> Half<T, N> {
        let rule = &self.spin[dir.index()][plus as usize].proj;
        let mut h: Half<T, N> = [[VReal::ZERO; 2]; 6];
        for s in 0..2 {
            let (src_spin, unit) = rule[s];
            for c in 0..3 {
                let k = 3 * s + c;
                let base = 3 * src_spin + c;
                let (re, im) = (tile[2 * k], tile[2 * k + 1]);
                let (b_re, b_im) = (tile[2 * base], tile[2 * base + 1]);
                h[k] = match unit {
                    Unit::One => [re.add(b_re), im.add(b_im)],
                    Unit::MinusOne => [re.sub(b_re), im.sub(b_im)],
                    // * i: (re, im) -> (-im, re)
                    Unit::I => [re.sub(b_im), im.add(b_re)],
                    Unit::MinusI => [re.add(b_im), im.sub(b_re)],
                };
            }
        }
        h
    }

    /// `out = U^dag * h` (color multiply of both spin components).
    #[inline]
    fn su3_adj_mul<G: GaugeVecs<T, N>>(g: &G, h: &Half<T, N>) -> Half<T, N> {
        let mut out: Half<T, N> = [[VReal::ZERO; 2]; 6];
        for s in 0..2 {
            for i in 0..3 {
                let (re, im) = Self::su3_row::<true, G>(g, h, s, i);
                out[3 * s + i] = [re, im];
            }
        }
        out
    }

    /// One color row of `U h` (or `U^dag h` when `ADJ`) for spin `s`: a
    /// three-term FMA chain, returned in registers. Generic over the gauge
    /// storage: native tiles are read as-is, compressed tiles up-convert
    /// lane-wise on load — the FMA chain is identical.
    #[inline(always)]
    fn su3_row<const ADJ: bool, G: GaugeVecs<T, N>>(
        g: &G,
        h: &Half<T, N>,
        s: usize,
        i: usize,
    ) -> (VReal<T, N>, VReal<T, N>) {
        let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
        for c in 0..3 {
            let (u_re, u_im) = if ADJ {
                // conj(U[c][i]) * h[c]
                (g.vec(2 * (3 * c + i)), g.vec(2 * (3 * c + i) + 1))
            } else {
                (g.vec(2 * (3 * i + c)), g.vec(2 * (3 * i + c) + 1))
            };
            let h_re = h[3 * s + c][0];
            let h_im = h[3 * s + c][1];
            if ADJ {
                acc_re = acc_re.fma(u_re, h_re).fma(u_im, h_im);
                acc_im = acc_im.fma(u_re, h_im).fms(u_im, h_re);
            } else {
                acc_re = acc_re.fma(u_re, h_re).fms(u_im, h_im);
                acc_im = acc_im.fma(u_re, h_im).fma(u_im, h_re);
            }
        }
        (acc_re, acc_im)
    }

    /// Reconstruct-and-accumulate `acc += -1/2 recon(w)`, the half-spinor
    /// `w` handed over one component at a time by `comp(k)` — computed,
    /// permuted or just read, in registers, and consumed by both output
    /// rows it feeds. Each accumulator component gets exactly one FMA.
    #[inline(always)]
    fn recon_acc(
        &self,
        dir: Dir,
        plus: bool,
        acc: &mut FusedTile<T, N>,
        mut comp: impl FnMut(usize) -> (VReal<T, N>, VReal<T, N>),
    ) {
        let m_half = VReal::splat(T::from_f64(-0.5));
        // The two source spins are a permutation of {0, 1}, so iterating
        // the rule covers every component of `w` exactly once.
        for (s_out, row) in self.spin[dir.index()][plus as usize].recon.iter().enumerate() {
            for i in 0..3 {
                let (k, kr) = (3 * row.src + i, 3 * (2 + s_out) + i);
                let (re, im) = comp(k);
                acc[2 * k] = acc[2 * k].fma(re, m_half);
                acc[2 * k + 1] = acc[2 * k + 1].fma(im, m_half);
                let (a, b) = if row.swap { (im, re) } else { (re, im) };
                acc[2 * kr] = acc[2 * kr].fma(a, VReal::splat(row.f_re));
                acc[2 * kr + 1] = acc[2 * kr + 1].fma(b, VReal::splat(row.f_im));
            }
        }
    }

    /// Fused color-multiply + reconstruct: `acc += -1/2 recon(U h)` (or
    /// `U^dag h` when `adj`) without materializing the intermediate
    /// half-spinor.
    #[inline]
    fn su3_recon_acc<G: GaugeVecs<T, N>>(
        &self,
        dir: Dir,
        plus: bool,
        adj: bool,
        g: &G,
        h: &Half<T, N>,
        acc: &mut FusedTile<T, N>,
    ) {
        if adj {
            self.recon_acc(dir, plus, acc, |k| Self::su3_row::<true, G>(g, h, k / 3, k % 3));
        } else {
            self.recon_acc(dir, plus, acc, |k| Self::su3_row::<false, G>(g, h, k / 3, k % 3));
        }
    }

    /// Where the z (`di = 0`) or t (`di = 1`) hop from `coord` reads: the
    /// neighbour's coordinate and the phase it picks up, or `None` when
    /// the hop leaves a Dirichlet block.
    #[inline(always)]
    fn zt_source(
        &self,
        di: usize,
        coord: usize,
        extent: usize,
        fwd: bool,
    ) -> Option<(usize, Option<T>)> {
        let crosses = if fwd { coord + 1 == extent } else { coord == 0 };
        if !crosses {
            return Some((if fwd { coord + 1 } else { coord - 1 }, None));
        }
        let phases = self.zt_wrap.as_ref()?;
        Some((if fwd { 0 } else { extent - 1 }, phases[di]))
    }

    /// The hop body of one output tile: `acc += (-1/2 Dw inp)(tile)` on
    /// parity `to`, all eight hops in a fixed order.
    #[inline]
    pub(crate) fn hop_tile<G: GaugeTiles<T, N>>(
        &self,
        acc: &mut FusedTile<T, N>,
        inp: &FusedField<T, N>,
        gauge: &G,
        tile: usize,
        to: Parity,
    ) {
        let from = to.flip();
        let flavor = self.layout.flavor(tile);
        let (tz, tt) = self.layout.tile_coords(tile);
        let block = *self.layout.block();

        // x and y hops: lane permutations within the same (z, t) slice,
        // applied to half-spinors.
        let src = inp.tile(from, tile);
        for (di, dir) in [Dir::X, Dir::Y].into_iter().enumerate() {
            // (1 + gamma) U^dag(x-mu) psi(x-mu): the link lives at the
            // source site, so project and multiply in source lane order and
            // bring `U^dag h` over as the reconstruction consumes it.
            let pat = &self.xy[xy_idx(flavor, to, di, 0)];
            let h = self.project(dir, true, src);
            let uh = Self::su3_adj_mul(gauge.tile(from, tile, dir), &h);
            self.recon_acc(dir, true, acc, |k| (pat.bring(&uh[k][0]), pat.bring(&uh[k][1])));
            // (1 - gamma) U(x) psi(x+mu)
            let pat = &self.xy[xy_idx(flavor, to, di, 1)];
            let h = self.project(dir, false, src);
            let h: Half<T, N> = std::array::from_fn(|k| [pat.bring(&h[k][0]), pat.bring(&h[k][1])]);
            self.su3_recon_acc(dir, false, false, gauge.tile(to, tile, dir), &h, acc);
        }

        // z and t hops: tile-to-tile, no shuffles.
        for (di, dir) in [Dir::Z, Dir::T].into_iter().enumerate() {
            let tile_at =
                |c| if di == 0 { self.layout.tile_of(c, tt) } else { self.layout.tile_of(tz, c) };
            let (coord, extent) = (if di == 0 { tz } else { tt }, block[dir]);
            if let Some((nc, phase)) = self.zt_source(di, coord, extent, true) {
                let mut h = self.project(dir, false, inp.tile(from, tile_at(nc)));
                if let Some(p) = phase {
                    scale_half(&mut h, p);
                }
                self.su3_recon_acc(dir, false, false, gauge.tile(to, tile, dir), &h, acc);
            }
            if let Some((pc, phase)) = self.zt_source(di, coord, extent, false) {
                let ptile = tile_at(pc);
                let mut h = self.project(dir, true, inp.tile(from, ptile));
                if let Some(p) = phase {
                    scale_half(&mut h, p);
                }
                self.su3_recon_acc(dir, true, true, gauge.tile(from, ptile, dir), &h, acc);
            }
        }
    }

    /// The fused block hop: `out = (-1/2 Dw)|_block inp`, mapping the
    /// vector on parity `from` to tiles of parity `to = from.flip()`.
    /// `out` is overwritten.
    pub fn hop(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        gauge: &FusedGauge<T, N>,
        from: Parity,
    ) {
        let to = from.flip();
        for tile in 0..self.layout.tiles_per_parity() {
            let mut acc: FusedTile<T, N> = [VReal::ZERO; 24];
            self.hop_tile(&mut acc, inp, gauge, tile, to);
            *out.tile_mut(to, tile) = acc;
        }
    }

    /// Apply the fused clover + mass diagonal on one parity (in place on
    /// `out` from `inp`).
    pub fn apply_diag(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        clover: &FusedClover<T, N>,
        parity: Parity,
    ) {
        for tile in 0..self.layout.tiles_per_parity() {
            let src = inp.tile(parity, tile);
            *out.tile_mut(parity, tile) = clover_apply_tile(clover.tile(parity, tile), src);
        }
    }

    /// The full fused block operator `D = diag + hop` on both parities:
    /// `out = D inp` with Dirichlet block boundary.
    pub fn apply_block(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        gauge: &FusedGauge<T, N>,
        clover: &FusedClover<T, N>,
        scratch: &mut FusedField<T, N>,
    ) {
        // Hops write into `out`; diag into scratch; sum.
        self.hop(out, inp, gauge, Parity::Even); // writes odd tiles
        self.hop(out, inp, gauge, Parity::Odd); // writes even tiles
        self.apply_diag(scratch, inp, clover, Parity::Even);
        self.apply_diag(scratch, inp, clover, Parity::Odd);
        for parity in [Parity::Even, Parity::Odd] {
            for tile in 0..self.layout.tiles_per_parity() {
                let d = *scratch.tile(parity, tile);
                let o = out.tile_mut(parity, tile);
                for c in 0..24 {
                    o[c] = o[c].add(d[c]);
                }
            }
        }
    }
}

/// The fused even-odd Schur complement of one domain:
/// `D~ee = Dee - Deo Doo^-1 Doe` entirely on tile vectors.
pub struct FusedSchur<T: Real, const N: usize> {
    /// Shared by every domain of one block shape.
    kernel: Arc<FusedKernel<T, N>>,
    gauge: FusedGauge<T, N>,
    /// `(Nd+m) + Dcl` in fused form.
    diag: FusedClover<T, N>,
    /// Its per-site inverse.
    diag_inv: FusedClover<T, N>,
}

impl<T: Real, const N: usize> FusedSchur<T, N> {
    /// Assemble from the whole-lattice operator and a domain; each site
    /// diagonal is inverted once. Returns `None` when one is singular.
    pub fn new(op: &WilsonClover<T>, domain: &Domain) -> Option<Self> {
        Self::with_kernel(Arc::new(FusedKernel::new(domain.dims)), op, domain)
    }

    /// [`Self::new`] on a kernel built once for the block shape.
    pub fn with_kernel(
        kernel: Arc<FusedKernel<T, N>>,
        op: &WilsonClover<T>,
        domain: &Domain,
    ) -> Option<Self> {
        assert_eq!(kernel.layout.block(), &domain.dims, "kernel built for another block shape");
        Some(Self {
            kernel,
            gauge: FusedGauge::gather(op, domain),
            diag: FusedClover::gather(op, domain),
            diag_inv: FusedClover::gather_inverse(op, domain)?,
        })
    }

    #[inline]
    pub fn kernel(&self) -> &FusedKernel<T, N> {
        &self.kernel
    }

    /// `out(even) = D~ee inp(even)`; `s1`, `s2` are scratch fused fields.
    pub fn apply_schur(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        s1: &mut FusedField<T, N>,
        s2: &mut FusedField<T, N>,
    ) {
        // s1(odd) = Doe inp(even)
        self.kernel.hop(s1, inp, &self.gauge, Parity::Even);
        // s2(odd) = Doo^-1 s1(odd)
        self.kernel.apply_diag(s2, s1, &self.diag_inv, Parity::Odd);
        // out(even) = -(Deo s2)(even)  [hop writes, then negate+add diag]
        self.kernel.hop(out, s2, &self.gauge, Parity::Odd);
        // s1(even) = Dee inp(even)
        self.kernel.apply_diag(s1, inp, &self.diag, Parity::Even);
        let tiles = self.kernel.layout.tiles_per_parity();
        for tile in 0..tiles {
            let dee = *s1.tile(Parity::Even, tile);
            let o = out.tile_mut(Parity::Even, tile);
            for c in 0..24 {
                o[c] = dee[c].sub(o[c]);
            }
        }
    }

    /// The full block operator: `out = D inp` on both parities, Dirichlet
    /// boundary.
    pub fn apply_block(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        scratch: &mut FusedField<T, N>,
    ) {
        self.kernel.apply_block(out, inp, &self.gauge, &self.diag, scratch);
    }

    /// Schur right-hand side `out(even) = f(even) - Deo Doo^-1 f(odd)`.
    /// `s1` is scratch; the odd tiles of `out` are left untouched.
    pub fn prepare_rhs(
        &self,
        out: &mut FusedField<T, N>,
        f: &FusedField<T, N>,
        s1: &mut FusedField<T, N>,
    ) {
        // s1(odd) = Doo^-1 f(odd)
        self.kernel.apply_diag(s1, f, &self.diag_inv, Parity::Odd);
        // out(even) = (Deo s1)(even)
        self.kernel.hop(out, s1, &self.gauge, Parity::Odd);
        for tile in 0..self.kernel.layout.tiles_per_parity() {
            let fe = f.tile(Parity::Even, tile);
            let o = out.tile_mut(Parity::Even, tile);
            for c in 0..24 {
                o[c] = fe[c].sub(o[c]);
            }
        }
    }

    /// Reconstruct the odd half from the even solution, in place:
    /// `u(odd) = Doo^-1 (f(odd) - Doe u(even))`. `s1` is scratch.
    pub fn reconstruct_odd(
        &self,
        u: &mut FusedField<T, N>,
        f: &FusedField<T, N>,
        s1: &mut FusedField<T, N>,
    ) {
        // s1(odd) = f(odd) - Doe u(even)
        self.kernel.hop(s1, u, &self.gauge, Parity::Even);
        for tile in 0..self.kernel.layout.tiles_per_parity() {
            let fo = f.tile(Parity::Odd, tile);
            let o = s1.tile_mut(Parity::Odd, tile);
            for c in 0..24 {
                o[c] = fo[c].sub(o[c]);
            }
        }
        self.kernel.apply_diag(u, s1, &self.diag_inv, Parity::Odd);
    }
}

/// Where the sites of one block shape sit in the lattice, in fused order
/// (`[parity][tile][lane]`): lattice-index offsets from the block origin
/// (the lexicographic index is linear in the coordinates and a block never
/// wraps, so one table serves every domain) and, per site, the hops that
/// leave the block. This is the only place the AoS iterate and the fused
/// block vectors meet.
pub struct BlockSites {
    block: Dims,
    lattice: SiteIndexer,
    /// Offset of every block site from the origin's lattice index.
    offsets: Vec<usize>,
    /// `(position, hop mask)` of every site with a hop across the block
    /// surface (mask bits as in [`crate::wilson::hop_bit`]).
    surface: Vec<(usize, u8)>,
}

impl BlockSites {
    pub fn new(lattice: Dims, block: Dims) -> Self {
        let layout = TileLayout::new(block);
        let lattice = SiteIndexer::new(lattice);
        let (lanes, tiles) = (layout.lanes(), layout.tiles_per_parity());
        let mut offsets = Vec::with_capacity(block.volume());
        let mut surface = Vec::new();
        for parity in [Parity::Even, Parity::Odd] {
            for tile in 0..tiles {
                for lane in 0..lanes {
                    let local = layout.coord(parity, tile, lane);
                    let mut hops = 0u8;
                    for dir in Dir::ALL {
                        if local[dir] + 1 == block[dir] {
                            hops |= crate::wilson::hop_bit(dir, true);
                        }
                        if local[dir] == 0 {
                            hops |= crate::wilson::hop_bit(dir, false);
                        }
                    }
                    if hops != 0 {
                        surface.push((offsets.len(), hops));
                    }
                    offsets.push(lattice.index(&local));
                }
            }
        }
        Self { block, lattice, offsets, surface }
    }

    #[inline]
    pub fn block(&self) -> &Dims {
        &self.block
    }

    /// Lattice index of `domain`'s origin: add an offset to address a site.
    #[inline]
    pub fn base(&self, domain: &Domain) -> usize {
        debug_assert_eq!(domain.dims, self.block);
        self.lattice.index(&domain.origin)
    }

    /// `out = fetch(site)` over the block at `base`.
    pub fn gather<T: Real, const N: usize>(
        &self,
        out: &mut FusedField<T, N>,
        base: usize,
        fetch: impl Fn(usize) -> Spinor<T>,
    ) {
        let (even, odd) = out.parity_slices_mut();
        let mut offsets = self.offsets.chunks_exact(N);
        for tile in even.iter_mut().chain(odd) {
            for (lane, &off) in offsets.next().expect("one chunk per tile").iter().enumerate() {
                let s = fetch(base + off);
                for k in 0..12 {
                    let z = s.component(k);
                    tile[2 * k].0[lane] = z.re;
                    tile[2 * k + 1].0[lane] = z.im;
                }
            }
        }
    }

    /// `store(site, field(site))` over the block at `base`.
    pub fn scatter<T: Real, const N: usize>(
        &self,
        field: &FusedField<T, N>,
        base: usize,
        mut store: impl FnMut(usize, Spinor<T>),
    ) {
        let mut offsets = self.offsets.chunks_exact(N);
        for parity in [Parity::Even, Parity::Odd] {
            for tile in 0..field.layout().tiles_per_parity() {
                let t = field.tile(parity, tile);
                for (lane, &off) in offsets.next().expect("one chunk per tile").iter().enumerate() {
                    let mut s = Spinor::ZERO;
                    for k in 0..12 {
                        s.set_component(k, Complex::new(t[2 * k].0[lane], t[2 * k + 1].0[lane]));
                    }
                    store(base + off, s);
                }
            }
        }
    }

    /// `r(site) -= hops(site, mask)` for every site of the block at `base`
    /// that has a hop across the block surface.
    pub fn sub_surface<T: Real, const N: usize>(
        &self,
        r: &mut FusedField<T, N>,
        base: usize,
        hops: impl Fn(usize, u8) -> Spinor<T>,
    ) {
        let per_parity = self.offsets.len() / 2;
        for &(pos, mask) in &self.surface {
            let h = hops(base + self.offsets[pos], mask);
            let parity = if pos < per_parity { Parity::Even } else { Parity::Odd };
            let (tile, lane) = ((pos % per_parity) / N, pos % N);
            let t = r.tile_mut(parity, tile);
            for k in 0..12 {
                let z = h.component(k);
                t[2 * k].0[lane] -= z.re;
                t[2 * k + 1].0[lane] -= z.im;
            }
        }
    }
}

/// Gather a block-local checkerboard slice pair (as used by the scalar
/// Schur path) into a fused field. `even` and `odd` are cb-ordered block
/// vectors.
pub fn fused_from_cb<T: Real, const N: usize>(
    block: Dims,
    even: &[Spinor<T>],
    odd: &[Spinor<T>],
) -> FusedField<T, N> {
    let idx = SiteIndexer::new(block);
    let full: Vec<Spinor<T>> = idx
        .iter()
        .map(|c| {
            let (p, cb) = idx.cb_index(&c);
            match p {
                Parity::Even => even[cb],
                Parity::Odd => odd[cb],
            }
        })
        .collect();
    FusedField::gather(&full, block)
}

/// Scatter a fused field back to checkerboard vectors.
pub fn fused_to_cb<T: Real, const N: usize>(
    field: &FusedField<T, N>,
    block: Dims,
) -> (Vec<Spinor<T>>, Vec<Spinor<T>>) {
    let idx = SiteIndexer::new(block);
    let mut full = vec![Spinor::ZERO; block.volume()];
    field.scatter(&mut full);
    let half = block.volume() / 2;
    let mut even = vec![Spinor::ZERO; half];
    let mut odd = vec![Spinor::ZERO; half];
    for c in idx.iter() {
        let (p, cb) = idx.cb_index(&c);
        match p {
            Parity::Even => even[cb] = full[idx.index(&c)],
            Parity::Odd => odd[cb] = full[idx.index(&c)],
        }
    }
    (even, odd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{DomainFields, SchurOperator};
    use crate::clover::build_clover_field;
    use crate::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::DomainGrid;
    use qdd_util::rng::Rng64;

    fn setup(block: Dims) -> (WilsonClover<f64>, DomainGrid) {
        let dims = block.times(&Dims::new(2, 2, 2, 2));
        let mut rng = Rng64::new(71);
        let g = GaugeField::random(dims, &mut rng, 0.7);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.6, &basis);
        let op = WilsonClover::new(g, c, 0.2, BoundaryPhases::periodic());
        let grid = DomainGrid::new(dims, block);
        (op, grid)
    }

    fn check_fused_matches_scalar<const N: usize>(block: Dims) {
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        for dom_idx in [0, 5, grid.num_domains() - 1] {
            let domain = grid.domain(dom_idx);
            let schur = SchurOperator::new(&op, &fields, domain);
            let n = schur.cb_len();
            let mut rng = Rng64::new(72 + dom_idx as u64);
            let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
            let in_o: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();

            // Scalar reference: the full block operator.
            let mut block_in = in_e.clone();
            block_in.extend_from_slice(&in_o);
            let mut expect = vec![Spinor::ZERO; 2 * n];
            schur.apply_block_full(&mut expect, &block_in);

            // Fused path.
            let kernel = FusedKernel::<f64, N>::new(block);
            let gauge = FusedGauge::<f64, N>::gather(&op, &domain);
            let clover = FusedClover::<f64, N>::gather(&op, &domain);
            let inp = fused_from_cb::<f64, N>(block, &in_e, &in_o);
            let mut out = FusedField::<f64, N>::zeros(block);
            let mut scratch = FusedField::<f64, N>::zeros(block);
            kernel.apply_block(&mut out, &inp, &gauge, &clover, &mut scratch);
            let (got_e, got_o) = fused_to_cb::<f64, N>(&out, block);

            for cb in 0..n {
                let de = got_e[cb].sub(expect[cb]);
                assert!(
                    de.norm_sqr() < 1e-20,
                    "block {block} domain {dom_idx} even cb {cb}: {}",
                    de.norm_sqr()
                );
                let do_ = got_o[cb].sub(expect[n + cb]);
                assert!(
                    do_.norm_sqr() < 1e-20,
                    "block {block} domain {dom_idx} odd cb {cb}: {}",
                    do_.norm_sqr()
                );
            }
        }
    }

    #[test]
    fn fused_block_operator_matches_scalar_paper_block() {
        // The paper's 8x4 cross-section: 16 lanes.
        check_fused_matches_scalar::<16>(Dims::new(8, 4, 4, 4));
    }

    #[test]
    fn fused_block_operator_matches_scalar_8_lanes() {
        check_fused_matches_scalar::<8>(Dims::new(4, 4, 2, 2));
    }

    /// Non-square cross-sections: the x and y tables differ in shape, and
    /// a 2-wide extent makes the forward and backward neighbour coincide.
    #[test]
    fn fused_block_operator_matches_scalar_non_square_cross_sections() {
        check_fused_matches_scalar::<8>(Dims::new(8, 2, 2, 2));
        check_fused_matches_scalar::<8>(Dims::new(2, 8, 2, 2));
    }

    #[test]
    fn fused_hop_only_matches_scalar() {
        let block = Dims::new(4, 4, 2, 2);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(3);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(75);
        let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        schur.hop(&mut expect, &in_e, Parity::Even); // even -> odd

        let kernel = FusedKernel::<f64, 8>::new(block);
        let gauge = FusedGauge::<f64, 8>::gather(&op, &domain);
        let inp = fused_from_cb::<f64, 8>(block, &in_e, &zero);
        let mut out = FusedField::<f64, 8>::zeros(block);
        kernel.hop(&mut out, &inp, &gauge, Parity::Even);
        let (_, got_o) = fused_to_cb::<f64, 8>(&out, block);
        for cb in 0..n {
            let d = got_o[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-20, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn fused_diag_matches_scalar() {
        let block = Dims::new(4, 4, 2, 2);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(1);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(76);
        let in_o: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        schur.apply_diag(&mut expect, &in_o, Parity::Odd);

        let kernel = FusedKernel::<f64, 8>::new(block);
        let clover = FusedClover::<f64, 8>::gather(&op, &domain);
        let inp = fused_from_cb::<f64, 8>(block, &zero, &in_o);
        let mut out = FusedField::<f64, 8>::zeros(block);
        kernel.apply_diag(&mut out, &inp, &clover, Parity::Odd);
        let (_, got_o) = fused_to_cb::<f64, 8>(&out, block);
        for cb in 0..n {
            let d = got_o[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-22, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn f32_fused_path_works() {
        let block = Dims::new(8, 4, 4, 4);
        let (op, grid) = setup(block);
        let op32: WilsonClover<f32> = op.cast();
        let domain = grid.domain(0);
        let kernel = FusedKernel::<f32, 16>::new(block);
        let gauge = FusedGauge::<f32, 16>::gather(&op32, &domain);
        let clover = FusedClover::<f32, 16>::gather(&op32, &domain);
        let n = block.volume() / 2;
        let mut rng = Rng64::new(77);
        let in_e: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let in_o: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let inp = fused_from_cb::<f32, 16>(block, &in_e, &in_o);
        let mut out = FusedField::<f32, 16>::zeros(block);
        let mut scratch = FusedField::<f32, 16>::zeros(block);
        kernel.apply_block(&mut out, &inp, &gauge, &clover, &mut scratch);
        // Cross-check against the f64 scalar path at f32 accuracy.
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, domain);
        let mut block_in: Vec<Spinor<f64>> = in_e.iter().map(|s| s.cast()).collect();
        block_in.extend(in_o.iter().map(|s| s.cast::<f64>()));
        let mut expect = vec![Spinor::ZERO; 2 * n];
        schur.apply_block_full(&mut expect, &block_in);
        let (got_e, got_o) = fused_to_cb::<f32, 16>(&out, block);
        for cb in 0..n {
            let ge: Spinor<f64> = got_e[cb].cast();
            let d = ge.sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-8, "even cb {cb}: {}", d.norm_sqr());
            let go: Spinor<f64> = got_o[cb].cast();
            let d = go.sub(expect[n + cb]);
            assert!(d.norm_sqr() < 1e-8, "odd cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn fused_schur_matches_scalar() {
        let block = Dims::new(8, 4, 4, 4);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(2);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(78);
        let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        schur.apply_schur(&mut expect, &in_e, &mut scratch);

        let fused = FusedSchur::<f64, 16>::new(&op, &domain).unwrap();
        let inp = fused_from_cb::<f64, 16>(block, &in_e, &zero);
        let mut out = FusedField::<f64, 16>::zeros(block);
        let mut s1 = FusedField::<f64, 16>::zeros(block);
        let mut s2 = FusedField::<f64, 16>::zeros(block);
        fused.apply_schur(&mut out, &inp, &mut s1, &mut s2);
        let (got_e, _) = fused_to_cb::<f64, 16>(&out, block);
        for cb in 0..n {
            let d = got_e[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-18, "cb {cb}: {}", d.norm_sqr());
        }
    }

    /// `prepare_rhs` / `reconstruct_odd` against the scalar Schur operator,
    /// and the whole block solve identity: with `f = D u`, the Schur rhs is
    /// `D~ee u_e` and the reconstruction returns `u_o`.
    #[test]
    fn fused_rhs_and_reconstruction_match_scalar() {
        let block = Dims::new(4, 4, 2, 2);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(6);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(79);
        let f_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let f_o: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let u_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut want_rhs = vec![Spinor::ZERO; n];
        schur.prepare_rhs(&mut want_rhs, &f_e, &f_o, &mut vec![Spinor::ZERO; 2 * n]);
        let mut want_odd = vec![Spinor::ZERO; n];
        schur.reconstruct_odd(&mut want_odd, &u_e, &f_o);

        let fused = FusedSchur::<f64, 8>::new(&op, &domain).unwrap();
        let f = fused_from_cb::<f64, 8>(block, &f_e, &f_o);
        let mut rhs = FusedField::<f64, 8>::zeros(block);
        let mut s1 = FusedField::<f64, 8>::zeros(block);
        fused.prepare_rhs(&mut rhs, &f, &mut s1);
        let mut u = fused_from_cb::<f64, 8>(block, &u_e, &vec![Spinor::ZERO; n]);
        fused.reconstruct_odd(&mut u, &f, &mut s1);
        let (got_rhs, _) = fused_to_cb::<f64, 8>(&rhs, block);
        let (got_even, got_odd) = fused_to_cb::<f64, 8>(&u, block);
        for cb in 0..n {
            assert!(got_rhs[cb].sub(want_rhs[cb]).norm_sqr() < 1e-20, "rhs cb {cb}");
            assert!(got_odd[cb].sub(want_odd[cb]).norm_sqr() < 1e-20, "odd cb {cb}");
            assert_eq!(got_even[cb], u_e[cb], "reconstruction must leave the even half");
        }
    }

    /// `A u = D_b u_b + (hops leaving the domain)` on the sites of every
    /// kind of domain — interior, and on the lattice boundary where the
    /// leaving hops wrap with the antiperiodic phase — through the site
    /// tables the block update uses.
    #[test]
    fn block_operator_plus_surface_hops_is_the_full_operator() {
        let block = Dims::new(4, 4, 2, 2);
        let dims = block.times(&Dims::new(2, 2, 2, 4));
        let mut rng = Rng64::new(80);
        let g = GaugeField::random(dims, &mut rng, 0.7);
        let c = build_clover_field(&g, 1.6, &GammaBasis::degrand_rossi());
        let op = WilsonClover::new(g, c, 0.2, BoundaryPhases::antiperiodic_t());
        let grid = DomainGrid::new(dims, block);
        let u = qdd_field::fields::SpinorField::<f64>::random(dims, &mut rng);
        let mut au = qdd_field::fields::SpinorField::zeros(dims);
        op.apply(&mut au, &u);
        let halo = qdd_field::halo::HaloData::zeros_split(dims, [false; 4]);

        let sites = BlockSites::new(dims, block);
        for dom_idx in [0, 9, grid.num_domains() - 1] {
            let domain = grid.domain(dom_idx);
            let base = sites.base(&domain);
            let fused = FusedSchur::<f64, 8>::new(&op, &domain).unwrap();
            let mut u_b = FusedField::<f64, 8>::zeros(block);
            sites.gather(&mut u_b, base, |g| *u.site(g));
            let mut d_u = FusedField::<f64, 8>::zeros(block);
            fused.apply_block(&mut d_u, &u_b, &mut FusedField::zeros(block));
            // d_u := -(D_b u_b + surface hops), site by site.
            let mut neg = FusedField::<f64, 8>::zeros(block);
            for parity in [Parity::Even, Parity::Odd] {
                for (n, d) in neg.tiles_mut(parity).iter_mut().zip(d_u.tiles(parity)) {
                    for k in 0..24 {
                        n[k] = d[k].neg();
                    }
                }
            }
            sites.sub_surface(&mut neg, base, |g, hops| {
                op.hops_with_halo_fetch_split(g, hops, |i| *u.site(i), &halo, [false; 4])
            });
            let mut seen = 0;
            sites.scatter(&neg, base, |g, s| {
                let d = s.add(*au.site(g));
                assert!(d.norm_sqr() < 1e-20, "domain {dom_idx} site {g}: {}", d.norm_sqr());
                seen += 1;
            });
            assert_eq!(seen, block.volume());
        }
    }

    #[test]
    fn packed_constant_tiles_carry_no_row_padding() {
        // The 4x4 f32 cross-section: 8 lanes, 32-byte rows, tile-aligned.
        assert_eq!(std::mem::size_of::<GaugeTile<f32, 8>>(), 18 * 32);
        assert_eq!(std::mem::size_of::<CloverTile<f32, 8>>(), 72 * 32);
        assert_eq!(std::mem::align_of::<GaugeTile<f32, 8>>(), 64);
        // A full register per row: the layout `[VReal; R]` had.
        assert_eq!(std::mem::size_of::<GaugeTile<f32, 16>>(), 18 * 64);
        assert_eq!(std::mem::size_of::<GaugeTile<f64, 32>>(), 18 * 256);
    }
}
