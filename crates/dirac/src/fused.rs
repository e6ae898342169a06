//! The site-fused SIMD block operator (paper Sec. III-A, Figs. 2-3).
//!
//! This is the paper's data-layout contribution executed literally: the
//! spinors of a domain live in xy-tile SOA form ([`FusedField`]), gauge
//! links and clover blocks in matching per-tile SOA ([`FusedGauge`],
//! [`FusedClover`]), and the Wilson hop runs on whole lanes:
//!
//! - z/t hops move tile-to-tile with no lane shuffling; hops crossing the
//!   domain boundary are dropped wholesale (Dirichlet).
//! - x/y hops permute lanes in-register using the patterns of
//!   [`TileLayout::xy_neighbor`]; lanes whose neighbor lies outside the
//!   domain are masked to zero (the paper's mask_add, Fig. 2) — costing
//!   the documented 2/16 (x) and 4/16 (y) SIMD efficiency.
//!
//! Everything is validated lane-for-lane against the scalar
//! [`SchurOperator`](crate::block::SchurOperator) path.

use crate::gamma::GammaBasis;
use crate::wilson::WilsonClover;
use qdd_field::clover::CloverSite;
use qdd_field::fused::{FusedField, FusedTile, VReal, VF16};
use qdd_field::spinor::Spinor;
use qdd_lattice::{Coord, Dims, Dir, Domain, LaneSrc, Parity, SiteIndexer, TileLayout};
use qdd_util::complex::{Complex, Real, C64};

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

/// Links already in registers (the lane-permuted source-site links of the
/// block kernel's backward x/y hop).
impl<T: Real, const N: usize> GaugeVecs<T, N> for [VReal<T, N>; 18] {
    #[inline(always)]
    fn vec(&self, k: usize) -> VReal<T, N> {
        self[k]
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

    #[inline]
    pub(crate) fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTile<T, N> {
        &self.data[parity.index()][tile][dir.index()]
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

    #[inline]
    pub(crate) fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTileF16<N> {
        &self.data[parity.index()][tile][dir.index()]
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

/// Permutation pattern for one (flavor, parity, dir, orientation): source
/// lane table plus the boundary mask (false = neighbor outside block).
#[derive(Clone)]
struct Pattern<const N: usize> {
    table: [usize; N],
    mask: [bool; N],
    /// True if any lane survives (x/y always; z/t handled separately).
    any: bool,
}

/// Precomputed patterns and rules for the fused kernel of one block shape.
pub struct FusedKernel<T: Real, const N: usize> {
    layout: TileLayout,
    basis: GammaBasis,
    /// `[flavor][parity][dir(0..2 = x,y)][fwd]`.
    xy: Vec<Pattern<N>>,
    _marker: std::marker::PhantomData<T>,
}

#[inline]
pub(crate) fn xy_idx(flavor: usize, parity: Parity, dir: usize, fwd: usize) -> usize {
    ((flavor * 2 + parity.index()) * 2 + dir) * 2 + fwd
}

/// Accumulate `dst += coef * src` where `coef` is `+-1` or `+-i`
/// (complex, lane-wise on split re/im vectors).
#[inline(always)]
fn acc_unit<T: Real, const N: usize>(
    dst_re: &mut VReal<T, N>,
    dst_im: &mut VReal<T, N>,
    src_re: VReal<T, N>,
    src_im: VReal<T, N>,
    coef: C64,
) {
    if coef.im == 0.0 {
        if coef.re >= 0.0 {
            *dst_re = dst_re.add(src_re);
            *dst_im = dst_im.add(src_im);
        } else {
            *dst_re = dst_re.sub(src_re);
            *dst_im = dst_im.sub(src_im);
        }
    } else if coef.im > 0.0 {
        // * i: (re, im) -> (-im, re)
        *dst_re = dst_re.sub(src_im);
        *dst_im = dst_im.add(src_re);
    } else {
        // * -i
        *dst_re = dst_re.add(src_im);
        *dst_im = dst_im.sub(src_re);
    }
}

/// `dst += s * src` for a real lane-invariant scalar.
#[inline(always)]
fn acc_scaled<T: Real, const N: usize>(dst: &mut VReal<T, N>, src: VReal<T, N>, s: T) {
    *dst = dst.fma(src, VReal::splat(s));
}

pub(crate) type Half<T, const N: usize> = [[VReal<T, N>; 2]; 6]; // 6 complex (2 spin x 3 color), [re, im]

impl<T: Real, const N: usize> FusedKernel<T, N> {
    pub fn new(block: Dims) -> Self {
        let layout = TileLayout::new(block);
        assert_eq!(layout.lanes(), N, "lane count mismatch");
        let mut xy = Vec::with_capacity(16);
        for flavor in 0..2 {
            for parity in [Parity::Even, Parity::Odd] {
                for dir in [Dir::X, Dir::Y] {
                    for fwd in [false, true] {
                        let pat = layout.xy_neighbor(flavor, parity, dir, fwd);
                        let mut table = [0usize; N];
                        let mut mask = [false; N];
                        for (l, src) in pat.iter().enumerate() {
                            match src {
                                LaneSrc::Internal(s) => {
                                    table[l] = *s;
                                    mask[l] = true;
                                }
                                LaneSrc::Boundary(_) => {
                                    table[l] = l;
                                    mask[l] = false;
                                }
                            }
                        }
                        xy.push(Pattern { table, mask, any: mask.iter().any(|&b| b) });
                    }
                }
            }
        }
        Self { layout, basis: GammaBasis::degrand_rossi(), xy, _marker: std::marker::PhantomData }
    }

    #[inline]
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Fetch a spinor tile with lanes permuted (and masked lanes zeroed).
    #[inline]
    fn permuted_tile(src: &FusedTile<T, N>, pattern: &Pattern<N>) -> FusedTile<T, N> {
        std::array::from_fn(|c| {
            let permuted = src[c].permute(&pattern.table);
            VReal::ZERO.masked_add(&pattern.mask, permuted)
        })
    }

    /// Project `(1 + sign*gamma_mu)` on a (possibly permuted) tile.
    #[inline]
    pub(crate) fn project(&self, dir: Dir, plus: bool, tile: &FusedTile<T, N>) -> Half<T, N> {
        let rule = self.basis.gamma[dir.index()].proj_rule(plus);
        let mut h: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            let (src_spin, coef) = rule[s];
            for c in 0..3 {
                let k = 3 * s + c;
                let base = 3 * src_spin + c;
                let (mut re, mut im) = (tile[2 * k], tile[2 * k + 1]);
                acc_unit(&mut re, &mut im, tile[2 * base], tile[2 * base + 1], coef);
                h[k] = [re, im];
            }
        }
        h
    }

    /// `out = U * h` (color multiply of both spin components). Generic
    /// over the gauge storage: native tiles are read as-is, compressed
    /// tiles up-convert lane-wise on load — the FMA chain is identical.
    #[inline]
    pub(crate) fn su3_mul<G: GaugeVecs<T, N>>(g: &G, h: &Half<T, N>) -> Half<T, N> {
        let mut out: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            for i in 0..3 {
                let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
                for c in 0..3 {
                    let u_re = g.vec(2 * (3 * i + c));
                    let u_im = g.vec(2 * (3 * i + c) + 1);
                    let h_re = h[3 * s + c][0];
                    let h_im = h[3 * s + c][1];
                    // acc += u * h
                    acc_re = acc_re.fma(u_re, h_re).fms(u_im, h_im);
                    acc_im = acc_im.fma(u_re, h_im).fma(u_im, h_re);
                }
                out[3 * s + i] = [acc_re, acc_im];
            }
        }
        out
    }

    /// `out = U^dag * h`.
    #[inline]
    pub(crate) fn su3_adj_mul<G: GaugeVecs<T, N>>(g: &G, h: &Half<T, N>) -> Half<T, N> {
        let mut out: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            for i in 0..3 {
                let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
                for c in 0..3 {
                    // conj(U[c][i]) * h[c]
                    let u_re = g.vec(2 * (3 * c + i));
                    let u_im = g.vec(2 * (3 * c + i) + 1);
                    let h_re = h[3 * s + c][0];
                    let h_im = h[3 * s + c][1];
                    acc_re = acc_re.fma(u_re, h_re).fma(u_im, h_im);
                    acc_im = acc_im.fma(u_re, h_im).fms(u_im, h_re);
                }
                out[3 * s + i] = [acc_re, acc_im];
            }
        }
        out
    }

    /// One color row of `U h` (or `U^dag h` when `ADJ`) for spin `s`:
    /// the three-term FMA chain of [`Self::su3_mul`] for a single output
    /// component, returned in registers.
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

    /// Accumulate one reconstructed component pair: the direct row `k`
    /// (scaled by -1/2) and its partner row `kr` (scaled by `coef`, which
    /// already carries the -1/2).
    #[inline(always)]
    fn recon_pair(
        acc: &mut FusedTile<T, N>,
        k: usize,
        kr: usize,
        coef: C64,
        re: VReal<T, N>,
        im: VReal<T, N>,
    ) {
        let m_half = T::from_f64(-0.5);
        acc_scaled(&mut acc[2 * k], re, m_half);
        acc_scaled(&mut acc[2 * k + 1], im, m_half);
        if coef.im == 0.0 {
            acc_scaled(&mut acc[2 * kr], re, T::from_f64(coef.re));
            acc_scaled(&mut acc[2 * kr + 1], im, T::from_f64(coef.re));
        } else {
            acc_scaled(&mut acc[2 * kr], im, T::from_f64(-coef.im));
            acc_scaled(&mut acc[2 * kr + 1], re, T::from_f64(coef.im));
        }
    }

    /// Fused color-multiply + reconstruct: `acc += -1/2 recon(U h)` (or
    /// `U^dag h` when `adj`) without materializing the intermediate
    /// half-spinor — each `U h` component is computed in registers and
    /// consumed by both rows it feeds. Performs the exact FMA sequences of
    /// [`Self::su3_mul`]/[`Self::su3_adj_mul`] followed by
    /// [`Self::reconstruct_acc`], so results are bitwise identical.
    #[inline]
    pub(crate) fn su3_recon_acc<G: GaugeVecs<T, N>>(
        &self,
        dir: Dir,
        plus: bool,
        adj: bool,
        g: &G,
        h: &Half<T, N>,
        acc: &mut FusedTile<T, N>,
    ) {
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        // rule maps output rows 2+s to source spin rule[s].0; the two
        // source spins are a permutation of {0, 1}, so iterating the rule
        // covers every `U h` component exactly once.
        for (s_out, &(sp, coef)) in rule.iter().enumerate() {
            let coef = coef.scale(-0.5);
            for i in 0..3 {
                let (re, im) = if adj {
                    Self::su3_row::<true, G>(g, h, sp, i)
                } else {
                    Self::su3_row::<false, G>(g, h, sp, i)
                };
                Self::recon_pair(acc, 3 * sp + i, 3 * (2 + s_out) + i, coef, re, im);
            }
        }
    }

    /// Reconstruct-and-accumulate with the half-spinor read through a lane
    /// permutation (and optional per-lane sign): the backward-hop epilogue
    /// of the full-lattice kernel, where `U^dag h` is computed in source
    /// lane order and permuted on consumption instead of materialized.
    #[inline]
    pub(crate) fn reconstruct_acc_permuted(
        &self,
        dir: Dir,
        plus: bool,
        h: &Half<T, N>,
        table: &[usize; N],
        sign: Option<&VReal<T, N>>,
        acc: &mut FusedTile<T, N>,
    ) {
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        for (s_out, &(sp, coef)) in rule.iter().enumerate() {
            let coef = coef.scale(-0.5);
            for i in 0..3 {
                let k = 3 * sp + i;
                let mut re = h[k][0].permute(table);
                let mut im = h[k][1].permute(table);
                if let Some(s) = sign {
                    re = re.mul(*s);
                    im = im.mul(*s);
                }
                Self::recon_pair(acc, k, 3 * (2 + s_out) + i, coef, re, im);
            }
        }
    }

    /// Reconstruct-and-accumulate `acc += -1/2 * recon(h)`.
    #[inline]
    pub(crate) fn reconstruct_acc(
        &self,
        dir: Dir,
        plus: bool,
        h: &Half<T, N>,
        acc: &mut FusedTile<T, N>,
    ) {
        let m_half = T::from_f64(-0.5);
        // Rows 0, 1 directly.
        for k in 0..6 {
            acc_scaled(&mut acc[2 * k], h[k][0], m_half);
            acc_scaled(&mut acc[2 * k + 1], h[k][1], m_half);
        }
        // Rows 2, 3 from the rule.
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        for s in 0..2 {
            let (src_spin, coef) = rule[s];
            let coef = coef.scale(-0.5);
            for c in 0..3 {
                let k = 3 * (2 + s) + c;
                let base = 3 * src_spin + c;
                // acc[k] += coef * h[base]; coef is +-1/2 or +-i/2.
                let (re, im) = (h[base][0], h[base][1]);
                if coef.im == 0.0 {
                    acc_scaled(&mut acc[2 * k], re, T::from_f64(coef.re));
                    acc_scaled(&mut acc[2 * k + 1], im, T::from_f64(coef.re));
                } else {
                    acc_scaled(&mut acc[2 * k], im, T::from_f64(-coef.im));
                    acc_scaled(&mut acc[2 * k + 1], re, T::from_f64(coef.im));
                }
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
        let block = *self.layout.block();
        let (bz, bt) = (block[Dir::Z], block[Dir::T]);
        for tz in 0..bz {
            for tt in 0..bt {
                let tile = self.layout.tile_of(tz, tt);
                let flavor = self.layout.flavor(tile);
                let mut acc: FusedTile<T, N> = [VReal::ZERO; 24];

                // x and y hops: permutations within the same (z, t) slice.
                for (di, dir) in [Dir::X, Dir::Y].into_iter().enumerate() {
                    for (fi, fwd) in [false, true].into_iter().enumerate() {
                        let pat = &self.xy[xy_idx(flavor, to, di, fi)];
                        if !pat.any {
                            continue;
                        }
                        let src = Self::permuted_tile(inp.tile(from, tile), pat);
                        if fwd {
                            // (1 - gamma) U(x) psi(x+mu)
                            let h = self.project(dir, false, &src);
                            let uh = Self::su3_mul(gauge.tile(to, tile, dir), &h);
                            self.reconstruct_acc(dir, false, &uh, &mut acc);
                        } else {
                            // (1 + gamma) U^dag(x-mu) psi(x-mu): the link
                            // lives at the source site -> permute it too.
                            let g_src: [VReal<T, N>; 18] = std::array::from_fn(|c| {
                                gauge.tile(from, tile, dir).vec(c).permute(&pat.table)
                            });
                            let h = self.project(dir, true, &src);
                            let uh = Self::su3_adj_mul(&g_src, &h);
                            self.reconstruct_acc(dir, true, &uh, &mut acc);
                        }
                    }
                }

                // z and t hops: tile-to-tile, no shuffles; drop hops that
                // cross the block boundary.
                for (dir, coord, extent) in [(Dir::Z, tz, bz), (Dir::T, tt, bt)] {
                    // Forward.
                    if coord + 1 < extent {
                        let ntile = match dir {
                            Dir::Z => self.layout.tile_of(tz + 1, tt),
                            _ => self.layout.tile_of(tz, tt + 1),
                        };
                        let src = inp.tile(from, ntile);
                        let h = self.project(dir, false, src);
                        let uh = Self::su3_mul(gauge.tile(to, tile, dir), &h);
                        self.reconstruct_acc(dir, false, &uh, &mut acc);
                    }
                    // Backward.
                    if coord > 0 {
                        let ntile = match dir {
                            Dir::Z => self.layout.tile_of(tz - 1, tt),
                            _ => self.layout.tile_of(tz, tt - 1),
                        };
                        let src = inp.tile(from, ntile);
                        let h = self.project(dir, true, src);
                        let uh = Self::su3_adj_mul(gauge.tile(from, ntile, dir), &h);
                        self.reconstruct_acc(dir, true, &uh, &mut acc);
                    }
                }

                *out.tile_mut(to, tile) = acc;
            }
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
    kernel: FusedKernel<T, N>,
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
        Some(Self {
            kernel: FusedKernel::new(domain.dims),
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

/// Helper for tests/benches: local coordinate round trip.
pub fn coord_roundtrip_check(block: Dims) -> bool {
    let layout = TileLayout::new(block);
    let idx = SiteIndexer::new(block);
    let coords: Vec<Coord> = idx.iter().collect();
    coords.iter().all(|c| {
        let (p, t, l) = layout.locate(c);
        layout.coord(p, t, l) == *c
    })
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

    #[test]
    fn coord_roundtrip_helper() {
        assert!(coord_roundtrip_check(Dims::new(8, 4, 4, 4)));
        assert!(coord_roundtrip_check(Dims::new(4, 4, 2, 2)));
    }
}
