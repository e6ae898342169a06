//! Site-fused SOA storage and the SIMD vector type.
//!
//! On the KNC, 16 lattice sites fill the 16 lanes of one single-precision
//! register, and every one of the 24 real spinor components lives in its
//! own register/cache-line stream (paper Sec. III-A). [`VReal`] stands for
//! such a register: a fixed-size, cache-line-aligned array with the
//! operations the kernels need (lane-wise arithmetic and FMA, in-register
//! permutation, masking). The operations the hot kernels run are lowered
//! explicitly to AVX2 / AVX-512 instructions where the target has them
//! and the lane count fills registers; see [`crate::lanes`] for which,
//! why, and the portable loops every other case runs.
//!
//! [`FusedField`] stores one domain's spinors in this layout: for each
//! parity and each xy-tile, 24 component vectors of `N` lanes.

use crate::lanes::{self, LaneMask};
use crate::spinor::Spinor;
use qdd_lattice::{Dims, Parity, SiteIndexer, TileLayout};
use qdd_util::complex::{Complex, Real};
use qdd_util::half::{f16_to_f32_lanes, f32_to_f16_lanes, F16};

/// A fixed-width lane vector ("one SIMD register" of the model machine).
#[derive(Copy, Clone, PartialEq, Debug)]
#[repr(C, align(64))]
pub struct VReal<T: Real, const N: usize>(pub [T; N]);

impl<T: Real, const N: usize> Default for VReal<T, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<T: Real, const N: usize> VReal<T, N> {
    pub const ZERO: Self = VReal([T::ZERO; N]);

    #[inline(always)]
    pub fn splat(v: T) -> Self {
        VReal([v; N])
    }

    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        VReal(std::array::from_fn(f))
    }

    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        VReal(lanes::add(&self.0, &o.0))
    }

    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        VReal(lanes::sub(&self.0, &o.0))
    }

    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        VReal(lanes::mul(&self.0, &o.0))
    }

    #[inline(always)]
    pub fn neg(self) -> Self {
        VReal(std::array::from_fn(|i| -self.0[i]))
    }

    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        self.mul(Self::splat(s))
    }

    /// `self + a * b` lane-wise (the FMA).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        VReal(lanes::fma(&self.0, &a.0, &b.0))
    }

    /// `self - a * b` lane-wise.
    #[inline(always)]
    pub fn fms(self, a: Self, b: Self) -> Self {
        VReal(lanes::fms(&self.0, &a.0, &b.0))
    }

    /// In-register permutation: `out[i] = self[table[i]]`. `N` is always a
    /// power of two (xy cross-sections) and entries are reduced mod `N`,
    /// which is what `vpermps` does with an index. Takes `&self`: the
    /// full-lattice operator permutes 1 kB vectors out of arrays, and a
    /// by-value receiver was a copy of each.
    #[inline(always)]
    pub fn permute(&self, table: &[u32; N]) -> Self {
        debug_assert!(N.is_power_of_two());
        VReal(lanes::permute(&self.0, table))
    }

    /// Zero the lanes `keep` turns off — the KNC mask feature used to
    /// suppress hops across the domain boundary (paper Fig. 2).
    #[inline(always)]
    pub fn masked(self, keep: &LaneMask<N>) -> Self {
        VReal(lanes::masked(&self.0, keep))
    }

    /// Horizontal sum, lane 0 first. Out of line on purpose: inlined into a
    /// loop that carries `self` as an accumulator, the lane-by-lane reads
    /// make LLVM keep the accumulator as `N` scalars and rebuild the vector
    /// with inserts on every iteration (measured on the 16-lane 8x4^3
    /// block: the level-1 part of an MR iteration went 15.8 -> 2.4 us once
    /// this was a call).
    #[inline(never)]
    pub fn reduce_add(&self) -> T {
        let mut acc = T::ZERO;
        for i in 0..N {
            acc += self.0[i];
        }
        acc
    }
}

/// A lane vector of *packed* f16 storage — the compressed-stream analogue
/// of [`VReal`] (paper Sec. II-A / III-B: constants are stored in half
/// precision and up-converted on load; all arithmetic happens after
/// up-conversion).
///
/// Deliberately **not** cache-line aligned: `[F16; N]` is `2 N` bytes
/// (32 for the paper's 16 lanes), and forcing `align(64)` would pad every
/// vector back to 64 bytes — exactly the compression the type exists to
/// provide. Natural 2-byte alignment packs two 16-lane vectors per cache
/// line, halving the streamed bytes of a gauge/clover tile.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub struct VF16<const N: usize>(pub [F16; N]);

impl<const N: usize> Default for VF16<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> VF16<N> {
    pub const ZERO: Self = VF16([F16::ZERO; N]);

    /// Down-convert a lane vector for storage (round-to-nearest-even per
    /// lane, finite overflow saturating to ±65504). `f64` sources round
    /// through `f32` first — the double rounding is irrelevant for the O(1)
    /// gauge/clover constants this stores, and it matches how the scalar
    /// f16 fields in `qdd-field::fields` are produced, so compressing an
    /// already-f16-rounded f32 field is bitwise lossless.
    #[inline]
    pub fn compress<T: Real>(v: &VReal<T, N>) -> Self {
        VF16(f32_to_f16_lanes(&v.0.map(|x| x.to_f64() as f32)))
    }

    /// Up-convert to a compute vector (exact: every finite f16 value is
    /// representable in both f32 and f64).
    #[inline(always)]
    pub fn decompress<T: Real>(&self) -> VReal<T, N> {
        VReal(f16_to_f32_lanes(&self.0).map(|x| T::from_f64(x as f64)))
    }
}

/// One tile worth of fused spinor data: 24 real component vectors
/// (component `2k` is the real part of complex component `k`, `2k+1` the
/// imaginary part; complex component `k = 3*spin + color`).
pub type FusedTile<T, const N: usize> = [VReal<T, N>; 24];

/// A whole domain's spinor data in site-fused SOA layout.
#[derive(Clone, Debug)]
pub struct FusedField<T: Real, const N: usize> {
    layout: TileLayout,
    /// `[parity][tile] -> FusedTile`.
    data: [Vec<FusedTile<T, N>>; 2],
}

impl<T: Real, const N: usize> FusedField<T, N> {
    pub fn zeros(block: Dims) -> Self {
        let layout = TileLayout::new(block);
        assert_eq!(
            layout.lanes(),
            N,
            "block {block} has {} lanes per tile, expected {N}",
            layout.lanes()
        );
        let tiles = layout.tiles_per_parity();
        Self { layout, data: [vec![[VReal::ZERO; 24]; tiles], vec![[VReal::ZERO; 24]; tiles]] }
    }

    #[inline]
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    #[inline]
    pub fn tile(&self, parity: Parity, tile: usize) -> &FusedTile<T, N> {
        &self.data[parity.index()][tile]
    }

    #[inline]
    pub fn tile_mut(&mut self, parity: Parity, tile: usize) -> &mut FusedTile<T, N> {
        &mut self.data[parity.index()][tile]
    }

    /// All tiles of one parity.
    #[inline]
    pub fn tiles(&self, parity: Parity) -> &[FusedTile<T, N>] {
        &self.data[parity.index()]
    }

    #[inline]
    pub fn tiles_mut(&mut self, parity: Parity) -> &mut [FusedTile<T, N>] {
        &mut self.data[parity.index()]
    }

    /// Both parities' tile storage as disjoint mutable slices (even, odd),
    /// for callers that fill tiles of both parities concurrently.
    #[inline]
    pub fn parity_slices_mut(&mut self) -> (&mut [FusedTile<T, N>], &mut [FusedTile<T, N>]) {
        let [even, odd] = &mut self.data;
        (even.as_mut_slice(), odd.as_mut_slice())
    }

    /// Gather from an AOS spinor field over the same block.
    pub fn gather(field: &[Spinor<T>], block: Dims) -> Self {
        let mut out = Self::zeros(block);
        let idx = SiteIndexer::new(block);
        for c in idx.iter() {
            let s = field[idx.index(&c)];
            let (p, tile, lane) = out.layout.locate(&c);
            let t = out.tile_mut(p, tile);
            for k in 0..12 {
                let z = s.component(k);
                t[2 * k].0[lane] = z.re;
                t[2 * k + 1].0[lane] = z.im;
            }
        }
        out
    }

    /// Scatter back to an AOS spinor field.
    pub fn scatter(&self, field: &mut [Spinor<T>]) {
        let block = *self.layout.block();
        let idx = SiteIndexer::new(block);
        assert_eq!(field.len(), block.volume());
        for c in idx.iter() {
            let (p, tile, lane) = self.layout.locate(&c);
            let t = self.tile(p, tile);
            let s = &mut field[idx.index(&c)];
            for k in 0..12 {
                s.set_component(k, Complex::new(t[2 * k].0[lane], t[2 * k + 1].0[lane]));
            }
        }
    }

    /// Read one lane back as a spinor (testing / debugging).
    pub fn lane_spinor(&self, parity: Parity, tile: usize, lane: usize) -> Spinor<T> {
        let t = self.tile(parity, tile);
        let mut s = Spinor::ZERO;
        for k in 0..12 {
            s.set_component(k, Complex::new(t[2 * k].0[lane], t[2 * k + 1].0[lane]));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_lattice::Coord;
    use qdd_util::rng::Rng64;

    #[test]
    fn vreal_arithmetic() {
        let a = VReal::<f64, 8>::from_fn(|i| i as f64);
        let b = VReal::<f64, 8>::splat(2.0);
        assert_eq!(a.add(b).0[3], 5.0);
        assert_eq!(a.sub(b).0[0], -2.0);
        assert_eq!(a.mul(b).0[4], 8.0);
        assert_eq!(a.neg().0[5], -5.0);
        assert_eq!(a.scale(3.0).0[2], 6.0);
        let c = VReal::<f64, 8>::splat(1.0);
        assert_eq!(c.fma(a, b).0[7], 15.0);
        assert_eq!(c.fms(a, b).0[7], -13.0);
        assert_eq!(a.reduce_add(), 28.0);
    }

    #[test]
    fn vreal_permute_and_masks() {
        let a = VReal::<f64, 4>::from_fn(|i| 10.0 * (i + 1) as f64);
        let p = a.permute(&[3, 2, 1, 0]);
        assert_eq!(p.0, [40.0, 30.0, 20.0, 10.0]);
        let keep = LaneMask::from_fn(|i| [true, false, true, false][i]);
        assert_eq!(a.masked(&keep).0, [10.0, 0.0, 30.0, 0.0]);
        assert!(keep.lane(0) && !keep.lane(1));
    }

    #[test]
    fn alignment_is_cache_line() {
        assert_eq!(std::mem::align_of::<VReal<f32, 16>>(), 64);
        assert_eq!(std::mem::size_of::<VReal<f32, 16>>(), 64);
    }

    #[test]
    fn vf16_is_packed_and_roundtrips() {
        // The compressed vector must actually be half the bytes of the f32
        // vector — no alignment padding allowed.
        assert_eq!(std::mem::size_of::<VF16<16>>(), 32);
        assert_eq!(std::mem::size_of::<[VF16<16>; 2]>(), 64);
        let mut rng = Rng64::new(3);
        let v = VReal::<f32, 16>::from_fn(|_| rng.normal() as f32);
        let packed = VF16::compress(&v);
        let back: VReal<f32, 16> = packed.decompress();
        for i in 0..16 {
            let rel = ((back.0[i] - v.0[i]) / v.0[i]).abs();
            assert!(rel <= 2.0_f32.powi(-11), "lane {i}: {} -> {}", v.0[i], back.0[i]);
        }
        // Re-compressing the rounded values is bitwise lossless.
        assert_eq!(VF16::compress(&back), packed);
        // f64 decompression agrees with f32 decompression exactly.
        let back64: VReal<f64, 16> = packed.decompress();
        for i in 0..16 {
            assert_eq!(back64.0[i], back.0[i] as f64);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let block = Dims::new(8, 4, 4, 4); // 16 lanes
        let mut rng = Rng64::new(1);
        let field: Vec<Spinor<f32>> =
            (0..block.volume()).map(|_| Spinor::random(&mut rng)).collect();
        let fused = FusedField::<f32, 16>::gather(&field, block);
        let mut back = vec![Spinor::ZERO; block.volume()];
        fused.scatter(&mut back);
        assert_eq!(field, back);
    }

    #[test]
    fn lane_spinor_matches_source() {
        let block = Dims::new(4, 4, 2, 2); // 8 lanes
        let mut rng = Rng64::new(2);
        let field: Vec<Spinor<f64>> =
            (0..block.volume()).map(|_| Spinor::random(&mut rng)).collect();
        let fused = FusedField::<f64, 8>::gather(&field, block);
        let idx = SiteIndexer::new(block);
        let c = Coord::new(1, 2, 1, 0);
        let (p, tile, lane) = fused.layout().locate(&c);
        let s = fused.lane_spinor(p, tile, lane);
        assert_eq!(s, field[idx.index(&c)]);
    }

    #[test]
    #[should_panic(expected = "lanes per tile")]
    fn wrong_lane_count_rejected() {
        let _ = FusedField::<f32, 16>::zeros(Dims::new(4, 4, 2, 2));
    }
}
