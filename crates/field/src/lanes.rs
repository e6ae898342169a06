//! The lane operations behind [`VReal`](crate::fused::VReal): the portable
//! loops, and their explicit lowering to AVX2 / AVX-512 registers.
//!
//! The paper's kernel is written in vector intrinsics (Sec. III-A); so are
//! the KNL ports it templates (arXiv 1712.01505). This crate used to leave
//! the lowering to LLVM's auto-vectorizer, and on the AVX-512 bench host
//! that was measurably not what happened (PR 14, EXPERIMENTS.md): the
//! `from_fn` permute compiled to a stack spill plus `vgatherdps`, and
//! every 24-component tile loop around an element-wise op was vectorized
//! *across the components* with stride-64 gathers and scatters. The
//! operations the hot kernels use are therefore lowered by hand in
//! [`x86`], register by register; everything else — other ISAs, lane
//! counts no register divides, permutes wider than one register — runs
//! the loops in [`portable`], which are also the oracle the lowering is
//! tested against bit for bit. Which one runs is decided by the target's
//! features and the lane count, at compile time.

use qdd_util::complex::Real;

/// A per-lane on/off mask in the form the vector unit consumes: one
/// all-ones or all-zero word per lane (the KNC write-mask of Fig. 2).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LaneMask<const N: usize>([u32; N]);

impl<const N: usize> LaneMask<N> {
    pub fn from_fn(mut on: impl FnMut(usize) -> bool) -> Self {
        LaneMask(std::array::from_fn(|i| if on(i) { u32::MAX } else { 0 }))
    }

    #[inline]
    pub fn lane(&self, i: usize) -> bool {
        self.0[i] != 0
    }
}

/// The portable loops, one scalar operation per lane.
pub(crate) mod portable {
    use super::{LaneMask, Real};
    use std::array::from_fn;

    #[inline(always)]
    pub fn add<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> [T; N] {
        from_fn(|i| a[i] + b[i])
    }

    #[inline(always)]
    pub fn sub<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> [T; N] {
        from_fn(|i| a[i] - b[i])
    }

    #[inline(always)]
    pub fn mul<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> [T; N] {
        from_fn(|i| a[i] * b[i])
    }

    /// `c + a * b`, rounded once.
    #[inline(always)]
    pub fn fma<T: Real, const N: usize>(c: &[T; N], a: &[T; N], b: &[T; N]) -> [T; N] {
        from_fn(|i| a[i].mul_add(b[i], c[i]))
    }

    /// `c - a * b`, rounded once.
    #[inline(always)]
    pub fn fms<T: Real, const N: usize>(c: &[T; N], a: &[T; N], b: &[T; N]) -> [T; N] {
        from_fn(|i| (-a[i]).mul_add(b[i], c[i]))
    }

    /// `out[i] = a[table[i] mod N]`; `N` is a power of two.
    #[inline(always)]
    pub fn permute<T: Real, const N: usize>(a: &[T; N], table: &[u32; N]) -> [T; N] {
        from_fn(|i| a[table[i] as usize & (N - 1)])
    }

    /// `a` with the lanes `keep` turns off set to `+0`.
    #[inline(always)]
    pub fn masked<T: Real, const N: usize>(a: &[T; N], keep: &LaneMask<N>) -> [T; N] {
        from_fn(|i| if keep.0[i] != 0 { a[i] } else { T::ZERO })
    }
}

/// The entry point of one lane operation: the register lowering where the
/// target and the lane count have one, the portable loop otherwise.
macro_rules! lane_op {
    ($name:ident($($arg:ident: $ty:ty),+)) => {
        #[inline(always)]
        pub(crate) fn $name<T: Real, const N: usize>($($arg: $ty),+) -> [T; N] {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
            if let Some(out) = x86::$name($($arg),+) {
                return out;
            }
            portable::$name($($arg),+)
        }
    };
}

lane_op!(add(a: &[T; N], b: &[T; N]));
lane_op!(sub(a: &[T; N], b: &[T; N]));
lane_op!(mul(a: &[T; N], b: &[T; N]));
lane_op!(fma(c: &[T; N], a: &[T; N], b: &[T; N]));
lane_op!(fms(c: &[T; N], a: &[T; N], b: &[T; N]));
lane_op!(permute(a: &[T; N], table: &[u32; N]));
lane_op!(masked(a: &[T; N], keep: &LaneMask<N>));

/// `vaddps`/`vfmadd*`/`vfnmadd*`/`vpermps`/`vpand` and their `pd` forms on
/// 256-bit registers (AVX2 + FMA) and, where the target has AVX-512F, on
/// 512-bit ones. All `unsafe` of the lane operations lives in this module:
/// the intrinsic calls, sound because the `cfg` on the module (and on the
/// 512-bit items) means every CPU the binary may run on has the feature,
/// and the by-value transmutes between a lane array and the register of
/// the same size.
///
/// Bit-exactness against [`portable`]: every arithmetic intrinsic is the
/// IEEE operation the loop performs per lane (`vfnmadd` is `-(a*b) + c`
/// with one rounding, which is `(-a).mul_add(b, c)`); permutes and masks
/// move bits. Only the sign and payload of a NaN *result* are unspecified
/// by IEEE 754 and may differ.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
mod x86 {
    use super::{LaneMask, Real};
    use std::any::Any;
    use std::arch::x86_64::*;
    use std::mem::transmute;

    /// One vector register holding `L` lanes of `T`.
    trait Reg<T, const L: usize>: Copy {
        fn load(x: &[T; L]) -> Self;
        fn store(self) -> [T; L];
        fn add(self, o: Self) -> Self;
        fn sub(self, o: Self) -> Self;
        fn mul(self, o: Self) -> Self;
        /// `self + a * b`.
        fn fma(self, a: Self, b: Self) -> Self;
        /// `self - a * b`.
        fn fms(self, a: Self, b: Self) -> Self;
        /// `out[i] = self[table[i] mod L]`.
        fn permute(self, table: &[u32; L]) -> Self;
        /// Bitwise and with the all-ones / all-zero words of a [`LaneMask`].
        fn masked(self, keep: &[u32; L]) -> Self;
    }

    macro_rules! reg {
        ($t:ty, $l:literal, $v:ty, $add:ident, $sub:ident, $mul:ident, $fmadd:ident,
         $fnmadd:ident, $permute:ident, $masked:ident) => {
            impl Reg<$t, $l> for $v {
                #[inline(always)]
                fn load(x: &[$t; $l]) -> Self {
                    // SAFETY: plain-data types of equal size in which every
                    // bit pattern is valid.
                    unsafe { transmute::<[$t; $l], $v>(*x) }
                }
                #[inline(always)]
                fn store(self) -> [$t; $l] {
                    // SAFETY: as in `load`.
                    unsafe { transmute::<$v, [$t; $l]>(self) }
                }
                #[inline(always)]
                fn add(self, o: Self) -> Self {
                    // SAFETY: the module's `cfg` guarantees the instruction.
                    unsafe { $add(self, o) }
                }
                #[inline(always)]
                fn sub(self, o: Self) -> Self {
                    // SAFETY: the module's `cfg` guarantees the instruction.
                    unsafe { $sub(self, o) }
                }
                #[inline(always)]
                fn mul(self, o: Self) -> Self {
                    // SAFETY: the module's `cfg` guarantees the instruction.
                    unsafe { $mul(self, o) }
                }
                #[inline(always)]
                fn fma(self, a: Self, b: Self) -> Self {
                    // SAFETY: the module's `cfg` guarantees the instruction.
                    unsafe { $fmadd(a, b, self) }
                }
                #[inline(always)]
                fn fms(self, a: Self, b: Self) -> Self {
                    // SAFETY: the module's `cfg` guarantees the instruction.
                    unsafe { $fnmadd(a, b, self) }
                }
                #[inline(always)]
                fn permute(self, table: &[u32; $l]) -> Self {
                    $permute(self, table)
                }
                #[inline(always)]
                fn masked(self, keep: &[u32; $l]) -> Self {
                    $masked(self, keep)
                }
            }
        };
    }

    reg!(
        f32,
        8,
        __m256,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps,
        _mm256_fmadd_ps,
        _mm256_fnmadd_ps,
        permute_f32x8,
        masked_f32x8
    );
    reg!(
        f64,
        4,
        __m256d,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        _mm256_fmadd_pd,
        _mm256_fnmadd_pd,
        permute_f64x4,
        masked_f64x4
    );
    #[cfg(target_feature = "avx512f")]
    reg!(
        f32,
        16,
        __m512,
        _mm512_add_ps,
        _mm512_sub_ps,
        _mm512_mul_ps,
        _mm512_fmadd_ps,
        _mm512_fnmadd_ps,
        permute_f32x16,
        masked_f32x16
    );
    #[cfg(target_feature = "avx512f")]
    reg!(
        f64,
        8,
        __m512d,
        _mm512_add_pd,
        _mm512_sub_pd,
        _mm512_mul_pd,
        _mm512_fmadd_pd,
        _mm512_fnmadd_pd,
        permute_f64x8,
        masked_f64x8
    );

    #[inline(always)]
    fn permute_f32x8(a: __m256, table: &[u32; 8]) -> __m256 {
        // SAFETY: AVX2 by the module's `cfg`; `vpermps` reads the low three
        // bits of each index. The transmute is between 32-byte plain data.
        unsafe { _mm256_permutevar8x32_ps(a, transmute::<[u32; 8], __m256i>(*table)) }
    }

    #[inline(always)]
    fn masked_f32x8(a: __m256, keep: &[u32; 8]) -> __m256 {
        // SAFETY: AVX by the module's `cfg`; 32-byte plain-data transmute.
        unsafe { _mm256_and_ps(a, transmute::<[u32; 8], __m256>(*keep)) }
    }

    /// AVX2 has no variable `vpermpd`: move each double as the dword pair
    /// `(2t, 2t + 1)` through `vpermps`.
    #[inline(always)]
    fn permute_f64x4(a: __m256d, table: &[u32; 4]) -> __m256d {
        // SAFETY: AVX2 by the module's `cfg`; 16-byte plain-data transmute.
        unsafe {
            let t = _mm256_cvtepu32_epi64(transmute::<[u32; 4], __m128i>(*table));
            let even = _mm256_slli_epi64::<1>(_mm256_and_si256(t, _mm256_set1_epi64x(3)));
            let pair = _mm256_or_si256(even, _mm256_slli_epi64::<32>(even));
            let pair = _mm256_add_epi32(pair, _mm256_set1_epi64x(1i64 << 32));
            _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(a), pair))
        }
    }

    #[inline(always)]
    fn masked_f64x4(a: __m256d, keep: &[u32; 4]) -> __m256d {
        // SAFETY: AVX2 by the module's `cfg`; 16-byte plain-data transmute.
        // Sign extension widens an all-ones word to an all-ones quadword.
        unsafe {
            let k = _mm256_cvtepi32_epi64(transmute::<[u32; 4], __m128i>(*keep));
            _mm256_and_pd(a, _mm256_castsi256_pd(k))
        }
    }

    #[cfg(target_feature = "avx512f")]
    #[inline(always)]
    fn permute_f32x16(a: __m512, table: &[u32; 16]) -> __m512 {
        // SAFETY: AVX-512F by the item's `cfg`; `vpermps` reads the low four
        // bits of each index. 64-byte plain-data transmute.
        unsafe { _mm512_permutexvar_ps(transmute::<[u32; 16], __m512i>(*table), a) }
    }

    #[cfg(target_feature = "avx512f")]
    #[inline(always)]
    fn masked_f32x16(a: __m512, keep: &[u32; 16]) -> __m512 {
        // SAFETY: AVX-512F by the item's `cfg`; 64-byte plain-data transmute.
        unsafe {
            let k = transmute::<[u32; 16], __m512i>(*keep);
            _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(a), k))
        }
    }

    #[cfg(target_feature = "avx512f")]
    #[inline(always)]
    fn permute_f64x8(a: __m512d, table: &[u32; 8]) -> __m512d {
        // SAFETY: AVX-512F by the item's `cfg`; `vpermpd` reads the low
        // three bits of each index. 32-byte plain-data transmute.
        unsafe {
            let t = _mm512_cvtepu32_epi64(transmute::<[u32; 8], __m256i>(*table));
            _mm512_permutexvar_pd(t, a)
        }
    }

    #[cfg(target_feature = "avx512f")]
    #[inline(always)]
    fn masked_f64x8(a: __m512d, keep: &[u32; 8]) -> __m512d {
        // SAFETY: AVX-512F by the item's `cfg`; 32-byte plain-data transmute.
        unsafe {
            let k = _mm512_cvtepi32_epi64(transmute::<[u32; 8], __m256i>(*keep));
            _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(a), k))
        }
    }

    /// The widest vector that is lowered: two 512-bit registers' worth —
    /// the block kernels' 8- and 16-lane vectors and the 32-lane f32
    /// cross-section. A wider one (the full-lattice operator's 32 to 128
    /// lanes) is an array in memory whichever way it is written, and LLVM
    /// vectorizes a loop over that many contiguous lanes by itself: chunked
    /// intrinsics measured 6-9 % *slower* on the 128-lane f64 operator.
    const MAX_BYTES: usize = 128;

    /// `x` seen as lanes of `U`, when `T` is `U`. The type test is a
    /// compile-time constant after monomorphization.
    #[inline(always)]
    fn same<T: 'static, U: 'static, const N: usize>(x: &[T; N]) -> Option<&[U; N]> {
        (x as &dyn Any).downcast_ref()
    }

    /// The way back: lanes of `U` as lanes of `T`, when `T` is `U`.
    #[inline(always)]
    fn back<U: Copy + 'static, T: Copy + 'static, const N: usize>(x: [U; N]) -> Option<[T; N]> {
        same(&x).copied()
    }

    #[derive(Copy, Clone)]
    enum Arith {
        Add,
        Sub,
        Mul,
        Fma,
        Fms,
    }

    /// `op` register by register over the `N / L` registers of `[T; N]`.
    #[inline(always)]
    fn zip3<T: Copy, V: Reg<T, L>, const L: usize, const N: usize>(
        op: Arith,
        c: &[T; N],
        a: &[T; N],
        b: &[T; N],
    ) -> [T; N] {
        let mut out = *c;
        let regs = out
            .as_chunks_mut::<L>()
            .0
            .iter_mut()
            .zip(a.as_chunks::<L>().0)
            .zip(b.as_chunks::<L>().0);
        for ((o, a), b) in regs {
            let (c, a, b) = (V::load(o), V::load(a), V::load(b));
            *o = match op {
                Arith::Add => a.add(b),
                Arith::Sub => a.sub(b),
                Arith::Mul => a.mul(b),
                Arith::Fma => c.fma(a, b),
                Arith::Fms => c.fms(a, b),
            }
            .store();
        }
        out
    }

    /// Dispatch on the lane type and the widest register dividing `N`.
    #[inline(always)]
    fn arith<T: Real, const N: usize>(
        op: Arith,
        c: &[T; N],
        a: &[T; N],
        b: &[T; N],
    ) -> Option<[T; N]> {
        if std::mem::size_of::<[T; N]>() > MAX_BYTES {
            return None;
        }
        if let (Some(c), Some(a), Some(b)) = (same::<T, f32, N>(c), same(a), same(b)) {
            #[cfg(target_feature = "avx512f")]
            if N.is_multiple_of(16) {
                return back(zip3::<f32, __m512, 16, N>(op, c, a, b));
            }
            if N.is_multiple_of(8) {
                return back(zip3::<f32, __m256, 8, N>(op, c, a, b));
            }
        }
        if let (Some(c), Some(a), Some(b)) = (same::<T, f64, N>(c), same(a), same(b)) {
            #[cfg(target_feature = "avx512f")]
            if N.is_multiple_of(8) {
                return back(zip3::<f64, __m512d, 8, N>(op, c, a, b));
            }
            if N.is_multiple_of(4) {
                return back(zip3::<f64, __m256d, 4, N>(op, c, a, b));
            }
        }
        None
    }

    #[inline(always)]
    pub fn add<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> Option<[T; N]> {
        arith(Arith::Add, a, a, b)
    }

    #[inline(always)]
    pub fn sub<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> Option<[T; N]> {
        arith(Arith::Sub, a, a, b)
    }

    #[inline(always)]
    pub fn mul<T: Real, const N: usize>(a: &[T; N], b: &[T; N]) -> Option<[T; N]> {
        arith(Arith::Mul, a, a, b)
    }

    #[inline(always)]
    pub fn fma<T: Real, const N: usize>(c: &[T; N], a: &[T; N], b: &[T; N]) -> Option<[T; N]> {
        arith(Arith::Fma, c, a, b)
    }

    #[inline(always)]
    pub fn fms<T: Real, const N: usize>(c: &[T; N], a: &[T; N], b: &[T; N]) -> Option<[T; N]> {
        arith(Arith::Fms, c, a, b)
    }

    /// A permute by, or a mask with, the per-lane `words`, register by
    /// register. A permute reaches one register: it is lowered where
    /// `[T; N]` is exactly one and left to the portable loop where it is
    /// wider.
    #[inline(always)]
    fn zip_words<T: Copy, V: Reg<T, L>, const L: usize, const N: usize>(
        permute: bool,
        a: &[T; N],
        words: &[u32; N],
    ) -> [T; N] {
        let mut out = *a;
        for (o, w) in out.as_chunks_mut::<L>().0.iter_mut().zip(words.as_chunks::<L>().0) {
            let v = V::load(o);
            *o = if permute { v.permute(w) } else { v.masked(w) }.store();
        }
        out
    }

    #[inline(always)]
    fn with_words<T: Real, const N: usize>(
        permute: bool,
        a: &[T; N],
        words: &[u32; N],
    ) -> Option<[T; N]> {
        if std::mem::size_of::<[T; N]>() > MAX_BYTES {
            return None;
        }
        let fits = |lanes: usize| if permute { N == lanes } else { N.is_multiple_of(lanes) };
        if let Some(a) = same::<T, f32, N>(a) {
            #[cfg(target_feature = "avx512f")]
            if fits(16) {
                return back(zip_words::<f32, __m512, 16, N>(permute, a, words));
            }
            if fits(8) {
                return back(zip_words::<f32, __m256, 8, N>(permute, a, words));
            }
        }
        if let Some(a) = same::<T, f64, N>(a) {
            #[cfg(target_feature = "avx512f")]
            if fits(8) {
                return back(zip_words::<f64, __m512d, 8, N>(permute, a, words));
            }
            if fits(4) {
                return back(zip_words::<f64, __m256d, 4, N>(permute, a, words));
            }
        }
        None
    }

    #[inline(always)]
    pub fn permute<T: Real, const N: usize>(a: &[T; N], table: &[u32; N]) -> Option<[T; N]> {
        with_words(true, a, table)
    }

    #[inline(always)]
    pub fn masked<T: Real, const N: usize>(a: &[T; N], keep: &LaneMask<N>) -> Option<[T; N]> {
        with_words(false, a, &keep.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qdd_util::rng::Rng64;

    /// The values rounding and sign rules go wrong on first: signed zeros,
    /// infinities, NaN, f32 and f64 subnormals, the largest finite f32.
    const SPECIAL: [f64; 14] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.401298464324817e-45, // smallest f32 subnormal
        -1.401298464324817e-45,
        5.877471754111438e-39, // f32::MIN_POSITIVE / 2
        5e-324,                // smallest f64 subnormal
        -5e-324,
        1.1125369292536007e-308, // f64::MIN_POSITIVE / 2
        1.0,
        -1.0,
        3.4028234663852886e38, // f32::MAX
    ];

    fn lanes_of<T: Real, const N: usize>(rng: &mut Rng64) -> [T; N] {
        std::array::from_fn(|_| {
            let pick = (rng.next_u64() % (2 * SPECIAL.len() as u64)) as usize;
            T::from_f64(SPECIAL.get(pick).copied().unwrap_or_else(|| rng.normal() * 3.0))
        })
    }

    /// Equality of bits. IEEE 754 leaves the sign and payload of a NaN
    /// *result* open, so two NaNs are the same answer.
    fn assert_same_bits<T: Real, const N: usize>(got: [T; N], want: [T; N], what: &str) {
        for i in 0..N {
            // Widening f32 to f64 is exact and keeps the sign of zero.
            let (g, w) = (got[i].to_f64(), want[i].to_f64());
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} <{}, {N}> lane {i}: {g:e} ({:#x}) vs portable {w:e} ({:#x})",
                std::any::type_name::<T>(),
                g.to_bits(),
                w.to_bits(),
            );
        }
    }

    /// A table of arbitrary words: in range, out of range, repeated.
    fn table_of<const N: usize>(rng: &mut Rng64) -> [u32; N] {
        std::array::from_fn(|_| match rng.next_u64() % 4 {
            0 => rng.next_u64() as u32,
            _ => (rng.next_u64() % N as u64) as u32,
        })
    }

    fn check_shape<T: Real, const N: usize>(seed: u64) {
        let mut rng = Rng64::new(seed);
        let (a, b, c) = (lanes_of::<T, N>(&mut rng), lanes_of(&mut rng), lanes_of(&mut rng));
        assert_same_bits(add(&a, &b), portable::add(&a, &b), "add");
        assert_same_bits(sub(&a, &b), portable::sub(&a, &b), "sub");
        assert_same_bits(mul(&a, &b), portable::mul(&a, &b), "mul");
        assert_same_bits(fma(&c, &a, &b), portable::fma(&c, &a, &b), "fma");
        assert_same_bits(fms(&c, &a, &b), portable::fms(&c, &a, &b), "fms");
        let keep = LaneMask::from_fn(|_| rng.next_u64() & 1 == 1);
        assert_same_bits(masked(&a, &keep), portable::masked(&a, &keep), "masked");
        let identity: [u32; N] = std::array::from_fn(|i| i as u32);
        let reversal: [u32; N] = std::array::from_fn(|i| (N - 1 - i) as u32);
        let repeated = [(rng.next_u64() % N as u64) as u32; N];
        for table in [identity, reversal, repeated, table_of(&mut rng)] {
            assert_same_bits(permute(&a, &table), portable::permute(&a, &table), "permute");
        }
        assert_eq!(permute(&a, &identity).map(T::to_f64).map(f64::to_bits), {
            a.map(T::to_f64).map(f64::to_bits)
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every lowered operation against the portable loop, on the
        /// register-sized shapes of the block kernels, on the two-register
        /// shapes (arithmetic chunked, permute portable where it is wider
        /// than a register), and on shapes above and below any lowering
        /// (all portable).
        #[test]
        fn lowering_is_the_portable_loop_bit_for_bit(seed in 0u64..1_000_000) {
            check_shape::<f32, 8>(seed);
            check_shape::<f32, 16>(seed);
            check_shape::<f64, 4>(seed);
            check_shape::<f64, 8>(seed);
            check_shape::<f32, 32>(seed);
            check_shape::<f64, 16>(seed);
            check_shape::<f64, 128>(seed);
            check_shape::<f32, 4>(seed);
            check_shape::<f64, 2>(seed);
        }
    }

    /// The comparison above is vacuous if the lowering silently declines:
    /// on a vector target the block-kernel shapes must take it, and a
    /// permute wider than a register must not.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
    #[test]
    fn lowering_covers_the_block_kernel_shapes() {
        fn covered<T: Real, const N: usize>() -> [bool; 3] {
            let (a, t) = ([T::ONE; N], [0u32; N]);
            let keep = LaneMask::from_fn(|_| true);
            [
                x86::fma(&a, &a, &a).is_some(),
                x86::masked(&a, &keep).is_some(),
                x86::permute(&a, &t).is_some(),
            ]
        }
        assert_eq!(covered::<f32, 8>(), [true; 3]);
        assert_eq!(covered::<f64, 4>(), [true; 3]);
        let wide = cfg!(target_feature = "avx512f");
        assert_eq!(covered::<f32, 16>(), [true, true, wide]);
        assert_eq!(covered::<f64, 8>(), [true, true, wide]);
        assert_eq!(covered::<f32, 32>(), [true, true, false]);
        assert_eq!(covered::<f64, 32>(), [false; 3]);
        assert_eq!(covered::<f32, 4>(), [false; 3]);
    }
}
