//! IEEE-754 binary16 ("half precision") storage conversions.
//!
//! The KNC has no 16-bit arithmetic, but its load/store paths up-convert
//! f16 → f32 and down-convert f32 → f16 in hardware (paper Sec. II-A).
//! The DD preconditioner exploits this to store the *constant* data of an
//! inversion — gauge links and clover matrices — in half precision, halving
//! their cache footprint from 144 kB to 72 kB per domain (Sec. III-B),
//! while keeping the iteration vectors (spinors) in single precision.
//!
//! This module reproduces those conversions with round-to-nearest-even.
//! Where the build target has F16C (the repository builds
//! `target-cpu=native`) they run on `VCVTPS2PH`/`VCVTPH2PS` ([`f16c`]); the
//! software conversions stay compiled everywhere as the fallback and as the
//! oracle the hardware path is tested against, bit for bit.

use crate::complex::Complex;

/// IEEE-754 binary16 storage type.
///
/// Arithmetic is not provided: like on the KNC, `F16` exists only as a
/// storage format; all computation happens after up-conversion to `f32`.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    pub const ZERO: F16 = F16(0);
    pub const ONE: F16 = F16(0x3C00);
    pub const INFINITY: F16 = F16(0x7C00);
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Largest finite f16 value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Down-convert from `f32` with round-to-nearest-even.
    ///
    /// *Finite* overflow saturates to ±[`F16::MAX`] (±65504): the streamed
    /// constants this type stores (gauge links, clover entries) are O(1),
    /// so a value past the f16 range is a data bug, and an infinity would
    /// silently poison every accumulation it touches, while a saturated
    /// maximum keeps the result finite and the error bounded. True ±∞
    /// still maps to ±∞ and NaN payloads are canonicalized, so the
    /// non-finite checks in `is_nan`/`is_infinite` keep working.
    ///
    /// One value at a time this stays in software even where the target has
    /// F16C: a loop over it auto-vectorizes (1.3 Gelem/s measured on the
    /// AVX-512 host), which a one-lane `VCVTPS2PH` per element cannot
    /// (0.65 Gelem/s). Callers with a register's worth of values use
    /// [`f32_to_f16_lanes`], which does run on the hardware converter.
    #[inline]
    pub fn from_f32(x: f32) -> F16 {
        Self::from_f32_soft(x)
    }

    /// [`Self::from_f32`] in portable integer arithmetic.
    pub fn from_f32_soft(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if mant == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00) // canonical quiet NaN
            };
        }

        // Unbiased exponent; f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Finite but too large: saturate to the largest finite value.
            return F16(sign | 0x7BFF);
        }
        if unbiased >= -14 {
            // Normal range for f16.
            let half_exp = (unbiased + 15) as u16;
            // Keep the top 10 mantissa bits, round-to-nearest-even on the rest.
            let mant10 = (mant >> 13) as u16;
            let rest = mant & 0x1FFF;
            let mut out = sign | (half_exp << 10) | mant10;
            // Round: rest > half, or exactly half and LSB set.
            if rest > 0x1000 || (rest == 0x1000 && (mant10 & 1) != 0) {
                out += 1; // may carry into the exponent — correct within the
                          // finite range (rounds up to the next binade)
            }
            if out & 0x7FFF == 0x7C00 {
                // The carry crossed into the infinity encoding: the value
                // rounded past 65504 — saturate instead.
                return F16(sign | 0x7BFF);
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal f16 range: effective mantissa with implicit 1.
            let full = mant | 0x0080_0000;
            let shift = (-14 - unbiased + 13) as u32; // bits to discard
            let mant10 = (full >> shift) as u16;
            let rest_mask = (1u32 << shift) - 1;
            let rest = full & rest_mask;
            let half = 1u32 << (shift - 1);
            let mut out = sign | mant10;
            if rest > half || (rest == half && (mant10 & 1) != 0) {
                out += 1;
            }
            return F16(out);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Up-convert to `f32` (exact — every f16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_to_f32_lanes(&[self])[0]
    }

    /// [`Self::to_f32`] in portable integer arithmetic.
    pub fn to_f32_soft(self) -> f32 {
        let bits = self.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1F;
        let mant = bits & 0x03FF;

        let out = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize.
                let lead = mant.leading_zeros() - 22; // zeros within the 10-bit field
                let mant_norm = (mant << (lead + 1)) & 0x03FF;
                let exp_f32 = 127 - 15 - lead;
                sign | (exp_f32 << 23) | (mant_norm << 13)
            }
        } else if exp == 0x1F {
            if mant == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (mant << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(out)
    }

    /// Convenience: round-trip a value through f16 precision.
    #[inline]
    pub fn round_f32(x: f32) -> f32 {
        F16::from_f32(x).to_f32()
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

/// `VCVTPS2PH` / `VCVTPH2PS` on groups of eight lanes. All `unsafe` of the
/// half conversions lives in these two wrappers.
#[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
mod f16c {
    use std::arch::x86_64::{
        __m128i, __m256, _mm256_cvtph_ps, _mm256_cvtps_ph, _MM_FROUND_TO_NEAREST_INT,
    };
    use std::mem::transmute;

    /// Round eight floats to half, nearest-even. Overflow goes to ±∞ and
    /// NaN payloads are kept: the caller clamps and canonicalizes.
    #[inline(always)]
    pub fn down8(x: [f32; 8]) -> [u16; 8] {
        // SAFETY: `cfg(target_feature = "f16c")` on this module means every
        // CPU the binary may run on has F16C (and the AVX it implies). The
        // transmutes are between plain-data types of equal size (32 and 16
        // bytes) in which every bit pattern is valid.
        unsafe {
            let v = transmute::<[f32; 8], __m256>(x);
            transmute::<__m128i, [u16; 8]>(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v))
        }
    }

    /// Widen eight halves to float (exact).
    #[inline(always)]
    pub fn up8(h: [u16; 8]) -> [f32; 8] {
        // SAFETY: as in `down8`.
        unsafe { transmute::<__m256, [f32; 8]>(_mm256_cvtph_ps(transmute::<[u16; 8], __m128i>(h))) }
    }
}

/// `group` over `src` eight lanes at a time; a short tail is padded with
/// `pad` to a full group and the surplus results dropped.
#[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
#[inline(always)]
fn in_groups_of_8<A: Copy, B: Copy, const N: usize>(
    src: &[A; N],
    (pad, zero): (A, B),
    group: impl Fn([A; 8]) -> [B; 8],
) -> [B; N] {
    let mut out = [zero; N];
    for g in (0..N).step_by(8) {
        let y = group(std::array::from_fn(|j| if g + j < N { src[g + j] } else { pad }));
        let len = (N - g).min(8);
        out[g..g + len].copy_from_slice(&y[..len]);
    }
    out
}

/// Down-convert `N` lanes at once: [`F16::from_f32`] per lane, on the
/// hardware converter where the target has one.
#[inline(always)]
pub fn f32_to_f16_lanes<const N: usize>(src: &[f32; N]) -> [F16; N] {
    #[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
    {
        // `VCVTPS2PH` alone rounds finite overflow to ±∞ and keeps NaN
        // payloads: clamp first (infinities and NaN fail the comparison and
        // pass through) and canonicalize the quiet NaN afterwards, as
        // `from_f32_soft` does.
        let saturate = |x: f32| if x.abs() <= f32::MAX { x.clamp(-65504.0, 65504.0) } else { x };
        let canonical = |h: u16| if h & 0x7FFF > 0x7C00 { (h & 0x8000) | 0x7E00 } else { h };
        in_groups_of_8(src, (0.0, F16::ZERO), |x| {
            f16c::down8(x.map(saturate)).map(|h| F16(canonical(h)))
        })
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "f16c")))]
    {
        src.map(F16::from_f32_soft)
    }
}

/// Up-convert `N` lanes at once: [`F16::to_f32`] per lane.
#[inline(always)]
pub fn f16_to_f32_lanes<const N: usize>(src: &[F16; N]) -> [f32; N] {
    #[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
    {
        in_groups_of_8(src, (F16::ZERO, 0.0), |h| f16c::up8(h.map(|h| h.0)))
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "f16c")))]
    {
        src.map(F16::to_f32_soft)
    }
}

/// A complex number stored as two packed `F16` values.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
#[repr(C)]
pub struct CF16 {
    pub re: F16,
    pub im: F16,
}

impl CF16 {
    #[inline]
    pub fn from_c32(z: Complex<f32>) -> Self {
        Self { re: F16::from_f32(z.re), im: F16::from_f32(z.im) }
    }

    #[inline]
    pub fn to_c32(self) -> Complex<f32> {
        Complex::new(self.re.to_f32(), self.im.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3C00);
        assert_eq!(F16::from_f32(-2.0).0, 0xC000);
        assert_eq!(F16::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2E66); // nearest f16 to 0.1
    }

    #[test]
    fn overflow_saturates_to_max_finite() {
        // Finite inputs past the f16 range clamp to ±65504 instead of
        // producing an infinity that would poison downstream accumulation.
        assert_eq!(F16::from_f32(65520.0).0, 0x7BFF); // would round up past MAX
        assert_eq!(F16::from_f32(65536.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(1e10).0, 0x7BFF);
        assert_eq!(F16::from_f32(-1e10).0, 0xFBFF);
        assert_eq!(F16::from_f32(f32::MAX).0, 0x7BFF);
        assert_eq!(F16::from_f32(-f32::MAX).0, 0xFBFF);
        assert_eq!(F16::from_f32(1e10).to_f32(), 65504.0);
        assert!(!F16::from_f32(1e10).is_infinite());
        // Values that round *down* to MAX keep doing so.
        assert_eq!(F16::from_f32(65519.0).0, 0x7BFF);
        // True infinities still convert to infinities.
        assert_eq!(F16::from_f32(f32::INFINITY).0, 0x7C00);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).0, 0xFC00);
    }

    #[test]
    fn underflow_and_subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 0x0001);
        assert_eq!(F16(0x0001).to_f32(), tiny);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(F16::from_f32(tiny / 4.0).0, 0x0000);
        // Largest subnormal.
        let lsub = 2.0_f32.powi(-14) - 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(lsub).0, 0x03FF);
        assert_eq!(F16(0x03FF).to_f32(), lsub);
    }

    #[test]
    fn nan_propagates() {
        let n = F16::from_f32(f32::NAN);
        assert!(n.is_nan());
        assert!(n.to_f32().is_nan());
    }

    #[test]
    fn infinity_roundtrip() {
        assert_eq!(F16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even → 1.0.
        let x = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(x).0, F16::from_f32(1.0).0);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even → 1+2^-9.
        let x = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(x).0, 0x3C02);
        // Slightly above the tie rounds up.
        let x = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-18);
        assert_eq!(F16::from_f32(x).0, 0x3C01);
    }

    #[test]
    fn exhaustive_roundtrip_all_finite_f16() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0..=0xFFFFu16 {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let f = h.to_f32();
            let back = F16::from_f32(f);
            assert_eq!(back.0, bits, "bits {bits:#06x} -> {f} -> {:#06x}", back.0);
        }
    }

    #[test]
    fn relative_error_bound_normals() {
        // For values in the normal f16 range the relative round-trip error
        // is at most 2^-11.
        let mut x = 6.1e-5_f32;
        while x < 6.0e4 {
            let r = F16::round_f32(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 2.0_f32.powi(-11), "x={x} r={r} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn complex_f16() {
        let z = Complex::new(0.25f32, -3.5);
        let packed = CF16::from_c32(z);
        assert_eq!(packed.to_c32(), z); // exactly representable
    }

    /// Slow, obviously-correct reference conversion built on `f64`
    /// round-ties-even: the f16 grid at exponent `e` is `m * 2^(e-10)`
    /// with `m ∈ [0, 2048)`, and `a * 2^(10-e)` is exact in f64 (pure
    /// power-of-two scaling), so `round_ties_even` yields the IEEE-754
    /// correctly rounded significand directly.
    fn reference_from_f32(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        if x.is_nan() {
            return sign | 0x7E00;
        }
        if x.is_infinite() {
            return sign | 0x7C00;
        }
        let a = x.abs() as f64;
        if a == 0.0 {
            return sign;
        }
        let exp = ((bits >> 23) & 0xFF) as i32 - 127; // f32 subnormals give -127
        let mut e = exp.max(-14);
        let mut m = (a * 2f64.powi(10 - e)).round_ties_even();
        if m >= 2048.0 {
            m /= 2.0; // carry into the next binade (m becomes 1024)
            e += 1;
        }
        if e > 15 {
            return sign | 0x7BFF; // finite overflow saturates to ±MAX
        }
        if m < 1024.0 {
            debug_assert_eq!(e, -14, "subnormal grid only exists at e = -14");
            sign | m as u16
        } else {
            sign | ((((e + 15) as u16) << 10) | (m as u16 - 1024))
        }
    }

    /// Reference up-conversion straight from the encoding definition.
    fn reference_to_f32(h: u16) -> f32 {
        let sign = if h & 0x8000 != 0 { -1.0f64 } else { 1.0 };
        let exp = ((h >> 10) & 0x1F) as i32;
        let mant = (h & 0x03FF) as f64;
        let v = if exp == 0 {
            sign * mant * 2f64.powi(-24)
        } else if exp == 0x1F {
            if mant == 0.0 {
                sign * f64::INFINITY
            } else {
                f64::NAN
            }
        } else {
            sign * (1024.0 + mant) * 2f64.powi(exp - 15 - 10)
        };
        v as f32
    }

    fn next_up(x: f32) -> f32 {
        let b = x.to_bits();
        f32::from_bits(if x >= 0.0 { b + 1 } else { b - 1 })
    }

    fn next_down(x: f32) -> f32 {
        let b = x.to_bits();
        f32::from_bits(if x > 0.0 {
            b - 1
        } else if x == 0.0 {
            0x8000_0001
        } else {
            b + 1
        })
    }

    #[test]
    fn exhaustive_up_conversion_matches_reference() {
        // All 65536 bit patterns: to_f32 must reproduce the encoding
        // definition bit for bit (NaNs compared as NaN-ness).
        for bits in 0..=0xFFFFu16 {
            let got = F16(bits).to_f32();
            let want = reference_to_f32(bits);
            if want.is_nan() {
                assert!(got.is_nan(), "bits {bits:#06x} -> {got} want NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "bits {bits:#06x} -> {got} != {want}");
            }
        }
    }

    #[test]
    fn exhaustive_boundary_rounding_matches_reference() {
        // For every adjacent pair of same-sign finite f16 values, probe the
        // f32 values where the rounding decision lives: both endpoints, the
        // exact midpoint (ties must go to the even significand), one f32
        // ulp to either side of it, and the quarter points. This covers
        // every normal/subnormal boundary, every binade crossing, the
        // zero neighborhood, and the saturation edge at ±MAX.
        for sign in [0u16, 0x8000] {
            for lo_bits in 0..0x7BFFu16 {
                let lo = F16(sign | lo_bits).to_f32();
                let hi = F16(sign | (lo_bits + 1)).to_f32();
                let mid = ((lo as f64 + hi as f64) / 2.0) as f32;
                let quarter = ((3.0 * lo as f64 + hi as f64) / 4.0) as f32;
                let three_q = ((lo as f64 + 3.0 * hi as f64) / 4.0) as f32;
                for probe in [lo, hi, mid, next_up(mid), next_down(mid), quarter, three_q] {
                    assert_eq!(
                        F16::from_f32(probe).0,
                        reference_from_f32(probe),
                        "probe {probe:e} ({:#010x}) between {lo_bits:#06x} and next",
                        probe.to_bits()
                    );
                }
                // Pin the tie rule itself, independently of the reference:
                // the midpoint must land on whichever neighbor is even.
                let even = if lo_bits % 2 == 0 { sign | lo_bits } else { sign | (lo_bits + 1) };
                assert_eq!(F16::from_f32(mid).0, even, "tie at {mid:e} must round to even");
            }
        }
        // The saturation edge: the midpoint between MAX and the next
        // power of two (65504..65536) now stays finite.
        assert_eq!(F16::from_f32(65520.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(next_down(65520.0)).0, 0x7BFF);
        assert_eq!(F16::from_f32(-65520.0).0, 0xFBFF);
    }

    /// The hardware converters against the software oracle, bit for bit:
    /// all 65 536 halves up, and 3·2^24 floats down — every sign, exponent
    /// and upper-15-bit mantissa pattern under three low bytes (0x00 hits
    /// every exact tie, 0x01 / 0xFF its two neighbourhoods), which covers
    /// f32 subnormals, the f16 subnormal range, ±65504 ± 1 ulp, ±∞ and
    /// quiet and signalling NaNs. The scalar up-conversion and the lane
    /// converters (full groups and padded tails) must all agree.
    #[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
    #[test]
    fn hardware_conversion_matches_software_bit_for_bit() {
        for base in (0..=0xFFFFu16).step_by(16) {
            let h: [F16; 16] = std::array::from_fn(|i| F16(base + i as u16));
            let wide = f16_to_f32_lanes(&h);
            for (h, w) in h.iter().zip(wide) {
                assert_eq!(w.to_bits(), h.to_f32_soft().to_bits(), "half {:#06x}", h.0);
                assert_eq!(h.to_f32().to_bits(), w.to_bits());
            }
        }
        let check = |x: [f32; 8]| {
            let want = x.map(F16::from_f32_soft);
            assert_eq!(f32_to_f16_lanes(&x), want, "lanes of {:#010x}", x[0].to_bits());
            // A 3-lane tail goes through the padded group.
            let tail = [x[0], x[1], x[2]];
            assert_eq!(f32_to_f16_lanes(&tail), [want[0], want[1], want[2]]);
        };
        for low in [0x00u32, 0x01, 0xFF] {
            for hi in (0..1u32 << 24).step_by(8) {
                check(std::array::from_fn(|i| f32::from_bits(((hi + i as u32) << 8) | low)));
            }
        }
        let max = 65504.0f32;
        check([
            max,
            next_up(max),
            next_down(max),
            -max,
            next_down(-max),
            next_up(-max),
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFC1_2345), // negative quiet NaN with payload
        ]);
        check([f32::INFINITY, f32::NEG_INFINITY, 65520.0, -65520.0, f32::MAX, f32::MIN, 0.0, -0.0]);
    }

    #[test]
    #[ignore = "dense audit sweep (~1e9 conversions); run with --release -- --ignored"]
    fn dense_sweep_matches_reference() {
        // Every f32 with an exponent anywhere near the f16 range (unbiased
        // -30..=17, plus all f32 subnormals' behavior via the boundary test
        // above), both signs, full mantissa sweep.
        for exp in 97u32..=145 {
            for mant in 0..0x0080_0000u32 {
                for sign in [0u32, 0x8000_0000] {
                    let x = f32::from_bits(sign | (exp << 23) | mant);
                    assert_eq!(
                        F16::from_f32(x).0,
                        reference_from_f32(x),
                        "x = {x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
        }
    }
}
