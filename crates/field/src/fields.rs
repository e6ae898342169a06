//! Whole-lattice field containers and their BLAS-1 operations.
//!
//! Containers are indexed lexicographically (x fastest) consistent with
//! [`qdd_lattice::SiteIndexer`]. The gauge and clover fields exist in a
//! half-precision compressed form ([`GaugeFieldF16`], [`CloverFieldF16`])
//! mirroring the paper's choice to store the *constant* operator data of
//! the preconditioner in f16 while keeping iteration vectors in f32
//! (Sec. III-B).

use crate::clover::{CloverSite, Herm6};
use crate::spinor::Spinor;
use crate::su3::Su3;
use qdd_lattice::{Dims, Dir, SiteIndexer};
use qdd_util::complex::{Complex, Real};
use qdd_util::half::{CF16, F16};
use qdd_util::rng::Rng64;

/// A spinor field over a local lattice.
#[derive(Clone, Debug, PartialEq)]
pub struct SpinorField<T: Real> {
    dims: Dims,
    data: Vec<Spinor<T>>,
}

impl<T: Real> SpinorField<T> {
    pub fn zeros(dims: Dims) -> Self {
        Self { dims, data: vec![Spinor::ZERO; dims.volume()] }
    }

    pub fn random(dims: Dims, rng: &mut Rng64) -> Self {
        Self { dims, data: (0..dims.volume()).map(|_| Spinor::random(rng)).collect() }
    }

    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize) -> Spinor<T>) -> Self {
        Self { dims, data: (0..dims.volume()).map(&mut f).collect() }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn site(&self, idx: usize) -> &Spinor<T> {
        &self.data[idx]
    }

    #[inline]
    pub fn site_mut(&mut self, idx: usize) -> &mut Spinor<T> {
        &mut self.data[idx]
    }

    #[inline]
    pub fn as_slice(&self) -> &[Spinor<T>] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Spinor<T>] {
        &mut self.data
    }

    pub fn indexer(&self) -> SiteIndexer {
        SiteIndexer::new(self.dims)
    }

    /// Set every component to zero.
    pub fn set_zero(&mut self) {
        self.data.fill(Spinor::ZERO);
    }

    pub fn copy_from(&mut self, o: &Self) {
        assert_eq!(self.dims, o.dims);
        self.data.copy_from_slice(&o.data);
    }

    /// Global Hermitian inner product `<self, o>`.
    pub fn dot(&self, o: &Self) -> Complex<T> {
        assert_eq!(self.dims, o.dims);
        let mut acc = Complex::ZERO;
        for (a, b) in self.data.iter().zip(&o.data) {
            acc += a.dot(*b);
        }
        acc
    }

    /// Squared 2-norm.
    pub fn norm_sqr(&self) -> T {
        let mut acc = T::ZERO;
        for a in &self.data {
            acc += a.norm_sqr();
        }
        acc
    }

    pub fn norm(&self) -> T {
        self.norm_sqr().sqrt()
    }

    /// `self += alpha * x`.
    pub fn axpy(&mut self, alpha: Complex<T>, x: &Self) {
        assert_eq!(self.dims, x.dims);
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a = a.add(b.cmul(alpha));
        }
    }

    /// `self = x + alpha * self` (the xpay form used by CG-like updates).
    pub fn xpay(&mut self, x: &Self, alpha: Complex<T>) {
        assert_eq!(self.dims, x.dims);
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a = b.add(a.cmul(alpha));
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: Complex<T>) {
        for a in self.data.iter_mut() {
            *a = a.cmul(s);
        }
    }

    /// `self -= x`.
    pub fn sub_assign(&mut self, x: &Self) {
        assert_eq!(self.dims, x.dims);
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a = a.sub(*b);
        }
    }

    /// Convert the whole field to another precision.
    pub fn cast<U: Real>(&self) -> SpinorField<U> {
        SpinorField { dims: self.dims, data: self.data.iter().map(|s| s.cast()).collect() }
    }

    /// Convert `src` into this field in place (no allocation); geometries
    /// must match.
    pub fn cast_assign<U: Real>(&mut self, src: &SpinorField<U>) {
        assert_eq!(self.dims, *src.dims(), "cast_assign geometry mismatch");
        for (a, b) in self.data.iter_mut().zip(&src.data) {
            *a = b.cast();
        }
    }
}

/// A gauge field: four SU(3) link matrices per site (`U_mu(x)` connecting
/// `x` to `x + mu`).
#[derive(Clone, Debug)]
pub struct GaugeField<T: Real> {
    dims: Dims,
    data: Vec<[Su3<T>; 4]>,
}

impl<T: Real> GaugeField<T> {
    /// Free field: all links are the identity.
    pub fn identity(dims: Dims) -> Self {
        Self { dims, data: vec![[Su3::IDENTITY; 4]; dims.volume()] }
    }

    /// Random field with tunable roughness (see [`Su3::random`]). This is
    /// the synthetic stand-in for production configurations; `spread`
    /// plays the role of the inverse coupling: larger spread = rougher
    /// field = worse-conditioned Dirac operator.
    pub fn random(dims: Dims, rng: &mut Rng64, spread: f64) -> Self {
        Self {
            dims,
            data: (0..dims.volume())
                .map(|_| std::array::from_fn(|_| Su3::random(rng, spread)))
                .collect(),
        }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn link(&self, site: usize, dir: Dir) -> &Su3<T> {
        &self.data[site][dir.index()]
    }

    #[inline]
    pub fn link_mut(&mut self, site: usize, dir: Dir) -> &mut Su3<T> {
        &mut self.data[site][dir.index()]
    }

    pub fn cast<U: Real>(&self) -> GaugeField<U> {
        GaugeField {
            dims: self.dims,
            data: self.data.iter().map(|ls| std::array::from_fn(|d| ls[d].cast())).collect(),
        }
    }

    /// Maximum unitarity violation over all links (sanity diagnostics).
    pub fn max_unitarity_error(&self) -> f64 {
        self.data.iter().flat_map(|ls| ls.iter()).map(|u| u.unitarity_error()).fold(0.0, f64::max)
    }
}

/// A clover field: one [`CloverSite`] per site.
#[derive(Clone, Debug)]
pub struct CloverField<T: Real> {
    dims: Dims,
    data: Vec<CloverSite<T>>,
}

impl<T: Real> CloverField<T> {
    pub fn zeros(dims: Dims) -> Self {
        Self { dims, data: vec![CloverSite::default(); dims.volume()] }
    }

    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize) -> CloverSite<T>) -> Self {
        Self { dims, data: (0..dims.volume()).map(&mut f).collect() }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn site(&self, idx: usize) -> &CloverSite<T> {
        &self.data[idx]
    }

    #[inline]
    pub fn site_mut(&mut self, idx: usize) -> &mut CloverSite<T> {
        &mut self.data[idx]
    }

    pub fn cast<U: Real>(&self) -> CloverField<U> {
        CloverField { dims: self.dims, data: self.data.iter().map(|c| c.cast()).collect() }
    }

    /// Per-site inverse of `clover + s`; `None` if any site is singular.
    pub fn invert_shifted(&self, s: T) -> Option<CloverField<T>> {
        let mut data = Vec::with_capacity(self.data.len());
        for c in &self.data {
            data.push(c.add_diag(s).invert()?);
        }
        Some(CloverField { dims: self.dims, data })
    }
}

/// Half-precision compressed gauge field (18 f16 per link).
///
/// Mirrors the KNC's hardware down/up-conversion path: links are stored in
/// f16 and expanded to f32 at load time, halving the preconditioner's
/// gauge working set from 144 kB to 72 kB per 8x4^3 domain.
#[derive(Clone, Debug)]
pub struct GaugeFieldF16 {
    dims: Dims,
    data: Vec<[[CF16; 9]; 4]>,
}

impl GaugeFieldF16 {
    pub fn compress(g: &GaugeField<f32>) -> Self {
        let data = g
            .data
            .iter()
            .map(|ls| {
                std::array::from_fn(|d| {
                    let u = &ls[d];
                    std::array::from_fn(|k| CF16::from_c32(u.0[k / 3][k % 3]))
                })
            })
            .collect();
        Self { dims: g.dims, data }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// Decompress one link to f32.
    #[inline]
    pub fn link(&self, site: usize, dir: Dir) -> Su3<f32> {
        let packed = &self.data[site][dir.index()];
        Su3(std::array::from_fn(|i| std::array::from_fn(|j| packed[3 * i + j].to_c32())))
    }

    /// Expand the whole field (used by tests; kernels decompress per link).
    pub fn decompress(&self) -> GaugeField<f32> {
        GaugeField {
            dims: self.dims,
            data: (0..self.data.len())
                .map(|s| std::array::from_fn(|d| self.link(s, Dir::from_index(d))))
                .collect(),
        }
    }
}

/// Half-precision compressed clover field (36 f16 per chiral block pair...
/// precisely 6 f16 diagonal + 15 complex f16 off-diagonal per block).
#[derive(Clone, Debug)]
pub struct CloverFieldF16 {
    dims: Dims,
    data: Vec<[([F16; 6], [CF16; 15]); 2]>,
}

impl CloverFieldF16 {
    pub fn compress(c: &CloverField<f32>) -> Self {
        let data = c
            .data
            .iter()
            .map(|site| {
                std::array::from_fn(|b| {
                    let blk = &site.block[b];
                    (
                        std::array::from_fn(|i| F16::from_f32(blk.diag[i])),
                        std::array::from_fn(|k| CF16::from_c32(blk.off[k])),
                    )
                })
            })
            .collect();
        Self { dims: c.dims, data }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn site(&self, idx: usize) -> CloverSite<f32> {
        let packed = &self.data[idx];
        CloverSite {
            block: std::array::from_fn(|b| Herm6 {
                diag: std::array::from_fn(|i| packed[b].0[i].to_f32()),
                off: std::array::from_fn(|k| packed[b].1[k].to_c32()),
            }),
        }
    }

    pub fn decompress(&self) -> CloverField<f32> {
        CloverField { dims: self.dims, data: (0..self.data.len()).map(|i| self.site(i)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_util::complex::C64;

    fn dims() -> Dims {
        Dims::new(4, 4, 2, 2)
    }

    #[test]
    fn blas_ops_consistency() {
        let mut rng = Rng64::new(1);
        let x = SpinorField::<f64>::random(dims(), &mut rng);
        let y = SpinorField::<f64>::random(dims(), &mut rng);
        // <x+y, x+y> = |x|^2 + 2 Re<x,y> + |y|^2
        let mut sum = x.clone();
        sum.axpy(Complex::ONE, &y);
        let lhs = sum.norm_sqr();
        let rhs = x.norm_sqr() + 2.0 * x.dot(&y).re + y.norm_sqr();
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs());
    }

    #[test]
    fn axpy_and_xpay_agree() {
        let mut rng = Rng64::new(2);
        let x = SpinorField::<f64>::random(dims(), &mut rng);
        let y = SpinorField::<f64>::random(dims(), &mut rng);
        let alpha = Complex::new(0.3, -1.7);
        // a = y + alpha x
        let mut a = y.clone();
        a.axpy(alpha, &x);
        // b = y + alpha x via xpay: b = x' with b = y, then xpay(x=y?, ...)
        let mut b = x.clone();
        b.xpay(&y, alpha); // b = y + alpha * x
        for i in 0..a.len() {
            let d = a.site(i).sub(*b.site(i));
            assert!(d.norm_sqr() < 1e-20);
        }
    }

    #[test]
    fn scale_and_norm() {
        let mut rng = Rng64::new(3);
        let mut x = SpinorField::<f64>::random(dims(), &mut rng);
        let n0 = x.norm_sqr();
        x.scale(Complex::new(0.0, 2.0)); // |2i| = 2
        assert!((x.norm_sqr() - 4.0 * n0).abs() < 1e-9 * n0);
    }

    #[test]
    fn dot_is_hermitian_across_fields() {
        let mut rng = Rng64::new(4);
        let x = SpinorField::<f64>::random(dims(), &mut rng);
        let y = SpinorField::<f64>::random(dims(), &mut rng);
        let a: C64 = x.dot(&y);
        let b: C64 = y.dot(&x);
        assert!((a - b.conj()).abs() < 1e-10);
    }

    #[test]
    fn identity_gauge_has_no_unitarity_error() {
        let g = GaugeField::<f64>::identity(dims());
        assert_eq!(g.max_unitarity_error(), 0.0);
    }

    #[test]
    fn random_gauge_is_unitary() {
        let mut rng = Rng64::new(5);
        let g = GaugeField::<f64>::random(dims(), &mut rng, 0.7);
        assert!(g.max_unitarity_error() < 1e-11);
    }

    #[test]
    fn gauge_f16_roundtrip_error_small() {
        let mut rng = Rng64::new(6);
        let g = GaugeField::<f32>::random(dims(), &mut rng, 0.7);
        let packed = GaugeFieldF16::compress(&g);
        let back = packed.decompress();
        let mut max_err = 0.0f32;
        let idx = SiteIndexer::new(*g.dims());
        for s in 0..idx.volume() {
            for d in Dir::ALL {
                let a = g.link(s, d);
                let b = back.link(s, d);
                for i in 0..3 {
                    for j in 0..3 {
                        max_err = max_err.max((a.0[i][j] - b.0[i][j]).abs());
                    }
                }
            }
        }
        // Unitary entries are O(1): absolute error bounded by f16 ulp.
        assert!(max_err < 5e-4, "max_err={max_err}");
        assert!(max_err > 0.0, "compression should not be exact");
        // Links stay approximately unitary.
        assert!(back.max_unitarity_error() < 5e-3);
    }

    #[test]
    fn clover_f16_roundtrip() {
        let d = dims();
        let mut rng = Rng64::new(7);
        let c = CloverField::<f32>::from_fn(d, |_| {
            let mut blk = [Herm6::zero(), Herm6::zero()];
            for b in blk.iter_mut() {
                for i in 0..6 {
                    b.diag[i] = rng.normal() as f32 * 0.1;
                }
                for k in 0..15 {
                    b.off[k] = Complex::new(rng.normal() as f32 * 0.1, rng.normal() as f32 * 0.1);
                }
            }
            CloverSite { block: blk }
        });
        let packed = CloverFieldF16::compress(&c);
        let back = packed.decompress();
        for s in 0..d.volume() {
            for b in 0..2 {
                for i in 0..6 {
                    let err = (c.site(s).block[b].diag[i] - back.site(s).block[b].diag[i]).abs();
                    assert!(err < 1e-3);
                }
            }
        }
    }

    #[test]
    fn invert_shifted_clover_field() {
        let d = dims();
        let c = CloverField::<f64>::zeros(d);
        let inv = c.invert_shifted(4.0).unwrap();
        // (0 + 4)^-1 = 0.25 on the diagonal.
        for s in 0..d.volume() {
            for b in 0..2 {
                for i in 0..6 {
                    assert!((inv.site(s).block[b].diag[i] - 0.25).abs() < 1e-14);
                }
            }
        }
        // Shift zero is singular.
        assert!(c.invert_shifted(0.0).is_none());
    }

    #[test]
    fn cast_field_roundtrip() {
        let mut rng = Rng64::new(8);
        let x = SpinorField::<f64>::random(dims(), &mut rng);
        let low: SpinorField<f32> = x.cast();
        let back: SpinorField<f64> = low.cast();
        let mut diff = x.clone();
        diff.sub_assign(&back);
        assert!(diff.norm() < 1e-6 * x.norm());
    }
}
