//! SU(3) color algebra: 3-component complex vectors and 3x3 special
//! unitary matrices (the gauge links of Lattice QCD).

use qdd_util::complex::{Complex, Real};
use qdd_util::rng::Rng64;

/// A color vector (3 complex components).
#[derive(Copy, Clone, PartialEq, Debug, Default)]
#[repr(C)]
pub struct C3<T: Real>(pub [Complex<T>; 3]);

impl<T: Real> C3<T> {
    pub const ZERO: Self = C3([Complex::ZERO; 3]);

    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        C3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }

    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        C3([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }

    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        C3([self.0[0].scale(s), self.0[1].scale(s), self.0[2].scale(s)])
    }

    #[inline(always)]
    pub fn cmul(self, s: Complex<T>) -> Self {
        C3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }

    /// Multiply every component by `i`.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        C3([self.0[0].mul_i(), self.0[1].mul_i(), self.0[2].mul_i()])
    }

    /// Multiply every component by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        C3([self.0[0].mul_neg_i(), self.0[1].mul_neg_i(), self.0[2].mul_neg_i()])
    }

    #[inline(always)]
    pub fn neg(self) -> Self {
        C3([-self.0[0], -self.0[1], -self.0[2]])
    }

    /// Hermitian inner product `<self, o>`.
    #[inline(always)]
    pub fn dot(self, o: Self) -> Complex<T> {
        let mut acc = Complex::ZERO;
        for i in 0..3 {
            acc = acc.add_conj_mul(self.0[i], o.0[i]);
        }
        acc
    }

    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.0[0].norm_sqr() + self.0[1].norm_sqr() + self.0[2].norm_sqr()
    }

    pub fn cast<U: Real>(self) -> C3<U> {
        C3([self.0[0].cast(), self.0[1].cast(), self.0[2].cast()])
    }

    /// Gaussian random vector (unit variance per real component).
    pub fn random(rng: &mut Rng64) -> Self {
        C3(std::array::from_fn(|_| {
            Complex::new(T::from_f64(rng.normal()), T::from_f64(rng.normal()))
        }))
    }
}

/// A 3x3 complex matrix, usually an SU(3) gauge link. Row-major.
#[derive(Copy, Clone, PartialEq, Debug)]
#[repr(C)]
pub struct Su3<T: Real>(pub [[Complex<T>; 3]; 3]);

impl<T: Real> Default for Su3<T> {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl<T: Real> Su3<T> {
    pub const ZERO: Self = Su3([[Complex::ZERO; 3]; 3]);
    pub const IDENTITY: Self = {
        let mut m = [[Complex::ZERO; 3]; 3];
        m[0][0] = Complex::ONE;
        m[1][1] = Complex::ONE;
        m[2][2] = Complex::ONE;
        Su3(m)
    };

    /// Matrix-vector product `U v` (the fundamental color rotation).
    #[inline(always)]
    pub fn mul_vec(&self, v: C3<T>) -> C3<T> {
        let mut out = [Complex::ZERO; 3];
        for (i, row) in self.0.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for c in 0..3 {
                acc = acc.add_mul(row[c], v.0[c]);
            }
            out[i] = acc;
        }
        C3(out)
    }

    /// Adjoint matrix-vector product `U^dagger v`.
    #[inline(always)]
    pub fn adj_mul_vec(&self, v: C3<T>) -> C3<T> {
        let mut out = [Complex::ZERO; 3];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (c, row) in self.0.iter().enumerate() {
                acc = acc.add_conj_mul(row[i], v.0[c]);
            }
            *o = acc;
        }
        C3(out)
    }

    /// Matrix product.
    pub fn mul(&self, o: &Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for i in 0..3 {
            for k in 0..3 {
                let a = self.0[i][k];
                for j in 0..3 {
                    out.0[i][j] = out.0[i][j].add_mul(a, o.0[k][j]);
                }
            }
        }
        out
    }

    /// Product with the adjoint of `o`: `self * o^dagger`.
    pub fn mul_adj(&self, o: &Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = Complex::ZERO;
                for k in 0..3 {
                    acc += self.0[i][k] * o.0[j][k].conj();
                }
                out.0[i][j] = acc;
            }
        }
        out
    }

    /// Adjoint product: `self^dagger * o`.
    pub fn adj_mul(&self, o: &Su3<T>) -> Su3<T> {
        let mut out = Su3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = Complex::ZERO;
                for k in 0..3 {
                    acc = acc.add_conj_mul(self.0[k][i], o.0[k][j]);
                }
                out.0[i][j] = acc;
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Su3<T> {
        let mut out = Su3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] = self.0[j][i].conj();
            }
        }
        out
    }

    pub fn add(&self, o: &Su3<T>) -> Su3<T> {
        let mut out = *self;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] += o.0[i][j];
            }
        }
        out
    }

    pub fn sub(&self, o: &Su3<T>) -> Su3<T> {
        let mut out = *self;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] -= o.0[i][j];
            }
        }
        out
    }

    pub fn scale(&self, s: T) -> Su3<T> {
        let mut out = *self;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] = out.0[i][j].scale(s);
            }
        }
        out
    }

    /// Trace.
    pub fn trace(&self) -> Complex<T> {
        self.0[0][0] + self.0[1][1] + self.0[2][2]
    }

    /// Determinant (3x3 Laplace expansion).
    pub fn det(&self) -> Complex<T> {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Deviation from unitarity `|| U U^dagger - 1 ||_max`.
    pub fn unitarity_error(&self) -> f64 {
        let p = self.mul_adj(self);
        let mut err = 0.0f64;
        for i in 0..3 {
            for j in 0..3 {
                let target = if i == j { 1.0 } else { 0.0 };
                let d = (p.0[i][j].re.to_f64() - target).abs().max(p.0[i][j].im.to_f64().abs());
                err = err.max(d);
            }
        }
        err
    }

    /// Project back onto SU(3): Gram-Schmidt the first two rows, set the
    /// third to the conjugate cross product (guarantees det = +1).
    pub fn reunitarize(&self) -> Su3<T> {
        let mut r0 = C3([self.0[0][0], self.0[0][1], self.0[0][2]]);
        let n0 = r0.norm_sqr().sqrt();
        r0 = r0.scale(T::ONE / n0);
        let mut r1 = C3([self.0[1][0], self.0[1][1], self.0[1][2]]);
        let proj = r0.dot(r1);
        for i in 0..3 {
            r1.0[i] -= proj * r0.0[i];
        }
        let n1 = r1.norm_sqr().sqrt();
        r1 = r1.scale(T::ONE / n1);
        // r2 = conj(r0 x r1)
        let cross =
            |a: &C3<T>, b: &C3<T>, i: usize, j: usize| (a.0[i] * b.0[j] - a.0[j] * b.0[i]).conj();
        let r2 = C3([cross(&r0, &r1, 1, 2), cross(&r0, &r1, 2, 0), cross(&r0, &r1, 0, 1)]);
        Su3([[r0.0[0], r0.0[1], r0.0[2]], [r1.0[0], r1.0[1], r1.0[2]], [r2.0[0], r2.0[1], r2.0[2]]])
    }

    /// Random SU(3) element with tunable distance from the identity.
    ///
    /// `spread = 0` returns the identity (free field); `spread ~ 1` gives a
    /// strongly disordered ("hot") link. Internally `U = exp(i spread H)`
    /// with `H` a random traceless Hermitian matrix, computed by a Taylor
    /// series and reunitarized. This is the synthetic substitute for
    /// production gauge configurations (see DESIGN.md).
    pub fn random(rng: &mut Rng64, spread: f64) -> Su3<T> {
        // Random traceless Hermitian H.
        let mut h = [[Complex::<f64>::ZERO; 3]; 3];
        for i in 0..3 {
            h[i][i] = Complex::new(rng.normal(), 0.0);
        }
        let tr = (h[0][0].re + h[1][1].re + h[2][2].re) / 3.0;
        for i in 0..3 {
            h[i][i].re -= tr;
        }
        for i in 0..3 {
            for j in i + 1..3 {
                let z = Complex::new(rng.normal() * 0.5f64.sqrt(), rng.normal() * 0.5f64.sqrt());
                h[i][j] = z;
                h[j][i] = z.conj();
            }
        }
        // X = i * spread * H (anti-Hermitian), U = exp(X) by Taylor.
        let x = Su3::<f64>(std::array::from_fn(|i| {
            std::array::from_fn(|j| h[i][j].mul_i().scale(spread))
        }));
        let mut term = Su3::<f64>::IDENTITY;
        let mut u = Su3::<f64>::IDENTITY;
        for k in 1..=16 {
            term = term.mul(&x).scale(1.0 / k as f64);
            u = u.add(&term);
        }
        let u = u.reunitarize();
        u.cast()
    }

    pub fn cast<U: Real>(&self) -> Su3<U> {
        Su3(std::array::from_fn(|i| std::array::from_fn(|j| self.0[i][j].cast())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_util::complex::C64;

    type M = Su3<f64>;

    fn random_unitary(seed: u64, spread: f64) -> M {
        let mut rng = Rng64::new(seed);
        Su3::random(&mut rng, spread)
    }

    #[test]
    fn identity_properties() {
        let i = M::IDENTITY;
        assert!((i.det() - C64::ONE).abs() < 1e-15);
        assert!((i.trace() - Complex::real(3.0)).abs() < 1e-15);
        assert!(i.unitarity_error() < 1e-15);
    }

    #[test]
    fn random_is_special_unitary() {
        for seed in 0..20 {
            for spread in [0.0, 0.1, 0.5, 1.0, 3.0] {
                let u = random_unitary(seed, spread);
                assert!(u.unitarity_error() < 1e-12, "seed={seed} spread={spread}");
                assert!((u.det() - C64::ONE).abs() < 1e-12, "det error");
            }
        }
    }

    #[test]
    fn zero_spread_is_identity() {
        let u = random_unitary(3, 0.0);
        assert!(u.sub(&M::IDENTITY).0.iter().flatten().all(|z| z.abs() < 1e-14));
    }

    #[test]
    fn spread_controls_distance_from_identity() {
        let mut rng = Rng64::new(7);
        let mut dist = |spread: f64| {
            let mut acc = 0.0;
            for _ in 0..50 {
                let u: M = Su3::random(&mut rng, spread);
                acc += (u.trace().re - 3.0).abs();
            }
            acc / 50.0
        };
        let d_small = dist(0.05);
        let d_large = dist(1.0);
        assert!(d_small < 0.1 * d_large, "small={d_small} large={d_large}");
    }

    #[test]
    fn adj_mul_vec_matches_adjoint() {
        let u = random_unitary(11, 0.8);
        let mut rng = Rng64::new(12);
        let v = C3::<f64>::random(&mut rng);
        let a = u.adj_mul_vec(v);
        let b = u.adjoint().mul_vec(v);
        for i in 0..3 {
            assert!((a.0[i] - b.0[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn unitary_preserves_norm() {
        let u = random_unitary(13, 1.2);
        let mut rng = Rng64::new(14);
        let v = C3::<f64>::random(&mut rng);
        assert!((u.mul_vec(v).norm_sqr() - v.norm_sqr()).abs() < 1e-11);
    }

    #[test]
    fn mul_adj_identities() {
        let u = random_unitary(15, 0.7);
        let w = random_unitary(16, 0.7);
        // (U W)^dagger = W^dagger U^dagger
        let lhs = u.mul(&w).adjoint();
        let rhs = w.adjoint().mul(&u.adjoint());
        assert!(lhs.sub(&rhs).0.iter().flatten().all(|z| z.abs() < 1e-13));
        // U U^dagger = 1
        assert!(u.mul_adj(&u).sub(&M::IDENTITY).0.iter().flatten().all(|z| z.abs() < 1e-12));
        // adj_mul consistency
        let lhs = u.adj_mul(&w);
        let rhs = u.adjoint().mul(&w);
        assert!(lhs.sub(&rhs).0.iter().flatten().all(|z| z.abs() < 1e-13));
    }

    #[test]
    fn dot_linear_in_second_argument() {
        let mut rng = Rng64::new(17);
        let a = C3::<f64>::random(&mut rng);
        let b = C3::<f64>::random(&mut rng);
        let c = C3::<f64>::random(&mut rng);
        let s = Complex::new(0.3, -0.8);
        let lhs = a.dot(b.cmul(s).add(c));
        let rhs = a.dot(b) * s + a.dot(c);
        assert!((lhs - rhs).abs() < 1e-12);
        // Conjugate symmetry.
        assert!((a.dot(b) - b.dot(a).conj()).abs() < 1e-12);
    }

    #[test]
    fn reunitarize_fixes_perturbation() {
        let u = random_unitary(19, 0.9);
        let mut bad = u;
        bad.0[0][0] += Complex::new(1e-3, -2e-3);
        bad.0[2][1] += Complex::new(-1e-3, 1e-3);
        let fixed = bad.reunitarize();
        assert!(fixed.unitarity_error() < 1e-12);
        assert!((fixed.det() - C64::ONE).abs() < 1e-12);
        // Still close to the original.
        assert!(fixed.sub(&u).0.iter().flatten().all(|z| z.abs() < 1e-2));
    }

    #[test]
    fn cast_roundtrip() {
        let u = random_unitary(21, 0.6);
        let f: Su3<f32> = u.cast();
        let back: Su3<f64> = f.cast();
        assert!(back.sub(&u).0.iter().flatten().all(|z| z.abs() < 1e-6));
    }
}
