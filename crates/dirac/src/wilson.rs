//! The Wilson-Clover operator `A = (Nd + m) - 1/2 Dw + Dcl`.
//!
//! This is the reference (scalar, AOS) implementation used by the outer
//! solver and as ground truth for the fused SIMD kernels. Hopping terms
//! work in projected half-spinor form: project (12 components), SU(3)
//! multiply, reconstruct — 1344 flop/site for `Dw` plus 504 flop/site for
//! the clover + mass diagonal (paper Sec. II-B).

use crate::gamma::GammaBasis;
use qdd_field::fields::{CloverField, GaugeField, SpinorField};
use qdd_field::halo::HaloData;
use qdd_field::spinor::{HalfSpinor, Spinor};
use qdd_lattice::{Dims, Dir, SiteIndexer};
use qdd_util::complex::Real;

/// Flop count of the hopping term per site (8 directions x 168 flops).
pub const DW_FLOPS_PER_SITE: f64 = 1344.0;
/// Flop count of the clover + diagonal term per site.
pub const CLOVER_FLOPS_PER_SITE: f64 = 504.0;
/// Total flop count of one operator application per site.
pub const TOTAL_FLOPS_PER_SITE: f64 = 1848.0;

/// Bit of the hop towards `(dir, forward)` in a hop mask.
#[inline(always)]
pub fn hop_bit(dir: Dir, forward: bool) -> u8 {
    1 << (2 * dir.index() + forward as usize)
}

/// The hop mask selecting all eight hops.
pub const ALL_HOPS: u8 = 0xFF;

/// Fermion boundary phases: the sign picked up by a hopping term that
/// wraps around the global lattice in each direction. Standard QCD choice:
/// antiperiodic in t, periodic in space.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundaryPhases {
    pub sign: [f64; 4],
}

impl BoundaryPhases {
    pub fn periodic() -> Self {
        Self { sign: [1.0; 4] }
    }

    pub fn antiperiodic_t() -> Self {
        Self { sign: [1.0, 1.0, 1.0, -1.0] }
    }

    #[inline]
    pub fn of(&self, dir: Dir) -> f64 {
        self.sign[dir.index()]
    }
}

impl Default for BoundaryPhases {
    fn default() -> Self {
        Self::antiperiodic_t()
    }
}

/// The assembled Wilson-Clover operator over one local lattice.
pub struct WilsonClover<T: Real> {
    dims: Dims,
    mass: T,
    gauge: GaugeField<T>,
    /// Precomputed `(Nd + m) + Dcl` per site (the full local diagonal).
    diag: CloverField<T>,
    /// Raw clover term, kept for the even-odd machinery.
    clover: CloverField<T>,
    basis: GammaBasis,
    indexer: SiteIndexer,
    phases: BoundaryPhases,
}

impl<T: Real> WilsonClover<T> {
    /// Assemble the operator. `clover` must be the bare `Dcl` (as built by
    /// [`crate::clover::build_clover_field`]); the `(Nd + m)` diagonal is
    /// added here.
    pub fn new(
        gauge: GaugeField<T>,
        clover: CloverField<T>,
        mass: T,
        phases: BoundaryPhases,
    ) -> Self {
        let dims = *gauge.dims();
        assert_eq!(dims, *clover.dims(), "gauge and clover lattice mismatch");
        let shift = T::from_f64(4.0) + mass;
        let diag = CloverField::from_fn(dims, |s| clover.site(s).add_diag(shift));
        Self {
            dims,
            mass,
            gauge,
            diag,
            clover,
            basis: GammaBasis::degrand_rossi(),
            indexer: SiteIndexer::new(dims),
            phases,
        }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn mass(&self) -> T {
        self.mass
    }

    #[inline]
    pub fn gauge(&self) -> &GaugeField<T> {
        &self.gauge
    }

    #[inline]
    pub fn clover(&self) -> &CloverField<T> {
        &self.clover
    }

    /// The `(Nd + m) + Dcl` site diagonal.
    #[inline]
    pub fn diag(&self) -> &CloverField<T> {
        &self.diag
    }

    #[inline]
    pub fn basis(&self) -> &GammaBasis {
        &self.basis
    }

    #[inline]
    pub fn phases(&self) -> &BoundaryPhases {
        &self.phases
    }

    #[inline]
    pub fn indexer(&self) -> &SiteIndexer {
        &self.indexer
    }

    /// Total flops for one application on this local volume.
    pub fn apply_flops(&self) -> f64 {
        TOTAL_FLOPS_PER_SITE * self.dims.volume() as f64
    }

    /// Cast the whole operator to another precision (e.g. f64 -> f32 for
    /// the preconditioner).
    pub fn cast<U: Real>(&self) -> WilsonClover<U> {
        WilsonClover {
            dims: self.dims,
            mass: U::from_f64(self.mass.to_f64()),
            gauge: self.gauge.cast(),
            diag: self.diag.cast(),
            clover: self.clover.cast(),
            basis: self.basis.clone(),
            indexer: self.indexer.clone(),
            phases: self.phases,
        }
    }

    /// Forward hopping contribution `-1/2 (1 - gamma_mu) U_mu(x) psi(x+mu)`
    /// for site `x`, given the neighbor spinor and the wrap flag (for
    /// boundary phases).
    #[inline]
    fn hop_accumulate_fwd(
        &self,
        acc: &mut Spinor<T>,
        x_idx: usize,
        dir: Dir,
        neighbor: &Spinor<T>,
        wrapped: bool,
    ) {
        let gamma = &self.basis.gamma[dir.index()];
        let mut h = gamma.project(false, neighbor);
        if wrapped {
            let s = T::from_f64(self.phases.of(dir));
            h = h.scale(s);
        }
        let u = self.gauge.link(x_idx, dir);
        let h = HalfSpinor([u.mul_vec(h.0[0]), u.mul_vec(h.0[1])]);
        let m_half = T::from_f64(-0.5);
        gamma.reconstruct_add(
            false,
            &HalfSpinor([h.0[0].scale(m_half), h.0[1].scale(m_half)]),
            acc,
        );
    }

    /// Backward hop where the link of the backward neighbor is applied.
    #[inline]
    fn hop_accumulate_bwd(
        &self,
        acc: &mut Spinor<T>,
        nbr_idx: usize,
        dir: Dir,
        neighbor: &Spinor<T>,
        wrapped: bool,
    ) {
        let gamma = &self.basis.gamma[dir.index()];
        let mut h = gamma.project(true, neighbor);
        if wrapped {
            let s = T::from_f64(self.phases.of(dir));
            h = h.scale(s);
        }
        let u = self.gauge.link(nbr_idx, dir);
        let h = HalfSpinor([u.adj_mul_vec(h.0[0]), u.adj_mul_vec(h.0[1])]);
        let m_half = T::from_f64(-0.5);
        gamma.reconstruct_add(true, &HalfSpinor([h.0[0].scale(m_half), h.0[1].scale(m_half)]), acc);
    }

    /// Accumulate a pre-packed halo half-spinor.
    ///
    /// For forward hops the halo carries the projected neighbor spinor (the
    /// local link still gets applied here); for backward hops it carries
    /// the fully prepared `U^dag (1+gamma) psi` (the link lives on the
    /// sending rank). Boundary phases are applied by the packer.
    #[inline]
    fn hop_accumulate_halo(
        &self,
        acc: &mut Spinor<T>,
        x_idx: usize,
        dir: Dir,
        forward: bool,
        h: &HalfSpinor<T>,
    ) {
        let gamma = &self.basis.gamma[dir.index()];
        let h = if forward {
            let u = self.gauge.link(x_idx, dir);
            HalfSpinor([u.mul_vec(h.0[0]), u.mul_vec(h.0[1])])
        } else {
            *h
        };
        let m_half = T::from_f64(-0.5);
        gamma.reconstruct_add(
            !forward,
            &HalfSpinor([h.0[0].scale(m_half), h.0[1].scale(m_half)]),
            acc,
        );
    }

    /// `(A psi)(x)` for a single site, with periodic wrap-around (and
    /// boundary phases). This is the building block the Schwarz method
    /// uses to form block-local residuals.
    #[inline]
    pub fn apply_site(&self, site: usize, inp: &SpinorField<T>) -> Spinor<T> {
        self.apply_site_with(site, |i| *inp.site(i))
    }

    /// Like [`Self::apply_site`] but fetching input spinors through a
    /// closure. The thread-parallel Schwarz sweep uses this to read a
    /// shared field through a raw pointer (its writes are provably
    /// disjoint from these reads; see `qdd-core::pool`).
    #[inline]
    pub fn apply_site_with<F: Fn(usize) -> Spinor<T>>(&self, site: usize, fetch: F) -> Spinor<T> {
        let idx = &self.indexer;
        let x = idx.coord(site);
        // Diagonal: (4 + m) + Dcl.
        let center = fetch(site);
        let mut acc = self.diag.site(site).apply(&center);
        for dir in Dir::ALL {
            let (fwd_idx, fwd_wrap) = idx.neighbor_index(&x, dir, true);
            self.hop_accumulate_fwd(&mut acc, site, dir, &fetch(fwd_idx), fwd_wrap);
            let (bwd_idx, bwd_wrap) = idx.neighbor_index(&x, dir, false);
            self.hop_accumulate_bwd(&mut acc, bwd_idx, dir, &fetch(bwd_idx), bwd_wrap);
        }
        acc
    }

    /// `(A psi)(x)` for a single site where boundary-crossing hops read
    /// from the halo.
    #[inline]
    pub fn apply_site_with_halo(
        &self,
        site: usize,
        inp: &SpinorField<T>,
        halo: &HaloData<T>,
    ) -> Spinor<T> {
        let idx = &self.indexer;
        let x = idx.coord(site);
        let mut acc = self.diag.site(site).apply(inp.site(site));
        for dir in Dir::ALL {
            let (fwd_idx, fwd_wrap) = idx.neighbor_index(&x, dir, true);
            if fwd_wrap {
                self.hop_accumulate_halo(&mut acc, site, dir, true, halo.at(dir, true, &x));
            } else {
                self.hop_accumulate_fwd(&mut acc, site, dir, inp.site(fwd_idx), false);
            }
            let (bwd_idx, bwd_wrap) = idx.neighbor_index(&x, dir, false);
            if bwd_wrap {
                self.hop_accumulate_halo(&mut acc, site, dir, false, halo.at(dir, false, &x));
            } else {
                self.hop_accumulate_bwd(&mut acc, bwd_idx, dir, inp.site(bwd_idx), false);
            }
        }
        acc
    }

    /// Like [`Self::apply_site_with_halo`] but fetching local spinors
    /// through a closure (the distributed Schwarz sweep reads the shared
    /// iterate through a raw pointer and rank-boundary data from the halo).
    #[inline]
    pub fn apply_site_with_halo_fetch<F: Fn(usize) -> Spinor<T>>(
        &self,
        site: usize,
        fetch: F,
        halo: &HaloData<T>,
    ) -> Spinor<T> {
        let idx = &self.indexer;
        let x = idx.coord(site);
        let center = fetch(site);
        let mut acc = self.diag.site(site).apply(&center);
        for dir in Dir::ALL {
            let (fwd_idx, fwd_wrap) = idx.neighbor_index(&x, dir, true);
            if fwd_wrap {
                self.hop_accumulate_halo(&mut acc, site, dir, true, halo.at(dir, true, &x));
            } else {
                self.hop_accumulate_fwd(&mut acc, site, dir, &fetch(fwd_idx), false);
            }
            let (bwd_idx, bwd_wrap) = idx.neighbor_index(&x, dir, false);
            if bwd_wrap {
                self.hop_accumulate_halo(&mut acc, site, dir, false, halo.at(dir, false, &x));
            } else {
                self.hop_accumulate_bwd(&mut acc, bwd_idx, dir, &fetch(bwd_idx), false);
            }
        }
        acc
    }

    /// Like [`Self::apply_site_with_halo_fetch`] but aware of which
    /// directions actually cross a rank boundary: wrap-around hops in
    /// *unsplit* directions read the local field directly (the periodic
    /// single-rank code path, boundary phase applied here), so the halo is
    /// only consulted — and only needs to be filled — for split
    /// directions. This is what lets the exchange skip self-loop channels
    /// entirely.
    ///
    /// Bitwise identical to routing every wrap through a self-packed halo:
    /// the packer folds the boundary phase in before the link multiply
    /// while this path scales after projection, and the two orders agree
    /// exactly because fermion boundary phases are ±1 (negation commutes
    /// bitwise with the link multiply).
    #[inline]
    pub fn apply_site_with_halo_fetch_split<F: Fn(usize) -> Spinor<T>>(
        &self,
        site: usize,
        fetch: F,
        halo: &HaloData<T>,
        split: [bool; 4],
    ) -> Spinor<T> {
        let mut acc = self.diag.site(site).apply(&fetch(site));
        self.accumulate_hops(&mut acc, site, ALL_HOPS, &fetch, halo, split);
        acc
    }

    /// The hops of `(A psi)(site)` selected by `hops` (see [`hop_bit`]),
    /// without the site diagonal — neighbors, halo and boundary phases read
    /// exactly as in [`Self::apply_site_with_halo_fetch_split`]. The fused
    /// Schwarz block update calls this with the hops that leave the
    /// domain: `A u = D_b u_b + (exterior hops)` on the domain's sites.
    #[inline]
    pub fn hops_with_halo_fetch_split<F: Fn(usize) -> Spinor<T>>(
        &self,
        site: usize,
        hops: u8,
        fetch: F,
        halo: &HaloData<T>,
        split: [bool; 4],
    ) -> Spinor<T> {
        let mut acc = Spinor::ZERO;
        self.accumulate_hops(&mut acc, site, hops, &fetch, halo, split);
        acc
    }

    #[inline(always)]
    fn accumulate_hops<F: Fn(usize) -> Spinor<T>>(
        &self,
        acc: &mut Spinor<T>,
        site: usize,
        hops: u8,
        fetch: &F,
        halo: &HaloData<T>,
        split: [bool; 4],
    ) {
        let idx = &self.indexer;
        let x = idx.coord(site);
        for dir in Dir::ALL {
            if hops & hop_bit(dir, true) != 0 {
                let (fwd_idx, fwd_wrap) = idx.neighbor_index(&x, dir, true);
                if fwd_wrap && split[dir.index()] {
                    self.hop_accumulate_halo(acc, site, dir, true, halo.at(dir, true, &x));
                } else {
                    self.hop_accumulate_fwd(acc, site, dir, &fetch(fwd_idx), fwd_wrap);
                }
            }
            if hops & hop_bit(dir, false) != 0 {
                let (bwd_idx, bwd_wrap) = idx.neighbor_index(&x, dir, false);
                if bwd_wrap && split[dir.index()] {
                    self.hop_accumulate_halo(acc, site, dir, false, halo.at(dir, false, &x));
                } else {
                    self.hop_accumulate_bwd(acc, bwd_idx, dir, &fetch(bwd_idx), bwd_wrap);
                }
            }
        }
    }

    /// Apply the full operator on a single rank (periodic wrap-around with
    /// boundary phases).
    pub fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>) {
        assert_eq!(*inp.dims(), self.dims);
        assert_eq!(*out.dims(), self.dims);
        for site in 0..self.dims.volume() {
            *out.site_mut(site) = self.apply_site(site, inp);
        }
    }

    /// Apply with externally provided halo data: hops that cross the local
    /// lattice boundary read from `halo` instead of wrapping around.
    /// This is the multi-node form — `qdd-comm` fills the halo.
    pub fn apply_with_halo(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        halo: &HaloData<T>,
    ) {
        assert_eq!(*inp.dims(), self.dims);
        for site in 0..self.dims.volume() {
            *out.site_mut(site) = self.apply_site_with_halo(site, inp, halo);
        }
    }

    /// Apply with halo data for the *split* directions only: hops that
    /// cross the local boundary in an unsplit direction wrap around
    /// locally (phase applied here), so the exchange never has to fill —
    /// or even allocate meaningfully — those halo faces. See
    /// [`Self::apply_site_with_halo_fetch_split`] for the bitwise
    /// equivalence argument.
    pub fn apply_with_halo_split(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        halo: &HaloData<T>,
        split: [bool; 4],
    ) {
        assert_eq!(*inp.dims(), self.dims);
        for site in 0..self.dims.volume() {
            *out.site_mut(site) =
                self.apply_site_with_halo_fetch_split(site, |i| *inp.site(i), halo, split);
        }
    }

    /// Compute the residual `r = f - A u` in one pass.
    pub fn residual(&self, r: &mut SpinorField<T>, f: &SpinorField<T>, u: &SpinorField<T>) {
        self.apply(r, u);
        for site in 0..self.dims.volume() {
            *r.site_mut(site) = f.site(site).sub(*r.site(site));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clover::build_clover_field;
    use qdd_util::complex::Complex;
    use qdd_util::rng::Rng64;

    fn dims() -> Dims {
        Dims::new(4, 4, 4, 4)
    }

    fn free_op(mass: f64, phases: BoundaryPhases) -> WilsonClover<f64> {
        let g = GaugeField::identity(dims());
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.0, &basis);
        WilsonClover::new(g, c, mass, phases)
    }

    fn random_op(seed: u64, mass: f64, spread: f64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims(), &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.9, &basis);
        WilsonClover::new(g, c, mass, BoundaryPhases::periodic())
    }

    #[test]
    fn constant_field_is_free_eigenvector() {
        // For U = 1, periodic BCs, constant psi: A psi = m psi.
        let op = free_op(0.3, BoundaryPhases::periodic());
        let mut rng = Rng64::new(1);
        let s0 = Spinor::random(&mut rng);
        let inp = SpinorField::from_fn(dims(), |_| s0);
        let mut out = SpinorField::zeros(dims());
        op.apply(&mut out, &inp);
        for site in 0..dims().volume() {
            let d = out.site(site).sub(s0.scale(0.3));
            assert!(d.norm_sqr() < 1e-20, "site {site}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn split_aware_halo_apply_matches_periodic_apply_bitwise() {
        // With nothing split, every wrap hop takes the direct local path:
        // the result must be the plain periodic apply, bit for bit. With
        // everything split (halo from self_halo), it must match too —
        // the ±1-phase commutation argument of the split-aware path.
        for phases in [BoundaryPhases::periodic(), BoundaryPhases::antiperiodic_t()] {
            let op = {
                let mut rng = Rng64::new(91);
                let g = GaugeField::random(dims(), &mut rng, 0.8);
                let basis = GammaBasis::degrand_rossi();
                let c = build_clover_field(&g, 1.4, &basis);
                WilsonClover::new(g, c, 0.15, phases)
            };
            let mut rng = Rng64::new(92);
            let inp = SpinorField::<f64>::random(dims(), &mut rng);
            let mut direct = SpinorField::zeros(dims());
            op.apply(&mut direct, &inp);

            let empty = qdd_field::halo::HaloData::zeros(dims());
            let mut none_split = SpinorField::zeros(dims());
            op.apply_with_halo_split(&mut none_split, &inp, &empty, [false; 4]);
            assert_eq!(none_split.as_slice(), direct.as_slice(), "unsplit path diverged");

            let halo = crate::boundary::self_halo(&op, &inp);
            let mut all_split = SpinorField::zeros(dims());
            op.apply_with_halo_split(&mut all_split, &inp, &halo, [true; 4]);
            assert_eq!(all_split.as_slice(), direct.as_slice(), "split path diverged");

            // Mixed: split in x and t only, halo faces for y/z left zero
            // and never read.
            let mut mixed = SpinorField::zeros(dims());
            let mut partial = qdd_field::halo::HaloData::zeros(dims());
            for dir in [Dir::X, Dir::T] {
                for fwd in [false, true] {
                    *partial.face_mut(dir, fwd) = halo.face(dir, fwd).clone();
                }
            }
            op.apply_with_halo_split(&mut mixed, &inp, &partial, [true, false, false, true]);
            assert_eq!(mixed.as_slice(), direct.as_slice(), "mixed path diverged");
        }
    }

    #[test]
    fn operator_is_linear() {
        let op = random_op(2, 0.1, 0.8);
        let mut rng = Rng64::new(3);
        let a = SpinorField::<f64>::random(dims(), &mut rng);
        let b = SpinorField::<f64>::random(dims(), &mut rng);
        let alpha = Complex::new(0.7, -0.2);
        // A(a + alpha b)
        let mut combo = a.clone();
        combo.axpy(alpha, &b);
        let mut lhs = SpinorField::zeros(dims());
        op.apply(&mut lhs, &combo);
        // A a + alpha A b
        let mut aa = SpinorField::zeros(dims());
        op.apply(&mut aa, &a);
        let mut ab = SpinorField::zeros(dims());
        op.apply(&mut ab, &b);
        aa.axpy(alpha, &ab);
        lhs.sub_assign(&aa);
        assert!(lhs.norm() < 1e-10 * aa.norm().max(1.0));
    }

    #[test]
    fn gamma5_hermiticity() {
        // gamma5 A gamma5 = A^dagger  <=>  <x, g5 A g5 y> = <A x, y>.
        let op = random_op(4, 0.2, 0.9);
        let basis = GammaBasis::degrand_rossi();
        let mut rng = Rng64::new(5);
        let x = SpinorField::<f64>::random(dims(), &mut rng);
        let y = SpinorField::<f64>::random(dims(), &mut rng);

        let g5y = SpinorField::from_fn(dims(), |s| basis.apply_gamma5(y.site(s)));
        let mut ag5y = SpinorField::zeros(dims());
        op.apply(&mut ag5y, &g5y);
        let g5ag5y = SpinorField::from_fn(dims(), |s| basis.apply_gamma5(ag5y.site(s)));

        let mut ax = SpinorField::zeros(dims());
        op.apply(&mut ax, &x);

        let lhs = x.dot(&g5ag5y);
        let rhs = ax.dot(&y);
        assert!((lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0), "lhs={lhs:?} rhs={rhs:?}");
    }

    #[test]
    fn antiperiodic_t_changes_only_wrapping_terms() {
        let op_p = free_op(0.0, BoundaryPhases::periodic());
        let op_a = free_op(0.0, BoundaryPhases::antiperiodic_t());
        let mut rng = Rng64::new(6);
        let inp = SpinorField::<f64>::random(dims(), &mut rng);
        let mut out_p = SpinorField::zeros(dims());
        let mut out_a = SpinorField::zeros(dims());
        op_p.apply(&mut out_p, &inp);
        op_a.apply(&mut out_a, &inp);
        let idx = SiteIndexer::new(dims());
        let lt = dims()[Dir::T];
        for site in 0..dims().volume() {
            let c = idx.coord(site);
            let differs = out_p.site(site).sub(*out_a.site(site)).norm_sqr() > 1e-20;
            let on_t_edge = c[Dir::T] == 0 || c[Dir::T] == lt - 1;
            assert_eq!(differs, on_t_edge, "site {c:?}");
        }
    }

    #[test]
    fn apply_with_self_halo_matches_apply() {
        // Fill the halo from the field itself (periodic) and check equality.
        let op = random_op(7, 0.15, 0.7);
        let mut rng = Rng64::new(8);
        let inp = SpinorField::<f64>::random(dims(), &mut rng);
        let halo = crate::boundary::self_halo(&op, &inp);
        let mut out_direct = SpinorField::zeros(dims());
        op.apply(&mut out_direct, &inp);
        let mut out_halo = SpinorField::zeros(dims());
        op.apply_with_halo(&mut out_halo, &inp, &halo);
        out_halo.sub_assign(&out_direct);
        assert!(out_halo.norm() < 1e-11 * out_direct.norm());
    }

    #[test]
    fn flop_constants() {
        assert_eq!(DW_FLOPS_PER_SITE + CLOVER_FLOPS_PER_SITE, TOTAL_FLOPS_PER_SITE);
        let op = free_op(0.0, BoundaryPhases::periodic());
        assert_eq!(op.apply_flops(), 1848.0 * 256.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let op = random_op(9, 0.25, 0.5);
        let mut rng = Rng64::new(10);
        let u = SpinorField::<f64>::random(dims(), &mut rng);
        let mut f = SpinorField::zeros(dims());
        op.apply(&mut f, &u);
        let mut r = SpinorField::zeros(dims());
        op.residual(&mut r, &f, &u);
        assert!(r.norm() < 1e-12 * f.norm());
    }

    #[test]
    fn cast_preserves_operator_to_f32_accuracy() {
        let op = random_op(11, 0.2, 0.6);
        let op32: WilsonClover<f32> = op.cast();
        let mut rng = Rng64::new(12);
        let inp = SpinorField::<f64>::random(dims(), &mut rng);
        let inp32: SpinorField<f32> = inp.cast();
        let mut out = SpinorField::zeros(dims());
        op.apply(&mut out, &inp);
        let mut out32 = SpinorField::<f32>::zeros(dims());
        op32.apply(&mut out32, &inp32);
        let back: SpinorField<f64> = out32.cast();
        let mut d = out.clone();
        d.sub_assign(&back);
        assert!(d.norm() < 1e-4 * out.norm(), "rel err {}", d.norm() / out.norm());
    }
}
