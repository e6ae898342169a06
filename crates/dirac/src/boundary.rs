//! Spin-projected halo packing (what crosses rank boundaries).
//!
//! Only half-spinors travel (paper Fig. 3). For the *forward* hop of a
//! receiving site, the sender projects its backward-face spinors with
//! `(1 - gamma_mu)`; the receiver applies its own link. For the *backward*
//! hop, the link belongs to the sender, so the sender ships the fully
//! prepared `U^dag_mu (1 + gamma_mu) psi`. Global-boundary fermion phases
//! are applied at pack time (the receiver cannot know whether the message
//! wrapped).

use crate::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_field::halo::{face_index, FaceBuffer, HaloData};
use qdd_field::spinor::HalfSpinor;
use qdd_lattice::{Dir, SiteIndexer};
use qdd_util::complex::Real;

/// Pack the face a *forward* neighbor needs for its sites' forward hops:
/// our backward face (coord = 0 in `dir`), projected with `(1 - gamma)`.
///
/// `sign` is the fermion boundary phase to fold in (`1.0` when the message
/// does not cross the global boundary).
pub fn pack_for_forward_hop<T: Real>(
    op: &WilsonClover<T>,
    inp: &SpinorField<T>,
    dir: Dir,
    sign: f64,
) -> FaceBuffer<T> {
    let dims = *op.dims();
    let idx = SiteIndexer::new(dims);
    let gamma = &op.basis().gamma[dir.index()];
    let mut buf = FaceBuffer::zeros(dims.face_area(dir));
    let s = T::from_f64(sign);
    for c in idx.iter().filter(|c| c[dir] == 0) {
        let h = gamma.project(false, inp.site(idx.index(&c)));
        buf.data[face_index(&dims, dir, &c)] = h.scale(s);
    }
    buf
}

/// Pack the face a *backward* neighbor needs for its sites' backward hops:
/// our forward face (coord = L-1), projected with `(1 + gamma)` and
/// multiplied by the adjoint link (which lives on our side).
pub fn pack_for_backward_hop<T: Real>(
    op: &WilsonClover<T>,
    inp: &SpinorField<T>,
    dir: Dir,
    sign: f64,
) -> FaceBuffer<T> {
    let dims = *op.dims();
    let idx = SiteIndexer::new(dims);
    let gamma = &op.basis().gamma[dir.index()];
    let mut buf = FaceBuffer::zeros(dims.face_area(dir));
    let s = T::from_f64(sign);
    for c in idx.iter().filter(|c| c[dir] == dims[dir] - 1) {
        let site = idx.index(&c);
        let h = gamma.project(true, inp.site(site));
        let u = op.gauge().link(site, dir);
        let h = HalfSpinor([u.adj_mul_vec(h.0[0]), u.adj_mul_vec(h.0[1])]).scale(s);
        buf.data[face_index(&dims, dir, &c)] = h;
    }
    buf
}

/// Pack only the listed backward-face sites for a forward hop, reading
/// the input through `fetch` (the distributed Schwarz sweep reads the
/// shared iterate through a raw pointer). Output order follows `sites`.
///
/// This is the masked-pack primitive: callers with a color- (or half-)
/// masked face pass the precomputed site list and pay exactly one
/// projection per shipped half-spinor — no full-face buffer, no filter
/// pass. Values are bitwise identical to
/// [`pack_for_forward_hop`]-then-filter.
pub fn pack_sites_for_forward_hop_with<T: Real, F: Fn(usize) -> qdd_field::spinor::Spinor<T>>(
    op: &WilsonClover<T>,
    fetch: F,
    dir: Dir,
    sign: f64,
    sites: &[usize],
) -> Vec<HalfSpinor<T>> {
    let gamma = &op.basis().gamma[dir.index()];
    let s = T::from_f64(sign);
    sites.iter().map(|&site| gamma.project(false, &fetch(site)).scale(s)).collect()
}

/// [`pack_sites_for_forward_hop_with`] reading a field directly.
pub fn pack_sites_for_forward_hop<T: Real>(
    op: &WilsonClover<T>,
    inp: &SpinorField<T>,
    dir: Dir,
    sign: f64,
    sites: &[usize],
) -> Vec<HalfSpinor<T>> {
    pack_sites_for_forward_hop_with(op, |i| *inp.site(i), dir, sign, sites)
}

/// Pack only the listed forward-face sites for a backward hop (link
/// applied on our side), reading the input through `fetch`. Output order
/// follows `sites`. Bitwise identical to
/// [`pack_for_backward_hop`]-then-filter.
pub fn pack_sites_for_backward_hop_with<T: Real, F: Fn(usize) -> qdd_field::spinor::Spinor<T>>(
    op: &WilsonClover<T>,
    fetch: F,
    dir: Dir,
    sign: f64,
    sites: &[usize],
) -> Vec<HalfSpinor<T>> {
    let gamma = &op.basis().gamma[dir.index()];
    let s = T::from_f64(sign);
    sites
        .iter()
        .map(|&site| {
            let h = gamma.project(true, &fetch(site));
            let u = op.gauge().link(site, dir);
            HalfSpinor([u.adj_mul_vec(h.0[0]), u.adj_mul_vec(h.0[1])]).scale(s)
        })
        .collect()
}

/// [`pack_sites_for_backward_hop_with`] reading a field directly.
pub fn pack_sites_for_backward_hop<T: Real>(
    op: &WilsonClover<T>,
    inp: &SpinorField<T>,
    dir: Dir,
    sign: f64,
    sites: &[usize],
) -> Vec<HalfSpinor<T>> {
    pack_sites_for_backward_hop_with(op, |i| *inp.site(i), dir, sign, sites)
}

/// Build the halo of a single periodic rank from its own field (the
/// single-node case, and the reference for multi-rank tests). Hops through
/// any face wrap the global lattice, so every face carries the phase.
pub fn self_halo<T: Real>(op: &WilsonClover<T>, inp: &SpinorField<T>) -> HaloData<T> {
    let dims = *op.dims();
    let mut halo = HaloData::zeros(dims);
    for dir in Dir::ALL {
        let sign = op.phases().of(dir);
        // Our forward-face sites hop forward into the neighbor's backward
        // face — which, on a single rank, is our own backward face.
        *halo.face_mut(dir, true) = pack_for_forward_hop(op, inp, dir, sign);
        *halo.face_mut(dir, false) = pack_for_backward_hop(op, inp, dir, sign);
    }
    halo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clover::build_clover_field;
    use crate::gamma::GammaBasis;
    use crate::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;

    fn op(phases: BoundaryPhases) -> WilsonClover<f64> {
        let dims = Dims::new(4, 4, 4, 4);
        let mut rng = Rng64::new(77);
        let g = GaugeField::random(dims, &mut rng, 0.8);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        WilsonClover::new(g, c, 0.1, phases)
    }

    #[test]
    fn self_halo_reproduces_periodic_apply_antiperiodic() {
        // The phase handling must agree between the direct apply (receiver
        // side) and the packed halo (sender side).
        let op = op(BoundaryPhases::antiperiodic_t());
        let dims = *op.dims();
        let mut rng = Rng64::new(78);
        let inp = SpinorField::<f64>::random(dims, &mut rng);
        let halo = self_halo(&op, &inp);
        let mut direct = SpinorField::zeros(dims);
        op.apply(&mut direct, &inp);
        let mut via_halo = SpinorField::zeros(dims);
        op.apply_with_halo(&mut via_halo, &inp, &halo);
        via_halo.sub_assign(&direct);
        assert!(via_halo.norm() < 1e-11 * direct.norm());
    }

    #[test]
    fn face_buffers_have_face_volume() {
        let op = op(BoundaryPhases::periodic());
        let mut rng = Rng64::new(79);
        let inp = SpinorField::<f64>::random(*op.dims(), &mut rng);
        for dir in Dir::ALL {
            let fwd = pack_for_forward_hop(&op, &inp, dir, 1.0);
            let bwd = pack_for_backward_hop(&op, &inp, dir, 1.0);
            assert_eq!(fwd.len(), op.dims().face_area(dir));
            assert_eq!(bwd.len(), op.dims().face_area(dir));
        }
    }

    #[test]
    fn sign_scales_buffers() {
        let op = op(BoundaryPhases::periodic());
        let mut rng = Rng64::new(80);
        let inp = SpinorField::<f64>::random(*op.dims(), &mut rng);
        let plus = pack_for_forward_hop(&op, &inp, Dir::T, 1.0);
        let minus = pack_for_forward_hop(&op, &inp, Dir::T, -1.0);
        for (a, b) in plus.data.iter().zip(&minus.data) {
            let sum = a.add(*b);
            assert!(sum.0[0].norm_sqr() + sum.0[1].norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn masked_pack_matches_full_pack_filter_bitwise() {
        use qdd_field::halo::face_index;
        use qdd_lattice::SiteIndexer;
        let op = op(BoundaryPhases::antiperiodic_t());
        let dims = *op.dims();
        let idx = SiteIndexer::new(dims);
        let mut rng = Rng64::new(81);
        let inp = SpinorField::<f64>::random(dims, &mut rng);
        for dir in Dir::ALL {
            for (fixed, backward_face) in [(0usize, true), (dims[dir] - 1, false)] {
                // Every other face position, in face-index order — the
                // shape of a color mask.
                let mut pairs: Vec<(usize, usize)> = idx
                    .iter()
                    .filter(|c| c[dir] == fixed)
                    .map(|c| (face_index(&dims, dir, &c), idx.index(&c)))
                    .filter(|(k, _)| k % 2 == 0)
                    .collect();
                pairs.sort_unstable();
                let positions: Vec<usize> = pairs.iter().map(|p| p.0).collect();
                let sites: Vec<usize> = pairs.iter().map(|p| p.1).collect();
                let sign = -1.0;
                let (full, masked) = if backward_face {
                    (
                        pack_for_forward_hop(&op, &inp, dir, sign),
                        pack_sites_for_forward_hop(&op, &inp, dir, sign, &sites),
                    )
                } else {
                    (
                        pack_for_backward_hop(&op, &inp, dir, sign),
                        pack_sites_for_backward_hop(&op, &inp, dir, sign, &sites),
                    )
                };
                assert_eq!(masked.len(), positions.len());
                for (h, &k) in masked.iter().zip(&positions) {
                    for v in 0..2 {
                        for c in 0..3 {
                            assert_eq!(h.0[v].0[c].re, full.data[k].0[v].0[c].re);
                            assert_eq!(h.0[v].0[c].im, full.data[k].0[v].0[c].im);
                        }
                    }
                }
            }
        }
    }
}
