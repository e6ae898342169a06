//! Halo (boundary-exchange) buffers.
//!
//! What crosses a boundary is never a full spinor: the Wilson hopping term
//! only needs the spin-projected 12-component half-spinor (paper Fig. 3),
//! optionally with the sender-side gauge link already applied (for
//! backward hops, where the link belongs to the sending site). These
//! containers hold one face worth of half-spinors in AOS order; the
//! projection/packing logic lives in `qdd-dirac`, the transport in
//! `qdd-comm`.

use crate::spinor::HalfSpinor;
use qdd_lattice::{Coord, Dims, Dir};
use qdd_util::complex::Real;

/// Lexicographic index of a site within a face (the `dir` coordinate is
/// dropped; the remaining three run with the usual x-fastest order).
#[inline]
pub fn face_index(dims: &Dims, dir: Dir, c: &Coord) -> usize {
    let mut idx = 0;
    let mut stride = 1;
    for d in Dir::ALL {
        if d == dir {
            continue;
        }
        idx += c[d] * stride;
        stride *= dims[d];
    }
    idx
}

/// Number of sites in a face.
#[inline]
pub fn face_volume(dims: &Dims, dir: Dir) -> usize {
    dims.face_area(dir)
}

/// One face worth of half-spinors.
#[derive(Clone, Debug, PartialEq)]
pub struct FaceBuffer<T: Real> {
    pub data: Vec<HalfSpinor<T>>,
}

impl<T: Real> FaceBuffer<T> {
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![HalfSpinor::ZERO; n] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Message size in bytes (12 complex components per site).
    pub fn bytes(&self) -> usize {
        self.data.len() * HalfSpinor::<T>::REALS * std::mem::size_of::<T>()
    }
}

/// The complete halo of one rank: for each direction and orientation, the
/// half-spinors coming from the neighboring rank.
///
/// `faces[d][0]` holds data arriving from the *backward* neighbor (used by
/// our sites at `coord[d] == 0` for their backward hop); `faces[d][1]` from
/// the *forward* neighbor (for sites at `coord[d] == L_d - 1`).
#[derive(Clone, Debug)]
pub struct HaloData<T: Real> {
    dims: Dims,
    faces: [[FaceBuffer<T>; 2]; 4],
}

impl<T: Real> HaloData<T> {
    pub fn zeros(dims: Dims) -> Self {
        Self::zeros_split(dims, [true; 4])
    }

    /// A halo with faces only where a neighbor rank exists: directions not
    /// in `split` get empty buffers, so a stray read or merge there is an
    /// out-of-bounds panic instead of silently used zeros. With nothing
    /// split (a single rank) this allocates nothing.
    pub fn zeros_split(dims: Dims, split: [bool; 4]) -> Self {
        let faces = std::array::from_fn(|d| {
            let n = if split[d] { face_volume(&dims, Dir::from_index(d)) } else { 0 };
            [FaceBuffer::zeros(n), FaceBuffer::zeros(n)]
        });
        Self { dims, faces }
    }

    #[inline]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    #[inline]
    pub fn face(&self, dir: Dir, forward: bool) -> &FaceBuffer<T> {
        &self.faces[dir.index()][forward as usize]
    }

    #[inline]
    pub fn face_mut(&mut self, dir: Dir, forward: bool) -> &mut FaceBuffer<T> {
        &mut self.faces[dir.index()][forward as usize]
    }

    /// Entry for the boundary site `c` (which must lie on the matching
    /// face of the local lattice).
    #[inline]
    pub fn at(&self, dir: Dir, forward: bool, c: &Coord) -> &HalfSpinor<T> {
        debug_assert_eq!(c[dir], if forward { self.dims[dir] - 1 } else { 0 });
        &self.face(dir, forward).data[face_index(&self.dims, dir, c)]
    }

    #[inline]
    pub fn at_mut(&mut self, dir: Dir, forward: bool, c: &Coord) -> &mut HalfSpinor<T> {
        debug_assert_eq!(c[dir], if forward { self.dims[dir] - 1 } else { 0 });
        let idx = face_index(&self.dims, dir, c);
        &mut self.face_mut(dir, forward).data[idx]
    }

    /// Total bytes across all faces (one full exchange).
    pub fn total_bytes(&self) -> usize {
        self.faces.iter().flatten().map(|f| f.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_lattice::SiteIndexer;

    #[test]
    fn face_index_is_a_bijection() {
        let dims = Dims::new(4, 6, 2, 8);
        for dir in Dir::ALL {
            let idx = SiteIndexer::new(dims);
            let mut seen = vec![false; face_volume(&dims, dir)];
            for c in idx.iter().filter(|c| c[dir] == 0) {
                let k = face_index(&dims, dir, &c);
                assert!(!seen[k], "collision at {c:?} dir {dir}");
                seen[k] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn face_index_ignores_dir_coordinate() {
        let dims = Dims::new(4, 4, 4, 4);
        let a = Coord::new(0, 1, 2, 3);
        let b = Coord::new(3, 1, 2, 3);
        assert_eq!(face_index(&dims, Dir::X, &a), face_index(&dims, Dir::X, &b));
    }

    #[test]
    fn halo_sizes_and_bytes() {
        let dims = Dims::new(4, 4, 2, 6);
        let halo = HaloData::<f32>::zeros(dims);
        assert_eq!(halo.face(Dir::X, true).len(), 4 * 2 * 6);
        assert_eq!(halo.face(Dir::T, false).len(), 4 * 4 * 2);
        // 12 real (6 complex) f32 components per site = 48 bytes.
        assert_eq!(halo.face(Dir::X, true).bytes(), 48 * 48);
        let expect_total: usize = Dir::ALL.iter().map(|&d| 2 * face_volume(&dims, d) * 48).sum();
        assert_eq!(halo.total_bytes(), expect_total);
    }

    #[test]
    fn halo_read_write_roundtrip() {
        let dims = Dims::new(4, 4, 4, 4);
        let mut halo = HaloData::<f64>::zeros(dims);
        let c = Coord::new(3, 1, 2, 0);
        let mut h = HalfSpinor::ZERO;
        h.0[0].0[1] = qdd_util::complex::Complex::new(2.5, -1.0);
        *halo.at_mut(Dir::X, true, &c) = h;
        assert_eq!(*halo.at(Dir::X, true, &c), h);
        // A different site on the same face is untouched.
        let c2 = Coord::new(3, 2, 2, 0);
        assert_eq!(*halo.at(Dir::X, true, &c2), HalfSpinor::ZERO);
    }
}
