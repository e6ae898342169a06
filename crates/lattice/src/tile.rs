//! The xy-tile site-fused SIMD layout (paper Sec. III-A, Figs. 2 and 3).
//!
//! Within a domain, SIMD lanes are filled from several sites at once
//! ("site fusing"). Fusing happens in the x and y directions: all sites of
//! one parity in the xy cross-section at fixed (z, t) form one *tile* whose
//! sites occupy the lanes of a vector register. With the paper's 8x4 cross
//! section this gives 16 lanes — exactly one single-precision KNC register.
//!
//! Hopping terms in z and t map tile-to-tile with no lane shuffling.
//! Hopping in x and y needs in-register permutations, and lanes whose
//! neighbor lies outside the domain are either *masked* (block-restricted
//! operator, Fig. 2) or *blended in* from an AOS-packed boundary buffer
//! (full operator, Fig. 3). This module computes those permutation and
//! boundary patterns; the kernels in `qdd-dirac` consume them.
//!
//! A subtlety the paper does not spell out: the map lane → (x, y) depends
//! on the parity of z+t (called the tile *flavor* here), because site
//! parity is (x+y+z+t) mod 2. All patterns are therefore indexed by flavor.

use crate::dims::{Coord, Dims, Dir};
use crate::site::Parity;

/// Site-fused tile layout for one domain shape.
#[derive(Clone, Debug)]
pub struct TileLayout {
    block: Dims,
    half_x: usize,
    lanes: usize,
}

impl TileLayout {
    pub fn new(block: Dims) -> Self {
        let [bx, by, _, _] = block.0;
        assert!(bx % 2 == 0 && by >= 1, "tile layout needs even x extent");
        let lanes = bx * by / 2;
        assert!(lanes >= 1);
        Self { block, half_x: bx / 2, lanes }
    }

    #[inline]
    pub fn block(&self) -> &Dims {
        &self.block
    }

    /// Number of SIMD lanes = sites of one parity in the xy cross-section
    /// (16 for the paper's 8x4).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of tiles per parity = bz * bt.
    #[inline]
    pub fn tiles_per_parity(&self) -> usize {
        self.block.0[2] * self.block.0[3]
    }

    /// Tile index for a (z, t) slice.
    #[inline]
    pub fn tile_of(&self, z: usize, t: usize) -> usize {
        z + self.block.0[2] * t
    }

    /// Inverse of [`Self::tile_of`].
    #[inline]
    pub fn tile_coords(&self, tile: usize) -> (usize, usize) {
        (tile % self.block.0[2], tile / self.block.0[2])
    }

    /// Flavor of a tile: parity of z + t.
    #[inline]
    pub fn flavor(&self, tile: usize) -> usize {
        let (z, t) = self.tile_coords(tile);
        (z + t) % 2
    }

    /// The (x, y) of a lane in a tile of the given flavor and site parity.
    #[inline]
    pub fn lane_site(&self, flavor: usize, parity: Parity, lane: usize) -> (usize, usize) {
        debug_assert!(lane < self.lanes);
        let y = lane / self.half_x;
        let k = lane % self.half_x;
        let x0 = (y + flavor + parity.index()) % 2;
        (2 * k + x0, y)
    }

    /// The (parity, lane) of an (x, y) position for the given flavor.
    #[inline]
    pub fn site_lane(&self, flavor: usize, x: usize, y: usize) -> (Parity, usize) {
        debug_assert!(x < self.block.0[0] && y < self.block.0[1]);
        let parity = if (x + y + flavor).is_multiple_of(2) { Parity::Even } else { Parity::Odd };
        (parity, x / 2 + self.half_x * y)
    }

    /// Full location of a local in-domain coordinate: (parity, tile, lane).
    #[inline]
    pub fn locate(&self, c: &Coord) -> (Parity, usize, usize) {
        let tile = self.tile_of(c.0[2], c.0[3]);
        let flavor = self.flavor(tile);
        let (p, lane) = self.site_lane(flavor, c.0[0], c.0[1]);
        (p, tile, lane)
    }

    /// Inverse of [`Self::locate`].
    pub fn coord(&self, parity: Parity, tile: usize, lane: usize) -> Coord {
        let (z, t) = self.tile_coords(tile);
        let flavor = (z + t) % 2;
        let (x, y) = self.lane_site(flavor, parity, lane);
        Coord([x, y, z, t])
    }

    /// Number of boundary slots on an x- or y-face per (z, t) slice and
    /// parity: by/2 for x-faces, bx/2 for y-faces.
    pub fn face_slots(&self, dir: Dir) -> usize {
        match dir {
            Dir::X => self.block.0[1] / 2,
            Dir::Y => self.block.0[0] / 2,
            _ => panic!("face_slots is only defined for fused directions"),
        }
    }

    /// SIMD efficiency of the masked x/y hop: fraction of lanes whose
    /// neighbor is internal. The paper quotes 14/16 for x and 12/16 for y
    /// with the 8x4 cross-section.
    pub fn mask_efficiency(&self, dir: Dir) -> f64 {
        let boundary = self.face_slots(dir);
        1.0 - boundary as f64 / self.lanes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteIndexer;

    fn paper_layout() -> TileLayout {
        TileLayout::new(Dims::new(8, 4, 4, 4))
    }

    #[test]
    fn paper_tile_has_16_lanes() {
        let l = paper_layout();
        assert_eq!(l.lanes(), 16);
        assert_eq!(l.tiles_per_parity(), 16);
    }

    #[test]
    fn locate_roundtrip_all_sites() {
        for block in [Dims::new(8, 4, 4, 4), Dims::new(4, 4, 2, 2), Dims::new(6, 2, 2, 4)] {
            let l = TileLayout::new(block);
            let idx = SiteIndexer::new(block);
            let mut seen = vec![false; block.volume()];
            for c in idx.iter() {
                let (p, tile, lane) = l.locate(&c);
                assert_eq!(p, Parity::of(&c));
                let flat = (p.index() * l.tiles_per_parity() + tile) * l.lanes() + lane;
                assert!(!seen[flat], "collision at {c:?}");
                seen[flat] = true;
                assert_eq!(l.coord(p, tile, lane), c);
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn boundary_lane_counts_match_paper() {
        // Paper Sec. III-A: x hops waste 2/16 lanes, y hops 4/16.
        let l = paper_layout();
        assert!((l.mask_efficiency(Dir::X) - 14.0 / 16.0).abs() < 1e-15);
        assert!((l.mask_efficiency(Dir::Y) - 12.0 / 16.0).abs() < 1e-15);
    }
}
