//! Decomposition of the (local) lattice volume into Schwarz domains.
//!
//! The space-time volume is split into hyper-rectangular blocks (default
//! 8x4x4x4, chosen in the paper so one domain's working set fits a KNC
//! core's 512 kB L2, Sec. III-B). The multiplicative Schwarz method
//! processes the domains in two half-sweeps over a red/black coloring of
//! the *domain grid* (Sec. III-D), so the grid coloring lives here too.

use crate::dims::{Coord, Dims, Dir};
use crate::site::SiteIndexer;

/// Two-coloring of the domain grid for multiplicative Schwarz.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum DomainColor {
    Black = 0,
    White = 1,
}

impl DomainColor {
    pub const ALL: [DomainColor; 2] = [DomainColor::Black, DomainColor::White];

    #[inline]
    pub fn flip(self) -> DomainColor {
        match self {
            DomainColor::Black => DomainColor::White,
            DomainColor::White => DomainColor::Black,
        }
    }
}

/// One Schwarz domain: a block of sites within the local lattice.
#[derive(Copy, Clone, Debug)]
pub struct Domain {
    /// Index of this domain in the grid (lexicographic).
    pub index: usize,
    /// Position in the domain grid.
    pub grid_coord: Coord,
    /// Coordinate of the first (lowest-corner) site in the local lattice.
    pub origin: Coord,
    /// Block extents.
    pub dims: Dims,
    /// Red/black color in the domain grid.
    pub color: DomainColor,
}

impl Domain {
    /// Volume of the domain in sites.
    #[inline]
    pub fn volume(&self) -> usize {
        self.dims.volume()
    }

    /// Convert a local (in-domain) coordinate to a local-lattice coordinate.
    #[inline]
    pub fn to_lattice(&self, local: &Coord) -> Coord {
        Coord([
            self.origin.0[0] + local.0[0],
            self.origin.0[1] + local.0[1],
            self.origin.0[2] + local.0[2],
            self.origin.0[3] + local.0[3],
        ])
    }
}

/// The full decomposition of a lattice into a grid of equal blocks.
#[derive(Clone, Debug)]
pub struct DomainGrid {
    lattice: Dims,
    block: Dims,
    grid: Dims,
    grid_indexer: SiteIndexer,
}

impl DomainGrid {
    /// Decompose `lattice` into blocks of size `block`.
    ///
    /// Panics if the block does not tile the lattice. Blocks must have even
    /// extent in every direction so the in-domain even/odd checkerboard has
    /// equal halves and so that domain corners all carry the same site
    /// parity pattern.
    pub fn new(lattice: Dims, block: Dims) -> Self {
        assert!(lattice.divisible_by(&block), "block {block} does not tile lattice {lattice}");
        assert!(
            block.0.iter().all(|&b| b % 2 == 0),
            "block extents must be even for checkerboarding, got {block}"
        );
        let grid = lattice.grid_over(&block);
        Self { lattice, block, grid, grid_indexer: SiteIndexer::new(grid) }
    }

    #[inline]
    pub fn lattice(&self) -> &Dims {
        &self.lattice
    }

    #[inline]
    pub fn block(&self) -> &Dims {
        &self.block
    }

    /// Number of domains per direction.
    #[inline]
    pub fn grid(&self) -> &Dims {
        &self.grid
    }

    /// Total number of domains.
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.grid.volume()
    }

    /// Color of the domain at a grid coordinate.
    #[inline]
    pub fn color_of(&self, grid_coord: &Coord) -> DomainColor {
        if grid_coord.parity_sum().is_multiple_of(2) {
            DomainColor::Black
        } else {
            DomainColor::White
        }
    }

    /// The domain with the given lexicographic grid index.
    pub fn domain(&self, index: usize) -> Domain {
        let grid_coord = self.grid_indexer.coord(index);
        let origin = Coord([
            grid_coord.0[0] * self.block.0[0],
            grid_coord.0[1] * self.block.0[1],
            grid_coord.0[2] * self.block.0[2],
            grid_coord.0[3] * self.block.0[3],
        ]);
        Domain { index, grid_coord, origin, dims: self.block, color: self.color_of(&grid_coord) }
    }

    /// Iterate over all domains in grid order.
    pub fn domains(&self) -> impl Iterator<Item = Domain> + '_ {
        (0..self.num_domains()).map(move |i| self.domain(i))
    }

    /// Indices of all domains of one color.
    pub fn domains_of_color(&self, color: DomainColor) -> Vec<usize> {
        self.domains().filter(|d| d.color == color).map(|d| d.index).collect()
    }

    /// Which domain a lattice site belongs to, and its in-domain coordinate.
    pub fn locate(&self, site: &Coord) -> (usize, Coord) {
        let gc = Coord([
            site.0[0] / self.block.0[0],
            site.0[1] / self.block.0[1],
            site.0[2] / self.block.0[2],
            site.0[3] / self.block.0[3],
        ]);
        let local = Coord([
            site.0[0] % self.block.0[0],
            site.0[1] % self.block.0[1],
            site.0[2] % self.block.0[2],
            site.0[3] % self.block.0[3],
        ]);
        (self.grid_indexer.index(&gc), local)
    }

    /// Neighboring domain in direction `dir` (periodic in the local
    /// lattice); also reports whether the domain-grid boundary wrapped,
    /// which in the multi-node setting means the neighbor lives on another
    /// rank.
    pub fn neighbor(&self, index: usize, dir: Dir, forward: bool) -> (usize, bool) {
        let gc = self.grid_indexer.coord(index);
        let (ngc, wrapped) = gc.neighbor(&self.grid, dir, forward);
        (self.grid_indexer.index(&ngc), wrapped)
    }

    /// Local coordinates of the sites on a face of a block.
    ///
    /// `forward == true` gives the face at `coord[dir] == extent-1` (whose
    /// hopping terms in +dir cross the domain boundary).
    pub fn face_sites(&self, dir: Dir, forward: bool) -> Vec<Coord> {
        let fixed = if forward { self.block[dir] - 1 } else { 0 };
        let idx = SiteIndexer::new(self.block);
        idx.iter().filter(|c| c[dir] == fixed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_4x() -> DomainGrid {
        DomainGrid::new(Dims::new(16, 8, 8, 8), Dims::new(8, 4, 4, 4))
    }

    #[test]
    fn counts_and_shapes() {
        let g = grid_4x();
        assert_eq!(g.num_domains(), 2 * 2 * 2 * 2);
        assert_eq!(*g.grid(), Dims::new(2, 2, 2, 2));
        for d in g.domains() {
            assert_eq!(d.volume(), 512);
        }
    }

    #[test]
    fn coloring_is_checkerboard() {
        let g = grid_4x();
        let black = g.domains_of_color(DomainColor::Black);
        let white = g.domains_of_color(DomainColor::White);
        assert_eq!(black.len(), 8);
        assert_eq!(white.len(), 8);
        // Neighbors always have opposite colors.
        for d in g.domains() {
            for dir in Dir::ALL {
                let (n, _) = g.neighbor(d.index, dir, true);
                assert_eq!(g.domain(n).color, d.color.flip());
            }
        }
    }

    #[test]
    fn locate_inverts_to_lattice() {
        let g = grid_4x();
        let site = Coord::new(9, 5, 2, 7);
        let (idx, local) = g.locate(&site);
        let d = g.domain(idx);
        assert_eq!(d.to_lattice(&local), site);
        assert_eq!(d.grid_coord, Coord::new(1, 1, 0, 1));
    }

    #[test]
    fn every_site_in_exactly_one_domain() {
        let g = DomainGrid::new(Dims::new(8, 8, 4, 4), Dims::new(4, 4, 2, 2));
        let lat = SiteIndexer::new(*g.lattice());
        let mut counts = vec![0usize; g.num_domains()];
        for c in lat.iter() {
            let (idx, local) = g.locate(&c);
            counts[idx] += 1;
            assert!(local.0.iter().zip(&g.block().0).all(|(a, b)| a < b));
        }
        for c in counts {
            assert_eq!(c, g.block().volume());
        }
    }

    #[test]
    fn face_site_counts() {
        let g = grid_4x();
        assert_eq!(g.face_sites(Dir::X, true).len(), 4 * 4 * 4);
        assert_eq!(g.face_sites(Dir::T, false).len(), 8 * 4 * 4);
        for c in g.face_sites(Dir::Y, true) {
            assert_eq!(c[Dir::Y], 3);
        }
    }

    #[test]
    fn neighbor_wrap_detection() {
        let g = grid_4x();
        // Domain at grid (1, ...) moving +x wraps to grid (0, ...).
        let d = g.domains().find(|d| d.grid_coord == Coord::new(1, 0, 0, 0)).unwrap();
        let (n, wrapped) = g.neighbor(d.index, Dir::X, true);
        assert!(wrapped);
        assert_eq!(g.domain(n).grid_coord, Coord::new(0, 0, 0, 0));
        let (_, wrapped) = g.neighbor(d.index, Dir::X, false);
        assert!(!wrapped);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_block_rejected() {
        DomainGrid::new(Dims::new(9, 4, 4, 4), Dims::new(3, 4, 4, 4));
    }
}
