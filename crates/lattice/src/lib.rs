//! 4-D lattice geometry for the domain-decomposition solver.
//!
//! Everything positional lives here: global site indexing with periodic
//! boundaries, even/odd checkerboarding (paper Sec. II-D), decomposition of
//! the volume into Schwarz domains with a two-coloring for the
//! multiplicative method (Sec. III-D), the xy-tile site-fused SIMD layout
//! (Sec. III-A, Figs. 2–3), the load-balance formulas Eqs. (6)–(7), and the
//! uniform / non-uniform multi-node partitionings of Sec. IV-C.

pub mod dims;
pub mod domain;
pub mod load;
pub mod partition;
pub mod site;
pub mod tile;

pub use dims::{Coord, Dims, Dir, DirIndexError};
pub use domain::{Domain, DomainColor, DomainGrid};
pub use load::{core_assignment, load_average, ndomain};
pub use partition::{HaloSpec, NonUniformSplit, RankGrid};
pub use site::{Parity, SiteIndexer};
pub use tile::TileLayout;
