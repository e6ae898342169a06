//! Per-site algebra and field containers for Lattice QCD.
//!
//! Quark fields (spinors) carry 12 complex degrees of freedom per site
//! (3 color x 4 spin); gluon fields are SU(3) matrices on the links; the
//! clover term is a pair of Hermitian 6x6 matrices per site stored packed
//! (paper Sec. II-B). This crate provides those site-local types, whole-
//! lattice containers with the BLAS-1 operations the solvers need, halo
//! buffers in the AOS boundary format of Fig. 3, precision-converted
//! storage (f32 / f16) for the preconditioner, and the site-fused SOA tile
//! storage of Sec. III-A.

pub mod clover;
pub mod fields;
pub mod fused;
pub mod halo;
pub mod lanes;
pub mod spinor;
pub mod su3;

pub use clover::{CloverSite, Herm6};
pub use fields::{CloverField, GaugeField, GaugeFieldF16, SpinorField};
pub use fused::{FusedField, VReal};
pub use halo::{FaceBuffer, HaloData};
pub use lanes::LaneMask;
pub use spinor::{HalfSpinor, Spinor};
pub use su3::{Su3, C3};
