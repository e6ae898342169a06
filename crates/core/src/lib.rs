//! The paper's primary contribution: a domain-decomposition (multiplicative
//! Schwarz) preconditioned flexible GMRES solver for the Wilson-Clover
//! operator, plus the standard (non-DD) baseline solvers it is compared
//! against.
//!
//! Solver stack (paper Table I):
//!
//! - outer: flexible GMRES with deflated restarts ([`fgmres_dr`]), double
//!   precision;
//! - preconditioner: multiplicative Schwarz over 8x4x4x4 domains
//!   ([`schwarz`]), single precision (optionally with half-precision gauge
//!   and clover storage);
//! - block solver: minimal residual ([`mr`]) on the even-odd Schur
//!   complement, a fixed small number of iterations per block, run on
//!   site-fused tiles by the one block update ([`block_update`]).
//!
//! Baselines (paper Table III): double-precision BiCGstab
//! ([`bicgstab`]) and a mixed-precision Richardson/BiCGstab solver
//! ([`richardson`]), as in Ref. \[1\]; CGNR ([`cg`]) for completeness.
//!
//! [`pool`] implements the paper's threading model — a fixed worker pool
//! with domains assigned in blocks and a custom barrier between Schwarz
//! half-sweeps (Secs. III-C/III-D) — used by the parallel Schwarz variant.

pub mod bicgstab;
pub mod blas;
pub mod block_update;
pub mod cg;
pub mod dd_solver;
pub mod fgmres_dr;
pub mod gcr;
pub mod mr;
pub mod pool;
pub mod richardson;
pub mod schwarz;
pub mod stage;
pub mod system;

pub use bicgstab::{bicgstab, BiCgStabConfig};
pub use cg::{cgnr, CgConfig};
pub use dd_solver::{DdSolver, DdSolverConfig, Precision};
pub use fgmres_dr::{fgmres_dr, fgmres_dr_with_workspace, Breakdown, FgmresConfig, SolveOutcome};
pub use gcr::{gcr, GcrConfig};
pub use mr::{mr_solve_fused, mr_solve_schur, MrConfig};
pub use pool::{resolve_workers, SharedCells, WorkerPool, WorkspacePool};
pub use richardson::{richardson_bicgstab, RichardsonConfig};
pub use schwarz::{SchwarzConfig, SchwarzPreconditioner};
pub use stage::{ChunkQueue, StageGate};
pub use system::{FusedSystem, LocalSystem, SystemOps};
