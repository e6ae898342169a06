//! The repository's end-to-end + per-layer benchmark. See README.md.

pub mod cli;
pub mod host;
pub mod kernels;
pub mod layers;
pub mod report;
pub mod spans;
pub mod spec;
pub mod workloads;
