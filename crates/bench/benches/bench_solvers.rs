//! Criterion bench: end-to-end solver comparison at laptop scale — the
//! measured companion of the paper's headline (DD vs standard solvers).
//! Absolute times are host-dependent; the *ratios* (DD vs BiCGstab vs
//! CGNR) carry the algorithmic content.

use criterion::{criterion_group, criterion_main, Criterion};
use qdd_bench::{test_operator, test_source};
use qdd_core::bicgstab::{bicgstab, BiCgStabConfig};
use qdd_core::dd_solver::{DdSolver, DdSolverConfig};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_core::system::LocalSystem;
use qdd_lattice::Dims;
use qdd_util::stats::SolveStats;
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let dims = Dims::new(8, 8, 4, 8);
    let spread = 0.5;
    let mass = 0.1;
    let f = test_source(dims, 32);

    let dd_cfg = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-8, max_iterations: 200 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 2, 4),
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };
    let solver = DdSolver::new(test_operator(dims, spread, mass, 31), dd_cfg).unwrap();
    let op = test_operator(dims, spread, mass, 31);

    let mut group = c.benchmark_group("solve_to_1e-8_8x8x4x8");
    group.sample_size(10);
    group.bench_function("dd_fgmres_schwarz", |b| {
        b.iter(|| {
            let mut stats = SolveStats::new();
            let (x, out) = solver.solve(black_box(&f), &mut stats);
            assert!(out.converged);
            black_box(x);
        })
    });
    group.bench_function("bicgstab_f64", |b| {
        b.iter(|| {
            let mut stats = SolveStats::new();
            let (x, out) = bicgstab(
                &LocalSystem::new(&op),
                black_box(&f),
                &BiCgStabConfig { tolerance: 1e-8, max_iterations: 10_000 },
                &mut stats,
            );
            assert!(out.converged);
            black_box(x);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers
}
criterion_main!(benches);
