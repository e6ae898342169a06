//! Criterion bench: the MR block solve (Table II left column, as a real
//! measured kernel) — the scalar AoS oracle beside the site-fused solver
//! the Schwarz sweep runs, on the benchmark's 4^4 block and the paper's
//! 8x4^3, f32, with and without f16 iteration vectors; Idomain = 5 — and
//! the three fused kernels a Schur application is made of (`hop`,
//! `apply_diag`, `apply_schur`), so a kernel that falls off the vector
//! path shows up in the row it falls off in.

use criterion::{criterion_group, criterion_main, Criterion};
use qdd_bench::test_operator;
use qdd_core::mr::{mr_solve_fused, mr_solve_schur, MrConfig};
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_dirac::fused::{fused_from_cb, FusedClover, FusedGauge, FusedKernel, FusedSchur};
use qdd_dirac::wilson::{CLOVER_FLOPS_PER_SITE, DW_FLOPS_PER_SITE, TOTAL_FLOPS_PER_SITE};
use qdd_field::fused::FusedField;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, DomainGrid, Parity};
use qdd_util::rng::Rng64;
use std::hint::black_box;

const I_DOMAIN: usize = 5;

fn bench_block<const N: usize>(c: &mut Criterion, block: Dims) {
    let dims = block.times(&Dims::new(2, 2, 2, 2));
    let op = test_operator(dims, 0.5, 0.2, 11).cast::<f32>();
    let domain = DomainGrid::new(dims, block).domain(0);
    let fields = DomainFields::new(&op).unwrap();
    let schur = SchurOperator::new(&op, &fields, domain);
    let n = schur.cb_len();
    let mut rng = Rng64::new(12);
    let rhs: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
    let zeros = vec![Spinor::ZERO; n];
    let (mut u, mut r, mut q) = (zeros.clone(), zeros.clone(), zeros.clone());
    let mut scratch = vec![Spinor::ZERO; 2 * n];

    let fschur = FusedSchur::<f32, N>::new(&op, &domain).unwrap();
    let frhs = fused_from_cb::<f32, N>(block, &rhs, &zeros);
    let field = || FusedField::<f32, N>::zeros(block);
    let (mut fu, mut fr, mut fq, mut s1, mut s2) = (field(), field(), field(), field(), field());

    let mut group = c.benchmark_group(&format!("mr_block_solve_{block}"));
    // Nominal flops: Idomain Schur applications of 1848 flop/site plus four
    // level-1 operations of 96 flop per even site each.
    let flops = I_DOMAIN * (1848 * block.volume() + 4 * 96 * n);
    group.throughput(criterion::Throughput::Elements(flops as u64));
    for f16_vectors in [false, true] {
        let cfg = MrConfig { iterations: I_DOMAIN, tolerance: 0.0, f16_vectors };
        let tag = if f16_vectors { "f32_f16vec" } else { "f32" };
        group.bench_function(&format!("scalar_{tag}"), |b| {
            b.iter(|| {
                black_box(mr_solve_schur(
                    &schur,
                    &cfg,
                    &mut u,
                    black_box(&rhs),
                    &mut r,
                    &mut q,
                    &mut scratch,
                ))
            })
        });
        group.bench_function(&format!("fused_{tag}"), |b| {
            b.iter(|| {
                black_box(mr_solve_fused(
                    &fschur,
                    &cfg,
                    &mut fu,
                    black_box(&frhs),
                    &mut fr,
                    &mut fq,
                    &mut s1,
                    &mut s2,
                ))
            })
        });
    }
    group.finish();

    // The kernels of one Schur application, each on one parity of the
    // block: nominal flops per output site of the half-volume.
    let kernel = FusedKernel::<f32, N>::new(block);
    let gauge = FusedGauge::<f32, N>::gather(&op, &domain);
    let clover = FusedClover::<f32, N>::gather(&op, &domain);
    let mut group = c.benchmark_group(&format!("block_kernels_{block}"));
    group.throughput(criterion::Throughput::Elements(DW_FLOPS_PER_SITE as u64 * n as u64));
    group.bench_function("hop", |b| {
        b.iter(|| {
            kernel.hop(&mut fq, black_box(&frhs), &gauge, Parity::Even);
            black_box(&mut fq);
        })
    });
    group.throughput(criterion::Throughput::Elements(CLOVER_FLOPS_PER_SITE as u64 * n as u64));
    group.bench_function("apply_diag", |b| {
        b.iter(|| {
            kernel.apply_diag(&mut fq, black_box(&frhs), &clover, Parity::Even);
            black_box(&mut fq);
        })
    });
    group.throughput(criterion::Throughput::Elements(TOTAL_FLOPS_PER_SITE as u64 * 2 * n as u64));
    group.bench_function("apply_schur", |b| {
        b.iter(|| {
            fschur.apply_schur(&mut fq, black_box(&frhs), &mut s1, &mut s2);
            black_box(&mut fq);
        })
    });
    group.finish();
}

fn bench_mr(c: &mut Criterion) {
    bench_block::<8>(c, Dims::new(4, 4, 4, 4));
    bench_block::<16>(c, Dims::new(8, 4, 4, 4));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_mr
}
criterion_main!(benches);
