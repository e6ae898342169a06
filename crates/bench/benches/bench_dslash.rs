//! Criterion bench: the block operator in scalar (AOS) versus site-fused
//! (SOA tile) form — the ablation for the paper's data-layout choice
//! (Sec. III-A). On a host with AVX2 + FMA or AVX-512 the fused form runs
//! on explicit vector instructions (`qdd_field::lanes`) and wins; the ratio
//! is the measurable value of the layout.

use criterion::{criterion_group, criterion_main, Criterion};
use qdd_bench::test_operator;
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_dirac::fused::{fused_from_cb, FusedClover, FusedGauge, FusedKernel};
use qdd_field::fused::FusedField;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, DomainGrid};
use qdd_util::rng::Rng64;
use std::hint::black_box;

fn bench_dslash(c: &mut Criterion) {
    let block = Dims::new(8, 4, 4, 4);
    let dims = block.times(&Dims::new(2, 2, 2, 2));
    let op64 = test_operator(dims, 0.5, 0.2, 1);
    let op = op64.cast::<f32>();
    let grid = DomainGrid::new(dims, block);
    let domain = grid.domain(0);
    let fields = DomainFields::new(&op).unwrap();
    let schur = SchurOperator::new(&op, &fields, domain);
    let n = schur.cb_len();

    let mut rng = Rng64::new(2);
    let inp: Vec<Spinor<f32>> = (0..2 * n).map(|_| Spinor::random(&mut rng)).collect();
    let mut out = vec![Spinor::ZERO; 2 * n];

    let mut group = c.benchmark_group("block_operator_8x4x4x4");
    group.throughput(criterion::Throughput::Elements(block.volume() as u64));

    group.bench_function("scalar_aos", |b| {
        b.iter(|| {
            schur.apply_block_full(&mut out, black_box(&inp));
            black_box(&out);
        })
    });

    let kernel = FusedKernel::<f32, 16>::new(block);
    let gauge = FusedGauge::<f32, 16>::gather(&op, &domain);
    let clover = FusedClover::<f32, 16>::gather(&op, &domain);
    let (in_e, in_o) = inp.split_at(n);
    let fused_in = fused_from_cb::<f32, 16>(block, in_e, in_o);
    let mut fused_out = FusedField::<f32, 16>::zeros(block);
    let mut scratch = FusedField::<f32, 16>::zeros(block);

    group.bench_function("fused_soa_16lanes", |b| {
        b.iter(|| {
            kernel.apply_block(&mut fused_out, black_box(&fused_in), &gauge, &clover, &mut scratch);
            black_box(&fused_out);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dslash
}
criterion_main!(benches);
