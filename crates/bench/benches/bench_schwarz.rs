//! Criterion bench: the full Schwarz preconditioner application — serial
//! versus the paper's worker-pool threading (Sec. III-D), and
//! multiplicative versus additive (the ablation for the method choice).

use criterion::{criterion_group, criterion_main, Criterion};
use qdd_bench::{test_operator, test_source};
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_lattice::Dims;
use qdd_util::stats::SolveStats;
use std::hint::black_box;

fn bench_schwarz(c: &mut Criterion) {
    let dims = Dims::new(16, 8, 8, 8);
    let block = Dims::new(4, 4, 4, 4);
    let mk = |additive| SchwarzConfig {
        block,
        i_schwarz: 4,
        mr: MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false },
        additive,
        ..Default::default()
    };
    let op = test_operator(dims, 0.5, 0.2, 21).cast::<f32>();
    let pre = SchwarzPreconditioner::new(op, mk(false)).unwrap();
    let pre_add =
        SchwarzPreconditioner::new(test_operator(dims, 0.5, 0.2, 21).cast::<f32>(), mk(true))
            .unwrap();
    let f = test_source(dims, 22).cast::<f32>();

    let mut group = c.benchmark_group("schwarz_preconditioner_16x8x8x8");
    group.sample_size(15);

    group.bench_function("multiplicative_serial", |b| {
        b.iter(|| {
            let mut stats = SolveStats::new();
            black_box(pre.apply(black_box(&f), &mut stats));
        })
    });
    group.bench_function("multiplicative_4workers", |b| {
        let pool = WorkerPool::new(4);
        b.iter(|| {
            let mut stats = SolveStats::new();
            black_box(pre.apply_parallel(black_box(&f), &pool, &mut stats));
        })
    });
    group.bench_function("additive_serial", |b| {
        b.iter(|| {
            let mut stats = SolveStats::new();
            black_box(pre_add.apply(black_box(&f), &mut stats));
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_schwarz
}
criterion_main!(benches);
