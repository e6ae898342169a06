//! Outer hot-path benchmark: scalar site-loop `WilsonClover::apply` vs the
//! full-lattice fused SoA operator, threaded over xy tiles by the
//! persistent worker pool. This measures the matvec that dominates the
//! outer FGMRES iteration (Sec. III-B) and backs the repo's claim that the
//! fused outer path is a real speedup, not just a layout change.
//!
//! Three storage precisions are measured (select with `--storage`):
//! - `f64`: the outer double-precision Krylov matvec;
//! - `f32`: the precision the mixed-precision solver (and the paper's KNC
//!   kernels, Sec. III-A) actually run the hot path in;
//! - `f16`: f32 compute with the gauge/clover constants pre-rounded to
//!   f16 and *stored* as genuine f16, up-converted lane-wise inside the
//!   SU(3) multiply (paper Sec. II-A) — the memory-wall configuration.
//!
//! Run: `cargo run -p qdd-bench --bin outer --release [-- --smoke]
//!       [--storage {f64,f32,f16}]`
//! Writes `results/BENCH_outer.json`.

use qdd_bench::{test_operator, test_source};
use qdd_core::dd_solver::{preconditioner_operator, Precision};
use qdd_core::pool::WorkerPool;
use qdd_dirac::fused_full::{build_full_operator_tuned, FusedTuning, StoragePrecision};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_util::complex::Real;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    kernel: &'static str,
    workers: usize,
    bytes_per_site: usize,
    seconds: f64,
    gflops: f64,
    speedup_vs_scalar: f64,
}

/// Best-of-`reps` wall time (min is the standard noise-robust estimator
/// on a shared host).
fn best_of(reps: usize, f: &mut dyn FnMut()) -> f64 {
    f(); // warm up outside the timed region
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_precision<T: Real>(
    series: &str,
    op: &WilsonClover<T>,
    src: &SpinorField<T>,
    storage: StoragePrecision,
    reps: usize,
    report: &mut qdd_bench::Report,
) -> (f64, f64) {
    let dims = *op.dims();
    let tuning = FusedTuning { storage, ..FusedTuning::default() };
    let fused =
        build_full_operator_tuned::<T>(op, tuning).expect("even extents admit a fused operator");
    let flops = op.apply_flops();
    let bytes = fused.streamed_bytes_per_site();

    // Correctness cross-check before timing anything: the fused operator
    // must agree with the scalar site loop site-for-site (for the f16
    // series the scalar reference applies the same pre-rounded operator,
    // so the tolerance is the f32 one).
    let mut expect = SpinorField::zeros(dims);
    op.apply(&mut expect, src);
    {
        let pool = WorkerPool::new(4);
        let mut got = SpinorField::zeros(dims);
        fused.apply(&mut got, src, &pool);
        let tol = if std::mem::size_of::<T>() == 4 { 1e-6 } else { 1e-20 };
        let worst = (0..dims.volume())
            .map(|s| got.site(s).sub(*expect.site(s)).norm_sqr().to_f64())
            .fold(0.0f64, f64::max);
        assert!(worst < tol, "{series}: fused disagrees with scalar: |diff|^2 = {worst}");
    }

    let mut out = SpinorField::zeros(dims);
    let t_scalar = best_of(reps, &mut || {
        op.apply(&mut out, src);
        std::hint::black_box(&out);
    });
    println!(
        "{:>6} {:>8} {:>8} {:>7} {:>10.1} {:>9.2} {:>9.2}",
        series,
        "scalar",
        1,
        bytes,
        1e3 * t_scalar,
        flops / t_scalar / 1e9,
        1.0
    );
    report.push(
        series,
        Point {
            kernel: "scalar",
            workers: 1,
            bytes_per_site: bytes,
            seconds: t_scalar,
            gflops: flops / t_scalar / 1e9,
            speedup_vs_scalar: 1.0,
        },
    );

    let mut best_fused = f64::INFINITY;
    for workers in [1usize, 2, 3, 4, 8] {
        let pool = WorkerPool::new(workers);
        let t = best_of(reps, &mut || {
            fused.apply(&mut out, src, &pool);
            std::hint::black_box(&out);
        });
        if workers == 4 {
            best_fused = t;
        }
        println!(
            "{:>6} {:>8} {:>8} {:>7} {:>10.1} {:>9.2} {:>9.2}",
            series,
            "fused",
            workers,
            bytes,
            1e3 * t,
            flops / t / 1e9,
            t_scalar / t
        );
        report.push(
            series,
            Point {
                kernel: "fused",
                workers,
                bytes_per_site: bytes,
                seconds: t,
                gflops: flops / t / 1e9,
                speedup_vs_scalar: t_scalar / t,
            },
        );
    }
    (t_scalar, best_fused)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let storage_sel = args
        .iter()
        .position(|a| a == "--storage")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "f64,f32,f16".to_string());
    let selected: Vec<&str> = storage_sel.split(',').collect();
    for s in &selected {
        assert!(
            matches!(*s, "f64" | "f32" | "f16"),
            "unknown --storage {s:?}: expected a comma list of f64, f32, f16"
        );
    }
    let (dims, reps) =
        if smoke { (Dims::new(8, 8, 8, 8), 3) } else { (Dims::new(16, 16, 16, 16), 10) };

    let op = test_operator(dims, 0.5, 0.2, 701);
    let src = test_source(dims, 702);
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("Outer matvec: scalar site loop vs fused SoA kernel (threaded)");
    println!(
        "lattice {dims}, {} flop per apply, {hw} hardware threads, best of {reps}\n",
        op.apply_flops()
    );
    println!(
        "{:>6} {:>8} {:>8} {:>7} {:>10} {:>9} {:>9}",
        "series", "kernel", "workers", "B/site", "time [ms]", "Gflop/s", "speedup"
    );

    let mut report = qdd_bench::Report::new("BENCH_outer");
    report
        .param("dims", format!("{dims}"))
        .param("reps", reps)
        .param("smoke", smoke)
        .param("storage", storage_sel.clone())
        .param("flops_per_apply", op.apply_flops())
        .meta("hardware_threads", hw)
        .meta("baseline", "scalar WilsonClover::apply, single thread, same precision")
        .meta(
            "f16_series",
            "f32 compute, gauge/clover pre-rounded to f16 and stored as f16 \
             (lane-wise up-conversion in the SU(3) multiply)",
        )
        .meta("timer", "best-of-reps wall time");

    let mut summary: Vec<(&str, f64, f64)> = Vec::new();
    let op32: WilsonClover<f32> = op.cast();
    let src32: SpinorField<f32> = src.cast();
    for s in &selected {
        let (t_scalar, t_fused) = match *s {
            "f64" => bench_precision("f64", &op, &src, StoragePrecision::Native, reps, &mut report),
            "f32" => {
                bench_precision("f32", &op32, &src32, StoragePrecision::Native, reps, &mut report)
            }
            _ => {
                let op16 = preconditioner_operator(&op, Precision::HalfCompressed);
                bench_precision("f16", &op16, &src32, StoragePrecision::Half, reps, &mut report)
            }
        };
        summary.push((s, t_scalar, t_fused));
    }

    println!();
    for (label, t_scalar, t_fused) in &summary {
        println!("{label:>6}: fused @4 workers vs scalar {:.2}x", t_scalar / t_fused);
    }
    println!("\nThe f64 kernel is memory-bandwidth-bound at this volume; f32 halves the");
    println!("streamed bytes and doubles the SIMD lanes, and the f16 storage series");
    println!("cuts the constant stream in half again (504 vs 768 B/site) at identical");
    println!("compute precision. Extra workers add strong scaling on multi-core hosts;");
    println!("on a single-core host the pool time-slices.");
    report.write();
    println!("\nwrote results/BENCH_outer.json");
}
