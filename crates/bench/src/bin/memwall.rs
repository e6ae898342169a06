//! Memory-wall benchmark: does the f16 compressed-storage streaming path
//! actually move the fused hot loop off the bandwidth ceiling?
//!
//! Sweeps storage precision (f64 / f32 / f16) × workers (1, 2, 4) × L2
//! tile budget (flat, L2/2, L2/8) on a 16^4 lattice (8^4 with `--smoke`)
//! and reports, per configuration, the streamed bytes/site, wall time,
//! effective GB/s, and Gflop/s. The measured scaling is joined against
//! the active machine backend's `onchip` model (Fig. 5) and a STREAM-style
//! bandwidth roofline, and one real `HalfCompressed` solve with phase
//! timing is joined against the backend's kernel prices to produce the
//! `model.err.dirac_apply` validation ratio.
//!
//! Deterministic contracts asserted inside the binary (and pinned by
//! `scripts/bench_gate.py`):
//! - every (storage, tile, workers) combination is bitwise identical to
//!   the flat single-worker apply of the same operator — blocking,
//!   prefetch, and worker count never change a bit;
//! - streamed bytes/site drop ≥ 1.8x from f64-native to f16 storage;
//! - the join solve's iteration count and the autotuned plan fingerprint
//!   reproduce exactly.
//!
//! Run: `cargo run -p qdd-bench --release --bin memwall -- [--smoke]
//!       [--backend knc|knl-flat|knl-cache]`
//! Writes `results/BENCH_memwall.json`.

use qdd_autotune::{join_against_backend, Autotuner, TuneProblem};
use qdd_bench::{test_operator, test_source};
use qdd_core::dd_solver::{preconditioner_operator, DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::fused_full::{
    build_full_operator_tuned, FullOperator, FusedTuning, StoragePrecision, SwPrefetch,
};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_machine::{BackendKind, MachineBackend, Precision as ModelPrecision};
use qdd_util::complex::Real;
use qdd_util::stats::SolveStats;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SweepPoint {
    storage: &'static str,
    tile: &'static str,
    l2_bytes: u64,
    workers: usize,
    bytes_per_site: usize,
    seconds: f64,
    gbps: f64,
    gflops: f64,
    speedup_vs_w1_flat: f64,
}

#[derive(Serialize)]
struct ModelPoint {
    workers: usize,
    model_gflops: f64,
    model_speedup: f64,
    measured_speedup_f16: f64,
    measured_gbps_f16: f64,
}

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

/// Bitwise comparison through `to_f64` (exact for f32, identity for f64).
fn bits_equal<T: Real>(a: &SpinorField<T>, b: &SpinorField<T>) -> bool {
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
        (0..12).all(|k| {
            x.component(k).re.to_f64().to_bits() == y.component(k).re.to_f64().to_bits()
                && x.component(k).im.to_f64().to_bits() == y.component(k).im.to_f64().to_bits()
        })
    })
}

/// Sweep tiles × workers for one storage series; returns the per-worker
/// flat-tile times (for the scaling join) and whether every combination
/// was bitwise identical to the flat single-worker reference.
#[allow(clippy::too_many_arguments)]
fn sweep_storage<T: Real>(
    storage: &'static str,
    op: &WilsonClover<T>,
    src: &SpinorField<T>,
    fused_storage: StoragePrecision,
    prefetch: SwPrefetch,
    tiles: &[(&'static str, Option<usize>)],
    reps: usize,
    report: &mut qdd_bench::Report,
) -> (Vec<f64>, bool) {
    let dims = *op.dims();
    let flops = op.apply_flops();
    let volume = dims.volume() as f64;

    let reference_op = build_full_operator_tuned::<T>(
        op,
        FusedTuning { storage: fused_storage, prefetch: SwPrefetch::None, l2_bytes: None },
    )
    .expect("even extents admit a fused operator");
    let mut reference = SpinorField::zeros(dims);
    reference_op.apply(&mut reference, src, &WorkerPool::new(1));

    let mut t_w1_flat = f64::INFINITY;
    let mut flat_times = Vec::new();
    let mut all_bitwise = true;
    for &(tile, l2_bytes) in tiles {
        let fused: Box<dyn FullOperator<T>> = build_full_operator_tuned::<T>(
            op,
            FusedTuning { storage: fused_storage, prefetch, l2_bytes },
        )
        .expect("even extents admit a fused operator");
        let bytes = fused.streamed_bytes_per_site();
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut out = SpinorField::zeros(dims);
            let t = best_of(reps, &mut || {
                fused.apply(&mut out, src, &pool);
                std::hint::black_box(&out);
            });
            all_bitwise &= bits_equal(&out, &reference);
            if tile == "flat" {
                if workers == 1 {
                    t_w1_flat = t;
                }
                flat_times.push(t);
            }
            let gbps = bytes as f64 * volume / t / 1e9;
            println!(
                "{:>5} {:>6} {:>8} {:>7} {:>10.2} {:>8.2} {:>8.2} {:>8.2}",
                storage,
                tile,
                workers,
                bytes,
                1e3 * t,
                gbps,
                flops / t / 1e9,
                t_w1_flat / t
            );
            report.push(
                storage,
                SweepPoint {
                    storage,
                    tile,
                    l2_bytes: l2_bytes.unwrap_or(0) as u64,
                    workers,
                    bytes_per_site: bytes,
                    seconds: t,
                    gbps,
                    gflops: flops / t / 1e9,
                    speedup_vs_w1_flat: t_w1_flat / t,
                },
            );
        }
    }
    assert!(all_bitwise, "{storage}: a tuned apply diverged bitwise from the flat w=1 reference");
    (flat_times, all_bitwise)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let backend_sel = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|s| BackendKind::parse(s).expect("unknown --backend"))
        .unwrap_or(BackendKind::Knc7110p);
    let backend: &dyn MachineBackend = backend_sel.instance();
    let chip = backend.chip();

    let (dims, reps) =
        if smoke { (Dims::new(8, 8, 8, 8), 3) } else { (Dims::new(16, 16, 16, 16), 10) };
    let prefetch = match backend.default_prefetch() {
        qdd_machine::PrefetchMode::None => SwPrefetch::None,
        qdd_machine::PrefetchMode::L1 => SwPrefetch::L1,
        qdd_machine::PrefetchMode::L1L2 => SwPrefetch::L1L2,
    };
    let l2 = (chip.l2_per_core_kb * 1024.0) as usize;
    let tiles: [(&'static str, Option<usize>); 3] =
        [("flat", None), ("l2/2", Some(l2 / 2)), ("l2/8", Some(l2 / 8))];

    let op = test_operator(dims, 0.5, 0.2, 801);
    let src = test_source(dims, 802);
    let op32: WilsonClover<f32> = op.cast();
    let src32: SpinorField<f32> = src.cast();
    let op16 = preconditioner_operator(&op, Precision::HalfCompressed);
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("Memory wall: storage precision x workers x L2 tile budget");
    println!(
        "lattice {dims}, backend {} (L2 {} KiB/core, {} GB/s), prefetch {:?}, best of {reps}\n",
        backend_sel.label(),
        chip.l2_per_core_kb,
        chip.mem_bw_gbs,
        prefetch
    );
    println!(
        "{:>5} {:>6} {:>8} {:>7} {:>10} {:>8} {:>8} {:>8}",
        "store", "tile", "workers", "B/site", "time [ms]", "GB/s", "Gflop/s", "speedup"
    );

    let mut report = qdd_bench::Report::new("BENCH_memwall");
    report
        .param("dims", format!("{dims}"))
        .param("reps", reps)
        .param("smoke", smoke)
        .param("backend", backend_sel.label())
        .param("flops_per_apply", op.apply_flops())
        .meta("hardware_threads", hw)
        .meta("tiles", format!("{tiles:?}"))
        .meta("timer", "best-of-reps wall time");

    let (f64_flat, bw64) = sweep_storage(
        "f64",
        &op,
        &src,
        StoragePrecision::Native,
        prefetch,
        &tiles,
        reps,
        &mut report,
    );
    let (_, bw32) = sweep_storage(
        "f32",
        &op32,
        &src32,
        StoragePrecision::Native,
        prefetch,
        &tiles,
        reps,
        &mut report,
    );
    let (f16_flat, bw16) = sweep_storage(
        "f16",
        &op16,
        &src32,
        StoragePrecision::Half,
        prefetch,
        &tiles,
        reps,
        &mut report,
    );

    // Tentpole contract: f16 gauge+clover storage cuts streamed bytes/site
    // by at least the paper's ~2x target (here 1536 -> 504, 3.05x).
    let b64 = build_full_operator_tuned::<f64>(&op, FusedTuning::default())
        .unwrap()
        .streamed_bytes_per_site();
    let b32 = build_full_operator_tuned::<f32>(&op32, FusedTuning::default())
        .unwrap()
        .streamed_bytes_per_site();
    let b16 = build_full_operator_tuned::<f32>(
        &op16,
        FusedTuning { storage: StoragePrecision::Half, ..FusedTuning::default() },
    )
    .unwrap()
    .streamed_bytes_per_site();
    let ratio = b64 as f64 / b16 as f64;
    assert!(ratio >= 1.8, "bytes/site ratio {ratio:.3} below the 1.8x acceptance floor");
    report
        .meta("bytes_per_site_f64", b64 as u64)
        .meta("bytes_per_site_f32", b32 as u64)
        .meta("bytes_per_site_f16", b16 as u64)
        .meta("bytes_ratio_f64_over_f16", ratio)
        .meta("bitwise_identical", bw64 && bw32 && bw16);

    // Scaling join against the backend's onchip model (Fig. 5): measured
    // f16 flat-tile speedups vs the model's core-scaling prediction. On a
    // time-sliced single-core host the measured side flattens; the model
    // side is pure arithmetic and reproduces bitwise.
    let onchip = backend.onchip(ModelPrecision::Half, backend.default_prefetch(), 4);
    let block = Dims::new(4, 4, 4, 4);
    println!("\nonchip model join (f16, flat tile):");
    for (i, &workers) in [1usize, 2, 4].iter().enumerate() {
        let model_gflops = onchip.preconditioner_gflops(&dims, &block, workers);
        let model_speedup = model_gflops / onchip.preconditioner_gflops(&dims, &block, 1);
        let measured_speedup = f16_flat[0] / f16_flat[i];
        let measured_gbps = b16 as f64 * dims.volume() as f64 / f16_flat[i] / 1e9;
        println!(
            "  workers {workers}: model {model_speedup:.2}x, measured {measured_speedup:.2}x \
             ({measured_gbps:.2} GB/s streamed)"
        );
        report.push(
            "onchip_model",
            ModelPoint {
                workers,
                model_gflops,
                model_speedup,
                measured_speedup_f16: measured_speedup,
                measured_gbps_f16: measured_gbps,
            },
        );
    }
    let roofline = chip.mem_bw_gbs * backend.knobs().stream_bw_efficiency;
    report.meta("roofline_bw_gbs", roofline);
    println!(
        "  roofline: {:.1} GB/s sustained ({} GB/s x {:.2} STREAM efficiency) on {}",
        roofline,
        chip.mem_bw_gbs,
        backend.knobs().stream_bw_efficiency,
        backend_sel.label()
    );
    let f64_scaling = f64_flat[0] / f64_flat[2];
    let f16_scaling = f16_flat[0] / f16_flat[2];
    report
        .meta("measured_scaling_f64_at_4w", f64_scaling)
        .meta("measured_scaling_f16_at_4w", f16_scaling);

    // model.err.dirac_apply: one real HalfCompressed solve with phase
    // timing, joined against the backend's kernel prices. The ratio is
    // host wall-clock vs co-processor model — a validation signal; the
    // iteration count is bitwise deterministic and pinned by the gate.
    let cfg = DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-8, max_iterations: 200 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 2,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        precision: Precision::HalfCompressed,
        workers: 4,
        prefetch,
        l2_bytes: Some(l2 / 2),
        ..Default::default()
    };
    let i_domain = cfg.schwarz.mr.iterations;
    let solver =
        DdSolver::new(test_operator(dims, 0.45, 0.1, 803), cfg).expect("non-singular clover");
    let rhs = test_source(dims, 804);
    let mut stats = SolveStats::new();
    stats.enable_phase_timing();
    let (_, out) = solver.solve(&rhs, &mut stats);
    assert!(out.converged, "join solve did not converge: {}", out.relative_residual);
    let join = join_against_backend(
        &stats,
        backend,
        ModelPrecision::Half,
        backend.default_prefetch(),
        i_domain,
        1,
    );
    let dirac = join.get("dirac_apply").expect("phase timing records the operator phase");
    println!(
        "\nmodel.err.dirac_apply = {:.3} (measured {:.3e}s vs {} predicting {:.3e}s, \
         {} outer iterations)",
        dirac.ratio(),
        dirac.measured_s,
        backend_sel.label(),
        dirac.predicted_s,
        out.iterations
    );
    if !(0.5..=2.0).contains(&dirac.ratio()) {
        println!(
            "  note: ratio outside [0.5, 2.0] — expected off the modeled chip; \
             calibrate with `qdd tune --calibrate` for host-accurate ranking"
        );
    }
    report
        .meta("join_iterations", out.iterations as u64)
        .meta("model_err_dirac_apply", dirac.ratio());

    // Plan fingerprint: the autotuned operating point for this lattice on
    // the active backend must reproduce bitwise (the tuner is pure model
    // arithmetic seeded by the deterministic iteration count above).
    let problem = TuneProblem {
        dims,
        layout: Dims::new(1, 1, 1, 1),
        max_basis: 10,
        deflate: 4,
        base_outer: out.iterations,
        cores: Some(4),
    };
    let plan = Autotuner::new(backend_sel).tune(&problem);
    report.meta("plan_fingerprint", format!("{:016x}", plan.fingerprint));
    if let Some(best) = plan.best() {
        println!(
            "tuned plan for this lattice: {} (fingerprint {:016x})",
            best.describe(),
            plan.fingerprint
        );
        report.meta("plan_choice", best.describe());
    }

    report.write();
    println!("\nwrote results/BENCH_memwall.json");
}
