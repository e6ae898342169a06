//! What the benchmark measures: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! this table printed by `perf --manifest`; tests/contract.rs keeps the
//! two equal.

/// Measuring window the driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dd_single",
        why: "The paper's DD solver, f32 preconditioner, 1 worker, cache-resident domains: M does ~90 % of the work. Plain single-threaded baseline.",
    },
    Workload {
        name: "dd_half_mixed",
        why: "Same M and A layers in f16 storage with f16 vectors under the mixed-precision outer loop: a gain for f32 that costs the half-precision path shows here.",
    },
    Workload {
        name: "krylov_single",
        why: "BiCGstab on the fused f64 operator, 16^4, constants stream from memory: A, BLAS-1 and sums do all the work, M none. Bypass for every Schwarz/MR change.",
    },
    Workload {
        name: "dd_dist2",
        why: "dd_single's problem on a 1x1x1x2 rank grid: the Schwarz sweep and A through DistSchwarz, DistSystem, staged exchange and all_sum; strong scaling on 2 CPUs.",
    },
    Workload {
        name: "serve_campaign",
        why: "Closed-loop 12-source waves through qdd-serve, 6 configs through 3 cache slots, 2 workers: admission, coalescing, setup cache. No solver workload sees these.",
    },
];

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => new / base - 1.0,
            Better::Higher => 1.0 - new / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A unit of work is one solve on the four solver workloads and one
/// request (one source) on `serve_campaign`; what a user waits for is one
/// solve, respectively one 12-source wave (a propagator).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "solve_s", unit: "s", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "request_p50_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "requests_per_s", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Layer = crate name (prefix before the dot). Rows whose workload does
/// not touch the layer read 0 there (`comm.*` on one rank, `serve.*` on a
/// solver workload, the Table III shares on `serve_campaign`). README.md
/// says which end-to-end metric each row should move, on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    // Roofline denominators, measured in the same run.
    hi("host.stream_triad_gb_s", "GB/s"),
    hi("host.fma_peak_f32_gflops", "Gflop/s"),
    hi("host.fma_peak_f64_gflops", "Gflop/s"),
    hi("util.f16_to_f32_gelem_s", "Gelem/s"),
    hi("util.f32_to_f16_gelem_s", "Gelem/s"),
    hi("field.cast_f64_f32_gb_s", "GB/s"),
    lo("field.f16_compress_ms", "ms"),
    lo("field.scatter_ms", "ms"),
    hi("dirac.apply_scalar_f64_gflops", "Gflop/s"),
    hi("dirac.fused_f64_gflops", "Gflop/s"),
    hi("dirac.fused_f64_gb_s", "GB/s"),
    hi("dirac.fused_f64_roofline_frac", "ratio"),
    hi("dirac.fused_f32_gflops", "Gflop/s"),
    hi("dirac.fused_f32_gb_s", "GB/s"),
    hi("dirac.fused_f32_roofline_frac", "ratio"),
    hi("dirac.fused_f32h_gflops", "Gflop/s"),
    hi("dirac.fused_f32h_gb_s", "GB/s"),
    hi("dirac.fused_f32h_roofline_frac", "ratio"),
    hi("dirac.schur_scalar_gflops", "Gflop/s"),
    hi("dirac.schur_scalar_roofline_frac", "ratio"),
    hi("dirac.schur_fused_gflops", "Gflop/s"),
    hi("dirac.schur_fused_roofline_frac", "ratio"),
    lo("dirac.clover_build_ms", "ms"),
    hi("dirac.pack_face_gb_s", "GB/s"),
    lo("core.mr_block_solve_us", "us"),
    lo("core.mr_block_solve_f16_us", "us"),
    lo("core.schwarz_apply_ms", "ms"),
    hi("core.schwarz_gflops", "Gflop/s"),
    lo("core.schwarz_allocs_per_apply", "count"),
    hi("core.schwarz_speedup_w2", "ratio"),
    lo("core.pool_dispatch_us", "us"),
    hi("core.blas_dot_gb_s", "GB/s"),
    hi("core.blas_axpy_gb_s", "GB/s"),
    // From the workload's traced solves (medians over the traced solves).
    lo("core.first_solve_s", "s"),
    lo("core.outer_iterations", "count"),
    lo("core.global_sums", "count"),
    lo("core.fgmres_self_s", "s"),
    lo("solve.share_A", "ratio"),
    lo("solve.share_M", "ratio"),
    lo("solve.share_sums", "ratio"),
    lo("solve.share_gs_other", "ratio"),
    lo("comm.bytes_sent_per_solve", "B"),
    lo("comm.messages_per_solve", "count"),
    lo("comm.reductions_per_solve", "count"),
    lo("comm.recv_wait_s", "s"),
    lo("comm.retries", "count"),
    hi("comm.strong_eff_r2", "ratio"),
    lo("comm.exchange_halo_us", "us"),
    lo("comm.all_sum_us", "us"),
    lo("comm.dist_schwarz_apply_ms", "ms"),
    lo("comm.dist_system_apply_ms", "ms"),
    lo("faults.injected", "count"),
    lo("machine.model_err.dirac_apply", "ratio"),
    lo("machine.model_err.schwarz_sweep", "ratio"),
    lo("serve.request_p90_ms", "ms"),
    lo("serve.queue_wait_p50_ms", "ms"),
    lo("serve.setup_miss_ms", "ms"),
    hi("serve.cache_hit_rate", "ratio"),
    lo("serve.cache_evictions", "count"),
    lo("serve.batches", "count"),
    hi("serve.batch_size_mean", "count"),
    hi("serve.wave_speedup_w2", "ratio"),
    lo("serve.worker_imbalance", "ratio"),
    lo("serve.shed", "count"),
    lo("serve.fallbacks", "count"),
    lo("serve.submit_us", "us"),
    lo("trace.overhead_frac", "ratio"),
    lo("trace.span_count", "count"),
];

/// `(name, unit)` of the metrics a run of the given kind emits, in order.
pub fn names_and_units(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, in the schema of the builder's contract.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
