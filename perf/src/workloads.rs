//! The five workloads: what each run sets up, times, checks and reports.
//! Timed runs (`--trace 0`) call the library's entry points and emit the
//! end-to-end metrics; traced runs (`--trace 1`) re-run the workload with
//! spans around every layer, assert the recomposed solve is bitwise the
//! entry point's, and add the kernel rows.

use crate::host;
use crate::kernels::{self, Bench, Roofline};
use crate::layers::{
    self, DdHalfMixed, DdSingle, Dist2, Ensemble, Field, Krylov, Rng64, ServeLayer, Shape, Solved,
    Solver, Wave, SOURCES_PER_WAVE,
};
use crate::report::{median, percentile, Digest, RunResult};
use crate::spans::{self, Span};
use crate::spec::PER_LAYER;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// Distinct sources cycled through by the timed solves.
const SOURCES: usize = 4;
/// Least number of set-ups per run; `setup_s` is the median of all.
const SETUPS: usize = 9;
/// `peak_rss_mb` is read after the warm-up and this many timed solves
/// (waves on the campaign), not at exit: a run measures for a time, and
/// `DdSolver`'s workspace pool grows with every solve it has made (31.5 MB
/// per solve on `dd_single`), so the high-water mark at exit would follow
/// the number of solves that happened to fit.
const RSS_AFTER_SOLVES: usize = 2;
const RSS_AFTER_WAVES: usize = 4;
/// Configurations of the campaign's ensemble, through 3 cache slots.
const CONFIGS: usize = 6;

/// The workload table. `ensemble` names each workload's fixed gauge orbit
/// and sources; `dd_single`, `dd_half_mixed` and `dd_dist2` share one, so
/// strong scaling and the precision paths are compared on one problem.
fn shape(workload: &str, smoke: bool) -> Shape {
    let dd = Shape { dims: [8, 8, 8, 16], mass: -0.15, spread: 0.45, tolerance: 1e-9, ensemble: 7 };
    let mut s = match workload {
        "dd_single" | "dd_half_mixed" | "dd_dist2" => dd,
        "krylov_single" => Shape { dims: [16; 4], mass: 0.2, ensemble: 2, ..dd },
        "serve_campaign" => {
            Shape { dims: [8; 4], mass: 1.5, spread: 0.15, tolerance: 1e-8, ensemble: 5 }
        }
        other => panic!("no workload called {other}"),
    };
    if smoke {
        s.dims = [4, 4, 4, 8];
    }
    s
}

/// Run `opts.workload`, one of `spec::WORKLOADS`.
pub fn run(opts: &Options, traced: bool) -> RunResult {
    let shape = shape(&opts.workload, opts.smoke);
    match (opts.workload.as_str(), traced) {
        ("dd_single", false) => timed_solver::<DdSingle>(&shape, opts),
        ("dd_half_mixed", false) => timed_solver::<DdHalfMixed>(&shape, opts),
        ("krylov_single", false) => timed_solver::<Krylov>(&shape, opts),
        ("dd_dist2", false) => timed_solver::<Dist2>(&shape, opts),
        ("serve_campaign", false) => timed_campaign(&shape, opts),
        ("dd_single", true) => traced_solver::<DdSingle>(&shape, opts),
        ("dd_half_mixed", true) => traced_solver::<DdHalfMixed>(&shape, opts),
        ("krylov_single", true) => traced_solver::<Krylov>(&shape, opts),
        ("dd_dist2", true) => traced_solver::<Dist2>(&shape, opts),
        ("serve_campaign", true) => traced_campaign(&shape, opts),
        _ => unreachable!("shape() knows the workload"),
    }
}

/// Check one solve against the oracle and enter it in the ledger.
fn account(result: &mut RunResult, solver: &impl Solver, shape: &Shape, b: &Field, s: &Solved) {
    result.attempted += 1;
    let residual = layers::true_residual(solver.oracle(), b, &s.x);
    if !s.converged || !oracle_accepts(residual, shape.tolerance) {
        result.failed += 1;
        println!("FAILED solve: converged {} true residual {residual:e}", s.converged);
    }
    let mut digest = Digest::default();
    digest.update(layers::field_values(&s.x));
    result.ledger.digests.push(digest.hex());
    result.ledger.outer_iterations.push(s.iterations);
    result.ledger.comm_bytes.push(s.comm.bytes_sent);
    result.ledger.comm_messages.push(s.comm.messages);
}

/// A solve fails the oracle when its recomputed residual exceeds ten
/// times the tolerance it was asked for (or is not a number).
pub fn oracle_accepts(true_residual: f64, tolerance: f64) -> bool {
    true_residual <= 10.0 * tolerance
}

/// Durations of repeated set-ups: at least `min`, and on until a second
/// has gone into them (31 at most), so that cheap set-ups are sampled more
/// often and their median is steadier. `one(k)` makes the k-th set-up and
/// returns its seconds.
fn sample_setups(min: usize, mut one: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut seconds: Vec<f64> = Vec::new();
    while seconds.len() < min || (seconds.len() < 31 && seconds.iter().sum::<f64>() < 1.0) {
        seconds.push(one(seconds.len()));
    }
    seconds
}

/// Set up `S` on `gauge` repeatedly; keeps the last, returns every duration.
fn setups<S: Solver>(gauge: &layers::Gauge, shape: &Shape, min: usize) -> (S, Vec<f64>) {
    let mut solver = None;
    let seconds = sample_setups(min, |_| {
        drop(solver.take());
        let (s, secs) = S::setup(gauge.clone(), shape);
        solver = Some(s);
        secs
    });
    (solver.expect("at least one set-up"), seconds)
}

fn timed_solver<S: Solver>(shape: &Shape, opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let (gauge, sources) = layers::make_inputs(shape, 0, SOURCES, opts.seed);
    let (solver, setup_s) = setups::<S>(&gauge, shape, if opts.smoke { 3 } else { SETUPS });
    drop(gauge);

    // One untimed solve: workspaces allocated, caches and branch
    // predictors warm. Users pay it once per configuration, not per solve.
    let warm = solver.solve(&sources[0]);
    account(&mut result, &solver, shape, &sources[0], &warm);
    drop(warm);

    let mut times = Vec::new();
    let window = Instant::now();
    while times.len() < RSS_AFTER_SOLVES || window.elapsed().as_secs_f64() < opts.seconds {
        let b = &sources[(times.len() + 1) % sources.len()];
        let solved = solver.solve(b);
        times.push(solved.seconds);
        account(&mut result, &solver, shape, b, &solved);
        if times.len() == RSS_AFTER_SOLVES {
            result.set("peak_rss_mb", host::peak_rss_mb());
        }
    }
    println!(
        "{}: {} timed solves, outer iterations {:?}",
        opts.workload,
        times.len(),
        &result.ledger.outer_iterations[1..]
    );
    let solve_s = median(&times);
    result.set("solve_s", solve_s);
    result.set("request_p50_ms", solve_s * 1e3);
    result.set("requests_per_s", times.len() as f64 / times.iter().sum::<f64>());
    result.set("setup_s", median(&setup_s));
    result
}

/// The campaign's waves: configurations drawn by the seed, for as long as
/// the window lasts (`budget_s`) and at least `min_waves`.
fn wave_sequence(seed: u64, budget_s: f64, min_waves: usize) -> impl FnMut(usize) -> Option<usize> {
    let mut rng = Rng64::new(seed ^ 0x5e7e_5e7e);
    let window = Instant::now();
    move |done| {
        (done < min_waves || window.elapsed().as_secs_f64() < budget_s).then(|| rng.below(CONFIGS))
    }
}

fn account_waves(result: &mut RunResult, waves: &[Wave]) {
    for w in waves {
        result.attempted += SOURCES_PER_WAVE as u64;
        result.failed += w.failed;
        result.ledger.digests.push(w.digest.hex());
        result.ledger.outer_iterations.extend(&w.iterations);
    }
}

fn timed_campaign(shape: &Shape, opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let ensemble = Ensemble::new(shape, CONFIGS, opts.seed);
    let setup_s =
        sample_setups(if opts.smoke { 3 } else { SETUPS }, |k| ensemble.setup_seconds(k % CONFIGS));
    let min_waves = if opts.smoke { 2 } else { RSS_AFTER_WAVES };
    let (waves, _, _) =
        ensemble.campaign(2, None, wave_sequence(opts.seed, opts.seconds, min_waves));
    account_waves(&mut result, &waves);
    let wave_s: Vec<f64> = waves.iter().map(|w| w.seconds).collect();
    let latency_ms: Vec<f64> = waves.iter().flat_map(|w| w.latency_ms.iter().copied()).collect();
    println!("{}: {} waves, {} requests", opts.workload, waves.len(), latency_ms.len());
    result.set("solve_s", median(&wave_s));
    result.set("request_p50_ms", median(&latency_ms));
    result.set("requests_per_s", latency_ms.len() as f64 / wave_s.iter().sum::<f64>());
    result.set("setup_s", median(&setup_s));
    result.set("peak_rss_mb", waves[waves.len().min(RSS_AFTER_WAVES) - 1].peak_rss_mb);
    result
}

/// Roofline and kernel rows, the same in every traced run, entered under
/// their metric names; prints the kernel table.
fn kernel_rows(result: &mut RunResult, opts: &Options) {
    let budget = if opts.smoke { 0.01 } else { (opts.seconds / 80.0).max(0.05) };
    let roof = Roofline::measure(opts.smoke, 4.0 * budget);
    let mut bench = Bench::new(budget);
    layers::run_kernels(&mut bench, opts.smoke);
    print!("{}", kernels::table(&bench, &roof));

    result.set("host.stream_triad_gb_s", roof.triad_gb_s);
    result.set("host.fma_peak_f32_gflops", roof.peak_f32_gflops);
    result.set("host.fma_peak_f64_gflops", roof.peak_f64_gflops);
    for &(metric, row, reading) in KERNEL_METRICS {
        let r = bench.row(row);
        result.set(
            metric,
            match reading {
                Reading::Gflops => r.gflops(),
                Reading::GbS => r.gb_s(),
                Reading::Millis => r.seconds * 1e3,
                Reading::Micros => r.seconds * 1e6,
                Reading::Roofline => roof.fraction(r),
            },
        );
    }
    let schwarz = bench.row("core.schwarz_apply");
    result.set("core.schwarz_allocs_per_apply", schwarz.allocs);
    result.set(
        "core.schwarz_speedup_w2",
        schwarz.seconds / bench.row("core.schwarz_apply_w2").seconds,
    );
}

/// How a kernel row is read into a metric.
#[derive(Copy, Clone)]
enum Reading {
    Gflops,
    GbS,
    Millis,
    Micros,
    Roofline,
}

/// `(metric, kernel row, reading)`. The conversion rows count elements
/// where the others count flops, so their Gflop/s is Gelem/s.
const KERNEL_METRICS: &[(&str, &str, Reading)] = &[
    ("util.f16_to_f32_gelem_s", "util.f16_to_f32", Reading::Gflops),
    ("util.f32_to_f16_gelem_s", "util.f32_to_f16", Reading::Gflops),
    ("field.cast_f64_f32_gb_s", "field.cast_f64_f32", Reading::GbS),
    ("field.f16_compress_ms", "field.f16_compress", Reading::Millis),
    ("field.scatter_ms", "field.scatter", Reading::Millis),
    ("dirac.apply_scalar_f64_gflops", "dirac.apply_scalar_f64", Reading::Gflops),
    ("dirac.fused_f64_gflops", "dirac.fused_f64", Reading::Gflops),
    ("dirac.fused_f64_gb_s", "dirac.fused_f64", Reading::GbS),
    ("dirac.fused_f64_roofline_frac", "dirac.fused_f64", Reading::Roofline),
    ("dirac.fused_f32_gflops", "dirac.fused_f32", Reading::Gflops),
    ("dirac.fused_f32_gb_s", "dirac.fused_f32", Reading::GbS),
    ("dirac.fused_f32_roofline_frac", "dirac.fused_f32", Reading::Roofline),
    ("dirac.fused_f32h_gflops", "dirac.fused_f32h", Reading::Gflops),
    ("dirac.fused_f32h_gb_s", "dirac.fused_f32h", Reading::GbS),
    ("dirac.fused_f32h_roofline_frac", "dirac.fused_f32h", Reading::Roofline),
    ("dirac.schur_scalar_gflops", "dirac.schur_scalar", Reading::Gflops),
    ("dirac.schur_scalar_roofline_frac", "dirac.schur_scalar", Reading::Roofline),
    ("dirac.schur_fused_gflops", "dirac.schur_fused", Reading::Gflops),
    ("dirac.schur_fused_roofline_frac", "dirac.schur_fused", Reading::Roofline),
    ("dirac.clover_build_ms", "dirac.clover_build", Reading::Millis),
    ("dirac.pack_face_gb_s", "dirac.pack_face", Reading::GbS),
    ("core.mr_block_solve_us", "core.mr_block_solve", Reading::Micros),
    ("core.mr_block_solve_f16_us", "core.mr_block_solve_f16", Reading::Micros),
    ("core.schwarz_apply_ms", "core.schwarz_apply", Reading::Millis),
    ("core.schwarz_gflops", "core.schwarz_apply", Reading::Gflops),
    ("core.pool_dispatch_us", "core.pool_dispatch", Reading::Micros),
    ("core.blas_dot_gb_s", "core.blas_dot", Reading::GbS),
    ("core.blas_axpy_gb_s", "core.blas_axpy", Reading::GbS),
    ("comm.exchange_halo_us", "comm.exchange_halo", Reading::Micros),
    ("comm.all_sum_us", "comm.all_sum", Reading::Micros),
    ("comm.dist_schwarz_apply_ms", "comm.dist_schwarz_apply", Reading::Millis),
    ("comm.dist_system_apply_ms", "comm.dist_system_apply", Reading::Millis),
];

/// Rows the workload's layers never touched read 0.
fn zero_untouched(result: &mut RunResult) {
    for m in PER_LAYER {
        result.metrics.entry(m.name).or_insert(0.0);
    }
}

fn write_spans(opts: &Options, lanes: &[(u32, Vec<Span>)]) {
    let path = opts.out.join(format!("spans-{}.jsonl", opts.workload));
    match spans::write_jsonl(&path, lanes) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

/// One entry-point solve and its traced recomposition on the same source.
struct Pair {
    plain_s: f64,
    composed: Solved,
    split: spans::Split,
    /// The benchmark's spans plus the events the program's sink took.
    span_count: usize,
    model_err_dirac_apply: f64,
    model_err_schwarz_sweep: f64,
}

fn traced_solver<S: Solver>(shape: &Shape, opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let epoch = Instant::now();
    let (gauge, sources) = layers::make_inputs(shape, 0, SOURCES, opts.seed);
    let (solver, _) = S::setup(gauge, shape);

    let first = solver.solve(&sources[0]);
    account(&mut result, &solver, shape, &sources[0], &first);
    result.set("core.first_solve_s", first.seconds);
    drop(first);

    let mut lanes: Vec<(u32, Vec<Span>)> = Vec::new();
    let mut pairs: Vec<Pair> = Vec::new();
    while pairs.is_empty() || (!opts.smoke && epoch.elapsed().as_secs_f64() < 0.75 * opts.seconds) {
        let id = pairs.len() as u32;
        let b = &sources[(pairs.len() + 1) % sources.len()];
        let plain = solver.solve(b);
        account(&mut result, &solver, shape, b, &plain);
        let (composed, tr) = solver.solve_traced(b, epoch, id);
        result.attempted += 1;
        if composed.iterations != plain.iterations || composed.x.as_slice() != plain.x.as_slice() {
            result.failed += 1;
            println!(
                "FAILED identity: the composed solve differs from the entry point ({} vs {} iterations)",
                composed.iterations, plain.iterations
            );
        }
        pairs.push(Pair {
            plain_s: plain.seconds,
            composed,
            split: spans::split(&tr.lanes[0].1, id),
            span_count: tr.lanes.iter().map(|(_, s)| s.len()).sum::<usize>() + tr.sink_events,
            model_err_dirac_apply: tr.model_err_dirac_apply,
            model_err_schwarz_sweep: tr.model_err_schwarz_sweep,
        });
        for (lane, spans) in tr.lanes {
            match lanes.iter_mut().find(|(l, _)| *l == lane) {
                Some((_, all)) => all.extend(spans),
                None => lanes.push((lane, spans)),
            }
        }
    }

    let med = |f: &dyn Fn(&Pair) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    let share = |part: &dyn Fn(&spans::Split) -> f64| med(&|p| part(&p.split) / p.split.solve_s);
    println!("Table III split of {} (median of {} traced solves):", opts.workload, pairs.len());
    println!(
        "  solve {:.4} s = A {:.1} % + M {:.1} % + global sums {:.1} % + GS and other {:.1} %",
        med(&|p| p.split.solve_s),
        100.0 * share(&|s| s.a_s),
        100.0 * share(&|s| s.m_s),
        100.0 * share(&|s| s.sums_s),
        100.0 * share(&|s| s.self_s),
    );
    result.set("core.outer_iterations", med(&|p| p.composed.iterations as f64));
    result.set("core.global_sums", med(&|p| p.composed.global_sums as f64));
    result.set("core.fgmres_self_s", med(&|p| p.split.self_s));
    result.set("solve.share_A", share(&|s| s.a_s));
    result.set("solve.share_M", share(&|s| s.m_s));
    result.set("solve.share_sums", share(&|s| s.sums_s));
    result.set("solve.share_gs_other", share(&|s| s.self_s));
    result.set("comm.bytes_sent_per_solve", med(&|p| p.composed.comm.bytes_sent));
    result.set("comm.messages_per_solve", med(&|p| p.composed.comm.messages as f64));
    result.set("comm.reductions_per_solve", med(&|p| p.composed.comm.reductions as f64));
    result.set("comm.recv_wait_s", med(&|p| p.composed.comm.recv_wait_s));
    result.set("comm.retries", med(&|p| p.composed.comm.retries as f64));
    result.set("faults.injected", med(&|p| p.composed.comm.faults_injected as f64));
    if let Some(single_s) = solver.single_rank_reference_s(&sources[1]) {
        result.set("comm.strong_eff_r2", single_s / (2.0 * med(&|p| p.plain_s)));
    }
    result.set("machine.model_err.dirac_apply", med(&|p| p.model_err_dirac_apply));
    result.set("machine.model_err.schwarz_sweep", med(&|p| p.model_err_schwarz_sweep));
    result.set("trace.overhead_frac", med(&|p| p.composed.seconds) / med(&|p| p.plain_s) - 1.0);
    result.set("trace.span_count", med(&|p| p.span_count as f64));
    drop((pairs, solver, sources));

    write_spans(opts, &lanes);
    kernel_rows(&mut result, opts);
    zero_untouched(&mut result);
    result
}

fn traced_campaign(shape: &Shape, opts: &Options) -> RunResult {
    let mut result = RunResult::default();
    let epoch = Instant::now();
    let ensemble = Ensemble::new(shape, CONFIGS, opts.seed);

    // Three campaigns over one wave sequence: as served (2 workers), on 1
    // worker, and as served with the program's trace sink enabled.
    let budget = if opts.smoke { 0.0 } else { opts.seconds / 5.0 };
    let mut sequence = Vec::new();
    let mut draw = wave_sequence(opts.seed, budget, 2);
    let (served, layer, _) = ensemble.campaign(2, None, |done| {
        let next = draw(done);
        sequence.extend(next);
        next
    });
    let replay = |done: usize| sequence.get(done).copied();
    let (one_worker, _, _) = ensemble.campaign(1, None, replay);
    let (traced, traced_layer, client_spans) = ensemble.campaign(2, Some(epoch), replay);
    for waves in [&served, &one_worker, &traced] {
        account_waves(&mut result, waves);
    }

    let wave_s = |waves: &[Wave]| median(&waves.iter().map(|w| w.seconds).collect::<Vec<_>>());
    let all = |f: &dyn Fn(&Wave) -> &Vec<f64>| -> Vec<f64> {
        served.iter().flat_map(|w| f(w).iter().copied()).collect()
    };
    let latency_ms = all(&|w| &w.latency_ms);
    // The tail is read off both 2-worker campaigns (tracing costs under
    // 2 %), and only when ten samples lie beyond it: 100 requests, which
    // takes `--seconds` of about 25. Below that the row reads 0.
    let tail_ms: Vec<f64> =
        served.iter().chain(&traced).flat_map(|w| w.latency_ms.iter().copied()).collect();
    let ServeLayer {
        queue_wait_p50_ms,
        setup_miss_ms,
        cache_hit_rate,
        cache_evictions,
        batches,
        batch_size_mean,
        worker_imbalance,
        shed,
        fallbacks,
        ..
    } = layer;
    println!(
        "{}: {} waves x 3 campaigns, {} requests each",
        opts.workload,
        served.len(),
        latency_ms.len()
    );
    result.set("core.first_solve_s", served[0].seconds);
    let iterations: Vec<f64> =
        served.iter().flat_map(|w| w.iterations.iter().map(|&i| i as f64)).collect();
    result.set("core.outer_iterations", median(&iterations));
    result.set("serve.request_p90_ms", percentile(&tail_ms, 0.90).unwrap_or(0.0));
    result.set("serve.queue_wait_p50_ms", queue_wait_p50_ms);
    result.set("serve.setup_miss_ms", setup_miss_ms);
    result.set("serve.cache_hit_rate", cache_hit_rate);
    result.set("serve.cache_evictions", cache_evictions);
    result.set("serve.batches", batches);
    result.set("serve.batch_size_mean", batch_size_mean);
    result.set("serve.wave_speedup_w2", wave_s(&one_worker) / wave_s(&served));
    result.set("serve.worker_imbalance", worker_imbalance);
    result.set("serve.shed", shed);
    result.set("serve.fallbacks", fallbacks);
    result.set("serve.submit_us", median(&all(&|w| &w.submit_us)));
    result.set("trace.overhead_frac", wave_s(&traced) / wave_s(&served) - 1.0);
    result.set("trace.span_count", (client_spans.len() + traced_layer.sink_events) as f64);
    drop(ensemble);

    write_spans(opts, &[(0, client_spans)]);
    kernel_rows(&mut result, opts);
    zero_untouched(&mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately wrong solution must count as a failure even though
    /// the solver reported convergence.
    #[test]
    fn a_wrong_solution_trips_the_failure_count() {
        let shape = shape("dd_single", true);
        let (gauge, sources) = layers::make_inputs(&shape, 0, 1, 1);
        let (solver, _) = DdSingle::setup(gauge, &shape);
        let mut result = RunResult::default();
        let mut solved = solver.solve(&sources[0]);
        assert!(solved.converged);
        account(&mut result, &solver, &shape, &sources[0], &solved);
        assert_eq!((result.attempted, result.failed), (1, 0));

        let site = solved.x.site_mut(0);
        *site = site.scale(1.0 + 1e-6);
        account(&mut result, &solver, &shape, &sources[0], &solved);
        assert_eq!((result.attempted, result.failed), (2, 1));
        assert!(!result.correct());

        assert!(oracle_accepts(9.9e-9, 1e-9));
        assert!(!oracle_accepts(1.1e-8, 1e-9));
        assert!(!oracle_accepts(f64::NAN, 1e-9));
    }

    #[test]
    fn the_seed_changes_the_inputs_but_not_the_iteration_count() {
        let shape = shape("dd_half_mixed", true);
        let run = |seed| {
            let (gauge, sources) = layers::make_inputs(&shape, 0, 1, seed);
            let (solver, _) = DdHalfMixed::setup(gauge, &shape);
            let solved = solver.solve(&sources[0]);
            let mut digest = Digest::default();
            digest.update(layers::field_values(&sources[0]));
            (solved.iterations, digest.hex())
        };
        let (its_a, src_a) = run(1);
        let (its_b, src_b) = run(2);
        assert_eq!(run(1), (its_a, src_a.clone()), "the same seed gives the same inputs");
        assert_ne!(src_a, src_b, "another seed gives other inputs");
        assert_eq!(its_a, its_b, "a gauge transformation leaves the iteration count alone");
    }
}
