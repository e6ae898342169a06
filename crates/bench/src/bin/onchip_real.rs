//! Measured (not modeled) on-chip scaling of the real multiplicative
//! Schwarz preconditioner on the host CPU: the validation companion to
//! Fig. 5. The absolute rates are host-dependent; the *shape* — near-linear
//! scaling while domains outnumber workers, plateaus from load imbalance —
//! is the paper's on-chip story.
//!
//! Run: `cargo run -p qdd-bench --bin onchip_real --release`

use qdd_bench::{test_operator, test_source};
use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_lattice::{load, Dims};
use qdd_util::stats::SolveStats;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    workers: usize,
    seconds: f64,
    speedup: f64,
    gflops: f64,
    load: f64,
}

fn main() {
    let dims = Dims::new(16, 8, 8, 8); // 16 domains of 4^4 per color
    let block = Dims::new(4, 4, 4, 4);
    let cfg = SchwarzConfig {
        block,
        i_schwarz: 8,
        mr: MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false },
        ..Default::default()
    };
    let op = test_operator(dims, 0.5, 0.2, 301).cast::<f32>();
    let pre = SchwarzPreconditioner::new(op, cfg).unwrap();
    let f = test_source(dims, 302).cast::<f32>();
    let ndom = load::ndomain(dims.volume(), block.volume());

    // Warm up + flop count.
    let mut stats = SolveStats::new();
    let _ = pre.apply(&f, &mut stats);
    let flops = stats.flops(qdd_util::stats::Component::PreconditionerM);

    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    println!("Measured Schwarz on-chip scaling (host has {hw} hardware threads)");
    println!("lattice {dims}, {} domains per color, ISchwarz=8, Idomain=5\n", ndom);
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>6}",
        "workers", "time [ms]", "speedup", "Gflop/s", "load"
    );

    let reps = 3;
    let mut t1 = 0.0;
    let mut report = qdd_bench::Report::new("onchip_real");
    report
        .param("dims", format!("{dims}"))
        .param("block", format!("{block}"))
        .param("ndomain", ndom)
        .param("i_schwarz", 8usize)
        .param("i_domain", 5usize)
        .param("reps", reps as usize)
        .meta("hardware_threads", hw)
        .meta("paper", "Fig. 5 shape: near-linear scaling, load-imbalance plateaus");
    for workers in [1, 2, 3, 4, 6, 8, 12, 16] {
        if workers > 2 * hw {
            break;
        }
        // Pool construction sits outside the timed region, like a real
        // solver that builds its pool once and reuses it every sweep.
        let pool = WorkerPool::new(workers);
        let start = Instant::now();
        for _ in 0..reps {
            let mut stats = SolveStats::new();
            let out = if workers == 1 {
                pre.apply(&f, &mut stats)
            } else {
                pre.apply_parallel(&f, &pool, &mut stats)
            };
            std::hint::black_box(out);
        }
        let secs = start.elapsed().as_secs_f64() / reps as f64;
        if workers == 1 {
            t1 = secs;
        }
        let l = load::load_average(ndom, workers);
        println!(
            "{:>8} {:>10.1} {:>9.2} {:>9.2} {:>5.0}%",
            workers,
            1e3 * secs,
            t1 / secs,
            flops / secs / 1e9,
            100.0 * l
        );
        report.push(
            "measured",
            Point {
                workers,
                seconds: secs,
                speedup: t1 / secs,
                gflops: flops / secs / 1e9,
                load: l,
            },
        );
    }
    println!("\nExpected shape on a multi-core host: speedup tracks workers x load");
    println!("(Eq. (7)); plateaus where ceil(ndomain/workers) is constant — the Fig. 5");
    println!("steps. On a single-core host the workers time-slice and speedup stays ~1.");
    report.write();
}
