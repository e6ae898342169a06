//! `paper` — the one regenerator of the paper's experiments.
//!
//! | subcommand | experiment                                              | kind     |
//! |------------|---------------------------------------------------------|----------|
//! | `bound`    | Sec. IV-B1 single-core bound: 56 %, ~20 Gflop/s/core    | model    |
//! | `table2`   | Table II single-core Gflop/s, MR and DD x prefetch      | model    |
//! | `table3`   | Table III strong-scaling details, DD and non-DD         | model    |
//! | `fig5`     | Fig. 5 on-chip strong scaling, 1-60 cores               | model    |
//! | `fig6`     | Fig. 6 multi-node strong scaling, relative speed        | model    |
//! | `fig7`     | Fig. 7 KNC-minutes per solve                            | model    |
//! | `eq7`      | Eq. 7 hiding boundary of the staged outer apply         | model    |
//! | `halfstab` | Sec. IV-B1 half-precision stability, real solver        | measured |
//! | `ablation` | design-choice ablations (Sec. VI), real solver          | measured |
//!
//! Run: `cargo run -p qdd-bench --release --bin paper [-- <sub>... [--trace PATH]]`
//!
//! Without a subcommand every *model* regenerator runs (milliseconds; this
//! is what `scripts/verify.sh` executes, so none of them can rot); the two
//! measured ones run when named. Each prints its table next to the paper's
//! values and writes `results/<sub>.json` in the shared `Report` schema.
//! With `--trace PATH` the predicted per-component times of every DD point
//! of `table3` and `fig6` are also emitted as Chrome-trace spans (one lane
//! per point), comparable with a measured `qdd solve --trace` in one viewer.
//!
//! Measurements of *this host* are not here: they are rows of `perf/`
//! (`bash perf/run.sh`), and `bench_mr` is the measured Table II.

use qdd_bench::{test_operator, test_source, Report};
use qdd_comm::exchange::face_bytes;
use qdd_core::dd_solver::{DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE;
use qdd_lattice::{load, Dims, Dir};
use qdd_machine::chip::ChipSpec;
use qdd_machine::kernel::{
    dd_method_rate, issue_efficiency, mr_iteration_rate, wilson_clover_bound, KernelProfile,
    Precision as ModelPrecision, PrefetchMode,
};
use qdd_machine::multinode::{MultiNodeModel, SolveTimeBreakdown};
use qdd_machine::onchip::OnChipModel;
use qdd_machine::workload::{
    all_lattices, lattice_48, lattice_64, non_uniform_64, paper_block, rank_layout, Lattice,
};
use qdd_machine::{BackendKind, MachineBackend};
use qdd_trace::TraceSink;
use qdd_util::stats::{Component, SolveStats};
use serde::Serialize;

const MODEL_SUBS: [&str; 7] = ["bound", "table2", "table3", "fig5", "fig6", "fig7", "eq7"];

/// The `--trace` output shared by `table3` and `fig6`: one sink, one lane
/// per predicted DD point. Disabled, every record call is a single branch.
struct PredictedTrace {
    sink: TraceSink,
    next_tid: u32,
}

impl PredictedTrace {
    fn record(&mut self, point: &SolveTimeBreakdown, label: &str) {
        point.record_predicted_spans(&self.sink, self.next_tid, label);
        self.next_tid += 1;
    }
}

fn main() {
    let (mut subs, mut trace_path) = (Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = args.next();
        } else {
            subs.push(arg);
        }
    }
    if subs.is_empty() {
        subs = MODEL_SUBS.map(String::from).to_vec();
    }
    let mut trace = PredictedTrace {
        sink: if trace_path.is_some() { TraceSink::enabled() } else { TraceSink::disabled() },
        next_tid: 1,
    };
    for (i, sub) in subs.iter().enumerate() {
        if i > 0 {
            println!("\n{:=<100}\n", "");
        }
        match sub.as_str() {
            "bound" => bound(),
            "table2" => table2(),
            "table3" => table3(&mut trace),
            "fig5" => fig5(),
            "fig6" => fig6(&mut trace),
            "fig7" => fig7(),
            "eq7" => eq7(),
            "halfstab" => halfstab(),
            "ablation" => ablation(),
            other => {
                eprintln!(
                    "error: unknown experiment '{other}'; one of {} halfstab ablation",
                    MODEL_SUBS.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &trace_path {
        let streams = [trace.sink.stream()];
        match qdd_trace::write_trace_files(&streams, path) {
            Ok(()) => println!("\ntrace written: {path} (chrome://tracing), {path}.jsonl"),
            Err(e) => eprintln!("\ncould not write trace to {path}: {e}"),
        }
        println!("{}", qdd_trace::breakdown_table(&streams));
    }
}

/// Sec. IV-B1: FMA fraction -> 82 %, masking -> 93 %, instruction pairing
/// -> 56 % overall compute efficiency = 18 flop/cycle = ~20 Gflop/s/core.
fn bound() {
    let chip = ChipSpec::knc_7110p();
    let p = KernelProfile::schur_operator();

    println!("Sec. IV-B1 bound derivation for the Wilson-Clover kernel\n");
    println!("peak single-precision:      {:>7.1} Gflop/s/core", chip.peak_sp_gflops_per_core());
    let fma_eff = 0.5 * (1.0 + p.fma_instr_fraction);
    println!(
        "FMA efficiency:             {:>7.1} %   ({}% of compute instructions are FMAs)",
        100.0 * fma_eff,
        (100.0 * p.fma_instr_fraction) as u32
    );
    println!(
        "SIMD masking efficiency:    {:>7.1} %   (x: 14/16, y: 12/16 lanes -> ~0.93 combined)",
        100.0 * p.simd_mask_efficiency
    );
    let paired = p.pairing_found * (1.0 - p.compute_instr_fraction);
    println!(
        "issue dilution:             {:>7.1} %   ({}% compute instructions, {}% of the rest paired)",
        100.0 * p.compute_instr_fraction / (1.0 - paired),
        (100.0 * p.compute_instr_fraction) as u32,
        (100.0 * p.pairing_found) as u32
    );
    let (eff, gflops) = wilson_clover_bound(&chip);
    let flop_per_cycle = 2.0 * chip.simd_f32 as f64 * eff;
    println!("\ncombined compute efficiency: {:>6.1} %   (paper: 56 %)", 100.0 * eff);
    println!("flop/cycle/core:             {flop_per_cycle:>6.1}     (paper: 18)");
    println!("bound:                       {gflops:>6.1} Gflop/s/core (paper: ~20)");
    assert!((issue_efficiency(&p) - eff).abs() < 1e-12);

    let mut report = Report::new("bound");
    report
        .param("chip", "KNC 7110P")
        .param("kernel", "schur_operator")
        .meta("paper", "Sec. IV-B1: 56% efficiency, 18 flop/cycle, ~20 Gflop/s/core");
    for (stage, value) in [
        ("peak_sp_gflops_per_core", chip.peak_sp_gflops_per_core()),
        ("fma_efficiency", fma_eff),
        ("simd_mask_efficiency", p.simd_mask_efficiency),
        ("combined_efficiency", eff),
        ("flop_per_cycle_per_core", flop_per_cycle),
        ("bound_gflops_per_core", gflops),
    ] {
        let mut point = serde::Map::new();
        point.insert("stage".to_string(), serde::Value::from(stage));
        point.insert("value".to_string(), serde::Value::from(value));
        report.push("derivation", point);
    }
    report.write();
}

/// Table II: single-core Gflop/s of the MR iteration and the full DD
/// method, single/half precision x the three prefetch configurations.
fn table2() {
    #[derive(Serialize)]
    struct Row {
        config: &'static str,
        mr_single: f64,
        mr_half: f64,
        dd_single: f64,
        dd_half: f64,
    }
    let row = |config, v: [f64; 4]| Row {
        config,
        mr_single: v[0],
        mr_half: v[1],
        dd_single: v[2],
        dd_half: v[3],
    };
    let chip = ChipSpec::knc_7110p();
    let paper: [(&str, [f64; 4]); 3] = [
        ("no software prefetching", [5.4, 7.9, 4.1, 5.9]),
        ("L1 prefetches", [9.2, 11.8, 5.8, 7.7]),
        ("L1+L2 prefetches", [9.1, 11.8, 6.3, 8.4]),
    ];

    println!("Table II reproduction: single-core Gflop/s (model | paper)");
    println!("{:-<100}", "");
    println!(
        "{:<26} | {:>16} | {:>16} | {:>16} | {:>16}",
        "", "MR single", "MR half", "DD single", "DD half"
    );
    let mut report = Report::new("table2");
    report
        .param("chip", "KNC 7110P")
        .param("i_schwarz", 5usize)
        .meta("paper", "Table II of Heybrock et al., SC 2014 (model vs paper rows)");
    for (pf, (label, p)) in PrefetchMode::ALL.iter().zip(paper) {
        let m = [
            mr_iteration_rate(&chip, ModelPrecision::Single, *pf),
            mr_iteration_rate(&chip, ModelPrecision::Half, *pf),
            dd_method_rate(&chip, ModelPrecision::Single, *pf, 5),
            dd_method_rate(&chip, ModelPrecision::Half, *pf, 5),
        ];
        println!(
            "{:<26} | {:>7.1} | {:>6.1} | {:>7.1} | {:>6.1} | {:>7.1} | {:>6.1} | {:>7.1} | {:>6.1}",
            label, m[0], p[0], m[1], p[1], m[2], p[2], m[3], p[3]
        );
        report.push("model", row(label, m));
        report.push("paper", row(label, p));
    }
    println!("{:-<100}", "");
    println!("(left number = this model, right = paper Table II)");
    report.write();
}

/// A paper reference row of Table III: (KNCs, time, total Tflop/s, #gsums,
/// comm MB/KNC).
type PaperRow = (usize, f64, f64, u64, f64);

fn table3_dd(
    model: &MultiNodeModel,
    lat: &Lattice,
    paper: &[PaperRow],
    report: &mut Report,
    trace: &mut PredictedTrace,
) {
    println!(
        "\n{} DD (m={}, k={}, ISchwarz={}, Idomain={}, {} outer iterations)",
        lat.label,
        lat.dd.max_basis,
        lat.dd.deflate,
        lat.dd.i_schwarz,
        lat.dd.i_domain,
        lat.dd.outer_iterations
    );
    println!(
        "{:>5} {:>8} {:>6} | {:>5} {:>5} {:>5} {:>6} | {:>6} {:>6} {:>5} {:>6} | {:>9} {:>9} | {:>8} {:>10}",
        "KNCs", "ndomain", "load", "%A", "%M", "%GS", "%other", "A", "M", "GS", "other",
        "Tflop/s", "time[s]", "#gsums", "comm MB/KNC"
    );
    for &kncs in &lat.dd_knc_counts {
        let layout = rank_layout(&lat.dims, kncs).unwrap();
        let b = model.dd_solve(&lat.dims, &layout, &lat.dd);
        println!(
            "{:>5} {:>8} {:>5.0}% | {:>5.1} {:>5.1} {:>5.1} {:>6.1} | {:>6.0} {:>6.0} {:>5.0} {:>6.0} | {:>9.1} {:>9.1} | {:>8} {:>10.0}",
            b.kncs, b.ndomain, 100.0 * b.load, b.pct[0], b.pct[1], b.pct[2], b.pct[3],
            b.gflops_knc[0], b.gflops_knc[1], b.gflops_knc[2], b.gflops_knc[3],
            b.total_tflops, b.total_time_s, b.global_sums, b.comm_mb_per_knc
        );
        if let Some((_, p_time, p_tflops, p_sums, p_comm)) = paper.iter().find(|r| r.0 == kncs) {
            println!(
                "{:>5}  paper:{:>58} | {:>9.1} {:>9.1} | {:>8} {:>10.0}",
                "", "", p_tflops, p_time, p_sums, p_comm
            );
        }
        trace.record(&b, &format!("{}@{kncs}", lat.label));
        report.push(&format!("{} dd", lat.label), &b);
    }
}

fn table3_non_dd(
    model: &MultiNodeModel,
    lat: &Lattice,
    solver: &str,
    paper: &[PaperRow],
    report: &mut Report,
) {
    println!("\n{} non-DD ({solver} iterations)", lat.label);
    println!(
        "{:>5} | {:>9} {:>9} | {:>8} {:>10}",
        "KNCs", "Tflop/s", "time[s]", "#gsums", "comm MB/KNC"
    );
    for &kncs in &lat.non_dd_knc_counts {
        let layout = rank_layout(&lat.dims, kncs).unwrap();
        let b = model.non_dd_solve(&lat.dims, &layout, &lat.non_dd);
        println!(
            "{:>5} | {:>9.1} {:>9.1} | {:>8} {:>10.0}",
            b.kncs, b.total_tflops, b.total_time_s, b.global_sums, b.comm_mb_per_knc
        );
        if let Some((_, p_time, p_tflops, p_sums, p_comm)) = paper.iter().find(|r| r.0 == kncs) {
            println!(
                "{:>5}  paper: {:>9.1} {:>9.1} | {:>8} {:>10.0}",
                "", p_tflops, p_time, p_sums, p_comm
            );
        }
        report.push(&format!("{} non-dd", lat.label), &b);
    }
}

/// Table III: time breakdown, per-KNC rates, time-to-solution, global
/// sums and network traffic per KNC of the DD and non-DD solvers.
fn table3(trace: &mut PredictedTrace) {
    let model = MultiNodeModel::paper_setup();
    let mut report = Report::new("table3");
    report
        .param("setup", "MultiNodeModel::paper_setup")
        .meta("paper", "Table III of Heybrock et al., SC 2014")
        .meta("columns", "per-component % and Gflop/s per KNC, Tflop/s, time, gsums, comm");

    println!("Table III reproduction (model rows, with paper reference rows where given)");
    println!("Columns: per-component % of time, Gflop/s per KNC, total sustained Tflop/s,");
    println!("time-to-solution, number of global sums, network traffic per KNC.");

    let (lat48, lat64) = (lattice_48(), lattice_64());
    let paper48 = [
        (24, 35.4, 6.3, 423, 15593.0),
        (32, 28.6, 7.8, 423, 13156.0),
        (64, 15.9, 14.0, 423, 8040.0),
        (128, 10.3, 21.6, 423, 5116.0),
    ];
    let paper64 = [
        (64, 3.34, 17.1, 27, 488.0),
        (128, 2.3, 25.3, 27, 293.0),
        (256, 1.22, 46.8, 27, 171.0),
        (512, 0.91, 62.7, 27, 98.0),
        (1024, 0.65, 88.4, 27, 61.0),
    ];
    table3_dd(&model, &lat48, &paper48, &mut report, trace);
    table3_dd(&model, &lat64, &paper64, &mut report, trace);

    let paper48_non = [
        (12, 168.5, 0.82, 23907, 188272.0),
        (24, 101.4, 1.36, 23887, 115556.0),
        (36, 78.4, 1.77, 24012, 91848.0),
        (72, 55.9, 2.46, 23802, 48200.0),
        (144, 51.4, 2.66, 23642, 26598.0),
    ];
    let paper64_non = [
        (64, 6.1, 6.3, 1408, 2500.0),
        (128, 3.2, 11.7, 1353, 1314.0),
        (256, 2.9, 14.1, 1473, 948.0),
    ];
    let solver = format!("double-precision BiCGstab, ~{}", lat48.non_dd.iterations);
    table3_non_dd(&model, &lat48, &solver, &paper48_non, &mut report);
    let solver = format!("mixed-precision Richardson/BiCGstab, ~{} inner", lat64.non_dd.iterations);
    table3_non_dd(&model, &lat64, &solver, &paper64_non, &mut report);
    println!("\n(Paper reference rows show: total Tflop/s, time, #global-sums, comm MB/KNC.)");
    report.write();
}

/// Fig. 5: on-chip strong scaling of the DD preconditioner from 1 to 60
/// cores for the three volumes of the figure, load-imbalance plateaus
/// included.
fn fig5() {
    let model = OnChipModel::paper_setup();
    let block = paper_block();
    let volumes = [
        Dims::new(16, 8, 20, 24),  // ndomain = 60  (100% load at 60 cores)
        Dims::new(32, 32, 20, 24), // ndomain = 480 (100% load)
        Dims::new(48, 12, 12, 16), // ndomain = 108 (90% load, Sec. IV-C local volume)
    ];

    println!("Fig. 5 reproduction: DD preconditioner Gflop/s vs cores");
    println!("(ISchwarz = 16, Idomain = 5, 8x4x4x4 domains, single/half mix)\n");
    print!("{:>5}", "cores");
    for v in &volumes {
        print!(" {:>16}", format!("{v}"));
    }
    println!();

    let series: Vec<(String, usize, Vec<f64>)> = volumes
        .iter()
        .map(|v| {
            let ndomain = load::ndomain(v.volume(), block.volume());
            (format!("{v}"), ndomain, model.scaling_series(v, &block, 60))
        })
        .collect();
    for c in (0..60).step_by(2).chain([59]) {
        print!("{:>5}", c + 1);
        for (_, _, gflops) in &series {
            print!(" {:>16.1}", gflops[c]);
        }
        println!();
    }
    println!(
        "\n60-core loads: {}",
        series
            .iter()
            .map(|(v, n, _)| format!("{v} -> {:.0}%", 100.0 * load::load_average(*n, 60)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("Paper: ~450-500 Gflop/s at 60 cores for the full-load volumes.");
    let mut report = Report::new("fig5");
    report
        .param("block", format!("{block}"))
        .param("i_schwarz", 16usize)
        .param("i_domain", 5usize)
        .param("cores", 60usize)
        .meta("paper", "Fig. 5: ~450-500 Gflop/s at 60 cores for the full-load volumes")
        .meta("points", "Gflop/s of the DD preconditioner at 1..=60 cores");
    for (volume, ndomain, gflops) in &series {
        report.meta(&format!("ndomain {volume}"), *ndomain);
        for g in gflops {
            report.push(volume, *g);
        }
    }
    report.write();
}

/// Fig. 6: multi-node strong scaling — speed of the DD and non-DD solvers
/// relative to the best non-DD time-to-solution, for all three lattices
/// (plus the non-uniform partitioning points of 64^3x128).
fn fig6(trace: &mut PredictedTrace) {
    #[derive(Serialize)]
    struct Point {
        kncs: usize,
        time_s: f64,
        relative_speed: f64,
    }
    let model = MultiNodeModel::paper_setup();
    let mut report = Report::new("fig6");
    report
        .param("setup", "MultiNodeModel::paper_setup")
        .meta("paper", "Fig. 6: ~5x strong-scaling speedup of DD over non-DD on 48^3x64")
        .meta("normalization", "relative_speed = best non-DD time / time");

    for lat in all_lattices() {
        let non_dd: Vec<(usize, f64)> = lat
            .non_dd_knc_counts
            .iter()
            .map(|&k| {
                let layout = rank_layout(&lat.dims, k).unwrap();
                (k, model.non_dd_solve(&lat.dims, &layout, &lat.non_dd).total_time_s)
            })
            .collect();
        let best_non = non_dd.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let dd: Vec<(usize, f64)> = lat
            .dd_knc_counts
            .iter()
            .map(|&k| {
                let layout = rank_layout(&lat.dims, k).unwrap();
                let b = model.dd_solve(&lat.dims, &layout, &lat.dd);
                trace.record(&b, &format!("{}@{k}", lat.label));
                (k, b.total_time_s)
            })
            .collect();
        let point = |&(kncs, time_s): &(usize, f64)| Point {
            kncs,
            time_s,
            relative_speed: best_non / time_s,
        };

        // Non-uniform points (64^3x128 only, paper Sec. IV-C2): the
        // redistribution equalizes the rounds-per-core with the next
        // uniform configuration (4x28+16 gives 56/32 domains -> one round
        // per half-sweep, like the uniform 1024-KNC run), so the time
        // matches that run up to slightly larger boundaries (~5%), on
        // 5/8 of the KNCs.
        let mut dd_nu = Vec::new();
        if lat.dims.volume() == 64 * 64 * 64 * 128 {
            for (kncs, equivalent) in [(320usize, 512usize), (640, 1024)] {
                if non_uniform_64(kncs).is_some() {
                    let layout = rank_layout(&lat.dims, equivalent).unwrap();
                    let t_eq = model.dd_solve(&lat.dims, &layout, &lat.dd).total_time_s;
                    dd_nu.push(point(&(kncs, t_eq * 1.05)));
                }
            }
        }

        println!("\n=== {} (relative speed; 1.0 = best non-DD) ===", lat.label);
        println!("{:>6} {:>12} {:>10}   solver", "KNCs", "time [s]", "rel.speed");
        for (rows, solver) in [(&non_dd, "non-DD"), (&dd, "DD")] {
            for p in rows.iter().map(point) {
                println!("{:>6} {:>12.2} {:>10.2}   {solver}", p.kncs, p.time_s, p.relative_speed);
                report.push(&format!("{} {}", lat.label, solver.to_lowercase()), p);
            }
        }
        for p in &dd_nu {
            println!(
                "{:>6} {:>12.2} {:>10.2}   DD (non-uniform, preliminary)",
                p.kncs, p.time_s, p.relative_speed
            );
        }
        let best_dd = dd.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        println!(
            "--> strong-scaling speedup of DD over non-DD: {:.1}x (paper: ~5x on 48^3x64)",
            best_non / best_dd
        );
        report.meta(&format!("{} speedup", lat.label), best_non / best_dd);
        for p in dd_nu {
            report.push(&format!("{} dd non-uniform", lat.label), p);
        }
    }
    report.write();
}

/// Fig. 7: KNC-minutes consumed per complete solve, DD and non-DD, on all
/// three lattices — the cost metric of the data-analysis use case
/// (Sec. IV-C3).
fn fig7() {
    #[derive(Serialize)]
    struct CostPoint {
        kncs: usize,
        knc_minutes: f64,
    }
    let model = MultiNodeModel::paper_setup();
    let mut report = Report::new("fig7");
    report
        .param("setup", "MultiNodeModel::paper_setup")
        .meta("paper", "Fig. 7: DD is ~2x cheaper in KNC-minutes than non-DD");

    for lat in all_lattices() {
        println!("\n=== {} — cost per solve in KNC-minutes ===", lat.label);
        println!("{:>6} {:>14}   solver", "KNCs", "KNC-minutes");
        let layout = |kncs| rank_layout(&lat.dims, kncs).unwrap();
        let dd =
            lat.dd_knc_counts.iter().map(|&k| (k, model.dd_solve(&lat.dims, &layout(k), &lat.dd)));
        let non_dd = lat
            .non_dd_knc_counts
            .iter()
            .map(|&k| (k, model.non_dd_solve(&lat.dims, &layout(k), &lat.non_dd)));
        let solvers: [(&str, Vec<_>); 2] = [("DD", dd.collect()), ("non-DD", non_dd.collect())];
        let [dd_min, non_min] = solvers.map(|(solver, rows)| {
            let mut min = f64::INFINITY;
            for (kncs, b) in rows {
                let knc_minutes = model.knc_minutes(&b);
                min = min.min(knc_minutes);
                println!("{kncs:>6} {knc_minutes:>14.2}   {solver}");
                report.push(
                    &format!("{} {}", lat.label, solver.to_lowercase()),
                    CostPoint { kncs, knc_minutes },
                );
            }
            min
        });
        println!(
            "--> cheapest solve: DD {:.2} vs non-DD {:.2} KNC-minutes ({:.1}x cheaper; paper: ~2x)",
            dd_min,
            non_min,
            non_min / dd_min
        );
        report.meta(&format!("{} cost ratio", lat.label), non_min / dd_min);
    }
    report.write();
}

/// Eq. 7 on the paper's machine, for the staged outer operator apply of a
/// t-split 8^4 local lattice: both t-faces on the wire against the
/// interior compute window per core, swept over cores until the hiding
/// boundary ("cores <= ndomain/2") collapses. The measured side of the
/// same schedule is `comm.recv_wait_s` / `comm.dist_system_apply_ms` of
/// `perf/`'s `dd_dist2`; its bitwise identity is
/// `crates/comm/tests/outer_overlap_identity.rs`.
fn eq7() {
    let backend = BackendKind::Knc7110p;
    let machine: &dyn MachineBackend = backend.instance();
    let (local, block) = (Dims::new(8, 8, 8, 8), Dims::new(4, 4, 4, 4));
    let face = local.face_area(Dir::T);
    let interior_sites = local.volume() - 2 * face;
    let wire_s = machine.network().transfer_time_s(2.0 * face_bytes::<f64>(face), 2.0);
    let (_, core_gflops) = machine.wilson_clover_bound();

    println!(
        "Eq. 7 boundary of the staged outer apply on {} ({core_gflops:.1} Gflop/s/core, \
         wire {:.1} us):",
        backend.label(),
        wire_s * 1e6
    );
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "cores", "dom/core", "window [us]", "staged [us]", "bulk [us]"
    );
    let mut report = Report::new("eq7");
    let (mut ten_x, mut boundary_crossed) = (false, false);
    for cores in [1usize, 2, 4, 8, 16, 32, 60] {
        let p = machine.overlap().eq7_point(
            wire_s,
            interior_sites as f64 * TOTAL_FLOPS_PER_SITE,
            interior_sites as f64 / block.volume() as f64,
            core_gflops,
            cores,
        );
        ten_x |= p.model_staged_exposed_s * 10.0 <= p.model_bulk_exposed_s;
        boundary_crossed |= !p.hidden;
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>14.2} {:>14.2}{}",
            cores,
            p.domains_per_core,
            p.window_s * 1e6,
            p.model_staged_exposed_s * 1e6,
            p.model_bulk_exposed_s * 1e6,
            if p.hidden { "  (hidden)" } else { "" }
        );
        report.push("eq7_hiding_boundary", p);
    }
    println!("\nhiding cuts exposed comm >= 10x somewhere on the sweep: {ten_x}");
    println!("hiding boundary crossed within 60 cores: {boundary_crossed}");
    report
        .param("local", format!("{local}"))
        .param("block", format!("{block}"))
        .param("split", "t")
        .param("backend", backend.label())
        .meta("paper", "Fig. 4 schedule on the outer matvec; Eq. 7 hiding boundary vs dom/core")
        .meta("model_hiding_10x", ten_x)
        .meta("eq7_boundary_crossed", boundary_crossed);
    report.write();
}

/// The measured experiments' solver: 4^4 domains, Idomain = 4, FGMRES-DR
/// (m = 10, k = 4).
fn dd_config(tolerance: f64, max_iterations: usize, i_schwarz: usize) -> DdSolverConfig {
    DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance, max_iterations },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Sec. IV-B1 half-precision stability with the *real* solver: the
/// residual history of the DD solve with f16-compressed gauge/clover in
/// the preconditioner differs from the single-precision one by well
/// under a percent (paper: < 0.14 %).
fn halfstab() {
    #[derive(Serialize)]
    struct Comparison {
        iteration: usize,
        single: f64,
        half: f64,
        rel_diff_percent: f64,
    }
    let dims = Dims::new(8, 8, 8, 8);
    let f = test_source(dims, 202);
    let run = |precision| {
        let cfg = DdSolverConfig { precision, ..dd_config(1e-10, 200, 6) };
        let solver = DdSolver::new(test_operator(dims, 0.5, 0.1, 201), cfg).unwrap();
        let (_, out) = solver.solve(&f, &mut SolveStats::new());
        assert!(out.converged, "solver failed: {}", out.relative_residual);
        out
    };
    let single = run(Precision::Single);
    let half = run(Precision::HalfCompressed);

    println!("Half-precision preconditioner stability (paper Sec. IV-B1)");
    println!("lattice {dims}, 4^4 domains, ISchwarz=6, Idomain=4, target 1e-10\n");
    println!("{:>5} {:>14} {:>14} {:>10}", "iter", "single", "half", "diff %");
    let mut report = Report::new("halfstab");
    report
        .param("dims", format!("{dims}"))
        .param("block", "4x4x4x4")
        .param("i_schwarz", 6usize)
        .param("i_domain", 4usize)
        .param("tolerance", 1e-10);
    let n = single.history.len().min(half.history.len());
    let mut max_diff: f64 = 0.0;
    for i in 0..n {
        let (s, h) = (single.history[i], half.history[i]);
        let d = 100.0 * (s - h).abs() / s.max(1e-300);
        max_diff = max_diff.max(d);
        if i % 2 == 0 || i + 1 == n {
            println!("{:>5} {:>14.4e} {:>14.4e} {:>9.3}%", i + 1, s, h, d);
        }
        report.push(
            "comparison",
            Comparison { iteration: i + 1, single: s, half: h, rel_diff_percent: d },
        );
    }
    println!(
        "\niterations: single {}, half {}; max residual-history deviation {:.3} %",
        single.iterations, half.iterations, max_diff
    );
    println!("paper: < 0.14 % difference on a 48^3x64 lattice -> same conclusion: half-");
    println!("precision storage of gauge+clover does not affect solver convergence.");
    report
        .meta("max_rel_diff_percent", max_diff)
        .meta("paper", "< 0.14% residual-history difference on 48^3x64")
        .write();
}

/// Ablations over the design choices DESIGN.md calls out, all measured
/// with the real solver on one synthetic problem: domain size (Sec. VI:
/// smaller domains push the strong-scaling limit at the price of
/// overhead), `Idomain` and `ISchwarz`, multiplicative vs additive
/// Schwarz, the deflation count `k`, and the Sec. VI precision options
/// (f16 spinors in the block solves, mixed-precision outer solver).
fn ablation() {
    #[derive(Serialize)]
    struct Row {
        variant: String,
        outer_iterations: usize,
        global_sums: u64,
        preconditioner_gflop: f64,
        total_gflop: f64,
        converged: bool,
    }
    let base = || dd_config(1e-9, 300, 5);
    let dims = Dims::new(8, 8, 8, 8);
    let (spread, mass, seed) = (0.45, 0.1, 501);
    let f = test_source(dims, 502);
    let mut report = Report::new("ablation");
    report
        .param("dims", format!("{dims}"))
        .param("spread", spread)
        .param("mass", mass)
        .param("tolerance", 1e-9)
        .meta("note", "all rows measured with the real solver on one synthetic problem");

    let mut run = |section: &str, label: String, cfg: DdSolverConfig, mixed: Option<f64>| {
        let solver = DdSolver::new(test_operator(dims, spread, mass, seed), cfg).unwrap();
        let mut stats = SolveStats::new();
        let (_, out) = match mixed {
            Some(inner_tol) => solver.solve_mixed(&f, inner_tol, &mut stats),
            None => solver.solve(&f, &mut stats),
        };
        let row = Row {
            variant: label,
            outer_iterations: out.iterations,
            global_sums: stats.global_sums(),
            preconditioner_gflop: stats.flops(Component::PreconditionerM) / 1e9,
            total_gflop: stats.total_flops() / 1e9,
            converged: out.converged,
        };
        println!(
            "{:<40} {:>6} {:>7} {:>12.2} {:>11.2} {:>6}",
            row.variant,
            row.outer_iterations,
            row.global_sums,
            row.preconditioner_gflop,
            row.total_gflop,
            if row.converged { "ok" } else { "FAIL" }
        );
        report.push(section, row);
    };

    println!("Ablation study on {dims} (synthetic configuration, target 1e-9)\n");
    println!(
        "{:<40} {:>6} {:>7} {:>12} {:>11} {:>6}",
        "variant", "iters", "gsums", "M Gflop", "tot Gflop", "conv"
    );

    println!("\n-- domain size (Sec. VI: smaller domains vs overhead) --");
    for block in
        [Dims::new(2, 2, 2, 2), Dims::new(4, 4, 2, 2), Dims::new(4, 4, 4, 4), Dims::new(8, 4, 4, 4)]
    {
        let mut cfg = base();
        cfg.schwarz.block = block;
        run("block size", format!("block {block}"), cfg, None);
    }

    println!("\n-- Idomain (MR iterations per block) --");
    for idom in [1usize, 2, 4, 8] {
        let mut cfg = base();
        cfg.schwarz.mr.iterations = idom;
        run("i_domain", format!("Idomain {idom}"), cfg, None);
    }

    println!("\n-- ISchwarz (sweeps per preconditioner application) --");
    for isch in [1usize, 2, 5, 10, 16] {
        let mut cfg = base();
        cfg.schwarz.i_schwarz = isch;
        run("i_schwarz", format!("ISchwarz {isch}"), cfg, None);
    }

    println!("\n-- Schwarz variant --");
    run("schwarz variant", "multiplicative".into(), base(), None);
    let mut cfg = base();
    cfg.schwarz.additive = true;
    run("schwarz variant", "additive".into(), cfg, None);

    println!("\n-- outer deflation k --");
    for k in [0usize, 2, 4, 8] {
        let mut cfg = base();
        cfg.fgmres.deflate = k;
        run("deflation", format!("deflate k={k}"), cfg, None);
    }

    println!("\n-- precision options (Sec. III-B + Sec. VI future work) --");
    run("precision", "f32 everything (baseline)".into(), base(), None);
    let mut cfg = base();
    cfg.precision = Precision::HalfCompressed;
    run("precision", "f16 gauge+clover (paper default)".into(), cfg, None);
    cfg.schwarz.mr.f16_vectors = true;
    run("precision", "f16 gauge+clover+spinors (future work)".into(), cfg, None);
    run("precision", "mixed f32 outer (future work)".into(), base(), Some(1e-4));

    println!("\nReading guide: iterations fall as the preconditioner strengthens (bigger");
    println!("blocks, more Idomain/ISchwarz) while M flops rise — the tradeoff the");
    println!("paper tunes. Precision variants should match the baseline iteration count");
    println!("to within a few iterations at a fraction of the data volume.");
    report.write();
}
