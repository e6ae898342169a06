//! Ablation study over the design choices DESIGN.md calls out (all
//! *measured* with the real solver on one synthetic problem):
//!
//! 1. domain (block) size — the paper's Sec. VI "smaller domains could be
//!    used to push the strong-scaling limit ... at the expense of
//!    increased overhead";
//! 2. `Idomain` (MR iterations per block) and `ISchwarz` (sweeps);
//! 3. multiplicative vs additive Schwarz;
//! 4. deflation count `k` of the outer FGMRES-DR;
//! 5. the Sec. VI future-work precision options: f16 spinor storage in the
//!    block solves, and the mixed-precision (f32) outer solver.
//!
//! Run: `cargo run -p qdd-bench --bin ablation --release`

use qdd_bench::{test_operator, test_source};
use qdd_core::dd_solver::{DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_lattice::Dims;
use qdd_util::stats::{Component, SolveStats};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    outer_iterations: usize,
    global_sums: u64,
    preconditioner_gflop: f64,
    total_gflop: f64,
    converged: bool,
}

fn base_config() -> DdSolverConfig {
    DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-9, max_iterations: 300 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 5,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    }
}

fn main() {
    let dims = Dims::new(8, 8, 8, 8);
    let (spread, mass, seed) = (0.45, 0.1, 501);
    let f = test_source(dims, 502);
    let mut report = qdd_bench::Report::new("ablation");
    report
        .param("dims", format!("{dims}"))
        .param("spread", spread)
        .param("mass", mass)
        .param("tolerance", 1e-9)
        .meta("note", "all rows measured with the real solver on one synthetic problem");
    let report = std::cell::RefCell::new(report);

    let run = |section: &str, label: String, cfg: DdSolverConfig, mixed: Option<f64>| {
        let solver = DdSolver::new(test_operator(dims, spread, mass, seed), cfg).unwrap();
        let mut stats = SolveStats::new();
        let (_, out) = match mixed {
            Some(inner_tol) => solver.solve_mixed(&f, inner_tol, &mut stats),
            None => solver.solve(&f, &mut stats),
        };
        println!(
            "{:<40} {:>6} {:>7} {:>12.2} {:>11.2} {:>6}",
            label,
            out.iterations,
            stats.global_sums(),
            stats.flops(Component::PreconditionerM) / 1e9,
            stats.total_flops() / 1e9,
            if out.converged { "ok" } else { "FAIL" }
        );
        report.borrow_mut().push(
            section,
            Row {
                variant: label,
                outer_iterations: out.iterations,
                global_sums: stats.global_sums(),
                preconditioner_gflop: stats.flops(Component::PreconditionerM) / 1e9,
                total_gflop: stats.total_flops() / 1e9,
                converged: out.converged,
            },
        );
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
        let mut cfg = base_config();
        cfg.schwarz.block = block;
        run("block size", format!("block {block}"), cfg, None);
    }

    println!("\n-- Idomain (MR iterations per block) --");
    for idom in [1usize, 2, 4, 8] {
        let mut cfg = base_config();
        cfg.schwarz.mr.iterations = idom;
        run("i_domain", format!("Idomain {idom}"), cfg, None);
    }

    println!("\n-- ISchwarz (sweeps per preconditioner application) --");
    for isch in [1usize, 2, 5, 10, 16] {
        let mut cfg = base_config();
        cfg.schwarz.i_schwarz = isch;
        run("i_schwarz", format!("ISchwarz {isch}"), cfg, None);
    }

    println!("\n-- Schwarz variant --");
    let cfg = base_config();
    run("schwarz variant", "multiplicative".into(), cfg, None);
    let mut cfg = base_config();
    cfg.schwarz.additive = true;
    run("schwarz variant", "additive".into(), cfg, None);

    println!("\n-- outer deflation k --");
    for k in [0usize, 2, 4, 8] {
        let mut cfg = base_config();
        cfg.fgmres.deflate = k;
        run("deflation", format!("deflate k={k}"), cfg, None);
    }

    println!("\n-- precision options (Sec. III-B + Sec. VI future work) --");
    run("precision", "f32 everything (baseline)".into(), base_config(), None);
    let mut cfg = base_config();
    cfg.precision = Precision::HalfCompressed;
    run("precision", "f16 gauge+clover (paper default)".into(), cfg, None);
    let mut cfg = base_config();
    cfg.precision = Precision::HalfCompressed;
    cfg.schwarz.mr.f16_vectors = true;
    run("precision", "f16 gauge+clover+spinors (future work)".into(), cfg, None);
    run("precision", "mixed f32 outer (future work)".into(), base_config(), Some(1e-4));

    println!("\nReading guide: iterations fall as the preconditioner strengthens (bigger");
    println!("blocks, more Idomain/ISchwarz) while M flops rise — the tradeoff the");
    println!("paper tunes. Precision variants should match the baseline iteration count");
    println!("to within a few iterations at a fraction of the data volume.");
    report.borrow().write();
}
