//! Reproduces the Sec. IV-B1 half-precision stability experiment with the
//! *real* solver: the residual-vs-iteration history of the DD solve with
//! f16-compressed gauge/clover in the preconditioner differs from the
//! single-precision version by well under a percent (paper: < 0.14 %).
//!
//! Run: `cargo run -p qdd-bench --bin halfstab --release`

use qdd_bench::{test_operator, test_source};
use qdd_core::dd_solver::{DdSolver, DdSolverConfig, Precision};
use qdd_core::fgmres_dr::FgmresConfig;
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_lattice::Dims;
use qdd_util::stats::SolveStats;
use serde::Serialize;

#[derive(Serialize)]
struct Comparison {
    iteration: usize,
    single: f64,
    half: f64,
    rel_diff_percent: f64,
}

fn main() {
    let dims = Dims::new(8, 8, 8, 8);
    let cfg = |precision| DdSolverConfig {
        fgmres: FgmresConfig { max_basis: 10, deflate: 4, tolerance: 1e-10, max_iterations: 200 },
        schwarz: SchwarzConfig {
            block: Dims::new(4, 4, 4, 4),
            i_schwarz: 6,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        precision,
        ..Default::default()
    };
    let f = test_source(dims, 202);

    let run = |precision| {
        let solver = DdSolver::new(test_operator(dims, 0.5, 0.1, 201), cfg(precision)).unwrap();
        let mut stats = SolveStats::new();
        let (_, out) = solver.solve(&f, &mut stats);
        assert!(out.converged, "solver failed: {}", out.relative_residual);
        out
    };
    let single = run(Precision::Single);
    let half = run(Precision::HalfCompressed);

    println!("Half-precision preconditioner stability (paper Sec. IV-B1)");
    println!("lattice {dims}, 4^4 domains, ISchwarz=6, Idomain=4, target 1e-10\n");
    println!("{:>5} {:>14} {:>14} {:>10}", "iter", "single", "half", "diff %");
    let mut report = qdd_bench::Report::new("halfstab");
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
