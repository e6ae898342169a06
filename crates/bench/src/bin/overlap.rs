//! Measured communication hiding in the distributed Schwarz sweep
//! (paper Fig. 4): exposed communication time with the staged
//! boundary-first schedule versus the bulk exchange, next to the
//! machine model's prediction for the same traffic.
//!
//! "Exposed" is measured, not modeled: the SPMD runtime times every
//! blocking face receive (`recv_wait_s`), so a face that was already in
//! the channel when the sweep came to drain it — because it was packed
//! and sent while interior domains were still computing — costs ~zero,
//! while a face the receiver had to sit and wait for is charged at wall
//! clock. The same solve runs with `overlap` on and off; arithmetic is
//! bitwise identical (asserted), only the wait changes.
//!
//! Run: `cargo run -p qdd-bench --release --bin overlap [-- --smoke]`

use qdd_comm::dist_schwarz::DistSchwarz;
use qdd_comm::runtime::{run_spmd, CommWorld};
use qdd_comm::scatter::{scatter_clover, scatter_field, scatter_gauge};
use qdd_core::mr::MrConfig;
use qdd_core::schwarz::SchwarzConfig;
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::{Dims, RankGrid};
use qdd_machine::{BackendKind, MachineBackend};
use qdd_util::rng::Rng64;
use qdd_util::stats::{Component, SolveStats};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ModeResult {
    overlap: bool,
    /// Mean blocked-receive seconds per rank per preconditioner apply.
    exposed_s: f64,
    /// Exposed seconds as a fraction of the apply wall time.
    exposed_fraction: f64,
    /// Mean apply wall time (seconds).
    wall_s: f64,
    /// Payload bytes received per rank per apply.
    bytes_received: f64,
}

fn run_mode(
    overlap: bool,
    reps: usize,
    grid: &RankGrid,
    cfg: SchwarzConfig,
    local_gauge: &[qdd_field::fields::GaugeField<f32>],
    local_clover: &[qdd_field::fields::CloverField<f32>],
    f_local: &[SpinorField<f32>],
) -> (ModeResult, Vec<SpinorField<f32>>) {
    let ranks = grid.num_ranks();
    let mut wait_sum = 0.0;
    let mut recv_sum = 0.0;
    let mut wall_sum = 0.0;
    let mut check: Vec<SpinorField<f32>> = Vec::new();
    let mut cfg = cfg;
    cfg.overlap = overlap;
    for _ in 0..reps {
        let world = CommWorld::new(grid.clone());
        let start = Instant::now();
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                local_gauge[r].clone(),
                local_clover[r].clone(),
                0.2,
                qdd_dirac::wilson::BoundaryPhases::antiperiodic_t(),
            );
            let pre = DistSchwarz::new(ctx, &op, cfg).unwrap();
            let mut stats = SolveStats::new();
            let u = pre.apply(&f_local[r], &mut stats);
            (u, ctx.counters.recv_wait_s.get(), stats.comm_recv_bytes(Component::PreconditionerM))
        });
        wall_sum += start.elapsed().as_secs_f64();
        wait_sum += results.iter().map(|r| r.1).sum::<f64>() / ranks as f64;
        recv_sum += results.iter().map(|r| r.2).sum::<f64>() / ranks as f64;
        check = results.into_iter().map(|r| r.0).collect();
    }
    let wall = wall_sum / reps as f64;
    let exposed = wait_sum / reps as f64;
    (
        ModeResult {
            overlap,
            exposed_s: exposed,
            exposed_fraction: exposed / wall.max(f64::MIN_POSITIVE),
            wall_s: wall,
            bytes_received: recv_sum / reps as f64,
        },
        check,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Overlap validation and the wire-time footnote price against the
    // active machine backend (default: the paper's KNC, whose overlap
    // and network models reproduce the historical hard-coded numbers).
    let backend = std::env::args()
        .find_map(|a| a.strip_prefix("--backend=").map(str::to_string))
        .map(|s| BackendKind::parse(&s).unwrap_or_else(|| panic!("unknown backend {s}")))
        .unwrap_or(BackendKind::Knc7110p);
    // t-split only; local domain grid (2,2,2,4): 16 t-boundary domains
    // whose faces go out early, 16 interior domains that hide the wires.
    let (global, rank_dims, i_schwarz, reps) = if smoke {
        (Dims::new(8, 8, 8, 32), Dims::new(1, 1, 1, 2), 2, 3)
    } else {
        (Dims::new(8, 8, 8, 64), Dims::new(1, 1, 1, 4), 4, 5)
    };
    let block = Dims::new(4, 4, 4, 4);
    let cfg = SchwarzConfig {
        block,
        i_schwarz,
        mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
        ..Default::default()
    };
    let grid = RankGrid::new(global, rank_dims);
    let mut rng = Rng64::new(401);
    let gauge = qdd_field::fields::GaugeField::<f64>::random(global, &mut rng, 0.5);
    let clover = build_clover_field(&gauge, 1.4, &GammaBasis::degrand_rossi());
    let gauge32 = gauge.cast::<f32>();
    let clover32 = clover.cast::<f32>();
    let f = SpinorField::<f64>::random(global, &mut rng).cast::<f32>();
    let local_gauge = scatter_gauge(&gauge32, &grid);
    let local_clover = scatter_clover(&clover32, &grid);
    let f_local = scatter_field(&f, &grid);

    println!("Fig. 4 communication hiding, measured ({global}, ranks {rank_dims})");
    let (with, u_with) = run_mode(true, reps, &grid, cfg, &local_gauge, &local_clover, &f_local);
    let (without, u_without) =
        run_mode(false, reps, &grid, cfg, &local_gauge, &local_clover, &f_local);

    // Hiding must not change the arithmetic.
    for (a, b) in u_with.iter().zip(&u_without) {
        assert_eq!(a.as_slice(), b.as_slice(), "overlap changed the result bits");
    }

    // Model validation. The honest communication cost on *this* host is
    // what the un-hidden schedule actually exposed (the runtime's channels
    // are far faster than FDR IB, so a wire model would undershoot); the
    // overlap model then predicts how much of that cost the Fig. 4
    // schedule hides given the measured per-round compute window.
    let local = *grid.local();
    let machine: &dyn MachineBackend = backend.instance();
    let net = machine.network();
    let rounds = 2 * i_schwarz;
    let exchange_rounds = (rounds - 1) as f64;
    let comm_per_dir = [0.0, 0.0, 0.0, without.exposed_s];
    let compute_round_s = (with.wall_s - with.exposed_s) / rounds as f64;
    let validation = machine.validate_overlap(&comm_per_dir, compute_round_s, true, with.exposed_s);
    // Stampede wire-time footnote: what the same masked t-faces would cost
    // per apply on the paper's FDR fabric.
    let face_bytes = (local.face_area(qdd_lattice::Dir::T) / 2 * 12 * 4) as f64;
    let stampede_wire_s = net.transfer_time_s(2.0 * face_bytes, 2.0) * exchange_rounds;

    println!("{:>12} {:>14} {:>12} {:>12}", "mode", "exposed [us]", "fraction", "wall [ms]");
    for m in [&with, &without] {
        println!(
            "{:>12} {:>14.1} {:>12.4} {:>12.2}",
            if m.overlap { "fig4" } else { "bulk" },
            m.exposed_s * 1e6,
            m.exposed_fraction,
            m.wall_s * 1e3
        );
    }
    println!(
        "model: predicted exposed {:.1} us, measured/model ratio {:.3}",
        validation.predicted_exposed_s * 1e6,
        validation.ratio
    );

    let mut report = qdd_bench::Report::new("BENCH_overlap");
    report
        .param("dims", format!("{global}"))
        .param("ranks", format!("{rank_dims}"))
        .param("block", format!("{block}"))
        .param("i_schwarz", i_schwarz)
        .param("reps", reps)
        .param("smoke", smoke)
        .param("backend", backend.label())
        .meta("paper", "Fig. 4b/4c: t full-face early, x/y/z in halves, receives drained lazily")
        .meta("hiding_wins", with.exposed_s < without.exposed_s)
        .meta("measured_exposed_s", with.exposed_s)
        .meta("no_overlap_exposed_s", without.exposed_s)
        .meta("predicted_exposed_s", validation.predicted_exposed_s)
        .meta("measured_over_model", validation.ratio)
        .meta("stampede_wire_s", stampede_wire_s);
    report.push("modes", &with);
    report.push("modes", &without);
    report.write();
    println!("\nresults/BENCH_overlap.json written");

    if with.exposed_s >= without.exposed_s {
        println!(
            "WARNING: hiding did not reduce exposed time on this host \
             ({:.1} us vs {:.1} us)",
            with.exposed_s * 1e6,
            without.exposed_s * 1e6
        );
    }
}
