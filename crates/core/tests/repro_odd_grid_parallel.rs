//! Regression: `apply_parallel` with an ODD domain-grid extent (3 domains
//! in x). Adjacent same-color domains across the periodic wrap would break
//! the coloring discipline the unsafe `SharedSpinors` contract relies on —
//! the preconditioner must refuse loudly instead of racing.

use qdd_core::mr::MrConfig;
use qdd_core::pool::WorkerPool;
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;

fn odd_grid_preconditioner() -> (SchwarzPreconditioner<f64>, SpinorField<f64>) {
    let dims = Dims::new(12, 8, 4, 4); // 3 domains in x with a 4x4x2x2 block
    let block = Dims::new(4, 4, 2, 2);
    let mut rng = Rng64::new(55);
    let g = GaugeField::random(dims, &mut rng, 0.5);
    let basis = GammaBasis::degrand_rossi();
    let c = build_clover_field(&g, 1.5, &basis);
    let op = WilsonClover::new(g, c, 0.2, BoundaryPhases::antiperiodic_t());
    let cfg = SchwarzConfig {
        block,
        i_schwarz: 3,
        mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
        ..Default::default()
    };
    let pre = SchwarzPreconditioner::new(op, cfg).unwrap();
    let f = SpinorField::<f64>::random(dims, &mut rng);
    (pre, f)
}

#[test]
#[should_panic(expected = "is odd: two-coloring breaks")]
fn parallel_refuses_odd_domain_grid() {
    let (pre, f) = odd_grid_preconditioner();
    let mut stats = SolveStats::new();
    let pool = WorkerPool::new(4);
    let _ = pre.apply_parallel(&f, &pool, &mut stats);
}

#[test]
fn serial_still_works_on_odd_domain_grid() {
    // The serial sweep is race-free by construction (the 2-coloring is a
    // performance/math nicety there, not a safety requirement).
    let (pre, f) = odd_grid_preconditioner();
    let mut stats = SolveStats::new();
    let u = pre.apply(&f, &mut stats);
    assert!(u.norm_sqr() > 0.0);
}
