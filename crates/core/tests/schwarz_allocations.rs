//! The Schwarz sweep allocates per application, not per block update: every
//! worker takes its block-solve workspace once, so the allocation count of
//! one `apply_parallel` is independent of domains x sweeps. (One test in
//! this binary: the counter is process-wide.)

use qdd_core::{MrConfig, SchwarzConfig, SchwarzPreconditioner, WorkerPool};
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::rng::Rng64;
use qdd_util::stats::SolveStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one warmed two-worker application.
fn allocations_per_apply(dims: Dims, i_schwarz: usize) -> u64 {
    let mut rng = Rng64::new(7);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, 0.5);
    let clover = build_clover_field(&gauge, 1.5, &GammaBasis::degrand_rossi());
    let op = WilsonClover::new(gauge, clover, 0.2, BoundaryPhases::antiperiodic_t()).cast::<f32>();
    let cfg = SchwarzConfig {
        block: Dims::new(4, 4, 4, 4),
        i_schwarz,
        mr: MrConfig { iterations: 4, ..Default::default() },
        ..Default::default()
    };
    let pre = SchwarzPreconditioner::new(op, cfg).expect("clover blocks invertible");
    let f = SpinorField::<f32>::random(dims, &mut rng);
    let pool = WorkerPool::new(2);
    let mut stats = SolveStats::new();
    let warm = pre.apply_parallel(&f, &pool, &mut stats);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = pre.apply_parallel(&f, &pool, &mut stats);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(warm.as_slice(), again.as_slice());
    after - before
}

#[test]
fn allocations_do_not_scale_with_domains_or_sweeps() {
    let small = Dims::new(8, 8, 8, 8);
    let large = Dims::new(8, 8, 8, 16);
    let counts = [
        allocations_per_apply(small, 1),
        allocations_per_apply(small, 5),
        allocations_per_apply(large, 1),
        allocations_per_apply(large, 5),
    ];
    assert!(counts.iter().all(|&c| c == counts[0]), "allocations per apply: {counts:?}");
    // Two workers' workspaces (a box and seven two-parity block vectors
    // each), the result, the schedule: a few dozen, where the scalar path
    // made seven per block update (80 updates on the small lattice alone).
    assert!(counts[0] <= 48, "allocations per apply: {counts:?}");
}
