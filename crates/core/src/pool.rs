//! The paper's threading model: a fixed set of workers, each owning a list
//! of domains, separated by barriers between Schwarz half-sweeps.
//!
//! Paper Secs. III-C/III-D: "each core works on a domain of its own …
//! Before the next Schwarz iteration a barrier among cores ensures that
//! all boundary data have been extracted". Footnote 6: "We are using a
//! custom barrier implementation". [`SpinBarrier`] is that custom barrier
//! — a sense-reversing spinning barrier, appropriate for the short
//! synchronization intervals between half-sweeps. [`SharedSpinors`] is the
//! unsafe-but-disjoint shared-field window that lets workers update their
//! own domains of one color in place while reading neighboring
//! (other-color) sites.

use qdd_field::fields::SpinorField;
use qdd_field::spinor::Spinor;
use qdd_lattice::Dims;
use qdd_util::complex::Real;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A sense-reversing spinning barrier for a fixed number of participants.
pub struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    parties: usize,
}

impl SpinBarrier {
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0);
        Self { count: AtomicUsize::new(0), sense: AtomicBool::new(false), parties }
    }

    /// Block (spin) until all parties have arrived. Returns `true` on the
    /// last arriver (the "serial thread" slot).
    pub fn wait(&self, local_sense: &Cell<bool>) -> bool {
        let my_sense = !local_sense.get();
        local_sense.set(my_sense);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::Release);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            // Spin briefly (the common case: half-sweep intervals are
            // short), then start yielding so an oversubscribed host — many
            // simulated ranks each running a worker team — still makes
            // progress instead of burning whole schedule quanta.
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                if spins < 10_000 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

/// A window onto a spinor field that multiple workers may read and write
/// concurrently under the Schwarz coloring discipline.
///
/// # Safety contract
///
/// Callers must guarantee, for the lifetime of any concurrent use:
///
/// 1. writes from different threads target disjoint site sets (each domain
///    is owned by exactly one worker), and
/// 2. no thread reads a site that another thread may write in the same
///    barrier epoch (guaranteed by the red/black domain coloring: a
///    half-sweep writes only sites of the active color and reads only
///    sites of the active domain plus its opposite-color neighbors).
#[derive(Copy, Clone)]
pub struct SharedSpinors<T: Real> {
    ptr: *mut Spinor<T>,
    len: usize,
}

unsafe impl<T: Real> Send for SharedSpinors<T> {}
unsafe impl<T: Real> Sync for SharedSpinors<T> {}

impl<T: Real> SharedSpinors<T> {
    pub fn new(data: &mut [Spinor<T>]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read one site.
    ///
    /// # Safety
    /// The coloring discipline above must hold.
    #[inline]
    pub unsafe fn read(&self, idx: usize) -> Spinor<T> {
        debug_assert!(idx < self.len);
        unsafe { std::ptr::read(self.ptr.add(idx)) }
    }

    /// `site += v`.
    ///
    /// # Safety
    /// The coloring discipline above must hold and `idx` must be owned by
    /// the calling worker in this epoch.
    #[inline]
    pub unsafe fn add(&self, idx: usize, v: Spinor<T>) {
        debug_assert!(idx < self.len);
        unsafe {
            let p = self.ptr.add(idx);
            std::ptr::write(p, std::ptr::read(p).add(v));
        }
    }
}

/// A pool of reusable spinor-field workspaces for one lattice geometry.
///
/// Multi-RHS batches (and long-running solve services) churn through
/// temporary fields — true-residual buffers, operator outputs — whose
/// allocation cost and page-faulting would otherwise be paid per right-hand
/// side. The pool hands out zeroed fields and takes them back, so steady
/// state performs no allocation at all; [`WorkspacePool::allocations`]
/// counts the fields ever allocated, which tests use to assert reuse.
///
/// Changing geometry drops the cached fields (they cannot be recycled);
/// a single pool therefore serves a worker that migrates between lattice
/// sizes, always holding workspaces for the current one only.
pub struct WorkspacePool<T: Real> {
    dims: Option<Dims>,
    free: Vec<SpinorField<T>>,
    allocations: usize,
}

impl<T: Real> WorkspacePool<T> {
    pub fn new() -> Self {
        Self { dims: None, free: Vec::new(), allocations: 0 }
    }

    /// A zeroed field of geometry `dims`, recycled if one is available.
    pub fn acquire(&mut self, dims: Dims) -> SpinorField<T> {
        if self.dims != Some(dims) {
            self.free.clear();
            self.dims = Some(dims);
        }
        match self.free.pop() {
            Some(mut f) => {
                f.set_zero();
                f
            }
            None => {
                self.allocations += 1;
                SpinorField::zeros(dims)
            }
        }
    }

    /// Return a field for reuse. Fields of a stale geometry are dropped.
    pub fn release(&mut self, f: SpinorField<T>) {
        if self.dims == Some(*f.dims()) {
            self.free.push(f);
        }
    }

    /// Total fields ever allocated (not handed out from the free list).
    #[inline]
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Fields currently parked in the free list.
    #[inline]
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

impl<T: Real> Default for WorkspacePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A raw window onto a mutable slice that pool workers write disjointly
/// (per-worker partial sums, per-block output ranges). The generic sibling
/// of [`SharedSpinors`].
///
/// # Safety contract
/// Concurrent users must write disjoint index sets and must not read an
/// index another thread may write within the same job.
pub struct SharedCells<V> {
    ptr: *mut V,
    len: usize,
}

unsafe impl<V: Send> Send for SharedCells<V> {}
unsafe impl<V: Send> Sync for SharedCells<V> {}

impl<V> SharedCells<V> {
    pub fn new(data: &mut [V]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrite one cell.
    ///
    /// # Safety
    /// `idx` must be in bounds and owned by the calling worker for the
    /// duration of the job.
    #[inline]
    pub unsafe fn write(&self, idx: usize, v: V) {
        debug_assert!(idx < self.len);
        unsafe { std::ptr::write(self.ptr.add(idx), v) }
    }

    /// A mutable sub-slice.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every range any other
    /// worker touches for the duration of the job.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [V] {
        debug_assert!(range.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// A shared read-only reference to one cell.
    ///
    /// # Safety
    /// No thread may write `idx` (via [`Self::write`] or
    /// [`Self::slice_mut`]) while the returned reference is live — writer
    /// and reader epochs must be separated by a barrier.
    #[inline]
    pub unsafe fn get(&self, idx: usize) -> &V {
        debug_assert!(idx < self.len);
        unsafe { &*self.ptr.add(idx) }
    }
}

/// A reference laundered for capture by a `Sync` pool job while the
/// pointee stays confined to the team's leader — worker 0, which
/// [`WorkerPool::run`] executes on the calling thread itself.
///
/// The distributed Schwarz sweep needs this: its per-rank communication
/// context is `Cell`/`RefCell`-based (deliberately `!Sync` — one context
/// per rank thread), yet the sweep body runs as a pool job. Wrapping the
/// reference asserts the discipline "only worker 0, i.e. the thread that
/// owns the context, ever dereferences it", which keeps the single-thread
/// invariant of the pointee intact.
///
/// # Safety contract
/// [`LeaderOnly::get`] may only be called from the thread that created
/// the wrapper (worker 0 of the job it was built for).
pub struct LeaderOnly<'a, V: ?Sized> {
    ptr: *const V,
    _life: std::marker::PhantomData<&'a V>,
}

unsafe impl<V: ?Sized> Send for LeaderOnly<'_, V> {}
unsafe impl<V: ?Sized> Sync for LeaderOnly<'_, V> {}

impl<'a, V: ?Sized> LeaderOnly<'a, V> {
    pub fn new(v: &'a V) -> Self {
        Self { ptr: v, _life: std::marker::PhantomData }
    }

    /// The wrapped reference.
    ///
    /// # Safety
    /// Must be called from the thread that constructed the wrapper (the
    /// pool job's worker 0).
    #[inline]
    pub unsafe fn get(&self) -> &'a V {
        unsafe { &*self.ptr }
    }
}

/// The number of workers a pool should actually use: the `QDD_WORKERS`
/// environment variable overrides the configured count when set to a
/// positive integer; otherwise the configured value (clamped to >= 1).
pub fn resolve_workers(configured: usize) -> usize {
    match std::env::var("QDD_WORKERS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => configured.max(1),
    }
}

/// A job dispatched to the pool, with its lifetime erased. Sound because
/// [`WorkerPool::run`] does not return until every worker has finished the
/// job, so the erased borrow never outlives the real one.
#[derive(Copy, Clone)]
struct JobRef(&'static (dyn Fn(usize) + Sync));

struct PoolState {
    job: Option<JobRef>,
    /// Bumped once per dispatched job; workers use it to detect new work.
    generation: u64,
    /// Helper threads still inside the current job.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new job (or shutdown) is posted.
    go: Condvar,
    /// Signalled when the last helper finishes a job.
    done: Condvar,
}

/// A persistent team of workers, created once and reused across Schwarz
/// sweeps, fused operator applications, and blocked reductions.
///
/// The paper's execution model keeps one thread per core alive for the
/// whole solve (Sec. III-C); respawning an OS thread team per
/// preconditioner sweep — as the previous `crossbeam::scope` path did —
/// costs more than a domain solve. The pool spawns `workers - 1` helper
/// threads up front (none at all for a single worker) and parks them on a
/// condvar between jobs. [`WorkerPool::run`] hands every worker, including
/// the calling thread as worker 0, the same closure of `worker_id`, and
/// returns only when all of them are done — a fork/join barrier per job.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    jobs: AtomicU64,
}

impl WorkerPool {
    /// A pool of `workers` workers (clamped to >= 1). With one worker no
    /// threads are spawned and `run` degenerates to a plain call.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { job: None, generation: 0, active: 0, shutdown: false }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qdd-worker-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles, workers, jobs: AtomicU64::new(0) }
    }

    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total jobs dispatched over the pool's lifetime (the `par.jobs`
    /// metric).
    #[inline]
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Execute `job(worker_id)` on every worker, `worker_id` in
    /// `0..workers`. The calling thread runs worker 0; the call returns
    /// once all workers have finished (fork/join semantics). Jobs must not
    /// dispatch nested jobs on the same pool.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if self.workers == 1 {
            job(0);
            return;
        }
        // Erase the borrow for the helper threads; `run` blocks until they
        // are all done with it (see JobRef).
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.active == 0, "nested WorkerPool::run");
            st.job = Some(JobRef(erased));
            st.generation += 1;
            st.active = self.workers - 1;
            self.shared.go.notify_all();
        }
        job(0);
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }
}

impl qdd_dirac::fused_full::ParallelRunner for WorkerPool {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        WorkerPool::run(self, job)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.go.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, wid: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("job posted with generation bump");
                }
                st = shared.go.wait(st).unwrap();
            }
        };
        (job.0)(wid);
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Blocked assignment of `n` work items to `workers` workers (the paper's
/// domain-to-core mapping, see `qdd-lattice::load::core_assignment`).
pub fn blocked_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    (0..workers).map(|w| blocked_range(n, workers, w)).collect()
}

/// Worker `w`'s range of [`blocked_ranges`], without the allocation.
#[inline]
pub fn blocked_range(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    let rounds = n.div_ceil(workers);
    (w * rounds).min(n)..((w + 1) * rounds).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronizes_phases() {
        // Each of N threads increments a phase counter; the barrier must
        // prevent any thread from running ahead.
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let phase_sum = AtomicU64::new(0);
        crossbeam::scope(|s| {
            for _ in 0..n {
                s.spawn(|_| {
                    let sense = Cell::new(false);
                    for round in 0..50u64 {
                        phase_sum.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(&sense);
                        // After the barrier, all n increments of this round
                        // must be visible.
                        let seen = phase_sum.load(Ordering::SeqCst);
                        assert!(seen >= (round + 1) * n as u64, "round {round}: {seen}");
                        barrier.wait(&sense);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(phase_sum.load(Ordering::SeqCst), 50 * n as u64);
    }

    #[test]
    fn barrier_reports_single_leader() {
        let n = 8;
        let barrier = SpinBarrier::new(n);
        let leaders = AtomicUsize::new(0);
        crossbeam::scope(|s| {
            for _ in 0..n {
                s.spawn(|_| {
                    let sense = Cell::new(false);
                    for _ in 0..20 {
                        if barrier.wait(&sense) {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        barrier.wait(&sense);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(leaders.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn shared_spinors_disjoint_parallel_writes() {
        let n = 64;
        let mut data = vec![Spinor::<f64>::ZERO; n];
        let shared = SharedSpinors::new(&mut data);
        let ranges = blocked_ranges(n, 4);
        crossbeam::scope(|s| {
            for r in &ranges {
                let r = r.clone();
                s.spawn(move |_| {
                    for i in r {
                        let mut v = Spinor::<f64>::ZERO;
                        v.set_component(0, qdd_util::complex::Complex::real(i as f64));
                        unsafe { shared.add(i, v) };
                    }
                });
            }
        })
        .unwrap();
        for (i, s) in data.iter().enumerate() {
            assert_eq!(s.component(0).re, i as f64);
        }
    }

    #[test]
    fn worker_pool_runs_every_worker() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let hits: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
            for _ in 0..25 {
                pool.run(&|w| {
                    hits[w].fetch_add(1, Ordering::SeqCst);
                });
            }
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 25, "worker {w} of {workers}");
            }
            assert_eq!(pool.jobs_dispatched(), 25);
        }
    }

    #[test]
    fn worker_pool_joins_on_run_return() {
        // Every worker's side effect must be visible when `run` returns.
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 64];
        for round in 1..=10u64 {
            let ranges = blocked_ranges(data.len(), 4);
            let ptr = SharedCells::new(&mut data);
            pool.run(&|w| {
                for i in ranges[w].clone() {
                    unsafe { ptr.write(i, round) };
                }
            });
            assert!(data.iter().all(|&v| v == round), "round {round}");
        }
    }

    #[test]
    fn worker_pool_supports_barriers_inside_jobs() {
        let workers = 4;
        let pool = WorkerPool::new(workers);
        let barrier = SpinBarrier::new(workers);
        let phase_sum = AtomicU64::new(0);
        pool.run(&|_| {
            let sense = Cell::new(false);
            for round in 0..20u64 {
                phase_sum.fetch_add(1, Ordering::SeqCst);
                barrier.wait(&sense);
                let seen = phase_sum.load(Ordering::SeqCst);
                assert!(seen >= (round + 1) * workers as u64);
                barrier.wait(&sense);
            }
        });
        assert_eq!(phase_sum.load(Ordering::SeqCst), 20 * workers as u64);
    }

    #[test]
    fn leader_only_and_epoch_reads_roundtrip() {
        // Leader (worker 0) mutates in one epoch; everyone reads in the
        // next, separated by a barrier — the EpochShared pattern used by
        // the distributed Schwarz halo.
        let workers = 4;
        let pool = WorkerPool::new(workers);
        let mut slot = vec![0u64];
        let shared = SharedCells::new(&mut slot);
        let barrier = SpinBarrier::new(workers);
        let probe = std::cell::Cell::new(0u64);
        let leader_state = LeaderOnly::new(&probe);
        let seen: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        pool.run(&|w| {
            let sense = Cell::new(false);
            if w == 0 {
                // SAFETY: worker 0 runs on the constructing thread.
                unsafe { leader_state.get() }.set(7);
                // SAFETY: no reader before the barrier.
                unsafe { shared.write(0, 42) };
            }
            barrier.wait(&sense);
            // SAFETY: no writer after the barrier.
            seen[w].store(unsafe { *shared.get(0) }, Ordering::SeqCst);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::SeqCst), 42);
        }
        assert_eq!(probe.get(), 7);
    }

    #[test]
    fn resolve_workers_prefers_env_then_config() {
        // Serialized by being a single test; QDD_WORKERS is not set by the
        // harness.
        std::env::remove_var("QDD_WORKERS");
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(0), 1);
        std::env::set_var("QDD_WORKERS", "7");
        assert_eq!(resolve_workers(3), 7);
        std::env::set_var("QDD_WORKERS", "not-a-number");
        assert_eq!(resolve_workers(2), 2);
        std::env::remove_var("QDD_WORKERS");
    }

    #[test]
    fn blocked_ranges_cover_exactly() {
        for (n, w) in [(10, 3), (0, 4), (7, 7), (100, 60), (256, 60)] {
            let ranges = blocked_ranges(n, w);
            assert_eq!(ranges.len(), w);
            let mut covered = vec![false; n];
            for r in ranges {
                for i in r {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c));
        }
    }
}
