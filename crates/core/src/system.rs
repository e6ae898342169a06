//! Abstraction over "the linear system being solved".
//!
//! The Krylov solvers only ever need four things: apply `A`, apply
//! `A^dag`, and compute (possibly batched) global inner products. Putting
//! those behind [`SystemOps`] lets exactly the same solver code run
//! single-rank (this crate's [`LocalSystem`]) and multi-rank (the
//! distributed system in `qdd-comm`, where the inner products become
//! all-reduces and the operator exchanges halos). Global-sum accounting
//! lives in the implementations — the solver just calls `dot`.

use crate::blas;
use crate::pool::WorkerPool;
use qdd_dirac::fused_full::FullOperator;
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_util::complex::{Complex, Real};
use qdd_util::stats::SolveStats;

/// Operations a solver needs from the (possibly distributed) system.
pub trait SystemOps<T: Real> {
    /// Local lattice extents (per rank).
    fn local_dims(&self) -> Dims;

    /// `out = A inp` (exchanging halos in the distributed case). The
    /// implementation accounts operator flops and communication.
    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats);

    /// `out = A^dag inp` (via gamma5-hermiticity).
    fn apply_adjoint(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats);

    /// Flops of one local operator application.
    fn apply_flops(&self) -> f64;

    /// Global Hermitian inner product (one global sum).
    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T>;

    /// Global squared norm (one global sum).
    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T;

    /// Batched inner products `<v_i, w>` — classical Gram-Schmidt batches
    /// them into a single global reduction (one global sum total).
    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>>;

    /// `(<a, b>, |a|^2)` batched into a single global reduction — the
    /// omega step of BiCGstab.
    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T);
}

/// Single-rank system: the operator applied with periodic wrap-around;
/// inner products are plain local reductions but still counted as global
/// sums (on one rank a global sum degenerates to a local one).
pub struct LocalSystem<'a, T: Real> {
    op: &'a WilsonClover<T>,
}

impl<'a, T: Real> LocalSystem<'a, T> {
    pub fn new(op: &'a WilsonClover<T>) -> Self {
        Self { op }
    }

    pub fn op(&self) -> &WilsonClover<T> {
        self.op
    }
}

impl<T: Real> SystemOps<T> for LocalSystem<'_, T> {
    fn local_dims(&self) -> Dims {
        *self.op.dims()
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats) {
        stats.span_begin(qdd_trace::Phase::OperatorApply);
        self.op.apply(out, inp);
        stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
        stats.count_operator_application();
        stats.span_end(qdd_trace::Phase::OperatorApply);
    }

    fn apply_adjoint(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        stats: &mut SolveStats,
    ) {
        stats.span_begin(qdd_trace::Phase::OperatorApply);
        let basis = self.op.basis();
        let g5in = SpinorField::from_fn(*inp.dims(), |s| basis.apply_gamma5(inp.site(s)));
        self.op.apply(out, &g5in);
        for s in 0..out.len() {
            *out.site_mut(s) = basis.apply_gamma5(out.site(s));
        }
        stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
        stats.count_operator_application();
        stats.span_end(qdd_trace::Phase::OperatorApply);
    }

    fn apply_flops(&self) -> f64 {
        self.op.apply_flops()
    }

    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T> {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let d = a.dot(b);
        stats.span_end(qdd_trace::Phase::GlobalSum);
        d
    }

    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let n = a.norm_sqr();
        stats.span_end(qdd_trace::Phase::GlobalSum);
        n
    }

    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>> {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let ds = vs.iter().map(|v| v.dot(w)).collect();
        stats.span_end(qdd_trace::Phase::GlobalSum);
        ds
    }

    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T) {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let dn = (a.dot(b), a.norm_sqr());
        stats.span_end(qdd_trace::Phase::GlobalSum);
        dn
    }
}

/// Single-rank system running the parallel fused outer hot path: the
/// operator is the full-lattice SIMD kernel (when the geometry admits
/// one) threaded over a persistent [`WorkerPool`], and every reduction
/// uses the deterministic blocked BLAS — so solve trajectories are
/// bitwise independent of the worker count.
///
/// When `fused` is `None` (odd extent or unsupported lane count) the
/// operator falls back to the scalar path but the reductions stay
/// blocked, keeping the trajectory shape consistent across geometries.
pub struct FusedSystem<'a, T: Real> {
    op: &'a WilsonClover<T>,
    fused: Option<&'a dyn FullOperator<T>>,
    pool: &'a WorkerPool,
}

impl<'a, T: Real> FusedSystem<'a, T> {
    pub fn new(
        op: &'a WilsonClover<T>,
        fused: Option<&'a dyn FullOperator<T>>,
        pool: &'a WorkerPool,
    ) -> Self {
        if let Some(f) = fused {
            assert_eq!(f.dims(), *op.dims(), "fused operator geometry mismatch");
        }
        Self { op, fused, pool }
    }

    #[inline]
    fn apply_inner(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>) {
        match self.fused {
            Some(f) => f.apply(out, inp, self.pool),
            None => self.op.apply(out, inp),
        }
    }
}

impl<T: Real> SystemOps<T> for FusedSystem<'_, T> {
    fn local_dims(&self) -> Dims {
        *self.op.dims()
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats) {
        stats.span_begin(qdd_trace::Phase::OperatorApply);
        self.apply_inner(out, inp);
        stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
        stats.count_operator_application();
        stats.span_end(qdd_trace::Phase::OperatorApply);
    }

    fn apply_adjoint(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        stats: &mut SolveStats,
    ) {
        stats.span_begin(qdd_trace::Phase::OperatorApply);
        let basis = self.op.basis();
        let g5in = SpinorField::from_fn(*inp.dims(), |s| basis.apply_gamma5(inp.site(s)));
        self.apply_inner(out, &g5in);
        for s in 0..out.len() {
            *out.site_mut(s) = basis.apply_gamma5(out.site(s));
        }
        stats.add_flops(qdd_util::stats::Component::OperatorA, self.op.apply_flops());
        stats.count_operator_application();
        stats.span_end(qdd_trace::Phase::OperatorApply);
    }

    fn apply_flops(&self) -> f64 {
        self.op.apply_flops()
    }

    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T> {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let d = blas::par_dot(self.pool, a.as_slice(), b.as_slice());
        stats.span_end(qdd_trace::Phase::GlobalSum);
        d
    }

    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let n = blas::par_norm_sqr(self.pool, a.as_slice());
        stats.span_end(qdd_trace::Phase::GlobalSum);
        n
    }

    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>> {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let ds = vs.iter().map(|v| blas::par_dot(self.pool, v.as_slice(), w.as_slice())).collect();
        stats.span_end(qdd_trace::Phase::GlobalSum);
        ds
    }

    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T) {
        stats.span_begin(qdd_trace::Phase::GlobalSum);
        stats.count_global_sum();
        let dn = (
            blas::par_dot(self.pool, a.as_slice(), b.as_slice()),
            blas::par_norm_sqr(self.pool, a.as_slice()),
        );
        stats.span_end(qdd_trace::Phase::GlobalSum);
        dn
    }
}
