//! Flexible GMRES with deflated restarts — the paper's outer solver
//! (Table I line 2, Ref. \[10\] = Frommer, Nobile, Zingler).
//!
//! *Flexible* because the Schwarz preconditioner is itself an iterative
//! process and therefore differs from one application to the next: the
//! preconditioned directions `z_j = M(v_j)` are stored alongside the
//! Krylov basis. *Deflated restarts* because Wilson-Clover systems near
//! the physical point are dominated by a few low modes: at each restart
//! the `k` harmonic Ritz vectors of smallest modulus are retained, which
//! removes the convergence stall of plainly restarted GMRES.
//!
//! Global-sum accounting follows the paper: classical Gram-Schmidt batches
//! the projection coefficients into one reduction, so each Arnoldi step
//! costs two global sums (projections + normalization).

use crate::pool::WorkspacePool;
use crate::system::SystemOps;
use qdd_field::fields::SpinorField;
use qdd_util::complex::{Complex, Real, C64};
use qdd_util::linalg::{harmonic_ritz, householder_qr, CMat};
use qdd_util::stats::{Component, SolveStats};

/// Outer-solver parameters.
#[derive(Copy, Clone, Debug)]
pub struct FgmresConfig {
    /// Maximum Krylov basis size per cycle (`m`, the paper's "maximum
    /// basis size").
    pub max_basis: usize,
    /// Number of deflation vectors kept at restart (`k`).
    pub deflate: usize,
    /// Relative-residual convergence target (paper: 1e-10).
    pub tolerance: f64,
    /// Hard cap on total Arnoldi steps.
    pub max_iterations: usize,
}

impl Default for FgmresConfig {
    fn default() -> Self {
        Self { max_basis: 16, deflate: 6, tolerance: 1e-10, max_iterations: 10_000 }
    }
}

/// Why a solver abandoned its recurrence before reaching the tolerance
/// or the iteration cap. A breakdown is *detected* — the solver returns
/// `converged = false` with the honest residual of its last trustworthy
/// iterate instead of pushing NaNs into the solution — so callers (the
/// resilient distributed driver, the serve fallback ladder) can restart
/// or degrade deliberately.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Breakdown {
    /// A residual estimate or recurrence scalar went NaN/Inf (typically
    /// corrupted halo data poisoning an inner product).
    NonFinite,
    /// The residual estimate grew ≥10× above the best seen — the Krylov
    /// relation no longer describes the actual system being applied.
    Diverged,
    /// BiCGstab pivot `rho = <r_hat, r>` (or `<r_hat, v>`) underflowed:
    /// the shadow residual became orthogonal to the recurrence.
    RhoUnderflow,
    /// BiCGstab stabilizer `<t, t>` underflowed without convergence, so
    /// `omega` is undefined.
    OmegaUnderflow,
}

impl Breakdown {
    /// Stable key for metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            Breakdown::NonFinite => "non_finite",
            Breakdown::Diverged => "diverged",
            Breakdown::RhoUnderflow => "rho_underflow",
            Breakdown::OmegaUnderflow => "omega_underflow",
        }
    }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a solve did.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    pub converged: bool,
    /// Total outer (Arnoldi or baseline) iterations.
    pub iterations: usize,
    /// Restart cycles (1 for non-restarted methods).
    pub cycles: usize,
    /// Final relative residual (true residual, recomputed).
    pub relative_residual: f64,
    /// Relative-residual trajectory, starting from the initial residual:
    /// `history[0]` is the relative residual before the first iteration
    /// (1.0 for a nonzero right-hand side, 0.0 for a zero one) and
    /// `history[i]` the estimate after iteration `i`, so
    /// `history.len() == iterations + 1` always holds. Entries are the
    /// solvers' cheap per-iteration *estimates* (least-squares residual
    /// for GMRES, recurrence residuals elsewhere); only
    /// `relative_residual` is recomputed as a true residual.
    pub history: Vec<f64>,
    /// `Some` when the solver stopped on a detected breakdown rather than
    /// convergence or the iteration cap. Always `None` on healthy solves.
    pub breakdown: Option<Breakdown>,
}

/// Solve `A x = f` by FGMRES-DR with the given (flexible) preconditioner.
///
/// `precond` maps a residual-like vector to an approximate `A^{-1}`
/// application; pass the identity closure for unpreconditioned GMRES.
/// Returns the solution and the outcome record.
///
/// Convenience wrapper around [`fgmres_dr_with_workspace`] with a
/// throwaway workspace pool; repeated solves should hold a pool and call
/// the workspace variant so steady-state iterations allocate nothing.
pub fn fgmres_dr<T: Real, S: SystemOps<T> + ?Sized>(
    sys: &S,
    f: &SpinorField<T>,
    precond: &mut dyn FnMut(&SpinorField<T>, &mut SolveStats) -> SpinorField<T>,
    cfg: &FgmresConfig,
    stats: &mut SolveStats,
) -> (SpinorField<T>, SolveOutcome) {
    let mut ws = WorkspacePool::new();
    fgmres_dr_with_workspace(sys, f, precond, cfg, &mut ws, stats)
}

/// [`fgmres_dr`] drawing every temporary field of its own — Krylov basis
/// vectors, residuals, operator outputs — from `ws` and returning exactly
/// those to it before exiting; the preconditioner's outputs are the
/// preconditioner's allocations and are dropped, so the pool's size is
/// flat from the second solve on. After the first solve warms the pool,
/// later solves of the same geometry allocate only the returned solution
/// vector.
pub fn fgmres_dr_with_workspace<T: Real, S: SystemOps<T> + ?Sized>(
    sys: &S,
    f: &SpinorField<T>,
    precond: &mut dyn FnMut(&SpinorField<T>, &mut SolveStats) -> SpinorField<T>,
    cfg: &FgmresConfig,
    ws: &mut WorkspacePool<T>,
    stats: &mut SolveStats,
) -> (SpinorField<T>, SolveOutcome) {
    let dims = *f.dims();
    let m = cfg.max_basis;
    let k = cfg.deflate.min(m.saturating_sub(1));
    assert!(m >= 1, "basis size must be at least 1");
    let vol = dims.volume() as f64;
    let l1_flops = 96.0 * vol;

    stats.span_begin(qdd_trace::Phase::Solve);
    let f_norm = sys.norm_sqr(f, stats).to_f64().sqrt();
    let mut outcome = SolveOutcome {
        converged: false,
        iterations: 0,
        cycles: 0,
        relative_residual: 1.0,
        history: vec![1.0],
        breakdown: None,
    };
    let mut x = SpinorField::<T>::zeros(dims);
    if f_norm == 0.0 {
        outcome.converged = true;
        outcome.relative_residual = 0.0;
        outcome.history = vec![0.0];
        stats.span_end(qdd_trace::Phase::Solve);
        return (x, outcome);
    }
    stats.trace_residual(0, 1.0);

    // Krylov data for one cycle.
    let mut v: Vec<SpinorField<T>> = Vec::with_capacity(m + 1);
    let mut z: Vec<SpinorField<T>> = Vec::with_capacity(m);
    let mut hbar = CMat::zeros(m + 1, m);
    let mut c = vec![C64::ZERO; m + 1];
    let mut start_col = 0usize;

    // Initial residual (x = 0): r = f.
    let mut r = ws.acquire(dims);
    r.copy_from(f);
    let mut beta = f_norm;
    // Best residual estimate seen, for the divergence guard below.
    let mut best_rel = 1.0f64;

    'outer: loop {
        outcome.cycles += 1;
        if start_col == 0 {
            hbar = CMat::zeros(m + 1, m);
            c = vec![C64::ZERO; m + 1];
            let mut v0 = ws.acquire(dims);
            v0.copy_from(&r);
            v0.scale(Complex::real(T::from_f64(1.0 / beta)));
            stats.add_flops(Component::Other, 0.5 * l1_flops);
            v.push(v0);
            c[0] = Complex::new(beta, 0.0);
        }

        // `start_col` is reassigned at restart, right before `continue
        // 'outer` re-enters this loop and re-reads it as the new bound.
        #[allow(clippy::mut_range_bound)]
        for j in start_col..m {
            stats.span_begin(qdd_trace::Phase::ArnoldiStep);
            // Flexible preconditioned direction.
            stats.span_begin(qdd_trace::Phase::Precondition);
            let zj = precond(&v[j], stats);
            stats.span_end(qdd_trace::Phase::Precondition);
            // w = A z_j
            let mut w = ws.acquire(dims);
            sys.apply(&mut w, &zj, stats);
            z.push(zj);

            // Classical Gram-Schmidt, one batched global sum for the
            // projections and one for the norm.
            stats.span_begin(qdd_trace::Phase::GramSchmidt);
            let coeffs = sys.dots_batched(&v, &w, stats);
            for (i, &hij) in coeffs.iter().enumerate() {
                w.axpy(-hij, &v[i]);
                hbar[(i, j)] = Complex::new(hij.re.to_f64(), hij.im.to_f64());
            }
            stats.add_flops(Component::GramSchmidt, 2.0 * (j + 1) as f64 * l1_flops);
            let h_next = sys.norm_sqr(&w, stats).to_f64().sqrt();
            stats.add_flops(Component::GramSchmidt, l1_flops);
            stats.span_end(qdd_trace::Phase::GramSchmidt);
            hbar[(j + 1, j)] = Complex::new(h_next, 0.0);
            if h_next > 0.0 {
                let mut vn = w;
                vn.scale(Complex::real(T::from_f64(1.0 / h_next)));
                v.push(vn);
            } else {
                // Lucky breakdown: exact solution in the current space.
                v.push(ws.acquire(dims));
            }

            outcome.iterations += 1;
            stats.count_outer_iteration();

            // Small least-squares: rho = min || c - Hbar y ||.
            let cols = j + 1;
            let rows = j + 2;
            let (y, rho) = solve_ls(&hbar, &c, rows, cols);
            let rel = rho / f_norm;
            outcome.history.push(rel);
            stats.trace_residual(outcome.iterations as u64, rel);
            stats.span_end(qdd_trace::Phase::ArnoldiStep);

            // Self-healing guards. Both are pure comparisons on the
            // estimate, so healthy trajectories are untouched; both leave
            // `x` at the last cycle boundary (the rollback checkpoint)
            // instead of applying this cycle's untrustworthy `y`. All
            // inputs to `rel` come out of collective reductions, so in an
            // SPMD solve every rank takes the same branch.
            if !rel.is_finite() {
                // Corrupted data poisoned an inner product: the cycle's
                // small least-squares problem is garbage.
                outcome.breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if rel > 10.0 * best_rel {
                // The Arnoldi relation no longer describes the operator
                // actually being applied (e.g. a halo went stale or was
                // zero-filled mid-cycle).
                outcome.breakdown = Some(Breakdown::Diverged);
                break 'outer;
            }
            best_rel = best_rel.min(rel);

            let done =
                rel < cfg.tolerance || outcome.iterations >= cfg.max_iterations || h_next == 0.0;
            if done || j + 1 == m {
                // Form the solution update x += Z y.
                for (i, yi) in y.iter().enumerate() {
                    let a = Complex::new(T::from_f64(yi.re), T::from_f64(yi.im));
                    x.axpy(a, &z[i]);
                }
                stats.add_flops(Component::Other, y.len() as f64 * l1_flops);

                if done {
                    break 'outer;
                }

                // Restart. Residual coordinates in the V basis:
                // c_res = c - Hbar y (rows x 1).
                let c_res = residual_coords(&hbar, &c, &y, rows);
                let deflated = if k == 0 {
                    None
                } else {
                    deflated_restart(
                        &mut v, &mut z, start_col, &mut hbar, &mut c, &c_res, m, k, ws, stats,
                    )
                };
                match deflated {
                    Some(kk) => start_col = kk,
                    None => {
                        // Plain restart (k == 0, or the deflation basis
                        // degenerated): recompute the true residual so the
                        // next cycle starts from the current iterate, not
                        // the stale initial one.
                        let mut ax = ws.acquire(dims);
                        sys.apply(&mut ax, &x, stats);
                        r.copy_from(f);
                        r.sub_assign(&ax);
                        ws.release(ax);
                        beta = sys.norm_sqr(&r, stats).to_f64().sqrt();
                        stats.add_flops(Component::Other, 2.0 * l1_flops);
                        release_cycle(&mut v, &mut z, start_col, ws);
                        start_col = 0;
                    }
                }
                continue 'outer;
            }
        }
    }

    // True final residual.
    let mut ax = ws.acquire(dims);
    sys.apply(&mut ax, &x, stats);
    let mut rr = ws.acquire(dims);
    rr.copy_from(f);
    rr.sub_assign(&ax);
    outcome.relative_residual = sys.norm_sqr(&rr, stats).to_f64().sqrt() / f_norm;
    outcome.converged = outcome.relative_residual < cfg.tolerance * 10.0;
    ws.release(ax);
    ws.release(rr);
    ws.release(r);
    release_cycle(&mut v, &mut z, start_col, ws);
    stats.span_end(qdd_trace::Phase::Solve);
    (x, outcome)
}

/// Return a cycle's fields to the pool they came from: all of `v`, and the
/// `deflated` leading entries of `z` (a deflated restart acquired those).
/// The rest of `z` is preconditioner output the pool never handed out;
/// releasing it would grow the pool by one field per outer iteration.
fn release_cycle<T: Real>(
    v: &mut Vec<SpinorField<T>>,
    z: &mut Vec<SpinorField<T>>,
    deflated: usize,
    ws: &mut WorkspacePool<T>,
) {
    for b in v.drain(..).chain(z.drain(..).take(deflated)) {
        ws.release(b);
    }
}

/// Least squares `min || c - Hbar[0..rows, 0..cols] y ||` via Householder
/// QR. Returns `(y, residual_norm)`.
fn solve_ls(hbar: &CMat, c: &[C64], rows: usize, cols: usize) -> (Vec<C64>, f64) {
    let a = hbar.submatrix(0, 0, rows, cols);
    let (q, rmat) = householder_qr(&a);
    // y = R^{-1} Q^H c ; residual = || c - A y ||.
    let qhc = {
        let mut out = vec![C64::ZERO; cols];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for row in 0..rows {
                acc = acc.add_conj_mul(q[(row, i)], c[row]);
            }
            *o = acc;
        }
        out
    };
    // Back substitution.
    let mut y = vec![C64::ZERO; cols];
    for i in (0..cols).rev() {
        let mut acc = qhc[i];
        for j in i + 1..cols {
            let sub = rmat[(i, j)] * y[j];
            acc -= sub;
        }
        let d = rmat[(i, i)];
        y[i] = if d.abs() > 0.0 { acc * d.inv() } else { C64::ZERO };
    }
    // Residual norm.
    let mut res = 0.0;
    let ay = a.mul_vec(&y);
    for row in 0..rows {
        res += (c[row] - ay[row]).norm_sqr();
    }
    (y, res.sqrt())
}

/// `c_res = c - Hbar y` over the active rows.
fn residual_coords(hbar: &CMat, c: &[C64], y: &[C64], rows: usize) -> Vec<C64> {
    let a = hbar.submatrix(0, 0, rows, y.len());
    let ay = a.mul_vec(y);
    (0..rows).map(|i| c[i] - ay[i]).collect()
}

/// Perform the deflated restart: replace (V, Z, Hbar, c) by the k-deflated
/// versions. Returns the new start column (= new basis size k'), or `None`
/// when the deflation basis degenerates (no Ritz vectors kept, or the
/// residual column was dropped as linearly dependent) — the caller must
/// then fall back to a plain restart.
#[allow(clippy::too_many_arguments)]
fn deflated_restart<T: Real>(
    v: &mut Vec<SpinorField<T>>,
    z: &mut Vec<SpinorField<T>>,
    z_deflated: usize,
    hbar: &mut CMat,
    c: &mut Vec<C64>,
    c_res: &[C64],
    m: usize,
    k: usize,
    ws: &mut WorkspacePool<T>,
    stats: &mut SolveStats,
) -> Option<usize> {
    let dims = *v[0].dims();
    let vol = dims.volume() as f64;
    let l1_flops = 96.0 * vol;

    // Harmonic Ritz basis P (m x k, orthonormal columns).
    let (p, _values) = harmonic_ritz(hbar, k);
    let kk = p.ncols();

    // Phat = orthonormal([ [P; 0], c_res ])  ((m+1) x (kk+1)).
    let mut stacked = CMat::zeros(m + 1, kk + 1);
    for i in 0..m {
        for jj in 0..kk {
            stacked[(i, jj)] = p[(i, jj)];
        }
    }
    for (i, ci) in c_res.iter().enumerate() {
        stacked[(i, kk)] = *ci;
    }
    let phat = qdd_util::linalg::orthonormal_columns(&stacked);
    let kp1 = phat.ncols();
    if kk == 0 || kp1 != kk + 1 {
        // Either no harmonic Ritz vectors survived, or the residual column
        // was linearly dependent on them: the restarted relation could not
        // represent the residual exactly. Degenerate — plain restart.
        return None;
    }

    // New bases: V' = V_{m+1} Phat, Z' = Z_m P.
    let mut new_v: Vec<SpinorField<T>> = Vec::with_capacity(kp1);
    for jj in 0..kp1 {
        let mut acc = ws.acquire(dims);
        for (row, vrow) in v.iter().enumerate().take(m + 1) {
            let coef = phat[(row, jj)];
            if coef.abs() > 0.0 {
                acc.axpy(Complex::new(T::from_f64(coef.re), T::from_f64(coef.im)), vrow);
            }
        }
        new_v.push(acc);
    }
    let mut new_z: Vec<SpinorField<T>> = Vec::with_capacity(kk);
    for jj in 0..kk {
        let mut acc = ws.acquire(dims);
        for (row, zrow) in z.iter().enumerate().take(m) {
            let coef = p[(row, jj)];
            if coef.abs() > 0.0 {
                acc.axpy(Complex::new(T::from_f64(coef.re), T::from_f64(coef.im)), zrow);
            }
        }
        new_z.push(acc);
    }
    stats.add_flops(Component::Other, ((m + 1) * kp1 + m * kk) as f64 * l1_flops);

    // Hbar' = Phat^H Hbar P  ((kk+1) x kk), embedded in the (m+1) x m frame.
    let hp = hbar.submatrix(0, 0, m + 1, m).mul(&p);
    let small = phat.adjoint().mul(&hp);
    let mut new_h = CMat::zeros(m + 1, m);
    for i in 0..kp1 {
        for jj in 0..kk {
            new_h[(i, jj)] = small[(i, jj)];
        }
    }

    // c' = Phat^H c_res (exact: c_res lies in span(Phat) by construction).
    let mut new_c = vec![C64::ZERO; m + 1];
    for (i, nc) in new_c.iter_mut().enumerate().take(kp1) {
        let mut acc = C64::ZERO;
        for (row, cr) in c_res.iter().enumerate() {
            acc = acc.add_conj_mul(phat[(row, i)], *cr);
        }
        *nc = acc;
    }

    release_cycle(v, z, z_deflated, ws);
    *v = new_v;
    *z = new_z;
    *hbar = new_h;
    *c = new_c;
    Some(kk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::LocalSystem;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_dirac::wilson::WilsonClover;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
    }

    fn identity_precond<T: Real>() -> impl FnMut(&SpinorField<T>, &mut SolveStats) -> SpinorField<T>
    {
        |r: &SpinorField<T>, _: &mut SolveStats| r.clone()
    }

    #[test]
    fn unpreconditioned_gmres_converges_on_small_system() {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.3, 0.4, 61);
        let mut rng = Rng64::new(62);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let cfg = FgmresConfig { max_basis: 20, deflate: 0, tolerance: 1e-8, max_iterations: 400 };
        let mut stats = SolveStats::new();
        let mut pre = identity_precond();
        let (x, out) = fgmres_dr(&LocalSystem::new(&op), &f, &mut pre, &cfg, &mut stats);
        assert!(out.converged, "residual {}", out.relative_residual);
        // True residual agrees.
        let mut ax = SpinorField::zeros(dims);
        op.apply(&mut ax, &x);
        let mut r = f.clone();
        r.sub_assign(&ax);
        assert!(r.norm() / f.norm() < 1e-7);
    }

    #[test]
    fn deflation_helps_on_restarted_solves() {
        // With a small basis, plain restarts stall more than deflated ones.
        let dims = Dims::new(4, 4, 4, 4);
        let mut rng = Rng64::new(63);
        let f = SpinorField::<f64>::random(dims, &mut rng);

        let run = |k: usize| {
            let op = operator(dims, 0.7, 0.05, 64);
            let cfg =
                FgmresConfig { max_basis: 8, deflate: k, tolerance: 1e-8, max_iterations: 600 };
            let mut stats = SolveStats::new();
            let mut pre = identity_precond();
            let (_, out) = fgmres_dr(&LocalSystem::new(&op), &f, &mut pre, &cfg, &mut stats);
            assert!(out.converged, "k={k}: residual {}", out.relative_residual);
            out.iterations
        };
        let plain = run(0);
        let deflated = run(4);
        assert!(deflated <= plain, "deflated {deflated} should not exceed plain {plain}");
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.5, 0.3, 65);
        let f = SpinorField::<f64>::zeros(dims);
        let mut stats = SolveStats::new();
        let mut pre = identity_precond();
        let (x, out) =
            fgmres_dr(&LocalSystem::new(&op), &f, &mut pre, &FgmresConfig::default(), &mut stats);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(x.norm_sqr(), 0.0);
    }

    #[test]
    fn history_is_monotone_within_cycles() {
        // GMRES residual estimates never increase within one cycle.
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.5, 0.2, 66);
        let mut rng = Rng64::new(67);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let cfg = FgmresConfig { max_basis: 10, deflate: 0, tolerance: 1e-9, max_iterations: 300 };
        let mut stats = SolveStats::new();
        let mut pre = identity_precond();
        let (_, out) = fgmres_dr(&LocalSystem::new(&op), &f, &mut pre, &cfg, &mut stats);
        assert_eq!(out.history.len(), out.iterations + 1);
        assert_eq!(out.history[0], 1.0);
        for win in out.history[1..].chunks(10) {
            for pair in win.windows(2) {
                assert!(pair[1] <= pair[0] * (1.0 + 1e-9), "{} -> {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn stats_count_operator_and_sums() {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.4, 0.3, 68);
        let mut rng = Rng64::new(69);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let cfg = FgmresConfig { max_basis: 12, deflate: 0, tolerance: 1e-6, max_iterations: 200 };
        let mut stats = SolveStats::new();
        let mut pre = identity_precond();
        let (_, out) = fgmres_dr(&LocalSystem::new(&op), &f, &mut pre, &cfg, &mut stats);
        assert!(stats.flops(Component::OperatorA) > 0.0);
        assert!(stats.flops(Component::GramSchmidt) > 0.0);
        // Roughly 2 global sums per iteration (plus restarts/setup).
        let sums = stats.global_sums() as f64;
        let iters = out.iterations as f64;
        assert!(sums >= 2.0 * iters && sums <= 2.0 * iters + 40.0, "sums={sums} iters={iters}");
    }
}
