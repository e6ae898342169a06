//! Minimal-residual (MR) block solver.
//!
//! The Schwarz method inverts each diagonal block with a few MR iterations
//! (paper Sec. II-D, Ref. \[13\]): MR needs only three vectors, which is what
//! lets the whole block solve run from a KNC core's L2 cache. The block is
//! the even-odd Schur complement `D~ee` (Eq. (5)); typically
//! `Idomain = 4..5` iterations suffice for a useful preconditioner.

use crate::blas;
use qdd_dirac::block::SchurOperator;
use qdd_dirac::fused::FusedSchur;
use qdd_field::fused::{FusedField, FusedTile, VReal, VF16};
use qdd_field::spinor::Spinor;
use qdd_lattice::Parity;
use qdd_util::complex::{Complex, Real};

/// MR iteration parameters.
#[derive(Copy, Clone, Debug)]
pub struct MrConfig {
    /// Number of MR iterations (`Idomain` in the paper).
    pub iterations: usize,
    /// Relative-residual early exit (0.0 disables; the preconditioner
    /// normally runs a fixed iteration count).
    pub tolerance: f64,
    /// Store the block iteration vectors in half precision (round every
    /// vector through f16 after each update) — the paper's Sec. VI
    /// future-work option "exploit half-precision also for the spinors",
    /// which would halve the spinor working set from 7x24 kB to 7x12 kB
    /// per domain. Off by default (the paper ships with f32 spinors).
    pub f16_vectors: bool,
}

impl Default for MrConfig {
    fn default() -> Self {
        Self { iterations: 5, tolerance: 0.0, f16_vectors: false }
    }
}

/// Round every component of a block vector through IEEE f16 — the storage
/// precision simulation for `MrConfig::f16_vectors`.
pub fn round_vector_f16<T: Real>(v: &mut [Spinor<T>]) {
    use qdd_util::half::F16;
    for s in v.iter_mut() {
        for flat in 0..12 {
            let z = s.component(flat);
            s.set_component(
                flat,
                Complex::new(
                    T::from_f64(F16::round_f32(z.re.to_f64() as f32) as f64),
                    T::from_f64(F16::round_f32(z.im.to_f64() as f32) as f64),
                ),
            );
        }
    }
}

/// Result of one block solve.
#[derive(Copy, Clone, Debug, Default)]
pub struct MrOutcome {
    pub iterations: usize,
    /// Flops spent (operator + level-1).
    pub flops: f64,
    /// Squared norm of the final residual (`|rhs|^2` when no iteration
    /// completed).
    pub residual_norm_sqr: f64,
}

/// Solve `D~ee u = rhs` on one domain by MR, starting from `u = 0`.
///
/// `u` is overwritten; `r` and `q` are caller-provided scratch of the same
/// length (the paper's three-vector working set), and `scratch_odd` the
/// two odd-parity temporaries the Schur operator needs.
#[allow(clippy::too_many_arguments)]
pub fn mr_solve_schur<T: Real>(
    schur: &SchurOperator<'_, T>,
    cfg: &MrConfig,
    u: &mut [Spinor<T>],
    rhs: &[Spinor<T>],
    r: &mut [Spinor<T>],
    q: &mut [Spinor<T>],
    scratch_odd: &mut [Spinor<T>],
) -> MrOutcome {
    let n = schur.cb_len();
    debug_assert_eq!(u.len(), n);
    debug_assert_eq!(rhs.len(), n);

    blas::zero(u);
    r.copy_from_slice(rhs);
    if cfg.f16_vectors {
        round_vector_f16(r);
    }
    let rhs_norm = blas::norm_sqr(r).to_f64();
    let mut out = MrOutcome { residual_norm_sqr: rhs_norm, ..Default::default() };
    if rhs_norm == 0.0 {
        return out;
    }
    let tol_sqr = cfg.tolerance * cfg.tolerance * rhs_norm;

    for _ in 0..cfg.iterations {
        // q = D~ee r
        schur.apply_schur(q, r, scratch_odd);
        out.flops += schur.schur_flops();
        // alpha = <q, r> / <q, q>
        let qr = blas::dot(q, r);
        let qq = blas::norm_sqr(q);
        out.flops += 2.0 * blas::level1_flops(n);
        if qq.to_f64() <= 0.0 || !qq.to_f64().is_finite() {
            break; // breakdown: D~ee r vanished
        }
        let alpha = qr.scale(T::ONE / qq);
        // u += alpha r; r -= alpha q
        blas::axpy(u, alpha, r);
        blas::axmy(r, alpha, q);
        if cfg.f16_vectors {
            round_vector_f16(u);
            round_vector_f16(r);
        }
        out.flops += 2.0 * blas::level1_flops(n);
        out.iterations += 1;
        out.residual_norm_sqr = blas::norm_sqr(r).to_f64();
        if cfg.tolerance > 0.0 && out.residual_norm_sqr <= tol_sqr {
            break;
        }
    }
    out
}

/// `(<a, b>, |a|^2)` over the even tiles, accumulated lane-wise in tile and
/// component order and reduced across lanes last: a fixed order, so the
/// block solve is a pure function of its inputs.
fn dot_and_norm_even<T: Real, const N: usize>(
    a: &FusedField<T, N>,
    b: &FusedField<T, N>,
) -> (Complex<T>, T) {
    let (mut re, mut im, mut nn) = (VReal::<T, N>::ZERO, VReal::ZERO, VReal::ZERO);
    for (at, bt) in a.tiles(Parity::Even).iter().zip(b.tiles(Parity::Even)) {
        for k in 0..12 {
            let (a_re, a_im, b_re, b_im) = (at[2 * k], at[2 * k + 1], bt[2 * k], bt[2 * k + 1]);
            re = re.fma(a_re, b_re).fma(a_im, b_im);
            im = im.fma(a_re, b_im).fms(a_im, b_re);
            nn = nn.fma(a_re, a_re).fma(a_im, a_im);
        }
    }
    (Complex::new(re.reduce_add(), im.reduce_add()), nn.reduce_add())
}

/// `y += alpha x` on one tile (complex `alpha`, split re/im lanes).
#[inline(always)]
fn tile_axpy<T: Real, const N: usize>(
    y: &mut FusedTile<T, N>,
    alpha: Complex<T>,
    x: &FusedTile<T, N>,
) {
    let (a_re, a_im) = (VReal::splat(alpha.re), VReal::splat(alpha.im));
    for k in 0..12 {
        let (x_re, x_im) = (x[2 * k], x[2 * k + 1]);
        y[2 * k] = y[2 * k].fma(a_re, x_re).fms(a_im, x_im);
        y[2 * k + 1] = y[2 * k + 1].fma(a_re, x_im).fma(a_im, x_re);
    }
}

/// Round one tile through packed f16 lanes (`MrConfig::f16_vectors`).
#[inline(always)]
fn tile_round_f16<T: Real, const N: usize>(t: &mut FusedTile<T, N>) {
    for v in t {
        *v = VF16::compress(v).decompress();
    }
}

/// [`mr_solve_schur`] on site-fused tiles: solve `D~ee u = rhs` on the even
/// checkerboard of one domain, from `u = 0`. Only even tiles of `u`, `rhs`,
/// `r` and `q` are read or written; `s1`, `s2` are the Schur operator's
/// scratch. Same iteration, same nominal flop count; it differs from the
/// scalar solver only in floating-point summation order.
#[allow(clippy::too_many_arguments)]
pub fn mr_solve_fused<T: Real, const N: usize>(
    schur: &FusedSchur<T, N>,
    cfg: &MrConfig,
    u: &mut FusedField<T, N>,
    rhs: &FusedField<T, N>,
    r: &mut FusedField<T, N>,
    q: &mut FusedField<T, N>,
    s1: &mut FusedField<T, N>,
    s2: &mut FusedField<T, N>,
) -> MrOutcome {
    let n = u.layout().block().volume() / 2;
    u.tiles_mut(Parity::Even).fill([VReal::ZERO; 24]);
    r.tiles_mut(Parity::Even).copy_from_slice(rhs.tiles(Parity::Even));
    if cfg.f16_vectors {
        r.tiles_mut(Parity::Even).iter_mut().for_each(tile_round_f16);
    }
    let rhs_norm = dot_and_norm_even(r, r).1.to_f64();
    let mut out = MrOutcome { residual_norm_sqr: rhs_norm, ..Default::default() };
    if rhs_norm == 0.0 {
        return out;
    }
    let tol_sqr = cfg.tolerance * cfg.tolerance * rhs_norm;

    for _ in 0..cfg.iterations {
        // q = D~ee r
        schur.apply_schur(q, r, s1, s2);
        out.flops += qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE * (2 * n) as f64;
        // alpha = <q, r> / <q, q>
        let (qr, qq) = dot_and_norm_even(q, r);
        out.flops += 2.0 * blas::level1_flops(n);
        if qq.to_f64() <= 0.0 || !qq.to_f64().is_finite() {
            break; // breakdown: D~ee r vanished
        }
        let alpha = qr.scale(T::ONE / qq);
        // u += alpha r; r -= alpha q
        let (ut, rt) = (u.tiles_mut(Parity::Even), r.tiles_mut(Parity::Even));
        for ((ut, rt), qt) in ut.iter_mut().zip(rt).zip(q.tiles(Parity::Even)) {
            tile_axpy(ut, alpha, rt);
            tile_axpy(rt, -alpha, qt);
            if cfg.f16_vectors {
                tile_round_f16(ut);
                tile_round_f16(rt);
            }
        }
        out.flops += 2.0 * blas::level1_flops(n);
        out.iterations += 1;
        out.residual_norm_sqr = dot_and_norm_even(r, r).1.to_f64();
        if cfg.tolerance > 0.0 && out.residual_norm_sqr <= tol_sqr {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_dirac::block::DomainFields;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
    use qdd_field::fields::GaugeField;
    use qdd_lattice::{Dims, DomainGrid};
    use qdd_util::rng::Rng64;

    fn setup(spread: f64, mass: f64) -> (WilsonClover<f64>, DomainGrid) {
        let dims = Dims::new(8, 4, 4, 4);
        let mut rng = Rng64::new(91);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        let op = WilsonClover::new(g, c, mass, BoundaryPhases::periodic());
        let grid = DomainGrid::new(dims, Dims::new(4, 4, 2, 2));
        (op, grid)
    }

    fn run_mr(iterations: usize, spread: f64) -> (f64, f64) {
        let (op, grid) = setup(spread, 0.3);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let mut rng = Rng64::new(92);
        let rhs: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let cfg = MrConfig { iterations, tolerance: 0.0, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        (out.residual_norm_sqr / blas::norm_sqr(&rhs), out.flops)
    }

    #[test]
    fn residual_decreases_monotonically_with_iterations() {
        let (r1, _) = run_mr(1, 0.5);
        let (r3, _) = run_mr(3, 0.5);
        let (r6, _) = run_mr(6, 0.5);
        let (r12, _) = run_mr(12, 0.5);
        assert!(r1 < 1.0);
        assert!(r3 < r1);
        assert!(r6 < r3);
        assert!(r12 < r6);
        // A handful of iterations already gives a useful approximation.
        assert!(r6 < 0.1, "rel residual^2 after 6 iters: {r6}");
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (op, grid) = setup(0.5, 0.3);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(1));
        let n = schur.cb_len();
        let rhs = vec![Spinor::<f64>::ZERO; n];
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let out = mr_solve_schur(
            &schur,
            &MrConfig::default(),
            &mut u,
            &rhs,
            &mut r,
            &mut q,
            &mut scratch,
        );
        assert_eq!(out.iterations, 0);
        assert_eq!(blas::norm_sqr(&u), 0.0);
    }

    #[test]
    fn early_exit_on_tolerance() {
        let (op, grid) = setup(0.2, 1.0); // heavy mass: fast convergence
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let mut rng = Rng64::new(93);
        let rhs: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let cfg = MrConfig { iterations: 100, tolerance: 1e-2, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        assert!(out.iterations < 100, "should stop early, took {}", out.iterations);
        assert!(out.residual_norm_sqr <= 1e-4 * blas::norm_sqr(&rhs));
    }

    #[test]
    fn solves_system_to_high_accuracy_with_many_iterations() {
        let (op, grid) = setup(0.4, 0.5);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(2));
        let n = schur.cb_len();
        let mut rng = Rng64::new(94);
        // Manufacture a known solution.
        let u_true: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut rhs = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        schur.apply_schur(&mut rhs, &u_true, &mut scratch);
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let cfg = MrConfig { iterations: 400, tolerance: 1e-12, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        let mut diff = u.clone();
        for (d, t) in diff.iter_mut().zip(&u_true) {
            *d = d.sub(*t);
        }
        let rel = (blas::norm_sqr(&diff) / blas::norm_sqr(&u_true)).sqrt();
        assert!(rel < 1e-5, "rel err {rel} after {} iters", out.iterations);
    }

    /// Both MR variants on one domain and right-hand side: `(scalar,
    /// fused)` outcomes and the relative difference of the solutions.
    fn both_variants(cfg: &MrConfig, zero_rhs: bool) -> (MrOutcome, MrOutcome, f64) {
        use qdd_dirac::fused::{fused_from_cb, fused_to_cb};
        let (op, grid) = setup(0.5, 0.3);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(3);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(95);
        let rhs: Vec<Spinor<f64>> = (0..n)
            .map(|_| if zero_rhs { Spinor::ZERO } else { Spinor::random(&mut rng) })
            .collect();
        let zeros = vec![Spinor::ZERO; n];
        let (mut u, mut r, mut q) = (zeros.clone(), zeros.clone(), zeros.clone());
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let scalar = mr_solve_schur(&schur, cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);

        let block = domain.dims;
        let fschur = FusedSchur::<f64, 8>::new(&op, &domain).unwrap();
        let frhs = fused_from_cb::<f64, 8>(block, &rhs, &zeros);
        let field = || FusedField::<f64, 8>::zeros(block);
        let (mut fu, mut fr, mut fq, mut s1, mut s2) =
            (field(), field(), field(), field(), field());
        let fused =
            mr_solve_fused(&fschur, cfg, &mut fu, &frhs, &mut fr, &mut fq, &mut s1, &mut s2);
        let (got, _) = fused_to_cb::<f64, 8>(&fu, block);
        let diff: f64 = got.iter().zip(&u).map(|(a, b)| a.sub(*b).norm_sqr()).sum();
        (scalar, fused, (diff / blas::norm_sqr(&u).max(f64::MIN_POSITIVE)).sqrt())
    }

    #[test]
    fn fused_mr_is_the_scalar_mr_up_to_summation_order() {
        for f16_vectors in [false, true] {
            let cfg = MrConfig { iterations: 5, tolerance: 0.0, f16_vectors };
            let (scalar, fused, rel) = both_variants(&cfg, false);
            assert_eq!(fused.iterations, scalar.iterations);
            assert_eq!(fused.flops, scalar.flops, "same nominal flop accounting");
            let tol = if f16_vectors { 2e-3 } else { 1e-13 };
            assert!(rel <= tol, "f16_vectors={f16_vectors}: solutions differ by {rel:e}");
            let dr = (fused.residual_norm_sqr / scalar.residual_norm_sqr - 1.0).abs();
            assert!(dr <= 10.0 * tol, "f16_vectors={f16_vectors}: residuals differ by {dr:e}");
        }
        // Early exit on tolerance takes the same number of steps.
        let cfg = MrConfig { iterations: 100, tolerance: 1e-2, f16_vectors: false };
        let (scalar, fused, _) = both_variants(&cfg, false);
        assert!(scalar.iterations < 100);
        assert_eq!(fused.iterations, scalar.iterations);
    }

    /// Regression: a solve that completes no iteration used to report
    /// `residual_norm_sqr == 0.0` — converged — for a non-zero rhs.
    #[test]
    fn zero_iteration_solve_reports_the_rhs_norm() {
        let cfg = MrConfig { iterations: 0, tolerance: 0.0, f16_vectors: false };
        let (scalar, fused, _) = both_variants(&cfg, false);
        for out in [scalar, fused] {
            assert_eq!(out.iterations, 0);
            assert!(out.residual_norm_sqr > 1.0, "reported {}", out.residual_norm_sqr);
        }
        assert!((fused.residual_norm_sqr / scalar.residual_norm_sqr - 1.0).abs() < 1e-13);
        // A zero rhs is the one case where zero is the truth.
        let (scalar, fused, _) = both_variants(&MrConfig::default(), true);
        assert_eq!((scalar.iterations, scalar.residual_norm_sqr), (0, 0.0));
        assert_eq!((fused.iterations, fused.residual_norm_sqr), (0, 0.0));
    }

    #[test]
    fn flop_count_scales_with_iterations() {
        let (_, f2) = run_mr(2, 0.5);
        let (_, f4) = run_mr(4, 0.5);
        assert!((f4 / f2 - 2.0).abs() < 0.05);
    }
}
