//! Failure injection: the solver stack must *report* trouble (singular
//! blocks, iteration caps, breakdown) rather than panic or lie.

use lattice_qcd_dd::prelude::*;

fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

#[test]
fn singular_clover_blocks_are_detected_at_setup() {
    // Free field with m = -4 makes the site diagonal (4 + m) + 0 exactly
    // singular: the even-odd preconditioner cannot be built, and the
    // constructor must say so instead of producing NaNs later.
    let dims = Dims::new(4, 4, 4, 4);
    let gauge = GaugeField::<f64>::identity(dims);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.0, &basis);
    let op = WilsonClover::new(gauge, clover, -4.0, BoundaryPhases::periodic());
    let cfg = DdSolverConfig {
        schwarz: SchwarzConfig {
            block: Dims::new(2, 2, 2, 2),
            i_schwarz: 2,
            mr: MrConfig { iterations: 2, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(DdSolver::new(op, cfg).is_none());
}

#[test]
fn iteration_caps_are_honored_and_reported() {
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.6, 0.05, 3001);
    let mut rng = Rng64::new(3002);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let sys = LocalSystem::new(&op);

    // BiCGstab with an absurd cap: must not converge and must say so,
    // with an honest residual.
    let mut stats = SolveStats::new();
    let (x, out) =
        bicgstab(&sys, &b, &BiCgStabConfig { tolerance: 1e-12, max_iterations: 3 }, &mut stats);
    assert!(!out.converged);
    assert_eq!(out.iterations, 3);
    let mut ax = SpinorField::zeros(dims);
    op.apply(&mut ax, &x);
    let mut r = b.clone();
    r.sub_assign(&ax);
    let true_rel = r.norm() / b.norm();
    assert!((true_rel - out.relative_residual).abs() < 1e-10);

    // Same for FGMRES-DR.
    let cfg = FgmresConfig { max_basis: 8, deflate: 2, tolerance: 1e-12, max_iterations: 5 };
    let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
    let (_, out) = fgmres_dr(&sys, &b, &mut ident, &cfg, &mut stats);
    assert!(!out.converged);
    assert!(out.iterations <= 5);

    // And CGNR.
    let (_, out) = cgnr(&sys, &b, &CgConfig { tolerance: 1e-14, max_iterations: 2 }, &mut stats);
    assert!(!out.converged);
    assert_eq!(out.iterations, 2);
}

#[test]
fn richardson_with_weak_inner_still_reports_truthfully() {
    // An inner solver capped so hard it barely improves anything: the
    // outer refinement must terminate at its own cap and report the true
    // residual.
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.5, 0.1, 3003);
    let op32: WilsonClover<f32> = op.cast();
    let mut rng = Rng64::new(3004);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let sys = LocalSystem::new(&op);
    let sys32 = LocalSystem::new(&op32);
    let mut stats = SolveStats::new();
    let cfg = RichardsonConfig {
        tolerance: 1e-12,
        inner_tolerance: 0.9,
        inner_max_iterations: 1,
        max_outer: 3,
    };
    let (x, out) = richardson_bicgstab(&sys, &sys32, &b, &cfg, &mut stats);
    assert!(!out.converged);
    let mut ax = SpinorField::zeros(dims);
    op.apply(&mut ax, &x);
    let mut r = b.clone();
    r.sub_assign(&ax);
    assert!((r.norm() / b.norm() - out.relative_residual).abs() < 1e-9);
}

#[test]
fn herm6_singular_inversion_is_none_not_garbage() {
    use lattice_qcd_dd::field::clover::Herm6;
    let zero = Herm6::<f64>::zero();
    assert!(zero.invert().is_none());
    // A block with one exactly-zero eigenvalue direction.
    let mut h = Herm6::<f64>::scaled_identity(1.0);
    h.diag[3] = 0.0;
    // Still invertible? No: diagonal block with a zero eigenvalue.
    assert!(h.invert().is_none());
}

#[test]
fn mr_handles_exactly_singular_rhs_direction() {
    // rhs = 0 must return u = 0 with zero iterations even when tolerance
    // is unreachable.
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.5, 0.3, 3005);
    let pre = SchwarzPreconditioner::new(
        op.cast::<f32>(),
        SchwarzConfig {
            block: Dims::new(2, 2, 2, 2),
            i_schwarz: 2,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        },
    )
    .unwrap();
    let f = SpinorField::<f32>::zeros(dims);
    let mut stats = SolveStats::new();
    let u = pre.apply(&f, &mut stats);
    assert_eq!(u.norm_sqr(), 0.0);
}

#[test]
fn bicgstab_rho_underflow_is_a_flagged_breakdown_not_a_lie() {
    // A right-hand side scaled into the subnormal range makes the very
    // first rho = <r0, r0> underflow below f64::MIN_POSITIVE: BiCGstab
    // must stop, report converged = false, set the breakdown flag, and
    // return an honest residual — not divide by the underflowed rho and
    // emit Inf/NaN iterates.
    use lattice_qcd_dd::core_solver::fgmres_dr::Breakdown;
    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.5, 0.2, 3007);
    let mut rng = Rng64::new(3008);
    let mut b = SpinorField::<f64>::random(dims, &mut rng);
    let scale = 1e-160 / b.norm();
    for s in 0..b.len() {
        *b.site_mut(s) = b.site(s).scale(scale);
    }
    assert!(b.norm_sqr() > 0.0, "rhs must be nonzero for the test to bite");
    assert!(b.norm_sqr() < f64::MIN_POSITIVE, "rhs norm^2 must underflow");
    let sys = LocalSystem::new(&op);
    let mut stats = SolveStats::new();
    let (x, out) =
        bicgstab(&sys, &b, &BiCgStabConfig { tolerance: 1e-12, max_iterations: 100 }, &mut stats);
    assert!(!out.converged);
    assert_eq!(out.breakdown, Some(Breakdown::RhoUnderflow));
    // The iterate is untouched (still the zero initial guess) and finite.
    assert!(x.norm().is_finite());
    assert!(out.relative_residual.is_finite());
}

#[test]
fn bicgstab_nan_from_the_operator_is_flagged_not_propagated() {
    // An operator that starts emitting NaNs mid-solve (a poisoned halo, a
    // corrupted field) must surface as a NonFinite breakdown with
    // converged = false — never as a quiet NaN solution.
    use lattice_qcd_dd::core_solver::fgmres_dr::Breakdown;
    use lattice_qcd_dd::core_solver::system::SystemOps;
    use std::cell::Cell;

    struct PoisonedSystem<'a> {
        inner: LocalSystem<'a, f64>,
        applies: Cell<usize>,
        poison_after: usize,
    }
    impl SystemOps<f64> for PoisonedSystem<'_> {
        fn local_dims(&self) -> Dims {
            self.inner.local_dims()
        }
        fn apply(&self, out: &mut SpinorField<f64>, inp: &SpinorField<f64>, st: &mut SolveStats) {
            self.inner.apply(out, inp, st);
            let n = self.applies.get() + 1;
            self.applies.set(n);
            if n > self.poison_after {
                out.site_mut(0).0[0].0[0] = Complex::new(f64::NAN, 0.0);
            }
        }
        fn apply_adjoint(
            &self,
            out: &mut SpinorField<f64>,
            inp: &SpinorField<f64>,
            st: &mut SolveStats,
        ) {
            self.inner.apply_adjoint(out, inp, st);
        }
        fn apply_flops(&self) -> f64 {
            self.inner.apply_flops()
        }
        fn dot(&self, a: &SpinorField<f64>, b: &SpinorField<f64>, st: &mut SolveStats) -> C64 {
            self.inner.dot(a, b, st)
        }
        fn norm_sqr(&self, a: &SpinorField<f64>, st: &mut SolveStats) -> f64 {
            self.inner.norm_sqr(a, st)
        }
        fn dots_batched(
            &self,
            vs: &[SpinorField<f64>],
            w: &SpinorField<f64>,
            st: &mut SolveStats,
        ) -> Vec<C64> {
            self.inner.dots_batched(vs, w, st)
        }
        fn dot_and_norm(
            &self,
            a: &SpinorField<f64>,
            b: &SpinorField<f64>,
            st: &mut SolveStats,
        ) -> (C64, f64) {
            self.inner.dot_and_norm(a, b, st)
        }
    }

    let dims = Dims::new(4, 4, 4, 4);
    let op = operator(dims, 0.5, 0.2, 3009);
    let mut rng = Rng64::new(3010);
    let b = SpinorField::<f64>::random(dims, &mut rng);
    let sys =
        PoisonedSystem { inner: LocalSystem::new(&op), applies: Cell::new(0), poison_after: 4 };
    let mut stats = SolveStats::new();
    let (_, out) =
        bicgstab(&sys, &b, &BiCgStabConfig { tolerance: 1e-12, max_iterations: 200 }, &mut stats);
    assert!(!out.converged);
    assert_eq!(out.breakdown, Some(Breakdown::NonFinite));

    // FGMRES-DR over the same poisoned system: the residual guard must
    // trip (NonFinite or Diverged, depending on where the NaN lands in
    // the least-squares machinery) instead of iterating on garbage.
    let sys =
        PoisonedSystem { inner: LocalSystem::new(&op), applies: Cell::new(0), poison_after: 4 };
    let cfg = FgmresConfig { max_basis: 8, deflate: 2, tolerance: 1e-12, max_iterations: 50 };
    let mut ident = |r: &SpinorField<f64>, _: &mut SolveStats| r.clone();
    let (_, out) = fgmres_dr(&sys, &b, &mut ident, &cfg, &mut stats);
    assert!(!out.converged);
    assert!(out.breakdown.is_some(), "poisoned FGMRES must flag a breakdown");
}

#[test]
fn zero_volume_protections() {
    // Geometry constructors reject impossible shapes loudly.
    let result = std::panic::catch_unwind(|| {
        qdd_lattice::DomainGrid::new(Dims::new(8, 8, 8, 8), Dims::new(3, 4, 4, 4))
    });
    assert!(result.is_err(), "odd block extent must be rejected");
    let result =
        std::panic::catch_unwind(|| RankGrid::new(Dims::new(8, 8, 8, 8), Dims::new(3, 1, 1, 1)));
    assert!(result.is_err(), "indivisible rank grid must be rejected");
}
