//! Property-based tests (proptest) over the numerical core: invariants
//! that must hold for *any* gauge configuration, mass, and source.

use lattice_qcd_dd::prelude::*;
use proptest::prelude::*;
use qdd_util::half::F16;

fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::<f64>::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// gamma5-hermiticity holds for every synthetic configuration.
    #[test]
    fn gamma5_hermiticity_any_configuration(
        seed in 0u64..1000,
        spread in 0.0f64..1.2,
        mass in -0.2f64..1.0,
    ) {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, spread, mass, seed);
        let basis = GammaBasis::degrand_rossi();
        let mut rng = Rng64::new(seed ^ 0xABCD);
        let x = SpinorField::<f64>::random(dims, &mut rng);
        let y = SpinorField::<f64>::random(dims, &mut rng);
        // <x, g5 A g5 y> == <A x, y>
        let g5y = SpinorField::from_fn(dims, |s| basis.apply_gamma5(y.site(s)));
        let mut ag5y = SpinorField::zeros(dims);
        op.apply(&mut ag5y, &g5y);
        let g5ag5y = SpinorField::from_fn(dims, |s| basis.apply_gamma5(ag5y.site(s)));
        let mut ax = SpinorField::zeros(dims);
        op.apply(&mut ax, &x);
        let lhs = x.dot(&g5ag5y);
        let rhs = ax.dot(&y);
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    /// The operator is linear for arbitrary complex coefficients.
    #[test]
    fn operator_linearity(
        seed in 0u64..1000,
        re in -2.0f64..2.0,
        im in -2.0f64..2.0,
    ) {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.6, 0.1, seed);
        let mut rng = Rng64::new(seed ^ 0x1111);
        let a = SpinorField::<f64>::random(dims, &mut rng);
        let b = SpinorField::<f64>::random(dims, &mut rng);
        let alpha = Complex::new(re, im);
        let mut combo = a.clone();
        combo.axpy(alpha, &b);
        let mut lhs = SpinorField::zeros(dims);
        op.apply(&mut lhs, &combo);
        let mut aa = SpinorField::zeros(dims);
        op.apply(&mut aa, &a);
        let mut ab = SpinorField::zeros(dims);
        op.apply(&mut ab, &b);
        aa.axpy(alpha, &ab);
        lhs.sub_assign(&aa);
        prop_assert!(lhs.norm() < 1e-9 * (1.0 + aa.norm()));
    }

    /// BiCGstab always returns a vector whose true residual matches its
    /// claim, for any solvable random problem.
    #[test]
    fn bicgstab_reports_true_residuals(seed in 0u64..500) {
        let dims = Dims::new(4, 4, 4, 4);
        let op = operator(dims, 0.4, 0.4, seed);
        let mut rng = Rng64::new(seed ^ 0x2222);
        let b = SpinorField::<f64>::random(dims, &mut rng);
        let sys = LocalSystem::new(&op);
        let mut stats = SolveStats::new();
        let (x, out) = bicgstab(
            &sys,
            &b,
            &BiCgStabConfig { tolerance: 1e-7, max_iterations: 5000 },
            &mut stats,
        );
        let mut ax = SpinorField::zeros(dims);
        op.apply(&mut ax, &x);
        let mut r = b.clone();
        r.sub_assign(&ax);
        let true_rel = r.norm() / b.norm();
        prop_assert!((true_rel - out.relative_residual).abs() < 1e-9);
        if out.converged {
            prop_assert!(true_rel < 1e-6);
        }
    }

    /// f16 round-trips are monotone and bounded for normal-range values.
    #[test]
    fn f16_roundtrip_bounded(x in -6.0e4f32..6.0e4) {
        let r = F16::round_f32(x);
        if x.abs() > 6.2e-5 {
            prop_assert!(((r - x) / x).abs() <= 2.0f32.powi(-11) + 1e-9);
        } else {
            // Subnormal range: absolute error bounded by the subnormal ulp.
            prop_assert!((r - x).abs() <= 2.0f32.powi(-24));
        }
    }

    /// f16 conversion is monotone: a <= b implies round(a) <= round(b).
    #[test]
    fn f16_monotone(a in -1.0e4f32..1.0e4, b in -1.0e4f32..1.0e4) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::round_f32(lo) <= F16::round_f32(hi));
    }

    /// Gauge fields generated at any roughness stay in SU(3).
    #[test]
    fn gauge_generation_stays_special_unitary(seed in 0u64..2000, spread in 0.0f64..3.0) {
        let dims = Dims::new(2, 2, 2, 2);
        let mut rng = Rng64::new(seed);
        let g = GaugeField::<f64>::random(dims, &mut rng, spread);
        prop_assert!(g.max_unitarity_error() < 1e-10);
    }

    /// The Schwarz preconditioner never *increases* the residual of a
    /// random right-hand side (it is a contraction on the residual for
    /// these well-conditioned synthetic problems).
    #[test]
    fn schwarz_contracts_residual(seed in 0u64..200) {
        let dims = Dims::new(8, 4, 4, 4);
        let op = operator(dims, 0.4, 0.4, seed);
        let pre = SchwarzPreconditioner::new(
            op.cast::<f32>(),
            SchwarzConfig {
                block: Dims::new(4, 2, 2, 2),
                i_schwarz: 3,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
        ).unwrap();
        let mut rng = Rng64::new(seed ^ 0x3333);
        let f = SpinorField::<f64>::random(dims, &mut rng).cast::<f32>();
        let mut stats = SolveStats::new();
        let u = pre.apply(&f, &mut stats);
        // Residual after preconditioning.
        let op32: WilsonClover<f32> = op.cast();
        let mut au = SpinorField::zeros(dims);
        op32.apply(&mut au, &u);
        let mut r = f.clone();
        r.sub_assign(&au);
        prop_assert!(r.norm() < f.norm(), "{} !< {}", r.norm(), f.norm());
    }
}
