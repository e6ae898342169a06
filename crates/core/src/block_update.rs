//! The Schwarz block update: the approximate solve of `D z = (f - A u)|_b`
//! for one domain, and the per-domain constants it runs on.
//!
//! This is where the paper's kernel (Sec. III-A) meets the solver: every
//! flop of an update runs on site-fused xy tiles through
//! [`FusedSchur`] — block residual, Schur right-hand side, the MR
//! iterations, the odd reconstruction — out of a workspace its worker owns
//! for the whole preconditioner application. Only the hops that leave the
//! domain stay scalar: they read the shared iterate (or the rank halo)
//! site by site, exactly as the outer operator does.
//!
//! [`BlockKernels`] erases the lane count `bx * by / 2` of the block's xy
//! cross-section; a cross-section that fills no power-of-two register
//! (say 6x2) keeps the scalar [`SchurOperator`] path — a property of the
//! input, the same rule `build_full_operator_tuned` applies. The update is
//! a pure function of the domain's constants, `f` on the domain, the
//! iterate on the domain and on its opposite-color neighbors; that is all
//! the sweep's bitwise contract needs. Fused and scalar updates differ by
//! floating-point summation order only.

use crate::mr::{mr_solve_fused, mr_solve_schur, MrConfig};
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_dirac::fused::{BlockSites, FusedKernel, FusedSchur};
use qdd_dirac::wilson::{WilsonClover, TOTAL_FLOPS_PER_SITE};
use qdd_field::fields::SpinorField;
use qdd_field::fused::FusedField;
use qdd_field::halo::HaloData;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dir, DomainGrid, Parity};
use qdd_util::complex::Real;
use std::sync::Arc;

/// How an update reads the iterate: sites of the local lattice through
/// `fetch`, sites across a split rank boundary from `halo`.
pub struct Iterate<'a, T: Real> {
    pub fetch: &'a dyn Fn(usize) -> Spinor<T>,
    pub halo: &'a HaloData<T>,
    pub split: [bool; 4],
}

/// One worker's block solver: the scratch of an update, reused from domain
/// to domain.
pub trait BlockWorker<T: Real> {
    /// Solve for the update `z` of domain `dom_idx`, hand it out through
    /// `store(site, z(site))`, and return the (nominal) flops spent.
    fn update(
        &mut self,
        dom_idx: usize,
        mr: &MrConfig,
        f: &SpinorField<T>,
        u: &Iterate<'_, T>,
        store: &mut dyn FnMut(usize, Spinor<T>),
    ) -> f64;
}

/// One Schwarz block update: `u|_b += z` with `D z ~= (f - A u)|_b`, `z`
/// from `Idomain` MR iterations on the domain's even-odd Schur complement.
/// The serial reference and the sweep engine both call this, so they agree
/// bitwise by construction. Returns the flops spent.
pub fn schwarz_block_update<T: Real>(
    worker: &mut dyn BlockWorker<T>,
    dom_idx: usize,
    mr: &MrConfig,
    f: &SpinorField<T>,
    u: &Iterate<'_, T>,
    store: &mut dyn FnMut(usize, Spinor<T>),
) -> f64 {
    worker.update(dom_idx, mr, f, u, store)
}

/// The per-domain block-solve constants of one operator, lane-erased.
pub struct BlockKernels<T: Real>(Box<dyn Kernels<T>>);

trait Kernels<T: Real>: Send + Sync {
    fn worker<'a>(&'a self, op: &'a WilsonClover<T>) -> Box<dyn BlockWorker<T> + 'a>;
}

impl<T: Real> BlockKernels<T> {
    /// Gather (and invert, once per site) the constants of every domain of
    /// `grid`. `None` if a clover block is singular.
    pub fn new(op: &WilsonClover<T>, grid: &DomainGrid) -> Option<Self> {
        assert_eq!(op.dims(), grid.lattice());
        let block = grid.block();
        Some(Self(match block[Dir::X] * block[Dir::Y] / 2 {
            2 => Box::new(FusedKernels::<T, 2>::new(op, grid)?),
            4 => Box::new(FusedKernels::<T, 4>::new(op, grid)?),
            8 => Box::new(FusedKernels::<T, 8>::new(op, grid)?),
            16 => Box::new(FusedKernels::<T, 16>::new(op, grid)?),
            32 => Box::new(FusedKernels::<T, 32>::new(op, grid)?),
            _ => Box::new(ScalarKernels { fields: DomainFields::new(op)?, grid: grid.clone() }),
        }))
    }

    /// A worker over these constants; `op` must be the operator they were
    /// built from. Allocates the worker's scratch — once per application,
    /// not per domain.
    pub fn worker<'a>(&'a self, op: &'a WilsonClover<T>) -> Box<dyn BlockWorker<T> + 'a> {
        self.0.worker(op)
    }
}

/// Fused constants of every domain plus the shared site tables.
struct FusedKernels<T: Real, const N: usize> {
    sites: BlockSites,
    /// Per domain: its Schur operator and its origin's lattice index.
    domains: Vec<(FusedSchur<T, N>, usize)>,
}

impl<T: Real, const N: usize> FusedKernels<T, N> {
    fn new(op: &WilsonClover<T>, grid: &DomainGrid) -> Option<Self> {
        let sites = BlockSites::new(*grid.lattice(), *grid.block());
        // One kernel (lane patterns, spin rules) per block shape.
        let kernel = Arc::new(FusedKernel::new(*grid.block()));
        let domains = grid
            .domains()
            .map(|d| Some((FusedSchur::with_kernel(kernel.clone(), op, &d)?, sites.base(&d))))
            .collect::<Option<_>>()?;
        Some(Self { sites, domains })
    }
}

impl<T: Real, const N: usize> Kernels<T> for FusedKernels<T, N> {
    fn worker<'a>(&'a self, op: &'a WilsonClover<T>) -> Box<dyn BlockWorker<T> + 'a> {
        let field = || FusedField::zeros(*self.sites.block());
        Box::new(FusedWorker {
            kernels: self,
            op,
            z: field(),
            r_b: field(),
            rhs: field(),
            r: field(),
            q: field(),
            s1: field(),
            s2: field(),
        })
    }
}

/// The workspace of the fused update: seven block vectors (for the paper's
/// 8x4^3 f32 block 24 kB each, the working set of Sec. III-B).
struct FusedWorker<'a, T: Real, const N: usize> {
    kernels: &'a FusedKernels<T, N>,
    op: &'a WilsonClover<T>,
    /// The gathered iterate `u_b`, then the update `z`.
    z: FusedField<T, N>,
    /// The gathered `f_b`, then the block residual.
    r_b: FusedField<T, N>,
    rhs: FusedField<T, N>,
    r: FusedField<T, N>,
    q: FusedField<T, N>,
    s1: FusedField<T, N>,
    s2: FusedField<T, N>,
}

impl<T: Real, const N: usize> BlockWorker<T> for FusedWorker<'_, T, N> {
    fn update(
        &mut self,
        dom_idx: usize,
        mr: &MrConfig,
        f: &SpinorField<T>,
        u: &Iterate<'_, T>,
        store: &mut dyn FnMut(usize, Spinor<T>),
    ) -> f64 {
        let sites = &self.kernels.sites;
        let (schur, base) = &self.kernels.domains[dom_idx];
        let volume = sites.block().volume() as f64;

        // Block residual r_b = f_b - D_b u_b - (hops leaving the domain).
        sites.gather(&mut self.z, *base, u.fetch);
        sites.gather(&mut self.r_b, *base, |g| *f.site(g));
        schur.apply_block(&mut self.q, &self.z, &mut self.s1);
        for parity in [Parity::Even, Parity::Odd] {
            for (r, d) in self.r_b.tiles_mut(parity).iter_mut().zip(self.q.tiles(parity)) {
                for c in 0..24 {
                    r[c] = r[c].sub(d[c]);
                }
            }
        }
        sites.sub_surface(&mut self.r_b, *base, |g, hops| {
            self.op.hops_with_halo_fetch_split(g, hops, u.fetch, u.halo, u.split)
        });
        let mut flops = TOTAL_FLOPS_PER_SITE * volume;

        // Schur right-hand side, MR on the even half, odd reconstruction.
        schur.prepare_rhs(&mut self.rhs, &self.r_b, &mut self.s1);
        flops += 924.0 * volume; // half-volume hop + diag-inv
        let solve = mr_solve_fused(
            schur,
            mr,
            &mut self.z,
            &self.rhs,
            &mut self.r,
            &mut self.q,
            &mut self.s1,
            &mut self.s2,
        );
        flops += solve.flops;
        schur.reconstruct_odd(&mut self.z, &self.r_b, &mut self.s1);
        sites.scatter(&self.z, *base, store);
        flops + 924.0 * volume
    }
}

/// The scalar AoS path: the reference the fused update is tested against,
/// and what blocks without a power-of-two xy cross-section run.
struct ScalarKernels<T: Real> {
    fields: DomainFields<T>,
    grid: DomainGrid,
}

impl<T: Real> Kernels<T> for ScalarKernels<T> {
    fn worker<'a>(&'a self, op: &'a WilsonClover<T>) -> Box<dyn BlockWorker<T> + 'a> {
        Box::new(ScalarWorker { kernels: self, op })
    }
}

/// Nothing to reuse: the scalar update allocates its vectors as it goes.
struct ScalarWorker<'a, T: Real> {
    kernels: &'a ScalarKernels<T>,
    op: &'a WilsonClover<T>,
}

impl<T: Real> BlockWorker<T> for ScalarWorker<'_, T> {
    fn update(
        &mut self,
        dom_idx: usize,
        mr: &MrConfig,
        f: &SpinorField<T>,
        u: &Iterate<'_, T>,
        store: &mut dyn FnMut(usize, Spinor<T>),
    ) -> f64 {
        let schur =
            SchurOperator::new(self.op, &self.kernels.fields, self.kernels.grid.domain(dom_idx));
        let n = schur.cb_len();

        // Block residual r = (f - A u)|_domain, per parity.
        let residual = |parity| -> Vec<Spinor<T>> {
            let au = |g| self.op.apply_site_with_halo_fetch_split(g, u.fetch, u.halo, u.split);
            schur.global_cb_indices(parity).into_iter().map(|g| f.site(g).sub(au(g))).collect()
        };
        let (r_e, r_o) = (residual(Parity::Even), residual(Parity::Odd));
        let mut flops = TOTAL_FLOPS_PER_SITE * (2 * n) as f64;

        // Schur right-hand side and MR solve for the even half.
        let mut scratch_odd = vec![Spinor::ZERO; 2 * n];
        let mut rhs = vec![Spinor::ZERO; n];
        schur.prepare_rhs(&mut rhs, &r_e, &r_o, &mut scratch_odd);
        flops += 924.0 * (2 * n) as f64; // half-volume hop + diag-inv

        let mut z_e = vec![Spinor::ZERO; n];
        let mut mr_r = vec![Spinor::ZERO; n];
        let mut mr_q = vec![Spinor::ZERO; n];
        let solve =
            mr_solve_schur(&schur, mr, &mut z_e, &rhs, &mut mr_r, &mut mr_q, &mut scratch_odd);
        flops += solve.flops;

        // Odd half from the even solution.
        let mut z_o = vec![Spinor::ZERO; n];
        schur.reconstruct_odd(&mut z_o, &z_e, &r_o);
        schur.scatter_add_cb_with(&mut *store, &z_e, Parity::Even);
        schur.scatter_add_cb_with(store, &z_o, Parity::Odd);
        flops + 924.0 * (2 * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_dirac::boundary::self_halo;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, 0.5);
        let c = build_clover_field(&g, 1.5, &GammaBasis::degrand_rossi());
        WilsonClover::new(g, c, 0.2, BoundaryPhases::antiperiodic_t())
    }

    /// Largest relative difference `|z_fused - z_scalar| / |z_scalar|` of
    /// one block update over interior and lattice-boundary domains (the
    /// latter wrap in t with the antiperiodic phase), with the iterate's
    /// t-boundary read from the local field (`split_t` off: one rank) or
    /// from a halo (`split_t` on: what a rank with a t neighbor does).
    fn fused_vs_scalar<T: Real>(block: Dims, f16_vectors: bool, split_t: bool) -> f64 {
        let dims = block.times(&Dims::new(2, 2, 2, 4));
        let op64 = operator(dims, 41);
        let op: WilsonClover<T> = op64.cast();
        let grid = DomainGrid::new(dims, block);
        let kernels = BlockKernels::new(&op, &grid).unwrap();
        let oracle = ScalarKernels { fields: DomainFields::new(&op).unwrap(), grid: grid.clone() };
        let mut rng = Rng64::new(42);
        let f = SpinorField::<T>::random(dims, &mut rng);
        let u = SpinorField::<T>::random(dims, &mut rng);
        let split = [false, false, false, split_t];
        let mut halo = HaloData::zeros_split(dims, split);
        if split_t {
            let whole = self_halo(&op, &u);
            for fwd in [false, true] {
                *halo.face_mut(Dir::T, fwd) = whole.face(Dir::T, fwd).clone();
            }
        }
        let iterate = Iterate { fetch: &|i| *u.site(i), halo: &halo, split };
        let mr = MrConfig { iterations: 4, tolerance: 0.0, f16_vectors };

        let mut fused = kernels.worker(&op);
        let mut scalar = oracle.worker(&op);
        let mut worst = 0.0f64;
        // First and last domain touch the antiperiodic t boundary; the t
        // extent of 4 domains puts domain 9 in the interior.
        for dom_idx in [0, 9, grid.num_domains() - 1] {
            let mut z = [SpinorField::<T>::zeros(dims), SpinorField::zeros(dims)];
            let (zf, zs) = z.split_at_mut(1);
            let fl_f =
                schwarz_block_update(&mut *fused, dom_idx, &mr, &f, &iterate, &mut |g, v| {
                    *zf[0].site_mut(g) = v
                });
            let fl_s =
                schwarz_block_update(&mut *scalar, dom_idx, &mr, &f, &iterate, &mut |g, v| {
                    *zs[0].site_mut(g) = v
                });
            assert_eq!(fl_f, fl_s, "both paths book the nominal flop count");
            let norm = z[1].norm_sqr().to_f64();
            assert!(norm > 0.0);
            let mut d = z[0].clone();
            d.sub_assign(&z[1]);
            worst = worst.max((d.norm_sqr().to_f64() / norm).sqrt());
        }
        worst
    }

    /// The fused update is the scalar update up to summation order: pinned
    /// by a tolerance, never by `==`. Blocks with 4, 8 (square, 8x2 and
    /// 2x8 cross-sections) and 16 lanes.
    #[test]
    fn fused_block_update_matches_scalar_oracle() {
        for block in [
            Dims::new(4, 2, 2, 2),
            Dims::new(4, 4, 2, 2),
            Dims::new(8, 2, 2, 2),
            Dims::new(2, 8, 2, 2),
            Dims::new(4, 4, 4, 4),
            Dims::new(8, 4, 4, 4),
        ] {
            for split_t in [false, true] {
                let d64 = fused_vs_scalar::<f64>(block, false, split_t);
                assert!(d64 <= 1e-12, "f64 {block} split_t={split_t}: {d64:e}");
                let d32 = fused_vs_scalar::<f32>(block, false, split_t);
                assert!(d32 <= 1e-5, "f32 {block} split_t={split_t}: {d32:e}");
                assert!(d32 > 0.0, "f32 fused and scalar orders differ; equality is suspicious");
                // f16 iteration vectors: a last-bit difference before the
                // rounding can move a component by one f16 ulp (2^-11).
                let d16 = fused_vs_scalar::<f32>(block, true, split_t);
                assert!(d16 <= 2e-4, "f32/f16 vectors {block} split_t={split_t}: {d16:e}");
            }
        }
    }

    /// A cross-section that fills no register keeps the scalar path, and
    /// says so by being bitwise the oracle.
    #[test]
    fn non_power_of_two_cross_section_takes_the_scalar_path() {
        assert_eq!(fused_vs_scalar::<f64>(Dims::new(6, 2, 2, 4), false, false), 0.0);
        assert_eq!(fused_vs_scalar::<f32>(Dims::new(6, 2, 2, 4), true, true), 0.0);
    }
}
