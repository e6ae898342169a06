//! Single-core kernel performance model (paper Sec. IV-B1 and Table II).
//!
//! The model has two layers:
//!
//! 1. An *instruction-issue* layer reproducing the paper's compute-bound
//!    derivation: FMA fraction, SIMD-mask efficiency, compute-slot
//!    dilution by unpaired non-compute instructions. With the paper's
//!    measured mix this yields the 56 % efficiency / ~20 Gflop/s/core
//!    bound for the Wilson-Clover kernel.
//!
//! 2. A *stall* layer: L1 misses to L2 (the block working set exceeds L1)
//!    and streaming traffic from main memory (fields that do not fit the
//!    per-core L2 partition), each attenuated by the software-prefetch
//!    mode. This is what separates the Table II columns.

use crate::chip::ChipSpec;
use serde::Serialize;

/// Storage precision of the operator's constant data (gauge + clover).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub enum Precision {
    Single,
    Half,
}

/// Software-prefetch configuration (Table II rows).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub enum PrefetchMode {
    /// No software prefetching (KNC has no L1 hardware prefetcher).
    None,
    /// L1 software prefetches only.
    L1,
    /// L1 + L2 software prefetches (code-generator interleaved).
    L1L2,
}

impl PrefetchMode {
    pub const ALL: [PrefetchMode; 3] = [PrefetchMode::None, PrefetchMode::L1, PrefetchMode::L1L2];

    /// Fraction of the L1-miss penalty left exposed.
    fn l1_exposure(self) -> f64 {
        match self {
            PrefetchMode::None => 0.85,
            PrefetchMode::L1 | PrefetchMode::L1L2 => 0.30,
        }
    }

    /// Multiplier on streaming-from-memory time (software L2 prefetches
    /// hide latency the irregular DD code denies the hardware prefetcher).
    fn stream_factor(self) -> f64 {
        match self {
            PrefetchMode::None => 2.0,
            PrefetchMode::L1 => 1.55,
            PrefetchMode::L1L2 => 1.0,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            PrefetchMode::None => "no software prefetching",
            PrefetchMode::L1 => "L1 prefetches",
            PrefetchMode::L1L2 => "L1+L2 prefetches",
        }
    }

    /// `(l1_exposure, stream_factor)` of this mode *on a given chip*. On
    /// the in-order KNC these are the software-prefetch attenuations
    /// above; an out-of-order chip with hardware prefetchers (KNL) hides
    /// most latency regardless of software prefetching, so every mode
    /// collapses to the same small residual exposure and unit streaming
    /// factor — the "no software prefetching" kernel profile of the KNL
    /// follow-on work.
    pub fn effects_on(self, chip: &ChipSpec) -> (f64, f64) {
        if chip.hw_prefetch {
            (0.15, 1.0)
        } else {
            (self.l1_exposure(), self.stream_factor())
        }
    }

    /// The software-prefetch modes worth searching on a chip: all three
    /// on the in-order KNC, only `None` where hardware prefetchers make
    /// the knob moot.
    pub fn modes_for(chip: &ChipSpec) -> &'static [PrefetchMode] {
        if chip.hw_prefetch {
            &[PrefetchMode::None]
        } else {
            &PrefetchMode::ALL
        }
    }
}

/// Instruction-mix and traffic description of one kernel.
#[derive(Copy, Clone, Debug, Serialize)]
pub struct KernelProfile {
    pub name: &'static str,
    /// Useful flops per site.
    pub flops_per_site: f64,
    /// Spinor (iteration-vector) bytes touched per site; always f32 in the
    /// preconditioner.
    pub vector_bytes_per_site: f64,
    /// Gauge + clover bytes per site at f32 (halved in `Precision::Half`).
    pub matrix_bytes_per_site: f64,
    /// Bytes per site streamed from main memory (data outside L2).
    pub stream_bytes_per_site: f64,
    /// Fraction of compute instructions that are FMAs.
    pub fma_instr_fraction: f64,
    /// SIMD lane utilization after boundary masking.
    pub simd_mask_efficiency: f64,
    /// Fraction of all instructions that are vector compute.
    pub compute_instr_fraction: f64,
    /// Of the non-compute instructions, fraction that could pair.
    pub pairable_fraction: f64,
    /// Of the pairable ones, fraction the compiler actually pairs.
    pub pairing_found: f64,
    /// Irregular access pattern (domain-strided gathers): software
    /// prefetching is less effective and streaming bandwidth drops —
    /// the paper's "presumably due to the irregular code structure"
    /// observation (Sec. III-B).
    pub irregular: bool,
}

impl KernelProfile {
    /// The Wilson-Clover / Schur operator inside the block solve: all data
    /// in L2 (paper Sec. III-B working-set analysis), instruction mix as
    /// measured in Sec. IV-B1.
    pub fn schur_operator() -> Self {
        Self {
            name: "schur-operator",
            flops_per_site: 1848.0,
            // Two spinor vectors (read + write) plus the in/out of the
            // stencil reuse window.
            vector_bytes_per_site: 2.0 * 96.0,
            // 4 links x 72 B (amortized over the two sites sharing each
            // link) + packed clover 288 B.
            matrix_bytes_per_site: 288.0 + 288.0,
            stream_bytes_per_site: 0.0,
            fma_instr_fraction: 0.64,
            simd_mask_efficiency: 0.93,
            compute_instr_fraction: 0.54,
            pairable_fraction: 0.72,
            pairing_found: 0.59,
            irregular: false,
        }
    }

    /// BLAS-1 work inside the MR iteration (dots and axpys on block
    /// vectors, in cache).
    pub fn block_level1() -> Self {
        Self {
            name: "block-level1",
            flops_per_site: 4.0 * 96.0,
            vector_bytes_per_site: 6.0 * 96.0,
            matrix_bytes_per_site: 0.0,
            stream_bytes_per_site: 0.0,
            fma_instr_fraction: 1.0,
            simd_mask_efficiency: 1.0,
            // Load/store dominated.
            compute_instr_fraction: 0.30,
            pairable_fraction: 0.8,
            pairing_found: 0.6,
            irregular: false,
        }
    }

    /// The block residual `(f - A u)|_domain`: operator-like compute but
    /// the global `u`, `f`, `r` fields stream from memory.
    pub fn block_residual() -> Self {
        Self {
            stream_bytes_per_site: 4.0 * 96.0,
            name: "block-residual",
            irregular: true,
            ..Self::schur_operator()
        }
    }

    /// Boundary extraction/insertion and solution/halo updates: almost no
    /// flops, pure data movement (packing of Fig. 3).
    pub fn pack_insert() -> Self {
        Self {
            name: "pack-insert",
            flops_per_site: 24.0,
            vector_bytes_per_site: 96.0,
            matrix_bytes_per_site: 0.0,
            stream_bytes_per_site: 2.0 * 96.0,
            fma_instr_fraction: 0.0,
            simd_mask_efficiency: 0.8,
            compute_instr_fraction: 0.2,
            pairable_fraction: 0.8,
            pairing_found: 0.6,
            irregular: true,
        }
    }
}

/// The evaluated model for one (profile, precision, prefetch) combination.
#[derive(Copy, Clone, Debug, Serialize)]
pub struct KernelModel {
    pub cycles_per_site: f64,
    pub flops_per_site: f64,
    /// Single-core sustained Gflop/s.
    pub gflops_per_core: f64,
    /// The compute-bound (no stalls) Gflop/s for reference.
    pub compute_bound_gflops: f64,
}

impl KernelModel {
    pub fn evaluate(
        profile: &KernelProfile,
        chip: &ChipSpec,
        precision: Precision,
        prefetch: PrefetchMode,
    ) -> KernelModel {
        let eff = issue_efficiency(profile);
        let flops_per_cycle = 2.0 * (chip.simd_f32 * chip.vpus) as f64 * eff;
        let compute_cycles = profile.flops_per_site / flops_per_cycle;
        let (l1_exposure_base, stream_factor) = prefetch.effects_on(chip);

        // Bytes that live in L2: iteration vectors plus operator matrices
        // (halved when stored in f16).
        let matrix_scale = match precision {
            Precision::Single => 1.0,
            Precision::Half => 0.5,
        };
        let l2_resident =
            profile.vector_bytes_per_site + matrix_scale * profile.matrix_bytes_per_site;
        let l1_lines = l2_resident / 64.0;
        let l1_exposure =
            if profile.irregular { l1_exposure_base.max(0.45) } else { l1_exposure_base };
        let l1_stall = l1_lines * chip.l1_miss_penalty_cycles * l1_exposure;

        // Streamed-from-memory bytes: limited by achievable per-core
        // bandwidth, scaled by how well prefetching overlaps it. Irregular
        // (domain-strided) access patterns defeat the hardware stream
        // detector and cut the achievable bandwidth.
        let mut per_core_bw_gbs = chip.per_core_bw_gbs;
        if profile.irregular {
            per_core_bw_gbs /= 2.5;
        }
        let stream_cycles =
            profile.stream_bytes_per_site * chip.freq_ghz / per_core_bw_gbs * stream_factor;

        let cycles = compute_cycles + l1_stall + stream_cycles;
        KernelModel {
            cycles_per_site: cycles,
            flops_per_site: profile.flops_per_site,
            gflops_per_core: profile.flops_per_site / cycles * chip.freq_ghz,
            compute_bound_gflops: flops_per_cycle * chip.freq_ghz,
        }
    }
}

/// The issue-efficiency formula of Sec. IV-B1:
/// `(1+fma)/2 * mask * compute / (1 - paired_fraction_of_all)`.
pub fn issue_efficiency(p: &KernelProfile) -> f64 {
    let fma_eff = 0.5 * (1.0 + p.fma_instr_fraction);
    let non_compute = 1.0 - p.compute_instr_fraction;
    let paired = p.pairing_found * non_compute;
    fma_eff * p.simd_mask_efficiency * p.compute_instr_fraction / (1.0 - paired)
}

/// Aggregate model of the MR iteration (Table II left column): the Schur
/// operator plus the block BLAS-1.
pub fn mr_iteration_rate(chip: &ChipSpec, precision: Precision, prefetch: PrefetchMode) -> f64 {
    let op = KernelModel::evaluate(&KernelProfile::schur_operator(), chip, precision, prefetch);
    let l1 = KernelModel::evaluate(&KernelProfile::block_level1(), chip, precision, prefetch);
    // Per site of the (even-checkerboard) block per MR iteration: one
    // Schur application + the BLAS-1 updates.
    let flops = op.flops_per_site + l1.flops_per_site;
    let cycles = op.cycles_per_site + l1.cycles_per_site;
    flops / cycles * chip.freq_ghz
}

/// Aggregate model of the whole DD preconditioner (Table II right column):
/// per Schwarz iteration and site — residual, `Idomain` MR iterations,
/// rhs preparation / odd reconstruction, boundary packing.
pub fn dd_method_rate(
    chip: &ChipSpec,
    precision: Precision,
    prefetch: PrefetchMode,
    i_domain: usize,
) -> f64 {
    let residual =
        KernelModel::evaluate(&KernelProfile::block_residual(), chip, precision, prefetch);
    let op = KernelModel::evaluate(&KernelProfile::schur_operator(), chip, precision, prefetch);
    let l1 = KernelModel::evaluate(&KernelProfile::block_level1(), chip, precision, prefetch);
    let pack = KernelModel::evaluate(&KernelProfile::pack_insert(), chip, precision, prefetch);

    let mut flops = 0.0;
    let mut cycles = 0.0;
    // Residual on the full block volume.
    flops += residual.flops_per_site;
    cycles += residual.cycles_per_site;
    // MR iterations (Schur + level-1) on the even half — per full-block
    // site this halves the level-1 weight but the operator touches the
    // full gauge/clover data.
    for _ in 0..i_domain {
        flops += op.flops_per_site + 0.5 * l1.flops_per_site;
        cycles += op.cycles_per_site + 0.5 * l1.cycles_per_site;
    }
    // Rhs preparation + odd reconstruction: one more operator-equivalent.
    flops += op.flops_per_site;
    cycles += op.cycles_per_site;
    // Packing/insertion and solution update.
    flops += 2.0 * pack.flops_per_site;
    cycles += 2.0 * pack.cycles_per_site;

    flops / cycles * chip.freq_ghz
}

/// Useful flops per block site and Schwarz iteration of the DD method
/// (consistent with [`dd_method_rate`]'s composite).
pub fn dd_method_flops_per_site(i_domain: usize) -> f64 {
    let op = KernelProfile::schur_operator().flops_per_site;
    let l1 = KernelProfile::block_level1().flops_per_site;
    let pack = KernelProfile::pack_insert().flops_per_site;
    // residual + Idomain * (op + half level-1) + rhs/reconstruction + packing
    op + i_domain as f64 * (op + 0.5 * l1) + op + 2.0 * pack
}

/// Fraction of SIMD lanes the site-fused vectorization can fill for a
/// Schwarz block geometry: the kernels vectorize over xy-tiles of the
/// block (Sec. III-C's site-fused layout), so a block whose xy footprint
/// is smaller than the vector width leaves lanes masked off. The paper
/// block (8x4x4x4) fills all 16 lanes — factor exactly 1.0 — which is
/// why the Table II rates carry no explicit block dependence.
pub fn simd_fill_factor(chip: &ChipSpec, block: &qdd_lattice::Dims) -> f64 {
    (((block.0[0] * block.0[1]) as f64) / chip.simd_f32 as f64).min(1.0)
}

/// The paper's theoretical bound reproduction (Sec. IV-B1).
pub fn wilson_clover_bound(chip: &ChipSpec) -> (f64, f64) {
    let eff = issue_efficiency(&KernelProfile::schur_operator());
    let flops_per_cycle = 2.0 * (chip.simd_f32 * chip.vpus) as f64 * eff;
    (eff, flops_per_cycle * chip.freq_ghz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec::knc_7110p()
    }

    #[test]
    fn efficiency_bound_matches_paper_derivation() {
        // Sec. IV-B1: 0.82 * 0.93 * 0.54/(1 - 0.59*0.46) = 56 %,
        // giving 18 flop/cycle/core ~= 20 Gflop/s/core.
        let (eff, gflops) = wilson_clover_bound(&chip());
        assert!((eff - 0.565).abs() < 0.01, "efficiency {eff}");
        let flops_per_cycle = 2.0 * 16.0 * eff;
        assert!((flops_per_cycle - 18.0).abs() < 0.5, "flops/cycle {flops_per_cycle}");
        assert!((gflops - 20.0).abs() < 1.0, "bound {gflops} Gflop/s");
    }

    #[test]
    fn table2_orderings() {
        let chip = chip();
        for precision in [Precision::Single, Precision::Half] {
            // Prefetching helps monotonically.
            let none = mr_iteration_rate(&chip, precision, PrefetchMode::None);
            let l1 = mr_iteration_rate(&chip, precision, PrefetchMode::L1);
            let l1l2 = mr_iteration_rate(&chip, precision, PrefetchMode::L1L2);
            assert!(none < l1, "{precision:?}: {none} !< {l1}");
            assert!(l1 <= l1l2 * 1.05, "{precision:?}: L1 {l1} vs L1L2 {l1l2}");
            // DD < MR (extra low-intensity work).
            for pf in PrefetchMode::ALL {
                let mr = mr_iteration_rate(&chip, precision, pf);
                let dd = dd_method_rate(&chip, precision, pf, 5);
                assert!(dd < mr, "{precision:?} {pf:?}: dd {dd} !< mr {mr}");
            }
        }
        // Half precision beats single everywhere.
        for pf in PrefetchMode::ALL {
            assert!(
                mr_iteration_rate(&chip, Precision::Half, pf)
                    > mr_iteration_rate(&chip, Precision::Single, pf)
            );
            assert!(
                dd_method_rate(&chip, Precision::Half, pf, 5)
                    > dd_method_rate(&chip, Precision::Single, pf, 5)
            );
        }
    }

    #[test]
    fn table2_values_in_paper_ballpark() {
        // Paper Table II (Gflop/s): MR single 5.4/9.2/9.1, half
        // 7.9/11.8/11.8; DD single 4.1/5.8/6.3, half 5.9/7.7/8.4.
        // The model must land within ~40 % of each entry.
        let chip = chip();
        let cases: [(Precision, PrefetchMode, f64, f64); 6] = [
            (Precision::Single, PrefetchMode::None, 5.4, 4.1),
            (Precision::Single, PrefetchMode::L1, 9.2, 5.8),
            (Precision::Single, PrefetchMode::L1L2, 9.1, 6.3),
            (Precision::Half, PrefetchMode::None, 7.9, 5.9),
            (Precision::Half, PrefetchMode::L1, 11.8, 7.7),
            (Precision::Half, PrefetchMode::L1L2, 11.8, 8.4),
        ];
        for (prec, pf, mr_paper, dd_paper) in cases {
            let mr = mr_iteration_rate(&chip, prec, pf);
            let dd = dd_method_rate(&chip, prec, pf, 5);
            assert!(
                (mr / mr_paper - 1.0).abs() < 0.4,
                "MR {prec:?} {pf:?}: model {mr:.1} vs paper {mr_paper}"
            );
            assert!(
                (dd / dd_paper - 1.0).abs() < 0.4,
                "DD {prec:?} {pf:?}: model {dd:.1} vs paper {dd_paper}"
            );
        }
    }

    #[test]
    fn simd_fill_full_for_paper_block_partial_for_slivers() {
        use qdd_lattice::Dims;
        let chip = chip();
        assert_eq!(simd_fill_factor(&chip, &Dims::new(8, 4, 4, 4)), 1.0);
        assert_eq!(simd_fill_factor(&chip, &Dims::new(4, 4, 4, 4)), 1.0);
        assert_eq!(simd_fill_factor(&chip, &Dims::new(2, 2, 2, 2)), 0.25);
        assert_eq!(simd_fill_factor(&chip, &Dims::new(2, 4, 8, 8)), 0.5);
    }

    #[test]
    fn rates_below_compute_bound() {
        let chip = chip();
        let (_, bound) = wilson_clover_bound(&chip);
        for prec in [Precision::Single, Precision::Half] {
            for pf in PrefetchMode::ALL {
                assert!(mr_iteration_rate(&chip, prec, pf) < bound);
                assert!(dd_method_rate(&chip, prec, pf, 5) < bound);
            }
        }
    }
}
