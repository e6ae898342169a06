//! Communication-hiding patterns (paper Fig. 4).
//!
//! The DD sweep cannot use the standard interior/surface split (too few
//! domains), so the paper devises the pattern of Figs. 4b/4c: t-boundaries
//! are sent after the first t-slice; x/y/z boundaries are sent in halves,
//! each hidden behind roughly half of the following compute. Hiding works
//! "as long as the number of cores is not larger than half the number of
//! domains".

use serde::Serialize;

/// Which hiding scheme is in effect.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub enum OverlapPattern {
    /// No overlap: all communication exposed.
    None,
    /// Fig. 4a: only the t-direction overlaps.
    TOnly,
    /// Figs. 4b/4c: t plus halved x/y/z boundaries.
    TPlusHalves,
}

/// Exposure calculator for one communication phase.
#[derive(Copy, Clone, Debug)]
pub struct OverlapModel {
    pub pattern: OverlapPattern,
    /// Fraction of the compute window actually usable for overlap
    /// (instruction slots stolen by the communicating core, imperfect
    /// pipelining).
    pub window_efficiency: f64,
}

impl OverlapModel {
    pub fn paper_dd() -> Self {
        Self { pattern: OverlapPattern::TPlusHalves, window_efficiency: 0.8 }
    }

    /// Exposed (non-hidden) communication time.
    ///
    /// `comm_per_dir[d]` is the transfer time in direction `d` (0 if not
    /// split); `compute_s` is the computation of one iteration available
    /// as the hiding window; `can_hide` encodes the "cores <= ndomain/2"
    /// requirement — when false everything is exposed.
    pub fn exposed_s(&self, comm_per_dir: &[f64; 4], compute_s: f64, can_hide: bool) -> f64 {
        let total: f64 = comm_per_dir.iter().sum();
        if !can_hide {
            return total;
        }
        let window = self.window_efficiency * compute_s;
        match self.pattern {
            OverlapPattern::None => total,
            OverlapPattern::TOnly => {
                // t overlaps with the full window; x/y/z fully exposed.
                let t = comm_per_dir[3];
                let xyz: f64 = comm_per_dir[..3].iter().sum();
                (t - window).max(0.0) + xyz
            }
            OverlapPattern::TPlusHalves => {
                // Every direction overlaps; each halved message sees about
                // half the window (Fig. 4c: (b) hides behind 3-5, (c)
                // behind 1-3 of the next iteration).
                let mut exposed = 0.0;
                let t = comm_per_dir[3];
                exposed += (t - window).max(0.0);
                for &c in &comm_per_dir[..3] {
                    exposed += (c - window * 0.5).max(0.0);
                }
                exposed
            }
        }
    }
}

/// Prediction and execution of one communication-hiding schedule, joined
/// in a single record: the model's exposed time for the phase next to the
/// time a real run actually spent blocked in receives.
#[derive(Copy, Clone, Debug, Serialize)]
pub struct OverlapValidation {
    /// Wall-clock seconds the execution spent blocked waiting for faces
    /// (the runtime's `recv_wait_s`, summed over the phase).
    pub measured_exposed_s: f64,
    /// The model's exposed time for the same traffic and compute window.
    pub predicted_exposed_s: f64,
    /// `measured / predicted`. When the model predicts *fully hidden*
    /// (zero exposed), a measurement that is also negligible — under 1%
    /// of the total communication time — validates the prediction and
    /// pins the ratio to 1.0; a substantial measured exposure against a
    /// zero prediction is flagged as infinite.
    pub ratio: f64,
}

impl OverlapModel {
    /// Join a measured execution against this model's prediction.
    pub fn validate(
        &self,
        comm_per_dir: &[f64; 4],
        compute_s: f64,
        can_hide: bool,
        measured_exposed_s: f64,
    ) -> OverlapValidation {
        let total: f64 = comm_per_dir.iter().sum();
        let predicted = self.exposed_s(comm_per_dir, compute_s, can_hide);
        let ratio = if predicted > 0.0 {
            measured_exposed_s / predicted
        } else if measured_exposed_s <= f64::EPSILON
            || (total > 0.0 && measured_exposed_s / total < 0.01)
        {
            1.0
        } else {
            f64::INFINITY
        };
        OverlapValidation { measured_exposed_s, predicted_exposed_s: predicted, ratio }
    }
}

/// One core count of the Eq. 7 hiding boundary for a staged operator
/// apply: the wire time of the split faces against the interior compute
/// window per core. Pure model output, bitwise reproducible on any host.
#[derive(Copy, Clone, Debug, Serialize)]
pub struct Eq7Point {
    pub cores: usize,
    /// Interior domains per core; hiding needs at least two.
    pub domains_per_core: f64,
    /// Overlap window: interior compute seconds per core per apply.
    pub window_s: f64,
    /// Wire time of the split faces per apply.
    pub wire_s: f64,
    pub model_staged_exposed_s: f64,
    pub model_bulk_exposed_s: f64,
    /// True when the model hides the wires completely (zero exposed).
    pub hidden: bool,
}

impl OverlapModel {
    /// Eq. 7 for a t-split operator apply on `cores` cores: `wire_s` of
    /// t-face traffic against `interior_flops` of boundary-independent
    /// work, `interior_domains` domains of it, at `core_gflops` per core.
    pub fn eq7_point(
        &self,
        wire_s: f64,
        interior_flops: f64,
        interior_domains: f64,
        core_gflops: f64,
        cores: usize,
    ) -> Eq7Point {
        let window_s = interior_flops / (core_gflops * 1e9 * cores as f64);
        let domains_per_core = interior_domains / cores as f64;
        let staged = self.exposed_s(&[0.0, 0.0, 0.0, wire_s], window_s, domains_per_core >= 2.0);
        Eq7Point {
            cores,
            domains_per_core,
            window_s,
            wire_s,
            model_staged_exposed_s: staged,
            model_bulk_exposed_s: wire_s,
            hidden: staged == 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_joins_measurement_and_prediction() {
        let m = OverlapModel::paper_dd();
        // Comm too large to hide: prediction is positive, ratio meaningful.
        let comm = [2e-3, 2e-3, 2e-3, 5e-3];
        let v = m.validate(&comm, 1e-3, true, 6e-3);
        assert!(v.predicted_exposed_s > 0.0);
        assert!((v.ratio - v.measured_exposed_s / v.predicted_exposed_s).abs() < 1e-15);
        // Fully hidden on both sides: ratio pinned to 1.
        let v = m.validate(&[1e-6; 4], 1.0, true, 0.0);
        assert_eq!(v.predicted_exposed_s, 0.0);
        assert_eq!(v.ratio, 1.0);
        // Model says hidden but execution exposed: infinite ratio flags it.
        let v = m.validate(&[1e-6; 4], 1.0, true, 5e-3);
        assert!(v.ratio.is_infinite());
    }

    #[test]
    fn no_hiding_when_one_domain_per_core() {
        let m = OverlapModel::paper_dd();
        let comm = [1e-3, 1e-3, 1e-3, 1e-3];
        assert_eq!(m.exposed_s(&comm, 1.0, false), 4e-3);
    }

    #[test]
    fn eq7_boundary_hides_ten_fold_then_collapses() {
        // `paper eq7`'s operating point: an 8^4 local lattice split in t on
        // the KNC — 12 interior 4^4 domains at 1848 flop/site, two 512-site
        // f64 half-spinor faces on the FDR wire.
        let knc = crate::BackendKind::Knc7110p.instance();
        let wire_s = knc.network().transfer_time_s(2.0 * 512.0 * 96.0, 2.0);
        let (_, core_gflops) = knc.wilson_clover_bound();
        let sweep: Vec<Eq7Point> = [1usize, 2, 4, 8, 16, 32, 60]
            .iter()
            .map(|&c| knc.overlap().eq7_point(wire_s, 3072.0 * 1848.0, 12.0, core_gflops, c))
            .collect();
        // The series the deleted `outer_overlap` baseline gated, at its
        // tolerance: 138.9 us on the wire at every point, against a window of
        // 285.4 us / cores.
        let pinned = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want;
        assert!(pinned(wire_s, 0.00013894171428571427), "wire {wire_s:e}");
        for p in &sweep {
            assert_eq!(p.wire_s.to_bits(), wire_s.to_bits());
            assert_eq!(p.model_bulk_exposed_s.to_bits(), wire_s.to_bits());
            assert!(pinned(p.window_s * p.cores as f64, 0.00028535081737914145), "{p:?}");
        }
        // Hidden entirely on one core — the ten-fold cut of the exposed wire
        // time ...
        assert!(sweep[0].model_staged_exposed_s * 10.0 <= sweep[0].model_bulk_exposed_s);
        let hidden: Vec<bool> = sweep.iter().map(|p| p.hidden).collect();
        assert_eq!(hidden, [true, false, false, false, false, false, false]);
        // ... partly while two domains per core remain (24.8 us exposed on 2
        // cores, 81.9 us on 4), and not at all below that: the boundary is
        // crossed.
        assert!(pinned(sweep[1].model_staged_exposed_s, 0.000024801387334057686), "{:?}", sweep[1]);
        assert!(pinned(sweep[2].model_staged_exposed_s, 0.00008187155080988597), "{:?}", sweep[2]);
        for p in &sweep[3..] {
            assert!(p.domains_per_core < 2.0);
            assert_eq!(p.model_staged_exposed_s.to_bits(), wire_s.to_bits());
        }
    }

    #[test]
    fn ample_compute_hides_everything() {
        let m = OverlapModel::paper_dd();
        let comm = [1e-4, 1e-4, 1e-4, 1e-4];
        let exposed = m.exposed_s(&comm, 1.0, true);
        assert_eq!(exposed, 0.0);
    }

    #[test]
    fn t_only_leaves_xyz_exposed() {
        let m = OverlapModel { pattern: OverlapPattern::TOnly, window_efficiency: 1.0 };
        let comm = [2e-3, 0.0, 3e-3, 5e-3];
        let exposed = m.exposed_s(&comm, 10.0, true);
        assert!((exposed - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn halved_pattern_beats_t_only() {
        let t_only = OverlapModel { pattern: OverlapPattern::TOnly, window_efficiency: 0.8 };
        let halves = OverlapModel::paper_dd();
        let comm = [2e-3, 2e-3, 2e-3, 2e-3];
        let compute = 3e-3;
        let e_t = t_only.exposed_s(&comm, compute, true);
        let e_h = halves.exposed_s(&comm, compute, true);
        assert!(e_h < e_t, "halves {e_h} !< t-only {e_t}");
    }

    #[test]
    fn exposure_monotone_in_comm_time() {
        let m = OverlapModel::paper_dd();
        let mut prev = 0.0;
        for scale in [0.5, 1.0, 2.0, 4.0] {
            let comm = [scale * 1e-3; 4];
            let e = m.exposed_s(&comm, 2e-3, true);
            assert!(e >= prev);
            prev = e;
        }
    }
}
