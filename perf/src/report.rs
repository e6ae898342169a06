//! Statistics, the determinism ledger and the result line.

use crate::spec;
use std::collections::BTreeMap;

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile (nearest rank), or `None` when fewer than ten samples
/// lie beyond it: a tail read off a handful of samples is noise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// FNV-1a over the bit patterns of a stream of f64.
#[derive(Copy, Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What must repeat exactly between two runs of one seed, per solve (per
/// wave for the digests of the campaign): outer iteration counts,
/// communication counts and the digest of the solution. A run measures
/// for a time, not a count, so two runs are compared on their common
/// prefix.
#[derive(Default)]
pub struct Ledger {
    pub outer_iterations: Vec<usize>,
    pub comm_bytes: Vec<f64>,
    pub comm_messages: Vec<u64>,
    pub digests: Vec<String>,
}

impl Ledger {
    pub fn json(&self) -> String {
        format!(
            "{{\"ledger\": {{\"outer_iterations\": {:?}, \"comm_bytes\": {:?}, \"comm_messages\": {:?}, \"digests\": {:?}}}}}",
            self.outer_iterations, self.comm_bytes, self.comm_messages, self.digests
        )
    }
}

/// One run's outcome: metric values by name plus the failure count.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let dup = self.metrics.insert(name, value);
        assert!(dup.is_none(), "metric {name} emitted twice");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output: exactly the contract's keys, and
    /// exactly the metrics of the requested kind, each once.
    pub fn json_line(&self, traced: bool) -> String {
        let specs = spec::names_and_units(traced);
        assert_eq!(self.metrics.len(), specs.len(), "emitted metrics differ from the spec");
        let metrics: Vec<String> = specs
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).unwrap_or_else(|| panic!("metric {name} missing"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self, traced: bool) -> String {
        spec::names_and_units(traced)
            .iter()
            .filter_map(|(name, unit)| Some((name, unit, self.metrics.get(name)?)))
            .map(|(name, unit, v)| format!("  {name:<36} {v:>16.6} {unit}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=168).map(|i| i as f64).collect();
        // 168 samples: 16 beyond p90, 8 beyond p95, 1 beyond p99.
        assert_eq!(percentile(&s, 0.90), Some(152.0));
        assert_eq!(percentile(&s, 0.95), None);
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(percentile(&s[..99], 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let mut a = Digest::default();
        a.update([1.0, 2.0]);
        let mut b = Digest::default();
        b.update([1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.update([1.0]);
        c.update([2.0]);
        assert_eq!(a.hex(), c.hex());
    }
}
