//! The metrics registry: counters, gauges and summaries with per-rank
//! scoping and SPMD merge semantics.
//!
//! `SolveStats` (in `qdd-util`) remains the hot-path ledger the solvers
//! write into; [`MetricsRegistry`] is the superset representation those
//! ledgers (and the comm counters) export into for aggregation and
//! reporting. Merge semantics: counters add, gauges take the maximum,
//! summaries combine, histogram buckets add — all associative and
//! commutative up to floating-point rounding (bucket counts exactly), so
//! the SPMD reduction order does not matter.
//!
//! Hot paths never touch a shared registry: [`ShardedMetrics`] hands
//! each lane (worker, rank) a private registry to record into —
//! wait-free by ownership, no atomics or locks per increment — and folds
//! the shards in fixed lane order at a phase boundary.

use crate::histogram::LogHistogram;
use serde::Serialize;
use std::collections::BTreeMap;

/// Running min / mean / max summary (a poor man's histogram).
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    pub fn new() -> Self {
        Self { n: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Combine two summaries (as if all samples had been recorded here).
    pub fn merge(&mut self, other: &Summary) {
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-rank (or merged) metrics: counters add, gauges max, summaries
/// merge, histogram buckets add.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MetricsRegistry {
    /// The rank these metrics describe; `None` after merging across ranks.
    pub rank: Option<u32>,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    summaries: BTreeMap<String, Summary>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn for_rank(rank: u32) -> Self {
        Self { rank: Some(rank), ..Self::default() }
    }

    /// Add to a monotonically increasing counter.
    pub fn add(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Set a gauge (last-write-wins locally, max across ranks).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record a sample into a named summary.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.summaries.entry(name.to_string()).or_default().record(value);
    }

    /// Record a sample into a named log-linear histogram.
    pub fn record_hist(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counters
    }

    pub fn histograms(&self) -> &BTreeMap<String, LogHistogram> {
        &self.histograms
    }

    /// Merge another rank's registry into this one. Associative and
    /// commutative (up to floating-point rounding in counter sums).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        if self.rank != other.rank {
            self.rank = None;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *e = e.max(*v);
        }
        for (k, s) in &other.summaries {
            self.summaries.entry(k.clone()).or_default().merge(s);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("metrics registry serializes")
    }
}

/// Wait-free hot-path metric recording: one private [`MetricsRegistry`]
/// per lane. A lane's increments touch only memory that lane owns — no
/// atomics, locks, or false sharing on the record path — and
/// [`ShardedMetrics::fold`] merges the shards in ascending lane order at
/// a phase boundary, so the reduction is deterministic for a fixed lane
/// count (and, because bucket/counter merges are associative and
/// commutative, value-identical for any).
#[derive(Clone, Debug)]
pub struct ShardedMetrics {
    shards: Vec<MetricsRegistry>,
}

impl ShardedMetrics {
    pub fn new(lanes: usize) -> Self {
        Self { shards: vec![MetricsRegistry::new(); lanes.max(1)] }
    }

    pub fn lanes(&self) -> usize {
        self.shards.len()
    }

    /// All shards, for handing one `&mut` slot to each worker.
    pub fn shards_mut(&mut self) -> &mut [MetricsRegistry] {
        &mut self.shards
    }

    /// Fold every shard into `target` in ascending lane order (the
    /// phase-boundary merge).
    pub fn fold(&self, target: &mut MetricsRegistry) {
        for shard in &self.shards {
            target.merge(shard);
        }
    }
}

/// Fault-handling counters of one rank's comm runtime: what the injector
/// did and what the recovery machinery spent. All counts add under merge
/// (each rank sees its own faults).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize)]
pub struct FaultStats {
    /// Failed delivery attempts that were retried.
    pub retries: u64,
    /// Exchanges that exhausted their retry budget.
    pub timeouts: u64,
    /// Corrupted faces detected by checksum mismatch.
    pub corruptions: u64,
    /// Straggler-delayed messages (injected delays, not backoff).
    pub delays: u64,
    /// Modeled latency added by delays and retry backoff, microseconds.
    pub delay_us: f64,
    /// Schwarz exchanges this rank skipped entirely (hiccups).
    pub hiccups: u64,
    /// Skip markers received from hiccuping peers. Distinct from
    /// `timeouts`: the peer announced the face is deliberately absent,
    /// no retry budget was spent waiting for it.
    pub peer_skips: u64,
    /// Halo faces zero-filled by the degrade policy after a fault.
    pub zero_fills: u64,
}

impl FaultStats {
    /// True if no fault activity was recorded at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }

    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corruptions += other.corruptions;
        self.delays += other.delays;
        self.delay_us += other.delay_us;
        self.hiccups += other.hiccups;
        self.peer_skips += other.peer_skips;
        self.zero_fills += other.zero_fills;
    }

    /// The change from `earlier` to `self` (both from the same rank).
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            corruptions: self.corruptions - earlier.corruptions,
            delays: self.delays - earlier.delays,
            delay_us: self.delay_us - earlier.delay_us,
            hiccups: self.hiccups - earlier.hiccups,
            peer_skips: self.peer_skips - earlier.peer_skips,
            zero_fills: self.zero_fills - earlier.zero_fills,
        }
    }

    /// Fold into a metrics registry under `fault.*` keys.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.add("fault.retries", self.retries as f64);
        reg.add("fault.timeouts", self.timeouts as f64);
        reg.add("fault.corruptions", self.corruptions as f64);
        reg.add("fault.delays", self.delays as f64);
        reg.add("fault.delay_us", self.delay_us);
        reg.add("fault.hiccups", self.hiccups as f64);
        reg.add("fault.peer_skips", self.peer_skips as f64);
        reg.add("fault.zero_fills", self.zero_fills as f64);
    }
}

/// Snapshot of one rank's communication counters (see `qdd-comm`'s
/// `CommCounters`): total and per-direction traffic, message and
/// reduction counts. Lives here so solver outcomes can carry it without
/// depending on the runtime.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct CommStats {
    /// Total payload bytes handed to the transport.
    pub bytes_sent: f64,
    /// Total payload bytes successfully delivered off the transport.
    /// Counted exactly once per message at delivery — retried deliveries
    /// are not re-counted, and a message abandoned when its retry budget
    /// runs out is not counted at all. Independent of `bytes_sent`: a
    /// rank that hiccups (sends nothing) still receives and merges peer
    /// faces.
    pub bytes_received: f64,
    /// Bytes per (dimension, direction): `[dim][0]` = backward,
    /// `[dim][1]` = forward, dims ordered x, y, z, t.
    pub bytes_by_dir: [[f64; 2]; 4],
    /// Number of face messages sent.
    pub messages_sent: u64,
    /// Number of global reductions participated in.
    pub reductions: u64,
    /// Wall-clock seconds spent blocked in face receives — the measured
    /// *exposed* communication time (Fig. 4: overlap hides the rest).
    pub recv_wait_s: f64,
    /// Fault injection and recovery activity (all zero on a clean fabric).
    pub faults: FaultStats,
}

impl CommStats {
    /// Aggregate another rank's snapshot into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        for d in 0..4 {
            for o in 0..2 {
                self.bytes_by_dir[d][o] += other.bytes_by_dir[d][o];
            }
        }
        self.messages_sent += other.messages_sent;
        self.recv_wait_s += other.recv_wait_s;
        // Reductions are collective: every rank participates in the same
        // ones, so aggregation takes the max, not the sum.
        self.reductions = self.reductions.max(other.reductions);
        self.faults.merge(&other.faults);
    }

    /// The change from `earlier` to `self` (both from the same rank).
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        let mut d = CommStats {
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            bytes_by_dir: self.bytes_by_dir,
            messages_sent: self.messages_sent - earlier.messages_sent,
            reductions: self.reductions - earlier.reductions,
            recv_wait_s: self.recv_wait_s - earlier.recv_wait_s,
            faults: self.faults.since(&earlier.faults),
        };
        for dim in 0..4 {
            for o in 0..2 {
                d.bytes_by_dir[dim][o] -= earlier.bytes_by_dir[dim][o];
            }
        }
        d
    }

    /// Fold into a metrics registry under `comm.*` (and `fault.*`) keys.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        if !self.faults.is_clean() {
            self.faults.export(reg);
        }
        reg.add("comm.bytes_sent", self.bytes_sent);
        reg.add("comm.bytes_received", self.bytes_received);
        reg.add("comm.messages_sent", self.messages_sent as f64);
        reg.add("comm.recv_wait_s", self.recv_wait_s);
        reg.set_gauge("comm.reductions", self.reductions as f64);
        const DIM: [&str; 4] = ["x", "y", "z", "t"];
        const DIR: [&str; 2] = ["bwd", "fwd"];
        for (bytes_dir, dim) in self.bytes_by_dir.iter().zip(DIM) {
            for (&bytes, dir) in bytes_dir.iter().zip(DIR) {
                if bytes > 0.0 {
                    reg.add(&format!("comm.bytes.{dim}.{dir}"), bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(rank: u32, c: f64, g: f64, samples: &[f64]) -> MetricsRegistry {
        let mut r = MetricsRegistry::for_rank(rank);
        r.add("flops", c);
        r.set_gauge("iters", g);
        for &s in samples {
            r.observe("residual", s);
        }
        r
    }

    #[test]
    fn counters_add_gauges_max_summaries_merge() {
        let mut a = reg(0, 10.0, 5.0, &[1.0, 3.0]);
        let b = reg(1, 4.0, 7.0, &[2.0]);
        a.merge(&b);
        assert_eq!(a.rank, None);
        assert_eq!(a.counter("flops"), 14.0);
        assert_eq!(a.gauge("iters"), Some(7.0));
        let s = a.summary("residual").unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn merge_is_associative() {
        let parts = [
            reg(0, 1.5, 1.0, &[0.5]),
            reg(1, 2.5, 9.0, &[0.25, 4.0]),
            reg(2, 4.0, 3.0, &[]),
            reg(3, 8.0, 2.0, &[7.0]),
        ];
        // (((0+1)+2)+3) vs (0+((1+2)+3)) vs pairwise tree.
        let mut left = parts[0].clone();
        for p in &parts[1..] {
            left.merge(p);
        }
        let mut right_tail = parts[1].clone();
        right_tail.merge(&parts[2]);
        right_tail.merge(&parts[3]);
        let mut right = parts[0].clone();
        right.merge(&right_tail);
        let mut tree_a = parts[0].clone();
        tree_a.merge(&parts[1]);
        let mut tree_b = parts[2].clone();
        tree_b.merge(&parts[3]);
        tree_a.merge(&tree_b);

        for combined in [&right, &tree_a] {
            assert!((left.counter("flops") - combined.counter("flops")).abs() < 1e-12);
            assert_eq!(left.gauge("iters"), combined.gauge("iters"));
            let (ls, cs) =
                (left.summary("residual").unwrap(), combined.summary("residual").unwrap());
            assert_eq!(ls.count(), cs.count());
            assert_eq!(ls.min(), cs.min());
            assert_eq!(ls.max(), cs.max());
            assert!((ls.sum() - cs.sum()).abs() < 1e-12);
        }
    }

    #[test]
    fn comm_stats_delta_and_merge() {
        let earlier = CommStats {
            bytes_sent: 100.0,
            bytes_received: 80.0,
            bytes_by_dir: [[0.0, 100.0], [0.0; 2], [0.0; 2], [0.0; 2]],
            messages_sent: 2,
            reductions: 1,
            recv_wait_s: 0.25,
            faults: FaultStats { retries: 1, ..FaultStats::default() },
        };
        let mut later = earlier.clone();
        later.bytes_sent += 50.0;
        later.bytes_received += 30.0;
        later.recv_wait_s += 0.5;
        later.bytes_by_dir[3][0] += 50.0;
        later.messages_sent += 1;
        later.reductions += 4;
        later.faults.retries += 2;
        later.faults.timeouts += 1;
        let d = later.since(&earlier);
        assert_eq!(d.bytes_received, 30.0);
        assert_eq!(d.recv_wait_s, 0.5);
        assert_eq!(d.faults.retries, 2);
        assert_eq!(d.faults.timeouts, 1);
        assert!(!d.faults.is_clean());
        assert_eq!(d.bytes_sent, 50.0);
        assert_eq!(d.bytes_by_dir[3][0], 50.0);
        assert_eq!(d.bytes_by_dir[0][1], 0.0);
        assert_eq!(d.messages_sent, 1);
        assert_eq!(d.reductions, 4);

        let mut total = d.clone();
        total.merge(&d);
        assert_eq!(total.bytes_sent, 100.0);
        assert_eq!(total.reductions, 4, "reductions are collective: max, not sum");
    }

    #[test]
    fn registry_histograms_merge_bucket_exact() {
        let mut a = MetricsRegistry::for_rank(0);
        let mut b = MetricsRegistry::for_rank(1);
        for i in 0..50 {
            a.record_hist("latency_ms", 1.0 + i as f64);
            b.record_hist("latency_ms", 100.0 + i as f64);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let (hab, hba) = (ab.histogram("latency_ms").unwrap(), ba.histogram("latency_ms").unwrap());
        assert_eq!(hab.bucket_snapshot(), hba.bucket_snapshot());
        assert_eq!(hab.count(), 100);
        assert_eq!(hab.quantile(0.5), hba.quantile(0.5));
        // Histograms serialize along with the rest of the registry.
        let v = ab.to_json();
        assert_eq!(v["histograms"]["latency_ms"]["count"].as_u64(), Some(100));
    }

    #[test]
    fn sharded_metrics_fold_in_lane_order() {
        let mut shards = ShardedMetrics::new(4);
        for (lane, shard) in shards.shards_mut().iter_mut().enumerate() {
            shard.add("par.jobs", (lane + 1) as f64);
            shard.record_hist("par.block_ms", 0.5 * (lane + 1) as f64);
        }
        let mut total = MetricsRegistry::new();
        shards.fold(&mut total);
        assert_eq!(total.counter("par.jobs"), 10.0);
        let h = total.histogram("par.block_ms").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn summary_roundtrip_matches_util_semantics() {
        let mut s = Summary::new();
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }
}
