//! The kernel rows: a timing harness the layer calls are run through, and
//! the roofline each row is held against. Operation counts come from the
//! library's public `apply_flops()` / `schur_flops()`; bytes are computed
//! from array sizes (they ignore cache misses and cache residency alike),
//! so a row's GB/s is a computed figure, not a counter reading.

use crate::host;
use crate::report::median;
use std::time::Instant;

/// What one call of a kernel does: operations, computed bytes, and which
/// FMA peak bounds it. Rows without an operation count (conversions,
/// copies, latencies) carry zeros.
#[derive(Copy, Clone, Debug)]
pub struct Work {
    pub flops: f64,
    pub bytes: f64,
    pub f64_peak: bool,
}

impl Work {
    pub const NONE: Work = Work { flops: 0.0, bytes: 0.0, f64_peak: false };

    pub fn f32(flops: f64, bytes: f64) -> Self {
        Work { flops, bytes, f64_peak: false }
    }

    pub fn f64(flops: f64, bytes: f64) -> Self {
        Work { flops, bytes, f64_peak: true }
    }

    pub fn bytes(bytes: f64) -> Self {
        Work { bytes, ..Work::NONE }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub seconds: f64,
    pub work: Work,
    pub allocs: f64,
}

impl Row {
    pub fn gflops(&self) -> f64 {
        self.work.flops / self.seconds / 1e9
    }

    pub fn gb_s(&self) -> f64 {
        self.work.bytes / self.seconds / 1e9
    }
}

pub struct Bench {
    /// Seconds of repetitions per row.
    budget_s: f64,
    pub rows: Vec<Row>,
}

impl Bench {
    pub fn new(budget_s: f64) -> Self {
        Self { budget_s, rows: Vec::new() }
    }

    /// Median seconds per call of `f` over batches filling the budget,
    /// after one untimed call.
    fn time(&self, f: &mut dyn FnMut()) -> f64 {
        f();
        let t = Instant::now();
        f();
        let once = t.elapsed().as_secs_f64().max(1e-9);
        let batch = ((1e-3 / once) as usize).clamp(1, 100_000);
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < 3 || start.elapsed().as_secs_f64() < self.budget_s {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        median(&samples)
    }

    pub fn run(&mut self, name: &'static str, work: Work, f: &mut dyn FnMut()) {
        let seconds = self.time(f);
        self.record(name, seconds, work);
    }

    /// [`Bench::run`], and the allocator calls one more call makes (0 in
    /// the untraced binary, whose allocator does not count).
    pub fn run_counting_allocs(&mut self, name: &'static str, work: Work, f: &mut dyn FnMut()) {
        self.run(name, work, f);
        let before = host::allocations();
        f();
        self.rows.last_mut().expect("row just pushed").allocs =
            (host::allocations() - before) as f64;
    }

    pub fn record(&mut self, name: &'static str, seconds: f64, work: Work) {
        self.rows.push(Row { name, seconds, work, allocs: 0.0 });
    }

    pub fn row(&self, name: &str) -> &Row {
        self.rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no kernel row {name}"))
    }
}

/// The host's roofline, measured in the same run as the rows.
#[derive(Copy, Clone, Debug)]
pub struct Roofline {
    pub triad_gb_s: f64,
    pub triad_array_bytes: usize,
    pub llc_bytes: usize,
    pub peak_f32_gflops: f64,
    pub peak_f64_gflops: f64,
}

impl Roofline {
    /// Three arrays of 256 MiB (64 MiB in smoke runs): at least four times
    /// the last-level cache, which is asserted, not assumed.
    pub fn measure(small: bool, seconds_per_peak: f64) -> Self {
        let triad_array_bytes = if small { 64 << 20 } else { 256 << 20 };
        let llc_bytes = host::llc_bytes();
        assert!(
            small || triad_array_bytes >= 4 * llc_bytes,
            "triad arrays of {triad_array_bytes} B are under 4x the {llc_bytes} B last-level cache"
        );
        Self {
            triad_gb_s: host::stream_triad_gb_s(triad_array_bytes, if small { 2 } else { 3 }),
            triad_array_bytes,
            llc_bytes,
            peak_f32_gflops: host::fma_peak_f32_gflops(seconds_per_peak),
            peak_f64_gflops: host::fma_peak_f64_gflops(seconds_per_peak),
        }
    }

    /// `min(peak, bandwidth x flop/byte)` in Gflop/s.
    pub fn bound_gflops(&self, work: &Work) -> f64 {
        let peak = if work.f64_peak { self.peak_f64_gflops } else { self.peak_f32_gflops };
        peak.min(self.triad_gb_s * work.flops / work.bytes)
    }

    /// Achieved share of the roofline bound.
    pub fn fraction(&self, row: &Row) -> f64 {
        row.gflops() / self.bound_gflops(&row.work)
    }
}

/// The kernel table for people: ops, computed bytes, flop/byte, rates and
/// the fraction of the roofline.
pub fn table(bench: &Bench, roof: &Roofline) -> String {
    let mut out = format!(
        "roofline: triad {:.2} GB/s (3 x {} MiB arrays, LLC {} MiB), FMA peak f32 {:.1} / f64 {:.1} Gflop/s, one thread\n",
        roof.triad_gb_s,
        roof.triad_array_bytes >> 20,
        roof.llc_bytes >> 20,
        roof.peak_f32_gflops,
        roof.peak_f64_gflops
    );
    out.push_str(&format!(
        "  {:<26} {:>11} {:>12} {:>12} {:>9} {:>9} {:>8} {:>9}\n",
        "kernel", "s/call", "ops", "bytes(comp)", "flop/B", "Gflop/s", "GB/s", "roofline"
    ));
    for r in &bench.rows {
        let Work { flops, bytes, .. } = r.work;
        let (intensity, frac) = if flops > 0.0 && bytes > 0.0 {
            (format!("{:.3}", flops / bytes), format!("{:.3}", roof.fraction(r)))
        } else {
            ("-".into(), "-".into())
        };
        out.push_str(&format!(
            "  {:<26} {:>11.3e} {:>12.4e} {:>12.4e} {:>9} {:>9.3} {:>8.3} {:>9}\n",
            r.name,
            r.seconds,
            flops,
            bytes,
            intensity,
            r.gflops(),
            r.gb_s(),
            frac
        ));
    }
    out
}
