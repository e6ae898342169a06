//! The machine under the benchmark: a hermetic environment, host facts for
//! the record, peak RSS, and the two roofline denominators (sustainable
//! memory bandwidth and FMA peak) measured in the same run as the kernels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Remove the variables that silently change what the library does:
/// `QDD_WORKERS` overrides every configured worker count
/// (`resolve_workers`), `QDD_FAULT_SEED` seeds fault plans in the benches.
/// Call before the first thread is spawned.
pub fn hermetic_env() {
    for var in ["QDD_WORKERS", "QDD_FAULT_SEED"] {
        std::env::remove_var(var);
    }
}

fn sys_cache(index: usize, file: &str) -> Option<String> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/{file}");
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Last-level cache size in bytes (0 when sysfs does not say).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| sys_cache(i, "size"))
        .filter_map(|s| s.strip_suffix('K').and_then(|k| k.parse::<usize>().ok()))
        .map(|kib| kib * 1024)
        .max()
        .unwrap_or(0)
}

/// Host facts as one JSON object: thread count, caches, the vector ISA the
/// CPU reports, and whether the build was compiled for it (the root
/// `.cargo/config.toml` asks for `target-cpu=native`; a build that did not
/// inherit it lowers every `mul_add` to a libm call).
pub fn facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = (0..8)
        .filter_map(|i| {
            Some(format!(
                "\"L{}{}\": \"{}\"",
                sys_cache(i, "level")?,
                match sys_cache(i, "type")?.as_str() {
                    "Data" => "d",
                    "Instruction" => "i",
                    _ => "",
                },
                sys_cache(i, "size")?
            ))
        })
        .collect();
    #[cfg(target_arch = "x86_64")]
    let (avx512f, f16c, fma) = (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("f16c"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx512f, f16c, fma) = (false, false, false);
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"caches\": {{{}}}, \"cpu_avx512f\": {avx512f}, \
         \"cpu_f16c\": {f16c}, \"cpu_fma\": {fma}, \"built_with_fma\": {}, \"built_with_avx512f\": {}}}}}",
        caches.join(", "),
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx512f"),
    )
}

/// `VmHWM` of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// STREAM triad `a = b + s*c` on one thread over three arrays of
/// `bytes_per_array` each; best of `passes` in GB/s (10^9 bytes, counting
/// the three streams the triad names). The arrays must be at least four
/// times the last-level cache.
pub fn stream_triad_gb_s(bytes_per_array: usize, passes: usize) -> f64 {
    let n = bytes_per_array / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best = 0.0f64;
    for pass in 0..passes {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let secs = t.elapsed().as_secs_f64();
        best = best.max(3.0 * bytes_per_array as f64 / secs / 1e9);
    }
    best
}

macro_rules! fma_peak {
    ($name:ident, $t:ty, $lanes:expr) => {
        /// Single-thread FMA peak in Gflop/s: independent accumulators of
        /// two 512-bit vectors each, enough of them to cover the FMA
        /// latency on two ports.
        pub fn $name(seconds: f64) -> f64 {
            const ACC: usize = 12;
            const INNER: usize = 4096;
            let mut acc = [[1.0 as $t; $lanes]; ACC];
            let x = black_box([1.000_000_1 as $t; $lanes]);
            let y = black_box([1.0e-9 as $t; $lanes]);
            let mut best = 0.0f64;
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds {
                let t = Instant::now();
                for _ in 0..INNER {
                    for a in acc.iter_mut() {
                        for l in 0..$lanes {
                            a[l] = a[l].mul_add(x[l], y[l]);
                        }
                    }
                }
                black_box(&mut acc);
                let flops = (2 * ACC * $lanes * INNER) as f64;
                best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
            }
            best
        }
    };
}

fma_peak!(fma_peak_f32_gflops, f32, 32);
fma_peak!(fma_peak_f64_gflops, f64, 16);

/// The system allocator with a call counter in front; `perf-trace` installs
/// it as its global allocator to report allocations per preconditioner
/// application. `perf` keeps the plain system allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far (0 forever when `CountingAlloc` is not installed).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
