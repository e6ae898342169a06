//! Timing binary: tracing off, system allocator. Serves `--trace 0`.

fn main() -> std::process::ExitCode {
    qdd_perf::cli::main(false)
}
