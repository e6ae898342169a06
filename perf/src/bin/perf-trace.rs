//! Tracing binary: spans around every layer call and a counting
//! allocator. Serves `--trace 1`.

#[global_allocator]
static ALLOC: qdd_perf::host::CountingAlloc = qdd_perf::host::CountingAlloc;

fn main() -> std::process::ExitCode {
    qdd_perf::cli::main(true)
}
