#!/usr/bin/env bash
# The benchmark's command (see ../BENCHMARK.json): builds both binaries
# from source with the repository's release profile, then runs the one that
# serves the requested --trace value. Run from the repository root.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --bins 1>&2

bin=perf
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perf-trace
    fi
    prev="$arg"
done
exec "$target/release/$bin" --out "$target/perf-out" "$@"
