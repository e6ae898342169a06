#!/usr/bin/env sh
# Full pre-merge verification: release build, every workspace test, the
# benchmark's API surface, smoke benches + gate, formatting, lints.
# Run from the repository root: sh scripts/verify.sh
# `sh scripts/verify.sh smoke` runs the smoke stage alone (CI's `smoke` job).
set -eu

cd "$(dirname "$0")/.."

# The gated benches, each asserting its own contract and leaving a
# results/BENCH_<name>.json whose deterministic fields (iterations, fault
# counters, trace ids, timeline shapes, plan fingerprints, solution
# digests) bench_gate.py pins against results/baselines/:
#   chaos    seeded fault injection recovers; the zero-rate run is bitwise
#            the fault-free world
#   shards   the pool serves with 1 of 3 shards under 100% loss (nothing
#            dropped, breaker opens, failover rescues every request), reruns
#            bitwise under one fault seed, matches the single world fault-free
#   serve    cold-vs-served bitwise agreement, complete request timelines,
#            the model join
#   autotune the model search beats the hand-set default on every backend
#            with a bitwise-reproducible plan
# Every other experiment has one home elsewhere: a `perf/` row, a workspace
# test, or a subcommand of `paper` — whose model regenerators run here, so
# that none of them can rot. This list is the only one; CI calls it.
GATED="chaos shards serve autotune"

smoke() {
    # QDD_FAULT_SEED is read by `shards` alone (its baseline is seed 7; the
    # other three fix their seeds in the source) and is pinned here so that a
    # value in the caller's environment cannot drift the gate.
    for bin in $GATED; do
        echo "==> $bin smoke benchmark (release)"
        QDD_FAULT_SEED=7 cargo run -p qdd-bench --release --bin "$bin" -- --smoke
    done
    echo "==> paper: every model regenerator (bound table2 table3 fig5 fig6 fig7 eq7)"
    cargo run -p qdd-bench --release --bin paper >/dev/null
    # On drift the gate points at results/FLIGHT_chaos.jsonl for the post-mortem.
    echo "==> bench gate vs committed baselines"
    python3 scripts/bench_gate.py
}

if [ "${1:-}" = smoke ]; then
    smoke
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

# Every test in the workspace gates every merge: the root package alone
# (Tier-1) runs under a tenth of them; the crates' unit, property and
# identity suites are the rest. The test profile is optimized, so the
# worker-count determinism and fused-operator property sweeps run here in
# seconds.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The benchmark compiles against the workspace's public API from outside
# it (perf/ is its own package) and, traced, recomposes every solve from
# the layers' public functions and fails unless that is bitwise equal to
# the entry point: a signature drift or a broken recomposition fails here,
# not in the next benchmark run.
echo "==> perf smoke (end-to-end, then traced recomposition)"
bash perf/run.sh --workload all --smoke
traced=$(mktemp)
trap 'rm -f "$traced"' EXIT
bash perf/run.sh --workload all --smoke --trace 1 >"$traced" || { cat "$traced"; exit 1; }
cat "$traced"

# A kernel that silently falls off the vector path passes every correctness
# test. The traced run times the fused and the scalar Schur application of
# one 4^4 f32 block in the same process on the same host, so their ratio is
# host-robust: 2.06 when `VReal::permute` compiled to a stack spill plus
# gathers (PR 13), 5.8 with the lane operations lowered by hand (PR 14).
# Only a build with the vector ISA has a lowering to fall off of.
echo "==> vector-path gate (fused / scalar Schur rate >= 3.0 on a vector build)"
python3 - "$traced" <<'PY'
import json, sys

host, worst = None, None
for line in open(sys.argv[1]):
    if line.startswith('{"host"'):
        host = json.loads(line)["host"]
    elif line.startswith('{"correct"'):
        m = json.loads(line)["metrics"]
        ratio = m["dirac.schur_fused_gflops"]["value"] / m["dirac.schur_scalar_gflops"]["value"]
        worst = ratio if worst is None else min(worst, ratio)
if host is None or worst is None:
    sys.exit("vector-path gate: no traced result line to read")
vector = host["built_with_fma"] or host["built_with_avx512f"]
print(f"dirac.schur_fused_gflops / dirac.schur_scalar_gflops = {worst:.2f} (worst of the run), "
      f"vector build: {vector}")
if vector and worst < 3.0:
    sys.exit("vector-path gate: the fused block kernel is below 3x the scalar one; count the "
             "gathers in its hot symbols (.claude/skills/verify/SKILL.md)")
PY

smoke

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> verify OK"
