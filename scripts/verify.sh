#!/usr/bin/env sh
# Full pre-merge verification: release build, every workspace test, the
# benchmark's API surface, smoke benches + gate, formatting, lints.
# Run from the repository root: sh scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

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

# Chaos smoke: seeded fault injection must recover (retries > 0, converged)
# and the zero-rate run must be bitwise identical to a fault-free world —
# both asserted inside the binary.
echo "==> chaos smoke benchmark (release)"
cargo run -p qdd-bench --release --bin chaos -- --smoke

# Shards smoke: the supervised shard pool must keep serving with 1 of 3
# shards under 100% message loss (zero dropped requests, breaker opens
# within threshold, failover rescues every request), reproduce bitwise
# under the same fault seed, and match the single-world path bitwise when
# fault-free — all asserted inside the binary; statuses, trace ids,
# breaker transitions, shed/failover counts and the solution digests are
# pinned by the gate.
echo "==> shards smoke benchmark (release)"
QDD_FAULT_SEED=7 cargo run -p qdd-bench --release --bin shards -- --smoke

# Overlap smoke: the Fig. 4 staged schedule must be bitwise identical to
# the bulk exchange (asserted inside the binary) and reports measured
# exposed communication for both schedules.
echo "==> overlap smoke benchmark (release)"
cargo run -p qdd-bench --release --bin overlap -- --smoke

# Outer-overlap smoke: the staged outer matvec must be bitwise identical
# to the bulk exchange across worker counts, a peer hiccup must land in
# the peer-skip fault class (not timeouts), and the Eq. 7 model sweep
# must cut exposed comm >= 10x inside the hiding boundary — all asserted
# inside the binary; the model series and both correctness verdicts are
# pinned by the gate.
echo "==> outer-overlap smoke benchmark (release)"
cargo run -p qdd-bench --release --bin outer_overlap -- --smoke

# Serve smoke: bitwise cold-vs-served agreement plus the telemetry
# acceptance asserts (complete per-request timelines, model join).
echo "==> serve smoke benchmark (release)"
cargo run -p qdd-bench --release --bin serve -- --smoke

# Telemetry guard: instrumented solves must be bitwise identical to bare
# ones (overhead is gated in full runs, reported in smoke).
echo "==> telemetry overhead guard (release, smoke)"
cargo run -p qdd-bench --release --bin telemetry -- --smoke

# Outer smoke: fused-vs-scalar matvec across storage precisions; the
# fused operator is cross-checked site-for-site against the scalar loop
# and the streamed bytes/site per storage are pinned by the gate.
echo "==> outer smoke benchmark (release)"
cargo run -p qdd-bench --release --bin outer -- --smoke

# Memory-wall smoke: the f16 storage sweep must be bitwise identical
# across workers/tiles and cut streamed bytes/site >= 1.8x vs f64 (both
# asserted inside the binary); bytes/site, join iterations, and the plan
# fingerprint are pinned by the gate.
echo "==> memwall smoke benchmark (release)"
cargo run -p qdd-bench --release --bin memwall -- --smoke

# Autotune smoke: the model search must beat the hand-set default on
# every backend and produce a bitwise-reproducible plan (both asserted
# inside the binary; the plan fingerprints are pinned by the gate).
echo "==> autotune smoke benchmark (release)"
cargo run -p qdd-bench --release --bin autotune -- --smoke

# Bench gate: the deterministic fields of the fresh smoke reports above
# (iterations, fault counters, trace ids, timeline shapes) must match the
# committed baselines in results/baselines/. On drift it points at
# results/FLIGHT_chaos.jsonl for the post-mortem.
echo "==> bench gate vs committed baselines"
python3 scripts/bench_gate.py

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> verify OK"
