#!/usr/bin/env python3
"""Bench gate: diff fresh smoke benchmark reports against committed baselines.

The smoke benchmarks are seeded and the solver stack is bitwise
deterministic, so everything that is *not* wall-clock — iteration counts,
fault-injection counters, request trace ids, timeline stage sequences —
must reproduce exactly run over run. This gate pins those fields against
baselines committed under ``results/baselines/`` and ignores timing,
throughput, and anything else scheduling-dependent (batch composition,
cache hit split, measured phase seconds).

Usage:
    python3 scripts/bench_gate.py            # compare all gated reports
    python3 scripts/bench_gate.py serve      # compare one report
    python3 scripts/bench_gate.py --update   # rewrite baselines from fresh runs

Run the smoke benchmarks first so ``results/BENCH_*.json`` is fresh
(``sh scripts/verify.sh smoke`` runs them and then this gate):
    cargo run -p qdd-bench --release --bin {autotune,chaos,serve,shards} -- --smoke

A baseline without a ``GATES`` entry fails the gate, as does an entry
without a baseline: a deleted benchmark cannot leave either behind.

Exits nonzero on any drift and points at the flight-recorder artifact
(``results/FLIGHT_chaos.jsonl``) for the post-mortem.
"""

import json
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
BASELINES = RESULTS / "baselines"

REL_TOL_DEFAULT = 1e-6


def timeline_shape(point):
    """Deterministic projection of a serialized RequestTimeline: the
    request's trace id, terminal status, and stage-name sequence (stage
    timestamps are wall clock and excluded)."""
    return {
        "trace": point["trace"],
        "status": point["status"],
        "stages": [s[0] for s in point["stages"]],
    }


# name -> {series label -> spec}; spec keys:
#   exact:  fields compared with ==
#   rel:    {field: tolerance} compared with relative error
#   derive: projection applied to the whole point before exact comparison
# "metas" follows the same shape for the report's meta map. Params are
# always compared exactly: they are the benchmark configuration.
GATES = {
    "autotune": {
        # The tuned plan is pure model output: every tunable, the plan
        # fingerprint, and the predicted seconds must reproduce bitwise
        # across hosts. The measured predict->measure->correct series
        # (model_join, calibrated_knc) is wall clock and not gated.
        "series": {
            "tuned_vs_default": {
                "exact": [
                    "backend",
                    "block",
                    "precision",
                    "prefetch",
                    "i_schwarz",
                    "i_domain",
                    "outer_iterations",
                    "fingerprint",
                    "evaluated",
                    "ranked",
                ],
                "rel": {
                    "predicted_total_s": 1e-9,
                    "default_predicted_total_s": 1e-9,
                    "speedup_over_default": 1e-9,
                },
            }
        },
        "metas": {"exact": ["plans_bitwise_identical"]},
    },
    "chaos": {
        "series": {
            "convergence_vs_fault_rate": {
                "exact": [
                    "rate",
                    "converged",
                    "iterations",
                    "restarts",
                    "rollbacks",
                    "retries",
                    "timeouts",
                    "corruptions",
                    "delays",
                    "hiccups",
                    "peer_skips",
                    "zero_fills",
                    "comm_faulted",
                    "flight_fault_events",
                ],
                "rel": {"relative_residual": REL_TOL_DEFAULT, "true_residual": REL_TOL_DEFAULT},
            }
        },
        "metas": {"exact": ["all_converged"]},
    },
    "serve": {
        "series": {
            "served_latency_ms": {"exact": ["request", "iterations"]},
            "request_timelines": {"derive": timeline_shape},
        },
        "metas": {"exact": ["bitwise_identical"]},
    },
    "shards": {
        # The sharded pool's scheduling is round-synchronous and its
        # fault plans are seeded, so everything but wall clock is pinned:
        # per-request status/iterations/attempts/trace ids, the breaker's
        # transition script (shard, edge, round), shed/failover counts in
        # the load sweep, and the FNV digest of every solution's bits.
        # p50/p99 latency fields are wall clock and not gated.
        "series": {
            "fault_free": {
                "exact": ["request", "trace", "config", "status", "iterations", "attempts"],
            },
            "degraded": {
                "exact": ["request", "trace", "config", "status", "iterations", "attempts"],
            },
            "breaker_transitions": {"exact": ["shard", "from", "to", "round"]},
            "load_sweep": {
                "exact": ["load", "shed", "converged", "degraded", "failovers", "breaker_trips"],
            },
        },
        "metas": {
            "exact": [
                "bitwise_identical",
                "rerun_bitwise",
                "zero_dropped",
                "fault_free_digest",
                "degraded_digest",
                "breaker_open_round",
                "failovers",
            ],
        },
    },
}


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def series_points(report, label):
    for s in report.get("series", []):
        if s.get("label") == label:
            return s.get("points", [])
    return None


def compare_values(path, fresh, base, failures):
    if fresh != base:
        failures.append(f"{path}: fresh {fresh!r} != baseline {base!r}")


def compare_report(name, fresh, base, gate):
    failures = []
    if fresh.get("params") != base.get("params"):
        failures.append(
            f"params: fresh {fresh.get('params')!r} != baseline {base.get('params')!r} "
            "(config drift — regenerate baselines deliberately with --update)"
        )
        return failures
    for label, spec in gate.get("series", {}).items():
        fp = series_points(fresh, label)
        bp = series_points(base, label)
        if fp is None or bp is None:
            failures.append(f"series {label!r}: missing from {'fresh' if fp is None else 'baseline'}")
            continue
        if len(fp) != len(bp):
            failures.append(f"series {label!r}: {len(fp)} fresh points vs {len(bp)} baseline")
            continue
        for i, (f, b) in enumerate(zip(fp, bp)):
            where = f"{label}[{i}]"
            if "derive" in spec:
                compare_values(where, spec["derive"](f), spec["derive"](b), failures)
                continue
            for field in spec.get("exact", []):
                compare_values(f"{where}.{field}", f.get(field), b.get(field), failures)
            for field, tol in spec.get("rel", {}).items():
                e = rel_err(f.get(field, 0.0), b.get(field, 0.0))
                if e > tol:
                    failures.append(
                        f"{where}.{field}: fresh {f.get(field)} vs baseline {b.get(field)} "
                        f"(rel err {e:.2e} > {tol:.0e})"
                    )
    for field in gate.get("metas", {}).get("exact", []):
        compare_values(
            f"metadata.{field}",
            fresh.get("metadata", {}).get(field),
            base.get("metadata", {}).get(field),
            failures,
        )
    return failures


def main(argv):
    update = "--update" in argv
    names = [a for a in argv if not a.startswith("--")] or sorted(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"bench_gate: unknown report(s) {unknown}; gated: {sorted(GATES)}")
        return 2

    # A GATES entry without a baseline fails below; the converse here.
    pinned = {p.stem.removeprefix("BENCH_") for p in BASELINES.glob("*.json")}
    if pinned - set(GATES):
        print(f"bench_gate: baseline(s) without a GATES entry: {sorted(pinned - set(GATES))} "
              "— gate the report or delete the baseline")
        return 1

    bad = 0
    for name in names:
        fresh_path = RESULTS / f"BENCH_{name}.json"
        base_path = BASELINES / f"BENCH_{name}.json"
        if not fresh_path.exists():
            print(f"bench_gate: {fresh_path.relative_to(ROOT)} missing — run the smoke benchmark first")
            bad += 1
            continue
        if update:
            BASELINES.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(fresh_path, base_path)
            print(f"bench_gate: baseline updated: {base_path.relative_to(ROOT)}")
            continue
        if not base_path.exists():
            print(f"bench_gate: no baseline {base_path.relative_to(ROOT)} — seed it with --update")
            bad += 1
            continue
        fresh = json.loads(fresh_path.read_text())
        base = json.loads(base_path.read_text())
        failures = compare_report(name, fresh, base, GATES[name])
        if failures:
            bad += 1
            print(f"bench_gate: {name}: {len(failures)} deterministic field(s) drifted:")
            for f in failures:
                print(f"  {f}")
        else:
            print(f"bench_gate: {name}: OK")
    if bad and not update:
        flight = RESULTS / "FLIGHT_chaos.jsonl"
        if flight.exists():
            print(f"bench_gate: flight-recorder dump for post-mortem: {flight.relative_to(ROOT)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
