//! The benchmark against its contract: `BENCHMARK.json` is the spec table,
//! within the schema's limits; both binaries emit exactly the named metrics
//! in smoke mode; the release profile is the repository's.

use qdd_perf::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ sits in the repository root")
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec_table() {
    let file = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(file, spec::manifest(), "regenerate with `perf --manifest > BENCHMARK.json`");
    assert!(file.len() <= 64 * 1024);
    let v = serde_json::from_str(&file).expect("valid JSON");
    let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(v["paths"].as_array().unwrap().len(), 1);
    assert_eq!(v["paths"][0].as_str(), Some("perf"));
    let seconds = v["run_seconds"].as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn names_units_counts_and_bounds_are_within_the_schema() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        assert!(seen.insert(w.name), "{} used twice", w.name);
    }
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
        assert!(seen.insert(name), "{name} used twice");
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }
}

/// `[profile.release]` of a manifest as sorted `key = value` lines.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest:?}: {e}"));
    let mut fields: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap().split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty())
        .collect();
    fields.sort();
    fields
}

#[test]
fn release_profile_is_the_repositorys() {
    let ours = release_profile(&repo_root().join("perf/Cargo.toml"));
    let theirs = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!theirs.is_empty(), "the root manifest lost its [profile.release]");
    assert_eq!(ours, theirs, "perf/Cargo.toml must copy the root [profile.release] field by field");
}

/// Run one binary in smoke mode and return its parsed last line.
fn smoke(exe: &str, workload: &str, trace: &str) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-out");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .args(["--smoke", "--out"])
        .arg(&out_dir)
        .env("QDD_WORKERS", "7")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON result line")
}

fn assert_result(v: &Value, expected: &[(&str, &str)], nonzero: bool, context: &str) {
    let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{context}");
    assert_eq!(v["correct"].as_bool(), Some(true), "{context}");
    assert!(v["attempted"].as_u64().unwrap() >= 1, "{context}");
    assert_eq!(v["failed"].as_u64(), Some(0), "{context}");
    let metrics = v["metrics"].as_object().unwrap();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(emitted, names, "{context}: every metric exactly once, in spec order");
    for (name, unit) in expected {
        let m = metrics.get(name).unwrap();
        assert_eq!(m["unit"].as_str(), Some(*unit), "{context}: {name}");
        let value = m["value"].as_f64().unwrap_or_else(|| panic!("{context}: {name} not a number"));
        assert!(!nonzero || value > 0.0, "{context}: {name} = {value}");
    }
}

#[test]
fn every_workload_emits_exactly_the_named_metrics() {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in WORKLOADS {
        let timed = smoke(env!("CARGO_BIN_EXE_perf"), w.name, "0");
        assert_result(&timed, &e2e, true, &format!("{} --trace 0", w.name));
        let traced = smoke(env!("CARGO_BIN_EXE_perf-trace"), w.name, "1");
        assert_result(&traced, &layers, false, &format!("{} --trace 1", w.name));
        // The roofline and the layers every workload runs are never zero.
        for name in
            ["host.stream_triad_gb_s", "dirac.schur_scalar_gflops", "dirac.schur_fused_gflops"]
        {
            assert!(traced["metrics"][name]["value"].as_f64().unwrap() > 0.0, "{}: {name}", w.name);
        }
    }
}

#[test]
fn the_wrong_binary_and_unknown_workloads_are_refused() {
    for args in [
        vec!["--workload", "dd_single", "--trace", "1", "--smoke"],
        vec!["--workload", "no_such_workload", "--smoke"],
        vec!["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf")).args(&args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not print a result");
    }
}
