//! Command line shared by the two binaries. `perf` (timing: tracing off,
//! system allocator) serves `--trace 0`; `perf-trace` (spans, counting
//! allocator) serves `--trace 1`; `run.sh` builds both and picks one.

use crate::host;
use crate::spec::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::workloads::{self, Options};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--check] [--out DIR] | --manifest";

struct Args {
    opts: Options,
    trace: Option<bool>,
    check: bool,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        opts: Options {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS as f64,
            smoke: false,
            out: PathBuf::from("perf/target/perf-out"),
        },
        trace: None,
        check: false,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.opts.workload = value()?.clone(),
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.opts.seconds >= 0.0 && a.opts.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => a.opts.out = PathBuf::from(value()?),
            "--smoke" => a.opts.smoke = true,
            "--check" => a.check = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Entry point of both binaries; `traced` says which one this is.
pub fn main(traced: bool) -> ExitCode {
    host::hermetic_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    if args.trace.is_some_and(|t| t != traced) {
        eprintln!(
            "--trace {} is served by the other binary; go through perf/run.sh",
            !traced as u8
        );
        return ExitCode::from(2);
    }
    if args.check {
        return check(&args.opts, traced);
    }
    if args.opts.workload == "all" {
        return match all(&args.opts) {
            Some(runs) if runs.iter().all(|r| r.correct) => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        };
    }
    if !WORKLOADS.iter().any(|w| w.name == args.opts.workload) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.opts.workload);
        return ExitCode::from(2);
    }
    println!("{}", host::facts_json());
    let result = workloads::run(&args.opts, traced);
    println!(
        "{} (seed {}, {} attempted, {} failed)",
        args.opts.workload, args.opts.seed, result.attempted, result.failed
    );
    print!("{}", result.table(traced));
    println!("{}", result.ledger.json());
    println!("{}", result.json_line(traced));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's run as its own process reported it.
struct ChildRun {
    workload: &'static str,
    correct: bool,
    metrics: Value,
    ledger: Value,
}

/// `--workload all`: one process per workload, so each reports its own
/// peak RSS. Children's output is passed on; their last two lines, the
/// ledger and the result, are parsed.
fn all(opts: &Options) -> Option<Vec<ChildRun>> {
    let exe = std::env::current_exe().ok()?;
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &opts.seed.to_string()]);
        child.args(["--seconds", &opts.seconds.to_string(), "--out"]).arg(&opts.out);
        if opts.smoke {
            child.arg("--smoke");
        }
        let out = child.stderr(Stdio::inherit()).output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let mut lines = text.lines().rev();
        let result = serde_json::from_str(lines.next()?).ok()?;
        let ledger = serde_json::from_str(lines.next()?).ok()?;
        runs.push(ChildRun {
            workload: w.name,
            correct: out.status.success() && result.get("correct")?.as_bool()?,
            metrics: result.get("metrics")?.clone(),
            ledger: ledger.get("ledger")?.clone(),
        });
    }
    Some(runs)
}

/// Do two ledgers agree on their common prefix, field by field?
fn ledgers_agree(a: &Value, b: &Value) -> bool {
    ["outer_iterations", "comm_bytes", "comm_messages", "digests"].iter().all(|key| {
        match (a.get(key).and_then(Value::as_array), b.get(key).and_then(Value::as_array)) {
            (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| p == q),
            _ => false,
        }
    })
}

/// `--check`: the whole set twice in one invocation. Timings must agree
/// within each metric's bound; counts and digests exactly.
fn check(opts: &Options, traced: bool) -> ExitCode {
    if opts.workload != "all" || traced {
        eprintln!(
            "--check compares the end-to-end metrics of every workload: --workload all, --trace 0"
        );
        return ExitCode::from(2);
    }
    let (Some(first), Some(second)) = (all(opts), all(opts)) else {
        eprintln!("a run did not report");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    println!(
        "\n{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        ok &= a.correct && b.correct;
        for m in END_TO_END {
            let value = |r: &ChildRun| {
                r.metrics.get(m.name).and_then(|v| v.get("value")).and_then(Value::as_f64)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("{:<16} {:<16} missing", a.workload, m.name);
                ok = false;
                continue;
            };
            // Either run may be the slower one.
            let worse = m.better.worsening(x, y).max(m.better.worsening(y, x));
            let verdict = if worse <= m.bound { "" } else { "  EXCEEDS" };
            ok &= worse <= m.bound;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                a.workload,
                m.name,
                x,
                y,
                100.0 * worse,
                100.0 * m.bound
            );
        }
        let same = ledgers_agree(&a.ledger, &b.ledger);
        ok &= same;
        println!(
            "{:<16} counts and digests {}",
            a.workload,
            if same { "identical" } else { "DIFFER" }
        );
    }
    if ok {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED");
        ExitCode::FAILURE
    }
}
