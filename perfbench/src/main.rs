//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench [--workload W]... [--seed K] [--seconds S] [--trace 0|1]
//!           [--runs N] [--json FILE]
//! perfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! Workloads: `read-steady`, `read-saturate`, `churn`, `build` (default:
//! all, in that order). Each run prints one `workload metric value unit`
//! line per metric it measured, then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! of an untraced run, or with `--trace 1` the per-layer metrics of a run
//! that measures the workload untraced and then traced, writes the traced
//! spans, and replays each layer on the recorded inputs. `--json FILE`
//! appends a record of every run for `compare`. The exit code is non-zero
//! when any output check failed.
//!
//! README.md next to this package explains every metric and workload.

#![forbid(unsafe_code)]

mod build;
mod compare;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod spans;
mod stats;

use metrics::{Outcome, Value};
use std::io::Write;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// The workloads, in the order a bare invocation runs them.
pub const WORKLOADS: [&str; 4] = ["read-steady", "read-saturate", "churn", "build"];

/// Cores the host offers (recorded with every result).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        runs: 1,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => a.runs = val()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--json" => a.json = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) || a.runs == 0 {
        return Err("--seconds and --runs must be positive".to_owned());
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(a)
}

/// Where runs keep their scratch files and spans: the cargo target
/// directory, so nothing lands outside the build tree.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench")
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload once.
pub fn run_workload(
    workload: &str,
    plan: &inputs::Plan,
    seed: u64,
    traced: bool,
    dir: &std::path::Path,
) -> Result<(Outcome, spans::SpanLog), String> {
    let _scratch = Scratch(dir.to_owned());
    match workload {
        "read-steady" => serve::run(serve::Mode::Steady, plan, seed, traced, dir),
        "read-saturate" => serve::run(serve::Mode::Saturate, plan, seed, traced, dir),
        "churn" => serve::run(serve::Mode::Churn, plan, seed, traced, dir),
        "build" => build::run(plan, seed, traced, dir),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn json_number(x: f64) -> serde_json::Value {
    serde_json::Value::Float(x)
}

/// The result object the last output line carries.
fn result_object(out: &Outcome, traced: bool) -> serde_json::Value {
    use serde_json::Value as J;
    let values = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let metrics = values
        .iter()
        .map(|v| {
            let m = J::Object(vec![
                ("value".to_owned(), json_number(v.value)),
                ("unit".to_owned(), J::Str(v.unit.to_owned())),
            ]);
            (v.name.clone(), m)
        })
        .collect();
    J::Object(vec![
        ("correct".to_owned(), J::Bool(out.correct())),
        ("attempted".to_owned(), J::UInt(out.attempted.max(1))),
        ("failed".to_owned(), J::UInt(out.failed)),
        ("metrics".to_owned(), J::Object(metrics)),
    ])
}

/// One line per run for `compare`: every number the run produced.
fn run_record(workload: &str, args: &Args, threads: usize, out: &Outcome) -> serde_json::Value {
    use serde_json::Value as J;
    let all: Vec<&Value> = out
        .end_to_end
        .iter()
        .chain(&out.per_layer)
        .chain(&out.extra)
        .collect();
    J::Object(vec![
        ("workload".to_owned(), J::Str(workload.to_owned())),
        ("seed".to_owned(), J::UInt(args.seed)),
        ("seconds".to_owned(), json_number(args.seconds)),
        ("traced".to_owned(), J::Bool(args.traced)),
        ("cores".to_owned(), J::UInt(cores() as u64)),
        ("threads".to_owned(), J::UInt(threads as u64)),
        ("correct".to_owned(), J::Bool(out.correct())),
        (
            "metrics".to_owned(),
            J::Object(
                all.iter()
                    .map(|v| (v.name.clone(), json_number(v.value)))
                    .collect(),
            ),
        ),
    ])
}

fn refuse_environment() -> Result<(), String> {
    for var in ["PBPPM_AUDIT", "PBPPM_THREADS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it changes what the program does, so the benchmark refuses to run"
            ));
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let code = match argv.get(1..) {
            Some([a, b]) => compare::run(a, b, "BENCHMARK.json"),
            Some([a, b, flag, bench]) if flag == "--benchmark" => compare::run(a, b, bench),
            _ => Err(
                "usage: perfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]".to_owned(),
            ),
        };
        match code {
            Ok(false) => return,
            Ok(true) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv).and_then(|a| refuse_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let plan = inputs::Plan::full(args.seconds);
    let mut all_correct = true;
    for run in 0..args.runs {
        for workload in &args.workloads {
            let dir = work_dir().join(format!("run-{}-{workload}-{run}", std::process::id()));
            let (mut out, spans) = match run_workload(workload, &plan, args.seed, args.traced, &dir)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {workload}: {e}");
                    std::process::exit(1);
                }
            };
            out.assert_complete(args.traced);
            if args.traced {
                let path = work_dir().join(format!("spans-{workload}-seed{}.json", args.seed));
                match spans.write_json(&path) {
                    Ok(()) => out.extra("trace.spans", spans.spans().len() as f64, "count"),
                    Err(e) => out.problem(format!("write spans {}: {e}", path.display())),
                }
                eprintln!("spans: {}", path.display());
            }
            for v in out
                .end_to_end
                .iter()
                .chain(&out.per_layer)
                .chain(&out.extra)
            {
                println!("{workload} {} {} {}", v.name, v.value, v.unit);
            }
            println!("{workload} cores {} count", cores());
            println!(
                "{workload} threads {} count",
                serve::dispatch_threads(&plan)
            );
            for p in &out.problems {
                eprintln!("check failed: {workload}: {p}");
            }
            for p in &out.invalid {
                eprintln!("invalid run: {workload}: {p}");
            }
            all_correct &= out.correct();
            if let Some(path) = &args.json {
                let line = serde_json::to_string(&run_record(
                    workload,
                    &args,
                    serve::dispatch_threads(&plan),
                    &out,
                ))
                .unwrap_or_default();
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{line}"));
                if let Err(e) = appended {
                    eprintln!("error: --json {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
            let result =
                serde_json::to_string(&result_object(&out, args.traced)).unwrap_or_default();
            println!("{result}");
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at tiny scale, traced (so both the untraced and the
    /// traced phase, every check and the replay run): every output check
    /// passes and every catalogued metric is reported. A 0.3 s open loop
    /// is too short to judge whether the load was sustained, so run
    /// validity is not asserted.
    #[test]
    fn all_workloads_run_at_tiny_scale() {
        let plan = inputs::Plan {
            seconds: 0.3,
            serve_trace: pbppm_trace::WorkloadConfig::tiny(3),
            build_trace: pbppm_trace::WorkloadConfig::tiny(3),
            shards: 4,
            window: 20,
            rebuild_every: 5,
            setups: 1,
            read_rate: 500.0,
            churn_rate: 300.0,
            min_rounds: 2,
        };
        let started = std::time::Instant::now();
        for workload in WORKLOADS {
            let dir = work_dir().join(format!("smoke-{}-{workload}", std::process::id()));
            let (out, spans) = run_workload(workload, &plan, 3, true, &dir).expect(workload);
            assert!(
                out.problems.is_empty() && out.failed == 0,
                "{workload}: {:?} (failed {})",
                out.problems,
                out.failed
            );
            assert!(out.attempted > 0, "{workload}");
            out.assert_complete(false);
            out.assert_complete(true);
            assert!(
                !spans.spans().is_empty(),
                "{workload}: traced run recorded spans"
            );
            assert!(!dir.exists(), "{workload}: scratch directory removed");
        }
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "smoke took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn arguments_parse_into_a_run_request() {
        let argv: Vec<String> = [
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workloads, ["churn"]);
        assert_eq!((a.seed, a.seconds, a.traced, a.runs), (7, 3.0, true, 1));
        let bad = |v: &[&str]| {
            parse_args(&v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).is_err()
        };
        assert!(bad(&["--workload", "nope"]));
        assert!(bad(&["--trace", "2"]));
        assert!(bad(&["--seconds", "0"]));
        assert!(bad(&["--bogus"]));
        assert_eq!(parse_args(&[]).unwrap().workloads, WORKLOADS);
    }
}
