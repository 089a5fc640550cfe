//! `ingest` — parse/train/end-to-end throughput of the parallel
//! bounded-memory ingestion pipeline, the third leg of
//! `scripts/perf-gate.sh`.
//!
//! The other perf legs measure *serving*; this one measures the build
//! pipeline: raw CLF log → parsed [`Trace`] → sessions → frozen PB-PPM
//! model. Each phase runs twice per round — the sequential reference
//! (`pbppm_trace::reference::trace_from_lines` + `train_session` loops)
//! and the parallel path
//! (`trace_from_clf_reader` chunked ingestion + `train_sessions`
//! partition-and-merge) — which is meaningful *because* the parallel path
//! is property-tested bit-identical to the sequential one: the comparison
//! is pure speed, never a quality trade.
//!
//! Measured, each as the minimum across [`ROUNDS`] rounds:
//!
//! * **parse** — CLF lines/second, file → `Trace`;
//! * **train** — sessions/second, sessions → finalized PB-PPM model
//!   (popularity count + tree build + finalize);
//! * **end_to_end** — wall seconds, log file → frozen model;
//! * **peak heap** — the live-byte high-water mark of each parse path
//!   (via the counting allocator this binary installs), pinning the
//!   bounded-memory claim: the chunked path must not out-allocate the
//!   buffer-everything path it replaces.
//!
//! Results go to `results/ingest.json`; the `ingest` binary also records
//! them as the committed `BENCH_ingest.json` at the workspace root. When
//! `PBPPM_PERF_BASELINE_INGEST` names a baseline, the run gates against
//! it (exit 1 on regression, exit 2 on an unreadable/shape-mismatched
//! baseline). Two gates are baseline-independent: on hosts with at least
//! [`SPEEDUP_MIN_CORES`] cores the end-to-end speedup must reach
//! [`SPEEDUP_FLOOR`], and the parallel parse peak must stay within
//! [`PEAK_SLACK`] of sequential everywhere. (On narrower hosts the
//! speedup gate is vacuous — there is no parallelism to win — so only
//! the no-regression and peak gates bite.) A peak measured as 0 fails
//! the peak gate: it means no counting allocator was installed, and a
//! skipped check would pass silently.
//!
//! Flags: `--days D --threads T` (defaults 7 / 0 = auto).

use crate::{nasa_trace, write_json, Table};
use pbppm_core::{PbConfig, PbPpm, PopularityBuilder, PopularityTable, Predictor, UrlId};
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm_trace::reference::trace_from_lines;
use pbppm_trace::{sessionize, SessionizerConfig, Trace};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::time::Instant;

/// Full repetitions; every reported number is the minimum across rounds.
const ROUNDS: usize = 3;
/// Allowed wall-time slowdown against the baseline before the gate
/// fails. Sub-second single-shot wall times on a loaded 1-core CI box
/// jitter far more than the serving benches' medians (observed ~1.7x
/// run-to-run with the machine otherwise busy), so this matches
/// loadgen's 100%; genuine pipeline regressions compound across phases
/// and still trip it.
const GATE_TOLERANCE: f64 = 1.00;
/// Required end-to-end speedup (sequential / parallel) on capable hosts.
const SPEEDUP_FLOOR: f64 = 2.0;
/// Minimum core count before the speedup floor is enforced.
const SPEEDUP_MIN_CORES: usize = 4;
/// The parallel parse peak may exceed the sequential peak by at most
/// this factor (chunks in flight are bounded; the merge holds compact
/// records only).
const PEAK_SLACK: f64 = 1.25;
/// Seconds of 1995-07-01 04:00 UTC, the epoch synthetic logs start at.
const NASA_EPOCH: i64 = 804_571_200;

/// Sequential-vs-parallel wall time for one pipeline phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// "parse", "train", or "end_to_end".
    pub phase: String,
    /// Sequential wall seconds, minimum across rounds.
    pub sequential_secs: f64,
    /// Parallel wall seconds, minimum across rounds.
    pub parallel_secs: f64,
    /// `sequential_secs / parallel_secs`.
    pub speedup: f64,
}

/// Everything one `ingest` run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestReport {
    /// Trace the log was synthesized from.
    pub trace: String,
    /// CLF lines in the log file.
    pub lines: usize,
    /// Log file size in bytes.
    pub bytes: u64,
    /// Sessions the trace sessionizes into.
    pub sessions: usize,
    /// Configured worker count (0 = auto).
    pub threads: usize,
    /// What 0 resolved to on this host.
    pub effective_threads: usize,
    /// Available parallelism of the measuring host.
    pub cores: usize,
    /// Rounds behind the minima.
    pub rounds: usize,
    /// Parallel-path parse throughput, lines/second.
    pub parse_lines_per_sec: f64,
    /// Parallel-path training throughput, sessions/second.
    pub train_sessions_per_sec: f64,
    /// Live-heap high-water mark of the sequential parse, bytes.
    pub sequential_peak_bytes: u64,
    /// Live-heap high-water mark of the chunked parallel parse, bytes.
    pub parallel_peak_bytes: u64,
    /// `parallel_peak_bytes / sequential_peak_bytes`.
    pub peak_ratio: f64,
    /// Per-phase timings: parse, train, end_to_end.
    pub phases: Vec<PhaseTiming>,
}

struct Config {
    days: usize,
    threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            // The full 7-day NASA-like window: longer phases amortize
            // scheduler jitter that would swamp a 2-day run's ~50 ms
            // timings.
            days: 7,
            threads: 0,
        }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config::default();
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--days" => cfg.days = val()?.parse().map_err(|e| format!("--days: {e}"))?,
            "--threads" => cfg.threads = val()?.parse().map_err(|e| format!("--threads: {e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.days == 0 {
        return Err("--days must be positive".to_owned());
    }
    Ok(cfg)
}

/// Writes the first `days` days of `trace` as a CLF log file; returns
/// (lines, bytes).
fn write_log(trace: &Trace, days: usize, path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    let requests = trace.first_days(days);
    for r in requests {
        let rec = ClfRecord {
            host: trace
                .clients
                .resolve(UrlId(r.client.0))
                .unwrap_or("unknown")
                .to_owned(),
            time: i64::try_from(r.time).unwrap_or(0) + NASA_EPOCH,
            method: "GET".to_owned(),
            path: trace.urls.resolve(r.url).unwrap_or("/").to_owned(),
            status: r.status,
            size: r.size,
        };
        writeln!(w, "{}", format_clf_line(&rec))?;
    }
    w.flush()?;
    Ok((requests.len(), std::fs::metadata(path)?.len()))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn parse_sequential(path: &std::path::Path) -> Trace {
    let file = std::fs::File::open(path).expect("open log");
    let lines = std::io::BufReader::new(file)
        .lines()
        .map(|l| l.expect("read bench log"));
    trace_from_lines("bench", lines).0
}

fn parse_parallel(path: &std::path::Path, threads: usize) -> Trace {
    trace_from_clf_path("bench", path, &IngestConfig { threads })
        .expect("ingest log")
        .0
}

fn session_urls(trace: &Trace) -> Vec<Vec<UrlId>> {
    sessionize(&trace.requests, &SessionizerConfig::default())
        .iter()
        .map(|s| s.views.iter().map(|v| v.url).collect())
        .collect()
}

fn train_sequential(urls: &[Vec<UrlId>]) -> PbPpm {
    let mut counts = PopularityTable::builder();
    for s in urls {
        for &u in s {
            counts.record(u);
        }
    }
    let mut m = PbPpm::new(counts.build(), PbConfig::default());
    for s in urls {
        m.train_session(s);
    }
    m.finalize();
    m
}

fn train_parallel(urls: &[Vec<UrlId>], threads: usize) -> PbPpm {
    let counts = PopularityBuilder::count_sessions(urls, threads);
    let mut m = PbPpm::new(counts.build(), PbConfig::default());
    m.train_sessions(urls, threads);
    m.finalize();
    m
}

/// Runs `f`, returning its wall seconds and the live-heap peak (bytes
/// above the level at entry) it reached.
fn timed_peak<R>(f: impl FnOnce() -> R) -> (f64, u64, R) {
    let live_before = pbppm_obs::alloc::live_bytes();
    pbppm_obs::alloc::reset_peak_bytes();
    let t = Instant::now();
    let r = f();
    let elapsed = secs(t);
    let peak = pbppm_obs::alloc::peak_bytes().saturating_sub(live_before);
    (elapsed, peak, r)
}

/// Compares `report` against the `PBPPM_PERF_BASELINE_INGEST` file, if
/// set, and exits non-zero on any gated regression.
fn gate(report: &IngestReport) {
    let Ok(path) = std::env::var("PBPPM_PERF_BASELINE_INGEST") else {
        return;
    };
    let baseline: IngestReport = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
        .and_then(|v| {
            <IngestReport as serde::Deserialize>::from_value(&v).map_err(|e| e.to_string())
        }) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf-gate: cannot read ingest baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    if baseline.lines != report.lines || baseline.threads != report.threads {
        eprintln!(
            "perf-gate: ingest baseline shape mismatch (baseline {} lines / threads={}, \
             run {} lines / threads={}) — regenerate the baseline",
            baseline.lines, baseline.threads, report.lines, report.threads
        );
        std::process::exit(2);
    }
    let mut failures: Vec<String> = Vec::new();
    let slack = 1.0 + GATE_TOLERANCE;
    for new in &report.phases {
        let Some(old) = baseline.phases.iter().find(|p| p.phase == new.phase) else {
            continue;
        };
        for (label, new_secs, old_secs) in [
            ("sequential", new.sequential_secs, old.sequential_secs),
            ("parallel", new.parallel_secs, old.parallel_secs),
        ] {
            if old_secs > 0.0 && new_secs > old_secs * slack {
                failures.push(format!(
                    "{} {} wall time: {:.0}% slower than baseline ({:.3}s vs {:.3}s)",
                    new.phase,
                    label,
                    100.0 * (new_secs / old_secs - 1.0),
                    new_secs,
                    old_secs
                ));
            }
        }
    }
    // Baseline-independent gates: the parallel path must actually win on
    // hosts wide enough to show it, and must never balloon memory.
    if report.cores >= SPEEDUP_MIN_CORES {
        if let Some(e2e) = report.phases.iter().find(|p| p.phase == "end_to_end") {
            if e2e.speedup < SPEEDUP_FLOOR {
                failures.push(format!(
                    "end-to-end speedup {:.2}x below the {SPEEDUP_FLOOR}x floor on a \
                     {}-core host",
                    e2e.speedup, report.cores
                ));
            }
        }
    } else {
        eprintln!(
            "perf-gate: ingest speedup floor skipped ({} cores < {SPEEDUP_MIN_CORES})",
            report.cores
        );
    }
    if report.sequential_peak_bytes == 0 || report.parallel_peak_bytes == 0 {
        failures.push(format!(
            "parse peak heap measured as 0 (sequential {} / parallel {} bytes): \
             the bounded-memory check needs the counting allocator",
            report.sequential_peak_bytes, report.parallel_peak_bytes
        ));
    } else if report.peak_ratio > PEAK_SLACK {
        failures.push(format!(
            "parallel parse peak heap {:.2}x the sequential peak (cap {PEAK_SLACK}x): \
             {} vs {} bytes",
            report.peak_ratio, report.parallel_peak_bytes, report.sequential_peak_bytes
        ));
    }
    if failures.is_empty() {
        eprintln!(
            "perf-gate: ingest wall times within {:.0}% of {path}",
            100.0 * GATE_TOLERANCE
        );
    } else {
        for f in &failures {
            eprintln!("perf-gate: REGRESSION — {f}");
        }
        std::process::exit(1);
    }
}

/// Runs the bench, writes `results/ingest.json` and gates; returns the
/// report for the `ingest` binary to record as the baseline.
pub fn run() -> IngestReport {
    run_with_args(std::env::args().skip(1))
}

/// [`run`] with the flags given in `args` instead of the process's.
pub fn run_with_args(args: impl Iterator<Item = String>) -> IngestReport {
    let cfg = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\nusage: ingest [--days D] [--threads T]");
            std::process::exit(2);
        }
    };
    let effective_threads = pbppm_core::resolve_threads(cfg.threads);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let trace = nasa_trace();
    let dir = std::env::temp_dir().join(format!("pbppm-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let log = dir.join("access.log");
    let (lines, bytes) = write_log(&trace, cfg.days, &log).expect("write log");
    drop(trace); // only the on-disk log participates in the measurement

    // One untimed parse pin-checks the equivalence the whole comparison
    // rests on, and provides the session list for the train phase.
    let reference = parse_parallel(&log, effective_threads);
    {
        let seq = parse_sequential(&log);
        assert_eq!(
            seq.requests, reference.requests,
            "chunked ingest diverged from the sequential parse"
        );
    }
    let urls = session_urls(&reference);
    let sessions = urls.len();
    drop(reference);

    let mut parse_seq = f64::MAX;
    let mut parse_par = f64::MAX;
    let mut train_seq = f64::MAX;
    let mut train_par = f64::MAX;
    let mut e2e_seq = f64::MAX;
    let mut e2e_par = f64::MAX;
    let mut peak_seq = u64::MAX;
    let mut peak_par = u64::MAX;
    for _ in 0..ROUNDS {
        let (t, peak, trace) = timed_peak(|| parse_sequential(&log));
        parse_seq = parse_seq.min(t);
        peak_seq = peak_seq.min(peak);
        drop(trace);
        let (t, peak, trace) = timed_peak(|| parse_parallel(&log, effective_threads));
        parse_par = parse_par.min(t);
        peak_par = peak_par.min(peak);
        drop(trace);

        let t = Instant::now();
        let m = train_sequential(&urls);
        train_seq = train_seq.min(secs(t));
        drop(m);
        let t = Instant::now();
        let m = train_parallel(&urls, effective_threads);
        train_par = train_par.min(secs(t));
        drop(m);

        let t = Instant::now();
        let m = train_sequential(&session_urls(&parse_sequential(&log)));
        e2e_seq = e2e_seq.min(secs(t));
        drop(m);
        let t = Instant::now();
        let m = train_parallel(
            &session_urls(&parse_parallel(&log, effective_threads)),
            effective_threads,
        );
        e2e_par = e2e_par.min(secs(t));
        drop(m);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let phase = |name: &str, seq: f64, par: f64| PhaseTiming {
        phase: name.to_owned(),
        sequential_secs: seq,
        parallel_secs: par,
        speedup: if par > 0.0 { seq / par } else { 0.0 },
    };
    let report = IngestReport {
        trace: "nasa-like".to_owned(),
        lines,
        bytes,
        sessions,
        threads: cfg.threads,
        effective_threads,
        cores,
        rounds: ROUNDS,
        parse_lines_per_sec: lines as f64 / parse_par.max(1e-12),
        train_sessions_per_sec: sessions as f64 / train_par.max(1e-12),
        sequential_peak_bytes: peak_seq,
        parallel_peak_bytes: peak_par,
        peak_ratio: if peak_seq > 0 {
            peak_par as f64 / peak_seq as f64
        } else {
            0.0
        },
        phases: vec![
            phase("parse", parse_seq, parse_par),
            phase("train", train_seq, train_par),
            phase("end_to_end", e2e_seq, e2e_par),
        ],
    };

    let mut table = Table::new(
        format!(
            "Ingest — {} lines ({:.1} MB), {} sessions, {} worker(s) on {} core(s)",
            report.lines,
            report.bytes as f64 / 1e6,
            report.sessions,
            report.effective_threads,
            report.cores
        ),
        &["phase", "sequential s", "parallel s", "speedup"],
    );
    for p in &report.phases {
        table.row(vec![
            p.phase.clone(),
            format!("{:.3}", p.sequential_secs),
            format!("{:.3}", p.parallel_secs),
            format!("{:.2}x", p.speedup),
        ]);
    }
    table.print();
    println!(
        "parse {:.0} lines/s, train {:.0} sessions/s; parse peak heap {:.1} MB parallel vs {:.1} MB sequential ({:.2}x)",
        report.parse_lines_per_sec,
        report.train_sessions_per_sec,
        report.parallel_peak_bytes as f64 / 1e6,
        report.sequential_peak_bytes as f64 / 1e6,
        report.peak_ratio
    );

    write_json("ingest", &report);
    gate(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_roundtrips_through_both_parsers() {
        let trace = crate::nasa_trace();
        let dir =
            std::env::temp_dir().join(format!("pbppm-ingest-exp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("tiny.log");
        let (lines, bytes) = write_log(&trace, 1, &log).unwrap();
        assert!(lines > 0 && bytes > 0);
        let seq = parse_sequential(&log);
        let par = parse_parallel(&log, 2);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(seq.requests.len(), lines, "every written line parses");
        assert_eq!(seq.requests, par.requests);
    }

    #[test]
    fn parallel_training_matches_sequential_here_too() {
        let urls: Vec<Vec<UrlId>> = (0..40u32)
            .map(|i| (0..5).map(|k| UrlId((i + k) % 9)).collect())
            .collect();
        let seq = train_sequential(&urls);
        let par = train_parallel(&urls, 4);
        assert_eq!(seq.frozen(), par.frozen());
    }
}
