//! `ingest` — parse/train/end-to-end throughput of the parallel
//! bounded-memory ingestion pipeline.
//!
//! `throughput` measures predicting; this bench measures the build
//! pipeline: raw CLF log → parsed [`Trace`] → sessions → frozen PB-PPM
//! model. Each phase runs twice per round — the sequential reference
//! (`pbppm_trace::reference::trace_from_lines` + `train_session` loops)
//! and the parallel path
//! (`trace_from_clf_reader` chunked ingestion + `train_sessions`
//! partition-and-merge) — which is meaningful *because* the parallel path
//! is property-tested bit-identical to the sequential one: the comparison
//! is pure speed, never a quality trade.
//!
//! Measured, each as the minimum across `ROUNDS` rounds:
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
//! Results go to `results/ingest.json`. Every run enforces two
//! host-independent floors, each a ratio of two measurements taken in the
//! same run, and exits 1 when one is broken: on hosts with at least
//! `SPEEDUP_MIN_CORES` cores the end-to-end speedup must reach
//! `SPEEDUP_FLOOR`, and the parallel parse peak must stay within
//! `PEAK_SLACK` of sequential everywhere. (On narrower hosts the
//! speedup floor is vacuous — there is no parallelism to win.) A peak
//! measured as 0 fails the peak floor: it means no counting allocator was
//! installed, and a skipped check would pass silently. The wall times are
//! reported, never compared with another run's; a speed claim is judged
//! by a paired perfbench run (`scripts/perf-compare.sh`, workload
//! `build`).

use crate::{nasa_trace, write_json, Table};
use pbppm_core::{PbConfig, PbPpm, PopularityBuilder, PopularityTable, Predictor, UrlId};
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm_trace::reference::trace_from_lines;
use pbppm_trace::{sessionize, SessionizerConfig, Trace};
use serde::Serialize;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Full repetitions; every reported number is the minimum across rounds.
const ROUNDS: usize = 3;
/// Days of the NASA-like trace written as the log: the full 7-day window,
/// whose longer phases amortize scheduler jitter that would swamp a
/// 2-day run's ~50 ms timings.
const DAYS: usize = 7;
/// Parallel-path worker count (0 = auto).
const THREADS: usize = 0;
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
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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

/// The host-independent floors: the parallel path must win on hosts wide
/// enough to show it, and must never balloon memory. Returns one line per
/// broken floor.
fn floor_failures(report: &IngestReport) -> Vec<String> {
    let mut failures = Vec::new();
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
    failures
}

/// Runs the bench, writes `results/ingest.json`, and exits 1 when a
/// floor is broken.
pub fn run() {
    let effective_threads = pbppm_core::resolve_threads(THREADS);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let trace = nasa_trace();
    let dir = std::env::temp_dir().join(format!("pbppm-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let log = dir.join("access.log");
    let (lines, bytes) = write_log(&trace, DAYS, &log).expect("write log");
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
        threads: THREADS,
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
    if report.cores < SPEEDUP_MIN_CORES {
        eprintln!(
            "ingest: speedup floor not applied ({} cores < {SPEEDUP_MIN_CORES})",
            report.cores
        );
    }
    crate::enforce_floors("ingest", &floor_failures(&report));
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

    fn report(cores: usize, speedup: f64, peaks: (u64, u64)) -> IngestReport {
        IngestReport {
            trace: "t".to_owned(),
            lines: 1,
            bytes: 1,
            sessions: 1,
            threads: THREADS,
            effective_threads: cores,
            cores,
            rounds: ROUNDS,
            parse_lines_per_sec: 1.0,
            train_sessions_per_sec: 1.0,
            sequential_peak_bytes: peaks.0,
            parallel_peak_bytes: peaks.1,
            peak_ratio: if peaks.0 > 0 {
                peaks.1 as f64 / peaks.0 as f64
            } else {
                0.0
            },
            phases: vec![PhaseTiming {
                phase: "end_to_end".to_owned(),
                sequential_secs: speedup,
                parallel_secs: 1.0,
                speedup,
            }],
        }
    }

    #[test]
    fn floors_hold_only_within_their_bounds() {
        assert!(floor_failures(&report(2, 1.0, (100, 125))).is_empty());
        assert!(floor_failures(&report(4, 2.0, (100, 60))).is_empty());
        // The speedup floor applies from SPEEDUP_MIN_CORES cores up.
        assert_eq!(floor_failures(&report(4, 1.9, (100, 60))).len(), 1);
        assert_eq!(floor_failures(&report(2, 1.0, (100, 126))).len(), 1);
        // A zero peak means nothing was measured: a failure, not a pass.
        assert_eq!(floor_failures(&report(2, 1.0, (0, 0))).len(), 1);
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
