//! `loadgen` — open-loop load generation against the sharded serving
//! core ([`ShardedServer`]), the second leg of `scripts/perf-gate.sh`.
//!
//! `throughput`'s serve measurement times requests back-to-back
//! (closed-loop), which can only say how fast the server goes when the
//! client politely waits. Real prefetching clients do not wait: requests
//! arrive on their own clock, and a slow request delays everything queued
//! behind it. This experiment measures that regime:
//!
//! * **open-loop arrivals** — request times are drawn from a Poisson
//!   process at `--rate` requests/second (exponential inter-arrivals from
//!   a seeded RNG), fixed *before* the run starts; the server being slow
//!   does not slow the offered load down;
//! * **coordinated-omission-free latency** — each request's latency is
//!   measured from its *scheduled arrival* to the completion of the batch
//!   that served it, so queueing delay behind a rebuild or a slow
//!   neighbour is charged to the requests that actually waited;
//! * **the real dispatch path** — arrivals are drained into batches of at
//!   most [`MAX_BATCH`] lines and pushed through
//!   [`ShardedServer::handle_batch`], exactly like the `pbppm serve`
//!   front-end drains stdin.
//!
//! The workload replays NASA-like sessions as `train`/`predict` traffic
//! tagged with `@client` routing tokens spread over [`CLIENTS`] clients,
//! so every shard sees traffic. Results are printed as a table and
//! written to `results/loadgen.json`; the `loadgen` binary also records
//! them as `BENCH_loadgen.json` at the workspace root (the committed
//! baseline). When
//! `PBPPM_PERF_BASELINE_LOADGEN` names a baseline JSON, the run gates its
//! per-command p99 against it and exits non-zero on regression.
//!
//! The whole open loop runs [`ROUNDS`] times against a fresh server with
//! the identical arrival schedule, and every percentile reports the
//! minimum across rounds — the same noise-robust statistic as
//! `throughput`'s `secs_per_pass`: open-loop tails amplify scheduler
//! noise, and the gate needs run-to-run jitter well below its tolerance.
//!
//! Flags: `--rate R --seconds S --shards N --threads T --seed K`
//! (defaults 2000 / 2 / 4 / 0 / 1 — the committed-baseline shape; the
//! default rate sits below single-writer saturation so the measured tail
//! is rebuild-stall queueing, not unbounded overload backlog).

use crate::{nasa_trace, write_json, Table};
use pbppm_core::PbConfig;
use pbppm_serve::{ServeOptions, ShardedOptions, ShardedServer};
use pbppm_trace::{sessionize, SessionizerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Arrivals drained per dispatch, mirroring the serve front-end's batch
/// cap — the loadgen must not batch more aggressively than production.
const MAX_BATCH: usize = 256;
/// Distinct `@client` routing tokens in the workload; enough that every
/// shard of any plausible `--shards` owns many clients.
const CLIENTS: usize = 64;
/// Allowed p99 slowdown before the gate fails. 100%: even as a
/// min-across-rounds, an open-loop tail jitters ~1.5x run to run on a
/// busy host — far noisier than `throughput`'s closed-loop medians —
/// while the regressions this gate exists for (a lock on the read path,
/// sync I/O inside dispatch, an accidental per-request rebuild) are
/// order-of-magnitude, not fractional.
const GATE_TOLERANCE: f64 = 1.00;
/// Below this gap to the next arrival the driver spins instead of
/// sleeping: scheduler wake-up jitter would otherwise be billed to the
/// request as queueing delay it never suffered.
const SPIN_UNDER: Duration = Duration::from_micros(500);
/// Full open-loop repetitions; percentiles take the minimum across
/// rounds (see the module docs).
const ROUNDS: usize = 3;

/// Latency percentiles for one command kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommandLatency {
    /// Command ("train" or "predict").
    pub cmd: String,
    /// Requests of this kind per round (the schedule repeats exactly).
    pub requests: usize,
    /// Median latency, nanoseconds (scheduled arrival → batch
    /// completion), minimum across rounds.
    pub p50_ns: f64,
    /// 99th percentile, nanoseconds, minimum across rounds. This is the
    /// gated tail.
    pub p99_ns: f64,
    /// 99.9th percentile, nanoseconds, minimum across rounds.
    pub p999_ns: f64,
    /// Worst latency within a round, nanoseconds, minimum across rounds.
    pub max_ns: f64,
}

/// Everything one `loadgen` run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Trace the workload was drawn from.
    pub trace: String,
    /// Offered load, requests per second.
    pub rate_per_sec: f64,
    /// Nominal run length, seconds.
    pub seconds: f64,
    /// Model shards the server ran with.
    pub shards: usize,
    /// Dispatch worker threads (0 = auto).
    pub threads: usize,
    /// Arrival-process RNG seed.
    pub seed: u64,
    /// Full open-loop repetitions behind the minima below.
    pub rounds: usize,
    /// Requests completed, summed across rounds.
    pub requests: usize,
    /// `err`-prefixed responses across rounds (must be 0 on a healthy run).
    pub errors: usize,
    /// Dispatched batches across rounds; `requests / batches` is the mean
    /// drain depth.
    pub batches: usize,
    /// Best round's completed requests / wall time — sags below
    /// `rate_per_sec` only when the server cannot keep up.
    pub achieved_per_sec: f64,
    /// Rebuilds the audit gate refused to publish, across rounds (must
    /// stay 0).
    pub publish_rejected: u64,
    /// Per-command latency percentiles, each the minimum across rounds.
    pub commands: Vec<CommandLatency>,
}

/// Run parameters, from the command line.
struct Config {
    rate: f64,
    seconds: f64,
    shards: usize,
    threads: usize,
    seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            rate: 2000.0,
            seconds: 2.0,
            shards: 4,
            threads: 0,
            seed: 1,
        }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config::default();
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--rate" => cfg.rate = val()?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--seconds" => cfg.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--shards" => cfg.shards = val()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--threads" => cfg.threads = val()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--seed" => cfg.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(cfg.rate) || !positive(cfg.seconds) {
        return Err("--rate and --seconds must be positive".to_owned());
    }
    Ok(cfg)
}

/// One workload command: the protocol line plus its kind index
/// (0 = train, 1 = predict) for latency attribution.
struct Command {
    line: String,
    kind: usize,
}

/// Builds the replayable command list from the NASA-like trace: every
/// session becomes one `train` plus predicts over its growing prefixes,
/// all tagged with a deterministic `@client` token. The list is cycled if
/// the offered load outlasts it.
fn build_workload() -> (String, Vec<Command>) {
    let trace = nasa_trace();
    let sessions = sessionize(trace.first_days(2), &SessionizerConfig::default());
    let resolve = |id: pbppm_core::UrlId| trace.urls.resolve(id).unwrap_or("?");
    let mut commands = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let client = format!("c{}", i % CLIENTS);
        let urls: Vec<&str> = s.views.iter().map(|v| resolve(v.url)).collect();
        commands.push(Command {
            line: format!("train @{client} {}", urls.join(",")),
            kind: 0,
        });
        for k in 1..urls.len().min(5) {
            commands.push(Command {
                line: format!("predict @{client} {}", urls[..k].join(",")),
                kind: 1,
            });
        }
    }
    (trace.name.clone(), commands)
}

/// Poisson arrival offsets from t=0: exponential inter-arrival gaps,
/// `-ln(1 - u) / rate` seconds each, fixed before the run starts.
fn arrival_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    while t < seconds {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        arrivals.push(Duration::from_secs_f64(t));
    }
    arrivals
}

/// Nearest-rank percentile of an ascending-sorted latency list.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // in-range by construction
fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

fn latency_row(cmd: &str, lat: &mut [u64]) -> CommandLatency {
    lat.sort_unstable();
    CommandLatency {
        cmd: cmd.to_owned(),
        requests: lat.len(),
        p50_ns: percentile_ns(lat, 0.50),
        p99_ns: percentile_ns(lat, 0.99),
        p999_ns: percentile_ns(lat, 0.999),
        max_ns: lat.last().copied().unwrap_or(0) as f64,
    }
}

/// Drives the open loop: waits for the next scheduled arrival, drains
/// everything due into one batch, dispatches it, and charges each request
/// the time from its scheduled arrival to the batch's completion.
fn drive(
    server: &mut ShardedServer,
    commands: &[Command],
    arrivals: &[Duration],
) -> Result<([Vec<u64>; 2], usize, usize), String> {
    let mut latencies: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut batch: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let mut kinds: Vec<usize> = Vec::with_capacity(MAX_BATCH);
    let mut responses: Vec<String> = Vec::new();
    let mut errors = 0usize;
    let mut batches = 0usize;
    let mut next = 0usize;
    let start = Instant::now();
    while next < arrivals.len() {
        let now = start.elapsed();
        if arrivals[next] > now {
            let gap = arrivals[next] - now;
            if gap > SPIN_UNDER {
                std::thread::sleep(gap - SPIN_UNDER);
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        batch.clear();
        kinds.clear();
        let first = next;
        while next < arrivals.len() && batch.len() < MAX_BATCH && arrivals[next] <= start.elapsed()
        {
            let cmd = &commands[next % commands.len()];
            batch.push(cmd.line.clone());
            kinds.push(cmd.kind);
            next += 1;
        }
        server
            .handle_batch(&batch, &mut responses)
            .map_err(|e| e.to_string())?;
        batches += 1;
        let done = start.elapsed();
        for (i, kind) in kinds.iter().enumerate() {
            let lat = done.saturating_sub(arrivals[first + i]);
            latencies[*kind].push(u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX));
            if responses[i].starts_with("err") {
                errors += 1;
            }
        }
    }
    Ok((latencies, errors, batches))
}

/// Compares `report` against the `PBPPM_PERF_BASELINE_LOADGEN` file, if
/// set, and exits non-zero on any gated regression.
fn gate(report: &LoadgenReport) {
    let Ok(path) = std::env::var("PBPPM_PERF_BASELINE_LOADGEN") else {
        return;
    };
    let baseline: LoadgenReport = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
        .and_then(|v| {
            <LoadgenReport as serde::Deserialize>::from_value(&v).map_err(|e| e.to_string())
        }) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf-gate: cannot read loadgen baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    if baseline.shards != report.shards
        || (baseline.rate_per_sec - report.rate_per_sec).abs() > 1e-9
    {
        eprintln!(
            "perf-gate: loadgen baseline shape mismatch (baseline {} shards @ {}/s, run {} shards @ {}/s) — regenerate the baseline",
            baseline.shards, baseline.rate_per_sec, report.shards, report.rate_per_sec
        );
        std::process::exit(2);
    }
    let mut failures: Vec<String> = Vec::new();
    if report.errors > 0 {
        failures.push(format!("{} err responses under load", report.errors));
    }
    if report.publish_rejected > 0 {
        failures.push(format!(
            "{} rebuilds failed the publish audit",
            report.publish_rejected
        ));
    }
    let slack = 1.0 + GATE_TOLERANCE;
    for new in &report.commands {
        let Some(old) = baseline.commands.iter().find(|c| c.cmd == new.cmd) else {
            continue;
        };
        if old.p99_ns > 0.0 && new.p99_ns > old.p99_ns * slack {
            failures.push(format!(
                "{} p99 under open-loop load: {:.0}% slower than baseline ({:.3e} vs {:.3e} ns)",
                new.cmd,
                100.0 * (new.p99_ns / old.p99_ns - 1.0),
                new.p99_ns,
                old.p99_ns
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "perf-gate: loadgen p99s within {:.0}% of {path}",
            100.0 * GATE_TOLERANCE
        );
    } else {
        for f in &failures {
            eprintln!("perf-gate: REGRESSION — {f}");
        }
        std::process::exit(1);
    }
}

/// Runs the bench, writes `results/loadgen.json` and gates; returns the
/// report for the `loadgen` binary to record as the baseline.
pub fn run() -> LoadgenReport {
    run_with_args(std::env::args().skip(1))
}

/// [`run`] with the flags given in `args` instead of the process's.
pub fn run_with_args(args: impl Iterator<Item = String>) -> LoadgenReport {
    let cfg = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: loadgen [--rate R] [--seconds S] [--shards N] [--threads T] [--seed K]"
            );
            std::process::exit(2);
        }
    };
    let (trace_name, commands) = build_workload();
    let arrivals = arrival_schedule(cfg.rate, cfg.seconds, cfg.seed);
    let dir = std::env::temp_dir().join(format!("pbppm-bench-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ShardedOptions {
        shards: cfg.shards,
        threads: cfg.threads,
        serve: ServeOptions {
            checkpoint_every: u64::MAX, // no disk traffic inside the timed region
            flush_every: 0,
            ..ServeOptions::default()
        },
    };
    let measured = (|| -> Result<LoadgenReport, String> {
        let mut best: Option<[CommandLatency; 2]> = None;
        let mut requests = 0usize;
        let mut errors = 0usize;
        let mut batches = 0usize;
        let mut achieved = 0.0f64;
        let mut publish_rejected = 0u64;
        for round in 0..ROUNDS {
            let round_dir = dir.join(format!("round-{round}"));
            let mut server =
                ShardedServer::open(&round_dir.display().to_string(), PbConfig::default(), opts)
                    .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let ([mut train, mut predict], round_errors, round_batches) =
                drive(&mut server, &commands, &arrivals)?;
            let wall = t0.elapsed().as_secs_f64();
            let completed = train.len() + predict.len();
            requests += completed;
            errors += round_errors;
            batches += round_batches;
            achieved = achieved.max(completed as f64 / wall.max(1e-12));
            publish_rejected += server.publish_rejected();
            let rows = [
                latency_row("train", &mut train),
                latency_row("predict", &mut predict),
            ];
            best = Some(match best.take() {
                None => rows,
                Some(prev) => {
                    let fold = |a: &CommandLatency, b: &CommandLatency| CommandLatency {
                        cmd: a.cmd.clone(),
                        requests: a.requests,
                        p50_ns: a.p50_ns.min(b.p50_ns),
                        p99_ns: a.p99_ns.min(b.p99_ns),
                        p999_ns: a.p999_ns.min(b.p999_ns),
                        max_ns: a.max_ns.min(b.max_ns),
                    };
                    [fold(&prev[0], &rows[0]), fold(&prev[1], &rows[1])]
                }
            });
        }
        let [train, predict] = best.ok_or("no rounds ran")?;
        Ok(LoadgenReport {
            trace: trace_name.clone(),
            rate_per_sec: cfg.rate,
            seconds: cfg.seconds,
            shards: cfg.shards,
            threads: cfg.threads,
            seed: cfg.seed,
            rounds: ROUNDS,
            requests,
            errors,
            batches,
            achieved_per_sec: achieved,
            publish_rejected,
            commands: vec![train, predict],
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let report = match measured {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: loadgen run failed: {e}");
            std::process::exit(1);
        }
    };

    let mut table = Table::new(
        format!(
            "Loadgen — open-loop {} req/s, {} shards, {} trace",
            report.rate_per_sec, report.shards, report.trace
        ),
        &["cmd", "requests", "p50 µs", "p99 µs", "p999 µs", "max µs"],
    );
    for c in &report.commands {
        table.row(vec![
            c.cmd.clone(),
            c.requests.to_string(),
            format!("{:.1}", c.p50_ns / 1e3),
            format!("{:.1}", c.p99_ns / 1e3),
            format!("{:.1}", c.p999_ns / 1e3),
            format!("{:.1}", c.max_ns / 1e3),
        ]);
    }
    table.print();
    println!(
        "achieved {:.0} req/s over {} batches ({} errors, {} publish rejections)",
        report.achieved_per_sec, report.batches, report.errors, report.publish_rejected
    );

    write_json("loadgen", &report);
    gate(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_and_open_loop() {
        let a = arrival_schedule(1000.0, 0.5, 7);
        let b = arrival_schedule(1000.0, 0.5, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        // ~1000/s for 0.5s ⇒ ~500 arrivals; Poisson noise stays well
        // inside ±40% at this count.
        assert!((300..700).contains(&a.len()), "got {}", a.len());
        let c = arrival_schedule(1000.0, 0.5, 8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let lat: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&lat, 0.50), 501.0);
        assert_eq!(percentile_ns(&lat, 0.99), 990.0);
        assert_eq!(percentile_ns(&lat, 0.999), 999.0);
        assert_eq!(percentile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn workload_mixes_commands_and_clients() {
        let (_, commands) = build_workload();
        let trains = commands.iter().filter(|c| c.kind == 0).count();
        let predicts = commands.iter().filter(|c| c.kind == 1).count();
        assert!(trains > 100, "got {trains} trains");
        assert!(predicts > trains, "predict-heavy: {predicts} vs {trains}");
        for c in &commands {
            let tag = c.line.split_whitespace().nth(1).unwrap();
            assert!(tag.starts_with("@c"), "routing token present: {}", c.line);
        }
    }
}
