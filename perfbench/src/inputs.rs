//! Generated inputs: the access log every workload starts from, the
//! sessions it yields, the protocol traffic replayed from them, and the
//! open-loop arrival schedule.
//!
//! The site and its access log are the same for every seed
//! ([`TRACE_SEED`]); `--seed` varies the traffic drawn from them: the
//! arrival schedule, where in the session stream a replay starts, and which
//! sessions the `build` workload holds out. Across seeds the models then
//! differ only where the traffic does, so byte counts and hit ratios stay
//! comparable between runs, while timings still see different inputs.
//! Everything here is a pure function of the seed.

use pbppm_core::{Interner, UrlId};
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::{
    sessionize, trace_from_clf_path, IngestConfig, SessionizerConfig, WorkloadConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `@client` routing tokens the traffic is spread over; enough that every
/// shard owns many clients.
pub const CLIENTS: usize = 64;
/// Longest context prefix a `predict` carries, in clicks.
pub const MAX_PREFIX: usize = 4;
/// Seconds of 1995-07-01 04:00 UTC, where the synthetic log starts.
const LOG_EPOCH: i64 = 804_571_200;
/// Seed of the generated site and its access log (see the module docs).
pub const TRACE_SEED: u64 = 1;

/// Sizes of one run. [`Plan::full`] is what the benchmark measures; the
/// smoke test shrinks everything with a tiny plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Length of the timed phase.
    pub seconds: f64,
    /// Trace the serve workloads replay.
    pub serve_trace: WorkloadConfig,
    /// Trace the build workload turns into a model.
    pub build_trace: WorkloadConfig,
    pub shards: usize,
    /// Sessions each shard's online model keeps.
    pub window: usize,
    /// Sessions between rebuilds of a shard's model.
    pub rebuild_every: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Offered load of `read-steady`, requests per second.
    pub read_rate: f64,
    /// Offered load of `churn`, requests per second.
    pub churn_rate: f64,
    /// Fewest build rounds a `build` run makes, however long they take.
    pub min_rounds: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            serve_trace: WorkloadConfig::nasa_like(TRACE_SEED),
            build_trace: WorkloadConfig {
                sessions_per_day: 6000,
                ..WorkloadConfig::nasa_like(TRACE_SEED)
            },
            shards: 4,
            window: 1000,
            rebuild_every: 50,
            setups: 3,
            read_rate: 16000.0,
            churn_rate: 2000.0,
            min_rounds: 3,
        }
    }
}

/// A generated CLF access log on disk.
pub struct Log {
    pub path: PathBuf,
    pub lines: usize,
    pub bytes: u64,
}

/// Generates the trace `cfg` describes and writes it as a CLF log, so the
/// program under test only ever sees what a real site would give it.
pub fn write_log(cfg: &WorkloadConfig, path: &Path) -> std::io::Result<Log> {
    let trace = cfg.generate();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in &trace.requests {
        let rec = ClfRecord {
            host: trace
                .clients
                .resolve(UrlId(r.client.0))
                .unwrap_or("unknown")
                .to_owned(),
            time: i64::try_from(r.time).unwrap_or(0) + LOG_EPOCH,
            method: "GET".to_owned(),
            path: trace.urls.resolve(r.url).unwrap_or("/").to_owned(),
            status: r.status,
            size: r.size,
        };
        writeln!(w, "{}", format_clf_line(&rec))?;
    }
    w.flush()?;
    Ok(Log {
        path: path.to_owned(),
        lines: trace.requests.len(),
        bytes: std::fs::metadata(path)?.len(),
    })
}

/// A log ingested and sessionized, with the time each step took.
pub struct Ingested {
    pub urls: Interner,
    /// Sessions ordered by start time (ties by client), as URL ids.
    pub sessions: Vec<Vec<UrlId>>,
    pub parse_s: f64,
    pub sessionize_s: f64,
    /// Live-heap high-water mark of the parse above its starting level.
    pub parse_peak_bytes: u64,
}

/// Log → `Trace` (the production chunked parser, auto threads) →
/// sessions. Fails if any line is dropped: the generated log is clean.
pub fn ingest(log: &Log) -> Result<Ingested, String> {
    let live_before = pbppm_obs::alloc::live_bytes();
    pbppm_obs::alloc::reset_peak_bytes();
    let t = Instant::now();
    let (trace, stats) = trace_from_clf_path("bench", &log.path, &IngestConfig::default())
        .map_err(|e| format!("ingest {}: {e}", log.path.display()))?;
    let parse_s = t.elapsed().as_secs_f64();
    let parse_peak_bytes = pbppm_obs::alloc::peak_bytes().saturating_sub(live_before);
    if stats.accepted != log.lines || stats.malformed != 0 {
        return Err(format!(
            "ingest accepted {} of {} lines ({} malformed)",
            stats.accepted, log.lines, stats.malformed
        ));
    }
    let t = Instant::now();
    let mut sessions = sessionize(&trace.requests, &SessionizerConfig::default());
    let sessionize_s = t.elapsed().as_secs_f64();
    sessions.sort_by_key(|s| (s.start(), s.client));
    Ok(Ingested {
        urls: trace.urls,
        sessions: sessions.iter().map(|s| s.urls()).collect(),
        parse_s,
        sessionize_s,
        parse_peak_bytes,
    })
}

/// A well-mixed 64-bit function of `x` (splitmix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where in a cycle of `len` commands the replay of `seed` starts.
#[allow(clippy::cast_possible_truncation)] // the remainder is below len
pub fn start_offset(seed: u64, len: usize) -> usize {
    (mix(seed ^ 0x5eed) % len.max(1) as u64) as usize
}

/// Whether `seed` holds the `i`-th session out of training: one in eight.
pub fn held_out(seed: u64, i: usize) -> bool {
    mix(seed.rotate_left(32) ^ i as u64).is_multiple_of(8)
}

/// The routing token of the `i`-th session of the replayed traffic.
pub fn client_of(i: usize) -> String {
    format!("c{}", i % CLIENTS)
}

fn join(urls: &Interner, ids: &[UrlId]) -> String {
    let names: Vec<&str> = ids
        .iter()
        .map(|&u| urls.resolve(u).unwrap_or("?"))
        .collect();
    names.join(",")
}

/// A request the front-end sends.
#[derive(Debug, Clone)]
pub struct Cmd {
    pub line: String,
    /// For a `predict`: the URL the session actually visited next. Empty
    /// for a `train`.
    pub next: String,
}

impl Cmd {
    pub fn is_predict(&self) -> bool {
        !self.next.is_empty()
    }
}

/// `train @c… u1,u2,…` for session `i`.
pub fn train_cmd(urls: &Interner, i: usize, session: &[UrlId]) -> Cmd {
    Cmd {
        line: format!("train @{} {}", client_of(i), join(urls, session)),
        next: String::new(),
    }
}

/// One `predict` per 1…[`MAX_PREFIX`]-click prefix of session `i` that
/// has a next click.
pub fn predict_cmds(urls: &Interner, i: usize, session: &[UrlId], out: &mut Vec<Cmd>) {
    let client = client_of(i);
    for k in 1..session.len().min(MAX_PREFIX + 1) {
        out.push(Cmd {
            line: format!("predict @{client} {}", join(urls, &session[..k])),
            next: urls.resolve(session[k]).unwrap_or("?").to_owned(),
        });
    }
}

/// Poisson arrivals at `rate` per second over `seconds`, as offsets from
/// the start in seconds: exponential gaps `-ln(1 - u) / rate` drawn from
/// `seed`, fixed before the run, so a slow server never slows the load.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return arrivals;
        }
        arrivals.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(1000.0, 2.0, 7);
        assert_eq!(
            a,
            poisson_schedule(1000.0, 2.0, 7),
            "same seed, same schedule"
        );
        assert_ne!(
            a,
            poisson_schedule(1000.0, 2.0, 8),
            "seed changes the schedule"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 2000 expected arrivals; Poisson noise is ~45.
        assert!((1800..2200).contains(&a.len()), "got {}", a.len());
    }

    #[test]
    fn seeded_traffic_choices_are_deterministic_and_spread() {
        assert_eq!(start_offset(5, 1000), start_offset(5, 1000));
        let offsets: std::collections::BTreeSet<usize> =
            (0..50).map(|s| start_offset(s, 1000)).collect();
        assert!(offsets.len() > 40 && offsets.iter().all(|&o| o < 1000));
        let held = (0..8000).filter(|&i| held_out(3, i)).count();
        assert!((800..1200).contains(&held), "one session in eight: {held}");
        let pick = |seed| (0..64).map(|i| held_out(seed, i)).collect::<Vec<_>>();
        assert_eq!(pick(3), pick(3));
        assert_ne!(pick(3), pick(4), "the seed picks the held-out sessions");
    }

    #[test]
    fn predicts_cover_the_prefixes_with_a_next_click() {
        let mut urls = Interner::new();
        let s: Vec<UrlId> = ["/a", "/b", "/c", "/d", "/e", "/f"]
            .iter()
            .map(|u| urls.intern(u))
            .collect();
        let mut out = Vec::new();
        predict_cmds(&urls, 65, &s, &mut out);
        let lines: Vec<(&str, &str)> = out
            .iter()
            .map(|c| (c.line.as_str(), c.next.as_str()))
            .collect();
        assert_eq!(
            lines,
            [
                ("predict @c1 /a", "/b"),
                ("predict @c1 /a,/b", "/c"),
                ("predict @c1 /a,/b,/c", "/d"),
                ("predict @c1 /a,/b,/c,/d", "/e"),
            ]
        );
        out.clear();
        predict_cmds(&urls, 0, &s[..1], &mut out);
        assert!(out.is_empty(), "a one-click session has nothing to predict");
        assert_eq!(train_cmd(&urls, 3, &s[..2]).line, "train @c3 /a,/b");
    }
}
