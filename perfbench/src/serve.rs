//! The serve workloads (`read-steady`, `read-saturate`, `churn`) and the
//! front-end they share with the `build` workload's serving check.
//!
//! The benchmark's main thread is the front-end: it drains due requests
//! into batches of at most [`BATCH`] lines and hands each batch to
//! [`ShardedServer::handle_batch`], exactly like `pbppm serve` drains stdin.
//! Open-loop latency runs from each request's scheduled arrival to the
//! completion of the batch that answered it, so time a request spends
//! queued behind a slow batch is charged to it.

use crate::inputs::{self, Cmd, Plan};
use crate::layers;
use crate::metrics::Outcome;
use crate::spans::{self, SpanLog, NONE};
use crate::stats::{median, nearest_rank, windowed_percentile};
use pbppm_core::PbConfig;
use pbppm_serve::sharded::predict_published;
use pbppm_serve::{ServeOptions, ShardedOptions, ShardedServer};
use std::path::Path;
use std::time::{Duration, Instant};

/// Lines per dispatched batch: the `pbppm serve` front-end's drain cap.
pub const BATCH: usize = 256;
/// Predictions a `predict` answers with (the server's default `top`).
pub const TOP: usize = 10;
/// A prefetch hint is useful only if it lands well before the next click.
const SLO_US: f64 = 10_000.0;
/// Every this-many-th `predict` response is re-derived after the phase.
const CHECK_EVERY: u64 = 64;
/// Traced runs record request spans for every this-many-th request.
const SPAN_EVERY: u64 = 8;
/// An open-loop run that completes less than this share of the offered
/// load let its backlog grow, so its latencies describe overload.
const MIN_SUSTAINED: f64 = 0.97;
/// Below this gap to the next arrival the generator spins instead of
/// sleeping, so scheduler wake-up jitter is not billed as queueing.
const SPIN_UNDER: Duration = Duration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Predict-only, open loop at `Plan::read_rate`.
    Steady,
    /// Predict-only backlog drained in full batches for the whole phase.
    Saturate,
    /// `predict`s then a `train` per session, open loop at
    /// `Plan::churn_rate`.
    Churn,
}

/// When requests become due.
#[derive(Clone, Copy)]
pub enum Schedule<'a> {
    /// Open loop: arrival offsets in seconds from the phase start.
    Open(&'a [f64]),
    /// Everything is due already; the front-end drains full batches until
    /// `until_s` has passed or `max` requests went out. A request is due
    /// when the front-end drains it.
    Backlog { until_s: f64, max: usize },
}

/// Dispatch workers: one per core, up to one per shard.
pub fn dispatch_threads(plan: &Plan) -> usize {
    crate::cores().min(plan.shards)
}

/// Server options every workload shares: no disk I/O in the timed region
/// (checkpoints and metric flushes off) and [`dispatch_threads`] workers.
pub fn server_options(plan: &Plan) -> ShardedOptions {
    ShardedOptions {
        shards: plan.shards,
        threads: dispatch_threads(plan),
        serve: ServeOptions {
            window: plan.window,
            rebuild_every: plan.rebuild_every,
            checkpoint_every: u64::MAX,
            top: TOP,
            flush_every: 0,
            ..ServeOptions::default()
        },
    }
}

/// One dispatched batch.
pub struct BatchRec {
    /// Dispatch start, seconds since the phase began.
    pub t0: f64,
    pub dispatch_us: f64,
    pub size: usize,
    pub predicts: usize,
    /// Shards whose publication epoch moved during the dispatch.
    pub epoch_moves: u32,
}

/// What one timed phase measured.
pub struct Phase {
    /// Seconds from the phase start to the last completion.
    pub elapsed: f64,
    /// Position in the command cycle after the phase, where a following
    /// phase continues so that no session is replayed twice.
    pub next_cmd: usize,
    /// `(completion time, latency µs)` of every `predict`.
    pub predict: Vec<(f64, f64)>,
    /// `(completion time, latency µs)` of every `train`.
    pub train: Vec<(f64, f64)>,
    /// `(dispatch start, µs from due to dispatch start)` of every request.
    pub queue_wait: Vec<(f64, f64)>,
    pub batches: Vec<BatchRec>,
    /// How late the generator noticed an arrival after idling, µs.
    pub gen_late_us: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// Predicts answered with at least one prediction.
    pub covered: u64,
    /// Predicts whose answer held the session's actual next URL.
    pub hits: u64,
    /// Predicts answered `ok` within [`SLO_US`] of being due.
    pub within_slo: u64,
    /// `(command index, response)` of every [`CHECK_EVERY`]-th predict.
    pub samples: Vec<(usize, String)>,
    pub problems: Vec<String>,
    pub spans: SpanLog,
}

impl Phase {
    /// Windowed percentile of the predict latencies, µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        windowed_percentile(&self.predict, self.elapsed, q)
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        let done = (self.predict.len() + self.train.len()) as f64;
        done / self.elapsed.max(1e-9)
    }

    /// See [`sustained_share`].
    pub fn sustained_share(&self, arrivals: &[f64], seconds: f64) -> f64 {
        let done = self.predict.iter().chain(&self.train).map(|&(t, _)| t);
        sustained_share(arrivals, done, seconds)
    }

    /// Median completion rate over ten equal chunks of the completed
    /// requests: the backlog's drain rate with slow stretches outvoted.
    pub fn peak_rate(&self) -> f64 {
        let total: usize = self.batches.iter().map(|b| b.size).sum();
        let mut rates = Vec::new();
        let (mut done, mut chunk_start_t, mut chunk_start_n) = (0usize, 0.0f64, 0usize);
        let mut chunk = 1usize;
        for b in &self.batches {
            done += b.size;
            let end = b.t0 + b.dispatch_us / 1e6;
            if done * crate::stats::WINDOWS >= chunk * total {
                rates.push((done - chunk_start_n) as f64 / (end - chunk_start_t).max(1e-9));
                (chunk_start_t, chunk_start_n) = (end, done);
                chunk += 1;
            }
        }
        median(&rates)
    }
}

/// Requests completed per request due, in the median of
/// [`crate::stats::WINDOWS`] equal windows of an open loop's `seconds`-long
/// schedule. A backlog that grows keeps it below 1 in most windows, while
/// one slow batch, even the last, moves a single window.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // window index ≥ 0
pub fn sustained_share(arrivals: &[f64], done: impl Iterator<Item = f64>, seconds: f64) -> f64 {
    let windows = crate::stats::WINDOWS;
    let slot = |t: f64| ((t / seconds) * windows as f64).floor().max(0.0) as usize;
    let (mut due, mut completed) = (vec![0usize; windows], vec![0usize; windows]);
    for &t in arrivals {
        if let Some(n) = due.get_mut(slot(t)) {
            *n += 1;
        }
    }
    for t in done {
        if let Some(n) = completed.get_mut(slot(t)) {
            *n += 1;
        }
    }
    let shares: Vec<f64> = due
        .iter()
        .zip(&completed)
        .filter(|(d, _)| **d > 0)
        .map(|(d, c)| *c as f64 / *d as f64)
        .collect();
    median(&shares)
}

/// Reads a `predict` response — `ok N` then N rows `prob url` — and
/// returns how many predictions it carried and whether `next` was one.
pub fn parse_predict(resp: &str, next: &str) -> Result<(usize, bool), String> {
    let mut lines = resp.lines();
    let head = lines.next().unwrap_or("");
    let n: usize = head
        .strip_prefix("ok ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("not a predict answer: {head:?}"))?;
    let (mut rows, mut hit) = (0usize, false);
    for row in lines {
        let (prob, url) = row
            .split_once(' ')
            .ok_or_else(|| format!("malformed prediction row {row:?}"))?;
        let p: f64 = prob
            .parse()
            .map_err(|_| format!("malformed probability in {row:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability out of range in {row:?}"));
        }
        hit |= url == next;
        rows += 1;
    }
    if rows != n || n > TOP {
        return Err(format!(
            "answer announces {n} rows, carries {rows} (top {TOP})"
        ));
    }
    Ok((n, hit))
}

/// `predict @c7 /a,/b` → `("c7", "/a,/b")`.
pub fn split_predict(line: &str) -> (&str, &str) {
    let rest = line.strip_prefix("predict @").unwrap_or("");
    rest.split_once(' ').unwrap_or((rest, ""))
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs one timed phase: the front-end drains requests per `schedule`,
/// cycling through `cmds` from position `first`, and checks every response.
#[allow(clippy::cast_possible_truncation)] // epoch-move counts ≤ shard count
pub fn drive(
    server: &mut ShardedServer,
    cmds: &[Cmd],
    first: usize,
    schedule: Schedule<'_>,
    traced: bool,
) -> Result<Phase, String> {
    let mut ph = Phase {
        elapsed: 0.0,
        next_cmd: first,
        predict: Vec::new(),
        train: Vec::new(),
        queue_wait: Vec::new(),
        batches: Vec::new(),
        gen_late_us: Vec::new(),
        sent: 0,
        failed: 0,
        covered: 0,
        hits: 0,
        within_slo: 0,
        samples: Vec::new(),
        problems: Vec::new(),
        spans: SpanLog::new(traced),
    };
    let shards = server.shard_count();
    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    let mut picked: Vec<(usize, f64)> = Vec::with_capacity(BATCH);
    let mut responses: Vec<String> = Vec::new();
    let mut epochs = vec![0u64; shards];
    let (mut next, mut predicts_seen, mut idle) = (0usize, 0u64, false);
    let start = Instant::now();
    loop {
        let now = secs_since(start);
        match schedule {
            Schedule::Open(arrivals) => {
                let Some(&due) = arrivals.get(next) else {
                    break;
                };
                if due > now {
                    let gap = Duration::from_secs_f64(due - now);
                    if gap > SPIN_UNDER {
                        std::thread::sleep(gap - SPIN_UNDER);
                    } else {
                        std::hint::spin_loop();
                    }
                    idle = true;
                    continue;
                }
                if idle {
                    ph.gen_late_us.push((now - due) * 1e6);
                    idle = false;
                }
            }
            Schedule::Backlog { until_s, max } => {
                if now >= until_s || next >= max {
                    break;
                }
            }
        }
        let drain_start = Instant::now();
        batch.clear();
        picked.clear();
        while batch.len() < BATCH {
            let due = match schedule {
                Schedule::Open(arrivals) => match arrivals.get(next) {
                    Some(&due) if due <= secs_since(start) => due,
                    _ => break,
                },
                Schedule::Backlog { max, .. } if next < max => now,
                Schedule::Backlog { .. } => break,
            };
            let c = (first + next) % cmds.len();
            batch.push(cmds[c].line.clone());
            picked.push((c, due));
            next += 1;
        }
        for (k, e) in epochs.iter_mut().enumerate() {
            *e = server.shard_epoch(k);
        }
        let t0_at = Instant::now();
        server
            .handle_batch(&batch, &mut responses)
            .map_err(|e| format!("handle_batch: {e}"))?;
        let t1_at = Instant::now();
        let (t0, t1) = (
            t0_at.duration_since(start).as_secs_f64(),
            t1_at.duration_since(start).as_secs_f64(),
        );
        let epoch_moves = (0..shards)
            .filter(|&k| server.shard_epoch(k) != epochs[k])
            .count() as u32;
        ph.sent += batch.len() as u64;
        if responses.len() != batch.len() {
            ph.failed += batch.len().abs_diff(responses.len()) as u64;
            ph.problems.push(format!(
                "batch of {} lines got {} responses",
                batch.len(),
                responses.len()
            ));
        }
        let mut predicts = 0usize;
        for (i, &(c, due)) in picked.iter().enumerate() {
            let cmd = &cmds[c];
            let resp = responses.get(i).map_or("", String::as_str);
            let latency_us = (t1 - due) * 1e6;
            ph.queue_wait.push((t0, (t0 - due) * 1e6));
            if cmd.is_predict() {
                predicts += 1;
                predicts_seen += 1;
                ph.predict.push((t1, latency_us));
                match parse_predict(resp, &cmd.next) {
                    Ok((rows, hit)) => {
                        ph.covered += u64::from(rows > 0);
                        ph.hits += u64::from(hit);
                        ph.within_slo += u64::from(latency_us <= SLO_US);
                    }
                    Err(e) => {
                        ph.failed += 1;
                        if ph.problems.len() < 8 {
                            ph.problems.push(format!("{:?}: {e}", cmd.line));
                        }
                    }
                }
                if predicts_seen.is_multiple_of(CHECK_EVERY) {
                    ph.samples.push((c, resp.to_owned()));
                }
            } else {
                ph.train.push((t1, latency_us));
                if !resp.starts_with("ok trained") {
                    ph.failed += 1;
                    if ph.problems.len() < 8 {
                        ph.problems.push(format!("{:?}: {resp:?}", cmd.line));
                    }
                }
            }
        }
        ph.batches.push(BatchRec {
            t0,
            dispatch_us: (t1 - t0) * 1e6,
            size: batch.len(),
            predicts,
            epoch_moves,
        });
        ph.elapsed = t1;
        ph.next_cmd = (first + next) % cmds.len();
        if ph.spans.enabled() {
            let log = &mut ph.spans;
            let at =
                |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            let b = log.push("batch", NONE, at(drain_start), at(Instant::now()));
            log.push("dispatch", b, at(t0_at), at(t1_at));
            if let Some(s) = log.get_mut(b) {
                s.epoch_moves = epoch_moves;
            }
            let first = ph.sent - batch.len() as u64;
            for (i, &(_, due)) in picked.iter().enumerate() {
                if !(first + i as u64).is_multiple_of(SPAN_EVERY) {
                    continue;
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                // due ≥ 0, < run length
                let due_ns = (due * 1e9) as u64;
                let r = log.push("request", NONE, due_ns, at(t1_at));
                if let Some(s) = log.get_mut(r) {
                    s.batch = b;
                }
                log.push("queue_wait", r, due_ns, at(t0_at));
            }
        }
    }
    Ok(ph)
}

/// Re-derives every sampled `predict` response from the published epoch
/// of the client's shard. Valid while no shard published during the phase.
pub fn verify_samples(server: &ShardedServer, cmds: &[Cmd], ph: &Phase, out: &mut Outcome) {
    let mut buf = Vec::new();
    let mut top = Vec::new();
    let mut mismatches = 0usize;
    for (c, resp) in &ph.samples {
        let (client, payload) = split_predict(&cmds[*c].line);
        let k = server.shard_of_client(client);
        let mut reader = server.shard_reader(k);
        buf.clear();
        top.clear();
        let fresh = match predict_published(
            reader.current(),
            server.shard_session(k).top(),
            payload,
            &mut buf,
            &mut top,
        ) {
            Ok(Ok(())) => String::from_utf8_lossy(&buf).into_owned(),
            _ => String::from("<predict_published failed>"),
        };
        if &fresh != resp {
            mismatches += 1;
            if mismatches == 1 {
                out.problem(format!(
                    "response to {:?} differs from predict_published: {resp:?} vs {fresh:?}",
                    cmds[*c].line
                ));
            }
        }
    }
    out.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} sampled responses differ",
            ph.samples.len()
        )
    });
}

/// A served workload's state after set-up: a server whose every shard
/// window is full, and the traffic to replay against it.
pub struct Prepared {
    pub server: ShardedServer,
    pub cmds: Vec<Cmd>,
    /// The replayed sessions, as URL strings, with their routing token.
    pub traffic: Vec<(String, Vec<String>)>,
    pub arrivals: Vec<f64>,
    pub log_lines: usize,
    pub parse_s: f64,
    pub parse_peak_bytes: u64,
    pub sessionize_s: f64,
}

/// Trains sessions through the protocol until every shard's window is
/// full, then turns the sessions that follow into the workload's traffic.
fn prepare(mode: Mode, plan: &Plan, seed: u64, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let log = inputs::write_log(&plan.serve_trace, &dir.join("access.log"))
        .map_err(|e| format!("write log: {e}"))?;
    let ing = inputs::ingest(&log)?;
    let _ = std::fs::remove_file(&log.path);
    let mut server = ShardedServer::open(
        &dir.join("server").display().to_string(),
        PbConfig::default(),
        server_options(plan),
    )
    .map_err(|e| format!("open server: {e}"))?;
    let full = |s: &ShardedServer| {
        (0..s.shard_count()).all(|k| s.shard_session(k).online().window_len() >= plan.window)
    };
    let (mut i, mut batch, mut responses) = (0usize, Vec::new(), Vec::new());
    while !full(&server) {
        if i == ing.sessions.len() {
            return Err("trace too short to fill every shard's window".to_owned());
        }
        batch.clear();
        while batch.len() < BATCH && i < ing.sessions.len() {
            batch.push(inputs::train_cmd(&ing.urls, i, &ing.sessions[i]).line);
            i += 1;
        }
        server
            .handle_batch(&batch, &mut responses)
            .map_err(|e| format!("warm-up: {e}"))?;
        if let Some(bad) = responses.iter().find(|r| !r.starts_with("ok trained")) {
            return Err(format!("warm-up train failed: {bad:?}"));
        }
    }
    let mut cmds = Vec::new();
    let mut traffic = Vec::new();
    for (j, s) in ing.sessions[i..].iter().enumerate() {
        inputs::predict_cmds(&ing.urls, i + j, s, &mut cmds);
        if mode == Mode::Churn {
            cmds.push(inputs::train_cmd(&ing.urls, i + j, s));
        }
        let names = s
            .iter()
            .map(|&u| ing.urls.resolve(u).unwrap_or("?").to_owned())
            .collect();
        traffic.push((inputs::client_of(i + j), names));
    }
    if cmds.is_empty() {
        return Err("no sessions left after the warm-up".to_owned());
    }
    let arrivals = match mode {
        Mode::Steady => inputs::poisson_schedule(plan.read_rate, plan.seconds, seed),
        Mode::Churn => inputs::poisson_schedule(plan.churn_rate, plan.seconds, seed),
        Mode::Saturate => Vec::new(),
    };
    Ok(Prepared {
        server,
        cmds,
        traffic,
        arrivals,
        log_lines: log.lines,
        parse_s: ing.parse_s,
        parse_peak_bytes: ing.parse_peak_bytes,
        sessionize_s: ing.sessionize_s,
    })
}

/// Runs a serve workload: `plan.setups` set-ups (the last one is kept),
/// the timed phase (untraced, then traced when asked), output checks, and
/// the metrics.
pub fn run(
    mode: Mode,
    plan: &Plan,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Outcome, SpanLog), String> {
    let (mut setup_s, mut parse_s, mut peak, mut sessionize_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut models = Vec::new();
    let mut prepared = None;
    for n in 0..plan.setups.max(1) {
        drop(prepared.take());
        let sub = dir.join(format!("setup-{n}"));
        let t = Instant::now();
        let p = prepare(mode, plan, seed, &sub)?;
        setup_s.push(t.elapsed().as_secs_f64());
        parse_s.push(p.parse_s);
        peak.push(p.parse_peak_bytes as f64);
        sessionize_s.push(p.sessionize_s);
        // The warm shard models: the same after every set-up, measured
        // after each so the load times sample several moments of the run.
        models.push(layers::measure_published(&p.server)?);
        prepared = Some(p);
        if n > 0 {
            let _ = std::fs::remove_dir_all(dir.join(format!("setup-{}", n - 1)));
        }
    }
    let mut p = prepared.ok_or("no set-up ran")?;
    let schedule = match mode {
        Mode::Saturate => Schedule::Backlog {
            until_s: plan.seconds,
            max: usize::MAX,
        },
        Mode::Steady | Mode::Churn => Schedule::Open(&p.arrivals),
    };
    let epochs = |s: &ShardedServer| (0..s.shard_count()).map(|k| s.shard_epoch(k)).sum::<u64>();
    // Reads replay held-out traffic from a seeded point of its cycle;
    // churn keeps the sessions in time order after the warm-up.
    let first = if mode == Mode::Churn {
        0
    } else {
        inputs::start_offset(seed, p.cmds.len())
    };
    let untraced = drive(&mut p.server, &p.cmds, first, schedule, false)?;
    let epochs_before = epochs(&p.server);
    let traced_phase = if traced {
        Some(drive(
            &mut p.server,
            &p.cmds,
            untraced.next_cmd,
            schedule,
            true,
        )?)
    } else {
        None
    };
    let publishes = epochs(&p.server) - epochs_before;

    let mut out = Outcome::default();
    for ph in std::iter::once(&untraced).chain(&traced_phase) {
        out.attempted += ph.sent;
        out.failed += ph.failed;
        out.problems.extend(ph.problems.iter().cloned());
        // Churn shards publish mid-phase, so a sampled answer may come from
        // an epoch that is gone; the read workloads publish nothing.
        if mode != Mode::Churn {
            verify_samples(&p.server, &p.cmds, ph, &mut out);
            let stalls = ph.batches.iter().filter(|b| b.epoch_moves > 0).count();
            out.check(stalls == 0, || {
                format!("{stalls} batches moved an epoch on a read-only workload")
            });
        }
        if let Schedule::Open(arrivals) = schedule {
            let sustained = ph.sustained_share(arrivals, plan.seconds);
            if sustained < MIN_SUSTAINED {
                out.invalid.push(format!(
                    "completed {sustained:.3} requests per request due (< {MIN_SUSTAINED}): the backlog grew"
                ));
            }
        }
    }
    out.check(p.server.publish_rejected() == 0, || {
        format!(
            "{} rebuilds failed the publish audit",
            p.server.publish_rejected()
        )
    });

    let models = models.into_iter().reduce(|mut all, m| {
        all.absorb(m);
        all
    });
    let models = models.ok_or("no set-up ran")?;
    out.e2e("setup_s", median(&setup_s));
    out.layer("e2e.latency_p50_us", untraced.latency_us(0.5));
    out.layer("e2e.latency_p99_us", untraced.latency_us(0.99));
    out.layer(
        "e2e.throughput_per_s",
        if mode == Mode::Saturate {
            untraced.peak_rate()
        } else {
            untraced.throughput()
        },
    );
    out.e2e(
        "hit_ratio",
        untraced.hits as f64 / untraced.predict.len().max(1) as f64,
    );
    models.report_e2e(&mut out);
    phase_extras(&untraced, &mut out);
    if matches!(schedule, Schedule::Open(_)) {
        out.extra(
            "offered_per_s",
            p.arrivals.len() as f64 / plan.seconds,
            "1/s",
        );
    }

    let Some(tp) = traced_phase else {
        return Ok((out, SpanLog::new(false)));
    };
    out.layer("ingest.parse_ms", median(&parse_s) * 1e3);
    out.layer(
        "ingest.lines_per_s",
        p.log_lines as f64 / median(&parse_s).max(1e-9),
    );
    out.layer("ingest.peak_mb", median(&peak) / 1e6);
    out.layer("session.sessionize_ms", median(&sessionize_s) * 1e3);
    models.report_layers(&mut out);
    let read = layers::replay_read_path(&p.server, &p.cmds);
    layers::replay_write_path(&p.server, &p.traffic, &mut out)?.report(&mut out);
    report_serving_layers(&tp, &read, publishes, &p.server, &mut out);
    out.layer(
        "trace.overhead_share",
        tp.latency_us(0.5) / untraced.latency_us(0.5).max(1e-9) - 1.0,
    );
    Ok((out, tp.spans))
}

/// Workload-specific numbers printed beside the result.
pub fn phase_extras(ph: &Phase, out: &mut Outcome) {
    out.extra("predict_samples", ph.predict.len() as f64, "count");
    out.extra(
        "slo_share",
        ph.within_slo as f64 / ph.predict.len().max(1) as f64,
        "fraction",
    );
    out.extra(
        "error_share",
        ph.failed as f64 / ph.sent.max(1) as f64,
        "fraction",
    );
    if !ph.train.is_empty() {
        out.extra("train_samples", ph.train.len() as f64, "count");
        out.extra(
            "train_p50_us",
            windowed_percentile(&ph.train, ph.elapsed, 0.5),
            "us",
        );
        out.extra(
            "train_p99_us",
            windowed_percentile(&ph.train, ph.elapsed, 0.99),
            "us",
        );
    }
    if !ph.gen_late_us.is_empty() {
        let mut late = ph.gen_late_us.clone();
        late.sort_by(f64::total_cmp);
        out.extra("frontend.gen_late_p99_us", nearest_rank(&late, 0.99), "us");
    }
    out.extra("achieved_per_s", ph.throughput(), "1/s");
}

/// The front-end and sharded-dispatch layer metrics of a traced phase.
pub fn report_serving_layers(
    ph: &Phase,
    read: &layers::ReadReplay,
    publishes: u64,
    server: &ShardedServer,
    out: &mut Outcome,
) {
    out.layer(
        "frontend.queue_wait_p50_us",
        windowed_percentile(&ph.queue_wait, ph.elapsed, 0.5),
    );
    out.layer(
        "frontend.queue_wait_p99_us",
        windowed_percentile(&ph.queue_wait, ph.elapsed, 0.99),
    );
    out.layer(
        "frontend.batch_size_mean",
        ph.sent as f64 / ph.batches.len().max(1) as f64,
    );
    let self_ns = spans::self_times(ph.spans.spans());
    out.layer(
        "frontend.self_us_per_batch",
        spans::mean_self_ns(ph.spans.spans(), &self_ns, "batch") / 1e3,
    );
    let mut dispatch: Vec<f64> = ph.batches.iter().map(|b| b.dispatch_us).collect();
    dispatch.sort_by(f64::total_cmp);
    let busy: f64 = dispatch.iter().sum();
    out.layer("sharded.batches", ph.batches.len() as f64);
    out.layer("sharded.dispatch_p50_us", nearest_rank(&dispatch, 0.5));
    out.layer("sharded.dispatch_p99_us", nearest_rank(&dispatch, 0.99));
    out.layer("sharded.busy_share", busy / 1e6 / ph.elapsed.max(1e-9));
    // Dispatch time the replayed per-request work does not explain, over
    // the batches that only read and published nothing.
    let (clean_us, clean_n) = ph
        .batches
        .iter()
        .filter(|b| b.epoch_moves == 0 && b.predicts == b.size)
        .fold((0.0, 0usize), |(us, n), b| (us + b.dispatch_us, n + b.size));
    let per_req_us = (read.route_ns + read.epoch_read_ns + read.predict_published_ns) / 1e3;
    out.layer(
        "sharded.overhead_us_per_req",
        if clean_n == 0 {
            0.0
        } else {
            clean_us / clean_n as f64 - per_req_us
        },
    );
    let stalls: Vec<f64> = ph
        .batches
        .iter()
        .filter(|b| b.epoch_moves > 0)
        .map(|b| b.dispatch_us)
        .collect();
    out.layer("sharded.stall_batches", stalls.len() as f64);
    out.layer(
        "sharded.stall_share",
        stalls.iter().fold(0.0, |a, b| a + b) / busy.max(1e-9),
    );
    if !stalls.is_empty() {
        let mut s = stalls;
        s.sort_by(f64::total_cmp);
        out.extra("sharded.stall_p50_ms", nearest_rank(&s, 0.5) / 1e3, "ms");
        out.extra("sharded.stall_p99_ms", nearest_rank(&s, 0.99) / 1e3, "ms");
    }
    out.layer("sharded.publishes", publishes as f64);
    out.layer("sharded.publish_rejected", server.publish_rejected() as f64);
    out.layer(
        "match.covered_share",
        ph.covered as f64 / ph.predict.len().max(1) as f64,
    );
    out.layer("match.precision", ph.hits as f64 / ph.covered.max(1) as f64);
    read.report(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_answers_parse_into_rows_and_hits() {
        let resp = "ok 2\n0.500 /b.html\n0.250 /c.html\n";
        assert_eq!(parse_predict(resp, "/c.html"), Ok((2, true)));
        assert_eq!(parse_predict(resp, "/d.html"), Ok((2, false)));
        assert_eq!(parse_predict("ok 0\n", "/a"), Ok((0, false)));
        assert!(parse_predict("err predict: desync\n", "/a").is_err());
        assert!(
            parse_predict("ok 2\n0.500 /b.html\n", "/b.html").is_err(),
            "row count"
        );
        assert!(
            parse_predict("ok 1\nhigh /b.html\n", "/b.html").is_err(),
            "probability"
        );
        assert!(
            parse_predict("ok 1\n1.500 /b.html\n", "/b.html").is_err(),
            "range"
        );
        assert!(parse_predict("", "/a").is_err());
        assert_eq!(split_predict("predict @c7 /a,/b"), ("c7", "/a,/b"));
    }

    #[test]
    fn sustained_share_flags_a_growing_backlog_not_a_slow_last_batch() {
        let arrivals: Vec<f64> = (0..1000).map(|i| f64::from(i) / 100.0).collect();
        // Every request answered 1 ms after it was due.
        let prompt = arrivals.iter().map(|t| t + 0.001);
        assert_eq!(sustained_share(&arrivals, prompt, 10.0), 1.0);
        // The last 50 requests wait out a 300 ms stall: one window moves.
        let stalled = arrivals
            .iter()
            .map(|&t| if t >= 9.5 { 10.3 } else { t + 0.001 });
        assert_eq!(sustained_share(&arrivals, stalled, 10.0), 1.0);
        // The server completes 9 requests for every 10 due: the backlog grows.
        let slow = arrivals.iter().map(|t| t / 0.9);
        assert!(sustained_share(&arrivals, slow, 10.0) < 0.95);
    }
}
