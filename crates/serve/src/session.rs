//! One shard's writer: a long-running, crash-safe online prediction loop.
//!
//! Wraps [`OnlinePbPpm`] behind a line protocol and checkpoints its full
//! serving state (URL interner + sliding window + built model) through
//! [`SnapshotStore`] every `--checkpoint-every` rebuilds. On startup the
//! newest valid checkpoint generation is recovered, so a crash — even one
//! that truncates the latest snapshot mid-write — costs at most the
//! sessions since the previous checkpoint.
//!
//! The loop observes itself (ISSUE 7): every request is timed and ringed
//! through a fixed-capacity [`FlightRecorder`]; every `train` session is
//! first scored against the current model's own predictions ([`LiveEval`],
//! prequential test-then-train), so the server carries live sliding-window
//! precision / hit-ratio / traffic-increment numbers and a popularity-drift
//! signal; and the `metrics` / `trace` / `health` commands expose all of it
//! without stopping the process. A `serve_metrics.json` report is flushed
//! into the snapshot dir alongside checkpoints (and every `--flush-every`
//! requests), so even a crashed process leaves its last observed state
//! behind.
//!
//! In the sharded server ([`crate::ShardedServer`]) one `ServeSession` is
//! the single *writer* of each shard: it owns training, rebuilds,
//! checkpoints and flight recording, while predictions are answered by
//! readers against the epoch-published model snapshot.
//!
//! ## Protocol
//!
//! One command per line; every command answers with one `ok …` or `err …`
//! line (plus extra rows after `ok N`):
//!
//! ```text
//! train /a.html,/b.html,/c.html      feed one session (scored, then trained)
//! predict /a.html,/b.html            -> "ok N" then N lines "prob url"
//! checkpoint                         force a checkpoint now
//! stats                              one-line model + serving-session summary
//! metrics [--prom]                   -> "ok N" then N report lines
//! trace N                            -> "ok M" then M flight-recorder lines
//! health                             one line: healthy/degraded + counters
//! quit                               checkpoint and exit
//! ```
//!
//! Request accounting is write-ordered: the response is staged, written to
//! the client, and only then recorded — a failed client write counts as an
//! error outcome in the flight recorder, never as a served request.

use pbppm_core::eval::EvalConfig;
use pbppm_core::snapshot::{Generation, ModelImage, SnapshotFile, SnapshotStore};
use pbppm_core::{
    traffic_increment, Interner, LiveEval, LiveEvalConfig, ModelRef, OnlinePbPpm, PbConfig,
    Prediction, PredictionQuality, Predictor, UrlId,
};
use pbppm_obs::flight::COMMAND_KINDS;
use pbppm_obs::{CommandKind, FlightRecorder, Registry, RunReport};
use std::io::Write;
use std::time::Instant;

/// What a handled protocol line means for the read loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading.
    Continue,
    /// The client said `quit`; stop cleanly.
    Quit,
}

/// Where a freshly opened serving session got its state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No checkpoint existed; the model starts empty.
    Fresh,
    /// A checkpoint generation was loaded.
    Warm(Generation),
}

impl Recovery {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Recovery::Fresh => "fresh",
            Recovery::Warm(Generation::Current) => "current",
            Recovery::Warm(Generation::Previous) => "previous",
        }
    }

    /// Numeric form for the `serve.recovered_generation` gauge.
    pub(crate) fn gauge(self) -> u64 {
        match self {
            Recovery::Fresh => 0,
            Recovery::Warm(Generation::Current) => 1,
            Recovery::Warm(Generation::Previous) => 2,
        }
    }
}

/// Tunables for a serving session beyond the model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Sliding window of sessions the online model keeps.
    pub window: usize,
    /// Rebuild the model every this many trained sessions.
    pub rebuild_every: usize,
    /// Checkpoint after this many completed rebuilds.
    pub checkpoint_every: u64,
    /// Predictions returned per `predict`.
    pub top: usize,
    /// Live-eval sliding window, in contexts.
    pub eval_window: usize,
    /// Degrade health when windowed precision@k falls below this fraction
    /// of the lifetime mean.
    pub drift_fraction: f64,
    /// Flight-recorder ring capacity, in requests.
    pub flight_capacity: usize,
    /// Flush `serve_metrics.json` every this many requests (0 = only on
    /// checkpoints and quit).
    pub flush_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            window: 1000,
            rebuild_every: 50,
            checkpoint_every: 1,
            top: 10,
            eval_window: 512,
            drift_fraction: 0.5,
            flight_capacity: 256,
            flush_every: 256,
        }
    }
}

/// The serving loop's state: interner, online model, checkpoint store,
/// and the observability layer (flight recorder + live evaluator).
pub struct ServeSession {
    urls: Interner,
    online: OnlinePbPpm,
    store: SnapshotStore,
    /// Checkpoint after this many completed rebuilds.
    checkpoint_every: u64,
    last_checkpoint_rebuilds: u64,
    top: usize,
    recovery: Recovery,
    recorder: FlightRecorder,
    live: LiveEval,
    start_rebuilds: u64,
    checkpoints_written: u64,
    recovery_audits: u64,
    requests: u64,
    errors: u64,
    flush_every: u64,
    flush_failures: u64,
    /// Predictions whose interned URL could not be resolved — each one is
    /// an interner/model desync that would previously have been rendered
    /// as a literal `"?"` and lost.
    interner_desync: u64,
    /// Reused response staging buffer — one per shard, so the hot path
    /// does not allocate per request.
    resp_buf: Vec<u8>,
    /// Reused predict-payload staging for the flight record.
    top_buf: Vec<(String, f64)>,
}

impl ServeSession {
    /// Opens a serving session over `dir`, recovering from the newest
    /// valid checkpoint when one exists. The model-shaping options
    /// (`window`/`rebuild_every`) only apply to a **fresh** session; a
    /// recovered snapshot carries its own configuration.
    pub fn open(
        dir: &str,
        cfg: PbConfig,
        opts: ServeOptions,
    ) -> Result<(Self, Recovery), Box<dyn std::error::Error>> {
        let store = SnapshotStore::open(dir)?;
        let mut recovery_audits = 0u64;
        let (urls, online, recovery) = match store.recover()? {
            Some((file, generation)) => {
                let ModelImage::OnlinePb(snap) = &file.model else {
                    return Err(format!(
                        "{}: snapshot holds a {} model, not online serving state",
                        store.dir().display(),
                        file.model.kind_label()
                    )
                    .into());
                };
                let online = OnlinePbPpm::from_snapshot(snap)?;
                // A checkpoint can be checksum-valid yet structurally
                // rotten (writer bug, partial logic migration). Refuse to
                // serve predictions from a model that fails the audit —
                // at this point the damage is recoverable; after hours of
                // serving and re-checkpointing it no longer is.
                let report = pbppm_core::verify_model_with_urls(
                    &ModelRef::OnlinePb(&online),
                    Some(file.urls.len()),
                );
                if !report.is_clean() {
                    return Err(format!(
                        "{}: recovered checkpoint fails the structural audit; \
                         refusing to serve from it\n{report}",
                        store.dir().display()
                    )
                    .into());
                }
                recovery_audits = 1;
                (file.interner(), online, Recovery::Warm(generation))
            }
            None => (
                Interner::new(),
                OnlinePbPpm::new(cfg, opts.window, opts.rebuild_every),
                Recovery::Fresh,
            ),
        };
        let last_checkpoint_rebuilds = online.rebuild_count();
        Ok((
            Self {
                urls,
                start_rebuilds: online.rebuild_count(),
                online,
                store,
                checkpoint_every: opts.checkpoint_every.max(1),
                last_checkpoint_rebuilds,
                top: opts.top,
                recovery,
                recorder: FlightRecorder::new(opts.flight_capacity),
                live: LiveEval::new(LiveEvalConfig {
                    eval: EvalConfig {
                        k: opts.top.max(1),
                        ..EvalConfig::default()
                    },
                    window: opts.eval_window,
                    drift_fraction: opts.drift_fraction,
                    ..LiveEvalConfig::default()
                }),
                checkpoints_written: 0,
                recovery_audits,
                requests: 0,
                errors: 0,
                flush_every: opts.flush_every,
                flush_failures: 0,
                interner_desync: 0,
                resp_buf: Vec::new(),
                top_buf: Vec::new(),
            },
            recovery,
        ))
    }

    /// The online model being served (tests, publication).
    pub fn online(&self) -> &OnlinePbPpm {
        &self.online
    }

    /// The interner the writer trains against (publication clones it).
    pub fn urls(&self) -> &Interner {
        &self.urls
    }

    /// The live prequential evaluator (tests).
    pub fn live(&self) -> &LiveEval {
        &self.live
    }

    /// The flight recorder (tests).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Where this session's state came from at open time.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Checkpoints written by this session.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Requests handled (including errored ones).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that answered `err` (or failed to reach the client).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// `serve_metrics.json` flushes that failed (disk trouble).
    pub fn flush_failures(&self) -> u64 {
        self.flush_failures
    }

    /// Predictions dropped because the model referenced an interned URL
    /// the interner could not resolve.
    pub fn interner_desync(&self) -> u64 {
        self.interner_desync
    }

    /// Predictions returned per `predict` (the `--top` option).
    pub fn top(&self) -> usize {
        self.top
    }

    /// Counts one interner/model desync observed on the shard's reader
    /// path; returns the new total (for the error message).
    pub(crate) fn note_interner_desync(&mut self) -> u64 {
        self.interner_desync += 1;
        self.interner_desync
    }

    /// Writes a checkpoint of the full serving state (and refreshes the
    /// metrics flush alongside it). Returns its size.
    pub fn checkpoint(&mut self) -> Result<u64, Box<dyn std::error::Error>> {
        let file = SnapshotFile::new(&self.urls, ModelImage::OnlinePb(self.online.to_snapshot()));
        let bytes = self.store.checkpoint(&file)?;
        self.last_checkpoint_rebuilds = self.online.rebuild_count();
        self.checkpoints_written += 1;
        if self.flush_metrics().is_err() {
            self.flush_failures += 1;
        }
        Ok(bytes)
    }

    /// Checkpoints when enough rebuilds have accumulated since the last
    /// one. Returns the bytes written, if any.
    fn maybe_checkpoint(&mut self) -> Result<Option<u64>, Box<dyn std::error::Error>> {
        if self.online.rebuild_count() - self.last_checkpoint_rebuilds >= self.checkpoint_every {
            return self.checkpoint().map(Some);
        }
        Ok(None)
    }

    /// Atomically (write + rename) refreshes `serve_metrics.json` in the
    /// snapshot dir with the current [`RunReport`], so the last observed
    /// serving state survives a crash.
    pub fn flush_metrics(&self) -> std::io::Result<()> {
        let path = self.store.dir().join("serve_metrics.json");
        let tmp = self.store.dir().join("serve_metrics.json.tmp");
        std::fs::write(&tmp, self.build_report().to_json())?;
        std::fs::rename(&tmp, &path)
    }

    fn parse_urls(&mut self, raw: &str, intern_new: bool) -> Vec<UrlId> {
        raw.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .filter_map(|s| {
                if intern_new {
                    Some(self.urls.intern(s))
                } else {
                    // Prediction contexts only match URLs the model has
                    // seen; unknown ones cannot contribute and are skipped.
                    self.urls.get(s)
                }
            })
            .collect()
    }

    /// Handles one protocol line, writing the response to `out`.
    ///
    /// The response is staged through the session's reused buffer, written
    /// to the client, and only *then* recorded: the flight record's
    /// outcome covers delivery, so a broken client connection shows up as
    /// an error, not a phantom success.
    pub fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<Flow> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(Flow::Continue);
        }
        let started = Instant::now();
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        let kind = CommandKind::parse(cmd);
        // Staging buffers are session fields reused across requests (one
        // pair per shard); `take` sidesteps the borrow against `dispatch`.
        let mut buf = std::mem::take(&mut self.resp_buf);
        let mut top = std::mem::take(&mut self.top_buf);
        buf.clear();
        top.clear();
        let flow = self.dispatch(kind, cmd, rest, &mut buf, &mut top)?;
        let write_result = out.write_all(&buf);
        let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ok = buf.starts_with(b"ok") && write_result.is_ok();
        self.finish_request(kind, latency_ns, ok, &top);
        self.resp_buf = buf;
        self.top_buf = top;
        write_result?;
        Ok(flow)
    }

    /// Post-delivery accounting shared by the writer path (`handle_line`)
    /// and the sharded reader path: flight record, request/error counters,
    /// and the periodic metrics flush.
    pub(crate) fn finish_request(
        &mut self,
        kind: CommandKind,
        latency_ns: u64,
        ok: bool,
        top: &[(String, f64)],
    ) {
        if !ok {
            self.errors += 1;
        }
        let top_refs: Vec<(&str, f64)> = top.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        self.recorder.push(kind, latency_ns, ok, &top_refs);
        self.requests += 1;
        if self.flush_every > 0
            && self.requests.is_multiple_of(self.flush_every)
            && self.flush_metrics().is_err()
        {
            self.flush_failures += 1;
        }
    }

    /// Runs one command, writing its response lines into `buf`. `top`
    /// receives the predict payload for the flight record.
    fn dispatch(
        &mut self,
        kind: CommandKind,
        cmd: &str,
        rest: &str,
        buf: &mut Vec<u8>,
        top: &mut Vec<(String, f64)>,
    ) -> std::io::Result<Flow> {
        let out: &mut dyn Write = buf;
        match kind {
            CommandKind::Train => {
                let session = self.parse_urls(rest, true);
                if session.is_empty() {
                    writeln!(out, "err train expects a comma-separated URL list")?;
                    return Ok(Flow::Continue);
                }
                // Prequential self-evaluation: score the incoming clicks
                // against the *current* model before training on them.
                let grades = self.online.current().map(|m| m.popularity());
                self.live.observe_session(&self.online, grades, &session);
                let rebuilds_before = self.online.rebuild_count();
                let train_started = Instant::now();
                self.online.train_session(&session);
                if self.online.rebuild_count() > rebuilds_before {
                    // Attribute the whole train call to the rebuild
                    // histogram when one fired: the rebuild dominates the
                    // window push by orders of magnitude.
                    let ns = u64::try_from(train_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.recorder.observe(CommandKind::Rebuild, ns);
                }
                match self.maybe_checkpoint() {
                    Ok(saved) => writeln!(
                        out,
                        "ok trained {} url(s); window {}, rebuilds {}{}",
                        session.len(),
                        self.online.window_len(),
                        self.online.rebuild_count(),
                        match saved {
                            Some(bytes) => format!(", checkpointed {bytes} bytes"),
                            None => String::new(),
                        }
                    )?,
                    Err(e) => writeln!(out, "err checkpoint failed: {e}")?,
                }
            }
            CommandKind::Predict => {
                let context = self.parse_urls(rest, false);
                let mut preds = Vec::new();
                self.online.predict(&context, &mut preds);
                preds.truncate(self.top);
                if let Err(id) = write_predictions(&self.urls, &preds, out, top)? {
                    self.interner_desync += 1;
                    writeln!(
                        out,
                        "err predict: model emitted unresolvable url id {id} \
                         (interner/model desync; {} total)",
                        self.interner_desync
                    )?;
                }
            }
            CommandKind::Checkpoint => match self.checkpoint() {
                Ok(bytes) => writeln!(out, "ok checkpointed {bytes} bytes")?,
                Err(e) => writeln!(out, "err checkpoint failed: {e}")?,
            },
            CommandKind::Stats => {
                let s = self.online.stats();
                writeln!(
                    out,
                    "ok urls {}, window {}, rebuilds {}, nodes {}, bytes {}, \
                     recovered {}, rebuilds_since_start {}, checkpoints {}, \
                     flush_failures {}",
                    self.urls.len(),
                    self.online.window_len(),
                    self.online.rebuild_count(),
                    s.nodes,
                    s.total_bytes(),
                    self.recovery.label(),
                    self.online.rebuild_count() - self.start_rebuilds,
                    self.checkpoints_written,
                    self.flush_failures,
                )?;
            }
            CommandKind::Metrics => {
                let report = self.build_report();
                let rendered = if rest.trim() == "--prom" {
                    report.render_prometheus()
                } else if rest.trim().is_empty() {
                    report.render_text()
                } else {
                    writeln!(out, "err metrics takes no argument except --prom")?;
                    return Ok(Flow::Continue);
                };
                let lines: Vec<&str> = rendered.lines().collect();
                writeln!(out, "ok {}", lines.len())?;
                for l in lines {
                    writeln!(out, "{l}")?;
                }
            }
            CommandKind::Trace => {
                let n = if rest.trim().is_empty() {
                    10
                } else {
                    match rest.trim().parse::<usize>() {
                        Ok(n) => n,
                        Err(_) => {
                            writeln!(out, "err trace expects a count, got {:?}", rest.trim())?;
                            return Ok(Flow::Continue);
                        }
                    }
                };
                let records: Vec<String> = self.recorder.last(n).map(|r| r.render()).collect();
                writeln!(out, "ok {}", records.len())?;
                for r in records {
                    writeln!(out, "{r}")?;
                }
            }
            CommandKind::Health => {
                let drifted = self.live.drifted();
                let window = self.live.window_quality();
                writeln!(
                    out,
                    "ok {} recovered={} rebuilds={} checkpoints={} audits={} \
                     window_precision_at_k={:.3} lifetime_precision_at_k={:.3} \
                     flush_failures={}",
                    if drifted { "degraded" } else { "healthy" },
                    self.recovery.label(),
                    self.online.rebuild_count(),
                    self.checkpoints_written,
                    self.recovery_audits,
                    window.precision_at_k(),
                    self.live.lifetime().precision_at_k(),
                    self.flush_failures,
                )?;
            }
            CommandKind::Quit => {
                match self.checkpoint() {
                    Ok(bytes) => writeln!(out, "ok bye; checkpointed {bytes} bytes")?,
                    Err(e) => writeln!(out, "err final checkpoint failed: {e}")?,
                }
                return Ok(Flow::Quit);
            }
            CommandKind::Rebuild | CommandKind::Other => {
                writeln!(
                    out,
                    "err unknown command {cmd:?} \
                     (train/predict/checkpoint/stats/metrics/trace/health/quit)"
                )?;
            }
        }
        Ok(Flow::Continue)
    }

    /// Builds the serving [`RunReport`]: request/error counters, per-kind
    /// latency histograms, the online model's shape, and the live
    /// evaluator's lifetime/window/per-grade quality — the same schema
    /// `--metrics-out` uses everywhere else, so `metrics --prom` is
    /// directly scrapeable and `serve_metrics.json` is directly parseable.
    pub fn build_report(&self) -> RunReport {
        let reg = Registry::new();
        self.fill_report(&reg);
        RunReport {
            schema_version: pbppm_obs::report::SCHEMA_VERSION,
            command: "serve".to_owned(),
            telemetry_enabled: pbppm_obs::ENABLED,
            spans: Vec::new(),
            metrics: reg.snapshot(),
        }
    }

    /// Emits this session's metrics into `reg`. Counters and histograms
    /// are additive, so the sharded server calls this once per shard on a
    /// shared registry (in shard order — the merge is deterministic);
    /// gauges are summed there separately.
    pub(crate) fn fill_report(&self, reg: &Registry) {
        for kind in COMMAND_KINDS {
            let hist = self.recorder.hist(kind);
            if hist.count() == 0 {
                continue;
            }
            let label = format!("cmd={}", kind.label());
            reg.counter("serve.requests", &label).add(hist.count());
            reg.histogram("serve.latency_ns", &label).absorb(hist);
        }
        reg.counter("serve.errors", "").add(self.errors);
        reg.counter("serve.rebuilds", "")
            .add(self.online.rebuild_count());
        reg.counter("serve.checkpoints", "")
            .add(self.checkpoints_written);
        reg.counter("serve.recovery_audits", "")
            .add(self.recovery_audits);
        reg.counter("serve.metrics_flush_failures", "")
            .add(self.flush_failures);
        reg.counter("serve.interner_desync", "")
            .add(self.interner_desync);
        reg.gauge("serve.recovered_generation", "")
            .set(self.recovery.gauge());
        reg.gauge("serve.window_sessions", "")
            .set(self.online.window_len() as u64);

        let s = self.online.stats();
        reg.gauge("model.nodes", "").set(s.nodes as u64);
        reg.gauge("model.bytes", "").set(s.total_bytes() as u64);

        let lifetime = self.live.lifetime();
        reg.counter("live.sessions", "").add(self.live.sessions());
        quality_counters(reg, "live", lifetime);
        for (level, g) in self.live.by_grade().iter().enumerate() {
            let label = format!("grade=G{level}");
            reg.counter("live.grade.contexts", &label).add(g.contexts);
            reg.counter("live.grade.hits_at_k", &label).add(g.hits_at_k);
        }

        let window = self.live.window_quality();
        reg.gauge("live.window.contexts", "").set(window.contexts);
        reg.gauge("live.window.precision_at_1_ppm", "")
            .set(ppm(window.precision_at_1()));
        reg.gauge("live.window.precision_at_k_ppm", "")
            .set(ppm(window.precision_at_k()));
        reg.gauge("live.window.coverage_ppm", "")
            .set(ppm(window.coverage()));
        reg.gauge("live.window.traffic_increment_milli", "")
            .set(milli(traffic_increment(&window)));
        reg.gauge("live.drift", "")
            .set(u64::from(self.live.drifted()));
    }
}

/// Renders `ok N` + one `prob url` row per prediction into `out`, filling
/// `top` for the flight record — unless some prediction's interned URL
/// cannot be resolved, in which case *nothing* is written and the
/// offending id is returned: an unresolvable id means the model and the
/// interner have desynced, and serving a placeholder URL would silently
/// mask it. Shared by the writer predict path and the sharded reader path
/// so both render byte-identically.
pub(crate) fn write_predictions(
    urls: &Interner,
    preds: &[Prediction],
    out: &mut dyn Write,
    top: &mut Vec<(String, f64)>,
) -> std::io::Result<Result<(), UrlId>> {
    if let Some(p) = preds.iter().find(|p| urls.resolve(p.url).is_none()) {
        return Ok(Err(p.url));
    }
    writeln!(out, "ok {}", preds.len())?;
    for p in preds {
        let url = urls.resolve(p.url).unwrap_or("");
        writeln!(out, "{:.3} {}", p.prob, url)?;
        top.push((url.to_owned(), p.prob));
    }
    Ok(Ok(()))
}

/// Publishes one [`PredictionQuality`]'s raw counters under `prefix.*`.
pub(crate) fn quality_counters(reg: &Registry, prefix: &str, q: &PredictionQuality) {
    reg.counter(&format!("{prefix}.contexts"), "")
        .add(q.contexts);
    reg.counter(&format!("{prefix}.covered"), "").add(q.covered);
    reg.counter(&format!("{prefix}.hits_at_1"), "")
        .add(q.hits_at_1);
    reg.counter(&format!("{prefix}.hits_at_k"), "")
        .add(q.hits_at_k);
    reg.counter(&format!("{prefix}.useful_at_k"), "")
        .add(q.useful_at_k);
    reg.counter(&format!("{prefix}.emitted"), "").add(q.emitted);
}

/// A ratio in `[0, 1]` as integer parts-per-million (gauges store `u64`).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn ppm(x: f64) -> u64 {
    (x.clamp(0.0, 1.0) * 1_000_000.0).round() as u64
}

/// A small non-negative rate as integer thousandths.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn milli(x: f64) -> u64 {
    (x.max(0.0) * 1_000.0).round().min(1e18) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("pbppm-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    fn open(dir: &str) -> (ServeSession, Recovery) {
        // rebuild_every=1 + checkpoint_every=1: every session rebuilds and
        // checkpoints, so generations accumulate quickly.
        let opts = ServeOptions {
            window: 100,
            rebuild_every: 1,
            checkpoint_every: 1,
            top: 10,
            ..ServeOptions::default()
        };
        ServeSession::open(dir, PbConfig::default(), opts).unwrap()
    }

    fn line(s: &mut ServeSession, cmd: &str) -> String {
        let mut buf = Vec::new();
        s.handle_line(cmd, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn protocol_basics() {
        let dir = temp_dir("protocol");
        let (mut s, recovery) = open(&dir);
        assert_eq!(recovery, Recovery::Fresh);
        assert!(line(&mut s, "train /a,/b,/a,/b").starts_with("ok trained 4"));
        let reply = line(&mut s, "predict /a");
        assert!(reply.starts_with("ok 1"), "unexpected reply: {reply}");
        assert!(reply.contains("/b"), "unexpected reply: {reply}");
        assert!(line(&mut s, "predict /never-seen").starts_with("ok 0"));
        assert!(line(&mut s, "stats").starts_with("ok urls 2"));
        assert!(line(&mut s, "bogus").starts_with("err unknown command"));
        assert!(line(&mut s, "train ").starts_with("err train expects"));
        assert!(line(&mut s, "quit").starts_with("ok bye"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_restores_predictions() {
        let dir = temp_dir("warm");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b,/c");
        line(&mut s, "train /a,/b,/c");
        let before = line(&mut s, "predict /a,/b");
        drop(s);

        let (mut s2, recovery) = open(&dir);
        assert_eq!(recovery, Recovery::Warm(Generation::Current));
        assert_eq!(line(&mut s2, "predict /a,/b"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovers_from_truncated_current_snapshot() {
        let dir = temp_dir("truncated");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        let after_first = line(&mut s, "predict /a");
        line(&mut s, "train /x,/y");
        drop(s);

        // Simulate a crash mid-write: the newest generation is cut short.
        let current = SnapshotStore::open(&dir).unwrap().current_path();
        let bytes = std::fs::read(&current).unwrap();
        std::fs::write(&current, &bytes[..bytes.len() / 2]).unwrap();

        let (mut s2, recovery) = open(&dir);
        assert_eq!(recovery, Recovery::Warm(Generation::Previous));
        // The previous generation predates the second train line.
        assert_eq!(line(&mut s2, "predict /a"), after_first);
        assert!(line(&mut s2, "predict /x").starts_with("ok 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn training_continues_after_recovery() {
        let dir = temp_dir("resume");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        drop(s);
        let (mut s2, _) = open(&dir);
        assert!(line(&mut s2, "train /a,/c").starts_with("ok trained 2"));
        let reply = line(&mut s2, "predict /a");
        assert!(reply.starts_with("ok 2"), "both sessions count: {reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_serving_session_state() {
        let dir = temp_dir("stats-session");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        line(&mut s, "checkpoint");
        let reply = line(&mut s, "stats");
        assert!(reply.contains("recovered fresh"), "{reply}");
        assert!(reply.contains("rebuilds_since_start 1"), "{reply}");
        // rebuild-triggered checkpoint + the explicit one
        assert!(reply.contains("checkpoints 2"), "{reply}");
        assert!(reply.contains("flush_failures 0"), "{reply}");
        drop(s);
        let (mut s2, _) = open(&dir);
        let reply = line(&mut s2, "stats");
        assert!(reply.contains("recovered current"), "{reply}");
        assert!(reply.contains("rebuilds_since_start 0"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_command_renders_both_formats() {
        let dir = temp_dir("metrics");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        line(&mut s, "predict /a");
        let human = line(&mut s, "metrics");
        let (head, body) = human.split_once('\n').unwrap();
        let n: usize = head.strip_prefix("ok ").unwrap().parse().unwrap();
        assert_eq!(body.lines().count(), n, "line count must match header");
        assert!(body.contains("serve.requests"), "{body}");
        let prom = line(&mut s, "metrics --prom");
        assert!(prom.starts_with("ok "), "{prom}");
        assert!(
            prom.contains("pbppm_serve_requests{cmd=\"train\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("pbppm_serve_latency_ns_bucket"), "{prom}");
        assert!(prom.contains("pbppm_live_contexts 1"), "{prom}");
        assert!(line(&mut s, "metrics bogus").starts_with("err metrics"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dumps_recent_requests() {
        let dir = temp_dir("trace");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        line(&mut s, "train /a,/b");
        line(&mut s, "predict /a");
        let reply = line(&mut s, "trace 2");
        let mut lines = reply.lines();
        assert_eq!(lines.next(), Some("ok 2"));
        let second_to_last = lines.next().unwrap();
        assert!(second_to_last.contains("train ok"), "{second_to_last}");
        let last = lines.next().unwrap();
        assert!(last.contains("predict ok"), "{last}");
        assert!(last.contains("/b"), "predict payload recorded: {last}");
        assert!(line(&mut s, "trace x").starts_with("err trace expects"));
        // The malformed trace request itself lands in the ring.
        let after = line(&mut s, "trace 10");
        assert!(after.contains("trace err"), "{after}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_degrades_on_drift_and_reports_recovery() {
        let dir = temp_dir("health");
        let opts = ServeOptions {
            window: 100,
            rebuild_every: 1,
            checkpoint_every: 1_000_000, // keep checkpoints out of the way
            top: 10,
            eval_window: 8,
            drift_fraction: 0.5,
            ..ServeOptions::default()
        };
        let (mut s, _) = ServeSession::open(&dir, PbConfig::default(), opts).unwrap();
        assert!(line(&mut s, "health").starts_with("ok healthy"), "fresh");
        // Long accurate phase: the model keeps predicting /a -> /b right.
        for _ in 0..64 {
            line(&mut s, "train /a,/b");
        }
        assert!(line(&mut s, "health").starts_with("ok healthy"));
        // Popularity shifts: /a now leads somewhere never seen before
        // (a fresh URL each time, so no rebuild can catch up within the
        // window) and the windowed precision collapses to zero.
        for i in 0..8 {
            line(&mut s, &format!("train /a,/shift{i}"));
        }
        let reply = line(&mut s, "health");
        assert!(reply.starts_with("ok degraded"), "{reply}");
        assert!(reply.contains("recovered=fresh"), "{reply}");
        assert!(reply.contains("checkpoints=0"), "{reply}");
        assert!(reply.contains("flush_failures=0"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flush_lands_in_the_snapshot_dir() {
        let dir = temp_dir("flush");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b"); // rebuild + checkpoint -> flush
        let path = std::path::Path::new(&dir).join("serve_metrics.json");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = RunReport::from_json(&json).unwrap();
        assert_eq!(report.command, "serve");
        assert!(report
            .metrics
            .counters
            .iter()
            .any(|c| c.name == "serve.requests"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sink whose writes always fail, like a client that hung up.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// ISSUE 8 satellite: a failed client write must be recorded as an
    /// error outcome, never as a successfully served request. (The old
    /// loop recorded *before* writing, so a dead client produced phantom
    /// "ok" flight records.)
    #[test]
    fn failed_client_write_is_recorded_as_an_error() {
        let dir = temp_dir("broken-pipe");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        let err = s.handle_line("predict /a", &mut BrokenPipe).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // The request is still accounted for — as an error.
        assert_eq!(s.requests(), 2);
        assert_eq!(s.errors(), 1);
        let record = s.recorder().last(1).next().unwrap().render();
        assert!(record.contains("predict err"), "{record}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 8 satellite: a prediction whose interned URL cannot be
    /// resolved is an interner/model desync — it must answer `err` and
    /// bump an audit-worthy counter, not render a literal `"?"` that is
    /// indistinguishable from a real URL.
    #[test]
    fn unresolvable_prediction_is_an_error_not_a_question_mark() {
        let dir = temp_dir("desync");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b,/a,/b");
        // Fabricate the desync: swap in an interner that still knows the
        // context URL (same id 0) but has lost the model's target /b.
        s.urls = Interner::new();
        s.urls.intern("/a");
        let reply = line(&mut s, "predict /a");
        assert!(reply.starts_with("err predict"), "{reply}");
        assert!(reply.contains("desync"), "{reply}");
        assert!(!reply.contains('?'), "no placeholder URL: {reply}");
        assert_eq!(s.interner_desync(), 1);
        assert_eq!(s.errors(), 1);
        let report = s.build_report();
        assert!(
            report
                .metrics
                .counters
                .iter()
                .any(|c| c.name == "serve.interner_desync" && c.value == 1),
            "desync counter must reach the report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 8 satellite: the response staging buffer is a session field
    /// reused across requests — after any request its capacity must be
    /// retained (a fresh `Vec::new()` per request would show capacity 0
    /// here after the post-request restore).
    #[test]
    fn response_buffer_is_reused_across_requests() {
        let dir = temp_dir("buf-reuse");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        let cap = s.resp_buf.capacity();
        assert!(cap > 0, "staging buffer retained after the request");
        line(&mut s, "predict /a");
        assert!(
            s.resp_buf.capacity() >= cap,
            "capacity only grows across requests"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 8 satellite: flush failures are operator-visible in stats,
    /// health, and the metrics report — not just a private counter.
    #[test]
    fn flush_failures_are_surfaced_everywhere() {
        let dir = temp_dir("flush-failures");
        let (mut s, _) = open(&dir);
        line(&mut s, "train /a,/b");
        s.flush_failures = 3;
        assert!(line(&mut s, "stats").contains("flush_failures 3"));
        assert!(line(&mut s, "health").contains("flush_failures=3"));
        let prom = s.build_report().render_prometheus();
        assert!(
            prom.contains("pbppm_serve_metrics_flush_failures 3"),
            "{prom}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
