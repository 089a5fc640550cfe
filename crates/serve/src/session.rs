//! One shard: the single writer over an [`OnlinePbPpm`], with typed
//! `train`/`predict` methods (the line protocol itself is parsed and
//! answered only by [`crate::ShardedServer`]).
//!
//! A shard checkpoints its full serving state (URL interner + sliding
//! window + built model) through [`SnapshotStore`] every
//! `--checkpoint-every` rebuilds. On startup the newest valid checkpoint
//! generation is recovered, so a crash — even one that truncates the
//! latest snapshot mid-write — costs at most the sessions since the
//! previous checkpoint.
//!
//! Predictions never touch the writer's live model: after every rebuild
//! the shard audits the new model and publishes a clean one, with the
//! interner as of that rebuild, as an immutable [`PublishedModel`] behind
//! an [`EpochPublisher`]; `predict` answers from the published epoch.
//!
//! The shard observes itself: every request is timed and ringed through
//! a fixed-capacity [`FlightRecorder`]; every `train` session is first
//! scored against the current model's own predictions ([`LiveEval`],
//! prequential test-then-train), so the server carries live
//! sliding-window precision / hit-ratio / traffic-increment numbers and a
//! popularity-drift signal. A `serve_metrics.json` report is flushed into
//! the shard's snapshot dir alongside checkpoints (and every
//! `--flush-every` requests), so even a crashed process leaves its last
//! observed state behind.

use crate::sharded::{payload_urls, predict_published, PublishedModel};
use pbppm_core::eval::EvalConfig;
use pbppm_core::snapshot::{Generation, ModelImage, SnapshotFile, SnapshotStore};
use pbppm_core::{
    traffic_increment, EpochPublisher, EpochReader, Interner, LiveEval, LiveEvalConfig, ModelRef,
    OnlinePbPpm, PbConfig, PredictionQuality, Predictor,
};
use pbppm_obs::flight::COMMAND_KINDS;
use pbppm_obs::{CommandKind, FlightRecorder, Registry, RunReport};
use std::io::Write;
use std::time::Instant;

/// Where a freshly opened shard got its state from.
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
    fn gauge(self) -> u64 {
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

/// One shard's state: interner, online model, checkpoint store, the
/// publication pair, and the observability layer (flight recorder + live
/// evaluator).
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
    /// an interner/model desync that would otherwise be rendered as a
    /// placeholder URL and lost.
    interner_desync: u64,
    pub(crate) publisher: EpochPublisher<PublishedModel>,
    /// The shard's own reader handle onto `publisher`.
    reader: EpochReader<PublishedModel>,
    /// Rebuilds whose audit failed; the previous epoch kept serving.
    publish_rejected: u64,
    /// Reused response staging buffer, so the hot path does not allocate
    /// per request.
    pub(crate) buf: Vec<u8>,
    /// Reused predict-payload staging for the flight record.
    top_buf: Vec<(String, f64)>,
}

impl ServeSession {
    /// Opens a shard over `dir`, recovering from the newest valid
    /// checkpoint when one exists, and publishes the recovered model as
    /// epoch 0 so predictions are answered from the first request on. The
    /// model-shaping options (`window`/`rebuild_every`) only apply to a
    /// **fresh** shard; a recovered snapshot carries its own configuration.
    pub(crate) fn open(
        dir: &str,
        cfg: PbConfig,
        opts: ServeOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
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
                (file.urls, online, Recovery::Warm(generation))
            }
            None => (
                Interner::new(),
                OnlinePbPpm::new(cfg, opts.window, opts.rebuild_every),
                Recovery::Fresh,
            ),
        };
        let rebuilds = online.rebuild_count();
        let publisher = EpochPublisher::new(PublishedModel {
            rebuilds,
            urls: urls.clone(),
            model: online.current().cloned(),
        });
        Ok(Self {
            reader: publisher.reader(),
            publisher,
            publish_rejected: 0,
            urls,
            start_rebuilds: rebuilds,
            last_checkpoint_rebuilds: rebuilds,
            online,
            store,
            checkpoint_every: opts.checkpoint_every.max(1),
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
            buf: Vec::new(),
            top_buf: Vec::new(),
        })
    }

    /// The writer's online model (tests, publication).
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

    /// The flight recorder.
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Where this shard's state came from at open time.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Predictions returned per `predict` (the `--top` option).
    pub fn top(&self) -> usize {
        self.top
    }

    /// Rebuilds whose publish audit failed.
    pub(crate) fn publish_rejected(&self) -> u64 {
        self.publish_rejected
    }

    /// A fresh reader handle onto the published snapshot.
    pub(crate) fn reader(&self) -> EpochReader<PublishedModel> {
        self.publisher.reader()
    }

    /// The publication epoch (0 until the first publish after open).
    pub(crate) fn epoch(&self) -> u64 {
        self.publisher.epoch()
    }

    /// Writes a checkpoint of the full serving state (and refreshes the
    /// metrics flush alongside it). Returns its size.
    pub(crate) fn checkpoint(&mut self) -> Result<u64, Box<dyn std::error::Error>> {
        let file = SnapshotFile::new(&self.urls, ModelImage::OnlinePb(self.online.to_snapshot()));
        let bytes = self.store.checkpoint(&file)?;
        self.last_checkpoint_rebuilds = self.online.rebuild_count();
        self.checkpoints_written += 1;
        self.flush_metrics();
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
    /// snapshot dir with the shard's [`RunReport`], so the last observed
    /// serving state survives a crash. A failure is counted, not raised.
    fn flush_metrics(&mut self) {
        let path = self.store.dir().join("serve_metrics.json");
        let tmp = self.store.dir().join("serve_metrics.json.tmp");
        let written = std::fs::write(&tmp, self.build_report().to_json())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            self.flush_failures += 1;
        }
    }

    /// Handles one routed request — `train` or `predict`, payload without
    /// the command word and routing token — and records it. Returns the
    /// response text.
    pub(crate) fn handle(&mut self, kind: CommandKind, payload: &str) -> std::io::Result<String> {
        let started = Instant::now();
        let mut buf = std::mem::take(&mut self.buf);
        let mut top = std::mem::take(&mut self.top_buf);
        buf.clear();
        top.clear();
        let handled = if kind == CommandKind::Predict {
            self.predict(payload, &mut buf, &mut top)
        } else {
            self.train(payload, &mut buf)
        };
        let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.finish_request(kind, latency_ns, buf.starts_with(b"ok"), &top);
        let response = String::from_utf8_lossy(&buf).into_owned();
        self.buf = buf;
        self.top_buf = top;
        handled.map(|()| response)
    }

    /// Scores the session against the current model (prequential), trains
    /// on it, publishes a completed rebuild and checkpoints when due.
    fn train(&mut self, payload: &str, out: &mut Vec<u8>) -> std::io::Result<()> {
        let session: Vec<_> = payload_urls(payload).map(|u| self.urls.intern(u)).collect();
        if session.is_empty() {
            return writeln!(out, "err train expects a comma-separated URL list");
        }
        let grades = self.online.current().map(|m| m.popularity());
        self.live.observe_session(&self.online, grades, &session);
        let rebuilds_before = self.online.rebuild_count();
        let train_started = Instant::now();
        self.online.train_session(&session);
        if self.online.rebuild_count() > rebuilds_before {
            // Attribute the whole train call to the rebuild histogram when
            // one fired: the rebuild dominates the window push by orders
            // of magnitude.
            let ns = u64::try_from(train_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.recorder.observe(CommandKind::Rebuild, ns);
            self.try_publish();
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
            ),
            Err(e) => writeln!(out, "err checkpoint failed: {e}"),
        }
    }

    /// Answers from the published epoch, never the writer's live model.
    fn predict(
        &mut self,
        payload: &str,
        out: &mut Vec<u8>,
        top: &mut Vec<(String, f64)>,
    ) -> std::io::Result<()> {
        let published = self.reader.current();
        if let Err(id) = predict_published(published, self.top, payload, out, top)? {
            self.interner_desync += 1;
            writeln!(
                out,
                "err predict: model emitted unresolvable url id {id} \
                 (interner/model desync; {} total)",
                self.interner_desync
            )?;
        }
        Ok(())
    }

    /// Publishes the freshly rebuilt model — if, and only if, it passes
    /// the structural audit. A failing rebuild keeps the previous epoch
    /// serving (readers never see it) and is counted; it is not retried
    /// until the next rebuild produces a different model.
    fn try_publish(&mut self) {
        let report = pbppm_core::verify_model_with_urls(
            &ModelRef::OnlinePb(&self.online),
            Some(self.urls.len()),
        );
        if !report.is_clean() {
            self.publish_rejected += 1;
            return;
        }
        self.publisher.publish(PublishedModel {
            rebuilds: self.online.rebuild_count(),
            urls: self.urls.clone(),
            model: self.online.current().cloned(),
        });
    }

    /// Post-response accounting: flight record, request/error counters,
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
        if self.flush_every > 0 && self.requests.is_multiple_of(self.flush_every) {
            self.flush_metrics();
        }
    }

    /// This shard's own [`RunReport`] — what `serve_metrics.json` holds.
    fn build_report(&self) -> RunReport {
        let reg = Registry::new();
        self.fill_report(&reg);
        self.totals().set_gauges(&reg);
        run_report(&reg)
    }

    /// Emits this shard's counters and histograms into `reg`. They are
    /// additive, so the server calls this once per shard on a shared
    /// registry (in shard order — the merge is deterministic); gauges come
    /// from [`Totals::set_gauges`].
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
        for (name, value) in [
            ("serve.errors", self.errors),
            ("serve.rebuilds", self.online.rebuild_count()),
            ("serve.checkpoints", self.checkpoints_written),
            ("serve.recovery_audits", self.recovery_audits),
            ("serve.metrics_flush_failures", self.flush_failures),
            ("serve.interner_desync", self.interner_desync),
            ("serve.publish_rejected", self.publish_rejected),
            ("serve.published_epochs", self.publisher.epoch()),
            ("live.sessions", self.live.sessions()),
        ] {
            reg.counter(name, "").add(value);
        }
        quality_counters(reg, "live", self.live.lifetime());
        for (level, g) in self.live.by_grade().iter().enumerate() {
            let label = format!("grade=G{level}");
            reg.counter("live.grade.contexts", &label).add(g.contexts);
            reg.counter("live.grade.hits_at_k", &label).add(g.hits_at_k);
        }
    }

    /// This shard's point-in-time figures, for pooling across shards.
    pub(crate) fn totals(&self) -> Totals {
        let s = self.online.stats();
        Totals {
            urls: self.urls.len() as u64,
            window_sessions: self.online.window_len() as u64,
            rebuilds: self.online.rebuild_count(),
            rebuilds_since_start: self.online.rebuild_count() - self.start_rebuilds,
            nodes: s.nodes as u64,
            bytes: s.total_bytes() as u64,
            interner_bytes: self.urls.memory_bytes() as u64,
            index_bytes: s.index_bytes as u64,
            checkpoints: self.checkpoints_written,
            audits: self.recovery_audits,
            flush_failures: self.flush_failures,
            publish_rejected: self.publish_rejected,
            published_epochs: self.publisher.epoch(),
            drifted: u64::from(self.live.drifted()),
            recovered_generation: self.recovery.gauge(),
            live_window: self.live.window_quality(),
            live_lifetime: *self.live.lifetime(),
        }
    }
}

/// Figures pooled across shards by [`Totals::merge`]: sums, except the
/// recovered generation, which keeps the oldest (largest) one.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Totals {
    pub(crate) urls: u64,
    pub(crate) window_sessions: u64,
    pub(crate) rebuilds: u64,
    pub(crate) rebuilds_since_start: u64,
    pub(crate) nodes: u64,
    pub(crate) bytes: u64,
    pub(crate) interner_bytes: u64,
    pub(crate) index_bytes: u64,
    pub(crate) checkpoints: u64,
    pub(crate) audits: u64,
    pub(crate) flush_failures: u64,
    pub(crate) publish_rejected: u64,
    pub(crate) published_epochs: u64,
    /// Shards whose live evaluator signals drift.
    pub(crate) drifted: u64,
    pub(crate) recovered_generation: u64,
    pub(crate) live_window: PredictionQuality,
    pub(crate) live_lifetime: PredictionQuality,
}

impl Totals {
    pub(crate) fn merge(&mut self, other: &Totals) {
        self.urls += other.urls;
        self.window_sessions += other.window_sessions;
        self.rebuilds += other.rebuilds;
        self.rebuilds_since_start += other.rebuilds_since_start;
        self.nodes += other.nodes;
        self.bytes += other.bytes;
        self.interner_bytes += other.interner_bytes;
        self.index_bytes += other.index_bytes;
        self.checkpoints += other.checkpoints;
        self.audits += other.audits;
        self.flush_failures += other.flush_failures;
        self.publish_rejected += other.publish_rejected;
        self.published_epochs += other.published_epochs;
        self.drifted += other.drifted;
        self.recovered_generation = self.recovered_generation.max(other.recovered_generation);
        self.live_window.merge(&other.live_window);
        self.live_lifetime.merge(&other.live_lifetime);
    }

    /// Sets the report's gauges from these figures.
    pub(crate) fn set_gauges(&self, reg: &Registry) {
        let window = &self.live_window;
        for (name, value) in [
            ("serve.recovered_generation", self.recovered_generation),
            ("serve.window_sessions", self.window_sessions),
            ("model.nodes", self.nodes),
            ("model.bytes", self.bytes),
            ("live.window.contexts", window.contexts),
            (
                "live.window.precision_at_1_ppm",
                ppm(window.precision_at_1()),
            ),
            (
                "live.window.precision_at_k_ppm",
                ppm(window.precision_at_k()),
            ),
            ("live.window.coverage_ppm", ppm(window.coverage())),
            (
                "live.window.traffic_increment_milli",
                milli(traffic_increment(window)),
            ),
            ("live.drift", u64::from(self.drifted > 0)),
        ] {
            reg.gauge(name, "").set(value);
        }
    }
}

/// Wraps a filled registry in the serving [`RunReport`] — the same schema
/// `--metrics-out` uses everywhere else, so `metrics --prom` is directly
/// scrapeable and `serve_metrics.json` is directly parseable.
pub(crate) fn run_report(reg: &Registry) -> RunReport {
    RunReport {
        schema_version: pbppm_obs::report::SCHEMA_VERSION,
        command: "serve".to_owned(),
        telemetry_enabled: pbppm_obs::ENABLED,
        spans: Vec::new(),
        metrics: reg.snapshot(),
    }
}

/// Publishes one [`PredictionQuality`]'s raw counters under `prefix.*`.
fn quality_counters(reg: &Registry, prefix: &str, q: &PredictionQuality) {
    for (name, value) in [
        ("contexts", q.contexts),
        ("covered", q.covered),
        ("hits_at_1", q.hits_at_1),
        ("hits_at_k", q.hits_at_k),
        ("useful_at_k", q.useful_at_k),
        ("emitted", q.emitted),
    ] {
        reg.counter(&format!("{prefix}.{name}"), "").add(value);
    }
}

/// A ratio in `[0, 1]` as integer parts-per-million (gauges store `u64`).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn ppm(x: f64) -> u64 {
    (x.clamp(0.0, 1.0) * 1_000_000.0).round() as u64
}

/// A small non-negative rate as integer thousandths.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn milli(x: f64) -> u64 {
    (x.max(0.0) * 1_000.0).round().min(1e18) as u64
}
