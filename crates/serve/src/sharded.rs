//! The sharded serving core: N single-writer shards, epoch-published
//! read snapshots, batched drain-then-dispatch request handling.
//!
//! ## Shape
//!
//! Clients are assigned to shards by [`shard_of`] (Fx hash of the client
//! name — deterministic across runs and thread counts). Each shard owns:
//!
//! * one **writer** — a [`ServeSession`] that trains, rebuilds,
//!   checkpoints and flight-records exactly as the single-threaded server
//!   did (its snapshot dir is `DIR/shard-NNN`, or `DIR` itself when the
//!   server runs with one shard, keeping single-shard layouts
//!   byte-compatible with the old server);
//! * one [`EpochPublisher`] holding the shard's immutable
//!   [`PublishedModel`] — a clone of the last rebuilt model plus the
//!   interner as of that rebuild. After every rebuild the writer runs the
//!   structural audit and publishes only a clean model; a dirty rebuild
//!   keeps the previous epoch serving and bumps `publish_rejected`.
//!
//! `predict` is answered by a **reader** against the published snapshot —
//! never against the writer's live state — so any number of reader
//! threads can serve while a rebuild is in flight. The epoch semantics
//! are deliberate: predictions reflect the model *as of the last clean
//! publish*; URLs trained since then become visible at the next rebuild.
//!
//! ## Batching and determinism
//!
//! [`ShardedServer::handle_batch`] takes a drained batch of protocol
//! lines. `train`/`predict` lines carry an optional `@client` token
//! (`train @c7 /a,/b`) used for routing (absent ⇒ client `""`); they are
//! grouped per shard preserving arrival order and dispatched across
//! worker threads (each busy shard is handled by exactly one worker, in
//! order). Any other command is a **barrier**: pending routed traffic is
//! flushed first, then the control command runs against the consistent
//! whole. Responses are re-assembled in arrival order, so for a fixed
//! client-to-shard assignment the output is byte-identical regardless of
//! worker-thread count — and an N-shard server answers exactly like N
//! independent single-shard servers, each fed its shard's clients.

use crate::session::{write_predictions, Flow, ServeOptions, ServeSession};
use pbppm_core::{
    shard_of, EpochPublisher, EpochReader, Interner, ModelRef, PbConfig, PbPpm, PredictUsage,
    PredictionQuality, Predictor, UrlId,
};
use pbppm_obs::{CommandKind, Registry, RunReport};
use std::io::Write;
use std::time::Instant;

/// One epoch's immutable read snapshot: the model and the interner as of
/// the publishing rebuild, shared by every reader via `Arc`.
pub struct PublishedModel {
    /// The writer's rebuild count when this snapshot was published.
    pub rebuilds: u64,
    /// Interner frozen at publish time; parses incoming predict contexts.
    pub urls: Interner,
    /// The finalized model (`None` until the first rebuild publishes).
    pub model: Option<PbPpm>,
}

/// Tunables for the sharded server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedOptions {
    /// Model shards (clients are hash-partitioned across them). `0` is
    /// clamped to 1; 1 keeps the single-shard directory layout.
    pub shards: usize,
    /// Dispatch worker threads (0 = available parallelism, capped at the
    /// number of busy shards). Thread count never changes responses.
    pub threads: usize,
    /// Per-shard writer options.
    pub serve: ServeOptions,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            threads: 0,
            serve: ServeOptions::default(),
        }
    }
}

/// One shard: the writer session plus the publication pair.
struct Shard {
    session: ServeSession,
    publisher: EpochPublisher<PublishedModel>,
    /// The dispatch path's own reader handle.
    reader: EpochReader<PublishedModel>,
    /// Rebuild count at the last (attempted or successful) publish.
    published_rebuilds: u64,
    /// Rebuilds whose audit failed; the previous epoch kept serving.
    publish_rejected: u64,
    /// Reused reader-path staging buffers (one pair per shard).
    scratch_buf: Vec<u8>,
    scratch_top: Vec<(String, f64)>,
}

/// A routed request waiting for dispatch.
struct PendingReq {
    idx: usize,
    shard: usize,
    kind: CommandKind,
    /// The protocol line with the `@client` routing token stripped.
    line: String,
}

/// The sharded server: see the module docs for the architecture.
pub struct ShardedServer {
    shards: Vec<Shard>,
    threads: usize,
}

impl ShardedServer {
    /// Opens (or warm-recovers) every shard under `dir`. With one shard
    /// the snapshot dir is `dir` itself — the exact layout the
    /// single-threaded server used — so existing serving dirs keep
    /// working; with N > 1 each shard checkpoints into `dir/shard-NNN`.
    /// Changing the shard count re-partitions clients, so it only
    /// warm-recovers state checkpointed under the same count.
    pub fn open(
        dir: &str,
        cfg: PbConfig,
        opts: ShardedOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let shard_count = opts.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for k in 0..shard_count {
            let shard_dir = if shard_count == 1 {
                dir.to_owned()
            } else {
                format!("{dir}/shard-{k:03}")
            };
            let (session, _) = ServeSession::open(&shard_dir, cfg, opts.serve)?;
            // Publish the recovered state immediately (it already passed
            // the recovery audit in `ServeSession::open`), so readers can
            // answer from the first request on.
            let initial = PublishedModel {
                rebuilds: session.online().rebuild_count(),
                urls: session.urls().clone(),
                model: session.online().current().cloned(),
            };
            let published_rebuilds = initial.rebuilds;
            let publisher = EpochPublisher::new(initial);
            let reader = publisher.reader();
            shards.push(Shard {
                session,
                publisher,
                reader,
                published_rebuilds,
                publish_rejected: 0,
                scratch_buf: Vec::new(),
                scratch_top: Vec::new(),
            });
        }
        Ok(Self {
            shards,
            threads: opts.threads,
        })
    }

    /// Number of model shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a client name routes to.
    pub fn shard_of_client(&self, client: &str) -> usize {
        shard_of(client, self.shards.len())
    }

    /// One shard's writer session (tests, stats aggregation, greeting).
    pub fn shard_session(&self, k: usize) -> &ServeSession {
        &self.shards[k].session
    }

    /// A fresh reader handle onto shard `k`'s published snapshot, safe to
    /// move to any thread (concurrency tests, side-car readers).
    pub fn shard_reader(&self, k: usize) -> EpochReader<PublishedModel> {
        self.shards[k].publisher.reader()
    }

    /// Shard `k`'s publication epoch.
    pub fn shard_epoch(&self, k: usize) -> u64 {
        self.shards[k].publisher.epoch()
    }

    /// Rebuilds rejected by the publish audit, across shards.
    pub fn publish_rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.publish_rejected).sum()
    }

    /// Recovery summary for the greeting: the shared label when every
    /// shard recovered the same way, `"mixed"` otherwise.
    pub fn recovery_label(&self) -> &'static str {
        let first = self.shards[0].session.recovery().label();
        if self
            .shards
            .iter()
            .all(|s| s.session.recovery().label() == first)
        {
            first
        } else {
            "mixed"
        }
    }

    /// Total sliding-window sessions across shards.
    pub fn total_window(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.session.online().window_len())
            .sum()
    }

    /// Total rebuilds across shards.
    pub fn total_rebuilds(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.session.online().rebuild_count())
            .sum()
    }

    /// Handles one drained batch of protocol lines. `responses` is
    /// cleared and refilled with exactly one response string per handled
    /// line, in arrival order. On `quit` the batch is truncated: lines
    /// after the `quit` get no response and [`Flow::Quit`] is returned.
    pub fn handle_batch(
        &mut self,
        lines: &[String],
        responses: &mut Vec<String>,
    ) -> std::io::Result<Flow> {
        responses.clear();
        let mut pending: Vec<PendingReq> = Vec::new();
        let mut results: Vec<(usize, String)> = Vec::with_capacity(lines.len());
        for (idx, raw) in lines.iter().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                results.push((idx, String::new()));
                continue;
            }
            let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
            let kind = CommandKind::parse(cmd);
            match kind {
                CommandKind::Train | CommandKind::Predict => {
                    let (client, payload) = split_client(rest);
                    pending.push(PendingReq {
                        idx,
                        shard: shard_of(client, self.shards.len()),
                        kind,
                        line: format!("{cmd} {payload}"),
                    });
                }
                _ => {
                    // Control barrier: flush routed traffic first so the
                    // command observes a consistent, fully-applied state.
                    self.run_pending(&mut pending, &mut results)?;
                    let (resp, flow) = self.control(kind, line)?;
                    results.push((idx, resp));
                    if flow == Flow::Quit {
                        results.sort_unstable_by_key(|(i, _)| *i);
                        responses.extend(results.into_iter().map(|(_, r)| r));
                        return Ok(Flow::Quit);
                    }
                }
            }
        }
        self.run_pending(&mut pending, &mut results)?;
        results.sort_unstable_by_key(|(i, _)| *i);
        responses.extend(results.into_iter().map(|(_, r)| r));
        Ok(Flow::Continue)
    }

    /// Dispatches the accumulated routed requests: grouped per shard in
    /// arrival order, each busy shard handled by exactly one worker.
    fn run_pending(
        &mut self,
        pending: &mut Vec<PendingReq>,
        results: &mut Vec<(usize, String)>,
    ) -> std::io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let mut groups: Vec<Vec<PendingReq>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for req in pending.drain(..) {
            groups[req.shard].push(req);
        }
        let busy = groups.iter().filter(|g| !g.is_empty()).count();
        let threads = self.resolve_threads(busy);
        if threads <= 1 {
            for (shard, group) in self.shards.iter_mut().zip(groups) {
                for req in group {
                    results.push(handle_shard_request(shard, req)?);
                }
            }
            return Ok(());
        }
        // Round-robin busy shards over the workers; a shard never splits
        // across workers, so per-shard order (and thus every response) is
        // independent of the thread count.
        let mut per_worker: Vec<Vec<(&mut Shard, Vec<PendingReq>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (k, (shard, group)) in self.shards.iter_mut().zip(groups).enumerate() {
            if group.is_empty() {
                continue;
            }
            per_worker[k % threads].push((shard, group));
        }
        let worker_results: Vec<std::io::Result<Vec<(usize, String)>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_worker
                    .into_iter()
                    .map(|work| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for (shard, group) in work {
                                for req in group {
                                    out.push(handle_shard_request(shard, req)?);
                                }
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(std::io::Error::other("shard dispatch worker panicked"))
                        })
                    })
                    .collect()
            });
        for r in worker_results {
            results.extend(r?);
        }
        Ok(())
    }

    fn resolve_threads(&self, busy_shards: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        };
        configured.min(busy_shards).max(1)
    }

    /// Runs a control (barrier) command against the whole server.
    fn control(&mut self, kind: CommandKind, line: &str) -> std::io::Result<(String, Flow)> {
        if self.shards.len() == 1 {
            // Single shard: delegate for exact protocol compatibility with
            // the historical single-threaded server (same responses, same
            // flight records).
            let mut buf = Vec::new();
            let flow = self.shards[0].session.handle_line(line, &mut buf)?;
            return Ok((String::from_utf8_lossy(&buf).into_owned(), flow));
        }
        let started = Instant::now();
        let rest = line.split_once(' ').map_or("", |(_, r)| r);
        let (resp, flow) = match kind {
            CommandKind::Stats => (self.aggregate_stats(), Flow::Continue),
            CommandKind::Health => (self.aggregate_health(), Flow::Continue),
            CommandKind::Checkpoint => (self.checkpoint_all("ok checkpointed"), Flow::Continue),
            CommandKind::Quit => (self.checkpoint_all("ok bye; checkpointed"), Flow::Quit),
            CommandKind::Metrics => (self.aggregate_metrics(rest), Flow::Continue),
            CommandKind::Trace => (self.aggregate_trace(rest), Flow::Continue),
            _ => {
                // Unknown commands: let shard 0's writer answer (and
                // flight-record) them exactly like the legacy server.
                let mut buf = Vec::new();
                let flow = self.shards[0].session.handle_line(line, &mut buf)?;
                return Ok((String::from_utf8_lossy(&buf).into_owned(), flow));
            }
        };
        // Aggregate commands are accounted on shard 0 — one flight record
        // per request, deterministic home.
        let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ok = resp.starts_with("ok");
        self.shards[0]
            .session
            .finish_request(kind, latency_ns, ok, &[]);
        Ok((resp, flow))
    }

    fn aggregate_stats(&self) -> String {
        let mut urls = 0usize;
        let mut window = 0usize;
        let mut rebuilds = 0u64;
        let mut nodes = 0usize;
        let mut bytes = 0usize;
        let mut checkpoints = 0u64;
        let mut flush_failures = 0u64;
        for shard in &self.shards {
            let s = shard.session.online().stats();
            urls += shard.session.urls().len();
            window += shard.session.online().window_len();
            rebuilds += shard.session.online().rebuild_count();
            nodes += s.nodes;
            bytes += s.total_bytes();
            checkpoints += shard.session.checkpoints_written();
            flush_failures += shard.session.flush_failures();
        }
        format!(
            "ok shards {}, urls {}, window {}, rebuilds {}, nodes {}, bytes {}, \
             recovered {}, checkpoints {}, flush_failures {}, publish_rejected {}\n",
            self.shards.len(),
            urls,
            window,
            rebuilds,
            nodes,
            bytes,
            self.recovery_label(),
            checkpoints,
            flush_failures,
            self.publish_rejected(),
        )
    }

    fn aggregate_health(&self) -> String {
        let drifted = self
            .shards
            .iter()
            .filter(|s| s.session.live().drifted())
            .count();
        let checkpoints: u64 = self
            .shards
            .iter()
            .map(|s| s.session.checkpoints_written())
            .sum();
        let flush_failures: u64 = self.shards.iter().map(|s| s.session.flush_failures()).sum();
        let epochs: u64 = self.shards.iter().map(|s| s.publisher.epoch()).sum();
        format!(
            "ok {} shards={} drifted={} rebuilds={} checkpoints={} \
             published_epochs={} publish_rejected={} flush_failures={}\n",
            if drifted == 0 { "healthy" } else { "degraded" },
            self.shards.len(),
            drifted,
            self.total_rebuilds(),
            checkpoints,
            epochs,
            self.publish_rejected(),
            flush_failures,
        )
    }

    fn checkpoint_all(&mut self, prefix: &str) -> String {
        let mut total = 0u64;
        for shard in &mut self.shards {
            match shard.session.checkpoint() {
                Ok(bytes) => total += bytes,
                Err(e) => return format!("err checkpoint failed: {e}\n"),
            }
        }
        format!("{prefix} {total} bytes ({} shards)\n", self.shards.len())
    }

    fn aggregate_trace(&self, rest: &str) -> String {
        let n = if rest.trim().is_empty() {
            10
        } else {
            match rest.trim().parse::<usize>() {
                Ok(n) => n,
                Err(_) => return format!("err trace expects a count, got {:?}\n", rest.trim()),
            }
        };
        let mut rows = Vec::new();
        for (k, shard) in self.shards.iter().enumerate() {
            for r in shard.session.recorder().last(n) {
                rows.push(format!("s{k} {}", r.render()));
            }
        }
        let mut out = format!("ok {}\n", rows.len());
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    fn aggregate_metrics(&self, rest: &str) -> String {
        let rendered = match rest.trim() {
            "--prom" => self.build_report().render_prometheus(),
            "" => self.build_report().render_text(),
            _ => return "err metrics takes no argument except --prom\n".to_owned(),
        };
        let lines: Vec<&str> = rendered.lines().collect();
        let mut out = format!("ok {}\n", lines.len());
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The merged serving report: counters and histograms are absorbed
    /// additively shard by shard (in shard order — deterministic);
    /// capacity gauges are re-set to cross-shard sums afterwards, and the
    /// live window gauges are recomputed from the summed window counters.
    pub fn build_report(&self) -> RunReport {
        let reg = Registry::new();
        for shard in &self.shards {
            shard.session.fill_report(&reg);
            reg.counter("serve.publish_rejected", "")
                .add(shard.publish_rejected);
            reg.counter("serve.published_epochs", "")
                .add(shard.publisher.epoch());
        }
        // `fill_report` sets gauges per shard (last writer wins); replace
        // them with whole-server values.
        reg.gauge("serve.shards", "").set(self.shards.len() as u64);
        reg.gauge("serve.window_sessions", "")
            .set(self.total_window() as u64);
        reg.gauge("serve.recovered_generation", "").set(
            self.shards
                .iter()
                .map(|s| s.session.recovery().gauge())
                .max()
                .unwrap_or(0),
        );
        let mut nodes = 0usize;
        let mut bytes = 0usize;
        let mut window = PredictionQuality::default();
        let mut drifted = false;
        for shard in &self.shards {
            let s = shard.session.online().stats();
            nodes += s.nodes;
            bytes += s.total_bytes();
            let w = shard.session.live().window_quality();
            window.contexts += w.contexts;
            window.covered += w.covered;
            window.hits_at_1 += w.hits_at_1;
            window.hits_at_k += w.hits_at_k;
            window.useful_at_k += w.useful_at_k;
            window.emitted += w.emitted;
            drifted |= shard.session.live().drifted();
        }
        reg.gauge("model.nodes", "").set(nodes as u64);
        reg.gauge("model.bytes", "").set(bytes as u64);
        reg.gauge("live.window.contexts", "").set(window.contexts);
        reg.gauge("live.window.precision_at_1_ppm", "")
            .set(crate::session::ppm(window.precision_at_1()));
        reg.gauge("live.window.precision_at_k_ppm", "")
            .set(crate::session::ppm(window.precision_at_k()));
        reg.gauge("live.window.coverage_ppm", "")
            .set(crate::session::ppm(window.coverage()));
        reg.gauge("live.window.traffic_increment_milli", "")
            .set(crate::session::milli(pbppm_core::traffic_increment(
                &window,
            )));
        reg.gauge("live.drift", "").set(u64::from(drifted));
        RunReport {
            schema_version: pbppm_obs::report::SCHEMA_VERSION,
            command: "serve".to_owned(),
            telemetry_enabled: pbppm_obs::ENABLED,
            spans: Vec::new(),
            metrics: reg.snapshot(),
        }
    }
}

/// Splits the optional `@client` routing token off a train/predict
/// payload: `"@c7 /a,/b"` → `("c7", "/a,/b")`, `"/a,/b"` → `("", "/a,/b")`.
fn split_client(rest: &str) -> (&str, &str) {
    match rest.strip_prefix('@') {
        Some(tagged) => match tagged.split_once(char::is_whitespace) {
            Some((client, payload)) => (client, payload.trim_start()),
            None => (tagged, ""),
        },
        None => ("", rest),
    }
}

/// Handles one routed request on its shard: `train` goes to the writer
/// session (then attempts publication), `predict` to a reader against the
/// published epoch.
fn handle_shard_request(shard: &mut Shard, req: PendingReq) -> std::io::Result<(usize, String)> {
    let mut buf = std::mem::take(&mut shard.scratch_buf);
    buf.clear();
    let resp = match req.kind {
        CommandKind::Predict => {
            let started = Instant::now();
            let mut top = std::mem::take(&mut shard.scratch_top);
            top.clear();
            let rest = req.line.split_once(' ').map_or("", |(_, r)| r);
            // Clone the Arc out of the reader so the borrow on the shard
            // ends before the session records the request.
            let published = std::sync::Arc::clone(shard.reader.current());
            let outcome =
                predict_published(&published, shard.session.top(), rest, &mut buf, &mut top)?;
            if let Err(id) = outcome {
                let total = shard.session.note_interner_desync();
                writeln!(
                    buf,
                    "err predict: model emitted unresolvable url id {id} \
                     (interner/model desync; {total} total)"
                )?;
            }
            let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let ok = buf.starts_with(b"ok");
            shard
                .session
                .finish_request(CommandKind::Predict, latency_ns, ok, &top);
            shard.scratch_top = top;
            String::from_utf8_lossy(&buf).into_owned()
        }
        _ => {
            // `train` (and anything else routed here): the writer handles
            // and records it; a completed rebuild then tries to publish.
            shard.session.handle_line(&req.line, &mut buf)?;
            if req.kind == CommandKind::Train {
                try_publish(shard);
            }
            String::from_utf8_lossy(&buf).into_owned()
        }
    };
    shard.scratch_buf = buf;
    Ok((req.idx, resp))
}

/// Publishes the writer's freshly rebuilt model — if, and only if, it
/// passes the structural audit. A failing rebuild keeps the previous
/// epoch serving (readers never see it) and is counted.
fn try_publish(shard: &mut Shard) {
    let rebuilds = shard.session.online().rebuild_count();
    if rebuilds == shard.published_rebuilds {
        return;
    }
    // Either way, the rebuild is consumed: a rejected one is not retried
    // until the next rebuild produces a different model.
    shard.published_rebuilds = rebuilds;
    let report = pbppm_core::verify_model_with_urls(
        &ModelRef::OnlinePb(shard.session.online()),
        Some(shard.session.urls().len()),
    );
    if !report.is_clean() {
        shard.publish_rejected += 1;
        return;
    }
    shard.publisher.publish(PublishedModel {
        rebuilds,
        urls: shard.session.urls().clone(),
        model: shard.session.online().current().cloned(),
    });
}

/// The reader-path predict: parses the context against the *published*
/// interner, ranks against the *published* model (read-only — the usage
/// diagnostics are writer-side state and are not collected here), and
/// renders byte-identically to the writer path via [`write_predictions`].
pub fn predict_published(
    published: &PublishedModel,
    top_n: usize,
    rest: &str,
    buf: &mut Vec<u8>,
    top: &mut Vec<(String, f64)>,
) -> std::io::Result<Result<(), UrlId>> {
    let context: Vec<UrlId> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|s| published.urls.get(s))
        .collect();
    let mut preds = Vec::new();
    if let Some(model) = &published.model {
        let mut usage = PredictUsage::default();
        model.predict_ro(&context, &mut preds, &mut usage);
    }
    preds.truncate(top_n);
    write_predictions(&published.urls, &preds, buf, top)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("pbppm-sharded-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    fn opts(shards: usize, threads: usize) -> ShardedOptions {
        ShardedOptions {
            shards,
            threads,
            serve: ServeOptions {
                window: 100,
                rebuild_every: 1,
                checkpoint_every: 1,
                top: 10,
                ..ServeOptions::default()
            },
        }
    }

    fn batch(server: &mut ShardedServer, lines: &[&str]) -> Vec<String> {
        let lines: Vec<String> = lines.iter().map(|s| (*s).to_owned()).collect();
        let mut responses = Vec::new();
        server.handle_batch(&lines, &mut responses).unwrap();
        responses
    }

    #[test]
    fn split_client_token() {
        assert_eq!(split_client("@c7 /a,/b"), ("c7", "/a,/b"));
        assert_eq!(split_client("/a,/b"), ("", "/a,/b"));
        assert_eq!(split_client("@lonely"), ("lonely", ""));
        assert_eq!(split_client(""), ("", ""));
    }

    #[test]
    fn single_shard_delegates_the_legacy_protocol() {
        let dir = temp_dir("legacy");
        let mut server = ShardedServer::open(&dir, PbConfig::default(), opts(1, 1)).unwrap();
        let rs = batch(
            &mut server,
            &["train /a,/b,/a,/b", "predict /a", "stats", "bogus", "quit"],
        );
        assert!(rs[0].starts_with("ok trained 4"), "{}", rs[0]);
        assert!(rs[1].starts_with("ok 1"), "{}", rs[1]);
        assert!(rs[1].contains("/b"), "{}", rs[1]);
        assert!(rs[2].starts_with("ok urls 2"), "{}", rs[2]);
        assert!(rs[3].starts_with("err unknown command"), "{}", rs[3]);
        assert!(rs[4].starts_with("ok bye"), "{}", rs[4]);
        // Single shard keeps the flat directory layout.
        assert!(std::path::Path::new(&dir).join("current.pbss").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predictions_come_from_the_published_epoch() {
        let dir = temp_dir("epoch");
        // rebuild_every=2: the first train does NOT rebuild, so nothing
        // beyond the (empty) initial epoch is published.
        let mut server = ShardedServer::open(
            &dir,
            PbConfig::default(),
            ShardedOptions {
                shards: 2,
                threads: 1,
                serve: ServeOptions {
                    window: 100,
                    rebuild_every: 2,
                    checkpoint_every: 1_000_000,
                    top: 10,
                    ..ServeOptions::default()
                },
            },
        )
        .unwrap();
        let client = "@c0";
        let rs = batch(
            &mut server,
            &[
                &format!("train {client} /a,/b"),
                &format!("predict {client} /a"),
            ],
        );
        assert!(rs[0].starts_with("ok trained"), "{}", rs[0]);
        // No rebuild yet -> initial (empty) epoch still serving.
        assert!(rs[1].starts_with("ok 0"), "pre-publish: {}", rs[1]);
        let rs = batch(
            &mut server,
            &[
                &format!("train {client} /a,/b"),
                &format!("predict {client} /a"),
            ],
        );
        // Second train rebuilt and published; the reader now sees it.
        assert!(rs[1].starts_with("ok 1"), "post-publish: {}", rs[1]);
        assert!(rs[1].contains("/b"), "{}", rs[1]);
        let k = server.shard_of_client("c0");
        assert_eq!(server.shard_epoch(k), 1, "one publication on c0's shard");
        assert_eq!(server.publish_rejected(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggregate_commands_cover_all_shards() {
        let dir = temp_dir("aggregate");
        let mut server = ShardedServer::open(&dir, PbConfig::default(), opts(4, 2)).unwrap();
        let mut lines: Vec<String> = Vec::new();
        for c in 0..16 {
            lines.push(format!("train @c{c} /a,/b,/c"));
        }
        lines.push("stats".to_owned());
        lines.push("health".to_owned());
        lines.push("trace 3".to_owned());
        lines.push("metrics --prom".to_owned());
        let mut rs = Vec::new();
        server.handle_batch(&lines, &mut rs).unwrap();
        let stats = &rs[16];
        assert!(stats.starts_with("ok shards 4"), "{stats}");
        assert!(stats.contains("window 16"), "all trains landed: {stats}");
        assert!(stats.contains("publish_rejected 0"), "{stats}");
        assert!(rs[17].starts_with("ok healthy shards=4"), "{}", rs[17]);
        assert!(rs[18].starts_with("ok "), "{}", rs[18]);
        assert!(rs[18].contains("s0 #"), "per-shard trace rows: {}", rs[18]);
        let prom = &rs[19];
        assert!(
            prom.contains("pbppm_serve_requests{cmd=\"train\"} 16"),
            "merged train counter: {prom}"
        );
        assert!(prom.contains("pbppm_serve_shards 4"), "{prom}");
        // Sharded layout on disk.
        assert!(std::path::Path::new(&dir).join("shard-000").exists());
        assert!(std::path::Path::new(&dir).join("shard-003").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quit_truncates_the_batch_and_checkpoints_every_shard() {
        let dir = temp_dir("quit");
        let mut server = ShardedServer::open(&dir, PbConfig::default(), opts(2, 1)).unwrap();
        let lines: Vec<String> = vec![
            "train @a /a,/b".to_owned(),
            "train @b /x,/y".to_owned(),
            "quit".to_owned(),
            "train @c /p,/q".to_owned(), // never handled
        ];
        let mut rs = Vec::new();
        let flow = server.handle_batch(&lines, &mut rs).unwrap();
        assert_eq!(flow, Flow::Quit);
        assert_eq!(rs.len(), 3, "lines after quit get no response");
        assert!(rs[2].starts_with("ok bye; checkpointed"), "{}", rs[2]);
        assert!(rs[2].contains("(2 shards)"), "{}", rs[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
