//! The serving protocol over N single-writer shards: epoch-published read
//! snapshots, batched drain-then-dispatch request handling.
//!
//! ## Protocol
//!
//! One command per line; every non-blank line is answered with one `ok …`
//! or `err …` line (plus extra rows after `ok N`):
//!
//! ```text
//! train [@client] /a.html,/b.html    feed one session (scored, then trained)
//! predict [@client] /a.html,/b.html  -> "ok N" then N lines "prob url"
//! checkpoint                         checkpoint every shard now
//! stats                              one-line model + serving summary
//!                                    (model `bytes`, `interner_bytes`,
//!                                    `index_bytes`, …)
//! metrics [--prom]                   -> "ok N" then N report lines
//! trace N                            -> "ok M" then M rows "sK <record>"
//! health                             one line: healthy/degraded + counters
//! quit                               checkpoint every shard and exit
//! ```
//!
//! The protocol is the same at every shard count: this module is the only
//! place a line is parsed and answered, and each response text comes from
//! exactly one function.
//!
//! ## Shape
//!
//! Clients are assigned to shards by [`shard_of`] (Fx hash of the client
//! name — deterministic across runs and thread counts). Each shard is one
//! [`ServeSession`]: the single writer that trains, rebuilds, checkpoints
//! (into `DIR/shard-NNN`) and flight-records, plus an
//! [`EpochPublisher`](pbppm_core::EpochPublisher) holding the shard's immutable [`PublishedModel`] — a clone of the last
//! rebuilt model plus the interner as of that rebuild. After every
//! rebuild the writer runs the structural audit and publishes only a
//! clean model; a dirty rebuild keeps the previous epoch serving and
//! bumps `publish_rejected`.
//!
//! `predict` is answered against the published snapshot — never against
//! the writer's live state — so any number of reader threads can serve
//! while a rebuild is in flight. The epoch semantics are deliberate:
//! predictions reflect the model *as of the last clean publish*; URLs
//! trained since then become visible at the next rebuild.
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
//! whole and is flight-recorded on shard 0. Responses are re-assembled in
//! arrival order, so for a fixed client-to-shard assignment the output is
//! byte-identical regardless of worker-thread count — and an N-shard
//! server answers exactly like N independent single-shard servers, each
//! fed its shard's clients.

use crate::session::{run_report, ServeOptions, ServeSession, Totals};
use pbppm_core::snapshot::SnapshotStore;
use pbppm_core::{
    shard_of, EpochReader, Interner, PbConfig, PbPpm, PredictUsage, Predictor, UrlId,
};
use pbppm_obs::{CommandKind, Registry, RunReport};
use std::io::Write;
use std::time::Instant;

/// What a handled batch means for the read loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading.
    Continue,
    /// The client said `quit`; stop cleanly.
    Quit,
}

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
    /// clamped to 1.
    pub shards: usize,
    /// Dispatch worker threads (0 = `PBPPM_THREADS`, else available
    /// parallelism; capped at the number of busy shards). Thread count
    /// never changes responses.
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

/// A routed request waiting for dispatch.
struct PendingReq<'a> {
    idx: usize,
    shard: usize,
    kind: CommandKind,
    /// The payload after the command word and the `@client` token.
    payload: &'a str,
}

/// The sharded server: see the module docs for the architecture.
pub struct ShardedServer {
    shards: Vec<ServeSession>,
    threads: usize,
}

impl ShardedServer {
    /// Opens (or warm-recovers) every shard, each under `dir/shard-NNN`.
    /// Changing the shard count re-partitions clients, so it only
    /// warm-recovers state checkpointed under the same count. A checkpoint
    /// directly in `dir` is refused rather than silently ignored.
    pub fn open(
        dir: &str,
        cfg: PbConfig,
        opts: ShardedOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let root = SnapshotStore::open(dir)?;
        if root.current_path().exists() || root.previous_path().exists() {
            return Err(format!(
                "{dir} holds a checkpoint in the flat layout ({}); every shard now \
                 checkpoints under {dir}/shard-NNN: move the files into {dir}/{}/ \
                 to serve them",
                root.current_path().display(),
                shard_name(0)
            )
            .into());
        }
        let count = opts.shards.max(1);
        // Each busy shard runs on one dispatch worker, so a rebuild that
        // sized its own pool to the machine would nest a second pool in
        // every worker. A lone shard has the machine to itself.
        let rebuild_threads = match count {
            1 => 0,
            n => (pbppm_core::resolve_threads(opts.threads) / n).max(1),
        };
        let shards = (0..count)
            .map(|k| {
                let dir = format!("{dir}/{}", shard_name(k));
                ServeSession::open(&dir, cfg, opts.serve, rebuild_threads)
            })
            .collect::<Result<_, _>>()?;
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

    /// One shard's writer (tests, benches).
    pub fn shard_session(&self, k: usize) -> &ServeSession {
        &self.shards[k]
    }

    /// A fresh reader handle onto shard `k`'s published snapshot, safe to
    /// move to any thread (concurrency tests, side-car readers).
    pub fn shard_reader(&self, k: usize) -> EpochReader<PublishedModel> {
        self.shards[k].reader()
    }

    /// Shard `k`'s publication epoch.
    pub fn shard_epoch(&self, k: usize) -> u64 {
        self.shards[k].epoch()
    }

    /// Rebuilds rejected by the publish audit, across shards.
    pub fn publish_rejected(&self) -> u64 {
        self.shards.iter().map(ServeSession::publish_rejected).sum()
    }

    /// How the shards recovered: the shared label when every shard
    /// recovered the same way, `"mixed"` otherwise.
    pub fn recovery_label(&self) -> &'static str {
        let first = self.shards[0].recovery().label();
        if self.shards.iter().all(|s| s.recovery().label() == first) {
            first
        } else {
            "mixed"
        }
    }

    /// The line the front-end prints before serving.
    pub fn greeting(&self) -> String {
        let t = self.totals();
        format!(
            "ready recovered={} shards={} window={} rebuilds={}\n",
            self.recovery_label(),
            self.shards.len(),
            t.window_sessions,
            t.rebuilds
        )
    }

    /// Handles one drained batch of protocol lines. `responses` is
    /// cleared and refilled with exactly one response string per line
    /// (empty for a blank line), in arrival order. On `quit` the batch is
    /// truncated: lines after the `quit` get no response and
    /// [`Flow::Quit`] is returned.
    pub fn handle_batch(
        &mut self,
        lines: &[String],
        responses: &mut Vec<String>,
    ) -> std::io::Result<Flow> {
        responses.clear();
        let mut pending: Vec<PendingReq<'_>> = Vec::new();
        let mut results: Vec<(usize, String)> = Vec::with_capacity(lines.len());
        let mut flow = Flow::Continue;
        for (idx, raw) in lines.iter().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                results.push((idx, String::new()));
                continue;
            }
            let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
            let kind = CommandKind::parse(cmd);
            if matches!(kind, CommandKind::Train | CommandKind::Predict) {
                let (client, payload) = split_client(rest);
                pending.push(PendingReq {
                    idx,
                    shard: shard_of(client, self.shards.len()),
                    kind,
                    payload,
                });
                continue;
            }
            // Control barrier: flush routed traffic first so the command
            // observes a consistent, fully-applied state.
            self.run_pending(&mut pending, &mut results)?;
            let started = Instant::now();
            let response;
            (response, flow) = self.control(kind, cmd, rest);
            let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.shards[0].finish_request(kind, latency_ns, response.starts_with("ok"), &[]);
            results.push((idx, response));
            if flow == Flow::Quit {
                break;
            }
        }
        self.run_pending(&mut pending, &mut results)?;
        results.sort_unstable_by_key(|(i, _)| *i);
        responses.extend(results.into_iter().map(|(_, r)| r));
        Ok(flow)
    }

    /// Dispatches the accumulated routed requests: grouped per shard in
    /// arrival order, each busy shard handled by exactly one worker.
    fn run_pending(
        &mut self,
        pending: &mut Vec<PendingReq<'_>>,
        results: &mut Vec<(usize, String)>,
    ) -> std::io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let mut groups: Vec<Vec<PendingReq<'_>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for req in pending.drain(..) {
            groups[req.shard].push(req);
        }
        let busy = groups.iter().filter(|g| !g.is_empty()).count();
        let threads = self.resolve_threads(busy);
        if threads <= 1 {
            for (shard, group) in self.shards.iter_mut().zip(groups) {
                for req in group {
                    results.push((req.idx, shard.handle(req.kind, req.payload)?));
                }
            }
            return Ok(());
        }
        // Round-robin busy shards over the workers; a shard never splits
        // across workers, so per-shard order (and thus every response) is
        // independent of the thread count.
        let mut per_worker: Vec<Vec<(&mut ServeSession, Vec<PendingReq<'_>>)>> =
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
                                    out.push((req.idx, shard.handle(req.kind, req.payload)?));
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
        pbppm_core::resolve_threads(self.threads)
            .min(busy_shards)
            .max(1)
    }

    /// Runs a control (barrier) command against the whole server.
    fn control(&mut self, kind: CommandKind, cmd: &str, rest: &str) -> (String, Flow) {
        match kind {
            CommandKind::Stats => (self.stats(), Flow::Continue),
            CommandKind::Health => (self.health(), Flow::Continue),
            CommandKind::Checkpoint => (
                self.checkpoint_all("ok checkpointed", "checkpoint"),
                Flow::Continue,
            ),
            CommandKind::Quit => (
                self.checkpoint_all("ok bye; checkpointed", "final checkpoint"),
                Flow::Quit,
            ),
            CommandKind::Metrics => (self.metrics(rest), Flow::Continue),
            CommandKind::Trace => (self.trace(rest), Flow::Continue),
            _ => (
                format!(
                    "err unknown command {cmd:?} \
                     (train/predict/checkpoint/stats/metrics/trace/health/quit)\n"
                ),
                Flow::Continue,
            ),
        }
    }

    /// Every shard's figures pooled.
    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for shard in &self.shards {
            t.merge(&shard.totals());
        }
        t
    }

    fn stats(&self) -> String {
        let t = self.totals();
        format!(
            "ok shards {}, urls {}, window {}, rebuilds {}, nodes {}, bytes {}, \
             interner_bytes {}, index_bytes {}, recovered {}, rebuilds_since_start {}, \
             checkpoints {}, flush_failures {}, publish_rejected {}\n",
            self.shards.len(),
            t.urls,
            t.window_sessions,
            t.rebuilds,
            t.nodes,
            t.bytes,
            t.interner_bytes,
            t.index_bytes,
            self.recovery_label(),
            t.rebuilds_since_start,
            t.checkpoints,
            t.flush_failures,
            t.publish_rejected,
        )
    }

    fn health(&self) -> String {
        let t = self.totals();
        format!(
            "ok {} shards={} drifted={} recovered={} rebuilds={} checkpoints={} audits={} \
             published_epochs={} publish_rejected={} window_precision_at_k={:.3} \
             lifetime_precision_at_k={:.3} flush_failures={}\n",
            if t.drifted == 0 {
                "healthy"
            } else {
                "degraded"
            },
            self.shards.len(),
            t.drifted,
            self.recovery_label(),
            t.rebuilds,
            t.checkpoints,
            t.audits,
            t.published_epochs,
            t.publish_rejected,
            t.live_window.precision_at_k(),
            t.live_lifetime.precision_at_k(),
            t.flush_failures,
        )
    }

    /// Checkpoints every shard, even past a failing one, and answers one
    /// line: the total bytes, or the failed shards and their errors.
    fn checkpoint_all(&mut self, done: &str, what: &str) -> String {
        let mut total = 0u64;
        let mut failed = Vec::new();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            match shard.checkpoint() {
                Ok(bytes) => total += bytes,
                Err(e) => failed.push(format!("{}: {e}", shard_name(k)).replace('\n', " ")),
            }
        }
        if failed.is_empty() {
            format!("{done} {total} bytes ({} shards)\n", self.shards.len())
        } else {
            format!("err {what} failed on {}\n", failed.join("; "))
        }
    }

    fn trace(&self, rest: &str) -> String {
        let n = match rest.trim() {
            "" => 10,
            arg => match arg.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return format!("err trace expects a count, got {arg:?}\n"),
            },
        };
        let mut rows = Vec::new();
        for (k, shard) in self.shards.iter().enumerate() {
            for r in shard.recorder().last(n) {
                rows.push(format!("s{k} {}\n", r.render()));
            }
        }
        format!("ok {}\n{}", rows.len(), rows.concat())
    }

    fn metrics(&self, rest: &str) -> String {
        let rendered = match rest.trim() {
            "--prom" => self.build_report().render_prometheus(),
            "" => self.build_report().render_text(),
            _ => return "err metrics takes no argument except --prom\n".to_owned(),
        };
        let mut out = format!("ok {}\n", rendered.lines().count());
        for l in rendered.lines() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The merged serving report: counters and histograms are absorbed
    /// additively shard by shard (in shard order — deterministic); gauges
    /// are set once from the pooled figures.
    pub fn build_report(&self) -> RunReport {
        let reg = Registry::new();
        for shard in &self.shards {
            shard.fill_report(&reg);
        }
        self.totals().set_gauges(&reg);
        reg.gauge("serve.shards", "").set(self.shards.len() as u64);
        run_report(&reg)
    }
}

/// Shard `k`'s directory name under the serving dir.
fn shard_name(k: usize) -> String {
    format!("shard-{k:03}")
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

/// The URLs of a `train`/`predict` payload: comma-separated, trimmed,
/// empty entries skipped.
pub(crate) fn payload_urls(payload: &str) -> impl Iterator<Item = &str> {
    payload.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Predicts against a published snapshot: parses the context against the
/// *published* interner and keeps the URLs that label a row of the
/// *published* model ([`FrozenTree::context_id`]: one never seen, or seen
/// but named by no row, cannot match and is skipped alike), ranks
/// read-only against that model, and renders `ok N` plus one `prob url`
/// row per prediction into `buf`, filling `top` for the flight record.
///
/// [`FrozenTree::context_id`]: pbppm_core::FrozenTree::context_id
///
/// If some prediction's interned URL cannot be resolved, *nothing* is
/// written and the offending id is returned: an unresolvable id means the
/// model and the interner have desynced, and serving a placeholder URL
/// would silently mask it.
pub fn predict_published(
    published: &PublishedModel,
    top_n: usize,
    rest: &str,
    buf: &mut Vec<u8>,
    top: &mut Vec<(String, f64)>,
) -> std::io::Result<Result<(), UrlId>> {
    let arena = published.model.as_ref().and_then(Predictor::frozen);
    let context: Vec<UrlId> = payload_urls(rest)
        .filter_map(|s| arena?.context_id(&published.urls, s))
        .collect();
    let mut preds = Vec::new();
    if let Some(model) = &published.model {
        let mut usage = PredictUsage::default();
        model.predict_ro(&context, &mut preds, &mut usage);
    }
    preds.truncate(top_n);
    if let Some(p) = preds
        .iter()
        .find(|p| published.urls.resolve(p.url).is_none())
    {
        return Ok(Err(p.url));
    }
    writeln!(buf, "ok {}", preds.len())?;
    for p in &preds {
        let url = published.urls.resolve(p.url).unwrap_or("");
        writeln!(buf, "{:.3} {}", p.prob, url)?;
        top.push((url.to_owned(), p.prob));
    }
    Ok(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recovery;
    use pbppm_core::snapshot::Generation;

    fn temp_dir(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("pbppm-sharded-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    fn opts(shards: usize, threads: usize) -> ShardedOptions {
        // rebuild_every=1 + checkpoint_every=1: every session rebuilds,
        // publishes and checkpoints, so generations accumulate quickly.
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

    fn open(dir: &str) -> ShardedServer {
        ShardedServer::open(dir, PbConfig::default(), opts(1, 1)).unwrap()
    }

    fn batch(server: &mut ShardedServer, lines: &[&str]) -> Vec<String> {
        let lines: Vec<String> = lines.iter().map(|s| (*s).to_owned()).collect();
        let mut responses = Vec::new();
        server.handle_batch(&lines, &mut responses).unwrap();
        responses
    }

    fn line(server: &mut ShardedServer, cmd: &str) -> String {
        batch(server, &[cmd]).remove(0)
    }

    #[test]
    fn split_client_token() {
        assert_eq!(split_client("@c7 /a,/b"), ("c7", "/a,/b"));
        assert_eq!(split_client("/a,/b"), ("", "/a,/b"));
        assert_eq!(split_client("@lonely"), ("lonely", ""));
        assert_eq!(split_client(""), ("", ""));
    }

    #[test]
    fn protocol_basics() {
        let dir = temp_dir("protocol");
        let mut s = open(&dir);
        assert_eq!(s.recovery_label(), "fresh");
        let rs = batch(
            &mut s,
            &[
                "train /a,/b,/a,/b",
                "predict /a",
                "predict /never-seen",
                "stats",
                "bogus",
                "train ",
                "",
                "quit",
            ],
        );
        assert!(rs[0].starts_with("ok trained 4"), "{}", rs[0]);
        assert!(rs[1].starts_with("ok 1\n"), "{}", rs[1]);
        assert!(rs[1].contains("/b"), "{}", rs[1]);
        assert!(rs[2].starts_with("ok 0"), "{}", rs[2]);
        assert!(rs[3].starts_with("ok shards 1, urls 2"), "{}", rs[3]);
        assert!(rs[4].starts_with("err unknown command"), "{}", rs[4]);
        assert!(rs[5].starts_with("err train expects"), "{}", rs[5]);
        assert_eq!(rs[6], "", "a blank line gets an empty response");
        assert!(rs[7].starts_with("ok bye; checkpointed"), "{}", rs[7]);
        assert!(rs[7].contains("(1 shards)"), "{}", rs[7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_shard_count_uses_the_shard_directory_layout() {
        let dir = temp_dir("layout");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        let root = std::path::Path::new(&dir);
        assert!(root.join("shard-000").join("current.pbss").exists());
        assert!(!root.join("current.pbss").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flat_layout_checkpoint_is_refused_with_a_hint() {
        let dir = temp_dir("flat");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        drop(s);
        // What a single-shard server of the old layout left behind.
        let root = std::path::Path::new(&dir);
        std::fs::rename(
            root.join("shard-000").join("current.pbss"),
            root.join("current.pbss"),
        )
        .unwrap();
        let err = ShardedServer::open(&dir, PbConfig::default(), opts(1, 1))
            .err()
            .expect("a flat checkpoint must not be ignored");
        let msg = err.to_string();
        assert!(msg.contains("shard-000"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_restores_predictions() {
        let dir = temp_dir("warm");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b,/c");
        line(&mut s, "train /a,/b,/c");
        let before = line(&mut s, "predict /a,/b");
        drop(s);

        let mut s2 = open(&dir);
        assert_eq!(
            s2.shard_session(0).recovery(),
            Recovery::Warm(Generation::Current)
        );
        assert_eq!(line(&mut s2, "predict /a,/b"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovers_from_truncated_current_snapshot() {
        let dir = temp_dir("truncated");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        let after_first = line(&mut s, "predict /a");
        line(&mut s, "train /x,/y");
        drop(s);

        // Simulate a crash mid-write: the newest generation is cut short.
        let current = SnapshotStore::open(format!("{dir}/shard-000"))
            .unwrap()
            .current_path();
        let bytes = std::fs::read(&current).unwrap();
        std::fs::write(&current, &bytes[..bytes.len() / 2]).unwrap();

        let mut s2 = open(&dir);
        assert_eq!(s2.recovery_label(), "previous");
        // The previous generation predates the second train line.
        assert_eq!(line(&mut s2, "predict /a"), after_first);
        assert!(line(&mut s2, "predict /x").starts_with("ok 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn training_continues_after_recovery() {
        let dir = temp_dir("resume");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        drop(s);
        let mut s2 = open(&dir);
        assert!(line(&mut s2, "train /a,/c").starts_with("ok trained 2"));
        let reply = line(&mut s2, "predict /a");
        assert!(reply.starts_with("ok 2"), "both sessions count: {reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_serving_session_state() {
        let dir = temp_dir("stats-session");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        line(&mut s, "checkpoint");
        let reply = line(&mut s, "stats");
        assert!(reply.contains("recovered fresh"), "{reply}");
        assert!(reply.contains("rebuilds_since_start 1"), "{reply}");
        // rebuild-triggered checkpoint + the explicit one
        assert!(reply.contains("checkpoints 2"), "{reply}");
        assert!(reply.contains("flush_failures 0"), "{reply}");
        assert!(reply.contains("publish_rejected 0"), "{reply}");
        drop(s);
        let mut s2 = open(&dir);
        let reply = line(&mut s2, "stats");
        assert!(reply.contains("recovered current"), "{reply}");
        assert!(reply.contains("rebuilds_since_start 0"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_command_renders_both_formats() {
        let dir = temp_dir("metrics");
        let mut s = open(&dir);
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
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        line(&mut s, "train /a,/b");
        line(&mut s, "predict /a");
        let reply = line(&mut s, "trace 2");
        let mut lines = reply.lines();
        assert_eq!(lines.next(), Some("ok 2"));
        let second_to_last = lines.next().unwrap();
        assert!(second_to_last.starts_with("s0 #"), "{second_to_last}");
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
        let mut o = opts(1, 1);
        o.serve.checkpoint_every = 1_000_000; // keep checkpoints out of the way
        o.serve.eval_window = 8;
        o.serve.drift_fraction = 0.5;
        let mut s = ShardedServer::open(&dir, PbConfig::default(), o).unwrap();
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
        assert!(
            reply.starts_with("ok degraded shards=1 drifted=1"),
            "{reply}"
        );
        assert!(reply.contains("recovered=fresh"), "{reply}");
        assert!(reply.contains("checkpoints=0"), "{reply}");
        assert!(reply.contains("audits=0"), "{reply}");
        assert!(reply.contains("window_precision_at_k=0.000"), "{reply}");
        assert!(reply.contains("flush_failures=0"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flush_lands_in_the_snapshot_dir() {
        let dir = temp_dir("flush");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b"); // rebuild + checkpoint -> flush
        let path = std::path::Path::new(&dir)
            .join("shard-000")
            .join("serve_metrics.json");
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

    /// A prediction whose interned URL cannot be resolved is an
    /// interner/model desync — it must answer `err` and bump an
    /// audit-worthy counter, not render a placeholder URL that is
    /// indistinguishable from a real one.
    #[test]
    fn unresolvable_prediction_is_an_error_not_a_question_mark() {
        let dir = temp_dir("desync");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b,/a,/b");
        // Fabricate the desync: publish the model with an interner that
        // still knows the context URL (same id 0) but has lost its target.
        let shard = &mut s.shards[0];
        let mut urls = Interner::new();
        urls.intern("/a");
        shard.publisher.publish(PublishedModel {
            rebuilds: 1,
            urls,
            model: shard.online().current().cloned(),
        });
        let reply = line(&mut s, "predict /a");
        assert!(reply.starts_with("err predict"), "{reply}");
        assert!(reply.contains("desync"), "{reply}");
        assert!(!reply.contains('?'), "no placeholder URL: {reply}");
        let prom = line(&mut s, "metrics --prom");
        assert!(prom.contains("pbppm_serve_interner_desync 1\n"), "{prom}");
        assert!(prom.contains("pbppm_serve_errors 1\n"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The response staging buffer is a shard field reused across
    /// requests — after any request its capacity must be retained (a
    /// fresh `Vec::new()` per request would show capacity 0 here).
    #[test]
    fn response_buffer_is_reused_across_requests() {
        let dir = temp_dir("buf-reuse");
        let mut s = open(&dir);
        line(&mut s, "train /a,/b");
        let cap = s.shards[0].buf.capacity();
        assert!(cap > 0, "staging buffer retained after the request");
        line(&mut s, "predict /a");
        assert!(
            s.shards[0].buf.capacity() >= cap,
            "capacity only grows across requests"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flush failures are operator-visible in stats, health, and the
    /// metrics report — not just a private counter.
    #[test]
    fn flush_failures_are_surfaced_everywhere() {
        let dir = temp_dir("flush-failures");
        let mut o = opts(1, 1);
        o.serve.flush_every = 1;
        o.serve.checkpoint_every = 1_000_000;
        let mut s = ShardedServer::open(&dir, PbConfig::default(), o).unwrap();
        // The shard dir turns into a regular file: every flush now fails.
        let shard_dir = std::path::Path::new(&dir).join("shard-000");
        std::fs::remove_dir_all(&shard_dir).unwrap();
        std::fs::write(&shard_dir, b"not a directory").unwrap();
        line(&mut s, "train /a,/b");
        line(&mut s, "train /a,/b");
        assert!(line(&mut s, "stats").contains("flush_failures 2"));
        assert!(line(&mut s, "health").contains("flush_failures=3"));
        let prom = line(&mut s, "metrics --prom");
        assert!(
            prom.contains("pbppm_serve_metrics_flush_failures 4"),
            "{prom}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predictions_come_from_the_published_epoch() {
        let dir = temp_dir("epoch");
        // rebuild_every=2: the first train does NOT rebuild, so nothing
        // beyond the (empty) initial epoch is published.
        let mut o = opts(2, 1);
        o.serve.rebuild_every = 2;
        o.serve.checkpoint_every = 1_000_000;
        let mut server = ShardedServer::open(&dir, PbConfig::default(), o).unwrap();
        let rs = batch(&mut server, &["train @c0 /a,/b", "predict @c0 /a"]);
        assert!(rs[0].starts_with("ok trained"), "{}", rs[0]);
        // No rebuild yet -> initial (empty) epoch still serving.
        assert!(rs[1].starts_with("ok 0"), "pre-publish: {}", rs[1]);
        let rs = batch(&mut server, &["train @c0 /a,/b", "predict @c0 /a"]);
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
        let health = &rs[17];
        assert!(health.starts_with("ok healthy shards=4"), "{health}");
        assert!(health.contains("published_epochs=16"), "{health}");
        assert!(rs[18].starts_with("ok "), "{}", rs[18]);
        assert!(rs[18].contains("s0 #"), "per-shard trace rows: {}", rs[18]);
        let prom = &rs[19];
        assert!(
            prom.contains("pbppm_serve_requests{cmd=\"train\"} 16"),
            "merged train counter: {prom}"
        );
        assert!(prom.contains("pbppm_serve_shards 4"), "{prom}");
        assert!(prom.contains("pbppm_serve_window_sessions 16"), "{prom}");
        for k in 0..4 {
            let shard = std::path::Path::new(&dir).join(shard_name(k));
            assert!(shard.join("current.pbss").exists(), "{}", shard.display());
        }
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

    #[test]
    fn shards_split_the_rebuild_workers() {
        // (shards, dispatch threads, rebuild workers per shard); a lone
        // shard keeps auto threads.
        for (shards, threads, want) in [(1, 4, 0), (2, 4, 2), (3, 8, 2), (4, 4, 1), (8, 2, 1)] {
            let dir = temp_dir(&format!("rebuild-workers-{shards}"));
            let workers = |s: &ShardedServer| {
                (0..shards)
                    .map(|k| s.shard_session(k).online().threads())
                    .collect::<Vec<_>>()
            };
            let mut fresh = ShardedServer::open(&dir, PbConfig::default(), opts(shards, threads))
                .expect("fresh server opens");
            assert_eq!(workers(&fresh), vec![want; shards], "{shards} fresh shards");
            assert!(line(&mut fresh, "quit").starts_with("ok bye; checkpointed"));
            drop(fresh);
            let recovered = ShardedServer::open(&dir, PbConfig::default(), opts(shards, threads))
                .expect("checkpointed server reopens");
            assert_eq!(recovered.recovery_label(), "current");
            assert_eq!(
                workers(&recovered),
                vec![want; shards],
                "{shards} recovered shards"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
