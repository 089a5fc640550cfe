//! Per-layer measurements made from outside the program: the model images
//! every workload loads, and the traced run's replay, which times each
//! public layer function on the inputs the timed phase recorded.

use crate::inputs::Cmd;
use crate::metrics::Outcome;
use crate::serve::{split_predict, TOP};
use crate::stats::{median, nearest_rank};
use pbppm_core::eval::EvalConfig;
use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{
    shard_of, verify_model_with_urls, Interner, LiveEval, LiveEvalConfig, ModelRef, OnlinePbPpm,
    PbPpm, PopularityBuilder, PredictUsage, Predictor, UrlId,
};
use pbppm_serve::sharded::predict_published;
use pbppm_serve::{PublishedModel, ShardedServer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A model written to a snapshot and loaded back, timed step by step.
pub struct Loaded {
    pub snapshot_bytes: usize,
    pub encode_s: f64,
    pub decode_s: f64,
    pub instantiate_s: f64,
    /// Live-heap growth of `interner()` plus `instantiate()`: what the
    /// loaded model costs in memory.
    pub model_bytes: u64,
    pub urls: Interner,
    pub model: Box<dyn Predictor>,
}

/// `SnapshotFile::encode`, then `decode` → `interner` + `instantiate`.
pub fn load_model(urls: &Interner, model: &PbPpm) -> Result<Loaded, String> {
    let t = Instant::now();
    let bytes = SnapshotFile {
        urls: urls.iter().map(|(_, u)| u.to_owned()).collect(),
        model: ModelImage::Pb(model.to_snapshot()),
    }
    .encode();
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let file = SnapshotFile::decode(&bytes).map_err(|e| format!("decode: {e}"))?;
    let decode_s = t.elapsed().as_secs_f64();
    let live_before = pbppm_obs::alloc::live_bytes();
    let t = Instant::now();
    let urls = file.interner();
    let model = file
        .instantiate()
        .map_err(|e| format!("instantiate: {e}"))?;
    let instantiate_s = t.elapsed().as_secs_f64();
    let model_bytes = pbppm_obs::alloc::live_bytes().saturating_sub(live_before);
    Ok(Loaded {
        snapshot_bytes: bytes.len(),
        encode_s,
        decode_s,
        instantiate_s,
        model_bytes,
        urls,
        model,
    })
}

/// Size and load cost of the model(s) a workload serves. Sizes are
/// exact; each step time is a list of samples, one per load, reported as
/// its lower quartile (see [`lower_quartile`]).
#[derive(Debug, Default, Clone)]
pub struct ModelMeasure {
    pub model_bytes: f64,
    pub snapshot_bytes: f64,
    pub nodes: f64,
    pub frozen_bytes: f64,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub instantiate_ms: Vec<f64>,
}

impl ModelMeasure {
    /// Adds one load's step times.
    pub fn sample(&mut self, encode_s: f64, decode_s: f64, instantiate_s: f64) {
        self.encode_ms.push(encode_s * 1e3);
        self.decode_ms.push(decode_s * 1e3);
        self.instantiate_ms.push(instantiate_s * 1e3);
    }

    /// Adds another measurement's samples of the same models.
    pub fn absorb(&mut self, other: ModelMeasure) {
        self.encode_ms.extend(other.encode_ms);
        self.decode_ms.extend(other.decode_ms);
        self.instantiate_ms.extend(other.instantiate_ms);
    }

    pub fn report_e2e(&self, out: &mut Outcome) {
        out.e2e("model_bytes", self.model_bytes);
        out.e2e("snapshot_bytes", self.snapshot_bytes);
        let load: Vec<f64> = self
            .decode_ms
            .iter()
            .zip(&self.instantiate_ms)
            .map(|(d, i)| d + i)
            .collect();
        out.layer("e2e.load_ms", lower_quartile(&load));
    }

    pub fn report_layers(&self, out: &mut Outcome) {
        out.layer("snapshot.encode_ms", lower_quartile(&self.encode_ms));
        out.layer("snapshot.decode_ms", lower_quartile(&self.decode_ms));
        out.layer(
            "snapshot.instantiate_ms",
            lower_quartile(&self.instantiate_ms),
        );
        out.layer("model.nodes", self.nodes);
        out.layer("model.frozen_bytes", self.frozen_bytes);
        out.layer(
            "model.bytes_per_node",
            self.frozen_bytes / self.nodes.max(1.0),
        );
    }
}

/// The lower quartile (nearest rank) of repeated short timings. The host's
/// speed flips between two levels for seconds at a time; timings sampled
/// at several moments of a run read steadiest at their lower quartile,
/// which holds as long as a quarter of the samples ran at full speed.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.25)
}

/// Back-to-back loads of the published shard models per measurement.
const LOAD_REPEATS: usize = 5;

/// Measures every shard's published model: sizes summed over shards, and
/// [`LOAD_REPEATS`] samples of each load step summed over shards.
pub fn measure_published(server: &ShardedServer) -> Result<ModelMeasure, String> {
    let published: Vec<Arc<PublishedModel>> = (0..server.shard_count())
        .map(|k| Arc::clone(server.shard_reader(k).current()))
        .collect();
    let mut m = ModelMeasure::default();
    for rep in 0..LOAD_REPEATS {
        let (mut e, mut d, mut i) = (0.0, 0.0, 0.0);
        for (k, p) in published.iter().enumerate() {
            let model = p
                .model
                .as_ref()
                .ok_or_else(|| format!("shard {k} never published a model"))?;
            let loaded = load_model(&p.urls, model)?;
            (e, d, i) = (
                e + loaded.encode_s,
                d + loaded.decode_s,
                i + loaded.instantiate_s,
            );
            if rep == 0 {
                m.model_bytes += loaded.model_bytes as f64;
                m.snapshot_bytes += loaded.snapshot_bytes as f64;
                m.nodes += model.node_count() as f64;
                m.frozen_bytes +=
                    model.frozen().map_or(0, pbppm_core::FrozenTree::heap_bytes) as f64;
            }
        }
        m.sample(e, d, i);
    }
    Ok(m)
}

/// Mean nanoseconds per item of `pass` over `n` items, the median of
/// three passes.
fn per_item_ns(n: usize, mut pass: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    median(&samples)
}

/// Requests the read-path replay times, at most.
const READ_REPLAY_MAX: usize = 50_000;

/// Per-request cost of each step of the reader path, in nanoseconds.
pub struct ReadReplay {
    pub route_ns: f64,
    pub epoch_read_ns: f64,
    pub lookup_ns: f64,
    pub predict_ro_ns: f64,
    pub predict_published_ns: f64,
}

impl ReadReplay {
    pub fn report(&self, out: &mut Outcome) {
        out.layer("publish.route_ns", self.route_ns);
        out.layer("publish.epoch_read_ns", self.epoch_read_ns);
        out.layer("interner.lookup_ns", self.lookup_ns);
        out.layer("match.predict_ro_ns", self.predict_ro_ns);
        // What `predict_published` spends beyond lookup and match: the
        // context split, its buffers and the response rendering.
        out.layer(
            "render.ns",
            self.predict_published_ns - self.lookup_ns - self.predict_ro_ns,
        );
    }
}

/// Times routing (`shard_of`), the epoch read (`EpochReader::current`),
/// the interner lookup, the frozen-arena match (`predict_ro`) and the
/// whole `predict_published` on the workload's recorded `predict`s
/// against the shards' current epochs.
pub fn replay_read_path(server: &ShardedServer, cmds: &[Cmd]) -> ReadReplay {
    let shards = server.shard_count();
    let reqs: Vec<(&str, &str, usize)> = cmds
        .iter()
        .filter(|c| c.is_predict())
        .take(READ_REPLAY_MAX)
        .map(|c| {
            let (client, payload) = split_predict(&c.line);
            (client, payload, server.shard_of_client(client))
        })
        .collect();
    let mut readers: Vec<_> = (0..shards).map(|k| server.shard_reader(k)).collect();
    let published: Vec<Arc<PublishedModel>> = readers
        .iter_mut()
        .map(|r| Arc::clone(r.current()))
        .collect();
    let contexts: Vec<Vec<UrlId>> = reqs
        .iter()
        .map(|&(_, payload, k)| {
            payload
                .split(',')
                .map(str::trim)
                .filter_map(|u| published[k].urls.get(u))
                .collect()
        })
        .collect();
    let n = reqs.len();
    let route_ns = per_item_ns(n, || {
        for &(client, _, _) in &reqs {
            black_box(shard_of(black_box(client), shards));
        }
    });
    let epoch_read_ns = per_item_ns(n, || {
        for &(_, _, k) in &reqs {
            black_box(readers[k].current());
        }
    });
    let lookup_ns = per_item_ns(n, || {
        for &(_, payload, k) in &reqs {
            for u in payload.split(',') {
                black_box(published[k].urls.get(u.trim()));
            }
        }
    });
    let (mut preds, mut usage) = (Vec::new(), PredictUsage::default());
    let predict_ro_ns = per_item_ns(n, || {
        for (ctx, &(_, _, k)) in contexts.iter().zip(&reqs) {
            usage.clear();
            if let Some(model) = &published[k].model {
                model.predict_ro(black_box(ctx), &mut preds, &mut usage);
            }
            black_box(&preds);
        }
    });
    let (mut buf, mut top) = (Vec::new(), Vec::new());
    let predict_published_ns = per_item_ns(n, || {
        for &(_, payload, k) in &reqs {
            buf.clear();
            top.clear();
            let _ = black_box(predict_published(
                &published[k],
                TOP,
                payload,
                &mut buf,
                &mut top,
            ));
        }
    });
    ReadReplay {
        route_ns,
        epoch_read_ns,
        lookup_ns,
        predict_ro_ns,
        predict_published_ns,
    }
}

/// Sessions per shard the live-evaluation replay scores.
const OBSERVE_PER_SHARD: usize = 200;
/// Rebuild samples: at least [`REBUILD_MIN`], then more until
/// [`REBUILD_BUDGET`] has passed or [`REBUILD_MAX`] were taken.
const REBUILD_MIN: usize = 3;
const REBUILD_MAX: usize = 24;
const REBUILD_BUDGET: Duration = Duration::from_secs(1);

/// The writer path's steps, replayed on copies of each shard.
pub struct WriteReplay {
    pub clone_ms: Vec<f64>,
    pub audit_ms: Vec<f64>,
    pub observe_us: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    pub count_ms: Vec<f64>,
    pub train_ms: Vec<f64>,
    pub finalize_ms: Vec<f64>,
    pub window_sessions: usize,
}

impl WriteReplay {
    pub fn report(&self, out: &mut Outcome) {
        let mut rebuild = self.rebuild_ms.clone();
        rebuild.sort_by(f64::total_cmp);
        out.layer("publish.clone_ms", median(&self.clone_ms));
        out.layer("verify.audit_ms", median(&self.audit_ms));
        out.layer("live.observe_us", median(&self.observe_us));
        out.layer("pb_online.rebuild_ms_p50", nearest_rank(&rebuild, 0.5));
        out.layer("pb_online.rebuild_ms_p99", nearest_rank(&rebuild, 0.99));
        out.layer("pb_online.window_sessions", self.window_sessions as f64);
        out.layer("popularity.count_ms", median(&self.count_ms));
        out.layer("pb.train_ms", median(&self.train_ms));
        out.layer("pb.finalize_ms", median(&self.finalize_ms));
        out.extra("pb_online.rebuild_samples", rebuild.len() as f64, "count");
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays, per shard: the publish audit (`verify_model_with_urls`), the
/// publish clone (model + interner), `LiveEval::observe_session` on the
/// shard's replayed sessions, and `rebuild` — whole, and split into
/// `count_sessions` / `train_sessions` / `finalize` — on
/// `to_snapshot`/`from_snapshot` copies, so the server itself is untouched.
pub fn replay_write_path(
    server: &ShardedServer,
    traffic: &[(String, Vec<String>)],
    out: &mut Outcome,
) -> Result<WriteReplay, String> {
    let shards = server.shard_count();
    let mut r = WriteReplay {
        clone_ms: Vec::new(),
        audit_ms: Vec::new(),
        observe_us: Vec::new(),
        rebuild_ms: Vec::new(),
        count_ms: Vec::new(),
        train_ms: Vec::new(),
        finalize_ms: Vec::new(),
        window_sessions: 0,
    };
    for k in 0..shards {
        let session = server.shard_session(k);
        let (online, urls) = (session.online(), session.urls());
        r.window_sessions += online.window_len();
        let t = Instant::now();
        let report = verify_model_with_urls(&ModelRef::OnlinePb(online), Some(urls.len()));
        r.audit_ms.push(ms_since(t));
        out.check(report.is_clean(), || {
            format!("shard {k} fails the structural audit:\n{report}")
        });
        let t = Instant::now();
        black_box(PublishedModel {
            rebuilds: online.rebuild_count(),
            urls: urls.clone(),
            model: online.current().cloned(),
        });
        r.clone_ms.push(ms_since(t));

        let mut live = LiveEval::new(LiveEvalConfig {
            eval: EvalConfig {
                k: TOP,
                ..EvalConfig::default()
            },
            ..LiveEvalConfig::default()
        });
        let grades = online.current().map(PbPpm::popularity);
        let mut names = urls.clone();
        let sessions = traffic
            .iter()
            .filter(|(client, _)| server.shard_of_client(client) == k)
            .take(OBSERVE_PER_SHARD);
        for (_, s) in sessions {
            let ids: Vec<UrlId> = s.iter().map(|u| names.intern(u)).collect();
            let t = Instant::now();
            black_box(live.observe_session(online, grades, &ids));
            r.observe_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let started = Instant::now();
    let mut i = 0usize;
    while i < REBUILD_MAX && (i < REBUILD_MIN || started.elapsed() < REBUILD_BUDGET) {
        let snap = server.shard_session(i % shards).online().to_snapshot();
        let mut copy = OnlinePbPpm::from_snapshot(&snap).map_err(|e| format!("copy shard: {e}"))?;
        let t = Instant::now();
        copy.rebuild();
        r.rebuild_ms.push(ms_since(t));
        let t = Instant::now();
        let counts = PopularityBuilder::count_sessions(&snap.window, 0);
        r.count_ms.push(ms_since(t));
        let mut model = PbPpm::new(counts.build(), snap.cfg);
        let t = Instant::now();
        model.train_sessions(&snap.window, 0);
        r.train_ms.push(ms_since(t));
        let t = Instant::now();
        model.finalize();
        r.finalize_ms.push(ms_since(t));
        black_box((copy, model));
        i += 1;
    }
    Ok(r)
}
