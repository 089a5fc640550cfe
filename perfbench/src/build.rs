//! The `build` workload: a CLF access log becomes a frozen PB-PPM model,
//! goes through its snapshot and is loaded back — ingest → sessionize →
//! count → train → finalize → encode, then decode → instantiate — round
//! after round. No serving layer runs while rounds are timed; afterwards
//! the built model is deployed to a sharded server through its snapshot
//! store and answers the held-out sessions' clicks, which gives its hit ratio.

use crate::inputs::{self, Cmd, Log, Plan};
use crate::layers::{self, Loaded, ModelMeasure};
use crate::metrics::Outcome;
use crate::serve::{self, Schedule};
use crate::spans::{SpanLog, NONE};
use crate::stats::{median, windowed_percentile};
use pbppm_core::pb_online::OnlinePbSnapshot;
use pbppm_core::snapshot::{ModelImage, SnapshotFile, SnapshotStore};
use pbppm_core::{
    verify_model_with_urls, Interner, ModelRef, PbConfig, PbPpm, PopularityBuilder, PredictUsage,
    Predictor, UrlId,
};
use pbppm_serve::ShardedServer;
use std::path::Path;
use std::time::Instant;

/// Contexts on which the reloaded model must answer like the built one.
const RELOAD_CHECK_CONTEXTS: usize = 1000;

/// What one round measured; times in seconds.
struct Round {
    total_s: f64,
    parse_s: f64,
    sessionize_s: f64,
    count_s: f64,
    train_s: f64,
    finalize_s: f64,
    encode_s: f64,
    decode_s: f64,
    instantiate_s: f64,
    model_bytes: u64,
    parse_peak_bytes: u64,
    round_peak_bytes: u64,
}

/// The products of the last round.
struct Built {
    urls: Interner,
    train: Vec<Vec<UrlId>>,
    held_out: Vec<Vec<UrlId>>,
    model: PbPpm,
    loaded: Loaded,
}

struct Rounds {
    rounds: Vec<Round>,
    elapsed: f64,
    last: Built,
}

fn build_once(
    log: &Log,
    seed: u64,
    spans: &mut SpanLog,
    origin: Instant,
) -> Result<(Round, Built), String> {
    let live_before = pbppm_obs::alloc::live_bytes();
    let start = Instant::now();
    // `ingest` restarts the heap watermark, so the round's peak is read
    // against the level before it.
    let ing = inputs::ingest(log)?;
    let (mut train, mut held_out) = (Vec::new(), Vec::new());
    for (i, s) in ing.sessions.into_iter().enumerate() {
        if inputs::held_out(seed, i) {
            held_out.push(s);
        } else {
            train.push(s);
        }
    }
    let t = Instant::now();
    let counts = PopularityBuilder::count_sessions(&train, 0);
    let count_s = t.elapsed().as_secs_f64();
    let mut model = PbPpm::new(counts.build(), PbConfig::default());
    let t = Instant::now();
    model.train_sessions(&train, 0);
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    model.finalize();
    let finalize_s = t.elapsed().as_secs_f64();
    let loaded = layers::load_model(&ing.urls, &model)?;
    let round = Round {
        total_s: start.elapsed().as_secs_f64(),
        parse_s: ing.parse_s,
        sessionize_s: ing.sessionize_s,
        count_s,
        train_s,
        finalize_s,
        encode_s: loaded.encode_s,
        decode_s: loaded.decode_s,
        instantiate_s: loaded.instantiate_s,
        model_bytes: loaded.model_bytes,
        parse_peak_bytes: ing.parse_peak_bytes,
        round_peak_bytes: pbppm_obs::alloc::peak_bytes().saturating_sub(live_before),
    };
    if spans.enabled() {
        // The steps' spans are laid end to end from their measured times;
        // what runs between them (the held-out split) is the round's self
        // time.
        let ns =
            |t: Instant| u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
        let s0 = ns(start);
        let id = spans.push("round", NONE, s0, s0 + secs_ns(round.total_s));
        let mut cursor = s0;
        for (name, s) in [
            ("ingest", round.parse_s),
            ("sessionize", round.sessionize_s),
            ("count", count_s),
            ("train", train_s),
            ("finalize", finalize_s),
            ("encode", round.encode_s),
            ("decode", round.decode_s),
            ("instantiate", round.instantiate_s),
        ] {
            spans.push(name, id, cursor, cursor + secs_ns(s));
            cursor += secs_ns(s);
        }
    }
    let built = Built {
        urls: ing.urls,
        train,
        held_out,
        model,
        loaded,
    };
    Ok((round, built))
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // non-negative, far below u64::MAX ns
fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Rounds until `plan.seconds` have passed and at least `plan.min_rounds`
/// ran.
fn rounds(plan: &Plan, log: &Log, seed: u64, spans: &mut SpanLog) -> Result<Rounds, String> {
    let origin = Instant::now();
    let (mut rounds, mut last) = (Vec::new(), None);
    while rounds.len() < plan.min_rounds || origin.elapsed().as_secs_f64() < plan.seconds {
        drop(last.take());
        let (round, built) = build_once(log, seed, spans, origin)?;
        rounds.push(round);
        last = Some(built);
    }
    Ok(Rounds {
        rounds,
        elapsed: origin.elapsed().as_secs_f64(),
        last: last.ok_or("no round ran")?,
    })
}

impl Rounds {
    fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Round wall times as `(completion, µs)` samples.
    fn latencies(&self) -> Vec<(f64, f64)> {
        let mut t = 0.0;
        self.rounds
            .iter()
            .map(|r| {
                t += r.total_s;
                (t, r.total_s * 1e6)
            })
            .collect()
    }

    fn models(&self) -> ModelMeasure {
        let m = &self.last.model;
        let mut measure = ModelMeasure {
            model_bytes: self.median_of(|r| r.model_bytes as f64),
            snapshot_bytes: self.last.loaded.snapshot_bytes as f64,
            nodes: m.node_count() as f64,
            frozen_bytes: m.frozen().map_or(0, pbppm_core::FrozenTree::heap_bytes) as f64,
            ..ModelMeasure::default()
        };
        for r in &self.rounds {
            measure.sample(r.encode_s, r.decode_s, r.instantiate_s);
        }
        measure
    }
}

/// The built model must pass the audit, and the model loaded back from
/// its snapshot must answer the first held-out contexts exactly like it.
fn check_built(b: &Built, out: &mut Outcome) {
    let report = verify_model_with_urls(&ModelRef::Pb(&b.model), Some(b.urls.len()));
    out.check(report.is_clean(), || {
        format!("built model fails the audit:\n{report}")
    });
    out.check(b.loaded.urls.len() == b.urls.len(), || {
        "reloaded interner differs in size".to_owned()
    });
    let contexts = b
        .held_out
        .iter()
        .flat_map(|s| (1..s.len().min(inputs::MAX_PREFIX + 1)).map(move |k| &s[..k]))
        .take(RELOAD_CHECK_CONTEXTS);
    let (mut a, mut c, mut usage) = (Vec::new(), Vec::new(), PredictUsage::default());
    let mut differ = 0usize;
    for ctx in contexts {
        b.model.predict_ro(ctx, &mut a, &mut usage);
        b.loaded.model.predict_ro(ctx, &mut c, &mut usage);
        differ += usize::from(a != c);
    }
    out.check(differ == 0, || {
        format!("reloaded model differs on {differ} contexts")
    });
}

/// Deploys the built model to every shard of a fresh server (one
/// checkpoint per shard, recovered by `ShardedServer::open`) and returns
/// the server with the held-out sessions' `predict`s.
fn deploy(b: &Built, plan: &Plan, dir: &Path) -> Result<(ShardedServer, Vec<Cmd>), String> {
    let file = SnapshotFile {
        urls: b.urls.iter().map(|(_, u)| u.to_owned()).collect(),
        model: ModelImage::OnlinePb(OnlinePbSnapshot {
            cfg: *b.model.config(),
            window: b.train.clone(),
            max_window: b.train.len().max(1),
            rebuild_every: plan.rebuild_every,
            since_rebuild: 0,
            rebuilds: 1,
            model: Some(b.model.to_snapshot()),
        }),
    };
    for k in 0..plan.shards {
        SnapshotStore::open(dir.join(format!("shard-{k:03}")))
            .and_then(|store| store.checkpoint(&file).map_err(std::io::Error::other))
            .map_err(|e| format!("deploy shard {k}: {e}"))?;
    }
    let server = ShardedServer::open(
        &dir.display().to_string(),
        PbConfig::default(),
        serve::server_options(plan),
    )
    .map_err(|e| format!("open deployed server: {e}"))?;
    let mut cmds = Vec::new();
    for (i, s) in b.held_out.iter().enumerate() {
        inputs::predict_cmds(&b.urls, i, s, &mut cmds);
    }
    if cmds.is_empty() {
        return Err("no held-out contexts".to_owned());
    }
    Ok((server, cmds))
}

pub fn run(plan: &Plan, seed: u64, traced: bool, dir: &Path) -> Result<(Outcome, SpanLog), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut setup_s = Vec::new();
    let mut log = None;
    for _ in 0..plan.setups.max(1) {
        let t = Instant::now();
        let written = inputs::write_log(&plan.build_trace, &dir.join("access.log"))
            .map_err(|e| format!("write log: {e}"))?;
        // One untimed round first, so the timed rounds do not pay for
        // growing the heap; the cost shows in `setup_s` instead.
        build_once(&written, seed, &mut SpanLog::new(false), t)?;
        log = Some(written);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let log = log.ok_or("no set-up ran")?;
    let untraced = rounds(plan, &log, seed, &mut SpanLog::new(false))?;
    let mut spans = SpanLog::new(traced);
    let traced_rounds = if traced {
        Some(rounds(plan, &log, seed, &mut spans)?)
    } else {
        None
    };
    let mut out = Outcome::default();
    for r in std::iter::once(&untraced).chain(&traced_rounds) {
        out.attempted += r.rounds.len() as u64;
        check_built(&r.last, &mut out);
    }

    let last = traced_rounds.as_ref().map_or(&untraced.last, |r| &r.last);
    let (mut server, cmds) = deploy(last, plan, &dir.join("deploy"))?;
    let all = Schedule::Backlog {
        until_s: f64::INFINITY,
        max: cmds.len(),
    };
    let phase = serve::drive(&mut server, &cmds, 0, all, traced)?;
    out.attempted += phase.sent;
    out.failed += phase.failed;
    out.problems.extend(phase.problems.iter().cloned());
    serve::verify_samples(&server, &cmds, &phase, &mut out);
    out.check(server.publish_rejected() == 0, || {
        "deployed model failed the publish audit".to_owned()
    });

    let models = untraced.models();
    out.e2e("setup_s", median(&setup_s));
    let lat = untraced.latencies();
    out.layer(
        "e2e.latency_p50_us",
        windowed_percentile(&lat, untraced.elapsed, 0.5),
    );
    out.layer(
        "e2e.latency_p99_us",
        windowed_percentile(&lat, untraced.elapsed, 0.99),
    );
    out.layer(
        "e2e.throughput_per_s",
        log.lines as f64 / untraced.median_of(|r| r.total_s).max(1e-9),
    );
    out.e2e(
        "hit_ratio",
        phase.hits as f64 / phase.predict.len().max(1) as f64,
    );
    models.report_e2e(&mut out);
    out.extra("rounds", untraced.rounds.len() as f64, "count");
    out.extra("log_lines", log.lines as f64, "count");
    out.extra("log_mb", log.bytes as f64 / 1e6, "MB");
    out.extra("train_sessions", untraced.last.train.len() as f64, "count");
    out.extra(
        "build_peak_mb",
        untraced.median_of(|r| r.round_peak_bytes as f64) / 1e6,
        "MB",
    );
    serve::phase_extras(&phase, &mut out);

    let Some(tr) = &traced_rounds else {
        return Ok((out, spans));
    };
    out.layer("ingest.parse_ms", tr.median_of(|r| r.parse_s) * 1e3);
    out.layer(
        "ingest.lines_per_s",
        log.lines as f64 / tr.median_of(|r| r.parse_s).max(1e-9),
    );
    out.layer(
        "ingest.peak_mb",
        tr.median_of(|r| r.parse_peak_bytes as f64) / 1e6,
    );
    out.layer(
        "session.sessionize_ms",
        tr.median_of(|r| r.sessionize_s) * 1e3,
    );
    tr.models().report_layers(&mut out);
    let read = layers::replay_read_path(&server, &cmds);
    let traffic: Vec<(String, Vec<String>)> = last
        .held_out
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let names = s
                .iter()
                .map(|&u| last.urls.resolve(u).unwrap_or("?").to_owned())
                .collect();
            (inputs::client_of(i), names)
        })
        .collect();
    let write = layers::replay_write_path(&server, &traffic, &mut out)?;
    write.report(&mut out);
    serve::report_serving_layers(&phase, &read, 0, &server, &mut out);
    // The rounds' own per-step medians, next to the replayed ones.
    out.extra("round.count_ms", tr.median_of(|r| r.count_s) * 1e3, "ms");
    out.extra("round.train_ms", tr.median_of(|r| r.train_s) * 1e3, "ms");
    out.extra(
        "round.finalize_ms",
        tr.median_of(|r| r.finalize_s) * 1e3,
        "ms",
    );
    out.layer(
        "trace.overhead_share",
        tr.median_of(|r| r.total_s) / untraced.median_of(|r| r.total_s).max(1e-9) - 1.0,
    );
    let offset = secs_ns(tr.elapsed);
    spans.absorb(phase.spans, offset);
    Ok((out, spans))
}
