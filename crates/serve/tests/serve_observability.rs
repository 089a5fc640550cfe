//! ISSUE 7 acceptance test: replay a trace through the serve loop and
//! assert the **live** sliding-window precision agrees with the
//! **offline** eval engine on the same clicks.
//!
//! Setup that makes exact agreement possible:
//!
//! * `rebuild_every` is sized so the model rebuilds exactly once, at the
//!   end of the warm-up phase — during the whole evaluation phase both
//!   paths query the *same* frozen model;
//! * the live eval window is sized to exactly the evaluation phase's
//!   context count, so every warm-up context (scored against an evolving
//!   or empty model) has been evicted by the end;
//! * the offline run replays the identical evaluation sessions through
//!   `pbppm_core::eval::evaluate` with the same k / threshold / horizon /
//!   context-cap parameters the serve loop uses.
//!
//! Both paths then execute the same `predict_ro` ranking on the same
//! model — the counters must agree *exactly*, not approximately.

use pbppm_core::eval::{evaluate, EvalConfig};
use pbppm_core::{Interner, OnlinePbPpm, PbConfig, Predictor, UrlId};
use pbppm_serve::{ServeOptions, ShardedOptions, ShardedServer};

const WARMUP_SESSIONS: usize = 30;
const EVAL_SESSIONS: usize = 20;
const TOP: usize = 5;

fn open(dir: &str, opts: ServeOptions) -> ShardedServer {
    let opts = ShardedOptions {
        shards: 1,
        threads: 1,
        serve: opts,
    };
    ShardedServer::open(dir, PbConfig::default(), opts).unwrap()
}

/// Feeds one `train` line per session through the line protocol.
fn train_all(server: &mut ShardedServer, sessions: impl Iterator<Item = Vec<String>>) {
    let mut responses = Vec::new();
    for s in sessions {
        server
            .handle_batch(&[format!("train {}", s.join(","))], &mut responses)
            .unwrap();
        assert!(
            responses[0].starts_with("ok"),
            "train failed: {responses:?}"
        );
    }
}

fn temp_dir(tag: &str) -> String {
    let dir =
        std::env::temp_dir().join(format!("pbppm-serve-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.display().to_string()
}

/// Warm-up traffic: a skewed, deterministic mix over a handful of URLs.
fn warmup_session(i: usize) -> Vec<String> {
    vec![
        "/index.html".to_owned(),
        format!("/cat{}.html", i % 3),
        "/shared.html".to_owned(),
        format!("/leaf{}.html", i % 2),
    ]
}

/// Evaluation traffic: overlaps the warm-up distribution but not
/// identically — hits, misses and uncovered contexts all occur.
fn eval_session(i: usize) -> Vec<String> {
    vec![
        "/index.html".to_owned(),
        format!("/cat{}.html", (i + 1) % 4), // /cat3 never seen in warm-up
        "/shared.html".to_owned(),
        format!("/leaf{}.html", i % 3), // /leaf2 never seen in warm-up
    ]
}

#[test]
fn live_window_precision_agrees_with_offline_eval() {
    let eval_contexts = EVAL_SESSIONS * (eval_session(0).len() - 1);

    // --- The server, driven through the real line protocol. ---
    let dir = temp_dir("agreement");
    let opts = ServeOptions {
        window: 10_000,
        rebuild_every: WARMUP_SESSIONS, // exactly one rebuild, after warm-up
        checkpoint_every: 1_000_000,
        top: TOP,
        eval_window: eval_contexts,
        ..ServeOptions::default()
    };
    let mut server = open(&dir, opts);
    train_all(&mut server, (0..WARMUP_SESSIONS).map(warmup_session));
    assert_eq!(
        server.shard_session(0).online().rebuild_count(),
        1,
        "the model must rebuild exactly once, at the end of warm-up"
    );
    train_all(&mut server, (0..EVAL_SESSIONS).map(eval_session));
    let serve = server.shard_session(0);
    assert_eq!(
        serve.online().rebuild_count(),
        1,
        "no rebuild during the evaluation phase — the model stayed fixed"
    );
    assert_eq!(serve.live().window_len(), eval_contexts, "window full");
    let live = serve.live().window_quality();

    // --- The offline engine on the same clicks against the same model. ---
    let mut urls = Interner::new();
    let mut offline = OnlinePbPpm::new(PbConfig::default(), 10_000, WARMUP_SESSIONS);
    for i in 0..WARMUP_SESSIONS {
        let session: Vec<UrlId> = warmup_session(i).iter().map(|u| urls.intern(u)).collect();
        offline.train_session(&session);
    }
    assert_eq!(offline.rebuild_count(), 1);
    let held_out: Vec<Vec<UrlId>> = (0..EVAL_SESSIONS)
        .map(|i| eval_session(i).iter().map(|u| urls.intern(u)).collect())
        .collect();
    let cfg = serve.live().config();
    assert_eq!(cfg.eval.k, TOP, "serve wires --top into the live eval's k");
    let offline_q = evaluate(
        &mut offline,
        &held_out,
        cfg.context_cap,
        &EvalConfig { ..cfg.eval },
    );

    assert_eq!(
        live, offline_q,
        "live sliding-window counters must equal the offline engine's \
         on the same clicks against the same model"
    );
    // Sanity: the fixture actually exercises hits, misses and gaps.
    assert!(offline_q.contexts == eval_contexts as u64);
    assert!(offline_q.hits_at_k > 0, "some predictions hit");
    assert!(
        offline_q.hits_at_k < offline_q.contexts,
        "some predictions miss"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The same replay, checked against the serve loop's own exposition: the
/// Prometheus rendering of `metrics` must carry the live counters.
#[test]
fn metrics_exposition_carries_live_counters() {
    let dir = temp_dir("exposition");
    let opts = ServeOptions {
        window: 1_000,
        rebuild_every: 5,
        checkpoint_every: 1_000_000,
        top: TOP,
        ..ServeOptions::default()
    };
    let mut server = open(&dir, opts);
    train_all(&mut server, (0..10).map(warmup_session));
    let lifetime = *server.shard_session(0).live().lifetime();
    let report = server.build_report();
    let prom = report.render_prometheus();
    assert!(
        prom.contains(&format!("pbppm_live_contexts {}", lifetime.contexts)),
        "{prom}"
    );
    assert!(
        prom.contains(&format!("pbppm_live_hits_at_k {}", lifetime.hits_at_k)),
        "{prom}"
    );
    assert!(
        prom.contains("pbppm_serve_latency_ns_bucket{cmd=\"train\",le=\"+Inf\"} 10"),
        "{prom}"
    );
    let grade_total: u64 = (0..4)
        .filter_map(|g| {
            let needle = format!("pbppm_live_grade_contexts{{grade=\"G{g}\"}} ");
            prom.lines()
                .find(|l| l.starts_with(&needle))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum();
    // Warm-up contexts before the first rebuild have no popularity table
    // (no model yet), so the graded total counts only post-rebuild ones.
    let pre_rebuild = 5 * (warmup_session(0).len() - 1) as u64;
    assert_eq!(grade_total, lifetime.contexts - pre_rebuild, "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}
