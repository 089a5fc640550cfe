//! The CLI commands: generate, analyze, train, predict, simulate, audit,
//! lint, stats.

use crate::args::Args;
use pbppm_core::snapshot::SnapshotFile;
use pbppm_core::{
    Interner, Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig, StandardPpm,
};
use pbppm_sim::{run_experiment, ExperimentConfig, ModelSpec};
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::combined::{format_combined_line, CombinedRecord, LogFormat};
use pbppm_trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm_trace::{
    classify_clients, sessionize, ClassifyConfig, ClfStats, ClientClass, Session, SessionStats,
    SessionizerConfig, Trace, WorkloadConfig,
};
use std::io::Write;
use std::path::Path;

type CmdResult = Result<(), Box<dyn std::error::Error>>;
/// What [`train_model`] hands back: the label and the finalized model.
type TrainedModel = (String, Box<dyn Predictor>);

/// Seconds of 1995-07-01 04:00 UTC — the epoch generated logs start at,
/// matching the real NASA-KSC file.
const NASA_EPOCH: i64 = 804_571_200;

fn workload_preset(name: &str, seed: u64) -> Result<WorkloadConfig, String> {
    match name {
        "nasa" => Ok(WorkloadConfig::nasa_like(seed)),
        "ucb" => Ok(WorkloadConfig::ucb_like(seed)),
        "tiny" => Ok(WorkloadConfig::tiny(seed)),
        other => Err(format!(
            "unknown preset {other:?} (expected nasa, ucb, or tiny)"
        )),
    }
}

/// `pbppm generate --preset nasa --out access.log [--seed N] [--days D]
/// [--sessions S] [--format clf|combined]`
pub fn generate(args: &Args) -> CmdResult {
    args.reject_unknown(&["preset", "out", "seed", "days", "sessions", "format"])?;
    let seed = args.get_parsed("seed", 1u64)?;
    let mut cfg = workload_preset(args.get("preset").unwrap_or("nasa"), seed)?;
    if let Some(days) = args.get("days") {
        cfg.days = days.parse().map_err(|_| format!("bad --days {days:?}"))?;
    }
    if let Some(sessions) = args.get("sessions") {
        cfg.sessions_per_day = sessions
            .parse()
            .map_err(|_| format!("bad --sessions {sessions:?}"))?;
    }
    let out = args.require("out")?;
    let format = args.get("format").unwrap_or("clf");
    if !matches!(format, "clf" | "combined") {
        return Err(format!("unknown --format {format:?} (expected clf or combined)").into());
    }
    let trace = cfg.generate();
    let file = std::fs::File::create(out)?;
    let mut w = std::io::BufWriter::new(file);
    for r in &trace.requests {
        let host = trace
            .clients
            .resolve(pbppm_core::UrlId(r.client.0))
            .unwrap_or("unknown")
            .to_owned();
        let is_robot = host.starts_with("robot");
        let rec = ClfRecord {
            host,
            time: r.time as i64 + NASA_EPOCH,
            method: "GET".to_owned(),
            path: trace.urls.resolve(r.url).unwrap_or("/").to_owned(),
            status: r.status,
            size: r.size,
        };
        if format == "combined" {
            let rec = CombinedRecord {
                clf: rec,
                referer: None,
                user_agent: Some(if is_robot {
                    "PBPPM-Crawler/1.0 (+http://example.org/bot)".to_owned()
                } else {
                    "Mozilla/4.08 [en] (WinNT; U)".to_owned()
                }),
            };
            writeln!(w, "{}", format_combined_line(&rec))?;
        } else {
            writeln!(w, "{}", format_clf_line(&rec))?;
        }
    }
    w.flush()?;
    println!(
        "wrote {}: {} requests, {} URLs, {} clients, {} day(s)",
        out,
        trace.requests.len(),
        trace.distinct_urls(),
        trace.clients.len(),
        trace.days()
    );
    Ok(())
}

/// Ingests a Common or Combined log (the dialect is detected) through
/// the chunked parallel ingester.
fn load_trace_full(
    path: &str,
    threads: usize,
) -> Result<(Trace, ClfStats), Box<dyn std::error::Error>> {
    let (trace, stats) = trace_from_clf_path(path, Path::new(path), &IngestConfig { threads })?;
    pbppm_obs::obs_info!(
        "parsed {path} ({:?}): {} accepted, {} filtered, {} malformed",
        stats.format,
        stats.accepted,
        stats.filtered,
        stats.malformed
    );
    if stats.malformed > stats.accepted {
        pbppm_obs::obs_warn!(
            "{path}: more malformed than accepted lines ({} vs {}) — wrong format?",
            stats.malformed,
            stats.accepted
        );
    }
    if trace.requests.is_empty() {
        return Err("no usable requests in the log".into());
    }
    Ok((trace, stats))
}

fn load_trace(path: &str, threads: usize) -> Result<Trace, Box<dyn std::error::Error>> {
    Ok(load_trace_full(path, threads)?.0)
}

/// `pbppm analyze access.log [--json]`
pub fn analyze(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pbppm analyze <access.log>")?;
    let (trace, parsed) = load_trace_full(path, 0)?;
    let ua_robots = parsed.robot_clients.iter().filter(|&&b| b).count();
    let format = match parsed.format {
        Some(LogFormat::Combined) => "combined",
        _ => "clf",
    };
    let sessions = sessionize(&trace.requests, &SessionizerConfig::default());
    let stats = SessionStats::of(&sessions);
    let mut counts = PopularityTable::builder();
    for s in &sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    let pop = counts.build();
    let hist = pop.grade_histogram();
    let classes = classify_clients(&trace.requests, &ClassifyConfig::default());
    let proxies = classes.iter().filter(|&&c| c == ClientClass::Proxy).count();
    let popular_starts = sessions
        .iter()
        .filter(|s| pop.is_popular(s.views[0].url))
        .count();

    if args.switch("json") {
        let summary = serde_json::json!({
            "format": format,
            "accepted": parsed.accepted,
            "filtered": parsed.filtered,
            "malformed": parsed.malformed,
            "requests": trace.requests.len(),
            "distinct_urls": trace.distinct_urls(),
            "clients": trace.clients.len(),
            "days": trace.days(),
            "total_bytes": trace.total_bytes(),
            "sessions": stats.count,
            "mean_session_len": stats.mean_len,
            "frac_len_le_9": stats.frac_len_le_9,
            "grades": {"g3": hist[3], "g2": hist[2], "g1": hist[1], "g0": hist[0]},
            "proxies": proxies,
            "ua_robots": ua_robots,
            "popular_start_fraction":
                popular_starts as f64 / sessions.len().max(1) as f64,
        });
        println!("{}", serde_json::to_string_pretty(&summary)?);
        return Ok(());
    }
    println!(
        "{format} log: {} lines accepted, {} filtered, {} malformed",
        parsed.accepted, parsed.filtered, parsed.malformed
    );
    println!(
        "{} requests, {} URLs, {} clients ({} proxies, {} UA-identified robots), {} day(s), {} MB",
        trace.requests.len(),
        trace.distinct_urls(),
        trace.clients.len(),
        proxies,
        ua_robots,
        trace.days(),
        trace.total_bytes() / 1_000_000
    );
    println!(
        "{} sessions: mean {:.2} views, {:.1}% with <= 9 views",
        stats.count,
        stats.mean_len,
        100.0 * stats.frac_len_le_9
    );
    println!(
        "popularity grades: {} G3 / {} G2 / {} G1 / {} G0; {:.1}% of sessions start popular",
        hist[3],
        hist[2],
        hist[1],
        hist[0],
        100.0 * popular_starts as f64 / sessions.len().max(1) as f64
    );
    Ok(())
}

/// The per-session URL paths, materialized once so the deterministic
/// parallel trainers (`train_sessions`) can partition them.
fn session_urls(sessions: &[Session]) -> Vec<Vec<pbppm_core::UrlId>> {
    sessions
        .iter()
        .map(|s| s.views.iter().map(|v| v.url).collect())
        .collect()
}

/// Trains one model kind (`pb`, `standard`, `lrs` or `o1`) on `sessions`.
pub fn train_model(
    kind: &str,
    sessions: &[Session],
    aggressive: bool,
    no_links: bool,
    threads: usize,
) -> Result<TrainedModel, Box<dyn std::error::Error>> {
    let urls = session_urls(sessions);
    match kind {
        "pb" => {
            let counts = pbppm_core::PopularityBuilder::count_sessions(&urls, threads);
            let cfg = PbConfig {
                prune: if aggressive {
                    PruneConfig::aggressive()
                } else {
                    PruneConfig::default()
                },
                special_links: !no_links,
                ..PbConfig::default()
            };
            let mut m = PbPpm::new(counts.build(), cfg);
            m.train_sessions(&urls, threads);
            m.finalize();
            Ok(("PB-PPM".into(), Box::new(m)))
        }
        "standard" => {
            let mut m = StandardPpm::unbounded();
            m.train_sessions(&urls, threads);
            m.finalize();
            Ok(("PPM".into(), Box::new(m)))
        }
        "lrs" => {
            let mut m = StandardPpm::lrs();
            m.train_sessions(&urls, threads);
            m.finalize();
            Ok(("LRS".into(), Box::new(m)))
        }
        "o1" => {
            let mut m = Order1Markov::new();
            m.train_sessions(&urls, threads);
            m.finalize();
            Ok(("O1".into(), Box::new(m)))
        }
        other => Err(format!("unknown model {other:?} (expected pb, standard, lrs, or o1)").into()),
    }
}

/// `pbppm train access.log --out model.pbss [--model pb|standard|lrs|o1]
/// [--days N] [--threads N] [--aggressive-prune] [--no-links]`
///
/// Writes the trained model with the versioned, checksummed snapshot codec
/// that `predict`, `audit` and `serve` read.
pub fn train(args: &Args) -> CmdResult {
    args.reject_unknown(&["out", "model", "days", "threads"])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pbppm train <access.log> --out model.pbss")?;
    let out = args.require("out")?;
    let threads = args.get_parsed("threads", 0usize)?;
    let trace = load_trace(path, threads)?;
    let days = args.get_parsed("days", usize::MAX)?;
    let requests = if days == usize::MAX {
        &trace.requests[..]
    } else {
        trace.first_days(days)
    };
    let sessions = sessionize(requests, &SessionizerConfig::default());
    let (label, model) = train_model(
        args.get("model").unwrap_or("pb"),
        &sessions,
        args.switch("aggressive-prune"),
        args.switch("no-links"),
        threads,
    )?;
    let image = model.image().ok_or("the model has no file image")?;
    let bytes = SnapshotFile::new(&trace.urls, image).write_atomic(Path::new(out))?;
    println!(
        "trained {label} on {} sessions: {} nodes, {bytes} bytes -> {out}",
        sessions.len(),
        model.node_count()
    );
    Ok(())
}

/// `pbppm predict model.pbss --context "/a.html,/b.html" [--top N] [--json]`
///
/// Several contexts can be separated by `;` — they are answered in one
/// batched [`Predictor::predict_many`] call. A context URL that labels no
/// row of the model is skipped. The model file comes from `train` or a
/// `serve` checkpoint.
pub fn predict(args: &Args) -> CmdResult {
    args.reject_unknown(&["context", "top"])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pbppm predict <model.pbss> --context \"/a,/b\"")?;
    let file = SnapshotFile::read(Path::new(path))?;
    let mut model = file.instantiate()?;
    let mut stdout = std::io::stdout().lock();
    run_predict(&file.urls, model.as_mut(), args, &mut stdout)
}

/// The prediction-query driver behind `predict`: parses `--context`,
/// batches the query, renders to `out`.
pub fn run_predict(
    interner: &Interner,
    model: &mut dyn Predictor,
    args: &Args,
    out: &mut dyn Write,
) -> CmdResult {
    let top = args.get_parsed("top", 10usize)?;

    // A URL that labels no row of the model is skipped, with one note per
    // URL. A group left with none answers no predictions; a query left
    // with none errs.
    let arena = model.frozen();
    let context_raw = args.require("context")?;
    let mut contexts: Vec<Vec<pbppm_core::UrlId>> = Vec::new();
    let mut skipped = std::collections::BTreeSet::new();
    for group in context_raw.split(';') {
        let mut context = Vec::new();
        for part in group.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match arena.and_then(|arena| arena.context_id(interner, part)) {
                Some(id) => context.push(id),
                None if skipped.insert(part) => {
                    pbppm_obs::obs_warn!("{part:?} labels no row of the model; skipping");
                }
                None => {}
            }
        }
        contexts.push(context);
    }
    if contexts.iter().all(Vec::is_empty) {
        return Err("no usable context URLs".into());
    }

    let slices: Vec<&[pbppm_core::UrlId]> = contexts.iter().map(Vec::as_slice).collect();
    let mut outs = Vec::new();
    model.predict_many(&slices, &mut outs);
    for preds in &mut outs {
        preds.truncate(top);
    }

    if args.switch("json") {
        let render = |preds: &[pbppm_core::Prediction]| -> Vec<serde_json::Value> {
            preds
                .iter()
                .map(|p| {
                    serde_json::json!({
                        "url": interner.resolve(p.url),
                        "probability": p.prob,
                    })
                })
                .collect()
        };
        if outs.len() == 1 {
            writeln!(out, "{}", serde_json::to_string_pretty(&render(&outs[0]))?)?;
        } else {
            let rows: Vec<_> = contexts
                .iter()
                .zip(&outs)
                .map(|(ctx, preds)| {
                    let urls: Vec<_> = ctx.iter().filter_map(|&u| interner.resolve(u)).collect();
                    serde_json::json!({"context": urls, "predictions": render(preds)})
                })
                .collect();
            writeln!(out, "{}", serde_json::to_string_pretty(&rows)?)?;
        }
        return Ok(());
    }
    for (i, (ctx, preds)) in contexts.iter().zip(&outs).enumerate() {
        if outs.len() > 1 {
            let urls: Vec<_> = ctx
                .iter()
                .map(|&u| interner.resolve(u).unwrap_or("?"))
                .collect();
            writeln!(out, "context {}: {}", i + 1, urls.join(" -> "))?;
        }
        if preds.is_empty() {
            writeln!(out, "no predictions for this context")?;
        } else {
            for p in preds {
                writeln!(
                    out,
                    "{:.3}  {}",
                    p.prob,
                    interner.resolve(p.url).unwrap_or("?")
                )?;
            }
        }
    }
    Ok(())
}

/// `pbppm simulate (<access.log> | --preset nasa) --model pb|standard|lrs|top10|o1
/// [--train-days N] [--seed N] [--threads N] [--json]`
pub fn simulate(args: &Args) -> CmdResult {
    args.reject_unknown(&["preset", "model", "train-days", "seed", "threads"])?;
    let trace = match args.positional.first() {
        Some(path) => load_trace(path, args.get_parsed("threads", 0usize)?)?,
        None => {
            let seed = args.get_parsed("seed", 1u64)?;
            workload_preset(args.get("preset").unwrap_or("nasa"), seed)?.generate()
        }
    };
    let spec = match args.get("model").unwrap_or("pb") {
        "pb" => ModelSpec::pb_paper(true),
        "standard" => ModelSpec::Standard { max_height: None },
        "3ppm" => ModelSpec::Standard {
            max_height: Some(3),
        },
        "lrs" => ModelSpec::Lrs,
        "o1" => ModelSpec::Order1,
        "top10" => ModelSpec::TopN { n: 10 },
        "none" => ModelSpec::NoPrefetch,
        other => return Err(format!("unknown model {other:?}").into()),
    };
    let default_days = trace.days().saturating_sub(1).max(1);
    let train_days = args.get_parsed("train-days", default_days)?;
    let mut cfg = ExperimentConfig::paper_default(spec, train_days);
    cfg.threads = args.get_parsed("threads", 0usize)?;
    pbppm_obs::obs_info!(
        "simulating {} on {}: {} training day(s), {} worker(s) (0 = auto)",
        cfg.model.label(),
        trace.name,
        train_days,
        cfg.threads
    );
    let r = run_experiment(&trace, &cfg);
    if args.switch("json") {
        println!("{}", serde_json::to_string_pretty(&r)?);
        return Ok(());
    }
    println!(
        "{} on {} — trained {} days ({} sessions), evaluated {} requests",
        r.label, r.trace, r.train_days, r.train_sessions, r.eval_requests
    );
    println!(
        "  hit ratio      {:>6.1}%   (caching only: {:.1}%)",
        100.0 * r.hit_ratio(),
        100.0 * r.baseline_hit_ratio()
    );
    println!("  latency saved  {:>6.1}%", 100.0 * r.latency_reduction());
    println!("  traffic cost   {:>6.1}%", 100.0 * r.traffic_increment());
    println!("  model size     {:>6} nodes", r.node_count);
    Ok(())
}

/// `pbppm audit model.pbss [--json]`
///
/// Structurally verifies a binary snapshot: decodes the envelope, loads
/// the model image, and runs every invariant check in `pbppm-audit`
/// (tree shape, height caps, special links, popularity grades, index
/// aggregates, symbol resolution), and reports where the file's bytes go
/// (envelope, URL table, popularity, nodes, online window, settings) and,
/// for a PB-PPM model, where its loaded index's bytes go, list by list.
/// Exits nonzero when any violation is
/// found — including payloads whose checksum passes but whose contents
/// are structurally invalid. `serve` runs the same audit on recovery.
pub fn audit(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pbppm audit <model.pbss> [--json]")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let report = pbppm_audit::verify_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if args.switch("json") {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{path}: {} structural violation(s)",
            report.violations.len()
        )
        .into())
    }
}

/// `pbppm lint [--json] [--self-test] [workspace-root]`
///
/// Runs the workspace linter (panic and concurrency policy; see
/// DESIGN.md §15). `--self-test` lints the planted-violation corpus
/// instead and requires every rule to trip exactly once.
pub fn lint(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let start = args.positional.first().map_or(".", String::as_str);
    let root = pbppm_lint::find_workspace_root(Path::new(start))?;
    if args.switch("self-test") {
        pbppm_lint::self_test(&root)?;
        println!(
            "pbppm-lint self-test OK: {} rules each tripped exactly once",
            pbppm_lint::ALL_RULES.len()
        );
        return Ok(());
    }
    let report = pbppm_lint::lint_workspace(&root)?;
    if args.switch("json") {
        println!("{}", report.to_json());
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!(
            "pbppm-lint: {} files, {} checks, {} allowed, {} violation(s)",
            report.files,
            report.checks,
            report.allowed,
            report.violations.len()
        );
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", report.violations.len()).into())
    }
}

/// `pbppm stats run_metrics.json [--prom]`
///
/// Renders a telemetry report exported by `--metrics-out`: a human-readable
/// span/metric summary by default, Prometheus text exposition with
/// `--prom`.
pub fn stats(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pbppm stats <run_metrics.json> [--prom]")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let report = pbppm_obs::RunReport::from_json(&raw).map_err(|e| format!("{path}: {e}"))?;
    if args.switch("prom") {
        print!("{}", report.render_prometheus());
    } else {
        print!("{}", report.render_text());
    }
    Ok(())
}
