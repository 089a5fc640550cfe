//! Offline prediction quality — model accuracy isolated from cache
//! dynamics (an extension experiment; not a figure in the paper).
//!
//! For every model: coverage (how often it has anything to say),
//! precision@1 / @5 against the actual next click, mean reciprocal rank,
//! and useful@5 (a top-5 prediction is visited before the session ends —
//! the quantity prefetching actually monetizes). Evaluated on the held-out
//! day after 5 training days, with the deployment probability threshold.

use crate::{nasa_trace, pct, ucb_trace, write_json, Table};
use pbppm_core::{evaluate, parallel_map, EvalConfig, PopularityTable, PredictionQuality, UrlId};
use pbppm_sim::{ExperimentConfig, ModelSpec};
use pbppm_trace::{sessionize, Trace};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct QualityRow {
    model: String,
    trace: String,
    quality: PredictionQuality,
}

fn report(trace: &Trace, train_days: usize) -> Vec<QualityRow> {
    let base = ExperimentConfig::paper_default(ModelSpec::Lrs, train_days);
    let train = sessionize(trace.first_days(train_days), &base.sessionizer);
    let eval_sessions = sessionize(
        trace.day_span(train_days, train_days + 1),
        &base.sessionizer,
    );
    let eval_urls: Vec<Vec<UrlId>> = eval_sessions.iter().map(|s| s.urls()).collect();
    let mut popb = PopularityTable::builder();
    for s in &train {
        for v in &s.views {
            popb.record(v.url);
        }
    }
    let pop = popb.build();

    let specs: Vec<(String, ModelSpec)> = vec![
        ("PPM".into(), ModelSpec::Standard { max_height: None }),
        (
            "3-PPM".into(),
            ModelSpec::Standard {
                max_height: Some(3),
            },
        ),
        ("LRS".into(), ModelSpec::Lrs),
        ("O1-Markov".into(), ModelSpec::Order1),
        ("PB-PPM".into(), ModelSpec::pb_paper(true)),
    ];
    let rows: Vec<QualityRow> = parallel_map(&specs, |(label, spec)| {
        let mut model = spec.build(&train, &pop).expect("model");
        let cfg = EvalConfig {
            prob_threshold: 0.25,
            k: 5,
            horizon: usize::MAX,
        };
        let quality = evaluate(model.as_mut(), &eval_urls, base.context_cap, &cfg);
        QualityRow {
            model: label.clone(),
            trace: trace.name.clone(),
            quality,
        }
    });

    let mut table = Table::new(
        format!(
            "Offline prediction quality — {}, {} training days (threshold 0.25, k = 5)",
            trace.name, train_days
        ),
        &[
            "model",
            "coverage",
            "prec@1",
            "prec@5",
            "MRR",
            "useful@5",
            "preds/ctx",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.model.clone(),
            pct(r.quality.coverage()),
            pct(r.quality.precision_at_1()),
            pct(r.quality.precision_at_k()),
            format!("{:.3}", r.quality.mrr()),
            pct(r.quality.useful_rate()),
            format!("{:.2}", r.quality.emitted_per_context()),
        ]);
    }
    table.print();
    rows
}

/// Regenerates the offline-quality tables for both workloads.
pub fn run() {
    let nasa = nasa_trace();
    let mut rows = report(&nasa, 5);
    let ucb = ucb_trace();
    rows.extend(report(&ucb, 4));
    write_json("quality", &rows);
}
