//! Extended comparison against the related-work baselines the paper cites:
//! first-order Markov prediction (Bestavros; Padmanabhan & Mogul; Sarukkai)
//! and the popularity-only Top-10 push (Markatos & Chronaki), plus the
//! sliding-window online PB-PPM variant this crate adds.
//!
//! Not a table in the paper — an extension experiment that locates PB-PPM
//! between the two families it hybridizes: context-only prediction (order-1
//! Markov, PPM, LRS) and popularity-only push (Top-N).

use crate::{nasa_trace, pct, ucb_trace, write_json, Table};
use pbppm_core::{parallel_map, PbConfig};
use pbppm_sim::{run_experiment, ExperimentConfig, ModelSpec};
use pbppm_trace::Trace;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct Row {
    model: String,
    trace: String,
    result: pbppm_sim::RunResult,
}

fn specs() -> Vec<(String, ModelSpec)> {
    vec![
        ("PPM".into(), ModelSpec::Standard { max_height: None }),
        (
            "3-PPM".into(),
            ModelSpec::Standard {
                max_height: Some(3),
            },
        ),
        ("LRS".into(), ModelSpec::Lrs),
        ("O1-Markov".into(), ModelSpec::Order1),
        ("Top-10".into(), ModelSpec::TopN { n: 10 }),
        ("Top-50".into(), ModelSpec::TopN { n: 50 }),
        ("PB-PPM".into(), ModelSpec::pb_paper(true)),
        (
            "PB-online".into(),
            ModelSpec::PbOnline {
                cfg: PbConfig {
                    prune: pbppm_core::PruneConfig::aggressive(),
                    ..PbConfig::default()
                },
                window: 20_000,
                rebuild_every: 2_000,
            },
        ),
    ]
}

fn report(trace: &Trace, train_days: usize) -> Vec<Row> {
    let specs = specs();
    let rows: Vec<Row> = parallel_map(&specs, |(label, spec)| {
        let mut cfg = ExperimentConfig::paper_default(spec.clone(), train_days);
        if let ModelSpec::TopN { .. } = spec {
            // Markatos's scheme pushes the top documents unconditionally
            // ("servers regularly push their most popular documents") —
            // under the paper's 0.25 possibility threshold a single
            // document's traffic share never qualifies, so Top-N gets its
            // natural thresholdless policy here.
            cfg.policy.prob_threshold = 0.0;
            cfg.policy.max_per_request = 10;
        }
        Row {
            model: label.clone(),
            trace: trace.name.clone(),
            result: run_experiment(trace, &cfg),
        }
    });
    let mut table = Table::new(
        format!(
            "Related-work comparison — {}, {} training days",
            trace.name, train_days
        ),
        &["model", "nodes", "hit", "latency-", "traffic+", "accuracy"],
    );
    for r in &rows {
        table.row(vec![
            r.model.clone(),
            r.result.node_count.to_string(),
            pct(r.result.hit_ratio()),
            pct(r.result.latency_reduction()),
            pct(r.result.traffic_increment()),
            pct(r.result.counters.prefetch_accuracy()),
        ]);
    }
    table.print();
    rows
}

pub fn run() {
    let nasa = nasa_trace();
    let rows_nasa = report(&nasa, 5);
    let ucb = ucb_trace();
    let rows_ucb = report(&ucb, 4);
    let mut all = rows_nasa;
    all.extend(rows_ucb);
    write_json("related", &all);
}
