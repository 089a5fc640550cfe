//! Ablation study over PB-PPM's design choices (DESIGN.md §5, "ablation
//! benches for the design choices").
//!
//! Variants, all trained on 5 days of the NASA-like trace:
//!
//! * `PB (paper)`    — both space optimizations, special links on;
//! * `PB rel-only`   — only the 1% relative-probability cut (the paper's
//!   NASA setting);
//! * `PB no-prune`   — no space optimization at all;
//! * `PB no-links`   — rule 3 special links disabled;
//! * `PB flat-5`     — grade-independent heights `[5,5,5,5]` (tests rule 1);
//! * `PB tall`       — heights `[3,5,7,9]`;
//! * `PB short`      — heights `[1,2,3,4]`.

use crate::{nasa_trace, pct, write_json, Table};
use pbppm_core::{parallel_map, PbConfig, PruneConfig};
use pbppm_sim::{run_experiment, ExperimentConfig, ModelSpec};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct AblationCell {
    variant: String,
    result: pbppm_sim::RunResult,
}

pub fn run() {
    let trace = nasa_trace();
    let train_days = 5;

    let paper = PbConfig {
        prune: PruneConfig::aggressive(),
        ..PbConfig::default()
    };
    let variants: Vec<(String, PbConfig)> = vec![
        ("PB (paper)".into(), paper),
        (
            "PB rel-only".into(),
            PbConfig {
                prune: PruneConfig::default(),
                ..paper
            },
        ),
        (
            "PB no-prune".into(),
            PbConfig {
                prune: PruneConfig::disabled(),
                ..paper
            },
        ),
        (
            "PB no-links".into(),
            PbConfig {
                special_links: false,
                ..paper
            },
        ),
        (
            "PB flat-5".into(),
            PbConfig {
                heights: [5, 5, 5, 5],
                ..paper
            },
        ),
        (
            "PB tall".into(),
            PbConfig {
                heights: [3, 5, 7, 9],
                max_order: 10,
                ..paper
            },
        ),
        (
            "PB short".into(),
            PbConfig {
                heights: [1, 2, 3, 4],
                ..paper
            },
        ),
    ];

    let cells: Vec<AblationCell> = parallel_map(&variants, |(label, cfg)| {
        let ecfg = ExperimentConfig::paper_default(ModelSpec::Pb(*cfg), train_days);
        AblationCell {
            variant: label.clone(),
            result: run_experiment(&trace, &ecfg),
        }
    });

    let mut table = Table::new(
        "PB-PPM ablations — nasa-like, 5 training days",
        &[
            "variant",
            "nodes",
            "hit",
            "latency-",
            "traffic+",
            "pop-frac",
            "path-util",
        ],
    );
    for c in &cells {
        table.row(vec![
            c.variant.clone(),
            c.result.node_count.to_string(),
            pct(c.result.hit_ratio()),
            pct(c.result.latency_reduction()),
            pct(c.result.traffic_increment()),
            pct(c.result.popular_prefetch_fraction()),
            pct(c.result.path_utilization()),
        ]);
    }
    table.print();
    write_json("ablation", &cells);
}
