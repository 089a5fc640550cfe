//! Table 1 — space size in number of nodes used by each model on the
//! NASA-like trace, as the number of training days grows from 1 to 7.
//!
//! Paper reference (NASA-KSC, July 1995):
//!
//! | days | 1 | 2 | 3 | 4 | 5 | 6 | 7 |
//! |------|---|---|---|---|---|---|---|
//! | PPM  | 424,387 | 1,080,950 | 1,674,680 | 2,588,131 | 3,115,732 | 3,575,437 | 4,133,146 |
//! | LRS  | 9,715 | 19,567 | 33,233 | 44,325 | 56,635 | 70,247 | 82,525 |
//! | PB   | 5,527 | 7,164 | 8,476 | 9,156 | 9,276 | 9,976 | 10,411 |
//!
//! The shape to reproduce: the standard model dwarfs both compact models
//! and grows fastest; LRS grows steadily; PB-PPM stays smallest and grows
//! slowest.
//!
//! Each cell also reports its model's size on disk: the `.pbss` file
//! `pbppm train` would write, URL table included (`snapshot_bytes`), next
//! to the in-memory `model_stats.memory_bytes`.

use crate::{nasa_trace, paper_models, sweep, write_json, Table};

pub fn run() {
    let trace = nasa_trace();
    let days: Vec<usize> = (1..=7).collect();
    let models = paper_models();
    let cells = sweep(&trace, &models, &days);

    let mut headers = vec!["days".to_string()];
    headers.extend(days.iter().map(|d| d.to_string()));
    let mut table = Table::new(
        format!("Table 1 — space (nodes), {} trace", trace.name),
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (label, _) in &models {
        let mut row = vec![label.to_string()];
        for &d in &days {
            let cell = cells
                .iter()
                .find(|c| c.model == *label && c.days == d)
                .expect("cell");
            row.push(cell.result.node_count.to_string());
        }
        table.row(row);
    }
    // The paper's headline ratio: LRS nodes over PB nodes per day.
    let mut ratio = vec!["LRS/PB".to_string()];
    for &d in &days {
        let lrs = cells
            .iter()
            .find(|c| c.model == "LRS" && c.days == d)
            .unwrap()
            .result
            .node_count;
        let pb = cells
            .iter()
            .find(|c| c.model == "PB-PPM" && c.days == d)
            .unwrap()
            .result
            .node_count;
        ratio.push(format!("{:.1}x", lrs as f64 / pb.max(1) as f64));
    }
    table.row(ratio);
    table.print();

    // Storage detail at the deepest training window: the same structural
    // gauges the telemetry registry publishes (`model.nodes`, `model.edges`,
    // `model.special_links`, `model.bytes`), tabulated side by side.
    let last = *days.last().expect("non-empty day sweep");
    let mut detail = Table::new(
        format!(
            "Table 1b — storage detail, day {last}, {} trace",
            trace.name
        ),
        &[
            "model",
            "nodes",
            "edges",
            "special links",
            "approx bytes",
            "file bytes",
        ],
    );
    for (label, _) in &models {
        let cell = cells
            .iter()
            .find(|c| c.model == *label && c.days == last)
            .expect("cell");
        let stats = cell.result.model_stats.expect("prefetch runs carry stats");
        detail.row(vec![
            label.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            stats.special_links.to_string(),
            stats.total_bytes().to_string(),
            cell.snapshot_bytes
                .map_or_else(|| "-".to_owned(), |b| b.to_string()),
        ]);
    }
    detail.print();

    write_json("table1", &cells);
}
