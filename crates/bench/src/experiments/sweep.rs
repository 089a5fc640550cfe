//! Tables 1–2 and Figures 2–4 — the paper's §4 experiment: train each
//! model on the first N days of a trace and evaluate on day N+1, for a
//! range of N. The grid runs once per trace:
//!
//! * NASA-like: PPM, 3-PPM, LRS and PB-PPM × days 1–7
//!   (`results/sweep_nasa.json`);
//! * UCB-like: PPM, LRS and PB-PPM × days 1–5 (`results/sweep_ucb.json`).
//!
//! Every table below is a pure function of those cells.
//!
//! **Table 1** — space in nodes, NASA-like. Paper reference (NASA-KSC,
//! July 1995):
//!
//! | days | 1 | 2 | 3 | 4 | 5 | 6 | 7 |
//! |------|---|---|---|---|---|---|---|
//! | PPM  | 424,387 | 1,080,950 | 1,674,680 | 2,588,131 | 3,115,732 | 3,575,437 | 4,133,146 |
//! | LRS  | 9,715 | 19,567 | 33,233 | 44,325 | 56,635 | 70,247 | 82,525 |
//! | PB   | 5,527 | 7,164 | 8,476 | 9,156 | 9,276 | 9,976 | 10,411 |
//!
//! The standard model dwarfs both compact models and grows fastest; LRS
//! grows steadily; PB-PPM stays smallest and grows slowest. Table 1b adds
//! the day-7 storage detail, the model's `.pbss` size (`snapshot_bytes`,
//! URL table included) next to its in-memory bytes.
//!
//! **Table 2** — space in nodes, UCB-like. Paper reference (UCB-CS, July
//! 2000; PB with both space optimizations):
//!
//! | days | 1 | 2 | 3 | 4 | 5 |
//! |------|---|---|---|---|---|
//! | PPM  | 3,339,315 | 8,872,552 | 10,674,669 | 21,579,994 | 43,365,678 |
//! | LRS  | 16,200 | 39,437 | 78,816 | 108,521 | 390,916 |
//! | PB   | 3,804 | 4,609 | 6,192 | 7,684 | 10,981 |
//!
//! "The space reductions by the popularity-based [model are] 10 to several
//! dozen times compared with the LRS model", and the standard model is
//! orders of magnitude larger still.
//!
//! **Figure 2** — NASA-like, with the height-3 standard model ("3-PPM"):
//! (left) popular documents are ≥ 60% of prefetch hits in every model,
//! PB-PPM highest (70–75% in the paper), the standard model lowest;
//! (right) path utilization of 3-PPM and LRS decays as days accumulate
//! (3-PPM below 20%, LRS toward 40%), while PB-PPM stays far above both
//! (92–100%).
//!
//! **Figure 3** — hit ratio and latency reduction. On NASA PB-PPM's hit
//! ratio is the highest (5–10% over the others in most cases) and it saves
//! 4–15% more latency. On UCB the margins shrink: the paper reports the
//! standard model a couple of points above PB-PPM, with PB-PPM still well
//! above LRS and by far the most cost-effective.
//!
//! **Figure 4** — LRS's node count grows quickly while PB-PPM's grows much
//! more slowly (LRS 1.73–6.9× more on NASA, 10–several-dozen× on UCB).
//! Traffic increments are modest; the paper reports the standard model
//! highest (≈14% NASA, ≈21% UCB). Here PB-PPM pays the most traffic for its
//! extra hits (its push channel is the only one that stays active under
//! the 0.25 threshold); EXPERIMENTS.md analyzes the deviation.

use crate::{nasa_trace, paper_models, pct, sweep, ucb_trace, write_json, Cell, Table};
use pbppm_sim::{ModelSpec, RunResult};

/// The NASA-like grid's models: the paper's three plus Fig. 2's 3-PPM.
fn nasa_models() -> Vec<(&'static str, ModelSpec)> {
    let mut models = paper_models();
    let three_ppm = ModelSpec::Standard {
        max_height: Some(3),
    };
    models.insert(1, ("3-PPM", three_ppm));
    models
}

pub fn run() {
    let nasa = nasa_trace();
    let nasa_cells = sweep(&nasa, &nasa_models(), &(1..=7).collect::<Vec<_>>());
    let ucb = ucb_trace();
    let ucb_cells = sweep(&ucb, &paper_models(), &(1..=5).collect::<Vec<_>>());

    let tables = [
        table1(&nasa.name, &nasa_cells),
        vec![table2(&ucb.name, &ucb_cells)],
        fig2(&nasa.name, &nasa_cells),
        fig3(&nasa.name, &nasa_cells),
        fig3(&ucb.name, &ucb_cells),
        fig4(&nasa.name, &nasa_cells),
        fig4(&ucb.name, &ucb_cells),
    ];
    for table in tables.iter().flatten() {
        table.print();
    }
    write_json("sweep_nasa", &nasa_cells);
    write_json("sweep_ucb", &ucb_cells);
}

/// One trace's cells, read by (model, days).
struct Grid<'a> {
    cells: &'a [Cell],
    /// The swept training windows, ascending.
    days: Vec<usize>,
}

impl<'a> Grid<'a> {
    fn new(cells: &'a [Cell]) -> Self {
        let mut days: Vec<usize> = cells.iter().map(|c| c.days).collect();
        days.sort_unstable();
        days.dedup();
        Self { cells, days }
    }

    fn cell(&self, model: &str, days: usize) -> &'a Cell {
        self.cells
            .iter()
            .find(|c| c.model == model && c.days == days)
            .expect("the sweep ran every (model, days) cell")
    }

    /// A table titled `title` with one column per training window.
    fn table(&self, title: String) -> Table {
        let mut headers = vec!["days".to_string()];
        headers.extend(self.days.iter().map(|d| d.to_string()));
        Table::new(
            title,
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        )
    }

    /// `model`'s row: `value` of its result at each training window.
    fn row(&self, model: &str, value: impl Fn(&RunResult) -> String) -> Vec<String> {
        let mut row = vec![model.to_string()];
        row.extend(
            self.days
                .iter()
                .map(|&d| value(&self.cell(model, d).result)),
        );
        row
    }

    /// Node counts of the paper's three models, then the paper's headline
    /// ratio, LRS nodes over PB nodes.
    fn space(&self, title: String) -> Table {
        let mut table = self.table(title);
        for model in ["PPM", "LRS", "PB-PPM"] {
            table.row(self.row(model, |r| r.node_count.to_string()));
        }
        let mut ratio = vec!["LRS/PB".to_string()];
        for &d in &self.days {
            let lrs = self.cell("LRS", d).result.node_count;
            let pb = self.cell("PB-PPM", d).result.node_count;
            ratio.push(format!("{:.1}x", lrs as f64 / pb.max(1) as f64));
        }
        table.row(ratio);
        table
    }
}

/// Table 1 (space in nodes) and Table 1b (storage detail at the deepest
/// window: the structural gauges the telemetry registry publishes, and
/// the model file's size).
pub fn table1(trace: &str, cells: &[Cell]) -> Vec<Table> {
    let grid = Grid::new(cells);
    let space = grid.space(format!("Table 1 — space (nodes), {trace} trace"));
    let last = *grid.days.last().expect("non-empty day sweep");
    let mut detail = Table::new(
        format!("Table 1b — storage detail, day {last}, {trace} trace"),
        &[
            "model",
            "nodes",
            "edges",
            "special links",
            "approx bytes",
            "file bytes",
        ],
    );
    for model in ["PPM", "LRS", "PB-PPM"] {
        let cell = grid.cell(model, last);
        let stats = cell.result.model_stats.expect("prefetch runs carry stats");
        detail.row(vec![
            model.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            stats.special_links.to_string(),
            stats.total_bytes().to_string(),
            cell.snapshot_bytes
                .map_or_else(|| "-".to_owned(), |b| b.to_string()),
        ]);
    }
    vec![space, detail]
}

/// Table 2: space in nodes.
pub fn table2(trace: &str, cells: &[Cell]) -> Table {
    Grid::new(cells).space(format!("Table 2 — space (nodes), {trace} trace"))
}

/// Figure 2: popular share of prefetch hits (left) and path utilization
/// (right).
pub fn fig2(trace: &str, cells: &[Cell]) -> Vec<Table> {
    let grid = Grid::new(cells);
    let mut left = grid.table(format!(
        "Figure 2 (left) — popular share of prefetch hits, {trace}"
    ));
    let mut right = grid.table(format!("Figure 2 (right) — path utilization rate, {trace}"));
    for model in ["3-PPM", "LRS", "PB-PPM"] {
        left.row(grid.row(model, |r| pct(r.popular_prefetch_fraction())));
        right.row(grid.row(model, |r| pct(r.path_utilization())));
    }
    vec![left, right]
}

/// Figure 3: hit ratio (under a caching-only baseline row) and latency
/// reduction.
pub fn fig3(trace: &str, cells: &[Cell]) -> Vec<Table> {
    let grid = Grid::new(cells);
    let mut hit = grid.table(format!("Figure 3 — hit ratio, {trace}"));
    let mut lat = grid.table(format!(
        "Figure 3 — latency reduction vs no-prefetch, {trace}"
    ));
    // The caching-only baseline does not depend on the model.
    let mut base = vec!["baseline".to_string()];
    base.extend(
        grid.days
            .iter()
            .map(|&d| pct(grid.cell("PPM", d).result.baseline_hit_ratio())),
    );
    hit.row(base);
    for model in ["PPM", "LRS", "PB-PPM"] {
        hit.row(grid.row(model, |r| pct(r.hit_ratio())));
        lat.row(grid.row(model, |r| pct(r.latency_reduction())));
    }
    vec![hit, lat]
}

/// Figure 4: node growth of the two compact models and every model's
/// traffic increment.
pub fn fig4(trace: &str, cells: &[Cell]) -> Vec<Table> {
    let grid = Grid::new(cells);
    let mut nodes = grid.table(format!("Figure 4 — space (nodes), LRS vs PB-PPM, {trace}"));
    for model in ["LRS", "PB-PPM"] {
        nodes.row(grid.row(model, |r| r.node_count.to_string()));
    }
    let mut traffic = grid.table(format!("Figure 4 — traffic increment, {trace}"));
    for model in ["PPM", "LRS", "PB-PPM"] {
        traffic.row(grid.row(model, |r| pct(r.traffic_increment())));
    }
    vec![nodes, traffic]
}
