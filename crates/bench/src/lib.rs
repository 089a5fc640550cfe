//! # pbppm-bench — the table/figure regeneration harness
//!
//! One binary per table and figure of the paper's evaluation:
//!
//! | binary   | regenerates |
//! |----------|-------------|
//! | `fig1`   | Figure 1 — the didactic standard-vs-PB tree shapes |
//! | `fig2`   | Figure 2 — popular fraction of prefetch hits, path utilization |
//! | `fig3`   | Figure 3 — hit ratios and latency reductions, both traces |
//! | `fig4`   | Figure 4 — node growth and traffic increments, both traces |
//! | `fig5`   | Figure 5 — server↔proxy hit ratios and traffic, 1–32 clients |
//! | `table1` | Table 1 — space in nodes per model, NASA-like, days 1–7 |
//! | `table2` | Table 2 — space in nodes per model, UCB-like, days 1–5 |
//! | `ablation` | PB-PPM design-choice ablations (links, pruning, heights) |
//! | `threshold` | every model at matched prefetch size caps |
//! | `related` | order-1 Markov, Top-N, and online PB-PPM comparisons |
//! | `quality` | offline prediction accuracy (coverage, precision@k, MRR) |
//! | `network` | Crovella–Barford network effects under offered load |
//! | `throughput` | predict/simulate throughput + the fast-path floor |
//! | `ingest` | parallel log→model build-pipeline throughput + its floors |
//! | `all`    | everything above, in sequence; `--check` compares against `results/` |
//!
//! Every binary prints an aligned text table *and* writes machine-readable
//! JSON under `results/`. All runs are deterministic: the workload seed
//! defaults to 1 (override with `PBPPM_SEED`), and experiment cells are
//! executed in parallel over the machine's cores.
//!
//! `throughput` and `ingest` enforce only host-independent floors (a
//! ratio of two timings taken in the same run, or a heap ratio) and exit
//! nonzero when one is broken; their absolute timings are reported, never
//! compared with another run. A speed claim is judged by a paired
//! parent-vs-change perfbench run on one host (`scripts/perf-compare.sh`).

#![forbid(unsafe_code)]

use pbppm_sim::{parallel_map, ExperimentConfig, ModelSpec, RunResult};
use pbppm_trace::{Trace, WorkloadConfig};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The workload seed, from `PBPPM_SEED` (default 1).
pub fn seed() -> u64 {
    std::env::var("PBPPM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Generates the NASA-like trace used by every NASA experiment.
pub fn nasa_trace() -> Trace {
    WorkloadConfig::nasa_like(seed()).generate()
}

/// Generates the UCB-like trace used by every UCB experiment.
pub fn ucb_trace() -> Trace {
    WorkloadConfig::ucb_like(seed()).generate()
}

/// The paper's three contenders, in the order the tables print them.
///
/// * the standard model, unbounded height (§4.1: "we did not limit the
///   height … an upper bound of prediction accuracy");
/// * the LRS model;
/// * popularity-based PPM with both space optimizations (see DESIGN.md §4).
pub fn paper_models() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("PPM", ModelSpec::Standard { max_height: None }),
        ("LRS", ModelSpec::Lrs),
        ("PB-PPM", ModelSpec::pb_paper(true)),
    ]
}

/// One experiment cell: a model trained on `days` days of `trace`.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Model label.
    pub model: String,
    /// Training-window length in days.
    pub days: usize,
    /// The full run result.
    pub result: RunResult,
}

/// Runs the full (model × training-days) grid in parallel.
pub fn sweep(trace: &Trace, models: &[(&str, ModelSpec)], days: &[usize]) -> Vec<Cell> {
    let jobs: Vec<(String, ModelSpec, usize)> = days
        .iter()
        .flat_map(|&d| {
            models
                .iter()
                .map(move |(label, spec)| (label.to_string(), spec.clone(), d))
        })
        .collect();
    parallel_map(&jobs, |(label, spec, d)| {
        let cfg = ExperimentConfig::paper_default(spec.clone(), *d);
        Cell {
            model: label.clone(),
            days: *d,
            result: pbppm_sim::run_experiment(trace, &cfg),
        }
    })
}

/// A printable result table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table caption (printed as a header).
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Rows: label + one string per remaining header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(s, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(s, "  {:>width$}", cell, width = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory JSON results are written to (`results/` beside the workspace
/// root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PBPPM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // crates/bench -> workspace root
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop();
            p.pop();
            p.push("results");
            p
        });
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a serializable value as pretty JSON under `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {}: {e}", path.display()),
    }
}

/// Prints each broken host-independent floor of `bench` and exits 1 if
/// there is any.
pub fn enforce_floors(bench: &str, failures: &[String]) {
    for f in failures {
        eprintln!("{bench}: FLOOR BROKEN — {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["model", "nodes", "hit"]);
        t.row(vec!["PPM".into(), "123456".into(), "43.1%".into()]);
        t.row(vec!["PB-PPM".into(), "99".into(), "48.0%".into()]);
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("PPM"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.431), "43.1%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn paper_models_are_three() {
        let m = paper_models();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].0, "PPM");
        assert_eq!(m[2].0, "PB-PPM");
    }

    #[test]
    fn sweep_produces_model_by_day_grid() {
        let trace = WorkloadConfig::tiny(3).generate();
        let models = paper_models();
        let cells = sweep(&trace, &models, &[1, 2]);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].days, 1);
        assert_eq!(cells[0].model, "PPM");
        assert_eq!(cells[5].days, 2);
        assert_eq!(cells[5].model, "PB-PPM");
        assert!(cells.iter().all(|c| c.result.eval_requests > 0));
    }
}
pub mod check;
pub mod experiments;
