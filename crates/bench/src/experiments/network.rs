//! Network effects of prefetching — an extension experiment after
//! Crovella & Barford (INFOCOM '98), cited in the paper's related work.
//!
//! Demand and prefetch traffic share one finite server link; sweeping the
//! link capacity moves the system from underload to saturation. The
//! expected shape: with ample bandwidth every prefetcher reduces latency;
//! as the link saturates, the *extra bytes* poison the queue and the
//! aggressive pushers flip to hurting users before the conservative ones
//! do. PB-PPM's accuracy buys it a gentler collapse per byte pushed.

use crate::{nasa_trace, pct, write_json, Table};
use pbppm_core::parallel_map;
use pbppm_sim::{run_network_experiment, ExperimentConfig, ModelSpec, NetworkRunResult};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct NetworkCell {
    model: String,
    bytes_per_sec: f64,
    result: NetworkRunResult,
}

/// Regenerates the latency-vs-load sweep.
pub fn run() {
    let trace = nasa_trace();
    let train_days = 5;
    // Calibrate: the evaluation day's average demand rate (bytes/s) with
    // caching but no prefetching, measured on an effectively infinite link.
    let probe = run_network_experiment(
        &trace,
        &ExperimentConfig::paper_default(ModelSpec::NoPrefetch, train_days),
        1e12,
    );
    let demand_rate = probe.baseline.sent_bytes as f64 / 86_400.0;
    println!(
        "evaluation-day demand: {} MB over the day (avg {:.1} KB/s)",
        probe.baseline.sent_bytes / 1_000_000,
        demand_rate / 1000.0
    );
    // Sweep the offered-load factor rho = demand_rate / capacity.
    let rhos: Vec<f64> = vec![0.05, 0.2, 0.5, 0.8, 0.95];
    let capacities: Vec<f64> = rhos.iter().map(|r| demand_rate / r).collect();
    let models = vec![
        ("PPM".to_string(), ModelSpec::Standard { max_height: None }),
        ("LRS".to_string(), ModelSpec::Lrs),
        ("PB-PPM".to_string(), ModelSpec::pb_paper(true)),
    ];

    let jobs: Vec<(String, ModelSpec, f64)> = capacities
        .iter()
        .flat_map(|&c| models.iter().map(move |(l, s)| (l.clone(), s.clone(), c)))
        .collect();
    let cells: Vec<NetworkCell> = parallel_map(&jobs, |(label, spec, cap)| {
        let cfg = ExperimentConfig::paper_default(spec.clone(), train_days);
        NetworkCell {
            model: label.clone(),
            bytes_per_sec: *cap,
            result: run_network_experiment(&trace, &cfg, *cap),
        }
    });

    let mut headers = vec!["load".to_string()];
    headers.extend(rhos.iter().map(|r| format!("rho={r}")));
    let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut lat = Table::new(
        "Network effects — latency change from prefetching (negative = prefetching hurts)",
        &headers,
    );
    let mut util = Table::new(
        "Network effects — link utilization with prefetching",
        &headers,
    );
    for (label, _) in &models {
        let mut lrow = vec![label.clone()];
        let mut urow = vec![label.clone()];
        for &c in &capacities {
            let cell = cells
                .iter()
                .find(|x| &x.model == label && x.bytes_per_sec == c)
                .expect("cell");
            lrow.push(pct(cell.result.latency_reduction()));
            urow.push(pct(cell.result.with_prefetch.utilization));
        }
        lat.row(lrow);
        util.row(urow);
    }
    lat.print();
    util.print();
    write_json("network", &cells);
}
