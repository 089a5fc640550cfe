//! Figure 5 — prefetching between servers and proxies (§5): total hit
//! ratios (left) and network traffic increments (right) as the number of
//! clients behind one proxy grows from 1 to 32, on the NASA-like trace.
//!
//! Four configurations, as in the paper: standard PPM, LRS, and PB-PPM with
//! 4 KB and 10 KB prefetch size thresholds ("PB-4KB", "PB-10KB").
//!
//! Shapes to reproduce: every curve rises with client count (the shared
//! proxy cache aggregates more locality); LRS is the lowest hit-ratio
//! curve; PB-10KB the highest; the standard model sits between, approaching
//! PB-4KB at high client counts; traffic increments *decrease* as clients
//! are added.

use crate::{pct, seed, write_json, Table};
use pbppm_core::parallel_map;
use pbppm_sim::{
    run_proxy_experiment, ExperimentConfig, ModelSpec, ProxyExperimentConfig, ProxyRunResult,
};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct ProxyCell {
    model: String,
    clients: usize,
    result: ProxyRunResult,
}

pub fn run() {
    // A denser client pool than the §4 experiments: each client funnels
    // roughly ten times more traffic, which is what makes per-proxy cells
    // with 1-8 clients statistically meaningful.
    let mut wl = pbppm_trace::WorkloadConfig::nasa_like(seed());
    wl.n_clients = 120;
    wl.client_alpha = 0.2;
    let trace = wl.generate();
    let train_days = 5;
    let client_counts = [1usize, 2, 4, 8, 16, 24, 32];

    // Three evaluation days give the low-client-count cells enough volume
    // for stable statistics.
    let eval_days = 3;
    let mk = |spec: ModelSpec, threshold: Option<u64>| {
        let mut cfg = ExperimentConfig::paper_default(spec, train_days);
        cfg.eval_days = eval_days;
        if let Some(t) = threshold {
            cfg.policy.size_threshold = t;
        }
        cfg
    };
    let configs: Vec<(String, ExperimentConfig)> = vec![
        (
            "PPM".into(),
            mk(ModelSpec::Standard { max_height: None }, None),
        ),
        ("LRS".into(), mk(ModelSpec::Lrs, None)),
        ("PB-4KB".into(), mk(ModelSpec::pb_paper(true), Some(4_000))),
        (
            "PB-10KB".into(),
            mk(ModelSpec::pb_paper(true), Some(10_000)),
        ),
    ];

    let jobs: Vec<(String, ExperimentConfig, usize)> = client_counts
        .iter()
        .flat_map(|&k| {
            configs
                .iter()
                .map(move |(label, cfg)| (label.clone(), cfg.clone(), k))
        })
        .collect();
    let cells: Vec<ProxyCell> = parallel_map(&jobs, |(label, cfg, k)| {
        let pcfg = ProxyExperimentConfig {
            base: cfg.clone(),
            clients_per_proxy: *k,
            selection_seed: 7,
            min_client_views: 40,
            proxy_groups: 3,
        };
        ProxyCell {
            model: label.clone(),
            clients: *k,
            result: run_proxy_experiment(&trace, &pcfg),
        }
    });

    let mut headers = vec!["clients".to_string()];
    headers.extend(client_counts.iter().map(|k| k.to_string()));
    let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut hit = Table::new(
        "Figure 5 (left) — total proxy hit ratio, nasa-like, 5 training days",
        &headers,
    );
    let mut traffic = Table::new(
        "Figure 5 (right) — server-proxy traffic increment",
        &headers,
    );
    for (label, _) in &configs {
        let mut hrow = vec![label.clone()];
        let mut trow = vec![label.clone()];
        for &k in &client_counts {
            let cell = cells
                .iter()
                .find(|c| &c.model == label && c.clients == k)
                .expect("cell");
            hrow.push(pct(cell.result.hit_ratio()));
            trow.push(pct(cell.result.traffic_increment()));
        }
        hit.row(hrow);
        traffic.row(trow);
    }
    hit.print();
    traffic.print();
    write_json("fig5", &cells);
}
