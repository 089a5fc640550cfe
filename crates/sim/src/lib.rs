//! # pbppm-sim — the trace-driven prefetching simulator
//!
//! The evaluation substrate of the PB-PPM paper (§2.2, §4, §5): a simulated
//! web server running one of the prediction models from `pbppm-core`,
//! serving clients (browsers and proxies) replayed from a `pbppm-trace`
//! trace, with prefetching decided per request and the paper's four metrics
//! collected.
//!
//! * [`cache`] — byte-capacity LRU cache with prefetch-hit attribution;
//! * [`latency`] — the linear (connect + transfer) latency model;
//! * [`server`] — the prefetch policy applied to model predictions;
//! * [`engine`] — the §4 driver: train on days `1..N`, evaluate day `N+1`
//!   against a caching-only baseline;
//! * [`proxy`] — the §5 driver: 1–32 clients behind one shared proxy;
//! * [`metrics`] — hit ratio, latency reduction, traffic increment;
//! * [`config`] — serializable experiment configuration.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod latency;
pub mod metrics;
pub mod network;
pub mod proxy;
pub mod server;

pub use cache::{Lookup, LruCache};
pub use config::{ExperimentConfig, ModelSpec, PrefetchPolicy};
pub use engine::{
    run_experiment, run_experiment_full, run_models, CacheTelemetry, ExperimentOutcome, RunResult,
    RunTelemetry,
};
pub use latency::LatencyModel;
pub use metrics::{latency_reduction, Counters};
pub use network::{run_network_experiment, NetworkCounters, NetworkRunResult, SharedLink};
pub use proxy::{run_proxy_experiment, ProxyExperimentConfig, ProxyRunResult};
pub use server::PrefetchServer;
