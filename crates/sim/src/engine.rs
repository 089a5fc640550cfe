//! The §4 experiment driver: train on the first *N* days of a trace,
//! evaluate prefetching on day *N+1*.
//!
//! One [`run_experiment`] call performs the complete paper protocol:
//!
//! 1. sessionize the training window and compute URL popularity (two-pass);
//! 2. build and train the configured model;
//! 3. replay the last training day(s) to warm the browser/proxy caches;
//! 4. replay the evaluation day twice — once *without* prefetching (the
//!    latency-reduction baseline) and once with the model pushing documents
//!    on every miss — collecting the paper's four metrics.
//!
//! Clients classified as proxies get the 16 GB cache, browsers the 1 MB one
//! (§2.2). The server is assumed to receive each request's session context
//! (the paper's LRS discussion notes servers must track "all the previous
//! URLs of the current session"; we grant the same context to every model).

use crate::cache::{Lookup, LruCache};
use crate::config::{ExperimentConfig, ModelSpec};
use crate::metrics::{latency_reduction, Counters};
use crate::server::PrefetchServer;
use pbppm_core::{
    parallel_map_progress, FxHashMap, ModelStats, PopularityTable, PredictUsage, Prediction,
    SnapshotFile, UrlId,
};
use pbppm_obs::{obs_debug, span, LocalHist};
use pbppm_trace::{
    classify_clients, sessionize, ClientClass, ClientId, DocCatalog, Session, Trace,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The outcome of one experiment cell (one model × one training window).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Model label ("PPM", "LRS", "PB-PPM", …).
    pub label: String,
    /// Trace name the experiment ran on.
    pub trace: String,
    /// Days of history used for training.
    pub train_days: usize,
    /// Training sessions seen by the model.
    pub train_sessions: usize,
    /// Evaluation-day page views processed.
    pub eval_requests: u64,
    /// The paper's space metric: URL nodes stored by the model.
    pub node_count: usize,
    /// Structural model statistics (`None` for the no-prefetch baseline).
    pub model_stats: Option<ModelStats>,
    /// Metrics of the prefetching run.
    pub counters: Counters,
    /// Metrics of the caching-only baseline run on the same day.
    pub baseline: Counters,
}

impl RunResult {
    /// Hit ratio with prefetching.
    pub fn hit_ratio(&self) -> f64 {
        self.counters.hit_ratio()
    }

    /// Hit ratio of the caching-only baseline.
    pub fn baseline_hit_ratio(&self) -> f64 {
        self.baseline.hit_ratio()
    }

    /// Relative latency reduction versus the caching-only baseline.
    pub fn latency_reduction(&self) -> f64 {
        latency_reduction(&self.counters, &self.baseline)
    }

    /// Traffic increment of the prefetching run, relative to what the same
    /// configuration transfers *without* prefetching.
    ///
    /// The paper's traces are server logs: a request's bytes are "useful"
    /// only if they actually had to cross the network, so the natural
    /// denominator is the baseline run's transferred bytes.
    pub fn traffic_increment(&self) -> f64 {
        if self.baseline.sent_bytes == 0 {
            0.0
        } else {
            self.counters.sent_bytes as f64 / self.baseline.sent_bytes as f64 - 1.0
        }
    }

    /// Fraction of prefetch hits on popular documents (Fig. 2 left).
    pub fn popular_prefetch_fraction(&self) -> f64 {
        self.counters.popular_prefetch_fraction()
    }

    /// Path utilization of the model after the evaluation (Fig. 2 right).
    pub fn path_utilization(&self) -> f64 {
        self.model_stats.map_or(0.0, |s| s.path_utilization())
    }
}

/// Cache-event telemetry for one cache tier (browser or proxy), merged
/// from per-client shards in ascending-`ClientId` order so every field is
/// independent of the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Demand requests answered by a demand-fetched entry.
    pub demand_hits: u64,
    /// Demand requests answered by a prefetched entry.
    pub prefetch_hits: u64,
    /// Demand requests that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Bytes inserted on demand misses.
    pub demand_bytes: u64,
    /// Bytes inserted by prefetch pushes.
    pub prefetched_bytes: u64,
}

impl CacheTelemetry {
    fn merge(&mut self, other: &CacheTelemetry) {
        self.demand_hits += other.demand_hits;
        self.prefetch_hits += other.prefetch_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.demand_bytes += other.demand_bytes;
        self.prefetched_bytes += other.prefetched_bytes;
    }
}

/// Side-band telemetry of one evaluation pass. Everything except the
/// predict-latency buckets (wall time is never deterministic) is a pure
/// function of the workload: shards share nothing and merge in
/// ascending-`ClientId` order, exactly like [`Counters`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Cache events of browser-class clients.
    pub browser: CacheTelemetry,
    /// Cache events of proxy-class clients.
    pub proxy: CacheTelemetry,
    /// Warm-up page views replayed into the caches.
    pub warm_requests: u64,
    /// Server prediction calls (one per demand miss under prefetching).
    pub predict_calls: u64,
    /// Wall time of each prediction call, in nanoseconds. Bucket contents
    /// vary run to run; the count equals [`RunTelemetry::predict_calls`].
    pub predict_ns: LocalHist,
    /// Documents pushed per prediction call (the prefetch queue depth).
    pub push_depth: LocalHist,
    /// Bytes of prefetched documents that were later demanded (hit).
    pub prefetch_hit_bytes: u64,
}

impl RunTelemetry {
    fn merge(&mut self, other: &RunTelemetry) {
        self.browser.merge(&other.browser);
        self.proxy.merge(&other.proxy);
        self.warm_requests += other.warm_requests;
        self.predict_calls += other.predict_calls;
        self.predict_ns.merge(&other.predict_ns);
        self.push_depth.merge(&other.push_depth);
        self.prefetch_hit_bytes += other.prefetch_hit_bytes;
    }

    /// Prefetched bytes that were never demanded before the run ended —
    /// the traffic the prefetcher wasted outright.
    pub fn wasted_prefetch_bytes(&self) -> u64 {
        (self.browser.prefetched_bytes + self.proxy.prefetched_bytes)
            .saturating_sub(self.prefetch_hit_bytes)
    }
}

/// [`RunResult`] plus the telemetry of both evaluation passes and the
/// model's file size. Produced by [`run_experiment_full`];
/// [`run_experiment`] keeps only the result.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The paper metrics, unchanged from [`run_experiment`].
    pub result: RunResult,
    /// Telemetry of the prefetching run (of the baseline run when the
    /// model is [`ModelSpec::NoPrefetch`]).
    pub telemetry: RunTelemetry,
    /// Telemetry of the caching-only baseline run.
    pub baseline_telemetry: RunTelemetry,
    /// Size of the trained model as a `.pbss` file, the trace's URL table
    /// included; `None` for runs without a model file (no prefetching).
    pub snapshot_bytes: Option<u64>,
}

/// Effective size of a view's document per the shared catalog.
#[inline]
fn doc_size(catalog: &DocCatalog, url: UrlId) -> u64 {
    u64::from(catalog.size(url)).max(1)
}

/// Class of a client per the classifier's verdict (unknown → browser).
fn client_class(classes: &[ClientClass], client: ClientId) -> ClientClass {
    classes
        .get(client.index())
        .copied()
        .unwrap_or(ClientClass::Browser)
}

/// Cache capacity for a client class: browsers get the small cache,
/// proxies the big one.
fn cache_capacity(class: ClientClass, cfg: &ExperimentConfig) -> u64 {
    match class {
        ClientClass::Browser => cfg.browser_cache_bytes,
        ClientClass::Proxy => cfg.proxy_cache_bytes,
    }
}

/// One client's slice of the evaluation: its private cache capacity, the
/// warm-up sessions replayed into the cache first, and the eval sessions
/// actually scored. Clients never share caches or contexts, so shards are
/// fully independent.
struct ClientShard<'a> {
    client: ClientId,
    class: ClientClass,
    capacity: u64,
    warm: Vec<&'a Session>,
    eval: Vec<&'a Session>,
}

/// Splits the evaluation into per-client shards, ascending by [`ClientId`]
/// so the downstream merge order is a property of the workload, not of the
/// scheduler. Clients that only appear in the warm-up window are dropped:
/// their caches would never be read.
fn shard_by_client<'a>(
    warm_sessions: &'a [Session],
    eval_sessions: &'a [Session],
    classes: &[ClientClass],
    cfg: &ExperimentConfig,
) -> Vec<ClientShard<'a>> {
    let mut by_client: FxHashMap<ClientId, ClientShard<'a>> = FxHashMap::default();
    for s in eval_sessions {
        by_client
            .entry(s.client)
            .or_insert_with(|| {
                let class = client_class(classes, s.client);
                ClientShard {
                    client: s.client,
                    class,
                    capacity: cache_capacity(class, cfg),
                    warm: Vec::new(),
                    eval: Vec::new(),
                }
            })
            .eval
            .push(s);
    }
    for s in warm_sessions {
        if let Some(shard) = by_client.get_mut(&s.client) {
            shard.warm.push(s);
        }
    }
    let mut shards: Vec<ClientShard<'a>> = by_client.into_values().collect();
    shards.sort_by_key(|s| s.client);
    shards
}

/// Replays one client's shard: warms its private cache, then scores its
/// eval sessions. `server == None` is the caching-only baseline. Model
/// usage is recorded read-only and returned for a post-pass
/// [`Predictor::apply_usage`](pbppm_core::Predictor::apply_usage).
fn eval_client_shard(
    server: Option<&PrefetchServer>,
    shard: &ClientShard<'_>,
    catalog: &DocCatalog,
    popularity: &PopularityTable,
    cfg: &ExperimentConfig,
) -> (Counters, PredictUsage, RunTelemetry) {
    let mut obs = RunTelemetry::default();
    let mut tier = CacheTelemetry::default();
    let mut cache = LruCache::new(shard.capacity);
    for s in &shard.warm {
        for v in &s.views {
            obs.warm_requests += 1;
            let size = doc_size(catalog, v.url);
            if cache.demand(v.url) == Lookup::Miss {
                cache.insert(v.url, size, false);
            }
        }
    }

    let mut counters = Counters::default();
    let mut usage = PredictUsage::default();
    let mut scratch: Vec<Prediction> = Vec::new();
    let mut ctx: Vec<UrlId> = Vec::with_capacity(cfg.context_cap);
    let mut push: Vec<(UrlId, u64)> = Vec::new();

    for s in &shard.eval {
        ctx.clear();
        for v in &s.views {
            if ctx.len() == cfg.context_cap.max(1) {
                ctx.remove(0);
            }
            ctx.push(v.url);
            let size = doc_size(catalog, v.url);
            counters.requests += 1;
            counters.useful_bytes += size;
            match cache.demand(v.url) {
                Lookup::PrefetchHit => {
                    counters.prefetch_hits += 1;
                    if popularity.is_popular(v.url) {
                        counters.prefetch_hits_popular += 1;
                    }
                    counters.latency_secs += cfg.latency.hit_secs();
                    tier.prefetch_hits += 1;
                    obs.prefetch_hit_bytes += size;
                }
                Lookup::Hit => {
                    counters.cache_hits += 1;
                    counters.latency_secs += cfg.latency.hit_secs();
                    tier.demand_hits += 1;
                }
                Lookup::Miss => {
                    counters.sent_bytes += size;
                    counters.latency_secs += cfg.latency.fetch_secs(size);
                    cache.insert(v.url, size, false);
                    tier.misses += 1;
                    tier.demand_bytes += size;
                    if let Some(server) = server {
                        // Timed only when telemetry is compiled in: the
                        // prediction hot path stays clock-free otherwise.
                        let started = pbppm_obs::ENABLED.then(Instant::now);
                        server.decide_ro(
                            &ctx,
                            catalog,
                            |u| cache.contains(u),
                            &mut push,
                            &mut scratch,
                            &mut usage,
                        );
                        if let Some(started) = started {
                            obs.predict_ns.observe(
                                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            );
                        }
                        obs.predict_calls += 1;
                        obs.push_depth.observe(push.len() as u64);
                        for &(purl, psize) in &push {
                            counters.sent_bytes += psize;
                            counters.prefetched_docs += 1;
                            counters.prefetched_bytes += psize;
                            cache.insert(purl, psize, true);
                            tier.prefetched_bytes += psize;
                        }
                    }
                }
            }
        }
    }
    tier.evictions = cache.evictions();
    match shard.class {
        ClientClass::Browser => obs.browser = tier,
        ClientClass::Proxy => obs.proxy = tier,
    }
    (counters, usage, obs)
}

/// One evaluation pass over the eval sessions, sharded by client over
/// `cfg.threads` scoped workers (`0` = auto; see
/// [`pbppm_core::resolve_threads`]).
///
/// Results are independent of the thread count: shards share nothing,
/// workers only read the server, and both counters and model usage are
/// merged in ascending-`ClientId` shard order after the join.
fn eval_pass(
    server: Option<&PrefetchServer>,
    warm_sessions: &[Session],
    eval_sessions: &[Session],
    catalog: &DocCatalog,
    popularity: &PopularityTable,
    classes: &[ClientClass],
    cfg: &ExperimentConfig,
) -> (Counters, PredictUsage, RunTelemetry) {
    let shards = shard_by_client(warm_sessions, eval_sessions, classes, cfg);
    let total = shards.len();
    let per_shard = parallel_map_progress(
        &shards,
        cfg.threads,
        |shard| eval_client_shard(server, shard, catalog, popularity, cfg),
        |n| {
            if n.is_multiple_of(64) || n == total {
                obs_debug!("eval pass: {n}/{total} client shards done");
            }
        },
    );
    let mut counters = Counters::default();
    let mut usage = PredictUsage::default();
    let mut telemetry = RunTelemetry::default();
    for (c, u, t) in &per_shard {
        counters.merge(c);
        usage.merge(u);
        telemetry.merge(t);
    }
    (counters, usage, telemetry)
}

/// Publishes one outcome's telemetry into the global metrics registry —
/// a no-op build-time when the `telemetry` feature is off. Counter labels
/// carry the model so cells sharing one process stay distinguishable;
/// storage gauges are last-writer-wins per model label.
fn publish_telemetry(
    label: &str,
    tel: &RunTelemetry,
    usage: &PredictUsage,
    stats: Option<&ModelStats>,
) {
    if !pbppm_obs::ENABLED {
        return;
    }
    let reg = pbppm_obs::global();
    let model = format!("model={label}");
    for (tier, t) in [("browser", &tel.browser), ("proxy", &tel.proxy)] {
        let l = format!("model={label} cache={tier}");
        reg.counter("sim.cache.demand_hits", &l).add(t.demand_hits);
        reg.counter("sim.cache.prefetch_hits", &l)
            .add(t.prefetch_hits);
        reg.counter("sim.cache.misses", &l).add(t.misses);
        reg.counter("sim.cache.evictions", &l).add(t.evictions);
        reg.counter("sim.cache.demand_bytes", &l)
            .add(t.demand_bytes);
        reg.counter("sim.cache.prefetched_bytes", &l)
            .add(t.prefetched_bytes);
    }
    reg.counter("sim.eval.warm_requests", &model)
        .add(tel.warm_requests);
    reg.counter("sim.predict.calls", &model)
        .add(tel.predict_calls);
    reg.counter("sim.prefetch.wasted_bytes", &model)
        .add(tel.wasted_prefetch_bytes());
    reg.histogram("sim.predict.latency_ns", &model)
        .absorb(&tel.predict_ns);
    reg.histogram("sim.prefetch.push_depth", &model)
        .absorb(&tel.push_depth);
    reg.counter("core.predict.index_fast", &model)
        .add(usage.index_fast);
    reg.counter("core.predict.index_fallback", &model)
        .add(usage.index_fallback);
    if let Some(s) = stats {
        reg.gauge("model.nodes", &model).set(s.nodes as u64);
        reg.gauge("model.edges", &model).set(s.edges as u64);
        reg.gauge("model.special_links", &model)
            .set(s.special_links as u64);
        reg.gauge("model.bytes", &model).set(s.total_bytes() as u64);
    }
}

/// Runs one complete experiment cell on `trace` (see module docs),
/// discarding telemetry. Identical results to [`run_experiment_full`].
pub fn run_experiment(trace: &Trace, cfg: &ExperimentConfig) -> RunResult {
    run_cell(trace, cfg, false).result
}

/// Runs one complete experiment cell on `trace` and returns the paper
/// metrics together with both passes' telemetry and the trained model's
/// `.pbss` file size.
pub fn run_experiment_full(trace: &Trace, cfg: &ExperimentConfig) -> ExperimentOutcome {
    run_cell(trace, cfg, true)
}

/// One experiment cell. `measure_file` encodes the trained model to size
/// its file; [`run_experiment`] skips that, because the encode is not part
/// of the protocol and costs about a tenth of a 7-day standard-PPM run.
fn run_cell(trace: &Trace, cfg: &ExperimentConfig, measure_file: bool) -> ExperimentOutcome {
    let label = cfg.model.label();
    let _span = span!(
        "experiment",
        model = label,
        trace = trace.name,
        days = cfg.train_days
    );
    let train_reqs = trace.first_days(cfg.train_days);
    let eval_reqs = trace.day_span(cfg.train_days, cfg.train_days + cfg.eval_days.max(1));
    let warm_reqs = trace.day_span(
        cfg.train_days.saturating_sub(cfg.warmup_days),
        cfg.train_days,
    );

    let (train_sessions, eval_sessions, warm_sessions) = {
        let _s = span!("sessionize");
        let train_sessions = sessionize(train_reqs, &cfg.sessionizer);
        let mut eval_sessions = sessionize(eval_reqs, &cfg.sessionizer);
        eval_sessions.sort_by_key(Session::start);
        let warm_sessions = sessionize(warm_reqs, &cfg.sessionizer);
        (train_sessions, eval_sessions, warm_sessions)
    };
    obs_debug!(
        "{label}: sessionized {} train / {} eval / {} warm sessions",
        train_sessions.len(),
        eval_sessions.len(),
        warm_sessions.len()
    );

    let (catalog, popularity, classes) = {
        let _s = span!("popularity");
        // The server knows its own documents: catalog over everything it
        // serves.
        let mut catalog = DocCatalog::from_sessions(&train_sessions);
        catalog.observe_sessions(&warm_sessions);
        catalog.observe_sessions(&eval_sessions);

        // Two-pass training: popularity over the training window first.
        let mut popb = PopularityTable::builder();
        for s in &train_sessions {
            for v in &s.views {
                popb.record(v.url);
            }
        }
        let popularity = popb.build();
        let classes = classify_clients(&trace.requests, &cfg.classify);
        (catalog, popularity, classes)
    };

    // Caching-only baseline.
    let (baseline, _, baseline_telemetry) = {
        let _s = span!("baseline");
        eval_pass(
            None,
            &warm_sessions,
            &eval_sessions,
            &catalog,
            &popularity,
            &classes,
            cfg,
        )
    };

    // Prefetching run with fresh, identically warmed caches.
    let model = {
        let _s = span!("train", model = label, sessions = train_sessions.len());
        cfg.model
            .build_with(&train_sessions, &popularity, cfg.threads)
    };
    let snapshot_bytes = model
        .as_ref()
        .filter(|_| measure_file)
        .and_then(|m| m.image())
        .map(|image| SnapshotFile::new(&trace.urls, image).encode().len() as u64);
    let (counters, model_stats, node_count, telemetry) = match model {
        None => (baseline, None, 0, baseline_telemetry.clone()),
        Some(model) => {
            let mut server = PrefetchServer::new(model, cfg.policy);
            let (counters, usage, telemetry) = {
                let _s = span!("eval", model = label);
                eval_pass(
                    Some(&server),
                    &warm_sessions,
                    &eval_sessions,
                    &catalog,
                    &popularity,
                    &classes,
                    cfg,
                )
            };
            server.model_mut().apply_usage(&usage);
            let stats = server.model().stats();
            publish_telemetry(&label, &telemetry, &usage, Some(&stats));
            (
                counters,
                Some(stats),
                server.model().node_count(),
                telemetry,
            )
        }
    };

    let result = RunResult {
        label,
        trace: trace.name.clone(),
        train_days: cfg.train_days,
        train_sessions: train_sessions.len(),
        eval_requests: counters.requests,
        node_count,
        model_stats,
        counters,
        baseline,
    };
    ExperimentOutcome {
        result,
        telemetry,
        baseline_telemetry,
        snapshot_bytes,
    }
}

/// Runs [`run_experiment`] for every model in `models`, sharing nothing but
/// the trace (each cell is independent; [`pbppm_core::parallel_map`] runs
/// cells in parallel).
pub fn run_models(trace: &Trace, models: &[ModelSpec], train_days: usize) -> Vec<RunResult> {
    models
        .iter()
        .map(|m| {
            let cfg = ExperimentConfig::paper_default(m.clone(), train_days);
            run_experiment(trace, &cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbppm_core::PbConfig;
    use pbppm_trace::WorkloadConfig;

    fn tiny_trace() -> Trace {
        WorkloadConfig::tiny(42).generate()
    }

    #[test]
    fn baseline_run_has_no_prefetching() {
        let trace = tiny_trace();
        let cfg = ExperimentConfig::paper_default(ModelSpec::NoPrefetch, 2);
        let r = run_experiment(&trace, &cfg);
        assert_eq!(r.counters.prefetched_docs, 0);
        assert_eq!(r.node_count, 0);
        assert!(r.eval_requests > 0);
        assert_eq!(r.latency_reduction(), 0.0);
        assert!(r.hit_ratio() >= 0.0 && r.hit_ratio() <= 1.0);
    }

    #[test]
    fn prefetching_models_prefetch_and_reduce_latency() {
        let trace = tiny_trace();
        for spec in [
            ModelSpec::Standard { max_height: None },
            ModelSpec::Lrs,
            ModelSpec::Pb(PbConfig::default()),
        ] {
            let cfg = ExperimentConfig::paper_default(spec.clone(), 2);
            let r = run_experiment(&trace, &cfg);
            assert!(
                r.counters.prefetched_docs > 0,
                "{} never prefetched",
                r.label
            );
            assert!(
                r.hit_ratio() >= r.baseline_hit_ratio(),
                "{}: prefetching should not lower the hit ratio ({} < {})",
                r.label,
                r.hit_ratio(),
                r.baseline_hit_ratio()
            );
            assert!(
                r.latency_reduction() >= 0.0,
                "{}: latency reduction negative",
                r.label
            );
            assert!(
                r.traffic_increment() > r.baseline.traffic_increment(),
                "{}: prefetching must cost traffic",
                r.label
            );
            assert!(r.node_count > 0);
        }
    }

    #[test]
    fn both_runs_see_the_same_requests() {
        let trace = tiny_trace();
        let cfg = ExperimentConfig::paper_default(ModelSpec::Lrs, 2);
        let r = run_experiment(&trace, &cfg);
        assert_eq!(r.counters.requests, r.baseline.requests);
        assert_eq!(r.counters.useful_bytes, r.baseline.useful_bytes);
    }

    /// A run with an empty evaluation window (everything zero) must report
    /// clean zeros from every derived ratio, and its JSON must hold plain
    /// numbers — no NaN, no null.
    #[test]
    fn zeroed_result_reports_finite_ratios_and_json() {
        let r = RunResult {
            label: "PB-PPM".into(),
            trace: "empty".into(),
            train_days: 0,
            train_sessions: 0,
            eval_requests: 0,
            node_count: 0,
            model_stats: None,
            counters: Counters::default(),
            baseline: Counters::default(),
        };
        assert_eq!(r.hit_ratio(), 0.0);
        assert_eq!(r.baseline_hit_ratio(), 0.0);
        assert_eq!(r.latency_reduction(), 0.0);
        assert_eq!(r.traffic_increment(), 0.0);
        assert_eq!(r.popular_prefetch_fraction(), 0.0);
        assert_eq!(r.path_utilization(), 0.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("NaN"), "{json}");
        // `model_stats` is a legitimate null; no float field may be one.
        assert_eq!(json.matches("null").count(), 1, "{json}");
    }

    #[test]
    fn zero_training_days_is_safe() {
        let trace = tiny_trace();
        let cfg = ExperimentConfig::paper_default(ModelSpec::Pb(PbConfig::default()), 0);
        let r = run_experiment(&trace, &cfg);
        assert_eq!(r.train_sessions, 0);
        assert_eq!(r.counters.prefetched_docs, 0, "nothing to predict from");
    }

    #[test]
    fn results_are_deterministic() {
        let trace = tiny_trace();
        let cfg = ExperimentConfig::paper_default(ModelSpec::Pb(PbConfig::default()), 2);
        let a = run_experiment(&trace, &cfg);
        let b = run_experiment(&trace, &cfg);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.node_count, b.node_count);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The sharded eval pass must be bit-identical across worker counts:
        // shards share nothing and merge in ascending-client order.
        let trace = tiny_trace();
        for spec in [
            ModelSpec::NoPrefetch,
            ModelSpec::Standard { max_height: None },
            ModelSpec::Pb(PbConfig::default()),
        ] {
            let mut serial = ExperimentConfig::paper_default(spec, 2);
            serial.threads = 1;
            let mut parallel = serial.clone();
            parallel.threads = 4;
            let a = run_experiment(&trace, &serial);
            let b = run_experiment(&trace, &parallel);
            assert_eq!(a.counters, b.counters, "{}", a.label);
            assert_eq!(a.baseline, b.baseline, "{}", a.label);
            assert_eq!(a.model_stats, b.model_stats, "{}", a.label);
            assert_eq!(a.node_count, b.node_count, "{}", a.label);
        }
    }

    #[test]
    fn telemetry_is_thread_invariant() {
        // Everything but wall-clock latency buckets must be bit-identical
        // across worker counts, for the same reason the counters are.
        let trace = tiny_trace();
        let mut serial = ExperimentConfig::paper_default(ModelSpec::Pb(PbConfig::default()), 2);
        serial.threads = 1;
        let mut parallel = serial.clone();
        parallel.threads = 4;
        let a = run_experiment_full(&trace, &serial);
        let b = run_experiment_full(&trace, &parallel);
        assert_eq!(a.telemetry.browser, b.telemetry.browser);
        assert_eq!(a.telemetry.proxy, b.telemetry.proxy);
        assert_eq!(a.telemetry.warm_requests, b.telemetry.warm_requests);
        assert_eq!(a.telemetry.predict_calls, b.telemetry.predict_calls);
        assert_eq!(a.telemetry.push_depth, b.telemetry.push_depth);
        assert_eq!(
            a.telemetry.prefetch_hit_bytes,
            b.telemetry.prefetch_hit_bytes
        );
        // Latency histograms differ in buckets but never in volume.
        assert_eq!(a.telemetry.predict_ns.count(), a.telemetry.predict_calls);
        assert_eq!(b.telemetry.predict_ns.count(), b.telemetry.predict_calls);
        // The baseline never predicts, so it is fully deterministic.
        assert_eq!(a.baseline_telemetry, b.baseline_telemetry);
    }

    #[test]
    fn telemetry_is_consistent_with_counters() {
        let trace = tiny_trace();
        let cfg = ExperimentConfig::paper_default(ModelSpec::Pb(PbConfig::default()), 2);
        let o = run_experiment_full(&trace, &cfg);
        let tel = &o.telemetry;
        let c = &o.result.counters;
        assert_eq!(
            tel.browser.prefetch_hits + tel.proxy.prefetch_hits,
            c.prefetch_hits
        );
        assert_eq!(
            tel.browser.demand_hits + tel.proxy.demand_hits,
            c.cache_hits
        );
        assert_eq!(
            tel.browser.misses + tel.proxy.misses,
            c.requests - c.cache_hits - c.prefetch_hits
        );
        assert_eq!(
            tel.browser.prefetched_bytes + tel.proxy.prefetched_bytes,
            c.prefetched_bytes
        );
        assert_eq!(tel.push_depth.sum(), c.prefetched_docs);
        assert_eq!(tel.push_depth.count(), tel.predict_calls);
        assert!(tel.wasted_prefetch_bytes() <= c.prefetched_bytes);
        assert!(tel.warm_requests > 0);
    }

    #[test]
    fn node_counts_rank_std_above_lrs_above_pb() {
        // The full Table-1 ranking needs a realistic trace scale (see the
        // integration tests); at tiny scale the robust claims are that the
        // standard model dwarfs both compact models and that the pruned
        // PB-PPM is far below standard.
        let trace = tiny_trace();
        let rs = run_models(
            &trace,
            &[
                ModelSpec::Standard { max_height: None },
                ModelSpec::Lrs,
                ModelSpec::pb_paper(true),
            ],
            2,
        );
        let (std, lrs, pb) = (rs[0].node_count, rs[1].node_count, rs[2].node_count);
        assert!(std > lrs, "standard {std} should exceed LRS {lrs}");
        assert!(std > 3 * pb, "standard {std} should dwarf PB {pb}");
    }
}

#[cfg(test)]
mod warmup_tests {
    use super::*;
    use crate::config::ModelSpec;
    use pbppm_trace::WorkloadConfig;

    #[test]
    fn warmup_days_raise_the_baseline_hit_ratio() {
        let trace = WorkloadConfig::tiny(13).generate();
        let mut cold = ExperimentConfig::paper_default(ModelSpec::NoPrefetch, 2);
        cold.warmup_days = 0;
        let mut warm = cold.clone();
        warm.warmup_days = 1;
        let r_cold = run_experiment(&trace, &cold);
        let r_warm = run_experiment(&trace, &warm);
        assert!(
            r_warm.baseline_hit_ratio() > r_cold.baseline_hit_ratio(),
            "warmed caches must hit more: {} vs {}",
            r_warm.baseline_hit_ratio(),
            r_cold.baseline_hit_ratio()
        );
        // Same demand either way.
        assert_eq!(r_cold.counters.requests, r_warm.counters.requests);
    }

    #[test]
    fn context_cap_one_degrades_to_order_one_behaviour() {
        // With a single-URL context, the standard model cannot use deep
        // branches; its pushes must match those of a height-2 model.
        let trace = WorkloadConfig::tiny(17).generate();
        let mut deep = ExperimentConfig::paper_default(ModelSpec::Standard { max_height: None }, 2);
        deep.context_cap = 1;
        let r_deep = run_experiment(&trace, &deep);
        let mut shallow = ExperimentConfig::paper_default(
            ModelSpec::Standard {
                max_height: Some(2),
            },
            2,
        );
        shallow.context_cap = 1;
        let r_shallow = run_experiment(&trace, &shallow);
        assert_eq!(
            r_deep.counters.prefetched_docs,
            r_shallow.counters.prefetched_docs
        );
        assert_eq!(
            r_deep.counters.prefetch_hits,
            r_shallow.counters.prefetch_hits
        );
    }

    #[test]
    fn eval_days_extend_the_window() {
        let trace = WorkloadConfig::tiny(19).generate();
        let mut one = ExperimentConfig::paper_default(ModelSpec::NoPrefetch, 1);
        one.eval_days = 1;
        let mut two = one.clone();
        two.eval_days = 2;
        let r1 = run_experiment(&trace, &one);
        let r2 = run_experiment(&trace, &two);
        assert!(r2.counters.requests > r1.counters.requests);
    }
}
