//! Experiment configuration: model choice, prefetch policy, environment.

use crate::latency::LatencyModel;
use pbppm_core::{Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, StandardPpm};
use pbppm_trace::{ClassifyConfig, Session, SessionizerConfig};
use serde::{Deserialize, Serialize};

/// Which prediction model an experiment runs (plus the no-prefetch baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Caching only — the latency-reduction baseline.
    NoPrefetch,
    /// Standard PPM with an optional branch height cap.
    Standard {
        /// Maximum branch height; `None` = the paper's unbounded §4 setup.
        max_height: Option<u8>,
    },
    /// Longest-Repeating-Subsequence PPM.
    Lrs,
    /// Popularity-based PPM with its construction parameters.
    Pb(PbConfig),
    /// First-order Markov baseline.
    Order1,
    /// Popularity-only Top-N baseline (Markatos & Chronaki's Top-10).
    TopN {
        /// How many top documents are pushed.
        n: usize,
    },
    /// Online PB-PPM: sliding window of `window` sessions, rebuilt every
    /// `rebuild_every` sessions.
    PbOnline {
        /// PB-PPM construction parameters.
        cfg: PbConfig,
        /// Sessions kept in the sliding window.
        window: usize,
        /// Rebuild cadence in sessions.
        rebuild_every: usize,
    },
}

impl ModelSpec {
    /// PB-PPM with the paper's §4.1 construction parameters and, when
    /// `aggressive_prune`, both space optimizations (the paper's UCB-CS
    /// setting); otherwise only the 1% relative-probability cut.
    pub fn pb_paper(aggressive_prune: bool) -> Self {
        ModelSpec::Pb(PbConfig {
            prune: if aggressive_prune {
                pbppm_core::PruneConfig::aggressive()
            } else {
                pbppm_core::PruneConfig::default()
            },
            ..PbConfig::default()
        })
    }

    /// Short label used in printed tables ("PPM", "LRS", "PB-PPM", …).
    pub fn label(&self) -> String {
        match self {
            ModelSpec::NoPrefetch => "no-prefetch".to_owned(),
            ModelSpec::Standard { max_height: None } => "PPM".to_owned(),
            ModelSpec::Standard {
                max_height: Some(h),
            } => format!("{h}-PPM"),
            ModelSpec::Lrs => "LRS".to_owned(),
            ModelSpec::Pb(_) => "PB-PPM".to_owned(),
            ModelSpec::Order1 => "O1".to_owned(),
            ModelSpec::TopN { n } => format!("Top-{n}"),
            ModelSpec::PbOnline { .. } => "PB-online".to_owned(),
        }
    }

    /// Builds and trains the model on the given sessions.
    ///
    /// `popularity` is the table computed from the same training window
    /// (two-pass training); only PB-PPM consumes it. Returns `None` for
    /// [`ModelSpec::NoPrefetch`].
    pub fn build(
        &self,
        sessions: &[Session],
        popularity: &PopularityTable,
    ) -> Option<Box<dyn Predictor>> {
        self.build_with(sessions, popularity, 1)
    }

    /// [`build`](Self::build) with `threads` training workers (`0` = auto).
    ///
    /// The tree models (order-1 included) train via their deterministic
    /// partition-and-merge `train_sessions`, so the result is
    /// **bit-identical** to sequential training at every thread count
    /// (property-tested in pbppm-core's `parallel_train` suite). Top-N
    /// ignores `threads`; the online window trains session by session, but
    /// its periodic rebuilds train with them.
    pub fn build_with(
        &self,
        sessions: &[Session],
        popularity: &PopularityTable,
        threads: usize,
    ) -> Option<Box<dyn Predictor>> {
        let urls: Vec<Vec<pbppm_core::UrlId>> = sessions
            .iter()
            .map(|s| s.views.iter().map(|v| v.url).collect())
            .collect();
        let mut model: Box<dyn Predictor> = match self {
            ModelSpec::NoPrefetch => return None,
            ModelSpec::Standard { max_height } => {
                let mut m = StandardPpm::new(*max_height);
                m.train_sessions(&urls, threads);
                Box::new(m)
            }
            ModelSpec::Lrs => {
                let mut m = StandardPpm::lrs();
                m.train_sessions(&urls, threads);
                Box::new(m)
            }
            ModelSpec::Pb(cfg) => {
                let mut m = PbPpm::new(popularity.clone(), *cfg);
                m.train_sessions(&urls, threads);
                Box::new(m)
            }
            ModelSpec::Order1 => {
                let mut m = Order1Markov::new();
                m.train_sessions(&urls, threads);
                Box::new(m)
            }
            ModelSpec::TopN { n } => {
                let mut m = pbppm_core::TopN::new(*n);
                for s in &urls {
                    m.train_session(s);
                }
                Box::new(m)
            }
            ModelSpec::PbOnline {
                cfg,
                window,
                rebuild_every,
            } => {
                let mut m = pbppm_core::OnlinePbPpm::new(*cfg, *window, *rebuild_every);
                m.set_threads(threads);
                for s in &urls {
                    m.train_session(s);
                }
                Box::new(m)
            }
        };
        model.finalize();
        Some(model)
    }
}

/// Prefetch decision thresholds (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchPolicy {
    /// Minimum predicted probability of the next access (paper: 0.25 for
    /// all models).
    pub prob_threshold: f64,
    /// Maximum size of a document to prefetch, bytes (paper: smaller for
    /// PB-PPM than for the baselines; see DESIGN.md §4).
    pub size_threshold: u64,
    /// Cap on documents pushed per request (keeps a single confident
    /// prediction set from flooding a client).
    pub max_per_request: usize,
    /// When no prediction clears the probability threshold, push the single
    /// best candidate anyway (an eager policy variant used in ablations).
    pub always_push_top: bool,
}

impl Default for PrefetchPolicy {
    fn default() -> Self {
        Self {
            prob_threshold: 0.25,
            size_threshold: 100_000,
            max_per_request: 8,
            always_push_top: false,
        }
    }
}

impl PrefetchPolicy {
    /// The §4.1 policy for a given model: probability 0.25 everywhere,
    /// 30 KB size threshold for PB-PPM, 10 KB for the baselines (PB-PPM can
    /// afford the larger cap because its pushes concentrate on popular
    /// documents; see DESIGN.md §4).
    pub fn paper_default_for(spec: &ModelSpec) -> Self {
        let size_threshold = match spec {
            ModelSpec::Pb(_) | ModelSpec::PbOnline { .. } => 30_000,
            _ => 10_000,
        };
        Self {
            size_threshold,
            ..Self::default()
        }
    }
}

/// Everything one §4-style experiment needs besides the trace itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Prediction model under test.
    pub model: ModelSpec,
    /// Prefetch thresholds.
    pub policy: PrefetchPolicy,
    /// Days of trace used for training (the x-axis of most figures).
    pub train_days: usize,
    /// Days evaluated right after the training window (paper: 1).
    pub eval_days: usize,
    /// Training days replayed (most recent first) to warm the caches
    /// before evaluation, without counting metrics.
    pub warmup_days: usize,
    /// Browser cache capacity, bytes (paper: 1 MB).
    pub browser_cache_bytes: u64,
    /// Proxy cache capacity, bytes (paper: 16 GB).
    pub proxy_cache_bytes: u64,
    /// Access latency model.
    pub latency: LatencyModel,
    /// Sessionizer parameters.
    pub sessionizer: SessionizerConfig,
    /// Proxy-vs-browser classification parameters.
    pub classify: ClassifyConfig,
    /// Longest per-client context remembered for prediction.
    pub context_cap: usize,
    /// Worker threads for the evaluation pass (clients are sharded over
    /// them). `0` means auto: `PBPPM_THREADS` if set, otherwise the
    /// machine's available parallelism. Results are identical for every
    /// thread count (see [`crate::engine`]).
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's §4 setup for a given model and training-window length.
    pub fn paper_default(model: ModelSpec, train_days: usize) -> Self {
        let policy = PrefetchPolicy::paper_default_for(&model);
        Self {
            model,
            policy,
            train_days,
            eval_days: 1,
            warmup_days: 1,
            browser_cache_bytes: 1 << 20,         // 1 MiB
            proxy_cache_bytes: 16 * (1u64 << 30), // 16 GiB
            latency: LatencyModel::default(),
            sessionizer: SessionizerConfig::default(),
            classify: ClassifyConfig::default(),
            context_cap: 12,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbppm_core::UrlId;
    use pbppm_trace::{ClientId, PageView};

    fn session(urls: &[u32]) -> Session {
        Session {
            client: ClientId(0),
            views: urls
                .iter()
                .enumerate()
                .map(|(i, &u)| PageView {
                    time: i as u64,
                    url: UrlId(u),
                    bytes: 100,
                })
                .collect(),
        }
    }

    #[test]
    fn labels() {
        assert_eq!(ModelSpec::NoPrefetch.label(), "no-prefetch");
        assert_eq!(ModelSpec::Standard { max_height: None }.label(), "PPM");
        assert_eq!(
            ModelSpec::Standard {
                max_height: Some(3)
            }
            .label(),
            "3-PPM"
        );
        assert_eq!(ModelSpec::Lrs.label(), "LRS");
        assert_eq!(ModelSpec::Pb(PbConfig::default()).label(), "PB-PPM");
    }

    #[test]
    fn build_trains_each_model_kind() {
        let sessions = vec![session(&[0, 1, 2]), session(&[0, 1, 2])];
        let mut popb = PopularityTable::builder();
        for s in &sessions {
            for v in &s.views {
                popb.record(v.url);
            }
        }
        let pop = popb.build();
        for spec in [
            ModelSpec::Standard { max_height: None },
            ModelSpec::Standard {
                max_height: Some(3),
            },
            ModelSpec::Lrs,
            ModelSpec::Pb(PbConfig::default()),
            ModelSpec::Order1,
        ] {
            let mut model = spec.build(&sessions, &pop).expect("model");
            assert!(model.node_count() > 0, "{}", spec.label());
            let mut out = Vec::new();
            model.predict(&[UrlId(0)], &mut out);
            assert!(!out.is_empty(), "{} should predict", spec.label());
            assert_eq!(out[0].url, UrlId(1));
        }
        assert!(ModelSpec::NoPrefetch.build(&sessions, &pop).is_none());
    }

    #[test]
    fn paper_policy_sizes() {
        let pb = PrefetchPolicy::paper_default_for(&ModelSpec::Pb(PbConfig::default()));
        let std = PrefetchPolicy::paper_default_for(&ModelSpec::Standard { max_height: None });
        assert_eq!(pb.size_threshold, 30_000);
        assert_eq!(std.size_threshold, 10_000);
        assert_eq!(pb.prob_threshold, 0.25);
    }

    #[test]
    fn paper_default_config() {
        let cfg = ExperimentConfig::paper_default(ModelSpec::Lrs, 5);
        assert_eq!(cfg.train_days, 5);
        assert_eq!(cfg.eval_days, 1);
        assert_eq!(cfg.browser_cache_bytes, 1 << 20);
        assert_eq!(cfg.proxy_cache_bytes, 16 << 30);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = ExperimentConfig::paper_default(ModelSpec::Pb(PbConfig::default()), 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
