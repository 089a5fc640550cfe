//! Live (prequential) self-evaluation for the serving loop.
//!
//! The offline engine ([`crate::eval::evaluate`]) measures prediction
//! quality after the fact; a long-running server wants the same numbers
//! *while it runs*. [`LiveEval`] implements test-then-train scoring: each
//! incoming session is scored against the predictions the **current**
//! model makes for its own prefixes — the same read-only vote path
//! ([`Predictor::predict_ro`]) the offline engine uses, with identical
//! context/threshold/k/horizon semantics — *before* the session is
//! trained on. Scoring a session the model has already absorbed would
//! flatter it; scoring first is the standard prequential protocol.
//!
//! Two aggregates are kept:
//!
//! * **lifetime** counters ([`LiveEval::lifetime`]) — every context since
//!   the recorder started, the long-run mean;
//! * a **sliding window** of per-context records ([`LiveEval::window_quality`])
//!   — the last `window` contexts, recomputed exactly from compact
//!   [`ContextRecord`]s (no incremental float drift).
//!
//! Both fold the same per-context score the offline engine folds
//! ([`ContextRecord::score`], [`PredictionQuality::record`]).
//!
//! Their divergence is the drift signal: when the windowed precision@k
//! falls below `drift_fraction` of the lifetime mean (with minimum-sample
//! guards on both sides), [`LiveEval::drifted`] reports `true` and the
//! serve loop degrades its `health`. Per-grade accuracy (keyed on the
//! popularity grade of the *actual* next URL) localizes which popularity
//! band is drifting — the paper's grades G0–G3 are exactly the strata a
//! popularity shift moves.

use crate::eval::{context_at, ContextRecord, EvalConfig, PredictionQuality};
use crate::interner::UrlId;
use crate::popularity::PopularityTable;
use crate::predictor::{PredictUsage, Prediction, Predictor};
use std::collections::VecDeque;

/// Parameters for the live evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveEvalConfig {
    /// Scoring semantics (threshold, k, horizon) — shared with the
    /// offline engine so live and offline numbers are comparable.
    pub eval: EvalConfig,
    /// Context prefix cap handed to the model, like the offline engine's
    /// `context_cap` argument.
    pub context_cap: usize,
    /// Sliding-window size in *contexts* (clicks with a successor), not
    /// sessions; at least 1.
    pub window: usize,
    /// Degrade when windowed precision@k `<` this fraction of the
    /// lifetime precision@k (0.5 = "half as accurate as usual").
    pub drift_fraction: f64,
    /// Both the window and the lifetime must hold at least this many
    /// contexts before drift is ever signalled — early noise is not drift.
    pub min_contexts: u64,
}

impl Default for LiveEvalConfig {
    fn default() -> Self {
        Self {
            eval: EvalConfig::default(),
            context_cap: 12,
            window: 512,
            drift_fraction: 0.5,
            min_contexts: 64,
        }
    }
}

/// Per-grade lifetime accuracy: contexts whose true next URL had this
/// grade, and how many of them were hits@k.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GradeAccuracy {
    /// Contexts observed for this grade.
    pub contexts: u64,
    /// Of those, contexts where the true next URL was in the top k.
    pub hits_at_k: u64,
}

impl GradeAccuracy {
    /// hits@k over contexts; 0 when nothing was observed.
    pub fn precision_at_k(&self) -> f64 {
        if self.contexts == 0 {
            0.0
        } else {
            self.hits_at_k as f64 / self.contexts as f64
        }
    }
}

/// The serving loop's prequential scorer. See the module docs.
pub struct LiveEval {
    cfg: LiveEvalConfig,
    records: VecDeque<ContextRecord>,
    lifetime: PredictionQuality,
    by_grade: [GradeAccuracy; 4],
    sessions: u64,
    scratch: Vec<Prediction>,
    usage: PredictUsage,
}

impl LiveEval {
    /// A fresh evaluator with the given configuration. `min_contexts` is
    /// clamped to the window size — a window that can never fill past the
    /// guard would otherwise disable drift detection permanently.
    pub fn new(cfg: LiveEvalConfig) -> Self {
        let window = cfg.window.max(1);
        Self {
            cfg: LiveEvalConfig {
                window,
                min_contexts: cfg.min_contexts.min(window as u64),
                ..cfg
            },
            records: VecDeque::with_capacity(window),
            lifetime: PredictionQuality::default(),
            by_grade: [GradeAccuracy::default(); 4],
            sessions: 0,
            scratch: Vec::new(),
            usage: PredictUsage::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LiveEvalConfig {
        &self.cfg
    }

    /// Sessions scored so far.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Lifetime quality counters (every context ever scored).
    pub fn lifetime(&self) -> &PredictionQuality {
        &self.lifetime
    }

    /// Per-grade lifetime accuracy, indexed by grade level 0–3. Contexts
    /// scored without a popularity table appear in no bucket.
    pub fn by_grade(&self) -> &[GradeAccuracy; 4] {
        &self.by_grade
    }

    /// Contexts currently in the sliding window.
    pub fn window_len(&self) -> usize {
        self.records.len()
    }

    /// Quality over the sliding window, folded exactly from the retained
    /// records. O(window), called on demand (metrics/health), not per
    /// request.
    pub fn window_quality(&self) -> PredictionQuality {
        let mut q = PredictionQuality::default();
        for r in &self.records {
            q.record(r);
        }
        q
    }

    /// True when the windowed precision@k has fallen below
    /// `drift_fraction` of the lifetime mean — with both samples past
    /// `min_contexts`, and only when the lifetime mean is itself nonzero
    /// (a model that never predicted well cannot "drift").
    pub fn drifted(&self) -> bool {
        let min = self.cfg.min_contexts;
        if self.lifetime.contexts < min || (self.records.len() as u64) < min {
            return false;
        }
        let long_run = self.lifetime.precision_at_k();
        if long_run <= 0.0 {
            return false;
        }
        self.window_quality().precision_at_k() < self.cfg.drift_fraction * long_run
    }

    /// Scores one incoming session against `model`'s current predictions
    /// — call *before* training the model on it (test-then-train). Uses
    /// the read-only vote path and discards the usage bookkeeping:
    /// self-evaluation must not count as real path utilization.
    ///
    /// Each context is scored like [`crate::eval::evaluate`] scores it
    /// (the same [`ContextRecord::score`]), so the window numbers are
    /// directly comparable to an offline run on the same clicks.
    /// `grades`, when given, buckets each context by the grade of its
    /// true next URL. Returns how many contexts the session produced.
    pub fn observe_session(
        &mut self,
        model: &dyn Predictor,
        grades: Option<&PopularityTable>,
        urls: &[UrlId],
    ) -> usize {
        if urls.len() < 2 {
            if !urls.is_empty() {
                self.sessions += 1;
            }
            return 0;
        }
        self.sessions += 1;
        let cfg = self.cfg.eval;
        for i in 0..urls.len() - 1 {
            self.scratch.clear();
            self.usage.clear();
            model.predict_ro(
                context_at(urls, i, self.cfg.context_cap),
                &mut self.scratch,
                &mut self.usage,
            );
            let record = ContextRecord {
                grade: grades.map(|g| g.grade(urls[i + 1]).level()),
                ..ContextRecord::score(&mut self.scratch, urls, i, &cfg)
            };
            self.push(record);
        }
        urls.len() - 1
    }

    /// Appends one context record to both aggregates, evicting the oldest
    /// window entry at capacity.
    fn push(&mut self, r: ContextRecord) {
        self.lifetime.record(&r);
        if let Some(level) = r.grade {
            let slot = &mut self.by_grade[usize::from(level.min(3))];
            slot.contexts += 1;
            if r.rank.is_some() {
                slot.hits_at_k += 1;
            }
        }
        if self.records.len() == self.cfg.window {
            self.records.pop_front();
        }
        self.records.push_back(r);
    }
}

/// Traffic increment per context: extra documents pushed that were *not*
/// the next click, per evaluated context — the paper's network-cost
/// counterpart to precision. 0 when no contexts were evaluated.
pub fn traffic_increment(q: &PredictionQuality) -> f64 {
    if q.contexts == 0 {
        0.0
    } else {
        (q.emitted.saturating_sub(q.hits_at_k)) as f64 / q.contexts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::pb::{PbConfig, PbPpm};
    use crate::pb_online::OnlinePbPpm;
    use crate::popularity::PopularityTable;
    use crate::prune::PruneConfig;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn cfg() -> PbConfig {
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        }
    }

    fn trained_model(sessions: &[Vec<UrlId>]) -> PbPpm {
        let mut counts = PopularityTable::builder();
        for s in sessions {
            for &x in s {
                counts.record(x);
            }
        }
        let mut m = PbPpm::new(counts.build(), cfg());
        for s in sessions {
            m.train_session(s);
        }
        m.finalize();
        m
    }

    /// The acceptance-criterion core: scoring the same held-out clicks
    /// live (per session, window large enough to hold them all) and
    /// offline (one `evaluate` call) must produce identical counters —
    /// both run the same predict path with the same semantics.
    #[test]
    fn agrees_with_offline_evaluate_exactly() {
        let train: Vec<Vec<UrlId>> = (0..40)
            .map(|i| vec![u(0), u(1 + i % 3), u(4), u(5 + i % 2)])
            .collect();
        let mut model = trained_model(&train);
        let held_out: Vec<Vec<UrlId>> = (0..15)
            .map(|i| vec![u(0), u(1 + (i + 1) % 4), u(4), u(6)])
            .collect();

        let live_cfg = LiveEvalConfig {
            window: 10_000,
            ..LiveEvalConfig::default()
        };
        let mut live = LiveEval::new(live_cfg);
        for s in &held_out {
            live.observe_session(&model, Some(model.popularity()), s);
        }
        let offline = evaluate(&mut model, &held_out, live_cfg.context_cap, &live_cfg.eval);

        assert_eq!(live.window_quality(), offline);
        assert_eq!(*live.lifetime(), offline);
        assert_eq!(live.sessions(), held_out.len() as u64);
    }

    #[test]
    fn window_evicts_but_lifetime_keeps_counting() {
        let train: Vec<Vec<UrlId>> = (0..20).map(|_| vec![u(0), u(1)]).collect();
        let model = trained_model(&train);
        let mut live = LiveEval::new(LiveEvalConfig {
            window: 3,
            ..LiveEvalConfig::default()
        });
        for _ in 0..10 {
            live.observe_session(&model, None, &[u(0), u(1)]);
        }
        assert_eq!(live.window_len(), 3);
        assert_eq!(live.window_quality().contexts, 3);
        assert_eq!(live.lifetime().contexts, 10);
        assert_eq!(
            live.lifetime().hits_at_1,
            10,
            "model predicts 0→1 perfectly"
        );
    }

    #[test]
    fn drift_fires_when_accuracy_collapses() {
        let train: Vec<Vec<UrlId>> = (0..20).map(|_| vec![u(0), u(1)]).collect();
        let model = trained_model(&train);
        let mut live = LiveEval::new(LiveEvalConfig {
            window: 8,
            min_contexts: 8,
            drift_fraction: 0.5,
            ..LiveEvalConfig::default()
        });
        // A long accurate phase, then the traffic shifts to 0→2, which the
        // model keeps predicting as 0→1: windowed precision collapses.
        for _ in 0..32 {
            live.observe_session(&model, None, &[u(0), u(1)]);
        }
        assert!(!live.drifted(), "accurate phase must not signal drift");
        for _ in 0..8 {
            live.observe_session(&model, None, &[u(0), u(2)]);
        }
        assert!(live.drifted(), "window all-miss vs high lifetime mean");
    }

    #[test]
    fn drift_needs_minimum_samples_and_a_nonzero_baseline() {
        let model = trained_model(&[vec![u(0), u(1)]]);
        let mut live = LiveEval::new(LiveEvalConfig {
            window: 4,
            min_contexts: 16,
            ..LiveEvalConfig::default()
        });
        // Below min_contexts: never drifted, however bad the window.
        for _ in 0..4 {
            live.observe_session(&model, None, &[u(0), u(9)]);
        }
        assert!(!live.drifted());
        // An always-wrong model has a zero lifetime mean: not "drift".
        let mut always_wrong = LiveEval::new(LiveEvalConfig {
            window: 4,
            min_contexts: 2,
            ..LiveEvalConfig::default()
        });
        for _ in 0..32 {
            always_wrong.observe_session(&model, None, &[u(0), u(9)]);
        }
        assert!(!always_wrong.drifted(), "never-right is not newly-wrong");
    }

    #[test]
    fn per_grade_buckets_split_on_the_true_next_url() {
        let train: Vec<Vec<UrlId>> = (0..30).map(|_| vec![u(0), u(1)]).collect();
        let model = trained_model(&train);
        let pop = model.popularity().clone();
        let g1 = usize::from(pop.grade(u(1)).level());
        let mut live = LiveEval::new(LiveEvalConfig::default());
        live.observe_session(&model, Some(&pop), &[u(0), u(1)]);
        assert_eq!(live.by_grade()[g1].contexts, 1);
        assert_eq!(live.by_grade()[g1].hits_at_k, 1);
        let total: u64 = live.by_grade().iter().map(|g| g.contexts).sum();
        assert_eq!(total, 1, "exactly one bucket counted the context");
        // Without a table, no bucket moves.
        live.observe_session(&model, None, &[u(0), u(1)]);
        let total: u64 = live.by_grade().iter().map(|g| g.contexts).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn untrained_online_model_scores_zero_coverage_without_panic() {
        let online = OnlinePbPpm::new(cfg(), 100, 10);
        let mut live = LiveEval::new(LiveEvalConfig::default());
        let n = live.observe_session(&online, None, &[u(0), u(1), u(2)]);
        assert_eq!(n, 2);
        let q = live.window_quality();
        assert_eq!(q.contexts, 2);
        assert_eq!(q.covered, 0);
        assert_eq!(traffic_increment(&q), 0.0);
    }

    #[test]
    fn traffic_increment_counts_wasted_pushes() {
        let q = PredictionQuality {
            contexts: 10,
            emitted: 30,
            hits_at_k: 10,
            ..PredictionQuality::default()
        };
        assert!((traffic_increment(&q) - 2.0).abs() < 1e-12);
        assert_eq!(traffic_increment(&PredictionQuality::default()), 0.0);
    }

    #[test]
    fn short_sessions_produce_no_contexts() {
        let model = trained_model(&[vec![u(0), u(1)]]);
        let mut live = LiveEval::new(LiveEvalConfig::default());
        assert_eq!(live.observe_session(&model, None, &[]), 0);
        assert_eq!(live.observe_session(&model, None, &[u(0)]), 0);
        assert_eq!(live.lifetime().contexts, 0);
        assert_eq!(live.sessions(), 1, "a 1-view session still counts as seen");
    }
}
