//! Offline prediction-quality evaluation.
//!
//! The paper measures prefetching end to end (hit ratios through caches);
//! model development usually wants the *prediction* quality isolated from
//! cache dynamics. This module replays held-out sessions against a trained
//! [`Predictor`] and reports the standard ranking metrics: coverage,
//! precision@1/@k, mean reciprocal rank, and a prefetching-oriented
//! "useful@k" (the next `horizon` views, not just the immediate next one,
//! count — a pushed document helps whenever it is used before the session
//! ends).

use crate::interner::UrlId;
use crate::predictor::{Prediction, Predictor};
use serde::{Deserialize, Serialize};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Only predictions with at least this probability are considered
    /// (use the policy threshold to mirror deployment, 0.0 to see raw
    /// model quality).
    pub prob_threshold: f64,
    /// Ranking cutoff for the @k metrics.
    pub k: usize,
    /// How many upcoming views count as "useful" for `useful_at_k`
    /// (`usize::MAX` = until the session ends).
    pub horizon: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            prob_threshold: 0.0,
            k: 5,
            horizon: usize::MAX,
        }
    }
}

/// Aggregated prediction-quality counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictionQuality {
    /// Contexts evaluated (views that have a successor in their session).
    pub contexts: u64,
    /// Contexts with at least one prediction above the threshold.
    pub covered: u64,
    /// Contexts whose top prediction was the actual next view.
    pub hits_at_1: u64,
    /// Contexts whose top-k predictions contained the actual next view.
    pub hits_at_k: u64,
    /// Contexts where any top-k prediction appeared within the horizon.
    pub useful_at_k: u64,
    /// Sum of reciprocal ranks of the actual next view (0 when absent).
    pub reciprocal_rank_sum: f64,
    /// Total predictions emitted above the threshold.
    pub emitted: u64,
}

/// One scored context, compact enough to keep thousands around: the
/// counters are folded from these ([`PredictionQuality::record`]), so a
/// window of them recomputes its quality exactly, with no accumulated
/// float error from evicted entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextRecord {
    /// Predictions emitted above the threshold (after the k cutoff).
    pub emitted: u32,
    /// Rank (0-based) of the actual next URL among the emitted
    /// predictions, if present — carries hits@1, hits@k and the
    /// reciprocal rank.
    pub rank: Option<u32>,
    /// Any emitted prediction was used within the horizon.
    pub useful: bool,
    /// Popularity grade level (0–3) of the actual next URL, when a
    /// popularity table was available at scoring time.
    pub grade: Option<u8>,
}

impl ContextRecord {
    /// Scores the predictions `out` made for the context ending at
    /// `urls[i]` ([`context_at`]) against the session's continuation:
    /// first cuts `out` to what `cfg` scores (the threshold, then the k
    /// cutoff). `grade` is left `None`.
    pub(crate) fn score(
        out: &mut Vec<Prediction>,
        urls: &[UrlId],
        i: usize,
        cfg: &EvalConfig,
    ) -> Self {
        out.retain(|p| p.prob >= cfg.prob_threshold);
        out.truncate(cfg.k.max(1));
        let next = urls[i + 1];
        let horizon_end = i
            .saturating_add(1)
            .saturating_add(cfg.horizon)
            .min(urls.len());
        let upcoming = &urls[i + 1..horizon_end];
        let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Self {
            emitted: clamp(out.len()),
            rank: out.iter().position(|p| p.url == next).map(clamp),
            useful: out.iter().any(|p| upcoming.contains(&p.url)),
            grade: None,
        }
    }
}

/// The context a model is asked to predict from at view `i`: the session
/// prefix ending at `urls[i]`, capped at `context_cap` (≥ 1) URLs.
pub(crate) fn context_at(urls: &[UrlId], i: usize, context_cap: usize) -> &[UrlId] {
    &urls[(i + 1).saturating_sub(context_cap.max(1))..=i]
}

impl PredictionQuality {
    /// Folds one scored context into the counters.
    pub fn record(&mut self, r: &ContextRecord) {
        self.contexts += 1;
        self.emitted += u64::from(r.emitted);
        if r.emitted > 0 {
            self.covered += 1;
        }
        if let Some(rank) = r.rank {
            self.hits_at_k += 1;
            if rank == 0 {
                self.hits_at_1 += 1;
            }
            self.reciprocal_rank_sum += 1.0 / (f64::from(rank) + 1.0);
        }
        if r.useful {
            self.useful_at_k += 1;
        }
    }

    /// Adds `other`'s counters into `self` (pooling disjoint samples).
    pub fn merge(&mut self, other: &PredictionQuality) {
        self.contexts += other.contexts;
        self.covered += other.covered;
        self.hits_at_1 += other.hits_at_1;
        self.hits_at_k += other.hits_at_k;
        self.useful_at_k += other.useful_at_k;
        self.reciprocal_rank_sum += other.reciprocal_rank_sum;
        self.emitted += other.emitted;
    }

    /// Fraction of contexts with any prediction.
    pub fn coverage(&self) -> f64 {
        ratio(self.covered, self.contexts)
    }

    /// P(top prediction correct) over all contexts.
    pub fn precision_at_1(&self) -> f64 {
        ratio(self.hits_at_1, self.contexts)
    }

    /// P(next view in top k) over all contexts.
    pub fn precision_at_k(&self) -> f64 {
        ratio(self.hits_at_k, self.contexts)
    }

    /// P(any top-k prediction used within the horizon) over all contexts.
    pub fn useful_rate(&self) -> f64 {
        ratio(self.useful_at_k, self.contexts)
    }

    /// Mean reciprocal rank of the actual next view.
    pub fn mrr(&self) -> f64 {
        if self.contexts == 0 {
            0.0
        } else {
            self.reciprocal_rank_sum / self.contexts as f64
        }
    }

    /// Average predictions emitted per context.
    pub fn emitted_per_context(&self) -> f64 {
        if self.contexts == 0 {
            0.0
        } else {
            self.emitted as f64 / self.contexts as f64
        }
    }
}

#[inline]
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Replays `sessions` against `model` and aggregates quality counters.
///
/// For every view with a successor, the model is asked to predict from the
/// session prefix (capped at `context_cap` URLs); metrics compare against
/// the actual continuation.
pub fn evaluate<S: AsRef<[UrlId]>>(
    model: &mut dyn Predictor,
    sessions: &[S],
    context_cap: usize,
    cfg: &EvalConfig,
) -> PredictionQuality {
    let mut q = PredictionQuality::default();
    let mut out: Vec<Prediction> = Vec::new();
    for s in sessions {
        let urls = s.as_ref();
        for i in 0..urls.len().saturating_sub(1) {
            model.predict(context_at(urls, i, context_cap), &mut out);
            q.record(&ContextRecord::score(&mut out, urls, i, cfg));
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order1::Order1Markov;
    use crate::standard::StandardPpm;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    #[test]
    fn perfect_model_scores_one() {
        let mut m = StandardPpm::unbounded();
        let session = vec![u(0), u(1), u(2), u(3)];
        m.train_session(&session);
        m.finalize();
        let q = evaluate(&mut m, &[session], 12, &EvalConfig::default());
        assert_eq!(q.contexts, 3);
        assert_eq!(q.covered, 3);
        assert!((q.precision_at_1() - 1.0).abs() < 1e-12);
        assert!((q.precision_at_k() - 1.0).abs() < 1e-12);
        assert!((q.mrr() - 1.0).abs() < 1e-12);
        assert!((q.useful_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn untrained_model_scores_zero_coverage() {
        let mut m = StandardPpm::unbounded();
        m.finalize();
        let q = evaluate(&mut m, &[vec![u(0), u(1)]], 12, &EvalConfig::default());
        assert_eq!(q.contexts, 1);
        assert_eq!(q.covered, 0);
        assert_eq!(q.coverage(), 0.0);
        assert_eq!(q.precision_at_1(), 0.0);
    }

    #[test]
    fn rank_and_k_cutoff() {
        let mut m = Order1Markov::new();
        // After 0: 1 (x3), 2 (x2), 3 (x1).
        m.train_session(&[u(0), u(1), u(0), u(1), u(0), u(1)]);
        m.train_session(&[u(0), u(2), u(0), u(2)]);
        m.train_session(&[u(0), u(3)]);
        m.finalize();
        // Eval session where the truth is the *second*-ranked URL.
        let cfg = EvalConfig {
            k: 2,
            ..EvalConfig::default()
        };
        let q = evaluate(&mut m, &[vec![u(0), u(2)]], 12, &cfg);
        assert_eq!(q.hits_at_1, 0);
        assert_eq!(q.hits_at_k, 1);
        assert!((q.mrr() - 0.5).abs() < 1e-12);
        // With k = 1, the second-ranked truth is missed.
        let cfg1 = EvalConfig {
            k: 1,
            ..EvalConfig::default()
        };
        let q1 = evaluate(&mut m, &[vec![u(0), u(2)]], 12, &cfg1);
        assert_eq!(q1.hits_at_k, 0);
    }

    #[test]
    fn threshold_filters_low_probability_predictions() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1), u(0), u(1), u(0), u(2)]);
        m.finalize();
        // p(1)=2/3, p(2)=1/3: a 0.5 threshold keeps only url 1.
        let cfg = EvalConfig {
            prob_threshold: 0.5,
            ..EvalConfig::default()
        };
        let q = evaluate(&mut m, &[vec![u(0), u(2)]], 12, &cfg);
        assert_eq!(q.covered, 1);
        assert_eq!(q.emitted, 1);
        assert_eq!(q.hits_at_k, 0, "the truth was filtered out");
    }

    #[test]
    fn horizon_controls_usefulness() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(9)]);
        m.finalize();
        // The model always predicts 9 after 0; the eval session visits 9
        // two steps later.
        let session = vec![u(0), u(5), u(9)];
        let near = EvalConfig {
            horizon: 1,
            ..EvalConfig::default()
        };
        let far = EvalConfig {
            horizon: 5,
            ..EvalConfig::default()
        };
        let qn = evaluate(&mut m, std::slice::from_ref(&session), 12, &near);
        let qf = evaluate(&mut m, &[session], 12, &far);
        // context at view 0: prediction 9; within 1 view -> only u(5): miss.
        assert_eq!(qn.useful_at_k, 0);
        // within 5 views -> u(5), u(9): hit.
        assert_eq!(qf.useful_at_k, 1);
    }

    #[test]
    fn empty_input_is_safe() {
        let mut m = StandardPpm::unbounded();
        m.finalize();
        let q = evaluate(
            &mut m,
            &Vec::<Vec<UrlId>>::new(),
            12,
            &EvalConfig::default(),
        );
        assert_eq!(q, PredictionQuality::default());
        assert_eq!(q.mrr(), 0.0);
        assert_eq!(q.emitted_per_context(), 0.0);
    }

    /// Every derived ratio must report 0 — never NaN — on zero
    /// denominators, so downstream JSON stays clean numbers.
    #[test]
    fn zero_context_ratios_are_zero_not_nan() {
        let q = PredictionQuality::default();
        for value in [
            q.coverage(),
            q.precision_at_1(),
            q.precision_at_k(),
            q.useful_rate(),
            q.mrr(),
            q.emitted_per_context(),
        ] {
            assert_eq!(value, 0.0, "zero-denominator ratio must be exactly 0");
        }
        // The serialized form carries no NaN either (serde_json turns
        // non-finite floats into null, which breaks consumers).
        let json = serde_json::to_string(&q).unwrap();
        assert!(!json.contains("null") && !json.contains("NaN"), "{json}");
    }

    /// Degenerate parameters — single-view sessions, zero context cap,
    /// zero k, zero horizon — must not panic or divide by zero.
    #[test]
    fn degenerate_configs_are_safe() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1)]);
        m.finalize();
        // Single-view sessions produce no contexts at all.
        let q = evaluate(&mut m, &[vec![u(0)]], 12, &EvalConfig::default());
        assert_eq!(q.contexts, 0);
        assert_eq!(q.coverage(), 0.0);
        // Zero cap and zero k are clamped to 1; zero horizon means no
        // view can ever be "useful".
        let cfg = EvalConfig {
            k: 0,
            horizon: 0,
            ..EvalConfig::default()
        };
        let q = evaluate(&mut m, &[vec![u(0), u(1)]], 0, &cfg);
        assert_eq!(q.contexts, 1);
        assert_eq!(q.covered, 1, "k is clamped to 1, not truncated to none");
        assert_eq!(q.useful_at_k, 0, "zero horizon sees no upcoming views");
        assert!(q.mrr().is_finite());
    }
}
