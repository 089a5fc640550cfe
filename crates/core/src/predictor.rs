//! The common interface all prediction models implement.

use crate::frozen::NodeId;
use crate::interner::UrlId;
use crate::stats::ModelStats;
use serde::{Deserialize, Serialize};

/// One predicted next access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The URL the model expects to be requested next.
    pub url: UrlId,
    /// Conditional probability estimate in `(0, 1]`.
    pub prob: f64,
}

impl Prediction {
    /// Convenience constructor.
    pub fn new(url: UrlId, prob: f64) -> Self {
        Self { url, prob }
    }
}

/// Which model family a [`Predictor`] belongs to (used by configs, result
/// tables and the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Standard PPM with the given maximum branch height
    /// (`None` = unbounded, the paper's upper-bound configuration).
    Standard {
        /// Maximum branch height; `None` leaves branches unbounded.
        max_height: Option<u8>,
    },
    /// Longest-Repeating-Subsequence PPM.
    Lrs,
    /// Popularity-based PPM (the paper's contribution).
    Pb,
    /// First-order Markov baseline.
    Order1,
    /// Popularity-only Top-N baseline (Markatos & Chronaki).
    TopN {
        /// How many top documents are pushed.
        n: usize,
    },
}

impl ModelKind {
    /// Short human-readable label used in printed tables.
    pub fn label(&self) -> String {
        match self {
            ModelKind::Standard { max_height: None } => "PPM".to_owned(),
            ModelKind::Standard {
                max_height: Some(h),
            } => format!("{h}-PPM"),
            ModelKind::Lrs => "LRS-PPM".to_owned(),
            ModelKind::Pb => "PB-PPM".to_owned(),
            ModelKind::Order1 => "O1-Markov".to_owned(),
            ModelKind::TopN { n } => format!("Top-{n}"),
        }
    }
}

/// Usage bookkeeping a read-only prediction wants applied to the model.
///
/// Prediction itself never changes what a model would predict, but models
/// record which stored paths were exercised (the paper's *path utilization*
/// metric, Fig. 2) and how many predictions each mechanism emitted. Those
/// side effects are collected here by [`Predictor::predict_ro`] and played
/// back by [`Predictor::apply_usage`], so prediction can run on `&self` —
/// which is what lets the evaluation engine share one model across worker
/// threads and merge usage deterministically afterwards.
///
/// All effects are idempotent flag sets or saturating counters, so applying
/// a merged batch once is equivalent to applying each record as it happened.
#[derive(Debug, Clone, Default)]
pub struct PredictUsage {
    /// Arena rows to flag used in the model's path-usage bitset.
    pub used_nodes: Vec<NodeId>,
    /// Arena rows whose whole ancestor path is flagged used.
    pub used_paths: Vec<NodeId>,
    /// The model as a whole produced output (Top-N's single flag).
    pub touched: bool,
    /// Predictions emitted through PB-PPM special links.
    pub link_preds: u64,
    /// Predictions emitted through PB-PPM branch matching.
    pub branch_preds: u64,
    /// Bucket keys of the PB-PPM fingerprint groups that voted. A group
    /// votes whole (the longest-first argument in [`crate::pb`]'s module
    /// docs), so `apply_usage` flags the key's group and reading path
    /// usage marks every voter's path and children — recording a key
    /// here instead of the member nodes keeps the fast path free of
    /// per-member work, and since flags are idempotent the records
    /// deduplicate freely.
    pub used_groups: Vec<u64>,
    /// Nodes whose *entire* child row voted (the frozen CSR vote of the
    /// descent serving path). Like [`Self::used_groups`], one record
    /// stands in for every member: `apply_usage` expands it back to
    /// per-child marks, keeping the hot predict loop free of per-child
    /// pushes.
    pub used_child_rows: Vec<NodeId>,
    /// Context matches answered by the model's serving path (a frozen
    /// descent, or a clean PB-PPM fingerprint bucket). Plain counters so the
    /// predict path stays free of atomics; the engine folds them into the
    /// telemetry registry after the merge.
    pub index_fast: u64,
    /// PB-PPM context matches a dirty fingerprint bucket forced through
    /// per-member verification.
    pub index_fallback: u64,
}

impl PredictUsage {
    /// Empties the record for reuse.
    pub fn clear(&mut self) {
        self.used_nodes.clear();
        self.used_paths.clear();
        self.touched = false;
        self.link_preds = 0;
        self.branch_preds = 0;
        self.used_groups.clear();
        self.used_child_rows.clear();
        self.index_fast = 0;
        self.index_fallback = 0;
    }

    /// Folds another record into this one.
    pub fn merge(&mut self, other: &PredictUsage) {
        self.used_nodes.extend_from_slice(&other.used_nodes);
        self.used_paths.extend_from_slice(&other.used_paths);
        self.touched |= other.touched;
        self.link_preds += other.link_preds;
        self.branch_preds += other.branch_preds;
        self.used_groups.extend_from_slice(&other.used_groups);
        self.used_child_rows
            .extend_from_slice(&other.used_child_rows);
        self.index_fast += other.index_fast;
        self.index_fallback += other.index_fallback;
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.used_nodes.is_empty()
            && self.used_paths.is_empty()
            && !self.touched
            && self.link_preds == 0
            && self.branch_preds == 0
            && self.used_groups.is_empty()
            && self.used_child_rows.is_empty()
            && self.index_fast == 0
            && self.index_fallback == 0
    }
}

/// A trainable next-URL prediction model.
///
/// ## Protocol
///
/// 1. call [`Predictor::train_session`] for every access session of the
///    training window (sessions come from `pbppm-trace`'s sessionizer);
/// 2. call [`Predictor::finalize`] once — LRS extraction and PB-PPM space
///    optimization happen here;
/// 3. call [`Predictor::predict`] for each request of the evaluation window
///    — or [`Predictor::predict_ro`] on a shared reference, applying the
///    collected [`PredictUsage`] later via [`Predictor::apply_usage`].
pub trait Predictor: Send + Sync {
    /// The model family.
    fn kind(&self) -> ModelKind;

    /// Trains on one access session (the URL sequence one client visited
    /// without a 30-minute gap). Empty sessions are ignored.
    fn train_session(&mut self, session: &[UrlId]);

    /// Finishes training. Must be called exactly once, after the last
    /// `train_session` and before the first `predict`.
    fn finalize(&mut self);

    /// Read-only prediction: like [`Predictor::predict`] but on `&self`,
    /// appending the usage bookkeeping to `usage` (never clearing it, so
    /// one record can accumulate a whole batch) instead of applying it.
    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage);

    /// Applies usage collected by [`Predictor::predict_ro`] calls. Records
    /// from several calls may be merged and applied once.
    fn apply_usage(&mut self, usage: &PredictUsage);

    /// Predicts the next URLs given `context`, the URLs of the current
    /// session so far (oldest first, current click last). Predictions are
    /// appended to `out` sorted by descending probability; `out` is cleared
    /// first. No probability threshold is applied here — thresholding is a
    /// prefetch-policy decision made by the caller.
    fn predict(&mut self, context: &[UrlId], out: &mut Vec<Prediction>) {
        let mut usage = PredictUsage::default();
        self.predict_ro(context, out, &mut usage);
        self.apply_usage(&usage);
    }

    /// Batched prediction: fills `outs[i]` with the predictions for
    /// `contexts[i]` (resizing `outs` to match), applying the accumulated
    /// usage once at the end. Semantically identical to calling
    /// [`Predictor::predict`] per context, with the per-call bookkeeping
    /// amortized.
    fn predict_many(&mut self, contexts: &[&[UrlId]], outs: &mut Vec<Vec<Prediction>>) {
        outs.resize_with(contexts.len(), Vec::new);
        outs.truncate(contexts.len());
        let mut usage = PredictUsage::default();
        for (&context, out) in contexts.iter().zip(outs.iter_mut()) {
            self.predict_ro(context, out, &mut usage);
        }
        self.apply_usage(&usage);
    }

    /// The frozen SoA/CSR arena this model serves from, if it has been
    /// finalized into one. Models without a frozen form (baselines,
    /// pre-finalize states) return `None`.
    fn frozen(&self) -> Option<&crate::frozen::FrozenTree> {
        None
    }

    /// The image a `.pbss` model file stores for this model; `None` for
    /// models that are never written to one.
    fn image(&self) -> Option<crate::snapshot::ModelImage> {
        None
    }

    /// The paper's space metric: number of URL nodes the model stores.
    fn node_count(&self) -> usize;

    /// Structural statistics snapshot.
    fn stats(&self) -> ModelStats;
}

/// Sorts predictions by descending probability (ties broken by URL id so
/// output order is deterministic) and truncates to `max`.
pub fn rank_predictions(out: &mut Vec<Prediction>, max: usize) {
    out.sort_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.url.cmp(&b.url))
    });
    // One URL can be suggested by several mechanisms (e.g. PB's branch match
    // and a special link); keep the highest-probability copy.
    let mut seen = crate::fxhash::FxHashSet::default();
    out.retain(|p| seen.insert(p.url));
    out.truncate(max);
}

/// [`rank_predictions`] for an input already distinct by URL — one frozen
/// CSR child row, whose keys are unique by construction. Skips the dedup
/// set (and its allocation); the `(prob desc, url asc)` key is a strict
/// total order on distinct URLs, so the unstable sort produces exactly the
/// ordering `rank_predictions` would.
pub(crate) fn rank_distinct_predictions(out: &mut [Prediction]) {
    out.sort_unstable_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.url.cmp(&b.url))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    #[test]
    fn labels() {
        assert_eq!(ModelKind::Standard { max_height: None }.label(), "PPM");
        assert_eq!(
            ModelKind::Standard {
                max_height: Some(3)
            }
            .label(),
            "3-PPM"
        );
        assert_eq!(ModelKind::Lrs.label(), "LRS-PPM");
        assert_eq!(ModelKind::Pb.label(), "PB-PPM");
    }

    #[test]
    fn rank_sorts_dedups_and_truncates() {
        let mut v = vec![
            Prediction::new(u(1), 0.5),
            Prediction::new(u(2), 0.9),
            Prediction::new(u(1), 0.7),
            Prediction::new(u(3), 0.1),
        ];
        rank_predictions(&mut v, 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].url, u(2));
        assert_eq!(v[1].url, u(1));
        assert_eq!(v[1].prob, 0.7); // higher-probability duplicate won
    }

    #[test]
    fn rank_breaks_probability_ties_on_url_id() {
        let mut v = vec![Prediction::new(u(9), 0.5), Prediction::new(u(1), 0.5)];
        rank_predictions(&mut v, 10);
        assert_eq!(v[0].url, u(1));
        assert_eq!(v[1].url, u(9));
    }
}
