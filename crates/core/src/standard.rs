//! The **standard PPM** model (§3.2, first approach), and LRS-PPM, which is
//! standard PPM with a support cut.
//!
//! For every access session `s₀ s₁ … sₙ₋₁` a branch is created from *every*
//! position: the suffix starting at `sᵢ` is inserted under a root for `sᵢ`,
//! truncated to the configured maximum height. With a fixed height `m` this
//! is the classic order-(m−1) PPM forest used by Palpanas & Mendelzon and by
//! Fan et al.; with no height limit it is the paper's "upper bound of
//! prediction accuracy" configuration used in §4.
//!
//! Its two weaknesses — motivating PB-PPM — are reproduced faithfully here:
//! storage grows with every distinct subsequence ever observed, and most
//! stored paths are never used for a prediction.
//!
//! **LRS-PPM** (§3.2, second approach) is Longest Repeating Subsequences,
//! after Pitkow & Pirolli, *"Mining longest repeating subsequences to
//! predict World Wide Web surfing"* (USENIX '99). A *repeating subsequence*
//! is a contiguous URL sequence observed more than once across all
//! sessions; the model keeps only repeating paths, which is the full
//! suffix forest with every node traversed fewer than `min_support` (= 2)
//! times cut away at finalize ([`StandardPpm::lrs`]). Keeping each maximal
//! repeating sequence *and* all of its suffix-rooted copies is what the
//! paper describes as branches being "cut and paste into multiple
//! sub-branches starting from different URLs" — the source of that model's
//! node duplication and of its fast growth in Table 1/Figure 4.

use crate::frozen::{Emit, FrozenTree, NodeStore, SnapshotError, TreeSnapshot};
use crate::interner::UrlId;
use crate::predictor::{ModelKind, PredictUsage, Prediction, Predictor};
use crate::prune::PruneConfig;
use crate::stats::ModelStats;

/// LRS-PPM's occurrence threshold: "if an URL sequence is accessed twice or
/// more, the sequence is considered as a frequently repeating one" (§4.1).
const LRS_MIN_SUPPORT: u64 = 2;

/// Standard PPM prediction model; with a support threshold, LRS-PPM.
#[derive(Debug, Clone)]
pub struct StandardPpm {
    /// The counted training paths, replaced by the frozen arena (the
    /// serving read path) at finalize.
    pub(crate) store: NodeStore,
    pub(crate) max_height: Option<u8>,
    /// `Some(n)`: LRS-PPM — finalize cuts every node traversed fewer than
    /// `n` times. `None`: standard PPM keeps the whole forest.
    pub(crate) min_support: Option<u64>,
}

impl StandardPpm {
    /// Creates a standard PPM model with branches capped at `max_height`
    /// nodes (`None` = unbounded, bounded in practice by session length).
    pub fn new(max_height: Option<u8>) -> Self {
        Self {
            store: NodeStore::default(),
            max_height,
            min_support: None,
        }
    }

    /// The unbounded-height configuration of §4 ("upper bound").
    pub fn unbounded() -> Self {
        Self::new(None)
    }

    /// LRS-PPM: the unbounded forest, keeping only paths seen at least
    /// twice.
    pub fn lrs() -> Self {
        Self::lrs_with_support(LRS_MIN_SUPPORT)
    }

    /// LRS-PPM with a custom support threshold (≥ 1); the paper uses 2,
    /// and the parallel-training property test varies it.
    pub fn lrs_with_support(min_support: u64) -> Self {
        Self {
            min_support: Some(min_support.max(1)),
            ..Self::unbounded()
        }
    }

    /// Branch height cap for training, and the longest context (in URLs)
    /// considered when matching.
    pub(crate) fn height(&self) -> usize {
        self.max_height
            .map_or(usize::from(u8::MAX), usize::from)
            .max(1)
    }

    /// Trains on every session, deterministically parallel
    /// (`NodeStore::train_sessions`): bit-identical to a sequential
    /// [`Predictor::train_session`] loop at every thread count (`0` = auto
    /// via `PBPPM_THREADS`/available parallelism). The LRS support cut
    /// happens wholly in [`Predictor::finalize`], after the merge, so it
    /// sees the same counts either way.
    pub fn train_sessions<S: AsRef<[UrlId]> + Sync>(&mut self, sessions: &[S], threads: usize) {
        let h = self.height();
        self.store
            .train_sessions(sessions, threads, |s, out| emit_suffixes(s, h, out));
    }

    /// Serializes the finalized model for persistence.
    pub fn to_snapshot(&self) -> StandardSnapshot {
        StandardSnapshot {
            tree: self.store.image(),
            max_height: self.max_height,
            min_support: self.min_support,
        }
    }

    /// Restores a finalized model, rebuilding its arena from the image.
    pub fn from_snapshot(snap: &StandardSnapshot) -> Result<Self, SnapshotError> {
        Ok(Self {
            store: NodeStore::loaded(FrozenTree::from_snapshot(&snap.tree)?),
            max_height: snap.max_height,
            min_support: snap.min_support,
        })
    }
}

/// Emits a branch from every position of `session`, each capped at `h`
/// nodes.
fn emit_suffixes(session: &[UrlId], h: usize, out: &mut Emit<'_>) {
    for start in 0..session.len() {
        out.path(start..session.len().min(start + h));
    }
}

/// A serializable image of a finalized [`StandardPpm`] model.
#[derive(Debug, Clone)]
pub struct StandardSnapshot {
    /// The frozen arena's rows.
    pub tree: TreeSnapshot,
    /// Branch height cap (`None` = unbounded).
    pub max_height: Option<u8>,
    /// LRS support threshold (`None` = standard PPM).
    pub min_support: Option<u64>,
}

impl Predictor for StandardPpm {
    fn kind(&self) -> ModelKind {
        if self.min_support.is_some() {
            ModelKind::Lrs
        } else {
            ModelKind::Standard {
                max_height: self.max_height,
            }
        }
    }

    fn train_session(&mut self, session: &[UrlId]) {
        let h = self.height();
        self.store
            .train_session(session, |s, out| emit_suffixes(s, h, out));
    }

    /// Counts the paths into the arena that replaces them. LRS cuts every
    /// node traversed fewer than `min_support` times, and with it the
    /// subtree below.
    fn finalize(&mut self) {
        let support = PruneConfig {
            relative_threshold: None,
            min_abs_count: self.min_support.map(|s| s.saturating_sub(1)),
        };
        if self.store.finalize(&support).is_none() {
            return;
        }
        crate::verify::runtime_audit(
            &crate::verify::ModelRef::Standard(self),
            "StandardPpm::finalize",
        );
    }

    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage) {
        out.clear();
        if let Some(frozen) = self.frozen() {
            frozen.predict_descent(context, self.height(), out, usage);
        }
    }

    fn apply_usage(&mut self, usage: &PredictUsage) {
        self.store.apply_descent_usage(usage);
    }

    fn frozen(&self) -> Option<&FrozenTree> {
        self.store.arena()
    }

    fn node_count(&self) -> usize {
        self.store.node_count()
    }

    fn image(&self) -> Option<crate::snapshot::ModelImage> {
        Some(crate::snapshot::ModelImage::Standard(self.to_snapshot()))
    }

    fn stats(&self) -> ModelStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// The paper's Figure 1 (left): standard PPM for the access sequence
    /// `A B C A' B' C'` stores a branch from every position.
    #[test]
    fn figure1_left_shape() {
        // A=0 B=1 C=2 A'=3 B'=4 C'=5, max height 4 as in the figure.
        let mut m = StandardPpm::new(Some(4));
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        m.finalize();
        // Six roots, one per position.
        assert_eq!(m.stats().roots, 6);
        // Branch from A holds A B C A' (height 4).
        let t = m.frozen().unwrap();
        assert!(t.descend(&[u(0), u(1), u(2), u(3)]).is_some());
        assert!(t.descend(&[u(0), u(1), u(2), u(3), u(4)]).is_none());
        // Total nodes: 4 + 4 + 4 + 3 + 2 + 1 = 18.
        assert_eq!(m.node_count(), 18);
    }

    #[test]
    fn predicts_next_url_with_correct_probability() {
        let mut m = StandardPpm::unbounded();
        // After A: B twice, C once.
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(2)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].url, u(1));
        assert!((out[0].prob - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out[1].url, u(2));
        assert!((out[1].prob - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn longest_match_beats_shorter_contexts() {
        let mut m = StandardPpm::unbounded();
        // Globally after B, C is most common; but after A B, D always follows.
        m.train_session(&[u(1), u(2)]); // B C
        m.train_session(&[u(1), u(2)]);
        m.train_session(&[u(0), u(1), u(3)]); // A B D
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0), u(1)], &mut out);
        assert_eq!(out[0].url, u(3), "order-2 context must win");
        assert!((out[0].prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn falls_back_to_shorter_suffix_when_long_context_unknown() {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(1), u(2)]);
        m.finalize();
        let mut out = Vec::new();
        // u(9) was never seen; the suffix [u(1)] still matches.
        m.predict(&[u(9), u(1)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].url, u(2));
    }

    #[test]
    fn unknown_context_predicts_nothing() {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(1), u(2)]);
        m.finalize();
        let mut out = vec![Prediction::new(u(0), 1.0)];
        m.predict(&[u(7)], &mut out);
        assert!(out.is_empty(), "out must be cleared and left empty");
        m.predict(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_session_is_ignored() {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[]);
        m.finalize();
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn height_limit_bounds_prediction_order() {
        let mut m = StandardPpm::new(Some(2));
        m.train_session(&[u(0), u(1), u(2)]);
        m.finalize();
        // Branch from 0 holds only 0->1; matching context [0,1] must use the
        // suffix [1] (branch 1->2), not a depth-3 path.
        let mut out = Vec::new();
        m.predict(&[u(0), u(1)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].url, u(2));
    }

    #[test]
    fn node_count_grows_with_distinct_subsequences() {
        let nodes = |sessions: &[&[UrlId]]| {
            let mut m = StandardPpm::unbounded();
            for s in sessions {
                m.train_session(s);
            }
            m.finalize();
            m.node_count()
        };
        let (a, b) = ([u(0), u(1), u(2)], [u(0), u(1), u(3)]);
        let n1 = nodes(&[&a]);
        assert_eq!(nodes(&[&a, &a]), n1, "identical: no growth");
        assert!(nodes(&[&a, &a, &b]) > n1, "one new leaf + suffixes");
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut m = StandardPpm::new(Some(4));
        m.train_session(&[u(0), u(1), u(2)]);
        m.train_session(&[u(0), u(1), u(3)]);
        m.finalize();
        let mut before = Vec::new();
        m.predict(&[u(0), u(1)], &mut before);
        let mut back = StandardPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(back.node_count(), m.node_count());
        let mut after = Vec::new();
        back.predict(&[u(0), u(1)], &mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn prediction_marks_paths_used() {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(2), u(3)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        let s = m.stats();
        assert!(s.used_paths >= 1);
        assert!(s.used_paths < s.total_paths);
    }

    /// The paper's Figure 1 (right-of-left pair): the LRS tree for
    /// `A B C A' B' C'` seen once keeps nothing — nothing repeats.
    #[test]
    fn single_occurrence_keeps_nothing() {
        let mut m = StandardPpm::lrs();
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        m.finalize();
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn repeated_sequences_survive() {
        let mut m = StandardPpm::lrs();
        m.train_session(&[u(0), u(1), u(2)]);
        m.train_session(&[u(0), u(1), u(3)]);
        m.finalize();
        // 0->1 repeats (twice); 1 as a suffix root repeats; 2 and 3 do not.
        let t = m.frozen().unwrap();
        assert!(t.descend(&[u(0), u(1)]).is_some());
        assert!(t.descend(&[u(0), u(1), u(2)]).is_none());
        assert!(t.descend(&[u(1)]).is_some());
        assert!(t.descend(&[u(2)]).is_none());
        // Surviving nodes: 0, 0->1, 1 root.
        assert_eq!(m.node_count(), 3);
    }

    #[test]
    fn suffix_copies_are_kept_separately() {
        // The "cut and paste" duplication: the repeating sequence A B C is
        // stored under A, under B, and under C.
        let mut m = StandardPpm::lrs();
        m.train_session(&[u(0), u(1), u(2)]);
        m.train_session(&[u(0), u(1), u(2)]);
        m.finalize();
        let t = m.frozen().unwrap();
        assert!(t.descend(&[u(0), u(1), u(2)]).is_some());
        assert!(t.descend(&[u(1), u(2)]).is_some());
        assert!(t.descend(&[u(2)]).is_some());
        assert_eq!(m.node_count(), 6);
    }

    #[test]
    fn predicts_only_from_repeating_paths() {
        let mut m = StandardPpm::lrs();
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(2)]); // seen once: pruned
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].url, u(1));
        // Probability uses the *original* counts: 2 of 3 accesses to 0 led
        // to 1.
        assert!((out[0].prob - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unseen_or_unrepeated_context_predicts_nothing() {
        let mut m = StandardPpm::lrs();
        m.train_session(&[u(0), u(1)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn lrs_custom_support_threshold() {
        let mut m = StandardPpm::lrs_with_support(3);
        for _ in 0..2 {
            m.train_session(&[u(0), u(1)]);
        }
        m.train_session(&[u(0), u(2)]);
        m.finalize();
        // Root 0 has count 3 and survives; both children have < 3.
        assert_eq!(m.node_count(), 1);
    }

    #[test]
    fn lrs_grows_faster_than_its_pruned_size_suggests() {
        // LRS counts the full standard forest; only the support cut at
        // finalize shrinks it. A model still training has no arena yet.
        let session = [u(0), u(1), u(2), u(3)];
        let mut m = StandardPpm::lrs();
        m.train_session(&session);
        assert_eq!(m.node_count(), 0);
        assert_eq!(m.stats(), ModelStats::default());
        m.finalize();
        assert_eq!(m.node_count(), 0);
        let mut uncut = StandardPpm::lrs_with_support(1);
        uncut.train_session(&session);
        uncut.finalize();
        assert_eq!(uncut.node_count(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn lrs_snapshot_roundtrip_preserves_predictions() {
        let mut m = StandardPpm::lrs();
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2)]);
        }
        m.finalize();
        let mut before = Vec::new();
        m.predict(&[u(0)], &mut before);
        let mut back = StandardPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(back.node_count(), m.node_count());
        let mut after = Vec::new();
        back.predict(&[u(0)], &mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn lrs_longest_match_is_used() {
        let mut m = StandardPpm::lrs();
        for _ in 0..2 {
            m.train_session(&[u(0), u(1), u(3)]);
            m.train_session(&[u(9), u(1), u(4)]);
        }
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0), u(1)], &mut out);
        assert_eq!(out[0].url, u(3), "order-2 match must win over root 1");
        assert!((out[0].prob - 1.0).abs() < 1e-12);
    }
}
