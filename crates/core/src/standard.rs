//! The **standard PPM** model (§3.2, first approach).
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

use crate::frozen::{FrozenTree, NodeStore};
use crate::interner::UrlId;
use crate::predictor::{ModelKind, PredictUsage, Prediction, Predictor};
use crate::stats::ModelStats;
use crate::tree::Tree;

/// Standard PPM prediction model.
#[derive(Debug, Clone)]
pub struct StandardPpm {
    /// The training tree, replaced by the frozen arena (the serving read
    /// path) at finalize.
    pub(crate) store: NodeStore,
    pub(crate) max_height: Option<u8>,
    /// Longest context (in URLs) considered when matching.
    pub(crate) max_order: usize,
}

impl StandardPpm {
    /// Creates a standard PPM model with branches capped at `max_height`
    /// nodes (`None` = unbounded, bounded in practice by session length).
    pub fn new(max_height: Option<u8>) -> Self {
        let max_order = max_height.map_or(usize::from(u8::MAX), |h| usize::from(h).max(1));
        Self {
            store: NodeStore::default(),
            max_height,
            max_order,
        }
    }

    /// The conventional "3-PPM" used throughout the paper's §3 figures.
    pub fn order3() -> Self {
        Self::new(Some(3))
    }

    /// The unbounded-height configuration of §4 ("upper bound").
    pub fn unbounded() -> Self {
        Self::new(None)
    }

    /// The pointer tree `finalize` would freeze (compacted, never frozen),
    /// for the reference oracle ([`crate::reference`]); `None` once
    /// finalized.
    #[doc(hidden)]
    pub fn reference_tree(&self) -> Option<Tree> {
        let mut tree = self.store.tree()?.clone();
        tree.compact();
        Some(tree)
    }

    /// Trains on every session, deterministically parallel: contiguous
    /// session partitions grow private partial forests which merge back in
    /// partition order ([`Tree::merge_from`]) — bit-identical to a
    /// sequential [`Predictor::train_session`] loop at every thread count
    /// (`0` = auto via `PBPPM_THREADS`/available parallelism).
    pub fn train_sessions<S: AsRef<[UrlId]> + Sync>(&mut self, sessions: &[S], threads: usize) {
        let threads = crate::parallel::resolve_threads(threads).min(sessions.len().max(1));
        if threads <= 1 {
            for s in sessions {
                self.train_session(s.as_ref());
            }
            return;
        }
        let h = self
            .max_height
            .map_or(usize::from(u8::MAX), usize::from)
            .max(1);
        let ranges = crate::parallel::partition_ranges(sessions.len(), threads);
        let donors = crate::parallel::parallel_map_with(&ranges, threads, |r| {
            let mut tree = Tree::new();
            for s in &sessions[r.clone()] {
                let s = s.as_ref();
                for start in 0..s.len() {
                    tree.insert_path(&s[start..], h);
                }
            }
            tree
        });
        if let Some(tree) = self.store.tree_mut() {
            for donor in &donors {
                tree.merge_from(donor);
            }
        }
    }

    /// Serializes the finalized model for persistence.
    pub fn to_snapshot(&self) -> StandardSnapshot {
        StandardSnapshot {
            tree: self.store.image(),
            max_height: self.max_height,
        }
    }

    /// Restores a finalized model, rebuilding its arena from the image.
    pub fn from_snapshot(snap: &StandardSnapshot) -> Result<Self, crate::tree::SnapshotError> {
        let mut m = Self::new(snap.max_height);
        m.store = NodeStore::loaded(FrozenTree::from_snapshot(&snap.tree, None)?);
        Ok(m)
    }
}

/// A serializable image of a finalized [`StandardPpm`] model.
#[derive(Debug, Clone)]
pub struct StandardSnapshot {
    /// The frozen arena's rows.
    pub tree: crate::tree::TreeSnapshot,
    /// Branch height cap (`None` = unbounded).
    pub max_height: Option<u8>,
}

impl Predictor for StandardPpm {
    fn kind(&self) -> ModelKind {
        ModelKind::Standard {
            max_height: self.max_height,
        }
    }

    fn train_session(&mut self, session: &[UrlId]) {
        let h = self
            .max_height
            .map_or(usize::from(u8::MAX), usize::from)
            .max(1);
        if let Some(tree) = self.store.tree_mut() {
            for start in 0..session.len() {
                tree.insert_path(&session[start..], h);
            }
        }
    }

    fn finalize(&mut self) {
        if self.store.freeze(None).is_none() {
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
            frozen.predict_descent(context, self.max_order, out, usage);
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
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(0), u(1), u(2)]);
        let n1 = m.node_count();
        m.train_session(&[u(0), u(1), u(2)]); // identical: no growth
        assert_eq!(m.node_count(), n1);
        m.train_session(&[u(0), u(1), u(3)]); // one new leaf + suffixes
        assert!(m.node_count() > n1);
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
}
