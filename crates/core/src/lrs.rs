//! The **LRS-PPM** model (§3.2, second approach): Longest Repeating
//! Subsequences, after Pitkow & Pirolli, *"Mining longest repeating
//! subsequences to predict World Wide Web surfing"* (USENIX '99).
//!
//! A *repeating subsequence* is a contiguous URL sequence observed more than
//! once across all sessions; the model keeps only repeating paths, which is
//! equivalent to building the full suffix forest and discarding every node
//! traversed fewer than `min_support` (= 2) times. Keeping each maximal
//! repeating sequence *and* all of its suffix-rooted copies is what the paper
//! describes as branches being "cut and paste into multiple sub-branches
//! starting from different URLs" — the source of this model's node
//! duplication and of its fast growth in Table 1/Figure 4.
//!
//! Training therefore proceeds exactly like standard PPM; the LRS extraction
//! happens in [`LrsPpm::finalize`], which must be called before predicting.

use crate::frozen::{FrozenTree, NodeStore};
use crate::interner::UrlId;
use crate::predictor::{ModelKind, PredictUsage, Prediction, Predictor};
use crate::stats::ModelStats;
use crate::tree::Tree;

/// Default occurrence threshold: "if an URL sequence is accessed twice or
/// more, the sequence is considered as a frequently repeating one" (§4.1).
pub const DEFAULT_MIN_SUPPORT: u64 = 2;

/// LRS-PPM prediction model.
#[derive(Debug, Clone)]
pub struct LrsPpm {
    /// The training tree, replaced by the frozen arena (the serving read
    /// path) at finalize.
    pub(crate) store: NodeStore,
    pub(crate) min_support: u64,
    pub(crate) max_height: usize,
}

impl Default for LrsPpm {
    fn default() -> Self {
        Self::new()
    }
}

impl LrsPpm {
    /// Creates an LRS model with the paper's support threshold of 2.
    pub fn new() -> Self {
        Self::with_support(DEFAULT_MIN_SUPPORT)
    }

    /// Creates an LRS model with a custom support threshold (≥ 1).
    pub fn with_support(min_support: u64) -> Self {
        Self {
            store: NodeStore::default(),
            min_support: min_support.max(1),
            max_height: usize::from(u8::MAX),
        }
    }

    /// Caps the height of the training forest (defaults to unbounded; the
    /// original design keeps whole repeating sessions).
    pub fn with_max_height(mut self, h: u8) -> Self {
        self.max_height = usize::from(h).max(1);
        self
    }

    /// The pointer tree `finalize` would freeze: the training tree after
    /// the same support cut and compaction, never frozen. The reference
    /// oracle walks it ([`crate::reference`]); `None` once finalized.
    #[doc(hidden)]
    pub fn reference_tree(&self) -> Option<Tree> {
        let mut tree = self.store.tree()?.clone();
        support_cut(&mut tree, self.min_support);
        Some(tree)
    }

    /// Trains on every session, deterministically parallel: contiguous
    /// session partitions grow private partial forests which merge back in
    /// partition order ([`Tree::merge_from`]) — bit-identical to a
    /// sequential [`Predictor::train_session`] loop at every thread count
    /// (`0` = auto via `PBPPM_THREADS`/available parallelism). The LRS
    /// support cut happens wholly in [`Predictor::finalize`], after the
    /// merge, so it sees the same counts either way.
    pub fn train_sessions<S: AsRef<[UrlId]> + Sync>(&mut self, sessions: &[S], threads: usize) {
        let threads = crate::parallel::resolve_threads(threads).min(sessions.len().max(1));
        if threads <= 1 {
            for s in sessions {
                self.train_session(s.as_ref());
            }
            return;
        }
        let h = self.max_height;
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
    pub fn to_snapshot(&self) -> LrsSnapshot {
        LrsSnapshot {
            tree: self.store.image(),
            min_support: self.min_support,
            max_height: self.max_height,
        }
    }

    /// Restores a finalized model, rebuilding its arena from the image.
    pub fn from_snapshot(snap: &LrsSnapshot) -> Result<Self, crate::tree::SnapshotError> {
        Ok(Self {
            store: NodeStore::loaded(FrozenTree::from_snapshot(&snap.tree, None)?),
            min_support: snap.min_support,
            max_height: snap.max_height,
        })
    }
}

/// Finalize's LRS extraction: kills every node with fewer than
/// `min_support` traversals, then compacts.
fn support_cut(tree: &mut Tree, min_support: u64) {
    let victims: Vec<_> = tree
        .iter_alive()
        .filter(|&id| tree.node(id).count < min_support)
        .collect();
    for id in victims {
        tree.kill_subtree(id);
    }
    tree.compact();
}

/// A serializable image of a finalized [`LrsPpm`] model.
#[derive(Debug, Clone)]
pub struct LrsSnapshot {
    /// The frozen arena's rows: the extracted repeating forest.
    pub tree: crate::tree::TreeSnapshot,
    /// Occurrence threshold nodes had to clear at finalize.
    pub min_support: u64,
    /// Branch height cap used during training.
    pub max_height: usize,
}

impl Predictor for LrsPpm {
    fn kind(&self) -> ModelKind {
        ModelKind::Lrs
    }

    fn train_session(&mut self, session: &[UrlId]) {
        if let Some(tree) = self.store.tree_mut() {
            for start in 0..session.len() {
                tree.insert_path(&session[start..], self.max_height);
            }
        }
    }

    /// Extracts the repeating subsequences ([`support_cut`]) and freezes
    /// what survives into the arena that replaces the tree.
    fn finalize(&mut self) {
        let Some(tree) = self.store.tree_mut() else {
            return;
        };
        support_cut(tree, self.min_support);
        self.store.freeze(None);
        crate::verify::runtime_audit(&crate::verify::ModelRef::Lrs(self), "LrsPpm::finalize");
    }

    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage) {
        out.clear();
        if let Some(frozen) = self.frozen() {
            frozen.predict_descent(context, self.max_height, out, usage);
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

    /// The paper's Figure 1 (right-of-left pair): the LRS tree for
    /// `A B C A' B' C'` seen once keeps nothing — nothing repeats.
    #[test]
    fn single_occurrence_keeps_nothing() {
        let mut m = LrsPpm::new();
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        m.finalize();
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn repeated_sequences_survive() {
        let mut m = LrsPpm::new();
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
        let mut m = LrsPpm::new();
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
        let mut m = LrsPpm::new();
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
        let mut m = LrsPpm::new();
        m.train_session(&[u(0), u(1)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn custom_support_threshold() {
        let mut m = LrsPpm::with_support(3);
        for _ in 0..2 {
            m.train_session(&[u(0), u(1)]);
        }
        m.train_session(&[u(0), u(2)]);
        m.finalize();
        // Root 0 has count 3 and survives; both children have < 3.
        assert_eq!(m.node_count(), 1);
    }

    #[test]
    fn grows_faster_than_its_pruned_size_suggests() {
        // Before finalize the LRS training forest is a full standard forest.
        let mut m = LrsPpm::new();
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        assert_eq!(m.node_count(), 4 + 3 + 2 + 1);
        m.finalize();
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut m = LrsPpm::new();
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2)]);
        }
        m.finalize();
        let mut before = Vec::new();
        m.predict(&[u(0)], &mut before);
        let mut back = LrsPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(back.node_count(), m.node_count());
        let mut after = Vec::new();
        back.predict(&[u(0)], &mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn longest_match_is_used() {
        let mut m = LrsPpm::new();
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
