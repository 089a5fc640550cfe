//! First-order Markov baseline.
//!
//! Several of the systems the paper cites in related work (Bestavros'
//! speculation service, Padmanabhan & Mogul, Sarukkai's link prediction)
//! predict from the current URL alone — a first-order Markov chain. It is
//! included as an extra comparator. It is the degenerate `2-PPM`, and it is
//! stored as one: a height-2 *pair forest* in the shared node store. Every
//! adjacent click pair of a session is inserted as a two-node path, so a
//! root counts the transitions out of its URL and each child counts one
//! transition. Training, matching, usage, statistics and the audit are the
//! suffix-forest models' own; only the persisted row layout is O1's.

use crate::frozen::{Emit, FrozenTree, NodeSnapshot, NodeStore, SnapshotError, TreeSnapshot};
use crate::interner::UrlId;
use crate::predictor::{ModelKind, PredictUsage, Prediction, Predictor};
use crate::prune::PruneConfig;
use crate::stats::ModelStats;

/// First-order Markov prediction model.
#[derive(Debug, Clone, Default)]
pub struct Order1Markov {
    /// The counted pairs while training, the frozen arena from finalize on.
    pub(crate) store: NodeStore,
}

impl Order1Markov {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains on every session, deterministically parallel
    /// (`NodeStore::train_sessions`): bit-identical to a sequential
    /// [`Predictor::train_session`] loop at every thread count (`0` = auto
    /// via `PBPPM_THREADS`/available parallelism).
    pub fn train_sessions<S: AsRef<[UrlId]> + Sync>(&mut self, sessions: &[S], threads: usize) {
        self.store.train_sessions(sessions, threads, emit_pairs);
    }

    /// Serializes the finalized model as transition rows, read off the
    /// arena's roots (sorted by URL) and their child rows (sorted by URL).
    /// A model still training has no arena and yields no rows: only
    /// finalized models are written.
    pub fn to_snapshot(&self) -> Order1Snapshot {
        let rows = self.store.arena().map_or_else(Vec::new, |arena| {
            arena
                .roots()
                .map(|root| Order1RowSnapshot {
                    url: arena.url(root).0,
                    total: arena.count(root),
                    next: arena
                        .children(root)
                        .map(|next| (arena.url(next).0, arena.count(next)))
                        .collect(),
                })
                .collect()
        });
        Order1Snapshot { rows }
    }

    /// Restores a finalized model, building its arena from the rows through
    /// [`FrozenTree::from_snapshot`]: the rows are its roots and their
    /// successors the next level, already in level order. The loader
    /// requires rows and each row's successors strictly sorted by URL, the
    /// order [`Order1Markov::to_snapshot`] writes, so a repeated or
    /// out-of-order one is refused.
    pub fn from_snapshot(snap: &Order1Snapshot) -> Result<Self, SnapshotError> {
        let mut nodes = Vec::with_capacity(snap.rows.len());
        for row in &snap.rows {
            let children = u32::try_from(row.next.len())
                .map_err(|_| SnapshotError::Malformed("order-1 rows past u32 ids"))?;
            nodes.push(NodeSnapshot {
                url: row.url,
                count: row.total,
                children,
            });
        }
        let successors = snap.rows.iter().flat_map(|row| &row.next);
        nodes.extend(successors.map(|&(url, count)| NodeSnapshot {
            url,
            count,
            children: 0,
        }));
        let tree = TreeSnapshot {
            nodes,
            links: Vec::new(),
        };
        Ok(Self {
            store: NodeStore::loaded(FrozenTree::from_snapshot(&tree)?),
        })
    }
}

/// Emits every adjacent click pair of `session` as a two-node path.
fn emit_pairs(session: &[UrlId], out: &mut Emit<'_>) {
    for start in 1..session.len() {
        out.path(start - 1..start + 1);
    }
}

/// A serializable image of a finalized [`Order1Markov`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order1Snapshot {
    /// Per-source-URL rows, sorted by URL id.
    pub rows: Vec<Order1RowSnapshot>,
}

/// One source URL's transition counts, successors sorted by URL id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order1RowSnapshot {
    /// Interned id of the source URL.
    pub url: u32,
    /// Total transitions observed out of the source URL.
    pub total: u64,
    /// `(successor url, count)` entries sorted by URL id.
    pub next: Vec<(u32, u64)>,
}

impl Predictor for Order1Markov {
    fn kind(&self) -> ModelKind {
        ModelKind::Order1
    }

    fn train_session(&mut self, session: &[UrlId]) {
        self.store.train_session(session, emit_pairs);
    }

    /// Counts the pairs into the arena that replaces them.
    fn finalize(&mut self) {
        if self.store.finalize(&PruneConfig::disabled()).is_none() {
            return;
        }
        crate::verify::runtime_audit(
            &crate::verify::ModelRef::Order1(self),
            "Order1Markov::finalize",
        );
    }

    /// Only the current click is matched: a descent of order 1.
    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage) {
        out.clear();
        if let Some(frozen) = self.frozen() {
            frozen.predict_descent(context, 1, out, usage);
        }
    }

    fn apply_usage(&mut self, usage: &PredictUsage) {
        self.store.apply_descent_usage(usage);
    }

    fn frozen(&self) -> Option<&FrozenTree> {
        self.store.arena()
    }

    /// Storage in "URL nodes": one root per source URL plus one child per
    /// stored transition.
    fn node_count(&self) -> usize {
        self.store.node_count()
    }

    fn image(&self) -> Option<crate::snapshot::ModelImage> {
        Some(crate::snapshot::ModelImage::Order1(self.to_snapshot()))
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

    #[test]
    fn learns_transition_probabilities() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1), u(0), u(1), u(0), u(2)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].url, u(1));
        assert!((out[0].prob - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_deeper_context() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(5), u(0), u(1)]);
        m.train_session(&[u(6), u(0), u(2)]);
        m.finalize();
        let mut a = Vec::new();
        let mut b = Vec::new();
        m.predict(&[u(5), u(0)], &mut a);
        m.predict(&[u(6), u(0)], &mut b);
        assert_eq!(a, b, "only the last URL matters");
    }

    #[test]
    fn node_count_counts_rows_and_transitions() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1), u(2)]);
        m.finalize();
        // rows: 0, 1; transitions: 0->1, 1->2
        assert_eq!(m.node_count(), 4);
    }

    #[test]
    fn empty_and_unknown_are_safe() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0)]); // single click: no transition
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert!(out.is_empty());
        m.predict(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1), u(0), u(2), u(0), u(1)]);
        m.train_session(&[u(3), u(0), u(1)]);
        m.finalize();
        let back = Order1Markov::from_snapshot(&m.to_snapshot()).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for ctx in [&[u(0)][..], &[u(3)], &[u(9)]] {
            let mut ua = crate::predictor::PredictUsage::default();
            let mut ub = crate::predictor::PredictUsage::default();
            m.predict_ro(ctx, &mut a, &mut ua);
            back.predict_ro(ctx, &mut b, &mut ub);
            assert_eq!(a, b);
        }
        assert_eq!(m.stats(), back.stats());
        // The snapshot itself is canonical: re-snapshotting is identity.
        assert_eq!(m.to_snapshot(), back.to_snapshot());
    }

    #[test]
    fn stats_track_usage() {
        let mut m = Order1Markov::new();
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(2), u(3)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        let s = m.stats();
        assert_eq!(s.total_paths, 2);
        assert_eq!(s.used_paths, 1);
    }
}
