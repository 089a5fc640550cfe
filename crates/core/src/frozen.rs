//! Frozen struct-of-arrays / CSR arena: the cache-conscious read-only form
//! a finalized model serves from.
//!
//! The pointer arena ([`crate::tree::Tree`]) is built for *growth*: each
//! node owns a heap-allocated child vector, roots and special links live in
//! hash maps, and every predict-time hop chases a pointer into cold memory.
//! Once a model is finalized its shape never changes again, so
//! [`Tree::freeze`] compiles the forest into this contiguous
//! struct-of-arrays layout:
//!
//! * parallel `u32`-indexed arrays for `url`, `count`, `depth`, `parent`
//!   and popularity `grade` (one cache line covers eight nodes' counts);
//! * a CSR `child_offsets`/`child_entries` pair — all children of a node
//!   are adjacent, so the child-vote loop is a linear scan instead of a
//!   binary search through a per-node heap vector;
//! * special links flattened into a second CSR pair parallel to the sorted
//!   root table, plus a direct-indexed `root_lookup` table (URL ids are
//!   dense interner ids) that answers "is the current click a root?" in
//!   one array load;
//! * the mutable `used` tracking stays behind on the pointer tree (the
//!   [`crate::predictor::PredictUsage`] side channel), so every frozen
//!   read path takes `&self`.
//!
//! Freezing happens after compaction, so frozen index `i` **is**
//! [`NodeId`]`(i)`: usage bookkeeping and PB-PPM's fingerprint index keep
//! working against frozen indices unchanged.
//!
//! Every model family serves from here on exactly one path: standard and
//! LRS PPM by direct suffix descent ([`FrozenTree::longest_predictive`]),
//! PB-PPM through its fingerprint index with verification walks on these
//! arrays ([`FrozenTree::match_top`]).
//!
//! [`Tree`]: crate::tree::Tree
//! [`Tree::freeze`]: crate::tree::Tree::freeze
//! [`NodeId`]: crate::tree::NodeId

use crate::interner::UrlId;
use crate::popularity::PopularityTable;
use crate::predictor::{rank_distinct_predictions, PredictUsage, Prediction};
use crate::tree::{NodeId, Tree};

/// Sentinel for "no node" in the `u32` index space (mirrors
/// [`NodeId::NONE`]).
pub const NO_NODE: u32 = u32::MAX;

/// Child lists at most this long are scanned linearly; longer ones are
/// binary-searched. CSR entries are adjacent, so the scan stays within one
/// or two cache lines.
const LINEAR_SCAN_MAX: usize = 16;

#[inline]
fn ix(i: u32) -> usize {
    i as usize
}

/// The frozen struct-of-arrays / CSR image of a compacted [`Tree`].
///
/// All arrays are indexed by the node's arena position (identical to its
/// [`NodeId`] — freezing compacts first). Immutable by construction: every
/// accessor takes `&self`.
///
/// [`Tree`]: crate::tree::Tree
/// [`NodeId`]: crate::tree::NodeId
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenTree {
    /// `urls[i]`: URL of node `i`.
    pub(crate) urls: Vec<UrlId>,
    /// `counts[i]`: transition count of node `i`.
    pub(crate) counts: Vec<u64>,
    /// `depths[i]`: branch depth of node `i` (root = 1).
    pub(crate) depths: Vec<u8>,
    /// `parents[i]`: parent index, [`NO_NODE`] for roots.
    pub(crate) parents: Vec<u32>,
    /// `grades[i]`: popularity grade level of node `i`'s URL (0 for model
    /// families without a popularity table).
    pub(crate) grades: Vec<u8>,
    /// Bitset: bit `i` set when node `i` is a duplicated special-link node.
    pub(crate) dup_bits: Vec<u64>,
    /// CSR row offsets into `child_entries`; length `n + 1`.
    pub(crate) child_offsets: Vec<u32>,
    /// CSR child entries `(url, child index)`, sorted by URL per node.
    pub(crate) child_entries: Vec<(UrlId, u32)>,
    /// Root table `(url, node index)`, sorted by URL.
    pub(crate) roots: Vec<(UrlId, u32)>,
    /// Direct index: `root_lookup[url.0]` is the slot in `roots` (or
    /// [`NO_NODE`]). URL ids are dense, so this stays small.
    pub(crate) root_lookup: Vec<u32>,
    /// CSR row offsets into `link_entries`, parallel to `roots`; length
    /// `roots.len() + 1`.
    pub(crate) link_offsets: Vec<u32>,
    /// Special-link targets (duplicated nodes), flattened.
    pub(crate) link_entries: Vec<u32>,
}

fn build_root_lookup(roots: &[(UrlId, u32)]) -> Vec<u32> {
    let width = roots.iter().map(|&(u, _)| ix(u.0) + 1).max().unwrap_or(0);
    let mut lookup = vec![NO_NODE; width];
    for (slot, &(url, _)) in roots.iter().enumerate() {
        // Slots are root-table positions; the table is bounded by the node
        // count, which the arena caps below u32::MAX.
        lookup[ix(url.0)] = u32::try_from(slot).unwrap_or(NO_NODE);
    }
    lookup
}

impl FrozenTree {
    /// Compiles a compacted tree (`node_count == arena_len`) into the
    /// frozen form. `pop` supplies the per-URL popularity grades for
    /// PB-PPM; baselines pass `None` and get zero grades.
    pub(crate) fn from_tree(tree: &Tree, pop: Option<&PopularityTable>) -> Self {
        debug_assert_eq!(
            tree.node_count(),
            tree.arena_len(),
            "freeze requires a compacted arena"
        );
        let n = tree.nodes.len();
        let mut urls = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut depths = Vec::with_capacity(n);
        let mut parents = Vec::with_capacity(n);
        let mut grades = Vec::with_capacity(n);
        let mut dup_bits = vec![0u64; n.div_ceil(64)];
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut child_entries = Vec::new();
        child_offsets.push(0u32);
        for (i, node) in tree.nodes.iter().enumerate() {
            urls.push(node.url);
            counts.push(node.count);
            depths.push(node.depth);
            parents.push(node.parent.0);
            grades.push(pop.map_or(0, |p| p.grade(node.url).level()));
            if node.link_dup {
                dup_bits[i / 64] |= 1u64 << (i % 64);
            }
            for &(url, child) in &node.children {
                child_entries.push((url, child.0));
            }
            // Every entry names a distinct node, so the total fits u32 like
            // the arena ids themselves do.
            child_offsets.push(u32::try_from(child_entries.len()).unwrap_or(NO_NODE));
        }
        let mut roots: Vec<(UrlId, u32)> = tree.roots.iter().map(|(&u, &id)| (u, id.0)).collect();
        roots.sort_unstable_by_key(|&(u, _)| u);
        let root_lookup = build_root_lookup(&roots);
        let mut link_offsets = Vec::with_capacity(roots.len() + 1);
        let mut link_entries = Vec::new();
        link_offsets.push(0u32);
        for &(_, root) in &roots {
            if let Some(targets) = tree.links.get(&NodeId(root)) {
                for &t in targets {
                    if tree.nodes[t.index()].alive {
                        link_entries.push(t.0);
                    }
                }
            }
            link_offsets.push(u32::try_from(link_entries.len()).unwrap_or(NO_NODE));
        }
        let mut frozen = Self {
            urls,
            counts,
            depths,
            parents,
            grades,
            dup_bits,
            child_offsets,
            child_entries,
            roots,
            root_lookup,
            link_offsets,
            link_entries,
        };
        frozen.shrink();
        frozen
    }

    fn shrink(&mut self) {
        self.urls.shrink_to_fit();
        self.counts.shrink_to_fit();
        self.depths.shrink_to_fit();
        self.parents.shrink_to_fit();
        self.grades.shrink_to_fit();
        self.dup_bits.shrink_to_fit();
        self.child_offsets.shrink_to_fit();
        self.child_entries.shrink_to_fit();
        self.roots.shrink_to_fit();
        self.root_lookup.shrink_to_fit();
        self.link_offsets.shrink_to_fit();
        self.link_entries.shrink_to_fit();
    }

    /// Checks the arena's structure: array-length parity, CSR
    /// well-formedness (monotone in-bounds offsets, per-node URL-sorted
    /// children), in-bounds parent and link references, a sorted root
    /// table. The audit maps the error text into a `frozen-csr-malformed`
    /// violation.
    pub(crate) fn check_csr(&self) -> Result<(), &'static str> {
        let n = self.urls.len();
        if self.counts.len() != n
            || self.depths.len() != n
            || self.parents.len() != n
            || self.grades.len() != n
        {
            return Err("frozen arrays disagree on length");
        }
        if self.dup_bits.len() != n.div_ceil(64) {
            return Err("frozen dup bitset has the wrong width");
        }
        let offsets = &self.child_offsets;
        if offsets.len() != n + 1 || offsets.first() != Some(&0) {
            return Err("frozen child offsets malformed");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("frozen child offsets not monotone");
        }
        if ix(*offsets.last().unwrap_or(&0)) != self.child_entries.len() {
            return Err("frozen child offsets disagree with entry count");
        }
        for (i, w) in self.child_offsets.windows(2).enumerate() {
            let row = &self.child_entries[ix(w[0])..ix(w[1])];
            for pair in row.windows(2) {
                if pair[0].0 >= pair[1].0 {
                    return Err("frozen child entries not sorted by url");
                }
            }
            for &(_, c) in row {
                if ix(c) >= n {
                    return Err("frozen child entry out of bounds");
                }
                if ix(c) == i {
                    return Err("frozen child entry references its own node");
                }
            }
        }
        if self.parents.iter().any(|&p| p != NO_NODE && ix(p) >= n) {
            return Err("frozen parent out of bounds");
        }
        for pair in self.roots.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err("frozen root table not sorted by url");
            }
        }
        if self.roots.iter().any(|&(_, id)| ix(id) >= n) {
            return Err("frozen root out of bounds");
        }
        let offsets = &self.link_offsets;
        if offsets.len() != self.roots.len() + 1 || offsets.first() != Some(&0) {
            return Err("frozen link offsets malformed");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("frozen link offsets not monotone");
        }
        if ix(*offsets.last().unwrap_or(&0)) != self.link_entries.len() {
            return Err("frozen link offsets disagree with entry count");
        }
        if self.link_entries.iter().any(|&t| ix(t) >= n) {
            return Err("frozen link entry out of bounds");
        }
        Ok(())
    }

    /// Number of nodes in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    /// True when the arena holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    /// URL of node `i`.
    #[inline]
    #[must_use]
    pub fn url(&self, i: u32) -> UrlId {
        self.urls[ix(i)]
    }

    /// Transition count of node `i`.
    #[inline]
    #[must_use]
    pub fn count(&self, i: u32) -> u64 {
        self.counts[ix(i)]
    }

    /// Branch depth of node `i` (roots are depth 1).
    #[inline]
    #[must_use]
    pub fn depth(&self, i: u32) -> u8 {
        self.depths[ix(i)]
    }

    /// Popularity grade level of node `i`'s URL.
    #[inline]
    #[must_use]
    pub fn grade(&self, i: u32) -> u8 {
        self.grades[ix(i)]
    }

    /// Parent index of node `i`, [`NO_NODE`] for roots.
    #[inline]
    #[must_use]
    pub fn parent(&self, i: u32) -> u32 {
        self.parents[ix(i)]
    }

    /// True when node `i` is a duplicated special-link node.
    #[inline]
    #[must_use]
    pub fn is_link_dup(&self, i: u32) -> bool {
        (self.dup_bits[ix(i) / 64] >> (ix(i) % 64)) & 1 == 1
    }

    /// The children of node `i`: adjacent `(url, child)` entries sorted by
    /// URL.
    #[inline]
    #[must_use]
    pub fn children(&self, i: u32) -> &[(UrlId, u32)] {
        &self.child_entries[ix(self.child_offsets[ix(i)])..ix(self.child_offsets[ix(i) + 1])]
    }

    /// True when node `i` has at least one child (one offset subtraction —
    /// no pointer chase).
    #[inline]
    #[must_use]
    pub fn has_children(&self, i: u32) -> bool {
        self.child_offsets[ix(i)] < self.child_offsets[ix(i) + 1]
    }

    /// The child of node `i` carrying `url`, if any. Short rows are a
    /// linear scan over the adjacent entries; long rows binary-search.
    #[inline]
    #[must_use]
    pub fn child(&self, i: u32, url: UrlId) -> Option<u32> {
        let row = self.children(i);
        if row.len() <= LINEAR_SCAN_MAX {
            for &(u, c) in row {
                if u == url {
                    return Some(c);
                }
                if u > url {
                    return None;
                }
            }
            None
        } else {
            row.binary_search_by_key(&url, |&(u, _)| u)
                .ok()
                .map(|pos| row[pos].1)
        }
    }

    /// Slot of `url` in the sorted root table, via the direct-index lookup.
    #[inline]
    fn root_slot(&self, url: UrlId) -> Option<usize> {
        let slot = *self.root_lookup.get(ix(url.0))?;
        (slot != NO_NODE).then(|| ix(slot))
    }

    /// The branch root for `url`, if one exists.
    #[inline]
    #[must_use]
    pub fn root(&self, url: UrlId) -> Option<u32> {
        self.root_slot(url).map(|slot| self.roots[slot].1)
    }

    /// Special-link targets (duplicated nodes) hanging off `url`'s root.
    #[inline]
    #[must_use]
    pub fn links_of(&self, url: UrlId) -> &[u32] {
        match self.root_slot(url) {
            Some(slot) => {
                &self.link_entries[ix(self.link_offsets[slot])..ix(self.link_offsets[slot + 1])]
            }
            None => &[],
        }
    }

    /// Walks `path` down from a root, returning the node spelling the whole
    /// path.
    #[must_use]
    pub fn descend(&self, path: &[UrlId]) -> Option<u32> {
        let (&first, rest) = path.split_first()?;
        let mut cur = self.root(first)?;
        for &url in rest {
            cur = self.child(cur, url)?;
        }
        Some(cur)
    }

    /// Frozen mirror of [`Tree::longest_predictive_match`]: the deepest
    /// suffix match (longest first, at most `max_order` URLs) that has at
    /// least one child. No hashing and no allocation — this is how the
    /// suffix-forest models match a context.
    ///
    /// [`Tree::longest_predictive_match`]: crate::tree::Tree::longest_predictive_match
    #[must_use]
    pub fn longest_predictive(&self, context: &[UrlId], max_order: usize) -> Option<u32> {
        let len = context.len();
        let longest = len.min(max_order).min(usize::from(u8::MAX));
        for k in (1..=longest).rev() {
            if let Some(node) = self.descend(&context[len - k..]) {
                if self.has_children(node) {
                    return Some(node);
                }
            }
        }
        None
    }

    /// The standard/LRS serving path: the longest predictive suffix
    /// descent, then one vote per child of the matched node's CSR row,
    /// appended to `out` and ranked. The children are adjacent and all
    /// alive, so the vote is one linear pass; the whole row votes, so usage
    /// records the row once (`used_child_rows`) instead of every child, and
    /// the row's URL keys are distinct, so ranking skips the dedup set.
    pub(crate) fn predict_descent(
        &self,
        context: &[UrlId],
        max_order: usize,
        out: &mut Vec<Prediction>,
        usage: &mut PredictUsage,
    ) {
        if context.is_empty() {
            return;
        }
        usage.index_fast += 1;
        let Some(node) = self.longest_predictive(context, max_order) else {
            return;
        };
        let parent_count = self.count(node);
        if parent_count == 0 {
            return;
        }
        usage.used_paths.push(NodeId(node));
        usage.used_child_rows.push(NodeId(node));
        for &(url, child) in self.children(node) {
            out.push(Prediction::new(
                url,
                self.count(child) as f64 / parent_count as f64,
            ));
        }
        rank_distinct_predictions(out);
    }

    /// Verifies that the upward path ending at `node` spells `suffix`
    /// (oldest URL topmost), returning the topmost matched node. This is
    /// the collision check that keeps PB-PPM's hashed lookups bit-identical
    /// to the occurrence scan: a bucket hit is only a *candidate* until this
    /// passes.
    #[must_use]
    pub fn match_top(&self, node: u32, suffix: &[UrlId]) -> Option<u32> {
        let mut cur = node;
        let mut iter = suffix.iter().rev();
        let &last = iter.next()?;
        if self.url(cur) != last {
            return None;
        }
        for &url in iter {
            let parent = self.parent(cur);
            if parent == NO_NODE {
                return None; // stored path is shorter than the suffix
            }
            cur = parent;
            if self.url(cur) != url {
                return None;
            }
        }
        Some(cur)
    }

    /// Resident heap bytes of the frozen arena (all backing arrays at
    /// capacity). The bench reports this against the pointer arena's
    /// [`Tree::memory_bytes`].
    ///
    /// [`Tree::memory_bytes`]: crate::tree::Tree::memory_bytes
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.urls.capacity() * size_of::<UrlId>()
            + self.counts.capacity() * size_of::<u64>()
            + self.depths.capacity()
            + self.parents.capacity() * size_of::<u32>()
            + self.grades.capacity()
            + self.dup_bits.capacity() * size_of::<u64>()
            + self.child_offsets.capacity() * size_of::<u32>()
            + self.child_entries.capacity() * size_of::<(UrlId, u32)>()
            + self.roots.capacity() * size_of::<(UrlId, u32)>()
            + self.root_lookup.capacity() * size_of::<u32>()
            + self.link_offsets.capacity() * size_of::<u32>()
            + self.link_entries.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrs::LrsPpm;
    use crate::pb::{PbConfig, PbPpm};
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;
    use crate::prune::PruneConfig;
    use crate::standard::StandardPpm;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn trained_standard() -> StandardPpm {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        m.train_session(&[u(0), u(1), u(4)]);
        m.train_session(&[u(2), u(3), u(1)]);
        m.finalize();
        m
    }

    fn trained_pb() -> PbPpm {
        let mut b = PopularityBuilder::new();
        b.record_n(u(0), 1000);
        b.record_n(u(1), 50);
        b.record_n(u(2), 5);
        b.record_n(u(3), 1000);
        let cfg = PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(b.build(), cfg);
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2), u(3), u(1), u(2)]);
        }
        m.train_session(&[u(3), u(1), u(2), u(0)]);
        m.finalize();
        m
    }

    #[test]
    fn freeze_is_identity_mapped_and_field_faithful() {
        let m = trained_standard();
        let frozen = m.frozen().expect("finalize froze");
        let tree = m.tree();
        assert_eq!(frozen.len(), tree.arena_len());
        for id in tree.iter_alive() {
            let node = &tree.nodes[id.index()];
            let i = id.0;
            assert_eq!(frozen.url(i), node.url);
            assert_eq!(frozen.count(i), node.count);
            assert_eq!(frozen.depth(i), node.depth);
            assert_eq!(frozen.parent(i), node.parent.0);
            assert_eq!(frozen.is_link_dup(i), node.link_dup);
            let kids: Vec<(UrlId, u32)> = node.children.iter().map(|&(u, c)| (u, c.0)).collect();
            assert_eq!(frozen.children(i), kids.as_slice());
        }
    }

    #[test]
    fn frozen_lookups_mirror_pointer_lookups() {
        let m = trained_standard();
        let frozen = m.frozen().expect("finalize froze");
        let tree = m.tree();
        for url in 0..6 {
            assert_eq!(
                frozen.root(u(url)),
                tree.root(u(url)).map(|id| id.0),
                "root({url})"
            );
        }
        let probes: Vec<Vec<UrlId>> = vec![
            vec![u(0)],
            vec![u(0), u(1)],
            vec![u(0), u(1), u(2)],
            vec![u(0), u(1), u(2), u(3)],
            vec![u(9), u(0), u(1)],
            vec![u(2), u(3)],
            vec![u(5)],
            vec![],
        ];
        for ctx in &probes {
            assert_eq!(
                frozen.longest_predictive(ctx, 255),
                tree.longest_predictive_match(ctx, 255).map(|id| id.0),
                "context {ctx:?}"
            );
            assert_eq!(
                frozen.descend(ctx),
                tree.descend(ctx).map(|id| id.0),
                "descend {ctx:?}"
            );
        }
    }

    #[test]
    fn frozen_links_and_grades_mirror_pb() {
        let m = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
        let tree = m.tree();
        for url in 0..5 {
            let mut want: Vec<u32> = tree
                .root(u(url))
                .map(|root| tree.links_of(root).map(|id| id.0).collect())
                .unwrap_or_default();
            let mut got = frozen.links_of(u(url)).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "links_of({url})");
        }
        for id in tree.iter_alive() {
            let node = tree.node(id);
            assert_eq!(
                frozen.grade(id.0),
                m.popularity().grade(node.url).level(),
                "grade of node {}",
                id.0
            );
        }
    }

    /// The pointer-tree walk `match_top` replaces: climb one parent per
    /// suffix URL, oldest topmost.
    fn tree_match_top(tree: &Tree, node: NodeId, suffix: &[UrlId]) -> Option<NodeId> {
        let (&last, older) = suffix.split_last()?;
        if tree.node(node).url != last {
            return None;
        }
        let mut cur = node;
        for &url in older.iter().rev() {
            cur = tree.node(cur).parent;
            if cur.is_none() || tree.node(cur).url != url {
                return None;
            }
        }
        Some(cur)
    }

    #[test]
    fn match_top_mirrors_pointer_walks() {
        let m = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
        let tree = m.tree();
        let contexts = [
            vec![u(0)],
            vec![u(0), u(1)],
            vec![u(1), u(2)],
            vec![u(9), u(1), u(2)],
            vec![u(0), u(1), u(2), u(3)],
        ];
        for id in tree.iter_alive() {
            for ctx in &contexts {
                assert_eq!(
                    frozen.match_top(id.0, ctx),
                    tree_match_top(tree, id, ctx).map(|t| t.0),
                    "match_top node {} ctx {ctx:?}",
                    id.0
                );
            }
        }
    }

    #[test]
    fn frozen_arena_is_smaller_than_pointer_arena() {
        let m = trained_standard();
        let frozen = m.frozen().expect("finalize froze");
        assert!(
            frozen.heap_bytes() < m.tree().memory_bytes(),
            "frozen {} bytes vs pointer {} bytes",
            frozen.heap_bytes(),
            m.tree().memory_bytes()
        );
    }

    #[test]
    fn check_csr_accepts_a_compiled_arena() {
        let m = trained_pb();
        assert_eq!(m.frozen().expect("finalize froze").check_csr(), Ok(()));
    }

    #[test]
    fn check_csr_rejects_malformed_structure() {
        let m = trained_pb();
        let f = m.frozen().expect("finalize froze");
        let check = |mutate: &dyn Fn(&mut FrozenTree)| {
            let mut bad = f.clone();
            mutate(&mut bad);
            bad.check_csr()
        };
        // Length disagreement.
        assert!(check(&|t| {
            t.counts.pop();
        })
        .is_err());
        // Non-monotone child offsets.
        assert!(check(&|t| {
            if t.child_offsets.len() > 2 {
                t.child_offsets[1] = u32::MAX - 1;
            }
        })
        .is_err());
        // Out-of-bounds child entry.
        assert!(check(&|t| {
            if let Some(e) = t.child_entries.first_mut() {
                e.1 = u32::MAX - 1;
            }
        })
        .is_err());
        // Unsorted root table.
        assert!(
            check(&|t| {
                t.roots.reverse();
            })
            .is_err()
                || f.roots.len() < 2
        );
        // Link offsets disagreeing with entries.
        assert!(check(&|t| {
            t.link_entries.push(0);
        })
        .is_err());
    }

    #[test]
    fn lrs_freeze_survives_prune_and_compact() {
        let mut m = LrsPpm::new();
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2)]);
        }
        m.train_session(&[u(3), u(4)]); // below min_support: pruned away
        m.finalize();
        let frozen = m.frozen().expect("finalize froze");
        assert_eq!(frozen.len(), m.tree().node_count());
        assert!(frozen.root(u(3)).is_none(), "pruned root must not survive");
        assert!(frozen.descend(&[u(0), u(1), u(2)]).is_some());
    }
}
