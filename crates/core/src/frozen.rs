//! Frozen struct-of-arrays / CSR arena: the finalized model itself.
//!
//! The pointer arena ([`crate::tree::Tree`]) is built for *growth*: each
//! node owns a heap-allocated child vector, roots and special links live in
//! hash maps, and every predict-time hop chases a pointer into cold memory.
//! Once a model is finalized its shape never changes again, so
//! [`Tree::freeze`] compiles the forest into this contiguous
//! struct-of-arrays layout and the tree is dropped ([`NodeStore`]):
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
//! * Fig. 2's path-usage flags are a bitset over rows kept beside the
//!   arena, filled from the [`crate::predictor::PredictUsage`] side
//!   channel, so every frozen read path takes `&self`.
//!
//! Rows are indexed by [`NodeId`], in the compacted tree's order, which is
//! also the order the snapshot codec writes ([`FrozenTree::to_snapshot`]).
//! One builder, [`FrozenTree::from_snapshot`], turns those rows into the
//! arena for a freeze and for a load alike, so the two cannot disagree.
//! Training allocates every node after its parent, so a parent's row
//! always precedes its children's: every upward walk ends, and a single
//! forward sweep sees each parent before its children.
//!
//! Every model family serves from here on exactly one path: standard PPM,
//! LRS PPM and the order-1 baseline by direct suffix descent
//! ([`FrozenTree::longest_predictive`]), PB-PPM through its fingerprint
//! index with verification walks on these arrays
//! ([`FrozenTree::match_top`]).
//!
//! [`Tree`]: crate::tree::Tree
//! [`Tree::freeze`]: crate::tree::Tree::freeze
//! [`NodeId`]: crate::tree::NodeId

use crate::interner::UrlId;
use crate::popularity::PopularityTable;
use crate::predictor::{rank_distinct_predictions, PredictUsage, Prediction};
use crate::stats::ModelStats;
use crate::tree::{NodeId, NodeSnapshot, SnapshotError, Tree, TreeSnapshot};

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
/// All arrays are indexed by the node's row, its [`NodeId`]. Immutable by
/// construction: every accessor takes `&self`.
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

impl FrozenTree {
    /// Finishes the root table with its direct-index `root_lookup`
    /// (`root_lookup[url.0]` is the URL's slot). URL ids are dense, so
    /// the table stays small.
    fn index_roots(mut self) -> Self {
        let width = self.roots.iter().map(|&(u, _)| ix(u.0) + 1).max();
        let mut lookup = vec![NO_NODE; width.unwrap_or(0)];
        for (slot, &(url, _)) in self.roots.iter().enumerate() {
            // Slots are root-table positions, bounded by the row count.
            lookup[ix(url.0)] = u32::try_from(slot).unwrap_or(NO_NODE);
        }
        self.root_lookup = lookup;
        self
    }

    /// Builds an arena from its wire image with no intermediate tree: the
    /// one builder behind both a snapshot load and [`Tree::freeze`].
    ///
    /// The rows carry URL, count, parent and link-dup flag; the rest is
    /// derived. One forward sweep checks each parent (an earlier row; a
    /// duplicate's parent a root, and nothing below a duplicate) and takes
    /// the depth as the parent's plus one, saturating like
    /// [`Tree::child_or_insert`]. Then the non-duplicate rows are grouped
    /// by parent into URL-sorted child runs, the parentless rows sorted by
    /// URL into the root table, and the duplicates grouped under their
    /// root in row order. Two roots, siblings or links of one root sharing
    /// a URL are refused. That is the arena training built, row for row.
    /// `pop` supplies the per-URL popularity grades for PB-PPM; baselines
    /// pass `None` and get zero grades.
    pub fn from_snapshot(
        snap: &TreeSnapshot,
        pop: Option<&PopularityTable>,
    ) -> Result<Self, SnapshotError> {
        let nodes = &snap.nodes;
        let n = nodes.len();
        let mut depths: Vec<u8> = Vec::with_capacity(n);
        let mut dup_bits = vec![0; n.div_ceil(64)];
        let mut roots = 0;
        for (row, s) in (0..).zip(nodes) {
            let depth = if s.parent == NO_NODE {
                if s.link_dup {
                    return Err(SnapshotError::BadLink(row));
                }
                roots += 1;
                1
            } else if s.parent >= row {
                return Err(SnapshotError::BadParent(row));
            } else {
                let parent = &nodes[ix(s.parent)];
                if parent.link_dup || (s.link_dup && parent.parent != NO_NODE) {
                    return Err(SnapshotError::BadLink(row));
                }
                depths[ix(s.parent)].saturating_add(1)
            };
            depths.push(depth);
            if s.link_dup {
                mark_row(&mut dup_bits, row);
            }
        }
        let rows = (0u32..).zip(nodes);

        let children = rows
            .clone()
            .filter(|(_, s)| s.parent != NO_NODE && !s.link_dup)
            .map(|(i, s)| (s.parent, (UrlId(s.url), i)));
        let (child_offsets, mut child_entries) = group_runs(n, (UrlId(0), 0), children);
        for w in child_offsets.windows(2) {
            let run = &mut child_entries[ix(w[0])..ix(w[1])];
            run.sort_unstable_by_key(|&(url, _)| url);
            distinct_urls(run)?;
        }

        let mut root_table = Vec::with_capacity(roots);
        root_table.extend(
            rows.clone()
                .filter(|(_, s)| s.parent == NO_NODE)
                .map(|(i, s)| (UrlId(s.url), i)),
        );
        root_table.sort_unstable_by_key(|&(url, _)| url);
        distinct_urls(&root_table)?;

        let mut arena = Self {
            urls: nodes.iter().map(|s| UrlId(s.url)).collect(),
            counts: nodes.iter().map(|s| s.count).collect(),
            depths,
            parents: nodes.iter().map(|s| s.parent).collect(),
            grades: nodes.iter().map(|s| grade(pop, UrlId(s.url))).collect(),
            dup_bits,
            child_offsets,
            child_entries,
            roots: root_table,
            root_lookup: Vec::new(),
            link_offsets: Vec::new(),
            link_entries: Vec::new(),
        }
        .index_roots();

        // A duplicate's parent is a root, so its URL has a root slot.
        let slot = |s: &NodeSnapshot| arena.root_lookup[ix(nodes[ix(s.parent)].url)];
        let dups = rows.filter(|(_, s)| s.link_dup).map(|(i, s)| (slot(s), i));
        let (link_offsets, link_entries) = group_runs(arena.roots.len(), 0, dups);
        let mut urls = Vec::new();
        for w in link_offsets.windows(2) {
            let run = &link_entries[ix(w[0])..ix(w[1])];
            urls.clear();
            urls.extend(run.iter().map(|&i| (arena.urls[ix(i)], i)));
            urls.sort_unstable_by_key(|&(url, _)| url);
            distinct_urls(&urls)?;
        }
        arena.link_offsets = link_offsets;
        arena.link_entries = link_entries;
        Ok(arena)
    }

    /// The arena's wire image: each row's URL, count, parent and link-dup
    /// flag, in row order.
    pub fn to_snapshot(&self) -> TreeSnapshot {
        let nodes = (0..self.rows())
            .map(|i| NodeSnapshot {
                url: self.url(i).0,
                count: self.count(i),
                parent: self.parent(i),
                link_dup: self.is_link_dup(i),
            })
            .collect();
        TreeSnapshot { nodes }
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
        if (0..)
            .zip(&self.parents)
            .any(|(i, &p)| p != NO_NODE && p >= i)
        {
            return Err("frozen parent does not precede its row");
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

    /// The root table: `(url, row)` entries sorted by URL.
    #[must_use]
    pub fn roots(&self) -> &[(UrlId, u32)] {
        &self.roots
    }

    /// The row count as the bound of the `u32` row ids.
    pub(crate) fn rows(&self) -> u32 {
        u32::try_from(self.urls.len()).unwrap_or(NO_NODE)
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

    /// The standard/LRS/order-1 serving path: the longest predictive suffix
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

    /// Exact heap bytes of the arena: every backing array counted by
    /// length. The arena is built at exact size, so this is the live heap
    /// it holds — a finalized model's `ModelStats::memory_bytes`.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.urls.as_slice())
            + size_of_val(self.counts.as_slice())
            + size_of_val(self.depths.as_slice())
            + size_of_val(self.parents.as_slice())
            + size_of_val(self.grades.as_slice())
            + size_of_val(self.dup_bits.as_slice())
            + size_of_val(self.child_offsets.as_slice())
            + size_of_val(self.child_entries.as_slice())
            + size_of_val(self.roots.as_slice())
            + size_of_val(self.root_lookup.as_slice())
            + size_of_val(self.link_offsets.as_slice())
            + size_of_val(self.link_entries.as_slice())
    }

    /// Flags row `i` and all its ancestors in a path-usage bitset.
    pub(crate) fn mark_path(&self, used: &mut [u64], i: u32) {
        let mut cur = i;
        loop {
            mark_row(used, cur);
            cur = self.parent(cur);
            if cur == NO_NODE {
                break;
            }
        }
    }

    /// Flags every child of row `i` in a path-usage bitset.
    pub(crate) fn mark_children(&self, used: &mut [u64], i: u32) {
        for &(_, child) in self.children(i) {
            mark_row(used, child);
        }
    }

    /// Counts `(total_paths, used_paths)`: a *path* ends at a branch row
    /// without children (link duplicates are not surfing paths), and is
    /// *used* when its leaf's bit is set (Fig. 2, right).
    pub(crate) fn path_usage(&self, used: &[u64]) -> (usize, usize) {
        let (mut total, mut hit) = (0, 0);
        for (i, w) in self.child_offsets.windows(2).enumerate() {
            if w[0] == w[1] && (self.dup_bits[i / 64] >> (i % 64)) & 1 == 0 {
                total += 1;
                hit += usize::from(used.get(i / 64).is_some_and(|b| (b >> (i % 64)) & 1 == 1));
            }
        }
        (total, hit)
    }
}

/// Mutable views of an arena's columns. Only the audit's adversarial
/// harness uses them, to corrupt a live model in ways no model file can
/// express. Not part of the public API.
#[doc(hidden)]
pub struct ArenaColumnsMut<'a> {
    /// `parents[i]`: parent row of row `i`.
    pub parents: &'a mut [u32],
    /// `depths[i]`: branch depth of row `i`.
    pub depths: &'a mut [u8],
    /// CSR row offsets into `child_entries`.
    pub child_offsets: &'a mut [u32],
    /// CSR child entries `(url, child row)`.
    pub child_entries: &'a mut Vec<(UrlId, u32)>,
    /// Special-link targets, flattened.
    pub link_entries: &'a mut [u32],
}

impl FrozenTree {
    /// The arena's columns, writable (see [`ArenaColumnsMut`]).
    #[doc(hidden)]
    pub fn columns_for_audit(&mut self) -> ArenaColumnsMut<'_> {
        ArenaColumnsMut {
            parents: &mut self.parents,
            depths: &mut self.depths,
            child_offsets: &mut self.child_offsets,
            child_entries: &mut self.child_entries,
            link_entries: &mut self.link_entries,
        }
    }
}

/// Sets row `i`'s bit in a path-usage bitset.
pub(crate) fn mark_row(used: &mut [u64], i: u32) {
    if let Some(word) = used.get_mut(ix(i) / 64) {
        *word |= 1u64 << (ix(i) % 64);
    }
}

/// PB-PPM's popularity grade of `url`; 0 for models without a table.
fn grade(pop: Option<&PopularityTable>, url: UrlId) -> u8 {
    pop.map_or(0, |p| p.grade(url).level())
}

/// Groups `(key, value)` pairs into CSR runs: values of key `k` land in
/// `entries[offsets[k]..offsets[k + 1]]`, in input order. A counting pass
/// and a placing pass; both arrays are allocated at their exact size.
fn group_runs<T: Copy>(
    keys: usize,
    fill: T,
    items: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; keys + 1];
    for (k, _) in items.clone() {
        offsets[ix(k) + 1] += 1;
    }
    for k in 1..=keys {
        offsets[k] += offsets[k - 1];
    }
    let mut entries = vec![fill; ix(offsets[keys])];
    // Each key's offset walks to its run's end, which is the next key's
    // start; one shift afterwards restores the starts.
    for (k, value) in items {
        entries[ix(offsets[ix(k)])] = value;
        offsets[ix(k)] += 1;
    }
    offsets.copy_within(0..keys, 1);
    offsets[0] = 0;
    (offsets, entries)
}

/// Refuses a URL-sorted run of `(url, row)` entries that repeats a URL,
/// naming the later row of the first repeat.
fn distinct_urls(run: &[(UrlId, u32)]) -> Result<(), SnapshotError> {
    match run.windows(2).find(|w| w[0].0 == w[1].0) {
        Some(w) => Err(SnapshotError::RepeatedUrl(w[0].1.max(w[1].1))),
        None => Ok(()),
    }
}

/// A tree model's nodes: the growable [`Tree`] while training, then only
/// the frozen arena — from `finalize`, or from a snapshot load, on.
// One store per model, so the inline arena's size costs nothing; boxing it
// would add a pointer hop to every predict.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum NodeStore {
    /// Sessions grow, merge into and prune the pointer tree.
    Training(Tree),
    /// The arena serves. `used` holds Fig. 2's path-usage flags, one bit
    /// per row, allocated by the first `apply_usage`: serving never
    /// applies usage, so serving models never carry it.
    Frozen { arena: FrozenTree, used: Vec<u64> },
}

impl Default for NodeStore {
    fn default() -> Self {
        NodeStore::Training(Tree::new())
    }
}

impl NodeStore {
    /// A finalized store around a loaded arena.
    pub(crate) fn loaded(arena: FrozenTree) -> Self {
        NodeStore::Frozen {
            arena,
            used: Vec::new(),
        }
    }

    /// The training tree; `None` once frozen.
    pub(crate) fn tree(&self) -> Option<&Tree> {
        match self {
            NodeStore::Training(tree) => Some(tree),
            NodeStore::Frozen { .. } => None,
        }
    }

    /// The training tree to grow. Training a finalized model is a caller
    /// bug: debug builds panic, release builds ignore the session.
    pub(crate) fn tree_mut(&mut self) -> Option<&mut Tree> {
        debug_assert!(self.tree().is_some(), "training after finalize");
        match self {
            NodeStore::Training(tree) => Some(tree),
            NodeStore::Frozen { .. } => None,
        }
    }

    /// Trains on every session with `insert`, deterministically parallel:
    /// contiguous session partitions ([`crate::parallel::partition_ranges`])
    /// grow private trees, which merge back in partition order
    /// ([`Tree::merge_from`]). That is bit-identical to calling `insert`
    /// on each session in turn, at every thread count (`0` = auto via
    /// `PBPPM_THREADS`/available parallelism), as long as `insert` reads
    /// only the session and what it itself inserted.
    pub(crate) fn train_sessions<S, F>(&mut self, sessions: &[S], threads: usize, insert: F)
    where
        S: AsRef<[UrlId]> + Sync,
        F: Fn(&mut Tree, &[UrlId]) + Sync,
    {
        let Some(tree) = self.tree_mut() else {
            return;
        };
        let threads = crate::parallel::resolve_threads(threads).min(sessions.len().max(1));
        if threads <= 1 {
            for s in sessions {
                insert(tree, s.as_ref());
            }
            return;
        }
        let ranges = crate::parallel::partition_ranges(sessions.len(), threads);
        let donors = crate::parallel::parallel_map_with(&ranges, threads, |r| {
            let mut donor = Tree::new();
            for s in &sessions[r.clone()] {
                insert(&mut donor, s.as_ref());
            }
            donor
        });
        for donor in &donors {
            tree.merge_from(donor);
        }
    }

    /// The serving arena; `None` while training.
    pub(crate) fn arena(&self) -> Option<&FrozenTree> {
        match self {
            NodeStore::Training(_) => None,
            NodeStore::Frozen { arena, .. } => Some(arena),
        }
    }

    /// The arena's wire image. A store still training has no arena and
    /// yields an empty image: only finalized models are written.
    pub(crate) fn image(&self) -> TreeSnapshot {
        debug_assert!(self.arena().is_some(), "snapshot before finalize");
        self.arena()
            .map(FrozenTree::to_snapshot)
            .unwrap_or_default()
    }

    /// Alive nodes: the paper's storage measure.
    pub(crate) fn node_count(&self) -> usize {
        match self {
            NodeStore::Training(tree) => tree.node_count(),
            NodeStore::Frozen { arena, .. } => arena.len(),
        }
    }

    /// Replaces the training tree by its arena. `None` when already
    /// frozen (a second `finalize` changes nothing).
    pub(crate) fn freeze(&mut self, pop: Option<&PopularityTable>) -> Option<&FrozenTree> {
        let NodeStore::Training(tree) = self else {
            return None;
        };
        *self = NodeStore::loaded(std::mem::take(tree).freeze(pop));
        self.arena()
    }

    /// The arena and its path-usage bitset, allocating the bitset on
    /// first use; `None` while training.
    pub(crate) fn usage_marks(&mut self) -> Option<(&FrozenTree, &mut [u64])> {
        match self {
            NodeStore::Training(_) => None,
            NodeStore::Frozen { arena, used } => {
                if used.is_empty() {
                    *used = vec![0; arena.len().div_ceil(64)];
                }
                Some((arena, used))
            }
        }
    }

    /// Plays back the usage of a descent predict (the standard/LRS/order-1
    /// serving path): each matched path and each voting child row.
    pub(crate) fn apply_descent_usage(&mut self, usage: &PredictUsage) {
        let Some((arena, used)) = self.usage_marks() else {
            return;
        };
        for &id in &usage.used_paths {
            arena.mark_path(used, id.0);
        }
        for &id in &usage.used_child_rows {
            arena.mark_children(used, id.0);
        }
    }

    /// Structural statistics of the finalized arena. While training only
    /// `nodes` is known.
    pub(crate) fn stats(&self) -> ModelStats {
        match self {
            NodeStore::Training(tree) => ModelStats {
                nodes: tree.node_count(),
                ..ModelStats::default()
            },
            NodeStore::Frozen { arena, used } => ModelStats::of_arena(arena, used),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::{PbConfig, PbPpm};
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;
    use crate::prune::PruneConfig;
    use crate::standard::StandardPpm;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// A finalized standard model and the reference tree it froze.
    fn trained_standard() -> (StandardPpm, Tree) {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        m.train_session(&[u(0), u(1), u(4)]);
        m.train_session(&[u(2), u(3), u(1)]);
        let tree = m.reference_tree().unwrap();
        m.finalize();
        (m, tree)
    }

    /// A finalized PB model and the reference tree it froze.
    fn trained_pb() -> (PbPpm, Tree) {
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
        let tree = m.reference_tree().unwrap();
        m.finalize();
        (m, tree)
    }

    #[test]
    fn freeze_is_identity_mapped_and_field_faithful() {
        let (standard, standard_tree) = trained_standard();
        let (pb, pb_tree) = trained_pb();
        let frozen = [standard.frozen(), pb.frozen()];
        for (frozen, tree) in frozen.into_iter().zip([standard_tree, pb_tree]) {
            let frozen = frozen.expect("finalize froze");
            assert_eq!(frozen.len(), tree.arena_len());
            for id in tree.iter_alive() {
                let node = &tree.nodes[id.index()];
                let i = id.0;
                assert_eq!(frozen.url(i), node.url);
                assert_eq!(frozen.count(i), node.count);
                assert_eq!(frozen.depth(i), node.depth);
                assert_eq!(frozen.parent(i), node.parent.0);
                assert_eq!(frozen.is_link_dup(i), node.link_dup);
                let kids: Vec<(UrlId, u32)> =
                    node.children.iter().map(|&(u, c)| (u, c.0)).collect();
                assert_eq!(frozen.children(i), kids.as_slice());
            }
        }
    }

    #[test]
    fn frozen_lookups_mirror_pointer_lookups() {
        let (m, tree) = trained_standard();
        let frozen = m.frozen().expect("finalize froze");
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
        let (m, tree) = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
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
        let (m, tree) = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
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
                    tree_match_top(&tree, id, ctx).map(|t| t.0),
                    "match_top node {} ctx {ctx:?}",
                    id.0
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_rebuilds_the_same_arena() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(1), u(4)], usize::MAX);
        t.insert_path(&[u(6), u(7)], usize::MAX);
        let r = t.root(u(1)).unwrap();
        let l = t.link_or_insert(r, u(9));
        t.bump(l);
        // Kill something so freezing must compact.
        t.kill_subtree(t.descend(&[u(6), u(7)]).unwrap());
        let alive = t.node_count();
        let frozen = t.freeze(None);

        let snap = frozen.to_snapshot();
        assert_eq!(snap.nodes.len(), alive);
        let dups: Vec<&NodeSnapshot> = snap.nodes.iter().filter(|n| n.link_dup).collect();
        assert_eq!(dups.len(), 1, "one link");
        assert_eq!(dups[0].parent, r.0);
        let back = FrozenTree::from_snapshot(&snap, None).unwrap();
        assert_eq!(back, frozen);
        let root = back.root(u(1)).unwrap();
        assert_eq!(back.count(back.descend(&[u(1), u(2), u(3)]).unwrap()), 1);
        assert!(back.descend(&[u(6), u(7)]).is_none());
        assert_eq!(back.links_of(u(1)).len(), 1);
        assert_eq!(back.url(back.links_of(u(1))[0]), u(9));
        assert_eq!(back.parent(back.links_of(u(1))[0]), root);
        // The image of the rebuilt arena is identical (canonical form).
        assert_eq!(back.to_snapshot(), snap);
    }

    /// Rows 0..3: root 1, its child 2, and its special link to 9.
    fn chain() -> TreeSnapshot {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let r = t.root(u(1)).unwrap();
        t.link_or_insert(r, u(9));
        t.freeze(None).to_snapshot()
    }

    fn row(url: u32, parent: u32, link_dup: bool) -> NodeSnapshot {
        NodeSnapshot {
            url,
            count: 1,
            parent,
            link_dup,
        }
    }

    #[test]
    fn snapshot_refuses_states_training_never_builds() {
        let load = |edit: &dyn Fn(&mut Vec<NodeSnapshot>)| {
            let mut snap = chain();
            edit(&mut snap.nodes);
            FrozenTree::from_snapshot(&snap, None)
        };
        assert!(load(&|_| ()).is_ok());
        // A parent at or past its own row.
        assert_eq!(load(&|n| n[1].parent = 1), Err(SnapshotError::BadParent(1)));
        assert_eq!(load(&|n| n[1].parent = 7), Err(SnapshotError::BadParent(1)));
        // A duplicate below a non-root, a root flagged as a duplicate, and
        // a node below a duplicate.
        assert_eq!(load(&|n| n[2].parent = 1), Err(SnapshotError::BadLink(2)));
        assert_eq!(
            load(&|n| n[0].link_dup = true),
            Err(SnapshotError::BadLink(0))
        );
        assert_eq!(
            load(&|n| n.push(row(3, 2, false))),
            Err(SnapshotError::BadLink(3))
        );
        // Two roots, two siblings, two links of one root on one URL.
        for repeat in [row(1, NO_NODE, false), row(2, 0, false), row(9, 0, true)] {
            let repeat = &repeat;
            assert_eq!(
                load(&|n| n.push(repeat.clone())),
                Err(SnapshotError::RepeatedUrl(3))
            );
        }
        // A child and a link of one root may share a URL.
        assert!(load(&|n| n.push(row(9, 0, false))).is_ok());
    }

    #[test]
    fn snapshot_rejects_parent_cycles() {
        // Two nodes each claiming the other as parent: must error, not hang
        // (path hashing would otherwise loop forever).
        let snap = TreeSnapshot {
            nodes: vec![row(0, 1, false), row(1, 0, false)],
        };
        assert_eq!(
            FrozenTree::from_snapshot(&snap, None).unwrap_err(),
            SnapshotError::BadParent(0)
        );
        // A self-loop is the degenerate case.
        let snap = TreeSnapshot {
            nodes: vec![row(0, 0, false)],
        };
        assert_eq!(
            FrozenTree::from_snapshot(&snap, None).unwrap_err(),
            SnapshotError::BadParent(0)
        );
    }

    #[test]
    fn check_csr_accepts_a_compiled_arena() {
        let (m, _) = trained_pb();
        assert_eq!(m.frozen().expect("finalize froze").check_csr(), Ok(()));
    }

    #[test]
    fn check_csr_rejects_malformed_structure() {
        let (m, _) = trained_pb();
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
        let mut m = StandardPpm::lrs();
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2)]);
        }
        m.train_session(&[u(3), u(4)]); // below min_support: pruned away
        let tree = m.reference_tree().unwrap();
        m.finalize();
        let frozen = m.frozen().expect("finalize froze");
        assert_eq!(frozen.len(), tree.node_count());
        assert!(frozen.root(u(3)).is_none(), "pruned root must not survive");
        assert!(frozen.descend(&[u(0), u(1), u(2)]).is_some());
    }

    #[test]
    fn finalized_models_hold_no_tree() {
        let (m, _) = trained_pb();
        assert!(m.store.tree().is_none() && m.reference_tree().is_none());
        let (m, _) = trained_standard();
        assert!(m.store.tree().is_none() && m.reference_tree().is_none());
        let loaded = PbPpm::from_snapshot(&trained_pb().0.to_snapshot()).unwrap();
        assert!(loaded.store.tree().is_none());
    }
}
