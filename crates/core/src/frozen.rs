//! Frozen struct-of-arrays / CSR arena: the finalized model itself, and
//! the path counting that trains it.
//!
//! Every count in a prediction tree is a prefix count: a node's count is
//! the number of training paths its own path begins. So training keeps no
//! tree. Each model emits its sessions' paths (and PB-PPM its special
//! links), `NodeStore` counts them as sorted runs, and `finalize` folds
//! the merged runs into preorder rows, cuts them and hands them to the one
//! arena builder, [`FrozenTree::from_snapshot`]. The arena is laid out for
//! reads:
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
//! Rows are indexed by [`NodeId`], in the order the snapshot codec writes
//! ([`FrozenTree::to_snapshot`]). Training writes them in one canonical
//! order: roots by URL, each root followed by its special links sorted by
//! URL and then its subtree in preorder, siblings by URL. That order does
//! not depend on how sessions were ordered or partitioned over threads.
//! The loader accepts any order in which a parent's row precedes its
//! children's: every upward walk ends, and a single forward sweep sees
//! each parent before its children.
//!
//! Every model family serves from here on exactly one path: standard PPM,
//! LRS PPM and the order-1 baseline by direct suffix descent
//! ([`FrozenTree::longest_predictive`]), PB-PPM through its fingerprint
//! index with verification walks on these arrays
//! ([`FrozenTree::match_top`]).

use crate::interner::UrlId;
use crate::popularity::PopularityTable;
use crate::predictor::{rank_distinct_predictions, PredictUsage, Prediction};
use crate::prune::{PruneConfig, PruneReport};
use crate::stats::ModelStats;
use std::ops::Range;

/// A node's row in a [`FrozenTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// The typed wire image of a finalized model's nodes: the rows of its
/// frozen arena, each written once.
///
/// A row keeps only what training decided: its URL, count, parent and
/// link-dup flag. Everything else in the arena follows from those
/// ([`FrozenTree::from_snapshot`] derives it): child rows, depths, the
/// root table and each root's special links.
///
/// Produced by [`FrozenTree::to_snapshot`]; consumed by
/// [`FrozenTree::from_snapshot`], which rebuilds the arena directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// All nodes, in arena order: each parent precedes its children.
    pub nodes: Vec<NodeSnapshot>,
}

/// One node of a [`TreeSnapshot`], with raw `u32` references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Interned URL id.
    pub url: u32,
    /// Training traversal count.
    pub count: u64,
    /// Parent row (an earlier one), or `u32::MAX` for roots.
    pub parent: u32,
    /// True for PB-PPM duplicated popular nodes, which hang off a root.
    pub link_dup: bool,
}

/// Why a [`TreeSnapshot`] failed to load: a state the format can express
/// but training never produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The parent of row `row` is not an earlier row, so the parent chain
    /// could run off the arena or loop back on itself.
    BadParent(u32),
    /// Row `row` breaks the special-link shape: a duplicate whose parent
    /// is not a root, a root flagged as a duplicate, or a node below a
    /// duplicate.
    BadLink(u32),
    /// Row `row` repeats the URL of another root, of a sibling, or of
    /// another special link of its root.
    RepeatedUrl(u32),
    /// A model-specific layout rule is broken (context in the message).
    Malformed(&'static str),
    /// A count, or a sum of counts, outgrows the fingerprint index's
    /// 32-bit fields.
    IndexOverflow,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadParent(row) => {
                write!(f, "parent of node {row} is not an earlier node")
            }
            SnapshotError::BadLink(row) => {
                write!(f, "node {row} breaks the special-link shape")
            }
            SnapshotError::RepeatedUrl(row) => {
                write!(f, "node {row} repeats the url of a root, sibling or link")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed arena: {what}"),
            SnapshotError::IndexOverflow => {
                write!(f, "counts outgrow the fingerprint index's 32-bit fields")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Sentinel for "no node" in the `u32` index space: the parent of a root.
pub const NO_NODE: u32 = u32::MAX;

/// Child lists at most this long are scanned linearly; longer ones are
/// binary-searched. CSR entries are adjacent, so the scan stays within one
/// or two cache lines.
const LINEAR_SCAN_MAX: usize = 16;

#[inline]
fn ix(i: u32) -> usize {
    i as usize
}

/// The frozen struct-of-arrays / CSR arena of a finalized tree model.
///
/// All arrays are indexed by the node's row, its [`NodeId`]. Immutable by
/// construction: every accessor takes `&self`.
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

    /// Builds an arena from its rows: the one builder behind both a
    /// snapshot load and `finalize`.
    ///
    /// The rows carry URL, count, parent and link-dup flag; the rest is
    /// derived. One forward sweep checks each parent (an earlier row; a
    /// duplicate's parent a root, and nothing below a duplicate) and takes
    /// the depth as the parent's plus one, saturating at `u8::MAX`. Then
    /// the non-duplicate rows are grouped by parent into URL-sorted child
    /// runs, the parentless rows sorted by URL into the root table, and
    /// the duplicates grouped under their root in row order. Two roots,
    /// siblings or links of one root sharing a URL are refused. Any
    /// parent-first row order loads; the rows keep their order.
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

    /// The paper's "longest matching method": the deepest suffix match
    /// (longest first, at most `max_order` URLs) that has at least one
    /// child; a matched leaf falls back to a shorter context. No hashing
    /// and no allocation — this is how the suffix-forest models match a
    /// context.
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

/// A length or position as a `u32` id. Rows and path offsets are `u32`
/// by design; outgrowing them is a programming error worth dying for.
fn id(n: usize) -> u32 {
    u32::try_from(n).expect("path counts outgrow u32 ids")
}

/// Where a model's path emitter writes one session's training: its paths,
/// each a range of the session, and PB-PPM's special links.
pub(crate) struct Emit<'a> {
    /// Offset of the session in its run's `urls`.
    base: usize,
    paths: &'a mut Vec<(u32, u32)>,
    links: &'a mut Vec<(UrlId, UrlId)>,
}

impl Emit<'_> {
    /// One training path: the session's URLs in `range`, read from the
    /// root down. Every node on it counts the path once.
    pub(crate) fn path(&mut self, range: Range<usize>) {
        self.paths
            .push((id(self.base + range.start), id(range.len())));
    }

    /// One special link from the root for `root` to a duplicate of `url`.
    pub(crate) fn link(&mut self, root: UrlId, url: UrlId) {
        self.links.push((root, url));
    }
}

/// One contiguous partition of sessions, counted: its distinct paths and
/// links, sorted, with multiplicities.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathRun {
    /// The partition's sessions back to back; every path is a range of one.
    urls: Vec<UrlId>,
    /// `((offset, len), count)` into `urls`, sorted by the URLs spelled.
    paths: Vec<((u32, u32), u64)>,
    /// `((root, url), count)`, sorted.
    links: Vec<((UrlId, UrlId), u64)>,
}

impl PathRun {
    /// Counts what `emit` writes for each of `sessions`.
    fn count<S, F>(sessions: &[S], emit: &F) -> Self
    where
        S: AsRef<[UrlId]>,
        F: Fn(&[UrlId], &mut Emit<'_>),
    {
        let mut urls = Vec::with_capacity(sessions.iter().map(|s| s.as_ref().len()).sum());
        let (mut paths, mut links) = (Vec::new(), Vec::new());
        for s in sessions {
            let s = s.as_ref();
            let base = urls.len();
            urls.extend_from_slice(s);
            let mut out = Emit {
                base,
                paths: &mut paths,
                links: &mut links,
            };
            emit(s, &mut out);
        }
        let spell = |&(start, len): &(u32, u32)| &urls[ix(start)..ix(start) + ix(len)];
        paths.sort_unstable_by(|a, b| spell(a).cmp(spell(b)));
        let paths = sum_runs(paths.into_iter().map(|p| (p, 1)), |a, b| {
            spell(a) == spell(b)
        });
        links.sort_unstable();
        let links = sum_runs(links.into_iter().map(|l| (l, 1)), |a, b| a == b);
        Self { urls, paths, links }
    }
}

/// Merges adjacent entries of sorted input whose keys are `same` into one
/// entry carrying their summed count.
fn sum_runs<K>(
    sorted: impl IntoIterator<Item = (K, u64)>,
    same: impl Fn(&K, &K) -> bool,
) -> Vec<(K, u64)> {
    let mut out: Vec<(K, u64)> = Vec::new();
    for (key, n) in sorted {
        match out.last_mut() {
            Some((last, total)) if same(last, &key) => *total += n,
            _ => out.push((key, n)),
        }
    }
    out
}

/// Folds counted runs into the canonical rows: roots by URL, each followed
/// by its special links by URL and then its subtree in preorder, siblings
/// by URL. A row's count is the number of paths it begins.
fn fold(runs: &[PathRun]) -> Vec<NodeSnapshot> {
    // Each run is sorted, so a stable sort of their concatenation merges
    // them.
    let mut paths: Vec<(&[UrlId], u64)> = runs
        .iter()
        .flat_map(|r| {
            r.paths
                .iter()
                .map(|&((start, len), n)| (&r.urls[ix(start)..ix(start) + ix(len)], n))
        })
        .collect();
    paths.sort_by(|a, b| a.0.cmp(b.0));
    let mut links: Vec<_> = runs.iter().flat_map(|r| r.links.iter().copied()).collect();
    links.sort_by_key(|&(link, _)| link);
    let mut links = sum_runs(links, |a, b| a == b).into_iter().peekable();

    let mut rows: Vec<NodeSnapshot> = Vec::new();
    // The rows spelling the previous path, by depth.
    let mut open: Vec<u32> = Vec::new();
    let mut prev: &[UrlId] = &[];
    for (path, n) in paths {
        let shared = prev.iter().zip(path).take_while(|(a, b)| a == b).count();
        open.truncate(shared);
        for &row in &open {
            rows[ix(row)].count += n;
        }
        for &url in &path[shared..] {
            let parent = open.last().copied().unwrap_or(NO_NODE);
            let row = id(rows.len());
            open.push(row);
            rows.push(NodeSnapshot {
                url: url.0,
                count: n,
                parent,
                link_dup: false,
            });
            if parent == NO_NODE {
                while let Some(((_, target), count)) = links.next_if(|&((r, _), _)| r == url) {
                    rows.push(NodeSnapshot {
                        url: target.0,
                        count,
                        parent: row,
                        link_dup: true,
                    });
                }
            }
        }
        prev = path;
    }
    debug_assert!(links.next().is_none(), "every link hangs off a root");
    rows
}

/// Keeps each row whose parent is kept and whose own cut passes
/// ([`PruneConfig::keeps`]), renumbering parents. A parent precedes its
/// children, so one forward pass decides every row.
fn cut(rows: &[NodeSnapshot], cfg: &PruneConfig) -> Vec<NodeSnapshot> {
    let mut renumbered = vec![NO_NODE; rows.len()];
    let mut kept = Vec::with_capacity(rows.len());
    for (row, node) in rows.iter().enumerate() {
        let (keep, parent) = if node.parent == NO_NODE {
            (cfg.keeps(node.count, None), NO_NODE)
        } else {
            let parent = ix(node.parent);
            let keep =
                renumbered[parent] != NO_NODE && cfg.keeps(node.count, Some(rows[parent].count));
            (keep, renumbered[parent])
        };
        if keep {
            renumbered[row] = id(kept.len());
            kept.push(NodeSnapshot {
                parent,
                ..node.clone()
            });
        }
    }
    kept
}

/// A tree model's nodes: counted path runs while training, then only the
/// frozen arena — from `finalize`, or from a snapshot load, on.
// One store per model, so the inline arena's size costs nothing; boxing it
// would add a pointer hop to every predict.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum NodeStore {
    /// One counted run per `train_session` call and per `train_sessions`
    /// partition.
    Training(Vec<PathRun>),
    /// The arena serves. `used` holds Fig. 2's path-usage flags, one bit
    /// per row, allocated by the first `apply_usage`: serving never
    /// applies usage, so serving models never carry it.
    Frozen { arena: FrozenTree, used: Vec<u64> },
}

impl Default for NodeStore {
    fn default() -> Self {
        NodeStore::Training(Vec::new())
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

    /// The runs to add to. Training a finalized model is a caller bug:
    /// debug builds panic, release builds ignore the session.
    fn runs_mut(&mut self) -> Option<&mut Vec<PathRun>> {
        let runs = match self {
            NodeStore::Training(runs) => Some(runs),
            NodeStore::Frozen { .. } => None,
        };
        debug_assert!(runs.is_some(), "training after finalize");
        runs
    }

    /// Counts what `emit` writes for `session` as a run of its own.
    pub(crate) fn train_session<F>(&mut self, session: &[UrlId], emit: F)
    where
        F: Fn(&[UrlId], &mut Emit<'_>) + Sync,
    {
        self.train_sessions(&[session], 1, emit);
    }

    /// Counts what `emit` writes for every session, in parallel:
    /// contiguous session partitions ([`crate::parallel::partition_ranges`])
    /// each become one run (`0` threads = auto via
    /// `PBPPM_THREADS`/available parallelism). [`NodeStore::finalize`]
    /// lays the merged runs out in one canonical order, so the arena is
    /// the same at every thread count and in every session order.
    pub(crate) fn train_sessions<S, F>(&mut self, sessions: &[S], threads: usize, emit: F)
    where
        S: AsRef<[UrlId]> + Sync,
        F: Fn(&[UrlId], &mut Emit<'_>) + Sync,
    {
        let Some(runs) = self.runs_mut() else {
            return;
        };
        let threads = crate::parallel::resolve_threads(threads).min(sessions.len().max(1));
        let ranges = crate::parallel::partition_ranges(sessions.len(), threads);
        runs.extend(crate::parallel::parallel_map_with(&ranges, threads, |r| {
            PathRun::count(&sessions[r.clone()], &emit)
        }));
    }

    /// Replaces the runs by their arena: merged, folded into the canonical
    /// rows, cut by `cfg` and built by [`FrozenTree::from_snapshot`]. `pop`
    /// supplies PB-PPM's popularity grades; baselines pass `None`. `None`
    /// when already frozen (a second `finalize` changes nothing).
    ///
    /// # Panics
    ///
    /// If the loader refuses the rows. Counting builds only shapes the
    /// loader accepts, so a refusal is a training bug.
    pub(crate) fn finalize(
        &mut self,
        cfg: &PruneConfig,
        pop: Option<&PopularityTable>,
    ) -> Option<(&FrozenTree, PruneReport)> {
        let NodeStore::Training(runs) = self else {
            return None;
        };
        let rows = fold(runs);
        let nodes = cut(&rows, cfg);
        let report = PruneReport {
            nodes_before: rows.len(),
            nodes_after: nodes.len(),
        };
        drop(rows);
        match FrozenTree::from_snapshot(&TreeSnapshot { nodes }, pop) {
            Ok(arena) => *self = NodeStore::loaded(arena),
            Err(e) => panic!("{e}"),
        }
        self.arena().map(|arena| (arena, report))
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

    /// Rows in the arena: the paper's storage measure. A store still
    /// training has no arena, so 0.
    pub(crate) fn node_count(&self) -> usize {
        self.arena().map_or(0, FrozenTree::len)
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

    /// Structural statistics of the finalized arena; the default while
    /// training, which has no arena.
    pub(crate) fn stats(&self) -> ModelStats {
        match self {
            NodeStore::Training(_) => ModelStats::default(),
            NodeStore::Frozen { arena, used } => ModelStats::of_arena(arena, used),
        }
    }
}

/// An arena counted from `paths`, each emitted once, and special `links`,
/// with no cut: a fixture for tests of what reads arenas.
#[cfg(test)]
pub(crate) fn arena_of(paths: &[&[u32]], links: &[(u32, u32)]) -> FrozenTree {
    let paths: Vec<Vec<UrlId>> = paths
        .iter()
        .map(|p| p.iter().map(|&n| UrlId(n)).collect())
        .collect();
    let mut store = NodeStore::default();
    store.train_sessions(&paths, 1, |s, out| out.path(0..s.len()));
    for &(root, url) in links {
        store.train_session(&[], |_, out| out.link(UrlId(root), UrlId(url)));
    }
    let _ = store.finalize(&PruneConfig::disabled(), None);
    match store {
        NodeStore::Frozen { arena, .. } => arena,
        NodeStore::Training(_) => unreachable!("finalize froze"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::{PbConfig, PbPpm};
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;
    use crate::standard::StandardPpm;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    const STANDARD_SESSIONS: [&[u32]; 3] = [&[0, 1, 2, 3], &[0, 1, 4], &[2, 3, 1]];

    /// A finalized unbounded standard model over `STANDARD_SESSIONS`.
    fn trained_standard() -> StandardPpm {
        let mut m = StandardPpm::unbounded();
        for s in STANDARD_SESSIONS {
            m.train_session(&s.iter().map(|&n| u(n)).collect::<Vec<_>>());
        }
        m.finalize();
        m
    }

    /// A finalized PB model: grades 3/2/1/3 for URLs 0–3, no cuts.
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

    /// Row `i`'s path, root first, by its parent chain.
    fn path_of(arena: &FrozenTree, i: u32) -> Vec<UrlId> {
        let mut path = vec![arena.url(i)];
        let mut cur = arena.parent(i);
        while cur != NO_NODE {
            path.push(arena.url(cur));
            cur = arena.parent(cur);
        }
        path.reverse();
        path
    }

    #[test]
    fn trained_rows_count_the_paths_they_begin() {
        let m = trained_standard();
        let arena = m.frozen().expect("finalize froze");
        let sessions: Vec<Vec<UrlId>> = STANDARD_SESSIONS
            .iter()
            .map(|s| s.iter().map(|&n| u(n)).collect())
            .collect();
        // Every suffix of every session is a path; each of its prefixes
        // is a row counting the suffixes it begins.
        let mut prefixes = std::collections::BTreeSet::new();
        for s in &sessions {
            for start in 0..s.len() {
                for end in start + 1..=s.len() {
                    prefixes.insert(s[start..end].to_vec());
                }
            }
        }
        assert_eq!(arena.len(), prefixes.len());
        for i in 0..arena.rows() {
            let path = path_of(arena, i);
            let begun = sessions
                .iter()
                .flat_map(|s| (0..s.len()).map(move |start| &s[start..]))
                .filter(|suffix| suffix.starts_with(&path))
                .count();
            assert_eq!(arena.count(i), begun as u64, "row {i} {path:?}");
            assert_eq!(usize::from(arena.depth(i)), path.len());
            assert_eq!(arena.descend(&path), Some(i));
            assert!(!arena.is_link_dup(i));
        }
    }

    #[test]
    fn trained_rows_are_in_canonical_order() {
        // Roots by URL, each followed by its links by URL and then its
        // subtree in preorder, siblings by URL.
        let arena = arena_of(&[&[5, 2], &[1, 7], &[1, 3, 4], &[5]], &[(1, 9), (1, 8)]);
        let rows: Vec<(u32, u32, bool)> = arena
            .to_snapshot()
            .nodes
            .iter()
            .map(|n| (n.url, n.parent, n.link_dup))
            .collect();
        let root = NO_NODE;
        assert_eq!(
            rows,
            vec![
                (1, root, false),
                (8, 0, true),
                (9, 0, true),
                (3, 0, false),
                (4, 3, false),
                (7, 0, false),
                (5, root, false),
                (2, 6, false),
            ]
        );
        assert_eq!(arena.count(0), 2);
        assert_eq!(arena.count(6), 2);
    }

    #[test]
    fn frozen_links_and_grades_follow_pb_training() {
        let m = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
        // Three sessions link root 0 to the grade-3 URL 3 at depth 4, one
        // links root 3 to URL 0.
        let links = |url| -> Vec<(UrlId, u64)> {
            frozen
                .links_of(u(url))
                .iter()
                .map(|&id| (frozen.url(id), frozen.count(id)))
                .collect()
        };
        assert_eq!(links(0), vec![(u(3), 3)]);
        assert_eq!(links(3), vec![(u(0), 1)]);
        assert!(links(1).is_empty());
        for i in 0..frozen.rows() {
            assert_eq!(
                frozen.grade(i),
                m.popularity().grade(frozen.url(i)).level(),
                "grade of node {i}"
            );
        }
    }

    #[test]
    fn match_top_finds_the_top_of_each_matching_suffix() {
        let m = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
        let contexts = [
            vec![u(0)],
            vec![u(0), u(1)],
            vec![u(1), u(2)],
            vec![u(9), u(1), u(2)],
            vec![u(0), u(1), u(2), u(3)],
        ];
        for i in (0..frozen.rows()).filter(|&i| !frozen.is_link_dup(i)) {
            let path = path_of(frozen, i);
            for ctx in &contexts {
                let want = path
                    .ends_with(ctx)
                    .then(|| frozen.descend(&path[..=path.len() - ctx.len()]))
                    .flatten();
                assert_eq!(frozen.match_top(i, ctx), want, "row {i} ctx {ctx:?}");
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_rebuilds_the_same_arena() {
        let frozen = arena_of(&[&[1, 2, 3], &[1, 4], &[6, 7]], &[(1, 9)]);
        let snap = frozen.to_snapshot();
        assert_eq!(snap.nodes.len(), 7);
        let dups: Vec<&NodeSnapshot> = snap.nodes.iter().filter(|n| n.link_dup).collect();
        assert_eq!(dups.len(), 1, "one link");
        let back = FrozenTree::from_snapshot(&snap, None).unwrap();
        assert_eq!(back, frozen);
        let root = back.root(u(1)).unwrap();
        assert_eq!(dups[0].parent, root);
        assert_eq!(back.count(back.descend(&[u(1), u(2), u(3)]).unwrap()), 1);
        assert_eq!(back.count(root), 2);
        assert_eq!(back.links_of(u(1)).len(), 1);
        assert_eq!(back.url(back.links_of(u(1))[0]), u(9));
        assert_eq!(back.parent(back.links_of(u(1))[0]), root);
        // The image of the rebuilt arena is identical (canonical form).
        assert_eq!(back.to_snapshot(), snap);
    }

    /// `image` with its rows in another parent-first order: roots by
    /// descending URL, each root's children (subtrees first, siblings
    /// reversed) before its links.
    fn reversed_rows(arena: &FrozenTree) -> TreeSnapshot {
        fn visit(arena: &FrozenTree, row: u32, order: &mut Vec<u32>) {
            order.push(row);
            for &(_, child) in arena.children(row).iter().rev() {
                visit(arena, child, order);
            }
        }
        let mut order = Vec::new();
        for &(url, root) in arena.roots().iter().rev() {
            visit(arena, root, &mut order);
            order.extend(arena.links_of(url).iter().rev());
        }
        assert_eq!(order.len(), arena.len());
        let mut renumbered = vec![NO_NODE; order.len()];
        for (new, &old) in (0..).zip(&order) {
            renumbered[ix(old)] = new;
        }
        let image = arena.to_snapshot();
        let nodes = order
            .iter()
            .map(|&old| {
                let node = &image.nodes[ix(old)];
                NodeSnapshot {
                    parent: renumbered.get(ix(node.parent)).copied().unwrap_or(NO_NODE),
                    ..node.clone()
                }
            })
            .collect();
        TreeSnapshot { nodes }
    }

    #[test]
    fn any_parent_first_row_order_loads_and_predicts_alike() {
        let m = trained_pb();
        let mut snap = m.to_snapshot();
        snap.tree = reversed_rows(m.frozen().expect("finalize froze"));
        assert_ne!(snap.tree, m.to_snapshot().tree, "rows really moved");
        let back = PbPpm::from_snapshot(&snap).expect("a parent-first image loads");
        assert_eq!(back.to_snapshot().tree, snap.tree, "rows keep their order");
        assert_eq!(back.stats(), m.stats());
        let mut contexts: Vec<Vec<UrlId>> = (0..5).map(|a| vec![u(a)]).collect();
        for a in 0..5 {
            for b in 0..5 {
                contexts.push(vec![u(a), u(b)]);
                contexts.push(vec![u(9), u(a), u(b)]);
            }
        }
        contexts.push(vec![u(0), u(1), u(2), u(3), u(1), u(2)]);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for ctx in &contexts {
            m.predict_ro(ctx, &mut want, &mut PredictUsage::default());
            back.predict_ro(ctx, &mut got, &mut PredictUsage::default());
            assert_eq!(got, want, "context {ctx:?}");
        }
    }

    fn row(url: u32, parent: u32, link_dup: bool) -> NodeSnapshot {
        NodeSnapshot {
            url,
            count: 1,
            parent,
            link_dup,
        }
    }

    /// Rows 0..3: root 1, its child 2, and its special link to 9.
    fn chain() -> TreeSnapshot {
        TreeSnapshot {
            nodes: vec![row(1, NO_NODE, false), row(2, 0, false), row(9, 0, true)],
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
    fn depth_saturates_instead_of_overflowing() {
        let nodes = (0..300u32)
            .map(|i| row(i, i.checked_sub(1).unwrap_or(NO_NODE), false))
            .collect();
        let arena = FrozenTree::from_snapshot(&TreeSnapshot { nodes }, None).unwrap();
        assert_eq!(arena.depth(254), u8::MAX);
        assert_eq!(arena.depth(299), u8::MAX);
    }

    /// Root 0 (count 100) with link 9 (1), child 1 (50) with child 2 (1),
    /// and child 3 (2); then root 4 (1) with child 5 (1).
    fn counted_rows() -> Vec<NodeSnapshot> {
        let node = |url, count, parent, link_dup| NodeSnapshot {
            url,
            count,
            parent,
            link_dup,
        };
        vec![
            node(0, 100, NO_NODE, false),
            node(9, 1, 0, true),
            node(1, 50, 0, false),
            node(2, 1, 2, false),
            node(3, 2, 0, false),
            node(4, 1, NO_NODE, false),
            node(5, 1, 5, false),
        ]
    }

    /// The `(url, parent)` of each row `cut` keeps.
    fn kept(cfg: PruneConfig) -> Vec<(u32, u32)> {
        cut(&counted_rows(), &cfg)
            .iter()
            .map(|n| (n.url, n.parent))
            .collect()
    }

    #[test]
    fn cuts_drop_subtrees_and_links_with_their_root() {
        assert_eq!(kept(PruneConfig::disabled()).len(), 7);
        // 1% keeps every 2% child and the 1% link; 5% drops them, and
        // renumbers what follows.
        assert_eq!(
            kept(PruneConfig {
                relative_threshold: Some(0.05),
                min_abs_count: None,
            }),
            vec![(0, NO_NODE), (1, 0), (4, NO_NODE), (5, 2)]
        );
        assert_eq!(
            kept(PruneConfig {
                relative_threshold: Some(0.01),
                min_abs_count: None,
            })
            .len(),
            7
        );
        // The absolute cut drops singletons anywhere, roots included, and
        // a root's subtree goes with it.
        assert_eq!(
            kept(PruneConfig {
                relative_threshold: None,
                min_abs_count: Some(1),
            }),
            vec![(0, NO_NODE), (1, 0), (3, 0)]
        );
        assert!(kept(PruneConfig {
            relative_threshold: None,
            min_abs_count: Some(u64::MAX),
        })
        .is_empty());
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
    fn lrs_cut_drops_unrepeated_branches() {
        let mut m = StandardPpm::lrs();
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2)]);
        }
        m.train_session(&[u(3), u(4)]); // below min_support: cut away
        m.finalize();
        let frozen = m.frozen().expect("finalize froze");
        // 0, 0 1, 0 1 2, 1, 1 2, 2.
        assert_eq!(frozen.len(), 6);
        assert!(frozen.root(u(3)).is_none(), "pruned root must not survive");
        assert!(frozen.descend(&[u(0), u(1), u(2)]).is_some());
    }

    #[test]
    fn finalized_models_hold_only_the_arena() {
        let training = |store: &NodeStore| matches!(store, NodeStore::Training(_));
        assert!(!training(&trained_pb().store));
        assert!(!training(&trained_standard().store));
        let loaded = PbPpm::from_snapshot(&trained_pb().to_snapshot()).unwrap();
        assert!(!training(&loaded.store));
    }
}
