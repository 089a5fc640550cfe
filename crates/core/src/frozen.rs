//! Frozen struct-of-arrays arena in level order: the finalized model
//! itself, and the path counting that trains it.
//!
//! Every count in a prediction tree is a prefix count: a node's count is
//! the number of training paths its own path begins. So training keeps no
//! tree. Each model emits its sessions' paths (and PB-PPM its special
//! links), `NodeStore` counts them as sorted runs, and `finalize` folds
//! the merged runs into rows, cuts them, lays them out in level order and
//! hands them to the one arena builder, [`FrozenTree::from_snapshot`].
//!
//! Rows are in level order: the roots first (rows `0..R`, sorted by URL),
//! then each level of the forest in turn, with every node's children one
//! contiguous run sorted by URL, and last PB-PPM's special-link rows,
//! grouped by root in root order and sorted by URL. The order is the
//! structure, so the arena stores it implicitly:
//!
//! * parallel `u32`-indexed columns for `url`, `count` and `parent` (one
//!   cache line covers eight nodes' counts);
//! * `first_child`: node `i`'s children are the rows
//!   `first_child[i]..first_child[i + 1]`, so the child-vote loop is a
//!   linear pass over adjacent rows and their URLs are already sorted;
//! * a root is its own slot: a direct-indexed `root_lookup` table (URL ids
//!   are dense interner ids) answers "is the current click a root?" in one
//!   array load, and `link_offsets[slot]..link_offsets[slot + 1]` are the
//!   root's link rows, so a row is a link exactly when it is at or past
//!   the first link row;
//! * Fig. 2's path-usage flags are a bitset over rows kept beside the
//!   arena, filled from the [`crate::predictor::PredictUsage`] side
//!   channel, so every frozen read path takes `&self`.
//!
//! Rows are indexed by [`NodeId`], in the order the snapshot codec writes
//! ([`FrozenTree::to_snapshot`]). Training lays them out in this one
//! order, which does not depend on how sessions were ordered or
//! partitioned over threads, and the loader accepts no other.
//!
//! Every model family serves from here on exactly one path: standard PPM,
//! LRS PPM and the order-1 baseline by direct suffix descent
//! ([`FrozenTree::longest_predictive`]), PB-PPM through its fingerprint
//! index with verification walks on these arrays
//! ([`FrozenTree::match_top`]).

use crate::interner::UrlId;
use crate::predictor::{rank_distinct_predictions, PredictUsage, Prediction};
use crate::prune::{PruneConfig, PruneReport};
use crate::stats::ModelStats;
use std::ops::Range;

/// A node's row in a [`FrozenTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// The typed wire image of a finalized model's nodes: the rows of its
/// frozen arena in level order, each written once.
///
/// A tree row keeps its URL, count and child count, a special link its
/// root's slot, URL and count. Parents, child runs, the root table and
/// each root's links follow from the order ([`FrozenTree::from_snapshot`]
/// derives them).
///
/// Produced by [`FrozenTree::to_snapshot`]; consumed by
/// [`FrozenTree::from_snapshot`], which rebuilds the arena directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// The tree rows in level order: the roots sorted by URL, then each
    /// level, every node's children one run sorted by URL.
    pub nodes: Vec<NodeSnapshot>,
    /// PB-PPM's special links, sorted by root slot and then by URL.
    pub links: Vec<LinkSnapshot>,
}

/// One tree row of a [`TreeSnapshot`], with raw `u32` references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Interned URL id.
    pub url: u32,
    /// Training traversal count.
    pub count: u64,
    /// How many rows of the next level are this row's children.
    pub children: u32,
}

/// One special link of a [`TreeSnapshot`]: a duplicated popular node
/// hanging off a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// The root's slot, which is its row.
    pub root: u32,
    /// Interned URL id of the duplicated node.
    pub url: u32,
    /// Sessions of the root's branch that went on to visit the URL.
    pub count: u64,
}

/// Why a [`TreeSnapshot`] failed to load: a state the format can express
/// but training never produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The child run of tree row `row` starts at or before the row itself,
    /// or the child counts add up past the tree rows, so a parent would not
    /// precede its children.
    BadChildRun(u32),
    /// Link row `row` names a root slot past the roots, or one before the
    /// previous link's.
    BadLink(u32),
    /// Row `row` does not sort strictly after the root, sibling or link of
    /// its root before it, by URL.
    UnsortedUrl(u32),
    /// A model-specific layout rule is broken (context in the message).
    Malformed(&'static str),
    /// A count, or a sum of counts, outgrows the fingerprint index's
    /// 32-bit fields.
    IndexOverflow,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadChildRun(row) => {
                write!(
                    f,
                    "child run of node {row} does not start after it among the tree rows"
                )
            }
            SnapshotError::BadLink(row) => {
                write!(
                    f,
                    "link node {row} does not name a root at or after the last link's"
                )
            }
            SnapshotError::UnsortedUrl(row) => {
                write!(
                    f,
                    "node {row} does not sort after the root, sibling or link before it"
                )
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

/// Child runs at most this long are scanned linearly; longer ones are
/// binary-searched. Sibling URLs are adjacent, so the scan stays within
/// one or two cache lines.
const LINEAR_SCAN_MAX: usize = 16;

#[inline]
fn ix(i: u32) -> usize {
    i as usize
}

/// The frozen level-order arena of a finalized tree model.
///
/// All columns are indexed by the node's row, its [`NodeId`]. Immutable
/// by construction: every accessor takes `&self`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenTree {
    /// `urls[i]`: URL of row `i`.
    pub(crate) urls: Vec<UrlId>,
    /// `counts[i]`: transition count of row `i`.
    pub(crate) counts: Vec<u64>,
    /// `parents[i]`: parent row of row `i`, [`NO_NODE`] for roots; a link
    /// row's parent is its root.
    pub(crate) parents: Vec<u32>,
    /// Row `i`'s children are the rows `first_child[i]..first_child[i + 1]`;
    /// length `n + 1`. Link rows have empty runs at the first link row.
    pub(crate) first_child: Vec<u32>,
    /// Direct index: `root_lookup[url.0]` is the URL's root row, which is
    /// also its slot (or [`NO_NODE`]). URL ids are dense, so this stays
    /// small.
    pub(crate) root_lookup: Vec<u32>,
    /// Root `s`'s link rows are `link_offsets[s]..link_offsets[s + 1]`;
    /// length `R + 1`, from the first link row to `n`.
    pub(crate) link_offsets: Vec<u32>,
}

/// A row count as `u32` row ids, which leave [`NO_NODE`] free.
fn row_count(n: usize) -> Result<u32, SnapshotError> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < NO_NODE)
        .ok_or(SnapshotError::Malformed("rows past u32 ids"))
}

impl FrozenTree {
    /// Builds an arena from its level-order rows: the one builder behind
    /// both a snapshot load and `finalize`.
    ///
    /// Every tree row but a root is some row's child, so the first `R`
    /// rows are the roots, `R` being the tree rows less the summed child
    /// counts, and one running offset from `R` hands each row its child
    /// run and each child its parent. A run must start after its own row, which also keeps it
    /// within the tree rows. Roots, each run of siblings and each root's
    /// links must ascend strictly by URL, and links come sorted by root
    /// slot, each below `R`. Anything else is refused.
    pub fn from_snapshot(snap: &TreeSnapshot) -> Result<Self, SnapshotError> {
        let (nodes, links) = (&snap.nodes, &snap.links);
        let rows = row_count(nodes.len() + links.len())?;
        let tree = row_count(nodes.len())?;
        let children: u64 = nodes.iter().map(|s| u64::from(s.children)).sum();
        // Too many children leave no root, and row 0's run then starts at
        // row 0.
        let roots = u32::try_from(u64::from(tree).saturating_sub(children)).unwrap_or(0);
        let mut parents = vec![NO_NODE; ix(rows)];
        let mut first_child = Vec::with_capacity(ix(rows) + 1);
        let mut next = roots;
        for (row, s) in (0..).zip(nodes) {
            if next <= row {
                return Err(SnapshotError::BadChildRun(row));
            }
            first_child.push(next);
            // Runs so far fit the tree rows: the counts sum to tree − R.
            let end = next + s.children;
            parents[ix(next)..ix(end)].fill(row);
            next = end;
        }
        first_child.resize(ix(rows) + 1, tree);

        let mut link_offsets = Vec::with_capacity(ix(roots) + 1);
        for (row, link) in (tree..).zip(links) {
            if link.root >= roots || ix(link.root) + 1 < link_offsets.len() {
                return Err(SnapshotError::BadLink(row));
            }
            link_offsets.resize(ix(link.root) + 1, row);
            parents[ix(row)] = link.root;
        }
        link_offsets.resize(ix(roots) + 1, rows);

        let urls: Vec<UrlId> = nodes
            .iter()
            .map(|s| UrlId(s.url))
            .chain(links.iter().map(|l| UrlId(l.url)))
            .collect();
        // Rows sharing a parent are one run: the roots, a node's children,
        // a root's links (the first link row starts a new run).
        for k in (1..ix(rows)).filter(|&k| k != ix(tree)) {
            if parents[k - 1] == parents[k] && urls[k - 1] >= urls[k] {
                return Err(SnapshotError::UnsortedUrl(row_count(k)?));
            }
        }
        // The last root has the largest URL.
        let width = roots
            .checked_sub(1)
            .map_or(0, |last| ix(urls[ix(last)].0) + 1);
        let mut root_lookup = vec![NO_NODE; width];
        for root in 0..roots {
            root_lookup[ix(urls[ix(root)].0)] = root;
        }
        Ok(Self {
            urls,
            counts: nodes
                .iter()
                .map(|s| s.count)
                .chain(links.iter().map(|l| l.count))
                .collect(),
            parents,
            first_child,
            root_lookup,
            link_offsets,
        })
    }

    /// The arena's wire image: each tree row's URL, count and child count,
    /// then each link's root slot, URL and count, in row order.
    pub fn to_snapshot(&self) -> TreeSnapshot {
        let tree = self.first_link_row();
        TreeSnapshot {
            nodes: (0..tree)
                .map(|i| {
                    let run = self.children(i);
                    NodeSnapshot {
                        url: self.url(i).0,
                        count: self.count(i),
                        children: run.end - run.start,
                    }
                })
                .collect(),
            links: (tree..self.rows())
                .map(|i| LinkSnapshot {
                    root: self.parent(i),
                    url: self.url(i).0,
                    count: self.count(i),
                })
                .collect(),
        }
    }

    /// Checks the arena's layout: equal column lengths, `first_child`
    /// monotone from the root count to the first link row with each tree
    /// row's run after the row, and `link_offsets` monotone from the first
    /// link row to the row count. Together they make every run a range of
    /// later rows. The audit maps the error text into a
    /// `frozen-csr-malformed` violation.
    pub(crate) fn check_csr(&self) -> Result<(), &'static str> {
        let n = self.urls.len();
        if self.counts.len() != n || self.parents.len() != n || self.first_child.len() != n + 1 {
            return Err("frozen columns disagree on length");
        }
        let links = &self.link_offsets;
        if links.last().map(|&end| ix(end)) != Some(n) || links.windows(2).any(|w| w[0] > w[1]) {
            return Err("frozen link offsets do not rise to the row count");
        }
        let runs = &self.first_child;
        if ix(runs[0]) != links.len() - 1 || runs[n] != links[0] {
            return Err("frozen child runs do not span the roots to the first link row");
        }
        if runs.windows(2).any(|w| w[0] > w[1]) {
            return Err("frozen child runs not monotone");
        }
        if (0..links[0]).any(|i| runs[ix(i)] <= i) {
            return Err("frozen child run does not start after its row");
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

    /// The root rows `0..R`, sorted by URL; a root's row is its slot.
    #[must_use]
    pub fn roots(&self) -> Range<u32> {
        0..u32::try_from(self.link_offsets.len().saturating_sub(1)).unwrap_or(0)
    }

    /// The row count as the bound of the `u32` row ids.
    pub(crate) fn rows(&self) -> u32 {
        u32::try_from(self.urls.len()).unwrap_or(NO_NODE)
    }

    /// The first special-link row: the tree rows come before it.
    pub(crate) fn first_link_row(&self) -> u32 {
        self.link_offsets.first().copied().unwrap_or(0)
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

    /// Branch depth of node `i` (roots are depth 1), counted up its parent
    /// chain and saturating at `u8::MAX`.
    #[must_use]
    pub fn depth(&self, i: u32) -> u8 {
        let mut depth = 1u8;
        let mut cur = self.parent(i);
        while cur != NO_NODE {
            depth = depth.saturating_add(1);
            cur = self.parent(cur);
        }
        depth
    }

    /// Depth of the deepest node: the last tree row's (level order puts
    /// the deepest level last), or 2 when a special link hangs deeper.
    pub(crate) fn max_depth(&self) -> u8 {
        let tree = self.first_link_row();
        let deepest = tree.checked_sub(1).map_or(0, |last| self.depth(last));
        if tree < self.rows() {
            deepest.max(2)
        } else {
            deepest
        }
    }

    /// Parent index of node `i`, [`NO_NODE`] for roots.
    #[inline]
    #[must_use]
    pub fn parent(&self, i: u32) -> u32 {
        self.parents[ix(i)]
    }

    /// True when node `i` is a duplicated special-link node: a row at or
    /// past the first link row.
    #[inline]
    #[must_use]
    pub fn is_link_dup(&self, i: u32) -> bool {
        i >= self.first_link_row()
    }

    /// The children of node `i`: adjacent rows, sorted by URL.
    #[inline]
    #[must_use]
    pub fn children(&self, i: u32) -> Range<u32> {
        self.first_child[ix(i)]..self.first_child[ix(i) + 1]
    }

    /// True when node `i` has at least one child (one offset comparison —
    /// no pointer chase).
    #[inline]
    #[must_use]
    pub fn has_children(&self, i: u32) -> bool {
        self.first_child[ix(i)] < self.first_child[ix(i) + 1]
    }

    /// The child of node `i` carrying `url`, if any. Short runs are a
    /// linear scan over the adjacent URLs; long runs binary-search.
    #[inline]
    #[must_use]
    pub fn child(&self, i: u32, url: UrlId) -> Option<u32> {
        let run = self.children(i);
        let urls = &self.urls[ix(run.start)..ix(run.end)];
        if urls.len() <= LINEAR_SCAN_MAX {
            for (row, &u) in run.zip(urls) {
                if u >= url {
                    return (u == url).then_some(row);
                }
            }
            None
        } else {
            let pos = u32::try_from(urls.binary_search(&url).ok()?).ok()?;
            Some(run.start + pos)
        }
    }

    /// The branch root for `url`, if one exists.
    #[inline]
    #[must_use]
    pub fn root(&self, url: UrlId) -> Option<u32> {
        let row = *self.root_lookup.get(ix(url.0))?;
        (row != NO_NODE).then_some(row)
    }

    /// The link rows of the root in row (slot) `root`, sorted by URL.
    pub(crate) fn root_links(&self, root: u32) -> Range<u32> {
        self.link_offsets[ix(root)]..self.link_offsets[ix(root) + 1]
    }

    /// Special-link targets (duplicated nodes) hanging off `url`'s root:
    /// adjacent rows, sorted by URL.
    #[inline]
    #[must_use]
    pub fn links_of(&self, url: UrlId) -> Range<u32> {
        self.root(url).map_or(0..0, |root| self.root_links(root))
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
    /// descent, then one vote per child row of the matched node, appended
    /// to `out` and ranked. The children are adjacent and all alive, so
    /// the vote is one linear pass; the whole run votes, so usage records
    /// the node once (`used_child_rows`) instead of every child, and the
    /// run's URLs are distinct, so ranking skips the dedup set.
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
        for child in self.children(node) {
            out.push(Prediction::new(
                self.url(child),
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
            + size_of_val(self.parents.as_slice())
            + size_of_val(self.first_child.as_slice())
            + size_of_val(self.root_lookup.as_slice())
            + size_of_val(self.link_offsets.as_slice())
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
        for child in self.children(i) {
            mark_row(used, child);
        }
    }

    /// Counts `(total_paths, used_paths)`: a *path* ends at a tree row
    /// without children (link duplicates are not surfing paths), and is
    /// *used* when its leaf's bit is set (Fig. 2, right).
    pub(crate) fn path_usage(&self, used: &[u64]) -> (usize, usize) {
        let (mut total, mut hit) = (0, 0);
        for i in (0..self.first_link_row()).filter(|&i| !self.has_children(i)) {
            let i = ix(i);
            total += 1;
            hit += usize::from(used.get(i / 64).is_some_and(|b| (b >> (i % 64)) & 1 == 1));
        }
        (total, hit)
    }
}

/// Sets row `i`'s bit in a path-usage bitset.
pub(crate) fn mark_row(used: &mut [u64], i: u32) {
    if let Some(word) = used.get_mut(ix(i) / 64) {
        *word |= 1u64 << (ix(i) % 64);
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

/// One folded row before the layout: its URL, count, parent row (an
/// earlier one, or [`NO_NODE`]) and whether it is a special link.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    url: UrlId,
    count: u64,
    parent: u32,
    link: bool,
}

/// Folds counted runs into preorder rows: roots by URL, each followed by
/// its special links by URL and then its subtree in preorder, siblings by
/// URL. A row's count is the number of paths it begins.
fn fold(runs: &[PathRun]) -> Vec<Row> {
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

    let mut rows: Vec<Row> = Vec::new();
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
            rows.push(Row {
                url,
                count: n,
                parent,
                link: false,
            });
            if parent == NO_NODE {
                while let Some(((_, target), count)) = links.next_if(|&((r, _), _)| r == url) {
                    rows.push(Row {
                        url: target,
                        count,
                        parent: row,
                        link: true,
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
fn cut(rows: &[Row], cfg: &PruneConfig) -> Vec<Row> {
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
            kept.push(Row {
                parent,
                ..node.clone()
            });
        }
    }
    kept
}

/// Lays preorder rows out in level order. A stable sort by depth keeps
/// the preorder within each level, which already groups each node's
/// children into one URL-sorted run, in their parents' order; moving the
/// link rows to the end, stably, keeps them grouped by root in root order
/// and sorted by URL.
fn level_order(rows: &[Row]) -> TreeSnapshot {
    let mut depths: Vec<u32> = Vec::with_capacity(rows.len());
    let mut children = vec![0u32; rows.len()];
    for r in rows {
        let depth = match r.parent {
            NO_NODE => 0,
            parent => depths[ix(parent)] + 1,
        };
        depths.push(depth);
        if r.parent != NO_NODE && !r.link {
            children[ix(r.parent)] += 1;
        }
    }
    let mut order: Vec<u32> = (0..id(rows.len())).collect();
    order.sort_by_key(|&i| (rows[ix(i)].link, depths[ix(i)]));
    // A root's new row is its slot.
    let mut moved = vec![NO_NODE; rows.len()];
    for (new, &old) in (0..).zip(&order) {
        moved[ix(old)] = new;
    }
    let mut snap = TreeSnapshot::default();
    for &i in &order {
        let r = &rows[ix(i)];
        if r.link {
            snap.links.push(LinkSnapshot {
                root: moved[ix(r.parent)],
                url: r.url.0,
                count: r.count,
            });
        } else {
            snap.nodes.push(NodeSnapshot {
                url: r.url.0,
                count: r.count,
                children: children[ix(i)],
            });
        }
    }
    snap
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
    /// `PBPPM_THREADS`/available parallelism). `finalize` lays the merged
    /// runs out in one canonical order, so the arena is the same at every
    /// thread count and in every session order.
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

    /// Replaces the runs by their arena: merged, folded into preorder
    /// rows, cut by `cfg`, laid out in level order and built by
    /// [`FrozenTree::from_snapshot`]. `None` when already frozen (a second
    /// `finalize` changes nothing).
    ///
    /// # Panics
    ///
    /// If the loader refuses the rows. Counting builds only shapes the
    /// loader accepts, so a refusal is a training bug.
    pub(crate) fn finalize(&mut self, cfg: &PruneConfig) -> Option<(&FrozenTree, PruneReport)> {
        let NodeStore::Training(runs) = self else {
            return None;
        };
        let rows = fold(runs);
        let kept = cut(&rows, cfg);
        let report = PruneReport {
            nodes_before: rows.len(),
            nodes_after: kept.len(),
        };
        drop(rows);
        match FrozenTree::from_snapshot(&level_order(&kept)) {
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
    let _ = store.finalize(&PruneConfig::disabled());
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
        // Roots by URL, then each level with every node's children one
        // run by URL, then the links by root and URL.
        let arena = arena_of(&[&[5, 2], &[1, 7], &[1, 3, 4], &[5]], &[(1, 9), (1, 8)]);
        let snap = arena.to_snapshot();
        let nodes: Vec<(u32, u32)> = snap.nodes.iter().map(|n| (n.url, n.children)).collect();
        assert_eq!(nodes, vec![(1, 2), (5, 1), (3, 1), (7, 0), (2, 0), (4, 0)]);
        let links: Vec<(u32, u32)> = snap.links.iter().map(|l| (l.root, l.url)).collect();
        assert_eq!(links, vec![(0, 8), (0, 9)]);
        let parents: Vec<u32> = (0..arena.rows()).map(|i| arena.parent(i)).collect();
        let root = NO_NODE;
        assert_eq!(parents, vec![root, root, 0, 0, 1, 2, 0, 0]);
        assert_eq!(arena.roots(), 0..2);
        assert_eq!(arena.children(0), 2..4);
        assert_eq!(arena.children(5), 6..6);
        assert_eq!(arena.links_of(u(1)), 6..8);
        assert!(arena.links_of(u(5)).is_empty());
        assert!((0..6).all(|i| !arena.is_link_dup(i)) && arena.is_link_dup(6));
        assert_eq!((arena.count(0), arena.count(1)), (2, 2));
        assert_eq!((arena.depth(5), arena.max_depth()), (3, 3));
    }

    #[test]
    fn frozen_links_follow_pb_training() {
        let m = trained_pb();
        let frozen = m.frozen().expect("finalize froze");
        // Three sessions link root 0 to the grade-3 URL 3 at depth 4, one
        // links root 3 to URL 0.
        let links = |url| -> Vec<(UrlId, u64)> {
            frozen
                .links_of(u(url))
                .map(|id| (frozen.url(id), frozen.count(id)))
                .collect()
        };
        assert_eq!(links(0), vec![(u(3), 3)]);
        assert_eq!(links(3), vec![(u(0), 1)]);
        assert!(links(1).is_empty());
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
        assert_eq!((snap.nodes.len(), snap.links.len()), (6, 1), "one link");
        let back = FrozenTree::from_snapshot(&snap).unwrap();
        assert_eq!(back, frozen);
        let root = back.root(u(1)).unwrap();
        assert_eq!(snap.links[0].root, root);
        assert_eq!(back.count(back.descend(&[u(1), u(2), u(3)]).unwrap()), 1);
        assert_eq!(back.count(root), 2);
        let links = back.links_of(u(1));
        assert_eq!(links.len(), 1);
        assert_eq!(back.url(links.start), u(9));
        assert_eq!(back.parent(links.start), root);
        // The image of the rebuilt arena is identical (canonical form).
        assert_eq!(back.to_snapshot(), snap);
    }

    #[test]
    fn links_out_of_root_order_are_refused() {
        // A file cannot state this (the root gap wraps past u32::MAX and
        // decodes as a slot past the roots), but an image can.
        let mut snap = arena_of(&[&[1], &[2]], &[(1, 7), (2, 8)]).to_snapshot();
        snap.links.swap(0, 1);
        assert_eq!(
            FrozenTree::from_snapshot(&snap),
            Err(SnapshotError::BadLink(3))
        );
    }

    #[test]
    fn depth_saturates_instead_of_overflowing() {
        let nodes = (0..300u32)
            .map(|i| NodeSnapshot {
                url: i,
                count: 1,
                children: u32::from(i < 299),
            })
            .collect();
        let arena = FrozenTree::from_snapshot(&TreeSnapshot {
            nodes,
            links: Vec::new(),
        })
        .unwrap();
        assert_eq!(arena.depth(254), u8::MAX);
        assert_eq!(arena.depth(299), u8::MAX);
        assert_eq!(arena.max_depth(), u8::MAX);
    }

    /// Root 0 (count 100) with link 9 (1), child 1 (50) with child 2 (1),
    /// and child 3 (2); then root 4 (1) with child 5 (1).
    fn counted_rows() -> Vec<Row> {
        let row = |url, count, parent, link| Row {
            url: u(url),
            count,
            parent,
            link,
        };
        vec![
            row(0, 100, NO_NODE, false),
            row(9, 1, 0, true),
            row(1, 50, 0, false),
            row(2, 1, 2, false),
            row(3, 2, 0, false),
            row(4, 1, NO_NODE, false),
            row(5, 1, 5, false),
        ]
    }

    /// The `(url, parent)` of each row `cut` keeps.
    fn kept(cfg: PruneConfig) -> Vec<(u32, u32)> {
        cut(&counted_rows(), &cfg)
            .iter()
            .map(|n| (n.url.0, n.parent))
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
    fn level_order_follows_the_preorder_rows() {
        let snap = level_order(&counted_rows());
        let nodes: Vec<(u32, u32)> = snap.nodes.iter().map(|n| (n.url, n.children)).collect();
        assert_eq!(nodes, vec![(0, 2), (4, 1), (1, 1), (3, 0), (5, 0), (2, 0)]);
        assert_eq!(
            snap.links,
            vec![LinkSnapshot {
                root: 0,
                url: 9,
                count: 1
            }]
        );
        assert!(FrozenTree::from_snapshot(&snap).is_ok());
    }

    #[test]
    fn check_csr_accepts_a_compiled_arena() {
        let m = trained_pb();
        assert_eq!(m.frozen().expect("finalize froze").check_csr(), Ok(()));
        assert_eq!(arena_of(&[], &[]).check_csr(), Ok(()));
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
        // Non-monotone child runs.
        assert!(check(&|t| t.first_child[1] = u32::MAX - 1).is_err());
        // A run that does not start after its row.
        assert!(check(&|t| t.first_child[0] = 0).is_err());
        let last = f.first_link_row() - 1;
        assert!(check(&|t| t.first_child[ix(last)] = last).is_err());
        // Link runs that miss the row count, or fall back.
        assert!(check(&|t| t.link_offsets.push(0)).is_err());
        assert!(check(&|t| t.link_offsets[1] = 0).is_err());
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
