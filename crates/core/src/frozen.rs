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
//! * parallel columns for `url`, `count` and `parent`, each stored at the
//!   width its values need ([`UintColumn`]): a URL that fits a byte takes
//!   a byte. The counts are a [`CountColumn`], at the width most of them
//!   need, with the few popular rows' larger counts in its outlier table.
//!   A parent is stored one up, so a root's "no parent" is 0. The parents
//!   step forward a little from row to row, so they are a [`FrameColumn`]:
//!   each block's least parent plus each row's excess over it, mostly one
//!   byte;
//! * `first_child`: node `i`'s children are the rows
//!   `first_child[i]..first_child[i + 1]`, so the child-vote loop is a
//!   linear pass over adjacent rows and their URLs are already sorted.
//!   It and the link runs below are [`FrameColumn`]s too;
//! * a root is its own slot: two bitmaps over the URL ids (dense interner
//!   ids) answer "does the model hold this URL at all?"
//!   ([`FrozenTree::holds`], one bit of `held`) and "is the current click
//!   a root?" (one bit of `roots`). The roots are rows `0..R` sorted by
//!   URL, so a root's row is its URL's rank among the root URLs, one
//!   popcount past a rank directory. `link_offsets[slot]..link_offsets[slot + 1]`
//!   are the root's link rows, so a row is a link exactly when it is at
//!   or past the first link row;
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

use crate::bitmap::{bit, set_bit, RankBitmap};
use crate::column::{ColumnBytes, CountColumn, FrameColumn, UintColumn};
use crate::interner::{Interner, UrlId};
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
    /// A count, or a sum of counts, outgrows the 32 bits the fingerprint
    /// index's vote quotients allow.
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

#[inline]
fn ix(i: u32) -> usize {
    i as usize
}

/// A value read from a column whose bound is a row count or a URL id,
/// both `u32` by construction.
#[inline]
fn narrow_row(v: u64) -> u32 {
    // The column's bound fits u32, so the value does.
    #[allow(clippy::cast_possible_truncation)]
    let row = v as u32;
    row
}

/// The frozen level-order arena of a finalized tree model.
///
/// All columns are indexed by the node's row, its [`NodeId`], and each
/// is stored at the width its values need: the largest URL id, the tree
/// rows, the roots or the rows bound them, and the build already knows
/// each bound; the counts, and the offset columns' excesses over their
/// block bases, take the width that stores them in the fewest bytes,
/// outliers included. Immutable by construction: every accessor
/// takes `&self`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenTree {
    /// `urls[i]`: URL id of row `i`.
    pub(crate) urls: UintColumn,
    /// `counts[i]`: transition count of row `i`.
    pub(crate) counts: CountColumn,
    /// `parents[i]`: one more than the parent row of row `i`, 0 for roots
    /// (read back as [`NO_NODE`]); a link row's parent is its root.
    pub(crate) parents: FrameColumn,
    /// Row `i`'s children are the rows `first_child[i]..first_child[i + 1]`;
    /// length `n + 1`. Link rows have empty runs at the first link row.
    pub(crate) first_child: FrameColumn,
    /// Bit `url.0` is set when the URL labels some row. The bitmap spans
    /// the ids up to the largest a row names, and URL ids are dense, so it
    /// stays small.
    pub(crate) held: Box<[u64]>,
    /// The URLs that head a root, over the same ids: a root URL's rank
    /// among them is its root's row, which is also its slot.
    pub(crate) roots: RankBitmap,
    /// Root `s`'s link rows are `link_offsets[s]..link_offsets[s + 1]`;
    /// length `R + 1`, from the first link row to `n`.
    pub(crate) link_offsets: FrameColumn,
}

/// A row count as `u32` row ids, which leave [`NO_NODE`] free.
fn row_count(n: usize) -> Result<u32, SnapshotError> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < NO_NODE)
        .ok_or(SnapshotError::Malformed("rows past u32 ids"))
}

/// Row ids, each at most `bound`, stored as a frame column.
fn frame(bound: u32, rows: &[u32]) -> FrameColumn {
    FrameColumn::collect(u64::from(bound), rows.iter().map(|&row| u64::from(row)))
}

/// The first row of the run `run`, which starts at row `start`, whose URL
/// does not sort strictly after the one before it.
fn unsorted_in(start: u32, run: &[NodeSnapshot]) -> Option<u32> {
    let at = run.windows(2).position(|w| w[0].url >= w[1].url)?;
    Some(start + narrow_row(at as u64) + 1)
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
    ///
    /// Each column's width comes from a bound these passes already know:
    /// the tree rows bound the parents and child runs, the rows the link
    /// runs, and the pass that sums the child counts (and the link pass)
    /// find the largest URL, which also sizes the URL bitmaps. The counts
    /// are read twice more, to pick their width and to store them. The
    /// offset columns are filled as plain row ids, then stored once as
    /// frame columns (block bases at the bound's width, excesses as
    /// counts).
    pub fn from_snapshot(snap: &TreeSnapshot) -> Result<Self, SnapshotError> {
        let (nodes, links) = (&snap.nodes, &snap.links);
        let rows = row_count(nodes.len() + links.len())?;
        let tree = row_count(nodes.len())?;
        let (mut children, mut max_url) = (0u64, 0u32);
        for s in nodes {
            children += u64::from(s.children);
            max_url = max_url.max(s.url);
        }
        // Too many children leave no root, and row 0's run then starts at
        // row 0.
        let roots = u32::try_from(u64::from(tree).saturating_sub(children)).unwrap_or(0);
        // Parents are stored one up: a parent is a tree row, so the tree
        // rows bound them, and a root's 0 costs no width.
        let mut parents = vec![0; ix(rows)];
        let mut first_child = vec![tree; ix(rows) + 1];
        // Rows sharing a parent are one run: the roots, a node's children,
        // a root's links. Runs come in row order, so the first unsorted
        // row found is the lowest; it is refused once the runs are known
        // to be well formed.
        let mut unsorted = unsorted_in(0, &nodes[..ix(roots)]);
        let mut next = roots;
        for (row, s) in (0..).zip(nodes) {
            if next <= row {
                return Err(SnapshotError::BadChildRun(row));
            }
            first_child[ix(row)] = next;
            // Runs so far fit the tree rows: the counts sum to tree − R.
            let end = next + s.children;
            parents[ix(next)..ix(end)].fill(row + 1);
            if unsorted.is_none() {
                unsorted = unsorted_in(next, &nodes[ix(next)..ix(end)]);
            }
            next = end;
        }

        let mut link_offsets = vec![rows; ix(roots) + 1];
        // Slots whose link run start is set.
        let mut started = 0;
        let mut last: Option<&LinkSnapshot> = None;
        for (row, link) in (tree..).zip(links) {
            if link.root >= roots || ix(link.root) + 1 < started {
                return Err(SnapshotError::BadLink(row));
            }
            if last.is_some_and(|l| l.root == link.root && l.url >= link.url) {
                unsorted = unsorted.or(Some(row));
            }
            last = Some(link);
            link_offsets[started..ix(link.root) + 1].fill(row);
            started = ix(link.root) + 1;
            parents[ix(row)] = link.root + 1;
            max_url = max_url.max(link.url);
        }
        if let Some(row) = unsorted {
            return Err(SnapshotError::UnsortedUrl(row));
        }

        let urls = UintColumn::collect(
            u64::from(max_url),
            nodes
                .iter()
                .map(|s| u64::from(s.url))
                .chain(links.iter().map(|l| u64::from(l.url))),
        );
        // Every row's URL is held; the roots, sorted by URL, rank as
        // their rows.
        let ids = if rows == 0 { 0 } else { max_url + 1 };
        let mut held = vec![0; ix(ids).div_ceil(64)];
        let mut root_urls = held.clone();
        for url in urls.iter() {
            set_bit(&mut held, ix(narrow_row(url)));
        }
        for url in urls.iter().take(ix(roots)) {
            set_bit(&mut root_urls, ix(narrow_row(url)));
        }
        Ok(Self {
            urls,
            counts: CountColumn::collect(
                nodes
                    .iter()
                    .map(|s| s.count)
                    .chain(links.iter().map(|l| l.count)),
            ),
            parents: frame(tree, &parents),
            first_child: frame(tree, &first_child),
            held: held.into_boxed_slice(),
            roots: RankBitmap::new(ids, root_urls),
            link_offsets: frame(rows, &link_offsets),
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
        if links.last() != Some(n as u64) || !links.is_sorted() {
            return Err("frozen link offsets do not rise to the row count");
        }
        let runs = &self.first_child;
        if runs.get(0) != (links.len() - 1) as u64 || runs.get(n) != links.get(0) {
            return Err("frozen child runs do not span the roots to the first link row");
        }
        if !runs.is_sorted() {
            return Err("frozen child runs not monotone");
        }
        if runs
            .iter()
            .zip(0..links.get(0))
            .any(|(start, row)| start <= row)
        {
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
        self.link_offsets.try_get(0).map_or(0, narrow_row)
    }

    /// URL of node `i`.
    #[inline]
    #[must_use]
    pub fn url(&self, i: u32) -> UrlId {
        UrlId(narrow_row(self.urls.get(ix(i))))
    }

    /// Transition count of node `i`.
    #[inline]
    #[must_use]
    pub fn count(&self, i: u32) -> u64 {
        self.counts.get(ix(i))
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
        // A root's stored 0 wraps to `NO_NODE`.
        narrow_row(self.parents.get(ix(i))).wrapping_sub(1)
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
        let (start, end) = self.first_child.pair(ix(i));
        narrow_row(start)..narrow_row(end)
    }

    /// True when node `i` has at least one child (one offset comparison —
    /// no pointer chase).
    #[inline]
    #[must_use]
    pub fn has_children(&self, i: u32) -> bool {
        let (start, end) = self.first_child.pair(ix(i));
        start < end
    }

    /// The child of node `i` carrying `url`, if any. Sibling URLs are
    /// adjacent and sorted: short runs are a linear scan within a cache
    /// line or two, long runs binary-search.
    #[inline]
    #[must_use]
    pub fn child(&self, i: u32, url: UrlId) -> Option<u32> {
        let run = self.children(i);
        let pos = self
            .urls
            .position_sorted(ix(run.start)..ix(run.end), u64::from(url.0))?;
        Some(run.start + u32::try_from(pos).ok()?)
    }

    /// The branch root for `url`, if one exists.
    #[inline]
    #[must_use]
    pub fn root(&self, url: UrlId) -> Option<u32> {
        // Fewer roots than `u32` rows.
        self.roots
            .rank(url.index())
            .map(|row| narrow_row(row as u64))
    }

    /// True when `url` labels some row of the arena: a tree row or a
    /// special link. A URL no row labels can match no context window.
    #[inline]
    #[must_use]
    pub fn holds(&self, url: UrlId) -> bool {
        bit(&self.held, url.index())
    }

    /// The id a predict context keeps for the clicked URL `url`, named in
    /// `urls`: its id when it labels a row ([`FrozenTree::holds`]), else
    /// `None`, and the click is skipped. A URL no row labels answers alike
    /// whether `urls` has seen it or not, so an answer depends only on the
    /// model, and a model file need not keep such a URL's string.
    #[must_use]
    pub fn context_id(&self, urls: &Interner, url: &str) -> Option<UrlId> {
        urls.get(url).filter(|&id| self.holds(id))
    }

    /// Every row's URL, in row order: one walk over the column.
    pub(crate) fn urls_in_order(&self) -> impl Iterator<Item = UrlId> + '_ {
        self.urls.iter().map(|url| UrlId(narrow_row(url)))
    }

    /// Every row's transition count, in row order.
    pub(crate) fn counts_in_order(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter()
    }

    /// The transition counts of the adjacent `rows` (a child run, a
    /// root's links), read in one walk.
    #[inline]
    pub(crate) fn counts_in(&self, rows: Range<u32>) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter_in(ix(rows.start)..ix(rows.end))
    }

    /// Every row's parent ([`NO_NODE`] for roots), in row order.
    pub(crate) fn parents_in_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.parents
            .iter()
            .map(|parent| narrow_row(parent).wrapping_sub(1))
    }

    /// Every row's child run, in row order: each run ends where the next
    /// row's starts.
    pub(crate) fn child_runs(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        let mut starts = self.first_child.iter().map(narrow_row);
        let mut start = starts.next().unwrap_or(0);
        starts.map(move |end| std::mem::replace(&mut start, end)..end)
    }

    /// True when every count fits 32 bits: the largest does. The counts'
    /// width does not bound them, since the outlier table holds any value.
    pub(crate) fn counts_fit_u32(&self) -> bool {
        u32::try_from(self.counts.max()).is_ok()
    }

    /// Every root URL, ascending, with the row its rank names: the root
    /// bitmap as the audit reads it.
    pub(crate) fn root_table(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        // The bitmap spans `u32` URL ids.
        (0..)
            .zip(self.roots.ones())
            .map(|(row, url)| (narrow_row(url as u64), row))
    }

    /// The link rows of the root in row (slot) `root`, sorted by URL.
    pub(crate) fn root_links(&self, root: u32) -> Range<u32> {
        let (start, end) = self.link_offsets.pair(ix(root));
        narrow_row(start)..narrow_row(end)
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
        let children = self.children(node);
        for (child, count) in children.clone().zip(self.counts_in(children)) {
            out.push(Prediction::new(
                self.url(child),
                count as f64 / parent_count as f64,
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

    /// Exact heap bytes of the arena: every column's length times its
    /// width, the counts' outlier table and the URL bitmaps. The arena is
    /// built at exact size, so this is the live heap it holds — a
    /// finalized model's `ModelStats::memory_bytes`.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.split().iter().map(|c| c.bytes).sum()
    }

    /// Each column's bytes and width, in field order, the counts'
    /// outlier table (`counts_over`) after the counts, each offset
    /// column's block bases (`…_base`) before its excesses and their
    /// outlier table (`…_over`) after them, and the root bitmap's rank
    /// directory (`root_ranks`) after it; their bytes sum to
    /// [`FrozenTree::heap_bytes`].
    #[must_use]
    pub fn split(&self) -> [ColumnBytes; 15] {
        let [counts, counts_over] = self.counts.split("counts", "counts_over");
        let [parents_base, parents, parents_over] =
            self.parents
                .split("parents_base", "parents", "parents_over");
        let [first_child_base, first_child, first_child_over] =
            self.first_child
                .split("first_child_base", "first_child", "first_child_over");
        let [link_offsets_base, link_offsets, link_offsets_over] =
            self.link_offsets
                .split("link_offsets_base", "link_offsets", "link_offsets_over");
        let (roots, root_ranks) = self.roots.heap_bytes();
        [
            ColumnBytes::of("urls", &self.urls),
            counts,
            counts_over,
            parents_base,
            parents,
            parents_over,
            first_child_base,
            first_child,
            first_child_over,
            ColumnBytes {
                name: "held",
                bytes: size_of_val(&*self.held),
                width: size_of::<u64>(),
            },
            ColumnBytes {
                name: "roots",
                bytes: roots,
                width: size_of::<u64>(),
            },
            ColumnBytes {
                name: "root_ranks",
                bytes: root_ranks,
                width: size_of::<u32>(),
            },
            link_offsets_base,
            link_offsets,
            link_offsets_over,
        ]
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
            hit += usize::from(bit(used, i));
        }
        (total, hit)
    }
}

/// Sets row `i`'s bit in a path-usage bitset.
pub(crate) fn mark_row(used: &mut [u64], i: u32) {
    set_bit(used, ix(i));
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
    /// The arena serves. `usage` holds Fig. 2's path-usage flags,
    /// allocated by the first `apply_usage`: serving never applies usage,
    /// so serving models never carry it.
    Frozen {
        arena: FrozenTree,
        usage: UsageMarks,
    },
}

/// A finalized model's path-usage record (Fig. 2, right). It is all that
/// `apply_usage` allocates, so its [`UsageMarks::heap_bytes`] is the
/// whole cost of recording usage.
#[derive(Debug, Clone, Default)]
pub(crate) struct UsageMarks {
    /// One bit per arena row, set when the row was on a path or in a vote
    /// that predicted.
    pub(crate) rows: Vec<u64>,
    /// One bit per PB-PPM fingerprint group position, set when the group
    /// voted: its members' paths and children are marked in `rows` when
    /// path usage is read (`ContextIndex::mark_groups`). Empty until a
    /// stored group votes.
    pub(crate) groups: Vec<u64>,
}

impl UsageMarks {
    /// Flags group position `at` of an index of `groups` groups.
    pub(crate) fn flag_group(&mut self, at: usize, groups: usize) {
        if self.groups.is_empty() {
            self.groups = vec![0; groups.div_ceil(64)];
        }
        set_bit(&mut self.groups, at);
    }

    /// Exact heap bytes: both bitsets are allocated at their final length.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice()) + std::mem::size_of_val(self.groups.as_slice())
    }
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
            usage: UsageMarks::default(),
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

    /// The arena and its usage record, allocating the row bitset on first
    /// use; `None` while training.
    pub(crate) fn usage_marks(&mut self) -> Option<(&FrozenTree, &mut UsageMarks)> {
        match self {
            NodeStore::Training(_) => None,
            NodeStore::Frozen { arena, usage } => {
                if usage.rows.is_empty() {
                    usage.rows = vec![0; arena.len().div_ceil(64)];
                }
                Some((arena, usage))
            }
        }
    }

    /// The arena and its usage record as they stand; `None` while
    /// training.
    pub(crate) fn usage(&self) -> Option<(&FrozenTree, &UsageMarks)> {
        match self {
            NodeStore::Training(_) => None,
            NodeStore::Frozen { arena, usage } => Some((arena, usage)),
        }
    }

    /// Plays back the usage of a descent predict (the standard/LRS/order-1
    /// serving path): each matched path and each voting child row.
    pub(crate) fn apply_descent_usage(&mut self, usage: &PredictUsage) {
        let Some((arena, marks)) = self.usage_marks() else {
            return;
        };
        for &id in &usage.used_paths {
            arena.mark_path(&mut marks.rows, id.0);
        }
        for &id in &usage.used_child_rows {
            arena.mark_children(&mut marks.rows, id.0);
        }
    }

    /// Structural statistics of the finalized arena; the default while
    /// training, which has no arena.
    pub(crate) fn stats(&self) -> ModelStats {
        match self {
            NodeStore::Training(_) => ModelStats::default(),
            NodeStore::Frozen { arena, usage } => ModelStats::of_arena(arena, &usage.rows),
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
    fn one_count_past_u32_among_byte_counts_does_not_fit_the_index() {
        let arena = arena_of(&[&[1, 2, 3], &[1, 2, 4], &[5, 6]], &[]);
        assert!(arena.counts_fit_u32());
        let mut snap = arena.to_snapshot();
        // Row 0 is URL 1's root, a voter the index would answer from.
        assert_eq!((snap.nodes[0].url, snap.nodes[0].children), (1, 1));
        snap.nodes[0].count = u64::from(u32::MAX) + 1;
        let wide = FrozenTree::from_snapshot(&snap).expect("loads");
        // The counts stay a byte wide: the one outlier is listed apart,
        // so only the largest count tells that it does not fit.
        assert_eq!((wide.counts.width(), wide.counts.outliers()), (1, 1));
        assert_eq!(wide.count(0), u64::from(u32::MAX) + 1);
        assert!(!wide.counts_fit_u32());
        assert_eq!(
            crate::context_index::ContextIndex::windows(&wide, 8),
            Err(SnapshotError::IndexOverflow)
        );
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
        assert!(check(&|t| t.counts.edit(|v| {
            v.pop();
        }))
        .is_err());
        // Non-monotone child runs.
        assert!(check(&|t| t.first_child.edit(|v| v[1] = u64::from(u32::MAX - 1))).is_err());
        // A run that does not start after its row.
        assert!(check(&|t| t.first_child.edit(|v| v[0] = 0)).is_err());
        let last = f.first_link_row() - 1;
        assert!(check(&|t| t.first_child.edit(|v| v[ix(last)] = u64::from(last))).is_err());
        // Link runs that miss the row count, or fall back.
        assert!(check(&|t| t.link_offsets.edit(|v| v.push(0))).is_err());
        assert!(check(&|t| t.link_offsets.edit(|v| v[1] = 0)).is_err());
    }

    /// A level-order row image: `roots` roots, then level by level each
    /// row's children, as many as `fanout` says (cycled, and cut off at
    /// 3,000 tree rows), each run's URLs `stride` apart; then up to
    /// `links` link rows, each `(slot pick, count)` hanging that many
    /// links off one root. A fan-out of hundreds makes child runs jump
    /// past a byte within a block, and the link rows' parents drop back
    /// to root slots where the tree rows end.
    fn level_order_image(
        roots: u32,
        fanout: &[u32],
        stride: u32,
        links: &[(u32, u32)],
        counts: &[u64],
    ) -> TreeSnapshot {
        let count = |row: usize| counts[row % counts.len()];
        let mut nodes: Vec<NodeSnapshot> = (0..roots)
            .map(|r| NodeSnapshot {
                url: r * stride,
                count: count(ix(r)),
                children: 0,
            })
            .collect();
        let mut row = 0;
        while row < nodes.len() {
            let room = 3_000u32.saturating_sub(id(nodes.len()));
            let children = fanout[row % fanout.len()].min(room);
            nodes[row].children = children;
            for k in 0..children {
                let url = (k + id(row)) * stride % 5_000 + k * 5_000;
                nodes.push(NodeSnapshot {
                    url,
                    count: count(nodes.len()),
                    children: 0,
                });
            }
            row += 1;
        }
        let mut picks: Vec<(u32, u32)> = links
            .iter()
            .map(|&(pick, n)| (pick % roots.max(1), n))
            .filter(|_| roots > 0)
            .collect();
        picks.sort_unstable();
        picks.dedup_by_key(|p| p.0);
        let links = picks
            .iter()
            .flat_map(|&(root, n)| {
                (0..n).map(move |k| LinkSnapshot {
                    root,
                    url: 7 + k * 3,
                    count: u64::from(k) + 1,
                })
            })
            .collect();
        TreeSnapshot { nodes, links }
    }

    /// The arena's offset columns as plain columns, derived from the
    /// image the way the level order defines them: the oracle.
    struct PlainOffsets {
        parents: UintColumn,
        first_child: UintColumn,
        link_offsets: UintColumn,
    }

    fn plain_offsets(snap: &TreeSnapshot) -> PlainOffsets {
        let tree = snap.nodes.len() as u64;
        let rows = tree + snap.links.len() as u64;
        let children: u64 = snap.nodes.iter().map(|n| u64::from(n.children)).sum();
        let roots = tree - children;
        let (mut parents, mut first_child) = (Vec::new(), Vec::new());
        let mut next = roots;
        parents.extend((0..roots).map(|_| 0));
        for (row, n) in (0u64..).zip(&snap.nodes) {
            first_child.push(next);
            next += u64::from(n.children);
            parents.extend((0..n.children).map(|_| row + 1));
        }
        first_child.extend((0..=snap.links.len()).map(|_| tree));
        parents.extend(snap.links.iter().map(|l| u64::from(l.root) + 1));
        let link_offsets = (0..=roots)
            .map(|slot| {
                let before = snap
                    .links
                    .iter()
                    .filter(|l| u64::from(l.root) < slot)
                    .count();
                tree + before as u64
            })
            .collect::<Vec<_>>();
        assert_eq!(link_offsets.last(), Some(&rows));
        PlainOffsets {
            parents: UintColumn::from_values(&parents),
            first_child: UintColumn::from_values(&first_child),
            link_offsets: UintColumn::from_values(&link_offsets),
        }
    }

    proptest::proptest! {
        /// Over arbitrary level-order row images, the arena's frame
        /// columns answer every parent, child run, child lookup and root
        /// link run as the plain columns derived from the image do, the
        /// layout check passes, and the image comes back unchanged.
        #[test]
        fn frame_offsets_agree_with_plain_columns(
            roots in 0u32..150,
            fanout in proptest::collection::vec(
                proptest::prop_oneof![0u32..4, 0u32..4, 0u32..40, 200u32..400],
                1..40,
            ),
            stride in 1u32..9,
            links in proptest::collection::vec((0u32..150, 0u32..5), 0..120),
            counts in proptest::collection::vec(1u64..1_000, 1..8),
        ) {
            let snap = level_order_image(roots, &fanout, stride, &links, &counts);
            let arena = FrozenTree::from_snapshot(&snap).expect("a level-order image");
            let plain = plain_offsets(&snap);
            proptest::prop_assert_eq!(arena.check_csr(), Ok(()));
            proptest::prop_assert_eq!(arena.parents.to_vec(), plain.parents.to_vec());
            proptest::prop_assert_eq!(arena.first_child.to_vec(), plain.first_child.to_vec());
            proptest::prop_assert_eq!(arena.link_offsets.to_vec(), plain.link_offsets.to_vec());
            for i in 0..arena.rows() {
                let parent = narrow_row(plain.parents.get(ix(i))).wrapping_sub(1);
                proptest::prop_assert_eq!(arena.parent(i), parent);
                let (start, end) = plain.first_child.pair(ix(i));
                let run = narrow_row(start)..narrow_row(end);
                proptest::prop_assert_eq!(arena.children(i), run.clone());
                proptest::prop_assert_eq!(arena.has_children(i), !run.is_empty());
                for child in run.clone() {
                    proptest::prop_assert_eq!(arena.child(i, arena.url(child)), Some(child));
                }
                // A URL between two siblings' names no child.
                if let Some(first) = run.clone().next() {
                    let url = arena.url(first).0;
                    let missing = (url + 1..url + 5).find(|&u| {
                        run.clone().all(|c| arena.url(c).0 != u)
                    });
                    if let Some(u) = missing {
                        proptest::prop_assert_eq!(arena.child(i, UrlId(u)), None);
                    }
                }
            }
            for root in arena.roots() {
                let (start, end) = plain.link_offsets.pair(ix(root));
                proptest::prop_assert_eq!(
                    arena.root_links(root),
                    narrow_row(start)..narrow_row(end)
                );
            }
            proptest::prop_assert!(arena.parents_in_order().eq(
                plain.parents.iter().map(|p| narrow_row(p).wrapping_sub(1))
            ));
            proptest::prop_assert_eq!(&arena.to_snapshot(), &snap);
            proptest::prop_assert_eq!(&FrozenTree::from_snapshot(&arena.to_snapshot()).unwrap(), &arena);
        }
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
