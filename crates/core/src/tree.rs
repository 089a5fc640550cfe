//! The arena-allocated Markov prediction trie shared by all PPM models.
//!
//! A prediction *tree* in the paper is really a **forest**: a set of branches,
//! each rooted at a URL, where a node at depth `d` represents "this URL was
//! seen after the `d-1` URLs on the path above it". Every node carries the
//! number of times it was traversed during training; a child's count divided
//! by its parent's count is the conditional probability used for prefetch
//! decisions.
//!
//! ## Representation
//!
//! Nodes live in one contiguous `Vec<Node>` and refer to each other through
//! 4-byte [`NodeId`]s — no per-node allocation, no pointer chasing beyond one
//! index, and trivially compactable after pruning. Children are kept in a
//! `Vec<(UrlId, NodeId)>` sorted by URL id: web-graph fan-out is almost
//! always small, and a branchless binary search over a sorted inline vector
//! beats a per-node hash map in both space and time.
//!
//! ## Training only
//!
//! The tree exists while a model trains: sessions grow it, parallel
//! partitions merge into it, and pruning tombstones and compacts it. At
//! `finalize` [`Tree::freeze`] consumes it into the read-only
//! [`FrozenTree`] arena, which is all a finalized or loaded model keeps.
//! Besides `count`, each node carries `link_dup`, marking PB-PPM's
//! duplicated popular nodes.
//!
//! [`FrozenTree`]: crate::frozen::FrozenTree

use crate::fxhash::FxHashMap;
use crate::interner::UrlId;

/// Index of a node in a [`Tree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Sentinel for "no node" (used as the parent of roots).
    pub const NONE: NodeId = NodeId(u32::MAX);

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// True if this id is the [`NodeId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

/// One URL node of the prediction trie.
#[derive(Debug, Clone)]
pub struct Node {
    /// The URL this node stands for.
    pub url: UrlId,
    /// Number of training traversals through this node.
    pub count: u64,
    /// Parent node, or [`NodeId::NONE`] for branch roots.
    pub parent: NodeId,
    /// Depth within the branch; roots have depth 1.
    pub depth: u8,
    /// Children sorted by URL id.
    pub children: Vec<(UrlId, NodeId)>,
    /// Dead nodes are skipped everywhere and reclaimed by [`Tree::compact`].
    pub alive: bool,
    /// True for PB-PPM duplicated popular nodes attached by special links.
    pub link_dup: bool,
}

/// The prediction forest: arena of nodes plus the root index.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) roots: FxHashMap<UrlId, NodeId>,
    /// Special links: branch root → duplicated popular nodes (PB-PPM rule 3).
    pub(crate) links: FxHashMap<NodeId, Vec<NodeId>>,
    dead: usize,
}

impl Tree {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn alloc(&mut self, url: UrlId, parent: NodeId, depth: u8, link_dup: bool) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("tree arena overflow"));
        self.nodes.push(Node {
            url,
            count: 0,
            parent,
            depth,
            children: Vec::new(),
            alive: true,
            link_dup,
        });
        id
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// The root for `url`, if one exists and is alive.
    pub fn root(&self, url: UrlId) -> Option<NodeId> {
        self.roots
            .get(&url)
            .copied()
            .filter(|&id| self.node(id).alive)
    }

    /// The root for `url`, creating it (with count 0) if absent.
    pub fn root_or_insert(&mut self, url: UrlId) -> NodeId {
        if let Some(&id) = self.roots.get(&url) {
            if self.nodes[id.index()].alive {
                return id;
            }
            // A pruned root can be resurrected by later training.
            self.nodes[id.index()].alive = true;
            self.dead -= 1;
            return id;
        }
        let id = self.alloc(url, NodeId::NONE, 1, false);
        self.roots.insert(url, id);
        id
    }

    /// The alive child of `parent` for `url`, if any.
    #[inline]
    pub fn child(&self, parent: NodeId, url: UrlId) -> Option<NodeId> {
        let kids = &self.node(parent).children;
        kids.binary_search_by_key(&url, |&(u, _)| u)
            .ok()
            .map(|i| kids[i].1)
            .filter(|&id| self.node(id).alive)
    }

    /// The child of `parent` for `url`, creating it if absent.
    ///
    /// The child's depth is `parent.depth + 1`, saturating at `u8::MAX`.
    pub fn child_or_insert(&mut self, parent: NodeId, url: UrlId) -> NodeId {
        let pos = {
            let kids = &self.nodes[parent.index()].children;
            match kids.binary_search_by_key(&url, |&(u, _)| u) {
                Ok(i) => {
                    let id = kids[i].1;
                    if !self.nodes[id.index()].alive {
                        self.nodes[id.index()].alive = true;
                        self.dead -= 1;
                    }
                    return id;
                }
                Err(i) => i,
            }
        };
        let depth = self.nodes[parent.index()].depth.saturating_add(1);
        let id = self.alloc(url, parent, depth, false);
        self.nodes[parent.index()].children.insert(pos, (url, id));
        id
    }

    /// Increments the training count of a node.
    #[inline]
    pub fn bump(&mut self, id: NodeId) {
        self.nodes[id.index()].count += 1;
    }

    /// Adds (or bumps) a PB-PPM special link from branch root `root` to a
    /// duplicated node for `url`, returning the duplicate's id.
    pub fn link_or_insert(&mut self, root: NodeId, url: UrlId) -> NodeId {
        debug_assert!(self.node(root).parent.is_none(), "links hang off roots");
        if let Some(targets) = self.links.get(&root) {
            for &t in targets {
                if self.nodes[t.index()].url == url {
                    if !self.nodes[t.index()].alive {
                        self.nodes[t.index()].alive = true;
                        self.dead -= 1;
                    }
                    return t;
                }
            }
        }
        let id = self.alloc(url, root, 2, true);
        self.links.entry(root).or_default().push(id);
        id
    }

    /// The alive special-link duplicates hanging off `root`.
    pub fn links_of(&self, root: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links
            .get(&root)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&id| self.node(id).alive)
    }

    /// Follows `path` from its first element (which must be a root),
    /// returning the deepest node if the whole path matches alive nodes.
    pub fn descend(&self, path: &[UrlId]) -> Option<NodeId> {
        let (&first, rest) = path.split_first()?;
        let mut cur = self.root(first)?;
        for &url in rest {
            cur = self.child(cur, url)?;
        }
        Some(cur)
    }

    /// Kills `id` and its whole subtree (tombstoned until [`Tree::compact`]).
    pub fn kill_subtree(&mut self, id: NodeId) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if self.nodes[n.index()].alive {
                self.nodes[n.index()].alive = false;
                self.dead += 1;
            }
            stack.extend(self.nodes[n.index()].children.iter().map(|&(_, c)| c));
            if let Some(targets) = self.links.get(&n) {
                stack.extend(targets.iter().copied());
            }
        }
    }

    /// Number of alive nodes — the paper's "space in number of nodes"
    /// (branch nodes plus PB's duplicated link nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.dead
    }

    /// Total arena slots, including tombstoned nodes.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the ids of all alive nodes.
    #[allow(clippy::cast_possible_truncation)] // the arena refuses to grow past u32 ids
    pub fn iter_alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Alive children of `id` (url, child id, child count).
    pub fn children_of(&self, id: NodeId) -> impl Iterator<Item = (UrlId, NodeId, u64)> + '_ {
        self.node(id)
            .children
            .iter()
            .filter(|&&(_, c)| self.node(c).alive)
            .map(|&(u, c)| (u, c, self.node(c).count))
    }

    /// Rebuilds the arena without tombstoned nodes, remapping all ids.
    ///
    /// Call after pruning to release memory; all previously returned
    /// [`NodeId`]s are invalidated.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let mut remap: Vec<NodeId> = vec![NodeId::NONE; self.nodes.len()];
        let mut new_nodes: Vec<Node> = Vec::with_capacity(self.node_count());
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive {
                // Compaction only shrinks, so the new index fits u32 too.
                #[allow(clippy::cast_possible_truncation)]
                let new_id = NodeId(new_nodes.len() as u32);
                remap[i] = new_id;
                new_nodes.push(n.clone());
            }
        }
        for n in &mut new_nodes {
            if !n.parent.is_none() {
                n.parent = remap[n.parent.index()];
            }
            n.children.retain(|&(_, c)| !remap[c.index()].is_none());
            for entry in &mut n.children {
                entry.1 = remap[entry.1.index()];
            }
        }
        let mut new_roots = FxHashMap::default();
        for (&url, &id) in &self.roots {
            let nid = remap[id.index()];
            if !nid.is_none() {
                new_roots.insert(url, nid);
            }
        }
        let mut new_links: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for (&root, targets) in &self.links {
            let nroot = remap[root.index()];
            if nroot.is_none() {
                continue;
            }
            let mapped: Vec<NodeId> = targets
                .iter()
                .map(|&t| remap[t.index()])
                .filter(|t| !t.is_none())
                .collect();
            if !mapped.is_empty() {
                new_links.insert(nroot, mapped);
            }
        }
        self.nodes = new_nodes;
        self.roots = new_roots;
        self.links = new_links;
        self.dead = 0;
    }

    /// Compiles the forest into its read-only [`FrozenTree`] form, which
    /// replaces it: the tree is consumed.
    ///
    /// Compacts first, so frozen row `i` is compacted arena slot `i`, then
    /// hands those rows to [`FrozenTree::from_snapshot`]: training and
    /// loading build the arena with one function. `pop` supplies PB-PPM's
    /// popularity grades; baselines pass `None`.
    ///
    /// # Panics
    ///
    /// If the loader refuses the rows. Training builds only shapes the
    /// loader accepts, so a refusal is a training bug.
    ///
    /// [`FrozenTree`]: crate::frozen::FrozenTree
    /// [`FrozenTree::from_snapshot`]: crate::frozen::FrozenTree::from_snapshot
    pub fn freeze(
        mut self,
        pop: Option<&crate::popularity::PopularityTable>,
    ) -> crate::frozen::FrozenTree {
        self.compact();
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| NodeSnapshot {
                url: n.url.0,
                count: n.count,
                parent: n.parent.0,
                link_dup: n.link_dup,
            })
            .collect();
        match crate::frozen::FrozenTree::from_snapshot(&TreeSnapshot { nodes }, pop) {
            Ok(arena) => arena,
            Err(e) => panic!("{e}"),
        }
    }

    /// Longest-suffix context match (the paper's "longest matching method")
    /// that can produce a prediction: tries suffixes of `context` from the
    /// longest (at most `max_order` URLs) down to the single current URL and
    /// returns the deepest node of the first one that matches a stored
    /// branch in full *and* has at least one alive child. A matched leaf
    /// (nothing below it to predict) falls back to a shorter context.
    pub fn longest_predictive_match(&self, context: &[UrlId], max_order: usize) -> Option<NodeId> {
        let len = context.len();
        let longest = len.min(max_order).min(usize::from(u8::MAX));
        for k in (1..=longest).rev() {
            if let Some(node) = self.descend(&context[len - k..]) {
                if self.children_of(node).next().is_some() {
                    return Some(node);
                }
            }
        }
        None
    }

    /// Merges a partial forest built by a training worker into `self` by
    /// structural count-sum: every alive donor node is located (or created)
    /// at the same structural position here and its count added.
    ///
    /// **Determinism contract.** Training decisions in every model depend
    /// only on the session being inserted (plus, for PB-PPM, the frozen
    /// popularity table) — never on what the tree already contains — so a
    /// donor trained on a *contiguous* partition of the session list
    /// allocates its arena in exactly the order sequential training would
    /// first encounter those nodes. Donor ids are replayed ascending, and
    /// nodes already present in `self` are reused rather than re-allocated;
    /// merging donors **in partition order** therefore reproduces the
    /// sequential arena allocation order exactly, and with it a
    /// byte-identical frozen arena and model file. This is what lets `train_sessions` be
    /// property-tested bit-identical to a sequential `train_session` loop at
    /// every thread count.
    ///
    /// Requires the donor's arena to allocate parents before children (true
    /// for any tree built through the insertion API; checked in debug
    /// builds). Dead donor nodes are skipped.
    pub fn merge_from(&mut self, donor: &Tree) {
        let mut remap: Vec<NodeId> = vec![NodeId::NONE; donor.nodes.len()];
        for (i, n) in donor.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            let here = if n.parent.is_none() {
                self.root_or_insert(n.url)
            } else {
                debug_assert!(
                    n.parent.index() < i,
                    "donor arena must allocate parents before children"
                );
                let parent = remap[n.parent.index()];
                if parent.is_none() {
                    continue; // parent was dead: the whole subtree is dropped
                }
                if n.link_dup {
                    self.link_or_insert(parent, n.url)
                } else {
                    self.child_or_insert(parent, n.url)
                }
            };
            remap[i] = here;
            self.nodes[here.index()].count += n.count;
        }
    }

    /// Inserts the URL sequence `path` starting a branch at `path[0]`,
    /// bumping every node's count, limited to `max_height` nodes.
    ///
    /// This is the shared "add one branch" primitive used by the standard
    /// and LRS models; PB-PPM has its own insertion logic.
    pub fn insert_path(&mut self, path: &[UrlId], max_height: usize) {
        let mut iter = path.iter().take(max_height);
        let Some(&first) = iter.next() else { return };
        let mut cur = self.root_or_insert(first);
        self.bump(cur);
        for &url in iter {
            cur = self.child_or_insert(cur, url);
            self.bump(cur);
        }
    }
}

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
///
/// [`FrozenTree::to_snapshot`]: crate::frozen::FrozenTree::to_snapshot
/// [`FrozenTree::from_snapshot`]: crate::frozen::FrozenTree::from_snapshot
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

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    #[test]
    fn empty_tree() {
        let t = Tree::new();
        assert_eq!(t.node_count(), 0);
        assert!(t.root(u(0)).is_none());
        assert!(t.freeze(None).is_empty());
    }

    #[test]
    fn insert_path_builds_a_chain() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        assert_eq!(t.node_count(), 3);
        assert!(t.root(u(1)).is_some());
        assert!(t.root(u(2)).is_none());
        let n = t.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(t.node(n).count, 1);
        assert_eq!(t.node(n).depth, 3);
    }

    #[test]
    fn insert_path_respects_max_height() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3), u(4)], 2);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.node(t.descend(&[u(1), u(2)]).unwrap()).depth, 2);
        assert!(t.descend(&[u(1), u(2), u(3)]).is_none());
    }

    #[test]
    fn counts_accumulate_on_reinsert() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        t.insert_path(&[u(1), u(3)], usize::MAX);
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let root = t.root(u(1)).unwrap();
        assert_eq!(t.node(root).count, 3);
        let b = t.descend(&[u(1), u(2)]).unwrap();
        assert_eq!(t.node(b).count, 2);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn children_stay_sorted() {
        let mut t = Tree::new();
        let r = t.root_or_insert(u(0));
        for id in [5u32, 1, 9, 3, 7] {
            t.child_or_insert(r, u(id));
        }
        let urls: Vec<u32> = t.node(r).children.iter().map(|&(url, _)| url.0).collect();
        assert_eq!(urls, vec![1, 3, 5, 7, 9]);
        // binary-search lookup works for each
        for id in [1u32, 3, 5, 7, 9] {
            assert!(t.child(r, u(id)).is_some());
        }
        assert!(t.child(r, u(2)).is_none());
    }

    #[test]
    fn descend_requires_full_match() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        assert!(t.descend(&[u(1), u(2)]).is_some());
        assert!(t.descend(&[u(2), u(3)]).is_none()); // 2 is not a root
        assert!(t.descend(&[]).is_none());
    }

    #[test]
    fn kill_subtree_tombstones_descendants() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(1), u(4)], usize::MAX);
        let b = t.descend(&[u(1), u(2)]).unwrap();
        t.kill_subtree(b);
        assert_eq!(t.node_count(), 2); // root + child 4
        assert!(t.child(t.root(u(1)).unwrap(), u(2)).is_none());
        assert!(t.descend(&[u(1), u(2), u(3)]).is_none());
        assert!(t.descend(&[u(1), u(4)]).is_some());
    }

    #[test]
    fn compact_preserves_structure_and_counts() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(1), u(4), u(5)], usize::MAX);
        t.insert_path(&[u(6), u(7)], usize::MAX);
        let b = t.descend(&[u(1), u(2)]).unwrap();
        t.kill_subtree(b);
        t.compact();
        assert_eq!(t.arena_len(), t.node_count());
        assert_eq!(t.node_count(), 5);
        // Both surviving branches remain walkable with their counts.
        let n = t.descend(&[u(1), u(4), u(5)]).unwrap();
        assert_eq!(t.node(n).count, 1);
        assert!(t.descend(&[u(6), u(7)]).is_some());
        assert!(t.descend(&[u(1), u(2)]).is_none());
        // Parents were remapped consistently.
        for id in t.iter_alive() {
            let n = t.node(id);
            if !n.parent.is_none() {
                assert!(t.node(n.parent).alive);
                assert!(t
                    .node(n.parent)
                    .children
                    .iter()
                    .any(|&(url, c)| url == n.url && c == id));
            }
        }
    }

    #[test]
    fn compact_on_clean_tree_is_a_noop() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let before = t.arena_len();
        t.compact();
        assert_eq!(t.arena_len(), before);
    }

    #[test]
    fn links_attach_and_enumerate() {
        let mut t = Tree::new();
        let r = t.root_or_insert(u(1));
        let l1 = t.link_or_insert(r, u(9));
        let l1b = t.link_or_insert(r, u(9));
        assert_eq!(l1, l1b, "same (root, url) link is deduplicated");
        t.bump(l1);
        t.bump(l1);
        let links: Vec<NodeId> = t.links_of(r).collect();
        assert_eq!(links, vec![l1]);
        assert_eq!(t.node(l1).count, 2);
        assert!(t.node(l1).link_dup);
        assert_eq!(t.node_count(), 2); // link dups count toward storage
    }

    #[test]
    fn killing_a_link_root_kills_the_dup() {
        let mut t = Tree::new();
        let r = t.root_or_insert(u(1));
        t.link_or_insert(r, u(9));
        t.kill_subtree(r);
        assert_eq!(t.node_count(), 0);
        t.compact();
        assert_eq!(t.arena_len(), 0);
    }

    #[test]
    fn compact_remaps_links() {
        let mut t = Tree::new();
        t.insert_path(&[u(0), u(5)], usize::MAX); // will die
        let r = t.root_or_insert(u(1));
        t.bump(r);
        let l = t.link_or_insert(r, u(9));
        t.bump(l);
        t.kill_subtree(t.root(u(0)).unwrap());
        t.compact();
        let r = t.root(u(1)).unwrap();
        let links: Vec<NodeId> = t.links_of(r).collect();
        assert_eq!(links.len(), 1);
        assert_eq!(t.node(links[0]).url, u(9));
        assert_eq!(t.node(links[0]).count, 1);
    }

    #[test]
    fn resurrecting_a_killed_child_revives_it() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let c = t.descend(&[u(1), u(2)]).unwrap();
        t.kill_subtree(c);
        assert_eq!(t.node_count(), 1);
        t.insert_path(&[u(1), u(2)], usize::MAX);
        assert_eq!(t.node_count(), 2);
        let c = t.descend(&[u(1), u(2)]).unwrap();
        assert_eq!(t.node(c).count, 2); // counts survive the tombstone
    }

    #[test]
    fn freeze_compacts_and_mirrors_counts() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(4), u(5)], usize::MAX);
        t.kill_subtree(t.root(u(4)).unwrap());
        let alive = t.node_count();
        let frozen = t.freeze(None);
        assert_eq!(frozen.len(), alive, "freeze must compact");
        let n = frozen.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(frozen.count(n), 1);
        assert!(frozen.root(u(4)).is_none());
    }

    #[test]
    fn merge_from_sums_counts_structurally() {
        let mut a = Tree::new();
        a.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        a.insert_path(&[u(1), u(4)], usize::MAX);
        let mut b = Tree::new();
        b.insert_path(&[u(1), u(2)], usize::MAX);
        b.insert_path(&[u(6), u(7)], usize::MAX);
        let rb = b.root(u(6)).unwrap();
        let lb = b.link_or_insert(rb, u(9));
        b.bump(lb);

        a.merge_from(&b);
        assert_eq!(a.node(a.root(u(1)).unwrap()).count, 3);
        assert_eq!(a.node(a.descend(&[u(1), u(2)]).unwrap()).count, 2);
        assert_eq!(a.node(a.descend(&[u(1), u(2), u(3)]).unwrap()).count, 1);
        assert_eq!(a.node(a.descend(&[u(6), u(7)]).unwrap()).count, 1);
        let ra = a.root(u(6)).unwrap();
        let links: Vec<(UrlId, u64)> = a
            .links_of(ra)
            .map(|id| (a.node(id).url, a.node(id).count))
            .collect();
        assert_eq!(links, vec![(u(9), 1)]);
    }

    #[test]
    fn merge_in_partition_order_matches_sequential_insertion() {
        // The determinism contract merge_from documents: splitting the
        // session list into contiguous partitions, training each into its
        // own tree, and merging in partition order freezes into the same
        // arena as inserting every session sequentially.
        let sessions: Vec<Vec<UrlId>> = vec![
            vec![u(1), u(2), u(3)],
            vec![u(1), u(5)],
            vec![u(4), u(2), u(1)],
            vec![u(1), u(2), u(6)],
            vec![u(7)],
        ];
        let mut seq = Tree::new();
        for s in &sessions {
            seq.insert_path(s, usize::MAX);
        }
        for split in 1..sessions.len() {
            let mut left = Tree::new();
            for s in &sessions[..split] {
                left.insert_path(s, usize::MAX);
            }
            let mut right = Tree::new();
            for s in &sessions[split..] {
                right.insert_path(s, usize::MAX);
            }
            left.merge_from(&right);
            assert!(
                left.freeze(None) == seq.clone().freeze(None),
                "split at {split} diverged"
            );
        }
    }

    #[test]
    fn merge_from_skips_dead_donor_subtrees() {
        let mut a = Tree::new();
        a.insert_path(&[u(1)], usize::MAX);
        let mut b = Tree::new();
        b.insert_path(&[u(2), u(3)], usize::MAX);
        b.kill_subtree(b.root(u(2)).unwrap());
        a.merge_from(&b);
        assert_eq!(a.node_count(), 1);
        assert!(a.root(u(2)).is_none());
    }

    #[test]
    fn depth_saturates_instead_of_overflowing() {
        let mut t = Tree::new();
        let mut cur = t.root_or_insert(u(0));
        for i in 1..300u32 {
            cur = t.child_or_insert(cur, u(i));
        }
        assert_eq!(t.node(cur).depth, u8::MAX);
    }
}
