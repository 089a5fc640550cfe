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
//! ## Bookkeeping for the paper's metrics
//!
//! * `count` — training traversals (drives probabilities and pruning).
//! * `used` — set when the node participates in a prediction (matched context
//!   or emitted prediction); drives the *path utilization* metric of Fig. 2.
//! * `link_dup` — marks PB-PPM's duplicated popular nodes, which count
//!   toward storage but are not root-to-leaf surfing paths.

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
    /// Set when the node participated in a prediction.
    pub used: bool,
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

    /// Creates an empty forest with arena capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            ..Self::default()
        }
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
            used: false,
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

    /// Marks a node as having participated in a prediction.
    #[inline]
    pub fn mark_used(&mut self, id: NodeId) {
        self.nodes[id.index()].used = true;
    }

    /// Flags every alive child of `id` as used — the expansion of a
    /// [`crate::PredictUsage::used_child_rows`] record.
    pub fn mark_children_used(&mut self, id: NodeId) {
        for i in 0..self.nodes[id.index()].children.len() {
            let (_, child) = self.nodes[id.index()].children[i];
            if self.nodes[child.index()].alive {
                self.nodes[child.index()].used = true;
            }
        }
    }

    /// Plays back the usage of a descent predict
    /// ([`crate::frozen::FrozenTree`]'s standard/LRS serving path): each
    /// matched path and each voting child row is flagged used.
    pub(crate) fn mark_descent_usage(&mut self, usage: &crate::predictor::PredictUsage) {
        for &id in &usage.used_paths {
            self.mark_path_used(id);
        }
        for &id in &usage.used_child_rows {
            self.mark_children_used(id);
        }
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

    /// Number of parent→child edges between alive nodes: every alive
    /// non-root node contributes exactly one (duplicated link nodes hang
    /// off their root the same way, so they count too).
    pub fn edge_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && !n.parent.is_none())
            .count()
    }

    /// Number of alive PB-PPM special-link (duplicated popular) nodes.
    pub fn link_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive && n.link_dup).count()
    }

    /// Number of alive branch roots.
    pub fn root_count(&self) -> usize {
        self.roots
            .values()
            .filter(|&&id| self.node(id).alive)
            .count()
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

    /// Iterates over alive root node ids.
    pub fn iter_roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roots
            .values()
            .copied()
            .filter(move |&id| self.node(id).alive)
    }

    /// Depth of the deepest alive node (0 for an empty forest).
    pub fn max_depth(&self) -> u8 {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.depth)
            .max()
            .unwrap_or(0)
    }

    /// Alive children of `id` (url, child id, child count).
    pub fn children_of(&self, id: NodeId) -> impl Iterator<Item = (UrlId, NodeId, u64)> + '_ {
        self.node(id)
            .children
            .iter()
            .filter(|&&(_, c)| self.node(c).alive)
            .map(|&(u, c)| (u, c, self.node(c).count))
    }

    /// True if `id` has no alive children (an "ending leaf" in the paper's
    /// path terminology). Link duplicates are excluded from path accounting.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        let n = self.node(id);
        n.alive && !n.link_dup && n.children.iter().all(|&(_, c)| !self.node(c).alive)
    }

    /// Counts `(total_paths, used_paths)` where a *path* is a root-to-leaf
    /// URL sequence and a path is *used* if its leaf participated in a
    /// prediction (Fig. 2, right).
    pub fn path_usage(&self) -> (usize, usize) {
        let mut total = 0;
        let mut used = 0;
        for id in self.iter_alive() {
            if self.is_leaf(id) {
                total += 1;
                if self.node(id).used {
                    used += 1;
                }
            }
        }
        (total, used)
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
        // A heavy prune can shrink the forest by orders of magnitude; do
        // not keep the arena or the freshly rebuilt maps at the training
        // high-water capacity.
        self.nodes.shrink_to_fit();
        for n in &mut self.nodes {
            n.children.shrink_to_fit();
        }
        self.roots.shrink_to_fit();
        self.links.shrink_to_fit();
        for targets in self.links.values_mut() {
            targets.shrink_to_fit();
        }
    }

    /// Compiles the forest into its read-only [`FrozenTree`] form.
    ///
    /// Compacts first (freezing only makes sense for a finalized model), so
    /// frozen index `i` equals [`NodeId`]`(i)` afterwards — usage records
    /// and fingerprint-index ids stay valid against the pointer arena.
    /// `pop` supplies PB-PPM's popularity grades; baselines pass `None`.
    ///
    /// [`FrozenTree`]: crate::frozen::FrozenTree
    pub fn freeze(
        &mut self,
        pop: Option<&crate::popularity::PopularityTable>,
    ) -> crate::frozen::FrozenTree {
        self.compact();
        crate::frozen::FrozenTree::from_tree(self, pop)
    }

    /// Serializes the forest into a self-contained [`TreeSnapshot`].
    ///
    /// Tombstoned nodes are dropped (the snapshot is taken from a compacted
    /// copy), so loading it back yields an arena with `node_count ==
    /// arena_len`.
    pub fn to_snapshot(&self) -> TreeSnapshot {
        let mut compacted = self.clone();
        compacted.compact();
        let nodes = compacted
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                url: n.url.0,
                count: n.count,
                parent: n.parent.0,
                depth: n.depth,
                children: n.children.iter().map(|&(u, c)| (u.0, c.0)).collect(),
                link_dup: n.link_dup,
            })
            .collect();
        let mut roots: Vec<(u32, u32)> = compacted
            .roots
            .iter()
            .map(|(&u, &id)| (u.0, id.0))
            .collect();
        roots.sort_unstable();
        let mut links: Vec<(u32, Vec<u32>)> = compacted
            .links
            .iter()
            .map(|(&root, targets)| (root.0, targets.iter().map(|t| t.0).collect()))
            .collect();
        links.sort_unstable();
        TreeSnapshot {
            nodes,
            roots,
            links,
        }
    }

    /// Reconstructs a forest from a snapshot, validating its internal
    /// references.
    pub fn from_snapshot(snap: &TreeSnapshot) -> Result<Tree, SnapshotError> {
        let n = snap.nodes.len();
        let check = |id: u32| -> Result<NodeId, SnapshotError> {
            if (id as usize) < n {
                Ok(NodeId(id))
            } else {
                Err(SnapshotError::BadNodeId(id))
            }
        };
        let mut nodes = Vec::with_capacity(n);
        for s in &snap.nodes {
            let parent = if s.parent == u32::MAX {
                NodeId::NONE
            } else {
                check(s.parent)?
            };
            let mut children = Vec::with_capacity(s.children.len());
            for &(u, c) in &s.children {
                children.push((UrlId(u), check(c)?));
            }
            if !children.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(SnapshotError::UnsortedChildren);
            }
            nodes.push(Node {
                url: UrlId(s.url),
                count: s.count,
                parent,
                depth: s.depth,
                children,
                alive: true,
                used: false,
                link_dup: s.link_dup,
            });
        }
        // Reject parent cycles before anything walks parent chains: a
        // malformed (but checksum-valid) snapshot with `a.parent == b` and
        // `b.parent == a` would otherwise send the index build's path hashing
        // and every ancestor walk into an infinite loop. Each node is visited
        // once across all chain walks, so this is O(n).
        {
            // 0 = unvisited, 1 = on the current chain, 2 = known acyclic.
            let mut state = vec![0u8; n];
            let mut chain: Vec<usize> = Vec::new();
            for start in 0..n {
                let mut cur = start;
                loop {
                    match state[cur] {
                        2 => break,
                        1 => {
                            return Err(SnapshotError::ParentCycle(
                                u32::try_from(cur).unwrap_or(u32::MAX),
                            ))
                        }
                        _ => {}
                    }
                    state[cur] = 1;
                    chain.push(cur);
                    let parent = nodes[cur].parent;
                    if parent.is_none() {
                        break;
                    }
                    cur = parent.index();
                }
                for &i in &chain {
                    state[i] = 2;
                }
                chain.clear();
            }
        }
        let mut roots = FxHashMap::default();
        for &(u, id) in &snap.roots {
            let id = check(id)?;
            if nodes[id.index()].url != UrlId(u) || !nodes[id.index()].parent.is_none() {
                return Err(SnapshotError::BadRoot(u));
            }
            roots.insert(UrlId(u), id);
        }
        let mut links: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for (root, targets) in &snap.links {
            let root = check(*root)?;
            let mapped: Result<Vec<NodeId>, _> = targets.iter().map(|&t| check(t)).collect();
            links.insert(root, mapped?);
        }
        Ok(Tree {
            nodes,
            roots,
            links,
            dead: 0,
        })
    }

    /// Bytes of the arena's contents (for storage reporting): the node
    /// vector, every child vector, and the root/link maps, each counted by
    /// length. Capacity depends on how the tree grew (thread count, merge
    /// order, the allocator's rounding), so counting it would make the
    /// reported size vary between hosts for the same model.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.len() * size_of::<(UrlId, NodeId)>())
                .sum::<usize>()
            + self.roots.len() * size_of::<(UrlId, NodeId)>()
            + self.links.len() * size_of::<(NodeId, Vec<NodeId>)>()
            + self
                .links
                .values()
                .map(|t| t.len() * size_of::<NodeId>())
                .sum::<usize>()
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

    /// Marks `id` and all its ancestors as used for a prediction.
    pub fn mark_path_used(&mut self, id: NodeId) {
        let mut cur = id;
        loop {
            let node = &mut self.nodes[cur.index()];
            node.used = true;
            if node.parent.is_none() {
                break;
            }
            cur = node.parent;
        }
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
    /// sequential arena allocation order exactly, and with it byte-identical
    /// [`Tree::to_snapshot`] output. This is what lets `train_sessions` be
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
            self.nodes[here.index()].used |= n.used;
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

/// A serializable, self-contained image of a [`Tree`] (alive nodes only).
///
/// Produced by [`Tree::to_snapshot`]; consumed by [`Tree::from_snapshot`].
/// The `used` flags are deliberately not persisted — path-utilization
/// bookkeeping belongs to one evaluation run, not to the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// All nodes of the (compacted) arena.
    pub nodes: Vec<NodeSnapshot>,
    /// `(url, node id)` root registrations, sorted by URL id.
    pub roots: Vec<(u32, u32)>,
    /// `(root id, target ids)` special-link lists, sorted by root id.
    pub links: Vec<(u32, Vec<u32>)>,
}

impl TreeSnapshot {
    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One node of a [`TreeSnapshot`], with raw `u32` references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Interned URL id.
    pub url: u32,
    /// Training traversal count.
    pub count: u64,
    /// Parent node id, or `u32::MAX` for roots.
    pub parent: u32,
    /// Depth within the branch (roots are 1).
    pub depth: u8,
    /// `(url, child id)` entries sorted by URL id.
    pub children: Vec<(u32, u32)>,
    /// True for PB-PPM duplicated popular nodes.
    pub link_dup: bool,
}

/// Why a [`TreeSnapshot`] failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A node reference points outside the snapshot's arena.
    BadNodeId(u32),
    /// A root entry does not point at a parentless node with that URL.
    BadRoot(u32),
    /// A node's child list is not strictly sorted by URL id.
    UnsortedChildren,
    /// A node's parent chain loops back on itself instead of reaching a
    /// root; the payload would hang every ancestor walk.
    ParentCycle(u32),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadNodeId(id) => write!(f, "snapshot references unknown node {id}"),
            SnapshotError::BadRoot(url) => write!(f, "invalid root entry for url {url}"),
            SnapshotError::UnsortedChildren => write!(f, "child list not sorted"),
            SnapshotError::ParentCycle(id) => {
                write!(f, "parent chain of node {id} is cyclic")
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
        assert_eq!(t.root_count(), 0);
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.path_usage(), (0, 0));
    }

    #[test]
    fn insert_path_builds_a_chain() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.root_count(), 1);
        assert_eq!(t.max_depth(), 3);
        let n = t.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(t.node(n).count, 1);
        assert_eq!(t.node(n).depth, 3);
    }

    #[test]
    fn insert_path_respects_max_height() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3), u(4)], 2);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.max_depth(), 2);
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
    fn link_dups_do_not_count_as_paths() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let r = t.root(u(1)).unwrap();
        t.link_or_insert(r, u(9));
        let (total, _) = t.path_usage();
        assert_eq!(total, 1); // only the 1->2 leaf path
    }

    #[test]
    fn path_usage_tracks_used_leaves() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        t.insert_path(&[u(1), u(3)], usize::MAX);
        assert_eq!(t.path_usage(), (2, 0));
        let leaf = t.descend(&[u(1), u(2)]).unwrap();
        t.mark_used(leaf);
        assert_eq!(t.path_usage(), (2, 1));
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
    fn snapshot_roundtrip_preserves_structure() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(1), u(4)], usize::MAX);
        t.insert_path(&[u(6), u(7)], usize::MAX);
        let r = t.root(u(1)).unwrap();
        let l = t.link_or_insert(r, u(9));
        t.bump(l);
        // Kill something so the snapshot must compact.
        t.kill_subtree(t.descend(&[u(6), u(7)]).unwrap());

        let snap = t.to_snapshot();
        assert_eq!(snap.len(), t.node_count());
        let back = Tree::from_snapshot(&snap).unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.root_count(), t.root_count());
        let n = back.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(back.node(n).count, 1);
        assert!(back.descend(&[u(6), u(7)]).is_none());
        let root = back.root(u(1)).unwrap();
        let links: Vec<UrlId> = back.links_of(root).map(|id| back.node(id).url).collect();
        assert_eq!(links, vec![u(9)]);
        // Snapshot of the reloaded tree is identical (canonical form).
        assert_eq!(back.to_snapshot(), snap);
    }

    #[test]
    fn snapshot_rejects_corrupt_references() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let mut snap = t.to_snapshot();
        snap.roots.push((7, 99)); // node 99 does not exist
        assert_eq!(
            Tree::from_snapshot(&snap).unwrap_err(),
            SnapshotError::BadNodeId(99)
        );
        let mut snap2 = t.to_snapshot();
        snap2.roots.push((7, 1)); // node 1 exists but is not a root for url 7
        assert_eq!(
            Tree::from_snapshot(&snap2).unwrap_err(),
            SnapshotError::BadRoot(7)
        );
    }

    #[test]
    fn snapshot_rejects_parent_cycles() {
        // Two nodes each claiming the other as parent: must error, not hang
        // (path hashing would otherwise loop forever).
        let cyclic = |url: u32, parent: u32| NodeSnapshot {
            url,
            count: 1,
            parent,
            depth: 2,
            children: Vec::new(),
            link_dup: false,
        };
        let snap = TreeSnapshot {
            nodes: vec![cyclic(0, 1), cyclic(1, 0)],
            roots: Vec::new(),
            links: Vec::new(),
        };
        assert!(matches!(
            Tree::from_snapshot(&snap).unwrap_err(),
            SnapshotError::ParentCycle(_)
        ));
        // A self-loop is the degenerate case.
        let snap = TreeSnapshot {
            nodes: vec![cyclic(0, 0)],
            roots: Vec::new(),
            links: Vec::new(),
        };
        assert!(matches!(
            Tree::from_snapshot(&snap).unwrap_err(),
            SnapshotError::ParentCycle(0)
        ));
    }

    #[test]
    fn snapshot_does_not_persist_used_flags() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        let leaf = t.descend(&[u(1), u(2)]).unwrap();
        t.mark_used(leaf);
        let back = Tree::from_snapshot(&t.to_snapshot()).unwrap();
        assert_eq!(back.path_usage(), (1, 0));
    }

    #[test]
    fn compact_releases_high_water_capacity() {
        // Grow a wide forest (many roots → large hash maps and arena), then
        // prune almost everything: the reported storage bytes must drop once
        // compact has run, i.e. compaction drops the dead slots instead of
        // keeping the arena and maps at their training high-water mark.
        let mut t = Tree::new();
        for r in 0..2000u32 {
            t.insert_path(&[u(r), u(r + 10_000), u(r + 20_000)], usize::MAX);
        }
        let before = t.memory_bytes();
        for r in 1..2000u32 {
            let root = t.root(u(r)).unwrap();
            t.kill_subtree(root);
        }
        t.compact();
        let after = t.memory_bytes();
        assert_eq!(t.node_count(), 3);
        assert!(
            after * 10 < before,
            "storage bytes must collapse after a heavy prune: {before} -> {after}"
        );
        // The surviving branch is intact.
        assert!(t.descend(&[u(0), u(10_000), u(20_000)]).is_some());
    }

    #[test]
    fn freeze_compacts_and_mirrors_counts() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(4), u(5)], usize::MAX);
        t.kill_subtree(t.root(u(4)).unwrap());
        let frozen = t.freeze(None);
        assert_eq!(t.arena_len(), t.node_count(), "freeze must compact");
        assert_eq!(frozen.len(), t.node_count());
        let n = t.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(frozen.count(n.0), t.node(n).count);
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
        // own tree, and merging in partition order yields a byte-identical
        // snapshot to inserting every session sequentially.
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
            assert_eq!(
                left.to_snapshot(),
                seq.to_snapshot(),
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
