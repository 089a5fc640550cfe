//! Structural model statistics backing the paper's space and utilization
//! metrics (Tables 1–2, Figure 2 right, Figure 4).

use crate::tree::Tree;
use serde::{Deserialize, Serialize};

/// A snapshot of a model's tree structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Alive URL nodes — the paper's "space size in number of nodes".
    pub nodes: usize,
    /// Alive branch roots.
    pub roots: usize,
    /// Parent→child edges between alive nodes.
    pub edges: usize,
    /// Alive PB-PPM special-link (duplicated popular) nodes.
    pub special_links: usize,
    /// Depth of the deepest alive node.
    pub max_depth: u8,
    /// Root-to-leaf paths currently stored.
    pub total_paths: usize,
    /// Paths whose leaf participated in at least one prediction.
    pub used_paths: usize,
    /// Approximate resident memory of the tree arena, in bytes.
    pub memory_bytes: usize,
    /// `(node, window)` entries in PB-PPM's `ContextIndex` (0 before
    /// finalization, and for the models without one).
    pub index_entries: usize,
    /// Approximate resident memory of the `ContextIndex`, in bytes.
    pub index_bytes: usize,
}

impl ModelStats {
    /// Collects statistics from a tree. Index fields stay 0; PB-PPM, which
    /// carries a `ContextIndex`, fills them via [`ModelStats::with_index`].
    pub fn of_tree(tree: &Tree) -> Self {
        let (total_paths, used_paths) = tree.path_usage();
        Self {
            nodes: tree.node_count(),
            roots: tree.root_count(),
            edges: tree.edge_count(),
            special_links: tree.link_count(),
            max_depth: tree.max_depth(),
            total_paths,
            used_paths,
            memory_bytes: tree.memory_bytes(),
            index_entries: 0,
            index_bytes: 0,
        }
    }

    /// Adds the model's `ContextIndex` footprint to the snapshot.
    pub fn with_index(mut self, index: &crate::context_index::ContextIndex) -> Self {
        self.index_entries = index.len();
        self.index_bytes = index.memory_bytes();
        self
    }

    /// Approximate total resident bytes: tree arena plus fingerprint index
    /// — the quantity behind the paper's Table-1 storage comparison once
    /// the matching acceleration structures are included.
    pub fn total_bytes(&self) -> usize {
        self.memory_bytes + self.index_bytes
    }

    /// Fraction of stored paths that were used for predictions
    /// (the paper's *path utilization rate*, Fig. 2 right).
    ///
    /// Returns 1.0 for an empty model: a model storing nothing wastes
    /// nothing.
    pub fn path_utilization(&self) -> f64 {
        if self.total_paths == 0 {
            1.0
        } else {
            self.used_paths as f64 / self.total_paths as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::UrlId;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    #[test]
    fn stats_of_empty_tree() {
        let s = ModelStats::of_tree(&Tree::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.path_utilization(), 1.0);
    }

    #[test]
    fn stats_reflect_tree_shape() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        t.insert_path(&[u(4)], usize::MAX);
        let s = ModelStats::of_tree(&t);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.roots, 2);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.total_paths, 2);
        assert_eq!(s.used_paths, 0);
        assert!(s.memory_bytes > 0);
    }

    #[test]
    fn edges_and_links_are_counted() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2), u(3)], usize::MAX);
        let root = t.descend(&[u(1)]).unwrap();
        t.link_or_insert(root, u(9));
        let s = ModelStats::of_tree(&t);
        assert_eq!(s.nodes, 4);
        // Two branch edges (1→2, 2→3) plus the special link under the root.
        assert_eq!(s.edges, 3);
        assert_eq!(s.special_links, 1);
        assert_eq!(s.index_entries, 0, "no index attached yet");
        assert_eq!(s.total_bytes(), s.memory_bytes);
    }

    #[test]
    fn with_index_adds_the_index_footprint() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        // Only the voting root is filed: window [1]. The leaf's windows
        // [2] and [1, 2] predict nothing and are not stored.
        let index = crate::context_index::ContextIndex::windows(&t, 8);
        let s = ModelStats::of_tree(&t).with_index(&index);
        assert_eq!(s.index_entries, 1);
        assert!(s.index_bytes > 0);
        assert_eq!(s.total_bytes(), s.memory_bytes + s.index_bytes);
    }

    #[test]
    fn utilization_counts_used_leaves() {
        let mut t = Tree::new();
        t.insert_path(&[u(1), u(2)], usize::MAX);
        t.insert_path(&[u(3), u(4)], usize::MAX);
        let leaf = t.descend(&[u(1), u(2)]).unwrap();
        t.mark_used(leaf);
        let s = ModelStats::of_tree(&t);
        assert_eq!(s.total_paths, 2);
        assert_eq!(s.used_paths, 1);
        assert!((s.path_utilization() - 0.5).abs() < 1e-12);
    }
}
