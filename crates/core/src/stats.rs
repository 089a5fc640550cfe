//! Structural model statistics backing the paper's space and utilization
//! metrics (Tables 1–2, Figure 2 right, Figure 4).

use crate::frozen::{FrozenTree, NO_NODE};
use serde::{Deserialize, Serialize};

/// A snapshot of a finalized model's structure, read from its arena.
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
    /// Exact heap bytes of the frozen arena.
    pub memory_bytes: usize,
    /// `(node, window)` entries in PB-PPM's `ContextIndex` (0 before
    /// finalization, and for the models without one).
    pub index_entries: usize,
    /// Approximate resident memory of the `ContextIndex`, in bytes.
    pub index_bytes: usize,
}

impl ModelStats {
    /// Collects statistics from an arena and its path-usage bitset (one
    /// bit per row; empty when nothing was used). Index fields stay 0;
    /// PB-PPM, which carries a `ContextIndex`, fills them via
    /// [`ModelStats::with_index`].
    pub fn of_arena(arena: &FrozenTree, used: &[u64]) -> Self {
        let (total_paths, used_paths) = arena.path_usage(used);
        Self {
            nodes: arena.len(),
            roots: arena.roots.len(),
            edges: arena.parents.iter().filter(|&&p| p != NO_NODE).count(),
            special_links: arena.dup_bits.iter().map(|w| w.count_ones() as usize).sum(),
            max_depth: arena.depths.iter().copied().max().unwrap_or(0),
            total_paths,
            used_paths,
            memory_bytes: arena.heap_bytes(),
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

    /// Total resident bytes: frozen arena plus fingerprint index
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
    use crate::frozen::arena_of;
    use crate::interner::UrlId;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn arena(paths: &[&[u32]]) -> FrozenTree {
        arena_of(paths, &[])
    }

    #[test]
    fn stats_of_empty_arena() {
        let s = ModelStats::of_arena(&arena(&[]), &[]);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.path_utilization(), 1.0);
    }

    #[test]
    fn stats_reflect_arena_shape() {
        let a = arena(&[&[1, 2, 3], &[4]]);
        let s = ModelStats::of_arena(&a, &[]);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.roots, 2);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.total_paths, 2);
        assert_eq!(s.used_paths, 0);
        assert_eq!(s.memory_bytes, a.heap_bytes());
    }

    #[test]
    fn edges_and_links_are_counted() {
        let s = ModelStats::of_arena(&arena_of(&[&[1, 2, 3]], &[(1, 9)]), &[]);
        assert_eq!(s.nodes, 4);
        // Two branch edges (1→2, 2→3) plus the special link under the root.
        assert_eq!(s.edges, 3);
        assert_eq!(s.special_links, 1);
        // The duplicated node is storage, not a surfing path.
        assert_eq!(s.total_paths, 1);
        assert_eq!(s.index_entries, 0, "no index attached yet");
        assert_eq!(s.total_bytes(), s.memory_bytes);
    }

    #[test]
    fn with_index_adds_the_index_footprint() {
        let a = arena(&[&[1, 2]]);
        // Only the voting root is filed: window [1]. The leaf's windows
        // [2] and [1, 2] predict nothing and are not stored.
        let index = crate::context_index::ContextIndex::windows(&a, 8).unwrap();
        let s = ModelStats::of_arena(&a, &[]).with_index(&index);
        assert_eq!(s.index_entries, 1);
        assert!(s.index_bytes > 0);
        assert_eq!(s.total_bytes(), s.memory_bytes + s.index_bytes);
    }

    #[test]
    fn utilization_counts_used_leaves() {
        let a = arena(&[&[1, 2], &[3, 4]]);
        let mut used = vec![0u64; 1];
        let leaf = a.descend(&[u(1), u(2)]).unwrap();
        a.mark_path(&mut used, leaf);
        let s = ModelStats::of_arena(&a, &used);
        assert_eq!(s.total_paths, 2);
        assert_eq!(s.used_paths, 1);
        assert!((s.path_utilization() - 0.5).abs() < 1e-12);
        // Marking an interior row alone uses no path.
        let mut used = vec![0u64; 1];
        crate::frozen::mark_row(&mut used, a.root(u(3)).unwrap());
        assert_eq!(ModelStats::of_arena(&a, &used).used_paths, 0);
    }
}
