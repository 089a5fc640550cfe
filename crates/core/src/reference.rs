//! Reference prediction oracles: the original, unoptimized walks every
//! model's serving path is property-tested bit-identical against, and the
//! throughput bench's `reference_ns_per_click` baseline.
//!
//! Nothing here serves traffic. Each oracle walks the pointer tree the
//! model's `reference_tree` hook returns — the training tree after
//! finalize's own pruning and compaction, never frozen — and reads only
//! configuration from the model, so it shares no code with the
//! frozen-arena paths it checks and catches a freeze or codec bug:
//!
//! * standard and LRS PPM: descend every context suffix from its root,
//!   longest first ([`Tree::longest_predictive_match`]);
//! * PB-PPM: scan every occurrence of the current URL, group them by how
//!   far their stored path agrees with the context, and let the longest
//!   group with a voter predict, plus the special-link channel ([`PbScan`]).

use crate::fxhash::FxHashMap;
use crate::interner::UrlId;
use crate::pb::PbPpm;
use crate::predictor::{rank_predictions, Prediction};
use crate::standard::StandardPpm;
use crate::tree::{NodeId, Tree};

/// Standard and LRS PPM by root descent over `m`'s reference tree. Their
/// trees store every suffix of a sequence as its own branch, so the
/// longest predictive root descent is the longest match.
pub fn predict_standard(
    tree: &Tree,
    m: &StandardPpm,
    context: &[UrlId],
    out: &mut Vec<Prediction>,
) {
    out.clear();
    let Some(node) = tree.longest_predictive_match(context, m.height()) else {
        return;
    };
    let parent_count = tree.node(node).count;
    if parent_count == 0 {
        return;
    }
    for (url, _, count) in tree.children_of(node) {
        out.push(Prediction::new(url, count as f64 / parent_count as f64));
    }
    rank_predictions(out, usize::MAX);
}

/// PB-PPM's linear occurrence scan, over an occurrence table (URL → every
/// alive branch node for that URL) built once from the model's reference
/// tree.
pub struct PbScan<'a> {
    tree: &'a Tree,
    max_order: usize,
    by_url: FxHashMap<UrlId, Vec<NodeId>>,
}

impl<'a> PbScan<'a> {
    /// Builds the occurrence table over `model`'s reference `tree`.
    pub fn new(tree: &'a Tree, model: &PbPpm) -> Self {
        let mut by_url: FxHashMap<UrlId, Vec<NodeId>> = FxHashMap::default();
        for id in tree.iter_alive() {
            let node = tree.node(id);
            if !node.link_dup {
                by_url.entry(node.url).or_default().push(id);
            }
        }
        Self {
            tree,
            max_order: model.cfg.max_order,
            by_url,
        }
    }

    /// The reference prediction for `context`: the longest match group's
    /// votes plus the special-link channel, ranked.
    pub fn predict(&self, context: &[UrlId], out: &mut Vec<Prediction>) {
        out.clear();
        let Some(&current) = context.last() else {
            return;
        };
        let (tree, max_order) = (self.tree, self.max_order);
        if let Some(nodes) = self.by_url.get(&current) {
            // Group candidate nodes by match length, longest first.
            let mut scored: Vec<(usize, NodeId)> = nodes
                .iter()
                .map(|&id| (match_len(tree, id, context, max_order), id))
                .collect();
            scored.sort_by_key(|&(len, _)| std::cmp::Reverse(len));
            let mut i = 0;
            while i < scored.len() {
                let len = scored[i].0;
                let mut j = i;
                let mut parent_total = 0u64;
                let mut votes: FxHashMap<UrlId, u64> = FxHashMap::default();
                while j < scored.len() && scored[j].0 == len {
                    let node = scored[j].1;
                    if tree.children_of(node).next().is_some() {
                        parent_total += tree.node(node).count;
                        for (url, _, count) in tree.children_of(node) {
                            *votes.entry(url).or_default() += count;
                        }
                    }
                    j += 1;
                }
                if parent_total > 0 {
                    for (url, count) in votes {
                        out.push(Prediction::new(url, count as f64 / parent_total as f64));
                    }
                    break;
                }
                i = j;
            }
        }
        if let Some(root) = tree.root(current) {
            let root_count = tree.node(root).count;
            if root_count > 0 {
                for id in tree.links_of(root) {
                    let n = tree.node(id);
                    out.push(Prediction::new(n.url, n.count as f64 / root_count as f64));
                }
            }
        }
        rank_predictions(out, usize::MAX);
    }
}

/// Length of the longest context suffix that matches the upward path
/// ending at `node` (at least 1 when `node.url == *context.last()`),
/// capped at `max_order` URLs.
///
/// The walk stops *after* counting a node whose parent is `NONE` — at a
/// branch root the stored path is exhausted, so a longer context suffix
/// cannot match and the root's length is final. Breaking *before* counting
/// (or following the `NONE` parent) would under-count root matches by one
/// or index outside the arena.
fn match_len(tree: &Tree, node: NodeId, context: &[UrlId], max_order: usize) -> usize {
    let mut len = 0;
    let mut cur = node;
    for &url in context.iter().rev().take(max_order) {
        if tree.node(cur).url != url {
            break;
        }
        len += 1;
        let parent = tree.node(cur).parent;
        if parent.is_none() {
            break;
        }
        cur = parent;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::PbConfig;
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;
    use crate::prune::PruneConfig;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// Still training: callers take its reference tree, then finalize.
    fn chain(max_order: usize) -> PbPpm {
        let mut b = PopularityBuilder::new();
        b.record_n(u(0), 1000);
        b.record_n(u(9), 1000);
        let cfg = PbConfig {
            prune: PruneConfig::disabled(),
            max_order,
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(b.build(), cfg);
        // One branch 0 -> 1 -> 2 -> 3 (head grade 3, height 7).
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        m
    }

    /// Pins the match length at a root, an interior node and a leaf,
    /// including the root-stop case where the context is longer than the
    /// stored branch.
    #[test]
    fn match_len_pins_root_interior_and_leaf() {
        let tree = chain(8).reference_tree().unwrap();
        let t = &tree;
        let root = t.root(u(0)).unwrap();
        let interior = t.descend(&[u(0), u(1), u(2)]).unwrap();
        let leaf = t.descend(&[u(0), u(1), u(2), u(3)]).unwrap();
        let len = |node, ctx: &[UrlId]| match_len(t, node, ctx, 8);

        // Root: exactly 1 when the current click is the root URL...
        assert_eq!(len(root, &[u(0)]), 1);
        // ...and still 1 when the context extends past the stored path —
        // the walk must stop after counting the root, not keep consuming
        // context URLs that have no stored nodes above the root.
        assert_eq!(len(root, &[u(9), u(8), u(0)]), 1);

        // Interior node: full upward match, partial match, mismatch.
        assert_eq!(len(interior, &[u(0), u(1), u(2)]), 3);
        assert_eq!(len(interior, &[u(1), u(2)]), 2);
        assert_eq!(len(interior, &[u(9), u(1), u(2)]), 2);
        assert_eq!(len(interior, &[u(9)]), 0);

        // Leaf: matches its whole branch, capped by max_order.
        assert_eq!(len(leaf, &[u(0), u(1), u(2), u(3)]), 4);
        assert_eq!(len(leaf, &[u(2), u(3)]), 2);
        assert_eq!(match_len(t, leaf, &[u(0), u(1), u(2), u(3)], 2), 2);
    }

    #[test]
    fn scan_predicts_interior_matches_and_links() {
        let mut m = chain(8);
        let tree = m.reference_tree().unwrap();
        m.finalize();
        let scan = PbScan::new(&tree, &m);
        let mut out = Vec::new();
        scan.predict(&[u(7), u(1), u(2)], &mut out);
        assert_eq!(out, vec![Prediction::new(u(3), 1.0)]);
        scan.predict(&[u(3)], &mut out);
        assert!(out.is_empty(), "a leaf-only match predicts nothing");
    }
}
