//! Reference prediction oracles: the original, unoptimized walks every
//! model's serving path is property-tested bit-identical against, and the
//! throughput bench's `reference_ns_per_click` baseline.
//!
//! Nothing here serves traffic, and nothing here is shared with training.
//! [`PathCounts`] trains its own forest from the sessions: a map from each
//! node's path (root first) to its count, filled by applying the paper's
//! rules one bump at a time per session, and pruned with its own walk. It
//! reads only configuration from the model, so it catches a training,
//! cut, freeze or codec bug in the frozen-arena paths it checks:
//!
//! * standard and LRS PPM: descend every context suffix from its root,
//!   longest first ([`predict_standard`]);
//! * PB-PPM: scan every occurrence of the current URL, group them by how
//!   far their stored path agrees with the context, and let the longest
//!   group with a voter predict, plus the special-link channel ([`PbScan`]).

use crate::fxhash::FxHashMap;
use crate::interner::UrlId;
use crate::pb::PbPpm;
use crate::popularity::Grade;
use crate::predictor::{rank_predictions, Prediction};
use crate::prune::PruneConfig;
use crate::standard::StandardPpm;
use std::collections::{BTreeMap, BTreeSet};

/// A reference forest: every node as its path from its root, with its
/// training count, and PB-PPM's special links.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Branch nodes: path (root first) → count. Every prefix of a stored
    /// path is stored too.
    paths: BTreeMap<Vec<UrlId>, u64>,
    /// Special links: (root URL, duplicated URL) → count.
    links: BTreeMap<(UrlId, UrlId), u64>,
}

impl PathCounts {
    /// Standard or LRS PPM as `model` is configured: a branch from every
    /// position of every session, at most the model's height deep; LRS
    /// then drops every node seen fewer than its support times.
    pub fn standard<S: AsRef<[UrlId]>>(model: &StandardPpm, sessions: &[S]) -> Self {
        let mut counts = Self::default();
        let height = model.height();
        for s in sessions {
            let s = s.as_ref();
            for start in 0..s.len() {
                for end in start + 1..=s.len().min(start + height) {
                    counts.bump(&s[start..end]);
                }
            }
        }
        if let Some(min_support) = model.min_support {
            counts.prune(|count, _| count >= min_support);
        }
        counts
    }

    /// PB-PPM as `model` is configured: its popularity grades, heights,
    /// special links and space optimizations (§3.4 rules 1–4).
    pub fn pb<S: AsRef<[UrlId]>>(model: &PbPpm, sessions: &[S]) -> Self {
        let (pop, cfg) = (model.popularity(), model.config());
        let mut counts = Self::default();
        for s in sessions {
            // Branches growing in this session: path so far, head grade,
            // and how many more nodes each may take.
            let mut branches: Vec<(Vec<UrlId>, Grade, u8)> = Vec::new();
            let mut linked = BTreeSet::new();
            let mut prev = Grade::G0;
            for (i, &url) in s.as_ref().iter().enumerate() {
                let g = pop.grade(url);
                branches.retain(|&(_, _, left)| left > 0);
                for (path, head, left) in &mut branches {
                    path.push(url);
                    *left -= 1;
                    counts.bump(path);
                    let root = path[0];
                    if cfg.special_links
                        && path.len() >= 3
                        && (g > *head || g == Grade::MAX)
                        && url != root
                        && linked.insert((root, url))
                    {
                        *counts.links.entry((root, url)).or_default() += 1;
                    }
                }
                if i == 0 || g > prev {
                    branches.retain(|(path, _, _)| path[0] != url);
                    counts.bump(&[url]);
                    branches.push((vec![url], g, cfg.height_for(g) - 1));
                }
                prev = g;
            }
        }
        let prune = cfg.prune;
        counts.prune(|count, parent| survives(&prune, count, parent));
        counts
    }

    fn bump(&mut self, path: &[UrlId]) {
        *self.paths.entry(path.to_vec()).or_default() += 1;
    }

    /// Drops every node that, or one of whose ancestors, fails `keeps`
    /// (given the node's count and its parent's, `None` at a root), and
    /// every link whose root is dropped or that fails against its root.
    fn prune(&mut self, keeps: impl Fn(u64, Option<u64>) -> bool) {
        let passes = |path: &[UrlId]| {
            (1..=path.len()).all(|k| {
                let parent = (k > 1).then(|| self.paths[&path[..k - 1]]);
                keeps(self.paths[&path[..k]], parent)
            })
        };
        let paths: BTreeMap<_, _> = self
            .paths
            .iter()
            .filter(|(path, _)| passes(path))
            .map(|(path, &count)| (path.clone(), count))
            .collect();
        let links = self
            .links
            .iter()
            .filter(|&(&(root, _), &count)| {
                passes(&[root]) && keeps(count, Some(self.paths[&[root][..]]))
            })
            .map(|(&link, &count)| (link, count))
            .collect();
        *self = Self { paths, links };
    }

    /// The children of `node`, `(url, count)` by URL. Every prefix of a
    /// stored path is stored, so the first key at or after `node + [u]`
    /// that starts with `node` is the child with the least URL `>= u`.
    fn children(&self, node: &[UrlId]) -> Vec<(UrlId, u64)> {
        let mut out = Vec::new();
        let mut least = Some(0);
        while let Some(lo) = least {
            let mut from = node.to_vec();
            from.push(UrlId(lo));
            let Some((path, &count)) = self.paths.range(from..).next() else {
                break;
            };
            if !path.starts_with(node) {
                break;
            }
            let child = path[node.len()];
            out.push((child, count));
            least = child.0.checked_add(1);
        }
        out
    }
}

/// PB-PPM's space optimizations on one node (§3.4): the relative cut
/// spares roots and drops a node seen in less than `threshold` of its
/// parent's traversals; the absolute cut drops a node seen at most
/// `min_abs_count` times.
fn survives(cfg: &PruneConfig, count: u64, parent: Option<u64>) -> bool {
    if let (Some(threshold), Some(parent)) = (cfg.relative_threshold, parent) {
        if (count as f64) < threshold * parent as f64 {
            return false;
        }
    }
    cfg.min_abs_count.is_none_or(|min| count > min)
}

/// Standard and LRS PPM by root descent over `counts`. Their forests store
/// every suffix of a sequence as its own branch, so the longest suffix of
/// the context (at most `m`'s height) that is stored and has a child is
/// the longest match; its children vote.
pub fn predict_standard(
    counts: &PathCounts,
    m: &StandardPpm,
    context: &[UrlId],
    out: &mut Vec<Prediction>,
) {
    out.clear();
    let len = context.len();
    for k in (1..=len.min(m.height())).rev() {
        let node = &context[len - k..];
        let Some(&parent_count) = counts.paths.get(node) else {
            continue;
        };
        let children = counts.children(node);
        if children.is_empty() {
            continue;
        }
        for (url, count) in children {
            out.push(Prediction::new(url, count as f64 / parent_count as f64));
        }
        rank_predictions(out, usize::MAX);
        return;
    }
}

/// PB-PPM's linear occurrence scan, over an occurrence table (URL → every
/// branch node for that URL) built once from the reference forest.
pub struct PbScan<'a> {
    counts: &'a PathCounts,
    max_order: usize,
    by_url: FxHashMap<UrlId, Vec<&'a [UrlId]>>,
}

impl<'a> PbScan<'a> {
    /// Builds the occurrence table over `counts`, matching contexts as
    /// `model` is configured.
    pub fn new(counts: &'a PathCounts, model: &PbPpm) -> Self {
        let mut by_url: FxHashMap<UrlId, Vec<&'a [UrlId]>> = FxHashMap::default();
        for path in counts.paths.keys() {
            if let Some(&url) = path.last() {
                by_url.entry(url).or_default().push(path);
            }
        }
        Self {
            counts,
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
        let counts = self.counts;
        if let Some(nodes) = self.by_url.get(&current) {
            // Group candidate nodes by match length, longest first.
            let mut scored: Vec<(usize, &[UrlId])> = nodes
                .iter()
                .map(|&path| (match_len(path, context, self.max_order), path))
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
                    let children = counts.children(node);
                    if !children.is_empty() {
                        parent_total += counts.paths[node];
                        for (url, count) in children {
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
        if let Some(&root_count) = counts.paths.get(&[current][..]) {
            for (&(_, url), &count) in counts
                .links
                .range((current, UrlId(0))..=(current, UrlId(u32::MAX)))
            {
                out.push(Prediction::new(url, count as f64 / root_count as f64));
            }
        }
        rank_predictions(out, usize::MAX);
    }
}

/// Length of the longest context suffix that `path` ends with (at least 1
/// when their last URLs agree), capped at `max_order` URLs. At the root
/// the stored path is exhausted, so a longer context cannot match more.
fn match_len(path: &[UrlId], context: &[UrlId], max_order: usize) -> usize {
    path.iter()
        .rev()
        .zip(context.iter().rev())
        .take(max_order)
        .take_while(|(a, b)| a == b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::PbConfig;
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// One branch 0 -> 1 -> 2 -> 3 (head grade 3, height 7), and the
    /// finalized model it trains.
    fn chain(max_order: usize) -> (PbPpm, PathCounts) {
        let mut b = PopularityBuilder::new();
        b.record_n(u(0), 1000);
        b.record_n(u(9), 1000);
        let cfg = PbConfig {
            prune: PruneConfig::disabled(),
            max_order,
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(b.build(), cfg);
        let sessions = [[u(0), u(1), u(2), u(3)]];
        let counts = PathCounts::pb(&m, &sessions);
        m.train_sessions(&sessions, 1);
        m.finalize();
        (m, counts)
    }

    /// Pins the match length at a root, an interior node and a leaf,
    /// including the root-stop case where the context is longer than the
    /// stored branch.
    #[test]
    fn match_len_pins_root_interior_and_leaf() {
        let (root, interior, leaf) = (
            &[u(0)][..],
            &[u(0), u(1), u(2)][..],
            &[u(0), u(1), u(2), u(3)][..],
        );
        let len = |node, ctx: &[UrlId]| match_len(node, ctx, 8);

        // Root: exactly 1 when the current click is the root URL...
        assert_eq!(len(root, &[u(0)]), 1);
        // ...and still 1 when the context extends past the stored path.
        assert_eq!(len(root, &[u(9), u(8), u(0)]), 1);

        // Interior node: full upward match, partial match, mismatch.
        assert_eq!(len(interior, &[u(0), u(1), u(2)]), 3);
        assert_eq!(len(interior, &[u(1), u(2)]), 2);
        assert_eq!(len(interior, &[u(9), u(1), u(2)]), 2);
        assert_eq!(len(interior, &[u(9)]), 0);

        // Leaf: matches its whole branch, capped by max_order.
        assert_eq!(len(leaf, &[u(0), u(1), u(2), u(3)]), 4);
        assert_eq!(len(leaf, &[u(2), u(3)]), 2);
        assert_eq!(match_len(leaf, &[u(0), u(1), u(2), u(3)], 2), 2);
    }

    #[test]
    fn scan_predicts_interior_matches_and_links() {
        let (m, counts) = chain(8);
        assert_eq!(counts.paths.len(), 4);
        let scan = PbScan::new(&counts, &m);
        let mut out = Vec::new();
        scan.predict(&[u(7), u(1), u(2)], &mut out);
        assert_eq!(out, vec![Prediction::new(u(3), 1.0)]);
        scan.predict(&[u(3)], &mut out);
        assert!(out.is_empty(), "a leaf-only match predicts nothing");
    }

    #[test]
    fn children_skip_grandchildren_and_read_counts() {
        let mut counts = PathCounts::default();
        for path in [
            &[u(1)][..],
            &[u(1), u(2)],
            &[u(1), u(2), u(0)],
            &[u(1), u(2)],
            &[u(1), u(5)],
            &[u(3)],
        ] {
            counts.bump(path);
        }
        assert_eq!(counts.children(&[u(1)]), vec![(u(2), 2), (u(5), 1)]);
        assert_eq!(counts.children(&[u(1), u(2)]), vec![(u(0), 1)]);
        assert!(counts.children(&[u(3)]).is_empty());
        assert!(counts.children(&[u(4)]).is_empty());
    }
}
