//! Post-build space optimization (§3.4, last paragraph).
//!
//! The paper combines two pruning alternatives after the popularity-based
//! tree is built:
//!
//! 1. **Relative access probability cut** — every non-root node whose count
//!    divided by its parent's count falls below a threshold (1%–5% in the
//!    paper's experiments) is removed together with its linked branches.
//! 2. **Absolute count cut** — every node accessed no more than once is
//!    removed (used for the bursty UCB-CS trace).
//!
//! A node also dies with its parent. `finalize` applies the cuts to the
//! counted rows (`NodeStore::finalize` in `frozen.rs`); LRS-PPM's support
//! cut is the absolute cut under another threshold.

use serde::{Deserialize, Serialize};

/// Configuration of the two pruning alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Remove non-root nodes with `count / parent.count` strictly below this
    /// (e.g. `0.01` for the paper's 1% cut). `None` disables the cut.
    pub relative_threshold: Option<f64>,
    /// Remove nodes (roots included) with `count <= min_abs_count`.
    /// `None` disables the cut; the paper uses `Some(1)` for UCB-CS.
    pub min_abs_count: Option<u64>,
}

impl Default for PruneConfig {
    /// The paper's NASA-trace configuration: 1% relative cut, no absolute cut.
    fn default() -> Self {
        Self {
            relative_threshold: Some(0.01),
            min_abs_count: None,
        }
    }
}

impl PruneConfig {
    /// Whether a node traversed `count` times passes both cuts, given its
    /// parent's count (`None` for a root, which the relative cut spares).
    /// Special-link duplicates are judged against their root, like any
    /// child: the paper removes "the node and its linked branches" alike.
    pub(crate) fn keeps(&self, count: u64, parent: Option<u64>) -> bool {
        let rare = match (self.relative_threshold, parent) {
            (Some(threshold), Some(parent)) => (count as f64) < threshold * parent as f64,
            _ => false,
        };
        !rare && self.min_abs_count.is_none_or(|min| count > min)
    }

    /// No pruning at all.
    pub fn disabled() -> Self {
        Self {
            relative_threshold: None,
            min_abs_count: None,
        }
    }

    /// The paper's UCB-CS configuration: both optimizations on.
    pub fn aggressive() -> Self {
        Self {
            relative_threshold: Some(0.01),
            min_abs_count: Some(1),
        }
    }
}

/// What a pruning pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneReport {
    /// Nodes before pruning.
    pub nodes_before: usize,
    /// Nodes after pruning.
    pub nodes_after: usize,
}

impl PruneReport {
    /// Nodes removed by the pass.
    pub fn removed(&self) -> usize {
        self.nodes_before - self.nodes_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative(threshold: f64) -> PruneConfig {
        PruneConfig {
            relative_threshold: Some(threshold),
            min_abs_count: None,
        }
    }

    fn absolute(min: u64) -> PruneConfig {
        PruneConfig {
            relative_threshold: None,
            min_abs_count: Some(min),
        }
    }

    #[test]
    fn relative_cut_removes_rare_children() {
        // 1 of 50 and 2 of 100 are 2%: kept at 1%, cut at 5%.
        assert!(relative(0.01).keeps(1, Some(50)));
        assert!(relative(0.01).keeps(2, Some(100)));
        assert!(!relative(0.05).keeps(1, Some(50)));
        assert!(!relative(0.05).keeps(2, Some(100)));
        assert!(relative(0.05).keeps(50, Some(100)));
        // Strictly below the threshold dies; exactly at it stays.
        assert!(relative(0.5).keeps(1, Some(2)));
    }

    #[test]
    fn relative_cut_spares_roots() {
        assert!(relative(0.5).keeps(1, None));
    }

    #[test]
    fn absolute_cut_removes_singletons_everywhere() {
        assert!(!absolute(1).keeps(1, Some(50)));
        assert!(absolute(1).keeps(2, Some(100)));
        assert!(!absolute(2).keeps(2, Some(100)));
        // Roots too.
        assert!(!absolute(1).keeps(1, None));
    }

    #[test]
    fn disabled_prune_keeps_everything() {
        let cfg = PruneConfig::disabled();
        assert!(cfg.keeps(1, Some(u64::MAX)));
        assert!(cfg.keeps(0, None));
    }

    #[test]
    fn pruning_only_tightens_with_the_thresholds() {
        for threshold in [0.0, 0.01, 0.05, 0.5, 1.0] {
            for (count, parent) in [(1, 100), (5, 100), (50, 100), (100, 100)] {
                let looser = relative(threshold / 2.0).keeps(count, Some(parent));
                assert!(looser || !relative(threshold).keeps(count, Some(parent)));
            }
        }
        assert!(!absolute(u64::MAX).keeps(u64::MAX, None));
    }
}
