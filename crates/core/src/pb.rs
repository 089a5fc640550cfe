//! The **popularity-based PPM** model — the paper's contribution (§3.4).
//!
//! The Markov prediction tree grows with a *variable* height per branch:
//! a popular URL heads a set of long branches, a less popular document heads
//! short ones. Four construction rules (§3.4) shape the tree:
//!
//! 1. **Grade-proportional heights.** A branch headed by a grade-*g* URL may
//!    grow to `heights[g]` nodes (defaults 7/5/3/1 for grades 3/2/1/0 — the
//!    values of §4.1).
//! 2. **Bounded initial maximum height.** The default ceiling of 7 reflects
//!    the paper's observation that more than 95% of access sessions have 9 or
//!    fewer clicks.
//! 3. **Special links.** While a branch grows, a URL that is *not* the
//!    immediate successor of the branch head and whose grade exceeds the
//!    head's grade (or is the highest grade) gets a **duplicated node**
//!    linked directly under the branch root. When the current click is a
//!    root, the linked duplicates yield additional predictions — popular
//!    URLs get extra prefetching consideration.
//! 4. **Root rule.** A URL starts a new root branch only at the session head
//!    or when its popularity grade is higher than the grade of the URL just
//!    before it. (Standard PPM roots a branch at *every* position; this rule
//!    is what "limits the number of root nodes".)
//!
//! After construction, [`PbPpm::finalize`] applies the two space
//! optimizations of [`crate::prune`].
//!
//! **Matching.** A prediction votes with the nodes that spell the longest
//! context suffix, up to `max_order` URLs, found through the fingerprint
//! index ([`crate::context_index`]) by trying lengths longest-first. The
//! reference scan ([`crate::reference`]) groups every node by its own
//! longest match, so a node whose stored path also agrees with the
//! context URL just above a length-`ℓ` window belongs to a longer group.
//! That node never needs excluding from the length-`ℓ` group, though: it
//! is filed in the length-`ℓ + 1` bucket of the same context, which the
//! descent visits first, and as a voter it ends the descent there or at
//! an even longer length. So the group at the length that votes is
//! exactly the reference's group, and it votes whole.

use crate::context_index::{bucket_key, ContextHashes, ContextIndex, WindowGroup};
use crate::frozen::{mark_row, Emit, FrozenTree, NodeId, NodeStore, SnapshotError, TreeSnapshot};
use crate::interner::UrlId;
use crate::popularity::{Grade, PopularityTable};
use crate::predictor::{rank_predictions, ModelKind, PredictUsage, Prediction, Predictor};
use crate::prune::{PruneConfig, PruneReport};
use crate::stats::ModelStats;
use serde::{Deserialize, Serialize};

/// Construction parameters for [`PbPpm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PbConfig {
    /// Maximum branch height per heading-URL grade, indexed by
    /// [`Grade::level`]. The paper's §4.1 values are `[1, 3, 5, 7]`.
    pub heights: [u8; 4],
    /// Whether rule 3 special links are created (on in the paper; the
    /// ablation benches turn it off).
    pub special_links: bool,
    /// Post-build space optimization applied by [`PbPpm::finalize`].
    pub prune: PruneConfig,
    /// Longest context considered when matching (defaults to the tallest
    /// branch height + 1).
    pub max_order: usize,
}

impl Default for PbConfig {
    fn default() -> Self {
        Self {
            heights: [1, 3, 5, 7],
            special_links: true,
            prune: PruneConfig::default(),
            max_order: 8,
        }
    }
}

impl PbConfig {
    /// Branch height for a heading URL of grade `g`, at least 1.
    #[inline]
    pub fn height_for(&self, g: Grade) -> u8 {
        self.heights[g.level() as usize].max(1)
    }
}

/// One growing branch during session insertion.
struct Cursor {
    /// Session position of the branch's heading URL, its root.
    start: usize,
    /// Grade of the branch's heading URL.
    head_grade: Grade,
    /// How many nodes the branch may hold.
    height: usize,
}

/// Emits one session's training under the paper's four construction
/// rules, against a frozen popularity table and config: one path per
/// branch grown (cursor), from its root to where it stopped or was
/// restarted, and one link per `(root, url)` pair rule 3 duplicates.
///
/// Every decision reads only `session`, `pop` and `cfg`, so partitions
/// count independently against the **shared** popularity table.
fn emit_session(pop: &PopularityTable, cfg: &PbConfig, session: &[UrlId], out: &mut Emit<'_>) {
    let mut cursors: Vec<Cursor> = Vec::with_capacity(4);
    let mut prev_grade = Grade::G0;
    // A link's count answers "in how many of the branch's sessions was
    // the popular URL revisited later?", so each (root, url) link is
    // emitted at most once per session no matter how often the URL
    // recurs.
    let mut linked_this_session: Vec<(UrlId, UrlId)> = Vec::new();
    for (i, &url) in session.iter().enumerate() {
        let g = pop.grade(url);

        // Rule 1/2: extend every branch that still has headroom; a full
        // one ends before this click.
        cursors.retain(|c| {
            if i - c.start == c.height {
                out.path(c.start..i);
                return false;
            }
            // Rule 3: duplicate-and-link popular URLs that are not the
            // head's immediate successor (depth 3 and deeper). A link back
            // to the head itself would predict the page currently being
            // served, so skip it.
            let root = session[c.start];
            if cfg.special_links
                && i - c.start >= 2
                && (g > c.head_grade || g == Grade::MAX)
                && url != root
                && !linked_this_session.contains(&(root, url))
            {
                out.link(root, url);
                linked_this_session.push((root, url));
            }
            true
        });

        // Rule 4: a new root at the session head or on a grade ascent.
        if i == 0 || g > prev_grade {
            // If this root's branch is already being grown in this
            // session, it ends here (this click included) and restarts
            // rather than double-extend.
            cursors.retain(|c| {
                let restarted = session[c.start] == url;
                if restarted {
                    out.path(c.start..i + 1);
                }
                !restarted
            });
            cursors.push(Cursor {
                start: i,
                head_grade: g,
                height: usize::from(cfg.height_for(g)),
            });
        }
        prev_grade = g;
    }
    for c in cursors {
        out.path(c.start..session.len());
    }
}

/// Popularity-based PPM prediction model.
///
/// `Clone` exists for epoch publication: the serving writer clones the
/// freshly rebuilt (finalized) model into an immutable snapshot that
/// readers share via `Arc` — see [`crate::publish`].
#[derive(Clone)]
pub struct PbPpm {
    /// The counted training paths, replaced by the frozen arena at
    /// finalize: the arena's SoA/CSR rows are what verification walks,
    /// votes and the link channel read.
    pub(crate) store: NodeStore,
    pub(crate) pop: PopularityTable,
    pub(crate) cfg: PbConfig,
    prune_report: Option<PruneReport>,
    /// Diagnostics: cumulative number of predictions emitted via special
    /// links vs via branch matching (since construction).
    pub emitted_link_preds: u64,
    /// See [`PbPpm::emitted_link_preds`].
    pub emitted_branch_preds: u64,
    /// Fingerprint index: `(window length, rolling hash)` → the nodes
    /// spelling that window plus their precomputed vote aggregates, or the
    /// one node's arena row ([`crate::context_index::WindowGroup`]), built once in
    /// [`PbPpm::finalize`] over the pruned arena, in flat sorted lists.
    ///
    /// Standard and LRS trees store every *suffix* of a sequence as its own
    /// branch, so a root descent finds the longest match. PB-PPM saves
    /// exactly that duplication (rule 4), which means the longest context
    /// match must be sought at **interior** nodes; this index finds them
    /// without scanning every occurrence of the current URL. The property
    /// tests hold it bit-identical to that scan ([`crate::reference`]).
    pub(crate) index: ContextIndex,
}

impl PbPpm {
    /// Creates a PB-PPM model over a frozen popularity table (the outcome of
    /// the first training pass — see [`PopularityTable::builder`]).
    pub fn new(pop: PopularityTable, cfg: PbConfig) -> Self {
        Self {
            store: NodeStore::default(),
            pop,
            cfg,
            prune_report: None,
            emitted_link_preds: 0,
            emitted_branch_preds: 0,
            index: ContextIndex::default(),
        }
    }

    /// Trains on every session, deterministically parallel
    /// (`NodeStore::train_sessions`): each worker counts its partition's
    /// paths via `emit_session` against the shared frozen popularity
    /// table — bit-identical to a sequential [`Predictor::train_session`]
    /// loop at every thread count (`0` = auto via `PBPPM_THREADS`/available
    /// parallelism).
    pub fn train_sessions<S: AsRef<[UrlId]> + Sync>(&mut self, sessions: &[S], threads: usize) {
        let (pop, cfg) = (&self.pop, &self.cfg);
        self.store.train_sessions(sessions, threads, |s, out| {
            emit_session(pop, cfg, s, out);
        });
    }

    /// Per-member fallback for a fingerprint bucket flagged dirty at build
    /// time (members with genuinely different window contents hashed
    /// alike): verifies each member individually and records usage per
    /// node. Returns true when the group voted, ending the length descent.
    fn vote_members(
        frozen: &FrozenTree,
        suffix: &[UrlId],
        members: &[NodeId],
        out: &mut Vec<Prediction>,
        usage: &mut PredictUsage,
    ) -> bool {
        let voters: Vec<u32> = members
            .iter()
            .map(|id| id.0)
            .filter(|&id| frozen.has_children(id) && frozen.match_top(id, suffix).is_some())
            .collect();
        let parent_total: u64 = voters.iter().map(|&id| frozen.count(id)).sum();
        if parent_total == 0 {
            return false;
        }
        // Aggregate votes per URL across same-length matches.
        let mut agg: crate::fxhash::FxHashMap<UrlId, u64> = crate::fxhash::FxHashMap::default();
        for &id in &voters {
            usage.used_paths.push(NodeId(id));
            for child in frozen.children(id) {
                *agg.entry(frozen.url(child)).or_default() += frozen.count(child);
                usage.used_nodes.push(NodeId(child));
            }
        }
        for (url, count) in agg {
            out.push(Prediction::new(url, count as f64 / parent_total as f64));
            usage.branch_preds += 1;
        }
        true
    }

    /// Publishes the post-finalize storage shape of the PB-specific
    /// machinery to the telemetry registry (gauges under `model=PB-PPM`):
    /// prune removals and `ContextIndex` occupancy. (The generic
    /// node/edge/byte gauges are published per model by the simulator.)
    /// Last-writer-wins when several PB models finalize in one process
    /// (e.g. a parallel sweep); per-cell storage lives in each run's
    /// [`ModelStats`] regardless.
    fn publish_storage_gauges(&self) {
        let reg = pbppm_obs::global();
        let label = format!("model={}", self.kind().label());
        if let Some(report) = self.prune_report {
            reg.gauge("core.prune.removed", &label)
                .set(report.removed() as u64);
        }
        let occ = self.index.occupancy();
        reg.gauge("core.index.entries", &label)
            .set(self.index.len() as u64);
        reg.gauge("core.index.bytes", &label)
            .set(self.index.memory_bytes() as u64);
        reg.gauge("core.index.buckets", &label)
            .set(occ.buckets as u64);
        reg.gauge("core.index.max_bucket", &label)
            .set(occ.max_bucket as u64);
        reg.gauge("core.index.dirty_groups", &label)
            .set(occ.dirty_groups as u64);
        reg.gauge("core.index.derived_groups", &label)
            .set(occ.derived_groups as u64);
    }

    /// The popularity table the model was built with.
    pub fn popularity(&self) -> &PopularityTable {
        &self.pop
    }

    /// What [`PbPpm::finalize`]'s space optimization removed, if it ran.
    pub fn prune_report(&self) -> Option<PruneReport> {
        self.prune_report
    }

    /// The configuration in use.
    pub fn config(&self) -> &PbConfig {
        &self.cfg
    }

    /// Branch predictions via the longest matching context, sought at
    /// interior nodes (see the `index` field docs). The fingerprint
    /// index hands us, per window length, the *precomputed aggregate*
    /// of all nodes whose window spells that content, or the arena row of
    /// the one node that does: one representative upward walk verifies
    /// the whole bucket against the suffix (hash-bucket collisions), and
    /// the longest length with a voter votes with its aggregated (or the
    /// row's own) children, weighted by count. Buckets
    /// flagged dirty at build time (a genuine fingerprint collision)
    /// fall back to the per-member scan in `vote_members`. Every walk and
    /// the link channel read the frozen arena (node ids map 1:1). The
    /// voting group votes whole: see the module docs for why no member
    /// ever needs excluding.
    fn predict_via_index(
        &self,
        frozen: &FrozenTree,
        context: &[UrlId],
        current: UrlId,
        out: &mut Vec<Prediction>,
        usage: &mut PredictUsage,
    ) {
        let index = &self.index;
        let len = context.len();
        let longest = len.min(self.cfg.max_order).min(usize::from(u8::MAX));
        let mut hashes = ContextHashes::new();
        hashes.compute(context, longest);
        for l in (1..=longest).rev() {
            let suffix = &context[len - l..];
            let key = bucket_key(l, hashes.suffix_hash(l));
            let Some(g) = index.group_by_key(key) else {
                continue;
            };
            match g {
                WindowGroup::Derived(row) => {
                    let row = row.0;
                    if frozen.match_top(row, suffix).is_none() {
                        continue; // a hash collision: the row spells another window
                    }
                    // The build fitted the row's counts in 32 bits, as a
                    // stored group's, so these quotients are its quotients.
                    let total = frozen.count(row);
                    if total == 0 {
                        continue;
                    }
                    let total = total as f64;
                    let children = frozen.children(row);
                    usage.branch_preds += u64::from(children.end - children.start);
                    for child in children {
                        out.push(Prediction::new(
                            frozen.url(child),
                            frozen.count(child) as f64 / total,
                        ));
                    }
                }
                WindowGroup::Clean {
                    members,
                    total,
                    votes,
                } => {
                    if frozen.match_top(members[0].0, suffix).is_none() {
                        continue; // clean bucket, so no node spells this suffix
                    }
                    if total == 0 {
                        continue;
                    }
                    for &(url, count) in votes {
                        out.push(Prediction::new(url, f64::from(count) / f64::from(total)));
                    }
                    usage.branch_preds += votes.len() as u64;
                }
                WindowGroup::Dirty { members } => {
                    if Self::vote_members(frozen, suffix, members, out, usage) {
                        usage.index_fallback += 1;
                        break;
                    }
                    continue;
                }
            }
            usage.used_groups.push(key);
            usage.index_fast += 1;
            break;
        }

        // Additional predictions from the special links when the current
        // click is a root (§3.4 rule 3, §4.1). A link's probability is the
        // fraction of the branch's sessions in which the duplicated popular
        // URL was visited later on — the "possibility" that pushing it now
        // pays off before the session ends. On a home-oriented site the top
        // entry pages clear the 0.25 policy threshold this way; on a site
        // without a popular anchor they do not, and the channel stays quiet.
        if let Some(root) = frozen.root(current) {
            let root_count = frozen.count(root);
            if root_count > 0 {
                let mut any = false;
                for id in frozen.links_of(current) {
                    out.push(Prediction::new(
                        frozen.url(id),
                        frozen.count(id) as f64 / root_count as f64,
                    ));
                    usage.used_nodes.push(NodeId(id));
                    usage.link_preds += 1;
                    any = true;
                }
                if any {
                    usage.used_nodes.push(NodeId(root));
                }
            }
        }

        rank_predictions(out, usize::MAX);
    }

    /// Serializes the finalized model (arena, popularity table, config)
    /// so a server can persist it across restarts.
    pub fn to_snapshot(&self) -> PbSnapshot {
        PbSnapshot {
            tree: self.store.image(),
            pop: self.pop.clone(),
            cfg: self.cfg,
        }
    }

    /// Restores a finalized model from a snapshot: the arena is rebuilt
    /// directly from the image, then indexed.
    pub fn from_snapshot(snap: &PbSnapshot) -> Result<Self, SnapshotError> {
        let arena = FrozenTree::from_snapshot(&snap.tree)?;
        let index = ContextIndex::windows(&arena, snap.cfg.max_order)?;
        Ok(Self {
            store: NodeStore::loaded(arena),
            pop: snap.pop.clone(),
            cfg: snap.cfg,
            prune_report: None,
            emitted_link_preds: 0,
            emitted_branch_preds: 0,
            index,
        })
    }

    /// Corruption hook for the audit adversarial harness: swaps in a
    /// (possibly forged) popularity table without any rederivation.
    #[doc(hidden)]
    pub fn set_popularity_for_audit(&mut self, pop: crate::popularity::PopularityTable) {
        self.pop = pop;
    }

    /// Corruption hook for the audit adversarial harness: skews one
    /// precomputed fingerprint-bucket vote aggregate in place, simulating a
    /// stale index (the bug class [`crate::verify`]'s index check exists
    /// for). Returns false when the index has no live aggregate to skew.
    /// Not part of the public API.
    #[doc(hidden)]
    pub fn skew_index_aggregate_for_audit(&mut self) -> bool {
        self.index.skew_group_total()
    }

    /// Corruption hook for the audit adversarial harness: points one
    /// one-member fingerprint group at a different arena row, simulating
    /// an index whose derived groups drifted from the arena. Returns false
    /// when the index has no one-member group. Not part of the public API.
    #[doc(hidden)]
    pub fn repoint_derived_index_group_for_audit(&mut self) -> bool {
        let rows = self.frozen().map_or(0, FrozenTree::rows);
        self.index.repoint_derived_group(rows)
    }
}

/// A serializable image of a finalized [`PbPpm`] model.
#[derive(Debug, Clone)]
pub struct PbSnapshot {
    /// The frozen arena's rows.
    pub tree: TreeSnapshot,
    /// The frozen popularity table the model was built with.
    pub pop: PopularityTable,
    /// Construction parameters.
    pub cfg: PbConfig,
}

impl Predictor for PbPpm {
    fn kind(&self) -> ModelKind {
        ModelKind::Pb
    }

    fn train_session(&mut self, session: &[UrlId]) {
        let (pop, cfg) = (&self.pop, &self.cfg);
        self.store
            .train_session(session, |s, out| emit_session(pop, cfg, s, out));
    }

    /// Counts the paths into the arena that replaces them, applying the
    /// paper's post-build space optimizations (relative access probability
    /// cut and absolute count cut) on the way, and indexes the arena.
    fn finalize(&mut self) {
        let Some((arena, report)) = self.store.finalize(&self.cfg.prune) else {
            return;
        };
        self.prune_report = Some(report);
        self.index = match ContextIndex::windows(arena, self.cfg.max_order) {
            Ok(index) => index,
            // Trained counts cannot overflow it: that takes 2^32
            // sessions through one window.
            Err(e) => panic!("{e}"),
        };
        if pbppm_obs::ENABLED {
            self.publish_storage_gauges();
        }
        crate::verify::runtime_audit(&crate::verify::ModelRef::Pb(self), "PbPpm::finalize");
    }

    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage) {
        out.clear();
        let Some(&current) = context.last() else {
            return;
        };
        if let Some(frozen) = self.frozen() {
            self.predict_via_index(frozen, context, current, out, usage);
        }
    }

    fn apply_usage(&mut self, usage: &PredictUsage) {
        self.emitted_branch_preds += usage.branch_preds;
        self.emitted_link_preds += usage.link_preds;
        let Some((arena, used)) = self.store.usage_marks() else {
            return;
        };
        for &id in &usage.used_paths {
            arena.mark_path(used, id.0);
        }
        for &id in &usage.used_nodes {
            mark_row(used, id.0);
        }
        if !usage.used_groups.is_empty() {
            // Resolve deferred group references back to node flags. Marking
            // is idempotent, so each distinct bucket needs resolving only
            // once — an eval pass hits the same popular buckets thousands
            // of times.
            let mut groups = usage.used_groups.clone();
            groups.sort_unstable();
            groups.dedup();
            for &key in &groups {
                let Some(g) = self.index.group_by_key(key) else {
                    continue;
                };
                for &id in g.members() {
                    if arena.has_children(id.0) {
                        arena.mark_path(used, id.0);
                        arena.mark_children(used, id.0);
                    }
                }
            }
        }
    }

    fn frozen(&self) -> Option<&FrozenTree> {
        self.store.arena()
    }

    fn node_count(&self) -> usize {
        self.store.node_count()
    }

    fn image(&self) -> Option<crate::snapshot::ModelImage> {
        Some(crate::snapshot::ModelImage::Pb(self.to_snapshot()))
    }

    fn stats(&self) -> ModelStats {
        self.store.stats().with_index(&self.index)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // tiny fixture indices

    use super::*;
    use crate::popularity::PopularityBuilder;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// Builds a popularity table where `grades[i]` is the grade of `UrlId(i)`.
    fn pop_with_grades(grades: &[u8]) -> PopularityTable {
        let mut b = PopularityBuilder::new();
        for (i, &g) in grades.iter().enumerate() {
            // Counts chosen so that with max = 1000 each URL lands in the
            // wanted log10 bucket. Grade 0 = unseen (rp < 0.1% either way).
            let count = match g {
                3 => 1000,
                2 => 50,
                1 => 5,
                _ => 0,
            };
            if count > 0 {
                b.record_n(u(i as u32), count);
            }
        }
        // anchor: ensure some url has 1000 so the scale is fixed
        b.record_n(u(grades.len() as u32), 1000);
        b.build()
    }

    fn no_prune() -> PbConfig {
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        }
    }

    /// The paper's Figure 1 (right): PB-PPM for `A B C A' B' C'` with grades
    /// 3/2/1 and maximum height 4 keeps two branches and one special link.
    #[test]
    fn figure1_right_shape() {
        // A=0 B=1 C=2 A'=3 B'=4 C'=5
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let cfg = PbConfig {
            heights: [1, 2, 3, 4], // figure's max height 4, grade-proportional
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(pop, cfg);
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        m.finalize();
        let t = m.frozen().unwrap();
        // Roots: A (session head) and A' (grade ascent over C).
        assert_eq!(m.stats().roots, 2);
        assert!(t.root(u(0)).is_some());
        assert!(t.root(u(3)).is_some());
        assert!(t.root(u(1)).is_none(), "B must not become a root");
        // A's branch: A -> B -> C -> A' (height 4).
        assert!(t.descend(&[u(0), u(1), u(2), u(3)]).is_some());
        assert!(t.descend(&[u(0), u(1), u(2), u(3), u(4)]).is_none());
        // A''s branch: A' -> B' -> C'.
        assert!(t.descend(&[u(3), u(4), u(5)]).is_some());
        // Special link: A ~> duplicated A' (grade 3, depth 4 in A's branch).
        let links: Vec<UrlId> = t.links_of(u(0)).map(|id| t.url(id)).collect();
        assert_eq!(links, vec![u(3)]);
        // 7 branch nodes + 1 duplicated link node.
        assert_eq!(m.node_count(), 8);
    }

    #[test]
    fn branch_heights_follow_grades() {
        let pop = pop_with_grades(&[3, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut m = PbPpm::new(pop.clone(), no_prune());
        // Session of 9 URLs headed by a grade-3 URL: branch capped at 7.
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5), u(6), u(7), u(8)]);
        m.finalize();
        assert_eq!(m.stats().max_depth, 7);

        // Headed by a grade-0 URL: height 1 (the head only).
        let pop = pop_with_grades(&[0, 0, 0]);
        let mut m = PbPpm::new(pop, no_prune());
        m.train_session(&[u(0), u(1), u(2)]);
        m.finalize();
        assert_eq!(m.stats().max_depth, 1);
    }

    #[test]
    fn root_rule_only_roots_on_grade_ascents() {
        // grades: 2, 1, 1, 2, 3
        let pop = pop_with_grades(&[2, 1, 1, 2, 3]);
        let mut m = PbPpm::new(pop, no_prune());
        m.train_session(&[u(0), u(1), u(2), u(3), u(4)]);
        m.finalize();
        let t = m.frozen().unwrap();
        // Roots: 0 (head), 3 (2 > 1), 4 (3 > 2). Not 1, 2.
        assert!(t.root(u(0)).is_some());
        assert!(t.root(u(3)).is_some());
        assert!(t.root(u(4)).is_some());
        assert!(t.root(u(1)).is_none());
        assert!(t.root(u(2)).is_none());
        assert_eq!(m.stats().roots, 3);
    }

    #[test]
    fn special_links_require_distance_and_popularity() {
        // Head grade 2; sequence head, x(g2 at depth 2 - immediate), y(g3 at
        // depth 3), z(g1 at depth 4).
        let pop = pop_with_grades(&[2, 3, 3, 1]);
        let cfg = PbConfig {
            heights: [4, 4, 4, 4],
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(pop, cfg);
        // 1 is grade 3 and immediately follows the head: no link, but it
        // does become a root itself (grade ascent).
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        m.finalize();
        let t = m.frozen().unwrap();
        let links: Vec<UrlId> = t.links_of(u(0)).map(|id| t.url(id)).collect();
        // Only u(2): grade 3 at depth 3 of branch 0. u(3) is grade 1: no.
        assert_eq!(links, vec![u(2)]);
    }

    #[test]
    fn disabling_special_links_removes_them() {
        let pop = pop_with_grades(&[3, 2, 1, 3]);
        let cfg = PbConfig {
            special_links: false,
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(pop, cfg);
        m.train_session(&[u(0), u(1), u(2), u(3)]);
        m.finalize();
        assert!(m.frozen().unwrap().links_of(u(0)).is_empty());
    }

    #[test]
    fn predicts_branch_children_and_linked_duplicates() {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let cfg = PbConfig {
            heights: [1, 2, 3, 4],
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(pop, cfg);
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        m.finalize();
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        // Branch child B plus linked duplicate A'.
        let urls: Vec<UrlId> = out.iter().map(|p| p.url).collect();
        assert!(urls.contains(&u(1)));
        assert!(urls.contains(&u(3)), "special link must add A'");
    }

    #[test]
    fn link_predictions_only_fire_from_roots() {
        let pop = pop_with_grades(&[3, 2, 1, 3]);
        let mut m = PbPpm::new(pop, no_prune());
        for _ in 0..2 {
            m.train_session(&[u(0), u(1), u(2), u(3)]);
        }
        m.finalize();
        let mut out = Vec::new();
        // Context ending at u(1), which is not a root: only branch children.
        m.predict(&[u(0), u(1)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].url, u(2));
    }

    #[test]
    fn finalize_prunes_rare_branches() {
        let trained = |prune| {
            let pop = pop_with_grades(&[3, 2, 2]);
            let mut m = PbPpm::new(
                pop,
                PbConfig {
                    prune,
                    ..PbConfig::default()
                },
            );
            for _ in 0..99 {
                m.train_session(&[u(0), u(1)]);
            }
            m.train_session(&[u(0), u(2)]); // 1% of root's traffic
            m.finalize();
            m
        };
        let before = trained(PruneConfig::disabled()).node_count();
        let m = trained(PruneConfig {
            relative_threshold: Some(0.10),
            min_abs_count: None,
        });
        let report = m.prune_report().unwrap();
        assert_eq!(report.nodes_before, before);
        assert!(m.node_count() < before);
        assert_eq!(report.nodes_after, m.node_count());
        let mut out = Vec::new();
        m.predict_ro(&[u(0)], &mut out, &mut PredictUsage::default());
        assert!(out.iter().all(|p| p.url != u(2)), "pruned child gone");
    }

    #[test]
    fn repeated_training_accumulates_counts_not_nodes() {
        let trained = |times| {
            let mut m = PbPpm::new(pop_with_grades(&[3, 2, 1]), no_prune());
            for _ in 0..times {
                m.train_session(&[u(0), u(1), u(2)]);
            }
            m.finalize();
            m
        };
        let (once, m) = (trained(1), trained(11));
        assert_eq!(m.node_count(), once.node_count());
        let t = m.frozen().unwrap();
        assert_eq!(t.count(t.root(u(0)).unwrap()), 11);
    }

    #[test]
    fn unknown_url_grade_defaults_to_zero() {
        let pop = pop_with_grades(&[3]);
        let mut m = PbPpm::new(pop, no_prune());
        // u(77) was never graded: it may not root a branch mid-session
        // unless preceded by something of even lower grade.
        m.train_session(&[u(0), u(77)]);
        m.finalize();
        assert!(m.frozen().unwrap().root(u(77)).is_none());
        assert!(m.frozen().unwrap().descend(&[u(0), u(77)]).is_some());
    }

    #[test]
    fn session_restarting_same_root_does_not_double_count() {
        let pop = pop_with_grades(&[3, 0]);
        let mut m = PbPpm::new(pop, no_prune());
        // A x A x: A roots twice within one session.
        m.train_session(&[u(0), u(1), u(0), u(1)]);
        m.finalize();
        let t = m.frozen().unwrap();
        assert_eq!(t.count(t.root(u(0)).unwrap()), 2);
        // Child u(1) under A was visited twice but inserted once.
        let child = t.descend(&[u(0), u(1)]).unwrap();
        assert_eq!(t.count(child), 2);
        // Nodes: root A, child x, and the deep copy of A recorded before the
        // branch restarted (A x A). No self-link is created.
        assert_eq!(m.node_count(), 3);
        assert!(t.links_of(u(0)).is_empty());
    }

    #[test]
    fn a_link_counts_once_per_session() {
        // Grades 2, 1, 3: the grade-3 URL 2 is linked under root 0 at
        // depth 3 and again at depth 5 of one session, and roots a branch
        // of its own, which never links back to its own head.
        let pop = pop_with_grades(&[2, 1, 3]);
        let mut m = PbPpm::new(pop, no_prune());
        for _ in 0..2 {
            m.train_session(&[u(0), u(1), u(2), u(1), u(2)]);
        }
        m.finalize();
        let t = m.frozen().unwrap();
        let links: Vec<(UrlId, u64)> = t
            .links_of(u(0))
            .map(|id| (t.url(id), t.count(id)))
            .collect();
        assert_eq!(links, vec![(u(2), 2)], "one bump per session");
        assert!(t.links_of(u(2)).is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions_and_links() {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let mut m = PbPpm::new(pop, no_prune());
        for _ in 0..4 {
            m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        }
        m.finalize();
        let mut before = Vec::new();
        m.predict(&[u(0)], &mut before);
        let snap = m.to_snapshot();
        let mut back = PbPpm::from_snapshot(&snap).unwrap();
        assert_eq!(back.node_count(), m.node_count());
        let mut after = Vec::new();
        back.predict(&[u(0)], &mut after);
        assert_eq!(before, after, "branch and link predictions must survive");
    }

    /// Repeats, interior matches, special links and several same-URL
    /// occurrence nodes.
    fn scan_sessions() -> Vec<Vec<UrlId>> {
        let mut sessions = vec![vec![u(0), u(1), u(2), u(3), u(4), u(5)]; 3];
        sessions.push(vec![u(3), u(1), u(2), u(0)]);
        sessions
    }

    /// The hashed fast path must agree with the retained linear scan —
    /// here on a hand-built shape with interior matches, special links and
    /// multiple same-URL occurrence nodes (the property tests cover random
    /// traces).
    #[test]
    fn fast_path_matches_reference_scan() {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let mut m = PbPpm::new(pop, no_prune());
        let sessions = scan_sessions();
        let counts = crate::reference::PathCounts::pb(&m, &sessions);
        m.train_sessions(&sessions, 1);
        m.finalize();
        let scan = crate::reference::PbScan::new(&counts, &m);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for ctx in [
            vec![u(0)],
            vec![u(1)],
            vec![u(0), u(1)],
            vec![u(3), u(1)],
            vec![u(9), u(1)],
            vec![u(0), u(1), u(2)],
            vec![u(3), u(4), u(5)],
            vec![u(99)],
            vec![],
        ] {
            let mut usage = crate::predictor::PredictUsage::default();
            m.predict_ro(&ctx, &mut fast, &mut usage);
            scan.predict(&ctx, &mut slow);
            assert_eq!(fast, slow, "context {ctx:?}");
        }
    }

    /// Flag every fingerprint bucket dirty (as a real 64-bit collision
    /// would) and check the per-member fallback still matches the
    /// reference scan, with usage recorded per node again.
    #[test]
    fn dirty_bucket_fallback_matches_reference() {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let mut m = PbPpm::new(pop, no_prune());
        let sessions = scan_sessions();
        let counts = crate::reference::PathCounts::pb(&m, &sessions);
        m.train_sessions(&sessions, 1);
        m.finalize();
        m.index.force_dirty();
        let scan = crate::reference::PbScan::new(&counts, &m);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for ctx in [
            vec![u(0)],
            vec![u(1)],
            vec![u(0), u(1)],
            vec![u(3), u(1)],
            vec![u(9), u(1)],
            vec![u(0), u(1), u(2)],
            vec![u(3), u(4), u(5)],
            vec![u(99)],
        ] {
            let mut usage = crate::predictor::PredictUsage::default();
            m.predict_ro(&ctx, &mut fast, &mut usage);
            scan.predict(&ctx, &mut slow);
            assert_eq!(fast, slow, "context {ctx:?}");
            assert!(usage.used_groups.is_empty(), "dirty path records nodes");
        }
        let mut usage = crate::predictor::PredictUsage::default();
        m.predict_ro(&[u(0), u(1)], &mut fast, &mut usage);
        assert!(!usage.used_paths.is_empty());
    }

    /// The deferred group marking in `apply_usage` must flag the same
    /// nodes the dirty fallback flags directly.
    #[test]
    fn group_usage_marks_like_per_member_usage() {
        let build = || {
            let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
            let mut m = PbPpm::new(pop, no_prune());
            for _ in 0..3 {
                m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
            }
            m.train_session(&[u(3), u(1), u(2), u(0)]);
            m.finalize();
            m
        };
        let contexts = [
            vec![u(0)],
            vec![u(0), u(1)],
            vec![u(3), u(1)],
            vec![u(0), u(1), u(2)],
            vec![u(3), u(4), u(5)],
        ];
        let mut grouped = build();
        let mut fallback = build();
        fallback.index.force_dirty();
        let mut out = Vec::new();
        for ctx in &contexts {
            let mut usage = crate::predictor::PredictUsage::default();
            grouped.predict_ro(ctx, &mut out, &mut usage);
            grouped.apply_usage(&usage);
            let mut usage = crate::predictor::PredictUsage::default();
            fallback.predict_ro(ctx, &mut out, &mut usage);
            fallback.apply_usage(&usage);
        }
        let marks = |m: &mut PbPpm| m.store.usage_marks().map(|(_, used)| used.to_vec());
        let marked = marks(&mut grouped);
        assert!(marked.iter().flatten().any(|&w| w != 0), "contexts vote");
        assert_eq!(marked, marks(&mut fallback));
        // `force_dirty` stores every group, so only the index bytes differ.
        let stats = |m: &PbPpm| ModelStats {
            index_bytes: 0,
            ..m.stats()
        };
        assert_eq!(stats(&grouped), stats(&fallback));
    }

    /// A finalized model, its publish clone and its snapshot restore hold
    /// the same index bytes: every list is built once at its exact size.
    #[test]
    fn clone_and_restore_hold_the_same_index_bytes() {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let mut m = PbPpm::new(pop, no_prune());
        for _ in 0..3 {
            m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
        }
        m.train_session(&[u(3), u(1), u(2), u(0)]);
        m.train_session(&[u(0), u(2), u(4), u(1), u(3)]);
        m.finalize();
        let bytes = m.stats().index_bytes;
        assert!(bytes > 0);
        assert_eq!(m.clone().stats().index_bytes, bytes);
        let restored = PbPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(restored.stats().index_bytes, bytes);
    }

    #[test]
    fn empty_context_and_empty_session_are_safe() {
        let pop = pop_with_grades(&[3]);
        let mut m = PbPpm::new(pop, no_prune());
        m.train_session(&[]);
        m.finalize();
        let mut out = vec![Prediction::new(u(0), 1.0)];
        m.predict(&[], &mut out);
        assert!(out.is_empty());
    }
}
