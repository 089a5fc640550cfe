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
//! exactly the reference's group, and it votes whole. A window whose
//! voters are its one-shorter suffix's is not stored, so the descent
//! misses it and votes one length shorter, with the same voters.

use crate::context_index::{bucket_key, ContextHashes, ContextIndex, WindowGroup};
use crate::frozen::{mark_row, Emit, FrozenTree, NodeId, NodeStore, SnapshotError, TreeSnapshot};
use crate::interner::UrlId;
use crate::popularity::{Grade, PopularityTable};
use crate::predictor::{rank_predictions, ModelKind, PredictUsage, Prediction, Predictor};
use crate::prune::{PruneConfig, PruneReport};
use crate::stats::ModelStats;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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
        reg.gauge("core.index.dropped_groups", &label)
            .set(occ.dropped_groups as u64);
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
                    for (child, count) in children.clone().zip(frozen.counts_in(children)) {
                        out.push(Prediction::new(frozen.url(child), count as f64 / total));
                    }
                }
                WindowGroup::Clean { rep, total, votes } => {
                    if frozen.match_top(rep.0, suffix).is_none() {
                        continue; // clean bucket, so no node spells this suffix
                    }
                    if total == 0 {
                        continue;
                    }
                    for (url, count) in votes.iter() {
                        out.push(Prediction::new(url, f64::from(count) / f64::from(total)));
                    }
                    usage.branch_preds += votes.len() as u64;
                }
                WindowGroup::Dirty { members } => {
                    if Self::vote_members(frozen, suffix, &members, out, usage) {
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
                let links = frozen.root_links(root);
                for (id, count) in links.clone().zip(frozen.counts_in(links)) {
                    out.push(Prediction::new(
                        frozen.url(id),
                        count as f64 / root_count as f64,
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

    /// The arena and its path-usage bitset with every flagged group's
    /// voters marked: one filing pass over the arena when a group voted
    /// since the model was built, none otherwise. `None` while training.
    fn used_rows(&self) -> Option<(&FrozenTree, Cow<'_, [u64]>)> {
        let (arena, usage) = self.store.usage()?;
        if usage.groups.is_empty() {
            return Some((arena, Cow::Borrowed(&usage.rows)));
        }
        let mut rows = usage.rows.clone();
        self.index
            .mark_groups(arena, self.cfg.max_order, &usage.groups, &mut rows);
        Some((arena, Cow::Owned(rows)))
    }

    /// Heap bytes the usage record holds: what `apply_usage` has
    /// allocated, beside the arena and the index. A model that only
    /// serves (`predict_ro`) holds none.
    pub fn usage_bytes(&self) -> usize {
        self.store
            .usage()
            .map_or(0, |(_, usage)| usage.heap_bytes())
    }

    /// Corruption hook for the audit adversarial harness: swaps in a
    /// (possibly forged) popularity table without any rederivation.
    #[doc(hidden)]
    pub fn set_popularity_for_audit(&mut self, pop: crate::popularity::PopularityTable) {
        self.pop = pop;
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

    /// Marks paths and rows at once. A voting group is only flagged: a
    /// clean group stores no member list, so its voters are marked when
    /// path usage is read (`stats`), each flagged group once however often
    /// it voted and however many calls recorded it.
    fn apply_usage(&mut self, usage: &PredictUsage) {
        self.emitted_branch_preds += usage.branch_preds;
        self.emitted_link_preds += usage.link_preds;
        let Some((arena, marks)) = self.store.usage_marks() else {
            return;
        };
        for &id in &usage.used_paths {
            arena.mark_path(&mut marks.rows, id.0);
        }
        for &id in &usage.used_nodes {
            mark_row(&mut marks.rows, id.0);
        }
        let groups = self.index.group_count();
        for &key in &usage.used_groups {
            if let Some(at) = self.index.position(key) {
                marks.flag_group(at, groups);
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
        self.used_rows()
            .map_or_else(ModelStats::default, |(arena, rows)| {
                ModelStats::of_arena(arena, &rows)
            })
            .with_index(&self.index)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // tiny fixture indices

    use super::*;
    use crate::popularity::PopularityBuilder;
    use proptest::prelude::*;

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
        m.index = ContextIndex::all_dirty(m.frozen().unwrap(), m.cfg.max_order);
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
        fallback.index = ContextIndex::all_dirty(fallback.frozen().unwrap(), 8);
        let mut out = Vec::new();
        for ctx in &contexts {
            let mut usage = crate::predictor::PredictUsage::default();
            grouped.predict_ro(ctx, &mut out, &mut usage);
            grouped.apply_usage(&usage);
            let mut usage = crate::predictor::PredictUsage::default();
            fallback.predict_ro(ctx, &mut out, &mut usage);
            fallback.apply_usage(&usage);
        }
        let marks = |m: &PbPpm| m.used_rows().map(|(_, rows)| rows.into_owned());
        let marked = marks(&grouped);
        assert!(marked.iter().flatten().any(|&w| w != 0), "contexts vote");
        assert_eq!(marked, marks(&fallback));
        // `all_dirty` stores every group, so only the index bytes differ.
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

    /// Random sessions over 9 URLs, their URLs' access counts and a
    /// `max_order`.
    fn arb_model() -> impl Strategy<Value = (Vec<Vec<UrlId>>, Vec<u64>, usize)> {
        (
            prop::collection::vec(
                prop::collection::vec((0..9u32).prop_map(UrlId), 1..8),
                1..18,
            ),
            prop::collection::vec(0u64..2000, 9),
            1usize..=9,
        )
    }

    /// A finalized model of `sessions`, with the reference oracle's counts.
    fn model_and_counts(
        sessions: &[Vec<UrlId>],
        counts: Vec<u64>,
        max_order: usize,
    ) -> (PbPpm, crate::reference::PathCounts) {
        let pop = PopularityTable::from_counts(counts);
        let mut m = PbPpm::new(
            pop,
            PbConfig {
                max_order,
                ..PbConfig::default()
            },
        );
        let path_counts = crate::reference::PathCounts::pb(&m, sessions);
        m.train_sessions(sessions, 1);
        m.finalize();
        (m, path_counts)
    }

    /// Every prefix of every session, an unseen URL, and every session
    /// back to back cycled past the order cap.
    fn contexts_of(sessions: &[Vec<UrlId>], max_order: usize) -> Vec<Vec<UrlId>> {
        let mut contexts: Vec<Vec<UrlId>> = sessions
            .iter()
            .flat_map(|s| (1..=s.len()).map(|i| s[..i].to_vec()))
            .collect();
        contexts.push(vec![u(100), sessions[0][0]]);
        contexts.push(
            sessions
                .iter()
                .flatten()
                .copied()
                .cycle()
                .take(max_order + 3)
                .collect(),
        );
        contexts
    }

    /// The usage a model's `used_rows` reads: `(used_paths, total_paths)`
    /// and the marked rows.
    fn path_usage(m: &PbPpm) -> (usize, usize, Vec<u64>) {
        let s = m.stats();
        let rows = m.used_rows().map(|(_, rows)| rows.into_owned());
        (s.used_paths, s.total_paths, rows.unwrap_or_default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// With 4 stored key bits, keys collide often and merge into dirty
        /// groups. Each such group lists every row once (a row filed under
        /// two colliding window lengths included, so it votes once), and
        /// the model answers exactly like the full-width index and the
        /// reference occurrence scan.
        #[test]
        fn colliding_keys_answer_like_the_full_index(model in arb_model()) {
            let (sessions, counts, max_order) = model;
            let (full, path_counts) = model_and_counts(&sessions, counts, max_order);
            let scan = crate::reference::PbScan::new(&path_counts, &full);
            let mut narrow = full.clone();
            narrow.index = ContextIndex::with_key_bits(full.frozen().unwrap(), max_order, 4).unwrap();
            for (_, g) in narrow.index.groups() {
                if let WindowGroup::Dirty { members } = g {
                    prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "{:?}", members);
                }
            }
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            let mut usage = PredictUsage::default();
            for ctx in contexts_of(&sessions, max_order) {
                full.predict_ro(&ctx, &mut a, &mut usage);
                narrow.predict_ro(&ctx, &mut b, &mut usage);
                scan.predict(&ctx, &mut c);
                prop_assert_eq!(&a, &c, "full index on {:?}", ctx);
                prop_assert_eq!(&b, &c, "4-bit keys on {:?}", ctx);
            }
        }

        /// Path usage read after deferred group marking equals the eager
        /// per-member marking of an all-dirty index, whether the usage came
        /// in one `predict_many` batch or one `predict` call per context,
        /// each context predicted twice.
        #[test]
        fn deferred_group_usage_reads_like_eager_marking(model in arb_model()) {
            let (sessions, counts, max_order) = model;
            let (mut batched, _) = model_and_counts(&sessions, counts, max_order);
            let mut per_call = batched.clone();
            let mut eager = batched.clone();
            eager.index = ContextIndex::all_dirty(batched.frozen().unwrap(), max_order);
            let contexts = contexts_of(&sessions, max_order);
            let refs: Vec<&[UrlId]> = contexts.iter().map(Vec::as_slice).collect();
            batched.predict_many(&refs, &mut Vec::new());
            let mut out = Vec::new();
            for ctx in &contexts {
                for _ in 0..2 {
                    per_call.predict(ctx, &mut out);
                    eager.predict(ctx, &mut out);
                }
            }
            let expected = path_usage(&eager);
            prop_assert_eq!(path_usage(&batched), expected.clone());
            prop_assert_eq!(path_usage(&per_call), expected);
        }

        /// Dropping the windows whose voters are their one-shorter
        /// suffix's moves no answer and no usage mark, at full, narrow and
        /// no stored key bits: predictions equal the all-voting-windows
        /// oracle's and the reference scan's, and path usage the oracle's.
        /// Every voting window the index has no group for was dropped
        /// alone under its stored bits, and its nearest shorter suffix with
        /// a group has the same voters.
        #[test]
        fn dropped_windows_answer_like_every_voting_window(model in arb_model()) {
            let (sessions, counts, max_order) = model;
            let (m, path_counts) = model_and_counts(&sessions, counts, max_order);
            let scan = crate::reference::PbScan::new(&path_counts, &m);
            let contexts = contexts_of(&sessions, max_order);
            let arena = m.frozen().unwrap();
            for key_bits in [16, 4, 0] {
                let (mut dropping, mut oracle) = (m.clone(), m.clone());
                dropping.index = ContextIndex::with_key_bits(arena, max_order, key_bits).unwrap();
                oracle.index = ContextIndex::all_voting(arena, max_order, key_bits);
                prop_assert_eq!(oracle.index.occupancy().dropped_groups, 0);
                let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
                for ctx in &contexts {
                    dropping.predict(ctx, &mut a);
                    oracle.predict(ctx, &mut b);
                    scan.predict(ctx, &mut c);
                    prop_assert_eq!(&a, &b, "{} key bits on {:?}", key_bits, ctx);
                    prop_assert_eq!(&a, &c, "{} key bits on {:?}", key_bits, ctx);
                }
                prop_assert_eq!(path_usage(&dropping), path_usage(&oracle));

                let index = &dropping.index;
                let mut dropped = std::collections::BTreeSet::new();
                for window in voting_windows(arena, max_order) {
                    if index.position(window_key(&window)).is_some() {
                        continue;
                    }
                    dropped.insert(window_key(&window));
                    let kept = (1..window.len())
                        .map(|skip| &window[skip..])
                        .find(|s| index.position(window_key(s)).is_some());
                    prop_assert!(kept.is_some(), "{:?} has no kept suffix", window);
                    let kept = kept.unwrap();
                    prop_assert_eq!(voters(arena, &window), voters(arena, kept), "{:?}", window);
                }
                // A dropped window sharing its stored bits with a stored
                // group would find that group and go uncounted here.
                prop_assert_eq!(dropped.len(), index.occupancy().dropped_groups);
            }
        }
    }

    /// The fingerprint a lookup of `window` reads.
    fn window_key(window: &[UrlId]) -> u64 {
        let mut h = ContextHashes::new();
        h.compute(window, window.len());
        bucket_key(window.len(), h.suffix_hash(window.len()))
    }

    /// Every window a voting row of `arena` spells, up to `max_order`
    /// URLs, oldest URL first.
    fn voting_windows(arena: &FrozenTree, max_order: usize) -> Vec<Vec<UrlId>> {
        let mut windows = Vec::new();
        for row in (0..arena.first_link_row()).filter(|&r| arena.has_children(r)) {
            let mut window = Vec::new();
            let mut at = row;
            while at != crate::frozen::NO_NODE && window.len() < max_order {
                window.insert(0, arena.url(at));
                windows.push(window.clone());
                at = arena.parent(at);
            }
        }
        windows
    }

    /// The voting rows whose upward path spells `window`.
    fn voters(arena: &FrozenTree, window: &[UrlId]) -> Vec<u32> {
        (0..arena.first_link_row())
            .filter(|&r| arena.has_children(r) && arena.match_top(r, window).is_some())
            .collect()
    }

    /// A row filed under two window lengths whose keys collide is one
    /// member of the merged group, and votes once: `[b]` is spelled by the
    /// rows under `a` and under `d`, and when the key of `[a, b]` lands in
    /// `[b]`'s group (no key bits stored, so every directory slot is one
    /// group), listing the row under `a` twice would weigh its child
    /// double.
    #[test]
    fn a_row_under_two_colliding_lengths_votes_once() {
        let mut found = 0;
        for i in 0..32u32 {
            let (a, b, c, d, e) = (i, i + 1, i + 2, i + 3, i + 4);
            let mut grades = vec![0; usize::try_from(e).unwrap() + 1];
            grades[usize::try_from(a).unwrap()] = 3;
            grades[usize::try_from(d).unwrap()] = 3;
            let mut m = PbPpm::new(pop_with_grades(&grades), no_prune());
            let sessions = vec![vec![u(a), u(b), u(c)], vec![u(d), u(b), u(e)]];
            let counts = crate::reference::PathCounts::pb(&m, &sessions);
            m.train_sessions(&sessions, 1);
            m.finalize();
            let key = |window: &[UrlId]| {
                let mut h = ContextHashes::new();
                h.compute(window, window.len());
                bucket_key(window.len(), h.suffix_hash(window.len()))
            };
            let arena = m.frozen().unwrap();
            let narrow = ContextIndex::with_key_bits(arena, 8, 0).unwrap();
            let at = narrow.position(key(&[u(b)])).unwrap();
            if narrow.position(key(&[u(a), u(b)])) != Some(at) {
                continue;
            }
            found += 1;
            let row = arena.descend(&[u(a), u(b)]).unwrap();
            let Some(WindowGroup::Dirty { members }) = narrow.group_by_key(key(&[u(b)])) else {
                panic!("rows under a and d share the group");
            };
            assert_eq!(members.iter().filter(|m| m.0 == row).count(), 1);
            let scan = crate::reference::PbScan::new(&counts, &m);
            let mut narrowed = m.clone();
            narrowed.index = narrow;
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for ctx in [vec![u(b)], vec![u(a), u(b)], vec![u(d), u(b)]] {
                narrowed.predict_ro(&ctx, &mut fast, &mut PredictUsage::default());
                scan.predict(&ctx, &mut slow);
                assert_eq!(fast, slow, "context {ctx:?}");
            }
        }
        assert!(found > 0, "some `[a, b]` key lands in `[b]`'s slot");
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
