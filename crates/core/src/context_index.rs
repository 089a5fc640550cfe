//! Hashed context matching — PB-PPM's fingerprint fast path.
//!
//! PB-PPM answers one question on every click: *which stored branch nodes
//! spell the last `ℓ` URLs of the live context?* Rule 4 saves the suffix
//! duplication of standard PPM, so the longest match must be sought at
//! interior nodes, and answering it by walking every occurrence of the
//! current URL upward is a linear occurrence scan (the reference oracle in
//! [`crate::reference`]). This module replaces that scan with a
//! rolling-hash fingerprint index:
//!
//! * every node has a polynomial **path hash** of its root-to-node URL
//!   sequence, `P(node) = P(parent)·B + h(url)` (wrapping arithmetic),
//!   computed once per build and then dropped;
//! * the hash of any *window* of `ℓ` URLs ending at a node is recovered in
//!   O(1) from two path hashes: `W = P(node) − P(ancestor_ℓ)·B^ℓ`;
//! * the live context's suffix hashes obey the same recurrence
//!   ([`ContextHashes`]), so "which nodes match the last `ℓ` clicks?"
//!   becomes one bucket lookup keyed by `(ℓ, W)`.
//!
//! A popular URL's length-1 bucket holds *every* occurrence of that URL, so
//! answering a one-click context by iterating the bucket would be the very
//! occurrence scan the index exists to replace. Each bucket therefore
//! stores a [`WindowGroup`]: its members plus their summed parent count and
//! per-successor vote totals, sub-totalled by the URL each member's stored
//! path *extends* with above the window. A clean bucket is verified against
//! the query with a single representative walk, and PB-PPM's maximality
//! exclusion becomes one subtraction instead of a per-member filter.
//! Buckets whose members genuinely disagree about the window's content (a
//! real 64-bit collision, detected at build time) are flagged dirty and
//! answered member by member. Buckets without a single voting member are
//! not stored at all: no query could get a prediction out of them.

use crate::fxhash::FxHashMap;
use crate::interner::UrlId;
use crate::tree::{NodeId, Tree};

/// Base of the rolling polynomial hash. Odd, so multiplication by it is a
/// bijection modulo 2^64 and windows of different content rarely collide.
pub const HASH_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes a URL id into a 64-bit digit for the polynomial hash
/// (splitmix64 finisher — consecutive interner ids must not hash close).
#[inline]
pub fn hash_url(url: UrlId) -> u64 {
    let mut z = u64::from(url.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds the window length into the fingerprint so a length-2 window never
/// shares a bucket with a length-3 window of the same rolling hash.
#[inline]
pub(crate) fn bucket_key(len: usize, hash: u64) -> u64 {
    hash ^ (len as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// Rolling hashes of the suffixes of a live context, reusable across calls.
///
/// After [`ContextHashes::compute`], `suffix_hash(ℓ)` equals the path hash
/// a tree branch spelling the last `ℓ` context URLs would carry.
#[derive(Debug, Clone, Default)]
pub struct ContextHashes {
    suffix: Vec<u64>,
}

impl ContextHashes {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the hashes of the suffixes of `context` up to `max_len`
    /// URLs, replacing any previous contents.
    pub fn compute(&mut self, context: &[UrlId], max_len: usize) {
        self.suffix.clear();
        let mut h = 0u64;
        let mut pow = 1u64;
        for &url in context.iter().rev().take(max_len) {
            h = h.wrapping_add(hash_url(url).wrapping_mul(pow));
            pow = pow.wrapping_mul(HASH_BASE);
            self.suffix.push(h);
        }
    }

    /// Longest suffix length available (≤ the `max_len` given to `compute`).
    pub fn max_len(&self) -> usize {
        self.suffix.len()
    }

    /// The rolling hash of the last `len` context URLs (`1 ≤ len ≤ max_len`).
    #[inline]
    pub fn suffix_hash(&self, len: usize) -> u64 {
        self.suffix[len - 1]
    }
}

/// The rolling hash of every node's root-to-node path, indexed by arena
/// slot: `P(root) = h(url)`, `P(child) = P(parent)·B + h(url)`.
///
/// Usually a single forward sweep (the arena allocates parents before
/// children); a chain walk handles out-of-order parents, possible only in
/// hand-crafted snapshots, so the result never depends on arena order.
fn path_hash_table(tree: &Tree) -> Vec<u64> {
    let n = tree.nodes.len();
    let mut hashes = vec![0u64; n];
    let mut done = vec![false; n];
    let mut chain: Vec<usize> = Vec::new();
    for start in 0..n {
        // Ascend to the nearest already-hashed ancestor (or a root)...
        let mut cur = start;
        while !done[cur] {
            chain.push(cur);
            let parent = tree.nodes[cur].parent;
            if parent.is_none() {
                break;
            }
            cur = parent.index();
        }
        // ...then fill hashes back down the collected chain.
        while let Some(i) = chain.pop() {
            let h = hash_url(tree.nodes[i].url);
            let parent = tree.nodes[i].parent;
            hashes[i] = if parent.is_none() {
                h
            } else {
                hashes[parent.index()]
                    .wrapping_mul(HASH_BASE)
                    .wrapping_add(h)
            };
            done[i] = true;
        }
    }
    hashes
}

/// A run `start..end` of one of a [`ContextIndex`]'s flat lists.
///
/// `u32` bounds keep a group small; a model with 2^32 index entries would
/// need 16 GiB for its member list alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The run from `start` to the current end of `list`.
    fn since<T>(list: &[T], start: usize) -> Self {
        let at = |n: usize| match u32::try_from(n) {
            Ok(at) => at,
            Err(_) => panic!("context index outgrew its u32 list offsets"),
        };
        Span {
            start: at(start),
            end: at(list.len()),
        }
    }

    #[inline]
    fn of<T>(self, list: &[T]) -> &[T] {
        &list[self.start as usize..self.end as usize]
    }
}

/// One fingerprint bucket: the nodes filed under it and their precomputed
/// vote aggregates, as runs of the index's flat lists.
///
/// All members of a clean bucket spell the same window of URLs, so the
/// answer to "the context's longest match is this window — what do its
/// occurrences predict?" is the same for every query and can be summed
/// once at build time. Voters are sub-grouped by their **extension** — the
/// URL their stored path continues with *above* the window (`None` when
/// the window already starts at a branch root) — because PB-PPM's grouping
/// excludes members whose match would extend to a longer context suffix:
/// at query time that exclusion is a subtraction of one sub-group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowGroup {
    /// Every node filed under the bucket, in arena order. The first is
    /// the representative: one upward walk against it verifies a clean
    /// bucket's content against the query suffix.
    pub(crate) members: Span,
    /// Per-successor vote totals over all voting members, sorted by URL.
    pub(crate) votes: Span,
    /// Sub-aggregates per extension URL, sorted by extension.
    pub(crate) subs: Span,
    /// Summed count of all members that have alive children (the group's
    /// vote denominator when nothing is excluded).
    pub(crate) total: u64,
    /// The window length the bucket was filed under.
    pub(crate) len: u8,
    /// Build-time hash collision: members disagree about the window's
    /// content, so queries must verify and aggregate member by member and
    /// the aggregates stay empty.
    pub(crate) dirty: bool,
}

/// The slice of a [`WindowGroup`] contributed by the voters sharing one
/// extension URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubGroup {
    /// URL the voters' stored paths continue with above the window;
    /// `None` when the window starts at a branch root (never excluded).
    pub(crate) ext: Option<UrlId>,
    /// Summed count of this sub-group's voters.
    pub(crate) total: u64,
    /// Per-successor vote totals, sorted by URL (a subset of the group's).
    pub(crate) votes: Span,
}

/// The URL a stored path continues with above the length-`len` window
/// ending at `node` (`None` when the window starts at a branch root). This
/// is the key a voter's [`SubGroup`] is filed under.
pub(crate) fn extension(tree: &Tree, node: NodeId, len: usize) -> Option<UrlId> {
    let mut top = node;
    for _ in 1..len {
        top = tree.node(top).parent;
    }
    let above = tree.node(top).parent;
    (!above.is_none()).then(|| tree.node(above).url)
}

/// True when the length-`len` windows ending at `a` and `b` spell the same
/// URLs. Both nodes must be at depth ≥ `len` (guaranteed for filed window
/// entries).
fn same_window(tree: &Tree, a: NodeId, b: NodeId, len: usize) -> bool {
    let (mut x, mut y) = (a, b);
    for step in 0..len {
        if tree.node(x).url != tree.node(y).url {
            return false;
        }
        if step + 1 < len {
            x = tree.node(x).parent;
            y = tree.node(y).parent;
        }
    }
    true
}

/// Bucket-occupancy summary of a [`ContextIndex`]
/// (see [`ContextIndex::occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexOccupancy {
    /// Distinct `(window length, hash)` buckets.
    pub buckets: usize,
    /// Entries in the fullest bucket.
    pub max_bucket: usize,
    /// Groups whose members collided (queried member by member instead of
    /// via the precomputed aggregate).
    pub dirty_groups: usize,
}

/// A bucket under construction: the window length plus every member node
/// with its extension URL.
type RawBucket = (usize, Vec<(NodeId, Option<UrlId>)>);

/// Sorts `(url, count)` votes by URL and sums the counts of equal URLs.
fn sum_votes(votes: &mut Vec<(UrlId, u64)>) {
    votes.sort_unstable_by_key(|v| v.0);
    votes.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// Fingerprint → [`WindowGroup`] index over a [`Tree`], keyed by
/// `(window length, rolling window hash)`.
///
/// Built once per finalize from the tree; afterwards it is immutable and
/// lookups take `&self`, which is what lets the evaluation engine share
/// one model across worker threads. The groups' members, votes and
/// sub-aggregates live in three flat boxed slices, so the whole index is
/// a handful of exact-size allocations: a finalized model, its publish
/// clone and its snapshot restore hold the same bytes.
#[derive(Debug, Clone, Default)]
pub struct ContextIndex {
    pub(crate) groups: FxHashMap<u64, WindowGroup>,
    members: Box<[NodeId]>,
    votes: Box<[(UrlId, u64)]>,
    subs: Box<[SubGroup]>,
}

impl ContextIndex {
    /// Builds the all-windows index: every alive branch node is filed under
    /// each suffix window of its upward path, up to `max_order` URLs, and
    /// every bucket with at least one voting member gets its aggregates
    /// precomputed.
    pub fn windows(tree: &Tree, max_order: usize) -> Self {
        let hashes = path_hash_table(tree);
        // Phase 1: file every (node, window) entry, remembering the window
        // length and the member's extension URL per bucket.
        let mut raw: FxHashMap<u64, RawBucket> = FxHashMap::default();
        for id in tree.iter_alive() {
            let node = tree.node(id);
            if node.link_dup {
                continue;
            }
            let p_node = hashes[id.index()];
            let max_len = usize::from(node.depth).min(max_order);
            let mut anc = id;
            let mut pow = 1u64;
            for len in 1..=max_len {
                pow = pow.wrapping_mul(HASH_BASE);
                let parent = tree.node(anc).parent;
                let (above, ext) = if parent.is_none() {
                    (0, None)
                } else {
                    (hashes[parent.index()], Some(tree.node(parent).url))
                };
                let hash = p_node.wrapping_sub(above.wrapping_mul(pow));
                raw.entry(bucket_key(len, hash))
                    .or_insert_with(|| (len, Vec::new()))
                    .1
                    .push((id, ext));
                if parent.is_none() {
                    break;
                }
                anc = parent;
            }
        }
        // Phase 2: aggregate each bucket that has a voter into its group.
        let mut built: Vec<(u64, WindowGroup)> = Vec::new();
        let (mut members, mut votes, mut subs) = (Vec::new(), Vec::new(), Vec::new());
        let mut voters: Vec<(Option<UrlId>, NodeId)> = Vec::new();
        let mut tally: Vec<(UrlId, u64)> = Vec::new();
        for (key, (len, bucket)) in raw {
            voters.clear();
            voters.extend(
                bucket
                    .iter()
                    .filter(|&&(m, _)| tree.children_of(m).next().is_some())
                    .map(|&(m, ext)| (ext, m)),
            );
            if voters.is_empty() {
                continue; // no query could get a prediction out of it
            }
            let rep = bucket[0].0;
            let dirty = bucket
                .iter()
                .skip(1)
                .any(|&(m, _)| !same_window(tree, rep, m, len));
            let member_start = members.len();
            members.extend(bucket.iter().map(|&(m, _)| m));
            let (sub_start, vote_start) = (subs.len(), votes.len());
            let mut total = 0;
            if !dirty {
                voters.sort_by_key(|v| v.0);
                let mut run = 0;
                while run < voters.len() {
                    let ext = voters[run].0;
                    let (mut sub_total, start) = (0, votes.len());
                    tally.clear();
                    while run < voters.len() && voters[run].0 == ext {
                        let m = voters[run].1;
                        sub_total += tree.node(m).count;
                        tally.extend(tree.children_of(m).map(|(url, _, count)| (url, count)));
                        run += 1;
                    }
                    sum_votes(&mut tally);
                    votes.extend_from_slice(&tally);
                    subs.push(SubGroup {
                        ext,
                        total: sub_total,
                        votes: Span::since(&votes, start),
                    });
                    total += sub_total;
                }
                tally.clear();
                tally.extend_from_slice(&votes[vote_start..]);
                sum_votes(&mut tally);
            }
            let group_votes = votes.len();
            votes.extend_from_slice(&tally);
            tally.clear();
            built.push((
                key,
                WindowGroup {
                    members: Span::since(&members, member_start),
                    votes: Span::since(&votes, group_votes),
                    subs: Span::since(&subs, sub_start),
                    total,
                    // Windows are at most a node depth long; depths are u8.
                    len: u8::try_from(len).unwrap_or(u8::MAX),
                    dirty,
                },
            ));
        }
        // Sized once, so a rebuild, a clone and a snapshot restore of the
        // same tree all hold the same table.
        let mut groups = FxHashMap::with_capacity_and_hasher(built.len(), Default::default());
        groups.extend(built);
        ContextIndex {
            groups,
            members: members.into_boxed_slice(),
            votes: votes.into_boxed_slice(),
            subs: subs.into_boxed_slice(),
        }
    }

    /// The group for the `(len, hash)` bucket, with the bucket key it is
    /// filed under.
    #[inline]
    pub(crate) fn group(&self, len: usize, hash: u64) -> Option<(u64, &WindowGroup)> {
        let key = bucket_key(len, hash);
        self.groups.get(&key).map(|g| (key, g))
    }

    /// Resolves a bucket key recorded in a
    /// [`crate::predictor::PredictUsage`] back to its group.
    #[inline]
    pub(crate) fn group_by_key(&self, key: u64) -> Option<&WindowGroup> {
        self.groups.get(&key)
    }

    /// Every node filed under `g`, in arena order; the first is the
    /// representative.
    #[inline]
    pub(crate) fn members(&self, g: &WindowGroup) -> &[NodeId] {
        g.members.of(&self.members)
    }

    /// The `(url, count)` votes of a group or sub-group.
    #[inline]
    pub(crate) fn votes(&self, span: Span) -> &[(UrlId, u64)] {
        span.of(&self.votes)
    }

    /// The per-extension sub-aggregates of `g`, sorted by extension.
    #[inline]
    pub(crate) fn subs(&self, g: &WindowGroup) -> &[SubGroup] {
        g.subs.of(&self.subs)
    }

    /// The sub-group of `g` whose voters extend the window with `ext`.
    #[inline]
    pub(crate) fn sub_for(&self, g: &WindowGroup, ext: UrlId) -> Option<&SubGroup> {
        let subs = self.subs(g);
        subs.binary_search_by_key(&Some(ext), |s| s.ext)
            .ok()
            .map(|i| &subs[i])
    }

    /// Test hook: flags every group dirty, forcing queries down the
    /// per-member fallback path.
    #[cfg(test)]
    pub(crate) fn force_dirty(&mut self) {
        for g in self.groups.values_mut() {
            g.dirty = true;
        }
    }

    /// Total (node, window) entries stored.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Resident heap bytes (for storage reporting alongside
    /// [`Tree::memory_bytes`]): the table at capacity plus the flat lists.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.groups.capacity() * size_of::<(u64, WindowGroup)>()
            + self.members.len() * size_of::<NodeId>()
            + self.votes.len() * size_of::<(UrlId, u64)>()
            + self.subs.len() * size_of::<SubGroup>()
    }

    /// Bucket occupancy for storage/telemetry gauges. A dirty group falls
    /// back to per-member verification at query time, so the dirty count is
    /// the structural ceiling on slow-bucket lookups.
    pub fn occupancy(&self) -> IndexOccupancy {
        IndexOccupancy {
            buckets: self.groups.len(),
            max_bucket: self
                .groups
                .values()
                .map(|g| self.members(g).len())
                .max()
                .unwrap_or(0),
            dirty_groups: self.groups.values().filter(|g| g.dirty).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn chain_tree(paths: &[&[u32]]) -> Tree {
        let mut t = Tree::new();
        for p in paths {
            let path: Vec<UrlId> = p.iter().map(|&n| u(n)).collect();
            t.insert_path(&path, usize::MAX);
        }
        t
    }

    #[test]
    fn suffix_hash_matches_path_hash_of_equal_branch() {
        // A branch spelling [7, 3, 9] must carry the same hash as the
        // length-3 suffix of any context ending in ... 7 3 9.
        let t = chain_tree(&[&[7, 3, 9]]);
        let node = t.descend(&[u(7), u(3), u(9)]).unwrap();
        let mut h = ContextHashes::new();
        h.compute(&[u(1), u(7), u(3), u(9)], 3);
        assert_eq!(h.suffix_hash(3), path_hash_table(&t)[node.index()]);
    }

    #[test]
    fn window_entries_cover_interior_suffixes() {
        let t = chain_tree(&[&[1, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8);
        // Node "3" is filed under windows [3], [2,3], [1,2,3].
        let node3 = t.descend(&[u(1), u(2), u(3)]).unwrap();
        let mut h = ContextHashes::new();
        h.compute(&[u(2), u(3)], 2);
        let (_, g) = idx.group(2, h.suffix_hash(2)).unwrap();
        assert_eq!(idx.members(g), &[node3]);
        assert_eq!(usize::from(g.len), 2);
        h.compute(&[u(3)], 1);
        assert!(idx.group(1, h.suffix_hash(1)).is_some());
        // The leaf "4" votes for nothing, so its four windows are not
        // stored: 1 + 2 + 3 entries for the voting nodes 1, 2 and 3.
        h.compute(&[u(3), u(4)], 2);
        assert!(idx.group(2, h.suffix_hash(2)).is_none());
        assert_eq!(idx.len(), 1 + 2 + 3);
    }

    #[test]
    fn window_groups_aggregate_votes_by_extension() {
        // Two branches share the interior window [2, 3]; its group sums
        // both "3" nodes and keeps one sub-aggregate per extension URL.
        let t = chain_tree(&[&[1, 2, 3, 4], &[5, 2, 3, 6]]);
        let idx = ContextIndex::windows(&t, 8);
        let mut h = ContextHashes::new();
        h.compute(&[u(2), u(3)], 2);
        let (_, g) = idx.group(2, h.suffix_hash(2)).unwrap();
        assert!(!g.dirty);
        assert_eq!(idx.members(g).len(), 2);
        assert_eq!(g.total, 2);
        assert_eq!(idx.votes(g.votes), &[(u(4), 1), (u(6), 1)]);
        assert_eq!(idx.subs(g).len(), 2);
        let s1 = idx.sub_for(g, u(1)).unwrap();
        assert_eq!((s1.total, idx.votes(s1.votes)), (1, &[(u(4), 1)][..]));
        assert!(idx.sub_for(g, u(9)).is_none());
        for &m in idx.members(g) {
            assert!(idx.sub_for(g, extension(&t, m, 2).unwrap()).is_some());
        }
        // A window starting at a branch root has no extension.
        h.compute(&[u(1), u(2)], 2);
        let (_, g) = idx.group(2, h.suffix_hash(2)).unwrap();
        assert_eq!(idx.subs(g).len(), 1);
        assert_eq!(idx.subs(g)[0].ext, None);
        assert_eq!(extension(&t, idx.members(g)[0], 2), None);
        // Leaves are never voters, and a leaf-only bucket is not stored.
        h.compute(&[u(4)], 1);
        assert!(idx.group(1, h.suffix_hash(1)).is_none());
    }

    #[test]
    fn clone_holds_the_same_bytes() {
        let t = chain_tree(&[&[1, 2, 3, 4], &[5, 2, 3, 6], &[2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8);
        assert_eq!(idx.clone().memory_bytes(), idx.memory_bytes());
        assert_eq!(
            ContextIndex::windows(&t, 8).memory_bytes(),
            idx.memory_bytes()
        );
    }
}
