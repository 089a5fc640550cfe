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
//! per-successor vote totals. A clean bucket is verified against the query
//! with a single representative walk. Buckets whose members genuinely
//! disagree about the window's content (a real 64-bit collision, detected
//! at build time) are flagged dirty and answered member by member. Buckets
//! without a single voting member are not stored at all: no query could
//! get a prediction out of them.
//!
//! The groups live in flat, sorted, exact-size lists (see
//! [`ContextIndex`]), built by sorting one list of `(key, node)` filings.

use crate::frozen::{FrozenTree, NO_NODE};
use crate::interner::UrlId;
use crate::tree::{NodeId, SnapshotError};

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
/// a stored branch spelling the last `ℓ` context URLs would carry.
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

/// The rolling hash of every row's root-to-node path:
/// `P(root) = h(url)`, `P(child) = P(parent)·B + h(url)`. One forward
/// sweep: a parent's row precedes its children's.
fn path_hash_table(arena: &FrozenTree) -> Vec<u64> {
    let mut hashes: Vec<u64> = Vec::with_capacity(arena.len());
    for i in 0..arena.rows() {
        let h = hash_url(arena.url(i));
        let parent = arena.parent(i);
        hashes.push(if parent == NO_NODE {
            h
        } else {
            hashes[parent as usize]
                .wrapping_mul(HASH_BASE)
                .wrapping_add(h)
        });
    }
    hashes
}

/// Narrows a list offset or a summed count to the index's 4-byte fields.
/// A trained model would need 16 GiB for its member list, or more than
/// 2^32 sessions through one window, to outgrow them; a forged snapshot's
/// counts can.
fn narrow<N: TryInto<u32>>(n: N) -> Result<u32, SnapshotError> {
    n.try_into().map_err(|_| SnapshotError::IndexOverflow)
}

/// One group's fixed fields. `heads` holds one more entry than there are
/// groups, whose offsets close the last group's runs: group `g`'s members
/// are `heads[g].members..heads[g + 1].members`, and its votes are
/// `heads[g].votes..heads[g + 1].votes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    members: u32,
    votes: u32,
    /// Summed count of all members that have alive children.
    total: u32,
    /// The window length the bucket was filed under.
    len: u8,
    /// Build-time hash collision (see [`WindowGroup::is_dirty`]).
    dirty: bool,
}

/// One fingerprint bucket: the nodes filed under it and their precomputed
/// vote aggregates, resolved from the index's flat lists.
///
/// All members of a clean bucket spell the same window of URLs, so the
/// answer to "the context's longest match is this window — what do its
/// occurrences predict?" is the same for every query and can be summed
/// once at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGroup<'a> {
    index: &'a ContextIndex,
    key: u64,
    head: &'a Head,
    /// The next group's head, whose run starts end this group's runs.
    next: &'a Head,
}

impl<'a> WindowGroup<'a> {
    /// The bucket key the group is filed under.
    #[inline]
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Every node filed under the bucket, in arena order. The first is
    /// the representative: one upward walk against it verifies a clean
    /// bucket's content against the query suffix.
    #[inline]
    pub(crate) fn members(&self) -> &'a [NodeId] {
        &self.index.members[self.head.members as usize..self.next.members as usize]
    }

    /// Summed count of all members that have alive children (the group's
    /// vote denominator).
    #[inline]
    pub(crate) fn total(&self) -> u32 {
        self.head.total
    }

    /// The window length the bucket was filed under.
    #[inline]
    pub(crate) fn window_len(&self) -> usize {
        usize::from(self.head.len)
    }

    /// Build-time hash collision: members disagree about the window's
    /// content, so queries must verify and aggregate member by member and
    /// the aggregates stay empty.
    #[inline]
    pub(crate) fn is_dirty(&self) -> bool {
        self.head.dirty
    }

    /// Per-successor vote totals over all voting members, sorted by URL.
    #[inline]
    pub(crate) fn votes(&self) -> &'a [(UrlId, u32)] {
        &self.index.votes[self.head.votes as usize..self.next.votes as usize]
    }
}

/// True when the length-`len` windows ending at `a` and `b` spell the same
/// URLs. Both nodes must be at depth ≥ `len` (guaranteed for filed window
/// entries).
fn same_window(arena: &FrozenTree, a: u32, b: u32, len: usize) -> bool {
    let (mut x, mut y) = (a, b);
    for step in 0..len {
        if arena.url(x) != arena.url(y) {
            return false;
        }
        if step + 1 < len {
            x = arena.parent(x);
            y = arena.parent(y);
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

/// One `(node, window)` filing during a build: the bucket key, the member
/// node and the window length.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    node: u32,
    len: u8,
}

/// Sorts `(url, count)` votes by URL and sums the counts of equal URLs.
fn sum_votes(votes: &mut Vec<(UrlId, u64)>) {
    votes.sort_unstable_by_key(|v| v.0);
    votes.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.saturating_add(next.1);
        }
        same
    });
}

/// Fingerprint → [`WindowGroup`] index over a [`FrozenTree`], keyed by
/// `(window length, rolling window hash)`.
///
/// Built once per finalize or load from the arena; afterwards it is immutable and
/// lookups take `&self`, which is what lets the evaluation engine share
/// one model across worker threads. The layout is flat and canonical:
///
/// * `keys` holds the group keys sorted; a radix directory on their top
///   bits narrows a lookup to a few neighbouring keys (the keys are mixed
///   64-bit hashes, so the slots fill evenly);
/// * `heads[g]` holds group `g`'s fixed fields and where its runs start in
///   `members` and `votes`; each run ends where the next group's starts;
/// * a clean group's vote run is its voters' children, summed per URL; a
///   dirty group's is empty;
/// * a vote is a `u32` URL id and a `u32` count.
///
/// Every list is one exact-size allocation, and the same arena always
/// builds the same bytes: a finalized model, its publish clone, its
/// snapshot restore and the audit's rebuild are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextIndex {
    keys: Box<[u64]>,
    /// Keys whose top bits read `p` are `keys[dir[p]..dir[p + 1]]`.
    dir: Box<[u32]>,
    /// `64 − directory bits`.
    shift: u32,
    heads: Box<[Head]>,
    members: Box<[NodeId]>,
    votes: Box<[(UrlId, u32)]>,
}

impl ContextIndex {
    /// Builds the all-windows index: every branch row is filed under each
    /// suffix window of its upward path, up to `max_order` URLs, and every
    /// bucket with at least one voting member gets its aggregates
    /// precomputed. Fails when a summed count or a list offset outgrows
    /// the index's 4-byte fields.
    pub fn windows(arena: &FrozenTree, max_order: usize) -> Result<Self, SnapshotError> {
        let hashes = path_hash_table(arena);
        // Phase 1: one flat entry per (node, window), sorted so that each
        // bucket is a run in row order.
        let mut entries: Vec<Entry> = Vec::new();
        for id in 0..arena.rows() {
            if arena.is_link_dup(id) {
                continue;
            }
            let p_node = hashes[id as usize];
            let max_len = usize::from(arena.depth(id)).min(max_order);
            let mut anc = id;
            let mut pow = 1u64;
            for len in 1..=max_len {
                pow = pow.wrapping_mul(HASH_BASE);
                let parent = arena.parent(anc);
                let above = if parent == NO_NODE {
                    0
                } else {
                    hashes[parent as usize]
                };
                let hash = p_node.wrapping_sub(above.wrapping_mul(pow));
                entries.push(Entry {
                    key: bucket_key(len, hash),
                    node: id,
                    // Windows are at most a node depth long; depths are u8.
                    len: u8::try_from(len).unwrap_or(u8::MAX),
                });
                if parent == NO_NODE {
                    break;
                }
                anc = parent;
            }
        }
        drop(hashes);
        entries.sort_unstable_by_key(|e| (e.key, e.node, e.len));

        // Phase 2: aggregate each bucket that has a voter into its group.
        let (mut keys, mut heads, mut members, mut votes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut tally: Vec<(UrlId, u64)> = Vec::new();
        let mut rest = entries.as_slice();
        while let Some(first) = rest.first() {
            let end = rest.iter().position(|e| e.key != first.key);
            let (bucket, tail) = rest.split_at(end.unwrap_or(rest.len()));
            rest = tail;
            if !bucket.iter().any(|e| arena.has_children(e.node)) {
                continue; // no query could get a prediction out of it
            }
            let len = usize::from(first.len);
            let dirty = bucket[1..]
                .iter()
                .any(|e| !same_window(arena, first.node, e.node, len));
            let mut total = 0u64;
            let start = votes.len();
            if !dirty {
                tally.clear();
                for e in bucket.iter().filter(|e| arena.has_children(e.node)) {
                    total = total.saturating_add(arena.count(e.node));
                    tally.extend(
                        arena
                            .children(e.node)
                            .iter()
                            .map(|&(url, child)| (url, arena.count(child))),
                    );
                }
                sum_votes(&mut tally);
                for &(url, count) in &tally {
                    votes.push((url, narrow(count)?));
                }
            }
            heads.push(Head {
                members: narrow(members.len())?,
                votes: narrow(start)?,
                total: narrow(total)?,
                len: first.len,
                dirty,
            });
            members.extend(bucket.iter().map(|e| NodeId(e.node)));
            keys.push(first.key);
        }
        drop(entries);
        heads.push(Head {
            members: narrow(members.len())?,
            votes: narrow(votes.len())?,
            total: 0,
            len: 0,
            dirty: false,
        });

        // About two to four keys per directory slot.
        let bits = (keys.len() / 2).max(2).ilog2();
        let shift = 64 - bits;
        let mut dir = Vec::with_capacity((1 << bits) + 1);
        let mut at = 0;
        for slot in 0..=(1u64 << bits) {
            while at < keys.len() && keys[at] >> shift < slot {
                at += 1;
            }
            dir.push(narrow(at)?);
        }
        Ok(ContextIndex {
            keys: keys.into_boxed_slice(),
            dir: dir.into_boxed_slice(),
            shift,
            heads: heads.into_boxed_slice(),
            members: members.into_boxed_slice(),
            votes: votes.into_boxed_slice(),
        })
    }

    /// The group filed under bucket key `key`.
    #[inline]
    pub(crate) fn group_by_key(&self, key: u64) -> Option<WindowGroup<'_>> {
        let slot = usize::try_from(key >> self.shift).ok()?;
        let (&lo, &hi) = (self.dir.get(slot)?, self.dir.get(slot + 1)?);
        let (lo, hi) = (lo as usize, hi as usize);
        let at = lo + self.keys[lo..hi].iter().position(|&k| k == key)?;
        Some(self.group_at(at))
    }

    /// The group stored at position `at` of `keys`.
    #[inline]
    fn group_at(&self, at: usize) -> WindowGroup<'_> {
        let pair = &self.heads[at..at + 2];
        WindowGroup {
            index: self,
            key: self.keys[at],
            head: &pair[0],
            next: &pair[1],
        }
    }

    /// The group for the `(len, hash)` bucket.
    #[inline]
    pub(crate) fn group(&self, len: usize, hash: u64) -> Option<WindowGroup<'_>> {
        self.group_by_key(bucket_key(len, hash))
    }

    /// Every group, in key order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = WindowGroup<'_>> {
        (0..self.keys.len()).map(move |at| self.group_at(at))
    }

    /// Test hook: flags every group dirty, forcing queries down the
    /// per-member fallback path.
    #[cfg(test)]
    pub(crate) fn force_dirty(&mut self) {
        for h in self.heads.iter_mut() {
            h.dirty = true;
        }
    }

    /// Corruption hook: adds one to the total of the first clean group
    /// that has one. False when there is none.
    pub(crate) fn skew_group_total(&mut self) -> bool {
        let groups = self.keys.len();
        let Some(h) = self.heads[..groups]
            .iter_mut()
            .find(|h| !h.dirty && h.total > 0)
        else {
            return false;
        };
        h.total += 1;
        true
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
    /// [`FrozenTree::heap_bytes`]): exactly what the index's lists allocate.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.keys)
            + size_of_val(&*self.dir)
            + size_of_val(&*self.heads)
            + size_of_val(&*self.members)
            + size_of_val(&*self.votes)
    }

    /// Bucket occupancy for storage/telemetry gauges. A dirty group falls
    /// back to per-member verification at query time, so the dirty count is
    /// the structural ceiling on slow-bucket lookups.
    pub fn occupancy(&self) -> IndexOccupancy {
        IndexOccupancy {
            buckets: self.keys.len(),
            max_bucket: self.groups().map(|g| g.members().len()).max().unwrap_or(0),
            dirty_groups: self.groups().filter(WindowGroup::is_dirty).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn chain_tree(paths: &[&[u32]]) -> FrozenTree {
        let mut t = crate::tree::Tree::new();
        for p in paths {
            let path: Vec<UrlId> = p.iter().map(|&n| u(n)).collect();
            t.insert_path(&path, usize::MAX);
        }
        t.freeze(None)
    }

    #[test]
    fn suffix_hash_matches_path_hash_of_equal_branch() {
        // A branch spelling [7, 3, 9] must carry the same hash as the
        // length-3 suffix of any context ending in ... 7 3 9.
        let t = chain_tree(&[&[7, 3, 9]]);
        let node = t.descend(&[u(7), u(3), u(9)]).unwrap();
        let mut h = ContextHashes::new();
        h.compute(&[u(1), u(7), u(3), u(9)], 3);
        assert_eq!(h.suffix_hash(3), path_hash_table(&t)[node as usize]);
    }

    #[test]
    fn window_entries_cover_interior_suffixes() {
        let t = chain_tree(&[&[1, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        // Node "3" is filed under windows [3], [2,3], [1,2,3].
        let node3 = t.descend(&[u(1), u(2), u(3)]).unwrap();
        let mut h = ContextHashes::new();
        h.compute(&[u(2), u(3)], 2);
        let g = idx.group(2, h.suffix_hash(2)).unwrap();
        assert_eq!(g.members(), &[NodeId(node3)]);
        assert_eq!(g.window_len(), 2);
        h.compute(&[u(3)], 1);
        assert!(idx.group(1, h.suffix_hash(1)).is_some());
        // The leaf "4" votes for nothing, so its four windows are not
        // stored: 1 + 2 + 3 entries for the voting nodes 1, 2 and 3.
        h.compute(&[u(3), u(4)], 2);
        assert!(idx.group(2, h.suffix_hash(2)).is_none());
        assert_eq!(idx.len(), 1 + 2 + 3);
    }

    #[test]
    fn window_groups_aggregate_member_votes() {
        // Three branches share the interior window [2, 3]: its group's
        // total sums the voters' counts and its votes merge their children.
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let mut h = ContextHashes::new();
        h.compute(&[u(2), u(3)], 2);
        let g = idx.group(2, h.suffix_hash(2)).unwrap();
        assert!(!g.is_dirty());
        assert_eq!(g.members().len(), 3);
        let total: u64 = g.members().iter().map(|&m| t.count(m.0)).sum();
        assert_eq!((u64::from(g.total()), total), (4, 4));
        assert_eq!(g.votes(), &[(u(4), 3), (u(6), 1)]);
        // A group with one voter holds exactly that node's children.
        h.compute(&[u(5), u(2), u(3)], 3);
        let g = idx.group(3, h.suffix_hash(3)).unwrap();
        assert_eq!((g.total(), g.votes()), (1, &[(u(6), 1)][..]));
        // Leaves are never voters, and a bucket without a voter is absent.
        for g in idx.groups() {
            assert!(g.members().iter().any(|&m| t.has_children(m.0)));
        }
        h.compute(&[u(4)], 1);
        assert!(idx.group(1, h.suffix_hash(1)).is_none());
        h.compute(&[u(3), u(6)], 2);
        assert!(idx.group(2, h.suffix_hash(2)).is_none());
    }

    #[test]
    fn a_head_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Head>(), 16);
    }

    #[test]
    fn every_key_resolves_through_the_directory() {
        // Enough windows for a directory of many slots: every stored key
        // finds its own group, and a key never filed finds nothing.
        let paths: Vec<Vec<u32>> = (0..300u32)
            .map(|i| vec![i % 17, i % 29 + 100, i % 7 + 200, i])
            .collect();
        let refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
        let idx = ContextIndex::windows(&chain_tree(&refs), 8).unwrap();
        assert!(idx.occupancy().buckets > 500);
        for g in idx.groups() {
            let found = idx.group_by_key(g.key()).expect("stored key resolves");
            assert_eq!((found.key(), found.members()), (g.key(), g.members()));
        }
        let mut h = ContextHashes::new();
        h.compute(&[u(9_999)], 1);
        assert!(idx.group(1, h.suffix_hash(1)).is_none());
        assert!(ContextIndex::default().group_by_key(0).is_none());
    }

    #[test]
    fn clone_holds_the_same_bytes() {
        let t = chain_tree(&[&[1, 2, 3, 4], &[5, 2, 3, 6], &[2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        assert_eq!(idx.clone().memory_bytes(), idx.memory_bytes());
        assert_eq!(
            ContextIndex::windows(&t, 8).unwrap().memory_bytes(),
            idx.memory_bytes()
        );
    }
}
