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
//! names a `WindowGroup`. A bucket with several members stores them
//! plus their summed parent count and per-successor vote totals; a clean
//! one is verified against the query with a single representative walk.
//! Buckets whose members genuinely disagree about the window's content (a
//! real 64-bit collision, detected at build time) are flagged dirty and
//! answered member by member. A bucket with exactly one member stores
//! nothing but that member's arena row: its votes are the row's children
//! weighted by their counts and its total is the row's count, which the
//! arena already holds. Buckets without a single voting member are not
//! stored at all: no query could get a prediction out of them.
//!
//! The groups live in flat, sorted, exact-size lists (see
//! [`ContextIndex`]), built by sorting one list of `(key, node)` filings.

use crate::frozen::{FrozenTree, NO_NODE};
use crate::frozen::{NodeId, SnapshotError};
use crate::interner::UrlId;

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

/// Narrows a list offset or a count to the index's 4-byte fields. A
/// trained model would need 16 GiB for its member list, or more than 2^32
/// sessions through one window, to outgrow them; a forged snapshot's
/// counts can.
fn narrow<N: TryInto<u32>>(n: N) -> Result<u32, SnapshotError> {
    n.try_into().map_err(|_| SnapshotError::IndexOverflow)
}

/// Slot tag of a stored group: the slot's low bits index `heads`. A slot
/// without it holds the arena row of a one-member group.
const STORED: u32 = 1 << 31;
/// Slot tag, beside `STORED`, of a group whose members collided.
const DIRTY: u32 = 1 << 30;

/// Narrows `n` to a slot payload, which must stay below `tag`.
fn slot_payload<N: TryInto<u32>>(n: N, tag: u32) -> Result<u32, SnapshotError> {
    let n = narrow(n)?;
    if n < tag {
        Ok(n)
    } else {
        Err(SnapshotError::IndexOverflow)
    }
}

/// A stored group's fixed fields. `heads` holds one more entry than there
/// are stored groups, whose offsets close the last group's runs: group
/// `g`'s members are `heads[g].members..heads[g + 1].members`, and its
/// votes are `heads[g].votes..heads[g + 1].votes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    members: u32,
    votes: u32,
    /// Summed count of all members that have alive children.
    total: u32,
}

/// One fingerprint bucket, resolved from the index's flat lists.
///
/// All members of a clean bucket spell the same window of URLs, so the
/// answer to "the context's longest match is this window — what do its
/// occurrences predict?" is the same for every query and can be summed
/// once at build time, or read straight from the arena when the bucket
/// has one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowGroup<'a> {
    /// The bucket's one member. Its votes are the row's children weighted
    /// by their counts, and its total is the row's count.
    Derived(NodeId),
    /// Several members that spell the same window, with their aggregates.
    Clean {
        /// Every member, in arena order; the first is the representative
        /// one upward walk verifies the bucket's content against.
        members: &'a [NodeId],
        /// Summed count of all members that have alive children (the
        /// group's vote denominator).
        total: u32,
        /// Per-successor vote totals over all voting members, by URL.
        votes: &'a [(UrlId, u32)],
    },
    /// Several members that disagree about the window's content (a
    /// build-time hash collision): queries verify and vote member by
    /// member, and no aggregates are kept.
    Dirty {
        /// Every member, in arena order.
        members: &'a [NodeId],
    },
}

impl WindowGroup<'_> {
    /// Every node filed under the bucket, in arena order.
    #[inline]
    pub(crate) fn members(&self) -> &[NodeId] {
        match self {
            WindowGroup::Derived(row) => std::slice::from_ref(row),
            WindowGroup::Clean { members, .. } | WindowGroup::Dirty { members } => members,
        }
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
    /// One-member groups, answered from their row in the arena.
    pub derived_groups: usize,
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

/// Fingerprint → `WindowGroup` index over a [`FrozenTree`], keyed by
/// `(window length, rolling window hash)`.
///
/// Built once per finalize or load from the arena; afterwards it is immutable and
/// lookups take `&self`, which is what lets the evaluation engine share
/// one model across worker threads. The layout is flat and canonical:
///
/// * `keys` holds the group keys sorted; a radix directory on their top
///   bits narrows a lookup to a few neighbouring keys (the keys are mixed
///   64-bit hashes, so the slots fill evenly);
/// * `slots[i]` says where key `i`'s group lives: a one-member group's
///   arena row, or (tagged `STORED`, and `DIRTY` after a collision)
///   the index of a stored group's head;
/// * `heads[g]` holds stored group `g`'s total and where its runs start in
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
    slots: Box<[u32]>,
    heads: Box<[Head]>,
    members: Box<[NodeId]>,
    votes: Box<[(UrlId, u32)]>,
}

impl ContextIndex {
    /// Builds the all-windows index: every branch row is filed under each
    /// suffix window of its upward path, up to `max_order` URLs, and every
    /// bucket with at least one voting member is kept: a one-member bucket
    /// as its row, a larger one with its aggregates precomputed. Fails
    /// when a count, a summed count or a list offset outgrows the index's
    /// 4-byte fields.
    pub fn windows(arena: &FrozenTree, max_order: usize) -> Result<Self, SnapshotError> {
        let hashes = path_hash_table(arena);
        // Phase 1: one flat entry per (node, window), sorted so that each
        // bucket is a run in row order.
        let mut entries: Vec<Entry> = Vec::new();
        // Windows stop at the root; queries never look past `u8::MAX`.
        let max_len = max_order.min(usize::from(u8::MAX));
        for id in 0..arena.first_link_row() {
            let p_node = hashes[id as usize];
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
                    // Windows are at most `u8::MAX` long.
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

        // Phase 2: file each bucket that has a voter as its row, or as a
        // group with its aggregates.
        let (mut keys, mut slots, mut heads, mut members, mut votes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut tally: Vec<(UrlId, u64)> = Vec::new();
        let mut rest = entries.as_slice();
        while let Some(first) = rest.first() {
            let end = rest.iter().position(|e| e.key != first.key);
            let (bucket, tail) = rest.split_at(end.unwrap_or(rest.len()));
            rest = tail;
            if !bucket.iter().any(|e| arena.has_children(e.node)) {
                continue; // no query could get a prediction out of it
            }
            keys.push(first.key);
            if let [only] = bucket {
                // The arena answers for it, but its counts must fit the
                // fields a stored group would hold them in: a file the
                // index could not aggregate is refused either way.
                narrow(arena.count(only.node))?;
                for child in arena.children(only.node) {
                    narrow(arena.count(child))?;
                }
                slots.push(slot_payload(only.node, STORED)?);
                continue;
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
                            .map(|child| (arena.url(child), arena.count(child))),
                    );
                }
                sum_votes(&mut tally);
                for &(url, count) in &tally {
                    votes.push((url, narrow(count)?));
                }
            }
            let tag = if dirty { STORED | DIRTY } else { STORED };
            slots.push(tag | slot_payload(heads.len(), DIRTY)?);
            heads.push(Head {
                members: narrow(members.len())?,
                votes: narrow(start)?,
                total: narrow(total)?,
            });
            members.extend(bucket.iter().map(|e| NodeId(e.node)));
        }
        drop(entries);
        heads.push(Head {
            members: narrow(members.len())?,
            votes: narrow(votes.len())?,
            total: 0,
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
            slots: slots.into_boxed_slice(),
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

    /// The group whose key sits at position `at` of `keys`.
    #[inline]
    fn group_at(&self, at: usize) -> WindowGroup<'_> {
        let slot = self.slots[at];
        if slot & STORED == 0 {
            return WindowGroup::Derived(NodeId(slot));
        }
        let g = (slot & !(STORED | DIRTY)) as usize;
        let (head, next) = (&self.heads[g], &self.heads[g + 1]);
        let members = &self.members[head.members as usize..next.members as usize];
        if slot & DIRTY != 0 {
            return WindowGroup::Dirty { members };
        }
        WindowGroup::Clean {
            members,
            total: head.total,
            votes: &self.votes[head.votes as usize..next.votes as usize],
        }
    }

    /// Every group with its key, in key order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (u64, WindowGroup<'_>)> {
        (0..self.keys.len()).map(move |at| (self.keys[at], self.group_at(at)))
    }

    /// Test hook: stores every group, one-member groups included, and
    /// flags it dirty, forcing queries down the per-member fallback path.
    #[cfg(test)]
    pub(crate) fn force_dirty(&mut self) {
        let runs: Vec<Vec<NodeId>> = self.groups().map(|(_, g)| g.members().to_vec()).collect();
        let (mut heads, mut members) = (Vec::new(), Vec::new());
        for (g, run) in runs.iter().enumerate() {
            self.slots[g] = STORED | DIRTY | slot_payload(g, DIRTY).expect("test-sized index");
            heads.push(Head {
                members: narrow(members.len()).expect("test-sized index"),
                votes: 0,
                total: 0,
            });
            members.extend_from_slice(run);
        }
        heads.push(Head {
            members: narrow(members.len()).expect("test-sized index"),
            votes: 0,
            total: 0,
        });
        self.heads = heads.into_boxed_slice();
        self.members = members.into_boxed_slice();
        self.votes = Box::default();
    }

    /// Corruption hook: adds one to the total of the first clean stored
    /// group that has one. False when there is none.
    pub(crate) fn skew_group_total(&mut self) -> bool {
        let Some(g) = self
            .slots
            .iter()
            .filter(|&&s| s & (STORED | DIRTY) == STORED)
            .map(|&s| (s & !STORED) as usize)
            .find(|&g| self.heads[g].total > 0)
        else {
            return false;
        };
        self.heads[g].total += 1;
        true
    }

    /// Corruption hook: points the first one-member group at the next row
    /// of an arena of `rows` rows. False when there is no such group.
    pub(crate) fn repoint_derived_group(&mut self, rows: u32) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| **s & STORED == 0) else {
            return false;
        };
        if rows < 2 {
            return false;
        }
        *slot = (*slot + 1) % rows;
        true
    }

    /// Total (node, window) entries filed: every stored member plus one
    /// per one-member group.
    pub fn len(&self) -> usize {
        let stored = self.heads.len().saturating_sub(1);
        self.members.len() + self.keys.len() - stored
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Resident heap bytes (for storage reporting alongside
    /// [`FrozenTree::heap_bytes`]): exactly what the index's lists allocate.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.keys)
            + size_of_val(&*self.dir)
            + size_of_val(&*self.slots)
            + size_of_val(&*self.heads)
            + size_of_val(&*self.members)
            + size_of_val(&*self.votes)
    }

    /// Bucket occupancy for storage/telemetry gauges. A dirty group falls
    /// back to per-member verification at query time, so the dirty count is
    /// the structural ceiling on slow-bucket lookups.
    pub fn occupancy(&self) -> IndexOccupancy {
        let mut occ = IndexOccupancy {
            buckets: self.keys.len(),
            ..IndexOccupancy::default()
        };
        for (_, g) in self.groups() {
            occ.max_bucket = occ.max_bucket.max(g.members().len());
            match g {
                WindowGroup::Derived(_) => occ.derived_groups += 1,
                WindowGroup::Dirty { .. } => occ.dirty_groups += 1,
                WindowGroup::Clean { .. } => {}
            }
        }
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    /// The group a context ending in `window` would look up.
    fn group<'a>(idx: &'a ContextIndex, window: &[u32]) -> Option<WindowGroup<'a>> {
        let context: Vec<UrlId> = window.iter().map(|&n| u(n)).collect();
        let mut h = ContextHashes::new();
        h.compute(&context, context.len());
        idx.group_by_key(bucket_key(context.len(), h.suffix_hash(context.len())))
    }

    fn chain_tree(paths: &[&[u32]]) -> FrozenTree {
        crate::frozen::arena_of(paths, &[])
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
        let g = group(&idx, &[2, 3]).unwrap();
        assert_eq!(g.members(), &[NodeId(node3)]);
        assert!(group(&idx, &[3]).is_some());
        // The leaf "4" votes for nothing, so its four windows are not
        // stored: 1 + 2 + 3 entries for the voting nodes 1, 2 and 3.
        assert!(group(&idx, &[3, 4]).is_none());
        assert_eq!(idx.len(), 1 + 2 + 3);
    }

    #[test]
    fn window_groups_aggregate_member_votes() {
        // Three branches share the interior window [2, 3]: its group's
        // total sums the voters' counts and its votes merge their children.
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let Some(WindowGroup::Clean {
            members,
            total,
            votes,
        }) = group(&idx, &[2, 3])
        else {
            panic!("[2, 3] is a clean stored group");
        };
        assert_eq!(members.len(), 3);
        let summed: u64 = members.iter().map(|&m| t.count(m.0)).sum();
        assert_eq!((u64::from(total), summed), (4, 4));
        assert_eq!(votes, &[(u(4), 3), (u(6), 1)]);
        // Leaves are never voters, and a bucket without a voter is absent.
        for (_, g) in idx.groups() {
            assert!(g.members().iter().any(|&m| t.has_children(m.0)));
        }
        assert!(group(&idx, &[4]).is_none());
        assert!(group(&idx, &[3, 6]).is_none());
    }

    #[test]
    fn a_one_member_group_resolves_to_its_row() {
        // [5, 2, 3] ends at one node: the index keeps only its row, whose
        // children and count are the votes and total a stored group of
        // that one voter would hold.
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let row = t.descend(&[u(5), u(2), u(3)]).unwrap();
        assert_eq!(
            group(&idx, &[5, 2, 3]),
            Some(WindowGroup::Derived(NodeId(row)))
        );
        let votes: Vec<(UrlId, u64)> = t
            .children(row)
            .map(|child| (t.url(child), t.count(child)))
            .collect();
        assert_eq!((t.count(row), votes), (1, vec![(u(6), 1)]));
        // Every one-member group is derived, and every entry still counts.
        let occ = idx.occupancy();
        let stored: usize = idx
            .groups()
            .filter(|(_, g)| !matches!(g, WindowGroup::Derived(_)))
            .map(|(_, g)| g.members().len())
            .sum();
        assert!(occ.derived_groups > 0 && occ.derived_groups < occ.buckets);
        assert_eq!(idx.len(), stored + occ.derived_groups);
        for (_, g) in idx.groups() {
            assert_eq!(g.members().len() == 1, matches!(g, WindowGroup::Derived(_)));
        }
    }

    #[test]
    fn a_head_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Head>(), 12);
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
        for (key, g) in idx.groups() {
            assert_eq!(idx.group_by_key(key), Some(g), "stored key resolves");
        }
        assert!(group(&idx, &[9_999]).is_none());
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
