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
//! names a `WindowGroup`. A bucket with several members stores their
//! summed parent count, their per-successor vote totals and one
//! representative row, which a single upward walk verifies against the
//! query; the members themselves are not kept. Buckets whose members
//! genuinely disagree about the window's content (keys that collide in
//! their stored bits, detected at build time) are flagged dirty, keep
//! their member list and are answered member by member. A bucket with
//! exactly one member stores nothing but that member's arena row: its
//! votes are the row's children weighted by their counts and its total is
//! the row's count, which the arena already holds. Buckets without a
//! single voting member are not stored at all: no query could get a
//! prediction out of them.
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

/// Bits of a group key that `keys` stores, right below the bits the
/// directory slot fixes.
const KEY_BITS: u32 = 32;

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
/// are stored groups, whose vote offset closes the last group's run:
/// group `g`'s votes are `heads[g].votes..heads[g + 1].votes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    /// A clean group's representative row (its first member in arena
    /// order), or where a dirty group's members start in `members`.
    members: u32,
    votes: u32,
    /// A clean group's summed count of all members that have alive
    /// children; a dirty group's member count.
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
    /// The members themselves are not stored: serving reads only one.
    Clean {
        /// The first member in arena order, which one upward walk
        /// verifies the bucket's content against.
        rep: NodeId,
        /// Summed count of all members that have alive children (the
        /// group's vote denominator).
        total: u32,
        /// Per-successor vote totals over all voting members, by URL.
        votes: &'a [(UrlId, u32)],
    },
    /// Several members that disagree about the window's content (a
    /// build-time collision of their stored key bits): queries verify and
    /// vote member by member, and no aggregates are kept.
    Dirty {
        /// Every member once, in arena order.
        members: &'a [NodeId],
    },
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
    /// Distinct stored group keys.
    pub buckets: usize,
    /// Entries in the fullest bucket.
    pub max_bucket: usize,
    /// Groups whose members collided (queried member by member instead of
    /// via the precomputed aggregate).
    pub dirty_groups: usize,
    /// One-member groups, answered from their row in the arena.
    pub derived_groups: usize,
}

/// Where a [`ContextIndex`]'s heap bytes go, list by list, and how many
/// of its groups are dirty (see [`ContextIndex::split`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSplit {
    /// The stored key bits, 4 B per group.
    pub keys: usize,
    /// The radix directory over the keys' top bits.
    pub dir: usize,
    /// One slot per group: an arena row or a head index.
    pub slots: usize,
    /// The stored groups' heads, sentinel included.
    pub heads: usize,
    /// The dirty groups' member lists.
    pub members: usize,
    /// The clean groups' vote runs.
    pub votes: usize,
    /// Groups whose members collided.
    pub dirty_groups: usize,
}

impl IndexSplit {
    /// Every list's bytes summed: [`ContextIndex::memory_bytes`].
    #[must_use]
    pub fn total(&self) -> usize {
        self.sections().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// The lists as `(name, bytes)` pairs.
    #[must_use]
    pub fn sections(&self) -> [(&'static str, usize); 6] {
        [
            ("keys", self.keys),
            ("dir", self.dir),
            ("slots", self.slots),
            ("heads", self.heads),
            ("members", self.members),
            ("votes", self.votes),
        ]
    }
}

/// One `(node, window)` filing during a build: the bucket key, the member
/// node, the window length and whether the node has children to vote
/// with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    key: u64,
    node: u32,
    len: u8,
    voter: bool,
}

/// Files each of `rows` under every suffix window of its upward path, up
/// to `max_order` URLs (windows stop at the root, and queries never look
/// past `u8::MAX`), handing each filing to `file`.
fn file_windows(
    arena: &FrozenTree,
    max_order: usize,
    rows: impl Iterator<Item = u32>,
    mut file: impl FnMut(Entry),
) {
    let hashes = path_hash_table(arena);
    let max_len = max_order.min(usize::from(u8::MAX));
    for id in rows {
        let voter = arena.has_children(id);
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
            file(Entry {
                key: bucket_key(len, hash),
                node: id,
                // Windows are at most `u8::MAX` long.
                len: u8::try_from(len).unwrap_or(u8::MAX),
                voter,
            });
            if parent == NO_NODE {
                break;
            }
            anc = parent;
        }
    }
}

/// Most top key bits [`sorted_filings`] counts on: 2^16 buckets.
const SORT_BITS: u32 = 16;

/// Every tree row's filings, sorted by `(key, node, len)` so that each
/// bucket is a run in row order.
///
/// [`file_windows`] files in `(node, len)` order, so a stable sort by key
/// alone gives that order. One counting pass on the keys' top bits
/// scatters the filings into buckets of about four (the keys are mixed
/// hashes, so the buckets fill evenly), and a stable sort by key orders
/// each bucket.
fn sorted_filings(arena: &FrozenTree, max_order: usize) -> Vec<Entry> {
    let mut filed: Vec<Entry> = Vec::new();
    file_windows(arena, max_order, 0..arena.first_link_row(), |e| {
        filed.push(e);
    });
    // At least one bit, so the shift stays below 64.
    let bits = (filed.len() / 4).max(2).ilog2().min(SORT_BITS);
    // At most `SORT_BITS` bits remain after the shift.
    #[allow(clippy::cast_possible_truncation)]
    let bucket = |e: &Entry| (e.key >> (64 - bits)) as usize;
    let mut starts = vec![0usize; (1 << bits) + 1];
    for e in &filed {
        starts[bucket(e) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut sorted = vec![Entry::default(); filed.len()];
    for e in filed {
        let at = &mut next[bucket(&e)];
        sorted[*at] = e;
        *at += 1;
    }
    for run in starts.windows(2) {
        sorted[run[0]..run[1]].sort_by_key(|e| e.key);
    }
    sorted
}

/// Splits the first run of `entries` whose members agree under `same` off
/// the rest.
fn first_run(entries: &[Entry], same: impl Fn(&Entry, &Entry) -> bool) -> (&[Entry], &[Entry]) {
    let end = entries
        .first()
        .and_then(|first| entries.iter().position(|e| !same(first, e)));
    entries.split_at(end.unwrap_or(entries.len()))
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

/// Sets bit `i` of a bitset.
pub(crate) fn set_bit(bits: &mut [u64], i: usize) {
    if let Some(word) = bits.get_mut(i / 64) {
        *word |= 1 << (i % 64);
    }
}

/// Reads bit `i` of a bitset.
fn bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64)
        .is_some_and(|word| word >> (i % 64) & 1 == 1)
}

/// Fingerprint → `WindowGroup` index over a [`FrozenTree`], keyed by
/// `(window length, rolling window hash)`.
///
/// Built once per finalize or load from the arena; afterwards it is immutable and
/// lookups take `&self`, which is what lets the evaluation engine share
/// one model across worker threads. The layout is flat and canonical:
///
/// * a radix directory on the group keys' top `64 − shift` bits narrows a
///   lookup to a few neighbouring keys (the keys are mixed 64-bit hashes,
///   so the slots fill evenly), and `keys` stores, sorted, only the next
///   32 bits of each key, which the slot does not fix;
/// * `slots[i]` says where key `i`'s group lives: a one-member group's
///   arena row, or (tagged `STORED`, and `DIRTY` after a collision)
///   the index of a stored group's head;
/// * `heads[g]` holds a clean group's representative row, total and where
///   its vote run starts (each run ends where the next group's starts),
///   or where a dirty group's members start in `members` and how many
///   there are;
/// * a clean group's vote run is its voters' children, summed per URL; a
///   dirty group's is empty;
/// * a vote is a `u32` URL id and a `u32` count.
///
/// Keys whose stored bits agree are one group. Every group kind is
/// checked against the query with `FrozenTree::match_top`, so a lookup
/// that lands on another window's group is answered as a miss, and keys
/// that collide at build time merge into one dirty group that lists each
/// row once.
///
/// Every list is one exact-size allocation, and the same arena always
/// builds the same bytes: a finalized model, its publish clone and its
/// snapshot restore are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextIndex {
    /// Bits `low..low + 32` of each group key, sorted.
    keys: Box<[u32]>,
    /// Keys whose top bits read `p` are `keys[dir[p]..dir[p + 1]]`.
    dir: Box<[u32]>,
    /// `64 − directory bits`.
    shift: u32,
    /// Where a key's stored bits start: `shift − 32`.
    low: u32,
    slots: Box<[u32]>,
    heads: Box<[Head]>,
    /// The dirty groups' members, one run per group.
    members: Box<[NodeId]>,
    votes: Box<[(UrlId, u32)]>,
    /// `(node, window)` filings behind the stored groups.
    entries: usize,
    /// Filings behind the fullest group.
    max_bucket: usize,
}

impl ContextIndex {
    /// Builds the all-windows index: every branch row is filed under each
    /// suffix window of its upward path, up to `max_order` URLs, and every
    /// bucket with at least one voting member is kept: a one-member bucket
    /// as its row, a larger one with its aggregates precomputed. Fails
    /// when a count, a summed count or a list offset outgrows the index's
    /// 4-byte fields.
    pub fn windows(arena: &FrozenTree, max_order: usize) -> Result<Self, SnapshotError> {
        Self::build(arena, max_order, KEY_BITS, false)
    }

    /// [`ContextIndex::windows`], storing `key_bits` bits of each key
    /// below the directory's (at most 32), and with `all_dirty` storing
    /// every group as dirty, one-member groups included.
    fn build(
        arena: &FrozenTree,
        max_order: usize,
        key_bits: u32,
        all_dirty: bool,
    ) -> Result<Self, SnapshotError> {
        // Phase 1: one flat entry per (node, window), sorted so that each
        // bucket is a run in row order.
        Self::from_filings(arena, sorted_filings(arena, max_order), key_bits, all_dirty)
    }

    /// Phase 2 of [`ContextIndex::build`], over `entries` sorted by
    /// `(key, node, len)`.
    fn from_filings(
        arena: &FrozenTree,
        entries: Vec<Entry>,
        key_bits: u32,
        all_dirty: bool,
    ) -> Result<Self, SnapshotError> {
        // About two to four voting keys per directory slot. A key's
        // entries are adjacent, so it counts at its first voter.
        let mut last = None;
        let voting = entries
            .iter()
            .filter(|e| e.voter && last.replace(e.key) != Some(e.key))
            .count();
        let bits = (voting / 2).max(2).ilog2();
        let shift = 64 - bits;
        // Keys that agree from bit `low` up are one group.
        let low = shift.saturating_sub(key_bits.min(KEY_BITS));

        // Phase 2: file each group that has a voter as its row, or as a
        // stored group with its aggregates or its members.
        let (mut keys, mut dir, mut slots, mut heads, mut members, mut votes) = (
            Vec::new(),
            Vec::with_capacity((1 << bits) + 1),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let (mut filed, mut max_bucket) = (0, 0);
        let mut tally: Vec<(UrlId, u64)> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        let mut rest = entries.as_slice();
        while let Some(first) = rest.first() {
            let (bucket, tail) = first_run(rest, |a, b| a.key >> low == b.key >> low);
            rest = tail;
            if !bucket.iter().any(|e| e.voter) {
                continue; // no query could get a prediction out of it
            }
            while dir.len() as u64 <= first.key >> shift {
                dir.push(narrow(keys.len())?);
            }
            // Bits above `low + 32` are the directory slot's.
            #[allow(clippy::cast_possible_truncation)]
            let stored = (first.key >> low) as u32;
            keys.push(stored);
            (filed, max_bucket) = (filed + bucket.len(), max_bucket.max(bucket.len()));
            // One row can be filed under two window lengths whose keys
            // merged: it is still the group's one member.
            if !all_dirty && bucket.iter().all(|e| e.node == first.node) {
                // The arena answers for it, but its counts must fit the
                // fields a stored group would hold them in: a file the
                // index could not aggregate is refused either way.
                narrow(arena.count(first.node))?;
                for child in arena.children(first.node) {
                    narrow(arena.count(child))?;
                }
                slots.push(slot_payload(first.node, STORED)?);
                continue;
            }
            let len = usize::from(first.len);
            let dirty = all_dirty
                || bucket[1..]
                    .iter()
                    .any(|e| e.len != first.len || !same_window(arena, first.node, e.node, len));
            let head = if dirty {
                // Each row once, though merged keys may file it twice.
                rows.clear();
                rows.extend(bucket.iter().map(|e| e.node));
                rows.sort_unstable();
                rows.dedup();
                let head = Head {
                    members: narrow(members.len())?,
                    votes: narrow(votes.len())?,
                    total: narrow(rows.len())?,
                };
                members.extend(rows.iter().map(|&row| NodeId(row)));
                head
            } else {
                let start = votes.len();
                let mut total = 0u64;
                tally.clear();
                for e in bucket.iter().filter(|e| e.voter) {
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
                Head {
                    members: first.node,
                    votes: narrow(start)?,
                    total: narrow(total)?,
                }
            };
            let tag = if dirty { STORED | DIRTY } else { STORED };
            slots.push(tag | slot_payload(heads.len(), DIRTY)?);
            heads.push(head);
        }
        drop(entries);
        heads.push(Head {
            members: narrow(members.len())?,
            votes: narrow(votes.len())?,
            total: 0,
        });
        while dir.len() <= 1 << bits {
            dir.push(narrow(keys.len())?);
        }
        Ok(ContextIndex {
            keys: keys.into_boxed_slice(),
            dir: dir.into_boxed_slice(),
            shift,
            low,
            slots: slots.into_boxed_slice(),
            heads: heads.into_boxed_slice(),
            members: members.into_boxed_slice(),
            votes: votes.into_boxed_slice(),
            entries: filed,
            max_bucket,
        })
    }

    /// Test hook: the index of `arena` with only `key_bits` key bits
    /// stored below the directory's, so that keys collide often.
    #[cfg(test)]
    pub(crate) fn with_key_bits(
        arena: &FrozenTree,
        max_order: usize,
        key_bits: u32,
    ) -> Result<Self, SnapshotError> {
        Self::build(arena, max_order, key_bits, false)
    }

    /// Test hook: the index of `arena` with every group, one-member groups
    /// included, stored and flagged dirty, forcing queries down the
    /// per-member fallback path.
    #[cfg(test)]
    pub(crate) fn all_dirty(arena: &FrozenTree, max_order: usize) -> Self {
        Self::build(arena, max_order, KEY_BITS, true).expect("test-sized index")
    }

    /// Where the group filed under bucket key `key` sits in `keys`.
    #[inline]
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        let slot = usize::try_from(key >> self.shift).ok()?;
        let (&lo, &hi) = (self.dir.get(slot)?, self.dir.get(slot + 1)?);
        let (lo, hi) = (lo as usize, hi as usize);
        // Bits above `low + 32` are the directory's.
        #[allow(clippy::cast_possible_truncation)]
        let stored = (key >> self.low) as u32;
        Some(lo + self.keys[lo..hi].iter().position(|&k| k == stored)?)
    }

    /// The group filed under bucket key `key`.
    #[inline]
    pub(crate) fn group_by_key(&self, key: u64) -> Option<WindowGroup<'_>> {
        self.position(key).map(|at| self.group_at(at))
    }

    /// The group whose key sits at position `at` of `keys`.
    #[inline]
    fn group_at(&self, at: usize) -> WindowGroup<'_> {
        let slot = self.slots[at];
        if slot & STORED == 0 {
            return WindowGroup::Derived(NodeId(slot));
        }
        let g = (slot & !(STORED | DIRTY)) as usize;
        let head = &self.heads[g];
        if slot & DIRTY != 0 {
            let start = head.members as usize;
            return WindowGroup::Dirty {
                members: &self.members[start..start + head.total as usize],
            };
        }
        WindowGroup::Clean {
            rep: NodeId(head.members),
            total: head.total,
            votes: &self.votes[head.votes as usize..self.heads[g + 1].votes as usize],
        }
    }

    /// Every group, in key order, with a bucket key that looks it up.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> impl Iterator<Item = (u64, WindowGroup<'_>)> {
        let mut slot = 0;
        (0..self.keys.len()).map(move |at| {
            // The directory slot whose run holds position `at`.
            while self.dir[slot + 1] as usize <= at {
                slot += 1;
            }
            let key = ((slot as u64) << self.shift) | (u64::from(self.keys[at]) << self.low);
            (key, self.group_at(at))
        })
    }

    /// Number of stored group keys: the width of a group-usage bitset.
    pub(crate) fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// Marks in the path-usage bitset `used` the path and children of
    /// every voter of each group whose position is set in `groups`. One
    /// filing pass, the build's first phase over the voting rows: a row
    /// filed under a flagged key is that group's member.
    pub(crate) fn mark_groups(
        &self,
        arena: &FrozenTree,
        max_order: usize,
        groups: &[u64],
        used: &mut [u64],
    ) {
        let voters = (0..arena.first_link_row()).filter(|&row| arena.has_children(row));
        file_windows(arena, max_order, voters, |e| {
            if self.position(e.key).is_some_and(|at| bit(groups, at)) {
                arena.mark_path(used, e.node);
                arena.mark_children(used, e.node);
            }
        });
    }

    /// Total (node, window) entries filed under the stored groups.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Where the index's heap bytes go, list by list, and how many groups
    /// are dirty.
    pub fn split(&self) -> IndexSplit {
        use std::mem::size_of_val;
        IndexSplit {
            keys: size_of_val(&*self.keys),
            dir: size_of_val(&*self.dir),
            slots: size_of_val(&*self.slots),
            heads: size_of_val(&*self.heads),
            members: size_of_val(&*self.members),
            votes: size_of_val(&*self.votes),
            dirty_groups: self.dirty_groups(),
        }
    }

    /// Resident heap bytes (for storage reporting alongside
    /// [`FrozenTree::heap_bytes`]): exactly what the index's lists allocate.
    pub fn memory_bytes(&self) -> usize {
        self.split().total()
    }

    /// Groups whose members collided.
    fn dirty_groups(&self) -> usize {
        self.slots.iter().filter(|&&s| s & DIRTY != 0).count()
    }

    /// Bucket occupancy for storage/telemetry gauges. A dirty group falls
    /// back to per-member verification at query time, so the dirty count is
    /// the structural ceiling on slow-bucket lookups.
    pub fn occupancy(&self) -> IndexOccupancy {
        IndexOccupancy {
            buckets: self.keys.len(),
            max_bucket: self.max_bucket,
            dirty_groups: self.dirty_groups(),
            derived_groups: self.slots.iter().filter(|&&s| s & STORED == 0).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The rows filed under the group at position `at`, in arena order:
    /// what a stored member list would hold.
    fn members(idx: &ContextIndex, t: &FrozenTree, at: usize) -> Vec<u32> {
        let mut rows = Vec::new();
        file_windows(t, 8, 0..t.first_link_row(), |e| {
            if idx.position(e.key) == Some(at) {
                rows.push(e.node);
            }
        });
        rows
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
        assert_eq!(
            group(&idx, &[2, 3]),
            Some(WindowGroup::Derived(NodeId(node3)))
        );
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
        let Some(WindowGroup::Clean { rep, total, votes }) = group(&idx, &[2, 3]) else {
            panic!("[2, 3] is a clean stored group");
        };
        let mut spelled: Vec<u32> = [[1, 2, 3], [5, 2, 3], [7, 2, 3]]
            .iter()
            .map(|p| t.descend(&p.map(u)).unwrap())
            .collect();
        spelled.sort_unstable();
        assert_eq!(rep, NodeId(spelled[0]), "the first member represents");
        let summed: u64 = spelled.iter().map(|&m| t.count(m)).sum();
        assert_eq!((u64::from(total), summed), (4, 4));
        assert_eq!(votes, &[(u(4), 3), (u(6), 1)]);
        // Leaves are never voters, and a bucket without a voter is absent.
        for (key, _) in idx.groups() {
            let at = idx.position(key).unwrap();
            assert!(members(&idx, &t, at).iter().any(|&m| t.has_children(m)));
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
        let sizes: Vec<(usize, bool)> = idx
            .groups()
            .map(|(key, g)| {
                let at = idx.position(key).unwrap();
                (
                    members(&idx, &t, at).len(),
                    matches!(g, WindowGroup::Derived(_)),
                )
            })
            .collect();
        assert!(occ.derived_groups > 0 && occ.derived_groups < occ.buckets);
        assert_eq!(idx.len(), sizes.iter().map(|&(n, _)| n).sum::<usize>());
        assert_eq!(occ.max_bucket, sizes.iter().map(|&(n, _)| n).max().unwrap());
        for (n, derived) in sizes {
            assert_eq!(n == 1, derived);
        }
    }

    #[test]
    fn a_head_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Head>(), 12);
    }

    #[test]
    fn clean_groups_store_no_members_and_keys_four_bytes() {
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let split = idx.split();
        assert_eq!(split.keys, 4 * idx.occupancy().buckets);
        assert_eq!((split.members, split.dirty_groups), (0, 0));
        assert_eq!(split.total(), idx.memory_bytes());
        // Stored every group dirty, the same index keeps every member.
        let dirty = ContextIndex::all_dirty(&t, 8);
        assert_eq!(dirty.split().members, 4 * dirty.len());
        assert_eq!(dirty.split().dirty_groups, dirty.occupancy().buckets);
    }

    #[test]
    fn keys_that_collide_merge_into_one_dirty_group() {
        // Storing no key bits, every directory slot is one group: groups
        // whose windows differ are dirty and list every row once, in arena
        // order.
        let paths: Vec<Vec<u32>> = (0..40u32).map(|i| vec![i % 5, i % 7 + 10, i]).collect();
        let refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
        let t = chain_tree(&refs);
        let full = ContextIndex::windows(&t, 8).unwrap();
        let merged = ContextIndex::with_key_bits(&t, 8, 0).unwrap();
        assert!(merged.occupancy().buckets < full.occupancy().buckets);
        assert!(merged.occupancy().dirty_groups > 0);
        for (key, g) in merged.groups() {
            if let WindowGroup::Dirty { members: listed } = g {
                let mut rows = members(&merged, &t, merged.position(key).unwrap());
                rows.sort_unstable();
                rows.dedup();
                let listed: Vec<u32> = listed.iter().map(|m| m.0).collect();
                assert_eq!(listed, rows);
            }
        }
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

    /// The filings a comparison sort on `(key, node, len)` gives.
    fn reference_filings(t: &FrozenTree, max_order: usize) -> Vec<Entry> {
        let mut filed = Vec::new();
        file_windows(t, max_order, 0..t.first_link_row(), |e| filed.push(e));
        filed.sort_unstable_by_key(|e| (e.key, e.node, e.len));
        filed
    }

    proptest! {
        /// The bucketed sort orders filings exactly as the comparison sort
        /// does, so an index built from them, at full key width and with
        /// keys that collide, holds the same lists and the same bytes.
        #[test]
        fn bucketed_filings_sort_like_a_comparison_sort(
            paths in prop::collection::vec(prop::collection::vec(0..12u32, 1..8), 1..60),
            max_order in 1usize..=9,
        ) {
            let refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
            let t = chain_tree(&refs);
            let reference = reference_filings(&t, max_order);
            prop_assert_eq!(&sorted_filings(&t, max_order), &reference);
            for key_bits in [KEY_BITS, 4, 0] {
                let built = ContextIndex::with_key_bits(&t, max_order, key_bits).unwrap();
                let oracle =
                    ContextIndex::from_filings(&t, reference.clone(), key_bits, false).unwrap();
                prop_assert_eq!(built.split().total(), built.memory_bytes());
                prop_assert_eq!(built.memory_bytes(), oracle.memory_bytes());
                prop_assert_eq!(built, oracle);
            }
        }
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
