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
//! the row's count, which the arena already holds.
//!
//! Only windows that can change an answer are stored, by two rules:
//!
//! * **Only voting rows are filed.** A voter is a row with children, and
//!   only voters add to an answer, so a leaf is filed under no window. A
//!   window no row votes for is not stored at all, and a window that one
//!   voter shares with leaves is that voter's one-member group.
//! * **A window whose voters are its one-shorter suffix's is dropped.**
//!   Every voter spelling a length-`ℓ` window also spells its last
//!   `ℓ − 1` URLs, so when the two windows have as many voters they have
//!   the same ones, and with them the same total and votes. The
//!   longest-first descent misses the dropped window and lands on the
//!   shorter one, which answers alike and records the same voters' usage
//!   (a group's voters are marked from the rows filed under its key).
//!   Voters are counted only over full-key runs whose members all spell
//!   one window (the build's `same_window` check), so that equal counts
//!   mean equal sets. A length-1 window is always kept.
//!
//! A dropped window leaves nothing a lookup could land on: it is dropped
//! only when no other window's key shares its stored key bits. Were a
//! group stored under those bits, a lookup of the dropped window would
//! reach it, and a member that also spells the dropped window would pass
//! the upward check and answer alone, without the shorter window's other
//! voters.
//!
//! The groups live in flat, sorted, exact-size lists (see
//! [`ContextIndex`]), built by sorting one list of `(key, node)` filings.
//! Every list but the keys is a [`UintColumn`] at the width its values
//! need, the two count lists are [`CountColumn`]s, whose few large
//! values sit in an outlier table, and the directory is a
//! [`FrameColumn`], a base per block of slots plus each slot's excess.

use crate::bitmap::bit;
use crate::column::{ColumnBuilder, ColumnBytes, CountColumn, FrameColumn, UintColumn};
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
    for (url, parent) in arena.urls_in_order().zip(arena.parents_in_order()) {
        let h = hash_url(url);
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

/// Narrows a count, a summed count or a list offset to 32 bits. The
/// index stores each at the width it needs, but a group's total and votes
/// are `u32` quotients' operands: a trained model would need more than
/// 2^32 sessions through one window, or 16 GiB for its member list, to
/// outgrow them; a forged snapshot's counts can.
fn narrow<N: TryInto<u32>>(n: N) -> Result<u32, SnapshotError> {
    n.try_into().map_err(|_| SnapshotError::IndexOverflow)
}

/// A slot's two tag bits, read from the top of its width: a one-member
/// group's row has neither, a stored group's head index has `STORED`, and
/// a group whose members collided has both.
const STORED: u64 = 0b10;
/// See [`STORED`].
const DIRTY: u64 = 0b11;

/// Bits of a group key that `keys` stores, right below the bits the
/// directory slot fixes.
const KEY_BITS: u32 = 16;

/// Voting keys per directory slot, about: the directory has the largest
/// power of two of slots at most the voting keys over this.
const KEYS_PER_SLOT: usize = 8;

/// An offset into one of the index's lists, read from its column.
#[inline]
fn at(v: u64) -> usize {
    // Offsets index in-memory lists, so they fit usize.
    #[allow(clippy::cast_possible_truncation)]
    let at = v as usize;
    at
}

/// A row read from a column whose values are arena rows.
#[inline]
fn row(v: u64) -> u32 {
    // Arena rows are u32 by construction.
    #[allow(clippy::cast_possible_truncation)]
    let row = v as u32;
    row
}

/// One fingerprint bucket, resolved from the index's flat lists.
///
/// All members of a clean bucket spell the same window of URLs, so the
/// answer to "the context's longest match is this window — what do its
/// occurrences predict?" is the same for every query and can be summed
/// once at build time, or read straight from the arena when the bucket
/// has one member.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        votes: Votes<'a>,
    },
    /// Several members that disagree about the window's content (a
    /// build-time collision of their stored key bits): queries verify and
    /// vote member by member, and no aggregates are kept. This is the
    /// rare slow path, which already collects its voters, so the lookup
    /// reads the members out of their column into a list.
    Dirty {
        /// Every member once, in arena order.
        members: Vec<NodeId>,
    },
}

/// A clean group's vote run: `(url, count)` pairs by URL, read from the
/// index's two vote columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Votes<'a> {
    urls: &'a UintColumn,
    counts: &'a CountColumn,
    start: usize,
    end: usize,
}

impl<'a> Votes<'a> {
    /// Number of votes.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// The votes, by URL.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (UrlId, u32)> + 'a {
        let urls = self.urls;
        let counts = self.counts.iter_in(self.start..self.end);
        // Vote counts were narrowed to 32 bits when the group was built.
        (self.start..self.end)
            .zip(counts)
            .map(move |(i, count)| (UrlId(row(urls.get(i))), row(count)))
    }
}

impl PartialEq for Votes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Votes<'_> {}

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
    /// Windows not stored because their voters are their one-shorter
    /// suffix's.
    pub dropped_groups: usize,
}

/// Where a [`ContextIndex`]'s heap bytes go, list by list, and what the
/// build filed, stored and dropped (see [`ContextIndex::split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSplit {
    /// Each list's bytes and width, in this order: `keys` (the stored key
    /// bits, 2 B per group), the radix directory over the keys' top bits
    /// (its block bases `dir_base`, its excesses `dir` and their outlier
    /// table `dir_over`), `slots` (one per group: an arena row or a head index),
    /// the stored groups' heads (`head_members`: representative rows or
    /// member starts; `head_votes`: vote starts, sentinel included;
    /// `head_totals` and its outlier table `head_totals_over`), `members`
    /// (the dirty groups' member lists) and the clean groups' votes
    /// (`vote_urls`, `vote_counts` and its outlier table
    /// `vote_counts_over`).
    pub columns: [ColumnBytes; 13],
    /// `(voting row, window)` filings the build sorted.
    pub windows_filed: usize,
    /// One-member groups, answered from their row in the arena.
    pub derived_groups: usize,
    /// Groups of several members that spell one window.
    pub clean_groups: usize,
    /// Groups whose members collided.
    pub dirty_groups: usize,
    /// Windows not stored because their voters are their one-shorter
    /// suffix's.
    pub dropped_groups: usize,
    /// Members of the largest dirty group, 0 with none.
    pub largest_dirty: usize,
}

impl IndexSplit {
    /// Every list's bytes summed: [`ContextIndex::memory_bytes`].
    #[must_use]
    pub fn total(&self) -> usize {
        self.columns.iter().map(|c| c.bytes).sum()
    }

    /// The bytes of the list called `name`, 0 for no such list.
    #[must_use]
    pub fn bytes(&self, name: &str) -> usize {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.bytes)
    }
}

/// One `(node, window)` filing during a build: the bucket key, the voting
/// row and the window length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    key: u64,
    node: u32,
    len: u8,
}

/// Files each voting tree row under every suffix window of its upward
/// path, up to `max_order` URLs (windows stop at the root, and queries
/// never look past `u8::MAX`), handing each filing to `file`: in row
/// order, and each row's by window length. The rows' parents and child
/// runs are read in one walk over their columns; only the climb past a
/// row's parent reads the arena out of order.
fn file_windows(arena: &FrozenTree, max_order: usize, mut file: impl FnMut(Entry)) {
    let hashes = path_hash_table(arena);
    let max_len = max_order.min(usize::from(u8::MAX));
    let rows = (0..arena.first_link_row())
        .zip(arena.parents_in_order())
        .zip(arena.child_runs());
    for ((id, mut parent), run) in rows {
        if run.is_empty() {
            continue;
        }
        let p_node = hashes[id as usize];
        let mut pow = 1u64;
        for len in 1..=max_len {
            pow = pow.wrapping_mul(HASH_BASE);
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
            });
            if parent == NO_NODE {
                break;
            }
            parent = arena.parent(parent);
        }
    }
}

/// The voting rows' filings, sorted by `(key, node, len)` so that each
/// bucket is a run in row order, and where each row's filings started in
/// filing order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Filings {
    entries: Vec<Entry>,
    /// Row `r`'s length-`ℓ` filing was filed `first[r] + ℓ − 1`th, right
    /// after its length-`ℓ − 1` one.
    first: Vec<u32>,
}

/// Every voting row's filings in filing order, and where each row's
/// first one sits. Fails past 2^32 filings (64 GiB of them).
fn filed_in_order(
    arena: &FrozenTree,
    max_order: usize,
) -> Result<(Vec<Entry>, Vec<u32>), SnapshotError> {
    let mut filed: Vec<Entry> = Vec::new();
    let mut first = vec![0u32; arena.first_link_row() as usize];
    file_windows(arena, max_order, |e| {
        if e.len == 1 {
            // Checked below: every position fits when the count does.
            first[e.node as usize] = u32::try_from(filed.len()).unwrap_or(u32::MAX);
        }
        filed.push(e);
    });
    narrow(filed.len())?;
    Ok((filed, first))
}

/// Most top key bits [`sorted_filings`] counts on: 2^16 buckets.
const SORT_BITS: u32 = 16;

/// Every voting row's filings, sorted by `(key, node, len)`.
///
/// [`file_windows`] files in `(node, len)` order, so a stable sort by key
/// alone gives that order. One counting pass on the keys' top bits
/// scatters the filings into buckets of about four (the keys are mixed
/// hashes, so the buckets fill evenly), and a stable sort by key orders
/// each bucket.
fn sorted_filings(arena: &FrozenTree, max_order: usize) -> Result<Filings, SnapshotError> {
    let (filed, first) = filed_in_order(arena, max_order)?;
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
    Ok(Filings {
        entries: sorted,
        first,
    })
}

/// Splits the run of `entries` filed under the first one's full key off
/// the rest.
fn key_run(entries: &[Entry]) -> (&[Entry], &[Entry]) {
    let end = entries
        .first()
        .and_then(|first| entries.iter().position(|e| e.key != first.key));
    entries.split_at(end.unwrap_or(entries.len()))
}

/// Sums the children of `voters` by URL into `votes` and returns the
/// voters' summed count: a clean group's votes and total. Fails when the
/// total or a vote outgrows 32 bits, the fields a stored group holds
/// them in.
fn tally_votes(
    arena: &FrozenTree,
    voters: &[Entry],
    votes: &mut Vec<(UrlId, u64)>,
) -> Result<u32, SnapshotError> {
    let mut total = 0u64;
    votes.clear();
    for e in voters {
        total = total.saturating_add(arena.count(e.node));
        votes.extend(
            arena
                .children(e.node)
                .map(|child| (arena.url(child), arena.count(child))),
        );
    }
    sum_votes(votes);
    for &(_, count) in votes.iter() {
        narrow(count)?;
    }
    narrow(total)
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
/// * a radix directory on the group keys' top `64 − shift` bits narrows a
///   lookup to at most about sixteen neighbouring keys (it is sized from
///   every voting key, dropped ones included; the keys are mixed 64-bit
///   hashes, so the slots fill evenly), and `keys` stores, sorted, only
///   the next 16 bits of each key, which the slot does not fix;
/// * `slots[i]` says where key `i`'s group lives: a one-member group's
///   arena row, or (tagged `STORED`, and `DIRTY` after a collision, in
///   the top two bits of the slots' width) the index of a stored group's
///   head;
/// * head `g` holds a clean group's representative row, total and where
///   its vote run starts (each run ends where the next group's starts),
///   or where a dirty group's members start in `members` and how many
///   there are, in three columns;
/// * a clean group's vote run is its voters' children, summed per URL; a
///   dirty group's is empty;
/// * a vote is a URL id and a count, in two columns.
///
/// Every list but the keys is a [`UintColumn`] at the width its values
/// need, but for the totals and the vote counts, [`CountColumn`]s at the
/// width most of their values need, with the few popular windows' larger
/// values in an outlier table, and the directory, a [`FrameColumn`]: a
/// base per 64 slots, each slot's start an excess over it. The slots'
/// width comes from a bound known before the first slot is written (the
/// arena's rows and the voting keys), so the tag bits sit in place from
/// the start; every other column widens as it is pushed, and the two
/// count lists and the directory are re-stored once the build is done.
///
/// Keys whose stored bits agree are one group. Every group kind is
/// checked against the query with `FrozenTree::match_top`, so a lookup
/// that lands on another window's group is answered as a miss, and keys
/// that collide at build time merge into one dirty group that lists each
/// row once. Only voting rows are filed at all, so a window no query can
/// be answered from never dirties a group it collides with, and a window
/// whose voters are its one-shorter suffix's is not stored when its
/// stored bits are its own (see the module docs).
///
/// Every list is one exact-size allocation, and the same arena always
/// builds the same bytes: a finalized model, its publish clone and its
/// snapshot restore are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextIndex {
    /// Bits `low..low + 16` of each group key, sorted.
    keys: Box<[u16]>,
    /// Keys whose top bits read `p` are `keys[dir[p]..dir[p + 1]]`.
    dir: FrameColumn,
    /// `64 − directory bits`.
    shift: u32,
    /// Where a key's stored bits start: `shift − 16`.
    low: u32,
    slots: UintColumn,
    /// Where the slots' two tag bits start: their width's top two bits.
    tag_shift: u32,
    /// Per stored group: a clean group's representative row (its first
    /// member in arena order), or where a dirty group's members start in
    /// `members`.
    head_members: UintColumn,
    /// Per stored group and one more: group `g`'s votes are
    /// `head_votes[g]..head_votes[g + 1]`.
    head_votes: UintColumn,
    /// Per stored group: a clean group's summed count of all members that
    /// have alive children; a dirty group's member count.
    head_totals: CountColumn,
    /// The dirty groups' members, one run per group.
    members: UintColumn,
    vote_urls: UintColumn,
    vote_counts: CountColumn,
    /// `(node, window)` filings behind the stored groups.
    entries: usize,
    /// Filings behind the fullest group.
    max_bucket: usize,
    /// `(node, window)` filings the build sorted, dropped ones included.
    filed: usize,
    /// Full-key runs not stored: their voters are their one-shorter
    /// suffix's.
    dropped: usize,
}

/// How a build stores its groups. Serving stores [`KEY_BITS`] key bits,
/// keeps a group of one row as that row and drops every window whose
/// voters are its one-shorter suffix's; tests narrow the keys, store
/// every group dirty or keep every window.
#[derive(Debug, Clone, Copy)]
struct Layout {
    key_bits: u32,
    all_dirty: bool,
    drop_shadowed: bool,
}

impl Layout {
    const SERVING: Self = Self {
        key_bits: KEY_BITS,
        all_dirty: false,
        drop_shadowed: true,
    };
}

impl ContextIndex {
    /// Builds the index: every voting row is filed under each suffix
    /// window of its upward path, up to `max_order` URLs, and every window
    /// that can change an answer is kept: a one-member group as its row, a
    /// larger one with its aggregates precomputed. Fails when a count, a
    /// summed count or a dirty group's member count outgrows 32 bits,
    /// however narrow the index stores it.
    pub fn windows(arena: &FrozenTree, max_order: usize) -> Result<Self, SnapshotError> {
        Self::build(arena, max_order, Layout::SERVING)
    }

    /// [`ContextIndex::windows`], laid out as `layout` says.
    fn build(arena: &FrozenTree, max_order: usize, layout: Layout) -> Result<Self, SnapshotError> {
        // Phase 1: one flat entry per (node, window), sorted so that each
        // bucket is a run in row order.
        Self::from_filings(arena, sorted_filings(arena, max_order)?, layout)
    }

    /// Phases 2 and 3 of [`ContextIndex::build`], over `filings`.
    fn from_filings(
        arena: &FrozenTree,
        filings: Filings,
        layout: Layout,
    ) -> Result<Self, SnapshotError> {
        let Filings { entries, first } = filings;
        let filed_at = |e: &Entry| first[e.node as usize] as usize + usize::from(e.len) - 1;
        // Phase 2: each full-key run's voters, at each of its filings by
        // filing order, where its one-longer windows find them; 0 for a
        // run whose members spell more than one window (a 64-bit
        // collision), which no count can be compared with.
        let mut voters = vec![0u32; entries.len()];
        let mut keys_filed = 0;
        let mut rest = entries.as_slice();
        while !rest.is_empty() {
            let (run, tail) = key_run(rest);
            rest = tail;
            keys_filed += 1;
            let (head, len) = (run[0], usize::from(run[0].len));
            let clean = run[1..]
                .iter()
                .all(|e| e.len == head.len && same_window(arena, head.node, e.node, len));
            if clean {
                // Fewer than 2^32 filings: `filed_in_order` checked.
                let n = u32::try_from(run.len()).unwrap_or(0);
                for e in run {
                    voters[filed_at(e)] = n;
                }
            }
        }
        // About eight to sixteen keys per directory slot, counted before
        // any window is dropped, so that dropping one moves no other.
        let bits = (keys_filed / KEYS_PER_SLOT).max(2).ilog2();
        let shift = 64 - bits;
        // Keys that agree from bit `low` up are one group.
        let low = shift.saturating_sub(layout.key_bits.min(KEY_BITS));

        // Phase 3: file each window that can change an answer as its row,
        // or as a stored group with its aggregates or its members. A slot
        // holds a row or a head index, and there are no more heads than
        // keys, so those two bound its payload; its tags sit above.
        let payload_bound = u64::from(arena.rows()).max(keys_filed as u64);
        let slots_width = crate::column::width_for(payload_bound << 2);
        let tag_shift = u32::try_from(slots_width * 8 - 2).unwrap_or(62);
        let mut slots = ColumnBuilder::new(payload_bound << 2, 0);
        let mut dir = ColumnBuilder::new(0, (1 << bits) + 1);
        let (mut keys, mut head_members, mut head_votes, mut head_totals) = (
            Vec::new(),
            ColumnBuilder::new(0, 0),
            ColumnBuilder::new(0, 0),
            ColumnBuilder::new(0, 0),
        );
        let (mut members, mut vote_urls, mut vote_counts) = (
            ColumnBuilder::new(0, 0),
            ColumnBuilder::new(0, 0),
            ColumnBuilder::new(0, 0),
        );
        let (mut stored_filings, mut max_bucket, mut dropped, mut dir_len) = (0, 0, 0, 0u64);
        let mut tally: Vec<(UrlId, u64)> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        let counts_fit = arena.counts_fit_u32();
        let mut rest = entries.as_slice();
        while let Some(&first) = rest.first() {
            // The keys whose stored bits agree with the first's are one
            // group, and sit together in key order.
            let end = rest
                .iter()
                .position(|e| e.key >> low != first.key >> low)
                .unwrap_or(rest.len());
            let (bucket, tail) = rest.split_at(end);
            rest = tail;
            let one_key = bucket[end - 1].key == first.key;
            // A window alone under its stored bits whose voters are its
            // one-shorter suffix's: that suffix's group answers for it,
            // and its counts are checked where that group is stored.
            if layout.drop_shadowed && one_key && first.len > 1 {
                let at = filed_at(&first);
                if voters[at] != 0 && voters[at] == voters[at - 1] {
                    dropped += 1;
                    continue;
                }
            }
            while dir_len <= first.key >> shift {
                dir.push(keys.len() as u64);
                dir_len += 1;
            }
            // Bits above `low + 16` are the directory slot's.
            #[allow(clippy::cast_possible_truncation)]
            let stored = (first.key >> low) as u16;
            keys.push(stored);
            stored_filings += bucket.len();
            max_bucket = max_bucket.max(bucket.len());
            // One row can be filed under two window lengths whose keys
            // share their stored bits: it is still the group's one member.
            if !layout.all_dirty && bucket.iter().all(|e| e.node == first.node) {
                // The arena answers for it, but its counts must fit the
                // fields a stored group would hold them in. Counts stored
                // no wider than 32 bits all fit.
                if !counts_fit {
                    tally_votes(arena, &bucket[..1], &mut tally)?;
                }
                slots.push(u64::from(first.node));
                continue;
            }
            // Keys that differ spell different windows, so a group of
            // several keys is dirty, as is a key's run of several windows.
            let dirty = layout.all_dirty || !one_key || voters[filed_at(&first)] == 0;
            head_votes.push(vote_urls.len() as u64);
            if dirty {
                // Each row once, though merged keys may file it twice.
                rows.clear();
                rows.extend(bucket.iter().map(|e| e.node));
                rows.sort_unstable();
                rows.dedup();
                head_members.push(members.len() as u64);
                head_totals.push(u64::from(narrow(rows.len())?));
                for &row in &rows {
                    members.push(u64::from(row));
                }
            } else {
                let total = tally_votes(arena, bucket, &mut tally)?;
                for &(url, count) in &tally {
                    vote_urls.push(u64::from(url.0));
                    vote_counts.push(count);
                }
                head_members.push(u64::from(first.node));
                head_totals.push(u64::from(total));
            }
            let tag = if dirty { DIRTY } else { STORED };
            slots.push(tag << tag_shift | (head_totals.len() - 1) as u64);
        }
        let filed = entries.len();
        drop((entries, first, voters));
        head_votes.push(vote_urls.len() as u64);
        while dir_len <= 1 << bits {
            dir.push(keys.len() as u64);
            dir_len += 1;
        }
        debug_assert_eq!(slots.width(), slots_width, "tags sit in place");
        let dir = FrameColumn::collect(keys.len() as u64, dir.finish().iter());
        Ok(ContextIndex {
            keys: keys.into_boxed_slice(),
            dir,
            shift,
            low,
            slots: slots.finish(),
            tag_shift,
            head_members: head_members.finish(),
            head_votes: head_votes.finish(),
            head_totals: CountColumn::collect(head_totals.finish().iter()),
            members: members.finish(),
            vote_urls: vote_urls.finish(),
            vote_counts: CountColumn::collect(vote_counts.finish().iter()),
            entries: stored_filings,
            max_bucket,
            filed,
            dropped,
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
        let layout = Layout {
            key_bits,
            ..Layout::SERVING
        };
        Self::build(arena, max_order, layout)
    }

    /// Test oracle: the index of `arena` with `key_bits` key bits stored
    /// and every voting window kept, those whose voters are their
    /// one-shorter suffix's included.
    #[cfg(test)]
    pub(crate) fn all_voting(arena: &FrozenTree, max_order: usize, key_bits: u32) -> Self {
        let layout = Layout {
            key_bits,
            drop_shadowed: false,
            ..Layout::SERVING
        };
        Self::build(arena, max_order, layout).expect("test-sized index")
    }

    /// Test hook: the index of `arena` with every group, one-member groups
    /// included, stored and flagged dirty, forcing queries down the
    /// per-member fallback path.
    #[cfg(test)]
    pub(crate) fn all_dirty(arena: &FrozenTree, max_order: usize) -> Self {
        let layout = Layout {
            all_dirty: true,
            ..Layout::SERVING
        };
        Self::build(arena, max_order, layout).expect("test-sized index")
    }

    /// Where the group filed under bucket key `key` sits in `keys`.
    #[inline]
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        let slot = usize::try_from(key >> self.shift).ok()?;
        let (lo, hi) = self.dir.try_pair(slot)?;
        let (lo, hi) = (at(lo), at(hi));
        // Bits above `low + 16` are the directory's.
        #[allow(clippy::cast_possible_truncation)]
        let stored = (key >> self.low) as u16;
        // The slot's keys ascend, so the keys below `stored` say where it
        // would sit: counted without a branch, which the compiler runs a
        // vector of keys at a time, since most lookups miss and would
        // scan the whole run anyway.
        let run = &self.keys[lo..hi];
        let at = run.iter().map(|&k| usize::from(k < stored)).sum::<usize>();
        (run.get(at) == Some(&stored)).then_some(lo + at)
    }

    /// The group filed under bucket key `key`.
    #[inline]
    pub(crate) fn group_by_key(&self, key: u64) -> Option<WindowGroup<'_>> {
        self.position(key).map(|at| self.group_at(at))
    }

    /// The group whose key sits at position `at` of `keys`.
    #[inline]
    fn group_at(&self, position: usize) -> WindowGroup<'_> {
        let slot = self.slots.get(position);
        let payload = slot & ((1 << self.tag_shift) - 1);
        let tag = slot >> self.tag_shift;
        if tag == 0 {
            return WindowGroup::Derived(NodeId(row(payload)));
        }
        let g = at(payload);
        let (first, total) = (self.head_members.get(g), self.head_totals.get(g));
        if tag == DIRTY {
            return WindowGroup::Dirty {
                members: (at(first)..at(first + total))
                    .map(|i| NodeId(row(self.members.get(i))))
                    .collect(),
            };
        }
        let (start, end) = self.head_votes.pair(g);
        WindowGroup::Clean {
            rep: NodeId(row(first)),
            // Totals were narrowed to 32 bits when the group was built.
            total: row(total),
            votes: Votes {
                urls: &self.vote_urls,
                counts: &self.vote_counts,
                start: at(start),
                end: at(end),
            },
        }
    }

    /// Every group, in key order, with a bucket key that looks it up.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> impl Iterator<Item = (u64, WindowGroup<'_>)> {
        let mut slot = 0;
        (0..self.keys.len()).map(move |position| {
            // The directory slot whose run holds `position`.
            while at(self.dir.get(slot + 1)) <= position {
                slot += 1;
            }
            let key = ((slot as u64) << self.shift) | (u64::from(self.keys[position]) << self.low);
            (key, self.group_at(position))
        })
    }

    /// Number of stored group keys: the width of a group-usage bitset.
    pub(crate) fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// Marks in the path-usage bitset `used` the path and children of
    /// every voter of each group whose position is set in `groups`. One
    /// filing pass, the build's first phase: a row filed under a flagged
    /// key is that group's member. A dropped window's key finds no group,
    /// and its voters are marked through its shorter suffix's.
    pub(crate) fn mark_groups(
        &self,
        arena: &FrozenTree,
        max_order: usize,
        groups: &[u64],
        used: &mut [u64],
    ) {
        file_windows(arena, max_order, |e| {
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

    /// Where the index's heap bytes go, list by list, how many groups are
    /// dirty and how many members the largest has.
    pub fn split(&self) -> IndexSplit {
        let (mut derived, mut clean, mut dirty, mut largest_dirty) = (0, 0, 0, 0);
        for slot in self.slots.iter() {
            match slot >> self.tag_shift {
                DIRTY => {
                    let g = at(slot & ((1 << self.tag_shift) - 1));
                    dirty += 1;
                    largest_dirty = largest_dirty.max(at(self.head_totals.get(g)));
                }
                STORED => clean += 1,
                _ => derived += 1,
            }
        }
        let [head_totals, head_totals_over] =
            self.head_totals.split("head_totals", "head_totals_over");
        let [vote_counts, vote_counts_over] =
            self.vote_counts.split("vote_counts", "vote_counts_over");
        let [dir_base, dir, dir_over] = self.dir.split("dir_base", "dir", "dir_over");
        IndexSplit {
            columns: [
                ColumnBytes {
                    name: "keys",
                    bytes: std::mem::size_of_val(&*self.keys),
                    width: size_of::<u16>(),
                },
                dir_base,
                dir,
                dir_over,
                ColumnBytes::of("slots", &self.slots),
                ColumnBytes::of("head_members", &self.head_members),
                ColumnBytes::of("head_votes", &self.head_votes),
                head_totals,
                head_totals_over,
                ColumnBytes::of("members", &self.members),
                ColumnBytes::of("vote_urls", &self.vote_urls),
                vote_counts,
                vote_counts_over,
            ],
            windows_filed: self.filed,
            derived_groups: derived,
            clean_groups: clean,
            dirty_groups: dirty,
            dropped_groups: self.dropped,
            largest_dirty,
        }
    }

    /// Resident heap bytes (for storage reporting alongside
    /// [`FrozenTree::heap_bytes`]): exactly what the index's lists allocate.
    pub fn memory_bytes(&self) -> usize {
        self.split().total()
    }

    /// Bucket occupancy for storage/telemetry gauges. A dirty group falls
    /// back to per-member verification at query time, so the dirty count is
    /// the structural ceiling on slow-bucket lookups.
    pub fn occupancy(&self) -> IndexOccupancy {
        let split = self.split();
        IndexOccupancy {
            buckets: self.keys.len(),
            max_bucket: self.max_bucket,
            dirty_groups: split.dirty_groups,
            derived_groups: split.derived_groups,
            dropped_groups: self.dropped,
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
        file_windows(t, 8, |e| {
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
        // Node "3" is filed under windows [3], [2,3], [1,2,3]. It is their
        // only voter, so the two longer windows are dropped, and a lookup
        // of [2, 3] falls through to [3]'s group, which is node "3".
        let node3 = t.descend(&[u(1), u(2), u(3)]).unwrap();
        assert_eq!(group(&idx, &[2, 3]), None);
        assert_eq!(group(&idx, &[3]), Some(WindowGroup::Derived(NodeId(node3))));
        // The leaf "4" votes for nothing, so it is not filed: 1 + 2 + 3
        // filings for the voting nodes 1, 2 and 3, of which the three
        // length-1 windows are stored.
        assert!(group(&idx, &[3, 4]).is_none());
        assert_eq!((idx.split().windows_filed, idx.len()), (1 + 2 + 3, 3));
        assert_eq!(idx.occupancy().dropped_groups, 3);
        // Kept, the longer windows are each node "3"'s row again.
        let all = ContextIndex::all_voting(&t, 8, KEY_BITS);
        assert_eq!(
            group(&all, &[2, 3]),
            Some(WindowGroup::Derived(NodeId(node3)))
        );
        assert_eq!(all.len(), 1 + 2 + 3);
    }

    #[test]
    fn window_groups_aggregate_member_votes() {
        // Three branches share the interior window [3]: its group's total
        // sums the voters' counts and its votes merge their children.
        // [2, 3] has the same three voters, so it is dropped and a lookup
        // of it lands on [3]'s group; [1, 2, 3] has one of them and stays.
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let Some(WindowGroup::Clean { rep, total, votes }) = group(&idx, &[3]) else {
            panic!("[3] is a clean stored group");
        };
        let mut spelled: Vec<u32> = [[1, 2, 3], [5, 2, 3], [7, 2, 3]]
            .iter()
            .map(|p| t.descend(&p.map(u)).unwrap())
            .collect();
        spelled.sort_unstable();
        assert_eq!(rep, NodeId(spelled[0]), "the first member represents");
        let summed: u64 = spelled.iter().map(|&m| t.count(m)).sum();
        assert_eq!((u64::from(total), summed), (4, 4));
        assert_eq!(votes.iter().collect::<Vec<_>>(), [(u(4), 3), (u(6), 1)]);
        assert!(group(&idx, &[2, 3]).is_none());
        let all = ContextIndex::all_voting(&t, 8, KEY_BITS);
        assert_eq!(group(&all, &[2, 3]), group(&idx, &[3]));
        assert_eq!(
            group(&idx, &[1, 2, 3]),
            Some(WindowGroup::Derived(NodeId(spelled[0])))
        );
        // Only voters are filed, and a window no row votes for is absent.
        for (key, _) in idx.groups() {
            let at = idx.position(key).unwrap();
            assert!(members(&idx, &t, at).iter().all(|&m| t.has_children(m)));
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
    fn index_columns_take_the_width_their_values_need() {
        let columns = |idx: &ContextIndex| {
            [
                idx.dir.width(),
                idx.slots.width(),
                idx.head_members.width(),
                idx.head_votes.width(),
                idx.head_totals.width(),
                idx.members.width(),
                idx.vote_urls.width(),
                idx.vote_counts.width(),
            ]
        };
        // A handful of rows: every column fits a byte, the slots' two
        // tags included.
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6]]);
        let idx = ContextIndex::all_dirty(&t, 8);
        assert_eq!((columns(&idx), idx.tag_shift), ([1; 8], 6));
        // URL ids past a byte widen the vote URLs, and 104 rows, with
        // the tags above them, the slots.
        let paths: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i % 2, 10, 300 + i]).collect();
        let refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
        let t = chain_tree(&refs);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        assert_eq!(t.len(), 104);
        assert_eq!(
            (columns(&idx), idx.tag_shift),
            ([1, 2, 1, 1, 1, 1, 2, 1], 14)
        );
        let Some(WindowGroup::Clean { total, votes, .. }) = group(&idx, &[10]) else {
            panic!("[10] is a clean stored group");
        };
        assert_eq!((total, votes.len()), (100, 100));
        assert!(votes.iter().map(|(url, _)| url.0).eq(300..400));
        for (key, g) in idx.groups() {
            assert_eq!(idx.group_by_key(key), Some(g));
        }
    }

    #[test]
    fn clean_groups_store_no_members_and_keys_two_bytes() {
        let t = chain_tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 2, 3, 6], &[7, 2, 3, 4]]);
        let idx = ContextIndex::windows(&t, 8).unwrap();
        let split = idx.split();
        assert_eq!(split.bytes("keys"), 2 * idx.occupancy().buckets);
        assert_eq!(split.columns[0].width, 2);
        assert_eq!(split.bytes("members"), 0);
        assert_eq!((split.dirty_groups, split.largest_dirty), (0, 0));
        assert_eq!(split.total(), idx.memory_bytes());
        // Stored every group dirty, the same index keeps every member, a
        // byte each at this size.
        let dirty = ContextIndex::all_dirty(&t, 8);
        let split = dirty.split();
        assert_eq!(split.bytes("members"), dirty.len());
        assert_eq!(split.dirty_groups, dirty.occupancy().buckets);
        assert_eq!(split.largest_dirty, dirty.occupancy().max_bucket);
    }

    #[test]
    fn a_window_no_row_votes_for_never_dirties_a_group() {
        // `[a, b]`: row `a` votes for `b`, and the leaf `b` votes for
        // nothing. Storing no key bits, every directory slot is one group,
        // so one of the leaf's windows `[b]` and `[a, b]` often lands in
        // `[a]`'s slot. It is dropped before the group forms: the group is
        // `a`'s row alone, as at full width, and a lookup of the leaf's
        // window that lands there is answered as a miss by the row's check.
        let key = |window: &[u32]| {
            let context: Vec<UrlId> = window.iter().map(|&n| u(n)).collect();
            let mut h = ContextHashes::new();
            h.compute(&context, context.len());
            bucket_key(context.len(), h.suffix_hash(context.len()))
        };
        let mut found = 0;
        for a in 0..32u32 {
            let b = a + 100;
            let t = chain_tree(&[&[a, b]]);
            let row = t.descend(&[u(a)]).unwrap();
            let merged = ContextIndex::with_key_bits(&t, 8, 0).unwrap();
            let at = merged.position(key(&[a])).unwrap();
            let colliding: Vec<Vec<u32>> = [vec![b], vec![a, b]]
                .into_iter()
                .filter(|w| merged.position(key(w)) == Some(at))
                .collect();
            if colliding.is_empty() {
                continue;
            }
            found += 1;
            let full = ContextIndex::windows(&t, 8).unwrap();
            assert_eq!(merged.group_at(at), WindowGroup::Derived(NodeId(row)));
            assert_eq!(group(&merged, &[a]), group(&full, &[a]));
            assert_eq!((merged.split().dirty_groups, merged.len()), (0, 1));
            for window in colliding {
                assert!(group(&full, &window).is_none());
                let suffix: Vec<UrlId> = window.iter().map(|&n| u(n)).collect();
                assert!(t.match_top(row, &suffix).is_none(), "{window:?}");
            }
        }
        assert!(found > 0, "some leaf window lands in its voter's slot");
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
    fn reference_filings(t: &FrozenTree, max_order: usize) -> Filings {
        let (mut entries, first) = filed_in_order(t, max_order).unwrap();
        entries.sort_unstable_by_key(|e| (e.key, e.node, e.len));
        Filings { entries, first }
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
            prop_assert_eq!(&sorted_filings(&t, max_order).unwrap(), &reference);
            for key_bits in [KEY_BITS, 4, 0] {
                let built = ContextIndex::with_key_bits(&t, max_order, key_bits).unwrap();
                let layout = Layout { key_bits, ..Layout::SERVING };
                let oracle = ContextIndex::from_filings(&t, reference.clone(), layout).unwrap();
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
