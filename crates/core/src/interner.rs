//! String interning: URLs (and other identifiers) mapped to dense `u32` ids.
//!
//! Every hot data structure in the models stores [`UrlId`]s rather than
//! strings: ids are 4 bytes, hash in one multiply, and compare in one
//! instruction, which is what makes the arena trie in [`crate::frozen`] compact
//! (see the Rust Performance Book, "Smaller Integers").

use crate::fxhash::FxHasher;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Dense identifier for an interned string (a URL in most of this crate).
///
/// Ids are assigned consecutively from zero in interning order, so they can
/// index plain `Vec`s (`Vec<Grade>`, `Vec<u64>` access counters, …) without
/// hashing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UrlId(pub u32);

impl UrlId {
    /// The id as a `usize`, for direct `Vec` indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UrlId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Two-way map between strings and dense [`UrlId`]s.
///
/// Each string is stored once. The strings sit back to back in one byte
/// arena in id order, a table of end offsets turns an id into its string,
/// and an open-addressing table of ids turns a string into its id. Every
/// slot of that table carries a hash tag next to its id, so a probe
/// compares strings only when the tag matches.
///
/// Interning is append-only: ids are never recycled, and
/// [`Interner::resolve`] of any previously returned id always succeeds.
/// Ids and arena offsets are `u32`; interning past either limit panics
/// (the snapshot reader, which must not, refuses such a table instead).
#[derive(Default, Clone)]
pub struct Interner {
    /// Every interned string, back to back in id order.
    bytes: String,
    /// `ends[id]` is where string `id` ends in `bytes`; it starts where
    /// string `id - 1` ends, or at 0.
    ends: Vec<u32>,
    /// Linear-probing table, empty or at least [`MIN_SLOTS`] long and at
    /// most half full. A slot is `id << 32 | tag` (see [`tag_of`]), and a
    /// zero slot is empty: tags are odd, so no occupied slot is zero.
    slots: Box<[u64]>,
}

/// The smallest table [`Interner::intern`] allocates.
const MIN_SLOTS: usize = 8;

/// How many strings a table of `slots` slots holds before it grows: half
/// its length, which keeps probe runs short on hits and misses alike.
fn room(slots: usize) -> usize {
    slots / 2
}

/// The table length that holds `n` strings without growing: exactly
/// twice `n`, so a table sized for a known count is half full.
fn slots_for(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (2 * n).max(MIN_SLOTS)
}

#[inline]
fn hash_of(name: &str) -> u64 {
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// The hash folded to 32 bits, made odd so an occupied slot is never
/// zero. The fold lets the well-mixed high bits tell apart strings whose
/// Fx hashes share their low bits.
#[allow(clippy::cast_possible_truncation)] // folds the halves on purpose
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash ^ hash >> 32) as u32 | 1
}

/// A string's first probe position in a table of `slots` slots, any
/// length: the hash scaled onto `0..slots` by a multiply-high, which reads
/// the hash's top bits, the ones the Fx multiply mixes best.
#[allow(clippy::cast_possible_truncation)] // the product's high half is below `slots`
#[inline]
fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// The slot after `i` on a probe run, wrapping at the table's end.
#[inline]
fn next_slot(i: usize, slots: usize) -> usize {
    if i + 1 == slots {
        0
    } else {
        i + 1
    }
}

/// The first empty slot on `hash`'s probe run in a table with room.
fn vacant_slot(slots: &[u64], hash: u64) -> usize {
    let mut i = home(hash, slots.len());
    while slots[i] != 0 {
        i = next_slot(i, slots.len());
    }
    i
}

fn pack(id: UrlId, tag: u32) -> u64 {
    u64::from(id.0) << 32 | u64::from(tag)
}

#[allow(clippy::cast_possible_truncation)] // unpacks the halves `pack` joined
#[inline]
fn unpack(slot: u64) -> (UrlId, u32) {
    (UrlId((slot >> 32) as u32), slot as u32)
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with room for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bytes: String::new(),
            ends: Vec::with_capacity(n),
            slots: vec![0; slots_for(n)].into_boxed_slice(),
        }
    }

    /// Returns the id for `name`, interning it if it has not been seen.
    pub fn intern(&mut self, name: &str) -> UrlId {
        self.try_intern(name)
            .expect("interned strings past u32 ids or arena offsets")
    }

    /// [`Interner::intern`], or `None` when a new string would take an id
    /// or an arena offset past `u32::MAX`.
    pub(crate) fn try_intern(&mut self, name: &str) -> Option<UrlId> {
        let hash = hash_of(name);
        let mut vacant = match self.probe(name, hash) {
            Ok(id) => return Some(id),
            Err(vacant) => vacant,
        };
        let id = UrlId(u32::try_from(self.ends.len()).ok()?);
        let end = u32::try_from(self.bytes.len() + name.len()).ok()?;
        if self.ends.len() >= room(self.slots.len()) {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
            vacant = vacant_slot(&self.slots, hash);
        }
        self.bytes.push_str(name);
        self.ends.push(end);
        self.slots[vacant] = pack(id, tag_of(hash));
        Some(id)
    }

    /// Drops the byte arena's growth slack, so a table built once holds
    /// exactly its strings' bytes.
    pub(crate) fn shrink_arena(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// Returns the id for `name` if it has already been interned.
    #[inline]
    pub fn get(&self, name: &str) -> Option<UrlId> {
        self.probe(name, hash_of(name)).ok()
    }

    /// Finds `name`'s id, or the empty slot where it would go (0 when the
    /// table is empty, which `intern` grows before it writes).
    #[inline]
    fn probe(&self, name: &str, hash: u64) -> Result<UrlId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let tag = tag_of(hash);
        let mut i = home(hash, self.slots.len());
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            let (id, slot_tag) = unpack(slot);
            if slot_tag == tag
                && self
                    .span(id)
                    .is_some_and(|span| &self.bytes.as_bytes()[span] == name.as_bytes())
            {
                return Ok(id);
            }
            i = next_slot(i, self.slots.len());
        }
    }

    /// Rebuilds the table at `len` slots from the arena.
    fn rehash(&mut self, len: usize) {
        let mut slots = vec![0; len].into_boxed_slice();
        for (id, name) in self.iter() {
            let hash = hash_of(name);
            slots[vacant_slot(&slots, hash)] = pack(id, tag_of(hash));
        }
        self.slots = slots;
    }

    /// Returns the string for `id`, or `None` if the id was never issued.
    #[inline]
    pub fn resolve(&self, id: UrlId) -> Option<&str> {
        self.span(id).map(|span| &self.bytes[span])
    }

    /// Where string `id` lies in the arena.
    #[inline]
    fn span(&self, id: UrlId) -> Option<Range<usize>> {
        let i = id.index();
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        Some(start..end)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    #[allow(clippy::cast_possible_truncation)] // ids were handed out as u32, so indices fit
    pub fn iter(&self) -> impl Iterator<Item = (UrlId, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let name = &self.bytes[start..end as usize];
            start = end as usize;
            (UrlId(i as u32), name)
        })
    }

    /// Resident heap bytes: exactly what the arena, the offsets and the
    /// table allocate.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.ends.capacity() * size_of::<u32>()
            + self.slots.len() * size_of::<u64>()
    }
}

impl FromIterator<String> for Interner {
    /// Interns each string in order; a repeat keeps its first id.
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut interner = Interner::with_capacity(iter.size_hint().0);
        for name in iter {
            interner.intern(&name);
        }
        interner
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, name)| name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("/a");
        let a2 = i.intern("/a");
        assert_eq!(a, a2);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        let a = i.intern("/a");
        let b = i.intern("/b");
        let c = i.intern("/c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let id = i.intern("/some/long/path.html");
        assert_eq!(i.resolve(id), Some("/some/long/path.html"));
        assert_eq!(i.resolve(UrlId(99)), None);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("/a"), None);
        assert_eq!(i.len(), 0);
        let id = i.intern("/a");
        assert_eq!(i.get("/a"), Some(id));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("/x");
        i.intern("/y");
        let pairs: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "/x".to_owned()), (1, "/y".to_owned())]);
    }

    #[test]
    fn a_table_sized_to_its_load_finds_every_string() {
        // Tables of any length, not just powers of two: sized for `n`
        // strings, then grown past them by doubling.
        for n in 1..40 {
            let mut i = Interner::with_capacity(n);
            assert_eq!(i.slots.len(), (2 * n).max(MIN_SLOTS));
            let names: Vec<String> = (0..4 * n).map(|k| format!("/p{k}.html")).collect();
            for (k, name) in names.iter().enumerate() {
                assert_eq!(i.intern(name).index(), k);
                if k + 1 == n {
                    assert_eq!(i.slots.len(), (2 * n).max(MIN_SLOTS), "no growth at n");
                }
            }
            for (k, name) in names.iter().enumerate() {
                assert_eq!(i.get(name).map(UrlId::index), Some(k));
            }
            assert_eq!(i.get("/absent"), None);
        }
    }

    #[test]
    fn empty_string_is_a_valid_key() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), Some(""));
    }
}
