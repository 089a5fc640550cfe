//! String interning: URLs (and other identifiers) mapped to dense `u32` ids.
//!
//! Every hot data structure in the models stores [`UrlId`]s rather than
//! strings: ids are 4 bytes, hash in one multiply, and compare in one
//! instruction, which is what makes the arena trie in [`crate::frozen`] compact
//! (see the Rust Performance Book, "Smaller Integers").

use crate::bitmap::RankBitmap;
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
/// and an open-addressing table of 4-byte slots turns a string into its
/// id. Every slot carries a hash tag above its id, so a probe compares
/// strings only when the tag matches.
///
/// Interning is append-only: ids are never recycled, and
/// [`Interner::resolve`] of any previously returned id always succeeds.
/// Ids and arena offsets are `u32`; interning past either limit panics
/// (the snapshot reader, which must not, refuses such a table instead).
///
/// A table decoded from a model file may have holes: it keeps the id
/// space of the table that wrote it ([`Interner::len`]) but only the
/// strings the model names ([`Interner::strings`]). An absent id resolves
/// to `None` and its string is not found; a string interned later takes
/// the next id past the whole space, as in the writer's table. A presence
/// bitmap with a rank directory turns an id into its string's slot; a
/// table without holes has none and pays nothing for it.
#[derive(Default, Clone)]
pub struct Interner {
    /// Every held string, back to back in id order.
    bytes: String,
    /// `ends[slot]` is where the string in `slot` ends in `bytes`; it
    /// starts where the one before ends, or at 0. Without holes a
    /// string's slot is its id.
    ends: Vec<u32>,
    /// Linear-probing table, empty or at least [`MIN_SLOTS`] long and at
    /// most half full. A slot holds `id + 1` in the bits `id_mask` covers
    /// and the top bits of the string's tag ([`tag_of`]) above them; a
    /// zero slot is empty, because an occupied one's id field is not.
    slots: Box<[u32]>,
    /// The id field of a slot: as many low bits as the largest `id + 1`
    /// the table holds before it grows needs ([`id_mask_for`]), chosen
    /// whenever the table is rebuilt.
    id_mask: u32,
    /// Which ids hold a string, when some do not; `None` when every id
    /// below `ends.len()` does. A held id's rank among them is its
    /// string's slot.
    presence: Option<RankBitmap>,
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

/// The id field of a table of `slots` slots: the low bits that hold
/// `id + 1` for every id it holds before it grows, up to all 32, which
/// leaves no tag (past 2^31 strings a probe compares every string on its
/// run).
fn id_mask_for(slots: usize) -> u32 {
    id_field(room(slots))
}

/// The low bits that hold every `id + 1` up to `ids`, up to all 32.
fn id_field(ids: usize) -> u32 {
    let bits = usize::BITS - ids.leading_zeros();
    if bits >= u32::BITS {
        u32::MAX
    } else {
        (1 << bits) - 1
    }
}

#[inline]
fn hash_of(name: &str) -> u64 {
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// The hash folded to 32 bits, of which a slot keeps the top bits above
/// its id field. The fold lets the well-mixed high bits tell apart
/// strings whose Fx hashes share their low bits.
#[allow(clippy::cast_possible_truncation)] // folds the halves on purpose
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash ^ hash >> 32) as u32
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
fn vacant_slot(slots: &[u32], hash: u64) -> usize {
    let mut i = home(hash, slots.len());
    while slots[i] != 0 {
        i = next_slot(i, slots.len());
    }
    i
}

/// The slot of string `id` whose hash is `hash`, under `id_mask`. The
/// table's length bounds `id + 1` to the id field, and `intern` refuses
/// the one id whose `id + 1` would not fit 32 bits.
fn pack(id: UrlId, hash: u64, id_mask: u32) -> u32 {
    debug_assert!(id.0 < id_mask, "id field too narrow");
    (tag_of(hash) & !id_mask) | (id.0 + 1)
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with room for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        let len = slots_for(n);
        Self {
            bytes: String::new(),
            ends: Vec::with_capacity(n),
            slots: vec![0; len].into_boxed_slice(),
            id_mask: id_mask_for(len),
            presence: None,
        }
    }

    /// An empty table over `len` ids, of which those whose bits `words`
    /// sets (a bitmap over `0..len`, 64 ids a word, none set at or past
    /// `len`) are to hold strings: [`Interner::try_intern_at`] fills them
    /// in id order. The probe table is sized for those strings.
    pub(crate) fn with_holes(len: u32, words: Vec<u64>) -> Self {
        let presence = RankBitmap::new(len, words);
        let strings = presence.count();
        let mut interner = Self {
            ends: Vec::with_capacity(strings),
            presence: Some(presence),
            ..Self::default()
        };
        interner.rehash(slots_for(strings));
        interner
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
        let vacant = match self.probe(name, hash) {
            Ok(id) => return Some(id),
            Err(vacant) => vacant,
        };
        // `id + 1` must fit a slot's 32 bits.
        let id = UrlId(u32::try_from(self.len()).ok().filter(|&id| id < u32::MAX)?);
        self.store(id, name, hash, vacant)?;
        if let Some(presence) = &mut self.presence {
            presence.push();
        }
        Some(id)
    }

    /// Stores `name` as string `id`, the next id that is to hold one in a
    /// table [`Interner::with_holes`] made, or the next id of one without
    /// holes: `Some(id)`, or the earlier id that already holds `name`, or
    /// `None` past `u32` arena offsets.
    pub(crate) fn try_intern_at(&mut self, id: UrlId, name: &str) -> Option<UrlId> {
        let hash = hash_of(name);
        match self.probe(name, hash) {
            Ok(earlier) => Some(earlier),
            Err(vacant) => {
                debug_assert_eq!(self.slot(id), Some(self.ends.len()), "ids out of order");
                self.store(id, name, hash, vacant).map(|()| id)
            }
        }
    }

    /// Appends `name`, whose hash is `hash` and which the table lacks, as
    /// string `id`, `vacant` being the empty slot its probe ended on.
    /// `None`, changing nothing, when its end would pass `u32::MAX`.
    fn store(&mut self, id: UrlId, name: &str, hash: u64, mut vacant: usize) -> Option<()> {
        let end = u32::try_from(self.bytes.len() + name.len()).ok()?;
        if self.ends.len() >= room(self.slots.len()) {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
            vacant = vacant_slot(&self.slots, hash);
        }
        self.bytes.push_str(name);
        self.ends.push(end);
        self.slots[vacant] = pack(id, hash, self.id_mask);
        Some(())
    }

    /// Drops every slack byte: the table is rebuilt at the length that
    /// holds its strings without growing, and the arena and the offsets
    /// hold exactly their strings, so a table built by merging others (or
    /// reserved for more strings than it got) costs what one interned
    /// from its strings alone does.
    pub fn shrink_to_fit(&mut self) {
        let len = slots_for(self.strings());
        if len != self.slots.len() {
            self.rehash(len);
        }
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
        if let Some(presence) = &mut self.presence {
            presence.shrink_to_fit();
        }
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
        let tag_mask = !self.id_mask;
        let tag = tag_of(hash) & tag_mask;
        let mut i = home(hash, self.slots.len());
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            if slot & tag_mask == tag {
                // An occupied slot's id field holds `id + 1 ≥ 1`.
                let id = UrlId((slot & self.id_mask) - 1);
                if self
                    .span(id)
                    .is_some_and(|span| &self.bytes.as_bytes()[span] == name.as_bytes())
                {
                    return Ok(id);
                }
            }
            i = next_slot(i, self.slots.len());
        }
    }

    /// Rebuilds the table at `len` slots from the arena, with the id field
    /// that length needs: room for every id the table holds or issues
    /// before it grows again, which with holes runs past the space.
    fn rehash(&mut self, len: usize) {
        let id_mask = match &self.presence {
            None => id_mask_for(len),
            Some(p) => id_field(p.len() as usize + room(len).saturating_sub(p.count())),
        };
        self.rehash_with(len, id_mask);
    }

    /// [`Interner::rehash`] with the id field `id_mask`.
    fn rehash_with(&mut self, len: usize, id_mask: u32) {
        let mut slots = vec![0; len].into_boxed_slice();
        for (id, name) in self.iter() {
            let hash = hash_of(name);
            slots[vacant_slot(&slots, hash)] = pack(id, hash, id_mask);
        }
        self.slots = slots;
        self.id_mask = id_mask;
    }

    /// Returns the string for `id`, or `None` if the id was never issued.
    #[inline]
    pub fn resolve(&self, id: UrlId) -> Option<&str> {
        self.span(id).map(|span| &self.bytes[span])
    }

    /// The slot of string `id` in `ends`, if the id holds one.
    #[inline]
    fn slot(&self, id: UrlId) -> Option<usize> {
        match &self.presence {
            None => Some(id.index()),
            Some(p) => p.rank(id.index()),
        }
    }

    /// Where string `id` lies in the arena.
    #[inline]
    fn span(&self, id: UrlId) -> Option<Range<usize>> {
        let i = self.slot(id)?;
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        Some(start..end)
    }

    /// True when `id` holds a string: [`Interner::resolve`] finds it.
    #[inline]
    pub fn contains(&self, id: UrlId) -> bool {
        self.slot(id).is_some_and(|slot| slot < self.ends.len())
    }

    /// The id-space size: one past the largest id issued. Without holes it
    /// is also the number of strings.
    pub fn len(&self) -> usize {
        self.presence
            .as_ref()
            .map_or(self.ends.len(), |p| p.len() as usize)
    }

    /// True if no id was ever issued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many ids hold a string: [`Interner::len`] less the holes.
    pub fn strings(&self) -> usize {
        self.ends.len()
    }

    /// True when some id below [`Interner::len`] holds no string.
    pub fn has_holes(&self) -> bool {
        self.strings() < self.len()
    }

    /// Iterates over the `(id, name)` pairs of the ids that hold a string,
    /// in id order.
    pub fn iter(&self) -> impl Iterator<Item = (UrlId, &str)> {
        let ids = (0..u32::try_from(self.len()).unwrap_or(u32::MAX)).map(UrlId);
        let held = ids.filter(move |&id| {
            self.presence
                .as_ref()
                .is_none_or(|p| p.rank(id.index()).is_some())
        });
        let mut start = 0;
        held.zip(&self.ends).map(move |(id, &end)| {
            let name = &self.bytes[start..end as usize];
            start = end as usize;
            (id, name)
        })
    }

    /// Where the interner's heap bytes go: exactly what the arena, the
    /// offsets, the table and the presence set allocate.
    pub fn split(&self) -> InternerSplit {
        InternerSplit {
            strings: self.bytes.capacity(),
            ends: self.ends.capacity() * size_of::<u32>(),
            slots: size_of_val(&*self.slots),
            presence: self.presence.as_ref().map_or(0, |p| {
                let (words, ranks) = p.heap_bytes();
                words + ranks
            }),
        }
    }

    /// Resident heap bytes: [`Interner::split`]'s total.
    pub fn memory_bytes(&self) -> usize {
        self.split().total()
    }
}

/// Where an [`Interner`]'s heap bytes go (see [`Interner::split`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerSplit {
    /// The string arena's bytes.
    pub strings: usize,
    /// The end offsets, 4 B per string.
    pub ends: usize,
    /// The probe table, 4 B per slot.
    pub slots: usize,
    /// A table with holes: its presence bitmap and rank directory, 12 B
    /// per 64 ids; 0 without holes.
    pub presence: usize,
}

impl InternerSplit {
    /// Every part's bytes summed: [`Interner::memory_bytes`].
    #[must_use]
    pub fn total(&self) -> usize {
        self.sections().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// The parts as `(name, bytes)` pairs.
    #[must_use]
    pub fn sections(&self) -> [(&'static str, usize); 4] {
        [
            ("strings", self.strings),
            ("ends", self.ends),
            ("slots", self.slots),
            ("presence", self.presence),
        ]
    }
}

impl FromIterator<String> for Interner {
    /// Interns each string in order; a repeat keeps its first id. The
    /// table is built once, so it keeps no slack
    /// ([`Interner::shrink_to_fit`]).
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut interner = Interner::with_capacity(iter.size_hint().0);
        for name in iter {
            interner.intern(&name);
        }
        interner.shrink_to_fit();
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

    /// The slots of `i` that `name`'s probe passes whose tag bits match
    /// its own, before the empty slot that ends the run.
    fn tag_matches_on_run(i: &Interner, name: &str) -> usize {
        let hash = hash_of(name);
        let tag_mask = !i.id_mask;
        let mut at = home(hash, i.slots.len());
        let mut matches = 0;
        while i.slots[at] != 0 {
            matches += usize::from(i.slots[at] & tag_mask == tag_of(hash) & tag_mask);
            at = next_slot(at, i.slots.len());
        }
        matches
    }

    #[test]
    fn the_id_field_widens_with_the_table() {
        assert_eq!(id_mask_for(0), 0);
        assert_eq!(id_mask_for(8), 0b111);
        assert_eq!(id_mask_for(16), 0b1111);
        assert_eq!(id_mask_for(24), 0b1111);
        assert_eq!(id_mask_for(1 << 21), (1 << 21) - 1);
        // Past 2^31 strings the id field takes every bit.
        assert_eq!(id_mask_for(1 << 32), u32::MAX);
        assert_eq!(id_mask_for(1 << 33), u32::MAX);
        for len in [8, 9, 100, 1 << 20, (1 << 31) + 2] {
            assert!(room(len) as u64 <= u64::from(id_mask_for(len)));
        }
    }

    #[test]
    fn tables_grown_across_every_id_field_width_find_every_string() {
        // Doubling from 8 slots to 2^19 takes the id field from 3 bits to
        // 19: every width a table up to 2^18 strings has. After each
        // growth, every string is found, and an absent one is not.
        let mut i = Interner::new();
        let mut widths = Vec::new();
        let n = 1 << 18;
        for k in 0..n {
            let name = format!("/w/{k}");
            assert_eq!(i.intern(&name).index(), k);
            let bits = i.id_mask.count_ones();
            if widths.last() != Some(&bits) {
                widths.push(bits);
                for j in (0..=k).step_by(1 + k / 64) {
                    assert_eq!(i.get(&format!("/w/{j}")).map(UrlId::index), Some(j));
                }
                assert_eq!(i.get(&format!("/w/{k}")).map(UrlId::index), Some(k));
                assert_eq!(i.get("/absent"), None);
            }
        }
        assert_eq!(widths, (3..=19).collect::<Vec<u32>>());
        for k in 0..n {
            assert_eq!(i.get(&format!("/w/{k}")).map(UrlId::index), Some(k));
        }
        for k in n..n + 1000 {
            assert_eq!(i.get(&format!("/w/{k}")), None);
        }
    }

    #[test]
    fn an_absent_string_whose_tag_matches_is_not_found() {
        let names: Vec<String> = (0..200).map(|k| format!("/p{k}")).collect();
        let mut i: Interner = names.iter().cloned().collect();
        // With four tag bits, an absent string's probe meets tags equal to
        // its own; with none (the layout past 2^31 strings), every slot on
        // its run matches. Either way the string compare refuses them.
        for id_mask in [0x0FFF_FFFF, u32::MAX] {
            i.rehash_with(i.slots.len(), id_mask);
            let absent = (0..)
                .map(|k| format!("/absent/{k}"))
                .find(|name| tag_matches_on_run(&i, name) > 0)
                .expect("some absent string meets its tag");
            assert_eq!(i.get(&absent), None);
            for (k, name) in names.iter().enumerate() {
                assert_eq!(i.get(name).map(UrlId::index), Some(k));
            }
        }
    }

    #[test]
    fn shrinking_drops_every_slack_byte() {
        let names: Vec<String> = (0..300).map(|k| format!("/s{k}")).collect();
        let mut reserved = Interner::with_capacity(5_000);
        for name in &names {
            reserved.intern(name);
        }
        reserved.shrink_to_fit();
        let fresh: Interner = names.iter().cloned().collect();
        assert_eq!(reserved.split(), fresh.split());
        assert_eq!(reserved.slots, fresh.slots);
        assert_eq!(reserved.split().slots, 4 * slots_for(300));
        for (k, name) in names.iter().enumerate() {
            assert_eq!(reserved.get(name).map(UrlId::index), Some(k));
        }
    }

    #[test]
    fn empty_string_is_a_valid_key() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), Some(""));
    }
}
