//! Unsigned integer columns stored at the width their values need.
//!
//! A [`UintColumn`] holds unsigned integers in the fewest whole bytes, 1
//! to 8, that hold the largest value it was built for. The width is
//! picked once, while the column is built, from a bound its builder
//! already knows (a row count, a maximum tracked while the values were
//! produced) or, for a column pushed value by value, from the values
//! themselves (`ColumnBuilder`). It never changes afterwards, and no
//! value loses a bit.
//!
//! The values sit back to back as little-endian bytes. A read loads the
//! eight bytes at the value's offset, `i × width`, and masks off its
//! width: one load, a multiply and a mask, the same instructions at every
//! width, so a server that reads shards of different widths in turn takes
//! no branch on the width (the last few values of a column, whose eight
//! bytes would run past its end, are read byte by byte). A pass over the
//! whole column walks its bytes with [`UintColumn::iter`] instead.
//!
//! Every column is one exact-size allocation: its heap is its length times
//! its width ([`UintColumn::heap_bytes`]).
//!
//! Counts are skewed: a few popular URLs and branches take most of the
//! traffic, and one large count would widen a whole [`UintColumn`]. A
//! [`CountColumn`] stores every value at a narrower width `w` and keeps
//! the few that do not fit apart. Such a value is stored as `w`'s top
//! code, the escape, and listed, with its position, in a small
//! open-addressing table keyed by position. A read that meets the escape
//! probes that table, in one or two slots; a position the table does not
//! hold has the escape as its value. The build picks the `w` that takes
//! the fewest bytes in all, so a count column is never larger than the
//! [`UintColumn`] of its values.
//!
//! Offsets into level-order rows step forward a little at a time: a row's
//! parent or first child is a few rows past its neighbour's, though the
//! values reach the row count. A [`FrameColumn`] stores, for each block
//! of 64 values, the block's least value at the width of the bound
//! the column was built for, and for each value its excess over that
//! base in a [`CountColumn`], so that the few large excesses (where the
//! values drop, or jump) sit in its outlier table. A read is one base
//! read and one excess read.

use std::ops::Range;

/// Values per [`FrameColumn`] block: each block stores one base.
const FRAME: usize = 64;

/// Runs at most this long are scanned linearly by
/// [`UintColumn::position_sorted`]; longer ones are binary-searched.
const LINEAR_SCAN_MAX: usize = 16;

/// The fewest whole bytes, 1 to 8, that hold `max`.
#[must_use]
pub const fn width_for(max: u64) -> usize {
    let bits = 64 - max.leading_zeros() as usize;
    if bits == 0 {
        1
    } else {
        bits.div_ceil(8)
    }
}

/// The width that holds `max`, and the mask of that width's bits.
const fn layout(max: u64) -> (usize, u64) {
    let width = width_for(max);
    (width, u64::MAX >> (64 - 8 * width))
}

/// `value`'s little-endian bytes, of which a column keeps its width's. A
/// value above the bound the column was built for is a bug in its
/// builder: the bound is where the width came from.
#[inline]
fn lane(value: u64, mask: u64) -> [u8; 8] {
    assert!(value <= mask, "value above its column's bound");
    value.to_le_bytes()
}

/// Calls `$f::<W>($args)` for the width `$width`, so each width's copy
/// has a length the compiler sees: one store, not a call to `memcpy`.
macro_rules! by_width {
    ($width:expr, $f:ident($($arg:expr),*)) => {
        match $width {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            _ => $f::<8>($($arg),*),
        }
    };
}

/// Appends each of `values` as its low `W` bytes.
fn extend_lanes<const W: usize>(bytes: &mut Vec<u8>, values: impl Iterator<Item = u64>, mask: u64) {
    values.for_each(|v| bytes.extend_from_slice(&lane(v, mask)[..W]));
}

/// Writes `le`'s low `W` bytes at byte `at`.
#[inline]
fn put<const W: usize>(bytes: &mut [u8], at: usize, le: &[u8; 8]) {
    bytes[at..at + W].copy_from_slice(&le[..W]);
}

/// Appends `le`'s low `W` bytes.
#[inline]
fn push_lane<const W: usize>(bytes: &mut Vec<u8>, le: &[u8; 8]) {
    bytes.extend_from_slice(&le[..W]);
}

/// The value of `width` bytes at byte `start`, masked by `mask`: one
/// eight-byte load, or byte by byte when those eight bytes run past the
/// end.
#[inline]
fn read(bytes: &[u8], start: usize, width: usize, mask: u64) -> u64 {
    match bytes.get(start..start + 8) {
        Some(word) => {
            let mut le = [0; 8];
            le.copy_from_slice(word);
            u64::from_le_bytes(le) & mask
        }
        None => read_near_end(bytes, start, width),
    }
}

/// The value of `width` bytes at byte `start`, whose eight bytes run past
/// the end.
#[cold]
#[inline(never)]
fn read_near_end(bytes: &[u8], start: usize, width: usize) -> u64 {
    let mut le = [0; 8];
    le[..width].copy_from_slice(&bytes[start..start + width]);
    u64::from_le_bytes(le)
}

/// Unsigned integers stored at the narrowest width that holds the largest
/// value the column was built for (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UintColumn {
    /// The values, `width` little-endian bytes each.
    bytes: Box<[u8]>,
    /// Number of values.
    len: usize,
    /// Bytes per value, 1 to 8.
    width: usize,
    /// The width's bits.
    mask: u64,
}

impl Default for UintColumn {
    fn default() -> Self {
        Self::collect(0, [])
    }
}

impl UintColumn {
    /// The column of `values`, each at most `max`, at `max`'s width.
    ///
    /// # Panics
    ///
    /// If a value exceeds `max`'s width.
    pub fn collect(max: u64, values: impl IntoIterator<Item = u64>) -> Self {
        let (width, mask) = layout(max);
        let values = values.into_iter();
        let mut bytes = Vec::with_capacity(values.size_hint().0 * width);
        by_width!(width, extend_lanes(&mut bytes, values, mask));
        Self::of_bytes(bytes, width, mask)
    }

    /// The column over `bytes`, whole values of `width` bytes each.
    fn of_bytes(bytes: Vec<u8>, width: usize, mask: u64) -> Self {
        Self {
            len: bytes.len() / width,
            bytes: bytes.into_boxed_slice(),
            width,
            mask,
        }
    }

    /// The column of `values` at the width of their largest.
    pub fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        Self::collect(max, values.iter().copied())
    }

    /// `len` copies of `value` in a column that can later hold any value
    /// up to `max`.
    ///
    /// # Panics
    ///
    /// If `value` exceeds `max`.
    pub fn filled(max: u64, len: usize, value: u64) -> Self {
        let (width, mask) = layout(max);
        Self::of_bytes(lane(value, mask)[..width].repeat(len), width, mask)
    }

    /// Value `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        read(&self.bytes, i * self.width, self.width, self.mask)
    }

    /// Values `i` and `i + 1`: a run's bounds in an offset column.
    ///
    /// # Panics
    ///
    /// If `i + 1` is out of bounds.
    #[inline]
    #[must_use]
    pub fn pair(&self, i: usize) -> (u64, u64) {
        (self.get(i), self.get(i + 1))
    }

    /// Value `i`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn try_get(&self, i: usize) -> Option<u64> {
        (i < self.len).then(|| self.get(i))
    }

    /// Sets value `i`, which must fit the column's width.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds or `value` exceeds the width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        let le = lane(value, self.mask);
        by_width!(self.width, put(&mut self.bytes, i * self.width, &le));
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per value: 1 to 8.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Exact heap bytes: length times width.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Every value in order, walking the bytes one width at a time.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        self.lanes_in(0..self.len)
    }

    /// The values in `range`, in order.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    fn lanes_in(&self, range: Range<usize>) -> Iter<'_> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "run past the column's end"
        );
        Iter {
            bytes: &self.bytes,
            at: range.start * self.width,
            left: range.len(),
            width: self.width,
            mask: self.mask,
        }
    }

    /// Every value, in order, as `u64`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Where `value` sits within `range`, counted from its start, when the
    /// values in `range` ascend strictly. Short runs are a linear scan,
    /// long runs binary-search.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    #[inline]
    #[must_use]
    pub fn position_sorted(&self, range: Range<usize>, value: u64) -> Option<usize> {
        assert!(range.end <= self.len, "run past the column's end");
        if range.len() <= LINEAR_SCAN_MAX {
            for at in range.clone() {
                let x = self.get(at);
                if x >= value {
                    return (x == value).then_some(at - range.start);
                }
            }
            return None;
        }
        let at = partition_point(range.clone(), |i| self.get(i), |x| x < value);
        (at < range.end && self.get(at) == value).then_some(at - range.start)
    }
}

/// The first position in `range` whose value, read by `get`, fails
/// `pred`, for values `pred` partitions (see `slice::partition_point`).
fn partition_point(
    range: Range<usize>,
    get: impl Fn(usize) -> u64,
    mut pred: impl FnMut(u64) -> bool,
) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(get(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A [`UintColumn`]'s values in order ([`UintColumn::iter`]): each read is
/// the eight bytes at a running offset, masked, with no multiply and no
/// check against the column's length.
#[derive(Debug, Clone)]
struct Iter<'a> {
    bytes: &'a [u8],
    /// The next value's first byte.
    at: usize,
    /// Values not yet read.
    left: usize,
    width: usize,
    mask: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        let value = read(self.bytes, self.at, self.width, self.mask);
        self.at += self.width;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A [`UintColumn`] pushed value by value. It starts at the width of a
/// bound its caller knows (1 byte with none) and widens, copying what it
/// holds, each time a value does not fit, straight to that value's width;
/// so the finished column has the width of its largest value, or of the
/// starting bound when that is larger.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    bytes: Vec<u8>,
    width: usize,
    mask: u64,
}

impl ColumnBuilder {
    /// An empty builder at the width of `bound`, with room for `capacity`
    /// values.
    pub(crate) fn new(bound: u64, capacity: usize) -> Self {
        let (width, mask) = layout(bound);
        Self {
            bytes: Vec::with_capacity(capacity * width),
            width,
            mask,
        }
    }

    /// Bytes per value so far.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of values pushed.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Appends `value`, widening first when it does not fit.
    #[inline]
    pub(crate) fn push(&mut self, value: u64) {
        if value > self.mask {
            self.widen(value);
        }
        let le = lane(value, self.mask);
        by_width!(self.width, push_lane(&mut self.bytes, &le));
    }

    /// Copies the values into lanes as wide as `bound` needs.
    #[cold]
    fn widen(&mut self, bound: u64) {
        let narrow = std::mem::replace(self, Self::new(bound, 0));
        let column = narrow.finish();
        self.bytes.reserve_exact(column.len() * self.width);
        for value in column.iter() {
            self.push(value);
        }
    }

    /// The finished column, in one exact-size allocation.
    pub(crate) fn finish(self) -> UintColumn {
        UintColumn::of_bytes(self.bytes, self.width, self.mask)
    }
}

/// Bits a value up to `max` needs: 0 for 0.
const fn bits_for(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Counts stored at a narrow width, with the few values that do not fit
/// it kept in an outlier table (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountColumn {
    /// Every value at the body's width; one that does not fit is stored
    /// as `escape`.
    body: UintColumn,
    /// The values past `escape`, in an open-addressing table of twice as
    /// many slots: each at the slot its position hashes to
    /// ([`outlier_home`]) or the first free one after it, as its position
    /// plus one above `value_bits` and its value below them. A free slot
    /// is 0.
    over: UintColumn,
    /// The body's top code: its width's mask.
    escape: u64,
    /// Bits of the largest listed value, below each entry's position.
    value_bits: u32,
}

/// Where position `i`'s entry starts its probe in a table of `slots`
/// slots: the position scrambled and scaled onto `0..slots`, so that
/// outliers at neighbouring positions spread over the table.
#[inline]
fn outlier_home(i: usize, slots: usize) -> usize {
    let mixed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The high half of the product is below `slots`.
    #[allow(clippy::cast_possible_truncation)]
    let home = ((u128::from(mixed) * slots as u128) >> 64) as usize;
    home
}

impl Default for CountColumn {
    fn default() -> Self {
        Self::collect(std::iter::empty())
    }
}

impl CountColumn {
    /// The column of `values`, read twice: once to count the values each
    /// width holds, once to store them at the width that takes the fewest
    /// bytes, body and outlier table together. A tie goes to the wider
    /// body, whose reads meet the escape less often.
    pub fn collect<I>(values: I) -> Self
    where
        I: Iterator<Item = u64> + Clone,
    {
        // `by_width[k]`: how many values need exactly `k` bytes, counted
        // past one byte only: most counts fit it.
        let (mut len, mut max, mut by_width) = (0usize, 0u64, [0usize; 9]);
        for v in values.clone() {
            len += 1;
            max = max.max(v);
            if v > 0xFF {
                by_width[width_for(v)] += 1;
            }
        }
        let full = width_for(max);
        // An entry holds a position plus one, up to `len`, and a value up
        // to `max`, when both fit 64 bits; a listed value takes two slots.
        let value_bits = bits_for(max);
        let entry_bits = bits_for(len as u64) + value_bits;
        let entry = (entry_bits <= u64::BITS).then(|| (entry_bits as usize).div_ceil(8));
        let (mut width, mut outliers, mut least) = (full, 0, len * full);
        let mut past = 0;
        for w in (1..full).rev() {
            let Some(entry) = entry else { break };
            past += by_width[w + 1];
            let bytes = len * w + 2 * past * entry;
            if bytes < least {
                (width, outliers, least) = (w, past, bytes);
            }
        }
        let escape = u64::MAX >> (64 - 8 * width);
        let body = UintColumn::collect(escape, values.clone().map(|v| v.min(escape)));
        if outliers == 0 {
            return Self {
                body,
                over: UintColumn::default(),
                escape,
                value_bits: 0,
            };
        }
        // Listing a value costs more than narrowing it saves unless others
        // narrow too, so `len` is at least 2 and the position takes a bit:
        // the shifts stay below 64.
        let slots = 2 * outliers;
        let mut over = UintColumn::filled(((len as u64) << value_bits) | max, slots, 0);
        for (i, v) in values.enumerate().filter(|&(_, v)| v > escape) {
            let mut slot = outlier_home(i, slots);
            while over.get(slot) != 0 {
                slot = (slot + 1) % slots;
            }
            over.set(slot, ((i as u64 + 1) << value_bits) | v);
        }
        Self {
            body,
            over,
            escape,
            value_bits,
        }
    }

    /// The column of `values`.
    #[must_use]
    pub fn from_values(values: &[u64]) -> Self {
        Self::collect(values.iter().copied())
    }

    /// Value `i`: one read of the body, and a probe of the outlier table
    /// only when that read is the escape.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        let v = self.body.get(i);
        if v == self.escape {
            self.outlier(i).unwrap_or(v)
        } else {
            v
        }
    }

    /// The listed value at position `i`, if the outlier table holds one:
    /// a probe from its home slot to its entry or a free slot, which half
    /// the slots being free keeps short. Kept out of line, so that a walk
    /// over the body keeps its registers for the common case.
    #[cold]
    #[inline(never)]
    fn outlier(&self, i: usize) -> Option<u64> {
        let slots = self.over.len();
        if slots == 0 {
            return None;
        }
        let tag = i as u64 + 1;
        let mut slot = outlier_home(i, slots);
        loop {
            let entry = self.over.get(slot);
            if entry == 0 {
                return None;
            }
            if entry >> self.value_bits == tag {
                return Some(entry & self.value_mask());
            }
            slot = if slot + 1 == slots { 0 } else { slot + 1 };
        }
    }

    /// The bits of an entry's value.
    fn value_mask(&self) -> u64 {
        (1 << self.value_bits) - 1
    }

    /// Value `i`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn try_get(&self, i: usize) -> Option<u64> {
        (i < self.len()).then(|| self.get(i))
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// True when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Bytes per value in the body: 1 to 8.
    #[must_use]
    pub fn width(&self) -> usize {
        self.body.width()
    }

    /// How many values the outlier table holds: half its slots.
    #[must_use]
    pub fn outliers(&self) -> usize {
        self.over.len() / 2
    }

    /// The largest value: the largest listed one, or else the body's.
    #[must_use]
    pub fn max(&self) -> u64 {
        let listed = self.over.iter().map(|e| e & self.value_mask()).max();
        listed.unwrap_or_else(|| self.body.iter().max().unwrap_or(0))
    }

    /// Exact heap bytes: the body's length times its width, and the
    /// outlier table's.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.body.heap_bytes() + self.over.heap_bytes()
    }

    /// Every value in order: one walk over the body, probing the outlier
    /// table at each escape.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        self.iter_in(0..self.len())
    }

    /// The values in `range`, in order: a run read in one walk over the
    /// body.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    #[inline]
    pub fn iter_in(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        CountIter {
            at: range.start,
            body: self.body.lanes_in(range),
            column: self,
        }
    }

    /// Every value, in order, as `u64`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// The body's and the outlier table's bytes and widths, under `name`
    /// and `over_name`; a slot of the table holds a position and a value.
    #[must_use]
    pub fn split(&self, name: &'static str, over_name: &'static str) -> [ColumnBytes; 2] {
        [
            ColumnBytes::of(name, &self.body),
            ColumnBytes::of(over_name, &self.over),
        ]
    }

    /// Rebuilds the column from its values after `edit` changes them:
    /// how tests forge a layout.
    #[cfg(test)]
    pub(crate) fn edit(&mut self, edit: impl FnOnce(&mut Vec<u64>)) {
        let mut values = self.to_vec();
        edit(&mut values);
        *self = Self::from_values(&values);
    }
}

/// A run of a [`CountColumn`]'s values in order ([`CountColumn::iter`],
/// [`CountColumn::iter_in`]).
#[derive(Debug, Clone)]
struct CountIter<'a> {
    body: Iter<'a>,
    column: &'a CountColumn,
    /// The next value's position.
    at: usize,
}

impl Iterator for CountIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let v = self.body.next()?;
        let at = self.at;
        self.at += 1;
        if v == self.column.escape {
            return Some(self.column.outlier(at).unwrap_or(v));
        }
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.body.size_hint()
    }
}

impl ExactSizeIterator for CountIter<'_> {}

/// Values stored as their block's least value plus an excess (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameColumn {
    /// Block `b`'s least value, at the width of the column's bound.
    bases: UintColumn,
    /// Value `i` less its block's base.
    excess: CountColumn,
}

impl Default for FrameColumn {
    fn default() -> Self {
        Self::collect(0, std::iter::empty())
    }
}

impl FrameColumn {
    /// The column of `values`, each at most `max`: read once, a block at
    /// a time, into the excesses over each block's least value, which are
    /// then stored as a count column.
    ///
    /// # Panics
    ///
    /// If a value exceeds `max`'s width.
    pub fn collect(max: u64, values: impl IntoIterator<Item = u64>) -> Self {
        let mut values = values.into_iter();
        let mut excess = Vec::with_capacity(values.size_hint().0);
        let mut mins = Vec::with_capacity(excess.capacity().div_ceil(FRAME));
        loop {
            let start = excess.len();
            excess.extend(values.by_ref().take(FRAME));
            let block = &mut excess[start..];
            let Some(&min) = block.iter().min() else {
                break;
            };
            block.iter_mut().for_each(|v| *v -= min);
            mins.push(min);
        }
        // Zeros past the last base, so that each base's eight bytes lie
        // within the column and its read is one load.
        let width = width_for(max);
        let pad = if mins.is_empty() {
            0
        } else {
            (8 - width).div_ceil(width)
        };
        mins.resize(mins.len() + pad, 0);
        Self {
            bases: UintColumn::collect(max, mins),
            excess: CountColumn::from_values(&excess),
        }
    }

    /// The column of `values`, at the width of their largest.
    #[must_use]
    pub fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        Self::collect(max, values.iter().copied())
    }

    /// Value `i`: its block's base plus its excess. Always inlined, as is
    /// [`FrameColumn::pair`]: left to itself the compiler calls both out
    /// of line, and the calls cost a PB-PPM match on a shard-sized model
    /// about 4% against plain columns; inlined, under 2%.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline(always)]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.bases.get(i / FRAME) + self.excess.get(i)
    }

    /// Values `i` and `i + 1`: a run's bounds in an offset column.
    ///
    /// # Panics
    ///
    /// If `i + 1` is out of bounds.
    #[inline(always)]
    #[must_use]
    pub fn pair(&self, i: usize) -> (u64, u64) {
        let base = self.bases.get(i / FRAME);
        // Both values share a block but where `i + 1` starts one.
        let next = if (i + 1).is_multiple_of(FRAME) {
            self.bases.get((i + 1) / FRAME)
        } else {
            base
        };
        (base + self.excess.get(i), next + self.excess.get(i + 1))
    }

    /// Value `i`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn try_get(&self, i: usize) -> Option<u64> {
        (i < self.len()).then(|| self.get(i))
    }

    /// Values `i` and `i + 1`, or `None` when either is past the end.
    #[inline]
    #[must_use]
    pub fn try_pair(&self, i: usize) -> Option<(u64, u64)> {
        (i < self.len().saturating_sub(1)).then(|| self.pair(i))
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.excess.len()
    }

    /// True when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.excess.is_empty()
    }

    /// The last value.
    #[must_use]
    pub fn last(&self) -> Option<u64> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Bytes per excess in the excess column's body: 1 to 8.
    #[must_use]
    pub fn width(&self) -> usize {
        self.excess.width()
    }

    /// Exact heap bytes: the bases' and the excess column's.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bases.heap_bytes() + self.excess.heap_bytes()
    }

    /// Every value in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        self.iter_in(0..self.len())
    }

    /// The values in `range`, in order: one walk over the excesses, with
    /// a base read at each block's start.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    pub fn iter_in(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        FrameIter {
            base: self.bases.try_get(range.start / FRAME).unwrap_or(0),
            excess: CountIter {
                at: range.start,
                body: self.excess.body.lanes_in(range),
                column: &self.excess,
            },
            bases: &self.bases,
        }
    }

    /// Every value, in order, as `u64`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// True when no value is smaller than the one before it.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        let mut last = 0;
        self.iter().all(|v| std::mem::replace(&mut last, v) <= v)
    }

    /// The number of leading values for which `pred` holds, in a column
    /// `pred` partitions (see `slice::partition_point`).
    pub fn partition_point(&self, pred: impl FnMut(u64) -> bool) -> usize {
        partition_point(0..self.len(), |i| self.get(i), pred)
    }

    /// The bases', the excesses' and their outlier table's bytes and
    /// widths, under `name` with `_base`, `name` and `name` with `_over`.
    #[must_use]
    pub fn split(
        &self,
        base_name: &'static str,
        name: &'static str,
        over_name: &'static str,
    ) -> [ColumnBytes; 3] {
        let [excess, over] = self.excess.split(name, over_name);
        [ColumnBytes::of(base_name, &self.bases), excess, over]
    }

    /// Rebuilds the column from its values after `edit` changes them, at
    /// the width the edited values need: how tests forge a layout.
    #[cfg(test)]
    pub(crate) fn edit(&mut self, edit: impl FnOnce(&mut Vec<u64>)) {
        let mut values = self.to_vec();
        edit(&mut values);
        *self = Self::from_values(&values);
    }
}

/// A run of a [`FrameColumn`]'s values in order ([`FrameColumn::iter`],
/// [`FrameColumn::iter_in`]): the base is read again only where a block
/// starts.
#[derive(Debug, Clone)]
struct FrameIter<'a> {
    excess: CountIter<'a>,
    bases: &'a UintColumn,
    /// The base of the block the next value sits in.
    base: u64,
}

impl Iterator for FrameIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let at = self.excess.at;
        let excess = self.excess.next()?;
        if at.is_multiple_of(FRAME) {
            self.base = self.bases.get(at / FRAME);
        }
        Some(self.base + excess)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.excess.size_hint()
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

/// One named column's heap bytes and width, as the audit prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnBytes {
    /// The column's name.
    pub name: &'static str,
    /// Its heap bytes: length times width.
    pub bytes: usize,
    /// Bytes per value.
    pub width: usize,
}

impl ColumnBytes {
    /// `column`'s bytes and width under `name`.
    #[must_use]
    pub fn of(name: &'static str, column: &UintColumn) -> Self {
        Self {
            name,
            bytes: column.heap_bytes(),
            width: column.width(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 0, the largest value of each width and the smallest of the next,
    /// and `u64::MAX`: `2^(8k) − 1` and `2^(8k)` for every `k` from 1 to 7.
    const EDGES: [u64; 16] = {
        let mut edges = [0; 16];
        let mut k = 1;
        while k < 8 {
            edges[2 * k - 1] = (1 << (8 * k)) - 1;
            edges[2 * k] = 1 << (8 * k);
            k += 1;
        }
        edges[15] = u64::MAX;
        edges
    };

    #[test]
    fn each_edge_picks_the_narrowest_width() {
        let widths: Vec<usize> = EDGES.iter().map(|&e| width_for(e)).collect();
        assert_eq!(widths, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]);
        for &e in &EDGES {
            assert_eq!(UintColumn::from_values(&[e]).width(), width_for(e));
            assert!(layout(e).1 >= e);
            // One byte fewer would not hold it.
            assert!(width_for(e) == 1 || e > layout(e).1 >> 8);
        }
    }

    #[test]
    fn a_builder_widens_to_its_largest_value() {
        for top in 0..EDGES.len() {
            let mut b = ColumnBuilder::new(0, 0);
            for &e in &EDGES[..=top] {
                b.push(e);
            }
            let column = b.finish();
            assert_eq!(column.width(), width_for(EDGES[top]));
            assert_eq!(column.to_vec(), EDGES[..=top]);
        }
        // A starting bound sets a floor on the width.
        let mut b = ColumnBuilder::new(1 << 16, 1);
        b.push(3);
        assert_eq!(b.finish().width(), 3);
    }

    #[test]
    fn sorted_runs_find_their_values() {
        let long: Vec<u64> = (0..40).map(|i| i * 3).collect();
        let column = UintColumn::from_values(&long);
        assert_eq!(column.position_sorted(0..40, 27), Some(9));
        assert_eq!(column.position_sorted(0..40, 28), None);
        assert_eq!(column.position_sorted(5..9, 21), Some(2));
        assert_eq!(column.position_sorted(5..9, 3), None);
        assert_eq!(column.pair(3), (9, 12));
    }

    #[test]
    #[should_panic(expected = "above its column's bound")]
    fn a_value_past_the_width_is_a_bug() {
        UintColumn::filled(255, 4, 0).set(1, 256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_read_past_the_end_is_a_bug() {
        let _ = UintColumn::filled(1 << 16, 4, 7).get(4);
    }

    #[test]
    fn a_count_column_lists_what_its_width_does_not_hold() {
        // 16 B at two bytes; one byte each and two 2-byte slots (4
        // position bits, 10 value bits) for 1000 take 12. 255 is the
        // escape, but not listed: a probe finds no entry and keeps it.
        let column = CountColumn::from_values(&[255, 1000, 1, 2, 3, 4, 5, 6]);
        assert_eq!((column.width(), column.outliers()), (1, 1));
        assert_eq!((column.heap_bytes(), column.max()), (12, 1000));
        assert_eq!(
            (column.get(0), column.get(1), column.try_get(8)),
            (255, 1000, None)
        );
        // Three values' 3-byte slots (3 position bits, 17 value bits)
        // take more than the two bytes per value they would save on four
        // values, so the column stays plain.
        let column = CountColumn::from_values(&[1, 70_000, 80_000, 90_000]);
        assert_eq!((column.width(), column.outliers()), (3, 0));
        assert_eq!(column.split("c", "c_over")[1].bytes, 0);
        // An empty column holds nothing.
        let empty = CountColumn::default();
        assert_eq!((empty.len(), empty.heap_bytes(), empty.max()), (0, 0, 0));
    }

    /// Values drawn four ways: edge values (see `EDGES`), all small, all
    /// large, and mostly small with a few of any size.
    fn count_values() -> impl Strategy<Value = Vec<u64>> {
        let edges =
            prop::collection::vec((0usize..EDGES.len(), 0u64..3), 0..64).prop_map(|picks| {
                picks
                    .iter()
                    .map(|&(e, down)| EDGES[e].saturating_sub(down))
                    .collect()
            });
        // One value in ten is any value shifted right by 0 to 63 bits.
        let tail = prop::collection::vec((0u64..10, 0u64..256, 0u32..64, 0..=u64::MAX), 0..300)
            .prop_map(|picks| {
                picks
                    .iter()
                    .map(|&(pick, small, shift, any)| if pick == 0 { any >> shift } else { small })
                    .collect()
            });
        prop_oneof![
            edges,
            prop::collection::vec(0u64..256, 0..300),
            prop::collection::vec(1u64 << 32..u64::MAX, 0..40),
            tail,
        ]
    }

    /// Offset-like values of every length around the block edges (0, one
    /// block, 63, 64, 65 and up to five blocks), drawn five ways: rising by
    /// small steps; rising with one huge jump; rising, then dropping to
    /// small values that rise again, as the parents do where the tree rows
    /// end and the link rows start; any values; and one repeated value.
    fn frame_values() -> impl Strategy<Value = Vec<u64>> {
        let len = prop_oneof![
            Just(0usize),
            1usize..64,
            Just(63usize),
            Just(64usize),
            Just(65usize),
            0usize..320,
        ];
        let steps = prop::collection::vec(0u64..9, 320);
        let any = prop::collection::vec(0..=u64::MAX, 320);
        (
            len,
            0u8..5,
            0u64..1 << 40,
            steps,
            any,
            0usize..320,
            0u64..=u64::MAX >> 1,
        )
            .prop_map(|(len, shape, start, steps, any, at, jump)| {
                let at = at % len.max(1);
                let mut v = start;
                (0..len)
                    .map(|i| match shape {
                        3 => any[i],
                        4 => start,
                        _ => {
                            if shape == 1 && i == at {
                                v += jump;
                            }
                            if shape == 2 && i == at {
                                v = steps[0];
                            }
                            v += steps[i];
                            v
                        }
                    })
                    .collect()
            })
    }

    proptest! {
        /// A frame column reads back its values one by one, in pairs,
        /// walked in order and run by run; it is sorted exactly when they
        /// are, finds where a sorted column's values pass a bound, and
        /// an edit rebuilds it from the edited values. Its heap is its
        /// bases (one per block at the largest value's width, padded so
        /// the last base reads as one word) plus the count column of each
        /// value's excess over its block's least value.
        #[test]
        fn frame_columns_agree_with_their_values(values in frame_values()) {
            let column = FrameColumn::from_values(&values);
            let n = values.len();
            prop_assert_eq!(column.len(), n);
            prop_assert_eq!(column.is_empty(), n == 0);
            prop_assert_eq!(&column.to_vec(), &values);
            prop_assert_eq!(column.iter().len(), n);
            prop_assert_eq!(column.last(), values.last().copied());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(column.get(i), v);
                prop_assert_eq!(column.try_get(i), Some(v));
            }
            for i in 0..n.saturating_sub(1) {
                prop_assert_eq!(column.pair(i), (values[i], values[i + 1]));
                prop_assert_eq!(column.try_pair(i), Some((values[i], values[i + 1])));
            }
            prop_assert_eq!(column.try_get(n), None);
            prop_assert_eq!(column.try_pair(n.saturating_sub(1)), None);
            for (lo, hi) in [(0, n), (n / 2, n), (n / 3, 2 * n / 3), (n, n)] {
                prop_assert!(column.iter_in(lo..hi).eq(values[lo..hi].iter().copied()));
                prop_assert_eq!(column.iter_in(lo..hi).len(), hi - lo);
            }
            let sorted = values.windows(2).all(|w| w[0] <= w[1]);
            prop_assert_eq!(column.is_sorted(), sorted);
            if sorted {
                for bound in values.iter().copied().step_by(7) {
                    prop_assert_eq!(
                        column.partition_point(|x| x <= bound),
                        values.partition_point(|&x| x <= bound)
                    );
                }
            }
            let mut edited = column.clone();
            edited.edit(|v| v.reverse());
            prop_assert!(edited.iter().eq(values.iter().rev().copied()));

            let max = values.iter().copied().max().unwrap_or(0);
            let excess: Vec<u64> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let block = &values[i / FRAME * FRAME..n.min((i / FRAME + 1) * FRAME)];
                    v - block.iter().copied().min().unwrap_or(0)
                })
                .collect();
            let [base, body, over] = column.split("v_base", "v", "v_over");
            let width = width_for(max);
            let blocks = n.div_ceil(FRAME);
            let padded = if blocks == 0 { 0 } else { (blocks - 1) * width + 8 };
            prop_assert_eq!(base.width, width);
            prop_assert_eq!(base.bytes, (blocks * width).max(padded).next_multiple_of(width));
            let plain = CountColumn::from_values(&excess);
            prop_assert_eq!(
                (body.bytes, over.bytes, body.width),
                (plain.split("v", "v_over")[0].bytes, plain.split("v", "v_over")[1].bytes, plain.width())
            );
            prop_assert_eq!(column.heap_bytes(), base.bytes + plain.heap_bytes());
            prop_assert_eq!(column.width(), plain.width());
        }

        /// A count column reads back its values one by one, walked in
        /// order and run by run, takes its body's `len × width` bytes plus
        /// its outlier table's two slots per listed value, and never more
        /// than the plain column of its values; it lists exactly the
        /// values its width does not hold, and with none it allocates no
        /// table.
        #[test]
        fn count_columns_agree_with_their_values(values in count_values()) {
            let column = CountColumn::from_values(&values);
            prop_assert_eq!(column.len(), values.len());
            prop_assert_eq!(column.is_empty(), values.is_empty());
            prop_assert_eq!(&column.to_vec(), &values);
            prop_assert_eq!(column.iter().len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(column.get(i), v);
            }
            prop_assert_eq!(column.try_get(values.len()), None);
            let half = values.len() / 2;
            prop_assert!(column.iter_in(half..values.len()).eq(values[half..].iter().copied()));
            prop_assert_eq!(column.max(), values.iter().copied().max().unwrap_or(0));
            let [body, over] = column.split("counts", "counts_over");
            prop_assert_eq!(body.bytes, values.len() * column.width());
            prop_assert_eq!(over.bytes, 2 * column.outliers() * over.width);
            prop_assert_eq!(column.heap_bytes(), body.bytes + over.bytes);
            prop_assert!(column.heap_bytes() <= UintColumn::from_values(&values).heap_bytes());
            let listed = values.iter().filter(|&&v| width_for(v) > column.width()).count();
            prop_assert_eq!(column.outliers(), listed);
            if listed == 0 {
                prop_assert_eq!(over.bytes, 0);
            }
        }

        /// Values at and around every width's edge round-trip at the width
        /// of the largest, through every builder, read one by one and
        /// walked in order, and the column takes `len × width` bytes.
        #[test]
        fn columns_round_trip_at_every_width_edge(
            picks in prop::collection::vec((0usize..EDGES.len(), 0u64..3), 0..64),
        ) {
            // Each pick is an edge, nudged down by up to two but not
            // below zero.
            let values: Vec<u64> = picks
                .iter()
                .map(|&(e, down)| EDGES[e].saturating_sub(down))
                .collect();
            let max = values.iter().copied().max().unwrap_or(0);
            let width = width_for(max);
            let collected = UintColumn::collect(max, values.iter().copied());
            let mut pushed = ColumnBuilder::new(0, values.len());
            let mut set = UintColumn::filled(max, values.len(), 0);
            for (i, &v) in values.iter().enumerate() {
                pushed.push(v);
                set.set(i, v);
            }
            let pushed = pushed.finish();
            for column in [&collected, &pushed, &set, &UintColumn::from_values(&values)] {
                prop_assert_eq!(column.width(), width);
                prop_assert_eq!(column.len(), values.len());
                prop_assert_eq!(column.heap_bytes(), values.len() * width);
                prop_assert_eq!(&column.to_vec(), &values);
                prop_assert_eq!(column.iter().len(), values.len());
                for (i, &v) in values.iter().enumerate() {
                    prop_assert_eq!(column.get(i), v);
                }
            }
            prop_assert_eq!(&collected, &pushed);
        }
    }
}
