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

use std::ops::Range;

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

    /// Values `i` and `i + 1`, or `None` when either is past the end.
    #[inline]
    #[must_use]
    pub fn try_pair(&self, i: usize) -> Option<(u64, u64)> {
        (i < self.len.saturating_sub(1)).then(|| self.pair(i))
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

    /// Sets every value in `range` to `value`, which must fit the width.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds or `value` exceeds the width.
    pub fn fill(&mut self, range: Range<usize>, value: u64) {
        for i in range {
            self.set(i, value);
        }
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

    /// The last value.
    #[must_use]
    pub fn last(&self) -> Option<u64> {
        self.len.checked_sub(1).map(|i| self.get(i))
    }

    /// Every value in order, walking the bytes one width at a time.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        Iter {
            bytes: &self.bytes,
            at: 0,
            left: self.len,
            width: self.width,
            mask: self.mask,
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
        self.partition_point_in(0..self.len, pred)
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
        let at = range.start + self.partition_point_in(range.clone(), |x| x < value);
        (at < range.end && self.get(at) == value).then_some(at - range.start)
    }

    /// [`UintColumn::partition_point`] over the values in `range`.
    fn partition_point_in(&self, range: Range<usize>, mut pred: impl FnMut(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo - range.start
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
        assert_eq!(column.partition_point(|x| x <= 10), 4);
        assert!(column.is_sorted());
        assert_eq!(column.pair(3), (9, 12));
        assert!(!UintColumn::from_values(&[2, 1]).is_sorted());
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

    proptest! {
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
                prop_assert_eq!(column.last(), values.last().copied());
            }
            prop_assert_eq!(&collected, &pushed);
        }
    }
}
