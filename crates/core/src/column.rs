//! Unsigned integer columns stored at the width their values need.
//!
//! A [`UintColumn`] holds unsigned integers in the narrowest of 1, 2, 4
//! or 8 bytes that holds the largest value it was built for. The width is
//! picked once, while the column is built, from a bound its builder
//! already knows (a row count, a maximum tracked while the values were
//! produced) or, for a column pushed value by value, from the values
//! themselves (`ColumnBuilder`). It never changes afterwards, and no
//! value loses a bit.
//!
//! The values sit back to back as little-endian bytes. A read loads the
//! eight bytes at the value's offset and masks off its width: one load,
//! a shift and a mask, the same instructions at every width, so a server
//! that reads shards of different widths in turn takes no branch on the
//! width (the last few values of a column, whose eight bytes would run
//! past its end, are read byte by byte).
//!
//! Every column is one exact-size allocation: its heap is its length times
//! its width ([`UintColumn::heap_bytes`]).

use std::ops::Range;

/// Runs at most this long are scanned linearly by
/// [`UintColumn::position_sorted`]; longer ones are binary-searched.
const LINEAR_SCAN_MAX: usize = 16;

/// The narrowest of 1, 2, 4 or 8 bytes that holds `max`.
#[must_use]
pub const fn width_for(max: u64) -> usize {
    if max <= u8::MAX as u64 {
        1
    } else if max <= u16::MAX as u64 {
        2
    } else if max <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

/// `log2` of the width that holds `max`, and the mask of that width's
/// bits.
const fn layout(max: u64) -> (u32, u64) {
    let shift = width_for(max).trailing_zeros();
    (shift, u64::MAX >> (64 - (8 << shift)))
}

/// `value`'s low `width` bytes. A value above the bound the column was
/// built for is a bug in its builder: the bound is where the width came
/// from.
#[inline]
fn lane(value: u64, mask: u64) -> [u8; 8] {
    assert!(value <= mask, "value above its column's bound");
    value.to_le_bytes()
}

/// Unsigned integers stored at the narrowest width that holds the largest
/// value the column was built for (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UintColumn {
    /// The values, `1 << shift` little-endian bytes each.
    bytes: Box<[u8]>,
    /// `log2` of the width.
    shift: u32,
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
        let (shift, mask) = layout(max);
        let values = values.into_iter();
        let mut bytes = Vec::with_capacity(values.size_hint().0 << shift);
        // One loop per width, each copying a length the compiler sees.
        match shift {
            0 => bytes.extend(values.map(|v| lane(v, mask)[0])),
            1 => values.for_each(|v| bytes.extend_from_slice(&lane(v, mask)[..2])),
            2 => values.for_each(|v| bytes.extend_from_slice(&lane(v, mask)[..4])),
            _ => values.for_each(|v| bytes.extend_from_slice(&lane(v, mask))),
        }
        Self {
            bytes: bytes.into_boxed_slice(),
            shift,
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
        let (shift, mask) = layout(max);
        let width = 1 << shift;
        Self {
            bytes: lane(value, mask)[..width].repeat(len).into_boxed_slice(),
            shift,
            mask,
        }
    }

    /// Value `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        let start = i << self.shift;
        match self.bytes.get(start..start + 8) {
            Some(word) => {
                let mut le = [0; 8];
                le.copy_from_slice(word);
                u64::from_le_bytes(le) & self.mask
            }
            None => self.get_near_end(start),
        }
    }

    /// The value at byte `start`, whose eight bytes run past the end.
    #[cold]
    #[inline(never)]
    fn get_near_end(&self, start: usize) -> u64 {
        let width = self.width();
        let mut le = [0; 8];
        le[..width].copy_from_slice(&self.bytes[start..start + width]);
        u64::from_le_bytes(le)
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
        (i < self.len()).then(|| self.get(i))
    }

    /// Values `i` and `i + 1`, or `None` when either is past the end.
    #[inline]
    #[must_use]
    pub fn try_pair(&self, i: usize) -> Option<(u64, u64)> {
        (i < self.len().saturating_sub(1)).then(|| self.pair(i))
    }

    /// Sets value `i`, which must fit the column's width.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds or `value` exceeds the width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        let le = lane(value, self.mask);
        let at = i << self.shift;
        // Each arm copies a length the compiler sees: one store.
        match self.shift {
            0 => self.bytes[at] = le[0],
            1 => self.bytes[at..at + 2].copy_from_slice(&le[..2]),
            2 => self.bytes[at..at + 4].copy_from_slice(&le[..4]),
            _ => self.bytes[at..at + 8].copy_from_slice(&le),
        }
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
        self.bytes.len() >> self.shift
    }

    /// True when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes per value: 1, 2, 4 or 8.
    #[must_use]
    pub fn width(&self) -> usize {
        1 << self.shift
    }

    /// Exact heap bytes: length times width.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The last value.
    #[must_use]
    pub fn last(&self) -> Option<u64> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Every value in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every value, in order, as `u64`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// True when no value is smaller than the one before it.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        (1..self.len()).all(|i| self.get(i - 1) <= self.get(i))
    }

    /// The number of leading values for which `pred` holds, in a column
    /// `pred` partitions (see `slice::partition_point`).
    pub fn partition_point(&self, pred: impl FnMut(u64) -> bool) -> usize {
        self.partition_point_in(0..self.len(), pred)
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
        assert!(range.end <= self.len(), "run past the column's end");
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

/// A [`UintColumn`] pushed value by value. It starts at the width of a
/// bound its caller knows (1 byte with none) and widens, copying what it
/// holds, the first time a value does not fit, at most three times; so
/// the finished column has the width of its largest value, or of the
/// starting bound when that is larger.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    bytes: Vec<u8>,
    shift: u32,
    mask: u64,
}

impl ColumnBuilder {
    /// An empty builder at the width of `bound`, with room for `capacity`
    /// values.
    pub(crate) fn new(bound: u64, capacity: usize) -> Self {
        let (shift, mask) = layout(bound);
        Self {
            bytes: Vec::with_capacity(capacity << shift),
            shift,
            mask,
        }
    }

    /// Bytes per value so far.
    pub(crate) fn width(&self) -> usize {
        1 << self.shift
    }

    /// Number of values pushed.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() >> self.shift
    }

    /// Appends `value`, widening first when it does not fit.
    #[inline]
    pub(crate) fn push(&mut self, value: u64) {
        if value > self.mask {
            self.widen(value);
        }
        let le = lane(value, self.mask);
        // Each arm copies a length the compiler sees.
        match self.shift {
            0 => self.bytes.push(le[0]),
            1 => self.bytes.extend_from_slice(&le[..2]),
            2 => self.bytes.extend_from_slice(&le[..4]),
            _ => self.bytes.extend_from_slice(&le),
        }
    }

    /// Copies the values into lanes as wide as `bound` needs.
    #[cold]
    fn widen(&mut self, bound: u64) {
        let narrow = std::mem::replace(self, Self::new(bound, 0));
        let column = narrow.finish();
        self.bytes.reserve_exact(column.len() << self.shift);
        for value in column.iter() {
            self.push(value);
        }
    }

    /// The finished column, in one exact-size allocation.
    pub(crate) fn finish(self) -> UintColumn {
        UintColumn {
            bytes: self.bytes.into_boxed_slice(),
            shift: self.shift,
            mask: self.mask,
        }
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

    /// The largest value of each width and the smallest of the next.
    const EDGES: [u64; 8] = [
        0,
        (1 << 8) - 1,
        1 << 8,
        (1 << 16) - 1,
        1 << 16,
        (1 << 32) - 1,
        1 << 32,
        u64::MAX,
    ];

    #[test]
    fn each_edge_picks_the_narrowest_width() {
        let widths: Vec<usize> = EDGES.iter().map(|&e| width_for(e)).collect();
        assert_eq!(widths, [1, 1, 2, 2, 4, 4, 8, 8]);
        for &e in &EDGES {
            assert_eq!(UintColumn::from_values(&[e]).width(), width_for(e));
            assert!(layout(e).1 >= e);
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
        assert_eq!(b.finish().width(), 4);
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

    proptest! {
        /// Values at and around every width's edge round-trip at the width
        /// of the largest, through every builder, and the column takes
        /// `len × width` bytes.
        #[test]
        fn columns_round_trip_at_every_width_edge(
            picks in prop::collection::vec((0usize..8, 0u64..3), 0..64),
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
                for (i, &v) in values.iter().enumerate() {
                    prop_assert_eq!(column.get(i), v);
                }
                prop_assert_eq!(column.last(), values.last().copied());
            }
            prop_assert_eq!(&collected, &pushed);
        }
    }
}
