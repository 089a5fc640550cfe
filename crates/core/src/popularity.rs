//! URL popularity: relative popularity and log₁₀ grades.
//!
//! §3.1 of the paper defines the **relative popularity** of a URL as the
//! number of accesses to it divided by the number of accesses to the most
//! popular URL of the trace, and buckets it into four **grades** on a log₁₀
//! scale:
//!
//! | Grade | Relative popularity `rp` |
//! |-------|--------------------------|
//! | 3     | `rp ≥ 0.1`               |
//! | 2     | `0.01 ≤ rp < 0.1`        |
//! | 1     | `0.001 ≤ rp < 0.01`      |
//! | 0     | `rp < 0.001`             |
//!
//! Grades drive every popularity-based decision in [`crate::pb`]: branch
//! heights, the root-creation rule, and special links.

use crate::column::{ColumnBytes, CountColumn};
use crate::interner::UrlId;
use serde::{Deserialize, Serialize};

/// A popularity grade on the paper's four-step log₁₀ scale.
///
/// Ordering follows popularity: `Grade::G0 < Grade::G3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Grade {
    /// Relative popularity below 0.1%.
    G0 = 0,
    /// Relative popularity in `[0.1%, 1%)`.
    G1 = 1,
    /// Relative popularity in `[1%, 10%)`.
    G2 = 2,
    /// Relative popularity of at least 10%.
    G3 = 3,
}

impl Grade {
    /// All grades, least popular first.
    pub const ALL: [Grade; 4] = [Grade::G0, Grade::G1, Grade::G2, Grade::G3];

    /// The highest grade on the scale.
    pub const MAX: Grade = Grade::G3;

    /// Buckets a relative popularity in `[0, 1]` into a grade.
    #[inline]
    pub fn from_relative_popularity(rp: f64) -> Grade {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&rp), "rp out of range: {rp}");
        if rp >= 0.1 {
            Grade::G3
        } else if rp >= 0.01 {
            Grade::G2
        } else if rp >= 0.001 {
            Grade::G1
        } else {
            Grade::G0
        }
    }

    /// The grade as a small integer in `0..=3`.
    #[inline]
    pub fn level(self) -> u8 {
        self as u8
    }

    /// Builds a grade from an integer level, clamping to `0..=3`.
    #[inline]
    pub fn from_level(level: u8) -> Grade {
        match level {
            0 => Grade::G0,
            1 => Grade::G1,
            2 => Grade::G2,
            _ => Grade::G3,
        }
    }
}

/// Accumulates access counts during the first training pass.
///
/// Build one with [`PopularityTable::builder`], feed it every request of the
/// training window via [`PopularityBuilder::record`], and call
/// [`PopularityBuilder::build`] to freeze it into a [`PopularityTable`].
#[derive(Debug, Default, Clone)]
pub struct PopularityBuilder {
    counts: Vec<u64>,
}

impl PopularityBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to `url`.
    #[inline]
    pub fn record(&mut self, url: UrlId) {
        self.record_n(url, 1);
    }

    /// Records `n` accesses to `url`.
    #[inline]
    pub fn record_n(&mut self, url: UrlId, n: u64) {
        let idx = url.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Access count recorded so far for `url`.
    pub fn count(&self, url: UrlId) -> u64 {
        self.counts.get(url.index()).copied().unwrap_or(0)
    }

    /// Adds every count accumulated by `other` into `self`.
    ///
    /// Counting is a commutative sum, so partial builders filled by
    /// parallel training workers merge into the same table regardless of
    /// partitioning or merge order.
    pub fn merge(&mut self, other: &PopularityBuilder) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (acc, &c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
    }

    /// Freezes the counts into an immutable table of grades.
    pub fn build(self) -> PopularityTable {
        PopularityTable::from_counts(self.counts)
    }

    /// Counts every URL of every session, in parallel. Counting is a
    /// commutative sum over independent requests, so the result is
    /// identical at every thread count (`0` = auto via
    /// `PBPPM_THREADS`/available parallelism) and equal to recording each
    /// session sequentially.
    pub fn count_sessions<S: AsRef<[UrlId]> + Sync>(sessions: &[S], threads: usize) -> Self {
        let threads = crate::parallel::resolve_threads(threads).min(sessions.len().max(1));
        let count_range = |r: &std::ops::Range<usize>| {
            let mut b = PopularityBuilder::new();
            for s in &sessions[r.clone()] {
                for &url in s.as_ref() {
                    b.record(url);
                }
            }
            b
        };
        if threads <= 1 {
            return count_range(&(0..sessions.len()));
        }
        let ranges = crate::parallel::partition_ranges(sessions.len(), threads);
        let partials = crate::parallel::parallel_map_with(&ranges, threads, count_range);
        let mut acc = PopularityBuilder::new();
        for p in &partials {
            acc.merge(p);
        }
        acc
    }
}

/// Immutable per-URL popularity information for one training window.
///
/// URLs never seen during training get [`Grade::G0`] and zero relative
/// popularity — the paper's trees give unknown documents the least
/// consideration, which this default preserves.
///
/// The counts are a [`CountColumn`]: stored at the width most of them
/// need, with the few popular URLs' larger counts in its outlier table.
/// A grade is not stored: [`PopularityTable::grade`] buckets the URL's
/// count over the largest, through the least count of each grade.
#[derive(Debug, Clone)]
pub struct PopularityTable {
    counts: CountColumn,
    max_count: u64,
    total: u64,
    /// The least count graded [`Grade::G1`], [`Grade::G2`] and
    /// [`Grade::G3`] under `max_count` (see [`grade_floors`]).
    floors: [u64; 3],
}

impl Default for PopularityTable {
    fn default() -> Self {
        Self::from_counts(Vec::new())
    }
}

impl PopularityTable {
    /// Starts accumulating counts for a new table.
    pub fn builder() -> PopularityBuilder {
        PopularityBuilder::new()
    }

    /// Builds the table directly from a dense per-URL count vector
    /// (`counts[url.index()]` = number of accesses).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let max_count = counts.iter().copied().max().unwrap_or(0);
        let total = counts.iter().sum();
        Self::from_parts_unchecked(counts, max_count, total)
    }

    /// The grades of `counts`, their largest and their sum: all a table
    /// derives from its counts, which the audit rederives this way.
    pub(crate) fn grades_of(counts: &[u64]) -> (Vec<Grade>, u64, u64) {
        let max_count = counts.iter().copied().max().unwrap_or(0);
        let grades = counts.iter().map(|&c| grade_of(c, max_count)).collect();
        (grades, max_count, counts.iter().sum())
    }

    /// Assembles a table from already-separated parts **without** checking
    /// `max_count` and `total` against the counts. This deliberately
    /// permits internally inconsistent tables, whose grades, bucketed over
    /// the stored `max_count`, disagree with the counts' — it is the
    /// forgery hook the audit crate's adversarial harness uses to exercise
    /// the grade-consistency check in [`crate::verify`]. Not part of the
    /// public API.
    #[doc(hidden)]
    pub fn from_parts_unchecked(counts: Vec<u64>, max_count: u64, total: u64) -> Self {
        Self {
            counts: CountColumn::from_values(&counts),
            max_count,
            total,
            floors: grade_floors(max_count),
        }
    }

    /// The popularity grade of `url` ([`Grade::G0`] if never seen): its
    /// count over the largest, bucketed, which is how many grades' least
    /// counts it reaches.
    #[inline]
    pub fn grade(&self, url: UrlId) -> Grade {
        self.grade_of_count(self.count(url))
    }

    /// The grade of a URL counted `count` times.
    #[inline]
    fn grade_of_count(&self, count: u64) -> Grade {
        let reached = self.floors.iter().filter(|&&floor| count >= floor).count();
        // At most three floors.
        #[allow(clippy::cast_possible_truncation)]
        let level = reached as u8;
        Grade::from_level(level)
    }

    /// Every URL id's grade, in id order: one walk over the counts.
    pub(crate) fn grades(&self) -> impl Iterator<Item = Grade> + '_ {
        self.counts.iter().map(|count| self.grade_of_count(count))
    }

    /// Relative popularity of `url`: its access count over the most popular
    /// URL's access count. Zero if never seen or if the table is empty.
    pub fn relative_popularity(&self, url: UrlId) -> f64 {
        if self.max_count == 0 {
            return 0.0;
        }
        self.count(url) as f64 / self.max_count as f64
    }

    /// Raw access count for `url` in the training window.
    #[inline]
    pub fn count(&self, url: UrlId) -> u64 {
        self.counts.try_get(url.index()).unwrap_or(0)
    }

    /// The dense per-URL counts (`counts().get(url.index())` accesses).
    ///
    /// Grades, `max_count`, and `total` are all derived from them, so the
    /// column is the table's complete serializable state:
    /// `PopularityTable::from_counts(t.counts().to_vec())` reproduces `t`.
    pub fn counts(&self) -> &CountColumn {
        &self.counts
    }

    /// Total number of recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Access count of the most popular URL.
    pub fn max_count(&self) -> u64 {
        self.max_count
    }

    /// Heap bytes of the counts, by length: a clone or a snapshot load
    /// allocates exactly this.
    pub fn heap_bytes(&self) -> usize {
        self.split().iter().map(|c| c.bytes).sum()
    }

    /// The counts' and their outlier table's bytes and widths; their
    /// bytes sum to [`PopularityTable::heap_bytes`].
    pub fn split(&self) -> [ColumnBytes; 2] {
        self.counts.split("counts", "counts_over")
    }

    /// Number of URLs with a nonzero count.
    pub fn distinct_urls(&self) -> usize {
        self.counts.iter().filter(|&c| c > 0).count()
    }

    /// How many URLs fall into each grade (index = grade level).
    ///
    /// Only URLs with at least one access are counted: an all-zero tail of
    /// ids that were interned but never requested would otherwise inflate G0.
    pub fn grade_histogram(&self) -> [usize; 4] {
        let mut hist = [0usize; 4];
        for count in self.counts.iter().filter(|&c| c > 0) {
            hist[usize::from(self.grade_of_count(count).level())] += 1;
        }
        hist
    }

    /// True when `url` counts as a "popular document" in the paper's Figure 2
    /// sense (grade 2 or 3 — the top two log₁₀ buckets).
    #[inline]
    pub fn is_popular(&self, url: UrlId) -> bool {
        self.grade(url) >= Grade::G2
    }
}

/// The grade of a URL counted `count` times when the most popular was
/// counted `max_count` times: [`Grade::G0`] when nothing was counted.
fn grade_of(count: u64, max_count: u64) -> Grade {
    if max_count == 0 {
        Grade::G0
    } else {
        Grade::from_relative_popularity(count as f64 / max_count as f64)
    }
}

/// The least count that [`grade_of`] grades [`Grade::G1`], [`Grade::G2`]
/// and [`Grade::G3`] under `max_count`, each found by bisecting the counts
/// up to `max_count`; `u64::MAX` where none is (nothing was counted).
/// Rounding keeps the quotient, and so the grade, monotone in the count,
/// so a count has a grade exactly when it reaches that grade's floor.
fn grade_floors(max_count: u64) -> [u64; 3] {
    [Grade::G1, Grade::G2, Grade::G3].map(|grade| {
        let (mut lo, mut hi) = (0, max_count.saturating_add(1));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if grade_of(mid, max_count) < grade {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo > max_count {
            u64::MAX
        } else {
            lo
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(counts: &[u64]) -> PopularityTable {
        PopularityTable::from_counts(counts.to_vec())
    }

    #[test]
    fn grade_boundaries_match_the_log10_scale() {
        assert_eq!(Grade::from_relative_popularity(1.0), Grade::G3);
        assert_eq!(Grade::from_relative_popularity(0.1), Grade::G3);
        assert_eq!(Grade::from_relative_popularity(0.0999), Grade::G2);
        assert_eq!(Grade::from_relative_popularity(0.01), Grade::G2);
        assert_eq!(Grade::from_relative_popularity(0.00999), Grade::G1);
        assert_eq!(Grade::from_relative_popularity(0.001), Grade::G1);
        assert_eq!(Grade::from_relative_popularity(0.000999), Grade::G0);
        assert_eq!(Grade::from_relative_popularity(0.0), Grade::G0);
    }

    #[test]
    fn grades_order_by_popularity() {
        assert!(Grade::G3 > Grade::G2);
        assert!(Grade::G2 > Grade::G1);
        assert!(Grade::G1 > Grade::G0);
    }

    #[test]
    fn level_roundtrip() {
        for g in Grade::ALL {
            assert_eq!(Grade::from_level(g.level()), g);
        }
        assert_eq!(Grade::from_level(200), Grade::G3); // clamped
    }

    #[test]
    fn table_grades_relative_to_the_most_popular_url() {
        // counts: 1000, 100, 10, 1, 0 -> rp 1.0, 0.1, 0.01, 0.001, 0
        let t = table(&[1000, 100, 10, 1, 0]);
        assert_eq!(t.grade(UrlId(0)), Grade::G3);
        assert_eq!(t.grade(UrlId(1)), Grade::G3); // 0.1 is inclusive
        assert_eq!(t.grade(UrlId(2)), Grade::G2);
        assert_eq!(t.grade(UrlId(3)), Grade::G1);
        assert_eq!(t.grade(UrlId(4)), Grade::G0);
        assert_eq!(t.grade(UrlId(5)), Grade::G0); // never interned
    }

    proptest::proptest! {
        /// A table grades each count as the quotient over the largest
        /// does, at and around every grade's edge and at random: the
        /// floors stand for the expression exactly.
        #[test]
        fn floors_grade_as_the_quotient_does(
            max in proptest::prop_oneof![1u64..2_000, 1u64..=1 << 56],
            picks in proptest::collection::vec((0u64..4, 0u64..=u64::MAX), 1..40),
        ) {
            let edges = [max / 1000, max / 100, max / 10, max];
            let counts: Vec<u64> = picks
                .iter()
                .map(|&(k, any)| {
                    let edge = edges[usize::try_from(k).unwrap_or(0)];
                    // Within two of an edge, or anywhere up to the largest.
                    match any % 3 {
                        0 => edge.saturating_sub(any % 3 + (any >> 8) % 2),
                        1 => (edge + (any >> 8) % 2).min(max),
                        _ => any % (max + 1),
                    }
                })
                .chain([max])
                .collect();
            let t = PopularityTable::from_counts(counts.clone());
            for (i, &c) in counts.iter().enumerate() {
                let url = UrlId(u32::try_from(i).unwrap_or(u32::MAX));
                proptest::prop_assert_eq!(t.grade(url), grade_of(c, max), "count {}", c);
            }
            let (grades, ..) = PopularityTable::grades_of(&counts);
            let hist = t.grade_histogram();
            for g in Grade::ALL {
                let n = counts.iter().zip(&grades).filter(|&(&c, &h)| c > 0 && h == g).count();
                proptest::prop_assert_eq!(hist[usize::from(g.level())], n);
            }
        }
    }

    #[test]
    fn builder_accumulates() {
        let mut b = PopularityBuilder::new();
        b.record(UrlId(2));
        b.record_n(UrlId(2), 4);
        b.record(UrlId(0));
        assert_eq!(b.count(UrlId(2)), 5);
        let t = b.build();
        assert_eq!(t.count(UrlId(2)), 5);
        assert_eq!(t.count(UrlId(1)), 0);
        assert_eq!(t.total_accesses(), 6);
        assert_eq!(t.max_count(), 5);
    }

    #[test]
    fn builder_merge_sums_counts() {
        let mut a = PopularityBuilder::new();
        a.record_n(UrlId(0), 3);
        a.record(UrlId(2));
        let mut b = PopularityBuilder::new();
        b.record_n(UrlId(2), 4);
        b.record(UrlId(5)); // longer than `a`: merge must grow it
        a.merge(&b);
        assert_eq!(a.count(UrlId(0)), 3);
        assert_eq!(a.count(UrlId(2)), 5);
        assert_eq!(a.count(UrlId(5)), 1);
        // Merging an empty builder is a no-op.
        a.merge(&PopularityBuilder::new());
        assert_eq!(a.count(UrlId(5)), 1);
    }

    #[test]
    fn empty_table_is_all_g0() {
        let t = PopularityTable::default();
        assert_eq!(t.grade(UrlId(0)), Grade::G0);
        assert_eq!(t.relative_popularity(UrlId(0)), 0.0);
        assert_eq!(t.grade_histogram(), [0, 0, 0, 0]);
    }

    #[test]
    fn histogram_ignores_zero_count_urls() {
        let t = table(&[100, 10, 0, 0]);
        let h = t.grade_histogram();
        assert_eq!(h.iter().sum::<usize>(), 2);
        assert_eq!(h[3], 2); // 100 -> G3; 10 -> rp 0.1 -> G3
    }

    #[test]
    fn popular_means_grade_two_or_higher() {
        let t = table(&[1000, 20, 2, 1]);
        assert!(t.is_popular(UrlId(0)));
        assert!(t.is_popular(UrlId(1))); // rp 0.02 -> G2
        assert!(!t.is_popular(UrlId(2))); // rp 0.002 -> G1
        assert!(!t.is_popular(UrlId(3)));
    }
}
