//! Determinism guarantee of parallel training: for every model family and
//! every thread count, `train_sessions` must be **bit-identical** to the
//! sequential `train_session` loop — same arena order, same counts, same
//! `.pbss` bytes as written to disk. This is the contract that lets
//! `--threads` default on without ever changing a result.
//!
//! The row order is canonical, so the same holds in any session order, and
//! a trained arena is exactly the arena its own image loads into.

use pbppm_core::{
    Interner, ModelImage, Order1Markov, PbConfig, PbPpm, PopularityBuilder, PopularityTable,
    Predictor, SnapshotFile, StandardPpm, UrlId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const THREAD_GRID: [usize; 3] = [1, 2, 8];

fn sessions_strategy(
    urls: u32,
    max_len: usize,
    max_sessions: usize,
) -> BoxedStrategy<Vec<Vec<UrlId>>> {
    prop::collection::vec(
        prop::collection::vec((0..urls).prop_map(UrlId), 1..max_len),
        0..max_sessions,
    )
    .boxed()
}

/// The model's encoded snapshot file (URL table left empty: ids are
/// compared, not names).
fn bytes(model: ModelImage) -> Vec<u8> {
    SnapshotFile {
        urls: Interner::new(),
        model,
    }
    .encode()
}

/// `sessions` reversed, and shuffled by a Fisher–Yates pass seeded with
/// `seed`.
fn reorderings(sessions: &[Vec<UrlId>], seed: u64) -> [(&'static str, Vec<Vec<UrlId>>); 2] {
    let mut shuffled = sessions.to_vec();
    let mut state = seed;
    for i in (1..shuffled.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = usize::try_from((state >> 33) % (i as u64 + 1)).unwrap_or(0);
        shuffled.swap(i, j);
    }
    [
        ("reversed", sessions.iter().rev().cloned().collect()),
        ("shuffled", shuffled),
    ]
}

/// Trains `fresh()` models on `sessions` and checks the model family's
/// contract: `train` (the parallel path) writes the sequential loop's arena
/// and file at every thread count and in every session order, and the
/// trained arena equals the one `reload` builds from the model's image.
fn assert_canonical<M: Predictor>(
    sessions: &[Vec<UrlId>],
    seed: u64,
    fresh: impl Fn() -> M,
    train: impl Fn(&mut M, &[Vec<UrlId>], usize),
    image: impl Fn(&M) -> ModelImage,
    reload: impl Fn(&M) -> M,
) -> Result<(), TestCaseError> {
    let mut seq = fresh();
    for s in sessions {
        seq.train_session(s);
    }
    seq.finalize();
    let seq_bytes = bytes(image(&seq));
    for threads in THREAD_GRID {
        let mut par = fresh();
        train(&mut par, sessions, threads);
        par.finalize();
        prop_assert_eq!(seq.frozen(), par.frozen(), "threads={}", threads);
        prop_assert_eq!(&seq_bytes, &bytes(image(&par)), "threads={}", threads);
    }
    for (order, reordered) in reorderings(sessions, seed) {
        let mut m = fresh();
        train(&mut m, &reordered, 2);
        m.finalize();
        prop_assert_eq!(&seq_bytes, &bytes(image(&m)), "{} sessions", order);
    }
    prop_assert_eq!(seq.frozen(), reload(&seq).frozen(), "reloaded arena");
    Ok(())
}

fn pop_from(sessions: &[Vec<UrlId>]) -> PopularityTable {
    let mut b = PopularityTable::builder();
    for s in sessions {
        for &u in s {
            b.record(u);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel popularity counting sums to exactly the sequential table
    /// (the count vector is its whole state; grades derive from it).
    #[test]
    fn parallel_popularity_counts_match_sequential(
        sessions in sessions_strategy(12, 9, 24),
    ) {
        let seq = pop_from(&sessions);
        for threads in THREAD_GRID {
            let par = PopularityBuilder::count_sessions(&sessions, threads).build();
            prop_assert_eq!(seq.counts(), par.counts(), "threads={}", threads);
        }
    }

    /// Standard PPM: partitioned training + merge reproduces the sequential
    /// arena (and therefore the snapshot bytes) at every thread count.
    #[test]
    fn parallel_standard_training_is_bit_identical(
        sessions in sessions_strategy(10, 8, 24),
        height in 1u8..6,
        bounded in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let max_height = (bounded == 1).then_some(height);
        assert_canonical(
            &sessions,
            seed,
            || StandardPpm::new(max_height),
            |m, s, threads| m.train_sessions(s, threads),
            |m| ModelImage::Standard(m.to_snapshot()),
            |m| StandardPpm::from_snapshot(&m.to_snapshot()).expect("loads"),
        )?;
    }

    /// LRS-PPM: the support cut runs wholly in finalize, after the merge,
    /// so parallel training commutes with it bit-for-bit.
    #[test]
    fn parallel_lrs_training_is_bit_identical(
        sessions in sessions_strategy(8, 8, 24),
        support in 1u64..4,
        seed in 0u64..u64::MAX,
    ) {
        assert_canonical(
            &sessions,
            seed,
            || StandardPpm::lrs_with_support(support),
            |m, s, threads| m.train_sessions(s, threads),
            |m| ModelImage::Standard(m.to_snapshot()),
            |m| StandardPpm::from_snapshot(&m.to_snapshot()).expect("loads"),
        )?;
    }

    /// First-order Markov: the pair forest trains through the same loop,
    /// so partition + merge writes the sequential loop's file.
    #[test]
    fn parallel_order1_training_is_bit_identical(
        sessions in sessions_strategy(10, 8, 24),
        seed in 0u64..u64::MAX,
    ) {
        assert_canonical(
            &sessions,
            seed,
            Order1Markov::new,
            |m, s, threads| m.train_sessions(s, threads),
            |m| ModelImage::Order1(m.to_snapshot()),
            |m| Order1Markov::from_snapshot(&m.to_snapshot()).expect("loads"),
        )?;
    }

    /// PB-PPM: per-session rule decisions depend only on the frozen
    /// popularity table and the session itself, so partition + merge is
    /// bit-identical — including rule-3 special links and finalize pruning.
    #[test]
    fn parallel_pb_training_is_bit_identical(
        sessions in sessions_strategy(10, 8, 24),
        special_links in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let pop = pop_from(&sessions);
        let cfg = PbConfig {
            special_links: special_links == 1,
            ..PbConfig::default()
        };
        assert_canonical(
            &sessions,
            seed,
            || PbPpm::new(pop.clone(), cfg),
            |m, s, threads| m.train_sessions(s, threads),
            |m| ModelImage::Pb(m.to_snapshot()),
            |m| PbPpm::from_snapshot(&m.to_snapshot()).expect("loads"),
        )?;
    }
}

/// More threads than sessions degrades gracefully (empty partitions are
/// dropped, never panicking, still identical).
#[test]
fn more_threads_than_sessions() {
    let sessions: Vec<Vec<UrlId>> = vec![vec![UrlId(0), UrlId(1), UrlId(0)]];
    let mut seq = StandardPpm::unbounded();
    for s in &sessions {
        seq.train_session(s);
    }
    seq.finalize();
    let mut par = StandardPpm::unbounded();
    par.train_sessions(&sessions, 16);
    par.finalize();
    assert_eq!(seq.frozen(), par.frozen());
}

#[test]
fn empty_session_list_is_a_no_op() {
    let sessions: Vec<Vec<UrlId>> = Vec::new();
    let mut par = PbPpm::new(
        PopularityTable::from_counts(vec![3, 2, 1]),
        PbConfig::default(),
    );
    par.train_sessions(&sessions, 8);
    par.finalize();
    let mut seq = PbPpm::new(
        PopularityTable::from_counts(vec![3, 2, 1]),
        PbConfig::default(),
    );
    seq.finalize();
    assert_eq!(seq.frozen(), par.frozen());
}
