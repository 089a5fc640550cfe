//! Determinism guarantee of parallel training: for every model family and
//! every thread count, `train_sessions` must be **bit-identical** to the
//! sequential `train_session` loop — same arena order, same counts, same
//! `.pbss` bytes as written to disk. This is the contract that lets
//! `--threads` default on without ever changing a result.

use pbppm_core::{
    ModelImage, Order1Markov, PbConfig, PbPpm, PopularityBuilder, PopularityTable, Predictor,
    SnapshotFile, StandardPpm, UrlId,
};
use proptest::prelude::*;

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
        urls: Vec::new(),
        model,
    }
    .encode()
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
    ) {
        let max_height = (bounded == 1).then_some(height);
        let mut seq = StandardPpm::new(max_height);
        for s in &sessions {
            seq.train_session(s);
        }
        seq.finalize();
        let seq_bytes = bytes(ModelImage::Standard(seq.to_snapshot()));
        for threads in THREAD_GRID {
            let mut par = StandardPpm::new(max_height);
            par.train_sessions(&sessions, threads);
            par.finalize();
            prop_assert_eq!(seq.frozen(), par.frozen(), "threads={}", threads);
            prop_assert_eq!(&seq_bytes, &bytes(ModelImage::Standard(par.to_snapshot())), "threads={}", threads);
        }
    }

    /// LRS-PPM: the support cut runs wholly in finalize, after the merge,
    /// so parallel training commutes with it bit-for-bit.
    #[test]
    fn parallel_lrs_training_is_bit_identical(
        sessions in sessions_strategy(8, 8, 24),
        support in 1u64..4,
    ) {
        let mut seq = StandardPpm::lrs_with_support(support);
        for s in &sessions {
            seq.train_session(s);
        }
        seq.finalize();
        let seq_bytes = bytes(ModelImage::Standard(seq.to_snapshot()));
        for threads in THREAD_GRID {
            let mut par = StandardPpm::lrs_with_support(support);
            par.train_sessions(&sessions, threads);
            par.finalize();
            prop_assert_eq!(seq.frozen(), par.frozen(), "threads={}", threads);
            prop_assert_eq!(&seq_bytes, &bytes(ModelImage::Standard(par.to_snapshot())), "threads={}", threads);
        }
    }

    /// First-order Markov: the pair forest trains through the same loop,
    /// so partition + merge writes the sequential loop's file.
    #[test]
    fn parallel_order1_training_is_bit_identical(
        sessions in sessions_strategy(10, 8, 24),
    ) {
        let mut seq = Order1Markov::new();
        for s in &sessions {
            seq.train_session(s);
        }
        seq.finalize();
        let seq_bytes = bytes(ModelImage::Order1(seq.to_snapshot()));
        for threads in THREAD_GRID {
            let mut par = Order1Markov::new();
            par.train_sessions(&sessions, threads);
            par.finalize();
            prop_assert_eq!(seq.frozen(), par.frozen(), "threads={}", threads);
            prop_assert_eq!(&seq_bytes, &bytes(ModelImage::Order1(par.to_snapshot())), "threads={}", threads);
        }
    }

    /// PB-PPM: per-session rule decisions depend only on the frozen
    /// popularity table and the session itself, so partition + merge is
    /// bit-identical — including rule-3 special links and finalize pruning.
    #[test]
    fn parallel_pb_training_is_bit_identical(
        sessions in sessions_strategy(10, 8, 24),
        special_links in 0u8..2,
    ) {
        let pop = pop_from(&sessions);
        let cfg = PbConfig {
            special_links: special_links == 1,
            ..PbConfig::default()
        };
        let mut seq = PbPpm::new(pop.clone(), cfg);
        for s in &sessions {
            seq.train_session(s);
        }
        seq.finalize();
        let seq_bytes = bytes(ModelImage::Pb(seq.to_snapshot()));
        for threads in THREAD_GRID {
            let mut par = PbPpm::new(pop.clone(), cfg);
            par.train_sessions(&sessions, threads);
            par.finalize();
            prop_assert_eq!(seq.frozen(), par.frozen(), "threads={}", threads);
            prop_assert_eq!(&seq_bytes, &bytes(ModelImage::Pb(par.to_snapshot())), "threads={}", threads);
        }
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
