//! PB-PPM models wide enough to need wider columns: their arena rows, URL
//! ids and counts all cross 2^8, and at the larger size 2^16 too, so the
//! width-sized columns of the arena, the index and the popularity table
//! are exercised past the one-byte width the small fixtures stay in, at
//! two bytes and at three.

use pbppm_core::{PbConfig, PbPpm, PopularityBuilder, Predictor, PruneConfig, UrlId};

/// `n` sessions of three clicks: a root (URL 0 for three in four, URL 1
/// otherwise, both grade 3), one of 300 middle pages (grade 1, each
/// under both roots, so the middle windows are clean groups of two) and
/// a leaf seen once, with id `n + i`. The root URL 0 is counted about
/// `0.75 n` times, the leaves' ids reach `2n`, and the arena holds about
/// `n + 600` rows.
pub fn sessions(n: u32) -> Vec<Vec<UrlId>> {
    (0..n)
        .map(|i| {
            let root = u32::from(i % 4 == 3);
            vec![UrlId(root), UrlId(2 + i % 300), UrlId(n + i)]
        })
        .collect()
}

/// The PB-PPM configuration the wide models use: the paper's, with no
/// cut, so every leaf stays a row.
pub fn config() -> PbConfig {
    PbConfig {
        prune: PruneConfig::disabled(),
        ..PbConfig::default()
    }
}

/// A PB-PPM model trained on `sessions` and finalized.
pub fn model(sessions: &[Vec<UrlId>]) -> PbPpm {
    let mut m = PbPpm::new(
        PopularityBuilder::count_sessions(sessions, 1).build(),
        config(),
    );
    m.train_sessions(sessions, 1);
    m.finalize();
    m
}

/// The two sizes and the width they need: every column value past one
/// byte, and past two (none past three, so three bytes hold them).
pub const SIZES: [(u32, usize); 2] = [(2_000, 2), (90_000, 3)];
