//! PB-PPM models wide enough to need wider columns: their arena rows, URL
//! ids and counts all cross 2^8, and at the larger size 2^16 too, so the
//! width-sized columns of the arena, the index and the popularity table
//! are exercised past the one-byte width the small fixtures stay in, at
//! two bytes and at three.

use pbppm_core::{PbConfig, PbPpm, PopularityBuilder, Predictor, PruneConfig, UrlId};

/// `n` sessions of five clicks: a root (URL 0 for three in four, URL 1
/// otherwise), the hub URL 2, its one successor URL 3 (all four grade 3),
/// one of 300 middle pages (grade 1) and a leaf seen once, with id `n + i`.
/// Which root a session takes shifts by one every 300 sessions, so each
/// middle page falls under both roots: the windows `[2]`, `[3]` and each
/// middle page have two voters, one per root, and are clean groups, whose
/// votes reach URL 3's count of `n` and the leaves' ids. URL 2 and 3 are
/// counted `n` times, the leaves' ids reach `2n`, and the arena holds
/// about `n + 1,200` rows.
pub fn sessions(n: u32) -> Vec<Vec<UrlId>> {
    (0..n)
        .map(|i| {
            let root = u32::from((i + i / 300) % 4 == 3);
            vec![
                UrlId(root),
                UrlId(2),
                UrlId(3),
                UrlId(4 + i % 300),
                UrlId(n + i),
            ]
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
