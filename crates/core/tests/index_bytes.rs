//! The fingerprint index reports the heap it holds: building one grows the
//! live heap by exactly `ContextIndex::memory_bytes`, so the
//! `core.index.bytes` gauge and the results' `index_bytes` are allocator
//! truth, not an estimate, at every column width. The counter is
//! process-wide, so this binary
//! runs without the libtest harness, whose main thread would allocate
//! into the window (see `interner_bytes.rs`).

mod wide;

use pbppm_core::{ContextIndex, PbConfig, PbPpm, PopularityTable, Predictor, UrlId};

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Deterministic sessions over `urls` URLs, skewed towards low ids so
/// popular windows collect many members and several extensions.
fn sessions(count: usize, urls: u64) -> Vec<Vec<UrlId>> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |below: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % below
    };
    (0..count)
        .map(|_| {
            let len = 1 + next(8);
            (0..len)
                .map(|_| {
                    let r = next(urls);
                    let id = r * r / urls; // quadratic skew
                    UrlId(u32::try_from(id).unwrap_or(u32::MAX))
                })
                .collect()
        })
        .collect()
}

fn main() {
    building_an_index_grows_the_live_heap_by_its_memory_bytes();
    wide_indexes_grow_the_live_heap_by_their_memory_bytes();
}

/// The live-heap peak, above the heap before it, of building each wide
/// model's index when every tree row was filed, leaves included, and no
/// window was dropped (the index of commit 9ca6b11, measured on these
/// models): the build may hold no more on the way.
const FILED_EVERY_ROW_PEAK: [u64; 2] = [493_520, 16_675_792];

/// Indexes over models whose rows, URL ids and counts need two- and
/// three-byte columns. The hub's, its successor's and each middle page's
/// windows are clean groups of two voters, one per root, whose vote URLs
/// take the width of the leaves' ids; their vote counts, like the
/// arena's, take one byte, with the successor's and the middle pages'
/// larger counts in an outlier table. The longer windows below them that
/// add nothing are dropped, and the build's peak heap stays under the
/// peak of filing every row.
fn wide_indexes_grow_the_live_heap_by_their_memory_bytes() {
    for ((n, width), parent_peak) in wide::SIZES.into_iter().zip(FILED_EVERY_ROW_PEAK) {
        let m = wide::model(&wide::sessions(n));
        let arena = m.frozen().expect("finalized");
        let before = pbppm_obs::alloc::live_bytes();
        pbppm_obs::alloc::reset_peak_bytes();
        let index = ContextIndex::windows(arena, 8).expect("trained counts fit");
        let peak = pbppm_obs::alloc::peak_bytes() - before;
        let grown = pbppm_obs::alloc::live_bytes() - before;
        let split = index.split();
        println!("n={n}: index build peak {peak} B, {parent_peak} B filing every row");
        assert!(peak <= parent_peak, "n={n}: peak {peak} B");
        assert!(
            split.windows_filed > 600 && index.len() > 300,
            "n={n}: {} filed, {} stored",
            split.windows_filed,
            index.len()
        );
        assert!(split.clean_groups > 300, "n={n}: {split:?}");
        let widths: Vec<(&str, usize)> = split.columns.iter().map(|c| (c.name, c.width)).collect();
        assert!(widths.contains(&("vote_urls", width)), "n={n}: {widths:?}");
        // Counts take a byte: the few past it, URL 3's and each middle
        // page's, sit in the outlier tables.
        for (columns, name) in [
            (&split.columns[..], "vote_counts"),
            (&arena.split()[..], "counts"),
        ] {
            let at = columns.iter().position(|c| c.name == name).expect("listed");
            let (body, over) = (columns[at], columns[at + 1]);
            assert_eq!(body.width, 1, "n={n}: {name}");
            assert!(
                over.name.ends_with("_over") && over.bytes > 0,
                "n={n}: {over:?}"
            );
        }
        assert_eq!(grown, index.memory_bytes() as u64, "n={n}");
        assert_eq!(index.memory_bytes(), m.stats().index_bytes, "n={n}");
    }
}

fn building_an_index_grows_the_live_heap_by_its_memory_bytes() {
    let sessions = sessions(3_000, 400);
    let mut b = PopularityTable::builder();
    for s in &sessions {
        for &u in s {
            b.record(u);
        }
    }
    let mut m = PbPpm::new(b.build(), PbConfig::default());
    m.train_sessions(&sessions, 1);
    m.finalize();
    for max_order in [1, 3, 8] {
        let before = pbppm_obs::alloc::live_bytes();
        let index = ContextIndex::windows(m.frozen().expect("finalized"), max_order)
            .expect("trained counts fit");
        let grown = pbppm_obs::alloc::live_bytes() - before;
        assert!(
            index.len() > 100,
            "order {max_order}: {} entries",
            index.len()
        );
        assert_eq!(
            grown,
            index.memory_bytes() as u64,
            "order {max_order}: live heap grew {grown} B, memory_bytes reports {}",
            index.memory_bytes()
        );
        let before = pbppm_obs::alloc::live_bytes();
        let copy = index.clone();
        let grown = pbppm_obs::alloc::live_bytes() - before;
        assert_eq!(
            grown,
            copy.memory_bytes() as u64,
            "order {max_order}: clone"
        );
    }
}
