//! The fingerprint index reports the heap it holds: building one grows the
//! live heap by exactly `ContextIndex::memory_bytes`, so the
//! `core.index.bytes` gauge and the results' `index_bytes` are allocator
//! truth, not an estimate. The counter is process-wide, so this binary
//! runs without the libtest harness, whose main thread would allocate
//! into the window (see `interner_bytes.rs`).

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
        let index = ContextIndex::windows(m.frozen().expect("finalized"), max_order);
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
