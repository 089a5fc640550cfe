//! The frozen arena reports the heap it holds: freezing a tree, rebuilding
//! an arena from its snapshot image, and cloning one each grow the live
//! heap by exactly `FrozenTree::heap_bytes`, so a finalized model's
//! `memory_bytes` is allocator truth, not an estimate. The counter is
//! process-wide, so this binary runs without the libtest harness, whose
//! main thread would allocate into the window (see `interner_bytes.rs`).

use pbppm_core::{FrozenTree, PbConfig, PbPpm, PopularityTable, Predictor, UrlId};

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Deterministic sessions over `urls` URLs, skewed towards low ids so
/// popular URLs head deep branches with special links.
fn sessions(count: usize, urls: u64) -> Vec<Vec<UrlId>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
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
                    UrlId(u32::try_from(r * r / urls).unwrap_or(u32::MAX))
                })
                .collect()
        })
        .collect()
}

/// Live-heap growth while `build` runs, and what it returned.
fn grown<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = pbppm_obs::alloc::live_bytes();
    let value = build();
    (pbppm_obs::alloc::live_bytes() - before, value)
}

fn main() {
    an_arena_grows_the_live_heap_by_its_heap_bytes();
}

fn an_arena_grows_the_live_heap_by_its_heap_bytes() {
    let sessions = sessions(3_000, 400);
    let mut b = PopularityTable::builder();
    for s in &sessions {
        for &u in s {
            b.record(u);
        }
    }
    let pop = b.build();
    let mut m = PbPpm::new(pop.clone(), PbConfig::default());
    m.train_sessions(&sessions, 1);
    let tree = m.reference_tree().expect("still training");
    m.finalize();
    let model = m.frozen().expect("finalized");
    assert!(model.len() > 1_000, "{} rows", model.len());
    assert!(
        model.to_snapshot().links.len() > 10,
        "special links present"
    );

    // Freezing consumes the (cloned) tree: only the arena stays behind.
    let (bytes, fresh) = grown(|| tree.clone().freeze(Some(&pop)));
    assert_eq!(&fresh, model);
    assert_eq!(bytes, fresh.heap_bytes() as u64, "freshly frozen");

    let snap = model.to_snapshot();
    let (bytes, loaded) = grown(|| FrozenTree::from_snapshot(&snap, Some(&pop)).expect("loads"));
    assert_eq!(&loaded, model);
    assert_eq!(bytes, loaded.heap_bytes() as u64, "loaded from a snapshot");

    let (bytes, copy) = grown(|| model.clone());
    assert_eq!(bytes, copy.heap_bytes() as u64, "clone");
    assert_eq!(m.stats().memory_bytes, model.heap_bytes());
}
