//! The frozen arena reports the heap it holds: training and finalizing a
//! model, rebuilding an arena from its snapshot image, and cloning one each
//! grow the live heap by exactly what the model reports, so a finalized
//! model's `memory_bytes` is allocator truth, not an estimate — the first-order
//! Markov model's pair forest included. The counter is
//! process-wide, so this binary runs without the libtest harness, whose
//! main thread would allocate into the window (see `interner_bytes.rs`).

use pbppm_core::{FrozenTree, Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, UrlId};

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
    order1_memory_bytes_is_the_live_heap_of_its_arena();
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
    m.finalize();
    let model = m.frozen().expect("finalized");
    assert!(model.len() > 1_000, "{} rows", model.len());
    assert!(
        model.to_snapshot().links.len() > 10,
        "special links present"
    );

    // A fresh finalize drops the counted paths: only the arena and its
    // fingerprint index stay behind.
    let fresh_pop = pop.clone();
    let (bytes, fresh) = grown(|| {
        let mut fresh = PbPpm::new(fresh_pop, PbConfig::default());
        fresh.train_sessions(&sessions, 1);
        fresh.finalize();
        fresh
    });
    assert_eq!(fresh.frozen(), Some(model));
    let stats = fresh.stats();
    assert_eq!(
        bytes,
        (stats.memory_bytes + stats.index_bytes) as u64,
        "freshly finalized"
    );

    let snap = model.to_snapshot();
    let (bytes, loaded) = grown(|| FrozenTree::from_snapshot(&snap).expect("loads"));
    assert_eq!(&loaded, model);
    assert_eq!(bytes, loaded.heap_bytes() as u64, "loaded from a snapshot");

    let (bytes, copy) = grown(|| model.clone());
    assert_eq!(bytes, copy.heap_bytes() as u64, "clone");
    assert_eq!(m.stats().memory_bytes, model.heap_bytes());
}

/// O1's `memory_bytes` is the live heap the trained model holds: the pair
/// forest is dropped at finalize, and the arena is all that stays.
fn order1_memory_bytes_is_the_live_heap_of_its_arena() {
    let sessions = sessions(3_000, 400);
    let (bytes, m) = grown(|| {
        let mut m = Order1Markov::new();
        m.train_sessions(&sessions, 1);
        m.finalize();
        m
    });
    assert!(m.node_count() > 1_000, "{} nodes", m.node_count());
    assert_eq!(
        bytes,
        m.stats().memory_bytes as u64,
        "trained and finalized"
    );
}
