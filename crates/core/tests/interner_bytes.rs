//! The interner reports the heap it holds: building one, cloning one and
//! decoding one from a snapshot each grow the live heap by exactly
//! `Interner::memory_bytes`, and the decoded one carries no growth slack.
//! The counter is process-wide, so this binary runs without the libtest
//! harness (see `Cargo.toml`): the harness's main thread allocates its
//! timeout bookkeeping after spawning a test, which under load can land
//! inside a measured window.

use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{Interner, Order1Markov, Predictor};

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Live-heap growth while `build` runs, and what it returned.
fn grown<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = pbppm_obs::alloc::live_bytes();
    let value = build();
    (pbppm_obs::alloc::live_bytes() - before, value)
}

fn main() {
    an_interner_grows_the_live_heap_by_its_memory_bytes();
}

fn an_interner_grows_the_live_heap_by_its_memory_bytes() {
    let urls: Vec<String> = (0..3_000)
        .map(|i| match i % 3 {
            0 => format!("/l{}/p{i}.html", i % 7),
            1 => format!("/κατάλογος/{i}/{}", "x".repeat(i % 90)),
            _ => format!("/img/{i}.gif"),
        })
        .collect();

    let (bytes, empty) = grown(Interner::new);
    assert_eq!(
        (bytes, empty.memory_bytes()),
        (0, 0),
        "new allocates nothing"
    );

    // Growth across many arena reallocations and rehashes: what stays
    // live is what the interner reports.
    let (bytes, built) = grown(|| {
        let mut i = Interner::new();
        for u in &urls {
            i.intern(u);
        }
        i
    });
    assert_eq!(bytes, built.memory_bytes() as u64, "interned one by one");

    let (bytes, copy) = grown(|| built.clone());
    assert_eq!(bytes, copy.memory_bytes() as u64, "clone");

    let (bytes, sized) = grown(|| Interner::with_capacity(urls.len()));
    assert_eq!(bytes, sized.memory_bytes() as u64, "with_capacity");

    // A model file's interner, decoded: exactly the strings, one offset
    // each and the table `with_capacity` sizes — no slack in the arena or
    // offsets. An empty order-1 model allocates nothing, so the decode
    // keeps nothing else live, its scratch string included.
    let mut model = Order1Markov::new();
    model.finalize();
    let written = SnapshotFile::new(&built, ModelImage::Order1(model.to_snapshot())).encode();
    let (bytes, file) = grown(|| SnapshotFile::decode(&written).expect("a written file decodes"));
    let loaded = &file.urls;
    assert_eq!(bytes, loaded.memory_bytes() as u64, "decoded from a file");
    let strings: usize = urls.iter().map(String::len).sum();
    assert_eq!(loaded.memory_bytes(), sized.memory_bytes() + strings);
    assert!(
        loaded.memory_bytes() < built.memory_bytes(),
        "interning one by one leaves growth slack the load does not"
    );
    assert_eq!(loaded.len(), urls.len());
    assert!(loaded
        .iter()
        .map(|(_, u)| u)
        .eq(urls.iter().map(String::as_str)));

    // `interner()` copies it at exactly its size.
    let (bytes, copy) = grown(|| file.interner());
    assert_eq!(bytes, copy.memory_bytes() as u64, "interner()");
    assert_eq!(copy.memory_bytes(), loaded.memory_bytes());
}
