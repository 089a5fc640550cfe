//! The interner reports the heap it holds: building one, cloning one and
//! decoding one from a snapshot, with or without holes, each grow the live
//! heap by exactly `Interner::memory_bytes`, and the decoded one carries no
//! growth slack.
//! The counter is process-wide, so this binary runs without the libtest
//! harness (see `Cargo.toml`): the harness's main thread allocates its
//! timeout bookkeeping after spawning a test, which under load can land
//! inside a measured window.

use pbppm_core::order1::{Order1RowSnapshot, Order1Snapshot};
use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::Interner;

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Live-heap growth while `build` runs, and what it returned.
fn grown<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = pbppm_obs::alloc::live_bytes();
    let value = build();
    (pbppm_obs::alloc::live_bytes() - before, value)
}

/// An order-1 image whose rows name exactly the URL ids `named`: the file
/// keeps the strings of those ids.
fn naming(named: impl Iterator<Item = usize>) -> ModelImage {
    ModelImage::Order1(Order1Snapshot {
        rows: named
            .map(|url| Order1RowSnapshot {
                url: u32::try_from(url).expect("a small table"),
                total: 1,
                next: Vec::new(),
            })
            .collect(),
    })
}

/// The URL table `file` decodes to, the rest of the file dropped.
fn decoded_urls(file: &[u8]) -> Interner {
    SnapshotFile::decode(file)
        .expect("a written file decodes")
        .urls
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
    // offsets. The rest of the file is dropped before the heap is read,
    // so nothing else the decode made stays live, its scratch string
    // included.
    let written = SnapshotFile::new(&built, naming(0..urls.len())).encode();
    let (bytes, loaded) = grown(|| decoded_urls(&written));
    let loaded = &loaded;
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

    // A clone copies it at exactly its size.
    let (bytes, copy) = grown(|| loaded.clone());
    assert_eq!(
        bytes,
        copy.memory_bytes() as u64,
        "clone of a decoded table"
    );
    assert_eq!(copy.memory_bytes(), loaded.memory_bytes());

    // A file whose model names every third id: the decoded table keeps
    // the whole id space, the named strings, their offsets, a table sized
    // for them, and a presence set of 12 bytes per 64 ids.
    let named: Vec<usize> = (0..urls.len()).step_by(3).collect();
    let written = SnapshotFile::new(&built, naming(named.iter().copied())).encode();
    let (bytes, holed) = grown(|| decoded_urls(&written));
    assert_eq!(bytes, holed.memory_bytes() as u64, "decoded with holes");
    assert_eq!((holed.len(), holed.strings()), (urls.len(), named.len()));
    let split = holed.split();
    let held: usize = named.iter().map(|&i| urls[i].len()).sum();
    assert_eq!(split.strings, held);
    assert_eq!(split.ends, 4 * named.len());
    assert_eq!(
        split.slots,
        Interner::with_capacity(named.len()).split().slots
    );
    assert_eq!(split.presence, 12 * urls.len().div_ceil(64));
    assert!(holed.memory_bytes() < loaded.memory_bytes() / 2);
    let (bytes, copy) = grown(|| holed.clone());
    assert_eq!(
        bytes,
        copy.memory_bytes() as u64,
        "clone of a table with holes"
    );
    // Interning past the space grows it, on the live heap as reported.
    let mut grown_table = holed.clone();
    let before = grown_table.memory_bytes() as u64;
    let (bytes, ()) = grown(|| {
        for k in 0..500 {
            grown_table.intern(&format!("/new/{k}"));
        }
    });
    assert_eq!(
        before + bytes,
        grown_table.memory_bytes() as u64,
        "interned after a decode"
    );
    assert_eq!(grown_table.len(), urls.len() + 500);
}
