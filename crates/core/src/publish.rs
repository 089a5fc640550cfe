//! Epoch publication: single-writer, many-reader snapshot handoff.
//!
//! The sharded serving core pairs one writer (an [`crate::OnlinePbPpm`]
//! training and rebuilding) with many readers that must keep answering
//! predictions while a rebuild is in flight. The classic answer is the
//! epoch / arc-swap pattern: the writer clones the freshly rebuilt model
//! into an immutable [`Arc`] and publishes it atomically; readers hold on
//! to whichever `Arc` they last saw and only refresh when the epoch
//! counter tells them something new exists.
//!
//! The implementation here stays inside safe Rust (`#![forbid(unsafe_code)]`
//! is workspace law): the published slot is a `Mutex<Arc<T>>`, and the
//! epoch counter is an `AtomicU64` bumped *inside* the lock. Readers pay
//! one atomic load per request on the steady-state path — the lock is only
//! touched in the instant after a publish, to clone the new `Arc` into the
//! reader's local cache. Readers therefore never observe a torn value:
//! every [`EpochReader::current`] yields exactly one fully-published
//! snapshot, either the previous epoch's or the new one.
//!
//! The same module carries the client-shard router ([`shard_of`]): the
//! deterministic hash that assigns a client to a model shard, shared by
//! the serving core and its tests so routing can be pinned
//! thread-count-invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared state between one [`EpochPublisher`] and its readers.
struct EpochShared<T> {
    /// Publication counter; starts at 0 for the initial value and is
    /// incremented (inside the slot lock) on every publish.
    epoch: AtomicU64,
    /// The current snapshot. Swapped wholesale under the lock, so a reader
    /// cloning out of it always gets one consistent `Arc`.
    slot: Mutex<Arc<T>>,
}

/// Ignores mutex poisoning: the slot only ever holds a fully-constructed
/// `Arc`, so a panic on another thread cannot leave it torn.
fn lock_slot<T>(slot: &Mutex<Arc<T>>) -> std::sync::MutexGuard<'_, Arc<T>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The single writer's handle: owns the right to publish new snapshots.
pub struct EpochPublisher<T> {
    shared: Arc<EpochShared<T>>,
}

impl<T> EpochPublisher<T> {
    /// Creates a publisher whose readers start out seeing `initial`
    /// (epoch 0).
    pub fn new(initial: T) -> Self {
        Self {
            shared: Arc::new(EpochShared {
                epoch: AtomicU64::new(0),
                slot: Mutex::new(Arc::new(initial)),
            }),
        }
    }

    /// Atomically replaces the published snapshot and returns the new
    /// epoch. Readers that already cloned the old `Arc` keep serving from
    /// it until they next check the epoch; nobody ever sees a mix.
    pub fn publish(&self, value: T) -> u64 {
        let mut guard = lock_slot(&self.shared.slot);
        *guard = Arc::new(value);
        // Bumped inside the lock so (epoch, slot) move together; Release
        // pairs with the readers' Acquire load.
        self.shared.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot (takes the lock briefly).
    pub fn current(&self) -> Arc<T> {
        lock_slot(&self.shared.slot).clone()
    }

    /// A new reader handle, pre-warmed with the current snapshot.
    pub fn reader(&self) -> EpochReader<T> {
        let guard = lock_slot(&self.shared.slot);
        let cached = guard.clone();
        let seen = self.shared.epoch.load(Ordering::Acquire);
        drop(guard);
        EpochReader {
            shared: Arc::clone(&self.shared),
            seen,
            cached,
        }
    }
}

/// A reader's handle: caches the last snapshot it saw and refreshes it
/// only when the publisher's epoch moves. Cheap to clone — every reader
/// thread should own one.
pub struct EpochReader<T> {
    shared: Arc<EpochShared<T>>,
    seen: u64,
    cached: Arc<T>,
}

impl<T> Clone for EpochReader<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            seen: self.seen,
            cached: Arc::clone(&self.cached),
        }
    }
}

impl<T> EpochReader<T> {
    /// The snapshot to answer from right now. Steady state (no publish
    /// since the last call) is one atomic load; after a publish the slot
    /// lock is taken once to clone the new `Arc` into the local cache.
    pub fn current(&mut self) -> &Arc<T> {
        if self.shared.epoch.load(Ordering::Acquire) != self.seen {
            let guard = lock_slot(&self.shared.slot);
            self.cached = guard.clone();
            // Read inside the lock: publishes bump the epoch while holding
            // it, so this pairing is exact.
            self.seen = self.shared.epoch.load(Ordering::Acquire);
        }
        &self.cached
    }

    /// The epoch of the snapshot [`EpochReader::current`] would return
    /// without refreshing (tests / telemetry).
    pub fn epoch_seen(&self) -> u64 {
        self.seen
    }
}

/// Deterministic client-to-shard assignment: Fx hash of the client name,
/// reduced modulo the shard count. Stable across runs, platforms and
/// thread counts — the same scheme (hash the client, nothing else) the
/// eval engine's client sharding relies on for its thread-count-invariant
/// merge.
pub fn shard_of(client: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    use std::hash::Hasher;
    let mut h = crate::fxhash::FxHasher::default();
    h.write(client.as_bytes());
    usize::try_from(h.finish() % shards as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_epoch_zero() {
        let p = EpochPublisher::new(41);
        assert_eq!(p.epoch(), 0);
        assert_eq!(*p.current(), 41);
        let mut r = p.reader();
        assert_eq!(**r.current(), 41);
        assert_eq!(r.epoch_seen(), 0);
    }

    #[test]
    fn publish_bumps_epoch_and_reaches_readers() {
        let p = EpochPublisher::new(0u64);
        let mut r = p.reader();
        assert_eq!(p.publish(7), 1);
        assert_eq!(p.publish(8), 2);
        assert_eq!(**r.current(), 8);
        assert_eq!(r.epoch_seen(), 2);
    }

    #[test]
    fn stale_readers_keep_their_snapshot_until_they_look() {
        let p = EpochPublisher::new(1u64);
        let mut r = p.reader();
        let before = Arc::clone(r.current());
        p.publish(2);
        // The old Arc stays valid and unchanged for as long as anyone
        // holds it — that is the whole point of the pattern.
        assert_eq!(*before, 1);
        assert_eq!(**r.current(), 2);
    }

    #[test]
    fn readers_never_observe_a_torn_snapshot() {
        // The published value is a pair with an invariant (a == b); a torn
        // read would break it. Four readers hammer the handle while the
        // writer publishes a thousand epochs.
        let p = EpochPublisher::new((0u64, 0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut r = p.reader();
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..10_000 {
                        let snap = r.current();
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                        let e = r.epoch_seen();
                        assert!(e >= last_epoch, "epoch went backwards");
                        last_epoch = e;
                    }
                });
            }
            scope.spawn(|| {
                for k in 1..=1_000u64 {
                    p.publish((k, k));
                }
            });
        });
        assert_eq!(p.epoch(), 1_000);
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for shards in 1..=16 {
            for client in ["", "c0", "c1", "client-xyz", "/weird id"] {
                let s = shard_of(client, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(client, shards), "unstable assignment");
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn shard_of_spreads_clients() {
        // Not a statistical guarantee, just a sanity check that the hash
        // reduction is not degenerate for sequential client ids.
        let shards = 8;
        let mut seen = vec![0usize; shards];
        for i in 0..256 {
            seen[shard_of(&format!("c{i}"), shards)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every shard gets some client: {seen:?}"
        );
    }
}
