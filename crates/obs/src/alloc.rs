//! Optional allocation accounting behind span byte deltas.
//!
//! A binary opts in by installing the counting allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pbppm_obs::alloc::CountingAllocator =
//!     pbppm_obs::alloc::CountingAllocator;
//! ```
//!
//! The counter is a single process-wide relaxed atomic of *allocated* bytes
//! (frees are not subtracted): span deltas then measure allocation churn,
//! which is the quantity that correlates with allocator time. Binaries that
//! do not install it — the `throughput` binary, deliberately —
//! simply report 0. With the `enabled` feature off the allocator forwards
//! straight to [`System`] with no counting at all.

#![allow(unsafe_code)] // the workspace's sole unsafe: the GlobalAlloc impl below

use std::alloc::{GlobalAlloc, Layout, System};

#[cfg(feature = "enabled")]
static ALLOCATED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
#[cfg(feature = "enabled")]
static LIVE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
#[cfg(feature = "enabled")]
static PEAK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total bytes allocated so far (0 when no [`CountingAllocator`] is
/// installed or telemetry is compiled out).
pub fn allocated_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // Relaxed: monotone statistic read, no ordering obligation.
        ALLOCATED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Currently live (allocated minus freed) bytes. Unlike
/// [`allocated_bytes`] this *does* subtract frees, so it tracks resident
/// heap rather than churn.
pub fn live_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // Relaxed: approximate statistic read, no ordering obligation.
        LIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak_bytes`]. This is what bounded-memory claims are measured
/// against (e.g. the `ingest` bench's chunked-vs-buffered comparison).
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // Relaxed: watermark read, no ordering obligation.
        PEAK.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Restarts the peak watermark from the current live level, so a caller
/// can measure the peak of one phase in isolation.
pub fn reset_peak_bytes() {
    #[cfg(feature = "enabled")]
    // Relaxed: the reset races benignly with concurrent allocation; the
    // counters never order anything.
    PEAK.store(
        LIVE.load(std::sync::atomic::Ordering::Relaxed),
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// A [`System`]-backed allocator that counts allocated bytes.
pub struct CountingAllocator;

#[cfg(feature = "enabled")]
fn count(bytes: usize) {
    use std::sync::atomic::Ordering::Relaxed;
    // Relaxed throughout: these are statistics on the allocation hot
    // path — independent counters with no ordering obligation, where any
    // fence would tax every allocation in the process.
    ALLOCATED.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

#[cfg(not(feature = "enabled"))]
fn count(_bytes: usize) {}

#[cfg(feature = "enabled")]
fn uncount(bytes: usize) {
    // Saturating at zero: allocations made before the counter existed (or
    // through a different allocator) may be freed through this one.
    let _ = LIVE.fetch_update(
        std::sync::atomic::Ordering::Relaxed,
        std::sync::atomic::Ordering::Relaxed,
        |live| Some(live.saturating_sub(bytes as u64)),
    );
}

#[cfg(not(feature = "enabled"))]
fn uncount(_bytes: usize) {}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        uncount(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            count(new_size - layout.size());
        } else {
            uncount(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}
