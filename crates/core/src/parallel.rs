//! Deterministic parallelism helpers shared by training, evaluation, and
//! ingestion.
//!
//! Everything parallel in this workspace follows one discipline: inputs are
//! borrowed immutably, work is split into **contiguous** partitions (or
//! pulled dynamically from an atomic counter when costs vary wildly), and
//! results are merged back **in partition order** so the outcome is
//! bit-identical at every thread count. The thread-count knobs
//! (`--threads` flags, [`THREADS_ENV`]) therefore only change wall time,
//! never results.
//!
//! The users are the tree models' parallel training
//! (`NodeStore`'s `train_sessions`), popularity counting,
//! the chunked ingestion in `pbppm-trace`, and the simulator's figure
//! sweeps, whose cells (model × training window × threshold × client
//! count) differ wildly in cost and so are pulled dynamically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count wherever a thread count
/// of `0` ("auto") is in effect. CLI `--threads` flags and explicit config
/// fields take precedence over it.
pub const THREADS_ENV: &str = "PBPPM_THREADS";

/// Parses a `PBPPM_THREADS`-style worker count: a positive integer.
/// Rejects zero, negatives, and non-numeric input with a message naming
/// the variable and the offending value.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "invalid {THREADS_ENV} value \"0\": expected a positive worker count \
             (unset the variable for auto parallelism)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "invalid {THREADS_ENV} value {trimmed:?}: expected a positive integer"
        )),
    }
}

/// Reads and validates `PBPPM_THREADS`. `Ok(None)` when unset; `Err` with a
/// clear message when set to anything but a positive integer. Binaries call
/// this at startup so a typo fails loudly instead of silently running on
/// the wrong worker count.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads(&raw).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("invalid {THREADS_ENV} value: not valid UTF-8"))
        }
    }
}

/// Resolves a requested worker count: `0` means auto — `PBPPM_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (serial execution if even that is unknown). An invalid
/// `PBPPM_THREADS` is reported (never a panic) and auto parallelism is
/// used; front-ends reject it earlier via [`threads_from_env`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    match threads_from_env() {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(msg) => pbppm_obs::obs_error!("{msg}; falling back to auto parallelism"),
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..len` into at most `parts` contiguous, near-equal ranges in
/// order. Partitioned-then-merged parallel work depends on contiguity:
/// partition `k` holds exactly the items sequential processing would reach
/// after partitions `0..k`, which is what makes merge-in-partition-order
/// reproduce the sequential outcome.
pub fn partition_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output, and reports completion counts: `progress(n)` is called after
/// the `n`-th item (in completion order, 1-based) finishes. Callers use
/// it for "k/total done" logging without owning an atomic counter of
/// their own — cross-thread coordination stays confined to this module.
pub fn parallel_map_progress<T, R, F, P>(items: &[T], threads: usize, f: F, progress: P) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    P: Fn(usize) + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = resolve_threads(threads).min(items.len());

    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = f(item);
                progress(i + 1);
                r
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Relaxed: the counters order nothing — `next` only hands
                // out distinct indices and `done` only counts completions;
                // the scope join is the synchronization point for results.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("sweep slot poisoned") = Some(r);
                // Relaxed: pure completion count, no ordering obligation.
                progress(done.fetch_add(1, Ordering::Relaxed) + 1);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output. `threads == 0` (the default entry point [`parallel_map`]) uses
/// [`resolve_threads`]: `PBPPM_THREADS` or the available parallelism.
pub fn parallel_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_progress(items, threads, f, |_| {})
}

/// [`parallel_map_with`] with an auto-resolved worker count.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, 0, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |&x: &u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map_with(&items, 8, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..30).collect();
        let out = parallel_map_with(&items, 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 10_000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn progress_reports_every_completion_once() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let out = parallel_map_progress(
                &items,
                threads,
                |&x| x + 1,
                |n| seen.lock().unwrap().push(n),
            );
            assert_eq!(out.len(), 40, "threads={threads}");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            // Completion counts are 1..=len, each reported exactly once.
            assert_eq!(seen, (1..=40).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn explicit_thread_counts() {
        let items: Vec<u64> = (0..20).collect();
        for threads in [1, 2, 3, 16, 100] {
            let out = parallel_map_with(&items, threads, |&x| x * x);
            assert_eq!(out[19], 361, "threads={threads}");
        }
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("16"), Ok(16));
        assert_eq!(parse_threads(" 8 "), Ok(8), "whitespace is tolerated");
    }

    #[test]
    fn parse_threads_rejects_garbage_with_a_clear_message() {
        for bad in ["", "zero", "3.5", "-2", "0x10", "8 threads"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV) && err.contains("positive integer"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn parse_threads_rejects_zero_explicitly() {
        let err = parse_threads("0").unwrap_err();
        assert!(err.contains("unset the variable"), "{err}");
    }

    #[test]
    fn explicit_count_wins_over_auto() {
        // Non-zero counts pass through untouched; zero resolves to >= 1.
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn partition_ranges_cover_exactly_once_in_order() {
        for (len, parts) in [(0, 4), (1, 4), (7, 3), (8, 3), (100, 7), (5, 1), (3, 100)] {
            let ranges = partition_ranges(len, parts);
            let mut covered = Vec::new();
            for r in &ranges {
                assert!(!r.is_empty(), "len={len} parts={parts}: empty range");
                covered.extend(r.clone());
            }
            assert_eq!(
                covered,
                (0..len).collect::<Vec<_>>(),
                "len={len} parts={parts}"
            );
            assert!(ranges.len() <= parts.max(1));
            // Near-equal: sizes differ by at most one.
            if let (Some(max), Some(min)) = (
                ranges.iter().map(ExactSizeIterator::len).max(),
                ranges.iter().map(ExactSizeIterator::len).min(),
            ) {
                assert!(max - min <= 1, "len={len} parts={parts}: {ranges:?}");
            }
        }
    }
}
