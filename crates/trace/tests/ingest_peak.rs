//! The chunked ingester's peak heap: on the same log it stays within
//! 1.25× the reference builder's, which buffers every accepted record as
//! owned strings, at one and at two parse workers. The counter is
//! process-wide, so this binary runs without the libtest harness (see
//! `Cargo.toml`), whose own bookkeeping could land inside a measured
//! window.

use pbppm_obs::alloc::{live_bytes, peak_bytes, reset_peak_bytes};
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::reference::trace_from_lines;
use pbppm_trace::{trace_from_clf_reader, IngestConfig};
use std::io::BufRead;

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Lines in the log: several of the ingester's 4 MiB chunks.
const LINES: usize = 150_000;
/// The chunked parse may peak at most this factor above the reference.
const SLACK: f64 = 1.25;

/// The live-heap peak above the level at entry while `run` runs, and what
/// it returned.
fn peak<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = live_bytes();
    reset_peak_bytes();
    let value = run();
    (peak_bytes().saturating_sub(before), value)
}

/// A deterministic CLF log of `lines` lines: skewed hosts and paths of
/// every document kind, times that mostly rise, some non-`GET`s and
/// failed requests, and a malformed line now and then.
fn log(lines: usize) -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |below: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % below
    };
    let mut out = Vec::new();
    let mut time = 804_571_200i64;
    for _ in 0..lines {
        if next(500) == 0 {
            out.extend_from_slice(b"not a log line\n");
            continue;
        }
        time += i64::try_from(next(4)).unwrap_or(0);
        let page = next(3_000);
        let page = page * page / 3_000; // quadratic skew
        let ext = ["html", "gif", "jpg", "txt"][usize::try_from(next(4)).unwrap_or(0)];
        let rec = ClfRecord {
            host: format!("host{}.example.edu", next(2_000)),
            // Some records arrive a little out of order.
            time: time - i64::try_from(next(3)).unwrap_or(0),
            method: if next(20) == 0 { "POST" } else { "GET" }.to_owned(),
            path: format!("/shuttle/missions/sts-{}/page{page}.{ext}", page % 70),
            status: [200, 200, 200, 304, 404][usize::try_from(next(5)).unwrap_or(0)],
            size: u32::try_from(next(90_000)).unwrap_or(0),
        };
        out.extend_from_slice(format_clf_line(&rec).as_bytes());
        out.push(b'\n');
    }
    out
}

fn main() {
    let log = log(LINES);
    let (reference_peak, (reference, _)) = peak(|| {
        let lines = log.as_slice().lines().map(|l| l.expect("in-memory log"));
        trace_from_lines("peak", lines)
    });
    assert!(
        reference_peak > 0,
        "no counting allocator measured the peak"
    );
    for threads in [1, 2] {
        let (chunked_peak, (trace, _)) = peak(|| {
            trace_from_clf_reader("peak", log.as_slice(), &IngestConfig { threads })
                .expect("in-memory log")
        });
        assert_eq!(trace.requests, reference.requests, "{threads} threads");
        let ratio = chunked_peak as f64 / reference_peak as f64;
        assert!(
            ratio <= SLACK,
            "{threads} threads: chunked peak {chunked_peak} B is {ratio:.2}x the \
             reference's {reference_peak} B (cap {SLACK}x)"
        );
        println!(
            "ingest_peak: {threads} threads, chunked {chunked_peak} B, reference \
             {reference_peak} B ({ratio:.2}x)"
        );
    }
}
