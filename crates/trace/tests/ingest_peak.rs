//! The chunked ingester's peak heap: on the same log it stays within
//! 1.25× the reference builder's, which buffers every accepted record as
//! owned strings, at one and at two parse workers; and on a log many
//! chunks long, what it holds beyond the trace it returns stays within
//! the raw text in flight, so no chunk outlives its parse; and the
//! trace's interners hold what a table interned from their strings alone
//! holds, however many chunks the log was cut into. The counter is
//! process-wide, so this binary runs without the libtest harness (see
//! `Cargo.toml`), whose own bookkeeping could land inside a measured
//! window.

use pbppm_core::Interner;
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

/// A deterministic CLF log of `lines` lines over `hosts` hosts and
/// `pages` pages, each path `pad` bytes longer than its page needs: skewed
/// hosts and paths of every document kind, times that mostly rise, some
/// non-`GET`s and failed requests, and a malformed line now and then.
fn log(lines: usize, hosts: u64, pages: u64, pad: usize) -> Vec<u8> {
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
        let page = next(pages);
        let page = page * page / pages; // quadratic skew
        let ext = ["html", "gif", "jpg", "txt"][usize::try_from(next(4)).unwrap_or(0)];
        let rec = ClfRecord {
            host: format!("host{}.example.edu", next(hosts)),
            // Some records arrive a little out of order.
            time: time - i64::try_from(next(3)).unwrap_or(0),
            method: if next(20) == 0 { "POST" } else { "GET" }.to_owned(),
            path: format!(
                "/shuttle/missions/sts-{}/{}page{page}.{ext}",
                page % 70,
                "x".repeat(pad)
            ),
            status: [200, 200, 200, 304, 404][usize::try_from(next(5)).unwrap_or(0)],
            size: u32::try_from(next(90_000)).unwrap_or(0),
        };
        out.extend_from_slice(format_clf_line(&rec).as_bytes());
        out.push(b'\n');
    }
    out
}

fn main() {
    peak_stays_within_the_reference();
    no_raw_chunk_outlives_its_parse();
    interners_hold_their_load_at_any_chunk_size();
}

/// The live heap `value` frees when dropped.
fn freed<T>(value: T) -> u64 {
    let before = live_bytes();
    drop(value);
    before - live_bytes()
}

/// The live heap `build` leaves allocated, and what it built.
fn grown<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = live_bytes();
    let value = build();
    (live_bytes() - before, value)
}

/// Whatever chunks a log was cut into, its trace's URL and client tables
/// hold the bytes a table interned once from the same strings holds: the
/// chunks' summed table sizes, which count a string once per chunk that
/// names it, reserve the merge and are then given back.
fn interners_hold_their_load_at_any_chunk_size() {
    let log = log(LINES, 2_000, 3_000, 0);
    let mut held = Vec::new();
    for chunk in [256 << 10, 1 << 20, 4 << 20] {
        let (trace, _) = pbppm_trace::ingest::ingest_chunked("load", log.as_slice(), 2, chunk)
            .expect("in-memory log");
        let strings =
            |i: &Interner| -> Vec<String> { i.iter().map(|(_, s)| s.to_owned()).collect() };
        let (urls, clients) = (strings(&trace.urls), strings(&trace.clients));
        let reported = trace.urls.memory_bytes() + trace.clients.memory_bytes();
        let bytes = freed(trace.urls) + freed(trace.clients);
        let (fresh, tables) = grown(|| {
            (
                urls.iter().cloned().collect::<Interner>(),
                clients.iter().cloned().collect::<Interner>(),
            )
        });
        println!(
            "ingest_peak: {} KiB chunks: interners {bytes} B, interned afresh {fresh} B",
            chunk >> 10
        );
        assert_eq!(bytes, reported as u64, "{chunk} B chunks: reported bytes");
        assert_eq!(bytes, fresh, "{chunk} B chunks: against a fresh table");
        drop(tables);
        held.push(bytes);
    }
    assert!(held.windows(2).all(|w| w[0] == w[1]), "{held:?}");
}

fn peak_stays_within_the_reference() {
    let log = log(LINES, 2_000, 3_000, 0);
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

/// Raw text in flight is at most `2 × threads` chunks queued or being
/// parsed plus the one being read. Beyond it and the returned trace, the
/// ingester holds each parsed chunk until the merge: one compact record
/// per accepted line, whose vector may have doubled past its length, and
/// chunk-local tables, small here because the log names few strings. A
/// copy of every raw chunk kept past its parse would add the whole log,
/// many times the chunks in flight.
fn no_raw_chunk_outlives_its_parse() {
    const CHUNK: usize = 1 << 20;
    /// Bytes of one parsed record, at most twice over.
    const RECORD: usize = 2 * 24;
    let log = log(LINES, 40, 60, 160);
    assert!(log.len() > 30 * CHUNK, "{} B is not many chunks", log.len());
    for threads in [1, 2] {
        let before = live_bytes();
        let (peak, (trace, _)) = peak(|| {
            pbppm_trace::ingest::ingest_chunked("peak", log.as_slice(), threads, CHUNK)
                .expect("in-memory log")
        });
        let kept = live_bytes() - before;
        let held = peak - kept;
        let in_flight = (2 * threads + 1) * CHUNK;
        let bound = in_flight + RECORD * LINES + CHUNK;
        println!(
            "ingest_peak: {threads} threads, {} chunks: held {held} B beyond the trace's \
             {kept} B (bound {bound} B, log {} B)",
            log.len().div_ceil(CHUNK),
            log.len()
        );
        assert!(trace.requests.len() > LINES / 2);
        assert!(
            held <= bound as u64,
            "{threads} threads: held {held} B beyond the trace, past {in_flight} B of \
             raw text in flight plus {} B of parsed records",
            RECORD * LINES + CHUNK
        );
    }
}
