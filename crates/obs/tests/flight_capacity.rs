//! Property test pinning the flight recorder's memory to its fixed
//! capacity regardless of request count (ISSUE 7 acceptance criterion).
//!
//! The recorder's whole point is that a serve loop can run for months
//! without its tracing state growing: the ring is allocated once, pushes
//! evict before inserting, and per-record payloads (prediction lists,
//! URLs) are clamped. These properties drive arbitrary request streams —
//! far more requests than capacity, adversarially long URLs and
//! prediction lists — and assert the bounds hold at every step.

use pbppm_obs::flight::{TOP_PREDICTIONS_CAP, URL_BYTES_CAP};
use pbppm_obs::{CommandKind, FlightRecorder};
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = CommandKind> {
    prop_oneof![
        Just(CommandKind::Train),
        Just(CommandKind::Predict),
        Just(CommandKind::Checkpoint),
        Just(CommandKind::Stats),
        Just(CommandKind::Metrics),
        Just(CommandKind::Trace),
        Just(CommandKind::Health),
        Just(CommandKind::Quit),
        Just(CommandKind::Other),
    ]
}

/// One arbitrary request: kind, latency, outcome, and an oversized
/// prediction list (up to 3x the retained cap, URLs up to ~4x the byte
/// cap, including multi-byte characters that straddle the boundary).
fn any_request() -> impl Strategy<Value = (CommandKind, u64, bool, Vec<(String, f64)>)> {
    (
        any_kind(),
        // Nanosecond latencies up to ~17 minutes per request — generous,
        // and small enough that the histogram's running sum cannot
        // overflow over a whole stream.
        0u64..1_000_000_000_000,
        (0u8..2).prop_map(|b| b == 1),
        prop::collection::vec(
            ("[a-z/é€]{0,130}", 0.0f64..1.0f64),
            0..(3 * TOP_PREDICTIONS_CAP),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_is_capacity_bounded_for_any_request_stream(
        capacity in 1usize..32,
        requests in prop::collection::vec(any_request(), 0..200),
    ) {
        let mut rec = FlightRecorder::new(capacity);
        let allocated = rec.ring_capacity();
        prop_assert!(allocated >= capacity);

        for (i, (kind, latency, ok, top)) in requests.iter().enumerate() {
            let borrowed: Vec<(&str, f64)> =
                top.iter().map(|(u, p)| (u.as_str(), *p)).collect();
            rec.push(*kind, *latency, *ok, &borrowed);

            // The ring never holds more than `capacity` records and its
            // backing allocation never grows past construction time.
            prop_assert!(rec.len() <= capacity);
            prop_assert_eq!(rec.ring_capacity(), allocated,
                "ring reallocated after {} pushes", i + 1);

            // Per-record payload caps hold for every retained record.
            for r in rec.last(capacity) {
                prop_assert!(r.top.len() <= TOP_PREDICTIONS_CAP);
                for (url, _) in &r.top {
                    prop_assert!(url.len() <= URL_BYTES_CAP);
                }
            }
        }

        // Nothing was silently dropped from the books: the recorder saw
        // every request even though it retains only the tail.
        prop_assert_eq!(rec.total(), requests.len() as u64);
        prop_assert_eq!(rec.len(), requests.len().min(capacity));

        // Sequence numbers of the retained tail are the last `len` ones,
        // in order — eviction is strictly oldest-first.
        let seqs: Vec<u64> = rec.last(capacity).map(|r| r.seq).collect();
        let expect_start = requests.len() as u64 - seqs.len() as u64 + 1;
        let expected: Vec<u64> = (expect_start..=requests.len() as u64).collect();
        prop_assert_eq!(seqs, expected);
    }

    #[test]
    fn histogram_counts_partition_the_stream(
        requests in prop::collection::vec((any_kind(), 0u64..1_000_000_000_000), 0..100),
    ) {
        let mut rec = FlightRecorder::new(4);
        for (kind, latency) in &requests {
            rec.push(*kind, *latency, true, &[]);
        }
        let hist_total: u64 = pbppm_obs::flight::COMMAND_KINDS
            .iter()
            .map(|&k| rec.hist(k).count())
            .sum();
        prop_assert_eq!(hist_total, requests.len() as u64);
    }
}
