//! Property tests for the snapshot codec: for random traces, every model
//! kind survives an encode → decode → instantiate round trip with
//! bit-identical predictions and identical stats, keeping the id space
//! and the strings its rows name, and arbitrary URL tables with any set of
//! named ids decode to exactly the strings written, each at its id.

use pbppm_core::order1::{Order1RowSnapshot, Order1Snapshot};
use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{
    Interner, OnlinePbPpm, Order1Markov, PbConfig, PbPpm, PopularityTable, PredictUsage,
    Prediction, Predictor, StandardPpm, UrlId,
};
use proptest::prelude::*;

fn sessions_strategy(
    urls: u32,
    max_len: usize,
    max_sessions: usize,
) -> BoxedStrategy<Vec<Vec<UrlId>>> {
    prop::collection::vec(
        prop::collection::vec((0..urls).prop_map(UrlId), 1..max_len),
        1..max_sessions,
    )
    .boxed()
}

/// URL strings for ids `0..n` — the codec serializes names, not ids.
fn url_names(n: u32) -> Interner {
    (0..n).map(|i| format!("/doc/{i}.html")).collect()
}

/// The interner's strings in id order.
fn strings(urls: &Interner) -> Vec<&str> {
    urls.iter().map(|(_, url)| url).collect()
}

/// An order-1 image whose rows name exactly the URL ids `named`, one row
/// each: a file around any URL table and any set of its ids. The codec
/// writes it without asking whether a model could hold it.
fn order1_naming(named: impl Iterator<Item = u32>) -> Order1Snapshot {
    Order1Snapshot {
        rows: named
            .map(|url| Order1RowSnapshot {
                url,
                total: 1,
                next: Vec::new(),
            })
            .collect(),
    }
}

/// All prefix contexts of every session, plus contexts the model never saw.
fn probe_contexts(sessions: &[Vec<UrlId>]) -> Vec<Vec<UrlId>> {
    let mut contexts: Vec<Vec<UrlId>> = Vec::new();
    for s in sessions {
        for i in 0..s.len() {
            contexts.push(s[..=i].to_vec());
        }
    }
    contexts.push(vec![UrlId(500)]);
    contexts.push(vec![UrlId(500), sessions[0][0]]);
    contexts.push(sessions[0].iter().rev().copied().collect());
    contexts
}

/// Round-trips `image` through bytes and checks the restored predictor
/// against the original: the decoded file re-encodes to the same bytes,
/// the model gives identical prediction lists (bit-identical
/// probabilities) on every probe context, and the stats are identical —
/// `memory_bytes` included, since the rebuilt arena has exactly the
/// original's rows.
fn assert_roundtrip_identical(
    original: &dyn Predictor,
    image: ModelImage,
    urls: Interner,
    contexts: &[Vec<UrlId>],
) -> Result<(), TestCaseError> {
    let file = SnapshotFile { urls, model: image };
    let bytes = file.encode();
    let back = SnapshotFile::decode(&bytes).expect("decode of fresh encode");
    prop_assert_eq!(back.encode(), bytes);
    let restored = back.instantiate().expect("instantiate decoded image");
    // The id space stays; an online checkpoint keeps every string, any
    // other file those of the ids its rows name.
    let online = matches!(file.model, ModelImage::OnlinePb(_));
    let arena = restored.frozen();
    let named = |id| online || arena.is_some_and(|a| a.holds(id));
    prop_assert_eq!(back.urls.len(), file.urls.len());
    prop_assert!(back
        .urls
        .iter()
        .eq(file.urls.iter().filter(|&(id, _)| named(id))));

    let mut want: Vec<Prediction> = Vec::new();
    let mut got: Vec<Prediction> = Vec::new();
    let mut usage = PredictUsage::default();
    for context in contexts {
        original.predict_ro(context, &mut want, &mut usage);
        restored.predict_ro(context, &mut got, &mut usage);
        prop_assert_eq!(&got, &want, "restored model diverged on {:?}", context);
    }
    prop_assert_eq!(original.stats(), restored.stats());
    Ok(())
}

/// Pieces URLs are spliced from: characters of 1 to 4 bytes, among them
/// pairs that share a leading byte (`é` C3 A9 and `è` C3 A8, `€` E2 82 AC
/// and `₭` E2 82 AD) or a trailing one (`é`, `©` C2 A9 and `ĩ` C4 A9), so
/// that neighbouring URLs share part of a character at either end, and
/// NUL, which looks like the padding past a short URL's end.
const PIECES: [&str; 15] = [
    "/", "a", "0", "é", "è", "©", "ĩ", "€", "₭", "𝄞", ".gif", ".html", "/img/p", "_", "\0",
];

/// The URL `spec` describes, given the URLs before it: the first `keep`
/// characters of the URL `back` entries earlier (none when `back` is 0 or
/// out of reach), the `middle` pieces, then the last `tail` characters of
/// that URL. A nonzero `long` first stretches the URL to 200–600 bytes, so
/// that a later URL keeping most of it reuses more than a short entry may.
fn spliced(earlier: &[String], spec: &(usize, usize, usize, Vec<usize>, usize)) -> String {
    let (back, keep, tail, middle, long) = spec;
    let base: Vec<char> = match earlier.len().checked_sub(*back) {
        Some(at) if *back > 0 => earlier[at].chars().collect(),
        _ => Vec::new(),
    };
    let keep = (*keep).min(base.len());
    let tail = (*tail).min(base.len() - keep);
    let mut url: String = base[..keep].iter().collect();
    for &p in middle {
        url.push_str(PIECES[p % PIECES.len()]);
    }
    if *long > 0 && url.len() < 200 {
        let pad = PIECES[*long % PIECES.len()];
        while url.len() < 200 + (*long * 37) % 400 {
            url.push_str(pad);
        }
    }
    url.extend(&base[base.len() - tail..]);
    url
}

/// Arbitrary URL tables: each URL splices pieces between a prefix and a
/// suffix of a URL up to 20 entries back, past the 16 a reference may
/// reach. Repeats are dropped, since a table never holds a string twice;
/// the empty string may appear once.
fn url_tables() -> BoxedStrategy<Vec<String>> {
    let spec = (
        0usize..21,
        prop_oneof![0usize..40, 150usize..700],
        0usize..12,
        prop::collection::vec(0usize..PIECES.len(), 0..4),
        prop_oneof![Just(0usize), Just(0usize), Just(0usize), 1usize..64],
    );
    prop::collection::vec(spec, 0..60)
        .prop_map(|specs| {
            let mut urls: Vec<String> = Vec::new();
            for spec in &specs {
                let url = spliced(&urls, spec);
                if !urls.contains(&url) {
                    urls.push(url);
                }
            }
            urls
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every URL table, under any set of named ids (none, all, or any
    /// mix), decodes to exactly the named strings, each interned at its
    /// own id in the whole id space, within the decoder's amplification
    /// bound, and re-encodes to the same bytes.
    #[test]
    fn url_tables_roundtrip_exactly(
        urls in url_tables(),
        mask in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..u64::MAX],
    ) {
        let named = |i: usize| mask >> (i % 64) & 1 != 0;
        let file = SnapshotFile {
            urls: urls.iter().cloned().collect(),
            model: ModelImage::Order1(order1_naming(
                (0..urls.len()).filter(|&i| named(i)).map(|i| u32::try_from(i).unwrap()),
            )),
        };
        let bytes = file.encode();
        let (back, split) = SnapshotFile::decode_with_split(&bytes).expect("decode of fresh encode");
        prop_assert_eq!(back.urls.len(), urls.len());
        let kept: Vec<&str> = (0..urls.len()).filter(|&i| named(i)).map(|i| urls[i].as_str()).collect();
        prop_assert_eq!(strings(&back.urls), kept);
        for (i, url) in urls.iter().enumerate() {
            let id = UrlId(u32::try_from(i).expect("a small table"));
            let want = named(i).then_some(url.as_str());
            prop_assert_eq!(back.urls.resolve(id), want);
            prop_assert_eq!(back.urls.get(url), named(i).then_some(id));
        }
        prop_assert_eq!(back.encode(), bytes);
        let decoded = back.url_table_size().decoded_bytes;
        prop_assert!(
            decoded <= 65 * split.urls,
            "{} decoded bytes from a {}-byte table",
            decoded,
            split.urls
        );
    }

    /// PB-PPM (with special links and a random popularity table) survives
    /// the codec round trip bit-identically.
    #[test]
    fn pb_ppm_roundtrips(
        sessions in sessions_strategy(9, 8, 16),
        counts in prop::collection::vec(0u64..2000, 9),
    ) {
        let pop = PopularityTable::from_counts(counts);
        let mut m = PbPpm::new(pop, PbConfig::default());
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let contexts = probe_contexts(&sessions);
        assert_roundtrip_identical(&m, ModelImage::Pb(m.to_snapshot()), url_names(9), &contexts)?;
    }

    /// Standard PPM round trip. Only finalized models are written.
    #[test]
    fn standard_ppm_roundtrips(sessions in sessions_strategy(8, 7, 14)) {
        let mut m = StandardPpm::unbounded();
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let contexts = probe_contexts(&sessions);
        assert_roundtrip_identical(
            &m,
            ModelImage::Standard(m.to_snapshot()),
            url_names(8),
            &contexts,
        )?;
    }

    /// LRS-PPM round trip (finalize prunes to repeating subsequences; the
    /// snapshot must preserve exactly the pruned tree).
    #[test]
    fn lrs_ppm_roundtrips(sessions in sessions_strategy(6, 7, 14)) {
        let mut m = StandardPpm::lrs();
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let contexts = probe_contexts(&sessions);
        assert_roundtrip_identical(&m, ModelImage::Standard(m.to_snapshot()), url_names(6), &contexts)?;
    }

    /// First-order Markov round trip.
    #[test]
    fn order1_roundtrips(sessions in sessions_strategy(10, 8, 16)) {
        let mut m = Order1Markov::new();
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let contexts = probe_contexts(&sessions);
        assert_roundtrip_identical(
            &m,
            ModelImage::Order1(m.to_snapshot()),
            url_names(10),
            &contexts,
        )?;
    }

    /// The online wrapper round-trips its whole serving state: window,
    /// popularity tracker, rebuild cadence, and the rebuilt inner model.
    #[test]
    fn online_pb_roundtrips(
        sessions in sessions_strategy(8, 7, 18),
        rebuild_every in 1usize..6,
        window in 4usize..40,
    ) {
        let mut m = OnlinePbPpm::new(PbConfig::default(), window, rebuild_every);
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let contexts = probe_contexts(&sessions);
        assert_roundtrip_identical(
            &m,
            ModelImage::OnlinePb(m.to_snapshot()),
            url_names(8),
            &contexts,
        )?;

        // Restored wrappers keep *training*, not just predicting: after the
        // same extra session, original and restored agree again.
        let file = SnapshotFile {
            urls: url_names(8),
            model: ModelImage::OnlinePb(m.to_snapshot()),
        };
        let mut restored =
            OnlinePbPpm::from_snapshot(match &SnapshotFile::decode(&file.encode()).unwrap().model {
                ModelImage::OnlinePb(s) => s,
                _ => unreachable!(),
            })
            .unwrap();
        let extra: Vec<UrlId> = sessions[0].clone();
        m.train_session(&extra);
        restored.train_session(&extra);
        m.finalize();
        restored.finalize();
        let mut want = Vec::new();
        let mut got = Vec::new();
        let mut usage = PredictUsage::default();
        for context in &contexts {
            m.predict_ro(context, &mut want, &mut usage);
            restored.predict_ro(context, &mut got, &mut usage);
            prop_assert_eq!(&got, &want, "post-restore training diverged on {:?}", context);
        }
    }

    /// Double round trip is byte-stable: encode(decode(encode(x))) ==
    /// encode(x). This pins the codec to a canonical form, so checkpoint
    /// files never churn when state is unchanged.
    #[test]
    fn encoding_is_canonical(
        sessions in sessions_strategy(7, 6, 12),
        counts in prop::collection::vec(0u64..1500, 7),
    ) {
        let pop = PopularityTable::from_counts(counts);
        let mut m = PbPpm::new(pop, PbConfig::default());
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let file = SnapshotFile {
            urls: url_names(7),
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let bytes = file.encode();
        let again = SnapshotFile::decode(&bytes).unwrap().encode();
        prop_assert_eq!(again, bytes);
    }
}
