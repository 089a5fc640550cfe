//! Property tests for the snapshot codec: for random traces, every model
//! kind survives an encode → decode → instantiate round trip with
//! bit-identical predictions and identical stats.

use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{
    OnlinePbPpm, Order1Markov, PbConfig, PbPpm, PopularityTable, PredictUsage, Prediction,
    Predictor, StandardPpm, UrlId,
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
fn url_names(n: u32) -> Vec<String> {
    (0..n).map(|i| format!("/doc/{i}.html")).collect()
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
    urls: Vec<String>,
    contexts: &[Vec<UrlId>],
) -> Result<(), TestCaseError> {
    let file = SnapshotFile { urls, model: image };
    let bytes = file.encode();
    let back = SnapshotFile::decode(&bytes).expect("decode of fresh encode");
    prop_assert_eq!(&back.urls, &file.urls);
    prop_assert_eq!(back.encode(), bytes);
    let restored = back.instantiate().expect("instantiate decoded image");

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
