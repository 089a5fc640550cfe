//! PB-PPM models whose rows, URL ids and counts cross 2^8 and 2^16 store
//! their arena's URL and row columns two and three bytes wide and their
//! counts a byte wide, the few larger ones in outlier tables, answer
//! exactly like the reference occurrence scan, and answer the same after
//! a trip through the model file. (`arena_bytes.rs` and `index_bytes.rs`
//! hold the same models to allocator truth.)

mod wide;

use pbppm_core::{reference, ModelImage, PbPpm, PredictUsage, Predictor, SnapshotFile, UrlId};

#[test]
fn wide_models_answer_like_the_reference() {
    for (n, width) in wide::SIZES {
        let sessions = wide::sessions(n);
        let m = wide::model(&sessions);
        let arena = m.frozen().expect("finalized");
        assert!(arena.len() > n as usize, "{} rows", arena.len());
        let widths: Vec<(&str, usize)> = arena.split().iter().map(|c| (c.name, c.width)).collect();
        for column in ["urls", "parents_base", "first_child_base"] {
            assert!(widths.contains(&(column, width)), "n={n}: {widths:?}");
        }
        // Most counts fit a byte; the roots', the hub's and its
        // successor's (and at the larger size each middle page's) sit in
        // the outlier tables.
        assert!(widths.contains(&("counts", 1)), "n={n}: {widths:?}");
        let [counts, over] = m.popularity().split();
        assert_eq!((counts.name, counts.width), ("counts", 1), "n={n}");
        assert!(over.bytes > 0, "n={n}: {over:?}");

        let counts = reference::PathCounts::pb(&m, &sessions);
        let scan = reference::PbScan::new(&counts, &m);
        let file = SnapshotFile {
            urls: (0..2 * n).map(|i| format!("/u{i}")).collect(),
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let loaded = match SnapshotFile::decode(&file.encode()).expect("decodes").model {
            ModelImage::Pb(snap) => PbPpm::from_snapshot(&snap).expect("loads"),
            _ => unreachable!("a pb image"),
        };
        // Every prefix of a spread of sessions, contexts that cross from
        // one session into another, and a URL past the table.
        let mut contexts: Vec<Vec<UrlId>> = sessions
            .iter()
            .step_by(97)
            .flat_map(|s| (1..=s.len()).map(move |i| s[..i].to_vec()))
            .collect();
        contexts.push(vec![sessions[5][2], sessions[9][0], sessions[9][1]]);
        contexts.push(vec![sessions[7][1], sessions[11][1]]);
        contexts.push(vec![UrlId(3 * n)]);
        let (mut fast, mut slow, mut restored) = (Vec::new(), Vec::new(), Vec::new());
        let mut usage = PredictUsage::default();
        let mut answered = 0;
        for context in &contexts {
            m.predict_ro(context, &mut fast, &mut usage);
            scan.predict(context, &mut slow);
            assert_eq!(fast, slow, "n={n}: {context:?}");
            loaded.predict_ro(context, &mut restored, &mut usage);
            assert_eq!(fast, restored, "n={n}: {context:?} after a load");
            answered += usize::from(!fast.is_empty());
        }
        assert!(answered > contexts.len() / 2, "n={n}: {answered} answered");
    }
}
