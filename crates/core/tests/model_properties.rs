//! Property tests checking the models against brute-force reference
//! implementations.

use pbppm_core::{
    reference, Grade, PbConfig, PbPpm, PopularityTable, PredictUsage, Prediction, Predictor,
    PruneConfig, StandardPpm, UrlId,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

// ------------------------------------------------------------ standard PPM

/// Brute-force next-URL distribution for the *longest* context suffix that
/// (a) occurred in training as a contiguous subsequence with a successor and
/// (b) is at most `max_order` long.
fn reference_standard_predict(
    sessions: &[Vec<UrlId>],
    context: &[UrlId],
    max_order: usize,
) -> Option<HashMap<UrlId, (u64, u64)>> {
    let longest = context.len().min(max_order);
    for k in (1..=longest).rev() {
        let suffix = &context[context.len() - k..];
        let mut occurrences = 0u64;
        let mut nexts: HashMap<UrlId, u64> = HashMap::new();
        for s in sessions {
            if s.len() < k {
                continue;
            }
            for start in 0..=s.len() - k {
                if &s[start..start + k] == suffix {
                    occurrences += 1;
                    if start + k < s.len() {
                        *nexts.entry(s[start + k]).or_default() += 1;
                    }
                }
            }
        }
        if !nexts.is_empty() {
            return Some(
                nexts
                    .into_iter()
                    .map(|(url, count)| (url, (count, occurrences)))
                    .collect(),
            );
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The standard PPM's predictions match a brute-force scan of the
    /// training sessions: same support set, same count/occurrence ratios.
    #[test]
    fn standard_ppm_matches_brute_force(
        sessions in sessions_strategy(8, 7, 20),
        ctx_session in 0usize..20,
        ctx_len in 1usize..5,
    ) {
        let mut model = StandardPpm::unbounded();
        for s in &sessions {
            model.train_session(s);
        }
        model.finalize();

        let src = &sessions[ctx_session % sessions.len()];
        let context = &src[..ctx_len.min(src.len())];

        let mut out: Vec<Prediction> = Vec::new();
        model.predict(context, &mut out);
        let reference = reference_standard_predict(&sessions, context, usize::from(u8::MAX));

        match reference {
            None => prop_assert!(out.is_empty(), "model predicted {:?}, reference nothing", out),
            Some(map) => {
                prop_assert_eq!(out.len(), map.len());
                for p in &out {
                    let &(count, total) = map.get(&p.url).expect("unexpected prediction");
                    let expected = count as f64 / total as f64;
                    prop_assert!((p.prob - expected).abs() < 1e-9,
                        "url {:?}: {} vs {}", p.url, p.prob, expected);
                }
            }
        }
    }
}

// -------------------------------------------------------------------- LRS

/// Brute force: the set of contiguous subsequences occurring at least
/// `support` times across all sessions (counting every occurrence,
/// overlapping included) — exactly the paths the LRS tree must retain.
fn reference_repeating_subsequences(sessions: &[Vec<UrlId>], support: u64) -> HashSet<Vec<UrlId>> {
    let mut counts: HashMap<Vec<UrlId>, u64> = HashMap::new();
    for s in sessions {
        for start in 0..s.len() {
            for end in start + 1..=s.len() {
                *counts.entry(s[start..end].to_vec()).or_default() += 1;
            }
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c >= support)
        .map(|(seq, _)| seq)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After finalize, the LRS tree contains a root-anchored path for a
    /// sequence iff the sequence repeats (>= 2 occurrences) in training.
    #[test]
    fn lrs_retains_exactly_the_repeating_subsequences(
        sessions in sessions_strategy(5, 6, 12),
    ) {
        let mut model = StandardPpm::lrs();
        for s in &sessions {
            model.train_session(s);
        }
        model.finalize();
        let repeating = reference_repeating_subsequences(&sessions, 2);
        let arena = model.frozen().expect("finalize froze the arena");

        // Every repeating subsequence must be a walkable path.
        for seq in &repeating {
            prop_assert!(
                arena.descend(seq).is_some(),
                "repeating {:?} missing from the LRS arena", seq
            );
        }
        // Every walkable root-to-node path must repeat. Enumerate paths by
        // DFS over the (small) arena.
        for &(url, root) in arena.roots() {
            let mut stack = vec![(root, vec![url])];
            while let Some((node, path)) = stack.pop() {
                prop_assert!(
                    repeating.contains(&path),
                    "stored path {:?} does not repeat in training", path
                );
                for &(url, child) in arena.children(node) {
                    let mut next = path.clone();
                    next.push(url);
                    stack.push((child, next));
                }
            }
        }
    }
}

// ----------------------------------------------------------------- PB-PPM

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants of the PB tree for random popularity tables:
    /// branch heights never exceed the grade cap of their head, root URLs
    /// are session heads or grade ascents, and pruning is monotone.
    #[test]
    fn pb_tree_invariants(
        sessions in sessions_strategy(10, 8, 16),
        counts in prop::collection::vec(0u64..2000, 10),
    ) {
        let pop = PopularityTable::from_counts(counts);
        let cfg = PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        };
        let mut model = PbPpm::new(pop.clone(), cfg);
        for s in &sessions {
            model.train_session(s);
        }
        model.finalize();
        let unpruned_nodes = model.node_count();
        let report = model.prune_report().expect("finalize reports its cuts");
        prop_assert_eq!(report.nodes_before, unpruned_nodes, "disabled prune must not shrink");

        let arena = model.frozen().expect("finalize froze the arena");
        // Height caps: walk each root, depth bounded by its head's grade.
        for &(url, root) in arena.roots() {
            let head_grade = pop.grade(url);
            let cap = cfg.height_for(head_grade);
            let mut stack = vec![(root, 1u8)];
            while let Some((node, depth)) = stack.pop() {
                prop_assert!(depth <= cap,
                    "depth {} exceeds cap {} for grade {:?}", depth, cap, head_grade);
                for &(_, child) in arena.children(node) {
                    stack.push((child, depth + 1));
                }
            }
        }
        // Root rule: every root URL appears as a session head or as a
        // grade ascent somewhere in training.
        let mut legal_roots: HashSet<UrlId> = HashSet::new();
        for s in &sessions {
            legal_roots.insert(s[0]);
            for w in s.windows(2) {
                if pop.grade(w[1]) > pop.grade(w[0]) {
                    legal_roots.insert(w[1]);
                }
            }
        }
        for &(url, _) in arena.roots() {
            prop_assert!(legal_roots.contains(&url));
        }

        // Pruning monotonicity, and grade-3 links only.
        let mut pruned = PbPpm::new(pop.clone(), PbConfig {
            prune: PruneConfig::aggressive(),
            ..cfg
        });
        for s in &sessions {
            pruned.train_session(s);
        }
        pruned.finalize();
        prop_assert!(pruned.node_count() <= unpruned_nodes);

        // Link targets are either above their head's grade or grade 3.
        for &(url, _) in arena.roots() {
            let head_grade = pop.grade(url);
            for &link in arena.links_of(url) {
                let g = pop.grade(arena.url(link));
                prop_assert!(g > head_grade || g == Grade::MAX);
            }
        }
    }

    /// Every model's one serving path (`predict_ro` on the frozen arena,
    /// through PB-PPM's fingerprint index) gives exactly the predictions of
    /// the `pbppm_core::reference` occurrence-scan / root-descent oracles,
    /// which train their own path-count forests from the same sessions —
    /// same URLs, same ranks, same (bit-identical) probabilities — for all
    /// three tree models, across random traces and every prefix context of
    /// every training session plus unseen contexts. PB-PPM's `max_order`
    /// is drawn too, and one context runs past it, so the order cap bites.
    #[test]
    fn fast_path_is_bit_identical_to_reference(
        sessions in sessions_strategy(9, 8, 18),
        counts in prop::collection::vec(0u64..2000, 9),
        max_order in 1usize..=9,
    ) {
        let pop = PopularityTable::from_counts(counts);
        let mut pb = PbPpm::new(pop, PbConfig { max_order, ..PbConfig::default() });
        let mut standard = StandardPpm::unbounded();
        let mut lrs = StandardPpm::lrs();
        for s in &sessions {
            pb.train_session(s);
            standard.train_session(s);
            lrs.train_session(s);
        }
        let pb_counts = reference::PathCounts::pb(&pb, &sessions);
        let standard_counts = reference::PathCounts::standard(&standard, &sessions);
        let lrs_counts = reference::PathCounts::standard(&lrs, &sessions);
        pb.finalize();
        standard.finalize();
        lrs.finalize();

        let mut contexts: Vec<Vec<UrlId>> = Vec::new();
        for s in &sessions {
            for i in 0..s.len() {
                contexts.push(s[..=i].to_vec());
            }
        }
        // Contexts the models never saw, including unknown URLs.
        contexts.push(vec![UrlId(100)]);
        contexts.push(vec![UrlId(100), sessions[0][0]]);
        contexts.push(sessions[0].iter().rev().copied().collect());
        // Every session back to back, cycled past the order cap.
        contexts.push(sessions.iter().flatten().copied().cycle().take(max_order + 3).collect());

        prop_assert!(pb.frozen().is_some(), "finalize must compile a PB arena");
        prop_assert!(standard.frozen().is_some(), "finalize must compile a PPM arena");
        prop_assert!(lrs.frozen().is_some(), "finalize must compile an LRS arena");

        let pb_scan = reference::PbScan::new(&pb_counts, &pb);
        let mut usage = PredictUsage::default();
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for context in &contexts {
            pb.predict_ro(context, &mut fast, &mut usage);
            pb_scan.predict(context, &mut slow);
            prop_assert_eq!(&fast, &slow, "PB-PPM diverged on {:?}", context);

            standard.predict_ro(context, &mut fast, &mut usage);
            reference::predict_standard(&standard_counts, &standard, context, &mut slow);
            prop_assert_eq!(&fast, &slow, "standard PPM diverged on {:?}", context);

            lrs.predict_ro(context, &mut fast, &mut usage);
            reference::predict_standard(&lrs_counts, &lrs, context, &mut slow);
            prop_assert_eq!(&fast, &slow, "LRS diverged on {:?}", context);
        }
    }

    /// Snapshot roundtrips preserve the frozen arena: the restored model
    /// rebuilds an arena equal to the original's, and its predictions are
    /// bit-identical — including through the full byte codec.
    #[test]
    fn snapshot_roundtrip_preserves_frozen_arena_and_predictions(
        sessions in sessions_strategy(8, 7, 14),
        counts in prop::collection::vec(0u64..2000, 8),
    ) {
        use pbppm_core::{ModelImage, SnapshotFile};
        let pop = PopularityTable::from_counts(counts);
        let mut pb = PbPpm::new(pop, PbConfig::default());
        let mut standard = StandardPpm::unbounded();
        let mut lrs = StandardPpm::lrs();
        for s in &sessions {
            pb.train_session(s);
            standard.train_session(s);
            lrs.train_session(s);
        }
        pb.finalize();
        standard.finalize();
        lrs.finalize();

        let pb2 = PbPpm::from_snapshot(&pb.to_snapshot()).expect("PB snapshot loads");
        let standard2 =
            StandardPpm::from_snapshot(&standard.to_snapshot()).expect("PPM snapshot loads");
        let lrs2 = StandardPpm::from_snapshot(&lrs.to_snapshot()).expect("LRS snapshot loads");
        prop_assert_eq!(pb.frozen(), pb2.frozen());
        // The index is built once into exact-size lists, so the restored
        // model and a publish clone hold the same bytes as the original.
        let index_bytes = pb.stats().index_bytes;
        prop_assert_eq!(pb2.stats().index_bytes, index_bytes);
        prop_assert_eq!(pb.clone().stats().index_bytes, index_bytes);
        prop_assert_eq!(standard.frozen(), standard2.frozen());
        prop_assert_eq!(lrs.frozen(), lrs2.frozen());

        // Full byte codec for the PB image: the file carries the arena's
        // rows, and the decoded model rebuilds an identical arena.
        let file = SnapshotFile {
            urls: (0..8).map(|i| format!("/p{i}")).collect(),
            model: ModelImage::Pb(pb.to_snapshot()),
        };
        let decoded = SnapshotFile::decode(&file.encode()).expect("envelope roundtrips");
        let ModelImage::Pb(snap) = &decoded.model else {
            return Err(TestCaseError::fail("decoded image changed kind"));
        };
        let pb3 = PbPpm::from_snapshot(snap).expect("decoded PB snapshot loads");
        prop_assert_eq!(pb3.frozen(), pb.frozen());

        let mut contexts: Vec<Vec<UrlId>> = Vec::new();
        for s in &sessions {
            for i in 0..s.len() {
                contexts.push(s[..=i].to_vec());
            }
        }
        let mut usage = PredictUsage::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for context in &contexts {
            for (orig, restored) in [(&pb, &pb2), (&pb, &pb3)] {
                usage.clear();
                orig.predict_ro(context, &mut a, &mut usage);
                usage.clear();
                restored.predict_ro(context, &mut b, &mut usage);
                prop_assert_eq!(&a, &b, "restored PB diverged on {:?}", context);
            }
            usage.clear();
            standard.predict_ro(context, &mut a, &mut usage);
            usage.clear();
            standard2.predict_ro(context, &mut b, &mut usage);
            prop_assert_eq!(&a, &b, "restored PPM diverged on {:?}", context);
            usage.clear();
            lrs.predict_ro(context, &mut a, &mut usage);
            usage.clear();
            lrs2.predict_ro(context, &mut b, &mut usage);
            prop_assert_eq!(&a, &b, "restored LRS diverged on {:?}", context);
        }
    }

    /// PB-PPM's branch predictions never exceed probability 1 and are
    /// supported by actual training transitions.
    #[test]
    fn pb_predictions_are_supported_by_training(
        sessions in sessions_strategy(8, 7, 16),
        counts in prop::collection::vec(0u64..2000, 8),
    ) {
        let pop = PopularityTable::from_counts(counts);
        let mut model = PbPpm::new(pop, PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        });
        for s in &sessions {
            model.train_session(s);
        }
        model.finalize();

        // Every (a -> b) adjacency seen anywhere in training.
        let mut adjacent: HashSet<(UrlId, UrlId)> = HashSet::new();
        let mut later: HashSet<(UrlId, UrlId)> = HashSet::new();
        for s in &sessions {
            for w in s.windows(2) {
                adjacent.insert((w[0], w[1]));
            }
            for i in 0..s.len() {
                for j in i + 1..s.len() {
                    later.insert((s[i], s[j]));
                }
            }
        }
        let mut out = Vec::new();
        for s in sessions.iter().take(8) {
            for i in 0..s.len() {
                model.predict(&s[..=i], &mut out);
                for p in &out {
                    prop_assert!(p.prob > 0.0 && p.prob <= 1.0 + 1e-9);
                    // A prediction is justified by a training adjacency from
                    // the current URL, or (via a special link) by the URL
                    // having followed the current one later in a session.
                    prop_assert!(
                        adjacent.contains(&(s[i], p.url)) || later.contains(&(s[i], p.url)),
                        "prediction {:?} after {:?} unsupported by training",
                        p.url, s[i]
                    );
                }
            }
        }
    }
}
