//! Adversarial corruption harness: take a valid model or snapshot, break
//! exactly one structural invariant, and pin the violation kind the audit
//! reports for it.
//!
//! Every snapshot-level corruption here goes through `encode()`, which
//! recomputes the checksum — so each corrupt payload arrives with a *valid*
//! envelope. That is the point: the checksum proves the bytes are what the
//! writer produced, and only the load checks and the structural audit can
//! prove the writer produced something sane.
//!
//! A model file writes each node once (URL, count, parent, link-dup flag),
//! so a child entry, a depth or a root or link table that disagrees with
//! the rows cannot be written at all. Those corruptions are made on a
//! loaded model's arena in memory instead, where the audit must still
//! catch them.

use pbppm_audit::{
    verify_bytes, verify_model, verify_model_with_urls, verify_snapshot, CodecError, ModelImage,
    ModelRef, SnapshotFile,
};
use pbppm_core::frozen::{NodeSnapshot, SnapshotError};
use pbppm_core::order1::{Order1RowSnapshot, Order1Snapshot};
use pbppm_core::pb_online::OnlinePbSnapshot;
use pbppm_core::{
    Grade, Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig, UrlId,
};

fn u(n: u32) -> UrlId {
    UrlId(n)
}

/// A row index as a `u32` row id.
fn row_id(i: usize) -> u32 {
    u32::try_from(i).expect("small arena")
}

/// A `u32` row id as an index.
fn row(id: u32) -> usize {
    usize::try_from(id).expect("small arena")
}

fn urls(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("/page{i}.html")).collect()
}

/// Builds the paper's §3.4 example: grades 3,2,1,3,2,1 over one session
/// `0..6`, producing two roots (0 and 3) and a special link 0 ~> dup(3).
fn pb_with_link() -> PbPpm {
    let mut pop = PopularityTable::builder();
    for (i, count) in [1000u64, 50, 5, 1000, 50, 5].into_iter().enumerate() {
        pop.record_n(u(u32::try_from(i).unwrap_or(0)), count);
    }
    let mut m = PbPpm::new(
        pop.build(),
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        },
    );
    for _ in 0..3 {
        m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
    }
    m.finalize();
    m
}

/// A deep single-branch model: grade-3 head, everything else unpopular.
fn pb_deep() -> PbPpm {
    let mut pop = PopularityTable::builder();
    pop.record_n(u(0), 1000);
    pop.record_n(u(1), 1);
    let mut m = PbPpm::new(
        pop.build(),
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        },
    );
    for _ in 0..3 {
        m.train_session(&[u(0), u(1), u(2), u(3)]);
    }
    m.finalize();
    m
}

fn encode_pb(m: &PbPpm, url_count: usize) -> (Vec<String>, pbppm_core::pb::PbSnapshot) {
    (urls(url_count), m.to_snapshot())
}

#[test]
fn baseline_snapshots_are_clean() {
    for (label, file) in [
        (
            "linked",
            SnapshotFile {
                urls: urls(6),
                model: ModelImage::Pb(pb_with_link().to_snapshot()),
            },
        ),
        (
            "deep",
            SnapshotFile {
                urls: urls(4),
                model: ModelImage::Pb(pb_deep().to_snapshot()),
            },
        ),
    ] {
        let report = verify_bytes(&file.encode()).expect("valid envelope");
        assert!(report.is_clean(), "{label} baseline dirty: {report}");
    }
}

#[test]
fn inflated_child_count_is_caught() {
    let (urls, mut snap) = encode_pb(&pb_with_link(), 6);
    // Inflate the count of some non-root branch node: its parent's
    // children now sum past the parent's own transition count.
    let victim = snap
        .tree
        .nodes
        .iter()
        .position(|n| n.parent != u32::MAX && !n.link_dup)
        .expect("model has non-root nodes");
    snap.tree.nodes[victim].count += 1_000_000;
    let bytes = SnapshotFile {
        urls,
        model: ModelImage::Pb(snap),
    }
    .encode();
    let report = verify_bytes(&bytes).expect("checksum is valid by construction");
    assert!(report.has("child-count-exceeds-parent"), "{report}");
}

#[test]
fn dropped_child_entry_is_caught() {
    let mut m = pb_with_link();
    let arena = m.arena_for_audit().expect("finalized");
    // Remove a child *entry* while the child node itself stays in the
    // arena pointing at its parent.
    let parent = (0..row_id(arena.len()))
        .find(|&i| arena.parent(i) != u32::MAX && arena.has_children(i))
        .expect("a non-root node with children exists");
    let cols = arena.columns_for_audit();
    let at = usize::try_from(cols.child_offsets[row(parent)]).expect("small arena");
    cols.child_entries.remove(at);
    for offset in &mut cols.child_offsets[row(parent) + 1..] {
        *offset -= 1;
    }
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("child-not-linked"), "{report}");
}

#[test]
fn forged_depth_is_caught() {
    let mut m = pb_with_link();
    let arena = m.arena_for_audit().expect("finalized");
    let victim = (0..row_id(arena.len()))
        .find(|&i| arena.parent(i) != u32::MAX && !arena.is_link_dup(i))
        .expect("model has non-root nodes");
    let depth = &mut arena.columns_for_audit().depths[row(victim)];
    *depth = depth.saturating_add(3);
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("child-depth-mismatch"), "{report}");
}

#[test]
fn height_cap_breach_is_caught() {
    let (urls, mut snap) = encode_pb(&pb_deep(), 4);
    // Rewrite the popularity table so the branch head's grade collapses to
    // G0 (height cap 1). The stored branch is 4 deep — legal when it was
    // built, over the cap for the popularity the snapshot now claims.
    snap.pop = PopularityTable::from_counts(vec![0, 1, 0, 0]);
    let bytes = SnapshotFile {
        urls,
        model: ModelImage::Pb(snap),
    }
    .encode();
    let report = verify_bytes(&bytes).expect("valid envelope");
    assert!(report.has("height-exceeds-cap"), "{report}");
}

#[test]
fn retargeted_special_link_is_caught() {
    let mut m = pb_with_link();
    let arena = m.arena_for_audit().expect("finalized");
    // Point the special link at an ordinary branch node instead of the
    // duplicated popular node.
    let branch_node = (0..row_id(arena.len()))
        .find(|&i| arena.parent(i) != u32::MAX && !arena.is_link_dup(i))
        .expect("branch node exists");
    let cols = arena.columns_for_audit();
    assert!(!cols.link_entries.is_empty(), "setup must produce a link");
    cols.link_entries[0] = branch_node;
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("link-target-not-dup"), "{report}");
}

#[test]
fn truncated_url_table_is_rejected() {
    let (_, snap) = encode_pb(&pb_with_link(), 6);
    // Keep the model, drop most of the URL table: node symbols no longer
    // resolve against the snapshot's own interner image, so the file is
    // refused before any model is built from it.
    let file = SnapshotFile {
        urls: urls(2),
        model: ModelImage::Pb(snap),
    };
    assert!(matches!(
        SnapshotFile::decode(&file.encode()),
        Err(CodecError::UrlOutOfRange(_))
    ));
    let report = verify_snapshot(&file);
    assert!(report.has("snapshot-rejected"), "{report}");
}

/// A two-URL PB model: `0 -> 1`, rooted at the grade-3 URL 0.
fn pb_two_urls() -> PbPpm {
    let mut pop = PopularityTable::builder();
    pop.record_n(u(0), 1000);
    pop.record_n(u(1), 10);
    let mut m = PbPpm::new(pop.build(), PbConfig::default());
    for _ in 0..3 {
        m.train_session(&[u(0), u(1)]);
    }
    m.finalize();
    m
}

#[test]
fn forged_url_ids_are_rejected_before_anything_is_sized_by_them() {
    // The branch root, then its child, claims URL id 400,000,000 in a
    // two-URL file: loading it would size the root lookup table by that
    // id (1.6 GB; an id near u32::MAX asks for about 17 GB).
    for forged in [400_000_000, u32::MAX - 1] {
        for parentless in [true, false] {
            let mut snap = pb_two_urls().to_snapshot();
            let node = snap
                .tree
                .nodes
                .iter_mut()
                .find(|n| (n.parent == u32::MAX) == parentless)
                .expect("a root and its child");
            node.url = forged;
            let file = SnapshotFile {
                urls: urls(2),
                model: ModelImage::Pb(snap),
            };
            assert_eq!(
                SnapshotFile::decode(&file.encode()).unwrap_err(),
                CodecError::UrlOutOfRange(forged)
            );
            assert!(file.instantiate().is_err(), "instantiate must refuse");
            let report = verify_snapshot(&file);
            assert!(report.has("snapshot-rejected"), "{report}");
        }
    }

    // The same holds for an online window session.
    let online = SnapshotFile {
        urls: urls(2),
        model: ModelImage::OnlinePb(OnlinePbSnapshot {
            cfg: PbConfig::default(),
            window: vec![vec![u(0), u(9)]],
            max_window: 4,
            rebuild_every: 2,
            since_rebuild: 1,
            rebuilds: 1,
            model: Some(pb_two_urls().to_snapshot()),
        }),
    };
    assert_eq!(
        SnapshotFile::decode(&online.encode()).unwrap_err(),
        CodecError::UrlOutOfRange(9)
    );
    assert!(online.instantiate().is_err());
}

#[test]
fn forged_child_entry_key_is_caught() {
    // A child entry keyed by a URL its child row does not carry (here one
    // outside the two-URL table): lookups would follow the wrong edge.
    let mut m = pb_two_urls();
    let cols = m.arena_for_audit().expect("finalized").columns_for_audit();
    cols.child_entries[0].0 = u(7);
    let report = verify_model_with_urls(&ModelRef::Pb(&m), Some(2));
    assert!(report.has("child-url-mismatch"), "{report}");
}

#[test]
fn forged_grade_table_is_caught() {
    // The codec serializes the popularity table as raw counts and
    // rederives grades on load, so a grade forgery cannot ride a snapshot;
    // it models in-memory corruption (or a future codec that persists
    // grades). Forge via the doc(hidden) constructor and audit the model.
    let mut m = pb_with_link();
    let counts = m.popularity().counts().to_vec();
    let mut grades: Vec<Grade> = (0..counts.len())
        .map(|i| m.popularity().grade(u(u32::try_from(i).unwrap_or(0))))
        .collect();
    grades[0] = Grade::G0; // url 0 really carries G3
    let forged = PopularityTable::from_parts_unchecked(
        counts,
        grades,
        m.popularity().max_count(),
        m.popularity().total_accesses(),
    );
    m.set_popularity_for_audit(forged);
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("grade-mismatch"), "{report}");
}

#[test]
fn stale_index_aggregate_is_caught() {
    let m = pb_with_link();
    let mut reloaded = PbPpm::from_snapshot(&m.to_snapshot()).expect("clean snapshot loads");
    assert!(verify_model(&ModelRef::Pb(&reloaded)).is_clean());
    assert!(
        reloaded.skew_index_aggregate_for_audit(),
        "model must have a non-empty index group to skew"
    );
    let report = verify_model(&ModelRef::Pb(&reloaded));
    assert!(report.has("index-aggregate-stale"), "{report}");
}

#[test]
fn repointed_derived_index_group_is_caught() {
    // A one-member index group holds only its member's arena row; one
    // that names a different row answers from the wrong node.
    let m = pb_with_link();
    let mut reloaded = PbPpm::from_snapshot(&m.to_snapshot()).expect("clean snapshot loads");
    assert!(
        reloaded.repoint_derived_index_group_for_audit(),
        "model must have a one-member index group to repoint"
    );
    let report = verify_model(&ModelRef::Pb(&reloaded));
    assert!(report.has("index-shape-diverges"), "{report}");
    assert!(!report.has("index-aggregate-stale"), "{report}");
}

#[test]
fn forged_counts_past_the_index_fields_are_refused() {
    // The fingerprint index keeps totals and votes in 32 bits. One count
    // past that, or two voters of one group whose counts fit alone but
    // not summed, must fail the load instead of panicking it.
    let (urls, snap) = encode_pb(&pb_with_link(), 6);
    let voters_of = |url: u32| -> Vec<usize> {
        let nodes = &snap.tree.nodes;
        let has_children = |i: usize| nodes.iter().any(|n| n.parent == row_id(i) && !n.link_dup);
        (0..nodes.len())
            .filter(|&i| nodes[i].url == url && !nodes[i].link_dup && has_children(i))
            .collect()
    };
    let oversized = {
        let mut forged = snap.clone();
        let [root] = voters_of(0)[..] else {
            panic!("url 0 heads one branch");
        };
        forged.tree.nodes[root].count = (1 << 32) + 7;
        forged
    };
    let summed = {
        // Url 4 ends the window [4] twice: under root 0 and under root 3.
        let mut forged = snap.clone();
        let voters = voters_of(4);
        assert_eq!(voters.len(), 2, "url 4 votes in two branches");
        for v in voters {
            forged.tree.nodes[v].count = 3_000_000_000;
        }
        forged
    };
    for (label, forged) in [("oversized", oversized), ("summed", summed)] {
        let bytes = SnapshotFile {
            urls: urls.clone(),
            model: ModelImage::Pb(forged),
        }
        .encode();
        let decoded = SnapshotFile::decode(&bytes).expect("checksum-valid payload decodes");
        assert!(
            matches!(
                decoded.instantiate(),
                Err(CodecError::Arena(SnapshotError::IndexOverflow))
            ),
            "{label} count loaded"
        );
        let report = verify_bytes(&bytes).expect("valid envelope");
        assert!(report.has("snapshot-rejected"), "{label}: {report}");
    }
}

#[test]
fn order1_row_total_skew_is_caught() {
    let mut m = Order1Markov::new();
    m.train_session(&[u(0), u(1), u(0), u(2)]);
    m.finalize();
    let mut snap = m.to_snapshot();
    snap.rows[0].total += 5;
    let bytes = SnapshotFile {
        urls: urls(3),
        model: ModelImage::Order1(snap),
    }
    .encode();
    let report = verify_bytes(&bytes).expect("valid envelope");
    assert_eq!(report.model, "order1");
    assert!(report.has("order1-row-total-mismatch"), "{report}");
}

#[test]
fn forged_order1_rows_are_refused_or_predict_nothing() {
    let row = |url, total, next: &[(u32, u64)]| Order1RowSnapshot {
        url,
        total,
        next: next.to_vec(),
    };
    let file = |rows| SnapshotFile {
        urls: urls(3),
        model: ModelImage::Order1(Order1Snapshot { rows }),
    };
    // A repeated or out-of-order row or successor would otherwise load as
    // whichever copy came last: the loader refuses each one.
    for rows in [
        vec![row(0, 1, &[(1, 1)]), row(0, 1, &[(2, 1)])],
        vec![row(1, 1, &[(2, 1)]), row(0, 1, &[(1, 1)])],
        vec![row(0, 2, &[(1, 1), (1, 1)])],
        vec![row(0, 2, &[(2, 1), (1, 1)])],
    ] {
        let forged = file(rows.clone());
        let bytes = forged.encode();
        let decoded = SnapshotFile::decode(&bytes).expect("checksum-valid payload decodes");
        assert!(
            matches!(decoded.instantiate(), Err(CodecError::Arena(_))),
            "{rows:?} loaded"
        );
        let report = verify_bytes(&bytes).expect("valid envelope");
        assert!(report.has("snapshot-rejected"), "{rows:?}: {report}");
    }

    // A row that counts no transitions passes the audit (its total is the
    // sum of its successors) and predicts nothing rather than 0/0.
    let bytes = file(vec![row(0, 0, &[(1, 0), (2, 0)])]).encode();
    assert!(verify_bytes(&bytes).expect("valid envelope").is_clean());
    let model = SnapshotFile::decode(&bytes)
        .and_then(|f| f.instantiate())
        .expect("a zero row loads");
    let mut out = Vec::new();
    let mut usage = pbppm_core::PredictUsage::default();
    model.predict_ro(&[u(0)], &mut out, &mut usage);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn cyclic_parent_chain_is_rejected_not_hung() {
    // Two nodes claiming each other as parent: the audit must report it,
    // and must terminate.
    let mut m = pb_deep();
    let cols = m.arena_for_audit().expect("finalized").columns_for_audit();
    assert_eq!(cols.parents[1], 0, "row 1 hangs off row 0");
    cols.parents[0] = 1;
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("frozen-csr-malformed"), "{report}");
}

/// Encodes `pb_with_link` after `edit` reshapes its rows.
fn forged_rows(edit: impl FnOnce(&mut Vec<NodeSnapshot>)) -> Vec<u8> {
    let (urls, mut snap) = encode_pb(&pb_with_link(), 6);
    edit(&mut snap.tree.nodes);
    SnapshotFile {
        urls,
        model: ModelImage::Pb(snap),
    }
    .encode()
}

#[test]
fn a_parent_delta_past_row_zero_is_refused() {
    // A node whose parent is itself or a later node has no delta back to
    // it; the writer emits one reaching past row 0, decode reads it as the
    // row itself, and the load refuses it like every other v4 load rule.
    for parent in [5, 9] {
        let bytes = forged_rows(|nodes| nodes[5].parent = parent);
        assert_load_refuses(&bytes, SnapshotError::BadParent(5));
    }
}

/// Requires the load to refuse `bytes` with `want`, and the audit of the
/// bytes to report the refusal.
fn assert_load_refuses(bytes: &[u8], want: SnapshotError) {
    let decoded = SnapshotFile::decode(bytes).expect("checksum-valid payload decodes");
    assert_eq!(
        decoded.instantiate().err(),
        Some(CodecError::Arena(want.clone())),
        "{want:?}"
    );
    let report = verify_bytes(bytes).expect("valid envelope");
    assert!(report.has("snapshot-rejected"), "{want:?}: {report}");
}

#[test]
fn special_link_shapes_training_never_builds_are_refused() {
    let snap = pb_with_link().to_snapshot();
    let nodes = &snap.tree.nodes;
    let dup = nodes.iter().find(|n| n.link_dup).expect("a link").clone();
    let branch = nodes
        .iter()
        .position(|n| n.parent != u32::MAX && !n.link_dup)
        .expect("a branch node");
    // A duplicate below a branch node instead of a root. Training places
    // each link right after its root, so the forged one is appended.
    let forged = NodeSnapshot {
        parent: row_id(branch),
        ..dup
    };
    let bytes = forged_rows(|nodes| nodes.push(forged));
    assert_load_refuses(&bytes, SnapshotError::BadLink(row_id(nodes.len())));
    // A root flagged as a duplicate.
    let bytes = forged_rows(|nodes| nodes[0].link_dup = true);
    assert_load_refuses(&bytes, SnapshotError::BadLink(0));
}

#[test]
fn repeated_urls_among_roots_siblings_or_links_are_refused() {
    let snap = pb_with_link().to_snapshot();
    let nodes = &snap.tree.nodes;
    let last = row_id(nodes.len());
    let dup = nodes.iter().find(|n| n.link_dup).expect("a link").clone();
    let branch = nodes
        .iter()
        .find(|n| n.parent != u32::MAX && !n.link_dup)
        .expect("a branch node")
        .clone();
    // A second root for URL 0, a second sibling of `branch` on its URL,
    // and a second link of `dup`'s root to its URL.
    for repeat in [
        NodeSnapshot {
            parent: u32::MAX,
            ..nodes[0].clone()
        },
        branch,
        dup,
    ] {
        let bytes = forged_rows(|nodes| nodes.push(repeat.clone()));
        assert_load_refuses(&bytes, SnapshotError::RepeatedUrl(last));
    }
}

#[test]
fn reports_serialize_with_kind_and_path() {
    let (urls, mut snap) = encode_pb(&pb_with_link(), 6);
    let victim = snap
        .tree
        .nodes
        .iter()
        .position(|n| n.parent != u32::MAX && !n.link_dup)
        .expect("non-root node exists");
    snap.tree.nodes[victim].count += 1_000_000;
    let file = SnapshotFile {
        urls,
        model: ModelImage::Pb(snap),
    };
    let report = verify_snapshot(&file);
    assert!(!report.is_clean());
    let json = report.to_json();
    assert!(json.contains("\"kind\":\"child-count-exceeds-parent\""));
    assert!(json.contains("\"path\":["));
}
