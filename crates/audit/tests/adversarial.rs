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
//! A model file writes each node once, in level order (URL, count, child
//! count; a link's root slot, URL and count), and the arena stores no more
//! than the order implies, so a child list, depth, grade or link table that
//! disagrees with the rows cannot be stated at all. What the layout can
//! state but training never builds is refused at load, one case per load
//! rule below. A forged parent pointer is caught by `pbppm_core::verify`'s
//! own unit tests, which reach the arena's columns.

use pbppm_audit::{
    verify_bytes, verify_model, verify_snapshot, CodecError, ModelImage, ModelRef, SnapshotFile,
};
use pbppm_core::frozen::{LinkSnapshot, NodeSnapshot, SnapshotError, TreeSnapshot};
use pbppm_core::order1::{Order1RowSnapshot, Order1Snapshot};
use pbppm_core::pb_online::OnlinePbSnapshot;
use pbppm_core::snapshot::{FORMAT_VERSION, MAGIC};
use pbppm_core::{
    Grade, Interner, Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig, UrlId,
};

fn u(n: u32) -> UrlId {
    UrlId(n)
}

/// The first non-root row of a level-order image: every tree row but a
/// root is counted as some row's child.
fn first_branch_row(nodes: &[NodeSnapshot]) -> usize {
    let children: u32 = nodes.iter().map(|n| n.children).sum();
    nodes.len() - usize::try_from(children).expect("small arena")
}

fn urls(n: usize) -> Interner {
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

fn encode_pb(m: &PbPpm, url_count: usize) -> (Interner, pbppm_core::pb::PbSnapshot) {
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
    let victim = first_branch_row(&snap.tree.nodes);
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

/// A file built in memory over a decoded table with holes: `instantiate`
/// refuses a model id that names a hole, and the encoder, which writes
/// only held strings, leaves the id a hole that decode refuses.
#[test]
fn a_model_id_naming_a_hole_is_refused_in_memory_and_on_disk() {
    let written = SnapshotFile {
        urls: urls(3),
        model: ModelImage::Pb(pb_two_urls().to_snapshot()),
    }
    .encode();
    let holed = SnapshotFile::decode(&written).expect("valid").urls;
    assert_eq!((holed.len(), holed.strings()), (3, 2));
    let mut snap = pb_two_urls().to_snapshot();
    snap.tree.nodes[1].url = 2;
    let file = SnapshotFile {
        urls: holed,
        model: ModelImage::Pb(snap),
    };
    assert_eq!(file.check_url_ids(), Err(CodecError::UrlOutOfRange(2)));
    assert_eq!(file.instantiate().err(), Some(CodecError::UrlOutOfRange(2)));
    assert_eq!(
        SnapshotFile::decode(&file.encode()).unwrap_err(),
        CodecError::UrlOutOfRange(2)
    );
    assert!(verify_snapshot(&file).has("snapshot-rejected"));
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
    // The branch root, then its child, then a special link claims URL id
    // 400,000,000 in a file of few URLs: loading it would size the root
    // lookup table by that id (1.6 GB; an id near u32::MAX asks for about
    // 17 GB).
    for forged in [400_000_000, u32::MAX - 1] {
        for row in 0..3 {
            let (n, mut snap) = match row {
                2 => (6, pb_with_link().to_snapshot()),
                _ => (2, pb_two_urls().to_snapshot()),
            };
            match snap.tree.nodes.get_mut(row) {
                Some(node) => node.url = forged,
                None => snap.tree.links[0].url = forged,
            }
            let file = SnapshotFile {
                urls: urls(n),
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

/// FNV-1a 64, the snapshot checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A checksum-valid file of `pb_two_urls` whose URL table (id space,
/// count, presence bitmap and entries) is `table` in place of what the
/// writer writes.
fn with_url_table(table: &[u8]) -> Vec<u8> {
    with_model_and_table(ModelImage::Pb(pb_two_urls().to_snapshot()), table)
}

/// A checksum-valid file of `model` whose URL table is `table`.
fn with_model_and_table(model: ModelImage, table: &[u8]) -> Vec<u8> {
    let written = SnapshotFile {
        urls: Interner::new(),
        model,
    }
    .encode();
    // The payload is the kind tag, the two-byte empty table, the model.
    let payload = [&written[18..19], table, &written[21..written.len() - 8]].concat();
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// A 300-byte URL, then `n` 6-byte entries, each reusing all of the one
/// before and adding a byte. 64 times its 6 bytes lets an entry reuse at
/// most 384, so entry 86 breaks the bound.
fn reuse_chain(n: u8) -> Vec<u8> {
    // The id space and count, then a literal whose length 300 is the
    // varint AC 02.
    let mut table = vec![1 + n, 1 + n, 0, 0xac, 0x02];
    table.extend_from_slice(&[b'a'; 300]);
    for reuse in 300..300 + u16::from(n) {
        let varint = [
            u8::try_from(reuse & 0x7f).unwrap() | 0x80,
            u8::try_from(reuse >> 7).unwrap(),
        ];
        // Distance 1, the prefix, no suffix, and a 1-byte middle.
        table.extend_from_slice(&[1, varint[0], varint[1], 0, 1, b'b']);
    }
    table
}

/// A URL table entry names a reference up to 16 entries back and the
/// prefix and suffix it keeps of it. Every forgery of that coding is
/// refused while the table is read, before a string of it is built, and a
/// repeat as it is interned, so `pbppm audit` (`verify_bytes`) fails with
/// the decoder's own error; the coding never reaches `verify_snapshot`,
/// which has no file to audit.
#[test]
fn forged_url_tables_are_refused() {
    let invalid = CodecError::Invalid;
    let cases = [
        (
            "a reference before the first entry",
            vec![2, 2, 1, 0, 0, 2, b'/', b'a', 0, 2, b'/', b'b'],
            invalid("url reference before the table"),
        ),
        (
            "a prefix and suffix longer than the reference",
            vec![2, 2, 0, 2, b'/', b'a', 1, 2, 1, 0],
            invalid("url reuse longer than its reference"),
        ),
        (
            // `/é` (C3 A9), then `/` and half of `é` with A8: `/è`.
            "a prefix cut inside a 2-byte character",
            vec![2, 2, 0, 3, b'/', 0xc3, 0xa9, 1, 2, 0, 1, 0xa8],
            invalid("url reuse cut inside a utf-8 character"),
        ),
        (
            "a chain of reuses past the amplification bound",
            reuse_chain(86),
            invalid("url reuse past the amplification bound"),
        ),
        (
            "a table whose decoded strings repeat",
            vec![2, 2, 0, 2, b'/', b'a', 1, 2, 0, 0],
            CodecError::DuplicateUrl(1),
        ),
        (
            "a table that writes one string out twice",
            vec![2, 2, 0, 2, b'/', b'a', 0, 2, b'/', b'a'],
            CodecError::DuplicateUrl(1),
        ),
        (
            "more entries than ids",
            vec![1, 2, 0, 2, b'/', b'a', 0, 2, b'/', b'b'],
            invalid("url table holds more entries than ids"),
        ),
        (
            "a presence bitmap that sets more bits than the count",
            vec![3, 2, 0b111, 0, 2, b'/', b'a', 0, 2, b'/', b'b'],
            invalid("url presence bitmap disagrees with the table"),
        ),
        (
            "a presence bit past the id space",
            vec![3, 2, 0b1001, 0, 2, b'/', b'a', 0, 2, b'/', b'b'],
            invalid("url presence bitmap disagrees with the table"),
        ),
        (
            // Ids 0 and 2 hold `/a` and `/c`; the model's child is URL 1.
            "a model id that names a hole of the table",
            vec![3, 2, 0b101, 0, 2, b'/', b'a', 0, 2, b'/', b'c'],
            CodecError::UrlOutOfRange(1),
        ),
    ];
    for (label, table, want) in cases {
        let bytes = with_url_table(&table);
        assert_eq!(SnapshotFile::decode(&bytes).unwrap_err(), want, "{label}");
        assert_eq!(verify_bytes(&bytes).unwrap_err(), want, "{label}");
    }
    // An online checkpoint keeps every id its writer issued: a table with
    // a hole is refused even where the window and model name no hole.
    let online = ModelImage::OnlinePb(OnlinePbSnapshot {
        cfg: PbConfig::default(),
        window: vec![vec![u(0), u(1)]],
        max_window: 4,
        rebuild_every: 2,
        since_rebuild: 1,
        rebuilds: 1,
        model: Some(pb_two_urls().to_snapshot()),
    });
    let holed = [3, 2, 0b011, 0, 2, b'/', b'a', 0, 2, b'/', b'b'];
    let want = invalid("online checkpoint url table with holes");
    assert_eq!(
        SnapshotFile::decode(&with_model_and_table(online.clone(), &holed)).unwrap_err(),
        want
    );
    // The same table under the PB model is well formed.
    assert!(verify_bytes(&with_url_table(&holed)).unwrap().is_clean());
    // One entry short of the bound, the chain loads.
    let chain = SnapshotFile::decode(&with_url_table(&reuse_chain(85))).unwrap();
    assert_eq!(chain.urls.resolve(u(85)).map(str::len), Some(385));
    assert!(verify_bytes(&with_url_table(&reuse_chain(85)))
        .unwrap()
        .is_clean());
}

#[test]
fn forged_grade_table_is_caught() {
    // The codec serializes the popularity table as raw counts and
    // rederives the largest count on load, and a table buckets each grade
    // over its stored largest count, so a grade forgery cannot ride a
    // snapshot; it models in-memory corruption. Forge the largest count
    // via the doc(hidden) constructor and audit the model.
    let mut m = pb_with_link();
    assert_eq!(m.popularity().grade(u(0)), Grade::G3);
    let forged = PopularityTable::from_parts_unchecked(
        m.popularity().counts().to_vec(),
        m.popularity().max_count() * 100,
        m.popularity().total_accesses(),
    );
    m.set_popularity_for_audit(forged);
    // url 0 really carries G3.
    assert!(m.popularity().grade(u(0)) < Grade::G3);
    let report = verify_model(&ModelRef::Pb(&m));
    assert!(report.has("grade-mismatch"), "{report}");
    assert!(report.has("popularity-totals-inconsistent"), "{report}");
}

#[test]
fn forged_counts_past_the_index_fields_are_refused() {
    // The fingerprint index keeps totals and votes in 32 bits. One count
    // past that, or two voters of one group whose counts fit alone but
    // not summed, must fail the load instead of panicking it.
    let (urls, snap) = encode_pb(&pb_with_link(), 6);
    let voters_of = |url: u32| -> Vec<usize> {
        let nodes = &snap.tree.nodes;
        (0..nodes.len())
            .filter(|&i| nodes[i].url == url && nodes[i].children > 0)
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

/// Encodes `snap` after `edit` reshapes its rows, as a file of `n` URLs.
fn forged(
    n: usize,
    mut snap: pbppm_core::pb::PbSnapshot,
    edit: impl FnOnce(&mut TreeSnapshot),
) -> Vec<u8> {
    edit(&mut snap.tree);
    SnapshotFile {
        urls: urls(n),
        model: ModelImage::Pb(snap),
    }
    .encode()
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

/// `pb_with_link`'s image in level order: roots 0 and 3 (rows 0, 1), the
/// branch 0 1 2 3 4 5 (rows 0, 2, 4, 6, 7, 8) beside the branch 3 4 5
/// (rows 1, 3, 5), and the link from root 0 to a duplicate of 3 (row 9).
fn linked_image() -> pbppm_core::pb::PbSnapshot {
    let snap = pb_with_link().to_snapshot();
    let shape: Vec<(u32, u32)> = snap
        .tree
        .nodes
        .iter()
        .map(|n| (n.url, n.children))
        .collect();
    let want = [
        (0, 1),
        (3, 1),
        (1, 1),
        (4, 1),
        (2, 1),
        (5, 0),
        (3, 1),
        (4, 1),
        (5, 0),
    ];
    assert_eq!(shape, want);
    let links: Vec<(u32, u32)> = snap.tree.links.iter().map(|l| (l.root, l.url)).collect();
    assert_eq!(links, [(0, 3)]);
    snap
}

#[test]
fn a_child_run_at_or_before_its_row_is_refused() {
    // Row 7's child moved to the last row, whose run would then start at
    // that row itself.
    let bytes = forged(6, linked_image(), |t| {
        t.nodes[7].children = 0;
        t.nodes[8].children = 1;
    });
    assert_load_refuses(&bytes, SnapshotError::BadChildRun(8));
    // More children than tree rows: no row is left to be a root, so row
    // 0's run starts at row 0.
    let bytes = forged(6, linked_image(), |t| t.nodes[8].children = 5);
    assert_load_refuses(&bytes, SnapshotError::BadChildRun(0));
}

#[test]
fn unsorted_or_repeated_roots_and_siblings_are_refused() {
    // Roots out of order, and a root repeating the one before it.
    let bytes = forged(6, linked_image(), |t| t.nodes.swap(0, 1));
    assert_load_refuses(&bytes, SnapshotError::UnsortedUrl(1));
    let bytes = forged(6, linked_image(), |t| t.nodes[1].url = 0);
    assert_load_refuses(&bytes, SnapshotError::UnsortedUrl(1));
    // Root 0 adopts row 3 as a second child after URL 1 (row 1 gives it
    // up): a valid image, until row 3 repeats or undercuts its sibling.
    let adopt = |t: &mut TreeSnapshot| {
        t.nodes[0].children = 2;
        t.nodes[1].children = 0;
    };
    assert!(SnapshotFile::decode(&forged(6, linked_image(), adopt))
        .and_then(|f| f.instantiate())
        .is_ok());
    for url in [1, 0] {
        let bytes = forged(6, linked_image(), |t| {
            adopt(t);
            t.nodes[3].url = url;
        });
        assert_load_refuses(&bytes, SnapshotError::UnsortedUrl(3));
    }
}

#[test]
fn links_past_the_roots_or_out_of_order_are_refused() {
    let link = |root, url| LinkSnapshot {
        root,
        url,
        count: 1,
    };
    // A link naming slot 2 of two roots.
    let bytes = forged(6, linked_image(), |t| t.links[0].root = 2);
    assert_load_refuses(&bytes, SnapshotError::BadLink(9));
    // A link of root 0 after one of root 1: on the wire its root delta
    // wraps past u32::MAX.
    let bytes = forged(6, linked_image(), |t| t.links.insert(0, link(1, 0)));
    assert_load_refuses(&bytes, SnapshotError::BadLink(10));
    // A second link of root 0 to URL 3, or to URL 2 after URL 3.
    for url in [3, 2] {
        let bytes = forged(6, linked_image(), |t| t.links.push(link(0, url)));
        assert_load_refuses(&bytes, SnapshotError::UnsortedUrl(10));
    }
    // A link of root 1 may name a URL below root 0's link.
    let bytes = forged(6, linked_image(), |t| t.links.push(link(1, 0)));
    assert!(verify_bytes(&bytes).expect("valid envelope").is_clean());
}

#[test]
fn reports_serialize_with_kind_and_path() {
    let (urls, mut snap) = encode_pb(&pb_with_link(), 6);
    let victim = first_branch_row(&snap.tree.nodes);
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
