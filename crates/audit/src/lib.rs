//! # pbppm-audit — structural invariant auditing for pbppm models
//!
//! Four independent producers reshape the prediction trees in this
//! workspace: offline training, the online rebuild loop, pruning, and the
//! binary snapshot codec. Each encodes assumptions about what a valid
//! model looks like — grade-capped branch heights, special links to live
//! duplicated nodes, popularity grades that match their counts, fresh
//! fingerprint-index aggregates. This crate is the single place those
//! assumptions are *checked* rather than assumed.
//!
//! The checking engine itself lives in [`pbppm_core::verify`] (it needs
//! in-crate access to model internals); this crate re-exports it and adds
//! the snapshot-level entry points:
//!
//! * [`verify_model`] / [`verify_model_with_urls`] — audit a live model.
//! * [`verify_snapshot`] — audit a decoded [`SnapshotFile`]: instantiate
//!   its model image and run every structural check against the stored
//!   URL table.
//! * [`verify_bytes`] — audit a raw byte stream: envelope errors (bad
//!   magic, truncation, checksum) surface as [`CodecError`]s, while a
//!   payload that *decodes* but describes an invalid model — a
//!   checksum-valid forgery or a bug in a writer — comes back as a report
//!   with violations.
//!
//! The adversarial harness in `tests/` corrupts valid models and
//! snapshots one invariant at a time and pins the exact
//! [`Violation`] kind each corruption produces.

#![forbid(unsafe_code)]

pub use pbppm_core::verify::{
    runtime_audit, runtime_audit_enabled, verify_model, verify_model_with_urls, AuditReport,
    ModelRef, Violation,
};
pub use pbppm_core::{CodecError, ModelImage, SnapshotFile};

use pbppm_core::{Order1Markov, PbPpm, StandardPpm};

/// Audits a decoded snapshot: instantiates the stored model image and runs
/// the full structural verification against it, including URL-symbol
/// resolution against the snapshot's own URL table.
///
/// A model image that fails to instantiate (a URL id outside the URL
/// table, a child run at or before its row, unsorted or repeated roots,
/// siblings or links, a link past the roots) yields a report with a single [`Violation::SnapshotRejected`] rather
/// than an error: from the auditor's point of view a payload the loader
/// refuses *is* the finding.
pub fn verify_snapshot(file: &SnapshotFile) -> AuditReport {
    let urls = Some(file.urls.len());
    if let Err(e) = file.check_url_ids() {
        return AuditReport::rejected("snapshot", e.to_string());
    }
    match &file.model {
        ModelImage::Pb(s) => match PbPpm::from_snapshot(s) {
            Ok(m) => verify_model_with_urls(&ModelRef::Pb(&m), urls),
            Err(e) => AuditReport::rejected("pb", e.to_string()),
        },
        ModelImage::Standard(s) => match StandardPpm::from_snapshot(s) {
            Ok(m) => verify_model_with_urls(&ModelRef::Standard(&m), urls),
            Err(e) => {
                let label = if s.min_support.is_some() {
                    "lrs"
                } else {
                    "standard"
                };
                AuditReport::rejected(label, e.to_string())
            }
        },
        ModelImage::Order1(s) => match Order1Markov::from_snapshot(s) {
            Ok(m) => verify_model_with_urls(&ModelRef::Order1(&m), urls),
            Err(e) => AuditReport::rejected("order1", e.to_string()),
        },
        ModelImage::OnlinePb(s) => match pbppm_core::OnlinePbPpm::from_snapshot(s) {
            Ok(m) => verify_model_with_urls(&ModelRef::OnlinePb(&m), urls),
            Err(e) => AuditReport::rejected("online-pb", e.to_string()),
        },
    }
}

/// Audits a raw snapshot byte stream.
///
/// `Err` means the envelope itself is unreadable (magic, version, length,
/// checksum, or payload framing); `Ok` carries the structural audit of
/// whatever the payload described — including the case where the checksum
/// passes but the decoded model is invalid — the file's byte split
/// ([`AuditReport::bytes`]), what its URL table decodes to
/// ([`AuditReport::url_table`]) and where that table's interner keeps its
/// heap bytes ([`AuditReport::interner`]).
pub fn verify_bytes(bytes: &[u8]) -> Result<AuditReport, CodecError> {
    let (file, split) = SnapshotFile::decode_with_split(bytes)?;
    Ok(AuditReport {
        bytes: Some(split),
        url_table: Some(file.url_table_size()),
        interner: Some(file.urls.split()),
        ..verify_snapshot(&file)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbppm_core::{Interner, PbConfig, PbPpm, PopularityTable, Predictor, UrlId};

    fn small_pb() -> (Interner, PbPpm) {
        let urls: Interner = (0..4).map(|i| format!("/p{i}")).collect();
        let mut pop = PopularityTable::builder();
        pop.record_n(UrlId(0), 100);
        pop.record_n(UrlId(1), 8);
        pop.record_n(UrlId(2), 1);
        let mut m = PbPpm::new(pop.build(), PbConfig::default());
        for _ in 0..5 {
            m.train_session(&[UrlId(0), UrlId(1), UrlId(2), UrlId(3)]);
        }
        m.finalize();
        (urls, m)
    }

    #[test]
    fn clean_snapshot_verifies_clean() {
        let (urls, m) = small_pb();
        let file = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let report = verify_bytes(&file.encode()).expect("envelope is valid");
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.model, "pb");
        // The loaded index's split adds up to what the model reports.
        let split = report.index.expect("a pb model reports its index");
        assert_eq!(split.total(), m.stats().index_bytes);
        assert_eq!(split.bytes("members"), 0);
        assert_eq!((split.dirty_groups, split.largest_dirty), (0, 0));
        let text = report.to_string();
        let keys = split.bytes("keys");
        assert!(
            text.contains(&format!(
                "index bytes {}: keys {keys} w2 dir_base ",
                split.total()
            )),
            "{text}"
        );
        assert!(
            text.contains("; dirty groups 0, largest 0 members"),
            "{text}"
        );
        // What the build filed, stored and dropped, on a line of its own.
        let (filed, derived, clean, dropped) = (
            split.windows_filed,
            split.derived_groups,
            split.clean_groups,
            split.dropped_groups,
        );
        assert!(filed > derived + clean && dropped > 0, "{split:?}");
        assert!(
            text.contains(&format!(
                "\n  index groups: {filed} voting windows filed, derived {derived}, \
                 clean {clean}, dirty 0, dropped {dropped}\n"
            )),
            "{text}"
        );
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"keys\":{{\"bytes\":{keys},\"width\":2}}")),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"dirty_groups\":0,\"largest_dirty_group\":0,\"windows_filed\":{filed},\
                 \"derived_groups\":{derived},\"clean_groups\":{clean},\"dropped_groups\":{dropped}}}"
            )),
            "{json}"
        );
    }

    #[test]
    fn the_report_splits_the_loaded_url_table() {
        let (mut urls, m) = small_pb();
        // A fifth URL no row names: the file keeps its id, not its string.
        urls.intern("/p4");
        let file = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let report = verify_bytes(&file.encode()).expect("envelope is valid");
        let split = report.interner.expect("a file reports its url table");
        // Four strings of three bytes, four 4-byte ends, the table's eight
        // 4-byte slots, and one presence word with its 4-byte rank: what
        // the loaded interner allocates.
        let decoded = SnapshotFile::decode(&file.encode()).expect("valid");
        assert_eq!(split, decoded.urls.split());
        assert_eq!(
            (split.strings, split.ends, split.slots, split.presence),
            (12, 16, 32, 12)
        );
        assert_eq!(split.total(), decoded.urls.memory_bytes());
        let text = report.to_string();
        assert!(
            text.contains("; url table 5 ids, 4 strings, 12 decoded bytes\n"),
            "{text}"
        );
        assert!(
            text.contains("interner bytes 72: strings 12 ends 16 slots 32 presence 12\n"),
            "{text}"
        );
        let json = report.to_json();
        assert!(
            json.contains("\"url_table\":{\"ids\":5,\"strings\":4,\"decoded_bytes\":12}"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"interner\":{\"total\":72,\"strings\":12,\"ends\":16,\"slots\":32,\"presence\":12}"
            ),
            "{json}"
        );
    }

    #[test]
    fn the_report_splits_the_arena_and_the_popularity_table() {
        let (urls, m) = small_pb();
        let file = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let report = verify_bytes(&file.encode()).expect("envelope is valid");
        let stats = m.stats();
        let total = |columns: &[pbppm_core::ColumnBytes]| -> usize {
            columns.iter().map(|c| c.bytes).sum()
        };
        // Column for column, the loaded model's own split: the small
        // model's every value fits a byte, so no count or excess is an
        // outlier, each offset column is one block whose base is padded to
        // the word its read loads, and its URL ids fit one word of each URL
        // bitmap.
        assert_eq!(report.arena, m.frozen().expect("finalized").split());
        assert_eq!(total(&report.arena), stats.memory_bytes);
        let bitmaps = ["held", "roots", "root_ranks"];
        assert!(
            report
                .arena
                .iter()
                .all(|c| c.width == 1 || bitmaps.contains(&c.name)),
            "{report}"
        );
        assert_eq!(report.popularity, m.popularity().split());
        assert_eq!(total(&report.popularity), m.popularity().heap_bytes());
        let text = report.to_string();
        let rows = m.node_count();
        assert!(
            text.contains(&format!(
                "arena bytes {}: urls {rows} w1 counts {rows} w1 counts_over 0 w1 \
                 parents_base 8 w1 parents {rows} w1 parents_over 0 w1 first_child_base 8 w1",
                stats.memory_bytes
            )),
            "{text}"
        );
        assert!(
            text.contains(
                " held 8 w8 roots 8 w8 root_ranks 4 w4 link_offsets_base 8 w1 link_offsets "
            ),
            "{text}"
        );
        assert!(
            text.contains("popularity bytes 3: counts 3 w1 counts_over 0 w1\n"),
            "{text}"
        );
        let json = report.to_json();
        assert!(
            json.contains(&format!(
                "\"arena\":{{\"total\":{},\"urls\":{{\"bytes\":{rows},\"width\":1}}",
                stats.memory_bytes
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"parents_base\":{{\"bytes\":8,\"width\":1}},\"parents\":{{\"bytes\":{rows},\"width\":1}}"
            )),
            "{json}"
        );
        assert!(
            json.contains("\"popularity\":{\"total\":3,\"counts\":{\"bytes\":3,\"width\":1}"),
            "{json}"
        );
    }

    #[test]
    fn envelope_errors_stay_errors() {
        assert!(matches!(
            verify_bytes(b"definitely not a snapshot"),
            Err(CodecError::BadMagic)
        ));
    }
}
