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
    if let Err(e) = file.check_urls() {
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
/// passes but the decoded model is invalid — and the file's byte split
/// ([`AuditReport::bytes`]).
pub fn verify_bytes(bytes: &[u8]) -> Result<AuditReport, CodecError> {
    let (file, split) = SnapshotFile::decode_with_split(bytes)?;
    Ok(AuditReport {
        bytes: Some(split),
        ..verify_snapshot(&file)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbppm_core::{Interner, PbConfig, PbPpm, PopularityTable, Predictor, UrlId};

    fn small_pb() -> (Vec<String>, PbPpm) {
        let mut interner = Interner::new();
        let urls: Vec<String> = (0..4)
            .map(|i| {
                let u = format!("/p{i}");
                interner.intern(&u);
                u
            })
            .collect();
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
    }

    #[test]
    fn envelope_errors_stay_errors() {
        assert!(matches!(
            verify_bytes(b"definitely not a snapshot"),
            Err(CodecError::BadMagic)
        ));
    }
}
