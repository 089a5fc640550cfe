//! # pbppm-trace — the web trace substrate
//!
//! Everything the PB-PPM paper's evaluation needs on the *data* side:
//!
//! * [`event`] — the request record and trace container types;
//! * [`clf`] — a Common Log Format parser (and writer), so the genuine
//!   NASA-KSC / UCB-CS logs the paper used can be fed in unchanged;
//! * [`combined`] — the Combined Log Format dialect and user-agent robot
//!   detection;
//! * [`ingest`] — chunked, parallel, bounded-memory streaming ingestion of
//!   Common and Combined logs: the one path from log bytes to a trace;
//! * [`session`] — the paper's §2.2 preprocessing: 30-minute idle
//!   sessionization and 10-second embedded-image folding;
//! * [`classify`] — the proxy-vs-browser client classification;
//! * [`zipf`] — a fast Zipf(α) sampler plus an empirical rank-frequency
//!   slope estimator;
//! * [`site`] — a hierarchical web-site model (pages, links, sizes);
//! * [`synth`] — the session random-walk generator implementing the paper's
//!   three surfing regularities;
//! * [`workload`] — multi-day NASA-like and UCB-like workload presets that
//!   produce complete [`event::Trace`]s.
//!
//! The synthetic workloads substitute for the paper's (no longer practically
//! obtainable) raw server logs; see `DESIGN.md` §2 for the substitution
//! argument.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod classify;
pub mod clf;
pub mod combined;
pub mod event;
pub mod ingest;
#[doc(hidden)]
pub mod reference;
pub mod session;
pub mod site;
pub mod synth;
pub mod workload;
pub mod zipf;

pub use catalog::DocCatalog;
pub use classify::{classify_clients, ClassifyConfig, ClientClass};
pub use clf::{
    format_clf_line, parse_clf_line, parse_clf_line_ref, ClfParseError, ClfRecord, ClfRecordRef,
    ClfStats,
};
pub use combined::{
    detect_format, format_combined_line, is_robot_agent, parse_combined_line, CombinedRecord,
    LogFormat,
};
pub use event::{ClientId, DocKind, Request, Trace, DAY_SECS};
pub use ingest::{trace_from_clf_path, trace_from_clf_reader, IngestConfig};
pub use session::{
    sessionize, sessionize_trace, PageView, Session, SessionStats, SessionizerConfig,
};
pub use site::{SiteConfig, SiteModel};
pub use synth::SessionGenConfig;
pub use workload::WorkloadConfig;
pub use zipf::ZipfSampler;
