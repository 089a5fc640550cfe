//! # pbppm-core — prediction models for web prefetching
//!
//! This crate implements the prediction side of *"Popularity-Based PPM: An
//! Effective Web Prefetching Technique for High Accuracy and Low Storage"*
//! (Xin Chen and Xiaodong Zhang, ICPP 2002): three Prediction-by-Partial-Match
//! (PPM) model families built over a shared arena-allocated Markov prediction
//! trie, plus the popularity machinery the paper's contribution rests on.
//!
//! ## Models
//!
//! * [`StandardPpm`] — the classic PPM forest: a branch is rooted at **every**
//!   URL position of every access session, bounded (or unbounded) height.
//!   Simple, accurate, and enormous.
//! * [`StandardPpm::lrs`] — the Longest-Repeating-Subsequence model of
//!   Pitkow & Pirolli (USENIX '99): the same forest, of which only paths that
//!   occur at least twice survive finalization. Small, but blind to anything
//!   that has not yet repeated.
//! * [`PbPpm`] — the paper's contribution. Branch heights are proportional to
//!   the *popularity grade* of the branch's heading URL, new roots are only
//!   created on popularity ascents, special links duplicate popular nodes
//!   under the branch root, and two post-build space optimizations prune the
//!   tree. High accuracy at a fraction of the storage.
//! * [`Order1Markov`] — a first-order Markov baseline used by several of the
//!   related-work systems the paper cites; included as an extra comparator.
//!   It is the degenerate 2-PPM, stored as a height-2 forest of click pairs
//!   in the same arena as the others.
//!
//! All models implement the [`Predictor`] trait and can be driven by the
//! trace-driven simulator in `pbppm-sim`.
//!
//! ## Quick example
//!
//! ```
//! use pbppm_core::{Interner, PopularityTable, PbPpm, PbConfig, Predictor};
//!
//! let mut urls = Interner::new();
//! let (a, b, c) = (urls.intern("/index.html"), urls.intern("/docs"), urls.intern("/docs/faq"));
//!
//! // Popularity is learned from the training window (two-pass training).
//! let mut pop = PopularityTable::builder();
//! for _ in 0..100 { pop.record(a); }
//! for _ in 0..10 { pop.record(b); }
//! pop.record(c);
//! let pop = pop.build();
//!
//! let mut model = PbPpm::new(pop, PbConfig::default());
//! for _ in 0..8 { model.train_session(&[a, b, c]); }
//! model.finalize();
//!
//! let mut out = Vec::new();
//! model.predict(&[a], &mut out);
//! assert_eq!(out[0].url, b); // after /index.html the model expects /docs
//! ```

#![forbid(unsafe_code)]

mod bitmap;
pub mod column;
pub mod context_index;
pub mod eval;
pub mod frozen;
pub mod fxhash;
pub mod interner;
pub mod live;
pub mod order1;
pub mod parallel;
pub mod pb;
pub mod pb_online;
pub mod popularity;
pub mod predictor;
pub mod prune;
pub mod publish;
#[doc(hidden)]
pub mod reference;
pub mod render;
pub mod snapshot;
pub mod standard;
pub mod stats;
pub mod topn;
pub mod verify;

pub use column::{ColumnBytes, CountColumn, FrameColumn, UintColumn};
pub use context_index::{ContextHashes, ContextIndex, IndexOccupancy, IndexSplit};
pub use eval::{evaluate, EvalConfig, PredictionQuality};
pub use frozen::{FrozenTree, NodeId};
pub use fxhash::{FxHashMap, FxHashSet};
pub use interner::{Interner, InternerSplit, UrlId};
pub use live::{traffic_increment, GradeAccuracy, LiveEval, LiveEvalConfig};
pub use order1::Order1Markov;
pub use parallel::{
    parallel_map, parallel_map_progress, parallel_map_with, parse_threads, partition_ranges,
    resolve_threads, threads_from_env, THREADS_ENV,
};
pub use pb::{PbConfig, PbPpm};
pub use pb_online::OnlinePbPpm;
pub use popularity::{Grade, PopularityBuilder, PopularityTable};
pub use predictor::{ModelKind, PredictUsage, Prediction, Predictor};
pub use prune::PruneConfig;
pub use publish::{shard_of, EpochPublisher, EpochReader};
pub use snapshot::{
    ByteSplit, CodecError, Generation, ModelImage, SnapshotFile, SnapshotIoError, SnapshotStore,
    UrlTableSize,
};
pub use standard::StandardPpm;
pub use stats::ModelStats;
pub use topn::TopN;
pub use verify::{
    runtime_audit, runtime_audit_enabled, verify_model, verify_model_with_urls, AuditReport,
    ModelRef, Violation,
};
