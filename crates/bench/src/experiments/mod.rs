//! The experiment implementations behind the regeneration binaries.
//!
//! Each submodule's `run()` regenerates one experiment of the paper
//! (printing its text tables and writing `results/<name>.json`); the
//! binaries in `src/bin/` and the `all` binary are thin wrappers.

pub mod ablation;
pub mod fig1;
pub mod fig5;
pub mod ingest;
pub mod network;
pub mod quality;
pub mod related;
pub mod sweep;
pub mod threshold;
pub mod throughput;
