//! The experiment implementations behind the regeneration binaries.
//!
//! Each submodule's `run()` regenerates one table or figure of the paper
//! (printing the text table and writing `results/<name>.json`); the
//! binaries in `src/bin/` and the `all` binary are thin wrappers.

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod ingest;
pub mod network;
pub mod quality;
pub mod related;
pub mod table1;
pub mod table2;
pub mod threshold;
pub mod throughput;
