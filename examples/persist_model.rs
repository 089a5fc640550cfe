//! Persist a trained model across server restarts: train PB-PPM, write it
//! as a `.pbss` snapshot file, reload it, and verify the reloaded model
//! predicts identically.
//!
//! ```sh
//! cargo run --release --example persist_model
//! ```

use pbppm::core::{
    ModelImage, PbConfig, PbPpm, PopularityTable, Prediction, Predictor, PruneConfig, SnapshotFile,
};
use pbppm::trace::{sessionize_trace, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on a synthetic workload.
    let trace = WorkloadConfig::tiny(3).generate();
    let sessions = sessionize_trace(&trace);
    let mut counts = PopularityTable::builder();
    for s in &sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    let mut model = PbPpm::new(
        counts.build(),
        PbConfig {
            prune: PruneConfig::aggressive(),
            ..PbConfig::default()
        },
    );
    for s in &sessions {
        model.train_session(&s.urls());
    }
    model.finalize();
    println!(
        "trained: {} nodes from {} sessions",
        model.node_count(),
        sessions.len()
    );

    // Snapshot to disk, together with the URL table the ids refer to.
    let path = std::env::temp_dir().join("pbppm-model.pbss");
    let bytes =
        SnapshotFile::new(&trace.urls, ModelImage::Pb(model.to_snapshot())).write_atomic(&path)?;
    println!("saved {} ({} KB)", path.display(), bytes / 1024);

    // ... server restarts ...

    // Reload and verify.
    let loaded = SnapshotFile::read(&path)?;
    let mut restored = loaded.instantiate()?;
    assert_eq!(restored.node_count(), model.node_count());

    let mut fresh: Vec<Prediction> = Vec::new();
    let mut reloaded: Vec<Prediction> = Vec::new();
    let mut checked = 0;
    for s in sessions.iter().take(200) {
        let urls = s.urls();
        for i in 0..urls.len() {
            model.predict(&urls[..=i], &mut fresh);
            restored.predict(&urls[..=i], &mut reloaded);
            assert_eq!(fresh, reloaded, "predictions diverged after reload");
            checked += 1;
        }
    }
    println!("restored model matches on {checked} contexts — safe to serve");
    Ok(())
}
