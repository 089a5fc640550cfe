//! Checkpoints from an older model-file format are refused, not replaced.
//!
//! `fixtures/v3_online_pb.pbss` is an online PB-PPM checkpoint in format
//! version 3, which wrote each tree edge twice, and
//! `fixtures/v4_online_pb.pbss` one in version 4, which wrote each node's
//! parent where level order implies it; neither is read any more. A shard
//! directory holding only such files must stop `open` with an error naming
//! the version; serving on from a fresh model would write the next
//! checkpoint over the files the operator still has to retrain from.

use pbppm_core::PbConfig;
use pbppm_serve::{ShardedOptions, ShardedServer};
use std::path::PathBuf;

/// Opens a shard directory holding fixture `v{version}_online_pb.pbss` as
/// both generations, and requires the open to fail naming the version
/// while leaving both files as they were.
fn assert_refused_and_left_untouched(version: u16) {
    let old = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/v{version}_online_pb.pbss")),
    )
    .expect("fixture is committed");
    assert_eq!(old[8..10], version.to_le_bytes(), "the fixture's version");

    let dir = std::env::temp_dir().join(format!(
        "pbppm-old-checkpoints-v{version}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let shard = dir.join("shard-000");
    std::fs::create_dir_all(&shard).unwrap();
    for name in ["current.pbss", "previous.pbss"] {
        std::fs::write(shard.join(name), &old).unwrap();
    }

    let err = ShardedServer::open(
        &dir.display().to_string(),
        PbConfig::default(),
        ShardedOptions::default(),
    )
    .err()
    .expect("an old checkpoint must not be served or replaced");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("unsupported snapshot version {version}")),
        "{msg}"
    );

    for name in ["current.pbss", "previous.pbss"] {
        assert!(
            std::fs::read(shard.join(name)).unwrap() == old,
            "{name} was rewritten"
        );
    }
    let mut left: Vec<String> = std::fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["current.pbss", "previous.pbss"], "nothing written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_3_checkpoints_are_refused_and_left_untouched() {
    assert_refused_and_left_untouched(3);
}

#[test]
fn version_4_checkpoints_are_refused_and_left_untouched() {
    assert_refused_and_left_untouched(4);
}
