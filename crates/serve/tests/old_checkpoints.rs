//! Checkpoints from an older model-file format are refused, not replaced.
//!
//! `fixtures/v3_online_pb.pbss` is an online PB-PPM checkpoint in format
//! version 3, which wrote each tree edge twice and is no longer read.
//! A shard directory holding only such files must stop `open` with an
//! error naming the version; serving on from a fresh model would write
//! the next checkpoint over the files the operator still has to retrain
//! from.

use pbppm_core::PbConfig;
use pbppm_serve::{ShardedOptions, ShardedServer};
use std::path::PathBuf;

#[test]
fn version_3_checkpoints_are_refused_and_left_untouched() {
    let v3 = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3_online_pb.pbss"),
    )
    .expect("fixture is committed");
    assert_eq!(v3[8..10], 3u16.to_le_bytes(), "the fixture is version 3");

    let dir = std::env::temp_dir().join(format!("pbppm-old-checkpoints-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shard = dir.join("shard-000");
    std::fs::create_dir_all(&shard).unwrap();
    for name in ["current.pbss", "previous.pbss"] {
        std::fs::write(shard.join(name), &v3).unwrap();
    }

    let err = ShardedServer::open(
        &dir.display().to_string(),
        PbConfig::default(),
        ShardedOptions::default(),
    )
    .err()
    .expect("a version 3 checkpoint must not be served or replaced");
    let msg = err.to_string();
    assert!(msg.contains("unsupported snapshot version 3"), "{msg}");

    for name in ["current.pbss", "previous.pbss"] {
        assert!(
            std::fs::read(shard.join(name)).unwrap() == v3,
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
