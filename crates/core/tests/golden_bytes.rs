//! Golden bytes for the `.pbss` format: one small committed file per model
//! kind under `tests/fixtures/`. Training the same models again must encode
//! to each file byte for byte, and a fixture decoded, loaded into its model
//! and written back out must reproduce itself. Together the two pin the
//! on-disk format independently of the encoder that happens to write it.

use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{
    OnlinePbPpm, Order1Markov, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig,
    StandardPpm, UrlId,
};
use std::path::PathBuf;

fn u(n: u32) -> UrlId {
    UrlId(n)
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn urls() -> Vec<String> {
    (0..8).map(|i| format!("/g/{i}.html")).collect()
}

/// A fixed trace with repeats (so LRS keeps paths), interior matches and
/// popular URLs deep in branches (so PB-PPM grows special links).
fn sessions() -> Vec<Vec<UrlId>> {
    let mut out = Vec::new();
    for round in 0..3u32 {
        out.push(vec![u(0), u(1), u(2), u(3), u(4), u(5)]);
        out.push(vec![u(3), u(1), u(2), u(0)]);
        out.push(vec![u(0), u(2), u(6 + round % 2), u(3)]);
    }
    out.push(vec![u(7), u(1)]);
    out
}

fn popularity() -> PopularityTable {
    PopularityTable::from_counts(vec![1000, 50, 5, 1000, 50, 5, 1, 1])
}

fn trained<M: Predictor>(mut m: M) -> M {
    for s in &sessions() {
        m.train_session(s);
    }
    m.finalize();
    m
}

/// Every model kind the codec writes, trained on the fixed trace.
fn files() -> Vec<(&'static str, ModelImage)> {
    let pb = trained(PbPpm::new(
        popularity(),
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        },
    ));
    let mut online = OnlinePbPpm::new(PbConfig::default(), 6, 4);
    for s in &sessions() {
        online.train_session(s);
    }
    vec![
        ("pb.pbss", ModelImage::Pb(pb.to_snapshot())),
        (
            "standard.pbss",
            ModelImage::Standard(trained(StandardPpm::new(Some(4))).to_snapshot()),
        ),
        (
            "lrs.pbss",
            ModelImage::Standard(trained(StandardPpm::lrs()).to_snapshot()),
        ),
        (
            "order1.pbss",
            ModelImage::Order1(trained(Order1Markov::new()).to_snapshot()),
        ),
        ("online_pb.pbss", ModelImage::OnlinePb(online.to_snapshot())),
    ]
}

fn encode(model: ModelImage) -> Vec<u8> {
    SnapshotFile {
        urls: urls(),
        model,
    }
    .encode()
}

/// Loads a decoded image into its model and takes the image back out.
fn reload(model: &ModelImage) -> ModelImage {
    match model {
        ModelImage::Pb(s) => ModelImage::Pb(PbPpm::from_snapshot(s).expect("pb").to_snapshot()),
        ModelImage::Standard(s) => ModelImage::Standard(
            StandardPpm::from_snapshot(s)
                .expect("ppm or lrs")
                .to_snapshot(),
        ),
        ModelImage::Order1(s) => {
            ModelImage::Order1(Order1Markov::from_snapshot(s).expect("o1").to_snapshot())
        }
        ModelImage::OnlinePb(s) => {
            ModelImage::OnlinePb(OnlinePbPpm::from_snapshot(s).expect("online").to_snapshot())
        }
    }
}

#[test]
fn pb_fixture_carries_special_links() {
    let Some((_, ModelImage::Pb(snap))) = files().into_iter().next() else {
        panic!("the first fixture is the PB model");
    };
    assert!(!snap.tree.links.is_empty(), "the PB fixture must link");
}

#[test]
fn encoders_reproduce_the_golden_files() {
    for (name, model) in files() {
        let golden = std::fs::read(fixture(name)).expect("fixture is committed");
        assert!(encode(model) == golden, "{name}: encoding drifted");
    }
}

#[test]
fn golden_files_survive_decode_load_and_encode() {
    for (name, _) in files() {
        let golden = std::fs::read(fixture(name)).expect("fixture is committed");
        let file = SnapshotFile::decode(&golden).expect("fixture decodes");
        assert!(file.encode() == golden, "{name}: decode → encode drifted");
        assert!(
            encode(reload(&file.model)) == golden,
            "{name}: decode → load → encode drifted"
        );
        file.instantiate().expect("fixture instantiates");
    }
}
