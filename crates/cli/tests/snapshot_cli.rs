//! Model file CLI flow: `train` → `predict` must serve the same bytes as
//! the in-process model, and corrupt model files must fail cleanly.

mod common;

use common::TempDir;
use pbppm_cli::args::Args;
use pbppm_cli::commands;
use pbppm_core::{Interner, SnapshotFile};
use pbppm_trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm_trace::{sessionize, SessionizerConfig};

fn args(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(|s| s.to_string())).expect("parse")
}

fn render(model: &mut dyn pbppm_core::Predictor, interner: &Interner, query: &Args) -> Vec<u8> {
    let mut buf = Vec::new();
    commands::run_predict(interner, model, query, &mut buf).expect("run_predict");
    buf
}

#[test]
fn train_then_predict_is_byte_identical_to_in_process_model() {
    let tmp = TempDir::new("train_then_predict_is_byte_identical_to_in_process_model");
    let log = tmp.join("identity.log");
    let log_s = log.to_str().unwrap();
    commands::generate(&args(&["--preset", "tiny", "--out", log_s, "--seed", "5"]))
        .expect("generate");

    // The same pipeline twice: once through `train` and the model file,
    // once in process as the reference.
    let snap_path = tmp.join("identity-model.pbss");
    commands::train(&args(&[log_s, "--out", snap_path.to_str().unwrap()])).expect("train");
    let snapshot = SnapshotFile::read(&snap_path).expect("read snapshot");
    let mut restored = snapshot.instantiate().expect("snapshot model");

    let (trace, _) =
        trace_from_clf_path(log_s, &log, &IngestConfig::default()).expect("ingest log");
    let sessions = sessionize(&trace.requests, &SessionizerConfig::default());
    let (_, mut reference) =
        commands::train_model("pb", &sessions, false, false, 0).expect("in-process model");
    // The file keeps the trace's id space and the strings of the ids the
    // model's rows name, each under its id.
    let arena = reference.frozen().expect("a finalized model");
    assert_eq!(snapshot.urls.len(), trace.urls.len());
    assert!(snapshot.urls.has_holes());
    assert!(trace
        .urls
        .iter()
        .filter(|&(id, _)| arena.holds(id))
        .eq(snapshot.urls.iter()));
    // A URL of the trace that no row names: both sides skip it.
    let (_, unnamed) = trace
        .urls
        .iter()
        .find(|&(id, _)| !arena.holds(id))
        .expect("an unnamed url");

    // Single context, batched contexts, text and JSON renderings: every
    // output byte must match the in-process model's. Contexts come from
    // the file's URL table itself, so they are guaranteed to resolve.
    let mut held = snapshot.urls.iter().map(|(_, url)| url);
    let (u0, u1) = (held.next().unwrap(), held.next().unwrap());
    let batch = format!("{u0},{unnamed},{u1};{u1};{unnamed}");
    for query in [
        args(&["--context", u0, "--top", "5"]),
        args(&["--context", &batch, "--top", "3"]),
        args(&["--context", &batch, "--json"]),
        args(&["--context", u0, "--json"]),
    ] {
        let a = render(reference.as_mut(), &trace.urls, &query);
        let b = render(restored.as_mut(), &snapshot.urls, &query);
        assert!(!a.is_empty());
        assert_eq!(a, b, "predict output diverged for {query:?}");
    }
    // The batch's last group keeps no URL: it answers no predictions, and
    // its header echoes the nothing it kept.
    let text = render(
        restored.as_mut(),
        &snapshot.urls,
        &args(&["--context", &batch]),
    );
    let text = String::from_utf8(text).unwrap();
    assert!(
        text.ends_with("context 3: \nno predictions for this context\n"),
        "{text}"
    );
    // A query that keeps no URL at all is refused.
    let mut out = Vec::new();
    let only_unnamed = args(&["--context", &format!("{unnamed};{unnamed}")]);
    assert!(
        commands::run_predict(&snapshot.urls, restored.as_mut(), &only_unnamed, &mut out).is_err()
    );
}

#[test]
fn predict_rejects_corruption_cleanly() {
    let tmp = TempDir::new("predict_rejects_corruption_cleanly");
    let log = tmp.join("corrupt.log");
    let log_s = log.to_str().unwrap();
    commands::generate(&args(&["--preset", "tiny", "--out", log_s, "--seed", "7"]))
        .expect("generate");
    let path = tmp.join("corrupt.pbss");
    let path_s = path.to_str().unwrap();
    commands::train(&args(&[log_s, "--out", path_s])).expect("train");
    commands::predict(&args(&[path_s, "--context", "/l0/p0.html"])).expect("clean file");

    let good = std::fs::read(&path).unwrap();
    // A flipped payload byte and a truncation both yield clean errors.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    std::fs::write(&path, &flipped).unwrap();
    assert!(commands::predict(&args(&[path_s, "--context", "/l0/p0.html"])).is_err());
    std::fs::write(&path, &good[..good.len() - 9]).unwrap();
    assert!(commands::predict(&args(&[path_s, "--context", "/l0/p0.html"])).is_err());
    // A log is not a model file.
    assert!(commands::predict(&args(&[log_s, "--context", "/l0/p0.html"])).is_err());
}
