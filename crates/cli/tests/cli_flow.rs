//! End-to-end CLI flow: generate → analyze → train → predict → simulate,
//! driving the command functions directly with temp files.

use pbppm_cli::args::Args;
use pbppm_cli::commands;
use pbppm_core::SnapshotFile;
use std::path::PathBuf;

fn args(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(|s| s.to_string())).expect("parse")
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbppm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_analyze_train_predict_simulate() {
    let log = temp("flow.log");
    let model = temp("flow-model.pbss");
    let log_s = log.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    // generate
    commands::generate(&args(&["--preset", "tiny", "--out", log_s, "--seed", "5"]))
        .expect("generate");
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(text.lines().count() > 1000, "log should have many lines");
    assert!(text.contains("GET"));

    // analyze (both modes)
    commands::analyze(&args(&[log_s])).expect("analyze");
    commands::analyze(&args(&[log_s, "--json"])).expect("analyze --json");

    // train and query each model kind
    for (kind, label) in [
        ("pb", "PB-PPM"),
        ("standard", "PPM"),
        ("lrs", "LRS-PPM"),
        ("o1", "O1"),
    ] {
        commands::train(&args(&[
            log_s,
            "--out",
            model_s,
            "--model",
            kind,
            "--aggressive-prune",
        ]))
        .unwrap_or_else(|e| panic!("train {kind}: {e}"));
        let file = SnapshotFile::read(&model).expect("read snapshot");
        assert!(!file.urls.is_empty());
        assert_eq!(file.model.kind_label(), label);
        let m = file.instantiate().expect("instantiate");
        assert!(m.node_count() > 0, "{kind} snapshot holds a model");
        let _ = m.stats();
        commands::predict(&args(&[model_s, "--context", "/l0/p0.html", "--top", "3"]))
            .unwrap_or_else(|e| panic!("predict {kind}: {e}"));
    }

    // train PB again for predict
    commands::train(&args(&[log_s, "--out", model_s])).expect("train default");

    // predict against a URL known to exist in the generated site
    commands::predict(&args(&[model_s, "--context", "/l0/p0.html", "--top", "5"]))
        .expect("predict");
    commands::predict(&args(&[model_s, "--context", "/l0/p0.html", "--json"]))
        .expect("predict --json");

    // simulate from the log and from a preset
    commands::simulate(&args(&[log_s, "--model", "pb", "--train-days", "2"]))
        .expect("simulate log");
    commands::simulate(&args(&[
        "--preset", "tiny", "--seed", "5", "--model", "lrs", "--json",
    ]))
    .expect("simulate preset");
}

#[test]
fn metrics_report_flow() {
    // A simulate run populates the global telemetry registry and spans.
    commands::simulate(&args(&["--preset", "tiny", "--seed", "7", "--model", "pb"]))
        .expect("simulate");
    let report = pbppm_obs::RunReport::collect("simulate");
    assert!(report.telemetry_enabled);
    assert!(
        report.find_span("experiment").is_some(),
        "simulate should record an experiment span"
    );
    assert!(
        report.find_span("train").is_some() && report.find_span("eval").is_some(),
        "experiment should carry its phase children"
    );

    // Write what `--metrics-out` writes, then render it with `stats`.
    let path = temp("metrics.json");
    std::fs::write(&path, report.to_json()).unwrap();
    commands::stats(&args(&[path.to_str().unwrap()])).expect("stats");
    commands::stats(&args(&[path.to_str().unwrap(), "--prom"])).expect("stats --prom");

    // Error paths: missing file, malformed file, no path at all.
    assert!(commands::stats(&args(&["/nonexistent/metrics.json"])).is_err());
    let bad = temp("bad-metrics.json");
    std::fs::write(&bad, "not json").unwrap();
    assert!(commands::stats(&args(&[bad.to_str().unwrap()])).is_err());
    assert!(commands::stats(&args(&[])).is_err());
}

#[test]
fn helpful_errors() {
    // missing required option
    assert!(commands::generate(&args(&["--preset", "tiny"])).is_err());
    // unknown preset
    let out = temp("x.log");
    assert!(commands::generate(&args(&[
        "--preset",
        "bogus",
        "--out",
        out.to_str().unwrap()
    ]))
    .is_err());
    // missing file
    assert!(commands::analyze(&args(&["/nonexistent/zzz.log"])).is_err());
    // unknown model kind
    let log = temp("err.log");
    commands::generate(&args(&[
        "--preset",
        "tiny",
        "--out",
        log.to_str().unwrap(),
        "--seed",
        "1",
    ]))
    .unwrap();
    assert!(commands::train(&args(&[
        log.to_str().unwrap(),
        "--out",
        temp("err-model.pbss").to_str().unwrap(),
        "--model",
        "bogus"
    ]))
    .is_err());
    // unknown option
    assert!(commands::analyze(&args(&[log.to_str().unwrap(), "--bogus", "1"])).is_err());
    // predict with a context never seen
    let model = temp("err2-model.pbss");
    commands::train(&args(&[
        log.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(commands::predict(&args(&[
        model.to_str().unwrap(),
        "--context",
        "/never/seen.html"
    ]))
    .is_err());
}
