//! End-to-end CLI flow: generate → analyze → train → predict → simulate,
//! driving the command functions directly with temp files.

mod common;

use common::TempDir;
use pbppm_cli::args::Args;
use pbppm_cli::commands;
use pbppm_core::SnapshotFile;

fn args(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(|s| s.to_string())).expect("parse")
}

#[test]
fn generate_analyze_train_predict_simulate() {
    let tmp = TempDir::new("generate_analyze_train_predict_simulate");
    let log = tmp.join("flow.log");
    let model = tmp.join("flow-model.pbss");
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
    let tmp = TempDir::new("metrics_report_flow");
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
    let path = tmp.join("metrics.json");
    std::fs::write(&path, report.to_json()).unwrap();
    commands::stats(&args(&[path.to_str().unwrap()])).expect("stats");
    commands::stats(&args(&[path.to_str().unwrap(), "--prom"])).expect("stats --prom");

    // Error paths: missing file, malformed file, no path at all.
    assert!(commands::stats(&args(&["/nonexistent/metrics.json"])).is_err());
    let bad = tmp.join("bad-metrics.json");
    std::fs::write(&bad, "not json").unwrap();
    assert!(commands::stats(&args(&[bad.to_str().unwrap()])).is_err());
    assert!(commands::stats(&args(&[])).is_err());
}

#[test]
fn helpful_errors() {
    let tmp = TempDir::new("helpful_errors");
    // missing required option
    assert!(commands::generate(&args(&["--preset", "tiny"])).is_err());
    // unknown preset
    let out = tmp.join("x.log");
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
    let log = tmp.join("err.log");
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
        tmp.join("err-model.pbss").to_str().unwrap(),
        "--model",
        "bogus"
    ]))
    .is_err());
    // unknown option
    assert!(commands::analyze(&args(&[log.to_str().unwrap(), "--bogus", "1"])).is_err());
    // predict with a context never seen
    let model = tmp.join("err2-model.pbss");
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

/// `pbppm analyze <log> --json` through the real binary: its raw output
/// and its top-level fields.
fn analyze_json(log: &std::path::Path) -> (String, Vec<(String, serde_json::Value)>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pbppm"))
        .args(["analyze", log.to_str().unwrap(), "--json"])
        .output()
        .expect("run pbppm analyze");
    assert!(out.status.success(), "analyze failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).expect("analyze --json output");
    let fields = value.as_object().expect("a JSON object").to_vec();
    (text, fields)
}

fn field<'a>(fields: &'a [(String, serde_json::Value)], key: &str) -> &'a serde_json::Value {
    &fields.iter().find(|(k, _)| k == key).expect(key).1
}

fn count(fields: &[(String, serde_json::Value)], key: &str) -> u64 {
    match field(fields, key) {
        serde_json::Value::UInt(n) => *n,
        other => panic!("{key} is not a count: {other:?}"),
    }
}

#[test]
fn audit_splits_each_model_file_into_sections_that_sum_to_its_size() {
    let tmp = TempDir::new("audit_splits_each_model_file_into_sections_that_sum_to_its_size");
    let log = tmp.join("split.log");
    let log_s = log.to_str().unwrap();
    commands::generate(&args(&["--preset", "tiny", "--out", log_s, "--seed", "5"]))
        .expect("generate");
    for kind in ["pb", "standard", "lrs", "o1"] {
        let model = tmp.join(format!("split-{kind}.pbss"));
        let model_s = model.to_str().unwrap();
        commands::train(&args(&[log_s, "--out", model_s, "--model", kind]))
            .unwrap_or_else(|e| panic!("train {kind}: {e}"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pbppm"))
            .args(["audit", model_s, "--json"])
            .output()
            .expect("run pbppm audit");
        assert!(out.status.success(), "audit {kind} failed: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).expect("audit --json output");
        let report = value.as_object().expect("a JSON object").to_vec();
        let split = field(&report, "bytes")
            .as_object()
            .expect("a bytes object")
            .to_vec();
        let size = std::fs::metadata(&model).unwrap().len();
        let sections = [
            "envelope",
            "urls",
            "popularity",
            "nodes",
            "window",
            "settings",
        ];
        let sum: u64 = sections.iter().map(|name| count(&split, name)).sum();
        assert_eq!(sum, size, "{kind}: {text}");
        assert_eq!(count(&split, "total"), size, "{kind}: {text}");
        assert!(
            count(&split, "urls") > 0 && count(&split, "nodes") > 0,
            "{kind}: {text}"
        );
        assert_eq!(
            count(&split, "popularity") > 0,
            kind == "pb",
            "{kind}: {text}"
        );
        assert_eq!(count(&split, "window"), 0, "{kind}: {text}");
    }
}

#[test]
fn combined_and_clf_logs_of_one_seed_train_identical_models() {
    let tmp = TempDir::new("combined_and_clf_logs_of_one_seed_train_identical_models");
    let mut models = Vec::new();
    for format in ["clf", "combined"] {
        let log = tmp.join(format!("dialect-{format}.log"));
        let model = tmp.join(format!("dialect-{format}.pbss"));
        let (log_s, model_s) = (log.to_str().unwrap(), model.to_str().unwrap());
        commands::generate(&args(&[
            "--preset", "tiny", "--seed", "3", "--out", log_s, "--format", format,
        ]))
        .expect("generate");
        commands::train(&args(&[log_s, "--out", model_s, "--model", "pb"])).expect("train");
        models.push(std::fs::read(&model).unwrap());

        let (summary, fields) = analyze_json(&log);
        assert_eq!(
            field(&fields, "format"),
            &serde_json::Value::Str(format.to_owned())
        );
        if format == "combined" {
            assert!(
                count(&fields, "ua_robots") >= 1,
                "the generated robot's user agent identifies it: {summary}"
            );
        }
    }
    assert!(
        models[0] == models[1],
        "the same requests in either dialect give the same model file"
    );
}

#[test]
fn an_invalid_utf8_byte_drops_no_following_line() {
    let tmp = TempDir::new("an_invalid_utf8_byte_drops_no_following_line");
    for format in ["clf", "combined"] {
        let log = tmp.join(format!("bad-byte-{format}.log"));
        let log_s = log.to_str().unwrap();
        commands::generate(&args(&[
            "--preset", "tiny", "--seed", "3", "--out", log_s, "--format", format,
        ]))
        .expect("generate");
        // Replace the first path character of line 2 with a byte that is
        // never valid UTF-8.
        let mut bytes = std::fs::read(&log).unwrap();
        let line2 = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let path = line2
            + bytes[line2..]
                .windows(5)
                .position(|w| w == b"GET /")
                .unwrap()
            + 5;
        bytes[path] = 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;

        let (summary, fields) = analyze_json(&log);
        let count = |k: &str| count(&fields, k);
        assert_eq!(
            count("accepted") + count("filtered") + count("malformed"),
            lines,
            "{format}: every line is counted, none dropped: {summary}"
        );
        assert_eq!(count("requests"), count("accepted"));
        assert!(count("accepted") >= lines - 1, "{format}: {summary}");
    }
}

#[test]
fn serve_answers_an_invalid_utf8_line_and_keeps_serving() {
    let tmp = TempDir::new("serve_answers_an_invalid_utf8_line_and_keeps_serving");
    use std::io::Write;
    use std::process::{Command, Stdio};
    let dir = tmp.join("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbppm"))
        .args([
            "serve",
            "--dir",
            dir.to_str().unwrap(),
            "--rebuild-every",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pbppm serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"train /a,/b\n\xff\xfe\npredict /a\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let status: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("ok") || l.starts_with("err"))
        .collect();
    assert_eq!(status.len(), 4, "one answer per line: {stdout}");
    assert!(status[1].starts_with("err unknown command"), "{stdout}");
    assert!(status[2].starts_with("ok 1"), "still serving: {stdout}");
    assert!(status[3].starts_with("ok bye"), "{stdout}");
}
