//! The reproduction gate behind `all --check`: every committed
//! `results/*.json` must be regenerated exactly, field for field.
//!
//! Only fields that measure the host or the clock rather than the model
//! are exempt, and each is named in [`TIMING_FIELDS`]. Everything else —
//! node counts, hit ratios, latency reductions, traffic, byte sizes — must
//! compare equal, so a change that moves a reproduced number fails the
//! check with the JSON path and both values. A result file on one side
//! only is a mismatch too: a new experiment output must be committed, and
//! a retired one deleted.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;

/// Fields exempt from the comparison, as `(file, path)` with array indices
/// written `[]`: wall-clock times, rates and percentiles, peak-heap
/// readings (zero without the counting allocator), and the host's core
/// count.
pub const TIMING_FIELDS: &[(&str, &str)] = &[
    ("throughput.json", ".models[].frozen_ns_per_click"),
    ("throughput.json", ".models[].reference_ns_per_click"),
    ("throughput.json", ".models[].fast_path_speedup"),
    ("throughput.json", ".models[].batched_clicks_per_sec"),
    ("throughput.json", ".eval[].threads"),
    ("throughput.json", ".eval[].serial_secs"),
    ("throughput.json", ".eval[].parallel_secs"),
    ("throughput.json", ".eval[].serial_requests_per_sec"),
    ("throughput.json", ".eval[].parallel_requests_per_sec"),
    ("throughput.json", ".eval[].phases[].secs"),
    ("throughput.json", ".cores"),
    ("ingest.json", ".cores"),
    ("ingest.json", ".effective_threads"),
    ("ingest.json", ".parse_lines_per_sec"),
    ("ingest.json", ".train_sessions_per_sec"),
    ("ingest.json", ".parallel_peak_bytes"),
    ("ingest.json", ".sequential_peak_bytes"),
    ("ingest.json", ".peak_ratio"),
    ("ingest.json", ".phases[].sequential_secs"),
    ("ingest.json", ".phases[].parallel_secs"),
    ("ingest.json", ".phases[].speedup"),
];

/// Files not compared at all: the telemetry dump of whichever process
/// wrote it last. Under `all` the process-wide registry also holds every
/// earlier experiment's metrics, so it is not a result of the throughput
/// step alone.
pub const SKIPPED_FILES: &[&str] = &["run_metrics_throughput.json"];

fn text(v: Option<&Value>) -> String {
    v.map_or_else(
        || "(absent)".to_owned(),
        |v| serde_json::to_string(v).unwrap_or_else(|e| format!("(unprintable: {e})")),
    )
}

/// Walks two JSON values in step, appending one `file: path: committed X,
/// regenerated Y` line per differing field. `path` spells indices;
/// `pattern` is the same path with `[]`, for [`TIMING_FIELDS`] lookups.
fn compare(
    file: &str,
    (path, pattern): (&str, &str),
    a: Option<&Value>,
    b: Option<&Value>,
    out: &mut Vec<String>,
) {
    if TIMING_FIELDS.contains(&(file, pattern)) {
        return;
    }
    match (a, b) {
        (Some(Value::Object(x)), Some(Value::Object(y))) => {
            let extra = y.iter().filter(|(k, _)| field(x, k).is_none());
            for (key, _) in x.iter().chain(extra) {
                let at = (format!("{path}.{key}"), format!("{pattern}.{key}"));
                compare(file, (&at.0, &at.1), field(x, key), field(y, key), out);
            }
        }
        (Some(Value::Array(x)), Some(Value::Array(y))) if x.len() == y.len() => {
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                let at = (format!("{path}[{i}]"), format!("{pattern}[]"));
                compare(file, (&at.0, &at.1), Some(va), Some(vb), out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!(
            "{file}: {path}: committed {}, regenerated {}",
            text(a),
            text(b)
        )),
    }
}

fn field<'a>(object: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    object.iter().find(|e| e.0 == key).map(|e| &e.1)
}

fn read(path: &Path) -> Result<Value, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&s).map_err(|e| format!("{}: {e}", path.display()))
}

/// The compared result files in `dir`: every `.json` not in
/// [`SKIPPED_FILES`].
fn result_names(dir: &Path) -> Result<BTreeSet<String>, String> {
    Ok(std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json") && !SKIPPED_FILES.contains(&name.as_str()))
        .collect())
}

/// Compares the result files of both directories, by the union of their
/// names, returning one line per field that differs and one per file
/// present on one side only.
pub fn compare_dirs(committed: &Path, regenerated: &Path) -> Result<Vec<String>, String> {
    let (a_names, b_names) = (result_names(committed)?, result_names(regenerated)?);
    let mut out = Vec::new();
    for name in a_names.union(&b_names) {
        let (in_a, in_b) = (a_names.contains(name), b_names.contains(name));
        if in_a && in_b {
            let (a, b) = (read(&committed.join(name))?, read(&regenerated.join(name))?);
            compare(name, ("", ""), Some(&a), Some(&b), &mut out);
        } else {
            let side = |present: bool| if present { "present" } else { "(absent)" };
            out.push(format!(
                "{name}: committed {}, regenerated {}",
                side(in_a),
                side(in_b)
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    fn diff(file: &str, a: &str, b: &str) -> Vec<String> {
        let mut out = Vec::new();
        compare(file, ("", ""), Some(&parse(a)), Some(&parse(b)), &mut out);
        out
    }

    #[test]
    fn equal_documents_have_no_mismatch() {
        let doc = r#"{"cells": [{"nodes": 3, "hit": 0.25}], "trace": "nasa"}"#;
        assert!(diff("table1.json", doc, doc).is_empty());
    }

    #[test]
    fn a_changed_field_names_its_path_and_both_values() {
        let out = diff(
            "table1.json",
            r#"{"cells": [{"nodes": 3}, {"nodes": 4}]}"#,
            r#"{"cells": [{"nodes": 3}, {"nodes": 5}]}"#,
        );
        assert_eq!(
            out,
            vec!["table1.json: .cells[1].nodes: committed 4, regenerated 5".to_owned()]
        );
    }

    #[test]
    fn missing_fields_and_resized_arrays_are_mismatches() {
        assert_eq!(
            diff("a.json", r#"{"x": 1}"#, r#"{}"#),
            vec!["a.json: .x: committed 1, regenerated (absent)".to_owned()]
        );
        assert_eq!(diff("a.json", r#"{}"#, r#"{"x": 1}"#).len(), 1);
        let out = diff("a.json", r#"{"xs": [1, 2]}"#, r#"{"xs": [1]}"#);
        assert_eq!(
            out,
            vec!["a.json: .xs: committed [1,2], regenerated [1]".to_owned()]
        );
    }

    /// A scratch directory holding `files` as `(name, contents)`.
    fn dir_with(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pbppm-check-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in files {
            std::fs::write(dir.join(name), body).unwrap();
        }
        dir
    }

    #[test]
    fn a_file_on_one_side_only_is_a_mismatch() {
        let committed = dir_with(
            "committed",
            &[
                ("kept.json", r#"{"x": 1}"#),
                ("retired.json", r#"{"x": 1}"#),
                ("run_metrics_throughput.json", "{}"),
            ],
        );
        let regenerated = dir_with(
            "regenerated",
            &[("kept.json", r#"{"x": 2}"#), ("added.json", r#"{"x": 1}"#)],
        );
        let out = compare_dirs(&committed, &regenerated);
        let _ = std::fs::remove_dir_all(&committed);
        let _ = std::fs::remove_dir_all(&regenerated);
        assert_eq!(
            out.unwrap(),
            vec![
                "added.json: committed (absent), regenerated present".to_owned(),
                "kept.json: .x: committed 1, regenerated 2".to_owned(),
                "retired.json: committed present, regenerated (absent)".to_owned(),
            ]
        );
    }

    /// Collects the path of every field in `v`, indices written `[]` as
    /// [`compare`] spells them for [`TIMING_FIELDS`] lookups.
    fn patterns(pattern: &str, v: &Value, out: &mut BTreeSet<String>) {
        out.insert(pattern.to_owned());
        match v {
            Value::Object(entries) => {
                for (key, v) in entries {
                    patterns(&format!("{pattern}.{key}"), v, out);
                }
            }
            Value::Array(items) => {
                for v in items {
                    patterns(&format!("{pattern}[]"), v, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn every_exemption_names_a_committed_file_and_field() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for file in SKIPPED_FILES {
            assert!(
                results.join(file).is_file(),
                "skipped {file} is not in results/"
            );
        }
        for (file, path) in TIMING_FIELDS {
            let doc = read(&results.join(file)).unwrap();
            let mut fields = BTreeSet::new();
            patterns("", &doc, &mut fields);
            assert!(fields.contains(*path), "{file}: no field matches {path}");
        }
    }

    #[test]
    fn timing_fields_are_exempt_only_where_named() {
        let a = r#"{"models": [{"nodes": 9, "frozen_ns_per_click": 100.0}]}"#;
        let b = r#"{"models": [{"nodes": 9, "frozen_ns_per_click": 140.0}]}"#;
        assert!(diff("throughput.json", a, b).is_empty());
        // The same key in a file that does not name it is compared.
        assert_eq!(diff("table1.json", a, b).len(), 1);
    }
}
