//! The metric catalogue and a run's outcome.
//!
//! Every workload reports every end-to-end metric and every per-layer
//! metric; an untraced run's result object carries the end-to-end ones, a
//! traced run's the per-layer ones. The tables below are the single list
//! of names, units and directions, and a unit test holds them equal to
//! `BENCHMARK.json`. Each workload also reports extra, workload-specific
//! numbers (sample counts, train latency, SLO share, …) as human-readable
//! lines; those are not part of the result object.

/// Name, unit and direction of one metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees, with bounds in `BENCHMARK.json`.
/// README.md says what each means on each workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("hit_ratio", "fraction"),
    lower("model_bytes", "B"),
    lower("snapshot_bytes", "B"),
];

/// One layer each, named after the module (or benchmark stage) measured.
/// The `e2e.` timings are end-to-end numbers whose run-to-run spread on a
/// shared host is too wide for a regression bound (README.md records it);
/// they are reported here, without a bound, and measured in every run.
pub const PER_LAYER: &[MetricDef] = &[
    lower("e2e.latency_p50_us", "us"),
    lower("e2e.latency_p99_us", "us"),
    higher("e2e.throughput_per_s", "1/s"),
    lower("e2e.load_ms", "ms"),
    lower("frontend.queue_wait_p50_us", "us"),
    lower("frontend.queue_wait_p99_us", "us"),
    higher("frontend.batch_size_mean", "count"),
    lower("frontend.self_us_per_batch", "us"),
    lower("sharded.batches", "count"),
    lower("sharded.dispatch_p50_us", "us"),
    lower("sharded.dispatch_p99_us", "us"),
    lower("sharded.busy_share", "fraction"),
    lower("sharded.overhead_us_per_req", "us"),
    lower("sharded.stall_batches", "count"),
    lower("sharded.stall_share", "fraction"),
    higher("sharded.publishes", "count"),
    lower("sharded.publish_rejected", "count"),
    lower("publish.route_ns", "ns"),
    lower("publish.epoch_read_ns", "ns"),
    lower("publish.clone_ms", "ms"),
    lower("interner.lookup_ns", "ns"),
    lower("match.predict_ro_ns", "ns"),
    higher("match.covered_share", "fraction"),
    higher("match.precision", "fraction"),
    lower("render.ns", "ns"),
    lower("live.observe_us", "us"),
    lower("pb_online.rebuild_ms_p50", "ms"),
    lower("pb_online.rebuild_ms_p99", "ms"),
    higher("pb_online.window_sessions", "count"),
    lower("verify.audit_ms", "ms"),
    lower("ingest.parse_ms", "ms"),
    higher("ingest.lines_per_s", "1/s"),
    lower("ingest.peak_mb", "MB"),
    lower("session.sessionize_ms", "ms"),
    lower("popularity.count_ms", "ms"),
    lower("pb.train_ms", "ms"),
    lower("pb.finalize_ms", "ms"),
    lower("snapshot.encode_ms", "ms"),
    lower("snapshot.decode_ms", "ms"),
    lower("snapshot.instantiate_ms", "ms"),
    lower("model.nodes", "count"),
    lower("model.frozen_bytes", "B"),
    lower("model.bytes_per_node", "B"),
    lower("trace.overhead_share", "fraction"),
];

/// Looks a metric up in either table.
pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, or build rounds plus checks).
    pub attempted: u64,
    /// Operations that failed: `err` or missing responses.
    pub failed: u64,
    /// Correctness problems found by the output checks; empty when correct.
    pub problems: Vec<String>,
    /// Why the run's numbers describe something other than the workload
    /// (an open loop whose backlog grew); empty when valid.
    pub invalid: Vec<String>,
    pub end_to_end: Vec<Value>,
    pub per_layer: Vec<Value>,
    /// Workload-specific numbers, printed but not part of the result.
    pub extra: Vec<Value>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64) {
        let value = self.finite(name, value);
        push(&mut self.end_to_end, name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let value = self.finite(name, value);
        push(&mut self.per_layer, name, value);
    }

    /// JSON has no NaN or infinity; a metric that is neither finite nor
    /// meaningful is a failed check.
    fn finite(&mut self, name: &str, value: f64) -> f64 {
        if value.is_finite() {
            value
        } else {
            self.problems.push(format!("{name} measured {value}"));
            0.0
        }
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Value {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Records `msg` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(msg());
        }
    }

    /// Whether the outputs checked out and the run was valid.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.invalid.is_empty() && self.failed == 0
    }

    /// Panics unless exactly the catalogued metrics of the requested kind
    /// were reported — a missing metric is a bug in this benchmark.
    pub fn assert_complete(&self, traced: bool) {
        let (have, want) = if traced {
            (&self.per_layer, PER_LAYER)
        } else {
            (&self.end_to_end, END_TO_END)
        };
        let mut have: Vec<&str> = have.iter().map(|v| v.name.as_str()).collect();
        let mut want: Vec<&str> = want.iter().map(|d| d.name).collect();
        have.sort_unstable();
        want.sort_unstable();
        assert_eq!(have, want, "reported metrics differ from the catalogue");
    }
}

fn push(into: &mut Vec<Value>, name: &str, value: f64) {
    let def = definition(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
    into.retain(|v| v.name != name);
    into.push(Value {
        name: name.to_owned(),
        value,
        unit: def.unit,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are limited to what the result format accepts.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
        }
        assert!(!valid_name("has space"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("µs"));
        assert!(valid_name("a.b-c_9"));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names are unique");
    }

    /// The catalogue is what `BENCHMARK.json` at the repository root
    /// declares, name for name, unit for unit, direction for direction.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = crate::compare::field(&doc, key)
                .and_then(serde_json::Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
            let declared: Vec<(String, String, String)> = declared
                .iter()
                .map(|m| {
                    let s = |k: &str| match crate::compare::field(m, k) {
                        Some(serde_json::Value::Str(s)) => s.clone(),
                        other => panic!("{key}: field {k} is {other:?}"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
                })
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
