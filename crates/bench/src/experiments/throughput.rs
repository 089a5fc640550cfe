//! `throughput` — prediction and simulation speed of the paper models.
//!
//! Three measurements per paper model (PPM, LRS, PB-PPM) at day-7 NASA
//! tree sizes:
//!
//! 1. **single-click predict latency** — each model's one serving path
//!    ([`Predictor::predict_ro`] on the frozen arena) against the
//!    [`pbppm_core::reference`] oracle scan, nanoseconds per context, plus
//!    heap bytes per node of the frozen SoA/CSR arena;
//! 2. **batched predict throughput** — [`Predictor::predict_many`] over the
//!    whole context set, clicks per second;
//! 3. **end-to-end experiment throughput** — [`pbppm_sim::run_experiment`]
//!    serial (`threads = 1`) versus parallel (`threads = 0`, auto),
//!    evaluated requests per second.
//!
//! Results are printed as tables and written to
//! `results/throughput.json`, with the host's core count. Every run
//! enforces one host-independent floor and **exits non-zero** when it is
//! broken: each model's `fast_path_speedup` (reference scan time over
//! serving-path time, both measured in this process) must be at least
//! 1.0. The absolute timings are reported, never gated: they drift with
//! the host, so a speed claim is judged by a paired parent-vs-change
//! perfbench run instead (`scripts/perf-compare.sh`). Serving latency
//! under load is perfbench's `read-steady`, `read-saturate` and `churn`.

use crate::{nasa_trace, write_json, Table};
use pbppm_core::{
    reference, resolve_threads, PbConfig, PbPpm, PopularityTable, PredictUsage, Prediction,
    Predictor, PruneConfig, StandardPpm, UrlId,
};
use pbppm_sim::{run_experiment, ExperimentConfig, ModelSpec};
use pbppm_trace::{sessionize, Session, SessionizerConfig, Trace};
use serde::Serialize;
use std::time::Instant;

/// Training window: the deepest trees of the Table-1 sweep.
const TRAIN_DAYS: usize = 7;

/// One model's prediction-throughput measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ModelThroughput {
    /// Model label ("PPM", "LRS", "PB-PPM").
    pub model: String,
    /// Nodes in the tree the model answered from.
    pub nodes: usize,
    /// Serving fast path ([`Predictor::predict_ro`]), which answers from
    /// the frozen SoA/CSR arena — nanoseconds per single-click predict.
    pub frozen_ns_per_click: f64,
    /// Retained reference scan, nanoseconds per single-click predict.
    pub reference_ns_per_click: f64,
    /// `reference / frozen` — the serving path's speedup over the scan.
    /// Hard-gated `>= 1.0` for every model: the fast path must never lose
    /// to the reference it replaces.
    pub fast_path_speedup: f64,
    /// Frozen SoA/CSR arena heap, bytes per node.
    pub heap_bytes_per_node_frozen: f64,
    /// `predict_many` batched throughput, clicks per second.
    pub batched_clicks_per_sec: f64,
}

/// Best observed wall time of one experiment phase (a telemetry span).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseSecs {
    /// Span name ("sessionize", "baseline", "train", "eval", …).
    pub phase: String,
    /// Fastest observed duration across the timing repeats, seconds.
    pub secs: f64,
}

/// One model's end-to-end experiment timings.
#[derive(Debug, Clone, Serialize)]
pub struct EvalThroughput {
    /// Model label.
    pub model: String,
    /// Worker count the parallel run resolved to.
    pub threads: usize,
    /// Wall-clock seconds of the serial (`threads = 1`) experiment.
    pub serial_secs: f64,
    /// Wall-clock seconds of the parallel (auto-threaded) experiment.
    pub parallel_secs: f64,
    /// Evaluated requests per second, serial.
    pub serial_requests_per_sec: f64,
    /// Evaluated requests per second, parallel.
    pub parallel_requests_per_sec: f64,
    /// Per-phase breakdown from the experiment's telemetry spans, so the
    /// end-to-end time splits by phase.
    pub phases: Vec<PhaseSecs>,
}

/// Everything one `throughput` run measured.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Trace the measurements ran on.
    pub trace: String,
    /// Training-window length in days.
    pub train_days: usize,
    /// Contexts in the prediction working set.
    pub contexts: usize,
    /// Available parallelism of the measuring host.
    pub cores: usize,
    /// Per-model prediction throughput.
    pub models: Vec<ModelThroughput>,
    /// Per-model end-to-end experiment throughput.
    pub eval: Vec<EvalThroughput>,
}

/// Times one pass, then enough repetitions for ~0.5 s of samples split
/// into chunks, and returns the fastest chunk's mean seconds per pass.
/// The minimum is robust to transient scheduler/frequency noise, which a
/// single grand mean is not, so the two sides of `fast_path_speedup` are
/// each timed at their best. The checksum keeps the work alive.
fn secs_per_pass(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut checksum = pass();
    let once = t0.elapsed().as_secs_f64();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // positive, then clamped
    let reps = ((0.5 / once.max(1e-9)) as usize).clamp(5, 60);
    let per_chunk = reps.div_ceil(5);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..per_chunk {
            checksum = checksum.wrapping_add(pass());
        }
        best = best.min(t.elapsed().as_secs_f64() / per_chunk as f64);
    }
    std::hint::black_box(checksum);
    best
}

/// Seconds for one pass over all contexts through a per-click predictor.
fn time_clicks(
    contexts: &[Vec<UrlId>],
    mut predict: impl FnMut(&[UrlId], &mut Vec<Prediction>),
) -> f64 {
    let mut out: Vec<Prediction> = Vec::new();
    secs_per_pass(|| {
        let mut emitted = 0u64;
        for c in contexts {
            predict(c, &mut out);
            emitted += out.len() as u64;
        }
        emitted
    })
}

/// Seconds for one batched pass over all contexts.
fn time_batched(
    contexts: &[Vec<UrlId>],
    mut predict: impl FnMut(&[&[UrlId]], &mut Vec<Vec<Prediction>>),
) -> f64 {
    let slices: Vec<&[UrlId]> = contexts.iter().map(Vec::as_slice).collect();
    let mut outs: Vec<Vec<Prediction>> = Vec::new();
    secs_per_pass(|| {
        predict(&slices, &mut outs);
        outs.iter().map(Vec::len).sum::<usize>() as u64
    })
}

/// Raw per-model timings and sizes, before normalization.
struct RowInputs {
    /// Seconds per pass: frozen serving path, reference scan, batched pass.
    frozen: f64,
    slow: f64,
    batch: f64,
    /// Heap bytes of the frozen arena.
    frozen_bytes: usize,
}

fn model_row(label: &str, nodes: usize, n: usize, raw: &RowInputs) -> ModelThroughput {
    ModelThroughput {
        model: label.to_string(),
        nodes,
        frozen_ns_per_click: raw.frozen * 1e9 / n as f64,
        reference_ns_per_click: raw.slow * 1e9 / n as f64,
        fast_path_speedup: raw.slow / raw.frozen.max(1e-12),
        heap_bytes_per_node_frozen: raw.frozen_bytes as f64 / nodes.max(1) as f64,
        batched_clicks_per_sec: n as f64 / raw.batch.max(1e-12),
    }
}

/// Realistic single-click working set: every prefix (up to 8 clicks) of the
/// first 400 training sessions.
fn working_set(sessions: &[Session]) -> Vec<Vec<UrlId>> {
    sessions
        .iter()
        .take(400)
        .flat_map(|s| {
            let urls = s.urls();
            (1..=urls.len().min(8))
                .map(move |k| urls[..k].to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Best-of-N wall clock of `run`, with N sized for ~0.5 s of samples —
/// the same noise-robustness reason as `secs_per_pass`.
fn best_secs<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let mut out = run();
    let mut best = t0.elapsed().as_secs_f64().max(1e-9);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // positive, then clamped
    let reps = ((0.5 / best) as usize).clamp(2, 15);
    for _ in 0..reps {
        let t = Instant::now();
        out = run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (out, best)
}

/// Minimum duration of every phase child across this model's `experiment`
/// spans (serial and parallel repeats alike — the minimum is the same
/// noise-robust statistic as `secs_per_pass`).
fn min_phase_secs(roots: &[pbppm_obs::SpanRecord], span_label: &str) -> Vec<PhaseSecs> {
    let prefix = format!("model={span_label} ");
    let mut phases: Vec<PhaseSecs> = Vec::new();
    for root in roots
        .iter()
        .filter(|r| r.name == "experiment" && r.detail.starts_with(&prefix))
    {
        for child in &root.children {
            let secs = child.dur_ns as f64 / 1e9;
            match phases.iter_mut().find(|p| p.phase == child.name) {
                Some(p) => p.secs = p.secs.min(secs),
                None => phases.push(PhaseSecs {
                    phase: child.name.clone(),
                    secs,
                }),
            }
        }
    }
    phases
}

fn eval_row(trace: &Trace, label: &str, spec: ModelSpec) -> EvalThroughput {
    let mut cfg = ExperimentConfig::paper_default(spec, TRAIN_DAYS);
    let span_label = cfg.model.label();
    cfg.threads = 1;
    let (serial, serial_secs) = best_secs(|| run_experiment(trace, &cfg));
    cfg.threads = 0;
    let (parallel, parallel_secs) = best_secs(|| run_experiment(trace, &cfg));
    assert_eq!(
        serial.counters, parallel.counters,
        "{label}: thread count changed the results"
    );
    let phases = min_phase_secs(&pbppm_obs::spans::snapshot(), &span_label);
    EvalThroughput {
        model: label.to_string(),
        threads: resolve_threads(0),
        serial_secs,
        parallel_secs,
        serial_requests_per_sec: serial.eval_requests as f64 / serial_secs.max(1e-12),
        parallel_requests_per_sec: parallel.eval_requests as f64 / parallel_secs.max(1e-12),
        phases,
    }
}

/// The host-independent floor, checked on every run: each model's serving
/// path must beat the reference scan it replaced. Both sides are timed in
/// this process on the same contexts, so the ratio does not depend on the
/// host's speed. Before the frozen arena, PPM and LRS sat at 0.92x/0.99x;
/// the floor keeps that from coming back.
fn floor_failures(report: &ThroughputReport) -> Vec<String> {
    report
        .models
        .iter()
        .filter(|m| m.fast_path_speedup < 1.0)
        .map(|m| {
            format!(
                "{} fast path loses to the reference scan ({:.2}x, floor 1.0x)",
                m.model, m.fast_path_speedup
            )
        })
        .collect()
}

/// Runs the bench, writes `results/throughput.json`, and exits non-zero
/// when a model breaks the fast-path floor.
pub fn run() {
    // The telemetry report written below covers this step alone: under
    // `all`, the registry and the span collector already hold every
    // earlier step's.
    pbppm_obs::global().reset();
    pbppm_obs::spans::drain();
    let trace = nasa_trace();
    let train_sessions = sessionize(trace.first_days(TRAIN_DAYS), &SessionizerConfig::default());
    let contexts = working_set(&train_sessions);
    let mut counts = PopularityTable::builder();
    for s in &train_sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    let pop = counts.build();

    let mut standard = StandardPpm::unbounded();
    let mut lrs = StandardPpm::lrs();
    let mut pb = PbPpm::new(
        pop,
        PbConfig {
            prune: PruneConfig::aggressive(),
            ..PbConfig::default()
        },
    );
    let urls: Vec<Vec<UrlId>> = train_sessions
        .iter()
        .map(|s| s.views.iter().map(|v| v.url).collect())
        .collect();
    for s in &urls {
        standard.train_session(s);
        lrs.train_session(s);
        pb.train_session(s);
    }
    // The oracles count their own forests from the same sessions.
    let standard_counts = reference::PathCounts::standard(&standard, &urls);
    let lrs_counts = reference::PathCounts::standard(&lrs, &urls);
    let pb_counts = reference::PathCounts::pb(&pb, &urls);
    standard.finalize();
    lrs.finalize();
    pb.finalize();

    let mut usage = PredictUsage::default();
    let frozen_bytes =
        |f: Option<&pbppm_core::FrozenTree>| f.map_or(0, pbppm_core::FrozenTree::heap_bytes);
    let models = vec![
        {
            let raw = RowInputs {
                frozen: time_clicks(&contexts, |c, out| {
                    usage.clear();
                    standard.predict_ro(c, out, &mut usage);
                }),
                slow: time_clicks(&contexts, |c, out| {
                    reference::predict_standard(&standard_counts, &standard, c, out);
                }),
                batch: time_batched(&contexts, |cs, outs| standard.predict_many(cs, outs)),
                frozen_bytes: frozen_bytes(standard.frozen()),
            };
            model_row("PPM", standard.node_count(), contexts.len(), &raw)
        },
        {
            let raw = RowInputs {
                frozen: time_clicks(&contexts, |c, out| {
                    usage.clear();
                    lrs.predict_ro(c, out, &mut usage);
                }),
                slow: time_clicks(&contexts, |c, out| {
                    reference::predict_standard(&lrs_counts, &lrs, c, out);
                }),
                batch: time_batched(&contexts, |cs, outs| lrs.predict_many(cs, outs)),
                frozen_bytes: frozen_bytes(lrs.frozen()),
            };
            model_row("LRS", lrs.node_count(), contexts.len(), &raw)
        },
        {
            let scan = reference::PbScan::new(&pb_counts, &pb);
            let raw = RowInputs {
                frozen: time_clicks(&contexts, |c, out| {
                    usage.clear();
                    pb.predict_ro(c, out, &mut usage);
                }),
                slow: time_clicks(&contexts, |c, out| scan.predict(c, out)),
                batch: time_batched(&contexts, |cs, outs| pb.predict_many(cs, outs)),
                frozen_bytes: frozen_bytes(pb.frozen()),
            };
            model_row("PB-PPM", pb.node_count(), contexts.len(), &raw)
        },
    ];

    let eval = vec![
        eval_row(&trace, "PPM", ModelSpec::Standard { max_height: None }),
        eval_row(&trace, "LRS", ModelSpec::Lrs),
        eval_row(&trace, "PB-PPM", ModelSpec::pb_paper(true)),
    ];

    let report = ThroughputReport {
        trace: trace.name.clone(),
        train_days: TRAIN_DAYS,
        contexts: contexts.len(),
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        models,
        eval,
    };

    let mut predict_table = Table::new(
        format!(
            "Throughput — single-click predict, day-{TRAIN_DAYS} {} trees",
            report.trace
        ),
        &[
            "model",
            "nodes",
            "frozen ns/click",
            "scan ns/click",
            "vs scan",
            "B/node frozen",
            "batched clicks/s",
        ],
    );
    for m in &report.models {
        predict_table.row(vec![
            m.model.clone(),
            m.nodes.to_string(),
            format!("{:.0}", m.frozen_ns_per_click),
            format!("{:.0}", m.reference_ns_per_click),
            format!("{:.1}x", m.fast_path_speedup),
            format!("{:.0}", m.heap_bytes_per_node_frozen),
            format!("{:.2e}", m.batched_clicks_per_sec),
        ]);
    }
    predict_table.print();

    let mut eval_table = Table::new(
        format!(
            "Throughput — end-to-end experiment, {} workers",
            report.eval[0].threads
        ),
        &[
            "model",
            "serial s",
            "parallel s",
            "speedup",
            "parallel req/s",
        ],
    );
    for m in &report.eval {
        eval_table.row(vec![
            m.model.clone(),
            format!("{:.2}", m.serial_secs),
            format!("{:.2}", m.parallel_secs),
            format!("{:.1}x", m.serial_secs / m.parallel_secs.max(1e-12)),
            format!("{:.0}", m.parallel_requests_per_sec),
        ]);
    }
    eval_table.print();

    write_json("throughput", &report);

    // Full telemetry report (spans + metrics registry) for this run,
    // written before the floor check so it survives a failure; render it
    // with `pbppm stats`.
    let metrics_path = crate::results_dir().join("run_metrics_throughput.json");
    let metrics = pbppm_obs::RunReport::collect("bench throughput").to_json();
    match std::fs::write(&metrics_path, metrics + "\n") {
        Ok(()) => eprintln!("wrote {}", metrics_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", metrics_path.display()),
    }

    crate::enforce_floors("throughput", &floor_failures(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_floor_names_each_model_slower_than_its_scan() {
        let row = |label, frozen, slow| {
            let raw = RowInputs {
                frozen,
                slow,
                batch: 1.0,
                frozen_bytes: 0,
            };
            model_row(label, 10, 100, &raw)
        };
        let report = ThroughputReport {
            trace: "t".to_owned(),
            train_days: TRAIN_DAYS,
            contexts: 100,
            cores: 1,
            models: vec![
                row("PPM", 1.0, 2.0),
                row("LRS", 1.0, 1.0),
                row("PB-PPM", 2.0, 1.0),
            ],
            eval: Vec::new(),
        };
        let failures = floor_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("PB-PPM fast path loses"),
            "{failures:?}"
        );
    }
}
