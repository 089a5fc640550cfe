//! The `throughput` criterion group: single-click predict latency (each
//! model's serving path vs the `pbppm_core::reference` oracle), batched `predict_many`
//! throughput, and end-to-end eval-pass throughput, for all three paper
//! models. The `throughput` *binary* measures the same quantities at the
//! full day-7 NASA scale and enforces the fast-path floor; this group is
//! the statistically-sampled criterion view of the same surfaces.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pbppm_core::{
    reference, LrsPpm, PbConfig, PbPpm, PopularityTable, PredictUsage, Prediction, Predictor,
    PruneConfig, StandardPpm, UrlId,
};
use pbppm_sim::{run_experiment, ExperimentConfig, ModelSpec};
use pbppm_trace::{
    sessionize, sessionize_trace, Session, SessionizerConfig, Trace, WorkloadConfig,
};

fn trace_and_sessions() -> (Trace, Vec<Session>, PopularityTable) {
    let trace = WorkloadConfig::tiny(7).generate();
    let sessions = sessionize_trace(&trace);
    let pop = popularity(&sessions);
    (trace, sessions, pop)
}

/// The day-7 NASA-like training set — the same tree sizes the `throughput`
/// binary records in `results/throughput.json`.
fn day7_sessions() -> (Vec<Session>, PopularityTable) {
    let trace = WorkloadConfig::nasa_like(1).generate();
    let sessions = sessionize(trace.first_days(7), &SessionizerConfig::default());
    let pop = popularity(&sessions);
    (sessions, pop)
}

fn popularity(sessions: &[Session]) -> PopularityTable {
    let mut counts = PopularityTable::builder();
    for s in sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    counts.build()
}

fn train<P: Predictor>(mut model: P, sessions: &[Session]) -> P {
    for s in sessions {
        model.train_session(&s.urls());
    }
    model.finalize();
    model
}

fn contexts(sessions: &[Session]) -> Vec<Vec<UrlId>> {
    sessions
        .iter()
        .take(200)
        .flat_map(|s| {
            let urls = s.urls();
            (1..=urls.len().min(8))
                .map(move |k| urls[..k].to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_single_click(c: &mut Criterion) {
    let (sessions, pop) = day7_sessions();
    let mut standard = StandardPpm::unbounded();
    let mut lrs = LrsPpm::new();
    let mut pb = PbPpm::new(
        pop,
        PbConfig {
            prune: PruneConfig::aggressive(),
            ..PbConfig::default()
        },
    );
    for s in &sessions {
        let urls = s.urls();
        standard.train_session(&urls);
        lrs.train_session(&urls);
        pb.train_session(&urls);
    }
    // The oracles walk each model's tree as finalize would freeze it.
    let standard_tree = standard.reference_tree().expect("still training");
    let lrs_tree = lrs.reference_tree().expect("still training");
    let pb_tree = pb.reference_tree().expect("still training");
    standard.finalize();
    lrs.finalize();
    pb.finalize();
    let ctxs = contexts(&sessions);

    let mut group = c.benchmark_group("throughput/single-click");
    group.throughput(Throughput::Elements(ctxs.len() as u64));
    let mut run = |name: &str, predict: &mut dyn FnMut(&[UrlId], &mut Vec<Prediction>)| {
        group.bench_function(name, |b| {
            let mut out: Vec<Prediction> = Vec::new();
            b.iter(|| {
                let mut emitted = 0usize;
                for ctx in &ctxs {
                    predict(ctx, &mut out);
                    emitted += out.len();
                }
                emitted
            })
        });
    };
    let mut usage = PredictUsage::default();
    run("ppm-fast", &mut |ctx, out| {
        usage.clear();
        standard.predict_ro(ctx, out, &mut usage);
    });
    run("ppm-scan", &mut |ctx, out| {
        reference::predict_standard(&standard_tree, &standard, ctx, out);
    });
    let mut usage = PredictUsage::default();
    run("lrs-fast", &mut |ctx, out| {
        usage.clear();
        lrs.predict_ro(ctx, out, &mut usage);
    });
    run("lrs-scan", &mut |ctx, out| {
        reference::predict_lrs(&lrs_tree, &lrs, ctx, out)
    });
    let mut usage = PredictUsage::default();
    run("pb-fast", &mut |ctx, out| {
        usage.clear();
        pb.predict_ro(ctx, out, &mut usage);
    });
    let scan = reference::PbScan::new(&pb_tree, &pb);
    run("pb-scan", &mut |ctx, out| scan.predict(ctx, out));
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let (sessions, pop) = day7_sessions();
    let mut standard = train(StandardPpm::unbounded(), &sessions);
    let mut lrs = train(LrsPpm::new(), &sessions);
    let mut pb = train(PbPpm::new(pop, PbConfig::default()), &sessions);
    let ctxs = contexts(&sessions);
    let slices: Vec<&[UrlId]> = ctxs.iter().map(Vec::as_slice).collect();

    let mut group = c.benchmark_group("throughput/batched");
    group.throughput(Throughput::Elements(ctxs.len() as u64));
    let mut run = |name: &str, model: &mut dyn Predictor| {
        group.bench_function(name, |b| {
            let mut outs: Vec<Vec<Prediction>> = Vec::new();
            b.iter(|| {
                model.predict_many(&slices, &mut outs);
                outs.iter().map(Vec::len).sum::<usize>()
            })
        });
    };
    run("ppm", &mut standard);
    run("lrs", &mut lrs);
    run("pb-ppm", &mut pb);
    group.finish();
}

fn bench_eval_pass(c: &mut Criterion) {
    let (trace, _, _) = trace_and_sessions();
    let mut group = c.benchmark_group("throughput/eval-pass");
    for (name, spec) in [
        ("ppm", ModelSpec::Standard { max_height: None }),
        ("lrs", ModelSpec::Lrs),
        ("pb-ppm", ModelSpec::pb_paper(true)),
    ] {
        for threads in [1usize, 0] {
            let label = if threads == 1 { "serial" } else { "parallel" };
            group.bench_function(format!("{name}/{label}"), |b| {
                let mut cfg = ExperimentConfig::paper_default(spec.clone(), 2);
                cfg.threads = threads;
                b.iter(|| run_experiment(&trace, &cfg).counters.requests)
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single_click, bench_batched, bench_eval_pass
}
criterion_main!(benches);
