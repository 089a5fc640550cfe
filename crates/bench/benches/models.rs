//! Model-level performance benchmarks.
//!
//! The paper's operational claim is that "with the efficient data structure
//! of compacted trees, the proposed technique significantly reduces the Web
//! server processing time for prefetching". These benches quantify it:
//! training throughput, per-request prediction latency, and the cost of the
//! post-build space optimization, for each model.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use pbppm_core::{
    PbConfig, PbPpm, PopularityTable, Prediction, Predictor, PruneConfig, StandardPpm, UrlId,
};
use pbppm_trace::{sessionize_trace, Session, WorkloadConfig};

fn training_data() -> (Vec<Session>, PopularityTable) {
    let trace = WorkloadConfig::tiny(7).generate();
    let sessions = sessionize_trace(&trace);
    let mut counts = PopularityTable::builder();
    for s in &sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    let pop = counts.build();
    (sessions, pop)
}

fn train<P: Predictor>(mut model: P, sessions: &[Session]) -> P {
    for s in sessions {
        model.train_session(&s.urls());
    }
    model.finalize();
    model
}

fn bench_build(c: &mut Criterion) {
    let (sessions, pop) = training_data();
    let views: u64 = sessions.iter().map(|s| s.len() as u64).sum();
    let mut group = c.benchmark_group("build");
    group.throughput(Throughput::Elements(views));
    group.bench_function("standard-ppm", |b| {
        b.iter(|| train(StandardPpm::unbounded(), &sessions).node_count())
    });
    group.bench_function("lrs-ppm", |b| {
        b.iter(|| train(StandardPpm::lrs(), &sessions).node_count())
    });
    group.bench_function("pb-ppm", |b| {
        b.iter(|| train(PbPpm::new(pop.clone(), PbConfig::default()), &sessions).node_count())
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (sessions, pop) = training_data();
    let standard = train(StandardPpm::unbounded(), &sessions);
    let lrs = train(StandardPpm::lrs(), &sessions);
    let pb = train(PbPpm::new(pop, PbConfig::default()), &sessions);

    // Realistic contexts: the prefixes of the first 200 sessions.
    let contexts: Vec<Vec<UrlId>> = sessions
        .iter()
        .take(200)
        .flat_map(|s| {
            let urls = s.urls();
            (1..=urls.len().min(8))
                .map(move |k| urls[..k].to_vec())
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("predict");
    group.throughput(Throughput::Elements(contexts.len() as u64));
    let mut run = |name: &str, model: &mut dyn Predictor| {
        group.bench_function(name, |b| {
            let mut out: Vec<Prediction> = Vec::new();
            b.iter(|| {
                let mut emitted = 0usize;
                for ctx in &contexts {
                    model.predict(ctx, &mut out);
                    emitted += out.len();
                }
                emitted
            })
        });
    };
    let mut standard = standard;
    let mut lrs = lrs;
    let mut pb = pb;
    run("standard-ppm", &mut standard);
    run("lrs-ppm", &mut lrs);
    run("pb-ppm", &mut pb);
    group.finish();
}

fn bench_prune(c: &mut Criterion) {
    let (sessions, pop) = training_data();
    let mut group = c.benchmark_group("space-optimization");
    for (name, cfg) in [
        ("unpruned", PruneConfig::disabled()),
        ("relative-1pct", PruneConfig::default()),
        ("both-cuts", PruneConfig::aggressive()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, &prune| {
            b.iter_batched(
                || {
                    // A PB model with its paths counted, rebuilt per
                    // iteration: finalize folds, cuts and freezes them.
                    let mut model = PbPpm::new(
                        pop.clone(),
                        PbConfig {
                            prune,
                            ..PbConfig::default()
                        },
                    );
                    for s in &sessions {
                        model.train_session(&s.urls());
                    }
                    model
                },
                |mut model| {
                    model.finalize();
                    model.node_count()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_build, bench_predict, bench_prune
}
criterion_main!(benches);
