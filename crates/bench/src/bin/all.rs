//! Regenerates every table and figure of the paper in sequence (the same
//! code paths as the individual binaries; results land under `results/`).
//! The committed perf baselines (`BENCH_*.json`) are recorded only by the
//! dedicated `throughput`, `loadgen` and `ingest` binaries.

#![forbid(unsafe_code)]

fn main() {
    use pbppm_bench::experiments as e;
    let steps: [(&str, fn()); 15] = [
        ("fig1", e::fig1::run),
        ("table1", e::table1::run),
        ("table2", e::table2::run),
        ("fig2", e::fig2::run),
        ("fig3", e::fig3::run),
        ("fig4", e::fig4::run),
        ("fig5", e::fig5::run),
        ("ablation", e::ablation::run),
        ("threshold", e::threshold::run),
        ("related", e::related::run),
        ("quality", e::quality::run),
        ("network", e::network::run),
        ("throughput", || {
            e::throughput::run();
        }),
        ("loadgen", || {
            e::loadgen::run();
        }),
        // Run from here the peak-heap columns read 0 (no counting
        // allocator in this binary); the dedicated `ingest` bin measures
        // them for the perf gate.
        ("ingest", || {
            e::ingest::run();
        }),
    ];
    for (name, run) in steps {
        println!("\n################ {name} ################");
        run();
    }
    println!("\nall experiments regenerated; JSON results in results/");
}
