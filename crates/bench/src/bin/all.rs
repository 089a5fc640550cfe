//! Regenerates every table and figure of the paper in sequence (the same
//! code paths as the individual binaries; results land under `results/`).
//! The committed perf baselines (`BENCH_*.json`) are recorded only by the
//! dedicated `throughput`, `loadgen` and `ingest` binaries.
//!
//! `all --check` regenerates into a temporary results directory instead
//! and compares it with the committed one (see `pbppm_bench::check`): any
//! field other than the named timing fields that differs is printed with
//! its JSON path and both values, and the run exits nonzero.

#![forbid(unsafe_code)]

fn main() {
    use pbppm_bench::experiments as e;
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let committed = pbppm_bench::results_dir();
    let scratch = std::env::temp_dir().join(format!("pbppm-all-check-{}", std::process::id()));
    if check {
        std::env::set_var("PBPPM_RESULTS", &scratch);
    }
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
            e::loadgen::run_with_args(std::iter::empty());
        }),
        // Run from here the peak-heap columns read 0 (no counting
        // allocator in this binary); the dedicated `ingest` bin measures
        // them for the perf gate.
        ("ingest", || {
            e::ingest::run_with_args(std::iter::empty());
        }),
    ];
    for (name, run) in steps {
        println!("\n################ {name} ################");
        run();
    }
    if !check {
        println!("\nall experiments regenerated; JSON results in results/");
        return;
    }
    let mismatches =
        pbppm_bench::check::compare_dirs(&committed, &scratch).unwrap_or_else(|e| vec![e]);
    for m in &mismatches {
        eprintln!("all --check: {m}");
    }
    if !mismatches.is_empty() {
        eprintln!(
            "all --check: {} difference(s) (regenerated into {})",
            mismatches.len(),
            scratch.display()
        );
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "\nall --check: every result in {} regenerated exactly",
        committed.display()
    );
}
