//! Regenerates every table and figure of the paper in sequence (the same
//! code paths as the individual binaries; results land under `results/`).
//! The `throughput` and `ingest` steps enforce their host-independent
//! floors here too, so a broken floor stops the run with a nonzero exit.
//!
//! `all --check` regenerates into a temporary results directory instead
//! and compares it with the committed one (see `pbppm_bench::check`): any
//! field other than the named timing fields that differs is printed with
//! its JSON path and both values, and the run exits nonzero.

#![forbid(unsafe_code)]

// The ingest step's peak-heap floor reads the counting allocator; without
// it the peaks measure 0 and the step fails.
#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

fn main() {
    use pbppm_bench::experiments as e;
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let committed = pbppm_bench::results_dir();
    let scratch = std::env::temp_dir().join(format!("pbppm-all-check-{}", std::process::id()));
    if check {
        std::env::set_var("PBPPM_RESULTS", &scratch);
    }
    let steps: [(&str, fn()); 10] = [
        ("fig1", e::fig1::run),
        ("sweep", e::sweep::run),
        ("fig5", e::fig5::run),
        ("ablation", e::ablation::run),
        ("threshold", e::threshold::run),
        ("related", e::related::run),
        ("quality", e::quality::run),
        ("network", e::network::run),
        ("throughput", e::throughput::run),
        ("ingest", e::ingest::run),
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
