//! `pbppm` — the command-line interface to the PB-PPM web prefetching
//! toolkit.
//!
//! ```text
//! pbppm generate --preset nasa --out access.log    synthesize a CLF log
//! pbppm analyze  access.log                        sessions, popularity, clients
//! pbppm train    access.log --out model.pbss       train a prediction model
//! pbppm predict  model.pbss --context "/a,/b"      what to prefetch next
//! pbppm simulate access.log --model pb             full prefetching experiment
//! pbppm stats    run_metrics.json                  render an exported report
//! ```

#![forbid(unsafe_code)]

use pbppm_cli::args::Args;
use pbppm_cli::commands;

/// Span byte deltas need allocation accounting; the CLI opts in. The perf
/// gate's `throughput` binary deliberately does not, keeping its
/// measurements allocator-overhead-free.
#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

const HELP: &str = "\
pbppm — popularity-based PPM web prefetching toolkit

USAGE:
    pbppm <command> [arguments]

COMMANDS:
    generate   Synthesize a multi-day server log (Common or Combined format)
               --preset nasa|ucb|tiny  --out FILE  [--seed N] [--days D] [--sessions S]
               [--format clf|combined]
    analyze    Parse a log (Common or Combined, detected) and report line
               counts, sessions, popularity and clients
               <access.log>  [--json]
    train      Train a prediction model from a log and write it as a
               binary snapshot (.pbss); parallel chunked ingestion and
               deterministic parallel training make the file byte-identical
               at every thread count
               <access.log>  --out model.pbss  [--model pb|standard|lrs|o1]
               [--days N] [--threads N] [--aggressive-prune] [--no-links]
    predict    Query a trained model (.pbss from train, or a serve
               checkpoint) for prefetch candidates; separate multiple
               contexts with ';' for one batched query
               <model.pbss>  --context \"/a.html,/b.html\"  [--top N] [--json]
    serve      Long-running online prediction server: client-sharded
               writers with epoch-published read snapshots, crash-safe
               checkpoints and live self-observation (line protocol on
               stdin: train/predict/checkpoint/stats/metrics [--prom]/
               trace N/health/quit; with --shards > 1, train/predict
               accept an optional @client routing token)
               --dir DIR  [--shards N] [--threads N] [--window N]
               [--rebuild-every N] [--checkpoint-every N] [--top N]
               [--eval-window N] [--drift-fraction F]
               [--flight-capacity N] [--flush-every N]
               [--aggressive-prune] [--no-links]
    audit      Structurally verify a binary snapshot (tree shape, height
               caps, special links, grades, index aggregates); exits
               nonzero when any invariant is violated
               <model.pbss>  [--json]
    simulate   Run a full trace-driven prefetching experiment
               (<access.log> | --preset nasa|ucb|tiny [--seed N])
               [--model pb|standard|3ppm|lrs|o1|top10|none] [--train-days N]
               [--threads N] [--json]
    lint       Run the workspace source linter (panic + concurrency
               policy: unsafe attrs, core unwraps, codec casts, atomic
               orderings, Relaxed justifications, thread spawns,
               hot-path locks, Drop panics, allowlist staleness)
               [workspace-root]  [--json] [--self-test]
    stats      Render an exported telemetry report
               <run_metrics.json>  [--prom]
    help       Show this message

GLOBAL OPTIONS:
    --metrics-out FILE   Export this run's telemetry (spans + metrics) as JSON
    --verbose            Raise logging to debug (stderr; stdout stays clean)

ENVIRONMENT:
    PBPPM_LOG      error|warn|info|debug|trace — logging threshold
    PBPPM_THREADS  positive worker count where --threads is 0/omitted

All commands are deterministic for a given input and seed.
";

/// Validates the observability environment and flags up front so a typo
/// fails loudly before any work starts.
fn init_observability(args: &Args) -> Result<(), String> {
    pbppm_obs::log::init_from_env()?;
    if args.switch("verbose") {
        let level = pbppm_obs::log::Level::Debug.max(pbppm_obs::log::max_level());
        pbppm_obs::log::set_level(level);
    }
    pbppm_sim::threads_from_env()?;
    if !pbppm_obs::ENABLED && args.get("metrics-out").is_some() {
        pbppm_obs::obs_warn!("--metrics-out: telemetry is compiled out; the report will be empty");
    }
    Ok(())
}

/// Writes the collected telemetry report where `--metrics-out` points.
fn export_metrics(command: &str, path: &str) -> Result<(), String> {
    let report = pbppm_obs::RunReport::collect(command);
    let json = report.to_json();
    std::fs::write(path, json.as_bytes())
        .map_err(|e| format!("--metrics-out: cannot write {path:?}: {e}"))?;
    pbppm_obs::obs_info!("wrote telemetry report to {path}");
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = init_observability(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if args.switch("help") {
        print!("{HELP}");
        return;
    }
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "analyze" => commands::analyze(&args),
        "train" => commands::train(&args),
        "predict" => commands::predict(&args),
        "audit" => commands::audit(&args),
        "serve" => pbppm_cli::serve::serve(&args),
        "simulate" => commands::simulate(&args),
        "lint" => commands::lint(&args),
        "stats" => commands::stats(&args),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if let Some(path) = args.get("metrics-out") {
        if let Err(e) = export_metrics(&command, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
