//! Analyze a web-server log in Common or Combined Log Format: parse it,
//! sessionize it, classify clients, and report the popularity regularities
//! the paper's model is built on. Both dialects go through the same
//! bounded-memory parallel ingester the CLI uses; the dialect is detected
//! from the log itself.
//!
//! With no argument the example first *materializes* a synthetic NASA-like
//! trace as a real CLF log file (so the whole path — format, parse,
//! analyze — is exercised), then analyzes it. Point it at a real log file
//! (e.g. the actual NASA-KSC July 1995 log) to analyze that instead:
//!
//! ```sh
//! cargo run --release --example analyze_log               # self-generated
//! cargo run --release --example analyze_log -- access.log # a real log
//! ```

use pbppm::core::PopularityTable;
use pbppm::trace::clf::{format_clf_line, ClfRecord};
use pbppm::trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm::trace::{
    classify_clients, sessionize_trace, ClassifyConfig, ClientClass, SessionStats, WorkloadConfig,
};
use std::io::Write;

fn main() -> std::io::Result<()> {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            // Materialize a synthetic trace as a genuine CLF file.
            let trace = WorkloadConfig::tiny(42).generate();
            let path = std::env::temp_dir().join("pbppm-synthetic.log");
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for r in &trace.requests {
                let rec = ClfRecord {
                    host: trace
                        .clients
                        .resolve(pbppm::core::UrlId(r.client.0))
                        .map_or_else(|| format!("host{}", r.client.0), |s| s.to_owned()),
                    time: r.time as i64 + 804_571_200, // July 1 1995, 04:00 UTC
                    method: "GET".to_owned(),
                    path: trace.urls.resolve(r.url).unwrap_or("/").to_owned(),
                    status: r.status,
                    size: r.size,
                };
                writeln!(f, "{}", format_clf_line(&rec))?;
            }
            f.flush()?;
            println!("materialized synthetic log at {}", path.display());
            path.to_string_lossy().into_owned()
        }
    };

    let (trace, stats) =
        trace_from_clf_path(&path, std::path::Path::new(&path), &IngestConfig::default())?;
    println!(
        "parsed {} ({:?}): {} requests accepted, {} filtered, {} malformed",
        path, stats.format, stats.accepted, stats.filtered, stats.malformed
    );
    println!(
        "{} distinct URLs, {} clients, {} day(s), {} MB transferred",
        trace.distinct_urls(),
        trace.clients.len(),
        trace.days(),
        trace.total_bytes() / 1_000_000
    );

    // Sessions (§2.2).
    let sessions = sessionize_trace(&trace);
    let st = SessionStats::of(&sessions);
    println!(
        "\n{} access sessions, mean length {:.2} views, max {}, {:.1}% with <= 9 views",
        st.count,
        st.mean_len,
        st.max_len,
        100.0 * st.frac_len_le_9
    );

    // Popularity (§3.1).
    let mut counts = PopularityTable::builder();
    for s in &sessions {
        for v in &s.views {
            counts.record(v.url);
        }
    }
    let pop = counts.build();
    let hist = pop.grade_histogram();
    println!(
        "popularity grades: {} G3 / {} G2 / {} G1 / {} G0",
        hist[3], hist[2], hist[1], hist[0]
    );

    // Regularity 1: most sessions start from popular URLs, although most
    // URLs are not popular.
    let popular_starts = sessions
        .iter()
        .filter(|s| pop.is_popular(s.views[0].url))
        .count();
    println!(
        "Regularity 1: {:.1}% of sessions start at a popular URL; only {:.1}% of URLs are popular",
        100.0 * popular_starts as f64 / sessions.len().max(1) as f64,
        100.0 * (hist[3] + hist[2]) as f64 / pop.distinct_urls().max(1) as f64,
    );

    // Regularity 2: long sessions are headed by popular URLs.
    let long: Vec<_> = sessions.iter().filter(|s| s.len() >= 6).collect();
    let long_popular = long
        .iter()
        .filter(|s| pop.is_popular(s.views[0].url))
        .count();
    if !long.is_empty() {
        println!(
            "Regularity 2: {:.1}% of long (>= 6 view) sessions are headed by popular URLs",
            100.0 * long_popular as f64 / long.len() as f64
        );
    }

    // Client classification (§2.2).
    let classes = classify_clients(&trace.requests, &ClassifyConfig::default());
    let proxies = classes.iter().filter(|&&c| c == ClientClass::Proxy).count();
    println!(
        "client classification: {} proxies, {} browsers",
        proxies,
        classes.len() - proxies
    );
    Ok(())
}
