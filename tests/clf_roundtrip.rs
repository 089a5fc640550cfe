//! Round-trip a synthetic trace through the Common Log Format and the
//! production ingester: the parsed stream must reproduce the original
//! requests exactly.

use pbppm::trace::clf::{format_clf_line, ClfRecord, ClfStats};
use pbppm::trace::event::Trace;
use pbppm::trace::ingest::{trace_from_clf_reader, IngestConfig};
use pbppm::trace::WorkloadConfig;

/// Ingests in-memory log lines through the chunked parallel ingester.
fn ingest(name: &str, lines: &[String]) -> (Trace, ClfStats) {
    let text = lines.join("\n");
    trace_from_clf_reader(name, text.as_bytes(), &IngestConfig { threads: 2 }).expect("ingest")
}

#[test]
fn clf_roundtrip_preserves_the_request_stream() {
    let trace = WorkloadConfig::tiny(21).generate();
    let epoch = 804_571_200i64; // 1995-07-01 04:00 UTC, NASA-log style

    let lines: Vec<String> = trace
        .requests
        .iter()
        .map(|r| {
            format_clf_line(&ClfRecord {
                host: format!("client{}", r.client.0),
                time: r.time as i64 + epoch,
                method: "GET".to_owned(),
                path: trace.urls.resolve(r.url).unwrap().to_owned(),
                status: r.status,
                size: r.size,
            })
        })
        .collect();

    let (parsed, stats) = ingest("roundtrip", &lines);
    assert_eq!(stats.accepted, trace.requests.len());
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.filtered, 0);
    assert_eq!(parsed.requests.len(), trace.requests.len());

    // The ingester rebases times so the first accepted request is at 0.
    let base = trace.requests.first().map_or(0, |r| r.time);
    for (orig, back) in trace.requests.iter().zip(&parsed.requests) {
        assert_eq!(orig.time - base, back.time, "times must rebase identically");
        assert_eq!(orig.size, back.size);
        assert_eq!(orig.status, back.status);
        assert_eq!(orig.kind, back.kind);
        assert_eq!(
            trace.urls.resolve(orig.url),
            parsed.urls.resolve(back.url),
            "urls must match"
        );
        assert_eq!(
            format!("client{}", orig.client.0),
            parsed
                .clients
                .resolve(pbppm::core::UrlId(back.client.0))
                .unwrap()
        );
    }
}

#[test]
fn malformed_and_non_get_lines_are_dropped_not_fatal() {
    let good = r#"h1 - - [01/Jul/1995:00:00:01 -0400] "GET /a.html HTTP/1.0" 200 99"#;
    let lines = vec![
        good.to_owned(),
        "total garbage".to_owned(),
        r#"h1 - - [01/Jul/1995:00:00:02 -0400] "POST /form HTTP/1.0" 200 99"#.to_owned(),
        r#"h1 - - [01/Jul/1995:00:00:03 -0400] "GET /missing.html HTTP/1.0" 404 0"#.to_owned(),
        String::new(),
    ];
    let (trace, stats) = ingest("messy", &lines);
    assert_eq!(trace.requests.len(), 1);
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.filtered, 2);
}
