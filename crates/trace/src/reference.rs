//! Sequential reference log builder: the oracle the chunked ingester
//! ([`crate::ingest`]) is property-tested byte-identical against, and the
//! `ingest` bench's sequential leg.
//!
//! Nothing in production calls it. It buffers every accepted record as
//! owned strings and sorts once, so its peak heap grows with the log; the
//! point is that it is obviously right, sharing only the line grammar and
//! the acceptance filter with the production path.

use crate::clf::{is_accepted, parse_clf_line, ClfRecord, ClfStats};
use crate::combined::{detect_format, is_robot_agent, parse_combined_line, LogFormat};
use crate::event::{ClientId, DocKind, Request, Trace};

/// Builds a [`Trace`] from log lines in either dialect.
///
/// The first line [`detect_format`] accepts decides the dialect; every
/// other line is parsed in it (lines before it fail both dialects, so they
/// are malformed either way). Only successful `GET`s are kept, sorted by
/// `(time, line index)`, with times rebased so the first is at second 0.
pub fn trace_from_lines<I, S>(name: &str, lines: I) -> (Trace, ClfStats)
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut stats = ClfStats::default();
    // (original line index, record, robot user agent): the index is the
    // sort tie-break the chunked merge must reproduce.
    let mut records: Vec<(usize, ClfRecord, bool)> = Vec::new();
    for (line_idx, line) in lines.into_iter().enumerate() {
        let line = line.as_ref();
        if line.trim().is_empty() {
            continue;
        }
        if stats.format.is_none() {
            stats.format = detect_format(line);
        }
        let parsed = match stats.format {
            Some(LogFormat::Combined) => parse_combined_line(line)
                .map(|r| (r.clf, r.user_agent.as_deref().is_some_and(is_robot_agent))),
            _ => parse_clf_line(line).map(|r| (r, false)),
        };
        match parsed {
            Err(_) => stats.malformed += 1,
            Ok((r, _)) if !is_accepted(&r.method, r.status) => stats.filtered += 1,
            Ok((r, robot)) => records.push((line_idx, r, robot)),
        }
    }
    records.sort_by_key(|&(idx, ref r, _)| (r.time, idx));
    let epoch = records.first().map_or(0, |(_, r, _)| r.time);
    // Pre-size from the accepted-record count: requests exactly, the
    // interners by an upper bound (every path/host distinct).
    let mut trace = Trace::new(name);
    trace.requests.reserve_exact(records.len());
    trace.urls = pbppm_core::Interner::with_capacity(records.len());
    trace.clients = pbppm_core::Interner::with_capacity(records.len());
    for (_, r, robot) in &records {
        let url = trace.urls.intern(&r.path);
        let client = ClientId(trace.clients.intern(&r.host).0);
        stats.robot_clients.resize(trace.clients.len(), false);
        stats.robot_clients[client.index()] |= robot;
        trace.requests.push(Request {
            time: u64::try_from((r.time - epoch).max(0)).unwrap_or(0),
            client,
            url,
            size: r.size,
            status: r.status,
            kind: DocKind::from_url(&r.path),
        });
        stats.accepted += 1;
    }
    (trace, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_and_rebases_time() {
        let lines = [
            r#"199.72.81.55 - - [01/Jul/1995:00:00:01 -0400] "GET /history/apollo/ HTTP/1.0" 200 6245"#,
            r#"h2 - - [01/Jul/1995:00:00:11 -0400] "GET /img/x.gif HTTP/1.0" 200 500"#,
            r#"h2 - - [01/Jul/1995:00:00:12 -0400] "POST /cgi HTTP/1.0" 200 1"#,
            r#"h2 - - [01/Jul/1995:00:00:13 -0400] "GET /missing.html HTTP/1.0" 404 0"#,
            "garbage line",
        ];
        let (t, stats) = trace_from_lines("test", lines);
        assert_eq!(stats.format, Some(LogFormat::Common));
        assert_eq!((stats.accepted, stats.filtered, stats.malformed), (2, 2, 1));
        assert_eq!(stats.robot_clients, vec![false, false]);
        assert_eq!(t.requests[0].time, 0);
        assert_eq!(t.requests[1].time, 10);
        assert_eq!(t.requests[1].kind, DocKind::Image);
        assert_eq!(t.urls.len(), 2);
    }

    #[test]
    fn sorts_out_of_order_lines() {
        let lines = [
            r#"h - - [01/Jan/1970:00:00:30 +0000] "GET /b.html HTTP/1.0" 200 1"#,
            r#"h - - [01/Jan/1970:00:00:10 +0000] "GET /a.html HTTP/1.0" 200 1"#,
        ];
        let (t, _) = trace_from_lines("test", lines);
        assert_eq!(t.requests[0].time, 0);
        assert_eq!(t.urls.resolve(t.requests[0].url), Some("/a.html"));
        assert_eq!(t.requests[1].time, 20);
    }
}
