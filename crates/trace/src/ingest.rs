//! Parallel, bounded-memory log ingestion: the one production path from
//! log bytes to a [`Trace`], for Common and Combined logs alike.
//!
//! 1. **Chunked read** — the reader cuts the log into newline-aligned
//!    chunks of `CHUNK_BYTES`, carrying a partial tail line into the next
//!    chunk. It also decides the dialect: the first line [`detect_format`]
//!    accepts decides, and each chunk is checked before dispatch until one
//!    does. Chunks dispatched before that hold only lines that fail both
//!    dialects, so they count as malformed whichever dialect parses them.
//! 2. **Zero-copy parallel parse** — workers parse each chunk in its
//!    dialect with [`crate::clf::parse_clf_line_ref`], a Combined line's
//!    core first cut out by `crate::combined::split_combined` (no
//!    per-line allocation), and intern surviving hosts and paths into
//!    chunk-local tables, leaving a compact record per accepted line. A
//!    path's [`DocKind`] is classified once, when the chunk first interns
//!    it.
//! 3. **Deterministic merge** — per-chunk records are stable-sorted by
//!    time; a k-way heap merge keyed `(time, chunk index)` replays them in
//!    the reference builder's `(time, line index)` order, interning each
//!    chunk-local id globally on first appearance in merge order.
//!
//! The result is **byte-identical** to [`crate::reference::trace_from_lines`]
//! — same requests, interner orders and [`ClfStats`] — at every chunk size
//! and thread count (property-tested below). Peak raw-text memory is
//! `2 × threads` chunks in flight plus the one being read.
//!
//! Chunks are decoded with `String::from_utf8_lossy`, so a byte that is
//! not UTF-8 costs at most its own line. Chunks end at `\n`, which is
//! never part of a multi-byte sequence, so decoding per chunk equals
//! decoding the whole log.

use crate::clf::{is_accepted, parse_clf_line_ref, ClfStats};
use crate::combined::{detect_format, is_robot_agent, split_combined, LogFormat};
use crate::event::{ClientId, DocKind, Request, Trace};
use pbppm_core::{Interner, UrlId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Target raw-text chunk size in bytes; a single line longer than this
/// grows its chunk as needed.
const CHUNK_BYTES: usize = 4 << 20;

/// Tuning for the chunked parallel ingestion pipeline. No setting can
/// change the produced [`Trace`] — only wall time and peak memory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Parse worker count; `0` = auto (`PBPPM_THREADS` or the machine's
    /// available parallelism). Up to twice this many raw chunks wait
    /// between the reader and the workers.
    pub threads: usize,
}

/// One accepted record after chunk-local parsing: fixed-size, no strings —
/// host/path are ids into the owning chunk's local interners.
#[derive(Debug, Clone, Copy)]
struct CompactRecord {
    time: i64,
    host: u32,
    path: u32,
    status: u16,
    size: u32,
    kind: DocKind,
    /// The line carried a robot user agent (always false for plain CLF).
    robot: bool,
}

/// A newline-aligned slice of the log, tagged with its position and the
/// dialect its lines are parsed in.
struct RawChunk {
    idx: usize,
    format: LogFormat,
    bytes: Vec<u8>,
}

/// A fully parsed chunk: compact records (stable-sorted by time) plus the
/// chunk-local string tables and drop tallies.
struct ParsedChunk {
    idx: usize,
    records: Vec<CompactRecord>,
    paths: Interner,
    hosts: Interner,
    malformed: usize,
    filtered: usize,
}

/// Parses one raw chunk. Pure function of the chunk, so it can run on any
/// worker in any order.
fn parse_chunk(raw: &RawChunk) -> ParsedChunk {
    let text = String::from_utf8_lossy(&raw.bytes);
    let mut chunk = ParsedChunk {
        idx: raw.idx,
        records: Vec::new(),
        paths: Interner::new(),
        hosts: Interner::new(),
        malformed: 0,
        filtered: 0,
    };
    // A line's kind depends only on its path: classify each path once,
    // when the chunk first interns it, by its chunk-local id.
    let mut kinds: Vec<DocKind> = Vec::new();
    for line in text.split('\n') {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match raw.format {
            LogFormat::Common => parse_clf_line_ref(line).map(|r| (r, "")),
            LogFormat::Combined => split_combined(line)
                .and_then(|p| parse_clf_line_ref(p.core).map(|r| (r, p.user_agent))),
        };
        match parsed {
            Err(_) => chunk.malformed += 1,
            Ok((r, _)) if !is_accepted(r.method, r.status) => chunk.filtered += 1,
            Ok((r, user_agent)) => {
                let path = chunk.paths.intern(r.path);
                if path.index() == kinds.len() {
                    kinds.push(DocKind::from_url(r.path));
                }
                chunk.records.push(CompactRecord {
                    time: r.time,
                    host: chunk.hosts.intern(r.host).0,
                    path: path.0,
                    status: r.status,
                    size: r.size,
                    kind: kinds[path.index()],
                    robot: is_robot_agent(user_agent),
                });
            }
        }
    }
    // Stable sort: records with equal timestamps keep their in-chunk input
    // order, which the merge's `(time, chunk idx)` key extends to the
    // global input order — the reference builder's exact tie-break.
    chunk.records.sort_by_key(|r| r.time);
    chunk
}

/// Reads newline-aligned chunks of roughly `chunk_bytes` from a reader,
/// carrying the partial tail line into the next chunk, and detects the
/// log's dialect on the way.
struct ChunkReader<R: Read> {
    inner: R,
    chunk_bytes: usize,
    buf: Vec<u8>,
    carry: Vec<u8>,
    done: bool,
    /// The dialect, once a line has decided it.
    format: Option<LogFormat>,
    /// Chunks handed out so far.
    chunks: usize,
    /// Raw bytes handed out so far.
    bytes: u64,
}

impl<R: Read> ChunkReader<R> {
    fn new(inner: R, chunk_bytes: usize) -> Self {
        let chunk_bytes = chunk_bytes.max(1);
        Self {
            inner,
            chunk_bytes,
            buf: vec![0u8; chunk_bytes.min(64 * 1024)],
            carry: Vec::new(),
            done: false,
            format: None,
            chunks: 0,
            bytes: 0,
        }
    }

    /// The next chunk, or `None` at end of input, tagged with the dialect
    /// decided so far (`Common` while undecided: its lines all fail).
    fn next_chunk(&mut self) -> io::Result<Option<RawChunk>> {
        let Some(bytes) = self.next_bytes()? else {
            return Ok(None);
        };
        if self.format.is_none() {
            self.format = String::from_utf8_lossy(&bytes)
                .split('\n')
                .find_map(detect_format);
        }
        let raw = RawChunk {
            idx: self.chunks,
            format: self.format.unwrap_or(LogFormat::Common),
            bytes,
        };
        self.chunks += 1;
        self.bytes += raw.bytes.len() as u64;
        Ok(Some(raw))
    }

    /// Every returned slice either ends with `\n` or is the final bytes of
    /// the stream; a single line longer than `chunk_bytes` simply grows
    /// its chunk until its newline arrives.
    fn next_bytes(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = std::mem::take(&mut self.carry);
        let mut target = self.chunk_bytes;
        loop {
            while !self.done && chunk.len() < target {
                let n = self.inner.read(&mut self.buf)?;
                if n == 0 {
                    self.done = true;
                } else {
                    chunk.extend_from_slice(&self.buf[..n]);
                }
            }
            if self.done {
                return Ok((!chunk.is_empty()).then_some(chunk));
            }
            if let Some(p) = chunk.iter().rposition(|&b| b == b'\n') {
                self.carry = chunk.split_off(p + 1);
                return Ok(Some(chunk));
            }
            // No newline yet: an over-long line. Keep growing this chunk.
            target = chunk.len() + self.chunk_bytes;
        }
    }
}

/// Streams a Common or Combined log from `reader` into a [`Trace`],
/// byte-identical to [`crate::reference::trace_from_lines`] over the same
/// lines (same requests, same interner orders, same stats) at every thread
/// count.
///
/// Filtering is the paper's: successful (`2xx`/`304`) `GET`s only, times
/// rebased so the first accepted request is at second 0. Lines that are
/// not valid UTF-8 are decoded lossily, never dropped.
pub fn trace_from_clf_reader<R: Read>(
    name: &str,
    reader: R,
    cfg: &IngestConfig,
) -> io::Result<(Trace, ClfStats)> {
    ingest_chunked(name, reader, cfg.threads, CHUNK_BYTES)
}

/// [`trace_from_clf_reader`] with the chunk size exposed, so tests can
/// split small logs into many chunks.
pub(crate) fn ingest_chunked<R: Read>(
    name: &str,
    reader: R,
    threads: usize,
    chunk_bytes: usize,
) -> io::Result<(Trace, ClfStats)> {
    let _span = pbppm_obs::span!("trace.ingest", name = name);
    let threads = pbppm_core::resolve_threads(threads);
    let mut reader = ChunkReader::new(reader, chunk_bytes);

    let mut chunks: Vec<ParsedChunk> = Vec::new();
    if threads <= 1 {
        // Same chunked code path, run inline: the equivalence tests cover
        // single- and multi-threaded ingestion through identical logic.
        while let Some(raw) = reader.next_chunk()? {
            chunks.push(parse_chunk(&raw));
        }
    } else {
        let in_flight = threads.saturating_mul(2);
        let (chunk_tx, chunk_rx) = mpsc::sync_channel::<RawChunk>(in_flight);
        let chunk_rx = Arc::new(Mutex::new(chunk_rx));
        let (parsed_tx, parsed_rx) = mpsc::channel::<ParsedChunk>();
        let mut io_err: Option<io::Error> = None;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let chunk_rx = Arc::clone(&chunk_rx);
                let parsed_tx = parsed_tx.clone();
                scope.spawn(move || loop {
                    // Take the lock only to receive; parse with it released
                    // so workers drain the queue concurrently.
                    let msg = match chunk_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break, // a sibling worker panicked
                    };
                    match msg {
                        Ok(raw) => {
                            if parsed_tx.send(parse_chunk(&raw)).is_err() {
                                break;
                            }
                        }
                        Err(_) => break, // reader finished and closed the channel
                    }
                });
            }
            drop(parsed_tx);
            // The scope's own thread is the reader: the bounded channel
            // blocks it whenever `in_flight` chunks are already pending,
            // which is what caps peak raw-text memory.
            loop {
                match reader.next_chunk() {
                    Ok(Some(raw)) => {
                        if chunk_tx.send(raw).is_err() {
                            break; // all workers died; scope will propagate
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        io_err = Some(e);
                        break;
                    }
                }
            }
            drop(chunk_tx);
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        chunks = parsed_rx.into_iter().collect();
        chunks.sort_by_key(|c| c.idx);
    }

    let mut stats = ClfStats {
        format: reader.format,
        ..ClfStats::default()
    };
    let (mut total_accepted, mut total_paths, mut total_hosts) = (0usize, 0usize, 0usize);
    for c in &chunks {
        stats.malformed += c.malformed;
        stats.filtered += c.filtered;
        total_accepted += c.records.len();
        total_paths += c.paths.len();
        total_hosts += c.hosts.len();
    }

    // Deterministic k-way merge. Each chunk's records are sorted by time
    // with in-chunk input order on ties; the heap key `(time, chunk idx)`
    // therefore yields the global `(time, original line index)` order the
    // reference sort pins. Chunk-local interner ids are remapped into the
    // global tables on first appearance *in merge order*, which reproduces
    // the reference interning order exactly.
    let mut trace = Trace::new(name);
    trace.requests.reserve_exact(total_accepted);
    // A string seen in several chunks is counted once per chunk, so the
    // chunk-local table sizes bound the distinct strings from above.
    trace.urls = Interner::with_capacity(total_paths);
    trace.clients = Interner::with_capacity(total_hosts);
    let mut url_remap: Vec<Vec<Option<UrlId>>> =
        chunks.iter().map(|c| vec![None; c.paths.len()]).collect();
    let mut client_remap: Vec<Vec<Option<ClientId>>> =
        chunks.iter().map(|c| vec![None; c.hosts.len()]).collect();
    let mut heads: Vec<usize> = vec![0; chunks.len()];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.records.is_empty())
        .map(|(ci, c)| Reverse((c.records[0].time, ci)))
        .collect();
    let mut epoch: Option<i64> = None;
    while let Some(Reverse((time, ci))) = heap.pop() {
        let pos = heads[ci];
        heads[ci] += 1;
        if let Some(next) = chunks[ci].records.get(pos + 1) {
            heap.push(Reverse((next.time, ci)));
        }
        let r = chunks[ci].records[pos];
        let epoch = *epoch.get_or_insert(time);
        let url = match url_remap[ci][r.path as usize] {
            Some(u) => u,
            None => {
                let s = chunks[ci].paths.resolve(UrlId(r.path)).unwrap_or("");
                let u = trace.urls.intern(s);
                url_remap[ci][r.path as usize] = Some(u);
                u
            }
        };
        let client = match client_remap[ci][r.host as usize] {
            Some(c) => c,
            None => {
                let s = chunks[ci].hosts.resolve(UrlId(r.host)).unwrap_or("");
                let c = ClientId(trace.clients.intern(s).0);
                client_remap[ci][r.host as usize] = Some(c);
                stats.robot_clients.resize(trace.clients.len(), false);
                c
            }
        };
        stats.robot_clients[client.index()] |= r.robot;
        trace.requests.push(Request {
            time: u64::try_from((r.time - epoch).max(0)).unwrap_or(0),
            client,
            url,
            size: r.size,
            status: r.status,
            kind: r.kind,
        });
        stats.accepted += 1;
    }

    if pbppm_obs::ENABLED {
        let reg = pbppm_obs::global();
        reg.counter("trace.parse.accepted", "")
            .add(stats.accepted as u64);
        reg.counter("trace.parse.filtered", "")
            .add(stats.filtered as u64);
        reg.counter("trace.parse.malformed", "")
            .add(stats.malformed as u64);
        reg.counter("ingest.chunks", "").add(reader.chunks as u64);
        reg.counter("ingest.bytes", "").add(reader.bytes);
        reg.gauge("ingest.threads", "").set(threads as u64);
    }
    pbppm_obs::obs_debug!(
        "ingested log {name:?} ({:?}): {} accepted, {} filtered, {} malformed \
         ({} chunks, {} bytes, {threads} threads)",
        stats.format,
        stats.accepted,
        stats.filtered,
        stats.malformed,
        reader.chunks,
        reader.bytes,
    );
    Ok((trace, stats))
}

/// Opens `path` and streams it through [`trace_from_clf_reader`].
pub fn trace_from_clf_path(
    name: &str,
    path: &std::path::Path,
    cfg: &IngestConfig,
) -> io::Result<(Trace, ClfStats)> {
    let file = std::fs::File::open(path)?;
    trace_from_clf_reader(name, file, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::trace_from_lines;
    use proptest::prelude::*;

    /// The chunked ingester and the reference builder over the same bytes
    /// (the reference sees them lossily decoded, as one string); panics on
    /// any divergence in stats, requests or interner order. Returns the
    /// stats for further checks.
    fn assert_equivalent(bytes: &[u8], chunk_bytes: usize, threads: usize) -> ClfStats {
        let text = String::from_utf8_lossy(bytes);
        let (ref_trace, ref_stats) = trace_from_lines("t", text.lines());
        let (trace, stats) = ingest_chunked("t", bytes, threads, chunk_bytes).unwrap();
        let at = format!("chunk={chunk_bytes} threads={threads}");
        assert_eq!(ref_stats, stats, "{at}");
        assert_eq!(ref_trace.requests, trace.requests, "{at}");
        assert_eq!(stats.robot_clients.len(), trace.clients.len(), "{at}");
        // Interner *order* must match, not just content.
        let strings =
            |i: &Interner| -> Vec<String> { i.iter().map(|(_, s)| s.to_owned()).collect() };
        assert_eq!(strings(&ref_trace.urls), strings(&trace.urls), "{at}");
        assert_eq!(strings(&ref_trace.clients), strings(&trace.clients), "{at}");
        stats
    }

    fn clf_line(host: u32, t: i64, method: &str, path: u32, status: u16, size: &str) -> String {
        let base = crate::clf::format_clf_line(&crate::clf::ClfRecord {
            host: format!("h{host}"),
            time: t,
            method: method.to_owned(),
            // Each path id keeps one extension, and the ids cover every
            // document kind: a kind read off the wrong path shows.
            path: format!("/p{path}.{}", ["html", "gif", "JPG", "txt"][path as usize % 4]),
            status,
            size: 0,
        });
        // Swap the numeric size for a string form, so callers can inject a
        // malformed size ("12a4") as well as a valid one.
        format!("{} {size}", base.rsplit_once(' ').unwrap().0)
    }

    /// `line` with a referrer and `agent` appended: a Combined line.
    fn combined(line: &str, agent: &str) -> String {
        format!("{line} \"-\" \"{agent}\"")
    }

    #[test]
    fn matches_reference_on_a_small_log() {
        let mut text = String::new();
        for i in 0..50i64 {
            text.push_str(&clf_line(
                u32::try_from(i % 7).unwrap(),
                800_000_000 + (i % 13),
                if i % 9 == 0 { "POST" } else { "GET" },
                u32::try_from(i % 11).unwrap(),
                if i % 5 == 0 { 404 } else { 200 },
                "100",
            ));
            text.push('\n');
        }
        text.push_str("garbage line\n\n");
        for chunk in [64, 4096, 1 << 20] {
            for threads in [1, 2, 8] {
                assert_equivalent(text.as_bytes(), chunk, threads);
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(assert_equivalent(b"", 4096, 4).format, None);
        assert_equivalent(b"\n\n\n", 4096, 4);
        assert_equivalent(b"not a log line", 4096, 4);
        let one = clf_line(1, 804_571_201, "GET", 1, 200, "5");
        assert_equivalent(one.as_bytes(), 4096, 4); // no trailing newline
        assert_equivalent(format!("{one}\n").as_bytes(), 4096, 4);
    }

    #[test]
    fn lines_longer_than_a_chunk_survive() {
        let long_path = "x".repeat(9000);
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!(
                "h{i} - - [01/Jul/1995:00:00:0{i} -0400] \"GET /{long_path}{i} HTTP/1.0\" 200 10\n"
            ));
        }
        for threads in [1, 3] {
            assert_equivalent(text.as_bytes(), 4096, threads);
        }
    }

    #[test]
    fn combined_log_flags_robot_clients() {
        let text = [
            combined(
                &clf_line(1, 804_571_200, "GET", 1, 200, "5"),
                "Googlebot/2.1 (+http://www.google.com/bot.html)",
            ),
            combined(
                &clf_line(2, 804_571_205, "GET", 2, 200, "5"),
                "Mozilla/4.08 [en]",
            ),
            // A robot request the filter drops must not flag its client.
            combined(&clf_line(2, 804_571_206, "GET", 3, 404, "5"), "Wget/1.12"),
        ]
        .join("\n");
        for threads in [1, 2] {
            let stats = assert_equivalent(text.as_bytes(), 64, threads);
            assert_eq!(stats.format, Some(LogFormat::Combined));
            assert_eq!((stats.accepted, stats.filtered), (2, 1));
            assert_eq!(stats.robot_clients, vec![true, false]);
        }
    }

    #[test]
    fn plain_clf_has_a_robot_entry_per_client_all_false() {
        let text = format!(
            "{}\n{}\n",
            clf_line(1, 804_571_201, "GET", 1, 200, "5"),
            clf_line(2, 804_571_202, "GET", 2, 200, "9"),
        );
        let stats = assert_equivalent(text.as_bytes(), 4096, 2);
        assert_eq!(stats.format, Some(LogFormat::Common));
        assert_eq!(stats.robot_clients, vec![false, false]);
    }

    #[test]
    fn dialect_is_decided_past_leading_garbage_chunks() {
        // Many small chunks of garbage before the first parsable line: the
        // chunks that leave the reader undecided count as malformed, and
        // the later Combined lines all parse as Combined.
        let mut text = "garbage line without fields\n".repeat(40);
        for i in 0..10 {
            text.push_str(&combined(
                &clf_line(i, 804_571_200 + i64::from(i), "GET", i, 200, "5"),
                "curl/7.1",
            ));
            text.push('\n');
        }
        for threads in [1, 2, 8] {
            let stats = assert_equivalent(text.as_bytes(), 32, threads);
            assert_eq!(stats.format, Some(LogFormat::Combined));
            assert_eq!((stats.accepted, stats.malformed), (10, 40));
            assert!(stats.robot_clients.iter().all(|&b| b));
        }
    }

    #[test]
    fn an_invalid_utf8_byte_costs_no_other_line() {
        let lines: Vec<String> = (0..20)
            .map(|i| {
                combined(
                    &clf_line(i, 804_571_200 + i64::from(i), "GET", i, 200, "5"),
                    "Mozilla/4.08 [en]",
                )
            })
            .collect();
        let mut bytes = lines.join("\n").into_bytes();
        // Corrupt the user agent of line 2 and a path byte of line 5.
        let at = |line: usize| lines[..line].iter().map(|l| l.len() + 1).sum::<usize>();
        let agent = at(2) + lines[2].len() - 3;
        bytes[agent] = 0xFF;
        let path = at(5) + lines[5].find("/p").unwrap() + 1;
        bytes[path] = 0xFE;
        for threads in [1, 2] {
            let stats = assert_equivalent(&bytes, 64, threads);
            assert_eq!(stats.accepted + stats.malformed, 20);
            assert_eq!(stats.accepted, 20, "a lossy line still parses");
        }
    }

    #[test]
    fn path_variant_reads_from_disk() {
        let dir = std::env::temp_dir().join(format!("pbppm-ingest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.log");
        let text = format!(
            "{}\n{}\n",
            clf_line(1, 804_571_201, "GET", 1, 200, "5"),
            clf_line(1, 804_571_202, "GET", 2, 200, "9"),
        );
        std::fs::write(&path, &text).unwrap();
        let (trace, stats) = trace_from_clf_path("disk", &path, &IngestConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.accepted, 2);
        assert_eq!(trace.requests.len(), 2);
        assert_eq!(trace.requests[1].time, 1);
    }

    const AGENTS: [&str; 3] = ["Mozilla/4.08 [en] (WinNT; U)", "msnbot/1.0", "-"];

    /// A line as it appears in a Common log and in a Combined one.
    fn both(line: String, agent: usize) -> (String, String) {
        let with_agent = combined(&line, AGENTS[agent]);
        (line, with_agent)
    }

    /// One arbitrary log line, in its Common and its Combined form: valid,
    /// filtered, malformed (including a line of the other dialect), or
    /// blank.
    fn arb_line() -> impl Strategy<Value = (String, String)> {
        prop_oneof![
            // Valid GET lines with clustered timestamps (ties exercise the
            // input-order tie-break) and a small URL/host universe
            // (collisions exercise interner remapping).
            (
                0u32..6,
                0i64..20,
                0u32..8,
                prop_oneof![Just(200u16), Just(304u16)],
                0usize..3,
            )
                .prop_map(|(h, t, p, s, a)| both(
                    clf_line(h, 804_571_200 + t, "GET", p, s, "10"),
                    a
                )),
            // Filtered: wrong method or error status.
            (0u32..4, 0i64..20, 0u32..4, 0usize..3).prop_map(|(h, t, p, a)| both(
                clf_line(h, 804_571_200 + t, "POST", p, 200, "10"),
                a
            )),
            (0u32..4, 0i64..20, 0u32..4, 0usize..3).prop_map(|(h, t, p, a)| both(
                clf_line(h, 804_571_200 + t, "GET", p, 500, "10"),
                a
            )),
            // Malformed: bad size, the other dialect, garbage, bad timestamp.
            (0u32..4, 0i64..20, 0u32..4, 0usize..3).prop_map(|(h, t, p, a)| both(
                clf_line(h, 804_571_200 + t, "GET", p, 200, "12a4"),
                a
            )),
            (0u32..4, 0i64..20, 0usize..3).prop_map(|(h, t, a)| {
                let (common, with_agent) =
                    both(clf_line(h, 804_571_200 + t, "GET", 1, 200, "10"), a);
                (with_agent, common)
            }),
            Just("complete garbage".to_owned()).prop_map(|g| (g.clone(), g)),
            Just(r#"h - - [99/Foo/1995:00:00:01 -0400] "GET /x HTTP/1.0" 200 1"#.to_owned())
                .prop_map(|g| (g.clone(), g)),
            // Blank-ish lines.
            Just((String::new(), String::new())),
            Just(("   ".to_owned(), "   ".to_owned())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pinned equivalence grid: arbitrary Common or Combined logs
        /// (valid ∪ malformed ∪ filtered lines, CRLF or LF) through the
        /// chunked ingester and the reference builder at chunk sizes
        /// {7, 256, 4096} bytes — many chunks per log at the small sizes —
        /// × threads {1, 2, 8}: identical Trace, interner order and stats,
        /// dialect and robot flags included.
        #[test]
        fn chunked_ingest_is_bit_identical_to_sequential(
            lines in proptest::collection::vec(arb_line(), 0..120),
            combined_log in 0u8..2,
            crlf in 0u8..2,
            trailing_newline in 0u8..2,
        ) {
            let eol = if crlf == 1 { "\r\n" } else { "\n" };
            let pick = |(common, with_agent): &(String, String)| {
                if combined_log == 1 { with_agent.clone() } else { common.clone() }
            };
            let mut text = lines.iter().map(pick).collect::<Vec<_>>().join(eol);
            if trailing_newline == 1 {
                text.push_str(eol);
            }
            for chunk_bytes in [7usize, 256, 4096] {
                for threads in [1usize, 2, 8] {
                    assert_equivalent(text.as_bytes(), chunk_bytes, threads);
                }
            }
        }
    }
}
