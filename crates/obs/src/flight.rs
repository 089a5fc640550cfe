//! Serving flight recorder: a fixed-capacity ring of per-request records.
//!
//! A long-running `pbppm serve` process needs to answer "what have you
//! been doing?" without logging every request to disk. The
//! [`FlightRecorder`] keeps the last `capacity` protocol requests — one
//! compact [`FlightRecord`] each — plus a power-of-two latency histogram
//! ([`LocalHist`]) per command kind, so `trace N` can replay the recent
//! past and `metrics` can report p50/p99 latencies at any moment.
//!
//! Memory is bounded **by construction**, not by policy:
//!
//! * the ring buffer is allocated once at its fixed capacity and never
//!   grows — pushing into a full recorder evicts the oldest record first;
//! * each record stores at most [`TOP_PREDICTIONS_CAP`] predictions;
//! * every stored URL is truncated to [`URL_BYTES_CAP`] bytes.
//!
//! A property test pins all three: a recorder fed an unbounded request
//! stream with adversarially long prediction lists and URLs never
//! reallocates its ring and never holds more than the per-record caps.
//!
//! This crate cannot see `pbppm-core`'s types (core depends on obs), so
//! records carry resolved URL strings rather than `UrlId`s.

use crate::metrics::LocalHist;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Most predictions one [`FlightRecord`] retains (the head of the ranked
/// top-k list).
pub const TOP_PREDICTIONS_CAP: usize = 8;

/// Most bytes of one stored URL; longer URLs are truncated at a char
/// boundary.
pub const URL_BYTES_CAP: usize = 96;

/// The protocol command (or internal event) a record or histogram belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `train` — feed one session.
    Train,
    /// `predict` — rank prefetch candidates.
    Predict,
    /// `checkpoint` — force a snapshot write.
    Checkpoint,
    /// `stats` — one-line model summary.
    Stats,
    /// `metrics` — full metrics exposition.
    Metrics,
    /// `trace` — dump recent flight records.
    Trace,
    /// `health` — ok/degraded one-liner.
    Health,
    /// `quit` — final checkpoint and exit.
    Quit,
    /// An internal model rebuild (not a protocol command; histogram only).
    Rebuild,
    /// Anything unrecognized (empty lines, protocol errors).
    Other,
}

/// Every kind, in the order their histograms are exported.
pub const COMMAND_KINDS: [CommandKind; 10] = [
    CommandKind::Train,
    CommandKind::Predict,
    CommandKind::Checkpoint,
    CommandKind::Stats,
    CommandKind::Metrics,
    CommandKind::Trace,
    CommandKind::Health,
    CommandKind::Quit,
    CommandKind::Rebuild,
    CommandKind::Other,
];

impl CommandKind {
    /// Stable lower-case label (used in record lines and metric labels).
    pub fn label(self) -> &'static str {
        match self {
            CommandKind::Train => "train",
            CommandKind::Predict => "predict",
            CommandKind::Checkpoint => "checkpoint",
            CommandKind::Stats => "stats",
            CommandKind::Metrics => "metrics",
            CommandKind::Trace => "trace",
            CommandKind::Health => "health",
            CommandKind::Quit => "quit",
            CommandKind::Rebuild => "rebuild",
            CommandKind::Other => "other",
        }
    }

    /// Classifies a protocol command word.
    pub fn parse(cmd: &str) -> Self {
        match cmd {
            "train" => CommandKind::Train,
            "predict" => CommandKind::Predict,
            "checkpoint" => CommandKind::Checkpoint,
            "stats" => CommandKind::Stats,
            "metrics" => CommandKind::Metrics,
            "trace" => CommandKind::Trace,
            "health" => CommandKind::Health,
            "quit" => CommandKind::Quit,
            _ => CommandKind::Other,
        }
    }

    fn index(self) -> usize {
        COMMAND_KINDS
            .iter()
            .position(|&k| k == self)
            .unwrap_or(COMMAND_KINDS.len() - 1)
    }
}

/// One handled request: what came in, how long it took, what went out.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic request sequence number (1-based; never reused).
    pub seq: u64,
    /// The command kind.
    pub kind: CommandKind,
    /// Wall-clock handling latency in nanoseconds.
    pub latency_ns: u64,
    /// Whether the response line started with `ok`.
    pub ok: bool,
    /// Head of the ranked predictions (predict requests), capped at
    /// [`TOP_PREDICTIONS_CAP`] entries of [`URL_BYTES_CAP`]-truncated URLs.
    pub top: Vec<(String, f64)>,
}

impl FlightRecord {
    /// One-line rendering for the `trace` command:
    /// `#42 predict ok 12544ns top=[0.62 /a.html, …]`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "#{} {} {} {}ns",
            self.seq,
            self.kind.label(),
            if self.ok { "ok" } else { "err" },
            self.latency_ns
        );
        if !self.top.is_empty() {
            line.push_str(" top=[");
            for (i, (url, prob)) in self.top.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{prob:.3} {url}");
            }
            line.push(']');
        }
        line
    }
}

/// Truncates a URL to [`URL_BYTES_CAP`] bytes without splitting a UTF-8
/// character.
fn capped_url(url: &str) -> String {
    if url.len() <= URL_BYTES_CAP {
        return url.to_owned();
    }
    let mut end = URL_BYTES_CAP;
    while end > 0 && !url.is_char_boundary(end) {
        end -= 1;
    }
    url[..end].to_owned()
}

/// The fixed-capacity ring of recent [`FlightRecord`]s plus per-kind
/// latency histograms.
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    records: VecDeque<FlightRecord>,
    hists: [LocalHist; COMMAND_KINDS.len()],
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` requests (at least 1). The
    /// ring is allocated here, once; it never grows afterwards.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            next_seq: 0,
            records: VecDeque::with_capacity(capacity),
            hists: std::array::from_fn(|_| LocalHist::default()),
        }
    }

    /// The fixed record capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total requests ever recorded (eviction does not decrement).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Allocated ring slots (test hook for the capacity-pinning property:
    /// must never exceed its value at construction time).
    pub fn ring_capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Records one handled request, assigning it the next sequence number
    /// and folding its latency into the per-kind histogram. `top` is
    /// truncated to [`TOP_PREDICTIONS_CAP`] entries and each URL to
    /// [`URL_BYTES_CAP`] bytes; a full ring evicts its oldest record.
    pub fn push(&mut self, kind: CommandKind, latency_ns: u64, ok: bool, top: &[(&str, f64)]) {
        self.next_seq += 1;
        self.hists[kind.index()].observe(latency_ns);
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(FlightRecord {
            seq: self.next_seq,
            kind,
            latency_ns,
            ok,
            top: top
                .iter()
                .take(TOP_PREDICTIONS_CAP)
                .map(|&(url, prob)| (capped_url(url), prob))
                .collect(),
        });
    }

    /// Folds a latency into a kind's histogram without a ring record —
    /// for internal events ([`CommandKind::Rebuild`]) that are not
    /// protocol requests.
    pub fn observe(&mut self, kind: CommandKind, latency_ns: u64) {
        self.hists[kind.index()].observe(latency_ns);
    }

    /// The last `n` records, oldest first.
    pub fn last(&self, n: usize) -> impl Iterator<Item = &FlightRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.records.iter().skip(skip)
    }

    /// The latency histogram for one command kind.
    pub fn hist(&self, kind: CommandKind) -> &LocalHist {
        &self.hists[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(CommandKind::Predict, i * 100, true, &[]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        let seqs: Vec<u64> = r.last(10).map(|rec| rec.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "oldest evicted, order preserved");
        let last: Vec<u64> = r.last(2).map(|rec| rec.seq).collect();
        assert_eq!(last, vec![4, 5]);
    }

    #[test]
    fn histograms_split_by_kind() {
        let mut r = FlightRecorder::new(4);
        r.push(CommandKind::Train, 100, true, &[]);
        r.push(CommandKind::Train, 200, true, &[]);
        r.push(CommandKind::Predict, 50, true, &[]);
        r.observe(CommandKind::Rebuild, 1_000_000);
        assert_eq!(r.hist(CommandKind::Train).count(), 2);
        assert_eq!(r.hist(CommandKind::Predict).count(), 1);
        assert_eq!(r.hist(CommandKind::Rebuild).count(), 1);
        assert_eq!(r.hist(CommandKind::Checkpoint).count(), 0);
        assert_eq!(r.len(), 3, "observe() leaves the ring alone");
    }

    #[test]
    fn predictions_and_urls_are_capped() {
        let mut r = FlightRecorder::new(2);
        let long_url = "/".repeat(3 * URL_BYTES_CAP);
        let many: Vec<(&str, f64)> = (0..50).map(|_| (long_url.as_str(), 0.5)).collect();
        r.push(CommandKind::Predict, 1, true, &many);
        let rec = r.last(1).next().unwrap();
        assert_eq!(rec.top.len(), TOP_PREDICTIONS_CAP);
        assert!(rec.top.iter().all(|(u, _)| u.len() <= URL_BYTES_CAP));
    }

    #[test]
    fn multibyte_urls_truncate_on_char_boundaries() {
        let url = "é".repeat(URL_BYTES_CAP); // 2 bytes per char
        let capped = capped_url(&url);
        assert!(capped.len() <= URL_BYTES_CAP);
        assert!(capped.is_char_boundary(capped.len()));
    }

    #[test]
    fn render_is_one_line_and_labelled() {
        let mut r = FlightRecorder::new(1);
        r.push(
            CommandKind::Predict,
            12_544,
            true,
            &[("/a.html", 0.625), ("/b.html", 0.25)],
        );
        let line = r.last(1).next().unwrap().render();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "#1 predict ok 12544ns top=[0.625 /a.html, 0.250 /b.html]"
        );
    }

    #[test]
    fn kind_parse_roundtrips_labels() {
        for kind in COMMAND_KINDS {
            if matches!(kind, CommandKind::Rebuild | CommandKind::Other) {
                continue; // not protocol commands
            }
            assert_eq!(CommandKind::parse(kind.label()), kind);
        }
        assert_eq!(CommandKind::parse("bogus"), CommandKind::Other);
    }
}
