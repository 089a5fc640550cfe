//! In-memory span log for traced runs.
//!
//! Spans are recorded only in the benchmark's own files, around the calls
//! it makes into the program (`batch` → `dispatch`, `request` →
//! `queue_wait`, and the build round's phases). They stay in memory during
//! the timed phase and are written out when the run ends. A layer's self
//! time is its span's duration minus the part of it its children cover.

use std::io::Write;

/// "No span" marker for [`Span::parent`] and [`Span::batch`].
pub const NONE: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Enclosing span (the one that caused this one), or [`NONE`].
    pub parent: u32,
    /// For `request` spans: the batch that served the request. A request
    /// is due before its batch starts, so it refers to the batch rather
    /// than nesting in it.
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// For `batch` spans: shards whose publication epoch moved while the
    /// batch was dispatched (a rebuild + audit + publish ran inside it).
    pub epoch_moves: u32,
}

/// The span log of one traced phase; disabled logs record nothing.
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id ([`NONE`] when disabled).
    #[allow(clippy::cast_possible_truncation)] // span counts stay far below u32::MAX
    pub fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name,
            parent,
            batch: NONE,
            start_ns,
            end_ns,
            epoch_moves: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Mutable access to a recorded span, to fill in attributes known only
    /// after it was pushed.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Span> {
        self.spans.get_mut(id as usize)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another phase's log, shifting its times by `offset_ns` and
    /// its span ids past this log's.
    #[allow(clippy::cast_possible_truncation)] // span counts stay far below u32::MAX
    pub fn absorb(&mut self, other: SpanLog, offset_ns: u64) {
        let base = self.spans.len() as u32;
        let shift = |id: u32| if id == NONE { NONE } else { id + base };
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: shift(s.parent),
            batch: shift(s.batch),
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            ..s
        }));
    }

    /// Writes the log as a JSON array of span objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let opt = |v: u32| {
                if v == NONE {
                    "null".to_owned()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"batch\":{},\"start_ns\":{},\"end_ns\":{},\"epoch_moves\":{}}}{sep}",
                s.name,
                opt(s.parent),
                opt(s.batch),
                s.start_ns,
                s.end_ns,
                s.epoch_moves
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Mean self time, in nanoseconds, of the spans called `name` (0 if none).
pub fn mean_self_ns(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .fold((0u64, 0u64), |(sum, n), (_, &t)| (sum + t, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(true);
        let parent = log.push("batch", NONE, 0, 100);
        log.push("dispatch", parent, 10, 60);
        // Overlaps the first child by 10 ns and sticks out past the parent.
        log.push("dispatch", parent, 50, 130);
        let leaf = log.push("request", NONE, 200, 260);
        log.push("queue_wait", leaf, 200, 230);
        let st = self_times(log.spans());
        // Parent: 100 − |[10, 100)| = 10.
        assert_eq!(st[0], 10);
        assert_eq!(st[1], 50);
        assert_eq!(st[2], 80);
        assert_eq!(st[3], 30);
        assert_eq!(mean_self_ns(log.spans(), &st, "dispatch"), 65.0);
        assert_eq!(mean_self_ns(log.spans(), &st, "missing"), 0.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.push("batch", NONE, 0, 1), NONE);
        assert!(log.spans().is_empty());
    }
}
