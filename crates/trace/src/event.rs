//! Request records and the trace container.

use pbppm_core::{Interner, UrlId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds per trace day.
pub const DAY_SECS: u64 = 86_400;

/// Dense identifier for a client (an IP address or host name in real logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The id as a `usize`, for direct `Vec` indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Coarse document type, classified from the URL extension exactly as §2.2
/// of the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DocKind {
    /// `.html`, `.htm`, `.shtml` — a page that may embed images.
    Html,
    /// The paper's embedded-image extension list (`.gif`, `.jpg`, …).
    Image,
    /// Everything else (downloads, CGI, directories, …).
    Other,
}

/// The paper's list of embeddable image extensions (§2.2).
const IMAGE_EXTS: &[&str] = &[
    "gif", "xbm", "jpg", "jpeg", "gif89", "tif", "tiff", "bmp", "ief", "jpe", "ras", "pnm", "pgm",
    "ppm", "rgb", "xpm", "xwd", "pcx", "pbm", "pic",
];

/// The paper's list of HTML extensions (§2.2). A trailing `/` (directory
/// index) is treated as HTML as well, as every practical log study does.
const HTML_EXTS: &[&str] = &["html", "htm", "shtml"];

impl DocKind {
    /// Classifies a URL path by its extension, compared without case and
    /// without copying it.
    pub fn from_url(path: &str) -> DocKind {
        // Strip query string / fragment before looking at the extension.
        let path = path.as_bytes();
        let path = match path.iter().position(|&c| c == b'?' || c == b'#') {
            Some(end) => &path[..end],
            None => path,
        };
        if path.ends_with(b"/") || path.is_empty() {
            return DocKind::Html;
        }
        let name = match path.iter().rposition(|&c| c == b'/') {
            Some(slash) => &path[slash + 1..],
            None => path,
        };
        let Some(dot) = name.iter().rposition(|&c| c == b'.') else {
            return DocKind::Other;
        };
        let ext = &name[dot + 1..];
        let is = |exts: &[&str]| exts.iter().any(|e| e.as_bytes().eq_ignore_ascii_case(ext));
        if is(HTML_EXTS) {
            DocKind::Html
        } else if is(IMAGE_EXTS) {
            DocKind::Image
        } else {
            DocKind::Other
        }
    }
}

/// One HTTP request, after URL and client interning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Seconds since the trace epoch.
    pub time: u64,
    /// Requesting client.
    pub client: ClientId,
    /// Requested document.
    pub url: UrlId,
    /// Transferred bytes.
    pub size: u32,
    /// HTTP status code.
    pub status: u16,
    /// Document type.
    pub kind: DocKind,
}

/// A complete server trace: time-ordered requests plus the two interners.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// All requests, sorted by `time` (stable on insertion order for ties).
    pub requests: Vec<Request>,
    /// URL path interner.
    pub urls: Interner,
    /// Client name interner.
    pub clients: Interner,
    /// Human-readable origin of the trace ("nasa-like", a file name, …).
    pub name: String,
}

impl Trace {
    /// Creates an empty, named trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Sorts requests by time (stable), restoring the container invariant
    /// after bulk insertion.
    pub fn sort(&mut self) {
        self.requests.sort_by_key(|r| r.time);
    }

    /// Number of whole-or-partial days the trace spans.
    pub fn days(&self) -> usize {
        match self.requests.last() {
            None => 0,
            Some(last) => (last.time / DAY_SECS) as usize + 1,
        }
    }

    /// The requests of day `d` (0-based), as a sub-slice.
    ///
    /// Requires the trace to be sorted by time.
    pub fn day(&self, d: usize) -> &[Request] {
        let lo = self
            .requests
            .partition_point(|r| r.time < d as u64 * DAY_SECS);
        let hi = self
            .requests
            .partition_point(|r| r.time < (d as u64 + 1) * DAY_SECS);
        &self.requests[lo..hi]
    }

    /// The requests of days `0..n` (the paper's "number of day files used
    /// for predictions"), as one sub-slice.
    pub fn first_days(&self, n: usize) -> &[Request] {
        let hi = self
            .requests
            .partition_point(|r| r.time < n as u64 * DAY_SECS);
        &self.requests[..hi]
    }

    /// The requests of days `from..to` (0-based, `to` exclusive), as one
    /// sub-slice. Requires the trace to be sorted by time.
    pub fn day_span(&self, from: usize, to: usize) -> &[Request] {
        let lo = self
            .requests
            .partition_point(|r| r.time < from as u64 * DAY_SECS);
        let hi = self
            .requests
            .partition_point(|r| r.time < to as u64 * DAY_SECS);
        &self.requests[lo..hi.max(lo)]
    }

    /// Total transferred bytes.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.size)).sum()
    }

    /// Number of distinct URLs that actually appear in requests.
    pub fn distinct_urls(&self) -> usize {
        let mut seen = pbppm_core::FxHashSet::default();
        self.requests.iter().for_each(|r| {
            seen.insert(r.url);
        });
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dockind_html_variants() {
        assert_eq!(DocKind::from_url("/index.html"), DocKind::Html);
        assert_eq!(DocKind::from_url("/a/b.HTM"), DocKind::Html);
        assert_eq!(DocKind::from_url("/x.shtml"), DocKind::Html);
        assert_eq!(DocKind::from_url("/dir/"), DocKind::Html);
        assert_eq!(DocKind::from_url(""), DocKind::Html);
    }

    #[test]
    fn dockind_image_variants() {
        for ext in ["gif", "jpg", "JPEG", "xbm", "tiff", "pcx"] {
            assert_eq!(
                DocKind::from_url(&format!("/img/logo.{ext}")),
                DocKind::Image,
                "{ext}"
            );
        }
    }

    #[test]
    fn dockind_other() {
        assert_eq!(DocKind::from_url("/data.tar.gz"), DocKind::Other);
        assert_eq!(DocKind::from_url("/cgi-bin/search"), DocKind::Other);
        assert_eq!(DocKind::from_url("/noext"), DocKind::Other);
    }

    #[test]
    fn dockind_ignores_query_strings() {
        assert_eq!(DocKind::from_url("/page.html?q=1"), DocKind::Html);
        assert_eq!(DocKind::from_url("/i.gif?cache=no#frag"), DocKind::Image);
    }

    fn req(time: u64) -> Request {
        Request {
            time,
            client: ClientId(0),
            url: UrlId(0),
            size: 100,
            status: 200,
            kind: DocKind::Html,
        }
    }

    #[test]
    fn day_slicing() {
        let mut t = Trace::new("t");
        t.requests = vec![
            req(10),
            req(DAY_SECS - 1),
            req(DAY_SECS),
            req(2 * DAY_SECS + 5),
        ];
        t.sort();
        assert_eq!(t.days(), 3);
        assert_eq!(t.day(0).len(), 2);
        assert_eq!(t.day(1).len(), 1);
        assert_eq!(t.day(2).len(), 1);
        assert_eq!(t.day(3).len(), 0);
        assert_eq!(t.first_days(2).len(), 3);
        assert_eq!(t.first_days(0).len(), 0);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("e");
        assert_eq!(t.days(), 0);
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.distinct_urls(), 0);
    }

    #[test]
    fn sort_is_stable_for_equal_times() {
        let mut t = Trace::new("t");
        let mut a = req(5);
        a.url = UrlId(1);
        let mut b = req(5);
        b.url = UrlId(2);
        t.requests = vec![a, b];
        t.sort();
        assert_eq!(t.requests[0].url, UrlId(1));
        assert_eq!(t.requests[1].url, UrlId(2));
    }

    #[test]
    fn totals() {
        let mut t = Trace::new("t");
        t.requests = vec![req(1), req(2)];
        assert_eq!(t.total_bytes(), 200);
        assert_eq!(t.distinct_urls(), 1);
    }
}
