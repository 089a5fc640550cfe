//! Versioned, dependency-free binary persistence for trained models.
//!
//! The paper's low-storage pitch (§3, Table 1) implies a server that
//! persists its small PB-PPM model and warm-starts from it instead of
//! replaying the training trace. This module is that persistence layer: a
//! compact length-prefixed binary codec for every [`Predictor`] in the
//! crate — PB-PPM (special links included), standard PPM, LRS-PPM, the
//! order-1 Markov baseline, and the online sliding-window model — together
//! with the URL interner and the popularity table they depend on.
//!
//! ## File layout
//!
//! | offset  | size | field                                          |
//! |---------|------|------------------------------------------------|
//! | 0       | 8    | magic `"PBPPMSNP"`                             |
//! | 8       | 2    | format version, little-endian `u16`            |
//! | 10      | 8    | payload length `N`, little-endian `u64`        |
//! | 18      | N    | payload: model kind tag + body (varint-packed) |
//! | 18 + N  | 8    | FNV-1a 64 checksum of bytes `[0, 18 + N)`      |
//!
//! Integers inside the payload are LEB128 varints; `f64`s are stored as
//! their IEEE-754 bit pattern (8 bytes, little-endian) so probabilities and
//! thresholds round-trip **exactly** — reloading a model yields
//! bit-identical predictions, which the property tests in
//! `tests/snapshot_codec.rs` pin.
//!
//! ## Versioning policy
//!
//! The format version is bumped on any layout change; readers accept only
//! [`FORMAT_VERSION`] and reject anything else outright
//! ([`CodecError::UnsupportedVersion`]) rather than guessing. A file
//! stores what cannot be rederived: the arena's rows once each in level
//! order (a tree row's URL, count and child count; a special link's gap to
//! its root's slot, URL and count), the popularity counts and the
//! configuration. The rest follows from the order and is derived at load
//! ([`crate::frozen::FrozenTree::from_snapshot`]), which refuses rows
//! training never builds ([`CodecError::Arena`]). The order-1 model writes
//! its height-2 forest more compactly, as transition rows sorted by URL
//! with their successors sorted by URL: its roots, then their level. Grades
//! and the fingerprint index are rebuilt at instantiation. Only finalized
//! models are written; a model image of any kind whose `finalized` byte is
//! 0 is refused ([`CodecError::Unfinalized`]), as is any URL id outside the
//! file's URL table ([`CodecError::UrlOutOfRange`]) and a URL table that
//! repeats a string ([`CodecError::DuplicateUrl`]).
//! The checksum covers header and payload, so truncation and bit
//! corruption both surface as clean errors instead of garbage models.
//!
//! ## Crash-safe generations
//!
//! [`SnapshotStore`] manages a two-generation checkpoint directory
//! (`current.pbss` + `previous.pbss`): checkpoints are written to a temp
//! file, fsynced, and renamed into place, demoting the old current to
//! `previous`. [`SnapshotStore::recover`] loads the newest valid
//! generation, falling back to `previous` when `current` is truncated or
//! corrupt — the serving loop in the CLI builds directly on this. A
//! checkpoint step that fails (the temp write, the demote rename) returns
//! the error and leaves the newest complete generation recoverable.

use crate::frozen::{LinkSnapshot, NodeSnapshot, SnapshotError, TreeSnapshot, NO_NODE};
use crate::fxhash::FxHashSet;
use crate::interner::Interner;
use crate::order1::{Order1Markov, Order1RowSnapshot, Order1Snapshot};
use crate::pb::{PbConfig, PbPpm, PbSnapshot};
use crate::pb_online::{OnlinePbPpm, OnlinePbSnapshot};
use crate::popularity::PopularityTable;
use crate::predictor::Predictor;
use crate::prune::PruneConfig;
use crate::standard::{StandardPpm, StandardSnapshot};
use std::io::Write as _;
use std::iter::once;
use std::path::{Path, PathBuf};

/// The 8-byte magic at offset 0 of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PBPPMSNP";

/// The format version [`SnapshotFile::encode`] writes and the only one
/// [`SnapshotFile::decode`] accepts. Older versions are refused: version 2
/// stored an arena copy no loader used, version 3 every tree edge twice
/// beside tables the rows imply, and version 4 a parent per node where
/// level order implies it from a child count.
pub const FORMAT_VERSION: u16 = 5;

/// magic + version + payload length + checksum.
const ENVELOPE_BYTES: usize = 8 + 2 + 8 + 8;

/// File-name convention for snapshot files.
pub const SNAPSHOT_EXT: &str = "pbss";

// ------------------------------------------------------------------ errors

/// Why a snapshot byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the declared structure was complete.
    Truncated,
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the stream contents.
    ChecksumMismatch,
    /// An unknown model kind tag.
    BadKind(u8),
    /// Payload bytes left over after the model body — a length lie.
    TrailingBytes,
    /// A structurally invalid value (context in the message).
    Invalid(&'static str),
    /// The model image is not of a finalized model (its `finalized` byte
    /// is 0); nothing writes such files.
    Unfinalized,
    /// A stored URL id has no entry in the file's URL table.
    UrlOutOfRange(u32),
    /// URL table entry `id` repeats an earlier entry, so the interner
    /// rebuilt from the table would renumber every later URL.
    DuplicateUrl(u32),
    /// The embedded tree image failed structural validation.
    Arena(SnapshotError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot is truncated"),
            CodecError::BadMagic => write!(f, "not a pbppm snapshot (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {FORMAT_VERSION}; \
                     retrain older models)"
                )
            }
            CodecError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupt file)"),
            CodecError::BadKind(k) => write!(f, "unknown model kind tag {k}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            CodecError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            CodecError::Unfinalized => write!(f, "snapshot holds a model that was never finalized"),
            CodecError::UrlOutOfRange(url) => {
                write!(f, "url id {url} is outside the snapshot's url table")
            }
            CodecError::DuplicateUrl(id) => {
                write!(f, "url table entry {id} repeats an earlier entry")
            }
            CodecError::Arena(e) => write!(f, "invalid tree image: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<SnapshotError> for CodecError {
    fn from(e: SnapshotError) -> Self {
        CodecError::Arena(e)
    }
}

/// Where a snapshot file's bytes go, section by section
/// ([`SnapshotFile::decode_with_split`]). The fields sum to the file size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteSplit {
    /// Magic, version, payload length and checksum.
    pub envelope: u64,
    /// The URL table.
    pub urls: u64,
    /// PB-PPM's popularity counts.
    pub popularity: u64,
    /// The node records (order-1: its transition rows).
    pub nodes: u64,
    /// The online model's session window.
    pub window: u64,
    /// The kind tag, configuration, schedule counters and flags.
    pub settings: u64,
}

impl ByteSplit {
    /// The file size: every section summed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.envelope + self.urls + self.popularity + self.nodes + self.window + self.settings
    }

    /// The sections as `(name, bytes)` pairs.
    #[must_use]
    pub fn sections(&self) -> [(&'static str, u64); 6] {
        [
            ("envelope", self.envelope),
            ("urls", self.urls),
            ("popularity", self.popularity),
            ("nodes", self.nodes),
            ("window", self.window),
            ("settings", self.settings),
        ]
    }
}

/// A snapshot file operation failure: the I/O or the decode step.
#[derive(Debug)]
pub enum SnapshotIoError {
    /// Filesystem failure (path in the message).
    Io(String, std::io::Error),
    /// The bytes were read but did not decode.
    Codec(String, CodecError),
}

impl SnapshotIoError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        SnapshotIoError::Io(path.display().to_string(), e)
    }

    /// True when the underlying cause is a missing file (recovery treats
    /// this as "no generation here", not corruption).
    pub fn is_not_found(&self) -> bool {
        matches!(self, SnapshotIoError::Io(_, e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for SnapshotIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotIoError::Io(path, e) => write!(f, "{path}: {e}"),
            SnapshotIoError::Codec(path, e) => write!(f, "{path}: {e}"),
        }
    }
}

impl std::error::Error for SnapshotIoError {}

// ----------------------------------------------------------------- checksum

/// FNV-1a 64. Not cryptographic — it guards against truncation and bit rot,
/// not adversaries. Every byte feeds an invertible step (xor + odd-prime
/// multiply), so any single-byte change alters the digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// usize → u64 without an `as` cast. Lossless on every supported platform
/// (usize is at most 64 bits); saturates rather than truncates if that ever
/// stops being true.
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

// ------------------------------------------------------------ writer/reader

/// Append-only byte sink with LEB128 varints.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f).to_le_bytes()[0];
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn u32v(&mut self, v: u32) {
        self.varint(u64::from(v));
    }

    fn usizev(&mut self, v: usize) {
        self.varint(len_u64(v));
    }

    fn f64bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.usizev(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked byte source matching [`Writer`]; it charges the bytes
/// of each measured section to its [`ByteSplit`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    split: ByteSplit,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            split: ByteSplit::default(),
        }
    }

    /// Runs `read`, charging the bytes it consumes to `section`.
    fn measured<T>(
        &mut self,
        section: fn(&mut ByteSplit) -> &mut u64,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let start = self.pos;
        let value = read(self)?;
        *section(&mut self.split) += len_u64(self.pos - start);
        Ok(value)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("boolean")),
        }
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(CodecError::Invalid("varint overflow"));
            }
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }

    fn u32v(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::Invalid("u32 overflow"))
    }

    fn usizev(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.varint()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// A collection count, sanity-capped against the bytes that could
    /// possibly encode that many elements (at least one byte each), so a
    /// corrupt length cannot drive a huge allocation before [`Self::take`]
    /// fails naturally.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.usizev()?;
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn f64bits(&mut self) -> Result<f64, CodecError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.count()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

// -------------------------------------------------------- component codecs

/// Writes the tree rows, each as `u32v(url)`, `varint(count)` and
/// `u32v(children)`, then the links, each as `u32v(root slot − the last
/// link's)`, `u32v(url)` and `varint(count)`. A root slot below the last
/// link's wraps past `u32::MAX`, which the reader decodes as slot
/// `u32::MAX` for the loader to refuse.
fn write_tree(w: &mut Writer, t: &TreeSnapshot) {
    w.usizev(t.nodes.len());
    for n in &t.nodes {
        w.u32v(n.url);
        w.varint(n.count);
        w.u32v(n.children);
    }
    w.usizev(t.links.len());
    let mut root = 0;
    for l in &t.links {
        w.u32v(l.root.wrapping_sub(root));
        w.u32v(l.url);
        w.varint(l.count);
        root = l.root;
    }
}

fn read_tree(r: &mut Reader) -> Result<TreeSnapshot, CodecError> {
    let node_count = r.count()?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(NodeSnapshot {
            url: r.u32v()?,
            count: r.varint()?,
            children: r.u32v()?,
        });
    }
    let link_count = r.count()?;
    let mut links = Vec::with_capacity(link_count);
    let mut root = 0u32;
    for _ in 0..link_count {
        root = root.checked_add(r.u32v()?).unwrap_or(NO_NODE);
        links.push(LinkSnapshot {
            root,
            url: r.u32v()?,
            count: r.varint()?,
        });
    }
    Ok(TreeSnapshot { nodes, links })
}

fn write_pop(w: &mut Writer, pop: &PopularityTable) {
    let counts = pop.counts();
    w.usizev(counts.len());
    for &c in counts {
        w.varint(c);
    }
}

fn read_pop(r: &mut Reader) -> Result<PopularityTable, CodecError> {
    let n = r.count()?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.varint()?);
    }
    Ok(PopularityTable::from_counts(counts))
}

fn write_pb_config(w: &mut Writer, cfg: &PbConfig) {
    for h in cfg.heights {
        w.u8(h);
    }
    w.bool(cfg.special_links);
    match cfg.prune.relative_threshold {
        Some(t) => {
            w.bool(true);
            w.f64bits(t);
        }
        None => w.bool(false),
    }
    match cfg.prune.min_abs_count {
        Some(c) => {
            w.bool(true);
            w.varint(c);
        }
        None => w.bool(false),
    }
    w.usizev(cfg.max_order);
}

fn read_pb_config(r: &mut Reader) -> Result<PbConfig, CodecError> {
    let mut heights = [0u8; 4];
    for h in &mut heights {
        *h = r.u8()?;
    }
    let special_links = r.bool()?;
    let relative_threshold = if r.bool()? { Some(r.f64bits()?) } else { None };
    let min_abs_count = if r.bool()? { Some(r.varint()?) } else { None };
    let max_order = r.usizev()?;
    Ok(PbConfig {
        heights,
        special_links,
        prune: PruneConfig {
            relative_threshold,
            min_abs_count,
        },
        max_order,
    })
}

/// The `finalized` byte after a model image: always 1 on write, and
/// required on read.
fn read_finalized(r: &mut Reader) -> Result<(), CodecError> {
    if r.bool()? {
        Ok(())
    } else {
        Err(CodecError::Unfinalized)
    }
}

/// An LRS image's height cap: 255 is unbounded, 1..=254 a cap. Nothing
/// writes 0 or more than 255, and a cap of 0 would load a model that
/// never predicts, so both are refused.
fn read_lrs_height(r: &mut Reader) -> Result<Option<u8>, CodecError> {
    match u8::try_from(r.usizev()?) {
        Ok(u8::MAX) => Ok(None),
        Ok(h) if h > 0 => Ok(Some(h)),
        _ => Err(CodecError::Invalid("lrs max_height")),
    }
}

fn write_pb(w: &mut Writer, s: &PbSnapshot) {
    write_tree(w, &s.tree);
    write_pop(w, &s.pop);
    write_pb_config(w, &s.cfg);
    w.bool(true);
}

fn read_pb(r: &mut Reader) -> Result<PbSnapshot, CodecError> {
    let snap = PbSnapshot {
        tree: r.measured(|s| &mut s.nodes, read_tree)?,
        pop: r.measured(|s| &mut s.popularity, read_pop)?,
        cfg: read_pb_config(r)?,
    };
    read_finalized(r)?;
    Ok(snap)
}

/// The first node or link URL id in a tree image at or past `bound`.
fn tree_url_outside(t: &TreeSnapshot, bound: u32) -> Option<u32> {
    let links = t.links.iter().map(|l| l.url);
    t.nodes
        .iter()
        .map(|n| n.url)
        .chain(links)
        .find(|&url| url >= bound)
}

fn write_sessions(w: &mut Writer, sessions: &[Vec<crate::interner::UrlId>]) {
    w.usizev(sessions.len());
    for s in sessions {
        w.usizev(s.len());
        for &u in s {
            w.u32v(u.0);
        }
    }
}

fn read_sessions(r: &mut Reader) -> Result<Vec<Vec<crate::interner::UrlId>>, CodecError> {
    let n = r.count()?;
    let mut sessions = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count()?;
        let mut s = Vec::with_capacity(len);
        for _ in 0..len {
            s.push(crate::interner::UrlId(r.u32v()?));
        }
        sessions.push(s);
    }
    Ok(sessions)
}

/// The URL table: a count, then each string. A repeated string is
/// refused, since the interner rebuilt from the table would renumber every
/// later URL.
fn read_urls(r: &mut Reader) -> Result<Vec<String>, CodecError> {
    let url_count = r.count()?;
    let mut urls = Vec::with_capacity(url_count);
    let mut seen = FxHashSet::default();
    seen.reserve(url_count);
    for id in 0..url_count {
        let url = r.str()?;
        if !seen.insert(url) {
            return Err(CodecError::DuplicateUrl(
                u32::try_from(id).unwrap_or(u32::MAX),
            ));
        }
        urls.push(url.to_owned());
    }
    Ok(urls)
}

fn read_order1_rows(r: &mut Reader) -> Result<Vec<Order1RowSnapshot>, CodecError> {
    let row_count = r.count()?;
    let mut rows = Vec::with_capacity(row_count);
    for _ in 0..row_count {
        let url = r.u32v()?;
        let total = r.varint()?;
        let next_count = r.count()?;
        let mut next = Vec::with_capacity(next_count);
        for _ in 0..next_count {
            next.push((r.u32v()?, r.varint()?));
        }
        rows.push(Order1RowSnapshot { url, total, next });
    }
    Ok(rows)
}

// ------------------------------------------------------------- model image

/// Kind tags in the payload's first byte.
const KIND_PB: u8 = 1;
const KIND_STANDARD: u8 = 2;
const KIND_LRS: u8 = 3;
const KIND_ORDER1: u8 = 4;
const KIND_ONLINE_PB: u8 = 5;

/// A serializable image of any model the crate can persist.
#[derive(Debug, Clone)]
pub enum ModelImage {
    /// Popularity-based PPM (special links included).
    Pb(PbSnapshot),
    /// Standard PPM, or LRS-PPM when it has a support threshold.
    Standard(StandardSnapshot),
    /// First-order Markov baseline.
    Order1(Order1Snapshot),
    /// Sliding-window online PB-PPM (window + inner model + schedule).
    OnlinePb(OnlinePbSnapshot),
}

impl ModelImage {
    fn tag(&self) -> u8 {
        match self {
            ModelImage::Pb(_) => KIND_PB,
            ModelImage::Standard(s) if s.min_support.is_some() => KIND_LRS,
            ModelImage::Standard(_) => KIND_STANDARD,
            ModelImage::Order1(_) => KIND_ORDER1,
            ModelImage::OnlinePb(_) => KIND_ONLINE_PB,
        }
    }

    /// Short label for telemetry and messages ("PB-PPM", "PPM", …).
    pub fn kind_label(&self) -> &'static str {
        match self {
            ModelImage::Pb(_) => "PB-PPM",
            ModelImage::Standard(s) if s.min_support.is_some() => "LRS-PPM",
            ModelImage::Standard(_) => "PPM",
            ModelImage::Order1(_) => "O1",
            ModelImage::OnlinePb(_) => "online-PB-PPM",
        }
    }
}

// ------------------------------------------------------------ the envelope

/// A complete snapshot: the URL interner (id order) plus one model image.
///
/// Snapshots store dense [`crate::interner::UrlId`]s; the URL list makes
/// them meaningful again after a restart.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// Interned URL strings, in id order (`urls[i]` is `UrlId(i)`).
    pub urls: Vec<String>,
    /// The model.
    pub model: ModelImage,
}

impl SnapshotFile {
    /// Pairs a model image with the interner its URL ids refer to (the
    /// inverse of [`SnapshotFile::interner`]).
    pub fn new(interner: &Interner, model: ModelImage) -> Self {
        Self {
            urls: interner.iter().map(|(_, url)| url.to_owned()).collect(),
            model,
        }
    }

    /// Encodes the snapshot into the framed binary format at
    /// [`FORMAT_VERSION`].
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.u8(self.model.tag());
        payload.usizev(self.urls.len());
        for url in &self.urls {
            payload.str(url);
        }
        match &self.model {
            ModelImage::Pb(s) => write_pb(&mut payload, s),
            ModelImage::Standard(s) => {
                write_tree(&mut payload, &s.tree);
                match (s.min_support, s.max_height) {
                    // LRS stores its cap as a varint, unbounded as 255
                    // (`read_lrs_height` inverts this).
                    (Some(min_support), h) => {
                        payload.varint(min_support);
                        payload.usizev(usize::from(h.map_or(u8::MAX, |h| h.max(1))));
                    }
                    (None, Some(h)) => {
                        payload.bool(true);
                        payload.u8(h);
                    }
                    (None, None) => payload.bool(false),
                }
                payload.bool(true);
            }
            ModelImage::Order1(s) => {
                payload.usizev(s.rows.len());
                for row in &s.rows {
                    payload.u32v(row.url);
                    payload.varint(row.total);
                    payload.usizev(row.next.len());
                    for &(u, c) in &row.next {
                        payload.u32v(u);
                        payload.varint(c);
                    }
                }
                payload.bool(true);
            }
            ModelImage::OnlinePb(s) => {
                write_pb_config(&mut payload, &s.cfg);
                payload.usizev(s.max_window);
                payload.usizev(s.rebuild_every);
                payload.usizev(s.since_rebuild);
                payload.varint(s.rebuilds);
                write_sessions(&mut payload, &s.window);
                match &s.model {
                    Some(m) => {
                        payload.bool(true);
                        write_pb(&mut payload, m);
                    }
                    None => payload.bool(false),
                }
            }
        }
        let payload = payload.buf;

        let mut out = Vec::with_capacity(ENVELOPE_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&len_u64(payload.len()).to_le_bytes());
        out.extend_from_slice(&payload);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a framed snapshot, validating magic, version, length, and
    /// checksum before touching the payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode_with_split(bytes).map(|(file, _)| file)
    }

    /// [`SnapshotFile::decode`], also reporting where the file's bytes go.
    pub fn decode_with_split(bytes: &[u8]) -> Result<(Self, ByteSplit), CodecError> {
        if bytes.len() >= 8 && bytes[..8] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if bytes.len() < ENVELOPE_BYTES {
            return Err(CodecError::Truncated);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[10..18]);
        let payload_len = u64::from_le_bytes(len8);
        let expected_total = len_u64(ENVELOPE_BYTES).checked_add(payload_len);
        match expected_total {
            Some(total) if total == len_u64(bytes.len()) => {}
            Some(total) if total > len_u64(bytes.len()) => return Err(CodecError::Truncated),
            _ => return Err(CodecError::TrailingBytes),
        }
        let body_end = bytes.len() - 8;
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&bytes[body_end..]);
        if fnv1a(&bytes[..body_end]) != u64::from_le_bytes(sum8) {
            return Err(CodecError::ChecksumMismatch);
        }

        let mut r = Reader::new(&bytes[18..body_end]);
        let tag = r.u8()?;
        let urls = r.measured(|s| &mut s.urls, read_urls)?;
        let model = match tag {
            KIND_PB => ModelImage::Pb(read_pb(&mut r)?),
            KIND_STANDARD => {
                let snap = StandardSnapshot {
                    tree: r.measured(|s| &mut s.nodes, read_tree)?,
                    max_height: if r.bool()? { Some(r.u8()?) } else { None },
                    min_support: None,
                };
                read_finalized(&mut r)?;
                ModelImage::Standard(snap)
            }
            KIND_LRS => {
                let tree = r.measured(|s| &mut s.nodes, read_tree)?;
                let min_support = Some(r.varint()?);
                let snap = StandardSnapshot {
                    tree,
                    max_height: read_lrs_height(&mut r)?,
                    min_support,
                };
                read_finalized(&mut r)?;
                ModelImage::Standard(snap)
            }
            KIND_ORDER1 => {
                let rows = r.measured(|s| &mut s.nodes, read_order1_rows)?;
                read_finalized(&mut r)?;
                ModelImage::Order1(Order1Snapshot { rows })
            }
            KIND_ONLINE_PB => {
                let cfg = read_pb_config(&mut r)?;
                let max_window = r.usizev()?;
                let rebuild_every = r.usizev()?;
                let since_rebuild = r.usizev()?;
                let rebuilds = r.varint()?;
                let window = r.measured(|s| &mut s.window, read_sessions)?;
                let model = if r.bool()? {
                    Some(read_pb(&mut r)?)
                } else {
                    None
                };
                ModelImage::OnlinePb(OnlinePbSnapshot {
                    cfg,
                    window,
                    max_window,
                    rebuild_every,
                    since_rebuild,
                    rebuilds,
                    model,
                })
            }
            other => return Err(CodecError::BadKind(other)),
        };
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes);
        }
        let file = SnapshotFile { urls, model };
        file.check_urls()?;
        let mut split = r.split;
        split.envelope = len_u64(ENVELOPE_BYTES);
        split.settings = payload_len - split.urls - split.popularity - split.nodes - split.window;
        Ok((file, split))
    }

    /// Checks that every URL id the model stores — node, order-1 row and
    /// online-window ids — names an entry of `urls`. Model
    /// structures are sized by their largest URL id, so an unchecked id is
    /// an allocation of the forger's choosing.
    pub fn check_urls(&self) -> Result<(), CodecError> {
        // Interner ids are u32, so a table this long admits every id.
        let bound = u32::try_from(self.urls.len()).unwrap_or(u32::MAX);
        let found = match &self.model {
            ModelImage::Pb(s) => tree_url_outside(&s.tree, bound),
            ModelImage::Standard(s) => tree_url_outside(&s.tree, bound),
            ModelImage::Order1(s) => s
                .rows
                .iter()
                .flat_map(|row| once(row.url).chain(row.next.iter().map(|n| n.0)))
                .find(|&url| url >= bound),
            ModelImage::OnlinePb(s) => s
                .window
                .iter()
                .flatten()
                .map(|u| u.0)
                .find(|&url| url >= bound)
                .or_else(|| {
                    s.model
                        .as_ref()
                        .and_then(|m| tree_url_outside(&m.tree, bound))
                }),
        };
        found.map_or(Ok(()), |url| Err(CodecError::UrlOutOfRange(url)))
    }

    /// Rebuilds the interner from the stored URL list, sized exactly: a
    /// loaded model carries no growth slack. URL `i` gets id `i`, because
    /// the list holds no string twice ([`SnapshotFile::decode`] refuses
    /// one that does).
    pub fn interner(&self) -> Interner {
        let bytes = self.urls.iter().map(String::len).sum();
        let mut interner = Interner::with_capacity_and_bytes(self.urls.len(), bytes);
        for url in &self.urls {
            interner.intern(url);
        }
        interner
    }

    /// Instantiates the stored model behind the common [`Predictor`]
    /// interface, revalidating the URL ids ([`SnapshotFile::check_urls`])
    /// and the tree image.
    pub fn instantiate(&self) -> Result<Box<dyn Predictor>, CodecError> {
        self.check_urls()?;
        Ok(match &self.model {
            ModelImage::Pb(s) => Box::new(PbPpm::from_snapshot(s)?),
            ModelImage::Standard(s) => Box::new(StandardPpm::from_snapshot(s)?),
            ModelImage::Order1(s) => Box::new(Order1Markov::from_snapshot(s)?),
            ModelImage::OnlinePb(s) => Box::new(OnlinePbPpm::from_snapshot(s)?),
        })
    }

    /// Atomically writes the snapshot to `path`: encode, write to a
    /// sibling temp file, fsync, rename into place, fsync the directory.
    /// Returns the file size in bytes.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, SnapshotIoError> {
        let start = std::time::Instant::now();
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        let write = |p: &Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(p)?;
            f.write_all(&bytes)?;
            f.sync_all()
        };
        write(&tmp).map_err(|e| SnapshotIoError::io(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotIoError::io(path, e))?;
        sync_dir(path);
        if pbppm_obs::ENABLED {
            let reg = pbppm_obs::global();
            let label = format!("model={}", self.model.kind_label());
            reg.counter("snapshot.writes", &label).inc();
            reg.gauge("snapshot.bytes", &label)
                .set(len_u64(bytes.len()));
            reg.histogram("snapshot.write_micros", &label)
                .observe(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        Ok(len_u64(bytes.len()))
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn read(path: &Path) -> Result<Self, SnapshotIoError> {
        let start = std::time::Instant::now();
        let bytes = std::fs::read(path).map_err(|e| SnapshotIoError::io(path, e))?;
        let file = Self::decode(&bytes)
            .map_err(|e| SnapshotIoError::Codec(path.display().to_string(), e))?;
        if pbppm_obs::ENABLED {
            let reg = pbppm_obs::global();
            let label = format!("model={}", file.model.kind_label());
            reg.counter("snapshot.loads", &label).inc();
            reg.histogram("snapshot.load_micros", &label)
                .observe(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        Ok(file)
    }
}

/// Best-effort directory fsync so the rename itself is durable. Failure is
/// ignored: not every platform or filesystem supports it, and the data file
/// was already synced.
fn sync_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

// ------------------------------------------------------------------- store

/// Which checkpoint generation a recovery loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// `current.pbss` — the newest checkpoint.
    Current,
    /// `previous.pbss` — the fallback after a corrupt or truncated current.
    Previous,
}

/// A two-generation crash-safe checkpoint directory.
///
/// [`SnapshotStore::checkpoint`] writes the new snapshot to a temp file
/// (fsynced), demotes `current.pbss` to `previous.pbss`, and renames the
/// temp file into place. Each step is an atomic rename; a crash between the
/// demotion and the final rename leaves only `previous.pbss`, which
/// [`SnapshotStore::recover`] handles like any other missing-current case.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory managed by the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the newest checkpoint.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join(format!("current.{SNAPSHOT_EXT}"))
    }

    /// Path of the demoted (one-older) checkpoint.
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join(format!("previous.{SNAPSHOT_EXT}"))
    }

    /// Writes a new checkpoint generation, demoting the old current.
    /// Returns the checkpoint size in bytes.
    pub fn checkpoint(&self, file: &SnapshotFile) -> Result<u64, SnapshotIoError> {
        let current = self.current_path();
        let incoming = self.dir.join(format!("incoming.{SNAPSHOT_EXT}"));
        let bytes = file.write_atomic(&incoming)?;
        if current.exists() {
            std::fs::rename(&current, self.previous_path())
                .map_err(|e| SnapshotIoError::io(&current, e))?;
        }
        std::fs::rename(&incoming, &current).map_err(|e| SnapshotIoError::io(&current, e))?;
        sync_dir(&current);
        if pbppm_obs::ENABLED {
            pbppm_obs::global()
                .counter("snapshot.checkpoints", "")
                .inc();
        }
        Ok(bytes)
    }

    /// Loads the newest valid checkpoint.
    ///
    /// `Ok(None)` when the directory holds no checkpoint at all. When
    /// `current.pbss` is corrupt or truncated, falls back to
    /// `previous.pbss` (counting the event under
    /// `snapshot.recover.fallback`); the error is returned only when no
    /// generation is loadable.
    pub fn recover(&self) -> Result<Option<(SnapshotFile, Generation)>, SnapshotIoError> {
        let reg = pbppm_obs::ENABLED.then(pbppm_obs::global);
        match SnapshotFile::read(&self.current_path()) {
            Ok(file) => {
                if let Some(reg) = reg {
                    reg.counter("snapshot.recover.current", "").inc();
                }
                Ok(Some((file, Generation::Current)))
            }
            Err(current_err) => {
                let current_missing = current_err.is_not_found();
                if !current_missing {
                    pbppm_obs::obs_warn!(
                        "snapshot recovery: current generation unusable ({current_err}); \
                         falling back to previous"
                    );
                }
                match SnapshotFile::read(&self.previous_path()) {
                    Ok(file) => {
                        if let Some(reg) = reg {
                            reg.counter("snapshot.recover.fallback", "").inc();
                        }
                        Ok(Some((file, Generation::Previous)))
                    }
                    Err(prev_err) if prev_err.is_not_found() => {
                        if current_missing {
                            // Nothing here yet: a fresh directory.
                            Ok(None)
                        } else {
                            if let Some(reg) = reg {
                                reg.counter("snapshot.recover.failed", "").inc();
                            }
                            Err(current_err)
                        }
                    }
                    Err(prev_err) => {
                        if let Some(reg) = reg {
                            reg.counter("snapshot.recover.failed", "").inc();
                        }
                        if current_missing {
                            Err(prev_err)
                        } else {
                            pbppm_obs::obs_warn!(
                                "snapshot recovery: previous generation also unusable ({prev_err})"
                            );
                            Err(current_err)
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::UrlId;
    use crate::popularity::PopularityTable;

    fn trained_pb() -> (Vec<String>, PbPpm) {
        let urls: Vec<String> = (0..6).map(|i| format!("/page{i}.html")).collect();
        let mut pop = PopularityTable::builder();
        for _ in 0..50 {
            pop.record(UrlId(0));
        }
        for _ in 0..5 {
            pop.record(UrlId(1));
            pop.record(UrlId(2));
        }
        pop.record(UrlId(3));
        let mut m = PbPpm::new(pop.build(), PbConfig::default());
        for _ in 0..10 {
            m.train_session(&[UrlId(0), UrlId(1), UrlId(2)]);
            m.train_session(&[UrlId(0), UrlId(2), UrlId(3)]);
        }
        m.finalize();
        (urls, m)
    }

    #[test]
    fn envelope_roundtrip() {
        let (urls, m) = trained_pb();
        let file = SnapshotFile {
            urls: urls.clone(),
            model: ModelImage::Pb(m.to_snapshot()),
        };
        let bytes = file.encode();
        assert_eq!(&bytes[..8], &MAGIC);
        let back = SnapshotFile::decode(&bytes).unwrap();
        assert_eq!(back.urls, urls);
        let restored = back.instantiate().unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut ua = crate::predictor::PredictUsage::default();
        let mut ub = crate::predictor::PredictUsage::default();
        m.predict_ro(&[UrlId(0)], &mut a, &mut ua);
        restored.predict_ro(&[UrlId(0)], &mut b, &mut ub);
        assert_eq!(a, b);
        // The restored arena holds exactly the original's rows, so every
        // stat survives, arena bytes included.
        assert_eq!(m.stats(), restored.stats());
    }

    /// Overwrites the payload's last bytes with `tail` and reseals the
    /// checksum.
    fn with_payload_tail(mut bytes: Vec<u8>, tail: &[u8]) -> Vec<u8> {
        let body_end = bytes.len() - 8;
        bytes[body_end - tail.len()..body_end].copy_from_slice(tail);
        let checksum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Rewrites the `finalized` byte (the payload's last) and reseals the
    /// checksum.
    fn with_finalized_byte(bytes: Vec<u8>, value: u8) -> Vec<u8> {
        with_payload_tail(bytes, &[value])
    }

    /// An LRS payload ends with its varint height cap and the `finalized`
    /// byte. 255 loads as unbounded and 1..=254 as a cap; 0 (a model that
    /// never predicts) and anything above 255 are refused, though the
    /// checksum is valid.
    #[test]
    fn decode_maps_and_bounds_the_lrs_height_cap() {
        let mut m = StandardPpm::lrs();
        for _ in 0..2 {
            m.train_session(&[UrlId(0), UrlId(1)]);
        }
        m.finalize();
        let encode = |max_height| {
            SnapshotFile {
                urls: vec!["/a".to_owned(), "/b".to_owned()],
                model: ModelImage::Standard(StandardSnapshot {
                    max_height,
                    ..m.to_snapshot()
                }),
            }
            .encode()
        };
        let height = |bytes: &[u8]| match SnapshotFile::decode(bytes).map(|f| f.model) {
            Ok(ModelImage::Standard(s)) => Ok((s.max_height, s.min_support)),
            Ok(_) => panic!("an LRS payload decodes to a standard image"),
            Err(e) => Err(e),
        };
        let invalid = Err(CodecError::Invalid("lrs max_height"));

        // One-byte varints: a cap of 1, forged to 0.
        let capped = encode(Some(1));
        assert_eq!(capped[18], KIND_LRS);
        assert_eq!(height(&capped), Ok((Some(1), Some(2))));
        assert_eq!(height(&with_payload_tail(capped, &[0, 1])), invalid);
        // Two-byte varints: unbounded (255), then 254 and 256.
        let unbounded = encode(None);
        assert_eq!(height(&unbounded), Ok((None, Some(2))));
        let forged = |tail: &[u8]| height(&with_payload_tail(unbounded.clone(), tail));
        assert_eq!(forged(&[0xfe, 0x01, 1]), Ok((Some(254), Some(2))));
        assert_eq!(forged(&[0x80, 0x02, 1]), invalid);
    }

    #[test]
    fn decode_refuses_models_that_were_never_finalized() {
        let (urls, m) = trained_pb();
        let mut o1 = Order1Markov::new();
        o1.train_session(&[UrlId(0), UrlId(1), UrlId(0)]);
        o1.finalize();
        for model in [
            ModelImage::Pb(m.to_snapshot()),
            ModelImage::Order1(o1.to_snapshot()),
        ] {
            let bytes = SnapshotFile {
                urls: urls.clone(),
                model,
            }
            .encode();
            assert!(SnapshotFile::decode(&with_finalized_byte(bytes.clone(), 1)).is_ok());
            assert_eq!(
                SnapshotFile::decode(&with_finalized_byte(bytes, 0)).unwrap_err(),
                CodecError::Unfinalized
            );
        }
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let (urls, m) = trained_pb();
        let mut bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        bytes[0] ^= 0xff;
        assert_eq!(
            SnapshotFile::decode(&bytes).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            SnapshotFile::decode(b"not a snapshot at all").unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn decode_rejects_every_other_version() {
        let (urls, m) = trained_pb();
        let mut bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        // Older layouts are refused as firmly as newer ones: version 2
        // carried a frozen-arena section this reader no longer parses,
        // version 3 child lists, depths, a root table and link lists, and
        // version 4 a parent delta and link flag per node.
        for version in [1u16, 2, 3, 4, 99] {
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                SnapshotFile::decode(&bytes).unwrap_err(),
                CodecError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_at_any_prefix() {
        let (urls, m) = trained_pb();
        let bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_any_flipped_payload_byte() {
        let (urls, m) = trained_pb();
        let bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        // Flip one bit in every payload byte (and the checksum itself):
        // never a panic, always a clean error.
        for i in 18..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                SnapshotFile::decode(&corrupt).is_err(),
                "flipped byte {i} went undetected"
            );
        }
    }

    #[test]
    fn garbage_payload_with_valid_envelope_is_rejected() {
        // A syntactically valid envelope (magic, version, length, checksum
        // all good) around a garbage payload must fail with a clean decode
        // error, never a panic: the checksum only proves the bytes are what
        // was written, not that what was written makes sense.
        let payloads: [&[u8]; 4] = [
            &[],        // no kind tag at all
            &[0x2a],    // unknown kind tag
            &[KIND_PB], // ends right after the tag
            // kind tag + an 11-byte varint url count (overflows u64)
            &[
                KIND_PB, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ],
        ];
        for payload in payloads {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&len_u64(payload.len()).to_le_bytes());
            bytes.extend_from_slice(payload);
            let checksum = fnv1a(&bytes);
            bytes.extend_from_slice(&checksum.to_le_bytes());
            assert!(
                SnapshotFile::decode(&bytes).is_err(),
                "garbage payload {payload:?} decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let (urls, m) = trained_pb();
        let mut bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        bytes.push(0);
        assert_eq!(
            SnapshotFile::decode(&bytes).unwrap_err(),
            CodecError::TrailingBytes
        );
    }

    #[test]
    fn decode_refuses_a_url_table_that_repeats_a_string() {
        // Loading this table would renumber every URL after the repeat:
        // id 4 would resolve to "/page5.html" and id 5 to nothing.
        let (mut urls, m) = trained_pb();
        urls[3] = urls[1].clone();
        let bytes = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        }
        .encode();
        let err = SnapshotFile::decode(&bytes).unwrap_err();
        assert_eq!(err, CodecError::DuplicateUrl(3));
        assert_eq!(
            err.to_string(),
            "url table entry 3 repeats an earlier entry"
        );
    }

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("pbppm-snapshot-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    #[test]
    fn store_keeps_one_previous_generation() {
        let store = temp_store("generations");
        let (urls, m) = trained_pb();
        let file = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        };
        assert!(store.recover().unwrap().is_none(), "fresh dir is empty");
        store.checkpoint(&file).unwrap();
        assert!(store.current_path().exists());
        assert!(!store.previous_path().exists());
        store.checkpoint(&file).unwrap();
        assert!(store.current_path().exists());
        assert!(store.previous_path().exists());
        let (_, generation) = store.recover().unwrap().unwrap();
        assert_eq!(generation, Generation::Current);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_falls_back_to_previous_on_truncated_current() {
        let store = temp_store("fallback");
        let (urls, m) = trained_pb();
        let file = SnapshotFile {
            urls: urls.clone(),
            model: ModelImage::Pb(m.to_snapshot()),
        };
        store.checkpoint(&file).unwrap();
        store.checkpoint(&file).unwrap();
        // Truncate the current generation mid-payload.
        let bytes = std::fs::read(store.current_path()).unwrap();
        std::fs::write(store.current_path(), &bytes[..bytes.len() / 2]).unwrap();
        let (recovered, generation) = store.recover().unwrap().unwrap();
        assert_eq!(generation, Generation::Previous);
        assert_eq!(recovered.urls, urls);
        assert!(recovered.instantiate().is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Checkpoint generation `n`: a small model whose URL table names it.
    fn generation(n: usize) -> SnapshotFile {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[UrlId(0), UrlId(1)]);
        m.finalize();
        SnapshotFile {
            urls: vec![format!("/gen{n}/a"), format!("/gen{n}/b")],
            model: ModelImage::Standard(m.to_snapshot()),
        }
    }

    fn generation_of(file: &SnapshotFile) -> &str {
        file.urls[0]
            .strip_prefix("/gen")
            .and_then(|rest| rest.strip_suffix("/a"))
            .expect("a generation() file")
    }

    /// What `recover` returns from `store`: the generation's number and
    /// which file it came from.
    fn recovered(store: &SnapshotStore) -> Option<(String, Generation)> {
        let (file, from) = store.recover().unwrap()?;
        Some((generation_of(&file).to_owned(), from))
    }

    /// One more checkpoint from a crash state: it must leave `current`
    /// holding the new generation, `previous` holding `previous` (or
    /// nothing when no generation had reached `current`), and no
    /// leftover `incoming` file.
    fn assert_checkpoint_recovers(store: &SnapshotStore, previous: Option<&str>) {
        store.checkpoint(&generation(9)).unwrap();
        let current = SnapshotFile::read(&store.current_path()).unwrap();
        assert_eq!(generation_of(&current), "9");
        assert!(current.instantiate().is_ok());
        match previous {
            Some(n) => {
                let prev = SnapshotFile::read(&store.previous_path()).unwrap();
                assert_eq!(generation_of(&prev), n);
                assert!(prev.instantiate().is_ok());
            }
            None => assert!(!store.previous_path().exists()),
        }
        for leftover in ["incoming.tmp", "incoming.pbss"] {
            assert!(
                !store.dir().join(leftover).exists(),
                "{leftover} left behind"
            );
        }
    }

    /// A store after two completed checkpoints: generation 1 in
    /// `previous`, generation 2 in `current`.
    fn store_with_two_generations(tag: &str) -> SnapshotStore {
        let store = temp_store(tag);
        store.checkpoint(&generation(1)).unwrap();
        store.checkpoint(&generation(2)).unwrap();
        store
    }

    /// Crash while writing the temp file: a partial `incoming.tmp`.
    #[test]
    fn crash_during_the_temp_write_recovers_current() {
        let store = store_with_two_generations("crash-tmp");
        let bytes = generation(3).encode();
        std::fs::write(store.dir().join("incoming.tmp"), &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Current))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Crash after the temp file became `incoming.pbss`, before the old
    /// current was demoted.
    #[test]
    fn crash_before_the_demote_recovers_current() {
        let store = store_with_two_generations("crash-incoming");
        std::fs::write(store.dir().join("incoming.pbss"), generation(3).encode()).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Current))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Crash between the demote and the final rename: `previous` and
    /// `incoming`, no `current`.
    #[test]
    fn crash_between_the_renames_recovers_previous() {
        let store = store_with_two_generations("crash-demoted");
        std::fs::write(store.dir().join("incoming.pbss"), generation(3).encode()).unwrap();
        std::fs::rename(store.current_path(), store.previous_path()).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Previous))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The first checkpoint ever crashed before its final rename: only
    /// `incoming.pbss`. No generation reached `current`, so the store is
    /// fresh, and the next checkpoint leaves one generation.
    #[test]
    fn crash_in_the_first_checkpoint_recovers_fresh() {
        let store = temp_store("crash-first");
        std::fs::write(store.dir().join("incoming.pbss"), generation(1).encode()).unwrap();
        assert_eq!(recovered(&store), None);
        assert_checkpoint_recovers(&store, None);
        store.checkpoint(&generation(10)).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("10".to_owned(), Generation::Current))
        );
        let prev = SnapshotFile::read(&store.previous_path()).unwrap();
        assert_eq!(generation_of(&prev), "9");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The temp write fails for real: the store's directory has been moved
    /// aside and a regular file stands in its place. Once the directory is
    /// back, its generations are untouched.
    #[test]
    fn failing_temp_write_leaves_the_generations_intact() {
        let store = store_with_two_generations("fail-tmp");
        let aside = store.dir().with_extension("aside");
        let _ = std::fs::remove_dir_all(&aside);
        std::fs::rename(store.dir(), &aside).unwrap();
        std::fs::write(store.dir(), b"not a directory").unwrap();
        assert!(store.checkpoint(&generation(3)).is_err());
        std::fs::remove_file(store.dir()).unwrap();
        std::fs::rename(&aside, store.dir()).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Current))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The demote rename fails for real: a non-empty directory stands at
    /// `previous.pbss`, which no file can be renamed over.
    #[test]
    fn failing_demote_rename_keeps_current() {
        let store = store_with_two_generations("fail-demote");
        let blocker = store.previous_path();
        std::fs::remove_file(&blocker).unwrap();
        std::fs::create_dir(&blocker).unwrap();
        std::fs::write(blocker.join("keep"), b"x").unwrap();
        assert!(store.checkpoint(&generation(3)).is_err());
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Current))
        );
        std::fs::remove_dir_all(&blocker).unwrap();
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_errors_when_every_generation_is_corrupt() {
        let store = temp_store("all-corrupt");
        let (urls, m) = trained_pb();
        let file = SnapshotFile {
            urls,
            model: ModelImage::Pb(m.to_snapshot()),
        };
        store.checkpoint(&file).unwrap();
        store.checkpoint(&file).unwrap();
        for path in [store.current_path(), store.previous_path()] {
            let mut bytes = std::fs::read(&path).unwrap();
            let at = bytes.len() / 2;
            bytes[at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
        }
        assert!(store.recover().is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
