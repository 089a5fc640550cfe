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
//! ## The URL table
//!
//! The payload's kind tag is followed by the URL table: the id-space size
//! (one past the largest URL id of the interner that wrote it), how many
//! entries follow, and, when that is fewer than the ids, a presence bitmap
//! of `⌈ids / 8⌉` bytes (id `i` is bit `i % 8` of byte `i / 8`). Then one
//! entry per present id in id order, each coded against an earlier entry.
//! A file keeps the strings of exactly the ids its model image stores
//! (tree and link rows, order-1 rows and successors): a URL no row names
//! can answer nothing, so its string is not written, but the id space and
//! every other id stay. An online checkpoint keeps every string, since its
//! writer goes on interning and a URL must keep its id across a restart;
//! its table is refused if it has a hole.
//!
//! | field              | written                  | meaning                                        |
//! |--------------------|--------------------------|------------------------------------------------|
//! | `distance`         | always                   | 0 for none, or 1–16: the reference is `distance` entries back |
//! | `prefix`, `suffix` | when `distance` > 0      | bytes kept from the reference's start and end  |
//! | middle length      | always                   | then that many literal bytes                   |
//!
//! The URL is `reference[..prefix] + middle + reference[len − suffix..]`.
//! The writer tries each of the previous 16 entries and keeps the shortest
//! entry, cutting only on char boundaries. An entry may reuse at most 64
//! times its own encoded bytes (`prefix + suffix ≤ 64 × entry bytes`): the
//! writer trims a longer reuse and the reader refuses one, so a table
//! decodes to at most 65 times its size. The reader also refuses more
//! entries than ids, a bitmap whose bits disagree with the entry count or
//! pass the id space, a reference before the table or past the window, a
//! prefix and suffix longer together than the reference, and either cut
//! inside a UTF-8 character ([`CodecError::Invalid`]), each before a
//! string is built. The table decodes straight into the [`Interner`] the
//! model's ids name, each entry at its id, with the file's id space and
//! its holes; an entry that repeats an earlier URL
//! ([`CodecError::DuplicateUrl`]) or would take the interner past its
//! `u32` arena offsets ([`CodecError::Invalid`]) is refused as it is
//! interned.
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
//! 0 is refused ([`CodecError::Unfinalized`]), as is any URL id that names
//! no string of the file's URL table, past its id space or one of its
//! holes ([`CodecError::UrlOutOfRange`]), and a URL table that repeats a
//! string ([`CodecError::DuplicateUrl`]).
//! The checksum covers header and payload, so truncation and bit
//! corruption both surface as clean errors instead of garbage models.
//!
//! ## Crash-safe generations
//!
//! [`SnapshotStore`] manages a two-generation checkpoint directory
//! (`current.pbss` + `previous.pbss`): checkpoints are written to a temp
//! file, fsynced, and renamed into place, demoting the old current to
//! `previous`, and one directory sync makes both renames durable.
//! [`SnapshotStore::recover`] loads the newest valid
//! generation, falling back to `previous` when `current` is truncated or
//! corrupt — the serving loop in the CLI builds directly on this. A
//! checkpoint step that fails (the temp write, the demote rename) returns
//! the error and leaves the newest complete generation recoverable.

use crate::bitmap::{bit, set_bit};
use crate::frozen::{LinkSnapshot, NodeSnapshot, SnapshotError, TreeSnapshot, NO_NODE};
use crate::interner::{Interner, UrlId};
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
/// beside tables the rows imply, version 4 a parent per node where level
/// order implies it from a child count, version 5 every URL in full, and
/// version 6 every URL its writer had seen, named by the model or not.
pub const FORMAT_VERSION: u16 = 7;

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
    /// A stored URL id names no string of the file's URL table: it is
    /// past the table's id space, or one of its holes.
    UrlOutOfRange(u32),
    /// URL table entry `id` repeats an earlier entry: interned, it would
    /// take that entry's id and renumber every later URL.
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
                write!(f, "url id {url} names no entry of the snapshot's url table")
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

/// A decoded URL table's size ([`SnapshotFile::url_table_size`]): its id
/// space, the strings it holds and their bytes, beside the file bytes it
/// takes ([`ByteSplit::urls`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UrlTableSize {
    /// The id space: one past the largest URL id.
    pub ids: u64,
    /// How many URLs the table holds: the ids the model names.
    pub strings: u64,
    /// Their bytes, decoded.
    pub decoded_bytes: u64,
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
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(mut v: usize) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Bounds-checked byte source matching [`Writer`]; it charges the bytes
/// of each measured section to its [`ByteSplit`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    split: ByteSplit,
    /// The id space of the file's URL table, once it is read: every URL
    /// id read after it must fall below.
    urls: u32,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            split: ByteSplit::default(),
            urls: 0,
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

    /// A URL id, refused unless it names an entry of the URL table.
    fn url(&mut self) -> Result<u32, CodecError> {
        let url = self.u32v()?;
        if url < self.urls {
            Ok(url)
        } else {
            Err(CodecError::UrlOutOfRange(url))
        }
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
            url: r.url()?,
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
            url: r.url()?,
            count: r.varint()?,
        });
    }
    Ok(TreeSnapshot { nodes, links })
}

fn write_pop(w: &mut Writer, pop: &PopularityTable) {
    let counts = pop.counts();
    w.usizev(counts.len());
    for c in counts.iter() {
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

/// Every node and link URL id in a tree image, in row order.
fn tree_urls(t: &TreeSnapshot) -> impl Iterator<Item = u32> + '_ {
    let links = t.links.iter().map(|l| l.url);
    t.nodes.iter().map(|n| n.url).chain(links)
}

fn write_sessions(w: &mut Writer, sessions: &[Vec<UrlId>]) {
    w.usizev(sessions.len());
    for s in sessions {
        w.usizev(s.len());
        for &u in s {
            w.u32v(u.0);
        }
    }
}

fn read_sessions(r: &mut Reader) -> Result<Vec<Vec<UrlId>>, CodecError> {
    let n = r.count()?;
    let mut sessions = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count()?;
        let mut s = Vec::with_capacity(len);
        for _ in 0..len {
            s.push(UrlId(r.url()?));
        }
        sessions.push(s);
    }
    Ok(sessions)
}

/// How far back a URL table entry may look for its reference: it names
/// one of the previous `URL_WINDOW` entries in id order, or none.
const URL_WINDOW: usize = 16;

/// An entry may reuse at most `URL_REUSE_CAP` times its own encoded bytes
/// from its reference, so a table decodes to at most `URL_REUSE_CAP + 1`
/// times its own size, whatever its bytes say.
const URL_REUSE_CAP: usize = 64;

/// One URL table entry: the distance back to its reference (0 for none),
/// the prefix and suffix it shares with the reference, and the bytes
/// between them.
struct UrlEntry<'a> {
    distance: usize,
    prefix: usize,
    suffix: usize,
    middle: &'a [u8],
}

impl<'a> UrlEntry<'a> {
    /// `url` written out in full.
    fn literal(url: &'a str) -> Self {
        Self {
            distance: 0,
            prefix: 0,
            suffix: 0,
            middle: url.as_bytes(),
        }
    }

    /// `url` against the reference at `distance`, with which it shares a
    /// prefix and a suffix ([`Ends::shared`]); each is cut on a char
    /// boundary, and the suffix, then the prefix, is trimmed until the
    /// reuse fits [`URL_REUSE_CAP`].
    fn against(url: &'a str, distance: usize, (mut prefix, mut suffix): (usize, usize)) -> Self {
        let a = url.as_bytes();
        loop {
            while !url.is_char_boundary(prefix) {
                prefix -= 1;
            }
            while !url.is_char_boundary(a.len() - suffix) {
                suffix -= 1;
            }
            let entry = Self {
                distance,
                prefix,
                suffix,
                middle: &a[prefix..a.len() - suffix],
            };
            let over = (prefix + suffix).saturating_sub(URL_REUSE_CAP * entry.encoded_len());
            if over == 0 {
                return entry;
            }
            // Each byte moved from the reuse into the middle lowers the
            // reuse by one and raises the cap by `URL_REUSE_CAP`.
            let trim = over.div_ceil(URL_REUSE_CAP + 1);
            let from_suffix = trim.min(suffix);
            suffix -= from_suffix;
            prefix -= trim - from_suffix;
        }
    }

    fn encoded_len(&self) -> usize {
        let reuse = if self.distance == 0 {
            0
        } else {
            varint_len(self.prefix) + varint_len(self.suffix)
        };
        varint_len(self.distance) + reuse + varint_len(self.middle.len()) + self.middle.len()
    }

    fn write(&self, w: &mut Writer) {
        w.usizev(self.distance);
        if self.distance != 0 {
            w.usizev(self.prefix);
            w.usizev(self.suffix);
        }
        w.usizev(self.middle.len());
        w.buf.extend_from_slice(self.middle);
    }
}

/// A URL's first and last 16 bytes, zero-padded past its ends, and its
/// length: most pairs of URLs differ within 16 bytes of each end, and then
/// these alone tell how much they share.
#[derive(Clone, Copy, Default)]
struct Ends {
    head: u128,
    tail: u128,
    len: usize,
}

impl Ends {
    fn of(s: &[u8]) -> Self {
        let (mut head, mut tail) = ([0; 16], [0; 16]);
        if s.len() >= 16 {
            head.copy_from_slice(&s[..16]);
            tail.copy_from_slice(&s[s.len() - 16..]);
        } else {
            head[..s.len()].copy_from_slice(s);
            tail[16 - s.len()..].copy_from_slice(s);
        }
        Self {
            head: u128::from_le_bytes(head),
            tail: u128::from_le_bytes(tail),
            len: s.len(),
        }
    }

    /// The longest prefix the URLs `a` (of these ends) and `b` (of
    /// `other`'s) share, then the longest suffix they share past it. A
    /// difference found in the padding lies past the shorter URL, which
    /// then shares all of it; only ends equal for all 16 bytes need the
    /// URLs themselves.
    fn shared(&self, other: &Self, a: &[u8], b: &[u8]) -> (usize, usize) {
        let n = self.len.min(other.len);
        let (head, tail) = (self.head ^ other.head, self.tail ^ other.tail);
        let prefix = if head == 0 {
            a.iter().zip(b).take_while(|(x, y)| x == y).count()
        } else {
            usize::try_from(head.trailing_zeros() / 8).map_or(n, |p| p.min(n))
        };
        let suffix = if tail == 0 {
            let pairs = a.iter().rev().zip(b.iter().rev());
            pairs.take_while(|(x, y)| x == y).count()
        } else {
            usize::try_from(tail.leading_zeros() / 8).unwrap_or(n)
        };
        (prefix, suffix.min(n - prefix))
    }
}

/// The URL table: the id-space size and how many entries follow; when
/// fewer than the ids, the presence bitmap (id `i` is bit `i % 8` of byte
/// `i / 8`); then each entry, in id order, as the shortest [`UrlEntry`]
/// against one of the previous [`URL_WINDOW`] entries, or in full. A tie
/// goes to the literal, then to the nearest reference. Written are the
/// strings of `urls` whose bits `named` sets, or all of them.
fn write_urls(w: &mut Writer, urls: &Interner, named: Option<&[u64]>) {
    let written = |&(id, _): &(UrlId, &str)| named.is_none_or(|words| bit(words, id.index()));
    let count = urls.iter().filter(written).count();
    w.usizev(urls.len());
    w.usizev(count);
    if count < urls.len() {
        let mut bitmap = vec![0u8; urls.len().div_ceil(8)];
        for (id, _) in urls.iter().filter(written) {
            bitmap[id.index() / 8] |= 1 << (id.0 % 8);
        }
        w.buf.extend_from_slice(&bitmap);
    }
    // The last `URL_WINDOW` entries and their ends, entry `k`'s at
    // `k % URL_WINDOW`.
    let mut ring = [(Ends::default(), &[][..]); URL_WINDOW];
    for (k, (_, url)) in urls.iter().filter(written).enumerate() {
        let a = url.as_bytes();
        let ends = Ends::of(a);
        let shared = |distance: usize| {
            let (reference, b) = ring[(k - distance) % URL_WINDOW];
            ends.shared(&reference, a, b)
        };
        // An ASCII URL under 128 bytes cuts anywhere, reuses less than the
        // cap allows and writes one-byte lengths, so its entry against a
        // reference is 4 bytes plus its middle.
        let plain = a.len() < 0x80 && url.is_ascii();
        // Entries keyed by length, then distance: the least key wins.
        let literal = UrlEntry::literal(url);
        let mut least = literal.encoded_len() * (URL_WINDOW + 1);
        for distance in 1..=k.min(URL_WINDOW) {
            let (prefix, suffix) = shared(distance);
            let len = if plain {
                4 + a.len() - prefix - suffix
            } else {
                UrlEntry::against(url, distance, (prefix, suffix)).encoded_len()
            };
            least = least.min(len * (URL_WINDOW + 1) + distance);
        }
        let entry = match least % (URL_WINDOW + 1) {
            0 => literal,
            distance => UrlEntry::against(url, distance, shared(distance)),
        };
        entry.write(w);
        ring[k % URL_WINDOW] = (ends, a);
    }
}

/// Reads the table [`write_urls`] writes straight into an interner with
/// the file's id space, each entry under its id. A space past `u32` ids,
/// more entries than ids, and a bitmap whose bits disagree with the count
/// or pass the space are refused. An entry whose reference lies before the
/// table or past the window, whose prefix and suffix overlap in the
/// reference or cut one of its characters, or that reuses more than
/// [`URL_REUSE_CAP`] times its own bytes is refused before anything is
/// copied; one that repeats an earlier URL ([`CodecError::DuplicateUrl`])
/// or would take the interner past its `u32` arena offsets is refused as
/// it is interned.
fn read_urls(r: &mut Reader) -> Result<Interner, CodecError> {
    // Ids are below u32::MAX, so a space of u32::MAX admits every one.
    let space = r.usizev()?;
    let ids = u32::try_from(space).map_err(|_| CodecError::Invalid("url table past u32 ids"))?;
    let url_count = r.count()?;
    if url_count > space {
        return Err(CodecError::Invalid("url table holds more entries than ids"));
    }
    let (mut urls, bitmap) = if url_count == space {
        (Interner::with_capacity(url_count), &[][..])
    } else {
        let bitmap = r.take(space.div_ceil(8))?;
        let words: Vec<u64> = bitmap
            .chunks(8)
            .map(|c| {
                let mut word = [0; 8];
                word[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(word)
            })
            .collect();
        let past = words.last().map_or(0, |&w| w >> (ids % 64));
        let held: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        if (ids % 64 != 0 && past != 0) || held != len_u64(url_count) {
            return Err(CodecError::Invalid(
                "url presence bitmap disagrees with the table",
            ));
        }
        (Interner::with_holes(ids, words), bitmap)
    };
    // Entry `k`'s id: `k` without a bitmap, else the bitmap's `k`-th set bit.
    let dense = 0..if bitmap.is_empty() { url_count } else { 0 };
    let held = bitmap.iter().enumerate().flat_map(|(i, &byte)| {
        (0..8)
            .filter(move |b| byte >> b & 1 != 0)
            .map(move |b| i * 8 + b)
    });
    // The last `URL_WINDOW` entries' ids, entry `k`'s at `k % URL_WINDOW`.
    let mut ring = [UrlId(0); URL_WINDOW];
    let mut url = String::new();
    for (k, id) in dense.chain(held).enumerate() {
        let id = url_id(id);
        let start = r.pos;
        let distance = r.usizev()?;
        let (prefix, suffix) = if distance == 0 {
            (0, 0)
        } else {
            (r.usizev()?, r.usizev()?)
        };
        let middle_len = r.count()?;
        let reference = match distance {
            0 => "",
            d if d > URL_WINDOW => {
                return Err(CodecError::Invalid("url reference past the window"))
            }
            d => match k
                .checked_sub(d)
                .and_then(|at| urls.resolve(ring[at % URL_WINDOW]))
            {
                Some(reference) => reference,
                None => return Err(CodecError::Invalid("url reference before the table")),
            },
        };
        let reuse = prefix.saturating_add(suffix);
        if reuse > reference.len() {
            return Err(CodecError::Invalid("url reuse longer than its reference"));
        }
        if reuse > URL_REUSE_CAP.saturating_mul(r.pos - start + middle_len) {
            return Err(CodecError::Invalid(
                "url reuse past the amplification bound",
            ));
        }
        let tail = reference.len() - suffix;
        if !reference.is_char_boundary(prefix) || !reference.is_char_boundary(tail) {
            return Err(CodecError::Invalid(
                "url reuse cut inside a utf-8 character",
            ));
        }
        let middle = std::str::from_utf8(r.take(middle_len)?)
            .map_err(|_| CodecError::Invalid("utf-8 string"))?;
        url.clear();
        url.push_str(&reference[..prefix]);
        url.push_str(middle);
        url.push_str(&reference[tail..]);
        match urls.try_intern_at(id, &url) {
            Some(got) if got == id => {}
            Some(_) => return Err(CodecError::DuplicateUrl(id.0)),
            None => return Err(CodecError::Invalid("url table past u32 offsets")),
        }
        ring[k % URL_WINDOW] = id;
    }
    urls.shrink_to_fit();
    r.urls = ids;
    Ok(urls)
}

/// Position `i` of a table whose length fits the interner's `u32` ids.
fn url_id(i: usize) -> UrlId {
    UrlId(u32::try_from(i).unwrap_or(u32::MAX))
}

fn read_order1_rows(r: &mut Reader) -> Result<Vec<Order1RowSnapshot>, CodecError> {
    let row_count = r.count()?;
    let mut rows = Vec::with_capacity(row_count);
    for _ in 0..row_count {
        let url = r.url()?;
        let total = r.varint()?;
        let next_count = r.count()?;
        let mut next = Vec::with_capacity(next_count);
        for _ in 0..next_count {
            next.push((r.url()?, r.varint()?));
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

/// A complete snapshot: the URL interner plus one model image.
///
/// Snapshots store dense [`UrlId`]s; the interner makes them meaningful
/// again after a restart.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// The interned URLs the model's ids name; the file's URL table
    /// decodes straight into it. [`SnapshotFile::encode`] writes the
    /// strings of the ids the model stores (an online checkpoint's every
    /// string), so a decoded table may have holes.
    pub urls: Interner,
    /// The model.
    pub model: ModelImage,
}

impl SnapshotFile {
    /// Pairs a model image with a copy of the interner its URL ids refer
    /// to.
    pub fn new(interner: &Interner, model: ModelImage) -> Self {
        Self {
            urls: interner.clone(),
            model,
        }
    }

    /// Encodes the snapshot into the framed binary format at
    /// [`FORMAT_VERSION`], its URL table holding the id space of `urls`
    /// and the strings of the ids the model stores.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.u8(self.model.tag());
        // An online checkpoint keeps every id: its writer goes on
        // interning, and a URL must keep its id across a restart.
        let named = match self.model {
            ModelImage::OnlinePb(_) => None,
            _ => {
                let mut words = vec![0u64; self.urls.len().div_ceil(64)];
                for url in self.stored_urls() {
                    set_bit(&mut words, UrlId(url).index());
                }
                Some(words)
            }
        };
        write_urls(&mut payload, &self.urls, named.as_deref());
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
    /// checksum before touching the payload. Every URL id is checked
    /// against the URL table's id space as it is read; a table with holes
    /// adds one [`SnapshotFile::check_url_ids`] pass, which refuses an id
    /// that names a hole.
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
        if tag == KIND_ONLINE_PB && urls.has_holes() {
            return Err(CodecError::Invalid(
                "online checkpoint url table with holes",
            ));
        }
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
        // The reader bounds each id by the space; a hole takes this walk.
        if file.urls.has_holes() {
            file.check_url_ids()?;
        }
        let mut split = r.split;
        split.envelope = len_u64(ENVELOPE_BYTES);
        split.settings = payload_len - split.urls - split.popularity - split.nodes - split.window;
        Ok((file, split))
    }

    /// Every URL id the model image stores, in the order it stores them:
    /// tree and link rows, order-1 rows and their successors, an online
    /// model's window and then its model's rows.
    fn stored_urls(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        match &self.model {
            ModelImage::Pb(s) => Box::new(tree_urls(&s.tree)),
            ModelImage::Standard(s) => Box::new(tree_urls(&s.tree)),
            ModelImage::Order1(s) => Box::new(
                s.rows
                    .iter()
                    .flat_map(|row| once(row.url).chain(row.next.iter().map(|n| n.0))),
            ),
            ModelImage::OnlinePb(s) => Box::new(
                s.window
                    .iter()
                    .flatten()
                    .map(|u| u.0)
                    .chain(s.model.iter().flat_map(|m| tree_urls(&m.tree))),
            ),
        }
    }

    /// Checks that every URL id the model stores — node, order-1 row and
    /// online-window ids — names a string of `urls`: below its id space
    /// and not one of its holes. Model structures are sized by their
    /// largest URL id, so an unchecked id is an allocation of the forger's
    /// choosing. [`SnapshotFile::decode`] refuses such ids; this one scan
    /// covers a file built in memory.
    pub fn check_url_ids(&self) -> Result<(), CodecError> {
        self.stored_urls()
            .find(|&url| !self.urls.contains(UrlId(url)))
            .map_or(Ok(()), |url| Err(CodecError::UrlOutOfRange(url)))
    }

    /// The table's id space, the strings it holds, and their bytes.
    #[must_use]
    pub fn url_table_size(&self) -> UrlTableSize {
        UrlTableSize {
            ids: len_u64(self.urls.len()),
            strings: len_u64(self.urls.strings()),
            decoded_bytes: self.urls.iter().map(|(_, url)| len_u64(url.len())).sum(),
        }
    }

    /// A copy of the interner with no growth slack: a clone allocates
    /// exactly its strings, offsets and table. A caller that owns the file
    /// moves `urls` out instead.
    pub fn interner(&self) -> Interner {
        self.urls.clone()
    }

    /// Instantiates the stored model behind the common [`Predictor`]
    /// interface, revalidating the URL ids ([`SnapshotFile::check_url_ids`])
    /// and the tree image.
    pub fn instantiate(&self) -> Result<Box<dyn Predictor>, CodecError> {
        self.check_url_ids()?;
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
        self.write_synced(&path.with_extension("tmp"), |tmp| rename_synced(tmp, path))
    }

    /// Encodes the snapshot into `tmp`, fsyncs it, and lets `place` move it
    /// into place, recording the whole write's telemetry. Returns the file
    /// size in bytes.
    fn write_synced(
        &self,
        tmp: &Path,
        place: impl FnOnce(&Path) -> Result<(), SnapshotIoError>,
    ) -> Result<u64, SnapshotIoError> {
        let start = std::time::Instant::now();
        let bytes = self.encode();
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()
        };
        write().map_err(|e| SnapshotIoError::io(tmp, e))?;
        place(tmp)?;
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

/// Renames `from` to `to`, then syncs `to`'s directory so the rename (and
/// any rename before it in that directory) is durable.
fn rename_synced(from: &Path, to: &Path) -> Result<(), SnapshotIoError> {
    std::fs::rename(from, to).map_err(|e| SnapshotIoError::io(to, e))?;
    sync_dir(to);
    Ok(())
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

    /// Writes a new checkpoint generation, demoting the old current:
    /// write and fsync `incoming.tmp`, rename `current` to `previous`,
    /// rename `incoming.tmp` to `current`, then sync the directory once,
    /// which makes both renames durable. Returns the checkpoint size in
    /// bytes.
    pub fn checkpoint(&self, file: &SnapshotFile) -> Result<u64, SnapshotIoError> {
        let current = self.current_path();
        let bytes = file.write_synced(&self.dir.join("incoming.tmp"), |incoming| {
            if current.exists() {
                std::fs::rename(&current, self.previous_path())
                    .map_err(|e| SnapshotIoError::io(&current, e))?;
            }
            rename_synced(incoming, &current)
        })?;
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
    use crate::popularity::PopularityTable;

    /// An interner holding `urls` in order.
    fn interner(urls: &[&str]) -> Interner {
        urls.iter().map(|u| (*u).to_owned()).collect()
    }

    /// The interner's strings in id order.
    fn names(urls: &Interner) -> Vec<&str> {
        urls.iter().map(|(_, url)| url).collect()
    }

    fn trained_pb() -> (Interner, PbPpm) {
        let urls: Interner = (0..6).map(|i| format!("/page{i}.html")).collect();
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
        // The table keeps the id space and the strings the rows name.
        let arena = m.frozen().unwrap();
        let named: Vec<_> = urls.iter().filter(|&(id, _)| arena.holds(id)).collect();
        assert!(named.len() < urls.len());
        assert_eq!(back.urls.len(), urls.len());
        assert!(back.urls.iter().eq(named));
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
                urls: interner(&["/a", "/b"]),
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
        for version in [1u16, 2, 3, 4, 5, 99] {
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
            assert!(
                SnapshotFile::decode(&sealed(payload)).is_err(),
                "garbage payload {payload:?} decoded"
            );
        }
    }

    /// `payload` in a valid envelope: magic, version, length and checksum.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&len_u64(payload.len()).to_le_bytes());
        bytes.extend_from_slice(payload);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// A sealed order-1 file naming URL ids 0 and 1 whose URL table is
    /// `table` (id space, count and entries) instead of what the writer
    /// would write.
    fn with_url_table(table: &[u8]) -> Vec<u8> {
        let mut o1 = Order1Markov::new();
        o1.train_session(&[UrlId(0), UrlId(1)]);
        o1.finalize();
        let file = SnapshotFile {
            urls: Interner::new(),
            model: ModelImage::Order1(o1.to_snapshot()),
        };
        let bytes = file.encode();
        // The payload is the kind tag, the two-byte empty table, the model.
        let mut payload = vec![bytes[18]];
        payload.extend_from_slice(table);
        payload.extend_from_slice(&bytes[21..bytes.len() - 8]);
        sealed(&payload)
    }

    /// The URL table `urls` codes to.
    fn url_table(urls: &[&str]) -> Vec<u8> {
        let mut w = Writer::new();
        write_urls(&mut w, &interner(urls), None);
        w.buf
    }

    #[test]
    fn url_entries_share_a_prefix_and_a_suffix_with_the_nearest_best_reference() {
        // `/img/p42_0.gif` keeps `/img/p` and `_0.gif` of `/img/p1_0.gif`
        // two entries back; `/l0/p1.html` sits between them.
        let urls = ["/img/p1_0.gif", "/l0/p1.html", "/img/p42_0.gif"];
        let mut want = vec![3, 3, 0, 13];
        want.extend_from_slice(b"/img/p1_0.gif");
        want.extend_from_slice(&[0, 11]);
        want.extend_from_slice(b"/l0/p1.html");
        want.extend_from_slice(&[2, 6, 6, 2]);
        want.extend_from_slice(b"42");
        assert_eq!(url_table(&urls), want);
        // Every URL decodes back from a file holding that table.
        let decoded = SnapshotFile::decode(&with_url_table(&want)).unwrap();
        assert_eq!(names(&decoded.urls), urls);
    }

    #[test]
    fn the_writer_cuts_shared_bytes_only_on_char_boundaries() {
        // `é` is C3 A9 and `è` C3 A8: the two share the byte C3, and `©`
        // (C2 A9) ends like `é`; neither half-character is reused.
        for urls in [["/img/é.gif", "/img/è.gif"], ["/x/é", "/x/©"]] {
            let table = url_table(&urls);
            let back = SnapshotFile::decode(&with_url_table(&table)).unwrap();
            assert_eq!(names(&back.urls), urls);
        }
        let table = url_table(&["/img/é.gif", "/img/è.gif"]);
        assert_eq!(table[15..], [1, 5, 4, 2, 0xc3, 0xa8]);
        // Against `/é`, `/è` would reuse one byte for a 6-byte entry, so it
        // is written in full in 5.
        assert_eq!(url_table(&["/é", "/è"])[7..], [0, 3, b'/', 0xc3, 0xa8]);
    }

    #[test]
    fn forged_url_entries_are_refused() {
        let invalid = |table: &[u8]| SnapshotFile::decode(&with_url_table(table)).unwrap_err();
        // Entry 0 names a reference one entry before the table.
        assert_eq!(
            invalid(&[2, 2, 1, 0, 0, 2, b'/', b'a', 0, 2, b'/', b'b']),
            CodecError::Invalid("url reference before the table")
        );
        // A reference 17 entries back lies past the window.
        let mut far = vec![18, 18];
        for i in 0..17u8 {
            far.extend_from_slice(&[0, 2, b'/', b'a' + i]);
        }
        far.extend_from_slice(&[17, 0, 0, 1, b'x']);
        assert_eq!(
            invalid(&far),
            CodecError::Invalid("url reference past the window")
        );
        // `/a` then a prefix of 2 and a suffix of 1 from its 2 bytes.
        assert_eq!(
            invalid(&[2, 2, 0, 2, b'/', b'a', 1, 2, 1, 0]),
            CodecError::Invalid("url reuse longer than its reference")
        );
        // `/é`, then its first 2 bytes (`/` and half of `é`) and A8: the
        // bytes of `/è`, spliced inside a character.
        assert_eq!(
            invalid(&[2, 2, 0, 3, b'/', 0xc3, 0xa9, 1, 2, 0, 1, 0xa8]),
            CodecError::Invalid("url reuse cut inside a utf-8 character")
        );
        // `/a`, then all of it again: a repeat, caught as it is interned.
        assert_eq!(
            invalid(&[2, 2, 0, 2, b'/', b'a', 1, 2, 0, 0]),
            CodecError::DuplicateUrl(1)
        );
    }

    /// A 300-byte URL, then `n` entries that each reuse all of the one
    /// before and add a byte: every entry is 6 bytes, so the cap of 64
    /// times that admits reuse up to 384 bytes.
    fn reuse_chain(n: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.usizev(1 + n);
        w.usizev(1 + n);
        w.usizev(0);
        w.usizev(300);
        w.buf.extend_from_slice(&[b'a'; 300]);
        for i in 0..n {
            w.usizev(1);
            w.usizev(300 + i);
            w.usizev(0);
            w.usizev(1);
            w.u8(b'b');
        }
        w.buf
    }

    #[test]
    fn a_chain_of_reuses_is_refused_before_it_passes_the_amplification_bound() {
        // Entry 85 reuses 384 bytes, the most its 6 bytes allow; entry 86
        // would reuse 385.
        let chain = |n| SnapshotFile::decode(&with_url_table(&reuse_chain(n)));
        let longest = chain(85).unwrap().urls;
        assert_eq!(longest.resolve(UrlId(85)).map(str::len), Some(385));
        assert_eq!(
            chain(86).unwrap_err(),
            CodecError::Invalid("url reuse past the amplification bound")
        );
    }

    #[test]
    fn the_writer_keeps_its_reuse_within_the_amplification_bound() {
        // Two 1,000-byte URLs a byte apart: reusing 999 bytes from a 5-byte
        // entry would pass the bound, so the writer spells out enough of
        // the middle to stay under it.
        let base = "x".repeat(1000);
        let next = format!("{}y", &base[1..]);
        let table = url_table(&[&base, &next]);
        let back = SnapshotFile::decode(&with_url_table(&table)).unwrap();
        assert_eq!(names(&back.urls), [base, next]);
        // The id space and count, `base` in 1,003 bytes, then 989 bytes
        // reused by a 16-byte entry that spells out the last 11.
        assert_eq!(table.len(), 2 + 1003 + 16);
        assert_eq!(table[1005..1010], [1, 0xdd, 0x07, 0, 11]);
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
        // `/a` written out twice: interned, the second would take the
        // first's id and every later URL would be renumbered. No interner
        // holds a repeat, so only a forged table can.
        let err =
            SnapshotFile::decode(&with_url_table(&[2, 2, 0, 2, b'/', b'a', 0, 2, b'/', b'a']))
                .unwrap_err();
        assert_eq!(err, CodecError::DuplicateUrl(1));
        assert_eq!(
            err.to_string(),
            "url table entry 1 repeats an earlier entry"
        );
    }

    /// A file built in memory has not been through `decode`, so
    /// `instantiate` scans its URL ids: one id past the table in a tree
    /// row, an order-1 successor or an online window session is refused
    /// there, and decoding the same file's bytes refuses it as it is read.
    #[test]
    fn an_id_past_the_url_table_is_refused_by_instantiate_and_by_decode() {
        let (urls, pb) = trained_pb();
        let past = u32::try_from(urls.len()).unwrap();
        let mut tree = pb.to_snapshot();
        tree.tree.nodes[1].url = past;
        let mut o1 = Order1Markov::new();
        o1.train_session(&[UrlId(0), UrlId(1), UrlId(2)]);
        o1.finalize();
        let mut o1 = o1.to_snapshot();
        o1.rows[0].next[0].0 = past;
        let mut online = OnlinePbPpm::new(PbConfig::default(), 4, 1);
        online.train_session(&[UrlId(0), UrlId(1)]);
        let mut online = online.to_snapshot();
        online.window[0][1] = UrlId(past);
        for model in [
            ModelImage::Pb(tree),
            ModelImage::Order1(o1),
            ModelImage::OnlinePb(online),
        ] {
            let file = SnapshotFile {
                urls: urls.clone(),
                model,
            };
            let refused = Some(CodecError::UrlOutOfRange(past));
            assert_eq!(file.instantiate().err(), refused);
            assert_eq!(SnapshotFile::decode(&file.encode()).err(), refused);
        }
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
        assert_eq!(recovered.urls.len(), urls.len());
        assert!(recovered
            .urls
            .iter()
            .all(|(id, url)| urls.resolve(id) == Some(url)));
        assert!(recovered.instantiate().is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Checkpoint generation `n`: a small model whose URL table names it.
    fn generation(n: usize) -> SnapshotFile {
        let mut m = StandardPpm::unbounded();
        m.train_session(&[UrlId(0), UrlId(1)]);
        m.finalize();
        SnapshotFile {
            urls: interner(&[&format!("/gen{n}/a"), &format!("/gen{n}/b")]),
            model: ModelImage::Standard(m.to_snapshot()),
        }
    }

    fn generation_of(file: &SnapshotFile) -> &str {
        file.urls
            .resolve(UrlId(0))
            .and_then(|url| url.strip_prefix("/gen"))
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
    /// leftover `incoming.tmp`.
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
        assert!(
            !store.dir().join("incoming.tmp").exists(),
            "incoming.tmp left behind"
        );
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

    /// Crash after `incoming.tmp` was written and synced, before the old
    /// current was demoted.
    #[test]
    fn crash_before_the_demote_recovers_current() {
        let store = store_with_two_generations("crash-incoming");
        std::fs::write(store.dir().join("incoming.tmp"), generation(3).encode()).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Current))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Crash between the demote and the final rename: `previous` and a
    /// complete `incoming.tmp`, no `current`.
    #[test]
    fn crash_between_the_renames_recovers_previous() {
        let store = store_with_two_generations("crash-demoted");
        std::fs::write(store.dir().join("incoming.tmp"), generation(3).encode()).unwrap();
        std::fs::rename(store.current_path(), store.previous_path()).unwrap();
        assert_eq!(
            recovered(&store),
            Some(("2".to_owned(), Generation::Previous))
        );
        assert_checkpoint_recovers(&store, Some("2"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The first checkpoint ever crashed before its final rename: only a
    /// complete `incoming.tmp`. No generation reached `current`, so the store is
    /// fresh, and the next checkpoint leaves one generation.
    #[test]
    fn crash_in_the_first_checkpoint_recovers_fresh() {
        let store = temp_store("crash-first");
        std::fs::write(store.dir().join("incoming.tmp"), generation(1).encode()).unwrap();
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
