//! Structural invariant verification for every model family.
//!
//! The paper's whole contribution is structural surgery on the prediction
//! tree — grade-capped branch heights (§3.4 rule 1/2), special links to
//! duplicated popular nodes (rule 3), root admission on popularity ascents
//! (rule 4), and the two post-build prunes (§3.4). Four independent
//! producers build or reshape that structure (offline training, the online
//! rebuild loop, pruning, and the binary snapshot codec), so this module
//! encodes *once* what a valid model is and lets everything else check
//! against it:
//!
//! * [`verify_model`] walks a model and returns an [`AuditReport`] of typed
//!   [`Violation`]s, each carrying the offending node's root-to-node URL
//!   path where one exists.
//! * [`runtime_audit`] is the `debug_assertions`-gated (and
//!   `PBPPM_AUDIT=1`-forced) hook every build/prune/rebuild site calls; it
//!   panics with the formatted report on the first violation.
//! * The `pbppm-audit` crate re-exports this API and adds snapshot-level
//!   entry points plus the adversarial corruption harness.
//!
//! Every structural check reads the finalized model's frozen arena — the
//! only node store a finalized or loaded model keeps — so there are no
//! tombstones to skip and no second copy to cross-check. A model still
//! training has no arena yet and only its popularity table is checked.
//!
//! The fingerprint index is not checked. It is derived state with one
//! producer, [`crate::context_index::ContextIndex::windows`], which
//! `finalize` and every load run over the finished arena; no file stores
//! it and nothing changes the arena after it. A rebuild here would run
//! the same code over the same arena; the producer is pinned by its
//! oracle tests instead (`fast_path_is_bit_identical_to_reference`,
//! `colliding_keys_answer_like_the_full_index`,
//! `dropped_windows_answer_like_every_voting_window`).
//!
//! One paper rule is deliberately *not* re-checked post hoc: rule 4 (root
//! admission) is a statement about the training stream — any URL may
//! legally head a branch because every session head roots one — so a
//! finished tree cannot falsify it. The checker instead verifies the root
//! *registry* is structurally sound in both directions.

use crate::column::ColumnBytes;
use crate::context_index::IndexSplit;
use crate::frozen::{FrozenTree, NO_NODE};
use crate::interner::InternerSplit;
use crate::interner::UrlId;
use crate::order1::Order1Markov;
use crate::pb::PbPpm;
use crate::pb_online::OnlinePbPpm;
use crate::popularity::{Grade, PopularityTable};
use crate::snapshot::{ByteSplit, UrlTableSize};
use crate::standard::StandardPpm;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A borrowed view of any model the checker understands.
///
/// [`crate::predictor::ModelKind`] is a tag without data, so the audit API
/// takes this explicit by-reference enum instead.
pub enum ModelRef<'a> {
    /// The paper's popularity-based model.
    Pb(&'a PbPpm),
    /// Classic suffix-forest PPM, or LRS-PPM when it has a support cut.
    Standard(&'a StandardPpm),
    /// Sliding-window online PB-PPM.
    OnlinePb(&'a OnlinePbPpm),
    /// First-order Markov baseline.
    Order1(&'a Order1Markov),
}

impl ModelRef<'_> {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelRef::Pb(_) => "pb",
            ModelRef::Standard(m) if m.min_support.is_some() => "lrs",
            ModelRef::Standard(_) => "standard",
            ModelRef::OnlinePb(_) => "online-pb",
            ModelRef::Order1(_) => "order1",
        }
    }
}

/// One structural invariant violation, with enough context to locate it.
///
/// `path` fields hold the offending node's root-to-node URL-id sequence.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A row's parent pointer does not name the node whose child run (or
    /// the root whose link run) holds it.
    ChildParentMismatch {
        /// Root-to-parent URL path.
        path: Vec<u32>,
        /// URL of the child whose back-pointer is wrong.
        child_url: u32,
    },
    /// The summed counts of a node's alive children exceed its own count
    /// (training bumps every ancestor at least as often as any child, and
    /// pruning only removes counts — the sum can never exceed the parent).
    ChildCountExceedsParent {
        /// Root-to-parent URL path.
        path: Vec<u32>,
        /// The parent's transition count.
        parent_count: u64,
        /// Sum of the alive children's counts.
        children_sum: u64,
    },
    /// A root row is not its URL's root-registry entry.
    RootNotRegistered {
        /// The node's URL.
        url: u32,
    },
    /// A root-registry entry names a row that is not a parentless root for
    /// that URL, or a root row has a parent.
    RootRegistrationInvalid {
        /// The registry key.
        url: u32,
    },
    /// A branch grows deeper than its cap — for PB-PPM the grade→height
    /// cap of the heading URL (§3.4 rules 1/2), for the bounded baselines
    /// their fixed height limit.
    HeightExceedsCap {
        /// Root-to-offending-node URL path.
        path: Vec<u32>,
        /// Heading URL's popularity grade, when the cap is grade-derived.
        grade: Option<u8>,
        /// The height cap in nodes.
        cap: u8,
        /// Actual walk depth of the offending node.
        depth: u8,
    },
    /// A special link points back at the branch head's own URL.
    LinkSelf {
        /// URL of the branch head.
        head_url: u32,
    },
    /// A special-link target's grade neither exceeds the head's grade nor
    /// is the maximum grade (§3.4 rule 3).
    LinkGradeRule {
        /// URL of the branch head.
        head_url: u32,
        /// Grade of the branch head.
        head_grade: u8,
        /// URL of the duplicated node.
        target_url: u32,
        /// Grade of the duplicated node.
        target_grade: u8,
    },
    /// A model family that never creates special links carries one.
    UnexpectedSpecialLink {
        /// URL of the offending node.
        url: u32,
    },
    /// A node references a URL id beyond the interner's symbol table.
    SymbolUnresolved {
        /// The unresolvable URL id.
        url: u32,
        /// Number of interned symbols.
        url_count: u64,
    },
    /// A popularity grade the table stores differs from the grade
    /// rederived from its count vector (§3.1's log₁₀ bucketing).
    GradeMismatch {
        /// The URL id with the forged grade.
        url: u32,
        /// Grade the table stores.
        stored: u8,
        /// Grade rederived from the counts.
        derived: u8,
    },
    /// A popularity table's derived scalars (max count, total accesses)
    /// disagree with its count vector.
    PopularityTotalsInconsistent {
        /// Which scalar disagrees.
        what: &'static str,
    },
    /// A finalized LRS arena keeps a node below the support threshold.
    SupportBelowThreshold {
        /// Root-to-node URL path.
        path: Vec<u32>,
        /// The node's count.
        count: u64,
        /// The model's threshold.
        min_support: u64,
    },
    /// An order-1 row's total differs from the sum of its successor counts.
    Order1RowTotalMismatch {
        /// The row's source URL.
        url: u32,
        /// Stored row total.
        total: u64,
        /// Actual sum over successors.
        sum: u64,
    },
    /// The online wrapper's rebuild schedule counters are impossible.
    ScheduleInconsistent {
        /// Human-readable description.
        detail: String,
    },
    /// The online wrapper holds more sessions than its window capacity.
    WindowOverflow {
        /// Sessions held.
        len: u64,
        /// Window capacity.
        max: u64,
    },
    /// A snapshot payload failed to decode into a model at all.
    SnapshotRejected {
        /// The decoder's error message.
        detail: String,
    },
    /// The frozen arena's layout is malformed (column length parity, or
    /// child or link runs that are not monotone ranges of later rows).
    FrozenCsrMalformed {
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl Violation {
    /// Stable kebab-case identifier of the violation class.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::ChildParentMismatch { .. } => "child-parent-mismatch",
            Violation::ChildCountExceedsParent { .. } => "child-count-exceeds-parent",
            Violation::RootNotRegistered { .. } => "root-not-registered",
            Violation::RootRegistrationInvalid { .. } => "root-registration-invalid",
            Violation::HeightExceedsCap { .. } => "height-exceeds-cap",
            Violation::LinkSelf { .. } => "link-self",
            Violation::LinkGradeRule { .. } => "link-grade-rule",
            Violation::UnexpectedSpecialLink { .. } => "unexpected-special-link",
            Violation::SymbolUnresolved { .. } => "symbol-unresolved",
            Violation::GradeMismatch { .. } => "grade-mismatch",
            Violation::PopularityTotalsInconsistent { .. } => "popularity-totals-inconsistent",
            Violation::SupportBelowThreshold { .. } => "support-below-threshold",
            Violation::Order1RowTotalMismatch { .. } => "order1-row-total-mismatch",
            Violation::ScheduleInconsistent { .. } => "schedule-inconsistent",
            Violation::WindowOverflow { .. } => "window-overflow",
            Violation::SnapshotRejected { .. } => "snapshot-rejected",
            Violation::FrozenCsrMalformed { .. } => "frozen-csr-malformed",
        }
    }

    /// The offending node's root-to-node URL path, when the violation is
    /// anchored at a tree node.
    #[must_use]
    pub fn path(&self) -> Option<&[u32]> {
        match self {
            Violation::ChildParentMismatch { path, .. }
            | Violation::ChildCountExceedsParent { path, .. }
            | Violation::HeightExceedsCap { path, .. }
            | Violation::SupportBelowThreshold { path, .. } => Some(path),
            _ => None,
        }
    }
}

fn fmt_path(path: &[u32]) -> String {
    let mut s = String::new();
    for (i, url) in path.iter().enumerate() {
        if i > 0 {
            s.push_str("->");
        }
        s.push_str(&url.to_string());
    }
    s
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ChildParentMismatch { path, child_url } => write!(
                f,
                "child {child_url} of [{}] does not point back at its parent",
                fmt_path(path)
            ),
            Violation::ChildCountExceedsParent {
                path,
                parent_count,
                children_sum,
            } => write!(
                f,
                "children of [{}] sum to {children_sum} transitions, parent has only {parent_count}",
                fmt_path(path)
            ),
            Violation::RootNotRegistered { url } => {
                write!(f, "root row for url {url} is not its registered root")
            }
            Violation::RootRegistrationInvalid { url } => {
                write!(f, "root registry entry for url {url} is not a valid root node")
            }
            Violation::HeightExceedsCap {
                path,
                grade,
                cap,
                depth,
            } => match grade {
                Some(g) => write!(
                    f,
                    "branch [{}] reaches depth {depth}, over the grade-{g} cap of {cap}",
                    fmt_path(path)
                ),
                None => write!(
                    f,
                    "branch [{}] reaches depth {depth}, over the height cap of {cap}",
                    fmt_path(path)
                ),
            },
            Violation::LinkSelf { head_url } => {
                write!(f, "root {head_url} links to a duplicate of itself")
            }
            Violation::LinkGradeRule {
                head_url,
                head_grade,
                target_url,
                target_grade,
            } => write!(
                f,
                "special link {head_url} (grade {head_grade}) ~> {target_url} (grade {target_grade}) breaks rule 3: target grade must exceed the head's or be maximal"
            ),
            Violation::UnexpectedSpecialLink { url } => write!(
                f,
                "model family never creates special links, yet url {url} carries one"
            ),
            Violation::SymbolUnresolved { url, url_count } => write!(
                f,
                "url id {url} does not resolve ({url_count} interned symbols)"
            ),
            Violation::GradeMismatch {
                url,
                stored,
                derived,
            } => write!(
                f,
                "url {url} stores grade {stored}, counts rederive grade {derived}"
            ),
            Violation::PopularityTotalsInconsistent { what } => {
                write!(f, "popularity table {what} disagrees with its count vector")
            }
            Violation::SupportBelowThreshold {
                path,
                count,
                min_support,
            } => write!(
                f,
                "finalized LRS node [{}] has count {count} < support threshold {min_support}",
                fmt_path(path)
            ),
            Violation::Order1RowTotalMismatch { url, total, sum } => write!(
                f,
                "order-1 row {url} stores total {total}, successors sum to {sum}"
            ),
            Violation::ScheduleInconsistent { detail } => {
                write!(f, "online rebuild schedule inconsistent: {detail}")
            }
            Violation::WindowOverflow { len, max } => {
                write!(f, "online window holds {len} sessions, capacity {max}")
            }
            Violation::SnapshotRejected { detail } => {
                write!(f, "snapshot payload failed to decode: {detail}")
            }
            Violation::FrozenCsrMalformed { detail } => {
                write!(f, "frozen arena layout is malformed: {detail}")
            }
        }
    }
}

/// Outcome of a [`verify_model`] run.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "an audit report is only useful if its violations are inspected"]
pub struct AuditReport {
    /// Which model family was audited.
    pub model: &'static str,
    /// Number of individual invariant checks performed.
    pub checks: u64,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
    /// Where the audited file's bytes go, when a file was audited.
    pub bytes: Option<ByteSplit>,
    /// What the audited file's URL table decodes to, when a file was
    /// audited.
    pub url_table: Option<UrlTableSize>,
    /// Where the audited file's URL table, loaded, keeps its heap bytes,
    /// when a file was audited.
    pub interner: Option<InternerSplit>,
    /// Where the loaded PB-PPM model's fingerprint index bytes go, list by
    /// list with each one's width, how many of its groups are dirty and
    /// how many members the largest has.
    pub index: Option<IndexSplit>,
    /// The audited arena's columns, each with its bytes and width; empty
    /// for a model with no arena.
    pub arena: Vec<ColumnBytes>,
    /// The PB-PPM model's popularity table, counts and grades, each with
    /// its bytes and width; empty for the other models.
    pub popularity: Vec<ColumnBytes>,
}

impl AuditReport {
    /// An empty report for `model`.
    pub fn new(model: &'static str) -> Self {
        Self {
            model,
            checks: 0,
            violations: Vec::new(),
            bytes: None,
            url_table: None,
            interner: None,
            index: None,
            arena: Vec::new(),
            popularity: Vec::new(),
        }
    }

    /// A report for a payload that failed to decode at all.
    pub fn rejected(model: &'static str, detail: String) -> Self {
        Self {
            model,
            checks: 1,
            violations: vec![Violation::SnapshotRejected { detail }],
            bytes: None,
            url_table: None,
            interner: None,
            index: None,
            arena: Vec::new(),
            popularity: Vec::new(),
        }
    }

    /// True when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when a violation of the given [`Violation::kind`] is present.
    #[must_use]
    pub fn has(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }

    #[inline]
    fn tick(&mut self) {
        self.checks += 1;
    }

    /// Serializes the report as a single JSON object (hand-rolled: the
    /// report must stay printable even when serde integration is what
    /// broke).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.violations.len() * 96);
        s.push_str("{\"model\":\"");
        s.push_str(self.model);
        s.push_str("\",\"checks\":");
        s.push_str(&self.checks.to_string());
        s.push_str(",\"clean\":");
        s.push_str(if self.is_clean() { "true" } else { "false" });
        s.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"kind\":\"");
            s.push_str(v.kind());
            s.push_str("\",\"message\":\"");
            json_escape_into(&v.to_string(), &mut s);
            s.push('"');
            if let Some(path) = v.path() {
                s.push_str(",\"path\":[");
                for (j, url) in path.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push_str(&url.to_string());
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push(']');
        if let Some(split) = self.bytes {
            s.push_str(",\"bytes\":{\"total\":");
            s.push_str(&split.total().to_string());
            for (name, bytes) in split.sections() {
                s.push_str(",\"");
                s.push_str(name);
                s.push_str("\":");
                s.push_str(&bytes.to_string());
            }
            s.push('}');
        }
        if let Some(table) = self.url_table {
            s.push_str(",\"url_table\":{\"ids\":");
            s.push_str(&table.ids.to_string());
            s.push_str(",\"strings\":");
            s.push_str(&table.strings.to_string());
            s.push_str(",\"decoded_bytes\":");
            s.push_str(&table.decoded_bytes.to_string());
            s.push('}');
        }
        if let Some(split) = self.interner {
            s.push_str(",\"interner\":{\"total\":");
            s.push_str(&split.total().to_string());
            for (name, bytes) in split.sections() {
                s.push_str(&format!(",\"{name}\":{bytes}"));
            }
            s.push('}');
        }
        if let Some(split) = &self.index {
            push_columns(&mut s, "index", &split.columns);
            s.push_str(&format!(
                ",\"dirty_groups\":{},\"largest_dirty_group\":{}",
                split.dirty_groups, split.largest_dirty
            ));
            s.push_str(&format!(
                ",\"windows_filed\":{},\"derived_groups\":{},\"clean_groups\":{},\"dropped_groups\":{}}}",
                split.windows_filed, split.derived_groups, split.clean_groups, split.dropped_groups
            ));
        }
        for (key, columns) in [("arena", &self.arena), ("popularity", &self.popularity)] {
            if !columns.is_empty() {
                push_columns(&mut s, key, columns);
                s.push('}');
            }
        }
        s.push('}');
        s
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit of {}: {} checks, {} violation(s)",
            self.model,
            self.checks,
            self.violations.len()
        )?;
        if let Some(split) = self.bytes {
            write!(f, "  file bytes {}:", split.total())?;
            for (name, bytes) in split.sections() {
                write!(f, " {name} {bytes}")?;
            }
            if let Some(table) = self.url_table {
                write!(
                    f,
                    "; url table {} ids, {} strings, {} decoded bytes",
                    table.ids, table.strings, table.decoded_bytes
                )?;
            }
            writeln!(f)?;
        }
        if let Some(split) = self.interner {
            write!(f, "  interner bytes {}:", split.total())?;
            for (name, bytes) in split.sections() {
                write!(f, " {name} {bytes}")?;
            }
            writeln!(f)?;
        }
        if let Some(split) = &self.index {
            write_columns(f, "index", &split.columns)?;
            writeln!(
                f,
                "; dirty groups {}, largest {} members",
                split.dirty_groups, split.largest_dirty
            )?;
            writeln!(
                f,
                "  index groups: {} voting windows filed, derived {}, clean {}, dirty {}, dropped {}",
                split.windows_filed,
                split.derived_groups,
                split.clean_groups,
                split.dirty_groups,
                split.dropped_groups
            )?;
        }
        for (label, columns) in [("arena", &self.arena), ("popularity", &self.popularity)] {
            if !columns.is_empty() {
                write_columns(f, label, columns)?;
                writeln!(f)?;
            }
        }
        for v in &self.violations {
            writeln!(f, "  [{}] {v}", v.kind())?;
        }
        Ok(())
    }
}

/// Appends `,"key":{"total":T,"name":{"bytes":B,"width":W},…`, leaving
/// the object open for the caller to close.
fn push_columns(s: &mut String, key: &str, columns: &[ColumnBytes]) {
    let total: usize = columns.iter().map(|c| c.bytes).sum();
    s.push_str(&format!(",\"{key}\":{{\"total\":{total}"));
    for c in columns {
        s.push_str(&format!(
            ",\"{}\":{{\"bytes\":{},\"width\":{}}}",
            c.name, c.bytes, c.width
        ));
    }
}

/// Writes `  label bytes T: name B wW …`, without ending the line.
fn write_columns(f: &mut fmt::Formatter<'_>, label: &str, columns: &[ColumnBytes]) -> fmt::Result {
    let total: usize = columns.iter().map(|c| c.bytes).sum();
    write!(f, "  {label} bytes {total}:")?;
    for c in columns {
        write!(f, " {} {} w{}", c.name, c.bytes, c.width)?;
    }
    Ok(())
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = b"0123456789abcdef";
                out.push(char::from(hex[(b >> 4) as usize & 0xf]));
                out.push(char::from(hex[b as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// The root-to-node URL-id path of row `id`, read off the runs that hold
/// each row rather than the `parents` column under audit. Only called once
/// `check_csr` has passed, so every run lies past its owner and the walk
/// ends.
fn node_path(arena: &FrozenTree, id: u32) -> Vec<u32> {
    let mut rev = vec![arena.url(id).0];
    let mut cur = id;
    while let Some(owner) = run_owner(arena, cur) {
        rev.push(arena.url(owner).0);
        cur = owner;
    }
    rev.reverse();
    rev
}

/// The node whose child run, or the root whose link run, holds row `id`;
/// `None` for a root.
fn run_owner(arena: &FrozenTree, id: u32) -> Option<u32> {
    let runs = if arena.is_link_dup(id) {
        &arena.link_offsets
    } else if arena.roots().contains(&id) {
        return None;
    } else {
        &arena.first_child
    };
    // The last run to start at or before `id` holds it.
    u32::try_from(runs.partition_point(|start| start <= u64::from(id)))
        .ok()?
        .checked_sub(1)
}

/// Checks that every row of `run` names `owner` as its parent.
fn points_back(arena: &FrozenTree, owner: u32, run: Range<u32>, report: &mut AuditReport) {
    for row in run {
        report.tick();
        if arena.parent(row) != owner {
            report.violations.push(Violation::ChildParentMismatch {
                path: node_path(arena, owner),
                child_url: arena.url(row).0,
            });
        }
    }
}

/// Verifies the shape invariants every tree model's arena obeys: the
/// layout first ([`FrozenTree::check_csr`] — a malformed layout makes
/// every run unreliable, so nothing else runs), then URL symbols, each
/// row's back-pointer against the run that holds it, count monotonicity,
/// the root registry both ways and the self-link rule. Returns whether the
/// layout holds: the checks that follow walk the runs, so they run only
/// then.
fn verify_arena(arena: &FrozenTree, url_count: Option<u64>, report: &mut AuditReport) -> bool {
    report.arena = arena.split().to_vec();
    report.tick();
    if let Err(detail) = arena.check_csr() {
        report.violations.push(Violation::FrozenCsrMalformed {
            detail: detail.to_owned(),
        });
        return false;
    }
    if let Some(count) = url_count {
        for UrlId(url) in arena.urls_in_order() {
            report.tick();
            if u64::from(url) >= count {
                report.violations.push(Violation::SymbolUnresolved {
                    url,
                    url_count: count,
                });
            }
        }
    }
    // The tree rows' child runs, in row order, are the rows from the
    // first past the roots on, so their parents and counts are one walk
    // over each column too.
    let skip = arena.roots().end as usize;
    let mut child_parents = arena.parents_in_order().skip(skip);
    let mut child_counts = arena.counts_in_order().skip(skip);
    let tree = (0..arena.first_link_row())
        .zip(arena.child_runs())
        .zip(arena.counts_in_order());
    for ((id, run), count) in tree {
        let mut children_sum = 0u64;
        for (row, (parent, child_count)) in run.zip(child_parents.by_ref().zip(&mut child_counts)) {
            report.tick();
            if parent != id {
                report.violations.push(Violation::ChildParentMismatch {
                    path: node_path(arena, id),
                    child_url: arena.url(row).0,
                });
            }
            children_sum = children_sum.saturating_add(child_count);
        }
        report.tick();
        if children_sum > count {
            report.violations.push(Violation::ChildCountExceedsParent {
                path: node_path(arena, id),
                parent_count: count,
                children_sum,
            });
        }
    }
    // The root registry: rows 0..R are the roots, each parentless and its
    // URL's entry, and every entry names one of them.
    for root in arena.roots() {
        let url = arena.url(root);
        report.tick();
        if arena.root(url) != Some(root) {
            report
                .violations
                .push(Violation::RootNotRegistered { url: url.0 });
        }
        if arena.parent(root) != NO_NODE {
            report
                .violations
                .push(Violation::RootRegistrationInvalid { url: url.0 });
        }
        points_back(arena, root, arena.root_links(root), report);
        for link in arena.root_links(root) {
            report.tick();
            if arena.url(link) == url {
                report
                    .violations
                    .push(Violation::LinkSelf { head_url: url.0 });
            }
        }
    }
    for (url, row) in arena.root_table() {
        report.tick();
        if !(arena.roots().contains(&row) && arena.url(row).0 == url) {
            report
                .violations
                .push(Violation::RootRegistrationInvalid { url });
        }
    }
    true
}

/// Reports each node one level beyond `cap_of`'s height cap for its
/// branch. One pass over the tree rows in order: a child run lies past
/// its row, so each row's budget (the levels its branch's cap still admits
/// below it) is known before its children are reached. Below a reported
/// node nothing is checked: deeper nodes are implied, and a flood of them
/// says no more.
fn verify_heights(
    arena: &FrozenTree,
    cap_of: impl Fn(UrlId) -> (Option<u8>, u8),
    report: &mut AuditReport,
) {
    let tree = arena.first_link_row();
    let mut budget: Vec<Option<u8>> = vec![None; tree as usize];
    for root in arena.roots() {
        report.tick();
        budget[root as usize] = admit(arena, &cap_of, root, report);
    }
    for (id, run) in (0..tree).zip(arena.child_runs()) {
        let Some(left) = budget[id as usize] else {
            continue;
        };
        for child in run {
            budget[child as usize] = match left.checked_sub(1) {
                Some(left) => Some(left),
                None => admit(arena, &cap_of, child, report),
            };
        }
    }
}

/// The levels `cap_of`'s cap for `row`'s branch admits below `row`, or
/// `None` after reporting `row` past it. Depth saturates at `u8::MAX`, so
/// a cap of `u8::MAX` admits any depth.
fn admit(
    arena: &FrozenTree,
    cap_of: impl Fn(UrlId) -> (Option<u8>, u8),
    row: u32,
    report: &mut AuditReport,
) -> Option<u8> {
    let mut root = row;
    while arena.parent(root) != NO_NODE {
        root = arena.parent(root);
    }
    let (grade, cap) = cap_of(arena.url(root));
    let depth = arena.depth(row);
    if depth <= cap {
        return Some(cap - depth);
    }
    report.violations.push(Violation::HeightExceedsCap {
        path: node_path(arena, row),
        grade,
        cap,
        depth,
    });
    None
}

/// Checks a popularity table's internal consistency by rederiving it from
/// its count vector (§3.1: grades are a pure function of the counts).
fn verify_popularity(pop: &PopularityTable, report: &mut AuditReport) {
    let (grades, max_count, total) = PopularityTable::grades_of(&pop.counts().to_vec());
    report.tick();
    if pop.max_count() != max_count {
        report
            .violations
            .push(Violation::PopularityTotalsInconsistent { what: "max_count" });
    }
    report.tick();
    if pop.total_accesses() != total {
        report
            .violations
            .push(Violation::PopularityTotalsInconsistent { what: "total" });
    }
    for ((i, &fresh), stored) in grades.iter().enumerate().zip(pop.grades()) {
        report.tick();
        let url = UrlId(u32::try_from(i).unwrap_or(u32::MAX));
        if stored != fresh {
            report.violations.push(Violation::GradeMismatch {
                url: url.0,
                stored: stored.level(),
                derived: fresh.level(),
            });
        }
    }
}

/// Reports no-special-links for the model families that never create
/// them: no link rows.
fn verify_no_links(arena: &FrozenTree, report: &mut AuditReport) {
    report.tick();
    for id in arena.first_link_row()..arena.rows() {
        report.violations.push(Violation::UnexpectedSpecialLink {
            url: arena.url(id).0,
        });
    }
}

fn verify_pb(m: &PbPpm, url_count: Option<u64>, report: &mut AuditReport) {
    let pop = &m.pop;
    report.popularity = pop.split().to_vec();
    verify_popularity(pop, report);
    let Some(arena) = m.store.arena() else {
        return;
    };
    report.index = Some(m.index.split());
    if !verify_arena(arena, url_count, report) {
        return;
    }
    let cfg = m.cfg;
    verify_heights(
        arena,
        |url| {
            let g = pop.grade(url);
            (Some(g.level()), cfg.height_for(g))
        },
        report,
    );

    // Rule 3's grade condition for every special link.
    for root in arena.roots() {
        let head_grade = pop.grade(arena.url(root));
        for target in arena.root_links(root) {
            report.tick();
            let target_grade = pop.grade(arena.url(target));
            if !(target_grade > head_grade || target_grade == Grade::MAX) {
                report.violations.push(Violation::LinkGradeRule {
                    head_url: arena.url(root).0,
                    head_grade: head_grade.level(),
                    target_url: arena.url(target).0,
                    target_grade: target_grade.level(),
                });
            }
        }
    }
}

fn verify_standard(m: &StandardPpm, url_count: Option<u64>, report: &mut AuditReport) {
    let Some(arena) = m.store.arena() else {
        return;
    };
    if !verify_arena(arena, url_count, report) {
        return;
    }
    verify_no_links(arena, report);
    if let Some(cap) = m.max_height {
        verify_heights(arena, |_| (None, cap.max(1)), report);
    }
    // LRS finalize killed everything below the support threshold; any
    // survivor under it was smuggled in afterwards.
    let Some(min_support) = m.min_support else {
        return;
    };
    for id in 0..arena.rows() {
        report.tick();
        if arena.count(id) < min_support {
            report.violations.push(Violation::SupportBelowThreshold {
                path: node_path(arena, id),
                count: arena.count(id),
                min_support,
            });
        }
    }
}

/// The pair forest: height at most 2, and each root's count (the
/// transitions out of its URL) equal to the sum of its children's.
fn verify_order1(m: &Order1Markov, url_count: Option<u64>, report: &mut AuditReport) {
    let Some(arena) = m.store.arena() else {
        return;
    };
    if !verify_arena(arena, url_count, report) {
        return;
    }
    verify_no_links(arena, report);
    verify_heights(arena, |_| (None, 2), report);
    for root in arena.roots() {
        report.tick();
        let total = arena.count(root);
        let sum = arena.children(root).map(|c| arena.count(c)).sum();
        if total != sum {
            report.violations.push(Violation::Order1RowTotalMismatch {
                url: arena.url(root).0,
                total,
                sum,
            });
        }
    }
}

fn verify_online(m: &OnlinePbPpm, url_count: Option<u64>, report: &mut AuditReport) {
    report.tick();
    if m.window.len() > m.max_window {
        report.violations.push(Violation::WindowOverflow {
            len: m.window.len() as u64,
            max: m.max_window as u64,
        });
    }
    report.tick();
    if m.since_rebuild >= m.rebuild_every {
        report.violations.push(Violation::ScheduleInconsistent {
            detail: format!(
                "{} sessions since rebuild, cadence is {} (training would have rebuilt)",
                m.since_rebuild, m.rebuild_every
            ),
        });
    }
    report.tick();
    if m.since_rebuild > 0 && m.window.is_empty() {
        report.violations.push(Violation::ScheduleInconsistent {
            detail: "sessions pending a rebuild but the window is empty".to_owned(),
        });
    }
    if let Some(count) = url_count {
        for session in &m.window {
            for &url in session {
                report.tick();
                if u64::from(url.0) >= count {
                    report.violations.push(Violation::SymbolUnresolved {
                        url: url.0,
                        url_count: count,
                    });
                }
            }
        }
    }
    if let Some(inner) = &m.model {
        verify_pb(inner, url_count, report);
    }
}

/// Verifies every structural invariant of `model`, additionally checking
/// that each URL symbol resolves when the interner size is known.
pub fn verify_model_with_urls(model: &ModelRef<'_>, url_count: Option<usize>) -> AuditReport {
    let mut report = AuditReport::new(model.label());
    let count = url_count.map(|n| n as u64);
    match model {
        ModelRef::Pb(m) => verify_pb(m, count, &mut report),
        ModelRef::Standard(m) => verify_standard(m, count, &mut report),
        ModelRef::OnlinePb(m) => verify_online(m, count, &mut report),
        ModelRef::Order1(m) => verify_order1(m, count, &mut report),
    }
    report
}

/// Verifies every structural invariant of `model`.
pub fn verify_model(model: &ModelRef<'_>) -> AuditReport {
    verify_model_with_urls(model, None)
}

/// Whether the in-process runtime audit is on.
///
/// Defaults to `debug_assertions`; the `PBPPM_AUDIT` environment variable
/// overrides in either direction (`0`/`off`/`false` disables, anything else
/// forces on). The decision is cached for the process lifetime.
pub fn runtime_audit_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("PBPPM_AUDIT") {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "off" | "false"),
        Err(_) => cfg!(debug_assertions),
    })
}

/// The hook every build/prune/rebuild site calls after reshaping a model:
/// a no-op unless [`runtime_audit_enabled`], otherwise it verifies the
/// model and panics with the formatted report on any violation — a corrupt
/// model must not survive long enough to serve predictions.
pub fn runtime_audit(model: &ModelRef<'_>, site: &str) {
    if !runtime_audit_enabled() {
        return;
    }
    let report = verify_model(model);
    if !report.is_clean() {
        panic!("PBPPM_AUDIT failed at {site}:\n{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::PbConfig;
    use crate::popularity::PopularityBuilder;
    use crate::predictor::Predictor;
    use crate::prune::PruneConfig;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn pop_with_grades(grades: &[u8]) -> PopularityTable {
        let mut b = PopularityBuilder::new();
        for (i, &g) in grades.iter().enumerate() {
            let count = match g {
                3 => 1000,
                2 => 50,
                1 => 5,
                _ => 0,
            };
            if count > 0 {
                b.record_n(u(u32::try_from(i).unwrap_or(u32::MAX)), count);
            }
        }
        b.record_n(u(u32::try_from(grades.len()).unwrap_or(u32::MAX)), 1000);
        b.build()
    }

    fn trained_pb() -> PbPpm {
        let pop = pop_with_grades(&[3, 2, 1, 3, 2, 1]);
        let mut m = PbPpm::new(
            pop,
            PbConfig {
                prune: PruneConfig::disabled(),
                ..PbConfig::default()
            },
        );
        for _ in 0..4 {
            m.train_session(&[u(0), u(1), u(2), u(3), u(4), u(5)]);
            m.train_session(&[u(3), u(1), u(2), u(0)]);
        }
        m.finalize();
        m
    }

    fn arena_mut(m: &mut PbPpm) -> &mut FrozenTree {
        match &mut m.store {
            crate::frozen::NodeStore::Frozen { arena, .. } => arena,
            crate::frozen::NodeStore::Training(_) => panic!("model is finalized"),
        }
    }

    #[test]
    fn clean_models_verify_clean() {
        let pb = trained_pb();
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.is_clean(), "{report}");
        assert!(report.checks > 10);

        let mut std_m = crate::standard::StandardPpm::new(Some(4));
        std_m.train_session(&[u(0), u(1), u(2), u(3)]);
        std_m.finalize();
        let report = verify_model(&ModelRef::Standard(&std_m));
        assert!(report.is_clean(), "{report}");

        let mut lrs = crate::standard::StandardPpm::lrs();
        for _ in 0..2 {
            lrs.train_session(&[u(0), u(1), u(2)]);
        }
        lrs.finalize();
        let report = verify_model(&ModelRef::Standard(&lrs));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.model, "lrs");

        let mut o1 = Order1Markov::new();
        o1.train_session(&[u(0), u(1), u(2)]);
        o1.finalize();
        let report = verify_model(&ModelRef::Order1(&o1));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn malformed_frozen_csr_is_caught() {
        let mut pb = trained_pb();
        arena_mut(&mut pb).first_child.edit(|runs| {
            runs.pop();
        });
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.has("frozen-csr-malformed"), "{report}");
    }

    #[test]
    fn inflated_child_count_is_caught() {
        let mut pb = trained_pb();
        let arena = arena_mut(&mut pb);
        let child = arena.descend(&[u(0), u(1)]).expect("branch exists");
        arena.counts.edit(|counts| counts[child as usize] += 1_000);
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.has("child-count-exceeds-parent"), "{report}");
    }

    #[test]
    fn cyclic_parent_chain_is_caught_not_hung() {
        // Rows 1 and 2 of one chain claiming each other as parent, and a
        // root claiming a parent: the audit must report each against the
        // runs, and must terminate.
        let mut pb = trained_pb();
        let arena = arena_mut(&mut pb);
        let [a, b] = [&[u(0), u(1)][..], &[u(0), u(1), u(2)]].map(|p| arena.descend(p));
        let (a, b) = (a.expect("branch exists"), b.expect("branch exists"));
        // Parents are stored one up.
        arena
            .parents
            .edit(|parents| parents[a as usize] = u64::from(b) + 1);
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.has("child-parent-mismatch"), "{report}");
        assert!(!report.has("frozen-csr-malformed"), "{report}");

        let mut pb = trained_pb();
        arena_mut(&mut pb).parents.edit(|parents| parents[0] = 2);
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.has("root-registration-invalid"), "{report}");
    }

    #[test]
    fn forged_grade_table_is_caught() {
        // Grades are bucketed over the stored largest count: a hundredfold
        // one drops url 0 from grade 3, and the totals no longer agree.
        let mut pb = trained_pb();
        assert_eq!(pb.pop.grade(u(0)), Grade::G3);
        pb.pop = PopularityTable::from_parts_unchecked(
            pb.pop.counts().to_vec(),
            pb.pop.max_count() * 100,
            pb.pop.total_accesses(),
        );
        assert!(pb.pop.grade(u(0)) < Grade::G3);
        let report = verify_model(&ModelRef::Pb(&pb));
        assert!(report.has("grade-mismatch"), "{report}");
        assert!(report.has("popularity-totals-inconsistent"), "{report}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut pb = trained_pb();
        let arena = arena_mut(&mut pb);
        let child = arena.descend(&[u(0), u(1)]).expect("branch exists");
        arena.counts.edit(|counts| counts[child as usize] += 1_000);
        let report = verify_model(&ModelRef::Pb(&pb));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("child-count-exceeds-parent"));
        assert!(json.contains("\"path\":[0]"));
    }

    #[test]
    fn symbol_check_uses_interner_size() {
        let pb = trained_pb();
        let clean = verify_model_with_urls(&ModelRef::Pb(&pb), Some(7));
        assert!(clean.is_clean(), "{clean}");
        let bad = verify_model_with_urls(&ModelRef::Pb(&pb), Some(2));
        assert!(bad.has("symbol-unresolved"), "{bad}");
    }
}
