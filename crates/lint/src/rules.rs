//! The rule catalog: this workspace's panic and concurrency policy,
//! expressed over the lexer's scrubbed token stream.
//!
//! Three rules port the retired grep gate (`unsafe-attr`, `core-unwrap`,
//! `codec-cast`) — now string/comment-proof and `#[cfg(test)]`-brace-aware
//! instead of "test modules are last in the file" by convention. The rest
//! encode the concurrency discipline PRs 8–9 introduced, which no grep
//! can see:
//!
//! | rule id           | policy                                                    |
//! |-------------------|-----------------------------------------------------------|
//! | `unsafe-attr`     | crate roots carry `#![forbid(unsafe_code)]` (obs: deny)   |
//! | `core-unwrap`     | no `.unwrap()`/`.expect(` in non-test `crates/core/src`   |
//! | `codec-cast`      | no `as` integer casts in the snapshot codec               |
//! | `atomic-ordering` | atomic `Ordering` uses confined to approved modules       |
//! | `relaxed-comment` | every `Relaxed` op carries an adjacent justification      |
//! | `thread-spawn`    | thread spawns confined to approved modules                |
//! | `hot-path-lock`   | no `Mutex`/`RwLock` in designated hot-path modules        |
//! | `drop-panic`      | no panicking macros / unwrap / indexing in `Drop` impls   |
//! | `stale-allowlist` | every allowlist entry still forgives something real       |
//!
//! Adding a rule: give it a [`RuleId`] variant, emit findings from
//! [`check_file`] (use the scrub's `in_test_scope` so test code stays
//! exempt), plant exactly one violation in `corpus/<rule-id>.rs`, and
//! document it in DESIGN.md §15.

use crate::lexer::{self, Tok, TokKind};
use crate::report::Finding;

/// Stable rule identifiers (kebab-case, used in reports and allowlists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Crate roots must opt out of unsafe code.
    UnsafeAttr,
    /// The core model library surfaces errors as values, never panics.
    CoreUnwrap,
    /// The snapshot codec narrows integers only via `try_from` helpers.
    CodecCast,
    /// Atomic memory orderings only in approved concurrency modules.
    AtomicOrdering,
    /// `Ordering::Relaxed` requires an adjacent justification comment.
    RelaxedComment,
    /// Thread spawns only in approved parallelism modules.
    ThreadSpawn,
    /// Designated hot-path modules stay lock-free.
    HotPathLock,
    /// `Drop` impls must not panic (they may run during unwinding).
    DropPanic,
    /// Allowlist entries that forgive nothing must be deleted.
    StaleAllowlist,
}

/// Every rule, in report order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::UnsafeAttr,
    RuleId::CoreUnwrap,
    RuleId::CodecCast,
    RuleId::AtomicOrdering,
    RuleId::RelaxedComment,
    RuleId::ThreadSpawn,
    RuleId::HotPathLock,
    RuleId::DropPanic,
    RuleId::StaleAllowlist,
];

impl RuleId {
    /// The stable kebab-case id.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::UnsafeAttr => "unsafe-attr",
            RuleId::CoreUnwrap => "core-unwrap",
            RuleId::CodecCast => "codec-cast",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::RelaxedComment => "relaxed-comment",
            RuleId::ThreadSpawn => "thread-spawn",
            RuleId::HotPathLock => "hot-path-lock",
            RuleId::DropPanic => "drop-panic",
            RuleId::StaleAllowlist => "stale-allowlist",
        }
    }

    /// Parses a kebab-case rule id.
    #[must_use]
    pub fn parse(raw: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == raw)
    }
}

/// Modules approved to touch `std::sync::atomic` orderings: the epoch
/// publication protocol, the deterministic work-pulling counter, and the
/// telemetry primitives (allocation counters, log threshold, metrics
/// cells) — each one a module whose entire point is the atomic.
const ATOMIC_MODULES: &[&str] = &[
    "crates/core/src/publish.rs",
    "crates/core/src/parallel.rs",
    "crates/obs/src/alloc.rs",
    "crates/obs/src/log.rs",
    "crates/obs/src/metrics.rs",
];

/// Modules approved to spawn threads: the deterministic parallel-map
/// substrate, the chunked ingester's reader/worker pool, the serving core,
/// and benches. Everything else must go through these.
const SPAWN_FILES: &[&str] = &["crates/core/src/parallel.rs", "crates/trace/src/ingest.rs"];
const SPAWN_PREFIXES: &[&str] = &["crates/serve/src/", "crates/bench/"];

/// Hot-path modules that must stay lock-free: the frozen serving arena,
/// the fingerprint index, and top-N ranking all sit on the per-request
/// predict path, where a lock would serialize the sharded readers.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/frozen.rs",
    "crates/core/src/context_index.rs",
    "crates/core/src/topn.rs",
];

/// Macros that panic (or can): forbidden inside `Drop` impls, where a
/// panic during unwinding aborts the process.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Atomic memory-ordering variant names. `std::cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) do not collide, which is what lets the rule
/// tell the two `Ordering`s apart without name resolution.
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Integer types an `as` cast can silently narrow or re-sign to.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// One file to lint: a workspace-relative `/`-separated path and its text.
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// True for files that are test code wholesale: integration test trees
/// and criterion benches (rules still apply to `crates/bench/src`, which
/// ships the bench binaries' logic).
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// The `#![…(unsafe_code)]` level a crate root (or the one special module)
/// must carry, if any.
fn expected_unsafe_attr(path: &str) -> Option<&'static str> {
    if path == "crates/obs/src/alloc.rs" {
        // The workspace's sole unsafe block (the GlobalAlloc impl) lives
        // here; the file must say so with a local allow.
        return Some("allow");
    }
    if path == "crates/obs/src/lib.rs" {
        // forbid cannot be overridden by alloc.rs's allow, so obs denies.
        return Some("deny");
    }
    let is_root = path == "src/lib.rs"
        || path.starts_with("crates/bench/src/bin/")
        || (path.starts_with("crates/")
            && (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")));
    is_root.then_some("forbid")
}

/// Runs every applicable rule over one file. Returns the findings and the
/// number of rule applications (for the report's check count).
pub fn check_file(file: &SourceFile) -> (Vec<Finding>, u64) {
    let mut findings = Vec::new();
    let mut checks = 0u64;
    let scrub = lexer::scrub(&file.text);
    let toks = lexer::tokenize(&scrub.code);
    let original_lines: Vec<&str> = file.text.lines().collect();
    let finding = |rule: RuleId, line: usize| -> Finding {
        Finding {
            rule,
            file: file.path.clone(),
            line: line + 1,
            snippet: original_lines.get(line).map_or("", |l| l.trim()).to_owned(),
        }
    };

    // unsafe-attr applies even to test-heavy roots; everything else skips
    // whole-file test code.
    if let Some(level) = expected_unsafe_attr(&file.path) {
        checks += 1;
        if !has_inner_attr(&toks, &format!("{level}(unsafe_code)")) {
            findings.push(Finding {
                rule: RuleId::UnsafeAttr,
                file: file.path.clone(),
                line: 1,
                snippet: format!("missing #![{level}(unsafe_code)]"),
            });
        }
    }
    if is_test_file(&file.path) {
        return (findings, checks);
    }

    let in_core = file.path.starts_with("crates/core/src/");
    let is_codec = file.path == "crates/core/src/snapshot.rs";
    let hot_path = HOT_PATH_FILES.contains(&file.path.as_str());
    let uses_atomics = scrub.code.contains("sync::atomic");
    let atomics_approved = ATOMIC_MODULES.contains(&file.path.as_str());
    let spawn_approved = SPAWN_FILES.contains(&file.path.as_str())
        || SPAWN_PREFIXES.iter().any(|p| file.path.starts_with(p));
    let drop_spans = drop_impl_spans(&toks, scrub.code.len());
    checks += 3 // atomic-ordering, thread-spawn, drop-panic apply everywhere
        + u64::from(in_core)
        + u64::from(is_codec)
        + u64::from(hot_path)
        + u64::from(uses_atomics); // relaxed-comment

    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || scrub.in_test_scope(tok.start) {
            continue;
        }
        let line = scrub.line_of(tok.start);
        let prev = i.checked_sub(1).map(|p| toks[p].text);
        let next = toks.get(i + 1).map(|t| t.text);

        // core-unwrap: `.unwrap()` / `.expect(` method calls in core.
        if in_core
            && (tok.text == "unwrap" || tok.text == "expect")
            && prev == Some(".")
            && next == Some("(")
        {
            findings.push(finding(RuleId::CoreUnwrap, line));
        }

        // codec-cast: `as <int>` in the snapshot codec.
        if is_codec && tok.text == "as" && next.is_some_and(|n| INT_TYPES.contains(&n)) {
            findings.push(finding(RuleId::CodecCast, line));
        }

        // atomic-ordering / relaxed-comment key on the memory-ordering
        // variant names; `sync::atomic` must appear so a user type that
        // happens to reuse a name cannot trip the rule.
        if uses_atomics && MEMORY_ORDERINGS.contains(&tok.text) {
            if !atomics_approved {
                findings.push(finding(RuleId::AtomicOrdering, line));
            } else if tok.text == "Relaxed"
                && !in_use_decl(&toks, i)
                && !scrub.comment_adjacent(line, 3)
            {
                // Approved modules still owe each Relaxed op a reason: a
                // comment on the line or within the three lines above.
                findings.push(finding(RuleId::RelaxedComment, line));
            }
        }

        // thread-spawn: any `spawn(` call outside the approved modules.
        if !spawn_approved && tok.text == "spawn" && next == Some("(") && prev != Some("fn") {
            findings.push(finding(RuleId::ThreadSpawn, line));
        }

        // hot-path-lock: lock types named anywhere in a hot-path module.
        if hot_path && (tok.text == "Mutex" || tok.text == "RwLock") {
            findings.push(finding(RuleId::HotPathLock, line));
        }

        // drop-panic: panicking constructs inside Drop impl bodies.
        if drop_spans.iter().any(|s| s.contains(&tok.start)) {
            let is_panic_macro = PANIC_MACROS.contains(&tok.text) && next == Some("!");
            let is_unwrap = (tok.text == "unwrap" || tok.text == "expect")
                && prev == Some(".")
                && next == Some("(");
            if is_panic_macro || is_unwrap {
                findings.push(finding(RuleId::DropPanic, line));
            }
        }
    }

    // drop-panic also forbids indexing (`x[i]` panics on out-of-bounds):
    // a `[` whose previous token ends an expression.
    for (i, tok) in toks.iter().enumerate() {
        if tok.text != "[" || tok.kind != TokKind::Punct {
            continue;
        }
        if !drop_spans.iter().any(|s| s.contains(&tok.start)) || scrub.in_test_scope(tok.start) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p]);
        let indexes_expr =
            prev.is_some_and(|p| p.text == ")" || p.text == "]" || p.kind == TokKind::Ident);
        if indexes_expr {
            findings.push(finding(RuleId::DropPanic, scrub.line_of(tok.start)));
        }
    }

    (findings, checks)
}

/// True when the file's inner attributes include `#![<normalized>]`
/// (token texts joined without whitespace).
fn has_inner_attr(toks: &[Tok<'_>], normalized: &str) -> bool {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].text == "#" && toks[i + 1].text == "!" && toks[i + 2].text == "[" {
            let mut depth = 1usize;
            let mut j = i + 3;
            let mut body = String::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text {
                    "[" => {
                        depth += 1;
                        body.push('[');
                    }
                    "]" => {
                        depth -= 1;
                        if depth > 0 {
                            body.push(']');
                        }
                    }
                    t => body.push_str(t),
                }
                j += 1;
            }
            if body == normalized {
                return true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

/// True when token `i` sits inside a `use` declaration: the first token
/// after the previous statement boundary (`;`, `{`, or `}`) is `use`.
fn in_use_decl(toks: &[Tok<'_>], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text {
            "use" => return true,
            ";" | "}" => return false,
            "{" => {
                // A `{` inside a use tree (`use a::{b, c}`) is preceded by
                // `::`; any other `{` opens a block, which no use
                // declaration can span.
                if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
                    continue;
                }
                return false;
            }
            _ => {}
        }
    }
    false
}

/// Byte ranges of `impl … Drop for …` bodies (brace-matched).
fn drop_impl_spans(toks: &[Tok<'_>], eof: usize) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        // Scan the impl header (up to `{` or `;`) for `… Drop for …`.
        let mut j = i + 1;
        let mut is_drop = false;
        while j < toks.len() {
            match toks[j].text {
                "{" | ";" => break,
                "for" if toks[j - 1].text == "Drop" => is_drop = true,
                _ => {}
            }
            j += 1;
        }
        if !is_drop || toks.get(j).map(|t| t.text) != Some("{") {
            i = j;
            continue;
        }
        let body_start = toks[j].start;
        let mut depth = 1usize;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            match toks[k].text {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let end = toks.get(k.saturating_sub(1)).map_or(eof, |t| t.start + 1);
        spans.push(body_start..end);
        i = k;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, text: &str) -> Vec<Finding> {
        check_file(&SourceFile {
            path: path.into(),
            text: text.into(),
        })
        .0
    }

    fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn rule_ids_roundtrip() {
        for &rule in ALL_RULES {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("bogus"), None);
    }

    #[test]
    fn unwrap_in_string_literal_is_not_a_violation() {
        // The grep gate false-positived on this class; the lexer does not.
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn msg() -> &'static str { \"call .unwrap() later\" }\n";
        assert!(lint("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_below_a_test_module_is_caught() {
        // The grep gate stripped everything below the first #[cfg(test)];
        // brace-aware scoping keeps looking.
        let src = "\
#[cfg(test)]
mod tests {
    fn inside_tests_is_fine() { x.unwrap(); }
}

pub fn production(x: Option<u32>) -> u32 { x.unwrap() }
";
        let findings = lint("crates/core/src/planted.rs", src);
        assert_eq!(rules_of(&findings), vec![RuleId::CoreUnwrap]);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn expect_calls_count_like_unwrap() {
        let findings = lint(
            "crates/core/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.expect(\"always\") }\n",
        );
        assert_eq!(rules_of(&findings), vec![RuleId::CoreUnwrap]);
    }

    #[test]
    fn unwrap_outside_core_is_fine() {
        assert!(lint(
            "crates/sim/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn codec_casts_flagged_code_only() {
        let src = "\
// a comment mentioning n as u64 is fine
fn f(n: usize) -> u32 { n as u32 }
fn g() -> &'static str { \"len as u64\" }
";
        let findings = lint("crates/core/src/snapshot.rs", src);
        assert_eq!(rules_of(&findings), vec![RuleId::CodecCast]);
        assert_eq!(findings[0].line, 2);
        // The same cast in a non-codec file is clippy's business, not ours.
        assert!(lint(
            "crates/core/src/other.rs",
            "fn f(n: usize) -> u32 { n as u32 }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_casts_are_not_codec_violations() {
        assert!(lint(
            "crates/core/src/snapshot.rs",
            "fn f(n: u64) -> f64 { n as f64 }\n"
        )
        .is_empty());
    }

    #[test]
    fn atomic_ordering_confined_to_approved_modules() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }\n";
        let findings = lint("crates/sim/src/planted.rs", src);
        assert_eq!(rules_of(&findings), vec![RuleId::AtomicOrdering]);
        // The same code in an approved module passes (SeqCst needs no
        // justification comment, only Relaxed does).
        assert!(lint("crates/core/src/publish.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_atomic_ordering() {
        let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n\
                   fn g() -> std::cmp::Ordering { std::cmp::Ordering::Equal }\n";
        assert!(lint("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn bare_relaxed_after_use_is_confined_too() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   use std::sync::atomic::AtomicU64;\n\
                   fn f(a: &AtomicU64) { a.fetch_add(1, Relaxed); }\n";
        let findings = lint("crates/trace/src/x.rs", src);
        // The use line and the call site are both atomic-ordering hits.
        assert_eq!(
            rules_of(&findings),
            vec![RuleId::AtomicOrdering, RuleId::AtomicOrdering]
        );
    }

    #[test]
    fn relaxed_needs_adjacent_justification_in_approved_modules() {
        let bare = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                    fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        let findings = lint("crates/obs/src/metrics.rs", bare);
        assert_eq!(rules_of(&findings), vec![RuleId::RelaxedComment]);
        let justified = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                         fn f(a: &AtomicU64) -> u64 {\n\
                         // Relaxed: independent counter, no ordering needed.\n\
                         a.load(Ordering::Relaxed) }\n";
        assert!(lint("crates/obs/src/metrics.rs", justified).is_empty());
    }

    #[test]
    fn spawn_confined_to_approved_modules() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_of(&lint("crates/cli/src/serve.rs", src)),
            vec![RuleId::ThreadSpawn]
        );
        assert!(lint("crates/serve/src/sharded.rs", src).is_empty());
        assert!(lint("crates/core/src/parallel.rs", src).is_empty());
        assert!(lint("crates/trace/src/ingest.rs", src).is_empty());
        // Bench binaries may spawn, but as crate roots they still owe the
        // unsafe attribute — so give them one.
        let rooted = format!("#![forbid(unsafe_code)]\n{src}");
        assert!(lint("crates/bench/src/bin/ingest.rs", &rooted).is_empty());
    }

    #[test]
    fn spawn_in_test_modules_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint("crates/core/src/publish.rs", src).is_empty());
    }

    #[test]
    fn locks_banned_in_hot_path_modules() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(
            rules_of(&lint("crates/core/src/frozen.rs", src)),
            vec![RuleId::HotPathLock]
        );
        assert!(lint("crates/core/src/tree.rs", src).is_empty());
        assert_eq!(
            rules_of(&lint(
                "crates/core/src/topn.rs",
                "fn f(m: &std::sync::RwLock<u8>) {}\n"
            )),
            vec![RuleId::HotPathLock]
        );
    }

    #[test]
    fn drop_impls_must_not_panic_or_index() {
        let panic = "struct G;\nimpl Drop for G {\n fn drop(&mut self) { panic!(\"no\"); }\n}\n";
        assert_eq!(
            rules_of(&lint("crates/serve/src/x.rs", panic)),
            vec![RuleId::DropPanic]
        );
        let unwrap =
            "struct G;\nimpl Drop for G {\n fn drop(&mut self) { X.lock().unwrap(); }\n}\n";
        assert_eq!(
            rules_of(&lint("crates/serve/src/x.rs", unwrap)),
            vec![RuleId::DropPanic]
        );
        let index =
            "struct G { v: Vec<u8> }\nimpl Drop for G {\n fn drop(&mut self) { let _ = self.v[0]; }\n}\n";
        assert_eq!(
            rules_of(&lint("crates/serve/src/x.rs", index)),
            vec![RuleId::DropPanic]
        );
        let clean = "struct G;\nimpl Drop for G {\n fn drop(&mut self) { let _ = 1 + 1; }\n}\n";
        assert!(lint("crates/serve/src/x.rs", clean).is_empty());
        // Generic Drop impls are recognized too.
        let generic =
            "struct G<T>(T);\nimpl<T> Drop for G<T> {\n fn drop(&mut self) { panic!(); }\n}\n";
        assert_eq!(
            rules_of(&lint("crates/serve/src/x.rs", generic)),
            vec![RuleId::DropPanic]
        );
        // Panics outside the Drop body are someone else's rule.
        let outside = "fn f() { panic!(\"fine outside core\"); }\n";
        assert!(lint("crates/serve/src/x.rs", outside).is_empty());
    }

    #[test]
    fn unsafe_attr_policy_per_root() {
        assert_eq!(
            rules_of(&lint("crates/core/src/lib.rs", "pub mod tree;\n")),
            vec![RuleId::UnsafeAttr]
        );
        assert!(lint(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod frozen;\n"
        )
        .is_empty());
        // obs: deny at the root, allow in alloc.rs — forbid is wrong there.
        assert_eq!(
            rules_of(&lint("crates/obs/src/lib.rs", "#![forbid(unsafe_code)]\n")),
            vec![RuleId::UnsafeAttr]
        );
        assert!(lint("crates/obs/src/lib.rs", "#![deny(unsafe_code)]\n").is_empty());
        assert!(lint("crates/obs/src/alloc.rs", "#![allow(unsafe_code)]\n").is_empty());
        // Non-root modules carry no attribute obligation.
        assert!(lint("crates/core/src/frozen.rs", "pub struct FrozenTree;\n").is_empty());
        // Bench binaries are roots.
        assert_eq!(
            rules_of(&lint("crates/bench/src/bin/ingest.rs", "fn main() {}\n")),
            vec![RuleId::UnsafeAttr]
        );
    }

    #[test]
    fn test_files_only_owe_root_attributes() {
        let src = "fn f() { std::thread::spawn(|| x.unwrap()); }\n";
        assert!(lint("crates/core/tests/model_properties.rs", src).is_empty());
        assert!(lint("tests/end_to_end.rs", src).is_empty());
        assert!(lint("crates/bench/benches/substrate.rs", src).is_empty());
    }
}
