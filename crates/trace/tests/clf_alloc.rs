//! The log line codec's allocations: writing a line allocates its exact
//! length once, and parsing a line or classifying its URL allocates
//! nothing. The counter is process-wide, so this binary runs without the
//! libtest harness (see `Cargo.toml`), whose own bookkeeping could land
//! inside a measured window.

use pbppm_obs::alloc::allocated_bytes;
use pbppm_trace::clf::{format_clf_line, parse_clf_line_ref, ClfRecord};
use pbppm_trace::combined::{format_combined_line, CombinedRecord};
use pbppm_trace::DocKind;
use std::hint::black_box;

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// Bytes allocated while `run` runs, and what it returned.
fn allocated<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = allocated_bytes();
    let value = run();
    (allocated_bytes() - before, value)
}

fn main() {
    a_written_line_is_one_exact_allocation();
    parsing_a_line_allocates_nothing();
    classifying_a_url_allocates_nothing();
}

fn records() -> Vec<ClfRecord> {
    [
        ("199.72.81.55", 804_571_201, "/history/apollo/", 200, 6245),
        ("h", 0, "/", 304, 0),
        (
            "κόμβος.example",
            -62_167_219_201,
            "/κατάλογος/x.gif",
            65_535,
            u32::MAX,
        ),
        ("10.0.0.1", 253_402_300_800, "/a?b=c", 404, 1),
        ("", i64::MIN, "", 0, 0),
        ("x", i64::MAX, "/y.html", 200, 99),
    ]
    .into_iter()
    .map(|(host, time, path, status, size)| ClfRecord {
        host: host.to_owned(),
        time,
        method: "GET".to_owned(),
        path: path.to_owned(),
        status,
        size,
    })
    .collect()
}

fn a_written_line_is_one_exact_allocation() {
    for rec in records() {
        let (bytes, line) = allocated(|| format_clf_line(&rec));
        assert_eq!(bytes, line.capacity() as u64, "{line}");
        assert_eq!(line.capacity(), line.len(), "{line}");

        let combined = CombinedRecord {
            clf: rec,
            referer: Some("http://example.edu/".to_owned()),
            user_agent: None,
        };
        let (bytes, line) = allocated(|| format_combined_line(&combined));
        assert_eq!(bytes, line.capacity() as u64, "{line}");
        assert_eq!(line.capacity(), line.len(), "{line}");
    }
}

fn parsing_a_line_allocates_nothing() {
    let mut lines: Vec<String> = records().iter().map(format_clf_line).collect();
    lines.extend(
        [
            "",
            "just one field",
            r#"h - - [bad time] "GET / HTTP/1.0" 200 1"#,
            r#"h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0" xx 1"#,
            r#"h - - [01/Jul/1995:00:00:01 -0400] "GET /x.html HTTP/1.0" 200 12a4"#,
            r#"h - - [01/Jul/1995:00:00:01 -0400] no quotes 200 1"#,
            r#"h - - [01/jUL/+1995:-0:+0:00:99 +9999] "GET /x" 304 -"#,
            "\u{3000}h - - [01/Jul/1995:00:00:01 \u{2003}-0400] \"GET /x\" 200\u{85}",
            r#"h - - [01/Jul/99999999999999999:00:00:00 +0000] "GET / HTTP/1.0" 200 1"#,
        ]
        .map(str::to_owned),
    );
    let (bytes, outcomes) = allocated(|| {
        let mut outcomes = [0usize; 2];
        for line in &lines {
            outcomes[usize::from(black_box(parse_clf_line_ref(line)).is_ok())] += 1;
        }
        outcomes
    });
    assert_eq!(bytes, 0, "parsing allocated");
    assert_eq!(outcomes, [7, 8], "refused and parsed lines");
}

fn classifying_a_url_allocates_nothing() {
    let urls = [
        "/",
        "",
        "/a/b.HTML",
        "/x.GiF?y=1",
        "/x.jpeg#top",
        "/README",
        "/d.tar.gz",
        "/κατάλογος/ΕΙΚΟΝΑ.JPG",
        "/x.ſhtml",
        "/x.\u{212a}",
    ];
    let (bytes, kinds) = allocated(|| urls.map(|u| black_box(DocKind::from_url(u))));
    assert_eq!(bytes, 0, "classifying allocated");
    use DocKind::{Html, Image, Other};
    let want = [
        Html, Html, Html, Image, Image, Other, Other, Image, Other, Other,
    ];
    assert_eq!(kinds, want, "only ASCII letters fold");
}
