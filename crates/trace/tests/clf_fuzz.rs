//! Property/fuzz tests for the log line codec: arbitrary input must never
//! panic, valid records must round-trip, and the byte-level parser, the
//! single-allocation writers and the extension classifier must agree with
//! the string-splitting, `format!` and lowercasing versions they replaced
//! (kept in `oracle/`).

mod oracle;

use pbppm_trace::clf::{
    format_clf_line, parse_clf_line, parse_clf_line_ref, ClfParseError, ClfRecord,
};
use pbppm_trace::combined::{format_combined_line, CombinedRecord};
use pbppm_trace::DocKind;
use proptest::prelude::*;

/// Unicode whitespace `str::trim` strips, ASCII or not, or nothing.
const EDGE_SPACE: &str = "[ \t\u{a0}\u{85}\u{2003}\u{3000}]{0,2}";

/// `valid` seven times in eight, else `odd`: a line built from
/// seventeen such parts still parses about one time in nine.
fn mostly(valid: &'static str, odd: BoxedStrategy<String>) -> BoxedStrategy<String> {
    (0u8..8, valid, odd)
        .prop_map(|(pick, valid, odd)| if pick < 7 { valid } else { odd })
        .boxed()
}

/// A number field gone wrong: signed, long, zero-led, empty, or not a
/// number at all (some of these still parse).
fn odd_number() -> BoxedStrategy<String> {
    prop_oneof![
        "[+-][0-9]{1,3}",
        "[0-9]{3}",
        "0{2,25}[0-9]",
        Just(String::new()),
        "[+-]",
        "[0-9a ]{1,3}",
    ]
    .boxed()
}

/// A date separator: either of the two the grammar takes, or neither.
fn separator() -> BoxedStrategy<String> {
    mostly("[/:]", "[.-]".boxed())
}

/// Timestamp text between the brackets, assembled from mutated parts:
/// signs, one- and three-digit fields, extra fields, odd months, and
/// zones such as `+04`, `-04000` and `x0400`.
fn timestamp() -> BoxedStrategy<String> {
    let month = prop_oneof!["[A-Za-z]{0,4}", "[JjUuLlé]{3}"].boxed();
    let year = prop_oneof![
        "[+-]?[0-9]{1,3}",
        "[+-]?[0-9]{5,11}",
        "0{0,25}[0-9]{1,4}",
        Just(String::new()),
    ];
    let extra = prop_oneof![":[0-9]{1,2}", ":[0-9]{1,2}:[0-9]{1,2}", "/[a-z]{0,2}"];
    let gap = prop_oneof!["  ", "", "\t", " \t"];
    let zone = prop_oneof![
        Just("+04".to_owned()),
        Just("-04000".to_owned()),
        Just("x0400".to_owned()),
        Just("é400".to_owned()),
        Just(String::new()),
        "[+-][0-9a-f]{3,5}",
        "[\t\u{3000}]{1,2}[+-][0-9]{4}[ \u{2003}]{1,2}",
    ];
    (
        (
            mostly("[0-2]?[1-9]", odd_number()),
            separator(),
            mostly("[jJ][uU][lL]", month),
            separator(),
            mostly("[12][0-9]{3}", year.boxed()),
        ),
        (
            separator(),
            mostly("[01]?[0-9]", odd_number()),
            separator(),
            mostly("[0-5]?[0-9]", odd_number()),
            separator(),
        ),
        (
            mostly("[0-5]?[0-9]", odd_number()),
            mostly("", extra.boxed()),
            mostly(" ", gap.boxed()),
            mostly("[+-][0-9]{4}", zone.boxed()),
        ),
    )
        .prop_map(
            |((d, s1, mon, s2, y), (s3, hh, s4, mm, s5), (ss, extra, gap, tz))| {
                format!("{d}{s1}{mon}{s2}{y}{s3}{hh}{s4}{mm}{s5}{ss}{extra}{gap}{tz}")
            },
        )
        .boxed()
}

/// A log line whose brackets hold a mutated timestamp, with Unicode
/// whitespace around it, and a closing quote, status and size that may
/// be wrong too.
fn mutated_line() -> BoxedStrategy<String> {
    let status = prop_oneof!["[+-]?[0-9]{1,6}", "[0-9a-z-]{0,4}"];
    let size = prop_oneof![
        "[+-]?[0-9]{1,11}",
        "-",
        "[0-9a-z-]{0,4}",
        Just(String::new())
    ];
    (
        (EDGE_SPACE, "[a-z0-9.]{1,12}", timestamp(), EDGE_SPACE),
        (
            mostly("GET", "[A-Z]{0,4}".boxed()),
            "[ -~&&[^\"]]{0,12}",
            mostly("\"", Just(String::new()).boxed()),
            mostly("[1-5][0-9]{2}", status.boxed()),
            mostly("[0-9]{1,7}", size.boxed()),
        ),
    )
        .prop_map(|((lead, host, ts, trail), (method, path, close, status, size))| {
            format!("{lead}{host} - - [{ts}] \"{method} {path} HTTP/1.0{close} {status} {size}{trail}")
        })
        .boxed()
}

/// A time anywhere in `i64`, mostly within ±10¹³ s of the epoch and
/// often in a year before 1.
fn any_time() -> BoxedStrategy<i64> {
    prop_oneof![
        -10_000_000_000_000i64..10_000_000_000_000,
        -100_000_000_000_000i64..100_000_000_000_000,
        // Years -1200 to 0, whose padding counts the sign.
        -100_000_000_000i64..-62_000_000_000,
        i64::MIN..=i64::MAX,
        0i64..4_000_000_000,
    ]
    .boxed()
}

fn any_record() -> impl Strategy<Value = ClfRecord> {
    (
        ".*",
        any_time(),
        prop_oneof!["[A-Z]{0,8}", ".*"],
        ".*",
        0u16..=u16::MAX,
        0u32..=u32::MAX,
    )
        .prop_map(|(host, time, method, path, status, size)| ClfRecord {
            host,
            time,
            method,
            path,
            status,
            size,
        })
}

fn maybe_text() -> BoxedStrategy<Option<String>> {
    prop_oneof![Just(None), ".*".prop_map(Some), "-?".prop_map(Some)].boxed()
}

/// One of the paper's extensions with its case scrambled, or a near miss.
fn extension() -> BoxedStrategy<String> {
    prop_oneof![
        "[gG][iI][fF]",
        "[hH][tT][mM][lL]?",
        "[sS][hH][tT][mM][lL]",
        "[jJ][pP][eE]?[gG]",
        "[gG][iI][fF]89",
        "[tT][iI][fF][fF]?",
        "[a-zA-Z0-9]{0,6}",
        "[gifGIFhtmlHTMLſıİ\u{212a}é]{1,5}",
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser is total: any string either parses or returns an error,
    /// never panics, never loops.
    #[test]
    fn parser_never_panics(line in ".*") {
        let _ = parse_clf_line(&line);
    }

    /// Same, for inputs that *look* like log lines (higher hit rate on the
    /// interesting branches than fully random strings).
    #[test]
    fn parser_never_panics_on_log_shaped_input(
        host in "[a-z0-9.]{1,20}",
        bracket in "[0-9A-Za-z/: +-]{0,30}",
        method in "[A-Z]{0,8}",
        path in "[ -~]{0,40}",
        status in "[0-9a-z-]{0,6}",
        size in "[0-9-]{0,12}",
    ) {
        let line = format!("{host} - - [{bracket}] \"{method} {path}\" {status} {size}");
        let _ = parse_clf_line(&line);
    }

    /// Every structurally valid record survives format -> parse unchanged.
    #[test]
    fn roundtrip_valid_records(
        host in "[a-z0-9.-]{1,30}",
        time in prop_oneof![0i64..4_000_000_000i64, -10_000_000_000_000i64..10_000_000_000_000],
        path in "/[!-~&&[^\"\\\\]]{0,50}",
        status in 100u16..600,
        size in 0u32..100_000_000,
    ) {
        let rec = ClfRecord {
            host,
            time,
            method: "GET".to_owned(),
            path,
            status,
            size,
        };
        let line = format_clf_line(&rec);
        let parsed = parse_clf_line(&line).expect("formatted line must parse");
        prop_assert_eq!(parsed, rec);
    }

    /// The byte-level parser returns what the string-splitting one did,
    /// the error included, on arbitrary text.
    #[test]
    fn parser_matches_the_oracle_on_arbitrary_strings(line in ".*") {
        prop_assert_eq!(parse_clf_line_ref(&line), oracle::parse_clf_line_ref(&line));
    }

    /// The same on log-shaped lines whose brackets hold mutated
    /// timestamps: signs, short and long fields, extra fields, odd months
    /// and zones, with Unicode whitespace around the line.
    #[test]
    fn parser_matches_the_oracle_on_mutated_timestamps(line in mutated_line()) {
        prop_assert_eq!(parse_clf_line_ref(&line), oracle::parse_clf_line_ref(&line));
    }

    /// The one-allocation writer prints what `format!` did, for any
    /// record and any `i64` time, and sizes its buffer exactly.
    #[test]
    fn clf_writer_matches_the_oracle(rec in any_record()) {
        let line = format_clf_line(&rec);
        prop_assert_eq!(line.capacity(), line.len());
        prop_assert_eq!(line, oracle::format_clf_line(&rec));
    }

    /// The same for Combined lines, quoted fields present or not.
    #[test]
    fn combined_writer_matches_the_oracle(
        clf in any_record(),
        referer in maybe_text(),
        user_agent in maybe_text(),
    ) {
        let rec = CombinedRecord { clf, referer, user_agent };
        let line = format_combined_line(&rec);
        prop_assert_eq!(line.capacity(), line.len());
        prop_assert_eq!(line, oracle::format_combined_line(&rec));
    }

    /// Comparing extensions without a lowercased copy classifies every
    /// string as lowercasing it did, non-ASCII text included.
    #[test]
    fn doc_kind_matches_the_lowercasing_oracle(
        any in ".*",
        parts in (
            "/[a-z./]{0,6}",
            "[a-zé]{0,4}",
            extension(),
            prop_oneof![Just(String::new()), "[?#][ -~]{0,4}"],
        ),
    ) {
        let (dir, stem, ext, tail) = parts;
        prop_assert_eq!(DocKind::from_url(&any), oracle::doc_kind_from_url(&any));
        let url = format!("{dir}{stem}.{ext}{tail}");
        prop_assert_eq!(DocKind::from_url(&url), oracle::doc_kind_from_url(&url));
    }
}

/// The mutated lines are not all refused one way: a fixed sample of them
/// parses, and fails on its timestamp, its status and its size.
#[test]
fn mutated_timestamps_reach_every_outcome() {
    let lines = mutated_line();
    let mut rng = TestRng::new(31);
    let (mut parsed, mut bad_time, mut bad_status, mut bad_size) = (0, 0, 0, 0);
    for _ in 0..8000 {
        match parse_clf_line_ref(&lines.generate(&mut rng)) {
            Ok(_) => parsed += 1,
            Err(ClfParseError::BadTimestamp) => bad_time += 1,
            Err(ClfParseError::BadStatus) => bad_status += 1,
            Err(ClfParseError::Malformed("bad size")) => bad_size += 1,
            Err(_) => {}
        }
    }
    assert!(
        [parsed, bad_time, bad_status, bad_size]
            .iter()
            .all(|&n| n >= 20),
        "parsed {parsed}, bad time {bad_time}, bad status {bad_status}, bad size {bad_size}"
    );
}
