//! Common Log Format (CLF) parsing and formatting.
//!
//! The paper's traces — NASA Kennedy Space Center (July 1995) and UCB-CS
//! (July 2000) — are published in NCSA Common Log Format:
//!
//! ```text
//! host ident user [01/Jul/1995:00:00:01 -0400] "GET /history/ HTTP/1.0" 200 6245
//! ```
//!
//! This module parses that format (tolerating the quirks those two logs
//! actually contain: missing protocol field, `-` sizes, stray whitespace)
//! and can format records back, which the tests use for round-tripping and
//! the examples use to materialize synthetic traces as real log files.
//! Both directions work on bytes: the parser slices fields out of the line
//! without allocating, and the writer builds each line in one allocation
//! of its exact length.

use crate::combined::LogFormat;
use std::fmt;

/// One parsed CLF line, before interning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClfRecord {
    /// Remote host (IP or name).
    pub host: String,
    /// Seconds since the Unix epoch, UTC.
    pub time: i64,
    /// HTTP method (`GET`, `HEAD`, …).
    pub method: String,
    /// Request path.
    pub path: String,
    /// HTTP status code.
    pub status: u16,
    /// Response bytes (0 when logged as `-`).
    pub size: u32,
}

/// One parsed CLF line *borrowing* its string fields from the input line.
///
/// This is the zero-copy form the chunked ingestion path
/// ([`crate::ingest`]) parses on worker threads: no per-line `String`
/// allocations — host/method/path are sub-slices of the chunk buffer, and
/// only the strings that survive filtering get copied (once, into an
/// interner). [`parse_clf_line`] is a thin owning wrapper over
/// [`parse_clf_line_ref`], so both forms share one grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClfRecordRef<'a> {
    /// Remote host (IP or name).
    pub host: &'a str,
    /// Seconds since the Unix epoch, UTC.
    pub time: i64,
    /// HTTP method (`GET`, `HEAD`, …).
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// HTTP status code.
    pub status: u16,
    /// Response bytes (0 when logged as `-`).
    pub size: u32,
}

impl ClfRecordRef<'_> {
    /// Copies the borrowed fields into an owned [`ClfRecord`].
    pub fn to_record(&self) -> ClfRecord {
        ClfRecord {
            host: self.host.to_owned(),
            time: self.time,
            method: self.method.to_owned(),
            path: self.path.to_owned(),
            status: self.status,
            size: self.size,
        }
    }
}

impl From<ClfRecordRef<'_>> for ClfRecord {
    fn from(r: ClfRecordRef<'_>) -> Self {
        r.to_record()
    }
}

/// Why a CLF line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClfParseError {
    /// The line does not have the `host … [time] "request" status size` shape.
    Malformed(&'static str),
    /// The timestamp field is not a valid CLF date.
    BadTimestamp,
    /// The status field is not a number.
    BadStatus,
}

impl fmt::Display for ClfParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClfParseError::Malformed(what) => write!(f, "malformed CLF line: {what}"),
            ClfParseError::BadTimestamp => write!(f, "bad CLF timestamp"),
            ClfParseError::BadStatus => write!(f, "bad status code"),
        }
    }
}

impl std::error::Error for ClfParseError {}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Days from 1970-01-01 to `y-m-d` (proleptic Gregorian), or `None` when
/// the count overflows an `i64`. Howard Hinnant's `days_from_civil`
/// algorithm, with floor division spelled `div_euclid`.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400); // [0, 399]
    let mp = (i64::from(m) + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era.checked_mul(146_097)?.checked_add(doe - 719_468)
}

/// Inverse of [`days_from_civil`]: civil date for a day count from the epoch.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ranges proven in comments
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// A non-empty run of ASCII digits as a number; `None` on any other byte
/// or on `u64` overflow.
fn parse_digits(s: &[u8]) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    s.iter().try_fold(0u64, |n, &c| {
        let digit = c.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// An unsigned field by `FromStr`'s rule: an optional `+`, then digits.
fn parse_unsigned(s: &[u8]) -> Option<u64> {
    parse_digits(s.strip_prefix(b"+").unwrap_or(s))
}

/// An `i64` field by `FromStr`'s rule: an optional `+` or `-`, then
/// digits, refused on overflow.
fn parse_signed(s: &[u8]) -> Option<i64> {
    match s.strip_prefix(b"-") {
        Some(digits) => 0i64.checked_sub_unsigned(parse_digits(digits)?),
        None => i64::try_from(parse_unsigned(s)?).ok(),
    }
}

/// Parses `01/Jul/1995:00:00:01 -0400` into Unix seconds (UTC).
///
/// The date is the text before the first space: six `/`- or
/// `:`-separated fields (any more are ignored) — day, month name (any
/// case), year, hour, minute, second. The zone is the rest, trimmed, and
/// must be `±HHMM`. A time whose seconds overflow an `i64` is refused.
fn parse_clf_time(s: &str) -> Option<i64> {
    let space = s.bytes().position(|c| c == b' ')?;
    let mut fields = s.as_bytes()[..space].split(|&c| c == b'/' || c == b':');
    let (day, mon_name) = (fields.next()?, fields.next()?);
    let m = MONTHS
        .iter()
        .position(|mn| mn.as_bytes().eq_ignore_ascii_case(mon_name))?;
    let mut number = || parse_signed(fields.next()?);
    // A day is a `u32` in the log's grammar; read as an `i64`, the only
    // extra values are negative or past `u32::MAX`, and the range check
    // below refuses both.
    let (d, y, hh, mm, ss) = (
        parse_signed(day)?,
        number()?,
        number()?,
        number()?,
        number()?,
    );
    if !(1..=31).contains(&d)
        || !(0..24).contains(&hh)
        || !(0..60).contains(&mm)
        || !(0..61).contains(&ss)
    {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // checked just above
    let days = days_from_civil(y, m as u32 + 1, d as u32)?;
    // Timezone: ±HHMM east of UTC; subtract to get UTC.
    let &[sign, h1, h2, m1, m2] = s[space + 1..].trim().as_bytes() else {
        return None;
    };
    let east = match sign {
        b'+' => 1,
        b'-' => -1,
        _ => return None,
    };
    if ![h1, h2, m1, m2].iter().all(u8::is_ascii_digit) {
        return None;
    }
    let digit = |c: u8| i64::from(c - b'0');
    let offset = (digit(h1) * 10 + digit(h2)) * 3600 + (digit(m1) * 10 + digit(m2)) * 60;
    // Summed wide, so only a result outside `i64` is refused.
    let utc = i128::from(days) * 86_400 + i128::from(hh * 3600 + mm * 60 + ss - east * offset);
    i64::try_from(utc).ok()
}

/// Parses one CLF line into an owned record.
pub fn parse_clf_line(line: &str) -> Result<ClfRecord, ClfParseError> {
    parse_clf_line_ref(line).map(|r| r.to_record())
}

/// Parses one CLF line without allocating: string fields borrow from `line`.
///
/// Works on the line's bytes: the host is the text before the first
/// space; the timestamp lies between the first `[` after it and the first
/// `]` after that; the request between the next `"` and the line's last
/// `"` holds the method and path; status and size follow it.
pub fn parse_clf_line_ref(line: &str) -> Result<ClfRecordRef<'_>, ClfParseError> {
    let line = line.trim();
    let bytes = line.as_bytes();
    let find = |from: usize, byte: u8| {
        bytes[from..]
            .iter()
            .position(|&c| c == byte)
            .map(|i| i + from)
    };
    // host [ident user are ignored]
    let space = find(0, b' ').ok_or(ClfParseError::Malformed("no host field"))?;
    let lb = find(space + 1, b'[').ok_or(ClfParseError::Malformed("no ["))?;
    let rb = find(lb + 1, b']').ok_or(ClfParseError::Malformed("no ]"))?;
    let time = parse_clf_time(&line[lb + 1..rb]).ok_or(ClfParseError::BadTimestamp)?;
    // request between the first quote after the timestamp and the last one
    let q1 = find(rb + 1, b'"').ok_or(ClfParseError::Malformed("no quote"))?;
    let q2 = bytes
        .iter()
        .rposition(|&c| c == b'"')
        .filter(|&q2| q2 > q1)
        .ok_or(ClfParseError::Malformed("unterminated quote"))?;
    let mut request = line[q1 + 1..q2].split_ascii_whitespace();
    let method = request
        .next()
        .ok_or(ClfParseError::Malformed("no method"))?;
    // Old logs sometimes have just "GET /path" with no protocol; and some
    // have a bare path. Treat a missing path as malformed.
    let path = request.next().ok_or(ClfParseError::Malformed("no path"))?;
    // status and size after the closing quote
    let mut tail = line[q2 + 1..].split_ascii_whitespace();
    let status = tail.next().ok_or(ClfParseError::Malformed("no status"))?;
    let status = parse_unsigned(status.as_bytes())
        .and_then(|n| u16::try_from(n).ok())
        .ok_or(ClfParseError::BadStatus)?;
    // `-` (and a missing field, which the NASA log contains) mean "no
    // body"; anything else must be a number — garbage bytes must not
    // silently enter traffic accounting as zero.
    let size = match tail.next() {
        None | Some("-") => 0,
        Some(s) => parse_unsigned(s.as_bytes())
            .and_then(|n| u32::try_from(n).ok())
            .ok_or(ClfParseError::Malformed("bad size"))?,
    };
    Ok(ClfRecordRef {
        host: &line[..space],
        time,
        method,
        path,
        status,
        size,
    })
}

/// Decimal digits of `n` (1 for 0).
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Appends `n` in decimal, zero-padded on the left to `width` digits
/// (`width` is at most 20, the digits of `u64::MAX`).
fn push_decimal(out: &mut String, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        #[allow(clippy::cast_possible_truncation)] // a digit, < 10
        let digit = (n % 10) as u8;
        digits[start] += digit;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let start = start.min(digits.len() - width);
    out.extend(digits[start..].iter().map(|&c| char::from(c)));
}

/// The CLF line of `r` (UTC timestamp, `+0000` zone) in a string with
/// room for exactly `extra` more bytes: one allocation, each field pushed
/// in place. Digits render as `format!`'s `{:02}` and `{:04}` would: the
/// year pads to four characters with its sign counted, and a longer year
/// is written in full.
pub(crate) fn clf_line_with_room(r: &ClfRecord, extra: usize) -> String {
    let days = r.time.div_euclid(86_400);
    let secs = r.time.rem_euclid(86_400).unsigned_abs(); // [0, 86399]
    let (y, m, d) = civil_from_days(days);
    let year_sign = usize::from(y < 0);
    let year_digits = decimal_len(y.unsigned_abs()).max(4 - year_sign);
    let status = u64::from(r.status);
    let size = u64::from(r.size);
    // Every byte but the fields and the year's and numbers' digits.
    const FIXED: usize = " - - [dd/Mon/".len()
        + ":HH:MM:SS +0000] \"".len()
        + " ".len()
        + " HTTP/1.0\" ".len()
        + " ".len();
    let len = FIXED
        + r.host.len()
        + r.method.len()
        + r.path.len()
        + year_sign
        + year_digits
        + decimal_len(status)
        + decimal_len(size);
    let mut out = String::with_capacity(len + extra);
    out.push_str(&r.host);
    out.push_str(" - - [");
    push_decimal(&mut out, u64::from(d), 2);
    out.push('/');
    out.push_str(MONTHS[(m - 1) as usize]);
    out.push('/');
    if y < 0 {
        out.push('-');
    }
    push_decimal(&mut out, y.unsigned_abs(), year_digits);
    for n in [secs / 3600, secs % 3600 / 60, secs % 60] {
        out.push(':');
        push_decimal(&mut out, n, 2);
    }
    out.push_str(" +0000] \"");
    out.push_str(&r.method);
    out.push(' ');
    out.push_str(&r.path);
    out.push_str(" HTTP/1.0\" ");
    push_decimal(&mut out, status, 0);
    out.push(' ');
    push_decimal(&mut out, size, 0);
    debug_assert_eq!(out.len(), len, "the precomputed CLF line length");
    out
}

/// Formats a record as a CLF line (UTC timestamp), in one allocation of
/// exactly the line's length.
pub fn format_clf_line(r: &ClfRecord) -> String {
    clf_line_with_room(r, 0)
}

/// Outcome of turning a log into a [`crate::event::Trace`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClfStats {
    /// Lines successfully turned into requests.
    pub accepted: usize,
    /// Lines dropped as malformed.
    pub malformed: usize,
    /// Lines dropped by the method/status filter.
    pub filtered: usize,
    /// The detected dialect (`None` when no line parsed in either).
    pub format: Option<LogFormat>,
    /// `robot_clients[client.index()]` — true when any of the client's
    /// accepted requests carried a robot user agent. One entry per
    /// client; all false for plain CLF, which logs no user agent.
    pub robot_clients: Vec<bool>,
}

/// The paper's preprocessing filter: only successful (`2xx`/`304`) `GET`
/// requests become trace records.
pub(crate) fn is_accepted(method: &str, status: u16) -> bool {
    method == "GET" && ((200..300).contains(&status) || status == 304)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NASA_LINE: &str =
        r#"199.72.81.55 - - [01/Jul/1995:00:00:01 -0400] "GET /history/apollo/ HTTP/1.0" 200 6245"#;

    #[test]
    fn parses_a_real_nasa_line() {
        let r = parse_clf_line(NASA_LINE).unwrap();
        assert_eq!(r.host, "199.72.81.55");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/history/apollo/");
        assert_eq!(r.status, 200);
        assert_eq!(r.size, 6245);
        // 1995-07-01 00:00:01 -0400 = 1995-07-01 04:00:01 UTC = 804571201
        assert_eq!(r.time, 804_571_201);
    }

    #[test]
    fn parses_missing_protocol_and_dash_size() {
        let r =
            parse_clf_line(r#"host - - [01/Jan/1970:00:00:00 +0000] "GET /x.html" 304 -"#).unwrap();
        assert_eq!(r.time, 0);
        assert_eq!(r.size, 0);
        assert_eq!(r.status, 304);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_clf_line("").is_err());
        assert!(parse_clf_line("just one field").is_err());
        assert!(parse_clf_line(r#"h - - [bad time] "GET / HTTP/1.0" 200 1"#).is_err());
        assert!(
            parse_clf_line(r#"h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0" xx 1"#).is_err()
        );
        assert!(parse_clf_line(r#"h - - [01/Jul/1995:00:00:01 -0400] no quotes 200 1"#).is_err());
        assert_eq!(
            parse_clf_line(r#"h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0 200 1"#),
            Err(ClfParseError::Malformed("unterminated quote"))
        );
    }

    #[test]
    fn rejects_non_numeric_size() {
        // Garbage in the size field must not silently become 0 bytes.
        let bad = r#"h - - [01/Jul/1995:00:00:01 -0400] "GET /x.html HTTP/1.0" 200 12a4"#;
        assert_eq!(
            parse_clf_line(bad),
            Err(ClfParseError::Malformed("bad size"))
        );
        // `-` and a missing field still mean "no body".
        let dash = r#"h - - [01/Jul/1995:00:00:01 -0400] "GET /x.html HTTP/1.0" 304 -"#;
        assert_eq!(parse_clf_line(dash).unwrap().size, 0);
        let missing = r#"h - - [01/Jul/1995:00:00:01 -0400] "GET /x.html HTTP/1.0" 304"#;
        assert_eq!(parse_clf_line(missing).unwrap().size, 0);
    }

    #[test]
    fn borrowed_parse_matches_owned_parse() {
        let r = parse_clf_line_ref(NASA_LINE).unwrap();
        // Fields are sub-slices of the input line, not copies.
        let line_range = NASA_LINE.as_ptr() as usize..NASA_LINE.as_ptr() as usize + NASA_LINE.len();
        for field in [r.host, r.method, r.path] {
            assert!(line_range.contains(&(field.as_ptr() as usize)), "{field}");
        }
        assert_eq!(r.to_record(), parse_clf_line(NASA_LINE).unwrap());
    }

    #[test]
    fn rejects_invalid_time_fields() {
        for bad in [
            "32/Jul/1995:00:00:01 -0400",
            "01/Foo/1995:00:00:01 -0400",
            "01/Jul/1995:24:00:01 -0400",
            "01/Jul/1995:00:61:01 -0400",
            "01/Jul/1995:00:00:01 -040", // short tz
            "01/Jul/1995:00:00:01",      // no tz
        ] {
            assert!(parse_clf_time(bad).is_none(), "{bad}");
        }
    }

    /// The CLF line of a `GET /` by host `h` at `time`.
    fn line_at(time: i64) -> String {
        format_clf_line(&ClfRecord {
            host: "h".to_owned(),
            time,
            method: "GET".to_owned(),
            path: "/".to_owned(),
            status: 200,
            size: 0,
        })
    }

    #[test]
    fn a_time_past_the_i64_range_is_refused() {
        // The first and last seconds `i64` holds round-trip; a year past
        // either refuses the timestamp instead of wrapping.
        for time in [i64::MIN, i64::MAX] {
            assert_eq!(parse_clf_line(&line_at(time)).map(|r| r.time), Ok(time));
        }
        let year = |t: i64| civil_from_days(t.div_euclid(86_400)).0;
        for (time, past) in [
            (i64::MIN, year(i64::MIN) - 1),
            (i64::MAX, year(i64::MAX) + 1),
        ] {
            let past = line_at(time).replace(&year(time).to_string(), &past.to_string());
            assert_eq!(
                parse_clf_line(&past),
                Err(ClfParseError::BadTimestamp),
                "{past}"
            );
        }
        for year in ["9223372036854775807", "-9223372036854775808"] {
            let huge = format!("h - - [01/Jan/{year}:00:00:00 +0000] \"GET / HTTP/1.0\" 200 1");
            assert_eq!(
                parse_clf_line(&huge),
                Err(ClfParseError::BadTimestamp),
                "{year}"
            );
        }
    }

    #[test]
    fn years_pad_as_format_does() {
        assert_eq!(
            line_at(0),
            r#"h - - [01/Jan/1970:00:00:00 +0000] "GET / HTTP/1.0" 200 0"#
        );
        assert!(line_at(-62_135_596_800).contains("[01/Jan/0001:00:00:00 "));
        assert!(line_at(-62_167_219_201).contains("[31/Dec/-001:23:59:59 "));
        assert!(line_at(253_402_300_800).contains("[01/Jan/10000:00:00:00 "));
        assert!(line_at(i64::MIN).contains("/-292277022657:"));
    }

    #[test]
    fn civil_date_roundtrip() {
        for &z in &[-1_000_000i64, -1, 0, 1, 9_315, 10_000, 2_932_896] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), Some(z));
        }
        // Known anchors.
        assert_eq!(days_from_civil(1970, 1, 1), Some(0));
        assert_eq!(days_from_civil(1995, 7, 1), Some(9_312));
        assert_eq!(days_from_civil(2000, 3, 1), Some(11_017));
        assert_eq!(days_from_civil(i64::MIN, 1, 1), None);
        assert_eq!(days_from_civil(i64::MAX, 12, 31), None);
    }

    #[test]
    fn format_parse_roundtrip() {
        let r = ClfRecord {
            host: "10.0.0.1".to_owned(),
            time: 804_571_201,
            method: "GET".to_owned(),
            path: "/a/b.html".to_owned(),
            status: 200,
            size: 1234,
        };
        let line = format_clf_line(&r);
        let r2 = parse_clf_line(&line).unwrap();
        assert_eq!(r, r2);
    }
}
