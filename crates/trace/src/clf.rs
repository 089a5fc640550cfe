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

/// Days from 1970-01-01 to `y-m-d` (proleptic Gregorian). Howard Hinnant's
/// `days_from_civil` algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (i64::from(m) + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
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

/// Parses `01/Jul/1995:00:00:01 -0400` into Unix seconds (UTC).
fn parse_clf_time(s: &str) -> Option<i64> {
    // dd/Mon/yyyy:HH:MM:SS ±HHMM
    let (date, tz) = s.split_once(' ')?;
    let mut parts = date.split(&['/', ':'][..]);
    let d: u32 = parts.next()?.parse().ok()?;
    let mon_name = parts.next()?;
    #[allow(clippy::cast_possible_truncation)] // 12 month names
    let m = MONTHS
        .iter()
        .position(|&mn| mn.eq_ignore_ascii_case(mon_name))? as u32
        + 1;
    let y: i64 = parts.next()?.parse().ok()?;
    let hh: i64 = parts.next()?.parse().ok()?;
    let mm: i64 = parts.next()?.parse().ok()?;
    let ss: i64 = parts.next()?.parse().ok()?;
    if !(1..=31).contains(&d)
        || !(0..24).contains(&hh)
        || !(0..60).contains(&mm)
        || !(0..61).contains(&ss)
    {
        return None;
    }
    let local = days_from_civil(y, m, d) * 86_400 + hh * 3600 + mm * 60 + ss;
    // Timezone: ±HHMM east of UTC; subtract to get UTC.
    let tz = tz.trim();
    let (sign, digits) = match tz.split_at_checked(1)? {
        ("+", rest) => (1i64, rest),
        ("-", rest) => (-1i64, rest),
        _ => return None,
    };
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let tz_h: i64 = digits[..2].parse().ok()?;
    let tz_m: i64 = digits[2..].parse().ok()?;
    Some(local - sign * (tz_h * 3600 + tz_m * 60))
}

/// Formats Unix seconds (UTC) as a CLF timestamp with a `+0000` zone.
fn format_clf_time(t: i64) -> String {
    let days = t.div_euclid(86_400);
    let secs = t.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000",
        d,
        MONTHS[(m - 1) as usize],
        y,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// Parses one CLF line into an owned record.
pub fn parse_clf_line(line: &str) -> Result<ClfRecord, ClfParseError> {
    parse_clf_line_ref(line).map(|r| r.to_record())
}

/// Parses one CLF line without allocating: string fields borrow from `line`.
pub fn parse_clf_line_ref(line: &str) -> Result<ClfRecordRef<'_>, ClfParseError> {
    let line = line.trim();
    // host [ident user are ignored]
    let (host, rest) = line
        .split_once(' ')
        .ok_or(ClfParseError::Malformed("no host field"))?;
    // timestamp between [ ]
    let lb = rest.find('[').ok_or(ClfParseError::Malformed("no ["))?;
    let rb = rest[lb..]
        .find(']')
        .map(|i| i + lb)
        .ok_or(ClfParseError::Malformed("no ]"))?;
    let time = parse_clf_time(&rest[lb + 1..rb]).ok_or(ClfParseError::BadTimestamp)?;
    let rest = &rest[rb + 1..];
    // request between quotes
    let q1 = rest.find('"').ok_or(ClfParseError::Malformed("no quote"))?;
    let q2 = rest[q1 + 1..]
        .rfind('"')
        .map(|i| i + q1 + 1)
        .ok_or(ClfParseError::Malformed("unterminated quote"))?;
    if q2 <= q1 {
        return Err(ClfParseError::Malformed("empty request"));
    }
    let request = &rest[q1 + 1..q2];
    let mut req_parts = request.split_ascii_whitespace();
    let method = req_parts
        .next()
        .ok_or(ClfParseError::Malformed("no method"))?;
    // Old logs sometimes have just "GET /path" with no protocol; and some
    // have a bare path. Treat a missing path as malformed.
    let path = req_parts
        .next()
        .ok_or(ClfParseError::Malformed("no path"))?;
    // status and size after the closing quote
    let mut tail = rest[q2 + 1..].split_ascii_whitespace();
    let status: u16 = tail
        .next()
        .ok_or(ClfParseError::Malformed("no status"))?
        .parse()
        .map_err(|_| ClfParseError::BadStatus)?;
    // `-` (and a missing field, which the NASA log contains) mean "no
    // body"; anything else must be a number — garbage bytes must not
    // silently enter traffic accounting as zero.
    let size = match tail.next() {
        None | Some("-") => 0,
        Some(s) => s
            .parse()
            .map_err(|_| ClfParseError::Malformed("bad size"))?,
    };
    Ok(ClfRecordRef {
        host,
        time,
        method,
        path,
        status,
        size,
    })
}

/// Formats a record as a CLF line (UTC timestamp).
pub fn format_clf_line(r: &ClfRecord) -> String {
    format!(
        "{} - - [{}] \"{} {} HTTP/1.0\" {} {}",
        r.host,
        format_clf_time(r.time),
        r.method,
        r.path,
        r.status,
        r.size
    )
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

    #[test]
    fn civil_date_roundtrip() {
        for &z in &[-1_000_000i64, -1, 0, 1, 9_315, 10_000, 2_932_896] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
        // Known anchors.
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1995, 7, 1), 9_312);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
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
