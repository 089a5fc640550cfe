//! The log codec as it was written before it moved to byte-level code:
//! the `&str`-splitting CLF parser, the `format!` writers and the
//! lowercasing extension classifier. They are kept verbatim as test
//! oracles only; the production code in `pbppm_trace` must agree with
//! them on every input they handle without overflowing.

use pbppm_trace::clf::{ClfParseError, ClfRecord, ClfRecordRef};
use pbppm_trace::combined::CombinedRecord;
use pbppm_trace::DocKind;

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Days from 1970-01-01 to `y-m-d` (proleptic Gregorian). Howard Hinnant's
/// `days_from_civil` algorithm. Overflows (a panic in a debug build) for
/// years beyond about ±2.5 × 10¹⁶.
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

/// Formats a record as a Combined Log Format line.
pub fn format_combined_line(r: &CombinedRecord) -> String {
    format!(
        "{} \"{}\" \"{}\"",
        format_clf_line(&r.clf),
        r.referer.as_deref().unwrap_or("-"),
        r.user_agent.as_deref().unwrap_or("-"),
    )
}

/// The paper's list of embeddable image extensions (§2.2).
const IMAGE_EXTS: &[&str] = &[
    "gif", "xbm", "jpg", "jpeg", "gif89", "tif", "tiff", "bmp", "ief", "jpe", "ras", "pnm", "pgm",
    "ppm", "rgb", "xpm", "xwd", "pcx", "pbm", "pic",
];

/// The paper's list of HTML extensions (§2.2).
const HTML_EXTS: &[&str] = &["html", "htm", "shtml"];

/// Classifies a URL path by its extension, lowercasing it into a copy.
pub fn doc_kind_from_url(path: &str) -> DocKind {
    // Strip query string / fragment before looking at the extension.
    let path = path
        .split_once(['?', '#'])
        .map_or(path, |(before, _)| before);
    if path.ends_with('/') || path.is_empty() {
        return DocKind::Html;
    }
    let name = path.rsplit('/').next().unwrap_or(path);
    let Some((_, ext)) = name.rsplit_once('.') else {
        return DocKind::Other;
    };
    let ext = ext.to_ascii_lowercase();
    if HTML_EXTS.contains(&ext.as_str()) {
        DocKind::Html
    } else if IMAGE_EXTS.contains(&ext.as_str()) {
        DocKind::Image
    } else {
        DocKind::Other
    }
}
