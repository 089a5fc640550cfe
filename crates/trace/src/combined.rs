//! NCSA **Combined** Log Format: Common Log Format plus quoted referrer
//! and user-agent fields —
//!
//! ```text
//! host - - [time] "GET /x HTTP/1.0" 200 123 "http://ref/" "Mozilla/4.0"
//! ```
//!
//! The user-agent field is what makes principled **robot detection**
//! possible (the §2.2 request-rate heuristic is the fallback for plain CLF
//! logs, where nothing better exists). This module holds the dialect's
//! grammar; turning a log into a trace is [`crate::ingest`]'s job, which
//! detects the dialect with [`detect_format`] and splits each Combined
//! line with the same zero-copy rule [`parse_combined_line`] uses.

use crate::clf::{
    clf_line_with_room, parse_clf_line, parse_clf_line_ref, ClfParseError, ClfRecord,
};

/// One parsed Combined Log Format line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedRecord {
    /// The Common Log Format core.
    pub clf: ClfRecord,
    /// The `Referer` header (`None` when logged as `-`).
    pub referer: Option<String>,
    /// The `User-Agent` header (`None` when logged as `-`).
    pub user_agent: Option<String>,
}

/// A Combined line cut into its CLF core and its last two quoted fields,
/// all borrowed from the line.
pub(crate) struct CombinedParts<'a> {
    /// Everything before the referrer's opening quote.
    pub core: &'a str,
    /// The referrer field's contents, untrimmed.
    pub referer: &'a str,
    /// The user-agent field's contents, untrimmed.
    pub user_agent: &'a str,
}

/// Splits a Combined line without allocating. Quotes pair up left to
/// right (an odd trailing quote closes nothing); the line needs at least
/// three pairs, and the last two are the referrer and the user agent.
pub(crate) fn split_combined(line: &str) -> Result<CombinedParts<'_>, ClfParseError> {
    const TOO_FEW: ClfParseError =
        ClfParseError::Malformed("combined format needs 3 quoted fields");
    let bytes = line.as_bytes();
    let quotes = bytes.iter().filter(|&&b| b == b'"').count();
    if quotes / 2 < 3 {
        return Err(TOO_FEW);
    }
    let mut closing_first = bytes
        .iter()
        .enumerate()
        .rev()
        .filter(|&(_, &b)| b == b'"')
        .map(|(i, _)| i)
        .skip(quotes % 2);
    let mut next = || closing_first.next().ok_or(TOO_FEW);
    let (agent_end, agent_start, referer_end, referer_start) = (next()?, next()?, next()?, next()?);
    Ok(CombinedParts {
        core: &line[..referer_start],
        referer: &line[referer_start + 1..referer_end],
        user_agent: &line[agent_start + 1..agent_end],
    })
}

fn dash_to_none(s: &str) -> Option<String> {
    let s = s.trim();
    if s.is_empty() || s == "-" {
        None
    } else {
        Some(s.to_owned())
    }
}

/// Parses one Combined Log Format line.
pub fn parse_combined_line(line: &str) -> Result<CombinedRecord, ClfParseError> {
    let parts = split_combined(line)?;
    Ok(CombinedRecord {
        clf: parse_clf_line(parts.core)?,
        referer: dash_to_none(parts.referer),
        user_agent: dash_to_none(parts.user_agent),
    })
}

/// Formats a record as a Combined Log Format line, in one allocation of
/// exactly the line's length: the two quoted fields go into the buffer
/// the CLF core was written to.
pub fn format_combined_line(r: &CombinedRecord) -> String {
    let referer = r.referer.as_deref().unwrap_or("-");
    let user_agent = r.user_agent.as_deref().unwrap_or("-");
    // ` "` + referer + `" "` + user agent + `"`
    let mut out = clf_line_with_room(&r.clf, 6 + referer.len() + user_agent.len());
    out.push_str(" \"");
    out.push_str(referer);
    out.push_str("\" \"");
    out.push_str(user_agent);
    out.push('"');
    out
}

/// Substrings (lowercase) that mark a user agent as a robot. The list
/// covers the crawlers that actually appear in late-90s/2000s logs plus
/// the generic conventions still in use.
const ROBOT_MARKERS: &[&str] = &[
    "bot",
    "crawler",
    "spider",
    "slurp",
    "archiver",
    "wget",
    "curl",
    "libwww",
    "harvest",
    "scooter",
    "teleport",
    "webcopier",
    "fetch",
];

/// True when a user-agent string identifies an automated client.
pub fn is_robot_agent(user_agent: &str) -> bool {
    let ua = user_agent.as_bytes();
    ROBOT_MARKERS.iter().any(|m| {
        ua.windows(m.len())
            .any(|w| w.eq_ignore_ascii_case(m.as_bytes()))
    })
}

/// A web log's on-disk dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Plain Common Log Format (one quoted field).
    Common,
    /// Combined Log Format (request + referrer + user agent).
    Combined,
}

/// Sniffs the dialect from one line: `None` unless it parses in either.
pub fn detect_format(line: &str) -> Option<LogFormat> {
    if split_combined(line).is_ok_and(|p| parse_clf_line_ref(p.core).is_ok()) {
        Some(LogFormat::Combined)
    } else if parse_clf_line_ref(line).is_ok() {
        Some(LogFormat::Common)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMBINED: &str = concat!(
        r#"66.249.66.1 - - [01/Jul/2000:10:00:00 -0700] "GET /index.html HTTP/1.0" 200 5120 "#,
        r#""http://www.example.edu/" "Googlebot/2.1 (+http://www.google.com/bot.html)""#
    );

    #[test]
    fn parses_a_combined_line() {
        let r = parse_combined_line(COMBINED).unwrap();
        assert_eq!(r.clf.host, "66.249.66.1");
        assert_eq!(r.clf.path, "/index.html");
        assert_eq!(r.clf.status, 200);
        assert_eq!(r.clf.size, 5120);
        assert_eq!(r.referer.as_deref(), Some("http://www.example.edu/"));
        assert!(r.user_agent.as_deref().unwrap().starts_with("Googlebot"));
    }

    #[test]
    fn dashes_become_none() {
        let line = r#"h - - [01/Jan/1970:00:00:00 +0000] "GET /a.html HTTP/1.0" 200 10 "-" "-""#;
        let r = parse_combined_line(line).unwrap();
        assert_eq!(r.referer, None);
        assert_eq!(r.user_agent, None);
    }

    #[test]
    fn plain_clf_is_not_combined() {
        let line = r#"h - - [01/Jan/1970:00:00:00 +0000] "GET /a.html HTTP/1.0" 200 10"#;
        assert!(parse_combined_line(line).is_err());
        assert_eq!(detect_format(line), Some(LogFormat::Common));
        assert_eq!(detect_format(COMBINED), Some(LogFormat::Combined));
        assert_eq!(detect_format("garbage"), None);
    }

    #[test]
    fn roundtrip() {
        let rec = CombinedRecord {
            clf: ClfRecord {
                host: "10.0.0.1".into(),
                time: 1_000_000,
                method: "GET".into(),
                path: "/a/b.html".into(),
                status: 200,
                size: 42,
            },
            referer: Some("http://r/".into()),
            user_agent: Some("Mozilla/4.0 (compatible)".into()),
        };
        let line = format_combined_line(&rec);
        assert_eq!(parse_combined_line(&line).unwrap(), rec);
        // None fields round-trip through "-".
        let rec2 = CombinedRecord {
            referer: None,
            user_agent: None,
            ..rec
        };
        assert_eq!(
            parse_combined_line(&format_combined_line(&rec2)).unwrap(),
            rec2
        );
    }

    #[test]
    fn robot_agents_detected() {
        for ua in [
            "Googlebot/2.1",
            "Mozilla/5.0 (compatible; YandexBot/3.0)",
            "msnbot/1.0",
            "Wget/1.12",
            "curl/7.1",
            "Teleport Pro/1.29",
            "ia_archiver",
        ] {
            assert!(is_robot_agent(ua), "{ua}");
        }
        for ua in [
            "Mozilla/4.08 [en] (WinNT; U)",
            "Mozilla/5.0 (Macintosh; Intel Mac OS X)",
            "Opera/9.80",
        ] {
            assert!(!is_robot_agent(ua), "{ua}");
        }
    }

    #[test]
    fn quotes_pair_left_to_right_and_the_last_two_pairs_win() {
        // Quotes inside fields are not legal in the format; the split still
        // takes the last two complete pairs, here `"A "` and `" agent"`,
        // and the leftover core fails as CLF.
        let weird = r#"h - - [01/Jan/1970:00:00:00 +0000] "GET /x HTTP/1.0" 200 5 "ref" "A "quoted" agent""#;
        let parts = split_combined(weird).unwrap();
        assert_eq!((parts.referer, parts.user_agent), ("A ", " agent"));
        assert!(parse_combined_line(weird).is_err());
        // An unpaired trailing quote closes nothing.
        let odd = format!("{COMBINED} \"");
        assert_eq!(
            parse_combined_line(&odd).unwrap(),
            parse_combined_line(COMBINED).unwrap()
        );
    }
}
