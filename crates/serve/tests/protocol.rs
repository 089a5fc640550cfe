//! The serve protocol's contract, at one shard and at four:
//!
//! 1. **Any line, one answer** — arbitrary lines (valid traffic, unknown
//!    commands, bare routing tokens, empty payloads, lines of thousands
//!    of URLs, printable garbage) never panic the server; every non-blank
//!    line gets exactly one `ok`/`err` response whose `ok N` header counts
//!    its rows, and an `err` line changes no shard's window, rebuild
//!    count, interner or publication epoch.
//! 2. **Checkpoints past a failing shard** — `quit` checkpoints every
//!    shard even when one cannot be written, and names the failed one.
//! 3. **Publish counters everywhere** — `metrics` and every shard's
//!    flushed `serve_metrics.json` carry `serve.published_epochs` and
//!    `serve.publish_rejected` at every shard count.
//! 4. **Interner bytes on `stats`** — the line's `interner_bytes` is every
//!    shard's `Interner::memory_bytes` pooled, right after the model's
//!    `bytes`.
//! 5. **Index bytes on `stats`** — the line's `index_bytes` is every
//!    shard's fingerprint-index bytes pooled, right after
//!    `interner_bytes`.
//! 6. **An unnamed URL is skipped like an unseen one** — a context URL
//!    the shard's interner has seen but its served model names in no row
//!    (here: URLs whose sessions slid out of the window) can be replaced
//!    by one the shard never saw without changing a response.

use pbppm_core::{PbConfig, Predictor};
use pbppm_obs::RunReport;
use pbppm_serve::{Flow, ServeOptions, ShardedOptions, ShardedServer};
use proptest::prelude::*;
use std::path::Path;

fn temp_dir(tag: &str) -> String {
    let dir =
        std::env::temp_dir().join(format!("pbppm-protocol-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.display().to_string()
}

fn open(dir: &str, shards: usize, threads: usize, checkpoint_every: u64) -> ShardedServer {
    let opts = ShardedOptions {
        shards,
        threads,
        serve: ServeOptions {
            window: 50,
            rebuild_every: 3,
            checkpoint_every,
            top: 5,
            flush_every: 0,
            ..ServeOptions::default()
        },
    };
    ShardedServer::open(dir, PbConfig::default(), opts).unwrap()
}

fn run(server: &mut ShardedServer, lines: &[String]) -> (Vec<String>, Flow) {
    let mut responses = Vec::new();
    let flow = server.handle_batch(lines, &mut responses).unwrap();
    (responses, flow)
}

/// Per shard: window length, rebuild count, interner size, epoch.
fn state(server: &ShardedServer) -> Vec<(usize, u64, usize, u64)> {
    (0..server.shard_count())
        .map(|k| {
            let w = server.shard_session(k);
            let online = w.online();
            (
                online.window_len(),
                online.rebuild_count(),
                w.urls().len(),
                server.shard_epoch(k),
            )
        })
        .collect()
}

fn urls(n: usize) -> String {
    (0..n)
        .map(|i| format!("/u{}", i % 97))
        .collect::<Vec<_>>()
        .join(",")
}

/// One protocol line of any shape except `quit` (which ends the batch).
fn any_line() -> impl Strategy<Value = String> {
    let verb = || prop_oneof![Just("train"), Just("predict")];
    prop_oneof![
        (verb(), 0..8u8, prop::collection::vec("/[a-f]", 1..6))
            .prop_map(|(v, c, us)| format!("{v} @c{c} {}", us.join(","))),
        (verb(), prop::collection::vec("/[a-f]", 1..4))
            .prop_map(|(v, us)| format!("{v} {}", us.join(","))),
        (verb(), "[ ,\t]{0,12}").prop_map(|(v, p)| format!("{v} {p}")),
        (verb(), prop_oneof![Just("@"), Just("@c3"), Just("@c3 ,, ")])
            .prop_map(|(v, t)| format!("{v} {t}")),
        (verb(), 0..8u8, 1000..4000usize).prop_map(|(v, c, n)| format!("{v} @c{c} {}", urls(n))),
        prop_oneof![
            Just("stats"),
            Just("health"),
            Just("metrics"),
            Just("metrics --prom"),
            Just("metrics bogus"),
            Just("trace"),
            Just("trace 3"),
            Just("trace x"),
            Just("checkpoint"),
            Just("@c1"),
            Just("@"),
            Just(""),
            Just("   "),
        ]
        .prop_map(str::to_owned),
        "[a-z@]{1,9}( [ -~]{0,20})?",
        ".{0,40}".prop_map(|s| s.replace('\n', " ")),
    ]
    .prop_map(|l| {
        if l.trim().split(' ').next() == Some("quit") {
            format!("x{l}")
        } else {
            l
        }
    })
}

/// Checks one response's shape; returns whether it was an `err`.
fn check_response(line: &str, resp: &str) -> Result<bool, TestCaseError> {
    if line.trim().is_empty() {
        prop_assert_eq!(resp, "", "a blank line gets an empty response");
        return Ok(false);
    }
    let mut rows = resp.lines();
    let head = rows.next().unwrap_or("");
    let err = head.starts_with("err");
    prop_assert!(err || head.starts_with("ok"), "{line:?} answered {resp:?}");
    prop_assert!(resp.ends_with('\n'), "{line:?} answered {resp:?}");
    match head.strip_prefix("ok ").map(str::parse::<usize>) {
        Some(Ok(n)) => prop_assert_eq!(rows.count(), n, "{line:?} answered {resp:?}"),
        _ => prop_assert_eq!(rows.count(), 0, "{line:?} answered {resp:?}"),
    }
    Ok(err)
}

fn check_any_lines(shards: usize, tag: &str, lines: &[String]) -> Result<(), TestCaseError> {
    // One line per batch: each `err` can be checked for side effects.
    let dir = temp_dir(&format!("{tag}-lines"));
    let mut server = open(&dir, shards, 1, 1_000_000);
    for line in lines {
        let before = state(&server);
        let (responses, flow) = run(&mut server, std::slice::from_ref(line));
        prop_assert_eq!(flow, Flow::Continue);
        prop_assert_eq!(responses.len(), 1);
        if check_response(line, &responses[0])? {
            prop_assert_eq!(
                state(&server),
                before,
                "{line:?} answered err but changed state"
            );
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // The whole list as one batch, dispatched across worker threads.
    let dir = temp_dir(&format!("{tag}-batch"));
    let mut server = open(&dir, shards, 2, 1_000_000);
    let (responses, flow) = run(&mut server, lines);
    prop_assert_eq!(flow, Flow::Continue);
    prop_assert_eq!(responses.len(), lines.len());
    for (line, resp) in lines.iter().zip(&responses) {
        check_response(line, resp)?;
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Trains every client once on two URLs of its own, then `sessions` (client
/// `i % 8` trains session `i`, at least 5 each, so with a 4-session window
/// every shard's served model has dropped the first ones), then asks each
/// context twice: with a seen but unnamed URL at each slot `>= 6`, and with
/// a never-seen URL there. The answers must match.
fn check_unnamed_like_unseen(
    shards: usize,
    sessions: &[Vec<u8>],
    contexts: &[(u8, Vec<u8>)],
) -> Result<(), TestCaseError> {
    let dir = temp_dir(&format!("unnamed-{shards}"));
    let opts = ShardedOptions {
        shards,
        threads: 1,
        serve: ServeOptions {
            window: 4,
            rebuild_every: 1,
            checkpoint_every: 1_000_000,
            top: 5,
            flush_every: 0,
            ..ServeOptions::default()
        },
    };
    let mut server = ShardedServer::open(&dir, PbConfig::default(), opts).unwrap();
    let path = |us: &[u8]| -> String {
        let urls: Vec<String> = us.iter().map(|u| format!("/p{}", u % 6)).collect();
        urls.join(",")
    };
    let mut lines: Vec<String> = (0..8)
        .map(|c| format!("train @c{c} /old{c}a,/old{c}b"))
        .collect();
    lines.extend(
        sessions
            .iter()
            .enumerate()
            .map(|(i, s)| format!("train @c{} {}", i % 8, path(s))),
    );
    run(&mut server, &lines);
    // Every shard has seen its clients' old URLs, and serves a model that
    // names none of them.
    let mut unnamed = 0;
    for k in 0..server.shard_count() {
        let mut reader = server.shard_reader(k);
        let published = reader.current();
        let arena = published.model.as_ref().and_then(Predictor::frozen);
        for (id, url) in published.urls.iter() {
            if url.starts_with("/old") {
                prop_assert!(!arena.is_some_and(|a| a.holds(id)), "{url} is named");
                unnamed += 1;
            }
        }
    }
    prop_assert_eq!(unnamed, 16);
    for (client, tokens) in contexts {
        let context = |other: &dyn Fn(usize) -> String| -> String {
            let urls: Vec<String> = tokens
                .iter()
                .enumerate()
                .map(|(i, &t)| if t < 6 { format!("/p{t}") } else { other(i) })
                .collect();
            urls.join(",")
        };
        let seen = context(&|i| format!("/old{client}{}", if i % 2 == 0 { 'a' } else { 'b' }));
        let never = context(&|i| format!("/never{i}"));
        let (a, _) = run(&mut server, &[format!("predict @c{client} {seen}")]);
        let (b, _) = run(&mut server, &[format!("predict @c{client} {never}")]);
        prop_assert_eq!(&a, &b, "{} against {}", seen, never);
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_line_gets_one_answer_at_one_shard(
        lines in prop::collection::vec(any_line(), 1..30),
    ) {
        check_any_lines(1, "any-1", &lines)?;
    }

    #[test]
    fn any_line_gets_one_answer_at_four_shards(
        lines in prop::collection::vec(any_line(), 1..30),
    ) {
        check_any_lines(4, "any-4", &lines)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn an_unnamed_url_answers_like_an_unseen_one_at_one_shard(
        sessions in prop::collection::vec(prop::collection::vec(0..6u8, 1..5), 40..56),
        contexts in prop::collection::vec((0..8u8, prop::collection::vec(0..9u8, 1..5)), 1..24),
    ) {
        check_unnamed_like_unseen(1, &sessions, &contexts)?;
    }

    #[test]
    fn an_unnamed_url_answers_like_an_unseen_one_at_four_shards(
        sessions in prop::collection::vec(prop::collection::vec(0..6u8, 1..5), 40..56),
        contexts in prop::collection::vec((0..8u8, prop::collection::vec(0..9u8, 1..5)), 1..24),
    ) {
        check_unnamed_like_unseen(4, &sessions, &contexts)?;
    }
}

#[test]
fn quit_checkpoints_every_shard_past_a_failing_one() {
    let dir = temp_dir("quit-fault");
    // No checkpoint before `quit`: whatever shard-001 holds afterwards was
    // written by the `quit` itself.
    let mut server = open(&dir, 2, 1, 1_000_000);
    let lines: Vec<String> = (0..8).map(|c| format!("train @c{c} /a,/b,/c")).collect();
    run(&mut server, &lines);
    let window_1 = server.shard_session(1).online().window_len();
    assert!(window_1 > 0, "the fixture trains shard 1");

    let shard_0 = Path::new(&dir).join("shard-000");
    std::fs::remove_dir_all(&shard_0).unwrap();
    std::fs::write(&shard_0, b"not a directory").unwrap();
    let (responses, flow) = run(&mut server, &["quit".to_owned()]);
    assert_eq!(flow, Flow::Quit);
    let current = Path::new(&dir).join("shard-001").join("current.pbss");
    assert!(
        current.exists(),
        "shard 1 checkpointed past shard 0's failure"
    );
    let resp = &responses[0];
    assert!(
        resp.starts_with("err final checkpoint failed on shard-000:"),
        "{resp}"
    );
    assert!(!resp.contains("shard-001"), "{resp}");
    assert_eq!(resp.lines().count(), 1, "{resp}");
    drop(server);

    std::fs::remove_file(&shard_0).unwrap();
    let recovered = open(&dir, 2, 1, 1_000_000);
    assert_eq!(
        recovered.shard_session(1).online().window_len(),
        window_1,
        "the quit checkpoint holds shard 1's whole window"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn counter(report: &RunReport, name: &str) -> Option<u64> {
    report
        .metrics
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
}

#[test]
fn publish_counters_reach_metrics_and_every_flushed_report() {
    for shards in [1, 4] {
        let dir = temp_dir(&format!("publish-{shards}"));
        let mut server = open(&dir, shards, 1, 1_000_000);
        let mut lines: Vec<String> = (0..24).map(|c| format!("train @c{c} /a,/b,/c")).collect();
        lines.push("metrics --prom".to_owned());
        let (responses, _) = run(&mut server, &lines);
        let epochs: Vec<u64> = (0..shards).map(|k| server.shard_epoch(k)).collect();
        assert!(epochs.iter().sum::<u64>() > 0, "rebuilds published");
        let prom = &responses[24];
        assert!(
            prom.contains(&format!(
                "pbppm_serve_published_epochs {}\n",
                epochs.iter().sum::<u64>()
            )),
            "{shards} shards: {prom}"
        );
        assert!(
            prom.contains("pbppm_serve_publish_rejected 0\n"),
            "{shards} shards: {prom}"
        );

        run(&mut server, &["quit".to_owned()]);
        for (k, &epoch) in epochs.iter().enumerate() {
            let path = Path::new(&dir)
                .join(format!("shard-{k:03}"))
                .join("serve_metrics.json");
            let report = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(
                counter(&report, "serve.published_epochs"),
                Some(epoch),
                "{}",
                path.display()
            );
            assert_eq!(
                counter(&report, "serve.publish_rejected"),
                Some(0),
                "{}",
                path.display()
            );
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The value after `field ` in a `stats` line.
fn stats_field(stats: &str, field: &str) -> u64 {
    stats
        .split(", ")
        .find_map(|part| part.trim().strip_prefix(field)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in {stats}"))
}

#[test]
fn stats_pools_interner_bytes_over_shards() {
    for shards in [1, 4] {
        let dir = temp_dir(&format!("interner-bytes-{shards}"));
        let mut server = open(&dir, shards, 1, 1_000_000);
        let mut lines: Vec<String> = (0..24)
            .map(|c| format!("train @c{c} /a{c},/b,/c/{}", "é".repeat(c)))
            .collect();
        lines.push("stats".to_owned());
        let (responses, _) = run(&mut server, &lines);
        let stats = &responses[24];
        assert!(
            stats.contains(", interner_bytes ") && stats.find(", bytes ") < stats.find("interner"),
            "{stats}"
        );
        let pooled: usize = (0..shards)
            .map(|k| server.shard_session(k).urls().memory_bytes())
            .sum();
        assert!(pooled > 0, "{shards} shards hold urls");
        assert_eq!(
            stats_field(stats, "interner_bytes"),
            pooled as u64,
            "{shards} shards: {stats}"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stats_pools_index_bytes_over_shards() {
    for shards in [1, 4] {
        let dir = temp_dir(&format!("index-bytes-{shards}"));
        let mut server = open(&dir, shards, 1, 1_000_000);
        let mut lines: Vec<String> = (0..24)
            .map(|c| format!("train @c{c} /a{c},/b,/c{}", c % 3))
            .collect();
        lines.push("stats".to_owned());
        let (responses, _) = run(&mut server, &lines);
        let stats = &responses[24];
        let next_field = stats
            .split_once(", interner_bytes ")
            .and_then(|(_, rest)| rest.split(", ").nth(1));
        assert!(
            next_field.is_some_and(|f| f.starts_with("index_bytes ")),
            "{stats}"
        );
        let pooled: usize = (0..shards)
            .map(|k| server.shard_session(k).online().stats().index_bytes)
            .sum();
        assert!(pooled > 0, "{shards} shards hold an index");
        assert_eq!(
            stats_field(stats, "index_bytes"),
            pooled as u64,
            "{shards} shards: {stats}"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
