//! # pbppm-serve — the sharded, epoch-published serving core
//!
//! The serving side of the toolkit, split out of the CLI so both the
//! `pbppm serve` binary and the bench harnesses drive the same engine:
//!
//! * [`ShardedServer`] — the line protocol, answered one way at every
//!   shard count. Clients are keyed by hash onto N shards; requests
//!   arrive in batches and are drained per shard, dispatched across
//!   worker threads, and re-assembled in arrival order — responses are
//!   deterministic for a given client-to-shard assignment regardless of
//!   thread count.
//! * [`ServeSession`] — one shard: the single writer over an
//!   [`pbppm_core::OnlinePbPpm`] with crash-safe checkpoints, a flight
//!   recorder, live prequential self-evaluation, and an epoch-published,
//!   immutable model snapshot ([`PublishedModel`] behind
//!   [`pbppm_core::publish::EpochPublisher`]) that any number of readers
//!   can predict against without taking a lock in steady state.
//!
//! The structural audit gates publication: a writer only publishes a
//! rebuilt model that passes `verify_model_with_urls`; a failing rebuild
//! keeps serving the previous epoch and bumps `serve.publish_rejected`.

#![forbid(unsafe_code)]

pub mod session;
pub mod sharded;

pub use session::{Recovery, ServeOptions, ServeSession};
pub use sharded::{Flow, PublishedModel, ShardedOptions, ShardedServer};

/// Spawns the stdin reader thread and hands back the line channel.
///
/// Stdin drains into the channel while the serving core is busy, so
/// pipelined commands dispatch as one batch; the receiver returning
/// `Err` means stdin hit EOF (or a read error). A line that is not valid
/// UTF-8 is passed on with U+FFFD replacements, so it is answered like
/// any other line instead of ending the session. The thread may stay
/// blocked on a final read after `quit`; process exit reaps it. Lives
/// here rather than in the CLI because thread creation is confined to
/// the serving and parallelism crates (see `pbppm lint`'s `thread-spawn`
/// rule).
#[must_use]
pub fn spawn_stdin_reader() -> std::sync::mpsc::Receiver<String> {
    use std::io::BufRead;
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        let mut stdin = std::io::stdin().lock();
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if !matches!(stdin.read_until(b'\n', &mut raw), Ok(n) if n > 0) {
                break;
            }
            let line = String::from_utf8_lossy(&raw);
            let line = line.trim_end_matches(['\n', '\r']).to_owned();
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}
