//! `pbppm serve` — the stdin/stdout front-end over the sharded serving
//! core ([`pbppm_serve::ShardedServer`]).
//!
//! The engine itself (per-shard writer sessions, epoch-published read
//! snapshots, batched dispatch) lives in the `pbppm-serve` crate; this
//! module only parses flags, prints the greeting, and pumps lines between
//! stdin and the server. A dedicated reader thread drains stdin into a
//! channel so bursts of pipelined commands arrive at the core as one
//! batch (drain-then-dispatch per shard) instead of one syscall-paced
//! round-trip each.
//!
//! The protocol is the same at every shard count (`--shards`, default
//! 1): `train`/`predict` accept an optional `@client` routing token
//! (`train @c7 /a,/b`), every shard checkpoints under `DIR/shard-NNN`,
//! and `stats`/`health`/`metrics`/`trace` cover all shards.

use crate::args::Args;
use pbppm_serve::{Flow, ServeOptions, ShardedOptions, ShardedServer};
use std::io::Write;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Upper bound on lines dispatched as one batch: keeps control-command
/// barriers responsive under sustained load.
const MAX_BATCH: usize = 256;

/// `pbppm serve --dir DIR [--shards N] [--threads N] [--window N]
/// [--rebuild-every N] [--checkpoint-every N] [--top N] [--eval-window N]
/// [--drift-fraction F] [--flight-capacity N] [--flush-every N]
/// [--aggressive-prune] [--no-links]`
pub fn serve(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "dir",
        "shards",
        "threads",
        "window",
        "rebuild-every",
        "checkpoint-every",
        "top",
        "eval-window",
        "drift-fraction",
        "flight-capacity",
        "flush-every",
    ])?;
    let dir = args.require("dir")?;
    let defaults = ServeOptions::default();
    let opts = ShardedOptions {
        shards: args.get_parsed("shards", 1)?,
        threads: args.get_parsed("threads", 0)?,
        serve: ServeOptions {
            window: args.get_parsed("window", defaults.window)?,
            rebuild_every: args.get_parsed("rebuild-every", defaults.rebuild_every)?,
            checkpoint_every: args.get_parsed("checkpoint-every", defaults.checkpoint_every)?,
            top: args.get_parsed("top", defaults.top)?,
            eval_window: args.get_parsed("eval-window", defaults.eval_window)?,
            drift_fraction: args.get_parsed("drift-fraction", defaults.drift_fraction)?,
            flight_capacity: args.get_parsed("flight-capacity", defaults.flight_capacity)?,
            flush_every: args.get_parsed("flush-every", defaults.flush_every)?,
        },
    };
    let cfg = pbppm_core::PbConfig {
        prune: if args.switch("aggressive-prune") {
            pbppm_core::PruneConfig::aggressive()
        } else {
            pbppm_core::PruneConfig::default()
        },
        special_links: !args.switch("no-links"),
        ..pbppm_core::PbConfig::default()
    };
    let mut server = ShardedServer::open(dir, cfg, opts)?;
    let mut stdout = std::io::stdout().lock();
    stdout.write_all(server.greeting().as_bytes())?;
    stdout.flush()?;

    // Reader thread: stdin drains into the channel while the core is
    // busy, so pipelined commands dispatch as one batch.
    let rx = pbppm_serve::spawn_stdin_reader();

    let mut batch: Vec<String> = Vec::new();
    let mut responses: Vec<String> = Vec::new();
    // recv() blocks for the first line of a batch (Err = stdin EOF),
    // then try_recv() drains whatever queued while the core was busy.
    while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(line) => batch.push(line),
                Err(_) => break,
            }
        }
        let flow = server.handle_batch(&batch, &mut responses)?;
        for r in &responses {
            stdout.write_all(r.as_bytes())?;
        }
        stdout.flush()?;
        if flow == Flow::Quit {
            break;
        }
    }
    Ok(())
}
