#!/usr/bin/env bash
# One-stop hygiene gate: formatting, lints, and the full test suite.
#
# Usage: scripts/check.sh
#
# Runs, in order, failing fast:
#   1. pbppm-lint            — the workspace's Rust-aware linter (panic +
#                              concurrency policy; see DESIGN.md §15)
#   2. cargo fmt --check     — no unformatted code
#   3. cargo clippy          — workspace + all targets, warnings are errors
#   4. cargo test --workspace — every member's suite: the root package's
#                              tier-1 tests plus the model property tests,
#                              the structural-audit adversarial suite, shard
#                              determinism, epoch concurrency and ingest
#
# Timing is judged separately, by a paired parent-vs-change perfbench run
# on one host (scripts/perf-compare.sh), because it needs release builds of
# both revisions and a quiet machine.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== pbppm lint" >&2
cargo run -q -p pbppm-lint -- .

echo "== cargo fmt --check" >&2
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace" >&2
cargo test -q --workspace

echo "check.sh: all green" >&2
