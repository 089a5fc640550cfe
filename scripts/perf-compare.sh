#!/usr/bin/env bash
# Paired timing comparison of a parent revision against the working tree:
# the one way to back a speed claim, or to catch a slowdown.
#
# Usage: scripts/perf-compare.sh <parent-rev> [perfbench args...]
#
# Checks <parent-rev> out into a temporary git worktree (it builds offline
# from its own vendor/), builds perfbench there and in the working tree
# with separate target dirs, then runs 10 pairs of `perfbench --trace 1`,
# alternating which side goes first, appending each side's run records to
# its own --json file. Timings from one host and one sitting are the only
# ones compared: no committed baseline from another day takes part.
#
# Trailing arguments go to both perfbench runs unchanged, e.g.
#
#   scripts/perf-compare.sh HEAD~1 --workload read-saturate
#
# It prints nproc and both revisions, then `perfbench compare`'s table,
# and exits with compare's code: 0 when no metric reads worse, 1 when one
# does (see perfbench/README.md, "Comparing two commits"), 2 on bad input.
# A perfbench run whose output checks fail stops the script with that
# run's exit code.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: scripts/perf-compare.sh <parent-rev> [perfbench args...]" >&2
    exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
parent_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
shift

work="$(mktemp -d)"
parent="$work/parent"
cleanup() {
    git -C "$repo" worktree remove --force "$parent" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$repo" worktree add --detach "$parent" "$parent_rev" >/dev/null

# Explicit target dirs keep the two builds apart even when
# CARGO_TARGET_DIR is set.
build() {
    cargo build --release -q --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
build "$parent" "$work/target-parent"
build "$repo" "$repo/perfbench/target"
parent_bin="$work/target-parent/release/perfbench"
change_bin="$repo/perfbench/target/release/perfbench"

run() {
    "$1" --trace 1 --json "$2" "${@:3}" >/dev/null
}
for i in $(seq 10); do
    echo "perf-compare: pair $i/10" >&2
    if (( i % 2 )); then
        run "$parent_bin" "$work/parent.jsonl" "$@"
        run "$change_bin" "$work/change.jsonl" "$@"
    else
        run "$change_bin" "$work/change.jsonl" "$@"
        run "$parent_bin" "$work/parent.jsonl" "$@"
    fi
done

echo "nproc $(nproc)"
echo "parent $(git -C "$repo" rev-parse --short "$parent_rev")"
echo "change $(git -C "$repo" describe --always --dirty)"
status=0
"$change_bin" compare "$work/parent.jsonl" "$work/change.jsonl" \
    --benchmark "$repo/BENCHMARK.json" || status=$?
exit "$status"
