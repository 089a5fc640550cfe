#!/usr/bin/env bash
# The whole CI pipeline in one command:
#
#   1. pbppm-lint            — the workspace linter's per-rule self-test
#                              (every planted corpus violation must trip),
#                              then the tree itself, timed: the full pass
#                              must finish in under two seconds
#   2. telemetry switch      — no build prints a `default-features`
#                              warning, and `--no-default-features` leaves
#                              pbppm-obs's `enabled` feature off for the
#                              whole CLI dependency graph
#   3. scripts/check.sh      — pbppm lint, fmt --check, clippy -D
#      and docs                warnings, the workspace test suite; then
#                              `cargo doc --workspace --no-deps` with
#                              rustdoc warnings denied, so a public doc
#                              cannot link a private item
#   4. perfbench             — fmt --check and clippy -D warnings over
#                              perfbench, then its own unit and smoke
#                              tests (its own workspace, outside
#                              check.sh's reach), among them every
#                              workload at tiny scale (churn at 4 shards:
#                              every response ok, no failed request, no
#                              rejected publish)
#   5. snapshot smoke        — generate a tiny trace, then for each model
#                              (pb, standard, lrs, o1): `pbppm train`
#                              (writes the .pbss model file, whose bytes
#                              8-9 must read format version 6), `pbppm audit`
#                              (loads it, rebuilding the level-order arena
#                              directly from the file's rows, and checks
#                              every invariant on that arena), and
#                              `pbppm predict` (serves a query from the
#                              loaded model) — the full train → audit →
#                              predict cycle through the real binary
#   6. audit smoke           — `pbppm audit` prints the pb model file's
#                              byte split, whose sections sum to the file
#                              size, beside its URL table's decoded size,
#                              and the loaded model's index byte split,
#                              whose parts sum to its printed total; it
#                              rejects (nonzero exit) a snapshot copy with
#                              a flipped payload byte, and a copy stamped
#                              version 5 with "unsupported snapshot
#                              version 5"
#   7. serve protocol smoke  — pipe train/predict/stats/metrics/trace/
#                              health/quit through `pbppm serve`, assert
#                              the one-`ok`/`err`-line-per-command
#                              discipline, then restart against the same
#                              dir and assert the greeting reports a
#                              recovered generation (warm start) and the
#                              recovered shard answers the same predict
#                              with identical lines
#   8. sharded serve smoke   — the same protocol through `pbppm serve
#                              --shards 4` with `@client` routing tokens,
#                              asserting the greeting's shard count and
#                              the stats line over all shards; then one
#                              train/predict script served at --threads 1
#                              and at --threads 4 must answer identically
#   9. parallel ingest smoke — `pbppm train` on the same log at
#                              --threads 1 and --threads 4 must produce
#                              byte-identical .pbss files for each tree
#                              model (pb, standard, lrs, o1): the
#                              deterministic parallel-training contract
#                              through the real binary
#  10. combined log smoke    — the same seed generated as a Combined log
#                              must train a .pbss byte-identical to the
#                              CLF log's, and `predict` must serve from it
#  11. log writer pin        — the tiny preset's CLF and Combined logs,
#                              as `pbppm generate` writes them, must hash
#                              to the sha256 the `format!`-based writers
#                              produced: the byte-level writer prints
#                              every line the same
#  12. reproduction check    — `all --check` regenerates every paper
#                              table and figure into a temp dir and
#                              requires the committed `results/` field for
#                              field, except the named timing fields; on
#                              the way its `throughput` and `ingest` steps
#                              enforce their host-independent floors (each
#                              model's fast path beats the reference scan;
#                              the chunked parse peaks at most 1.25x the
#                              sequential one; 2x end-to-end ingest speedup
#                              on hosts with 4+ cores)
#
# No leg compares a timing with a committed number from another run: such
# numbers drift with the host. A speed claim, or a suspected slowdown, is
# judged by a paired parent-vs-change perfbench run on one host:
#
#   scripts/perf-compare.sh <parent-rev> [perfbench args...]
#
# Usage: scripts/ci.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "== ci: pbppm-lint --self-test" >&2
cargo build -q -p pbppm-lint
lint="$repo/target/debug/pbppm-lint"
"$lint" --self-test .
# The lint pass is cheap enough to run on every edit; keep it that way.
lint_start="$(date +%s%N)"
"$lint" .
lint_ns=$(( $(date +%s%N) - lint_start ))
if (( lint_ns > 2000000000 )); then
    echo "ci: pbppm-lint took $((lint_ns / 1000000)) ms (budget: 2000 ms)" >&2
    exit 1
fi

echo "== ci: telemetry off switch" >&2
# Cargo ignores a member's `default-features = false` unless the workspace
# table says the same, and only warns about it; either slip turns
# `--no-default-features` into a silent no-op.
# Outputs are captured first: with pipefail, `grep -q` closing the pipe
# early could turn a match into a SIGPIPE failure of the left side.
build_log="$(cargo build --workspace --all-targets 2>&1)"
if grep -q 'default-features' <<<"$build_log"; then
    echo "ci: cargo warns about ignored default-features" >&2
    exit 1
fi
obs_features="$(cargo tree -p pbppm-cli --no-default-features -e features -i pbppm-obs)"
if grep -q '"enabled"' <<<"$obs_features"; then
    echo "ci: --no-default-features still enables pbppm-obs telemetry" >&2
    exit 1
fi

echo "== ci: check.sh" >&2
scripts/check.sh

echo "== ci: docs" >&2
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== ci: perfbench lint and tests" >&2
# perfbench is its own workspace, so check.sh's fmt and clippy and
# `cargo test --workspace` never reach it.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy -q --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== ci: snapshot train/audit/predict smoke" >&2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -q -p pbppm-cli
pbppm="$repo/target/release/pbppm"

# The CLI front-end must agree with the standalone binary: a clean tree
# and the machine-readable report shape.
"$pbppm" lint --json . | grep -q '"clean":true' || {
    echo "ci: pbppm lint --json did not report a clean tree" >&2
    exit 1
}

"$pbppm" generate --preset tiny --out "$tmp/access.log" >/dev/null
for model in pb standard lrs o1; do
    # `train` writes the model file; `audit` and `predict` each load it,
    # rebuilding the frozen arena from the file's rows. Any prediction
    # output (or a clean empty "no prediction" answer) proves the cycle
    # worked.
    "$pbppm" train "$tmp/access.log" --out "$tmp/model-$model.pbss" --model "$model" >/dev/null
    version="$(python3 -c 'import sys; print(int.from_bytes(open(sys.argv[1], "rb").read()[8:10], "little"))' "$tmp/model-$model.pbss")"
    if [[ "$version" != 6 ]]; then
        echo "ci: train ($model) wrote format version $version, not 6" >&2
        exit 1
    fi
    "$pbppm" audit "$tmp/model-$model.pbss" >/dev/null
    "$pbppm" predict "$tmp/model-$model.pbss" --context "/l0/p0.html" >"$tmp/preds-$model.txt"
    if [[ ! -s "$tmp/preds-$model.txt" ]]; then
        echo "ci: predict ($model) produced no output" >&2
        exit 1
    fi
done
# Keep the pb snapshot under the historical name for the corruption check.
cp "$tmp/model-pb.pbss" "$tmp/model.pbss"

echo "== ci: snapshot audit smoke" >&2
# The file's split (`file bytes N: envelope … settings …; url table S
# strings, D decoded bytes`) must add up to the file size, and the loaded
# model's index split (`index bytes N: keys … votes …; dirty groups D`) to
# its printed total.
"$pbppm" audit "$tmp/model.pbss" >"$tmp/audit.txt"
python3 - "$tmp/audit.txt" "$tmp/model.pbss" <<'EOF'
import os, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"file bytes (\d+): ([^;\n]*); url table (\d+) strings, (\d+) decoded bytes", text)
if not m:
    sys.exit("ci: audit printed no file byte split with its url table")
fields = m.group(2).split()
parts = sum(int(v) for v in fields[1::2])
size = os.path.getsize(sys.argv[2])
if parts != size or int(m.group(1)) != size:
    sys.exit(f"ci: file sections {fields} sum to {parts}, printed {m.group(1)}, file is {size}")
m = re.search(r"index bytes (\d+): (.*); dirty groups (\d+)", text)
if not m:
    sys.exit("ci: audit printed no index byte split")
fields = m.group(2).split()
parts = sum(int(v) for v in fields[1::2])
if parts != int(m.group(1)):
    sys.exit(f"ci: index parts {fields} sum to {parts}, not {m.group(1)}")
EOF
# A corrupted copy must fail the audit with a nonzero exit. Flipping a byte
# in the middle of the payload breaks the checksum at minimum; either the
# decoder or the audit must refuse it.
python3 - "$tmp/model.pbss" "$tmp/corrupt.pbss" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 0xFF
open(sys.argv[2], "wb").write(bytes(data))
EOF
if "$pbppm" audit "$tmp/corrupt.pbss" >/dev/null 2>&1; then
    echo "ci: audit accepted a corrupted snapshot" >&2
    exit 1
fi
# Stamped version 5 (the layout that wrote every URL in full), the file
# must be refused by its version. Decode reads the version before the
# checksum, so the copy needs no new checksum.
python3 - "$tmp/model.pbss" "$tmp/v5.pbss" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[8:10] = (5).to_bytes(2, "little")
open(sys.argv[2], "wb").write(bytes(data))
EOF
if "$pbppm" audit "$tmp/v5.pbss" >"$tmp/v5-audit.txt" 2>&1; then
    echo "ci: audit accepted a version 5 snapshot" >&2
    exit 1
fi
grep -q 'unsupported snapshot version 5' "$tmp/v5-audit.txt" || {
    echo "ci: audit did not name version 5 when refusing it" >&2
    exit 1
}

echo "== ci: serve protocol smoke" >&2
servedir="$tmp/serve"
serveout="$tmp/serve-out.txt"
printf '%s\n' \
    "train /a.html,/b.html,/c.html" \
    "train /a.html,/b.html,/d.html" \
    "predict /a.html,/b.html" \
    "stats" \
    "metrics --prom" \
    "trace 5" \
    "health" \
    "bogus-command" \
    "quit" \
    | "$pbppm" serve --dir "$servedir" --rebuild-every 1 >"$serveout"
# Greeting first, then exactly one ok/err status line per command (the
# metrics/trace/predict payload lines that follow an "ok N" header never
# start with ok/err — metric names are pbppm_*, trace rows are sK #N …).
if ! head -n1 "$serveout" | grep -q '^ready recovered=fresh shards=1 '; then
    echo "ci: serve did not greet with a fresh session" >&2
    exit 1
fi
ok_lines="$(grep -c '^ok' "$serveout")"
err_lines="$(grep -c '^err' "$serveout")"
if [[ "$ok_lines" -ne 8 || "$err_lines" -ne 1 ]]; then
    echo "ci: serve ok/err discipline broken: $ok_lines ok + $err_lines err lines for 9 commands" >&2
    exit 1
fi
grep -q '^pbppm_serve_requests{cmd="train"} 2$' "$serveout" || {
    echo "ci: serve metrics --prom did not expose the train counter" >&2
    exit 1
}
grep -q 'trained 3 url(s)' "$serveout" || {
    echo "ci: serve train did not acknowledge the session" >&2
    exit 1
}
grep -Eq '^ok shards 1, .*, bytes [0-9]+, interner_bytes [1-9][0-9]*, ' "$serveout" || {
    echo "ci: serve stats did not report the interner's bytes after the model's" >&2
    exit 1
}
# The first `ok N` header in a serve transcript (predict's, here) and the
# N prediction lines after it.
predict_answer() {
    awk '/^ok [0-9]+$/ && !seen { seen = 1; n = $2; print; next }
         seen && n > 0 { print; n-- }' "$1"
}
first_predict="$(predict_answer "$serveout")"
if ! grep -Eq '^ok [1-9]' <<<"$first_predict"; then
    echo "ci: serve predict answered no prediction: '$first_predict'" >&2
    exit 1
fi
# Warm restart against the same dir: the quit checkpoint must be
# recovered, the greeting must say so, and the recovered shard, whose
# URL ids name the interner the file decoded into, must answer the same
# predict with the same lines.
printf '%s\n' "predict /a.html,/b.html" "stats" "quit" \
    | "$pbppm" serve --dir "$servedir" >"$serveout"
if ! head -n1 "$serveout" | grep -Eq '^ready recovered=(current|previous) shards=1 '; then
    echo "ci: serve warm restart did not report a recovered generation" >&2
    exit 1
fi
grep -Eq '^ok shards 1, urls .* recovered (current|previous),' "$serveout" || {
    echo "ci: serve stats did not report the recovered generation" >&2
    exit 1
}
if [[ "$(predict_answer "$serveout")" != "$first_predict" ]]; then
    echo "ci: the recovered shard's predict answer differs from the first run's" >&2
    exit 1
fi

echo "== ci: sharded serve smoke" >&2
sharddir="$tmp/serve-sharded"
shardout="$tmp/serve-sharded-out.txt"
printf '%s\n' \
    "train @alice /a.html,/b.html,/c.html" \
    "train @bob /a.html,/b.html,/d.html" \
    "predict @alice /a.html,/b.html" \
    "stats" \
    "health" \
    "quit" \
    | "$pbppm" serve --dir "$sharddir" --shards 4 --rebuild-every 1 >"$shardout"
if ! head -n1 "$shardout" | grep -q '^ready recovered=fresh shards=4 '; then
    echo "ci: sharded serve did not greet with its shard count" >&2
    exit 1
fi
grep -Eq '^ok shards 4, .*, interner_bytes [1-9][0-9]*, index_bytes [1-9][0-9]*, ' "$shardout" || {
    echo "ci: sharded stats did not aggregate across shards" >&2
    exit 1
}
if grep -q '^err' "$shardout"; then
    echo "ci: sharded serve smoke produced err responses" >&2
    exit 1
fi
# Each shard rebuilds on its share of the dispatch workers; the worker
# count must not change one response. One train/predict script, served
# at --threads 1 and at --threads 4, must answer line for line alike.
shardscript="$tmp/serve-sharded-script.txt"
for i in $(seq 40); do
    echo "train @c$((i % 6)) /p$((i % 5)).html,/p$((i * 3 % 7)).html,/p$((i * 7 % 9)).html"
    echo "predict @c$((i % 6)) /p$((i % 5)).html"
done >"$shardscript"
echo "quit" >>"$shardscript"
for threads in 1 4; do
    "$pbppm" serve --dir "$tmp/serve-sharded-t$threads" --shards 4 --rebuild-every 1 \
        --threads "$threads" <"$shardscript" >"$tmp/serve-sharded-t$threads.txt"
done
if ! grep -q '^1\.000 /p' "$tmp/serve-sharded-t4.txt"; then
    echo "ci: the sharded train/predict script produced no prediction" >&2
    exit 1
fi
diff "$tmp/serve-sharded-t1.txt" "$tmp/serve-sharded-t4.txt" >&2 || {
    echo "ci: sharded serve answered differently at --threads 4 than at --threads 1" >&2
    exit 1
}

echo "== ci: parallel ingest smoke" >&2
# Parallel training is bit-identical to sequential at any worker count;
# prove it through the real binary by diffing whole model files, for each
# tree model (they share one training loop).
for model in pb standard lrs o1; do
    "$pbppm" train "$tmp/access.log" --out "$tmp/model-$model-t1.pbss" --model "$model" --threads 1 >/dev/null
    "$pbppm" train "$tmp/access.log" --out "$tmp/model-$model-t4.pbss" --model "$model" --threads 4 >/dev/null
    cmp -s "$tmp/model-$model-t1.pbss" "$tmp/model-$model-t4.pbss" || {
        echo "ci: parallel training of $model (--threads 4) diverged from --threads 1" >&2
        exit 1
    }
done

echo "== ci: combined log smoke" >&2
# Both dialects take the one chunked ingester; the user-agent field must
# change nothing about the trained model.
"$pbppm" generate --preset tiny --format combined --out "$tmp/access-combined.log" >/dev/null
"$pbppm" train "$tmp/access-combined.log" --out "$tmp/model-combined.pbss" --model pb >/dev/null
cmp -s "$tmp/model-pb.pbss" "$tmp/model-combined.pbss" || {
    echo "ci: the Combined log trained a different model than the CLF log" >&2
    exit 1
}
"$pbppm" predict "$tmp/model-combined.pbss" --context "/l0/p0.html" >"$tmp/preds-combined.txt"
if [[ ! -s "$tmp/preds-combined.txt" ]]; then
    echo "ci: predict from the Combined-log model produced no output" >&2
    exit 1
fi

echo "== ci: log writer pin" >&2
# The logs `generate` wrote above, hashed. The pins were taken from the
# binary whose writers were still `format!` calls, so a byte the
# one-allocation writers print differently fails here.
for pin in \
    "access.log 3805df88f37f27bc190c7fc1c18afcdf56ed291e480e80f797a6ac52f43618bd" \
    "access-combined.log c4094ce041e5c886673e6798a3b997e3bd4a12adcf612f8b7f0ff30b57ef3c8a"; do
    read -r log want <<<"$pin"
    got="$(sha256sum "$tmp/$log" | cut -d' ' -f1)"
    if [[ "$got" != "$want" ]]; then
        echo "ci: generate --preset tiny wrote $log with sha256 $got, pinned $want" >&2
        exit 1
    fi
done

echo "== ci: reproduction check" >&2
# Every reproduced number (node counts, hit ratios, latency reductions,
# traffic, byte sizes) must regenerate exactly; a mismatch prints its
# JSON path and both values. A broken throughput or ingest floor exits
# nonzero before the comparison.
cargo run --release -q -p pbppm-bench --bin all -- --check >"$tmp/all-check.txt"

echo "ci: all green" >&2
