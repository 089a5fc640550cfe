#!/usr/bin/env bash
# The whole CI pipeline in one command:
#
#   1. pbppm-lint            — the workspace linter's per-rule self-test
#                              (every planted corpus violation must trip),
#                              then the tree itself, timed: the full pass
#                              must finish in under two seconds. Binaries
#                              run from cargo's target directory, as
#                              `cargo metadata` reports it, so the script
#                              works with CARGO_TARGET_DIR set anywhere
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
#                              8-9 must read format version 7), `pbppm audit`
#                              (loads it, rebuilding the level-order arena
#                              directly from the file's rows, and checks
#                              every invariant on that arena), and
#                              `pbppm predict` (serves a query from the
#                              loaded model) — the full train → audit →
#                              predict cycle through the real binary
#   6. audit smoke           — `pbppm audit` prints the pb model file's
#                              byte split, whose sections sum to the file
#                              size, beside its URL table's id space and
#                              the strings it holds (no more than the
#                              ids), and the loaded URL table's interner
#                              (presence set included), index,
#                              arena and popularity byte splits, each of
#                              whose parts sum to its printed total (the
#                              arena's for every model kind), every index,
#                              arena and popularity column with a width of
#                              1 to 8 bytes (each count column followed by
#                              its outlier table, `…_over`, and each offset
#                              column split into its block bases, `…_base`,
#                              its excesses and their outlier table), the
#                              pb arena's URL bitmaps (`held`, `roots`,
#                              `root_ranks`) and frame-coded offsets
#                              (`parents_base`, `first_child_base`),
#                              and the index's voting
#                              windows filed and its derived, clean,
#                              dirty and dropped groups; it
#                              rejects (nonzero exit) a snapshot copy with
#                              a flipped payload byte, and a copy stamped
#                              version 6 with "unsupported snapshot
#                              version 6"
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
#  12. model file pin        — the .pbss files `pbppm train` wrote from
#                              the tiny log in step 5, for pb, standard,
#                              lrs and o1, must hash to the sha256 format
#                              version 7 pinned: how a loaded model lays
#                              out its columns does not move a byte of
#                              the file
#  13. predict answer pin    — one batched `pbppm predict` per model of
#                              step 5 (`;`-separated contexts: every 1- to
#                              4-click window sliding over the tiny log's
#                              first 200 paths) must hash to the sha256
#                              pinned when a context URL no row names
#                              began to be skipped: how the index stores
#                              its windows, or which strings the file
#                              keeps, does not move an answer
#  14. reproduction check    — `all --check` regenerates every paper
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

# Where cargo puts what it builds: `target/` unless CARGO_TARGET_DIR or
# a config says otherwise.
target="$(cargo metadata -q --format-version 1 --no-deps \
    | python3 -c 'import json, sys; print(json.load(sys.stdin)["target_directory"])')"

echo "== ci: pbppm-lint --self-test" >&2
cargo build -q -p pbppm-lint
lint="$target/debug/pbppm-lint"
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
pbppm="$target/release/pbppm"

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
    if [[ "$version" != 7 ]]; then
        echo "ci: train ($model) wrote format version $version, not 7" >&2
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
# The file's split (`file bytes N: envelope … settings …; url table I
# ids, S strings, D decoded bytes`) must add up to the file size, with no
# more strings than ids, and the loaded URL table's split (`interner
# bytes N: strings … ends … slots … presence …`), the
# loaded model's index split (`index bytes N: keys B wW dir_base B wW dir
# B wW dir_over B wW … vote_counts B wW vote_counts_over B wW; dirty
# groups D, largest M members`), arena split (`arena bytes N: urls B wW
# counts B wW counts_over B wW parents_base B wW parents B wW parents_over
# B wW first_child_base B wW first_child B wW first_child_over B wW held B
# w8 roots B w8 root_ranks B w4 link_offsets_base B wW link_offsets B wW
# link_offsets_over B wW`) and popularity split (`popularity bytes N:
# counts B wW counts_over B wW`) each to its printed total. A column may
# be any whole number of bytes wide, 1 to 8; a count column's outlier
# table is an entry of its own, whose width is the bytes of one slot: a
# listed position and its value. An offset column (`dir`, `parents`,
# `first_child`, `link_offsets`) is a frame column: its block bases
# (`…_base`) are one entry, its excesses over them a count column with its
# outlier table (`…`, `…_over`).
"$pbppm" audit "$tmp/model.pbss" >"$tmp/audit.txt"
python3 - "$tmp/audit.txt" "$tmp/model.pbss" <<'EOF'
import os, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"file bytes (\d+): ([^;\n]*); url table (\d+) ids, (\d+) strings, (\d+) decoded bytes", text)
if not m:
    sys.exit("ci: audit printed no file byte split with its url table")
if int(m.group(4)) > int(m.group(3)):
    sys.exit(f"ci: the url table holds {m.group(4)} strings over {m.group(3)} ids")
fields = m.group(2).split()
parts = sum(int(v) for v in fields[1::2])
size = os.path.getsize(sys.argv[2])
if parts != size or int(m.group(1)) != size:
    sys.exit(f"ci: file sections {fields} sum to {parts}, printed {m.group(1)}, file is {size}")
m = re.search(r"interner bytes (\d+): strings (\d+) ends (\d+) slots (\d+) presence (\d+)\n", text)
if not m:
    sys.exit("ci: audit printed no interner byte split")
parts = sum(int(v) for v in m.groups()[1:])
if parts != int(m.group(1)):
    sys.exit(f"ci: interner parts {m.groups()[1:]} sum to {parts}, not {m.group(1)}")
m = re.search(r"index bytes \d+: .*; dirty groups (\d+), largest \d+ members\n", text)
if not m:
    sys.exit("ci: audit printed no index byte split with its dirty groups")
g = re.search(r"\n  index groups: (\d+) voting windows filed, derived (\d+), clean (\d+), dirty (\d+), dropped (\d+)\n", text)
if not g:
    sys.exit("ci: audit printed no index group line")
if g.group(4) != m.group(1):
    sys.exit(f"ci: the index group line counts {g.group(4)} dirty groups, the byte split {m.group(1)}")
for label in ("index", "arena", "popularity"):
    m = re.search(label + r" bytes (\d+): ([^;\n]*)", text)
    if not m:
        sys.exit(f"ci: audit printed no {label} byte split")
    fields = m.group(2).split()
    widths = fields[2::3]
    if not widths or any(not re.fullmatch(r"w[1-8]", w) for w in widths):
        sys.exit(f"ci: {label} columns {fields} do not each carry a width")
    parts = sum(int(v) for v in fields[1::3])
    if parts != int(m.group(1)):
        sys.exit(f"ci: {label} parts {fields} sum to {parts}, not {m.group(1)}")
EOF
# The arena finds a root through its URL bitmaps: the split names the
# root bitmap and its rank directory, and no per-URL lookup column.
if ! grep -Eq '^  arena bytes [0-9]+: .* held [0-9]+ w8 roots [0-9]+ w8 root_ranks [0-9]+ w4 ' "$tmp/audit.txt" ||
    grep -q 'root_lookup' "$tmp/audit.txt"; then
    echo "ci: the pb arena's split does not name its root bitmap entries" >&2
    exit 1
fi
# The arena's parents and child runs are frame columns: the split names
# each one's block bases, so plain offset columns fail here.
if ! grep -Eq '^  arena bytes [0-9]+: .* parents_base [0-9]+ w[1-8] parents [0-9]+ w[1-8] parents_over [0-9]+ w[1-8] first_child_base [0-9]+ w[1-8] ' "$tmp/audit.txt"; then
    echo "ci: the pb arena's split does not name parents_base and first_child_base" >&2
    exit 1
fi
# Every tree model prints its arena's split.
for model in standard lrs o1; do
    "$pbppm" audit "$tmp/model-$model.pbss" >"$tmp/audit-$model.txt"
    grep -q '^  arena bytes [0-9]*: urls ' "$tmp/audit-$model.txt" || {
        echo "ci: audit printed no arena byte split for $model" >&2
        exit 1
    }
done
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
# Stamped version 6 (the layout that wrote every URL its writer had
# seen), the file must be refused by its version. Decode reads the version
# before the checksum, so the copy needs no new checksum.
python3 - "$tmp/model.pbss" "$tmp/v6.pbss" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[8:10] = (6).to_bytes(2, "little")
open(sys.argv[2], "wb").write(bytes(data))
EOF
if "$pbppm" audit "$tmp/v6.pbss" >"$tmp/v6-audit.txt" 2>&1; then
    echo "ci: audit accepted a version 6 snapshot" >&2
    exit 1
fi
grep -q 'unsupported snapshot version 6' "$tmp/v6-audit.txt" || {
    echo "ci: audit did not name version 6 when refusing it" >&2
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

echo "== ci: model file pin" >&2
# The model files step 5 trained from the tiny log, hashed. The pins were
# taken from the first binary to write format version 7 (a URL table of
# the strings the rows name), so a byte a change to the loaded model's
# layout moves on the way to the file fails here.
for pin in \
    "pb 348930aa655adc019b4e4ba4a42a1e0a6c384a4c4ae8a40d28ea2ffcad77706a" \
    "standard eb147afd84bfc9eac90c7a736bb744a81547a40d7d0cc62d80eb4387d2dcedc4" \
    "lrs 7a6c6094b3cd86d34c07b29048a13bfa7c84114a1d73ae953215c8babbedd735" \
    "o1 8d07c8e5cf7df333b2a5c80d8a1b9a0651762f861f9b60d50271d21d716a990b"; do
    read -r model want <<<"$pin"
    got="$(sha256sum "$tmp/model-$model.pbss" | cut -d' ' -f1)"
    if [[ "$got" != "$want" ]]; then
        echo "ci: train ($model) wrote a .pbss with sha256 $got, pinned $want" >&2
        exit 1
    fi
done

echo "== ci: predict answer pin" >&2
# Every 1- to 4-click window sliding over the tiny log's first 200 paths,
# answered in one batch by each model step 5 trained. The pins were taken
# from the first binary to skip a context URL that no row names (a window
# left with none answers "no predictions for this context"); every answer
# to a window whose URLs all label rows matched the binary before it,
# whose fingerprint index kept every voting window.
python3 - "$tmp/access.log" >"$tmp/contexts.txt" <<'EOF'
import sys
paths = []
for line in open(sys.argv[1]):
    paths.append(line.split('"')[1].split()[1])
    if len(paths) == 200:
        break
windows = [",".join(paths[i - k + 1:i + 1]) for i in range(len(paths)) for k in range(1, 5) if k <= i + 1]
print(";".join(windows))
EOF
for pin in \
    "pb 7191d24a7ae124ae0469bbfa2ba492889f11fd65cc7b6ea2d0092503f08c1214" \
    "standard af41dd03436f03e7aee26e01a49db0b64896df9484107b50a6d70154fef49db1" \
    "lrs 2513f46faf1423ecba27a8c2b2ad200fb04fd7d81b00f2da64480b4b6c64a37e" \
    "o1 8bc4b396a1fe1ae502be27623d2f20568a18c0d5093c261e509388eb7f7a66ab"; do
    read -r model want <<<"$pin"
    got="$("$pbppm" predict "$tmp/model-$model.pbss" --context "$(cat "$tmp/contexts.txt")" | sha256sum | cut -d' ' -f1)"
    if [[ "$got" != "$want" ]]; then
        echo "ci: batched predict ($model) answered with sha256 $got, pinned $want" >&2
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
