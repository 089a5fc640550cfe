#!/usr/bin/env bash
# Perf-regression gate: re-measures prediction and simulation throughput
# and fails (exit 1) if any gated metric, per model, regressed:
#
#   * frozen_ns_per_click        — single-click predict latency on the
#                                  frozen SoA/CSR arena serving path,
#                                  >15% slower than baseline fails
#   * batched_clicks_per_sec     — batched predict throughput, same 15%
#   * parallel_requests_per_sec  — end-to-end eval throughput, same 15%
#   * heap_bytes_per_node_frozen — frozen arena density; growing >15%
#                                  past baseline fails even if speed holds
#   * fast_path_speedup          — hard floor, baseline-independent: each
#                                  model's one serving path must stay
#                                  >= 1.0x the `pbppm_core::reference`
#                                  oracle scan
#   * serve predict_p99_ns       — p99 per-request latency through the
#                                  `pbppm serve` line protocol, same 15%
#                                  (skipped against baselines predating
#                                  the serve section)
#
# followed by the open-loop leg: the `loadgen` binary replays a Poisson
# arrival process against the sharded serving core and gates each
# command's p99 (scheduled arrival -> completion, so queueing delay
# counts) against BENCH_loadgen.json, with a 100% tolerance sized for
# open-loop tail noise.
#
# followed by the ingest leg: the `ingest` binary measures the build
# pipeline (CLF log -> parsed trace -> sessions -> frozen PB-PPM model)
# sequentially and through the chunked parallel path, and gates against
# BENCH_ingest.json:
#
#   * parse/train/end_to_end wall — each phase, both paths, >100% slower
#                                   than baseline fails (tolerance sized
#                                   like loadgen's: short wall times on a
#                                   busy box jitter hard)
#   * end-to-end speedup          — baseline-independent floor: >= 2x on
#                                   hosts with >= 4 cores (skipped on
#                                   narrower machines, where there is no
#                                   parallelism to win)
#   * parse peak heap             — baseline-independent: the chunked
#                                   parse may peak at most 1.25x the
#                                   buffer-everything sequential parse
#
# Usage: scripts/perf-gate.sh [baseline.json [loadgen-baseline.json [ingest-baseline.json]]]
#
# Baselines default to BENCH_throughput.json, BENCH_loadgen.json, and
# BENCH_ingest.json at the repo root. To refresh after an intentional
# perf change, run the binaries without this script and commit the
# rewritten files:
#
#   cargo run --release -p pbppm-bench --bin throughput
#   cargo run --release -p pbppm-bench --bin loadgen
#   cargo run --release -p pbppm-bench --bin ingest
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="${1:-$repo/BENCH_throughput.json}"
loadgen_baseline="${2:-$repo/BENCH_loadgen.json}"
ingest_baseline="${3:-$repo/BENCH_ingest.json}"

if [[ ! -f "$baseline" ]]; then
    echo "perf-gate: no baseline at $baseline" >&2
    echo "perf-gate: run 'cargo run --release -p pbppm-bench --bin throughput' once and commit BENCH_throughput.json" >&2
    exit 2
fi
if [[ ! -f "$loadgen_baseline" ]]; then
    echo "perf-gate: no loadgen baseline at $loadgen_baseline" >&2
    echo "perf-gate: run 'cargo run --release -p pbppm-bench --bin loadgen' once and commit BENCH_loadgen.json" >&2
    exit 2
fi
if [[ ! -f "$ingest_baseline" ]]; then
    echo "perf-gate: no ingest baseline at $ingest_baseline" >&2
    echo "perf-gate: run 'cargo run --release -p pbppm-bench --bin ingest' once and commit BENCH_ingest.json" >&2
    exit 2
fi

# The fresh runs overwrite BENCH_throughput.json / BENCH_loadgen.json /
# BENCH_ingest.json at the repo root, so the comparisons read copies of
# the committed baselines. The binaries themselves perform the
# comparison and set the exit code.
tmp="$(mktemp)"
lg_tmp="$(mktemp)"
in_tmp="$(mktemp)"
trap 'rm -f "$tmp" "$lg_tmp" "$in_tmp"' EXIT
cp "$baseline" "$tmp"
cp "$loadgen_baseline" "$lg_tmp"
cp "$ingest_baseline" "$in_tmp"

status=0
PBPPM_PERF_BASELINE="$tmp" cargo run --release -p pbppm-bench --bin throughput || status=$?

# On a regression (exit 1), render the run's span-level telemetry so the
# failure names where the time went, not just which metric moved. The
# report is written before the gate runs, so it exists even on failure.
metrics="${PBPPM_RESULTS:-$repo/results}/run_metrics_throughput.json"
if [[ "$status" -eq 1 && -f "$metrics" ]]; then
    echo >&2
    echo "perf-gate: span-level breakdown of the failing run ($metrics):" >&2
    cargo run -q --release -p pbppm-cli --bin pbppm -- stats "$metrics" >&2 || true
fi

echo "perf-gate: open-loop loadgen leg" >&2
lg_status=0
PBPPM_PERF_BASELINE_LOADGEN="$lg_tmp" cargo run --release -p pbppm-bench --bin loadgen || lg_status=$?
if [[ "$status" -eq 0 ]]; then
    status="$lg_status"
fi

echo "perf-gate: build-pipeline ingest leg" >&2
in_status=0
PBPPM_PERF_BASELINE_INGEST="$in_tmp" cargo run --release -p pbppm-bench --bin ingest || in_status=$?
if [[ "$status" -eq 0 ]]; then
    status="$in_status"
fi

exit "$status"
