//! Measures prediction and simulation throughput and writes the perf
//! baseline (`BENCH_throughput.json`). With `PBPPM_PERF_BASELINE` set it
//! doubles as the perf-regression gate — see `scripts/perf-gate.sh`.

#![forbid(unsafe_code)]

fn main() {
    let report = pbppm_bench::experiments::throughput::run();
    pbppm_bench::write_baseline("throughput", &report);
}
