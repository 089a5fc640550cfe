//! Open-loop load generation against the sharded serving core; see
//! `pbppm_bench::experiments::loadgen`.

#![forbid(unsafe_code)]

fn main() {
    let report = pbppm_bench::experiments::loadgen::run();
    pbppm_bench::write_baseline("loadgen", &report);
}
