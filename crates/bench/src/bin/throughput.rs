//! Measures prediction and simulation throughput and enforces the
//! fast-path floor; see `pbppm_bench::experiments::throughput`.

#![forbid(unsafe_code)]

fn main() {
    pbppm_bench::experiments::throughput::run();
}
