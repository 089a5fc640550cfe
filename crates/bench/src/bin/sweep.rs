//! See [`pbppm_bench::experiments::sweep`].

#![forbid(unsafe_code)]

fn main() {
    pbppm_bench::experiments::sweep::run();
}
