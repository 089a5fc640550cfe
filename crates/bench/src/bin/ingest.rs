//! Parse/train/end-to-end throughput of the parallel ingestion
//! pipeline; see `pbppm_bench::experiments::ingest`.

#![forbid(unsafe_code)]

// Peak-heap tracking is the point of this bench: the chunked parallel
// parse must not out-allocate the buffer-everything sequential one.
#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

fn main() {
    let report = pbppm_bench::experiments::ingest::run();
    pbppm_bench::write_baseline("ingest", &report);
}
