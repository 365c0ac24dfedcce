//! The DMI benchmark: four seeded workloads driven through the public
//! APIs, an untimed gate check of every output, the end-to-end metrics of
//! a timed run with tracing off, and the per-layer metrics of a separate
//! traced pass. See `README.md` in this directory.

pub mod layers;
pub mod run;
pub mod sample;
pub mod workload;
