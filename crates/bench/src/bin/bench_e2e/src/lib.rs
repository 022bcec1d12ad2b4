#![forbid(unsafe_code)]
//! Shared half of the relia benchmark: the seeded workload inputs and the
//! metric vocabulary. `bench_e2e` (the `main` of this package) sends the
//! inputs to the shipped `relia` binary; `bench_layers` feeds the same
//! inputs to the library crates in-process. Keeping both on this one
//! std-only crate means the end-to-end half never depends on library APIs.

pub mod inputs;
pub mod stats;
