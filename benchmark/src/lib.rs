//! # scdn-benchmark — the repository's one benchmark
//!
//! Four workloads over the public `scdn_core::system::Scdn` API, each
//! replayed by one closed-loop client on one thread; end-to-end metrics
//! from untraced runs, per-layer metrics from a traced run. See
//! `README.md` for the tables and `../BENCHMARK.json` for the contract.

pub mod alloc_count;
pub mod bench;
pub mod checks;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod world;
