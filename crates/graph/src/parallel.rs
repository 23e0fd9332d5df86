//! Every kernel and the case study run on one thread, so there is no
//! worker count to set.

/// Does nothing. `benchmark/src/bench.rs` still calls it, and it goes
/// with those calls.
pub fn set_worker_limit(_limit: usize) {}
