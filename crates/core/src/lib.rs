//! # scdn-core — the Social Content Delivery Network
//!
//! Wires every substrate into the system of Fig. 1 of the paper:
//! the Social Network Platform (`scdn-social`), Allocation Servers
//! (`scdn-alloc`), user-contributed Storage Repositories (`scdn-storage`)
//! connected by a simulated wide-area network (`scdn-net`), and the Social
//! Middleware (`scdn-middleware`), all observable through the Section V-E
//! metrics (`scdn-sim`).
//!
//! * [`system`] — the [`system::Scdn`] runtime: join, contribute storage,
//!   publish datasets, replicate, request, maintain;
//! * [`casestudy`] — the Section VI evaluation harness: replica placement
//!   on DBLP-style trust subgraphs, hit-rate measurement on test-year
//!   publications, multi-run sweeps (regenerates Table I and Fig. 2/3);
//! * [`scenario`] — end-to-end scenario driver combining a synthetic
//!   corpus, churn, a request workload, and the full system (used by the
//!   metrics experiments and the examples).

pub mod casestudy;
pub mod client;
pub mod scenario;
pub mod system;

// Serial ≡ pipelined gates. In-crate because the serial loops they compare
// against (`system`'s test-only `oracle.rs`) are not part of the built
// library.
#[cfg(test)]
mod coded_equivalence;
#[cfg(test)]
mod maintain_equivalence;
#[cfg(test)]
mod review_repro;

pub use casestudy::{CaseStudy, HitRateCurve};
pub use system::{RebalanceStrategy, Scdn, ScdnConfig, ScdnError};
