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
//! * [`ops`] — the operation stream: [`ops::Op`], [`Scdn::apply`] (the one
//!   way to change an `Scdn` from outside the runtime) and the outcome
//!   [`ops::Digest`];
//! * [`scenario`] — end-to-end scenario driver combining a synthetic
//!   corpus, churn, a request workload, and the full system (used by the
//!   metrics experiments and the examples).

pub mod casestudy;
pub mod client;
pub mod ops;
pub mod scenario;
pub mod system;

// Fixed and seeded op streams, and the deterministic systems they and
// the runtime's unit tests build on.
#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod fuzz;
#[cfg(test)]
mod golden;

pub use casestudy::{CaseStudy, HitRateCurve};
pub use system::{RebalanceStrategy, Scdn, ScdnConfig, ScdnError};

#[cfg(test)]
mod tests {
    /// This crate's `clippy.toml` is the root one without the entries
    /// that keep `Scdn`'s benchmark-named mutators out of other crates.
    #[test]
    fn the_crate_clippy_config_is_the_roots_but_for_the_mutators() {
        let entries = |config: &'static str| -> Vec<&'static str> {
            config
                .lines()
                .filter(|l| l.trim_start().starts_with("{ path"))
                .collect()
        };
        let root = entries(include_str!("../../../clippy.toml"));
        let core = entries(include_str!("../clippy.toml"));
        let (mutators, rest): (Vec<_>, Vec<_>) = root
            .into_iter()
            .partition(|l| l.contains("scdn_core::system::Scdn::"));
        assert_eq!(mutators.len(), 9, "the nine benchmark-named mutators");
        assert_eq!(core, rest);
    }
}
