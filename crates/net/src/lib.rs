//! # scdn-net — simulated wide-area network and transfer clients
//!
//! Substitutes for the paper's GlobusTransfer-based transfer layer
//! (Section V-A): a geographic latency/bandwidth topology ([`topology`]),
//! a third-party transfer engine with retries and integrity verification
//! ([`transfer`]), and failure injection ([`failure`]).
//!
//! The model is deliberately simple but preserves what the CDN metrics
//! depend on: transfer time grows with distance and size, endpoints have
//! asymmetric up/down bandwidth, transfers can fail or corrupt data, and
//! every delivery is checksum-verified at the destination.

pub mod failure;
pub mod topology;
pub mod transfer;

pub use failure::FailureModel;
pub use topology::{LinkQuality, Topology};
pub use transfer::{CodedFetchReport, CodedSource, TransferEngine, TransferError, TransferReport};
