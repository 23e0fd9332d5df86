//! # scdn-storage — user-contributed storage repositories
//!
//! Models the Storage Repository component of the S-CDN architecture
//! (Section V-A): each participant contributes a folder that is partitioned
//! into a CDN-managed, user-read-only **replica partition** and a free-use
//! **user partition**. Datasets are split into checksummed segments so the
//! allocation servers can partition data across replicas.
//!
//! * [`object`] — datasets, segments, sensitivity levels;
//! * [`coding`] — deterministic systematic erasure coding (any k of n
//!   coded blocks reconstruct a dataset; implemented here — no external
//!   coding crates);
//! * [`integrity`] — checksum algorithms (a word-wise multiply–xorshift
//!   digest and CRC-32, implemented here: no external hashing crates) and
//!   corruption detection;
//! * [`repository`] — the partitioned repository with quotas and eviction.
//!
//! The crate's only `unsafe` is in its two payload kernels on `x86_64`:
//! the carry-less-multiply CRC and the mix pass's prefetch in
//! [`integrity`], and the AVX2 split-nibble multiply in [`coding`]. Each
//! block names the baseline or run-time-detected feature it relies on,
//! and the lint below keeps it that way.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod coding;
pub mod integrity;
pub mod object;
pub mod repository;

pub use cache::{CacheManager, EvictionPolicy};
pub use coding::{
    decode_block_shards, decode_blocks, encode_block_rows, encode_blocks, is_coded_ordinal,
    CodedBlockId, CodingConfig, CodingError, CodingSpec, DecodedShards, ErasureCoder,
    CODED_ORDINAL_BASE,
};
pub use object::{Dataset, DatasetId, Segment, SegmentId, Sensitivity};
pub use repository::{Partition, RepoError, StorageRepository};
