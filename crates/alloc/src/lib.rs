//! # scdn-alloc — allocation servers and placement algorithms
//!
//! The Allocation Server component of the S-CDN architecture (Section V-B)
//! and the replica selection / data allocation algorithms of Section V-D:
//!
//! * [`placement`] — replica placement over the social graph: the four
//!   case-study algorithms (Random, Node Degree, Community Node Degree,
//!   Clustering Coefficient), the three more the paper names
//!   (betweenness, social score, the My3-style availability cover) and
//!   two additions that each win a panel of the extended Fig. 3
//!   (PageRank, weighted degree);
//! * [`server`] — the allocation server: repository registry, dataset →
//!   replica catalog, request resolution, demand tracking, and replica
//!   migration;
//! * [`partitioning`] — data-segment partitioning across replicas: hash
//!   partitioning and the socially-informed community partitioner;
//! * [`ranking_cache`] — memoized full placement orderings for
//!   maintenance cycles (rank once per cycle, slice per dataset);
//! * [`replication`] — demand-driven replication level policies;
//! * [`discovery`] — replica selection for a requesting user (social
//!   distance, then latency, then availability).

mod catalog;
pub mod discovery;
pub mod partitioning;
pub mod placement;
pub mod ranking_cache;
pub mod replication;
mod resolve_cache;
pub mod server;

pub use catalog::{CatalogSnapshot, CatalogState, CodedInventory, Entry as CatalogEntry};
pub use placement::PlacementAlgorithm;
pub use ranking_cache::RankingCache;
pub use replication::{
    AdaptiveRebalance, CycleStats, DatasetStats, DemandWindow, RebalancePolicy, ReplicationPolicy,
    StaticRebalance,
};
pub use server::{AllocationError, AllocationServer, RebalanceItem, RebalancePlan, RepositoryInfo};

/// `Graph::from_edges`, frozen — the graph literal of the in-crate tests.
#[cfg(test)]
pub(crate) fn frozen(
    n: usize,
    edges: impl IntoIterator<Item = (u32, u32, u32)>,
) -> scdn_graph::CsrGraph {
    scdn_graph::CsrGraph::from(&scdn_graph::Graph::from_edges(n, edges))
}
