//! The allocation server: repository registry, replica catalog, and
//! demand tracking.
//!
//! "One or more allocation servers act as catalogs for global datasets …
//! together they maintain a list of current replicas and place, move,
//! update, and maintain replicas." (Section V.)
//!
//! The whole state is one `Catalog` table (`catalog.rs`) in one
//! `RefCell`: the dataset entries with their demand counts, the hosted
//! index, the repository registry, the version counter, the hop cache and
//! the search scratch. Every method borrows it once. Request resolution — the per-request control-plane hot path —
//! allocates only on a cache miss:
//!
//! * [`resolve_csr`](AllocationServer::resolve_csr) runs a
//!   meet-in-the-middle search on a frozen CSR graph through the
//!   catalog's [`TraversalScratch`] that settles only the nearest online
//!   replica and the replicas at its distance, visiting a level or two
//!   past a near hub instead of the graph;
//! * hop distances are memoized with the search's bound in a
//!   version-keyed `ResolveCache` — catalog writes bump the entry
//!   version, which invalidates stale hops without touching the cache,
//!   so commits to *other* datasets retain every cached hop table;
//! * a caller reading many datasets at one catalog state copies a
//!   [`snapshot`](AllocationServer::snapshot) and resolves against it
//!   via [`resolve_csr_snapshot`](AllocationServer::resolve_csr_snapshot),
//!   recording the accounting later through
//!   [`commit_resolution`](AllocationServer::commit_resolution).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_obs::{Counter, Registry};
use scdn_social::author::AuthorId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::DatasetId;

use crate::catalog::{Catalog, CatalogSnapshot, CatalogState, CodedInventory, Entry};
use crate::discovery::{select_from_hops, Selection};
use crate::replication::{CycleStats, DatasetStats, DemandWindow, RebalancePolicy};
use crate::resolve_cache::ResolveCache;

/// Default bound on the version-keyed hop-distance cache (entries).
pub const DEFAULT_RESOLVE_CACHE_CAPACITY: usize = 4096;

/// Telemetry handles for one allocation server. Standalone by default;
/// bind to a [`Registry`] with [`AllocMetrics::from_registry`] so the
/// counts appear in exported snapshots under the `alloc.*` namespace.
#[derive(Clone, Debug, Default)]
pub struct AllocMetrics {
    /// Requests resolved to an online replica.
    pub resolve_ok: Counter,
    /// Requests that found no usable replica (unknown dataset or all
    /// replicas offline).
    pub resolve_failed: Counter,
    /// Resolutions served within one social hop.
    pub demand_hits: Counter,
    /// Resolutions that needed a distant replica.
    pub demand_misses: Counter,
    /// Resolutions whose hop distances came from the version-keyed cache.
    pub cache_hits: Counter,
    /// Resolutions that had to run the multi-target search.
    pub cache_misses: Counter,
    /// Cached slots at the entry's current version that could not decide
    /// the request: the best replica online now lies beyond the bound the
    /// slot was searched under, so the lookup searched again (each is
    /// also one of `cache_misses`).
    pub cache_bound_misses: Counter,
    /// Graph nodes visited by those searches, forward and backward
    /// regions together (`TraversalScratch::last_visited`, added per
    /// miss): divided by `cache_misses` it says whether a slow miss was
    /// slow in the graph.
    pub bfs_visited: Counter,
    /// Replicas those searches left unsettled, added per miss: each lies
    /// beyond the nearest online replica (or is unreachable), so its
    /// distance was never computed.
    pub targets_beyond_bound: Counter,
    /// Cache entries evicted by the capacity bound or by a
    /// distance-changing graph delta.
    pub cache_evictions: Counter,
    /// Cache entries kept across a graph delta that changed no hop
    /// distance ([`note_graph_delta`](AllocationServer::note_graph_delta)).
    pub cache_retained: Counter,
    /// Datasets flagged for replica-count changes by rebalance plans.
    pub rebalance_datasets: Counter,
}

impl AllocMetrics {
    /// Handles registered in `reg` under `alloc.*` metric names.
    pub fn from_registry(reg: &Registry) -> AllocMetrics {
        AllocMetrics {
            resolve_ok: reg.counter("alloc.resolve.ok"),
            resolve_failed: reg.counter("alloc.resolve.failed"),
            demand_hits: reg.counter("alloc.demand.hits"),
            demand_misses: reg.counter("alloc.demand.misses"),
            cache_hits: reg.counter("alloc.resolve.cache.hit"),
            cache_misses: reg.counter("alloc.resolve.cache.miss"),
            cache_bound_misses: reg.counter("alloc.resolve.cache.bound_miss"),
            bfs_visited: reg.counter("alloc.resolve.bfs.visited"),
            targets_beyond_bound: reg.counter("alloc.resolve.bfs.targets_beyond_bound"),
            cache_evictions: reg.counter("alloc.resolve.cache.evict"),
            cache_retained: reg.counter("alloc.resolve.cache.retained"),
            rebalance_datasets: reg.counter("alloc.rebalance.datasets"),
        }
    }
}

/// Registry entry for a contributed repository.
#[derive(Clone, Debug, PartialEq)]
pub struct RepositoryInfo {
    /// The owner's node in the social graph (also the network node index).
    pub node: NodeId,
    /// Owning author.
    pub owner: AuthorId,
    /// Contributed capacity in bytes.
    pub capacity: u64,
    /// Monitored long-run availability fraction (from the CDN client's
    /// "system statistics … sent to allocation servers").
    pub availability: f64,
}

/// Errors from allocation operations.
#[derive(Debug, PartialEq, Eq)]
pub enum AllocationError {
    /// Dataset is not in the catalog.
    UnknownDataset(DatasetId),
    /// The node is not a registered repository.
    UnknownRepository(NodeId),
    /// No online replica could serve the request.
    NoReplicaAvailable(DatasetId),
    /// Dataset already registered.
    DuplicateDataset(DatasetId),
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            AllocationError::UnknownRepository(n) => write!(f, "unknown repository {n:?}"),
            AllocationError::NoReplicaAvailable(d) => {
                write!(f, "no online replica for {d:?}")
            }
            AllocationError::DuplicateDataset(d) => write!(f, "dataset {d:?} already exists"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// One replica-count change a rebalance plan wants: grow when
/// `target > current`, shrink when `target < current` (equal counts are
/// never emitted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebalanceItem {
    /// The dataset to adjust.
    pub dataset: DatasetId,
    /// Replica count at plan time.
    pub current: usize,
    /// Replica count the policy wants. Maintenance honors this verbatim
    /// — floors and ceilings live in the policy, not in the cycle.
    pub target: usize,
}

/// Output of [`AllocationServer::rebalance_plan`]: the replica-count
/// changes to apply, plus the demand observation (absolute per-dataset
/// counter totals at plan time) that
/// [`drain_demand`](AllocationServer::drain_demand) needs to open the
/// next window without losing mid-cycle requests.
#[derive(Clone, Debug)]
pub struct RebalancePlan {
    /// Datasets whose replica count should change, dataset-sorted.
    pub items: Vec<RebalanceItem>,
    /// `(dataset, hits total, misses total)` at the plan's window read,
    /// for every dataset in the catalog — the drain baseline.
    observed: Vec<(DatasetId, u64, u64)>,
}

impl RebalancePlan {
    /// The `(dataset, current, target)` triples, for drivers that want
    /// the old tuple shape.
    pub fn triples(&self) -> impl Iterator<Item = (DatasetId, usize, usize)> + '_ {
        self.items
            .iter()
            .map(|item| (item.dataset, item.current, item.target))
    }
}

/// An allocation server: one catalog cell, borrowed once per method, so
/// the mutators take `&self`.
pub struct AllocationServer {
    catalog: RefCell<Catalog>,
    metrics: AllocMetrics,
}

impl Default for AllocationServer {
    fn default() -> Self {
        AllocationServer {
            catalog: RefCell::new(Catalog::new()),
            metrics: AllocMetrics::default(),
        }
    }
}

impl AllocationServer {
    /// New empty server with standalone (unregistered) metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty server whose metrics are bound to `reg` (exported under
    /// `alloc.*`).
    pub fn with_registry(reg: &Registry) -> Self {
        AllocationServer {
            metrics: AllocMetrics::from_registry(reg),
            ..Self::default()
        }
    }

    /// This server's telemetry handles.
    pub fn metrics(&self) -> &AllocMetrics {
        &self.metrics
    }

    /// Announce a social-graph change `old → new` produced by
    /// [`CsrGraph::apply_delta`]. The hop cache is evicted by generation:
    /// a delta that changed no hop distance (weight-only reinforcement,
    /// isolated activation) keeps every entry warm for the next resolve on
    /// `new`; any other delta flushes it (see `resolve_cache` module docs).
    /// Without this call, the next resolve on `new` flushes the cache
    /// wholesale (unannounced generation change).
    ///
    /// Returns `(retained, evicted)` entry counts; both are also exported
    /// via `alloc.resolve.cache.retained` / `alloc.resolve.cache.evict`.
    pub fn note_graph_delta(&self, old: &CsrGraph, new: &CsrGraph) -> (u64, u64) {
        let outcome = self.catalog.borrow_mut().cache.apply_delta(old, new);
        self.metrics.cache_retained.add(outcome.retained);
        self.metrics.cache_evictions.add(outcome.evicted);
        (outcome.retained, outcome.evicted)
    }

    /// A copy of every catalog entry, taken at one catalog state:
    /// O(datasets).
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.catalog.borrow().snapshot()
    }

    /// The whole catalog as one value, for comparing two catalog states:
    /// O(datasets + members).
    pub fn state(&self) -> CatalogState {
        self.catalog.borrow().state()
    }

    /// Register (or update) a contributed repository.
    pub fn register_repository(&self, info: RepositoryInfo) {
        self.register_repositories(std::iter::once(info));
    }

    /// Register (or update) many repositories in one borrow. System
    /// build-up registers every member through this.
    pub fn register_repositories(&self, infos: impl IntoIterator<Item = RepositoryInfo>) {
        let mut catalog = self.catalog.borrow_mut();
        catalog
            .repos
            .extend(infos.into_iter().map(|info| (info.node, info)));
    }

    /// Registered repository count.
    pub fn repository_count(&self) -> usize {
        self.catalog.borrow().repos.len()
    }

    /// Fetch a repository record.
    pub fn repository(&self, node: NodeId) -> Option<RepositoryInfo> {
        self.catalog.borrow().repos.get(&node).cloned()
    }

    /// Update a repository's monitored availability (CDN-client
    /// telemetry), clamped to `[0, 1]`. Availability is telemetry, not a
    /// catalog entry: no version moves.
    pub fn report_availability(
        &self,
        node: NodeId,
        availability: f64,
    ) -> Result<(), AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let info = catalog
            .repos
            .get_mut(&node)
            .ok_or(AllocationError::UnknownRepository(node))?;
        info.availability = availability.clamp(0.0, 1.0);
        Ok(())
    }

    /// Register a dataset with its segment count and initial (primary)
    /// replica — the publishing researcher's own repository.
    pub fn register_dataset(
        &self,
        dataset: DatasetId,
        segments: u32,
        primary: NodeId,
    ) -> Result<(), AllocationError> {
        self.register(dataset, segments, primary, None)
    }

    /// Register an erasure-coded dataset: like
    /// [`register_dataset`](Self::register_dataset), but the catalog also
    /// records the coding parameters so maintenance and multi-source
    /// fetch know the dataset's blocks are `spec.k`-of-`spec.n()`
    /// reconstructible. The primary starts with a whole (plain) copy;
    /// coded blocks are announced per host via
    /// [`add_coded_blocks`](Self::add_coded_blocks) as they land.
    pub fn register_dataset_coded(
        &self,
        dataset: DatasetId,
        segments: u32,
        primary: NodeId,
        spec: CodingSpec,
    ) -> Result<(), AllocationError> {
        self.register(dataset, segments, primary, Some(spec))
    }

    fn register(
        &self,
        dataset: DatasetId,
        segments: u32,
        primary: NodeId,
        coding: Option<CodingSpec>,
    ) -> Result<(), AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        catalog.repo(primary)?;
        if catalog.entries.contains_key(&dataset) {
            return Err(AllocationError::DuplicateDataset(dataset));
        }
        let entry = Entry::new(primary, segments, coding);
        catalog.entries.insert(dataset, entry);
        catalog.stamp(dataset, &[primary]);
        Ok(())
    }

    /// Erasure-coding parameters of `dataset` (`None` for whole-replica
    /// datasets).
    pub fn coding_of(&self, dataset: DatasetId) -> Result<Option<CodingSpec>, AllocationError> {
        self.catalog.borrow().entry(dataset).map(|e| e.coding)
    }

    /// Current per-host coded-block inventory of `dataset`:
    /// `(host, sorted block indices)`, ordered by node id.
    pub fn coded_inventory(&self, dataset: DatasetId) -> Result<CodedInventory, AllocationError> {
        let catalog = self.catalog.borrow();
        catalog.entry(dataset).map(|e| e.coded_hosts.clone())
    }

    /// Announce that `node` now holds coded blocks `blocks` of `dataset`
    /// (merged into any inventory it already advertised). Returns `true`
    /// if the inventory actually changed; a no-op announcement burns no
    /// version, mirroring [`add_replica`](Self::add_replica)'s
    /// idempotence.
    pub fn add_coded_blocks(
        &self,
        dataset: DatasetId,
        node: NodeId,
        blocks: &[u32],
    ) -> Result<bool, AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let entry = catalog.entry_mut(dataset, Some(node))?;
        let held = entry.coded_hosts.iter().position(|(n, _)| *n == node);
        let mut merged: Vec<u32> =
            held.map_or_else(Vec::new, |i| (*entry.coded_hosts[i].1).clone());
        let before = merged.len();
        for &b in blocks {
            if !merged.contains(&b) {
                merged.push(b);
            }
        }
        if merged.len() == before {
            return Ok(false);
        }
        merged.sort_unstable();
        match held {
            Some(i) => entry.coded_hosts[i].1 = Arc::new(merged),
            None => {
                let at = entry.coded_hosts.partition_point(|&(n, _)| n < node);
                entry.coded_hosts.insert(at, (node, Arc::new(merged)));
            }
        }
        catalog.stamp(dataset, &[node]);
        Ok(true)
    }

    /// Drop `node`'s entire coded-block inventory for `dataset` (host
    /// departed or its blocks were found corrupt). Returns `true` if it
    /// held anything; removing an absent host burns no version.
    pub fn remove_coded_host(
        &self,
        dataset: DatasetId,
        node: NodeId,
    ) -> Result<bool, AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let entry = catalog.entry_mut(dataset, None)?;
        let before = entry.coded_hosts.len();
        entry.coded_hosts.retain(|(n, _)| *n != node);
        if entry.coded_hosts.len() == before {
            return Ok(false);
        }
        catalog.stamp(dataset, &[node]);
        Ok(true)
    }

    /// Number of datasets in the catalog.
    pub fn dataset_count(&self) -> usize {
        self.catalog.borrow().entries.len()
    }

    /// Current replica locations of a dataset.
    pub fn replicas_of(&self, dataset: DatasetId) -> Result<Vec<NodeId>, AllocationError> {
        self.catalog
            .borrow()
            .entry(dataset)
            .map(|e| e.replicas.clone())
    }

    /// Segment count of a dataset.
    pub fn segments_of(&self, dataset: DatasetId) -> Result<u32, AllocationError> {
        self.catalog.borrow().entry(dataset).map(|e| e.segments)
    }

    /// Add a single replica location for `dataset` (used by the system
    /// runtime after a successful replication transfer). Returns `false`,
    /// and burns no version, if the node already hosts the dataset.
    pub fn add_replica(&self, dataset: DatasetId, node: NodeId) -> Result<bool, AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let entry = catalog.entry_mut(dataset, Some(node))?;
        if entry.replicas.contains(&node) {
            return Ok(false);
        }
        entry.replicas.push(node);
        catalog.stamp(dataset, &[node]);
        Ok(true)
    }

    /// Remove a replica location for `dataset`. Returns `true` if removed.
    /// The node stays in the hosted index while it holds coded blocks.
    pub fn remove_replica(
        &self,
        dataset: DatasetId,
        node: NodeId,
    ) -> Result<bool, AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let entry = catalog.entry_mut(dataset, None)?;
        let before = entry.replicas.len();
        entry.replicas.retain(|&n| n != node);
        if entry.replicas.len() == before {
            return Ok(false);
        }
        catalog.stamp(dataset, &[node]);
        Ok(true)
    }

    /// Move a replica from one node to another (migration); onto a node
    /// that already hosts one, the two collapse. Migrating a replica onto
    /// itself changes nothing, and a failed migration changes nothing
    /// either: neither bumps the entry version (or invalidates the hop
    /// cache keyed on it).
    pub fn migrate_replica(
        &self,
        dataset: DatasetId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), AllocationError> {
        let mut catalog = self.catalog.borrow_mut();
        let entry = catalog.entry_mut(dataset, Some(to))?;
        let Some(pos) = entry.replicas.iter().position(|&n| n == from) else {
            return Err(AllocationError::UnknownRepository(from));
        };
        if from == to {
            return Ok(());
        }
        if entry.replicas.contains(&to) {
            entry.replicas.remove(pos);
        } else {
            entry.replicas[pos] = to;
        }
        catalog.stamp(dataset, &[from, to]);
        Ok(())
    }

    /// Resolve a request: pick the best online replica for `requester`
    /// on the frozen social graph. `online` reports current liveness per
    /// node. Records the outcome and the demand (hit = within 1 social
    /// hop) in the same borrow.
    ///
    /// Hop distances come from the version-keyed cache when its slot
    /// decides the winner under this call's `online`; otherwise one
    /// nearest-target search (forward from the requester, backward from
    /// each replica, highest degree first, stopping at the nearest online
    /// replica's distance; reused scratch, no per-request allocation
    /// proportional to the graph) recomputes and caches them with their
    /// bound. The selection equals ranking the replicas by a full BFS
    /// from the requester.
    ///
    /// The cache assumes `csr` is the announced snapshot: passing a graph
    /// with an unannounced [`CsrGraph::generation`] flushes it wholesale,
    /// while a distance-preserving delta routed through
    /// [`note_graph_delta`](AllocationServer::note_graph_delta) keeps every
    /// entry warm.
    pub fn resolve_csr(
        &self,
        dataset: DatasetId,
        requester: NodeId,
        csr: &CsrGraph,
        online: impl Fn(NodeId) -> bool,
        latency_ms: impl Fn(NodeId) -> f64,
    ) -> Result<Selection, AllocationError> {
        let mut guard = self.catalog.borrow_mut();
        let catalog = &mut *guard;
        let (sel, _) = self.select(
            catalog.entries.get(&dataset),
            &catalog.repos,
            &mut catalog.cache,
            &mut catalog.scratch,
            dataset,
            requester,
            csr,
            online,
            latency_ms,
        );
        let outcome = sel.as_ref().ok().map(|s| s.social_hops);
        self.record(&mut catalog.entries, dataset, outcome);
        sel
    }

    /// [`resolve_csr`](AllocationServer::resolve_csr) against a
    /// caller-held [`CatalogSnapshot`]: the replica set and entry version
    /// come from the snapshot, and the monitored availability from the
    /// live registry. The selection is identical, but the resolve/demand
    /// accounting is deferred — the caller records the outcome it acts on
    /// via [`commit_resolution`](AllocationServer::commit_resolution).
    /// Also returns the version of the catalog entry the selection was
    /// computed against (`None` for an unregistered dataset), comparable
    /// with [`catalog_version`](AllocationServer::catalog_version).
    /// Hop-cache counters (`alloc.resolve.cache.*`)
    /// still tick: they instrument the cache mechanics, not the request
    /// outcome.
    pub fn resolve_csr_snapshot(
        &self,
        snap: &CatalogSnapshot,
        dataset: DatasetId,
        requester: NodeId,
        csr: &CsrGraph,
        online: impl Fn(NodeId) -> bool,
        latency_ms: impl Fn(NodeId) -> f64,
    ) -> (Result<Selection, AllocationError>, Option<u64>) {
        let mut guard = self.catalog.borrow_mut();
        let catalog = &mut *guard;
        self.select(
            snap.entries.get(&dataset),
            &catalog.repos,
            &mut catalog.cache,
            &mut catalog.scratch,
            dataset,
            requester,
            csr,
            online,
            latency_ms,
        )
    }

    /// Record the outcome of a deferred resolution:
    /// `Some(hops)` for a successful selection (its social-hop distance),
    /// `None` for a failed resolve. This is the accounting
    /// [`resolve_csr`](AllocationServer::resolve_csr) performs inline and
    /// the snapshot variant defers.
    pub fn commit_resolution(&self, dataset: DatasetId, outcome: Option<Option<u32>>) {
        self.record(&mut self.catalog.borrow_mut().entries, dataset, outcome);
    }

    fn record(
        &self,
        entries: &mut HashMap<DatasetId, Entry>,
        dataset: DatasetId,
        outcome: Option<Option<u32>>,
    ) {
        let Some(hops) = outcome else {
            self.metrics.resolve_failed.inc();
            return;
        };
        self.metrics.resolve_ok.inc();
        let Some(entry) = entries.get_mut(&dataset) else {
            return;
        };
        if matches!(hops, Some(h) if h <= 1) {
            entry.hits += 1;
            self.metrics.demand_hits.inc();
        } else {
            entry.misses += 1;
            self.metrics.demand_misses.inc();
        }
    }

    /// Current catalog-entry version of `dataset` (`None` if unknown).
    /// Every change to the entry bumps it, so two equal readings mean
    /// the entry did not change in between.
    pub fn catalog_version(&self, dataset: DatasetId) -> Option<u64> {
        self.catalog
            .borrow()
            .entries
            .get(&dataset)
            .map(|e| e.version)
    }

    /// The resolution core: rank `entry`'s replicas for `requester` from
    /// a cached slot that decides this call's liveness, or from one
    /// nearest-target search that refills the slot. Records no outcome.
    #[allow(clippy::too_many_arguments)]
    fn select(
        &self,
        entry: Option<&Entry>,
        repos: &HashMap<NodeId, RepositoryInfo>,
        cache: &mut ResolveCache,
        scratch: &mut TraversalScratch,
        dataset: DatasetId,
        requester: NodeId,
        csr: &CsrGraph,
        online: impl Fn(NodeId) -> bool,
        latency_ms: impl Fn(NodeId) -> f64,
    ) -> (Result<Selection, AllocationError>, Option<u64>) {
        cache.ensure_graph(csr);
        let Some(entry) = entry else {
            return (Err(AllocationError::UnknownDataset(dataset)), None);
        };
        let key = (requester, dataset);
        let replicas = &entry.replicas;
        let rank = |hops: &[Option<u32>]| {
            select_from_hops(
                replicas.len(),
                |i| online(replicas[i]).then(|| (replicas[i], hops.get(i).copied().flatten())),
                |i| {
                    let availability = repos.get(&replicas[i]).map_or(0.0, |r| r.availability);
                    (latency_ms(replicas[i]), availability)
                },
            )
        };
        let cached = cache.hops(key, entry.version).map(|(hops, bound)| {
            let sel = rank(hops);
            // Decided iff no replica is online or the winner lies within
            // the bound: every replica that could beat it was settled.
            let decided = sel.is_none_or(|s| s.social_hops.unwrap_or(u32::MAX) <= bound);
            (sel, decided)
        });
        let sel = match cached {
            Some((sel, true)) => {
                self.metrics.cache_hits.inc();
                sel
            }
            undecided => {
                if undecided.is_some() {
                    self.metrics.cache_bound_misses.inc();
                }
                self.metrics.cache_misses.inc();
                // Unbounded budget: the bound is the nearest online
                // replica's distance, and hop counts are full-BFS exact.
                let bound = scratch.bfs_to_nearest(csr, requester, replicas, u32::MAX, &online);
                self.metrics.bfs_visited.add(scratch.last_visited() as u64);
                let hops: Box<[Option<u32>]> =
                    replicas.iter().map(|&r| scratch.target_hops(r)).collect();
                let unsettled = hops.iter().filter(|h| h.is_none()).count();
                self.metrics.targets_beyond_bound.add(unsettled as u64);
                let sel = rank(&hops);
                let evicted = cache.insert(key, entry.version, bound, hops);
                self.metrics.cache_evictions.add(evicted);
                sel
            }
        };
        let sel = sel.ok_or(AllocationError::NoReplicaAvailable(dataset));
        (sel, Some(entry.version))
    }

    /// All datasets with a replica or coded block on `node` (used for
    /// departure repair), from the hosted index in O(answer).
    pub fn datasets_hosted_by(&self, node: NodeId) -> Vec<DatasetId> {
        self.catalog.borrow().hosted_by(node)
    }

    /// Demand window of a dataset (for the replication policy).
    pub fn demand_of(&self, dataset: DatasetId) -> Result<DemandWindow, AllocationError> {
        self.catalog.borrow().entry(dataset).map(Entry::window)
    }

    /// Drain every demand window **to the totals `plan` observed**: the
    /// window opens exactly at the counts `rebalance_plan` read, so
    /// requests resolved mid-cycle (after the plan's read, before this
    /// drain) stay visible in the next window. Datasets registered since
    /// the plan are untouched — their demand belongs to the window that is
    /// just opening.
    pub fn drain_demand(&self, plan: &RebalancePlan) {
        let mut catalog = self.catalog.borrow_mut();
        for &(dataset, hits, misses) in &plan.observed {
            if let Some(entry) = catalog.entries.get_mut(&dataset) {
                entry.hits_drained = entry.hits_drained.max(hits);
                entry.misses_drained = entry.misses_drained.max(misses);
            }
        }
    }

    /// Datasets whose replica count should change under `policy`, plus
    /// the demand observation the cycle must drain to when it finishes.
    ///
    /// Two passes: the per-dataset windows (read once, at their absolute
    /// totals) are aggregated into the [`CycleStats`] every policy
    /// evaluation receives, then the policy is asked for each dataset's
    /// target. Policy evaluations are pure, so the second pass is
    /// order-independent; the emitted items are dataset-sorted.
    pub fn rebalance_plan<P: RebalancePolicy>(&self, policy: &P) -> RebalancePlan {
        let catalog = self.catalog.borrow();
        let mut observed: Vec<(DatasetId, u64, u64)> = Vec::new();
        let mut stats: Vec<(DatasetId, DatasetStats)> = Vec::new();
        let mut cycle = CycleStats::default();
        for (&d, e) in &catalog.entries {
            let window = e.window();
            observed.push((d, e.hits, e.misses));
            stats.push((
                d,
                DatasetStats {
                    current: e.replicas.len(),
                    demand: window,
                    segments: e.segments,
                },
            ));
            cycle.datasets += 1;
            cycle.total_replicas += e.replicas.len();
            cycle.demand.hits += window.hits;
            cycle.demand.misses += window.misses;
        }
        drop(catalog);
        let mut items: Vec<RebalanceItem> = stats
            .into_iter()
            .filter_map(|(dataset, s)| {
                let target = policy.target(&s, &cycle);
                (target != s.current).then_some(RebalanceItem {
                    dataset,
                    current: s.current,
                    target,
                })
            })
            .collect();
        items.sort_by_key(|item| item.dataset);
        observed.sort_by_key(|&(d, _, _)| d);
        self.metrics.rebalance_datasets.add(items.len() as u64);
        RebalancePlan { items, observed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{select_replica_full_bfs, Candidate};
    use crate::placement::PlacementAlgorithm;
    use crate::replication::ReplicationPolicy;

    fn barabasi_albert(n: usize, m: usize, seed: u64) -> CsrGraph {
        CsrGraph::from(&scdn_graph::generators::barabasi_albert(n, m, seed))
    }

    fn path(n: u32) -> CsrGraph {
        crate::frozen(n as usize, (1..n).map(|v| (v - 1, v, 1)))
    }

    fn server_with_repos(g: &CsrGraph) -> AllocationServer {
        let srv = AllocationServer::new();
        srv.register_repositories(g.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1 << 30,
            availability: 0.9,
        }));
        srv
    }

    #[test]
    fn register_and_place() {
        let g = barabasi_albert(100, 2, 1);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 8, NodeId(5))
            .expect("registers");
        // The runtime's replication walk: rank, then announce each host
        // that took the segments.
        let ranked = PlacementAlgorithm::NodeDegree.place(&g, 3, 0);
        let added = ranked
            .iter()
            .filter(|&&n| srv.add_replica(DatasetId(0), n).expect("registered"))
            .count();
        let reps = srv.replicas_of(DatasetId(0)).expect("known");
        assert_eq!(reps.len(), 1 + added, "the primary stays");
        assert_eq!(reps[0], NodeId(5));
        assert!(ranked.iter().all(|n| reps.contains(n)));
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let g = barabasi_albert(10, 2, 1);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(1), 1, NodeId(0))
            .expect("ok");
        assert_eq!(
            srv.register_dataset(DatasetId(1), 1, NodeId(1))
                .unwrap_err(),
            AllocationError::DuplicateDataset(DatasetId(1))
        );
    }

    #[test]
    fn unknown_primary_rejected() {
        let srv = AllocationServer::new();
        assert_eq!(
            srv.register_dataset(DatasetId(0), 1, NodeId(3))
                .unwrap_err(),
            AllocationError::UnknownRepository(NodeId(3))
        );
    }

    #[test]
    fn unregistered_nodes_cannot_host() {
        let g = barabasi_albert(50, 2, 2);
        let srv = AllocationServer::new();
        // Register only even nodes.
        srv.register_repositories(g.nodes().filter(|v| v.0 % 2 == 0).map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1,
            availability: 1.0,
        }));
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        for n in PlacementAlgorithm::NodeDegree.place(&g, 5, 0) {
            let hosted = srv.add_replica(DatasetId(0), n);
            if n.0 % 2 == 1 {
                assert_eq!(hosted.unwrap_err(), AllocationError::UnknownRepository(n));
            }
        }
        for n in srv.replicas_of(DatasetId(0)).expect("known") {
            assert_eq!(n.0 % 2, 0, "only registered repos may host");
        }
    }

    #[test]
    fn resolve_tracks_demand() {
        let g = path(4);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        // Requester 1 is adjacent to the replica on 0 → hit.
        srv.resolve_csr(DatasetId(0), NodeId(1), &g, |_| true, |_| 10.0)
            .expect("resolves");
        // Requester 3 is 3 hops away → miss.
        srv.resolve_csr(DatasetId(0), NodeId(3), &g, |_| true, |_| 10.0)
            .expect("resolves");
        let d = srv.demand_of(DatasetId(0)).expect("known");
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses, 1);
        // Draining resets the window without losing the counters.
        srv.drain_demand(&srv.rebalance_plan(&ReplicationPolicy::default()));
        let d = srv.demand_of(DatasetId(0)).expect("known");
        assert_eq!((d.hits, d.misses), (0, 0));
    }

    #[test]
    fn resolve_fails_when_all_offline() {
        let g = path(2);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        assert_eq!(
            srv.resolve_csr(DatasetId(0), NodeId(1), &g, |_| false, |_| 1.0)
                .unwrap_err(),
            AllocationError::NoReplicaAvailable(DatasetId(0))
        );
    }

    #[test]
    fn migration_moves_replica() {
        let g = barabasi_albert(10, 2, 3);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(2))
            .expect("ok");
        srv.migrate_replica(DatasetId(0), NodeId(2), NodeId(7))
            .expect("migrates");
        assert_eq!(
            srv.replicas_of(DatasetId(0)).expect("known"),
            vec![NodeId(7)]
        );
        assert_eq!(srv.datasets_hosted_by(NodeId(2)), vec![]);
        assert_eq!(srv.datasets_hosted_by(NodeId(7)), vec![DatasetId(0)]);
    }

    #[test]
    fn migrating_a_replica_onto_itself_is_a_no_op() {
        let g = barabasi_albert(10, 2, 3);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(2))
            .expect("ok");
        let version = srv.catalog_version(DatasetId(0));
        srv.migrate_replica(DatasetId(0), NodeId(2), NodeId(2))
            .expect("the source hosts it");
        assert_eq!(
            srv.replicas_of(DatasetId(0)).expect("known"),
            vec![NodeId(2)],
            "the only replica stays"
        );
        assert_eq!(srv.datasets_hosted_by(NodeId(2)), vec![DatasetId(0)]);
        assert_eq!(
            srv.catalog_version(DatasetId(0)),
            version,
            "a no-op burns no version"
        );
    }

    #[test]
    fn rebalance_plan_grows_hot_datasets() {
        let g = barabasi_albert(20, 2, 4);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        // Simulate heavy demand with misses.
        for _ in 0..250 {
            let _ = srv.resolve_csr(DatasetId(0), NodeId(15), &g, |_| true, |_| 1.0);
        }
        let plan = srv.rebalance_plan(&ReplicationPolicy::default());
        assert_eq!(plan.items.len(), 1);
        let item = plan.items[0];
        assert_eq!(item.dataset, DatasetId(0));
        assert_eq!(item.current, 1);
        assert!(item.target > 1, "target = {}", item.target);
    }

    /// Regression: requests resolved between `rebalance_plan`'s window
    /// read and the end-of-cycle drain used to vanish from every window
    /// (the drain re-read the counters and baselined over them). Drain
    /// to the plan's recorded observation and the mid-cycle request is
    /// the first entry of the next window.
    #[test]
    fn mid_cycle_demand_survives_the_drain() {
        let g = path(4);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        srv.resolve_csr(DatasetId(0), NodeId(1), &g, |_| true, |_| 1.0)
            .expect("resolves");
        let plan = srv.rebalance_plan(&ReplicationPolicy::default());
        // A request lands mid-cycle, after the plan read the windows.
        srv.resolve_csr(DatasetId(0), NodeId(3), &g, |_| true, |_| 1.0)
            .expect("resolves");
        srv.drain_demand(&plan);
        let next = srv.demand_of(DatasetId(0)).expect("known");
        assert_eq!(
            (next.hits, next.misses),
            (0, 1),
            "the mid-cycle miss must open the next window, not vanish"
        );
    }

    /// Datasets registered after the plan's read are not drained by it.
    #[test]
    fn drain_skips_datasets_registered_mid_cycle() {
        let g = path(4);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        let plan = srv.rebalance_plan(&ReplicationPolicy::default());
        srv.register_dataset(DatasetId(1), 1, NodeId(2))
            .expect("ok");
        srv.resolve_csr(DatasetId(1), NodeId(3), &g, |_| true, |_| 1.0)
            .expect("resolves");
        srv.drain_demand(&plan);
        assert_eq!(
            srv.demand_of(DatasetId(1)).expect("known").total(),
            1,
            "a dataset born mid-cycle keeps its young window"
        );
    }

    #[test]
    fn registry_bound_metrics_track_resolutions() {
        let reg = Registry::new();
        let g = path(4);
        let srv = AllocationServer::with_registry(&reg);
        srv.register_repositories(g.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1 << 30,
            availability: 0.9,
        }));
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        srv.resolve_csr(DatasetId(0), NodeId(1), &g, |_| true, |_| 10.0)
            .expect("hit");
        srv.resolve_csr(DatasetId(0), NodeId(3), &g, |_| true, |_| 10.0)
            .expect("miss");
        let _ = srv.resolve_csr(DatasetId(9), NodeId(0), &g, |_| true, |_| 10.0);
        let _ = srv.resolve_csr(DatasetId(0), NodeId(1), &g, |_| false, |_| 10.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alloc.resolve.ok"), Some(2));
        assert_eq!(snap.counter("alloc.resolve.failed"), Some(2));
        assert_eq!(snap.counter("alloc.demand.hits"), Some(1));
        assert_eq!(snap.counter("alloc.demand.misses"), Some(1));
    }

    #[test]
    fn availability_reports_update_registry() {
        let g = barabasi_albert(5, 2, 6);
        let srv = server_with_repos(&g);
        srv.report_availability(NodeId(2), 0.42).expect("ok");
        assert!((srv.repository(NodeId(2)).expect("known").availability - 0.42).abs() < 1e-12);
        assert_eq!(
            srv.report_availability(NodeId(99), 0.5).unwrap_err(),
            AllocationError::UnknownRepository(NodeId(99))
        );
    }

    #[test]
    fn availability_reports_burn_no_version() {
        // Telemetry is not a catalog entry: no version moves, and a
        // resolution against a snapshot taken before the report ranks on
        // the fresh value. Path 0 — 1 — 2, replicas on both ends, equal
        // hops and latency from 1: availability decides.
        let g = path(3);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(0))
            .expect("ok");
        srv.add_replica(DatasetId(0), NodeId(2)).expect("ok");
        srv.report_availability(NodeId(2), 0.5).expect("ok");
        let version = srv.catalog_version(DatasetId(0));
        let snap = srv.snapshot();
        let pick = || {
            let (sel, _) =
                srv.resolve_csr_snapshot(&snap, DatasetId(0), NodeId(1), &g, |_| true, |_| 1.0);
            sel.expect("resolves").node
        };
        assert_eq!(pick(), NodeId(0), "0.9 beats 0.5");
        srv.report_availability(NodeId(2), 0.99).expect("ok");
        assert_eq!(
            srv.catalog_version(DatasetId(0)),
            version,
            "no version movement"
        );
        assert_eq!(
            pick(),
            NodeId(2),
            "the held snapshot ranks on fresh telemetry"
        );
    }

    #[test]
    fn resolve_csr_matches_full_bfs_and_caches() {
        let reg = Registry::new();
        let csr = barabasi_albert(60, 2, 9);
        let srv = AllocationServer::with_registry(&reg);
        srv.register_repositories(csr.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1 << 30,
            availability: 0.9,
        }));
        srv.register_dataset(DatasetId(0), 1, NodeId(3))
            .expect("ok");
        srv.add_replica(DatasetId(0), NodeId(41)).expect("ok");
        srv.add_replica(DatasetId(0), NodeId(17)).expect("ok");
        let candidates: Vec<Candidate> = srv
            .replicas_of(DatasetId(0))
            .expect("registered")
            .into_iter()
            .map(|node| Candidate {
                node,
                online: true,
                latency_ms: f64::from(node.0),
                availability: 0.9,
            })
            .collect();
        let mut scratch = TraversalScratch::new();
        for req in [0u32, 10, 59, 10, 0] {
            let oracle = select_replica_full_bfs(&csr, NodeId(req), &candidates, &mut scratch)
                .expect("all candidates online");
            let got = srv
                .resolve_csr(DatasetId(0), NodeId(req), &csr, |_| true, |n| n.0 as f64)
                .expect("resolves");
            assert_eq!(oracle, got, "requester {req}");
        }
        let snap = reg.snapshot();
        // 5 resolutions over 3 distinct requesters: 3 misses, 2 hits.
        assert_eq!(snap.counter("alloc.resolve.cache.miss"), Some(3));
        assert_eq!(snap.counter("alloc.resolve.cache.hit"), Some(2));
    }

    #[test]
    fn failed_migration_keeps_cache_warm() {
        let reg = Registry::new();
        let csr = barabasi_albert(20, 2, 13);
        let srv = AllocationServer::with_registry(&reg);
        srv.register_repositories(csr.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1,
            availability: 1.0,
        }));
        srv.register_dataset(DatasetId(0), 1, NodeId(5))
            .expect("ok");
        let warm = |srv: &AllocationServer| {
            srv.resolve_csr(DatasetId(0), NodeId(9), &csr, |_| true, |_| 1.0)
                .expect("resolves")
        };
        warm(&srv);
        let version = srv.catalog_version(DatasetId(0));
        // Invalid migrations (unknown repo / dataset / source) and a
        // migration onto the source itself must not bump the version: the
        // next resolution still hits the cache.
        assert!(srv
            .migrate_replica(DatasetId(0), NodeId(5), NodeId(99))
            .is_err());
        assert!(srv
            .migrate_replica(DatasetId(7), NodeId(5), NodeId(2))
            .is_err());
        assert!(srv
            .migrate_replica(DatasetId(0), NodeId(11), NodeId(2))
            .is_err());
        srv.migrate_replica(DatasetId(0), NodeId(5), NodeId(5))
            .expect("a no-op");
        warm(&srv);
        assert_eq!(
            srv.catalog_version(DatasetId(0)),
            version,
            "no-ops and failures burn no version"
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alloc.resolve.cache.hit"), Some(1));
        assert_eq!(snap.counter("alloc.resolve.cache.miss"), Some(1));
    }

    #[test]
    fn unrelated_commits_keep_other_entries_current() {
        // A commit to another dataset leaves this entry's version, so its
        // cached hops stay warm while the committed entry's refill.
        let reg = Registry::new();
        let csr = barabasi_albert(40, 2, 31);
        let srv = AllocationServer::with_registry(&reg);
        srv.register_repositories(csr.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1 << 30,
            availability: 0.9,
        }));
        let (a, b) = (DatasetId(0), DatasetId(1));
        srv.register_dataset(a, 1, NodeId(1)).expect("ok");
        srv.register_dataset(b, 1, NodeId(2)).expect("ok");
        let warm = |d: DatasetId| {
            srv.resolve_csr(d, NodeId(9), &csr, |_| true, |_| 1.0)
                .expect("resolves");
        };
        let misses = || reg.snapshot().counter("alloc.resolve.cache.miss").unwrap();
        warm(a);
        warm(b);
        assert_eq!(misses(), 2, "both cold");
        let snap = srv.snapshot();
        srv.add_replica(a, NodeId(7)).expect("ok");
        assert_ne!(srv.catalog_version(a), snap.version_of(a), "a moved");
        assert_eq!(srv.catalog_version(b), snap.version_of(b), "b did not");
        warm(a);
        warm(b);
        assert_eq!(misses(), 3, "a refilled, b retained");
        // The held snapshot still serves the pre-commit view of a.
        assert_eq!(snap.replicas_of(a), Some(&[NodeId(1)][..]));
        assert_eq!(
            srv.replicas_of(a).expect("known"),
            vec![NodeId(1), NodeId(7)]
        );
    }

    #[test]
    fn hosted_index_tracks_mutations() {
        let g = barabasi_albert(12, 2, 17);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(1))
            .expect("ok");
        srv.register_dataset(DatasetId(1), 1, NodeId(1))
            .expect("ok");
        srv.add_replica(DatasetId(0), NodeId(2)).expect("ok");
        assert_eq!(
            srv.datasets_hosted_by(NodeId(1)),
            vec![DatasetId(0), DatasetId(1)]
        );
        assert_eq!(srv.datasets_hosted_by(NodeId(2)), vec![DatasetId(0)]);
        srv.remove_replica(DatasetId(0), NodeId(1)).expect("ok");
        assert_eq!(srv.datasets_hosted_by(NodeId(1)), vec![DatasetId(1)]);
        // Migrating onto an existing replica collapses to one entry.
        srv.add_replica(DatasetId(1), NodeId(2)).expect("ok");
        srv.migrate_replica(DatasetId(1), NodeId(1), NodeId(2))
            .expect("ok");
        assert_eq!(srv.datasets_hosted_by(NodeId(1)), vec![]);
        assert_eq!(
            srv.datasets_hosted_by(NodeId(2)),
            vec![DatasetId(0), DatasetId(1)]
        );
        assert_eq!(srv.datasets_hosted_by(NodeId(11)), vec![]);
    }

    #[test]
    fn snapshot_resolution_is_frozen_and_versioned() {
        let csr = barabasi_albert(25, 2, 41);
        let srv = server_with_repos(&csr);
        srv.register_dataset(DatasetId(0), 1, NodeId(3))
            .expect("ok");
        let snap = srv.snapshot();
        let (sel, version) =
            srv.resolve_csr_snapshot(&snap, DatasetId(0), NodeId(8), &csr, |_| true, |_| 1.0);
        assert_eq!(sel.expect("resolves").node, NodeId(3));
        assert_eq!(version, snap.version_of(DatasetId(0)));
        assert_eq!(
            srv.catalog_version(DatasetId(0)),
            version,
            "nothing committed since"
        );
        // A commit to the entry moves its version; the snapshot keeps
        // resolving to the frozen view.
        srv.add_replica(DatasetId(0), NodeId(11)).expect("ok");
        assert_ne!(srv.catalog_version(DatasetId(0)), version);
        let (sel2, version2) =
            srv.resolve_csr_snapshot(&snap, DatasetId(0), NodeId(8), &csr, |_| true, |_| 1.0);
        assert_eq!(version2, version, "snapshot versions are frozen");
        let (unknown, none) =
            srv.resolve_csr_snapshot(&snap, DatasetId(7), NodeId(8), &csr, |_| true, |_| 1.0);
        assert_eq!(unknown, Err(AllocationError::UnknownDataset(DatasetId(7))));
        assert_eq!(none, None, "an unregistered dataset has no version");
        assert_eq!(
            sel2.expect("resolves").node,
            NodeId(3),
            "snapshot still serves the pre-commit replica set"
        );
    }

    #[test]
    fn coded_inventory_tracked_next_to_replicas() {
        let g = barabasi_albert(10, 2, 8);
        let srv = server_with_repos(&g);
        let spec = CodingSpec {
            k: 3,
            m: 2,
            seed: 7,
            total_len: 1000,
        };
        srv.register_dataset_coded(DatasetId(0), 4, NodeId(0), spec)
            .expect("registers");
        assert_eq!(srv.coding_of(DatasetId(0)).expect("known"), Some(spec));
        assert!(srv
            .add_coded_blocks(DatasetId(0), NodeId(3), &[1, 0])
            .expect("ok"));
        assert!(srv
            .add_coded_blocks(DatasetId(0), NodeId(1), &[2])
            .expect("ok"));
        let inv = srv.coded_inventory(DatasetId(0)).expect("known");
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].0, NodeId(1), "inventory sorted by node");
        assert_eq!(*inv[1].1, vec![0, 1], "block lists sorted");
        // Coded hosts show up in the hosted reverse index next to the
        // primary's whole replica.
        assert_eq!(srv.datasets_hosted_by(NodeId(3)), vec![DatasetId(0)]);
        assert_eq!(srv.datasets_hosted_by(NodeId(0)), vec![DatasetId(0)]);
        // Departure drops the inventory and the index entry.
        assert!(srv.remove_coded_host(DatasetId(0), NodeId(3)).expect("ok"));
        assert_eq!(srv.datasets_hosted_by(NodeId(3)), vec![]);
        assert!(!srv.remove_coded_host(DatasetId(0), NodeId(3)).expect("ok"));
    }

    #[test]
    fn redundant_coded_announcements_publish_nothing() {
        // Same idempotence contract as `add_replica`: a no-op
        // announcement must not burn a version (hop caches).
        let g = barabasi_albert(10, 2, 8);
        let srv = server_with_repos(&g);
        let spec = CodingSpec {
            k: 2,
            m: 1,
            seed: 0,
            total_len: 64,
        };
        srv.register_dataset_coded(DatasetId(0), 1, NodeId(0), spec)
            .expect("ok");
        srv.add_coded_blocks(DatasetId(0), NodeId(2), &[0, 1])
            .expect("ok");
        let version = srv.catalog_version(DatasetId(0));
        assert!(!srv
            .add_coded_blocks(DatasetId(0), NodeId(2), &[1])
            .expect("ok"));
        assert!(!srv
            .add_coded_blocks(DatasetId(0), NodeId(2), &[])
            .expect("ok"));
        assert!(!srv.remove_coded_host(DatasetId(0), NodeId(5)).expect("ok"));
        assert_eq!(
            srv.catalog_version(DatasetId(0)),
            version,
            "no-ops burn no version"
        );
    }

    #[test]
    fn replica_removal_keeps_coded_host_in_index() {
        // A node holding both a whole replica and coded blocks must stay
        // in the hosted index when it loses just one of the two roles.
        let g = barabasi_albert(10, 2, 8);
        let srv = server_with_repos(&g);
        let spec = CodingSpec {
            k: 2,
            m: 1,
            seed: 1,
            total_len: 128,
        };
        srv.register_dataset_coded(DatasetId(0), 1, NodeId(4), spec)
            .expect("ok");
        srv.add_coded_blocks(DatasetId(0), NodeId(4), &[2])
            .expect("ok");
        assert!(srv.remove_replica(DatasetId(0), NodeId(4)).expect("ok"));
        assert_eq!(
            srv.datasets_hosted_by(NodeId(4)),
            vec![DatasetId(0)],
            "still a coded host"
        );
        assert!(srv.remove_coded_host(DatasetId(0), NodeId(4)).expect("ok"));
        assert_eq!(srv.datasets_hosted_by(NodeId(4)), vec![]);
    }
}
