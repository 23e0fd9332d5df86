//! The allocation server: repository registry, replica catalog, and
//! demand tracking.
//!
//! "One or more allocation servers act as catalogs for global datasets …
//! together they maintain a list of current replicas and place, move,
//! update, and maintain replicas." (Section V.)
//!
//! State is dataset-sharded and epoch-published (see [`crate::epoch`]):
//! each shard is an immutable [`ShardSnapshot`] behind a publication
//! cell. Readers load `Arc` snapshots and never hold a lock across any
//! work; writers copy-on-write the one shard they touch, advance its
//! epoch, and publish. Request resolution — the per-request
//! control-plane hot path — is read-mostly, allocation-free, and after
//! the snapshot load entirely lock-free on the catalog:
//!
//! * [`resolve_csr`](AllocationServer::resolve_csr) runs a
//!   meet-in-the-middle search on a frozen CSR graph through a pooled
//!   [`TraversalScratch`] that settles only the nearest online replica
//!   and the replicas at its distance, visiting a level or two past a
//!   near hub instead of the graph;
//! * hop distances are memoized with the search's bound in a
//!   version-keyed `ResolveCache` — catalog writes bump the entry
//!   version, which invalidates stale hops without touching the cache,
//!   so commits to *other* datasets — even same-shard ones — retain
//!   every cached hop table;
//! * demand hit/miss accounting uses sharded atomic [`Counter`]s shared
//!   across entry versions, so resolution never publishes anything;
//! * a caller reading many datasets at once loads one
//!   [`snapshot`](AllocationServer::snapshot) and resolves against it
//!   via [`resolve_csr_snapshot`](AllocationServer::resolve_csr_snapshot),
//!   recording the accounting later through
//!   [`commit_resolution`](AllocationServer::commit_resolution).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_obs::{Counter, Registry};
use scdn_social::author::AuthorId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::DatasetId;

use crate::discovery::{select_from_hops, Selection};
use crate::epoch::{
    shard_index, CatalogSnapshot, CodedInventory, DemandState, EntryState, Published, RepoRecord,
    RepoTable, ShardSnapshot, DEFAULT_CATALOG_SHARDS,
};
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
    /// Catalog entries force-invalidated by
    /// [`touch_all`](AllocationServer::touch_all) — each one costs a hop
    /// cache refill, which is exactly why versions are per entry.
    pub touch_all: Counter,
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
            touch_all: reg.counter("alloc.catalog.touch_all"),
        }
    }
}

/// Registry entry for a contributed repository.
#[derive(Clone, Debug)]
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

/// An allocation server. Thread-safe: reads are snapshot loads, writes
/// copy-on-write exactly one shard (or the repository table).
pub struct AllocationServer {
    /// Dataset-sharded catalog, each shard epoch-published.
    shards: Vec<Published<ShardSnapshot>>,
    /// `shards.len() - 1` (shard count is a power of two).
    shard_mask: usize,
    /// Repository registry. Additions republish the table; availability
    /// telemetry mutates records in place.
    repos: Published<RepoTable>,
    /// Server-wide monotonic source of per-entry versions, shared by
    /// every shard so versions order consistently across shards.
    version_counter: AtomicU64,
    metrics: AllocMetrics,
    /// Version-keyed hop-distance cache for `resolve_csr`.
    cache: ResolveCache,
    /// Reusable traversal scratches for the multi-target search (one per
    /// concurrently-resolving thread; grown on demand).
    scratch_pool: Mutex<Vec<TraversalScratch>>,
}

impl Default for AllocationServer {
    fn default() -> Self {
        AllocationServer {
            shards: (0..DEFAULT_CATALOG_SHARDS)
                .map(|_| Published::new(ShardSnapshot::empty()))
                .collect(),
            shard_mask: DEFAULT_CATALOG_SHARDS - 1,
            repos: Published::new(RepoTable::new()),
            version_counter: AtomicU64::new(0),
            metrics: AllocMetrics::default(),
            cache: ResolveCache::new(DEFAULT_RESOLVE_CACHE_CAPACITY),
            scratch_pool: Mutex::new(Vec::new()),
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
        let outcome = self.cache.apply_delta(old, new);
        self.metrics.cache_retained.add(outcome.retained);
        self.metrics.cache_evictions.add(outcome.evicted);
        (outcome.retained, outcome.evicted)
    }

    /// Number of catalog shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index of `dataset`.
    pub fn shard_of(&self, dataset: DatasetId) -> usize {
        shard_index(dataset, self.shard_mask)
    }

    /// Current publication epoch of every shard, indexed by shard: how
    /// many times each has republished.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.load().epoch).collect()
    }

    /// One consistent-per-shard view of the whole catalog and the
    /// repository table. Loading is O(shards) refcount bumps; everything
    /// read through the snapshot afterwards is lock-free.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            shards: self.shards.iter().map(Published::load).collect(),
            repos: self.repos.load(),
        }
    }

    /// Advance `version_counter` and return the fresh version.
    fn next_version(&self) -> u64 {
        self.version_counter.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Register (or update) a contributed repository.
    pub fn register_repository(&self, info: RepositoryInfo) {
        self.register_repositories(std::iter::once(info));
    }

    /// Bulk-register repositories with a single table republication —
    /// O(n) total instead of the O(n²) a loop of
    /// [`register_repository`](Self::register_repository) copy-on-writes
    /// would cost. System build-up registers every member through this.
    pub fn register_repositories(&self, infos: impl IntoIterator<Item = RepositoryInfo>) {
        let mut guard = self.repos.write();
        let mut next: RepoTable = (**guard).clone();
        for info in infos {
            next.insert(info.node, Arc::new(RepoRecord::from_info(&info)));
        }
        *guard = Arc::new(next);
    }

    /// Registered repository count.
    pub fn repository_count(&self) -> usize {
        self.repos.load().len()
    }

    /// Fetch a repository record.
    pub fn repository(&self, node: NodeId) -> Option<RepositoryInfo> {
        self.repos.load().get(&node).map(|r| r.info())
    }

    /// Update a repository's monitored availability (CDN-client
    /// telemetry). In-place atomic store on the shared record — no
    /// republication, no epoch movement: availability is telemetry, and
    /// readers deliberately see the freshest value.
    pub fn report_availability(
        &self,
        node: NodeId,
        availability: f64,
    ) -> Result<(), AllocationError> {
        self.repos
            .load()
            .get(&node)
            .ok_or(AllocationError::UnknownRepository(node))?
            .set_availability(availability);
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
        if !self.repos.load().contains_key(&primary) {
            return Err(AllocationError::UnknownRepository(primary));
        }
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        if guard.entries.contains_key(&dataset) {
            return Err(AllocationError::DuplicateDataset(dataset));
        }
        let version = self.next_version();
        let mut next = guard.cow();
        next.entries.insert(
            dataset,
            Arc::new(EntryState {
                replicas: vec![primary],
                segments,
                version,
                demand: Arc::new(DemandState::new()),
                coding: None,
                coded_hosts: Vec::new(),
            }),
        );
        next.index_add(dataset, primary);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(())
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
        if !self.repos.load().contains_key(&primary) {
            return Err(AllocationError::UnknownRepository(primary));
        }
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        if guard.entries.contains_key(&dataset) {
            return Err(AllocationError::DuplicateDataset(dataset));
        }
        let version = self.next_version();
        let mut next = guard.cow();
        next.entries.insert(
            dataset,
            Arc::new(EntryState {
                replicas: vec![primary],
                segments,
                version,
                demand: Arc::new(DemandState::new()),
                coding: Some(spec),
                coded_hosts: Vec::new(),
            }),
        );
        next.index_add(dataset, primary);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(())
    }

    /// Erasure-coding parameters of `dataset` (`None` for whole-replica
    /// datasets).
    pub fn coding_of(&self, dataset: DatasetId) -> Result<Option<CodingSpec>, AllocationError> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.coding)
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Current per-host coded-block inventory of `dataset`:
    /// `(host, sorted block indices)`, ordered by node id.
    pub fn coded_inventory(&self, dataset: DatasetId) -> Result<CodedInventory, AllocationError> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.coded_hosts.clone())
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Announce that `node` now holds coded blocks `blocks` of `dataset`
    /// (merged into any inventory it already advertised). Returns `true`
    /// if the inventory actually changed; a no-op announcement burns no
    /// version and no epoch, mirroring
    /// [`add_replica`](Self::add_replica)'s idempotence.
    pub fn add_coded_blocks(
        &self,
        dataset: DatasetId,
        node: NodeId,
        blocks: &[u32],
    ) -> Result<bool, AllocationError> {
        if !self.repos.load().contains_key(&node) {
            return Err(AllocationError::UnknownRepository(node));
        }
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        let Some(entry) = guard.entries.get(&dataset) else {
            return Err(AllocationError::UnknownDataset(dataset));
        };
        let mut merged: Vec<u32> = entry
            .coded_hosts
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, b)| (**b).clone())
            .unwrap_or_default();
        let before = merged.len();
        for &b in blocks {
            if !merged.contains(&b) {
                merged.push(b);
            }
        }
        if merged.len() == before {
            // No new block (or an empty announcement): no catalog change,
            // so don't burn a version or an epoch — same idempotence
            // contract as `add_replica`.
            return Ok(false);
        }
        merged.sort_unstable();
        let version = self.next_version();
        let mut next = guard.cow();
        {
            let entry = next.entry_mut(dataset);
            match entry.coded_hosts.iter().position(|(n, _)| *n == node) {
                Some(i) => entry.coded_hosts[i].1 = Arc::new(merged),
                None => {
                    let at = entry.coded_hosts.partition_point(|&(n, _)| n < node);
                    entry.coded_hosts.insert(at, (node, Arc::new(merged)));
                }
            }
            entry.version = version;
        }
        next.sync_host_index(dataset, node);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(true)
    }

    /// Drop `node`'s entire coded-block inventory for `dataset` (host
    /// departed or its blocks were found corrupt). Returns `true` if it
    /// held anything; removing an absent host burns no version/epoch.
    pub fn remove_coded_host(
        &self,
        dataset: DatasetId,
        node: NodeId,
    ) -> Result<bool, AllocationError> {
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        let Some(entry) = guard.entries.get(&dataset) else {
            return Err(AllocationError::UnknownDataset(dataset));
        };
        if !entry.coded_hosts.iter().any(|(n, _)| *n == node) {
            return Ok(false);
        }
        let version = self.next_version();
        let mut next = guard.cow();
        {
            let entry = next.entry_mut(dataset);
            entry.coded_hosts.retain(|(n, _)| *n != node);
            entry.version = version;
        }
        next.sync_host_index(dataset, node);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(true)
    }

    /// Number of datasets in the catalog.
    pub fn dataset_count(&self) -> usize {
        self.shards.iter().map(|s| s.load().entries.len()).sum()
    }

    /// Current replica locations of a dataset.
    pub fn replicas_of(&self, dataset: DatasetId) -> Result<Vec<NodeId>, AllocationError> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.replicas.clone())
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Segment count of a dataset.
    pub fn segments_of(&self, dataset: DatasetId) -> Result<u32, AllocationError> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.segments)
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Add a single replica location for `dataset` (used by the system
    /// runtime after a successful replication transfer). Returns `false`
    /// if the node already hosts the dataset.
    pub fn add_replica(&self, dataset: DatasetId, node: NodeId) -> Result<bool, AllocationError> {
        if !self.repos.load().contains_key(&node) {
            return Err(AllocationError::UnknownRepository(node));
        }
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        let Some(entry) = guard.entries.get(&dataset) else {
            return Err(AllocationError::UnknownDataset(dataset));
        };
        if entry.replicas.contains(&node) {
            // No catalog change: don't burn a version or an epoch (a
            // spurious bump would invalidate cached hop distances for
            // nothing).
            return Ok(false);
        }
        let version = self.next_version();
        let mut next = guard.cow();
        {
            let entry = next.entry_mut(dataset);
            entry.replicas.push(node);
            entry.version = version;
        }
        next.index_add(dataset, node);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(true)
    }

    /// Remove a replica location for `dataset`. Returns `true` if removed.
    pub fn remove_replica(
        &self,
        dataset: DatasetId,
        node: NodeId,
    ) -> Result<bool, AllocationError> {
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        let Some(entry) = guard.entries.get(&dataset) else {
            return Err(AllocationError::UnknownDataset(dataset));
        };
        if !entry.replicas.contains(&node) {
            return Ok(false);
        }
        let version = self.next_version();
        let mut next = guard.cow();
        {
            let entry = next.entry_mut(dataset);
            entry.replicas.retain(|&n| n != node);
            entry.version = version;
        }
        // Re-derive rather than blindly remove: the node may still hold
        // coded blocks of this dataset, which keep it in the hosted index.
        next.sync_host_index(dataset, node);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(true)
    }

    /// Move a replica from one node to another (migration). Validation
    /// happens before anything publishes: a failed migration must not
    /// spuriously invalidate the entry version (or the hop cache keyed on
    /// it) or advance the shard epoch.
    pub fn migrate_replica(
        &self,
        dataset: DatasetId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), AllocationError> {
        if !self.repos.load().contains_key(&to) {
            return Err(AllocationError::UnknownRepository(to));
        }
        let cell = &self.shards[self.shard_of(dataset)];
        let mut guard = cell.write();
        let Some(entry) = guard.entries.get(&dataset) else {
            return Err(AllocationError::UnknownDataset(dataset));
        };
        let Some(pos) = entry.replicas.iter().position(|&n| n == from) else {
            return Err(AllocationError::UnknownRepository(from));
        };
        let to_exists = entry.replicas.contains(&to);
        let version = self.next_version();
        let mut next = guard.cow();
        {
            let entry = next.entry_mut(dataset);
            if to_exists {
                entry.replicas.remove(pos);
            } else {
                entry.replicas[pos] = to;
            }
            entry.version = version;
        }
        next.sync_host_index(dataset, from);
        next.sync_host_index(dataset, to);
        next.epoch += 1;
        *guard = Arc::new(next);
        Ok(())
    }

    /// Force-invalidate every catalog entry: each entry's version is
    /// bumped (every cached hop table goes stale) and every non-empty
    /// shard republishes. This is the
    /// wholesale counterpart of the per-entry invalidation the normal
    /// mutations perform — kept for out-of-band catalog surgery, and
    /// deliberately expensive. `alloc.catalog.touch_all` counts the
    /// entries invalidated so the cost is visible next to the retention
    /// the sharded design otherwise buys. Returns the entry count.
    pub fn touch_all(&self) -> u64 {
        let mut touched = 0u64;
        for cell in &self.shards {
            let mut guard = cell.write();
            if guard.entries.is_empty() {
                continue;
            }
            // Deterministic version assignment within the shard.
            let mut ids: Vec<DatasetId> = guard.entries.keys().copied().collect();
            ids.sort_unstable();
            let mut next = guard.cow();
            for d in ids {
                let version = self.next_version();
                next.entry_mut(d).version = version;
                touched += 1;
            }
            next.epoch += 1;
            *guard = Arc::new(next);
        }
        self.metrics.touch_all.add(touched);
        touched
    }

    /// Bump per-dataset and server-wide demand counters for a selection.
    fn record_demand(&self, demand: &DemandState, hops: Option<u32>) {
        if matches!(hops, Some(h) if h <= 1) {
            demand.hits.inc();
            self.metrics.demand_hits.inc();
        } else {
            demand.misses.inc();
            self.metrics.demand_misses.inc();
        }
    }

    /// Resolve a request: pick the best online replica for `requester`
    /// on the frozen social graph. `online` reports current liveness per
    /// node. Records demand (hit = within 1 social hop) through the
    /// entry's atomic counters and never takes a catalog lock across the
    /// work.
    ///
    /// Hop distances come from the version-keyed cache when its slot
    /// decides the winner under this call's `online`; otherwise one
    /// nearest-target search (forward from the requester, backward from
    /// each replica, highest degree first, stopping at the nearest online
    /// replica's distance; pooled scratch, no per-request allocation
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
        let shard = self.shards[self.shard_of(dataset)].load();
        let repos = self.repos.load();
        self.resolve_csr_in(
            &shard, &repos, dataset, requester, csr, online, latency_ms, true,
        )
        .0
    }

    /// [`resolve_csr`](AllocationServer::resolve_csr) against a
    /// caller-held [`CatalogSnapshot`]. Acquires **no catalog lock at
    /// all**: every read is against the snapshot the caller loaded. The
    /// selection is identical, but the resolve/demand accounting is
    /// deferred — the caller records the outcome it acts on via
    /// [`commit_resolution`](AllocationServer::commit_resolution). Also
    /// returns the version of the catalog entry the selection was
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
        self.resolve_csr_in(
            snap.shard_for(dataset),
            &snap.repos,
            dataset,
            requester,
            csr,
            online,
            latency_ms,
            false,
        )
    }

    /// Record the outcome of a deferred resolution:
    /// `Some(hops)` for a successful selection (its social-hop distance),
    /// `None` for a failed resolve. This is the accounting
    /// [`resolve_csr`](AllocationServer::resolve_csr) performs inline and
    /// the snapshot variant defers.
    pub fn commit_resolution(&self, dataset: DatasetId, outcome: Option<Option<u32>>) {
        match outcome {
            None => self.metrics.resolve_failed.inc(),
            Some(hops) => {
                self.metrics.resolve_ok.inc();
                let shard = self.shards[self.shard_of(dataset)].load();
                if let Some(entry) = shard.entries.get(&dataset) {
                    self.record_demand(&entry.demand, hops);
                }
            }
        }
    }

    /// Current catalog-entry version of `dataset` (`None` if unknown).
    /// Every mutation of the entry bumps it, so two equal readings mean
    /// the entry did not change in between.
    pub fn catalog_version(&self, dataset: DatasetId) -> Option<u64> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.version)
    }

    /// Shared resolution core over one shard snapshot and repository
    /// table: no lock is held (the caller loaded the `Arc`s), so the
    /// search and the ranking loop run entirely on frozen data.
    #[allow(clippy::too_many_arguments)]
    fn resolve_csr_in(
        &self,
        shard: &ShardSnapshot,
        repos: &RepoTable,
        dataset: DatasetId,
        requester: NodeId,
        csr: &CsrGraph,
        online: impl Fn(NodeId) -> bool,
        latency_ms: impl Fn(NodeId) -> f64,
        record: bool,
    ) -> (Result<Selection, AllocationError>, Option<u64>) {
        self.cache.ensure_graph(csr);
        let Some(entry) = shard.entries.get(&dataset) else {
            if record {
                self.metrics.resolve_failed.inc();
            }
            return (Err(AllocationError::UnknownDataset(dataset)), None);
        };
        let version = Some(entry.version);
        let key = (requester, dataset);
        let replicas = &entry.replicas;
        let rank = |hops: &[Option<u32>]| {
            select_from_hops(
                replicas.len(),
                |i| online(replicas[i]).then(|| (replicas[i], hops.get(i).copied().flatten())),
                |i| {
                    let availability = repos.get(&replicas[i]).map_or(0.0, |r| r.availability());
                    (latency_ms(replicas[i]), availability)
                },
            )
        };
        let cached = self.cache.with_hops(key, entry.version, |hops, bound| {
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
                let mut scratch = self.scratch_pool.lock().pop().unwrap_or_default();
                // Unbounded budget: the bound is the nearest online
                // replica's distance, and hop counts are full-BFS exact.
                let bound = scratch.bfs_to_nearest(csr, requester, replicas, u32::MAX, &online);
                self.metrics.bfs_visited.add(scratch.last_visited() as u64);
                let hops: Box<[Option<u32>]> =
                    replicas.iter().map(|&r| scratch.target_hops(r)).collect();
                let unsettled = hops.iter().filter(|h| h.is_none()).count();
                self.metrics.targets_beyond_bound.add(unsettled as u64);
                let sel = rank(&hops);
                let outcome = self.cache.insert(key, entry.version, bound, hops);
                self.metrics.cache_evictions.add(outcome.evicted);
                self.scratch_pool.lock().push(scratch);
                sel
            }
        };
        let Some(sel) = sel else {
            if record {
                self.metrics.resolve_failed.inc();
            }
            return (Err(AllocationError::NoReplicaAvailable(dataset)), version);
        };
        if record {
            self.metrics.resolve_ok.inc();
            self.record_demand(&entry.demand, sel.social_hops);
        }
        (Ok(sel), version)
    }

    /// All datasets with a replica on `node` (used for departure repair).
    /// Served from the per-shard reverse indexes in O(answer).
    pub fn datasets_hosted_by(&self, node: NodeId) -> Vec<DatasetId> {
        let mut out = Vec::new();
        for cell in &self.shards {
            if let Some(set) = cell.load().hosted.get(&node) {
                out.extend(set.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// Demand window of a dataset (for the replication policy).
    pub fn demand_of(&self, dataset: DatasetId) -> Result<DemandWindow, AllocationError> {
        self.shards[self.shard_of(dataset)]
            .load()
            .entries
            .get(&dataset)
            .map(|e| e.demand.window())
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Drain every demand window **to the totals `plan` observed**: the
    /// baselines advance exactly to the counter values `rebalance_plan`
    /// read, so requests resolved mid-cycle (after the plan's read,
    /// before this drain) stay visible in the next window. Datasets
    /// registered since the plan are untouched — their demand belongs to
    /// the window that is just opening.
    pub fn drain_demand(&self, plan: &RebalancePlan) {
        for &(dataset, hits, misses) in &plan.observed {
            if let Some(entry) = self.shards[self.shard_of(dataset)]
                .load()
                .entries
                .get(&dataset)
            {
                entry.demand.drain_to(hits, misses);
            }
        }
    }

    /// Datasets whose replica count should change under `policy`, plus
    /// the demand observation the cycle must drain to when it finishes.
    ///
    /// Two passes: the per-dataset windows (read once, at their absolute
    /// counter totals) are aggregated into the [`CycleStats`] every
    /// policy evaluation receives, then the policy is asked for each
    /// dataset's target. Policy evaluations are pure, so the second pass
    /// is order-independent; the emitted items are dataset-sorted.
    pub fn rebalance_plan<P: RebalancePolicy>(&self, policy: &P) -> RebalancePlan {
        // Pass 1: one consistent read per dataset — window for the
        // policy, absolute totals for the end-of-cycle drain.
        let mut observed: Vec<(DatasetId, u64, u64)> = Vec::new();
        let mut stats: Vec<(DatasetId, DatasetStats)> = Vec::new();
        let mut cycle = CycleStats::default();
        for cell in &self.shards {
            let shard = cell.load();
            for (&d, e) in &shard.entries {
                let ((hits, misses), window) = e.demand.observe();
                observed.push((d, hits, misses));
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
        }
        // Pass 2: policy targets against the aggregate.
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
    fn availability_reports_do_not_republish() {
        // Telemetry mutates the shared record in place: no shard epoch
        // moves and no in-flight snapshot goes stale.
        let g = barabasi_albert(5, 2, 6);
        let srv = server_with_repos(&g);
        srv.register_dataset(DatasetId(0), 1, NodeId(1))
            .expect("ok");
        let epochs = srv.shard_epochs();
        let snap = srv.snapshot();
        srv.report_availability(NodeId(1), 0.11).expect("ok");
        assert_eq!(srv.shard_epochs(), epochs, "no epoch movement");
        // The held snapshot sees the fresh telemetry (shared record).
        assert!(
            (snap.repos.get(&NodeId(1)).expect("known").availability() - 0.11).abs() < 1e-12,
            "availability is shared live state"
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
        let epochs = srv.shard_epochs();
        // Invalid migrations (unknown repo / dataset / source) must not
        // bump versions or epochs: the next resolution still hits the
        // cache.
        assert!(srv
            .migrate_replica(DatasetId(0), NodeId(5), NodeId(99))
            .is_err());
        assert!(srv
            .migrate_replica(DatasetId(7), NodeId(5), NodeId(2))
            .is_err());
        assert!(srv
            .migrate_replica(DatasetId(0), NodeId(11), NodeId(2))
            .is_err());
        warm(&srv);
        assert_eq!(srv.shard_epochs(), epochs, "failed ops publish nothing");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alloc.resolve.cache.hit"), Some(1));
        assert_eq!(snap.counter("alloc.resolve.cache.miss"), Some(1));
    }

    #[test]
    fn unrelated_commits_keep_other_entries_current() {
        // A commit publishes only its own shard, and the staleness key is
        // the entry, not the shard: a plan that resolved a same-shard
        // neighbour stays fresh while the shard epoch advances, and every
        // other shard keeps its epoch.
        let g = barabasi_albert(30, 2, 21);
        let srv = server_with_repos(&g);
        let a = DatasetId(0);
        let shard = srv.shard_of(a);
        let find = |same: bool| {
            (1..)
                .map(DatasetId)
                .find(|&d| (srv.shard_of(d) == shard) == same)
                .expect("16 shards over u32 ids")
        };
        let (b, other) = (find(true), find(false));
        for (d, primary) in [(a, 1), (b, 2), (other, 3)] {
            srv.register_dataset(d, 1, NodeId(primary)).expect("ok");
        }
        let snap = srv.snapshot();
        let epochs = srv.shard_epochs();
        let (sel, read_b) = srv.resolve_csr_snapshot(&snap, b, NodeId(5), &g, |_| true, |_| 1.0);
        assert_eq!(sel.expect("resolves").node, NodeId(2));
        srv.add_replica(a, NodeId(9)).expect("ok");
        let after = srv.shard_epochs();
        assert_eq!(after[shard], epochs[shard] + 1, "a's shard republished");
        let other_shard = srv.shard_of(other);
        assert_eq!(after[other_shard], epochs[other_shard]);
        assert_ne!(srv.catalog_version(a), snap.version_of(a), "a moved");
        assert_eq!(srv.catalog_version(b), read_b, "a plan for b stays fresh");
        assert_eq!(srv.catalog_version(other), snap.version_of(other));
        // The held snapshot still serves the pre-commit view of a.
        assert_eq!(snap.replicas_of(a), Some(&[NodeId(1)][..]));
        assert_eq!(
            srv.replicas_of(a).expect("known"),
            vec![NodeId(1), NodeId(9)]
        );
    }

    #[test]
    fn touch_all_invalidates_wholesale() {
        // Regression documenting the cost `touch_all` pays and the
        // retention normal commits keep: a targeted mutation invalidates
        // one entry's cached hops, `touch_all` invalidates every entry
        // (counted in `alloc.catalog.touch_all`) and republishes every
        // non-empty shard.
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
        // Targeted mutation: only a's cached hops go stale.
        srv.add_replica(a, NodeId(7)).expect("ok");
        warm(a);
        warm(b);
        assert_eq!(misses(), 3, "a refilled, b retained");
        // Wholesale: every entry's version bumps, everything refills.
        let touched = srv.touch_all();
        assert_eq!(touched, 2);
        assert_eq!(
            reg.snapshot().counter("alloc.catalog.touch_all"),
            Some(2),
            "invalidation cost is exported"
        );
        let stamped = srv.snapshot();
        warm(a);
        warm(b);
        assert_eq!(misses(), 5, "both refilled after touch_all");
        // Replica sets are untouched — only versions/epochs moved.
        assert_eq!(
            stamped.replicas_of(a).map(<[NodeId]>::len),
            Some(2),
            "touch_all does not change placement"
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
    fn snapshot_resolution_is_lock_free_and_versioned() {
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
        // announcement must not burn a version (hop caches) or an epoch
        // (in-flight plans).
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
        let epochs = srv.shard_epochs();
        let version = srv.catalog_version(DatasetId(0));
        assert!(!srv
            .add_coded_blocks(DatasetId(0), NodeId(2), &[1])
            .expect("ok"));
        assert!(!srv
            .add_coded_blocks(DatasetId(0), NodeId(2), &[])
            .expect("ok"));
        assert_eq!(srv.shard_epochs(), epochs, "no-ops publish nothing");
        assert_eq!(srv.catalog_version(DatasetId(0)), version);
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
