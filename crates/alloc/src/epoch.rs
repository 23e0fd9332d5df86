//! Epoch-published catalog shards: the immutable-snapshot state layer
//! under [`AllocationServer`](crate::server::AllocationServer).
//!
//! The catalog is split into dataset-sharded slices, each published as an
//! immutable [`ShardSnapshot`] behind a `Published` cell. Readers load
//! the current `Arc` (one refcount bump) and then work entirely on
//! shared, frozen data — no lock is held across a resolution, a BFS, or
//! a whole planning phase. Writers clone the shard they touch
//! (copy-on-write over `Arc`'d entries, so a clone is O(shard-size)
//! pointer bumps), apply the mutation, advance the shard's **epoch**,
//! and publish the new `Arc`. Unrelated shards keep their snapshots.
//!
//! A shard's epoch counts its publications and nothing else. Staleness
//! is judged per catalog entry: every mutation of an entry stamps it
//! with a fresh server-wide **version**, a plan records the version of
//! the entry it read ([`CatalogSnapshot::version_of`]), and at commit
//! time the plan is stale iff that entry's version moved. The hop cache
//! keys on the same version, so a commit to dataset A invalidates
//! neither a plan nor a cached hop table that only read dataset B, even
//! when both live in one shard (see `DESIGN.md` §13).
//!
//! ## Publication primitive
//!
//! `Published<T>` is an arc-swap-style cell built from the crates this
//! workspace vendors: a `RwLock<Arc<T>>` whose read-side critical
//! section is a single `Arc::clone`. A true lock-free arc-swap needs
//! deferred reclamation (and `unsafe`), which the vendored `parking_lot`
//! shim does not provide; the throughput property the pipelines rely on
//! — *plan phases take no catalog lock* — comes from loading the
//! snapshot **once per batch** and planning every request against it,
//! so the per-load cost is amortized to zero and writers never block a
//! planner mid-flight.
//!
//! ## Consistency model
//!
//! * One shard snapshot is internally consistent: its entry table and
//!   its hosted reverse index were published together. Concurrent
//!   readers can never observe a torn shard (asserted by the
//!   `concurrent_stress` integration test).
//! * A [`CatalogSnapshot`] loads each shard independently; cross-shard
//!   skew is possible and harmless, because no plan depends on more
//!   than one catalog entry and the entry a plan read is covered by its
//!   recorded version.
//! * Demand counters and repository availability live in shared state
//!   (`Arc`'d atomics) deliberately: they are telemetry that must keep
//!   accumulating across entry republications without forcing one, and
//!   they are never read by a parallel planner mid-batch.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};
use scdn_graph::NodeId;
use scdn_obs::Counter;
use scdn_social::author::AuthorId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::DatasetId;

use crate::replication::DemandWindow;
use crate::server::RepositoryInfo;

/// Number of catalog shards. A power of two; the multiplicative hash in
/// `shard_index` spreads sequential dataset ids across all of them.
/// Shards bound the copy-on-write cost of one commit (a clone is
/// O(shard-size) pointer bumps) and the writer contention; they play no
/// part in plan staleness, which is per entry.
pub const DEFAULT_CATALOG_SHARDS: usize = 16;

/// Shard of `dataset` among `2^shift` shards: Fibonacci multiplicative
/// hashing on the dataset id, taking high bits so sequential ids (the
/// common allocation pattern) spread evenly.
#[inline]
pub(crate) fn shard_index(dataset: DatasetId, mask: usize) -> usize {
    let h = (u64::from(dataset.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) & mask
}

/// An arc-swap-style publication cell: readers clone the current `Arc`
/// under a momentary read lock, writers build a replacement value and
/// store it. See the module docs for why this is a `RwLock<Arc<T>>`
/// rather than a lock-free swap.
pub(crate) struct Published<T> {
    cell: RwLock<Arc<T>>,
}

impl<T> Published<T> {
    pub(crate) fn new(value: T) -> Self {
        Published {
            cell: RwLock::new(Arc::new(value)),
        }
    }

    /// The current snapshot. The lock is held only for the refcount
    /// bump, never across any use of the value.
    pub(crate) fn load(&self) -> Arc<T> {
        self.cell.read().clone()
    }

    /// Exclusive access to the slot for a read-modify-publish cycle.
    /// Mutations are serialized per cell; loads block only for the
    /// duration of the final pointer store.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Arc<T>> {
        self.cell.write()
    }
}

/// Per-dataset demand telemetry, shared by every published version of
/// the owning entry (and with in-flight snapshots): resolution hit/miss
/// counters plus drained baselines, so a demand window is
/// `counter − baseline` and draining never republishes the shard.
#[derive(Debug)]
pub(crate) struct DemandState {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    hits_drained: AtomicU64,
    misses_drained: AtomicU64,
}

impl DemandState {
    pub(crate) fn new() -> Self {
        DemandState {
            hits: Counter::new(),
            misses: Counter::new(),
            hits_drained: AtomicU64::new(0),
            misses_drained: AtomicU64::new(0),
        }
    }

    /// Current observation window.
    pub(crate) fn window(&self) -> DemandWindow {
        self.observe().1
    }

    /// One consistent read of the counters: the absolute totals
    /// `(hits, misses)` plus the window they imply against the current
    /// baselines. A planner records the totals and later drains **to
    /// them** ([`drain_to`](Self::drain_to)) so requests resolved after
    /// the read fall into the *next* window instead of vanishing.
    pub(crate) fn observe(&self) -> ((u64, u64), DemandWindow) {
        let hits = self.hits.get();
        let misses = self.misses.get();
        let window = DemandWindow {
            hits: hits.saturating_sub(self.hits_drained.load(Ordering::Relaxed)),
            misses: misses.saturating_sub(self.misses_drained.load(Ordering::Relaxed)),
        };
        ((hits, misses), window)
    }

    /// Start a new observation window **at the totals a plan observed**:
    /// baselines advance exactly to `(hits, misses)`, so anything the
    /// counters accumulated since that read stays visible in the next
    /// window. `fetch_max` keeps baselines monotonic if two drains race.
    /// In-place — every snapshot shares this state.
    pub(crate) fn drain_to(&self, hits: u64, misses: u64) {
        self.hits_drained.fetch_max(hits, Ordering::Relaxed);
        self.misses_drained.fetch_max(misses, Ordering::Relaxed);
    }
}

/// Per-host coded-block inventory of one dataset: `(host, sorted block
/// indices)`, ordered by node id. Inventories are `Arc`'d so publishing
/// a snapshot with an untouched host costs one pointer bump.
pub type CodedInventory = Vec<(NodeId, Arc<Vec<u32>>)>;

/// One published version of a catalog entry. Immutable once published;
/// mutations copy-on-write a new version (the demand state is shared
/// across versions — see [`DemandState`]).
#[derive(Clone, Debug)]
pub(crate) struct EntryState {
    pub(crate) replicas: Vec<NodeId>,
    pub(crate) segments: u32,
    /// Per-entry version: bumped by every mutation of the entry (replica
    /// set or coded inventory). The one catalog staleness token: plans
    /// record it and commits compare it, and the hop cache keys on it.
    /// Drawn from the server-wide monotonic counter, so versions order
    /// consistently across shards.
    pub(crate) version: u64,
    pub(crate) demand: Arc<DemandState>,
    /// Erasure-coding parameters, when the dataset is stored coded
    /// (`None` for whole-replica datasets — the pre-coding behavior).
    pub(crate) coding: Option<CodingSpec>,
    /// Per-host coded-block inventories, sorted by node id: which of the
    /// dataset's n coded blocks each host holds. Tracked *next to* the
    /// whole-replica list — a node may appear in both (the owner's full
    /// copy coexists with coded blocks spread across peers). Inventories
    /// are `Arc`'d so republishing an untouched host costs one pointer
    /// bump.
    pub(crate) coded_hosts: CodedInventory,
}

impl EntryState {
    /// Nodes hosting at least one coded block, in inventory (node-id)
    /// order.
    pub(crate) fn coded_host_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.coded_hosts
            .iter()
            .filter(|(_, blocks)| !blocks.is_empty())
            .map(|&(n, _)| n)
    }
}

/// One registered repository. Identity and capacity are immutable; the
/// monitored availability is an atomic (f64 bit pattern) so CDN-client
/// telemetry updates in place instead of republishing the whole table.
#[derive(Debug)]
pub(crate) struct RepoRecord {
    pub(crate) node: NodeId,
    pub(crate) owner: AuthorId,
    pub(crate) capacity: u64,
    availability_bits: AtomicU64,
}

impl RepoRecord {
    pub(crate) fn from_info(info: &RepositoryInfo) -> Self {
        RepoRecord {
            node: info.node,
            owner: info.owner,
            capacity: info.capacity,
            availability_bits: AtomicU64::new(info.availability.to_bits()),
        }
    }

    pub(crate) fn availability(&self) -> f64 {
        f64::from_bits(self.availability_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn set_availability(&self, availability: f64) {
        self.availability_bits
            .store(availability.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// Materialize the public value type.
    pub(crate) fn info(&self) -> RepositoryInfo {
        RepositoryInfo {
            node: self.node,
            owner: self.owner,
            capacity: self.capacity,
            availability: self.availability(),
        }
    }
}

/// The repository registry, published as one immutable table (additions
/// are rare; availability updates mutate records in place).
pub(crate) type RepoTable = HashMap<NodeId, Arc<RepoRecord>>;

/// One immutable published version of a catalog shard: the entries of
/// every dataset hashing to this shard plus the matching slice of the
/// hosted reverse index, numbered by the shard's epoch. Entry values
/// and hosted sets are `Arc`'d so a copy-on-write republication is
/// O(shard-size) pointer bumps.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Monotonic publication epoch: advanced by exactly one on every
    /// publication of this shard.
    pub(crate) epoch: u64,
    pub(crate) entries: HashMap<DatasetId, Arc<EntryState>>,
    /// Reverse index node → datasets (of this shard) with a replica
    /// there, republished together with `entries` so one snapshot is
    /// always internally consistent.
    pub(crate) hosted: HashMap<NodeId, Arc<BTreeSet<DatasetId>>>,
}

impl ShardSnapshot {
    pub(crate) fn empty() -> Self {
        ShardSnapshot {
            epoch: 0,
            entries: HashMap::new(),
            hosted: HashMap::new(),
        }
    }

    /// Publication epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Copy-on-write clone (same epoch; the publisher bumps it).
    pub(crate) fn cow(&self) -> ShardSnapshot {
        ShardSnapshot {
            epoch: self.epoch,
            entries: self.entries.clone(),
            hosted: self.hosted.clone(),
        }
    }

    /// Mutable access to an entry, copy-on-write.
    pub(crate) fn entry_mut(&mut self, dataset: DatasetId) -> &mut EntryState {
        Arc::make_mut(
            self.entries
                .get_mut(&dataset)
                .expect("caller checked the entry exists"),
        )
    }

    pub(crate) fn index_add(&mut self, dataset: DatasetId, node: NodeId) {
        Arc::make_mut(self.hosted.entry(node).or_default()).insert(dataset);
    }

    pub(crate) fn index_remove(&mut self, dataset: DatasetId, node: NodeId) {
        if let Some(set) = self.hosted.get_mut(&node) {
            Arc::make_mut(set).remove(&dataset);
            if set.is_empty() {
                self.hosted.remove(&node);
            }
        }
    }

    /// Re-derive whether `node` belongs in the hosted index for
    /// `dataset` — it does iff it holds a whole replica *or* at least one
    /// coded block — and make the index agree. The single mutation point
    /// all replica/coded-host edits funnel through, so the index can
    /// never leak a node that only lost one of its two hosting roles.
    pub(crate) fn sync_host_index(&mut self, dataset: DatasetId, node: NodeId) {
        let hosts = self.entries.get(&dataset).is_some_and(|e| {
            e.replicas.contains(&node)
                || e.coded_hosts
                    .iter()
                    .any(|(n, blocks)| *n == node && !blocks.is_empty())
        });
        if hosts {
            self.index_add(dataset, node);
        } else {
            self.index_remove(dataset, node);
        }
    }

    /// `true` if the hosted index is exactly the inversion of the entry
    /// table — whole replicas and coded-block holders both count as
    /// hosting (test/diagnostic surface). Entries and index are published
    /// together in one `Arc` swap, so any reader-visible shard must pass
    /// — a failure means a torn publication.
    pub fn is_consistent(&self) -> bool {
        let mut expect: HashMap<NodeId, BTreeSet<DatasetId>> = HashMap::new();
        for (&d, e) in &self.entries {
            for &n in &e.replicas {
                expect.entry(n).or_default().insert(d);
            }
            for n in e.coded_host_nodes() {
                expect.entry(n).or_default().insert(d);
            }
        }
        self.hosted.len() == expect.len()
            && self
                .hosted
                .iter()
                .all(|(n, set)| expect.get(n).is_some_and(|e| e == &**set))
    }
}

/// A full catalog snapshot: every shard's current published version
/// plus the repository table, loaded lock-free-after-load. The unit a
/// planning phase works against — grab one per batch, plan every
/// request on it, and let the recorded entry versions decide at commit
/// time whether a plan must be recomputed.
pub struct CatalogSnapshot {
    pub(crate) shards: Vec<Arc<ShardSnapshot>>,
    pub(crate) repos: Arc<RepoTable>,
}

impl CatalogSnapshot {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index of `dataset`.
    pub fn shard_of(&self, dataset: DatasetId) -> usize {
        shard_index(dataset, self.shards.len() - 1)
    }

    /// The published shard version holding (or that would hold)
    /// `dataset`.
    pub fn shard_for(&self, dataset: DatasetId) -> &Arc<ShardSnapshot> {
        &self.shards[self.shard_of(dataset)]
    }

    /// The published version of shard `index`.
    pub fn shard(&self, index: usize) -> &ShardSnapshot {
        &self.shards[index]
    }

    /// Publication epoch of every shard, indexed by shard.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch).collect()
    }

    pub(crate) fn entry(&self, dataset: DatasetId) -> Option<&Arc<EntryState>> {
        self.shard_for(dataset).entries.get(&dataset)
    }

    /// Replica list of `dataset` in this snapshot.
    pub fn replicas_of(&self, dataset: DatasetId) -> Option<&[NodeId]> {
        self.entry(dataset).map(|e| e.replicas.as_slice())
    }

    /// Segment count of `dataset` in this snapshot.
    pub fn segments_of(&self, dataset: DatasetId) -> Option<u32> {
        self.entry(dataset).map(|e| e.segments)
    }

    /// Per-entry version of `dataset` in this snapshot (`None` while it
    /// is unregistered) — the staleness token a plan records and its
    /// commit compares with
    /// [`catalog_version`](crate::server::AllocationServer::catalog_version).
    pub fn version_of(&self, dataset: DatasetId) -> Option<u64> {
        self.entry(dataset).map(|e| e.version)
    }

    /// Erasure-coding parameters of `dataset` in this snapshot (`None`
    /// for unregistered or whole-replica datasets).
    pub fn coding_of(&self, dataset: DatasetId) -> Option<CodingSpec> {
        self.entry(dataset).and_then(|e| e.coding)
    }

    /// Per-host coded-block inventory of `dataset` in this snapshot:
    /// `(host, sorted block indices)`, ordered by node id. Empty for
    /// whole-replica datasets.
    pub fn coded_inventory_of(&self, dataset: DatasetId) -> CodedInventory {
        self.entry(dataset)
            .map(|e| e.coded_hosts.clone())
            .unwrap_or_default()
    }

    /// Datasets in this snapshot.
    pub fn dataset_count(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }
}
