//! The catalog table under
//! [`AllocationServer`](crate::server::AllocationServer): the paper's
//! "centralized catalog of datasets → replicas", the hosted reverse
//! index, the repository registry, the version counter, the hop cache
//! and the search scratch, in one plain struct in the server's one
//! cell.
//!
//! Change is judged per catalog entry: every mutation that changes an
//! entry stamps it with the next server-wide **version**
//! ([`CatalogSnapshot::version_of`]); a no-op or an error takes none.
//! The hop cache keys on that version, so a commit to dataset A leaves a
//! cached hop table that only read dataset B warm (see `DESIGN.md` §13).
//!
//! A [`CatalogSnapshot`] is a copy of the entries at one catalog state.
//! It carries no repository table: a resolution against it reads the
//! monitored availability live.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use scdn_graph::{NodeId, TraversalScratch};
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::DatasetId;

use crate::replication::DemandWindow;
use crate::resolve_cache::ResolveCache;
use crate::server::{AllocationError, RepositoryInfo, DEFAULT_RESOLVE_CACHE_CAPACITY};

/// Per-host coded-block inventory of one dataset: `(host, sorted block
/// indices)`, ordered by node id.
pub type CodedInventory = Vec<(NodeId, Arc<Vec<u32>>)>;

/// One dataset's catalog entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Whole-replica hosts, the primary first.
    pub replicas: Vec<NodeId>,
    /// Plain segments the dataset was cut into.
    pub segments: u32,
    /// The server-wide version this entry's last change took. The hop
    /// cache keys on it.
    pub version: u64,
    /// Erasure-coding parameters, when the dataset is stored coded
    /// (`None` for whole-replica datasets).
    pub coding: Option<CodingSpec>,
    /// Per-host coded-block inventories, sorted by node id: which of the
    /// dataset's n coded blocks each host holds. Tracked *next to* the
    /// whole-replica list — a node may appear in both (the owner's full
    /// copy coexists with coded blocks spread across peers).
    pub coded_hosts: CodedInventory,
    /// Resolutions served within one social hop.
    pub hits: u64,
    /// Resolutions served beyond one social hop.
    pub misses: u64,
    /// The hit total the last drain opened the current window at.
    pub hits_drained: u64,
    /// The miss total the last drain opened the current window at.
    pub misses_drained: u64,
}

impl Entry {
    pub(crate) fn new(primary: NodeId, segments: u32, coding: Option<CodingSpec>) -> Entry {
        Entry {
            replicas: vec![primary],
            segments,
            version: 0,
            coding,
            coded_hosts: Vec::new(),
            hits: 0,
            misses: 0,
            hits_drained: 0,
            misses_drained: 0,
        }
    }

    /// Demand since the last drain.
    pub(crate) fn window(&self) -> DemandWindow {
        DemandWindow {
            hits: self.hits.saturating_sub(self.hits_drained),
            misses: self.misses.saturating_sub(self.misses_drained),
        }
    }

    /// `true` if `node` holds a whole replica or at least one coded block.
    fn hosted_on(&self, node: NodeId) -> bool {
        self.replicas.contains(&node)
            || self
                .coded_hosts
                .iter()
                .any(|(n, blocks)| *n == node && !blocks.is_empty())
    }
}

/// The allocation server's whole state.
pub(crate) struct Catalog {
    pub(crate) entries: HashMap<DatasetId, Entry>,
    /// Reverse index node → datasets with a replica or coded block there.
    hosted: HashMap<NodeId, BTreeSet<DatasetId>>,
    pub(crate) repos: HashMap<NodeId, RepositoryInfo>,
    /// The last version [`stamp`](Catalog::stamp) handed out.
    next_version: u64,
    /// Version-keyed hop distances for resolution.
    pub(crate) cache: ResolveCache,
    /// The search scratch every cache miss reuses.
    pub(crate) scratch: TraversalScratch,
}

impl Catalog {
    pub(crate) fn new() -> Catalog {
        Catalog {
            entries: HashMap::new(),
            hosted: HashMap::new(),
            repos: HashMap::new(),
            next_version: 0,
            cache: ResolveCache::new(DEFAULT_RESOLVE_CACHE_CAPACITY),
            scratch: TraversalScratch::new(),
        }
    }

    /// `Err` unless `node` is a registered repository.
    pub(crate) fn repo(&self, node: NodeId) -> Result<(), AllocationError> {
        match self.repos.contains_key(&node) {
            true => Ok(()),
            false => Err(AllocationError::UnknownRepository(node)),
        }
    }

    pub(crate) fn entry(&self, dataset: DatasetId) -> Result<&Entry, AllocationError> {
        self.entries
            .get(&dataset)
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// `dataset`'s entry for a mutation, after checking that `host` (when
    /// given) is a registered repository.
    pub(crate) fn entry_mut(
        &mut self,
        dataset: DatasetId,
        host: Option<NodeId>,
    ) -> Result<&mut Entry, AllocationError> {
        host.map_or(Ok(()), |node| self.repo(node))?;
        self.entries
            .get_mut(&dataset)
            .ok_or(AllocationError::UnknownDataset(dataset))
    }

    /// Record a change to `dataset`'s entry: it takes the next version,
    /// and the hosted index is re-derived for each of `nodes` (the ones
    /// the change touched) — the one place the index changes, so it never
    /// keeps a node that lost only one of its two hosting roles.
    pub(crate) fn stamp(&mut self, dataset: DatasetId, nodes: &[NodeId]) {
        self.next_version += 1;
        let entry = self.entries.get_mut(&dataset).expect("a stamped entry");
        entry.version = self.next_version;
        for &node in nodes {
            if entry.hosted_on(node) {
                self.hosted.entry(node).or_default().insert(dataset);
            } else if let Some(set) = self.hosted.get_mut(&node) {
                set.remove(&dataset);
                if set.is_empty() {
                    self.hosted.remove(&node);
                }
            }
        }
    }

    /// Datasets hosted on `node`, sorted.
    pub(crate) fn hosted_by(&self, node: NodeId) -> Vec<DatasetId> {
        self.hosted
            .get(&node)
            .map_or_else(Vec::new, |set| set.iter().copied().collect())
    }

    pub(crate) fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            entries: self.entries.clone(),
        }
    }

    pub(crate) fn state(&self) -> CatalogState {
        let mut entries: Vec<(DatasetId, Entry)> =
            self.entries.iter().map(|(&d, e)| (d, e.clone())).collect();
        entries.sort_unstable_by_key(|&(d, _)| d);
        let mut hosted: Vec<(NodeId, Vec<DatasetId>)> = self
            .hosted
            .iter()
            .map(|(&n, set)| (n, set.iter().copied().collect()))
            .collect();
        hosted.sort_unstable_by_key(|&(n, _)| n);
        let mut repositories: Vec<RepositoryInfo> = self.repos.values().cloned().collect();
        repositories.sort_unstable_by_key(|r| r.node);
        CatalogState {
            entries,
            hosted,
            repositories,
            last_version: self.next_version,
        }
    }
}

/// Everything the catalog decides from, as one plain value: the entries
/// with their demand counts, the hosted index, the repository registry
/// and the version counter. The hop cache and the search scratch are left
/// out: a cache never decides.
#[derive(Debug, PartialEq)]
pub struct CatalogState {
    /// Every entry, in `DatasetId` order.
    pub entries: Vec<(DatasetId, Entry)>,
    /// The hosted index: each node with a replica or coded block, in node
    /// order, and the datasets it hosts, sorted.
    pub hosted: Vec<(NodeId, Vec<DatasetId>)>,
    /// The repository registry, in node order.
    pub repositories: Vec<RepositoryInfo>,
    /// The last server-wide version an entry change took.
    pub last_version: u64,
}

/// A copy of every catalog entry, for a caller that reads many datasets
/// at one catalog state.
pub struct CatalogSnapshot {
    pub(crate) entries: HashMap<DatasetId, Entry>,
}

impl CatalogSnapshot {
    /// Replica list of `dataset` in this snapshot.
    pub fn replicas_of(&self, dataset: DatasetId) -> Option<&[NodeId]> {
        self.entries.get(&dataset).map(|e| e.replicas.as_slice())
    }

    /// Per-entry version of `dataset` in this snapshot (`None` while it
    /// is unregistered), comparable with
    /// [`catalog_version`](crate::server::AllocationServer::catalog_version).
    pub fn version_of(&self, dataset: DatasetId) -> Option<u64> {
        self.entries.get(&dataset).map(|e| e.version)
    }
}
