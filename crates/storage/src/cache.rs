//! Cache management for the replica partition.
//!
//! The paper's repositories serve "caching, temporary, as well as
//! persistent storage" (Section I). Replica partitions are capacity-bound,
//! so when an allocation server pushes more segments than fit, something
//! must be evicted. This module provides LRU eviction over a repository's
//! replica partition, with pinning for segments the catalog requires to
//! stay resident (persistent replicas vs opportunistic cache).

use std::collections::HashMap;

use scdn_obs::{Counter, Registry};

use crate::object::{Segment, SegmentId};
use crate::repository::{Partition, RepoError, StorageRepository};

/// Telemetry handles for a cache manager. Standalone by default; bind to
/// a [`Registry`] with [`CacheMetrics::from_registry`] so the counts show
/// up in exported snapshots under the `storage.cache.*` namespace.
#[derive(Clone, Debug, Default)]
pub struct CacheMetrics {
    /// Accesses to resident segments (recency bumps).
    pub touches: Counter,
    /// Segments inserted into the replica partition.
    pub insertions: Counter,
    /// Segments evicted to make room.
    pub evictions: Counter,
    /// Inserts refused because nothing more could be evicted.
    pub rejections: Counter,
}

impl CacheMetrics {
    /// Handles registered in `reg` under `storage.cache.*` metric names.
    pub fn from_registry(reg: &Registry) -> CacheMetrics {
        CacheMetrics {
            touches: reg.counter("storage.cache.touches"),
            insertions: reg.counter("storage.cache.insertions"),
            evictions: reg.counter("storage.cache.evictions"),
            rejections: reg.counter("storage.cache.rejections"),
        }
    }
}

/// Eviction policy for cached segments. LRU is the only one: the
/// runtime builds nothing else, and the enum stays because the benchmark
/// harness names `Lru` when it builds a manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used unpinned segment.
    Lru,
}

/// A cache manager wrapping one repository's replica partition.
pub struct CacheManager {
    /// Logical access clock.
    tick: u64,
    /// Per-segment (last-use tick, pinned).
    state: HashMap<SegmentId, (u64, bool)>,
    metrics: CacheMetrics,
}

impl CacheManager {
    /// LRU manager with standalone metrics (`Lru` is the only policy).
    pub fn new(_policy: EvictionPolicy) -> CacheManager {
        CacheManager {
            tick: 0,
            state: HashMap::new(),
            metrics: CacheMetrics::default(),
        }
    }

    /// Manager whose metrics are bound to `reg` (exported under
    /// `storage.cache.*`).
    pub fn with_registry(_policy: EvictionPolicy, reg: &Registry) -> CacheManager {
        CacheManager {
            tick: 0,
            state: HashMap::new(),
            metrics: CacheMetrics::from_registry(reg),
        }
    }

    /// This manager's telemetry handles.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Record an access to a cached segment (bumps its recency).
    pub fn touch(&mut self, id: SegmentId) {
        self.tick += 1;
        self.state.entry(id).or_insert((0, false)).0 = self.tick;
        self.metrics.touches.inc();
    }

    /// Batch form of [`touch`](Self::touch): record one access per
    /// segment, in order. A served request applies a whole dataset's
    /// recency updates through this in a single call, with tick and
    /// metric effects identical to touching each segment individually.
    pub fn touch_all(&mut self, ids: impl IntoIterator<Item = SegmentId>) {
        for id in ids {
            self.touch(id);
        }
    }

    /// Pin (or unpin) a segment: pinned segments are never evicted —
    /// these are the catalog-mandated persistent replicas.
    pub fn set_pinned(&mut self, id: SegmentId, pinned: bool) {
        self.tick += 1;
        self.state.entry(id).or_insert((0, false)).1 = pinned;
    }

    /// Every pinned segment, in id order.
    pub fn pinned(&self) -> Vec<SegmentId> {
        let mut ids: Vec<SegmentId> = self
            .state
            .iter()
            .filter(|(_, e)| e.1)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// `true` if the segment is pinned.
    fn is_pinned(&self, id: SegmentId) -> bool {
        self.state.get(&id).is_some_and(|e| e.1)
    }

    /// Drop all tracking state for a segment (after it was removed from
    /// the repository by an outside actor, e.g. a replica shed).
    pub fn forget(&mut self, id: SegmentId) {
        self.state.remove(&id);
    }

    /// Insert a segment into the replica partition, evicting unpinned
    /// cached segments as needed to make room. Returns the evicted ids.
    ///
    /// Fails with `QuotaExceeded` only if the segment cannot fit even
    /// after evicting everything unpinned.
    pub fn insert(
        &mut self,
        repo: &StorageRepository,
        seg: Segment,
    ) -> Result<Vec<SegmentId>, RepoError> {
        let mut evicted = Vec::new();
        loop {
            match repo.store(Partition::Replica, seg.clone()) {
                Ok(()) => {
                    self.touch(seg.id);
                    self.metrics.insertions.inc();
                    return Ok(evicted);
                }
                Err(RepoError::QuotaExceeded { .. }) => {
                    let Some(victim) = self.pick_victim(repo) else {
                        self.metrics.rejections.inc();
                        return Err(RepoError::QuotaExceeded {
                            needed: seg.len() as u64,
                            available: repo.available(),
                        });
                    };
                    repo.remove(Partition::Replica, victim, false)?;
                    self.state.remove(&victim);
                    self.metrics.evictions.inc();
                    evicted.push(victim);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Choose the eviction victim among unpinned resident segments.
    fn pick_victim(&self, repo: &StorageRepository) -> Option<SegmentId> {
        repo.list(Partition::Replica)
            .into_iter()
            .filter(|id| !self.is_pinned(*id))
            .min_by_key(|id| self.state.get(id).map_or(0, |e| e.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::DatasetId;
    use bytes::Bytes;

    fn seg(ds: u32, size: usize) -> Segment {
        Segment::new(
            SegmentId {
                dataset: DatasetId(ds),
                ordinal: 0,
            },
            Bytes::from(vec![ds as u8; size]),
        )
    }

    #[test]
    fn lru_evicts_least_recent() {
        let repo = StorageRepository::new(250);
        let mut cache = CacheManager::new(EvictionPolicy::Lru);
        let (s0, s1, s2) = (seg(0, 100), seg(1, 100), seg(2, 100));
        cache.insert(&repo, s0.clone()).expect("fits");
        cache.insert(&repo, s1.clone()).expect("fits");
        cache.touch(s0.id); // s0 is now more recent than s1
        let evicted = cache.insert(&repo, s2.clone()).expect("evicts");
        assert_eq!(evicted, vec![s1.id]);
        assert!(repo.contains(s0.id));
        assert!(repo.contains(s2.id));
    }

    #[test]
    fn pinned_segments_survive() {
        let repo = StorageRepository::new(250);
        let mut cache = CacheManager::new(EvictionPolicy::Lru);
        let (s0, s1, s2) = (seg(0, 100), seg(1, 100), seg(2, 100));
        cache.insert(&repo, s0.clone()).expect("fits");
        cache.insert(&repo, s1.clone()).expect("fits");
        cache.set_pinned(s0.id, true);
        let evicted = cache.insert(&repo, s2.clone()).expect("evicts around pin");
        assert_eq!(evicted, vec![s1.id]);
        assert!(repo.contains(s0.id), "pinned segment must remain");
    }

    #[test]
    fn all_pinned_cannot_fit_errors() {
        let repo = StorageRepository::new(200);
        let mut cache = CacheManager::new(EvictionPolicy::Lru);
        let (s0, s1) = (seg(0, 100), seg(1, 100));
        cache.insert(&repo, s0.clone()).expect("fits");
        cache.insert(&repo, s1.clone()).expect("fits");
        cache.set_pinned(s0.id, true);
        cache.set_pinned(s1.id, true);
        match cache.insert(&repo, seg(2, 100)) {
            Err(RepoError::QuotaExceeded { .. }) => {}
            other => panic!("expected quota error, got {other:?}"),
        }
        assert!(repo.contains(s0.id) && repo.contains(s1.id));
    }

    #[test]
    fn registry_bound_metrics_count_cache_activity() {
        let reg = Registry::new();
        let repo = StorageRepository::new(250);
        let mut cache = CacheManager::with_registry(EvictionPolicy::Lru, &reg);
        cache.insert(&repo, seg(0, 100)).expect("fits");
        cache.insert(&repo, seg(1, 100)).expect("fits");
        cache.insert(&repo, seg(2, 100)).expect("evicts one");
        cache.set_pinned(seg(1, 100).id, true);
        cache.set_pinned(seg(2, 100).id, true);
        let _ = cache.insert(&repo, seg(3, 200)).unwrap_err();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("storage.cache.insertions"), Some(3));
        assert_eq!(snap.counter("storage.cache.evictions"), Some(1));
        assert_eq!(snap.counter("storage.cache.rejections"), Some(1));
        // Each successful insert also touches its own segment.
        assert_eq!(snap.counter("storage.cache.touches"), Some(3));
    }

    #[test]
    fn multiple_evictions_for_large_insert() {
        let repo = StorageRepository::new(300);
        let mut cache = CacheManager::new(EvictionPolicy::Lru);
        for i in 0..3 {
            cache.insert(&repo, seg(i, 100)).expect("fits");
        }
        let evicted = cache.insert(&repo, seg(9, 250)).expect("evicts");
        // 3 × 100 B resident, 300 B capacity: fitting 250 B requires
        // evicting all three 100 B segments (100 + 250 > 300).
        assert_eq!(evicted.len(), 3);
        assert!(repo.contains(seg(9, 250).id));
    }
}
