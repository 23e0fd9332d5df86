//! Version-keyed social-distance cache for replica resolution.
//!
//! Resolution ranks a dataset's replicas by social hop distance from the
//! requester. Those hop distances depend only on the (frozen) social
//! graph and the replica set — not on the per-call online mask or latency
//! estimates — so they can be memoized per `(requester, dataset)` and
//! keyed by the catalog entry's version: any `add_replica` /
//! `remove_replica` / `migrate_replica` / placement change bumps the
//! entry version, which invalidates the cached hops implicitly (no
//! eager cache walk on the write path).
//!
//! ## Nearest-only slots
//!
//! A miss runs `TraversalScratch::bfs_to_nearest` with the replicas
//! online *now* eligible: it settles the nearest of them and every
//! replica at its distance, and leaves every other replica unsettled
//! (`None`) — each lies strictly beyond the search's bound. A slot stores
//! that bound next to the hops, and a lookup answers only when the slot
//! decides the winner under the caller's liveness: the best replica
//! online now was settled within the bound (or the bound is `u32::MAX`,
//! which makes every hop exact), or no replica is online at all. An
//! unsettled online replica could be nearer than a settled one beyond
//! the bound, so any other lookup is a miss
//! (`alloc.resolve.cache.bound_miss`) and searches again under current
//! liveness. The settled hops are still a function of the graph and the
//! replica set, so the cache stays keyed without liveness, and a cache
//! answer still equals a cold recomputation.
//!
//! Keying on the entry version (see [`crate::catalog`]) means a commit to
//! another dataset invalidates nothing here.
//!
//! The cache is one map with one FIFO, owned by the catalog table and
//! reached only through the allocation server's one cell, and bounded: it
//! evicts the oldest insertion once it holds its capacity. The graph
//! guard is the CSR's monotonic [`CsrGraph::generation`] — an
//! *unannounced* generation change (a caller swapping in a different
//! graph without going through [`ResolveCache::apply_delta`]) flushes
//! everything.
//!
//! ## Invalidation under churn
//!
//! A graph change announced through [`ResolveCache::apply_delta`] is
//! evicted by generation: a delta whose
//! [`DeltaSummary::distances_unchanged`](scdn_graph::DeltaSummary::distances_unchanged)
//! (weight-only reinforcement, isolated activation) keeps every entry, and
//! any other delta flushes the cache, exactly like an unannounced swap.
//! Keeping the entries a distance-changing delta could not reach would
//! need two whole-graph frontier searches per delta; measured under churn
//! they kept under 1% of the cache (about one resolve miss saved per
//! delta) at hundreds of times the cost of that miss (EXPERIMENTS.md
//! "Cheap churn").
//!
//! ## Chunked COW storage changes nothing here
//!
//! `CsrGraph` stores its columns as `Arc`-shared row chunks and
//! [`CsrGraph::apply_delta`] rewrites only touched chunks. That is a
//! *storage* optimization: the generation counter stays globally
//! monotonic (every apply/freeze mints a fresh value, never reuses one),
//! and whether a delta changed any distance does not depend on how many
//! chunks its rows map onto. Both guards this cache relies on are
//! therefore layout-independent — no rekeying, and no sensitivity to
//! `chunk_rows`.

use std::collections::{HashMap, VecDeque};

use scdn_graph::{CsrGraph, NodeId};
use scdn_storage::object::DatasetId;

/// Cache key: one requester resolving one dataset.
type Key = (NodeId, DatasetId);

/// Cached hop distances for one key at one catalog-entry version.
struct Slot {
    /// Catalog entry version the hops were computed against.
    version: u64,
    /// The bound the search that filled `hops` settled within: every
    /// replica at most this far is settled, and every `None` lies beyond
    /// it or is unreachable.
    bound: u32,
    /// Hop distance per replica, parallel to the entry's replica list at
    /// `version` (`None` = beyond `bound`, or socially unreachable).
    hops: Box<[Option<u32>]>,
}

/// Outcome of a delta invalidation (for telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RetentionOutcome {
    /// Entries kept because the delta changed no hop distance.
    pub retained: u64,
    /// Entries flushed because the delta may have changed a distance.
    pub evicted: u64,
}

/// Bounded, version-keyed hop-distance cache.
pub(crate) struct ResolveCache {
    map: HashMap<Key, Slot>,
    /// Insertion order for FIFO eviction. Keys are pushed only on fresh
    /// insert (version refreshes update in place) and every removal from
    /// `map` also leaves the queue, so it holds exactly the map's keys,
    /// each once.
    fifo: VecDeque<Key>,
    /// Entry bound; 0 disables the cache entirely.
    capacity: usize,
    /// [`CsrGraph::generation`] of the graph the cached hops were computed
    /// on; `None` until the first traversal.
    graph_gen: Option<u64>,
}

impl ResolveCache {
    pub(crate) fn new(capacity: usize) -> ResolveCache {
        ResolveCache {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            capacity,
            graph_gen: None,
        }
    }

    fn clear(&mut self) -> u64 {
        let flushed = self.map.len() as u64;
        self.map.clear();
        self.fifo.clear();
        flushed
    }

    /// Flush the cache if `csr` is not the snapshot the cached hops were
    /// computed on (first call just records the generation). A churned
    /// graph that went through [`apply_delta`](ResolveCache::apply_delta)
    /// already announced its new generation and keeps its survivors; any
    /// *unannounced* generation change is an unknown graph swap and drops
    /// everything.
    pub(crate) fn ensure_graph(&mut self, csr: &CsrGraph) {
        let generation = csr.generation();
        if self.graph_gen.is_some_and(|prev| prev != generation) {
            self.clear();
        }
        self.graph_gen = Some(generation);
    }

    /// Invalidation for a graph change `old → new` produced by
    /// [`CsrGraph::apply_delta`]: a delta that provably changed no hop
    /// distance (weight-only reinforcement, isolated activation) retains
    /// every entry; any other delta, an `old` that is not the announced
    /// snapshot, or a `new` without a delta summary flushes the cache.
    /// Either way `new`'s generation is adopted, so subsequent
    /// [`ensure_graph`](ResolveCache::ensure_graph) calls leave the
    /// survivors alone.
    pub(crate) fn apply_delta(&mut self, old: &CsrGraph, new: &CsrGraph) -> RetentionOutcome {
        let announced = self.graph_gen.is_none_or(|g| g == old.generation());
        self.graph_gen = Some(new.generation());
        if announced && new.last_delta().is_some_and(|d| d.distances_unchanged()) {
            let retained = self.map.len() as u64;
            RetentionOutcome {
                retained,
                evicted: 0,
            }
        } else {
            let evicted = self.clear();
            RetentionOutcome {
                retained: 0,
                evicted,
            }
        }
    }

    /// The cached hops and their bound for `key`, if they exist *and*
    /// were computed at `version`; `None` is a miss (absent or stale).
    /// Whether the slot decides this request is the caller's check
    /// (module docs).
    pub(crate) fn hops(&self, key: Key, version: u64) -> Option<(&[Option<u32>], u32)> {
        self.map
            .get(&key)
            .filter(|slot| slot.version == version)
            .map(|slot| (&*slot.hops, slot.bound))
    }

    /// Insert (or refresh) the hops for `key` at `version`, settled within
    /// `bound`, evicting FIFO past the capacity. Returns the number of
    /// entries evicted; a disabled cache stores nothing.
    pub(crate) fn insert(
        &mut self,
        key: Key,
        version: u64,
        bound: u32,
        hops: Box<[Option<u32>]>,
    ) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let slot = Slot {
            version,
            bound,
            hops,
        };
        // A `Some` return is an in-place version refresh: the FIFO slot
        // pushed at first insert is kept, so no eviction check is needed.
        if self.map.insert(key, slot).is_some() {
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            evicted += u64::from(self.map.remove(&old).is_some());
        }
        self.fifo.push_back(key);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_graph::{Graph, GraphDelta};

    fn key(r: u32, d: u32) -> Key {
        (NodeId(r), DatasetId(d))
    }

    /// 0 — 1 — 2 — … — (n-1)
    fn line(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1);
        }
        g
    }

    fn hops(v: &[Option<u32>]) -> Box<[Option<u32>]> {
        v.to_vec().into_boxed_slice()
    }

    fn owned(c: &ResolveCache, k: Key, version: u64) -> Option<(Vec<Option<u32>>, u32)> {
        c.hops(k, version).map(|(h, bound)| (h.to_vec(), bound))
    }

    #[test]
    fn hit_requires_matching_version() {
        let mut c = ResolveCache::new(64);
        c.insert(key(1, 2), 7, 1, hops(&[Some(1), None]));
        assert_eq!(owned(&c, key(1, 2), 7), Some((vec![Some(1), None], 1)));
        assert!(c.hops(key(1, 2), 8).is_none(), "stale version");
        assert!(c.hops(key(1, 3), 7).is_none(), "absent key");
    }

    #[test]
    fn capacity_zero_disables() {
        let mut c = ResolveCache::new(0);
        c.insert(key(1, 1), 1, u32::MAX, hops(&[Some(0)]));
        assert!(c.hops(key(1, 1), 1).is_none());
    }

    #[test]
    fn eviction_is_bounded_fifo() {
        let mut c = ResolveCache::new(8);
        let mut evicted = 0;
        for i in 0..64u32 {
            evicted += c.insert(key(i, 0), 1, u32::MAX, hops(&[Some(1)]));
        }
        assert_eq!(c.map.len(), 8);
        assert_eq!(evicted, 64 - 8);
        assert!(
            (56..64).all(|i| c.hops(key(i, 0), 1).is_some()),
            "newest kept"
        );
    }

    #[test]
    fn refresh_updates_in_place() {
        let mut c = ResolveCache::new(64);
        c.insert(key(4, 4), 1, u32::MAX, hops(&[Some(3)]));
        c.insert(key(4, 4), 2, u32::MAX, hops(&[Some(5)]));
        assert_eq!(c.map.len(), 1);
        assert_eq!(owned(&c, key(4, 4), 2), Some((vec![Some(5)], u32::MAX)));
    }

    #[test]
    fn unannounced_generation_change_flushes() {
        let g = line(4);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g); // structurally identical, new generation
        let mut c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(1, 1), 1, u32::MAX, hops(&[Some(1)]));
        c.ensure_graph(&a);
        assert_eq!(c.map.len(), 1, "same snapshot keeps entries");
        c.ensure_graph(&b);
        assert_eq!(
            c.map.len(),
            0,
            "generation change flushes even at equal shape"
        );
    }

    #[test]
    fn churn_evictions_leave_no_fifo_ghosts() {
        // A working set well below capacity, evicted and re-inserted
        // round after round.
        const W: u32 = 6;
        let mut c = ResolveCache::new(8 * W as usize);
        let mut g = line(12);
        let mut csr = CsrGraph::from(&g);
        c.ensure_graph(&csr);
        let check = |c: &ResolveCache| {
            assert_eq!(c.fifo.len(), c.map.len(), "queue tracks the map");
            assert!(c.fifo.iter().all(|k| c.map.contains_key(k)));
        };
        for round in 0..20u32 {
            for d in 0..W {
                c.insert(key(0, d), 1, u32::MAX, hops(&[Some(11)]));
            }
            check(&c);
            let mut delta = GraphDelta::new();
            if round % 2 == 0 {
                delta.remove_edge(NodeId(5), NodeId(6));
            } else {
                delta.add_edge(NodeId(5), NodeId(6), 1);
            }
            let next = csr.apply_delta(&delta);
            delta.apply_to(&mut g);
            let out = c.apply_delta(&csr, &next);
            assert_eq!((out.retained, out.evicted), (0, u64::from(W)));
            csr = next;
            check(&c);
        }

        // Eviction follows true insertion order. Two slots: with a ghost
        // of `a` at the queue's head, inserting `third` would evict the
        // live re-inserted `a` instead of the older `b`.
        let mut c = ResolveCache::new(2);
        let old = CsrGraph::from(&line(12));
        c.ensure_graph(&old);
        let [a, b, third] = [0, 1, 2].map(|i| key(0, i));
        c.insert(a, 1, u32::MAX, hops(&[Some(11)]));
        let mut delta = GraphDelta::new();
        delta.remove_edge(NodeId(5), NodeId(6));
        let new = old.apply_delta(&delta);
        assert_eq!(c.apply_delta(&old, &new).evicted, 1);
        c.insert(b, 1, u32::MAX, hops(&[Some(5)]));
        c.insert(a, 1, u32::MAX, hops(&[Some(5)]));
        assert_eq!(c.insert(third, 1, u32::MAX, hops(&[Some(5)])), 1);
        assert!(c.hops(b, 1).is_none(), "oldest goes first");
        assert!(c.hops(a, 1).is_some());
        assert!(c.hops(third, 1).is_some());
        check(&c);
    }

    #[test]
    fn weight_only_delta_retains_everything() {
        let mut g = line(6);
        let old = CsrGraph::from(&g);
        let mut c = ResolveCache::new(64);
        c.ensure_graph(&old);
        c.insert(key(0, 1), 1, u32::MAX, hops(&[Some(5)]));
        c.insert(key(3, 2), 1, u32::MAX, hops(&[Some(2), None]));

        let mut d = GraphDelta::new();
        d.add_edge(NodeId(2), NodeId(3), 9); // reinforce an existing edge
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);

        let out = c.apply_delta(&old, &new);
        assert_eq!(out.retained, 2, "hop distances provably unchanged");
        assert_eq!(out.evicted, 0);
    }

    #[test]
    fn delta_from_unknown_snapshot_flushes() {
        let g = line(5);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g);
        let mut c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(0, 1), 1, u32::MAX, hops(&[Some(1)]));
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(4), 1);
        let new = b.apply_delta(&d); // delta over a snapshot we never saw
        let out = c.apply_delta(&b, &new);
        assert_eq!(out.retained, 0);
        assert_eq!(out.evicted, 1);
        assert_eq!(c.map.len(), 0);
    }
}
