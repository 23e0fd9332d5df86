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
//! Entry versions are strictly *finer* than the catalog's shard epochs
//! (see [`crate::epoch`]): every entry-version bump republishes its
//! shard and advances the epoch, but an epoch advance bumps only the
//! entries actually mutated. Keying on the entry version therefore
//! retains strictly more: a commit to another dataset — even one in the
//! same shard — invalidates plans stamped on that shard (cheap replans)
//! while every cached hop table here stays warm. The wholesale
//! counterpart is `AllocationServer::touch_all`, which bumps every
//! entry version and thus flushes this cache implicitly — its
//! `alloc.catalog.touch_all` counter makes that cost visible.
//!
//! The cache is sharded (requester-hashed) so parallel
//! [`resolve_batch`](crate::server::AllocationServer::resolve_batch)
//! workers don't serialize on one mutex, and bounded: each shard evicts
//! FIFO once it reaches its capacity share. The graph guard is the CSR's
//! monotonic [`CsrGraph::generation`] — an *unannounced* generation change
//! (a caller swapping in a different graph without going through
//! [`ResolveCache::apply_delta`]) flushes everything, exactly like the old
//! fingerprint guard but without its equal-sized-graph collision.
//!
//! ## Scoped invalidation under churn
//!
//! When the graph changes via [`CsrGraph::apply_delta`], flushing
//! wholesale throws away hop tables that provably cannot have changed.
//! [`ResolveCache::apply_delta`] instead evicts only the entries whose
//! distance radius *can* reach a churn-touched endpoint. The argument is
//! about hop distances alone — which nodes the resolve kernel happened to
//! visit while computing them (the meet-in-the-middle search visits far
//! fewer than the ball of that radius) plays no part:
//!
//! An entry for requester `q` whose cached hops are all `Some` with
//! maximum `R` (its distance radius) is retained iff every touched node
//! is farther than `R` from `q` in **both** the old and the new graph. Any
//! changed shortest path `q → replica` must cross a touched node `t`
//! (both endpoints of every changed edge are touched): if a distance
//! shrank, the new path crosses `t` at `d_new(q,t) ≤ d_new(q,replica) <
//! d_old(q,replica) ≤ R`; if it grew, the broken old path crossed `t` at
//! `d_old(q,t) ≤ R`. Either way a touched node sits within `R` on one
//! side, so "touched frontier farther than `R` on both sides" implies
//! every cached hop is still exact. Entries with an unreached (`None`)
//! replica are always evicted — their verdict can flip without a nearby
//! touched node when the hop budget clipped the search. Both frontier
//! distances come from one bounded multi-source BFS per side, seeded with
//! the touched set and capped at [`FRONTIER_DEPTH`]; a requester the
//! frontier never reached is farther than the cap, so entries with
//! `R ≥ FRONTIER_DEPTH` are conservatively evicted. False positives
//! (extra evictions) only cost a recompute; false negatives are
//! impossible — property-tested against full-BFS recomputation in
//! `tests/delta_invalidation.rs`.
//!
//! ## Chunked COW storage changes nothing here
//!
//! `CsrGraph` stores its columns as `Arc`-shared row chunks and
//! [`CsrGraph::apply_delta`] rewrites only touched chunks. That is a
//! *storage* optimization: the generation counter stays globally
//! monotonic (every apply/freeze mints a fresh value, never reuses one),
//! and the `touched` set in [`DeltaSummary`](scdn_graph::DeltaSummary)
//! still over-approximates every changed row regardless of how many
//! chunks the rows map onto. Both guards this cache relies on are
//! therefore layout-independent — no rekeying, and no sensitivity to
//! `chunk_rows`, which the chunk-size sweep in
//! `tests/delta_invalidation.rs` pins.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;
use scdn_graph::csr::UNVISITED;
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_storage::object::DatasetId;

/// Number of independent shards (power of two).
const SHARDS: usize = 8;

/// Hop cap for the scoped-invalidation frontier BFS. Entries whose cached
/// radius reaches this deep are evicted unconditionally; social resolution
/// radii are tiny (the paper's graphs have diameter ≪ 16), so in practice
/// the cap never bites.
pub(crate) const FRONTIER_DEPTH: u32 = 16;

/// Cache key: one requester resolving one dataset.
type Key = (NodeId, DatasetId);

/// Cached hop distances for one key at one catalog-entry version.
struct Slot {
    /// Catalog entry version the hops were computed against.
    version: u64,
    /// Hop distance per replica, parallel to the entry's replica list at
    /// `version` (`None` = socially unreachable).
    hops: Box<[Option<u32>]>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Slot>,
    /// Insertion order for FIFO eviction. Keys are pushed only on fresh
    /// insert (version refreshes update in place) and every removal from
    /// `map` also leaves the queue, so it holds exactly the map's keys,
    /// each once.
    fifo: VecDeque<Key>,
}

/// Outcome of a cache insert (for telemetry).
pub(crate) struct InsertOutcome {
    /// Number of entries evicted to make room.
    pub evicted: u64,
}

/// Outcome of a scoped delta invalidation (for telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RetentionOutcome {
    /// Entries that provably survived the graph change.
    pub retained: u64,
    /// Entries evicted because their distance radius may reach the churn.
    pub evicted: u64,
}

/// Sharded, bounded, version-keyed hop-distance cache.
pub(crate) struct ResolveCache {
    shards: Vec<Mutex<Shard>>,
    /// Total capacity across shards; 0 disables the cache entirely.
    capacity: usize,
    /// [`CsrGraph::generation`] of the graph the cached hops were computed
    /// on; `None` until the first traversal.
    graph_gen: Mutex<Option<u64>>,
}

impl ResolveCache {
    pub(crate) fn new(capacity: usize) -> ResolveCache {
        ResolveCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity,
            graph_gen: Mutex::new(None),
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        // Requester id spreads batch workloads; dataset id decorrelates a
        // single hot requester fanning over many datasets.
        let h = (key.0 .0 as usize).wrapping_mul(0x9E37_79B9) ^ (key.1 .0 as usize);
        &self.shards[h % SHARDS]
    }

    /// Flush the cache if `csr` is not the snapshot the cached hops were
    /// computed on (first call just records the generation). A churned
    /// graph that went through [`apply_delta`](ResolveCache::apply_delta)
    /// already announced its new generation and keeps its survivors; any
    /// *unannounced* generation change is an unknown graph swap and drops
    /// everything.
    pub(crate) fn ensure_graph(&self, csr: &CsrGraph) {
        let generation = csr.generation();
        let mut cur = self.graph_gen.lock();
        match *cur {
            Some(prev) if prev == generation => {}
            Some(_) => {
                for shard in &self.shards {
                    let mut s = shard.lock();
                    s.map.clear();
                    s.fifo.clear();
                }
                *cur = Some(generation);
            }
            None => *cur = Some(generation),
        }
    }

    /// Scoped invalidation for a graph change `old → new` produced by
    /// [`CsrGraph::apply_delta`]: evict only the entries whose distance
    /// radius can reach a touched node (see the module docs for the
    /// proof sketch), retain everything else, and adopt `new`'s
    /// generation so subsequent [`ensure_graph`](ResolveCache::ensure_graph)
    /// calls leave the survivors alone.
    ///
    /// Falls back to a wholesale flush when `old` is not the announced
    /// snapshot or `new` carries no delta summary (not produced by
    /// `apply_delta`). A delta that provably changed no hop distance
    /// (weight-only reinforcement, isolated activation) retains every
    /// entry without any traversal.
    pub(crate) fn apply_delta(
        &self,
        old: &CsrGraph,
        new: &CsrGraph,
        scratch: &mut TraversalScratch,
    ) -> RetentionOutcome {
        let mut out = RetentionOutcome::default();
        let mut cur = self.graph_gen.lock();
        let announced = *cur == Some(old.generation()) || cur.is_none();
        *cur = Some(new.generation());
        match new.last_delta() {
            Some(summary) if announced && summary.distances_unchanged() => {
                out.retained = self.shards.iter().map(|s| s.lock().map.len() as u64).sum();
            }
            Some(summary) if announced => {
                // One bounded multi-source BFS per side: distance from the
                // touched set to every node within FRONTIER_DEPTH hops.
                scratch.bfs_bounded(old, &summary.touched, FRONTIER_DEPTH);
                let old_frontier: Vec<u32> = scratch.distances().to_vec();
                scratch.bfs_bounded(new, &summary.touched, FRONTIER_DEPTH);
                let fence = |dists: &[u32], q: NodeId| match dists.get(q.index()) {
                    Some(&d) if d != UNVISITED => d,
                    // Unreached within the cap: farther than FRONTIER_DEPTH.
                    _ => FRONTIER_DEPTH + 1,
                };
                for shard in &self.shards {
                    let mut guard = shard.lock();
                    let Shard { map, fifo } = &mut *guard;
                    map.retain(|&(requester, _), slot| {
                        let mut radius = 0u32;
                        let keep = slot.hops.iter().all(|h| match h {
                            Some(d) => {
                                radius = radius.max(*d);
                                true
                            }
                            // A budget-clipped verdict can flip without a
                            // nearby touched node: always evict.
                            None => false,
                        }) && radius < fence(&old_frontier, requester)
                            && radius < fence(scratch.distances(), requester);
                        if keep {
                            out.retained += 1;
                        } else {
                            out.evicted += 1;
                        }
                        keep
                    });
                    // An evicted key left in the queue would be pushed a
                    // second time when it is re-inserted, and its stale
                    // first copy would later evict the live slot ahead of
                    // its turn (and the queue would grow without bound).
                    if fifo.len() != map.len() {
                        fifo.retain(|k| map.contains_key(k));
                    }
                }
            }
            _ => {
                for shard in &self.shards {
                    let mut s = shard.lock();
                    out.evicted += s.map.len() as u64;
                    s.map.clear();
                    s.fifo.clear();
                }
            }
        }
        out
    }

    /// Run `f` over the cached hops for `key` if they exist *and* were
    /// computed at `version`; `None` is a miss (absent or stale).
    pub(crate) fn with_hops<R>(
        &self,
        key: Key,
        version: u64,
        f: impl FnOnce(&[Option<u32>]) -> R,
    ) -> Option<R> {
        let shard = self.shard(&key).lock();
        match shard.map.get(&key) {
            Some(slot) if slot.version == version => Some(f(&slot.hops)),
            _ => None,
        }
    }

    /// Insert (or refresh) the hops for `key` at `version`, evicting FIFO
    /// past the capacity share. No-op when the cache is disabled.
    pub(crate) fn insert(&self, key: Key, version: u64, hops: Box<[Option<u32>]>) -> InsertOutcome {
        let mut outcome = InsertOutcome { evicted: 0 };
        if self.capacity == 0 {
            return outcome;
        }
        let per_shard = self.capacity.div_ceil(SHARDS).max(1);
        let mut shard = self.shard(&key).lock();
        // A `Some` return is an in-place version refresh: the FIFO slot
        // pushed at first insert is kept, so no eviction check is needed.
        let fresh = shard.map.insert(key, Slot { version, hops }).is_none();
        if fresh {
            while shard.map.len() > per_shard {
                let Some(old) = shard.fifo.pop_front() else {
                    break;
                };
                if shard.map.remove(&old).is_some() {
                    outcome.evicted += 1;
                }
            }
            shard.fifo.push_back(key);
        }
        outcome
    }

    /// Number of cached entries (test/diagnostic surface).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
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

    #[test]
    fn hit_requires_matching_version() {
        let c = ResolveCache::new(64);
        c.insert(key(1, 2), 7, hops(&[Some(1), None]));
        assert_eq!(
            c.with_hops(key(1, 2), 7, <[Option<u32>]>::to_vec),
            Some(vec![Some(1), None])
        );
        assert!(c.with_hops(key(1, 2), 8, |_| ()).is_none(), "stale version");
        assert!(c.with_hops(key(1, 3), 7, |_| ()).is_none(), "absent key");
    }

    #[test]
    fn capacity_zero_disables() {
        let c = ResolveCache::new(0);
        c.insert(key(1, 1), 1, hops(&[Some(0)]));
        assert!(c.with_hops(key(1, 1), 1, |_| ()).is_none());
    }

    #[test]
    fn eviction_is_bounded_fifo() {
        let c = ResolveCache::new(SHARDS); // one slot per shard
        let mut evicted = 0;
        for i in 0..64u32 {
            evicted += c.insert(key(i, 0), 1, hops(&[Some(1)])).evicted;
        }
        assert!(c.len() <= SHARDS, "len {} > {}", c.len(), SHARDS);
        assert!(evicted >= 64 - SHARDS as u64);
    }

    #[test]
    fn refresh_updates_in_place() {
        let c = ResolveCache::new(64);
        c.insert(key(4, 4), 1, hops(&[Some(3)]));
        c.insert(key(4, 4), 2, hops(&[Some(5)]));
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.with_hops(key(4, 4), 2, <[Option<u32>]>::to_vec),
            Some(vec![Some(5)])
        );
    }

    #[test]
    fn unannounced_generation_change_flushes() {
        let g = line(4);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g); // structurally identical, new generation
        let c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(1, 1), 1, hops(&[Some(1)]));
        c.ensure_graph(&a);
        assert_eq!(c.len(), 1, "same snapshot keeps entries");
        c.ensure_graph(&b);
        assert_eq!(c.len(), 0, "generation change flushes even at equal shape");
    }

    #[test]
    fn delta_scoped_eviction_retains_far_entries_only() {
        let mut g = line(10);
        let old = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&old);
        // Requester 0, radius 1: far from the churn at 7—8.
        c.insert(key(0, 1), 1, hops(&[Some(1)]));
        // Requester 0, radius 9: reaches past the churned edge.
        c.insert(key(0, 2), 1, hops(&[Some(9)]));
        // Unreached replica: always evicted regardless of distance.
        c.insert(key(1, 3), 1, hops(&[Some(1), None]));

        let mut d = GraphDelta::new();
        d.remove_edge(NodeId(7), NodeId(8));
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);

        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&old, &new, &mut scratch);
        assert_eq!(out.retained, 1);
        assert_eq!(out.evicted, 2);
        assert!(c.with_hops(key(0, 1), 1, |_| ()).is_some());
        assert!(c.with_hops(key(0, 2), 1, |_| ()).is_none());
        assert!(c.with_hops(key(1, 3), 1, |_| ()).is_none());
        // The new generation is adopted: no flush on the next resolve.
        c.ensure_graph(&new);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn churn_evictions_leave_no_fifo_ghosts() {
        // A working set well below capacity, evicted and re-inserted
        // round after round.
        const W: u32 = 6;
        let c = ResolveCache::new(SHARDS * W as usize);
        let mut g = line(12);
        let mut csr = CsrGraph::from(&g);
        c.ensure_graph(&csr);
        let mut scratch = TraversalScratch::new();
        let check = |c: &ResolveCache| {
            for shard in &c.shards {
                let s = shard.lock();
                assert_eq!(s.fifo.len(), s.map.len(), "queue tracks the map");
                assert!(s.fifo.iter().all(|k| s.map.contains_key(k)));
            }
        };
        for round in 0..20u32 {
            // Radius 11 spans the whole line: any structural delta evicts.
            for d in 0..W {
                c.insert(key(0, d), 1, hops(&[Some(11)]));
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
            let out = c.apply_delta(&csr, &next, &mut scratch);
            assert_eq!((out.retained, out.evicted), (0, u64::from(W)));
            csr = next;
            check(&c);
        }

        // Eviction follows true insertion order. Three keys of one shard
        // (same requester, datasets a multiple of SHARDS apart), two slots:
        // with a ghost of `a` at the queue's head, inserting `c` would
        // evict the live re-inserted `a` instead of the older `b`.
        let c = ResolveCache::new(2 * SHARDS);
        let old = CsrGraph::from(&line(12));
        c.ensure_graph(&old);
        let [a, b, third] = [0, 1, 2].map(|i| key(0, i * SHARDS as u32));
        assert!(std::ptr::eq(c.shard(&a), c.shard(&b)));
        assert!(std::ptr::eq(c.shard(&a), c.shard(&third)));
        c.insert(a, 1, hops(&[Some(11)]));
        let mut delta = GraphDelta::new();
        delta.remove_edge(NodeId(5), NodeId(6));
        let new = old.apply_delta(&delta);
        assert_eq!(c.apply_delta(&old, &new, &mut scratch).evicted, 1);
        c.insert(b, 1, hops(&[Some(5)]));
        c.insert(a, 1, hops(&[Some(5)]));
        assert_eq!(c.insert(third, 1, hops(&[Some(5)])).evicted, 1);
        assert!(c.with_hops(b, 1, |_| ()).is_none(), "oldest goes first");
        assert!(c.with_hops(a, 1, |_| ()).is_some());
        assert!(c.with_hops(third, 1, |_| ()).is_some());
        check(&c);
    }

    #[test]
    fn weight_only_delta_retains_everything() {
        let mut g = line(6);
        let old = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&old);
        c.insert(key(0, 1), 1, hops(&[Some(5)]));
        c.insert(key(3, 2), 1, hops(&[Some(2), None]));

        let mut d = GraphDelta::new();
        d.add_edge(NodeId(2), NodeId(3), 9); // reinforce an existing edge
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);

        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&old, &new, &mut scratch);
        assert_eq!(out.retained, 2, "hop distances provably unchanged");
        assert_eq!(out.evicted, 0);
    }

    #[test]
    fn delta_from_unknown_snapshot_flushes() {
        let g = line(5);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(0, 1), 1, hops(&[Some(1)]));
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(4), 1);
        let new = b.apply_delta(&d); // delta over a snapshot we never saw
        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&b, &new, &mut scratch);
        assert_eq!(out.retained, 0);
        assert_eq!(out.evicted, 1);
        assert_eq!(c.len(), 0);
    }
}
