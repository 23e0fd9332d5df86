//! Frozen CSR (compressed sparse row) snapshot of a [`Graph`], plus the
//! reusable traversal scratch that makes repeated kernels allocation-free.
//!
//! The mutable [`Graph`] is the *build* representation: per-node `Vec`s
//! that absorb incremental coauthorship edges cheaply. Once a trust
//! subgraph is fixed, every downstream consumer (placement sweeps,
//! centrality rankings, hit-rate scoring) only *reads* it — and reads it
//! thousands of times. [`CsrGraph`] freezes the adjacency into CSR rows
//! so traversals walk contiguous memory instead of chasing one heap
//! allocation per node.
//!
//! The rows are stored as **fixed-size row chunks, one immutable slab
//! each, behind `Arc`** ([`DEFAULT_CHUNK_ROWS`] rows per chunk). A slab
//! is a single `[u32]` allocation: a header of `chunk_rows + 1` row
//! starts, then each row's sorted neighbor ids followed by its weights
//! (a partial last chunk pads with empty rows), so a row
//! read is one hop from the chunk table and the header and a small row
//! usually share a cache line. [`CsrGraph::apply_delta`] rebuilds only
//! the slabs containing touched rows and bumps the refcount on every
//! other one. A small-delta update on a million-node graph therefore
//! moves `O(touched chunks + ops)` bytes instead of re-copying the whole
//! graph; [`CsrGraph::cow_stats`] reports exactly how many bytes each
//! snapshot assembly copied and how many chunks it shared.
//!
//! Neighbor order is preserved exactly (sorted by id, like [`Graph`]), so
//! every kernel visits nodes and edges in the order the adjacency lists
//! would have given — which is what lets each one be tested bit-identical
//! against the adjacency-list `*_reference` kept in its test module.
//!
//! [`TraversalScratch`] holds the per-source working set of the BFS and
//! Brandes kernels (distances, path counts, dependencies, predecessor
//! lists, visit order). It is cleared via the touched list (`order`) in
//! `O(visited)` rather than reallocated or zeroed in `O(n)` per source,
//! which is where the bulk of the speedup on repeated traversals comes
//! from.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::delta::{DeltaOp, DeltaSummary, GraphDelta};
use crate::graph::{EdgeRef, Graph, NodeId};

/// Sentinel distance for nodes not reached by the current traversal.
pub const UNVISITED: u32 = u32::MAX;

/// Default rows per CSR chunk (must be a power of two).
///
/// Picked from a measured sweep over {8, 64, 512, 4096} (the
/// `csr/chunk-rows/*` criterion group): reads get faster up to 64 rows
/// and are flat within noise beyond (the resolve-shaped `bfs_to_targets`
/// on 40k nodes reads ~4.2 µs at 8 rows, 3.6–4.0 µs from 64 on), while delta application
/// copies every chunk a touched row lands in, so its bytes and wall time
/// grow with the chunk size (a 32-op delta on 20k nodes copies 35 KB at
/// 8 rows, 186 KB at 64, 769 KB at 512). 64 is the knee: it keeps the
/// read win and leaves churn deltas a small fraction of a full freeze.
/// See DESIGN.md §17.
pub const DEFAULT_CHUNK_ROWS: usize = 64;

/// Process-global generation source. Every freeze (`CsrGraph::from`) and
/// every [`CsrGraph::apply_delta`] draws a fresh value, so two distinct
/// CSR snapshots can never share a generation — unlike the deprecated
/// `(node_count, half_edge_count)` fingerprint, which collides whenever an
/// equal-sized graph is swapped in. Monotonicity makes the id double as a
/// happened-before ordering between snapshots of the same lineage.
// Atomic, unlike every other counter in the workspace: a `CsrGraph` is
// `Send + Sync` (the `parallel` workers share one) and is frozen on
// whichever thread asks, several at once under the test harness, so the
// generation source must stay unique across threads.
#[allow(clippy::disallowed_types)]
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One fixed-size run of `chunk_rows` CSR rows, stored as a single
/// immutable slab: a header of `chunk_rows + 1` row starts (absolute
/// positions inside the slab, so `slab[0] == chunk_rows + 1` and
/// `slab[chunk_rows] == slab.len()`), then each row's neighbor ids
/// followed by its weights. Row `l` is `slab[slab[l]..slab[l + 1]]`: its
/// first half is the sorted ids, its second half the parallel weights.
/// A partial last chunk pads its header with empty rows, so every row
/// read inside the chunk table is well-formed without a range check. One
/// allocation per chunk means a row read is one hop from the chunk
/// table. A slab is shared between snapshots behind `Arc`; a delta that
/// touches none of its rows costs one refcount bump instead of a copy.
type Slab = Arc<[u32]>;

/// Half-edges stored in `slab` (every row holds two `u32`s per half-edge).
#[inline]
fn slab_half_edges(slab: &[u32]) -> usize {
    (slab.len() - slab[0] as usize) / 2
}

/// Build the slab of rows `lo..lo + chunk_rows` in `buf` (cleared first,
/// reused across chunks so each slab costs one exact-size allocation).
/// `write_row(v, buf)` appends row `v`'s ids then its weights, for every
/// `v < n`; rows from `n` on stay empty.
fn build_slab(
    buf: &mut Vec<u32>,
    lo: usize,
    chunk_rows: usize,
    n: usize,
    mut write_row: impl FnMut(usize, &mut Vec<u32>),
) -> Slab {
    buf.clear();
    buf.resize(chunk_rows + 1, 0);
    buf[0] = (chunk_rows + 1) as u32;
    for l in 0..chunk_rows {
        if lo + l < n {
            write_row(lo + l, buf);
        }
        buf[l + 1] = buf.len() as u32;
    }
    assert!(
        u32::try_from(buf.len()).is_ok(),
        "chunk too large for u32 slab offsets"
    );
    debug_assert!(
        (buf.len() - chunk_rows - 1).is_multiple_of(2),
        "rows hold ids then weights"
    );
    Arc::from(&buf[..])
}

/// How a [`CsrGraph`] snapshot was assembled: bytes of column data copied
/// into freshly allocated chunks versus chunks shared (refcount-bumped)
/// from the predecessor snapshot.
///
/// `bytes_copied` counts every `u32` written into rebuilt slabs (the
/// `chunk_rows + 1` row-start header, then each row's ids and weights)
/// plus the per-snapshot chunk-base index. A rebuilt chunk is priced
/// whole, so the figure grows with the chunk size as well as the touch
/// count. It deliberately excludes the `Arc` pointer table itself (8 bytes per
/// chunk, pure pointer memcpy), which is reported via `chunks_shared` /
/// `chunks_rewritten` instead. A from-scratch freeze shares nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Bytes of CSR column data written into newly allocated storage.
    pub bytes_copied: u64,
    /// Chunks rebuilt (freshly allocated and filled) by this assembly.
    pub chunks_rewritten: usize,
    /// Chunks shared with the predecessor snapshot via refcount bump.
    pub chunks_shared: usize,
}

/// Immutable compressed-sparse-row view of an undirected weighted graph,
/// stored as fixed-size row chunks (one slab each) shared copy-on-write
/// behind `Arc`.
///
/// Built once from a [`Graph`] via `CsrGraph::from(&g)`; node ids and the
/// query surface ([`degree`](CsrGraph::degree),
/// [`neighbors`](CsrGraph::neighbors), [`strength`](CsrGraph::strength),
/// …) mirror the mutable graph exactly. Graph churn is absorbed by
/// [`apply_delta`](CsrGraph::apply_delta), which rebuilds only the chunks
/// containing touched rows — sharing every other chunk with its
/// predecessor — and stamps the result with a fresh
/// [`generation`](CsrGraph::generation).
///
/// The row reads carry no range check of their own: a node id past the
/// last chunk panics on the chunk-table index, and one past
/// [`node_count`](CsrGraph::node_count) inside the last chunk reads as an
/// isolated node.
///
/// Equality compares *logical structure only* (per-row neighbor lists,
/// weights, and edge count), independent of chunk size and of which
/// chunks are shared — a delta-applied snapshot equals its from-scratch
/// twin even though their generations and chunk layouts differ.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// Row slabs: node `v` lives in `chunks[v >> shift]` at local row
    /// `v & mask`. The last chunk may hold fewer than `chunk_rows` rows.
    chunks: Vec<Slab>,
    /// Global half-edge index of each chunk's first neighbor slot —
    /// per-snapshot (never shared) because an upstream chunk changing
    /// length rebases everything after it. Length == `chunks.len()`.
    bases: Vec<u32>,
    /// `log2(chunk_rows)`.
    shift: u32,
    /// `chunk_rows - 1`.
    mask: u32,
    /// Number of nodes.
    node_count: usize,
    /// Number of undirected edges.
    edge_count: usize,
    /// Globally unique, monotonically increasing snapshot id.
    generation: u64,
    /// Summary of the delta that produced this snapshot; `None` for a
    /// from-scratch freeze.
    last_delta: Option<DeltaSummary>,
    /// Copy/share accounting for this snapshot's assembly.
    cow: CowStats,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // Logical structure only: generation, delta provenance, chunk
        // size, and chunk sharing are identity/layout metadata, not
        // content.
        self.node_count == other.node_count
            && self.edge_count == other.edge_count
            && self.nodes().all(|v| {
                self.neighbor_ids(v) == other.neighbor_ids(v)
                    && self.neighbor_weights(v) == other.neighbor_weights(v)
            })
    }
}

impl Eq for CsrGraph {}

impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph::from(&Graph::new(0))
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph_chunked(g, DEFAULT_CHUNK_ROWS)
    }
}

impl CsrGraph {
    /// Freeze `g` with an explicit chunk size (`chunk_rows` must be a
    /// power of two). `CsrGraph::from(&g)` uses [`DEFAULT_CHUNK_ROWS`];
    /// tests and benchmarks sweep other sizes to pin layout independence.
    pub fn from_graph_chunked(g: &Graph, chunk_rows: usize) -> Self {
        assert!(
            chunk_rows.is_power_of_two(),
            "chunk_rows must be a power of two, got {chunk_rows}"
        );
        let n = g.node_count();
        let half_edges = 2 * g.edge_count();
        assert!(
            u32::try_from(half_edges).is_ok(),
            "graph too large for u32 CSR offsets"
        );
        let shift = chunk_rows.trailing_zeros();
        let n_chunks = n.div_ceil(chunk_rows);
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut bases = Vec::with_capacity(n_chunks);
        let mut base = 0u32;
        let mut bytes_copied = 0u64;
        let mut buf = Vec::new();
        for c in 0..n_chunks {
            let slab = build_slab(&mut buf, c * chunk_rows, chunk_rows, n, |v, buf| {
                let row = g.neighbors(NodeId(v as u32));
                buf.extend(row.iter().map(|e| e.to.0));
                buf.extend(row.iter().map(|e| e.weight));
            });
            bytes_copied += 4 * slab.len() as u64;
            bases.push(base);
            base += slab_half_edges(&slab) as u32;
            chunks.push(slab);
        }
        bytes_copied += 4 * bases.len() as u64;
        debug_assert_eq!(base as usize, half_edges);
        CsrGraph {
            chunks,
            bases,
            shift,
            mask: (chunk_rows - 1) as u32,
            node_count: n,
            edge_count: g.edge_count(),
            generation: next_generation(),
            last_delta: None,
            cow: CowStats {
                bytes_copied,
                chunks_rewritten: n_chunks,
                chunks_shared: 0,
            },
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Rows per chunk for this snapshot's layout.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        1 << self.shift
    }

    /// Number of row chunks backing this snapshot.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How this snapshot was assembled: bytes copied into fresh chunks
    /// vs chunks shared with the predecessor. A from-scratch freeze
    /// copies everything and shares nothing; a small delta shares almost
    /// everything.
    #[inline]
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Number of chunks this snapshot physically shares (same `Arc`
    /// allocation, position for position) with `other`. Only meaningful
    /// between snapshots of the same lineage and chunk size; used by
    /// tests and benches to prove the copy-on-write path actually
    /// shares.
    pub fn shared_chunks_with(&self, other: &CsrGraph) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Globally unique, monotonically increasing snapshot id.
    ///
    /// Drawn from a process-wide counter at every freeze and every
    /// [`apply_delta`](CsrGraph::apply_delta), so no two distinct
    /// snapshots — even structurally identical ones — share a generation.
    /// This is the sound cache key the long-deleted
    /// `(node_count, half_edge_count)` fingerprint was not (it collided
    /// whenever an equal-sized graph was swapped in).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Summary of the delta that produced this snapshot, or `None` if it
    /// was frozen from scratch.
    #[inline]
    pub fn last_delta(&self) -> Option<&DeltaSummary> {
        self.last_delta.as_ref()
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Chunk index and chunk-local row of `v`.
    #[inline]
    fn loc(&self, v: NodeId) -> (usize, usize) {
        ((v.0 >> self.shift) as usize, (v.0 & self.mask) as usize)
    }

    /// `v`'s row inside its slab: the ids, then the parallel weights.
    /// Panics when `v` lies past the last chunk; a `v` past `node_count`
    /// inside the last chunk reads as an empty row. The hot kernels call
    /// this per visited node, so it carries no separate range check.
    #[inline]
    fn row(&self, v: NodeId) -> &[u32] {
        let (c, l) = self.loc(v);
        let slab = &*self.chunks[c];
        &slab[slab[l] as usize..slab[l + 1] as usize]
    }

    /// Degree (number of distinct neighbors) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (c, l) = self.loc(v);
        let slab = &*self.chunks[c];
        (slab[l + 1] - slab[l]) as usize / 2
    }

    /// Sum of incident edge weights of `v` (weighted degree / strength).
    pub fn strength(&self, v: NodeId) -> u64 {
        self.neighbor_weights(v).iter().map(|&w| w as u64).sum()
    }

    /// Neighbor ids of `v`, sorted ascending — one flat contiguous slice:
    /// a row never straddles a chunk boundary.
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> &[u32] {
        let row = self.row(v);
        &row[..row.len() / 2]
    }

    /// Edge weights of `v`, parallel to [`neighbor_ids`](CsrGraph::neighbor_ids).
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[u32] {
        let row = self.row(v);
        &row[row.len() / 2..]
    }

    /// Neighbors of `v` as [`EdgeRef`]s, in the same order as
    /// [`Graph::neighbors`].
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let row = self.row(v);
        let (ids, weights) = row.split_at(row.len() / 2);
        ids.iter().zip(weights).map(|(&to, &weight)| EdgeRef {
            to: NodeId(to),
            weight,
        })
    }

    /// `true` if the undirected edge `a — b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.node_count() || b.index() >= self.node_count() {
            return false;
        }
        self.neighbor_ids(a).binary_search(&b.0).is_ok()
    }

    /// Weight of edge `a — b`, if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a.index() >= self.node_count() {
            return None;
        }
        let row = self.row(a);
        let deg = row.len() / 2;
        row[..deg].binary_search(&b.0).ok().map(|i| row[deg + i])
    }

    /// Iterator over each undirected edge exactly once as `(a, b, w)` with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .filter(move |e| a < e.to)
                .map(move |e| (a, e.to, e.weight))
        })
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|slab| slab[..slab[0] as usize].windows(2))
            .map(|w| (w[1] - w[0]) as usize / 2)
            .max()
            .unwrap_or(0)
    }

    /// Global half-edge index of the first neighbor slot of `v` — the
    /// position `neighbor_ids(v)` would start at if every chunk were
    /// concatenated into one flat array. Kernels that keep flat
    /// per-half-edge side storage (e.g. the Brandes predecessor slots in
    /// [`TraversalScratch`]) index it with this; `row_start(v) + degree(v)`
    /// bounds `v`'s slots.
    #[inline]
    pub fn row_start(&self, v: NodeId) -> usize {
        let (c, l) = self.loc(v);
        let slab = &*self.chunks[c];
        self.bases[c] as usize + (slab[l] - slab[0]) as usize / 2
    }

    /// Total number of half-edges (`2 * edge_count`).
    #[inline]
    pub(crate) fn half_edge_count(&self) -> usize {
        2 * self.edge_count
    }

    /// Apply a batched [`GraphDelta`], rewriting only the chunks that
    /// contain touched rows.
    ///
    /// Ops replay in order with exactly the mutable [`Graph`] semantics
    /// (weight accumulation, self-loop rejection, tolerant removal), so
    /// the result is bit-identical — [`PartialEq`]-equal, including
    /// neighbor order and weights — to mutating the source `Graph` the
    /// same way and freezing it from scratch. Only the adjacency rows of
    /// nodes named by edge ops are re-materialized; chunks containing
    /// none of them are shared with this snapshot by `Arc` refcount bump,
    /// making delta application `O(touched chunks + ops)` in bytes copied
    /// (plus an `O(chunk count)` pointer-table clone and base-index
    /// rebuild). Each rebuilt chunk is one exact-size slab allocation: an
    /// untouched row inside a dirty chunk is copied over as one block (its
    /// ids and weights are adjacent in the old slab).
    ///
    /// The result carries a fresh [`generation`](CsrGraph::generation), a
    /// [`DeltaSummary`] ([`last_delta`](CsrGraph::last_delta)) with the
    /// touched-node set — the runtime reports its size — and
    /// [`CowStats`] ([`cow_stats`](CsrGraph::cow_stats))
    /// pricing the assembly.
    ///
    /// # Panics
    /// Panics where [`Graph::add_edge`] would: an `AddEdge` endpoint out
    /// of range at its point in the op sequence.
    pub fn apply_delta(&self, delta: &GraphDelta) -> CsrGraph {
        let old_n = self.node_count();
        let mut n = old_n;
        let mut edge_count = self.edge_count;

        // Working rows, materialized lazily on first touch from the old
        // CSR row (new nodes start empty).
        let mut rows: HashMap<u32, Vec<EdgeRef>> = HashMap::new();
        fn row_mut<'m>(
            rows: &'m mut HashMap<u32, Vec<EdgeRef>>,
            csr: &CsrGraph,
            old_n: usize,
            v: NodeId,
        ) -> &'m mut Vec<EdgeRef> {
            rows.entry(v.0).or_insert_with(|| {
                if v.index() < old_n {
                    csr.neighbors(v).collect()
                } else {
                    Vec::new()
                }
            })
        }

        for op in delta.ops() {
            match *op {
                DeltaOp::AddNodes { count } => n += count as usize,
                DeltaOp::AddEdge { a, b, weight } => {
                    assert!(a.index() < n, "node {a:?} out of range");
                    assert!(b.index() < n, "node {b:?} out of range");
                    if a == b {
                        continue;
                    }
                    let inserted =
                        Graph::insert_half(row_mut(&mut rows, self, old_n, a), b, weight);
                    Graph::insert_half(row_mut(&mut rows, self, old_n, b), a, weight);
                    if inserted {
                        edge_count += 1;
                    }
                }
                DeltaOp::RemoveEdge { a, b } => {
                    if a == b || a.index() >= n || b.index() >= n {
                        continue;
                    }
                    let row_a = row_mut(&mut rows, self, old_n, a);
                    let removed = match row_a.binary_search_by_key(&b, |e| e.to) {
                        Ok(i) => {
                            row_a.remove(i);
                            true
                        }
                        Err(_) => false,
                    };
                    if removed {
                        let row_b = row_mut(&mut rows, self, old_n, b);
                        if let Ok(i) = row_b.binary_search_by_key(&a, |e| e.to) {
                            row_b.remove(i);
                        }
                        edge_count -= 1;
                    }
                }
            }
        }

        // Touched = every materialized row plus every activated node
        // (activated nodes get rows even when no edge op named them).
        let mut touched: Vec<u32> = rows.keys().copied().collect();
        touched.extend(old_n as u32..n as u32);
        touched.sort_unstable();
        touched.dedup();

        // Assemble: a chunk is dirty iff a touched row lands in it. Every
        // clean chunk of the old snapshot is shared by refcount bump —
        // correct even when the graph grew, because growth dirties the
        // old partial last chunk via the activated rows in `touched`.
        let chunk_rows = 1usize << self.shift;
        let n_chunks = n.div_ceil(chunk_rows);
        let mut dirty = vec![false; n_chunks];
        for &t in &touched {
            dirty[(t >> self.shift) as usize] = true;
        }

        let mut chunks = Vec::with_capacity(n_chunks);
        let mut bases = Vec::with_capacity(n_chunks);
        let mut base = 0u64;
        let mut bytes_copied = 0u64;
        let mut chunks_shared = 0usize;
        let mut buf = Vec::new();
        for (c, dirty) in dirty.into_iter().enumerate() {
            let slab = if !dirty && c < self.chunks.len() {
                chunks_shared += 1;
                Arc::clone(&self.chunks[c])
            } else {
                let slab = build_slab(&mut buf, c * chunk_rows, chunk_rows, n, |v, buf| {
                    match rows.get(&(v as u32)) {
                        Some(row) => {
                            buf.extend(row.iter().map(|e| e.to.0));
                            buf.extend(row.iter().map(|e| e.weight));
                        }
                        None if v < old_n => buf.extend_from_slice(self.row(NodeId(v as u32))),
                        // A freshly activated node no edge op named:
                        // empty row.
                        None => {}
                    }
                });
                bytes_copied += 4 * slab.len() as u64;
                slab
            };
            bases.push(base as u32);
            base += slab_half_edges(&slab) as u64;
            chunks.push(slab);
        }
        bytes_copied += 4 * bases.len() as u64;
        assert!(
            u32::try_from(base).is_ok(),
            "graph too large for u32 CSR offsets"
        );
        debug_assert_eq!(base as usize, 2 * edge_count);

        CsrGraph {
            chunks,
            bases,
            shift: self.shift,
            mask: self.mask,
            node_count: n,
            edge_count,
            generation: next_generation(),
            last_delta: Some(DeltaSummary {
                touched: touched.into_iter().map(NodeId).collect(),
            }),
            cow: CowStats {
                bytes_copied,
                chunks_rewritten: n_chunks - chunks_shared,
                chunks_shared,
            },
        }
    }
}

/// Reusable working memory for BFS/Brandes-style traversals on a
/// [`CsrGraph`].
///
/// One scratch serves any number of traversals (and any number of graphs:
/// it grows to fit). The arrays are reset lazily via the touched list —
/// only the slots dirtied by the previous traversal are cleared — so a
/// kernel sweeping `n` sources pays `O(visited)` per source instead of
/// `O(n)` allocation + zeroing.
#[derive(Clone, Debug, Default)]
pub struct TraversalScratch {
    /// Hop distance per node; [`UNVISITED`] when clean.
    pub(crate) dist: Vec<u32>,
    /// Shortest-path counts (Brandes σ); 0.0 when clean.
    pub(crate) sigma: Vec<f64>,
    /// Dependency accumulator (Brandes δ); 0.0 when clean.
    pub(crate) delta: Vec<f64>,
    /// Number of BFS-tree predecessors recorded per node; 0 when clean.
    pub(crate) pred_len: Vec<u32>,
    /// Flat predecessor storage: node `w`'s predecessors live at
    /// `offsets[w] .. offsets[w] + pred_len[w]`. Valid because a node's
    /// BFS-tree predecessors are a subset of its neighbors, so the
    /// graph's own CSR offsets bound every predecessor list.
    pub(crate) pred_buf: Vec<u32>,
    /// Nodes in visit order. Doubles as the BFS queue (drained by a head
    /// cursor), the Brandes stack (iterated in reverse), and the touched
    /// list driving the `O(visited)` reset.
    pub(crate) order: Vec<u32>,
    /// Forward epoch stamp per node for the multi-target search: a node is
    /// inside the current call's forward region (or is one of its resolved
    /// targets) iff `stamp[v] == epoch`. Never cleared between calls —
    /// bumping `epoch` invalidates every mark in O(1).
    stamp: Vec<u32>,
    /// Epoch stamp marking the current call's target set (deduplication).
    target_stamp: Vec<u32>,
    /// The current call's distinct in-range targets as `(degree, id)`,
    /// in settling order (highest degree first). Kept between calls, so
    /// a search allocates nothing once it has seen its largest target set.
    by_degree: Vec<(u32, u32)>,
    /// Hop distance from the source per node, valid iff `stamp[v] == epoch`.
    hops: Vec<u32>,
    /// Backward stamp per node: inside the *current target's* backward
    /// region iff `back_stamp[v] == back_epoch`. One array serves every
    /// target of a call because targets are searched one after another,
    /// each under a fresh `back_epoch`.
    back_stamp: Vec<u32>,
    /// The forward region in discovery (= distance) order; its last level
    /// is the forward frontier. Separate from `order` so the touched-list
    /// reset contract of the full kernels is untouched.
    queue: Vec<u32>,
    /// The current target's backward region, same layout as `queue`.
    back_queue: Vec<u32>,
    /// `(target, distance)` pairs settled by a meet outside the forward
    /// region; written into `stamp`/`hops` only once the call is over, so
    /// they never pose as forward-region nodes while it runs.
    met: Vec<(u32, u32)>,
    /// Current forward epoch; 0 means "no multi-target search has run yet".
    epoch: u32,
    /// Current backward epoch (one per searched target).
    back_epoch: u32,
    /// Nodes discovered by the last multi-target search, both directions.
    last_visited: usize,
}

/// The forward side of one nearest-target search, shared by all its
/// targets: the frontier is `queue[start..]`, all at `depth`, and `cost`
/// is the number of half-edges expanding it would scan.
struct Frontier {
    start: usize,
    depth: u32,
    cost: usize,
}

impl TraversalScratch {
    /// An empty scratch; sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to fit `g` and clear everything the previous traversal
    /// touched. Called at the start of every kernel.
    pub(crate) fn reset(&mut self, g: &CsrGraph) {
        let n = g.node_count();
        if self.dist.len() < n {
            self.dist.resize(n, UNVISITED);
            self.sigma.resize(n, 0.0);
            self.delta.resize(n, 0.0);
            self.pred_len.resize(n, 0);
        }
        if self.pred_buf.len() < g.half_edge_count() {
            self.pred_buf.resize(g.half_edge_count(), 0);
        }
        for &v in &self.order {
            let v = v as usize;
            self.dist[v] = UNVISITED;
            self.sigma[v] = 0.0;
            self.delta[v] = 0.0;
            self.pred_len[v] = 0;
        }
        self.order.clear();
    }

    /// BFS from (the nearest of) `sources`, filling [`distance`] /
    /// [`distances`] and the visit order. Out-of-range and duplicate
    /// sources are ignored.
    ///
    /// [`distance`]: TraversalScratch::distance
    /// [`distances`]: TraversalScratch::distances
    pub fn bfs(&mut self, g: &CsrGraph, sources: &[NodeId]) {
        // Distances stay below the node count, so the budget never fires.
        self.bfs_bounded(g, sources, u32::MAX);
    }

    /// Depth-bounded multi-source BFS: like [`bfs`](TraversalScratch::bfs)
    /// but stops expanding at `max_hops`, so [`distance`] is `Some(d)` iff
    /// `d <= max_hops`. [`ego_network`](crate::traversal::ego_network)
    /// uses it to collect the nodes within `h` hops of a center without
    /// paying for the full component.
    ///
    /// [`distance`]: TraversalScratch::distance
    pub fn bfs_bounded(&mut self, g: &CsrGraph, sources: &[NodeId], max_hops: u32) {
        self.reset(g);
        let n = g.node_count();
        for &s in sources {
            if s.index() < n && self.dist[s.index()] == UNVISITED {
                self.dist[s.index()] = 0;
                self.order.push(s.0);
            }
        }
        let mut head = 0;
        while head < self.order.len() {
            let v = self.order[head] as usize;
            head += 1;
            let dv = self.dist[v];
            if dv >= max_hops {
                // Distance-ordered queue: everything later is at least
                // this far out, so the budget is spent.
                break;
            }
            for &w in g.neighbor_ids(NodeId(v as u32)) {
                if self.dist[w as usize] == UNVISITED {
                    self.dist[w as usize] = dv + 1;
                    self.order.push(w);
                }
            }
        }
    }

    /// Distance of `v` from the last [`bfs`](TraversalScratch::bfs) call's
    /// sources; `None` if unreached — which includes any id past the end
    /// of the graph and every id on a scratch that has not run yet.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        self.dist
            .get(v.index())
            .copied()
            .filter(|&d| d != UNVISITED)
    }

    /// Raw distance slice ([`UNVISITED`] = unreached). May be longer than
    /// the current graph if the scratch previously served a larger one.
    #[inline]
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Nodes visited by the last traversal, in visit order.
    #[inline]
    pub fn visited(&self) -> &[u32] {
        &self.order
    }

    /// Open a fresh forward epoch for the multi-target search: grow the
    /// stamp arrays to `n` and invalidate every previous mark in O(1)
    /// (O(n) only on the rare u32 wrap-around).
    fn begin_epoch(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.target_stamp.resize(n, 0);
            self.hops.resize(n, 0);
            self.back_stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.met.clear();
        self.last_visited = 0;
    }

    /// Open a fresh backward epoch (one per searched target), same O(1)
    /// invalidation as [`begin_epoch`](Self::begin_epoch).
    fn begin_back_epoch(&mut self) {
        self.back_epoch = self.back_epoch.wrapping_add(1);
        if self.back_epoch == 0 {
            self.back_stamp.fill(0);
            self.back_epoch = 1;
        }
        self.back_queue.clear();
    }

    /// [`bfs_to_nearest`](TraversalScratch::bfs_to_nearest) with every
    /// target eligible: settles the nearest target and every target at
    /// its distance, and returns how many distinct in-range targets it
    /// settled.
    pub fn bfs_to_targets(
        &mut self,
        g: &CsrGraph,
        src: NodeId,
        targets: &[NodeId],
        max_hops: u32,
    ) -> usize {
        self.search_nearest(g, src, targets, max_hops, |_| true).0
    }

    /// Exact hop distances from `src` to the nearest *eligible* target
    /// and to every target no farther away, by meet-in-the-middle search.
    /// Returns the bound: the nearest eligible target's distance, or
    /// `max_hops` when no eligible target lies within it. Every target
    /// left unsettled lies strictly beyond the bound or is unreachable,
    /// so ranking the eligible targets by distance needs nothing the
    /// call left out. With no eligible target within `max_hops` the
    /// bound never shrinks and the verdict is the exhaustive one: a
    /// target is settled iff it lies within `max_hops`. Out-of-range and
    /// duplicate targets are ignored; `eligible` is asked only of
    /// settled targets nearer than the current bound.
    ///
    /// The search: one forward BFS from `src`, shared by all targets of
    /// the call, and one backward BFS per target that is not already
    /// inside the forward region. Both grow a whole level at a time,
    /// always on the side whose frontier has fewer edges to scan, and a
    /// target is settled at the first level on which the two regions
    /// touch. Targets are taken highest degree first, and each is
    /// searched only up to the current bound, which drops to the distance
    /// of every eligible target settled below it. Replicas sit on hubs by
    /// construction, and a hub is near everyone, so a far low-degree
    /// target behind a near hub costs a level or two instead of two
    /// half-radius balls.
    ///
    /// Distances are exact. While the forward region `F` (every node
    /// within `df` hops of `src`) and the backward region `B` (every node
    /// within `db` hops of the target) are disjoint, the distance exceeds
    /// `df + db` — a shorter path would have a node in both. Growing
    /// either side by one full level and finding the regions touch
    /// therefore pins the distance to exactly `df + db` (depths after the
    /// growth). Neither side grows once `df + db` reaches the current
    /// bound, so an unsettled target lies beyond the bound it was
    /// searched under, which is at least the final one; an emptied
    /// frontier on either side proves the target unreachable without
    /// exhausting the other side's component.
    ///
    /// [`last_visited`](TraversalScratch::last_visited) reports the nodes
    /// the call discovered. All marks are epoch-stamped and the
    /// degree-ordered target list lives in the scratch, so back-to-back
    /// calls pay O(visited) with no clearing, and no allocation once the
    /// scratch has seen its largest target set.
    ///
    /// Query distances afterwards with
    /// [`target_hops`](TraversalScratch::target_hops); they stay valid
    /// until the next search on this scratch.
    pub fn bfs_to_nearest(
        &mut self,
        g: &CsrGraph,
        src: NodeId,
        targets: &[NodeId],
        max_hops: u32,
        eligible: impl Fn(NodeId) -> bool,
    ) -> u32 {
        self.search_nearest(g, src, targets, max_hops, eligible).1
    }

    /// The kernel behind both entry points: `(targets settled, bound)`.
    fn search_nearest(
        &mut self,
        g: &CsrGraph,
        src: NodeId,
        targets: &[NodeId],
        max_hops: u32,
        eligible: impl Fn(NodeId) -> bool,
    ) -> (usize, u32) {
        let n = g.node_count();
        self.begin_epoch(n);
        let epoch = self.epoch;
        let mut bound = max_hops;
        if src.index() >= n {
            return (0, bound);
        }
        self.stamp[src.index()] = epoch;
        self.hops[src.index()] = 0;
        self.queue.push(src.0);
        self.by_degree.clear();
        for &t in targets {
            let ti = t.index();
            if ti < n && self.target_stamp[ti] != epoch {
                self.target_stamp[ti] = epoch;
                self.by_degree.push((g.degree(t) as u32, t.0));
            }
        }
        self.by_degree
            .sort_unstable_by_key(|&(degree, id)| (std::cmp::Reverse(degree), id));
        let mut fwd = Frontier {
            start: 0,
            depth: 0,
            cost: g.degree(src),
        };
        let mut settled = 0usize;
        for k in 0..self.by_degree.len() {
            let t = NodeId(self.by_degree[k].1);
            let dist = if self.stamp[t.index()] == epoch {
                // Already inside the forward region: `hops` is exact.
                self.hops[t.index()]
            } else {
                match self.meet(g, t, bound, &mut fwd) {
                    Some(d) => d,
                    None => continue,
                }
            };
            settled += 1;
            if dist < bound && eligible(t) {
                bound = dist;
            }
        }
        self.last_visited += self.queue.len();
        for &(t, d) in &self.met {
            self.stamp[t as usize] = epoch;
            self.hops[t as usize] = d;
        }
        (settled, bound)
    }

    /// Search one target `t` outside the forward region: grow the forward
    /// region `fwd` and a fresh backward region from `t` until they touch,
    /// within `bound` hops in total. Returns the distance, or `None` when
    /// `t` lies beyond `bound` or is unreachable. A settled `t` is queued
    /// in `met`, so it never poses as a forward-region node while the
    /// call runs.
    fn meet(&mut self, g: &CsrGraph, t: NodeId, bound: u32, fwd: &mut Frontier) -> Option<u32> {
        let epoch = self.epoch;
        self.begin_back_epoch();
        let back_epoch = self.back_epoch;
        self.back_stamp[t.index()] = back_epoch;
        self.back_queue.push(t.0);
        let mut back_start = 0usize;
        let mut back_depth = 0u32;
        let mut back_cost = g.degree(t);
        let met = 'search: loop {
            if fwd.start == self.queue.len()
                || back_start == self.back_queue.len()
                || fwd.depth.saturating_add(back_depth) >= bound
            {
                // A spent component on either side, or a spent budget.
                break false;
            }
            if fwd.cost <= back_cost {
                // Grow the forward region by one level — a *whole* level
                // even after a touch, because later targets rely on `F`
                // being every node within `fwd.depth`.
                let end = self.queue.len();
                let mut touched = false;
                fwd.cost = 0;
                for i in fwd.start..end {
                    let v = NodeId(self.queue[i]);
                    for &w in g.neighbor_ids(v) {
                        let wi = w as usize;
                        if self.stamp[wi] != epoch {
                            self.stamp[wi] = epoch;
                            self.hops[wi] = fwd.depth + 1;
                            touched |= self.back_stamp[wi] == back_epoch;
                            fwd.cost += g.degree(NodeId(w));
                            self.queue.push(w);
                        }
                    }
                }
                fwd.start = end;
                fwd.depth += 1;
                if touched {
                    break true;
                }
            } else {
                // Grow this target's backward region by one level; it is
                // discarded after the meet, so stop at once.
                let end = self.back_queue.len();
                back_cost = 0;
                back_depth += 1;
                for i in back_start..end {
                    let v = NodeId(self.back_queue[i]);
                    for &w in g.neighbor_ids(v) {
                        let wi = w as usize;
                        if self.stamp[wi] == epoch {
                            break 'search true;
                        }
                        if self.back_stamp[wi] != back_epoch {
                            self.back_stamp[wi] = back_epoch;
                            back_cost += g.degree(NodeId(w));
                            self.back_queue.push(w);
                        }
                    }
                }
                back_start = end;
            }
        };
        self.last_visited += self.back_queue.len();
        let dist = fwd.depth + back_depth;
        met.then(|| {
            self.met.push((t.0, dist));
            dist
        })
    }

    /// Nodes discovered by the last
    /// [`bfs_to_nearest`](TraversalScratch::bfs_to_nearest) or
    /// [`bfs_to_targets`](TraversalScratch::bfs_to_targets) call, forward
    /// and backward regions together — the work the call did, for
    /// telemetry and for the work-bound tests.
    #[inline]
    pub fn last_visited(&self) -> usize {
        self.last_visited
    }

    /// Hop distance of target `v` from the last search's source; `None`
    /// if the search left `v` unsettled: unreachable, beyond `max_hops`,
    /// or beyond the call's bound. Only meaningful for nodes that were in
    /// the call's target set: any other node answers `Some` only if the
    /// forward region happened to cover it.
    #[inline]
    pub fn target_hops(&self, v: NodeId) -> Option<u32> {
        match self.stamp.get(v.index()) {
            Some(&s) if s == self.epoch && self.epoch != 0 => Some(self.hops[v.index()]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi};
    use proptest::prelude::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    /// The exhaustive answer for one target set: the reached count and
    /// the distance of every entry of `targets`, in input order.
    type TargetHops = (usize, Vec<Option<u32>>);

    /// The one-sided kernel `bfs_to_targets` used to be, kept as the
    /// reference: a plain BFS from `src` that stops once every target is
    /// reached, the hop budget is spent, or the component is exhausted.
    /// Also returns how many nodes it visited.
    fn one_sided_reference(
        g: &CsrGraph,
        src: NodeId,
        targets: &[NodeId],
        max_hops: u32,
    ) -> (TargetHops, usize) {
        let n = g.node_count();
        let mut hops = vec![UNVISITED; n];
        let mut is_target = vec![false; n];
        let mut queue = Vec::new();
        let mut reached = 0usize;
        if src.index() < n {
            let mut wanted = 0usize;
            for &t in targets {
                if t.index() < n && !is_target[t.index()] {
                    is_target[t.index()] = true;
                    wanted += 1;
                }
            }
            hops[src.index()] = 0;
            queue.push(src.0);
            reached = usize::from(is_target[src.index()]);
            let mut head = 0;
            while head < queue.len() && reached < wanted {
                let v = queue[head] as usize;
                head += 1;
                let dv = hops[v];
                if dv >= max_hops {
                    // The queue is distance-ordered: every later node is
                    // at least this far out, so the budget is spent.
                    break;
                }
                for &w in g.neighbor_ids(NodeId(v as u32)) {
                    let wi = w as usize;
                    if hops[wi] == UNVISITED {
                        hops[wi] = dv + 1;
                        reached += usize::from(is_target[wi]);
                        queue.push(w);
                    }
                }
            }
        }
        let per_target = targets
            .iter()
            .map(|t| hops.get(t.index()).copied().filter(|&d| d != UNVISITED))
            .collect();
        ((reached, per_target), queue.len())
    }

    /// One `bfs_to_nearest` call checked against the exhaustive
    /// reference: every settled target's distance is exact, the bound is
    /// the nearest eligible target's distance (or `max_hops` without
    /// one), every target within the bound is settled and every
    /// unsettled one lies beyond it, and with no eligible target within
    /// the budget the answer is the exhaustive verdict itself. Returns the
    /// bound and the per-target answers.
    fn check_nearest(
        scratch: &mut TraversalScratch,
        g: &CsrGraph,
        src: NodeId,
        targets: &[NodeId],
        max_hops: u32,
        eligible: impl Fn(NodeId) -> bool,
    ) -> (u32, Vec<Option<u32>>) {
        let ((_, exact), _) = one_sided_reference(g, src, targets, max_hops);
        let bound = scratch.bfs_to_nearest(g, src, targets, max_hops, &eligible);
        let got: Vec<Option<u32>> = targets.iter().map(|&t| scratch.target_hops(t)).collect();
        let nearest = targets
            .iter()
            .zip(&exact)
            .filter(|(&t, _)| eligible(t))
            .filter_map(|(_, &d)| d)
            .min();
        assert_eq!(bound, nearest.unwrap_or(max_hops), "src {src:?}");
        for ((t, want), have) in targets.iter().zip(&exact).zip(&got) {
            match have {
                Some(_) => assert_eq!(have, want, "settled {t:?} exactly"),
                None => assert!(
                    want.is_none_or(|d| d > bound),
                    "{t:?} at {want:?} left unsettled within bound {bound}"
                ),
            }
        }
        if nearest.is_none() {
            assert_eq!(got, exact, "no eligible target: the exhaustive verdict");
        }
        (bound, got)
    }

    /// Graph families the kernel is compared on: scale-free, sparse
    /// random with several components, a path and a star.
    fn family(kind: u32, n: usize, seed: u64) -> Graph {
        match kind {
            0 => barabasi_albert(n.max(4), 2, seed),
            1 => erdos_renyi(n, 1.2 / n as f64, seed),
            2 => Graph::from_edges(n, (1..n as u32).map(|i| (i - 1, i, 1))),
            _ => Graph::from_edges(n, (1..n as u32).map(|i| (0, i, 1))),
        }
    }

    const HOP_BUDGETS: [u32; 5] = [0, 1, 2, 3, u32::MAX];

    proptest! {
        #[test]
        fn bidirectional_matches_one_sided_reference(
            kind in 0u32..4,
            n in 2usize..90,
            seed in any::<u64>(),
            src in 0u32..100,
            raw_targets in proptest::collection::vec(0u32..100, 1..33),
            with_src in any::<bool>(),
            mask in any::<u64>(),
        ) {
            let g = CsrGraph::from(&family(kind, n, seed));
            let n = g.node_count() as u32;
            // Ids up to n + 4: mostly in range, some past the end; short
            // ranges make duplicates common. `src` is in range except
            // for the occasional id past the end.
            let src = NodeId(src % (n + 1));
            let mut targets: Vec<NodeId> =
                raw_targets.iter().map(|&t| NodeId(t % (n + 5))).collect();
            if with_src {
                targets.push(src);
            }
            let masked = |t: NodeId| mask >> (t.0 % 64) & 1 == 1;
            let mut scratch = TraversalScratch::new();
            for max_hops in HOP_BUDGETS {
                // The same scratch serves every budget and mask: marks of
                // one call must never leak into the next.
                check_nearest(&mut scratch, &g, src, &targets, max_hops, |_| true);
                check_nearest(&mut scratch, &g, src, &targets, max_hops, masked);
                check_nearest(&mut scratch, &g, src, &targets, max_hops, |_| false);
                // The all-eligible entry point settles the same targets.
                let settled = scratch.bfs_to_targets(&g, src, &targets, max_hops);
                let mut distinct: Vec<NodeId> = targets.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let found = distinct.iter().filter(|&&t| scratch.target_hops(t).is_some()).count();
                prop_assert_eq!(settled, found, "kind {} max_hops {}", kind, max_hops);
            }
        }
    }

    #[test]
    fn bidirectional_scratch_survives_graphs_of_different_size() {
        let big = CsrGraph::from(&barabasi_albert(300, 3, 1));
        let small = CsrGraph::from(&path4());
        let mut scratch = TraversalScratch::new();
        let far: Vec<NodeId> = [7u32, 150, 299].map(NodeId).to_vec();
        let near: Vec<NodeId> = [0u32, 3, 299].map(NodeId).to_vec();
        for _ in 0..3 {
            check_nearest(&mut scratch, &big, NodeId(42), &far, u32::MAX, |_| true);
            // Ids valid on the big graph are out of range on the small
            // one and must read as unreached, not as stale marks. Node 0
            // (one hop) bounds the search, so node 3 (two hops) is left.
            assert_eq!(
                check_nearest(&mut scratch, &small, NodeId(1), &near, u32::MAX, |_| true),
                (1, vec![Some(1), None, None])
            );
            // With node 0 ineligible, node 3 bounds the search instead.
            assert_eq!(
                check_nearest(&mut scratch, &small, NodeId(1), &near, u32::MAX, |t| t.0
                    != 0),
                (2, vec![Some(1), Some(2), None])
            );
        }
    }

    #[test]
    fn bidirectional_epochs_wrap_cleanly() {
        let g = CsrGraph::from(&barabasi_albert(200, 2, 5));
        let targets: Vec<NodeId> = [3u32, 90, 199, 150].map(NodeId).to_vec();
        let mut scratch = TraversalScratch::new();
        // Leave marks under the epochs the wrapped counters will reuse.
        for src in [0u32, 120] {
            scratch.bfs_to_targets(&g, NodeId(src), &targets, u32::MAX);
        }
        // Forward wrap: the next call overflows `epoch` to 0 → 1.
        scratch.epoch = u32::MAX;
        // Backward wrap: each call opens up to four backward epochs, so
        // the counter overflows in the middle of the first call.
        scratch.back_epoch = u32::MAX - 1;
        for src in [77u32, 0, 120, 199] {
            check_nearest(&mut scratch, &g, NodeId(src), &targets, u32::MAX, |_| true);
        }
        assert!(scratch.epoch < 8 && scratch.back_epoch < 32, "both wrapped");
    }

    #[test]
    fn unreachable_target_does_not_exhaust_the_big_component() {
        // A 5k-node component plus a detached pair: proving the pair
        // unreachable must cost the pair, not the component.
        let mut g = barabasi_albert(5_000, 3, 8);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1);
        let c = CsrGraph::from(&g);
        let mut scratch = TraversalScratch::new();
        assert_eq!(scratch.bfs_to_targets(&c, NodeId(4_999), &[a], u32::MAX), 0);
        assert_eq!(scratch.target_hops(a), None);
        assert!(scratch.last_visited() < 50, "{}", scratch.last_visited());
        // And the other way round: a requester in the small component.
        assert_eq!(scratch.bfs_to_targets(&c, a, &[NodeId(0), b], u32::MAX), 1);
        assert_eq!(scratch.target_hops(b), Some(1));
        assert!(scratch.last_visited() < 50, "{}", scratch.last_visited());
    }

    #[test]
    fn far_target_costs_two_small_balls_not_the_graph() {
        // The resolve_cold shape: 40k members, replicas on the two
        // top-degree hubs plus one random leaf (the dataset owner).
        const N: usize = 40_000;
        let g = CsrGraph::from(&barabasi_albert(N, 3, 42));
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        let mut scratch = TraversalScratch::new();
        let mut rng = TestRng::from_seed(7);
        let mut pick = || NodeId(rng.below(N as u64) as u32);
        const CALLS: usize = 64;
        let (mut reference_total, mut total, mut worst) = (0usize, 0usize, 0usize);
        for _ in 0..CALLS {
            let targets = [by_degree[0], by_degree[1], pick()];
            let src = pick();
            let (_, reference_visited) = one_sided_reference(&g, src, &targets, u32::MAX);
            check_nearest(&mut scratch, &g, src, &targets, u32::MAX, |_| true);
            reference_total += reference_visited;
            total += scratch.last_visited();
            worst = worst.max(scratch.last_visited());
        }
        // Means over the calls (one whole level at a time means a single
        // call can swallow a hub's neighborhood; it stays under n/10).
        assert!(
            reference_total / CALLS > N / 3,
            "one-sided search visited only {} per call",
            reference_total / CALLS
        );
        assert!(
            total / CALLS < N / 20 && worst < N / 10,
            "bidirectional search visited {} per call, {worst} at worst, of {N}",
            total / CALLS
        );
    }

    #[test]
    fn freeze_preserves_structure() {
        let g = barabasi_albert(120, 3, 7);
        let c = CsrGraph::from(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.max_degree(), g.max_degree());
        for v in g.nodes() {
            assert_eq!(c.degree(v), g.degree(v));
            assert_eq!(c.strength(v), g.strength(v));
            let adj: Vec<EdgeRef> = g.neighbors(v).to_vec();
            let csr: Vec<EdgeRef> = c.neighbors(v).collect();
            assert_eq!(adj, csr, "neighbor order must be preserved for {v:?}");
        }
        let ge: Vec<_> = g.edges().collect();
        let ce: Vec<_> = c.edges().collect();
        assert_eq!(ge, ce);
    }

    #[test]
    fn edge_queries_match() {
        let g = path4();
        let c = CsrGraph::from(&g);
        assert!(c.has_edge(NodeId(0), NodeId(1)));
        assert!(c.has_edge(NodeId(1), NodeId(0)));
        assert!(!c.has_edge(NodeId(0), NodeId(3)));
        assert!(!c.has_edge(NodeId(0), NodeId(9)));
        assert_eq!(c.edge_weight(NodeId(1), NodeId(2)), Some(1));
        assert_eq!(c.edge_weight(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn empty_graph_freezes() {
        let c = CsrGraph::from(&Graph::new(0));
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.max_degree(), 0);
        assert_eq!(c.nodes().count(), 0);
    }

    #[test]
    fn distance_is_total() {
        // A scratch that never ran knows no distances at all.
        let mut scratch = TraversalScratch::new();
        assert_eq!(scratch.distance(NodeId(0)), None);
        // After a run, ids past the end of the graph answer `None` too.
        scratch.bfs(&CsrGraph::from(&path4()), &[NodeId(0)]);
        assert_eq!(scratch.distance(NodeId(3)), Some(3));
        assert_eq!(scratch.distance(NodeId(4)), None);
        assert_eq!(scratch.distance(NodeId(u32::MAX)), None);
    }

    #[test]
    fn scratch_reset_is_complete_across_graphs() {
        let big = CsrGraph::from(&barabasi_albert(60, 3, 1));
        let small = CsrGraph::from(&path4());
        let mut scratch = TraversalScratch::new();
        scratch.bfs(&big, &[NodeId(0)]);
        // Reusing on a smaller graph must not leak stale distances.
        scratch.bfs(&small, &[NodeId(3)]);
        assert_eq!(scratch.distance(NodeId(0)), Some(3));
        assert_eq!(scratch.distance(NodeId(3)), Some(0));
        assert_eq!(scratch.visited().len(), 4);
    }

    #[test]
    fn scratch_multi_source_ignores_bad_sources() {
        let c = CsrGraph::from(&path4());
        let mut scratch = TraversalScratch::new();
        scratch.bfs(&c, &[NodeId(0), NodeId(0), NodeId(99), NodeId(3)]);
        assert_eq!(scratch.distance(NodeId(1)), Some(1));
        assert_eq!(scratch.distance(NodeId(2)), Some(1));
    }

    #[test]
    fn bounded_bfs_respects_hop_budget() {
        let g = Graph::from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]);
        let c = CsrGraph::from(&g);
        let mut scratch = TraversalScratch::new();
        scratch.bfs_bounded(&c, &[NodeId(0)], 2);
        assert_eq!(scratch.distance(NodeId(2)), Some(2));
        assert_eq!(scratch.distance(NodeId(3)), None);
        // Multi-source: nearest source wins, budget still applies.
        scratch.bfs_bounded(&c, &[NodeId(0), NodeId(5)], 1);
        assert_eq!(scratch.distance(NodeId(1)), Some(1));
        assert_eq!(scratch.distance(NodeId(4)), Some(1));
        assert_eq!(scratch.distance(NodeId(2)), None);
        assert_eq!(scratch.distance(NodeId(3)), None);
    }

    #[test]
    fn generations_are_unique_and_monotonic() {
        let g = path4();
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g);
        assert_eq!(a, b, "structural equality ignores generation");
        assert_ne!(a.generation(), b.generation());
        assert!(b.generation() > a.generation());
        let c = a.apply_delta(&GraphDelta::new());
        assert!(c.generation() > b.generation());
        assert_eq!(c, a);
    }

    #[test]
    fn apply_delta_matches_from_scratch() {
        let mut g = barabasi_albert(200, 3, 11);
        let base = CsrGraph::from(&g);
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(199), 4)
            .remove_edge(NodeId(0), NodeId(1))
            .add_edge(NodeId(0), NodeId(1), 2) // re-add after removal
            .add_edge(NodeId(5), NodeId(6), 1) // may reinforce an existing edge
            .remove_edge(NodeId(100), NodeId(150))
            .add_nodes(3)
            .add_edge(NodeId(200), NodeId(7), 9)
            .add_edge(NodeId(201), NodeId(200), 1);
        let incremental = base.apply_delta(&d);
        d.apply_to(&mut g);
        let scratch = CsrGraph::from(&g);
        assert_eq!(incremental, scratch);
        assert_eq!(incremental.edge_count(), g.edge_count());
        assert_eq!(incremental.node_count(), 203);
    }

    /// The summary sorts the rows into touched and untouched: an edge op
    /// touches both endpoints, an activation its new row.
    #[test]
    fn apply_delta_summary_classifies_change() {
        let g = path4();
        let base = CsrGraph::from(&g);

        let mut reinforce = GraphDelta::new();
        reinforce.add_edge(NodeId(0), NodeId(1), 5);
        let c = base.apply_delta(&reinforce);
        assert_eq!(c.last_delta().unwrap().touched, vec![NodeId(0), NodeId(1)]);

        let mut structural = GraphDelta::new();
        structural.remove_edge(NodeId(1), NodeId(2)).add_nodes(1);
        let c2 = base.apply_delta(&structural);
        let touched = &c2.last_delta().unwrap().touched;
        assert_eq!(*touched, vec![NodeId(1), NodeId(2), NodeId(4)]);
        assert!(base.last_delta().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_delta_out_of_range_panics() {
        let base = CsrGraph::from(&path4());
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(9), 1);
        base.apply_delta(&d);
    }

    #[test]
    fn chunk_size_does_not_change_logical_structure() {
        let g = barabasi_albert(300, 3, 9);
        let default = CsrGraph::from(&g);
        for rows in [1usize, 2, 64, 4096] {
            let chunked = CsrGraph::from_graph_chunked(&g, rows);
            assert_eq!(chunked.chunk_rows(), rows);
            assert_eq!(chunked.chunk_count(), 300usize.div_ceil(rows));
            assert_eq!(chunked, default, "layout must not leak into equality");
            assert_eq!(chunked.max_degree(), default.max_degree());
            // row_start must walk the same flat positions in every layout.
            let mut flat = 0usize;
            for v in chunked.nodes() {
                assert_eq!(chunked.row_start(v), flat);
                flat += chunked.degree(v);
            }
            assert_eq!(flat, chunked.half_edge_count());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_chunk_rows_rejected() {
        CsrGraph::from_graph_chunked(&path4(), 3);
    }

    #[test]
    fn apply_delta_shares_untouched_chunks() {
        // 64 nodes over 8-row chunks = 8 chunks; touch only node 0's and
        // node 63's rows → chunks 0 and 7 rebuilt, 6 shared.
        let mut g = barabasi_albert(64, 2, 3);
        let base = CsrGraph::from_graph_chunked(&g, 8);
        assert_eq!(base.chunk_count(), 8);
        assert_eq!(base.cow_stats().chunks_shared, 0, "freeze shares nothing");
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(63), 7);
        let updated = base.apply_delta(&d);
        let stats = updated.cow_stats();
        assert_eq!(stats.chunks_shared, 6);
        assert_eq!(stats.chunks_rewritten, 2);
        assert_eq!(updated.shared_chunks_with(&base), 6);
        assert!(
            stats.bytes_copied < base.cow_stats().bytes_copied / 2,
            "two touched chunks must copy far less than a full freeze \
             ({} vs {})",
            stats.bytes_copied,
            base.cow_stats().bytes_copied
        );
        d.apply_to(&mut g);
        assert_eq!(updated, CsrGraph::from(&g));
    }

    #[test]
    fn empty_delta_shares_every_chunk() {
        let base = CsrGraph::from(&barabasi_albert(100, 3, 5));
        let same = base.apply_delta(&GraphDelta::new());
        assert_eq!(same, base);
        assert_eq!(same.cow_stats().chunks_rewritten, 0);
        assert_eq!(same.cow_stats().chunks_shared, base.chunk_count());
        assert_eq!(same.shared_chunks_with(&base), base.chunk_count());
        // Only the base index is rebuilt.
        assert_eq!(same.cow_stats().bytes_copied, 4 * base.chunk_count() as u64);
    }

    #[test]
    fn node_activation_dirties_only_the_tail() {
        // 16 nodes = 2 full 8-row chunks; activating 3 nodes appends a
        // fresh partial chunk and must not rebuild the old full ones.
        let g = barabasi_albert(16, 2, 8);
        let base = CsrGraph::from_graph_chunked(&g, 8);
        assert_eq!(base.chunk_count(), 2);
        let mut d = GraphDelta::new();
        d.add_nodes(3);
        let grown = base.apply_delta(&d);
        assert_eq!(grown.node_count(), 19);
        assert_eq!(grown.chunk_count(), 3);
        assert_eq!(grown.cow_stats().chunks_shared, 2);
        assert_eq!(grown.cow_stats().chunks_rewritten, 1);
        for v in (16..19).map(NodeId) {
            assert_eq!(grown.degree(v), 0);
        }
        // Growing into a partial last chunk rebuilds it, keeps the rest.
        let mut d2 = GraphDelta::new();
        d2.add_nodes(1).add_edge(NodeId(19), NodeId(0), 2);
        let grown2 = grown.apply_delta(&d2);
        assert_eq!(grown2.node_count(), 20);
        assert_eq!(grown2.chunk_count(), 3);
        assert_eq!(grown2.cow_stats().chunks_shared, 1, "chunk 1 survives");
        assert_eq!(grown2.edge_weight(NodeId(0), NodeId(19)), Some(2));
    }

    /// Every per-row read of `c` against the adjacency lists of `g`, and
    /// `row_start` against the flat half-edge positions.
    fn assert_rows_match(c: &CsrGraph, g: &Graph) {
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.max_degree(), g.max_degree());
        let mut flat = 0usize;
        for v in g.nodes() {
            let ids: Vec<u32> = g.neighbors(v).iter().map(|e| e.to.0).collect();
            let weights: Vec<u32> = g.neighbors(v).iter().map(|e| e.weight).collect();
            assert_eq!(c.neighbor_ids(v), &ids[..], "ids of {v:?}");
            assert_eq!(c.neighbor_weights(v), &weights[..], "weights of {v:?}");
            assert_eq!(c.degree(v), g.degree(v));
            assert_eq!(c.row_start(v), flat, "row_start of {v:?}");
            flat += c.degree(v);
        }
        assert_eq!(flat, c.half_edge_count());
    }

    #[test]
    fn slab_rows_round_trip_at_every_chunk_size() {
        // 8229 nodes: the first 4096 are isolated (every chunk over them
        // is all-empty rows, up to 4096-row chunks), the rest carry a
        // deterministic edge set with every 7th node isolated, and
        // 8229 = 2·4096 + 37 leaves a partial last chunk at every size
        // above 1.
        const EMPTY: u32 = 4096;
        const N: u32 = 2 * 4096 + 37;
        let live = |v: u32| v >= EMPTY && !(v - EMPTY).is_multiple_of(7);
        let edges = (EMPTY..N).flat_map(|v| {
            let far = EMPTY + (v.wrapping_mul(31) + 7) % (N - EMPTY);
            [(v, far, v % 5 + 1), (v, v + 1, 1), (v, v + 3, 2)]
                .into_iter()
                .filter(move |&(a, b, _)| b < N && live(a) && live(b))
        });
        let g = Graph::from_edges(N as usize, edges);
        assert_eq!(g.degree(NodeId(EMPTY + 7)), 0, "an isolated node");
        assert!(g.max_degree() > 2);
        let mut grow = GraphDelta::new();
        grow.add_nodes(3)
            .add_edge(NodeId(N), NodeId(EMPTY + 1), 4)
            .add_edge(NodeId(N + 2), NodeId(N), 1);
        for rows in [1usize, 2, 8, 64, 4096] {
            let c = CsrGraph::from_graph_chunked(&g, rows);
            assert_eq!(c.chunk_count(), (N as usize).div_ceil(rows));
            assert_rows_match(&c, &g);
            for v in (0..rows.min(EMPTY as usize)).map(|v| NodeId(v as u32)) {
                assert!(c.neighbor_ids(v).is_empty() && c.neighbor_weights(v).is_empty());
            }
            // A grown graph rebuilds its tail chunk around the new rows
            // (one empty, two linked) and still reads back row for row.
            let grown = c.apply_delta(&grow);
            let mut twin = g.clone();
            grow.apply_to(&mut twin);
            assert_eq!(grown.chunk_count(), (N as usize + 3).div_ceil(rows));
            assert_rows_match(&grown, &twin);
            assert_eq!(grown.neighbor_weights(NodeId(N)), &[4, 1]);
            assert_eq!(grown.degree(NodeId(N + 1)), 0);
        }
    }

    #[test]
    fn partial_last_chunk_pads_with_empty_rows() {
        // 4 nodes in one 8-row chunk: rows 4..8 are inside the chunk but
        // past the graph, and read as empty rows, never as row data.
        let c = CsrGraph::from_graph_chunked(&path4(), 8);
        for v in (4..8).map(NodeId) {
            assert_eq!(c.degree(v), 0);
            assert!(c.neighbor_ids(v).is_empty() && c.neighbor_weights(v).is_empty());
            assert_eq!(c.row_start(v), c.half_edge_count());
        }
        let grown = c.apply_delta(GraphDelta::new().add_nodes(1));
        assert_eq!(grown.degree(NodeId(4)), 0);
        assert_eq!(grown.neighbor_ids(NodeId(3)), &[2]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn row_past_the_last_chunk_panics() {
        CsrGraph::from_graph_chunked(&path4(), 8).degree(NodeId(8));
    }
}
