//! Churn reporter: incremental CSR deltas with scoped cache invalidation
//! versus a flush-everything oracle, under an interleaved request+churn
//! stream.
//!
//! Hosts a full S-CDN on a Barabási–Albert social graph and replays the
//! *identical* chronological stream (`scdn_sim::workload::interleave_churn`
//! of a Poisson/Zipf request workload with a Poisson churn stream of edge
//! adds/removes, collaboration-level leaves and joins) through two modes:
//!
//! * `delta` — consecutive churn events are batched into one
//!   [`GraphDelta`] and applied with `Scdn::apply_graph_delta`: the frozen
//!   CSR is rebuilt incrementally (touched rows only) and both the resolve
//!   cache and the placement-ranking cache are invalidated *scoped to the
//!   churn* (conservative BFS-frontier check / delta-class check);
//! * `flush_oracle` — the same batches through
//!   `Scdn::apply_graph_delta_flush`: a from-scratch re-freeze with an
//!   unannounced generation change, so every cache drops wholesale.
//!
//! Every fourth batch the driver also applies a weight-only
//! "reinforcement" delta (recurring coauthorship bumping the weight of
//! existing ties) — the delta class whose distances provably cannot
//! change, which the scoped path retains in full.
//!
//! Since the CSR moved to chunked copy-on-write storage, both modes also
//! account the *bytes* each snapshot swap actually copied
//! ([`CsrGraph::cow_stats`]): the delta path rewrites only chunks
//! holding touched rows and refcount-bumps the rest, while the oracle's
//! from-scratch freeze copies every column byte and shares nothing. A
//! separate **touch sweep** isolates that effect from the cache story:
//! for touch fractions {0.01%, 0.1%, 1%, 10%} it applies a synthetic
//! delta touching that share of rows and compares chunked-COW bytes and
//! wall time against a from-scratch rebuild of the same post-churn graph
//! (gated bit-identical).
//!
//! Gates (asserted on every run, smoke and full):
//!
//! * **selections-identical** — every `resolve_replica` answer and the
//!   final replica set of every dataset must match between the two modes:
//!   scoped invalidation may never change an outcome, only its cost;
//! * **retention** — the delta mode must retain a non-zero number of
//!   resolve-cache and ranking-cache entries across churn, while the
//!   flush oracle retains exactly zero of each;
//! * **shared-chunks** — the delta mode must share a non-zero number of
//!   CSR chunks across churn (and copy fewer bytes than the oracle),
//!   while the flush oracle shares exactly zero;
//! * **bytes-ratio** (full runs) — at the 1% point of the touch sweep the
//!   chunked path must copy at least 10x fewer bytes than the
//!   from-scratch rebuild, while producing an identical snapshot.
//!
//! The report carries cache-retention rates, copy accounting (bytes
//! copied, chunks shared/rewritten, per-delta apply time), the touch
//! sweep, and resolve/maintain/churn timings per mode. Results go to
//! `BENCH_churn.json` (hand-rolled JSON; the workspace has no
//! serde_json).
//!
//! ```text
//! cargo run -p scdn-bench --release --bin bench_churn             # full run
//! cargo run -p scdn-bench --release --bin bench_churn -- --smoke  # CI gate
//! cargo run -p scdn-bench --release --bin bench_churn -- --huge <out>  # + 1M nodes
//! ```

use std::process::ExitCode;
use std::time::Instant;

use bytes::Bytes;
use scdn_core::system::{Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::{CsrGraph, Graph, GraphDelta, NodeId};
use scdn_sim::workload::{
    generate_churn, generate_requests, interleave_churn, ChurnConfig, ChurnOp, StreamEvent,
    WorkloadConfig,
};
use scdn_social::author::{Author, AuthorId, Institution, InstitutionId, Region};
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{TrustFilter, TrustSubgraph};
use scdn_storage::object::{DatasetId, Sensitivity};

/// A dozen research sites spread over the paper's "different regions of
/// the world", so topology latencies are non-trivial.
const SITES: [(&str, Region, f64, f64); 12] = [
    ("Ann Arbor", Region::NorthAmerica, 42.28, -83.74),
    ("Chicago", Region::NorthAmerica, 41.88, -87.63),
    ("San Diego", Region::NorthAmerica, 32.72, -117.16),
    ("Vancouver", Region::NorthAmerica, 49.26, -123.11),
    ("Sao Paulo", Region::SouthAmerica, -23.55, -46.63),
    ("Amsterdam", Region::Europe, 52.37, 4.90),
    ("Geneva", Region::Europe, 46.20, 6.14),
    ("Warsaw", Region::Europe, 52.23, 21.01),
    ("Tokyo", Region::Asia, 35.68, 139.69),
    ("Singapore", Region::Asia, 1.35, 103.82),
    ("Cape Town", Region::Africa, -33.92, 18.42),
    ("Melbourne", Region::Oceania, -37.81, 144.96),
];

/// Every this-many churn batches, a weight-only reinforcement delta rides
/// along (recurring coauthorship on existing ties).
const REINFORCE_EVERY: usize = 4;

/// One benchmark scenario: a synthetic membership plus a deterministic
/// interleaved request+churn schedule.
struct Workload {
    name: &'static str,
    nodes: usize,
    graph_seed: u64,
    datasets: u32,
    dataset_bytes: usize,
    /// Total requests and their mean inter-arrival.
    requests: usize,
    request_interarrival_ms: f64,
    /// Total churn events and their mean inter-arrival.
    churn_events: usize,
    churn_interarrival_ms: f64,
}

impl Workload {
    fn stream(&self) -> Vec<StreamEvent> {
        let requests = generate_requests(&WorkloadConfig {
            seed: self.graph_seed ^ 0x5eed,
            users: self.nodes,
            datasets: self.datasets as usize,
            popularity_exponent: 0.9,
            activity_exponent: 0.6,
            mean_interarrival_ms: self.request_interarrival_ms,
            count: self.requests,
        });
        let churn = generate_churn(&ChurnConfig {
            seed: self.graph_seed ^ 0xc001,
            users: self.nodes,
            mean_interarrival_ms: self.churn_interarrival_ms,
            count: self.churn_events,
            ..Default::default()
        });
        interleave_churn(&requests, &churn)
    }

    /// A fresh, fully built system with every dataset published and
    /// replicated. Bit-identical across calls.
    fn build(&self) -> (Scdn, Vec<DatasetId>) {
        let graph = barabasi_albert(self.nodes, 3, self.graph_seed);
        let authors: Vec<AuthorId> = (0..self.nodes as u32).map(AuthorId).collect();
        let institutions: Vec<Institution> = SITES
            .iter()
            .enumerate()
            .map(|(i, &(name, region, lat, lon))| Institution {
                id: InstitutionId(i as u32),
                name: name.to_string(),
                region,
                lat,
                lon,
            })
            .collect();
        let members: Vec<Author> = authors
            .iter()
            .map(|&a| Author {
                id: a,
                name: format!("member-{}", a.0),
                institution: InstitutionId(a.0 % SITES.len() as u32),
            })
            .collect();
        let corpus = Corpus::new(members, institutions, Vec::new()).expect("dense ids");
        let sub = TrustSubgraph::from_parts(TrustFilter::Baseline, graph, authors);
        let config = ScdnConfig {
            segment_size: 16 << 10,
            repo_capacity: 64 << 20,
            replicas_per_dataset: 2,
            transfer_concurrency: 2,
            ..Default::default()
        };
        let mut scdn = Scdn::build(&sub, &corpus, config);
        let n = self.nodes as u32;
        let mut datasets = Vec::with_capacity(self.datasets as usize);
        for d in 0..self.datasets {
            let owner = NodeId(d.wrapping_mul(37) % n);
            let id = scdn
                .publish(
                    owner,
                    &format!("churn-{d:03}"),
                    Bytes::from(vec![d as u8; self.dataset_bytes]),
                    Sensitivity::Public,
                    None,
                )
                .expect("publish succeeds");
            scdn.replicate(id).expect("replication succeeds");
            datasets.push(id);
        }
        (scdn, datasets)
    }
}

/// Append one churn op to the pending delta, mirroring its effect on the
/// driver's shadow graph (the shadow stays current so `Leave` can expand
/// to the node's live incident ties, deterministically in both modes).
fn append_op(delta: &mut GraphDelta, op: &ChurnOp, mirror: &mut Graph) {
    match op {
        ChurnOp::AddEdge { a, b, weight } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.add_edge(a, b, *weight);
            mirror.add_edge(a, b, *weight);
        }
        ChurnOp::RemoveEdge { a, b } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.remove_edge(a, b);
            mirror.remove_edge(a, b);
        }
        ChurnOp::Leave { node } => {
            let v = NodeId(*node as u32);
            let ties: Vec<NodeId> = mirror.neighbors(v).iter().map(|e| e.to).collect();
            for p in ties {
                delta.remove_edge(v, p);
                mirror.remove_edge(v, p);
            }
        }
        ChurnOp::Join { node, peers } => {
            let v = NodeId(*node as u32);
            for p in peers {
                let p = NodeId(*p as u32);
                delta.add_edge(v, p, 1);
                mirror.add_edge(v, p, 1);
            }
        }
    }
}

/// A weight-only delta bumping up to three existing ties of the first
/// non-isolated node at or after `start` — recurring coauthorship, the
/// delta class whose shortest-path distances provably cannot change.
fn reinforcement_delta(mirror: &mut Graph, start: u32) -> Option<GraphDelta> {
    let n = mirror.node_count() as u32;
    for i in 0..n {
        let v = NodeId((start + i) % n);
        let ties: Vec<NodeId> = mirror.neighbors(v).iter().take(3).map(|e| e.to).collect();
        if ties.is_empty() {
            continue;
        }
        let mut delta = GraphDelta::new();
        for p in ties {
            delta.add_edge(v, p, 1);
            mirror.add_edge(v, p, 1);
        }
        return Some(delta);
    }
    None
}

/// Everything one mode run produces: the comparables the
/// selections-identical gate checks plus the report inputs.
struct ModeOutcome {
    /// Per-request resolution, in stream order (`None` = resolve failed).
    selections: Vec<Option<u32>>,
    /// Final replica set per dataset, in dataset order.
    catalog: Vec<Vec<NodeId>>,
    churn_batches: usize,
    churn_ops: usize,
    resolve_retained: u64,
    resolve_evicted: u64,
    ranking_retained: u64,
    ranking_evicted: u64,
    cache_hits: u64,
    cache_misses: u64,
    delta_applied: u64,
    nodes_touched: u64,
    /// CSR column bytes the snapshot swaps actually copied (chunked COW
    /// on the delta path, full re-freeze on the oracle).
    bytes_copied: u64,
    /// Chunks shared with the predecessor snapshot, summed over swaps.
    chunks_shared: u64,
    /// Chunks rebuilt, summed over swaps.
    chunks_rewritten: u64,
    /// Snapshot swaps performed (delta applies or re-freezes).
    applies: u64,
    resolve_ns: u128,
    churn_ns: u128,
    apply_ns: u128,
    maintain_ns: u128,
    /// Mean wall time of a placement-ranking recompute
    /// (`core.maintain.ranking_recompute_ms`), printed per workload.
    ranking_recompute_ms: f64,
}

impl ModeOutcome {
    fn retention_rate(retained: u64, evicted: u64) -> f64 {
        let total = retained + evicted;
        if total == 0 {
            0.0
        } else {
            retained as f64 / total as f64
        }
    }

    fn resolve_retention_rate(&self) -> f64 {
        Self::retention_rate(self.resolve_retained, self.resolve_evicted)
    }

    fn ranking_retention_rate(&self) -> f64 {
        Self::retention_rate(self.ranking_retained, self.ranking_evicted)
    }

    fn resolve_per_sec(&self) -> f64 {
        per_sec(self.selections.len() as f64, self.resolve_ns)
    }

    fn churn_ops_per_sec(&self) -> f64 {
        per_sec(self.churn_ops as f64, self.churn_ns)
    }

    /// Mean wall time of one snapshot swap (delta apply / re-freeze).
    fn apply_ms_per_delta(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            self.apply_ns as f64 / 1e6 / self.applies as f64
        }
    }
}

fn per_sec(count: f64, ns: u128) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count * 1e9 / ns as f64
    }
}

/// Mutable accumulators threaded through the churn-batch flush closure.
struct ChurnTally {
    pending: GraphDelta,
    pending_ops: usize,
    churn_batches: usize,
    churn_ops: usize,
    bytes_copied: u64,
    chunks_shared: u64,
    chunks_rewritten: u64,
    applies: u64,
    churn_ns: u128,
    apply_ns: u128,
    maintain_ns: u128,
}

impl ChurnTally {
    fn new() -> Self {
        ChurnTally {
            pending: GraphDelta::new(),
            pending_ops: 0,
            churn_batches: 0,
            churn_ops: 0,
            bytes_copied: 0,
            chunks_shared: 0,
            chunks_rewritten: 0,
            applies: 0,
            churn_ns: 0,
            apply_ns: 0,
            maintain_ns: 0,
        }
    }
}

/// Replay the workload's stream through one mode. `delta_mode` selects
/// the incremental path; otherwise every batch re-freezes from scratch
/// with an unannounced generation change (the flush oracle).
fn run_mode(w: &Workload, delta_mode: bool) -> ModeOutcome {
    let (mut scdn, datasets) = w.build();
    let mut mirror = barabasi_albert(w.nodes, 3, w.graph_seed);
    let stream = w.stream();
    let members = scdn.member_count() as u32;
    let mut selections = Vec::new();
    let mut tally = ChurnTally::new();
    let mut resolve_ns = 0u128;

    let flush = |scdn: &mut Scdn, mirror: &mut Graph, t: &mut ChurnTally| {
        if t.pending.is_empty() {
            return;
        }
        t.churn_batches += 1;
        t.churn_ops += t.pending_ops;
        let mut deltas = vec![std::mem::take(&mut t.pending)];
        t.pending_ops = 0;
        if t.churn_batches.is_multiple_of(REINFORCE_EVERY) {
            let start = (t.churn_batches as u32).wrapping_mul(31) % members;
            deltas.extend(reinforcement_delta(mirror, start));
        }
        let batch_start = Instant::now();
        for d in &deltas {
            // Warm the single memoized placement ranking so every delta
            // has a ranking-cache entry to retain or evict — the recompute
            // after an eviction is part of the churn cost being priced.
            scdn.warm_placement_ranking();
            let apply_start = Instant::now();
            if delta_mode {
                scdn.apply_graph_delta(d).expect("delta applies");
            } else {
                scdn.apply_graph_delta_flush(d).expect("flush applies");
            }
            t.apply_ns += apply_start.elapsed().as_nanos();
            t.applies += 1;
            // Copy accounting for the snapshot swap that just happened:
            // O(touched chunks) on the delta path, the full column set on
            // the oracle's from-scratch freeze (which shares nothing).
            let cow = scdn.social_csr().cow_stats();
            t.bytes_copied += cow.bytes_copied;
            t.chunks_shared += cow.chunks_shared as u64;
            t.chunks_rewritten += cow.chunks_rewritten as u64;
        }
        t.churn_ns += batch_start.elapsed().as_nanos();
        let maintain_start = Instant::now();
        scdn.maintain();
        t.maintain_ns += maintain_start.elapsed().as_nanos();
    };

    for ev in &stream {
        match ev {
            StreamEvent::Churn(c) => {
                append_op(&mut tally.pending, &c.op, &mut mirror);
                tally.pending_ops += 1;
            }
            StreamEvent::Request(r) => {
                flush(&mut scdn, &mut mirror, &mut tally);
                let requester = NodeId(r.user as u32 % members);
                let dataset = datasets[r.dataset % datasets.len()];
                let t = Instant::now();
                let got = scdn.resolve_replica(requester, dataset);
                resolve_ns += t.elapsed().as_nanos();
                selections.push(got.ok().map(|n| n.0));
            }
        }
    }
    flush(&mut scdn, &mut mirror, &mut tally);

    let ctr = |name: &str| scdn.registry().counter(name).get();
    ModeOutcome {
        catalog: datasets
            .iter()
            .map(|&d| scdn.replicas_of(d).unwrap_or_default())
            .collect(),
        selections,
        churn_batches: tally.churn_batches,
        churn_ops: tally.churn_ops,
        resolve_retained: ctr("alloc.resolve.cache.retained"),
        resolve_evicted: ctr("alloc.resolve.cache.evict"),
        ranking_retained: ctr("alloc.ranking.cache.retained"),
        ranking_evicted: ctr("alloc.ranking.cache.evicted"),
        cache_hits: ctr("alloc.resolve.cache.hit"),
        cache_misses: ctr("alloc.resolve.cache.miss"),
        delta_applied: ctr("core.graph.delta_applied"),
        nodes_touched: ctr("core.graph.delta_nodes_touched"),
        bytes_copied: tally.bytes_copied,
        chunks_shared: tally.chunks_shared,
        chunks_rewritten: tally.chunks_rewritten,
        applies: tally.applies,
        resolve_ns,
        churn_ns: tally.churn_ns,
        apply_ns: tally.apply_ns,
        maintain_ns: tally.maintain_ns,
        ranking_recompute_ms: scdn
            .registry()
            .histogram("core.maintain.ranking_recompute_ms")
            .snapshot()
            .mean(),
    }
}

/// One point of the touch sweep: a synthetic delta touching a known
/// fraction of rows, applied via chunked COW and via from-scratch
/// rebuild of the same post-churn graph.
struct TouchPoint {
    frac: f64,
    rows_touched: usize,
    /// Bytes the chunked COW apply copied.
    bytes_copied: u64,
    /// Bytes a from-scratch freeze of the post-churn graph copies.
    scratch_bytes: u64,
    chunks_shared: usize,
    chunks_rewritten: usize,
    apply_ms: f64,
    scratch_ms: f64,
}

impl TouchPoint {
    fn bytes_ratio(&self) -> f64 {
        if self.bytes_copied == 0 {
            0.0
        } else {
            self.scratch_bytes as f64 / self.bytes_copied as f64
        }
    }
}

/// splitmix64 — deterministic node picks for the touch sweep (the
/// workspace has no RNG dependency and the sweep must be reproducible).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Touch fractions the sweep samples, smallest first.
const TOUCH_FRACTIONS: [f64; 4] = [0.0001, 0.001, 0.01, 0.1];

/// Isolate the COW copy cost from the cache story: on the workload's
/// bare social graph, build one delta per touch fraction whose edge adds
/// land on ~`frac * nodes` distinct rows, apply it incrementally, and
/// price a from-scratch rebuild of the identical post-churn graph. The
/// two snapshots are asserted bit-identical — the sweep may only ever
/// measure cost, never change results.
fn touch_sweep(w: &Workload) -> Vec<TouchPoint> {
    let g = barabasi_albert(w.nodes, 3, w.graph_seed);
    let base = CsrGraph::from(&g);
    let n = w.nodes as u32;
    let mut rng = w.graph_seed ^ 0x70c4;
    TOUCH_FRACTIONS
        .iter()
        .map(|&frac| {
            // Pick `target` distinct nodes and chain them into edge adds
            // (consecutive pairs, wrapping on odd counts) so the delta
            // touches exactly the picked rows.
            let target = ((frac * w.nodes as f64).round() as usize).max(2);
            let mut picked = Vec::with_capacity(target);
            let mut seen = std::collections::HashSet::with_capacity(target);
            while picked.len() < target {
                let v = (splitmix64(&mut rng) % n as u64) as u32;
                if seen.insert(v) {
                    picked.push(NodeId(v));
                }
            }
            let mut delta = GraphDelta::new();
            for pair in picked.chunks(2) {
                let (a, b) = (pair[0], *pair.last().unwrap());
                let b = if a == b { picked[0] } else { b };
                delta.add_edge(a, b, 1);
            }

            let apply_start = Instant::now();
            let updated = base.apply_delta(&delta);
            let apply_ms = apply_start.elapsed().as_secs_f64() * 1e3;

            let mut churned = g.clone();
            delta.apply_to(&mut churned);
            let scratch_start = Instant::now();
            let scratch = CsrGraph::from(&churned);
            let scratch_ms = scratch_start.elapsed().as_secs_f64() * 1e3;

            assert_eq!(
                updated, scratch,
                "{}: chunked apply at frac {frac} diverged from from-scratch",
                w.name
            );
            let cow = updated.cow_stats();
            TouchPoint {
                frac,
                rows_touched: updated.last_delta().map_or(0, |s| s.touched.len()),
                bytes_copied: cow.bytes_copied,
                scratch_bytes: scratch.cow_stats().bytes_copied,
                chunks_shared: cow.chunks_shared,
                chunks_rewritten: cow.chunks_rewritten,
                apply_ms,
                scratch_ms,
            }
        })
        .collect()
}

struct WorkloadReport {
    name: &'static str,
    nodes: usize,
    datasets: u32,
    requests: usize,
    delta_run: ModeOutcome,
    flush_run: ModeOutcome,
    sweep: Vec<TouchPoint>,
}

impl WorkloadReport {
    fn mode_json(outcome: &ModeOutcome) -> String {
        format!(
            concat!(
                "{{\n",
                "        \"resolve_cache\": {{ \"hits\": {}, \"misses\": {}, ",
                "\"retained\": {}, \"evicted\": {}, \"retention_rate\": {:.4} }},\n",
                "        \"ranking_cache\": {{ \"retained\": {}, \"evicted\": {}, ",
                "\"retention_rate\": {:.4} }},\n",
                "        \"graph\": {{ \"delta_applied\": {}, \"nodes_touched\": {} }},\n",
                "        \"copy\": {{ \"bytes_copied\": {}, \"chunks_shared\": {}, ",
                "\"chunks_rewritten\": {}, \"applies\": {}, ",
                "\"apply_ms_per_delta\": {:.4} }},\n",
                "        \"churn\": {{ \"batches\": {}, \"ops\": {} }},\n",
                "        \"timings_ms\": {{ \"resolve\": {:.1}, \"churn\": {:.1}, ",
                "\"maintain\": {:.1} }},\n",
                "        \"resolve_per_sec\": {:.0},\n",
                "        \"churn_ops_per_sec\": {:.0}\n",
                "      }}"
            ),
            outcome.cache_hits,
            outcome.cache_misses,
            outcome.resolve_retained,
            outcome.resolve_evicted,
            outcome.resolve_retention_rate(),
            outcome.ranking_retained,
            outcome.ranking_evicted,
            outcome.ranking_retention_rate(),
            outcome.delta_applied,
            outcome.nodes_touched,
            outcome.bytes_copied,
            outcome.chunks_shared,
            outcome.chunks_rewritten,
            outcome.applies,
            outcome.apply_ms_per_delta(),
            outcome.churn_batches,
            outcome.churn_ops,
            outcome.resolve_ns as f64 / 1e6,
            outcome.churn_ns as f64 / 1e6,
            outcome.maintain_ns as f64 / 1e6,
            outcome.resolve_per_sec(),
            outcome.churn_ops_per_sec(),
        )
    }

    fn sweep_json(p: &TouchPoint) -> String {
        format!(
            concat!(
                "        {{ \"frac\": {}, \"rows_touched\": {}, ",
                "\"bytes_copied\": {}, \"scratch_bytes\": {}, ",
                "\"bytes_ratio\": {:.2}, \"chunks_shared\": {}, ",
                "\"chunks_rewritten\": {}, \"apply_ms\": {:.4}, ",
                "\"scratch_ms\": {:.4} }}"
            ),
            p.frac,
            p.rows_touched,
            p.bytes_copied,
            p.scratch_bytes,
            p.bytes_ratio(),
            p.chunks_shared,
            p.chunks_rewritten,
            p.apply_ms,
            p.scratch_ms,
        )
    }

    fn to_json(&self) -> String {
        let sweep = self
            .sweep
            .iter()
            .map(Self::sweep_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"nodes\": {},\n",
                "      \"datasets\": {},\n",
                "      \"requests\": {},\n",
                "      \"selections_identical\": true,\n",
                "      \"modes\": {{\n",
                "      \"delta\": {},\n",
                "      \"flush_oracle\": {}\n",
                "      }},\n",
                "      \"touch_sweep\": [\n{}\n      ]\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.datasets,
            self.requests,
            Self::mode_json(&self.delta_run),
            Self::mode_json(&self.flush_run),
            sweep,
        )
    }
}

fn run_workload(w: &Workload) -> WorkloadReport {
    eprintln!(
        "workload {}: {} nodes, {} datasets, {} requests, {} churn events...",
        w.name, w.nodes, w.datasets, w.requests, w.churn_events
    );
    let t = Instant::now();
    let delta_run = run_mode(w, true);
    eprintln!("  delta mode replayed in {:.1}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let flush_run = run_mode(w, false);
    eprintln!("  flush mode replayed in {:.1}s", t.elapsed().as_secs_f64());

    // Selections-identical gate: scoped invalidation may change the cost
    // of an answer, never the answer.
    assert_eq!(
        delta_run.selections, flush_run.selections,
        "resolutions diverged between delta and flush-oracle on {}",
        w.name
    );
    assert_eq!(
        delta_run.catalog, flush_run.catalog,
        "final replica sets diverged between delta and flush-oracle on {}",
        w.name
    );
    // Retention gate: the delta path keeps entries alive across churn;
    // the oracle, by construction, keeps none.
    assert!(
        delta_run.resolve_retained > 0,
        "delta path retained no resolve-cache entries on {}",
        w.name
    );
    assert!(
        delta_run.ranking_retained > 0,
        "delta path retained no ranking-cache entries on {}",
        w.name
    );
    assert_eq!(
        (flush_run.resolve_retained, flush_run.ranking_retained),
        (0, 0),
        "flush oracle must retain nothing on {}",
        w.name
    );
    // Shared-chunks gate: chunked COW must share chunks across churn and
    // copy fewer bytes than a from-scratch freeze per batch; the oracle's
    // re-freeze shares nothing by construction.
    assert!(
        delta_run.chunks_shared > 0,
        "delta path shared no CSR chunks on {}",
        w.name
    );
    assert_eq!(
        flush_run.chunks_shared, 0,
        "flush oracle must share no CSR chunks on {}",
        w.name
    );
    assert!(
        delta_run.bytes_copied < flush_run.bytes_copied,
        "delta path copied no fewer bytes than the flush oracle on {}",
        w.name
    );

    let sweep = touch_sweep(w);
    for p in &sweep {
        eprintln!(
            "  sweep frac {:>7.4}%: {:>7} rows  {:>12} B copied vs {:>12} B scratch  \
             ({:>5.1}x)  apply {:.3} ms",
            p.frac * 100.0,
            p.rows_touched,
            p.bytes_copied,
            p.scratch_bytes,
            p.bytes_ratio(),
            p.apply_ms,
        );
    }
    // Bytes-ratio gate at the 1% touch point. Only meaningful at scale:
    // tiny smoke graphs have so few chunks that a handful of touched rows
    // already aliases a visible share of them, so the gate applies to the
    // 10k+-node workloads (the acceptance target is the 100k graph).
    if w.nodes >= 10_000 {
        let p = sweep
            .iter()
            .find(|p| p.frac == 0.01)
            .expect("sweep has the 1% point");
        assert!(
            p.bytes_ratio() >= 10.0,
            "{}: chunked apply at 1% touch copied only {:.1}x fewer bytes than scratch \
             (gate: >= 10x)",
            w.name,
            p.bytes_ratio()
        );
    }

    for (label, m) in [("delta", &delta_run), ("flush", &flush_run)] {
        eprintln!(
            "  {label:<6} resolve {:>8.0}/s  churn {:>8.0} ops/s  \
             resolve retention {:>5.1}%  ranking retention {:>5.1}%  \
             copied {:>10} B  shared {:>6} chunks  apply {:>7.3} ms/delta",
            m.resolve_per_sec(),
            m.churn_ops_per_sec(),
            m.resolve_retention_rate() * 100.0,
            m.ranking_retention_rate() * 100.0,
            m.bytes_copied,
            m.chunks_shared,
            m.apply_ms_per_delta(),
        );
    }
    WorkloadReport {
        name: w.name,
        nodes: w.nodes,
        datasets: w.datasets,
        requests: w.requests,
        delta_run,
        flush_run,
        sweep,
    }
}

/// Schema gate on the emitted document (the `metrics_report --check`
/// pattern): balanced braces, required keys, no NaN/infinite numbers.
fn validate_report(text: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let mut depth = 0i64;
    for c in text.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            violations.push("unbalanced braces: closed more than opened".into());
            break;
        }
    }
    if depth != 0 {
        violations.push(format!("unbalanced braces: depth {depth} at end"));
    }
    for key in [
        "\"schema\": \"scdn-bench-churn/v2\"",
        "\"workloads\"",
        "\"selections_identical\": true",
        "\"delta\"",
        "\"flush_oracle\"",
        "\"resolve_cache\"",
        "\"ranking_cache\"",
        "\"retention_rate\"",
        "\"retained\"",
        "\"evicted\"",
        "\"delta_applied\"",
        "\"nodes_touched\"",
        "\"bytes_copied\"",
        "\"chunks_shared\"",
        "\"chunks_rewritten\"",
        "\"apply_ms_per_delta\"",
        "\"touch_sweep\"",
        "\"bytes_ratio\"",
        "\"scratch_bytes\"",
        "\"resolve_per_sec\"",
        "\"churn_ops_per_sec\"",
    ] {
        if !text.contains(key) {
            violations.push(format!("missing key {key}"));
        }
    }
    for bad in ["NaN", "inf"] {
        if text.contains(bad) {
            violations.push(format!("non-finite number ({bad}) in report"));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn emit(reports: &[WorkloadReport], out_path: &str) -> ExitCode {
    let body = reports
        .iter()
        .map(WorkloadReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"scdn-bench-churn/v2\",\n",
            "  \"description\": \"incremental CSR deltas with scoped cache ",
            "invalidation vs a flush-everything oracle under an interleaved ",
            "request+churn stream; both modes replay the identical stream and ",
            "are gated on identical resolutions and final replica sets; ",
            "retained/evicted count cache entries surviving/killed across ",
            "graph deltas (retention_rate = retained / (retained + evicted)), ",
            "and the oracle retains nothing by construction; v2 adds chunked ",
            "copy-on-write accounting: copy.bytes_copied is the CSR column ",
            "bytes each snapshot swap wrote (Arc pointer table excluded), ",
            "copy.chunks_shared counts chunks reused by refcount bump ",
            "(always 0 for the oracle's from-scratch freezes), and ",
            "touch_sweep isolates the effect at fixed touch fractions — ",
            "bytes_ratio = scratch_bytes / bytes_copied, gated >= 10 at the ",
            "1% point on 10k+-node workloads\",\n",
            "  \"workloads\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        body
    );
    if let Err(violations) = validate_report(&json) {
        eprintln!("bench_churn report FAILED validation:");
        for v in violations {
            eprintln!("  - {v}");
        }
        return ExitCode::FAILURE;
    }
    std::fs::write(out_path, &json).expect("write results");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let huge = args.iter().any(|a| a == "--huge");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                // Keep CI runs from clobbering the committed full report.
                "target/BENCH_churn_smoke.json".to_string()
            } else {
                "BENCH_churn.json".to_string()
            }
        });

    let mut workloads: Vec<Workload> = if smoke {
        vec![Workload {
            name: "ba_1500_smoke",
            nodes: 1_500,
            graph_seed: 5,
            datasets: 24,
            dataset_bytes: 64 << 10,
            requests: 2_500,
            request_interarrival_ms: 40.0,
            churn_events: 40,
            churn_interarrival_ms: 2_500.0,
        }]
    } else {
        vec![
            Workload {
                name: "ba_10k",
                nodes: 10_000,
                graph_seed: 21,
                datasets: 100,
                dataset_bytes: 64 << 10,
                requests: 12_000,
                request_interarrival_ms: 15.0,
                churn_events: 120,
                churn_interarrival_ms: 1_500.0,
            },
            Workload {
                name: "ba_100k",
                nodes: 100_000,
                graph_seed: 33,
                datasets: 150,
                dataset_bytes: 64 << 10,
                requests: 12_000,
                request_interarrival_ms: 10.0,
                churn_events: 40,
                churn_interarrival_ms: 3_000.0,
            },
        ]
    };
    if huge {
        // The million-node mode exists to prove the O(touched) claim at
        // the paper's target scale: every delta apply is timed
        // individually (copy.apply_ms_per_delta) and the touch sweep
        // prices a 100k-row (10%) delta against a full ~50 MB re-freeze.
        // The request/churn stream is kept short — the point is the
        // per-delta cost, not a third cache-retention datapoint.
        workloads.push(Workload {
            name: "ba_1m",
            nodes: 1_000_000,
            graph_seed: 34,
            datasets: 20,
            dataset_bytes: 64 << 10,
            requests: 800,
            request_interarrival_ms: 40.0,
            churn_events: 30,
            churn_interarrival_ms: 1_200.0,
        });
    }

    let reports: Vec<WorkloadReport> = workloads.iter().map(run_workload).collect();
    for r in &reports {
        println!(
            "{:<16} n={:<7} delta retention resolve {:.1}% / ranking {:.1}%; \
             ranking recompute {:.2} ms/miss; oracle retains 0; resolutions identical",
            r.name,
            r.nodes,
            r.delta_run.resolve_retention_rate() * 100.0,
            r.delta_run.ranking_retention_rate() * 100.0,
            r.delta_run.ranking_recompute_ms,
        );
    }
    emit(&reports, &out_path)
}
