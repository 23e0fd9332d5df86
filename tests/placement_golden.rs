//! Golden ranking gate: the eight placement rankings, a multi-source BFS
//! and the Fig. 3 hit-rate sweep must reproduce, bit for bit, digests
//! **recorded at the commit before the adjacency-list algorithm twins were
//! removed, through the adjacency-list path** (`place(&Graph, ..)`,
//! `multi_source_bfs(&Graph, ..)`, and a `hit_rate(&Graph)`-per-cell
//! re-derivation of `sweep`). Two Betweenness digests were re-recorded
//! when Brandes became serial: it sums sources in index order, where the
//! recorded values summed two per-worker halves.
//!
//! Every equivalence proptest in the workspace compares two things built
//! from the same commit; this is the check across commits. It runs under
//! the bare `cargo test -q`, which reaches only the root package. If a
//! change alters a ranking on purpose, re-record the constant it names and
//! say so in the PR — never to make a refactor pass.

use scdn::alloc::placement::PlacementAlgorithm;
use scdn::core::casestudy::CaseStudy;
use scdn::graph::generators::barabasi_albert;
use scdn::graph::traversal::multi_source_bfs;
use scdn::graph::CsrGraph;
use scdn::social::generator::{generate, CaseStudyParams};

/// Seed of every `place` call (only `Random` reads it).
const SEED: u64 = 7;

/// Digests of one graph: `place(g, n, SEED)` for `PAPER_SET` then
/// `EXTENDED_SET`, in declaration order, then `multi_source_bfs` from the
/// NodeDegree top-10.
type RankingDigests = [u64; 9];

const BA_2000: RankingDigests = [
    0xc5fc310fc24d637d,
    0x9a92aeebec245771,
    0x976d57d855e1d005,
    0x537374d4621663e9,
    0xd9b10ef909bc3c5d,
    0x5760aaaa693cfe71,
    0xe8138d52f30ffbed,
    // Every edge of a BA graph has weight 1, so weighted degree falls
    // through to node degree.
    0x9a92aeebec245771,
    0xd44bfa8deffc81e6,
];

/// Per paper trust subgraph (baseline, double-coauthorship,
/// number-of-authors): the ranking digests, then the digest of
/// `sweep(PAPER_SET, 1..=10, runs = 3)`'s hit-rate curves.
const PAPER_SUBGRAPHS: [(RankingDigests, u64); 3] = [
    (
        [
            0xfc274a49abb9fbdc,
            0x0768ba1245e79694,
            0x713fc4fed2e4e4e8,
            0x679e3a1d112d65d8,
            0x3a7769eba5c394e0,
            0xdf5a205ed9c50e68,
            0x8d9d7687d3a0a8d8,
            0x617efe7baf0ba5f4,
            0xb7a6756e0278b3c2,
        ],
        0x97f192ee8bfab3ee,
    ),
    (
        [
            0x3dacece099260369,
            0xee0544fa232b2039,
            0xdadb36471780f6a9,
            0x8788191544efd9f1,
            // Re-recorded: serial Brandes.
            0x7f3fd8d34bf03a89,
            0x6059188e204d46b9,
            0xfb7cd287a22b853d,
            0xc8647d1b86e73e99,
            0x2a630d805232c5e0,
        ],
        0x88c67c82028d3e43,
    ),
    (
        [
            0x691f4f27b343d78d,
            0xd9a3454274ffa4ad,
            0xdc7e400d9d0f1289,
            0x9df08505765ca7b1,
            // Re-recorded: serial Brandes.
            0xc668f724fc941b21,
            0x594253450bde9bd1,
            0x713fff3fea0e779d,
            0x7c045fcd35b9c041,
            0x308aea166b4df6e6,
        ],
        0x7f2d95312ce9dd64,
    ),
];

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn all_algorithms() -> impl Iterator<Item = PlacementAlgorithm> {
    PlacementAlgorithm::PAPER_SET
        .into_iter()
        .chain(PlacementAlgorithm::EXTENDED_SET)
}

fn assert_rankings(graph: &str, g: &CsrGraph, golden: &RankingDigests) {
    let n = g.node_count();
    for (alg, &want) in all_algorithms().zip(golden) {
        let ranking = alg.place(g, n, SEED);
        assert_eq!(ranking.len(), n, "{graph}: {alg:?} ranks every node");
        let got = fnv(ranking.into_iter().map(|v| u64::from(v.0)));
        assert_eq!(
            got, want,
            "{graph}: {alg:?} full ranking changed ({got:#018x}, recorded {want:#018x})"
        );
    }
    let top10 = PlacementAlgorithm::NodeDegree.place(g, 10, SEED);
    let got = fnv(multi_source_bfs(g, &top10)
        .into_iter()
        .map(|d| d.map_or(u64::MAX, u64::from)));
    assert_eq!(
        got, golden[8],
        "{graph}: multi_source_bfs from the NodeDegree top-10 changed ({got:#018x})"
    );
}

#[test]
fn generator_graph_rankings_match_recorded_digests() {
    let g = CsrGraph::from(&barabasi_albert(2_000, 3, 7));
    assert_rankings("barabasi_albert(2000, 3, 7)", &g, &BA_2000);
}

#[test]
fn paper_subgraph_rankings_and_sweep_match_recorded_digests() {
    let corpus = generate(&CaseStudyParams::default());
    let cs = CaseStudy::paper_setup(&corpus.corpus, corpus.seed_author);
    let subs = cs.paper_subgraphs().expect("seed present");
    let ks: Vec<usize> = (1..=10).collect();
    for (sub, (rankings, sweep)) in subs.iter().zip(&PAPER_SUBGRAPHS) {
        let name = sub.filter.name();
        assert_rankings(&name, &CsrGraph::from(&sub.graph), rankings);
        let curves = cs.sweep(sub, &PlacementAlgorithm::PAPER_SET, &ks, 3);
        let got = fnv(curves
            .iter()
            .flat_map(|c| c.hit_rate_pct.iter().map(|r| r.to_bits())));
        assert_eq!(
            got, *sweep,
            "{name}: Fig. 3 hit-rate curves changed ({got:#018x}, recorded {sweep:#018x})"
        );
    }
}
