//! Replica placement algorithms (Section V-D / VI-A of the paper).
//!
//! All algorithms rank a frozen [`CsrGraph`] — freeze the social graph
//! once, place many times — and return `k` distinct nodes, fewer only when
//! the graph has fewer than `k` nodes. Ties break toward smaller node ids
//! so placements are deterministic given a seed, and every ranking is
//! prefix-consistent: `place(g, k, seed)` is the first `k` entries of
//! `place(g, n, seed)`, which is what lets
//! [`RankingCache`](crate::ranking_cache::RankingCache) memoize one full
//! ordering per (graph, algorithm, seed).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use scdn_graph::centrality::{betweenness, closeness, top_k_by_score};
use scdn_graph::cover::greedy_weighted_dominating_set;
use scdn_graph::metrics::all_clustering_coefficients;
use scdn_graph::pagerank::pagerank;
use scdn_graph::{CsrGraph, Graph, NodeId};

/// The placement algorithms evaluated in the paper (first four) plus the
/// extensions it discusses for future work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementAlgorithm {
    /// Replicas assigned uniformly at random.
    Random,
    /// Nodes with the highest degree (number of coauthors).
    NodeDegree,
    /// Highest-degree node *within a community*: never place a replica
    /// adjacent to an existing replica ("replicas are not placed as direct
    /// neighbors to one another").
    CommunityNodeDegree,
    /// Nodes with the highest local clustering coefficient.
    ClusteringCoefficient,
    /// Nodes with the highest betweenness centrality (Section V-D lists
    /// betweenness among the social metrics available to the CDN).
    Betweenness,
    /// DOSN-style social score (cf. the Social Score cache selection of
    /// Han et al., discussed in Section VII): a blend of degree,
    /// closeness, and *low* clustering (hubs that bridge, not corner
    /// cliques).
    SocialScore,
    /// Weighted PageRank over the coauthorship graph.
    PageRank,
    /// Highest k-core membership (ties → higher degree): replicas sit in
    /// the graph's stable collaboration core.
    KCore,
    /// Highest weighted degree (sum of joint-publication counts): the
    /// "proven trust" mass of a node rather than its raw coauthor count.
    WeightedDegree,
}

impl PlacementAlgorithm {
    /// The four algorithms of the paper's Fig. 3.
    pub const PAPER_SET: [PlacementAlgorithm; 4] = [
        PlacementAlgorithm::Random,
        PlacementAlgorithm::NodeDegree,
        PlacementAlgorithm::CommunityNodeDegree,
        PlacementAlgorithm::ClusteringCoefficient,
    ];

    /// Extended set for the ablation experiments.
    pub const EXTENDED_SET: [PlacementAlgorithm; 5] = [
        PlacementAlgorithm::Betweenness,
        PlacementAlgorithm::SocialScore,
        PlacementAlgorithm::PageRank,
        PlacementAlgorithm::KCore,
        PlacementAlgorithm::WeightedDegree,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PlacementAlgorithm::Random => "Random",
            PlacementAlgorithm::NodeDegree => "Node Degree",
            PlacementAlgorithm::CommunityNodeDegree => "Community Node Degree",
            PlacementAlgorithm::ClusteringCoefficient => "Clustering Coefficient",
            PlacementAlgorithm::Betweenness => "Betweenness",
            PlacementAlgorithm::SocialScore => "Social Score",
            PlacementAlgorithm::PageRank => "PageRank",
            PlacementAlgorithm::KCore => "K-Core",
            PlacementAlgorithm::WeightedDegree => "Weighted Degree",
        }
    }

    /// Place `k` replicas on `g`. `seed` only affects [`Random`].
    ///
    /// [`Random`]: PlacementAlgorithm::Random
    pub fn place(self, g: &CsrGraph, k: usize, seed: u64) -> Vec<NodeId> {
        match self {
            PlacementAlgorithm::Random => place_random(g, k, seed),
            PlacementAlgorithm::NodeDegree => place_by_degree(g, k),
            PlacementAlgorithm::CommunityNodeDegree => place_community_degree(g, k),
            PlacementAlgorithm::ClusteringCoefficient => place_by_clustering(g, k),
            PlacementAlgorithm::Betweenness => top_k_by_score(&betweenness(g), k),
            PlacementAlgorithm::SocialScore => place_by_social_score(g, k),
            PlacementAlgorithm::PageRank => top_k_by_score(&pagerank(g), k),
            PlacementAlgorithm::KCore => place_by_kcore(g, k),
            PlacementAlgorithm::WeightedDegree => place_by_strength(g, k),
        }
    }
}

/// Uniform random placement. Only the node-id list enters the shuffle, so
/// equal seeds give equal placements on any two graphs of one size.
fn place_random(g: &CsrGraph, k: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(&mut rng);
    nodes.truncate(k);
    nodes
}

/// Top-`k` by degree (ties → smaller id).
fn place_by_degree(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    let scores: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64).collect();
    top_k_by_score(&scores, k)
}

/// Community node degree: greedily take the highest-degree node that is not
/// adjacent to an already-chosen replica; when no non-adjacent candidates
/// remain, fall back to the highest-degree remaining node (the paper keeps
/// placing replicas even in small graphs).
fn place_community_degree(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    community_greedy(g, k).0
}

/// Work one [`community_greedy`] call did; read by the work-bound test,
/// dropped by the placement wrappers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct GreedyWork {
    /// Positions of `order` examined, both passes together (≤ 2·n).
    examined: usize,
    /// Neighbour exclusion marks written (≤ Σ degree).
    marks: usize,
}

/// The community-degree greedy over `order`, the nodes by descending
/// degree (ties → smaller id).
///
/// The greedy's two marks are monotone — a node adjacent to a chosen
/// replica stays excluded, a taken node stays taken — so "the first
/// untaken, unexcluded node of `order`" only ever moves forward, and once
/// no such node is left none reappears. The picks are therefore one
/// forward pass taking every node not yet excluded (and excluding its
/// neighbours), then one forward pass taking whatever is left:
/// O(n + Σ degree) after the sort, and a smaller `k` only stops the same
/// sequence earlier (prefix consistency).
fn community_greedy(g: &CsrGraph, k: usize) -> (Vec<NodeId>, GreedyWork) {
    // Precomputed degrees keep the sort comparator to one indexed load.
    let degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree[v.index()]), v));
    let k = k.min(order.len());
    let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
    let mut work = GreedyWork::default();
    let mut excluded = vec![false; order.len()]; // adjacent to a replica
    let mut taken = vec![false; order.len()];
    for &v in &order {
        if chosen.len() == k {
            return (chosen, work);
        }
        work.examined += 1;
        if excluded[v.index()] {
            continue;
        }
        chosen.push(v);
        taken[v.index()] = true;
        for &u in g.neighbor_ids(v) {
            excluded[u as usize] = true;
            work.marks += 1;
        }
    }
    // Independent set exhausted: highest remaining degree first.
    for &v in &order {
        if chosen.len() == k {
            break;
        }
        work.examined += 1;
        if !taken[v.index()] {
            chosen.push(v);
        }
    }
    (chosen, work)
}

/// Top-`k` by local clustering coefficient.
///
/// Ties (many nodes sit at exactly CC = 1.0) break toward the *lowest*
/// degree: a perfect local clustering score is most often produced by a
/// tiny complete clique, and the paper observes exactly this failure mode
/// ("in many cases the nodes with high clustering coefficient are those
/// with few coauthors who are equally connected in a tight cluster").
fn place_by_clustering(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    let cc = all_clustering_coefficients(g);
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by(|&a, &b| {
        cc[b.index()]
            .partial_cmp(&cc[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(g.degree(a).cmp(&g.degree(b)))
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

/// Top-`k` by weighted degree / strength (ties → smaller id).
fn place_by_strength(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    let scores: Vec<f64> = g.nodes().map(|v| g.strength(v) as f64).collect();
    top_k_by_score(&scores, k)
}

/// Top-`k` by core number, ties broken by higher degree then smaller id:
/// members of the deepest k-core with the widest reach host first.
fn place_by_kcore(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    let core = scdn_graph::kcore::core_numbers(g);
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by(|&a, &b| {
        core[b.index()]
            .cmp(&core[a.index()])
            .then(g.degree(b).cmp(&g.degree(a)))
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

/// Social score: `0.5·degree_centrality + 0.3·closeness + 0.2·(1 − CC)`.
/// Rewards connected, central nodes that are *not* buried in tight corner
/// cliques — the profile of a good social cache.
fn place_by_social_score(g: &CsrGraph, k: usize) -> Vec<NodeId> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let denom = (n.max(2) - 1) as f64;
    let cl = closeness(g);
    let cc = all_clustering_coefficients(g);
    let scores: Vec<f64> = g
        .nodes()
        .map(|v| {
            let dc = g.degree(v) as f64 / denom;
            0.5 * dc + 0.3 * cl[v.index()] + 0.2 * (1.0 - cc[v.index()])
        })
        .collect();
    top_k_by_score(&scores, k)
}

/// My3-style availability-aware placement: choose a cost-weighted greedy
/// dominating set of the availability-overlap graph, then top up / trim to
/// exactly `k` nodes (topping up by lowest cost).
///
/// `availability_graph` has an edge between nodes whose uptime overlaps
/// (see `scdn_sim::availability::availability_graph`); `cost[v]` is the
/// penalty of hosting on `v` (e.g. inverse availability).
pub fn place_availability_cover(availability_graph: &Graph, cost: &[f64], k: usize) -> Vec<NodeId> {
    let mut chosen = greedy_weighted_dominating_set(availability_graph, cost);
    if chosen.len() > k {
        // Keep the cheapest k cover members.
        chosen.sort_by(|&a, &b| {
            cost[a.index()]
                .partial_cmp(&cost[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        chosen.truncate(k);
    } else if chosen.len() < k {
        let mut rest: Vec<NodeId> = availability_graph
            .nodes()
            .filter(|v| !chosen.contains(v))
            .collect();
        rest.sort_by(|&a, &b| {
            cost[a.index()]
                .partial_cmp(&cost[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for v in rest {
            if chosen.len() >= k {
                break;
            }
            chosen.push(v);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen;
    use proptest::prelude::*;
    use scdn_graph::generators::{add_clique, barabasi_albert};

    fn assert_valid_placement(g: &CsrGraph, p: &[NodeId], k: usize) {
        assert_eq!(p.len(), k.min(g.node_count()));
        let mut sorted: Vec<_> = p.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p.len(), "placements must be distinct");
        for v in p {
            assert!(v.index() < g.node_count());
        }
    }

    #[test]
    fn all_algorithms_produce_valid_placements() {
        let g = CsrGraph::from(&barabasi_albert(200, 3, 5));
        for alg in PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain(PlacementAlgorithm::EXTENDED_SET)
        {
            for k in [1, 5, 10] {
                let p = alg.place(&g, k, 17);
                assert_valid_placement(&g, &p, k);
            }
        }
    }

    #[test]
    fn k_larger_than_graph_returns_all() {
        let g = frozen(3, [(0, 1, 1), (1, 2, 1)]);
        for alg in PlacementAlgorithm::PAPER_SET {
            let p = alg.place(&g, 10, 1);
            assert_eq!(p.len(), 3, "{:?}", alg);
        }
    }

    #[test]
    fn node_degree_picks_hub() {
        let g = frozen(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        assert_eq!(place_by_degree(&g, 1), vec![NodeId(0)]);
    }

    #[test]
    fn node_degree_drowns_in_clique() {
        // A 10-clique of "mega pub" authors beats two moderate hubs from
        // rank 3 onward — the paper's Fig. 3(a) observation in miniature.
        let mut g = Graph::new(30);
        // Hub A (degree 12), hub B (degree 11).
        for i in 1..13 {
            g.add_edge(NodeId(0), NodeId(i), 1);
        }
        for i in 2..13 {
            g.add_edge(NodeId(1), NodeId(i), 1);
        }
        let clique: Vec<NodeId> = (20..30).map(NodeId).collect();
        add_clique(&mut g, &clique, 1);
        let p = place_by_degree(&CsrGraph::from(&g), 5);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[1], NodeId(1));
        // Remaining picks all fall inside the clique (degree 9 beats the
        // degree ≤ 3 remainder).
        for v in &p[2..] {
            assert!(clique.contains(v), "pick {v:?} should be a clique member");
        }
    }

    #[test]
    fn community_degree_avoids_neighbors() {
        let g = CsrGraph::from(&barabasi_albert(150, 3, 9));
        let p = place_community_degree(&g, 8);
        // No two chosen replicas may be adjacent unless the fallback fired;
        // in a 150-node BA graph with k=8 the fallback never fires.
        for (i, &a) in p.iter().enumerate() {
            for &b in &p[i + 1..] {
                assert!(!g.has_edge(a, b), "{a:?} and {b:?} are adjacent");
            }
        }
    }

    /// The greedy as the paper words it: every pick rescans `order` from
    /// position 0. Θ(n·k) — the reference [`community_greedy`] is tested
    /// against, nothing else calls it.
    fn restart_greedy_reference(g: &Graph, k: usize) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut chosen: Vec<NodeId> = Vec::with_capacity(k.min(order.len()));
        let mut excluded = vec![false; g.node_count()]; // adjacent to a replica
        let mut taken = vec![false; g.node_count()];
        while chosen.len() < k {
            // Best non-adjacent candidate first.
            let pick = order
                .iter()
                .copied()
                .find(|&v| !taken[v.index()] && !excluded[v.index()])
                .or_else(|| order.iter().copied().find(|&v| !taken[v.index()]));
            let Some(v) = pick else { break };
            chosen.push(v);
            taken[v.index()] = true;
            for e in g.neighbors(v) {
                excluded[e.to.index()] = true;
            }
        }
        chosen
    }

    /// Graphs on which the greedy leaves its independent-set phase at
    /// every possible position: after one pick (clique, star), about
    /// halfway (path), never (edgeless), and anywhere in between (sparse
    /// random, with and without a block of isolated nodes).
    fn arb_shaped_graph() -> impl Strategy<Value = Graph> {
        let pairs = proptest::collection::vec((0u32..1000, 0u32..1000), 0..56);
        (0usize..6, 0u32..28, pairs).prop_map(|(shape, n, pairs)| {
            let mut g = Graph::new(n as usize);
            match shape {
                0 => add_clique(&mut g, &(0..n).map(NodeId).collect::<Vec<_>>(), 1),
                1 => (1..n).for_each(|v| g.add_edge(NodeId(0), NodeId(v), 1)),
                2 => (1..n).for_each(|v| g.add_edge(NodeId(v - 1), NodeId(v), 1)),
                3 => {}
                // Random edges over the whole node set, or over its lower
                // half only (the upper half stays isolated).
                _ => {
                    let span = if shape == 4 { n } else { n / 2 };
                    for (a, b) in pairs {
                        if span > 0 {
                            g.add_edge(NodeId(a % span), NodeId(b % span), 1);
                        }
                    }
                }
            }
            g
        })
    }

    proptest! {
        #[test]
        fn linear_greedy_equals_restart_reference_for_every_k(g in arb_shaped_graph()) {
            let csr = CsrGraph::from(&g);
            for k in 0..=g.node_count() + 2 {
                let reference = restart_greedy_reference(&g, k);
                prop_assert_eq!(&place_community_degree(&csr, k), &reference, "k={}", k);
            }
        }
    }

    #[test]
    fn full_community_ranking_work_is_linear() {
        // Counted, not timed: a full ranking (`k = n`, the call
        // `RankingCache` makes) may look at each position of `order` once
        // per pass and mark each half-edge at most once.
        let n = 100_000;
        let g = CsrGraph::from(&barabasi_albert(n, 3, 41));
        let (chosen, work) = community_greedy(&g, n);
        assert_eq!(chosen.len(), n);
        let half_edges: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert!(work.examined <= 2 * n, "examined {} of {n}", work.examined);
        assert!(
            work.marks <= half_edges,
            "{} marks, {half_edges} half-edges",
            work.marks
        );
    }

    #[test]
    fn community_degree_fallback_fills_k() {
        // A star: after picking the center every node is excluded, but the
        // fallback must still fill up to k.
        let g = frozen(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        let p = place_community_degree(&g, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], NodeId(0));
    }

    #[test]
    fn clustering_picks_tight_corner() {
        // Triangle 0-1-2 (CC 1) + star center 3 (CC 0).
        let g = frozen(
            7,
            [
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (3, 5, 1),
                (3, 6, 1),
                (2, 3, 1),
            ],
        );
        let p = place_by_clustering(&g, 2);
        assert!(p.contains(&NodeId(0)) && p.contains(&NodeId(1)));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let g = CsrGraph::from(&barabasi_albert(100, 2, 3));
        assert_eq!(place_random(&g, 7, 42), place_random(&g, 7, 42));
        assert_ne!(place_random(&g, 7, 42), place_random(&g, 7, 43));
    }

    #[test]
    fn social_score_prefers_bridging_hub_over_clique_corner() {
        // Hub 0 connects two triangles; corners have CC 1 but low degree.
        let g = frozen(
            7,
            [
                (1, 2, 1),
                (2, 3, 1),
                (1, 3, 1),
                (4, 5, 1),
                (5, 6, 1),
                (4, 6, 1),
                (0, 1, 1),
                (0, 4, 1),
            ],
        );
        let p = place_by_social_score(&g, 1);
        assert!(
            p == vec![NodeId(0)] || p == vec![NodeId(1)] || p == vec![NodeId(4)],
            "picked {p:?}"
        );
    }

    #[test]
    fn availability_cover_exact_k() {
        let g = barabasi_albert(60, 2, 7);
        let cost: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64).collect();
        for k in [2, 10, 40] {
            let p = place_availability_cover(&g, &cost, k);
            assert_eq!(p.len(), k);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k);
        }
    }

    #[test]
    fn empty_graph_gives_empty_placement() {
        let g = CsrGraph::from(&Graph::new(0));
        for alg in PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain(PlacementAlgorithm::EXTENDED_SET)
        {
            assert!(alg.place(&g, 3, 1).is_empty(), "{alg:?}");
        }
    }
}
