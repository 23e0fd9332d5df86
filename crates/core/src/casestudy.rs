//! The Section VI case study: replica placement based on successful
//! science.
//!
//! Training years build the trust subgraphs and drive placement; hit rates
//! are then measured on test-year publications. The paper's definitions,
//! verbatim:
//!
//! * a **hit** is "an author with a direct link to a replica (hop = 1)" —
//!   we count hop ≤ 1, i.e. hosting a replica yourself also counts;
//! * a **miss** is an in-subgraph author without such a link;
//! * authors *not* in the subgraph "are constant across algorithms and …
//!   reduce the overall hit ratio" — they are counted in the denominator
//!   (for publications that touch the subgraph at all) but can never hit;
//! * "each of the experiments … has been run 100 times to account for
//!   randomness".

use scdn_alloc::placement::PlacementAlgorithm;
use scdn_graph::traversal::multi_source_bfs;
use scdn_graph::{CsrGraph, NodeId};
use scdn_social::author::AuthorId;
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};

/// A hit-rate-vs-replica-count series for one placement algorithm on one
/// trust subgraph (one line of Fig. 3).
#[derive(Clone, Debug)]
pub struct HitRateCurve {
    /// The placement algorithm.
    pub algorithm: PlacementAlgorithm,
    /// Replica counts evaluated.
    pub ks: Vec<usize>,
    /// Mean hit rate (%) at each replica count.
    pub hit_rate_pct: Vec<f64>,
}

/// The case-study harness bound to a corpus.
pub struct CaseStudy<'c> {
    corpus: &'c Corpus,
    seed_author: AuthorId,
    radius: u32,
    train_years: std::ops::RangeInclusive<u16>,
    test_years: std::ops::RangeInclusive<u16>,
}

impl<'c> CaseStudy<'c> {
    /// Harness with the paper's parameters: 3-hop ego explosion, 2009–2010
    /// training, 2011 testing.
    pub fn paper_setup(corpus: &'c Corpus, seed_author: AuthorId) -> CaseStudy<'c> {
        CaseStudy {
            corpus,
            seed_author,
            radius: 3,
            train_years: 2009..=2010,
            test_years: 2011..=2011,
        }
    }

    /// Fully parameterized harness.
    pub fn new(
        corpus: &'c Corpus,
        seed_author: AuthorId,
        radius: u32,
        train_years: std::ops::RangeInclusive<u16>,
        test_years: std::ops::RangeInclusive<u16>,
    ) -> CaseStudy<'c> {
        CaseStudy {
            corpus,
            seed_author,
            radius,
            train_years,
            test_years,
        }
    }

    /// Build one trust subgraph.
    pub fn subgraph(&self, filter: TrustFilter) -> Option<TrustSubgraph> {
        build_trust_subgraph(
            self.corpus,
            self.seed_author,
            self.radius,
            self.train_years.clone(),
            filter,
        )
    }

    /// Build the paper's three subgraphs (baseline, double-coauthorship,
    /// number-of-authors).
    pub fn paper_subgraphs(&self) -> Option<[TrustSubgraph; 3]> {
        let [a, b, c] = TrustFilter::paper_set();
        Some([self.subgraph(a)?, self.subgraph(b)?, self.subgraph(c)?])
    }

    /// Hit rate (%) of a fixed replica placement on a subgraph, measured
    /// over the test-year publications: the paper's definition read
    /// literally, one multi-source BFS and one publication scan. `csr` is
    /// `sub.graph` frozen by the caller. [`sweep`](Self::sweep) computes
    /// the same numbers for whole curves.
    pub fn hit_rate(&self, sub: &TrustSubgraph, csr: &CsrGraph, replicas: &[NodeId]) -> f64 {
        let dist = multi_source_bfs(csr, replicas);
        self.score_hits(sub, &dist)
    }

    /// Score a distance field per the paper: an in-subgraph author hits if
    /// its nearest replica is at hop ≤ 1.
    fn score_hits(&self, sub: &TrustSubgraph, dist: &[Option<u32>]) -> f64 {
        let mut hits = 0u64;
        let mut denom = 0u64;
        for p in self.corpus.publications_in(self.test_years.clone()) {
            let in_sub: Vec<NodeId> = p.authors.iter().filter_map(|&a| sub.node_of(a)).collect();
            if in_sub.is_empty() {
                continue; // publication entirely outside the subgraph
            }
            // All authors count in the denominator; out-of-subgraph authors
            // are constant misses.
            denom += p.authors.len() as u64;
            hits += in_sub
                .iter()
                .filter(|v| matches!(dist[v.index()], Some(d) if d <= 1))
                .count() as u64;
        }
        percent(hits, denom)
    }

    /// Test-year author slots per subgraph node, and the hit-rate
    /// denominator: every author slot of a test-year publication that
    /// touches the subgraph. A node's slots are the hits it scores once a
    /// replica is within one hop of it.
    fn test_year_slots(&self, sub: &TrustSubgraph) -> (Vec<u64>, u64) {
        let mut slots = vec![0u64; sub.graph.node_count()];
        let mut denom = 0u64;
        for p in self.corpus.publications_in(self.test_years.clone()) {
            let mut touches = false;
            for v in p.authors.iter().filter_map(|&a| sub.node_of(a)) {
                slots[v.index()] += 1;
                touches = true;
            }
            if touches {
                denom += p.authors.len() as u64;
            }
        }
        (slots, denom)
    }

    /// Produce the full Fig. 3 panel for one subgraph: hit-rate curves for
    /// each algorithm over `ks`, averaged over `runs`. Only random
    /// placement varies across runs, so a deterministic algorithm is
    /// ranked once (the paper still averages 100 runs for all of them).
    ///
    /// Every ranking is prefix-consistent, so each (algorithm, run) is
    /// ranked once, at the largest `k`, and its prefix is walked: a replica
    /// covers itself and its neighbours (hop ≤ 1), and the hits at `k` are
    /// the test-year author slots covered by the first `k` replicas. One
    /// publication scan per sweep gives the slots and the denominator. Each
    /// entry equals, bit for bit, the mean over runs of
    /// [`hit_rate`](Self::hit_rate) of `place(csr, k, run)`.
    pub fn sweep(
        &self,
        sub: &TrustSubgraph,
        algorithms: &[PlacementAlgorithm],
        ks: &[usize],
        runs: usize,
    ) -> Vec<HitRateCurve> {
        let csr = CsrGraph::from(&sub.graph);
        let (slots, denom) = self.test_year_slots(sub);
        let max_k = ks.iter().copied().max().unwrap_or(0);
        algorithms
            .iter()
            .map(|&algorithm| {
                let ranked = if algorithm == PlacementAlgorithm::Random {
                    runs
                } else {
                    runs.min(1)
                };
                let mut hit_rate_pct = vec![0.0; ks.len()];
                for run in 0..ranked {
                    let ranking = algorithm.place(&csr, max_k, run as u64);
                    let hits = prefix_hits(&csr, &ranking, &slots);
                    for (rate, &k) in hit_rate_pct.iter_mut().zip(ks) {
                        *rate += percent(hits[k.min(ranking.len())], denom);
                    }
                }
                for rate in &mut hit_rate_pct {
                    *rate /= ranked.max(1) as f64;
                }
                HitRateCurve {
                    algorithm,
                    ks: ks.to_vec(),
                    hit_rate_pct,
                }
            })
            .collect()
    }
}

/// `hits` as a percentage of `denom` (0 for an empty denominator).
fn percent(hits: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        100.0 * hits as f64 / denom as f64
    }
}

/// Hits after each prefix of `ranking`: entry `i` sums the `slots` of the
/// nodes within one hop of the first `i` replicas.
fn prefix_hits(csr: &CsrGraph, ranking: &[NodeId], slots: &[u64]) -> Vec<u64> {
    let mut covered = vec![false; csr.node_count()];
    let mut hits = 0;
    let mut prefix = Vec::with_capacity(ranking.len() + 1);
    prefix.push(0);
    for &replica in ranking {
        for &v in std::iter::once(&replica.0).chain(csr.neighbor_ids(replica)) {
            if !std::mem::replace(&mut covered[v as usize], true) {
                hits += slots[v as usize];
            }
        }
        prefix.push(hits);
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_social::generator::{generate, CaseStudyParams};
    use scdn_social::SyntheticDblp;

    fn small_synthetic() -> SyntheticDblp {
        let mut p = CaseStudyParams::default();
        p.level2_prob = 0.6;
        p.level3_prob = 0.08;
        p.mega_pub_authors = 30;
        p.rng_seed = 7;
        generate(&p)
    }

    /// The per-cell loop [`CaseStudy::sweep`] replaced: the mean over
    /// runs of [`CaseStudy::hit_rate`] of `place(csr, k, run)`, with a
    /// deterministic algorithm evaluated once.
    fn mean_hit_rate_reference(
        cs: &CaseStudy,
        sub: &TrustSubgraph,
        csr: &CsrGraph,
        algorithm: PlacementAlgorithm,
        k: usize,
        runs: usize,
    ) -> f64 {
        if runs == 0 {
            return 0.0;
        }
        if algorithm == PlacementAlgorithm::Random {
            (0..runs)
                .map(|run| cs.hit_rate(sub, csr, &algorithm.place(csr, k, run as u64)))
                .sum::<f64>()
                / runs as f64
        } else {
            cs.hit_rate(sub, csr, &algorithm.place(csr, k, 0))
        }
    }

    /// One sweep cell: `algorithm` at `k` replicas over `runs`.
    fn cell(
        cs: &CaseStudy,
        sub: &TrustSubgraph,
        algorithm: PlacementAlgorithm,
        k: usize,
        runs: usize,
    ) -> f64 {
        cs.sweep(sub, &[algorithm], &[k], runs)[0].hit_rate_pct[0]
    }

    #[test]
    fn sweep_matches_the_per_cell_reference() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let algorithms: Vec<PlacementAlgorithm> = PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain(PlacementAlgorithm::EXTENDED_SET)
            .collect();
        for sub in cs.paper_subgraphs().expect("seed present") {
            let csr = CsrGraph::from(&sub.graph);
            let ks = [0, 1, 2, 3, 5, 10, csr.node_count() + 5];
            for runs in [0, 1, 4] {
                for curve in cs.sweep(&sub, &algorithms, &ks, runs) {
                    let want: Vec<f64> = ks
                        .iter()
                        .map(|&k| {
                            mean_hit_rate_reference(&cs, &sub, &csr, curve.algorithm, k, runs)
                        })
                        .collect();
                    assert_eq!(
                        curve.hit_rate_pct,
                        want,
                        "{}: {:?}, runs = {runs}",
                        sub.filter.name(),
                        curve.algorithm
                    );
                }
            }
        }
    }

    #[test]
    fn hit_rate_zero_without_replicas() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let sub = cs.subgraph(TrustFilter::Baseline).expect("seed present");
        assert_eq!(cs.hit_rate(&sub, &CsrGraph::from(&sub.graph), &[]), 0.0);
    }

    #[test]
    fn hit_rate_monotone_in_replicas_for_degree() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let sub = cs.subgraph(TrustFilter::Baseline).expect("seed present");
        let mut prev = 0.0;
        for k in [1, 3, 5, 10] {
            let r = cell(&cs, &sub, PlacementAlgorithm::NodeDegree, k, 1);
            assert!(r >= prev - 1e-9, "k={k}: {r} < {prev}");
            prev = r;
        }
        assert!(prev > 0.0, "some hits expected");
    }

    #[test]
    fn hit_rate_bounded_0_100() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        for sub in cs.paper_subgraphs().expect("seed present") {
            for alg in PlacementAlgorithm::PAPER_SET {
                let r = cell(&cs, &sub, alg, 5, 3);
                assert!((0.0..=100.0).contains(&r), "{alg:?}: {r}");
            }
        }
    }

    #[test]
    fn all_nodes_as_replicas_maximizes() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let sub = cs.subgraph(TrustFilter::Baseline).expect("seed present");
        let csr = CsrGraph::from(&sub.graph);
        let all: Vec<NodeId> = csr.nodes().collect();
        let full = cs.hit_rate(&sub, &csr, &all);
        let partial = cell(&cs, &sub, PlacementAlgorithm::NodeDegree, 5, 1);
        assert!(full >= partial);
        assert!(
            full > 50.0,
            "full coverage should hit most in-subgraph authors, got {full}"
        );
    }

    #[test]
    fn sweep_shapes() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let sub = cs.subgraph(TrustFilter::MaxAuthorsPerPub(6)).expect("seed");
        let curves = cs.sweep(&sub, &PlacementAlgorithm::PAPER_SET, &[1, 2, 3], 2);
        assert_eq!(curves.len(), 4);
        for c in &curves {
            assert_eq!(c.ks, vec![1, 2, 3]);
            assert_eq!(c.hit_rate_pct.len(), 3);
        }
    }

    #[test]
    fn random_runs_average_differs_from_single() {
        let g = small_synthetic();
        let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
        let sub = cs.subgraph(TrustFilter::Baseline).expect("seed");
        let avg = cell(&cs, &sub, PlacementAlgorithm::Random, 5, 50);
        assert!(avg > 0.0 && avg < 50.0, "avg = {avg}");
    }
}
