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
use scdn_graph::parallel::par_map_collect;
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
    /// over the test-year publications. `csr` is `sub.graph` frozen — once
    /// per subgraph by the caller, not once per (algorithm, k, run).
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
        if denom == 0 {
            0.0
        } else {
            100.0 * hits as f64 / denom as f64
        }
    }

    /// Mean hit rate (%) of `algorithm` with `k` replicas over `runs`
    /// repetitions (only random placement varies across runs; the paper
    /// still averages 100 runs for all algorithms). `csr` is `sub.graph`
    /// frozen by the caller.
    pub fn mean_hit_rate(
        &self,
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
            // Each run uses a distinct seed; runs execute in parallel.
            let rates = par_map_collect(runs, 4, |run| {
                let replicas = algorithm.place(csr, k, run as u64);
                self.hit_rate(sub, csr, &replicas)
            });
            rates.iter().sum::<f64>() / runs as f64
        } else {
            // Deterministic algorithms produce the same placement per run.
            let replicas = algorithm.place(csr, k, 0);
            self.hit_rate(sub, csr, &replicas)
        }
    }

    /// Produce the full Fig. 3 panel for one subgraph: hit-rate curves for
    /// each algorithm over `ks`, averaged over `runs`. The subgraph is
    /// frozen to CSR exactly once for the whole sweep, and the
    /// (algorithm, k) cells evaluate in parallel — each cell is an
    /// independent placement + scoring job over the shared frozen graph.
    pub fn sweep(
        &self,
        sub: &TrustSubgraph,
        algorithms: &[PlacementAlgorithm],
        ks: &[usize],
        runs: usize,
    ) -> Vec<HitRateCurve> {
        let csr = CsrGraph::from(&sub.graph);
        if ks.is_empty() {
            return algorithms
                .iter()
                .map(|&algorithm| HitRateCurve {
                    algorithm,
                    ks: Vec::new(),
                    hit_rate_pct: Vec::new(),
                })
                .collect();
        }
        let cells = par_map_collect(algorithms.len() * ks.len(), 1, |i| {
            let algorithm = algorithms[i / ks.len()];
            let k = ks[i % ks.len()];
            // Random averages its runs serially inside the cell: the cells
            // themselves already saturate the worker pool.
            if algorithm == PlacementAlgorithm::Random {
                (0..runs)
                    .map(|run| {
                        let replicas = algorithm.place(&csr, k, run as u64);
                        self.hit_rate(sub, &csr, &replicas)
                    })
                    .sum::<f64>()
                    / (runs.max(1) as f64)
            } else {
                self.mean_hit_rate(sub, &csr, algorithm, k, runs)
            }
        });
        algorithms
            .iter()
            .enumerate()
            .map(|(a, &algorithm)| HitRateCurve {
                algorithm,
                ks: ks.to_vec(),
                hit_rate_pct: cells[a * ks.len()..(a + 1) * ks.len()].to_vec(),
            })
            .collect()
    }
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
        let csr = CsrGraph::from(&sub.graph);
        let mut prev = 0.0;
        for k in [1, 3, 5, 10] {
            let r = cs.mean_hit_rate(&sub, &csr, PlacementAlgorithm::NodeDegree, k, 1);
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
            let csr = CsrGraph::from(&sub.graph);
            for alg in PlacementAlgorithm::PAPER_SET {
                let r = cs.mean_hit_rate(&sub, &csr, alg, 5, 3);
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
        let partial = cs.mean_hit_rate(&sub, &csr, PlacementAlgorithm::NodeDegree, 5, 1);
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
        let csr = CsrGraph::from(&sub.graph);
        let avg = cs.mean_hit_rate(&sub, &csr, PlacementAlgorithm::Random, 5, 50);
        assert!(avg > 0.0 && avg < 50.0, "avg = {avg}");
    }
}
