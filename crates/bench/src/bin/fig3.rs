//! Regenerates **Fig. 3** of the paper: replica hit rate (%) versus number
//! of replicas (1–10) for the four placement algorithms on each of the
//! three trust subgraphs, averaged over 100 runs.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin fig3
//! ```
//!
//! Prints one panel per subgraph (Fig. 3a / 3b / 3c) as a CSV-like table:
//! rows = algorithms, columns = replica counts.

use scdn_alloc::placement::PlacementAlgorithm;
use scdn_bench::{paper_corpus, REPLICA_COUNTS, RUNS};
use scdn_core::casestudy::CaseStudy;
use scdn_graph::CsrGraph;

fn main() {
    let g = paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let subs = cs.paper_subgraphs().expect("seed author present");
    let panels = [
        "(a) Baseline Graph",
        "(b) Double Coauthorship",
        "(c) Number of Authors",
    ];
    for (sub, panel) in subs.iter().zip(panels) {
        let csr = CsrGraph::from(&sub.graph);
        println!("Fig. 3{panel}: replica hit rate (%) vs number of replicas");
        print!("{:<24}", "algorithm\\replicas");
        for k in REPLICA_COUNTS {
            print!(" {k:>6}");
        }
        println!();
        for alg in PlacementAlgorithm::PAPER_SET {
            let curve: Vec<f64> = REPLICA_COUNTS
                .iter()
                .map(|&k| cs.mean_hit_rate(sub, &csr, alg, k, RUNS))
                .collect();
            println!("{}", scdn_bench::row(alg.name(), &curve));
        }
        println!();
    }
    println!("(mean of {RUNS} runs; deterministic algorithms are constant across runs)");
}
