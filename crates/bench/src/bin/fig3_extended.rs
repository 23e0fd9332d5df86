//! Ablation (Ext-A in DESIGN.md): the Fig. 3 sweep extended with the
//! placement algorithms the paper discusses but does not evaluate —
//! betweenness centrality, the DOSN-style social score, and PageRank —
//! alongside the original four.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin fig3_extended
//! ```

use scdn_alloc::placement::PlacementAlgorithm;
use scdn_bench::{paper_corpus, REPLICA_COUNTS};
use scdn_core::casestudy::CaseStudy;

fn main() {
    let g = paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let subs = cs.paper_subgraphs().expect("seed author present");
    let panels = [
        "(a) Baseline",
        "(b) Double Coauthorship",
        "(c) Number of Authors",
    ];
    // Fewer runs than fig3: the extended algorithms are deterministic, and
    // betweenness on the baseline graph costs a full Brandes pass.
    let runs = 20;
    let algorithms: Vec<PlacementAlgorithm> = PlacementAlgorithm::PAPER_SET
        .into_iter()
        .chain(PlacementAlgorithm::EXTENDED_SET)
        .collect();
    for (sub, panel) in subs.iter().zip(panels) {
        println!("Extended Fig. 3{panel}: hit rate (%) vs replicas");
        print!("{:<24}", "algorithm\\replicas");
        for k in REPLICA_COUNTS {
            print!(" {k:>6}");
        }
        println!();
        for curve in cs.sweep(sub, &algorithms, &REPLICA_COUNTS, runs) {
            println!(
                "{}",
                scdn_bench::row(curve.algorithm.name(), &curve.hit_rate_pct)
            );
        }
        println!();
    }
}
