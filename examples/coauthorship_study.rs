//! The Section VI case study in miniature: build the three trust subgraphs
//! from a synthetic DBLP-style corpus, place replicas with the four
//! algorithms, and measure 2011 hit rates (a fast version of the `fig3`
//! experiment binary).
//!
//! ```text
//! cargo run --release --example coauthorship_study
//! ```

use scdn::alloc::placement::PlacementAlgorithm;
use scdn::core::casestudy::CaseStudy;
use scdn::graph::CsrGraph;
use scdn::social::generator::{generate, CaseStudyParams};

fn main() {
    let community = generate(&CaseStudyParams::default());
    let cs = CaseStudy::paper_setup(&community.corpus, community.seed_author);
    let subs = cs.paper_subgraphs().expect("seed author present");

    println!("Table I (synthetic corpus):");
    for s in &subs {
        let st = s.stats();
        println!(
            "  {:<28} {:>5} nodes {:>5} pubs {:>6} edges",
            s.filter.name(),
            st.nodes,
            st.publications,
            st.edges
        );
    }
    println!();

    let ks = [1usize, 2, 4, 6, 8, 10];
    let runs = 25;
    for s in &subs {
        println!("hit rate (%) on {} :", s.filter.name());
        print!("  {:<24}", "k =");
        for k in ks {
            print!(" {k:>6}");
        }
        println!();
        let csr = CsrGraph::from(&s.graph);
        for alg in PlacementAlgorithm::PAPER_SET {
            print!("  {:<24}", alg.name());
            for k in ks {
                print!(" {:>6.2}", cs.mean_hit_rate(s, &csr, alg, k, runs));
            }
            println!();
        }
        println!();
    }
    println!("Expected shape (the paper's findings):");
    println!("  * hit rate grows with replicas and with trust pruning;");
    println!("  * Community Node Degree ends highest; Node Degree goes flat on");
    println!("    the baseline graph once it starts picking the 86-author");
    println!("    mega-publication clique; Clustering Coefficient is worst.");
}
