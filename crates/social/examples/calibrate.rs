//! Calibration scratchpad: prints Table I-style statistics for the default
//! generator parameters so they can be tuned against the paper's numbers
//! (baseline 2335/1163/17973, double 811/881/5123, few-authors 604/435/1988).

use scdn_graph::components::island_stats;
use scdn_graph::traversal::max_span;
use scdn_graph::CsrGraph;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::build_paper_subgraphs;

fn main() {
    let params = CaseStudyParams::default();
    let g = generate(&params);
    println!(
        "corpus: {} authors, {} pubs ({} train, {} test)",
        g.corpus.author_count(),
        g.corpus.publication_count(),
        g.corpus.publications_in(2009..=2010).count(),
        g.corpus.publications_in(2011..=2011).count()
    );
    let subs =
        build_paper_subgraphs(&g.corpus, g.seed_author, 3, 2009..=2010).expect("seed present");
    println!(
        "{:<28} {:>6} {:>6} {:>7} {:>5} {:>8}",
        "graph", "nodes", "pubs", "edges", "span", "islands"
    );
    for s in &subs {
        let st = s.stats();
        let isl = island_stats(&s.graph);
        println!(
            "{:<28} {:>6} {:>6} {:>7} {:>5} {:>8}",
            s.filter.name(),
            st.nodes,
            st.publications,
            st.edges,
            max_span(&CsrGraph::from(&s.graph)),
            isl.islands
        );
    }
    // Degree structure in the baseline graph.
    let base = &subs[0];
    let mut degs: Vec<(usize, u32)> = base
        .graph
        .nodes()
        .map(|v| (base.graph.degree(v), v.0))
        .collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    print!("top-15 degrees: ");
    for (d, _) in degs.iter().take(15) {
        print!("{d} ");
    }
    println!();
    let seed_node = base.node_of(g.seed_author).expect("seed in baseline");
    println!("seed degree: {}", base.graph.degree(seed_node));
    let mega_in: usize = g.mega_authors.iter().filter(|&&a| base.contains(a)).count();
    println!(
        "mega authors in baseline: {mega_in}/{}",
        g.mega_authors.len()
    );
}
