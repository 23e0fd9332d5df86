//! Regenerates **Fig. 2** of the paper: the topology of the three trust
//! subgraphs.
//!
//! Prints the structural statistics the figure conveys (node/edge counts,
//! maximum span, isolated islands, the highlighted seed's degree) and
//! writes Graphviz DOT files (`fig2_<name>.dot`) with the seed node and its
//! first-degree edges highlighted in red, matching the paper's rendering.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin fig2
//! ```

use scdn_bench::paper_corpus;
use scdn_graph::components::island_stats;
use scdn_graph::metrics::{global_clustering_coefficient, mean_degree};
use scdn_graph::traversal::max_span;
use scdn_graph::{CsrGraph, Graph, NodeId};
use scdn_social::trustgraph::build_paper_subgraphs;
use std::fmt::Write as _;

fn main() {
    let g = paper_corpus();
    let subs = build_paper_subgraphs(&g.corpus, g.seed_author, 3, 2009..=2010)
        .expect("seed author present");
    let names = ["baseline", "double_coauthorship", "number_of_authors"];
    println!("Fig. 2: subgraph topologies (statistics + DOT export)");
    println!();
    println!(
        "{:<28} {:>6} {:>7} {:>5} {:>8} {:>9} {:>10} {:>10}",
        "graph", "nodes", "edges", "span", "islands", "seed-deg", "mean-deg", "transitiv."
    );
    for (s, name) in subs.iter().zip(names) {
        let seed_node = s
            .node_of(g.seed_author)
            .expect("seed survives every pruning in the calibrated corpus");
        let isl = island_stats(&s.graph);
        let frozen = CsrGraph::from(&s.graph);
        println!(
            "{:<28} {:>6} {:>7} {:>5} {:>8} {:>9} {:>10.2} {:>10.3}",
            s.filter.name(),
            s.graph.node_count(),
            s.graph.edge_count(),
            max_span(&frozen),
            isl.islands,
            s.graph.degree(seed_node),
            mean_degree(&s.graph),
            global_clustering_coefficient(&frozen),
        );
        let dot = to_dot(&s.graph, name, seed_node);
        std::fs::create_dir_all("results").expect("create results dir");
        let path = format!("results/fig2_{name}.dot");
        std::fs::write(&path, dot).expect("write DOT file");
        println!("  -> wrote {path}");
    }
    println!();
    println!("Paper observations to verify:");
    println!("  * the maximum span stays ~6 hops in every subgraph;");
    println!("  * the double-coauthorship graph fragments into isolated islands;");
    println!("  * the other two remain a single connected supercluster.");
}

/// Render `g` as an undirected Graphviz DOT document named `name`, with
/// `seed` filled red and its incident edges drawn red, as in the paper's
/// figure.
fn to_dot(g: &Graph, name: &str, seed: NodeId) -> String {
    let mut out = String::with_capacity(64 + g.node_count() * 16 + g.edge_count() * 16);
    writeln!(out, "graph {name} {{").expect("write to string");
    writeln!(out, "  node [shape=point, width=0.08];").expect("write to string");
    for v in g.nodes() {
        let style = if v == seed {
            " [color=red, style=filled, fillcolor=red, width=0.2]"
        } else {
            ""
        };
        writeln!(out, "  {}{style};", v.0).expect("write to string");
    }
    for (a, b, _) in g.edges() {
        let style = if a == seed || b == seed {
            " [color=red, penwidth=2]"
        } else {
            ""
        };
        writeln!(out, "  {} -- {}{style};", a.0, b.0).expect("write to string");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_structure() {
        let g = Graph::from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)]);
        let dot = to_dot(&g, "scdn", NodeId(0));
        assert!(dot.starts_with("graph scdn {"));
        assert!(dot.contains("  1 -- 2;\n"));
        assert!(dot.contains("  2 -- 3;\n"));
        assert!(dot.contains("  3;\n"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn highlight_seed_and_edges() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let dot = to_dot(&g, "scdn", NodeId(1));
        assert!(dot.contains("  1 [color=red"));
        assert!(dot.contains("  0 -- 1 [color=red"));
        assert!(dot.contains("  1 -- 2 [color=red"));
        assert!(dot.contains("  2 -- 3;\n"));
        assert!(dot.contains("  0;\n"));
    }
}
