//! Ext-C in DESIGN.md: data-partitioning ablation.
//!
//! Compares the classical usage-oblivious hash partitioner against the
//! socially-informed partitioner of Section V-D ("group similar users based
//! on their social connections … and data access patterns") by the mean
//! social-hop distance between each access and the replica holding the
//! accessed segment.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin partitioning
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scdn_alloc::partitioning::{hash_partition, locality_cost, social_partition, AccessLog};
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_bench::paper_corpus;
use scdn_core::casestudy::CaseStudy;
use scdn_graph::community::label_propagation;
use scdn_graph::{CsrGraph, NodeId};
use scdn_social::interests::interest_partition;
use scdn_social::trustgraph::TrustFilter;

fn main() {
    let g = paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let sub = cs
        .subgraph(TrustFilter::MaxAuthorsPerPub(6))
        .expect("seed author present");
    let communities = label_propagation(&sub.graph, 11, 50);
    let graph = &CsrGraph::from(&sub.graph);
    let (by_interest, topics) = interest_partition(&g.corpus, &sub.authors);
    println!(
        "number-of-authors graph: {} nodes, {} graph communities, {} interest groups ({} topics)",
        graph.node_count(),
        communities.count,
        by_interest.count,
        topics.len()
    );
    println!();
    println!(
        "{:>9} {:>9} {:>14} {:>14} {:>14} {:>9}",
        "replicas", "segments", "hash (hops)", "social (hops)", "interest (hops)", "gain"
    );
    let mut rng = StdRng::seed_from_u64(99);
    for &(replicas, segments) in &[(3usize, 12u32), (5, 20), (8, 32), (10, 48)] {
        let placement = PlacementAlgorithm::CommunityNodeDegree.place(graph, replicas, 0);
        // Community-aligned access pattern: each segment is read mostly by
        // one community (plus 15% background noise).
        let mut log = AccessLog::new();
        for seg in 0..segments {
            let home = (seg as usize * 7 + 3) % communities.count.max(1);
            let members = communities.members(home as u32);
            for _ in 0..200 {
                let user = if rng.gen_bool(0.85) && !members.is_empty() {
                    members[rng.gen_range(0..members.len())]
                } else {
                    NodeId(rng.gen_range(0..graph.node_count() as u32))
                };
                log.record(user, seg);
            }
        }
        let hash = hash_partition(segments, placement.len());
        let social = social_partition(graph, &communities, &placement, segments, &log);
        let interest = social_partition(graph, &by_interest, &placement, segments, &log);
        let ch = locality_cost(graph, &placement, &hash, &log, 12);
        let c_social = locality_cost(graph, &placement, &social, &log, 12);
        let c_interest = locality_cost(graph, &placement, &interest, &log, 12);
        println!(
            "{:>9} {:>9} {:>14.3} {:>14.3} {:>14.3} {:>8.1}%",
            replicas,
            segments,
            ch,
            c_social,
            c_interest,
            100.0 * (ch - c_social) / ch
        );
    }
    println!();
    println!("gain = reduction in mean access-to-replica hop distance from");
    println!("social (community-aware) segment assignment over hash assignment.");
}
