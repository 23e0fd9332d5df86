//! Social-boundary ablation: what does "data stays within the bounds of a
//! particular project" (Section V) cost?
//!
//! Runs the same request workload over the fragmented double-coauthorship
//! trust graph twice — once serving any online replica, once refusing to
//! serve from a host the requester cannot reach in the social graph — and
//! compares service and confinement.
//!
//! Exits non-zero unless the boundary holds: the boundary mode serves no
//! cross-island request, and refuses exactly the requests the open mode
//! served across islands.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin boundary
//! ```

use bytes::Bytes;
use scdn_bench::paper_corpus;
use scdn_core::ops::{Op, OpOutcome};
use scdn_core::system::{Scdn, ScdnConfig};
use scdn_graph::components::connected_components;
use scdn_graph::NodeId;
use scdn_sim::workload::{generate_requests, WorkloadConfig};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter};
use scdn_storage::object::DatasetId;

fn main() {
    let g = paper_corpus();
    let sub = build_trust_subgraph(
        &g.corpus,
        g.seed_author,
        3,
        2009..=2010,
        TrustFilter::MinJointPubs(2),
    )
    .expect("seed author present");
    let comps = connected_components(&sub.graph);
    println!(
        "double-coauthorship graph: {} nodes, {} components",
        sub.graph.node_count(),
        comps.count
    );
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>12} {:>16}",
        "mode", "served", "refused", "hit-rate", "cross-island"
    );
    // (refused, cross-island) per mode, open first.
    let mut tallies = Vec::new();
    for (label, enforce) in [("open", false), ("social-boundary", true)] {
        let mut config = ScdnConfig::default();
        config.enforce_social_boundary = enforce;
        let mut scdn = Scdn::build(&sub, &g.corpus, config);
        // One dataset per large component leader + a few from the giant
        // component.
        let mut datasets: Vec<DatasetId> = Vec::new();
        let mut by_degree: Vec<NodeId> = scdn.social.nodes().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(scdn.social.degree(v)));
        for (i, &publisher) in by_degree.iter().take(12).enumerate() {
            let content = Bytes::from(vec![i as u8; 32 << 10]);
            let publish = Op::publish(publisher, &format!("ds-{i}"), content);
            let id = scdn.apply(&publish).published().expect("publishes");
            scdn.apply(&Op::Replicate(id));
            datasets.push(id);
        }
        let workload = generate_requests(&WorkloadConfig {
            seed: 99,
            users: scdn.member_count(),
            datasets: datasets.len(),
            count: 1_500,
            ..Default::default()
        });
        let ops: Vec<Op> = workload
            .iter()
            .map(|r| Op::Request(NodeId(r.user as u32), datasets[r.dataset % datasets.len()]))
            .collect();
        let mut served = 0u64;
        let mut refused = 0u64;
        let mut cross_island = 0u64;
        for op in &ops {
            match (op, scdn.apply(op)) {
                (Op::Request(node, _), OpOutcome::Requested(Ok(o))) => {
                    served += 1;
                    if !comps.same_component(o.served_by, *node) {
                        cross_island += 1;
                    }
                }
                _ => refused += 1,
            }
        }
        println!(
            "{:<22} {:>9} {:>9} {:>11.1}% {:>16}",
            label,
            served,
            refused,
            scdn.cdn_metrics.hit_rate(),
            cross_island
        );
        tallies.push((refused, cross_island));
    }
    println!();
    println!("cross-island = requests served by a replica outside the requester's");
    println!("trust island; the boundary mode must drive this to zero, trading");
    println!("confinement for refused requests.");
    let [(_, open_cross), (boundary_refused, boundary_cross)] = tallies[..] else {
        unreachable!("two modes");
    };
    if boundary_cross != 0 || boundary_refused != open_cross {
        eprintln!(
            "boundary broken: {boundary_cross} cross-island requests served, \
             {boundary_refused} refused against {open_cross} open cross-island"
        );
        std::process::exit(1);
    }
}
