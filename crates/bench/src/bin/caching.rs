//! Opportunistic-caching ablation: hit rate over time with and without
//! promoting downloaded copies into the requester's replica partition
//! (Section V-A: "they may … also be copied to the replica partition if so
//! instructed by an allocation server").
//!
//! ```text
//! cargo run -p scdn-bench --release --bin caching
//! ```

use bytes::Bytes;
use scdn_bench::paper_corpus;
use scdn_core::ops::Op;
use scdn_core::system::{Scdn, ScdnConfig};
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
        TrustFilter::MaxAuthorsPerPub(6),
    )
    .expect("seed author present");
    println!(
        "opportunistic caching on the number-of-authors graph ({} nodes)",
        sub.graph.node_count()
    );
    println!();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "mode", "first 500", "second 500", "third 500", "final replicas"
    );
    for (label, caching) in [("static", false), ("caching", true)] {
        let mut config = ScdnConfig::default();
        config.opportunistic_caching = caching;
        config.replicas_per_dataset = 2;
        config.repo_capacity = 256 << 20;
        let mut scdn = Scdn::build(&sub, &g.corpus, config);
        let mut datasets: Vec<DatasetId> = Vec::new();
        for i in 0..10u32 {
            let content = Bytes::from(vec![i as u8; 64 << 10]);
            let publish = Op::publish(NodeId(i), &format!("ds{i}"), content);
            let id = scdn.apply(&publish).published().expect("publishes");
            scdn.apply(&Op::Replicate(id));
            datasets.push(id);
        }
        let workload = generate_requests(&WorkloadConfig {
            seed: 3,
            users: scdn.member_count(),
            datasets: datasets.len(),
            count: 1_500,
            ..Default::default()
        });
        let ops: Vec<Op> = workload
            .iter()
            .map(|r| Op::Request(NodeId(r.user as u32), datasets[r.dataset % datasets.len()]))
            .collect();
        let mut window_rates = Vec::new();
        for window in ops.chunks(500) {
            let hits_before = scdn.cdn_metrics.hits;
            let total_before = scdn.cdn_metrics.hits + scdn.cdn_metrics.misses;
            for op in window {
                scdn.apply(op);
            }
            let hits = scdn.cdn_metrics.hits - hits_before;
            let total = (scdn.cdn_metrics.hits + scdn.cdn_metrics.misses) - total_before;
            window_rates.push(100.0 * hits as f64 / total.max(1) as f64);
        }
        let replicas: usize = datasets
            .iter()
            .map(|&d| scdn.replicas_of(d).map(|r| r.len()).unwrap_or(0))
            .sum();
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>11.1}% {:>12}",
            label, window_rates[0], window_rates[1], window_rates[2], replicas
        );
    }
    println!();
    println!("caching mode: every remote fetch seeds a new replica, so the hit");
    println!("rate climbs window over window while the static mode stays flat.");
}
