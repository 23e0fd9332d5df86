//! Quickstart: stand up a Social CDN over a synthetic research community,
//! publish a dataset, replicate it socially, and fetch it from another
//! member.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use scdn::core::ops::Op;
use scdn::core::system::{Scdn, ScdnConfig};
use scdn::graph::NodeId;
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter};
use scdn::storage::Sensitivity;

fn main() {
    // 1. A research community: authors, institutions, publications.
    let mut params = CaseStudyParams::default();
    params.level3_prob = 0.05; // keep the quickstart community small
    let community = generate(&params);
    println!(
        "community: {} researchers, {} publications",
        community.corpus.author_count(),
        community.corpus.publication_count()
    );

    // 2. The trust fabric: the seed author's 3-hop coauthorship network,
    //    pruned to repeat collaborators (the paper's double-coauthorship
    //    heuristic).
    let sub = build_trust_subgraph(
        &community.corpus,
        community.seed_author,
        3,
        2009..=2010,
        TrustFilter::MinJointPubs(2),
    )
    .expect("seed author publishes in the training years");
    println!(
        "trust subgraph: {} members, {} coauthorship edges",
        sub.graph.node_count(),
        sub.graph.edge_count()
    );

    // 3. The S-CDN: every member contributes a storage repository.
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    println!("S-CDN up: {} contributed repositories", scdn.member_count());

    // 4. Publish a dataset from the seed's repository. Every change to
    //    the S-CDN is an `Op` folded through `Scdn::apply`.
    let seed_node = sub
        .node_of(community.seed_author)
        .expect("seed in subgraph");
    let dataset = scdn
        .apply(&Op::Publish {
            node: seed_node,
            name: "DTI-FA-study-001".to_string(),
            content: bytes::Bytes::from(vec![42u8; 2 << 20]),
            sensitivity: Sensitivity::Public,
            policy: None,
        })
        .published()
        .expect("publish succeeds");
    println!("published {dataset:?} from node {seed_node:?}");

    // 5. Replicate it across the community (community-node-degree
    //    placement by default).
    let hosts = scdn
        .apply(&Op::Replicate(dataset))
        .replicated()
        .expect("replication succeeds");
    println!("replicated to {} hosts: {hosts:?}", hosts.len());

    // 6. Another member requests the dataset.
    let requester = NodeId((scdn.member_count() as u32).saturating_sub(1));
    let outcome = scdn
        .apply(&Op::Request(requester, dataset))
        .requested()
        .expect("request succeeds");
    println!(
        "request from {requester:?}: served by {:?} ({}; {:.1} ms, {} bytes)",
        outcome.served_by,
        if outcome.social_hit {
            "within 1 social hop — a hit"
        } else {
            "outside the social neighborhood — a miss"
        },
        outcome.response_ms,
        outcome.bytes
    );
    println!(
        "CDN metrics: {} hits / {} misses / {} failures",
        scdn.cdn_metrics.hits, scdn.cdn_metrics.misses, scdn.cdn_metrics.failures
    );
}
