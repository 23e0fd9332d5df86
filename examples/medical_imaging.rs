//! The Section IV use case: a multi-center MRI trial.
//!
//! A lead institution assembles a trial group on the social platform,
//! researchers publish raw sessions and derived DTI/FA datasets with
//! *restricted* and *confidential* sensitivity levels, and the middleware
//! enforces group membership, explicit grants, and trust gates — showing
//! both granted and denied accesses.
//!
//! ```text
//! cargo run --release --example medical_imaging
//! ```

use scdn::core::ops::Op;
use scdn::core::system::{Scdn, ScdnConfig, ScdnError};
use scdn::middleware::authz::AccessPolicy;
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter};
use scdn::storage::Sensitivity;
use scdn::trust::threshold::TrustPolicy;

fn main() {
    let mut params = CaseStudyParams::default();
    params.level3_prob = 0.05;
    let community = generate(&params);
    let sub = build_trust_subgraph(
        &community.corpus,
        community.seed_author,
        3,
        2009..=2010,
        TrustFilter::MinJointPubs(2),
    )
    .expect("seed present");
    let mut scdn = Scdn::build(
        &sub,
        &community.corpus,
        ScdnConfig {
            replicas_per_dataset: 4,
            ..Default::default()
        },
    );
    println!("multi-center trial fabric: {} members", scdn.member_count());

    // The lead PI (the seed) creates the trial group and enrolls their
    // direct collaborators — member institutions of the trial.
    let platform = scdn.platform().clone();
    let seed_node = sub
        .node_of(community.seed_author)
        .expect("seed in subgraph");
    let pi_user = platform
        .user_of_author(community.seed_author)
        .expect("registered");
    let group = platform
        .create_group(pi_user, "DTI multi-center trial")
        .expect("group created");
    let collaborators: Vec<_> = sub.graph.neighbors(seed_node).to_vec();
    for e in &collaborators {
        let author = sub.author_of(e.to);
        let user = platform.user_of_author(author).expect("registered");
        platform
            .add_to_group(pi_user, group, user)
            .expect("PI enrolls");
    }
    println!(
        "trial group enrolled: {} member institutions",
        collaborators.len() + 1
    );

    // Raw session (restricted to the trial group, trust-gated) and the
    // derived FA map (about 14x the raw size in the paper's DTI example,
    // scaled down here).
    let raw_policy = AccessPolicy {
        sensitivity: Sensitivity::Restricted,
        owner: community.seed_author,
        group: Some(group),
        grants: vec![],
        trust: Some(TrustPolicy::default()),
    };
    let raw = scdn
        .apply(&Op::Publish {
            node: seed_node,
            name: "raw-session-017".to_string(),
            content: bytes::Bytes::from(vec![1u8; 100 << 10]),
            sensitivity: Sensitivity::Restricted,
            policy: Some(raw_policy),
        })
        .published()
        .expect("published");
    let fa = scdn
        .apply(&Op::Publish {
            node: seed_node,
            name: "fa-map-017".to_string(),
            content: bytes::Bytes::from(vec![2u8; 1400 << 10]),
            sensitivity: Sensitivity::Public,
            policy: None,
        })
        .published()
        .expect("published");
    for dataset in [raw, fa] {
        scdn.apply(&Op::Replicate(dataset))
            .replicated()
            .expect("replicated");
    }
    println!("published raw session {raw:?} (restricted + trust gate) and FA map {fa:?} (public)");

    // A trial collaborator fetches the raw session: granted.
    let collaborator = collaborators[0].to;
    match scdn.apply(&Op::Request(collaborator, raw)).requested() {
        Ok(outcome) => println!(
            "collaborator {collaborator:?}: GRANTED raw session ({} bytes from {:?})",
            outcome.bytes, outcome.served_by
        ),
        Err(e) => println!("collaborator {collaborator:?}: unexpected denial: {e}"),
    }

    // A researcher outside the trial group: denied (not a group member).
    let outsider = sub
        .graph
        .nodes()
        .find(|&v| v != seed_node && !collaborators.iter().any(|e| e.to == v))
        .expect("someone outside the trial");
    match scdn.apply(&Op::Request(outsider, raw)).requested() {
        Err(ScdnError::Access(decision)) => {
            println!("outsider {outsider:?}: DENIED raw session ({decision:?})")
        }
        other => println!("outsider {outsider:?}: unexpected: {:?}", other.is_ok()),
    }

    // The same outsider may still fetch the public derived FA map.
    match scdn.apply(&Op::Request(outsider, fa)).requested() {
        Ok(outcome) => println!(
            "outsider {outsider:?}: GRANTED public FA map ({} bytes, {:.1} ms)",
            outcome.bytes, outcome.response_ms
        ),
        Err(e) => println!("outsider {outsider:?}: unexpected denial: {e}"),
    }

    println!(
        "exchange ledger: {} successful transfers, {:.1} MB moved",
        scdn.social_metrics.exchanges_ok,
        scdn.cdn_metrics.bytes_transferred as f64 / 1e6
    );
}
