//! Building one workload's system through the public `Scdn` API.
//!
//! The stage is fixed, what arrives at it is seeded. The membership
//! graph and the runtime's own seed (`ScdnConfig::seed`: placement
//! tie-breaks, churn phases, coding matrix) derive from [`WORLD_SEED`];
//! dataset owners, published bytes, requesters and every request and
//! churn stream derive from `--seed`. Three replicas of everything sit
//! on the same two top-ranked members, so a seeded graph moves every
//! simulated metric by tens of percent between seeds (which site the
//! hubs happen to occupy) — more than any bound could resolve. Members
//! sit round-robin on a dozen research sites (the topology the repo's
//! other reporters use), so simulated latencies are non-trivial.

use std::time::Instant;

use bytes::Bytes;
use scdn_core::system::{Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::NodeId;
use scdn_net::topology::{LinkQuality, Topology};
use scdn_social::author::{Author, AuthorId, Institution, InstitutionId, Region};
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{TrustFilter, TrustSubgraph};
use scdn_storage::object::{DatasetId, Sensitivity};

/// A dozen research sites spread over the paper's "different regions of
/// the world".
pub const SITES: [(&str, Region, f64, f64); 12] = [
    ("Ann Arbor", Region::NorthAmerica, 42.28, -83.74),
    ("Chicago", Region::NorthAmerica, 41.88, -87.63),
    ("San Diego", Region::NorthAmerica, 32.72, -117.16),
    ("Vancouver", Region::NorthAmerica, 49.26, -123.11),
    ("Sao Paulo", Region::SouthAmerica, -23.55, -46.63),
    ("Amsterdam", Region::Europe, 52.37, 4.90),
    ("Geneva", Region::Europe, 46.20, 6.14),
    ("Warsaw", Region::Europe, 52.23, 21.01),
    ("Tokyo", Region::Asia, 35.68, 139.69),
    ("Singapore", Region::Asia, 1.35, 103.82),
    ("Cape Town", Region::Africa, -33.92, 18.42),
    ("Melbourne", Region::Oceania, -37.81, 144.96),
];

/// Barabási–Albert attachment count (as in `bench_throughput`).
const BA_M: usize = 3;

/// Seed of the fixed stage: the membership graph and `ScdnConfig::seed`.
pub const WORLD_SEED: u64 = 0x5cd1_2012;

/// SplitMix64 step: the harness's own stream splitter, so each input
/// (graph, runtime seed, payload bytes, request stream, churn stream)
/// gets an independent seed derived from the one `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `len` pseudo-random bytes from `seed` (incompressible payloads, so a
/// checksum or coder cannot shortcut on constant input).
pub fn payload(seed: u64, len: usize) -> Bytes {
    let mut state = seed;
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        buf.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    buf.truncate(len);
    Bytes::from(buf)
}

/// Wall time of each set-up phase (traced runs report them per layer).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    pub graph_generate_s: f64,
    pub corpus_build_ms: f64,
    pub subgraph_build_ms: f64,
    pub core_build_s: f64,
    pub publish_replicate_ms_per_dataset: f64,
}

/// A built system plus what the harness must remember about it.
pub struct World {
    pub scdn: Scdn,
    /// Published datasets, in publication order.
    pub datasets: Vec<DatasetId>,
    /// The bytes published under each dataset (the correctness oracle).
    pub contents: Vec<Bytes>,
    /// Owner of each dataset.
    pub owners: Vec<NodeId>,
    pub phases: SetupPhases,
}

/// Node → site, the same rule the corpus below encodes.
pub fn site_of(node: usize) -> usize {
    node % SITES.len()
}

/// The topology `Scdn::build` derives from the corpus, rebuilt for the
/// layer probes (the runtime's own transfer engine is private).
pub fn topology(nodes: usize) -> Topology {
    let positions = (0..nodes)
        .map(|i| {
            let (_, _, lat, lon) = SITES[site_of(i)];
            (lat, lon)
        })
        .collect();
    Topology::uniform(positions, LinkQuality::default())
}

/// Build the membership, publish `datasets` payloads of `dataset_bytes`
/// from owners chosen by `seed`, and replicate each.
pub fn build(
    nodes: usize,
    datasets: usize,
    dataset_bytes: usize,
    config: ScdnConfig,
    seed: u64,
) -> World {
    let mut stream = seed;
    let mut phases = SetupPhases::default();

    let t = Instant::now();
    let graph = barabasi_albert(nodes, BA_M, config.seed);
    phases.graph_generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let authors: Vec<AuthorId> = (0..nodes as u32).map(AuthorId).collect();
    let institutions: Vec<Institution> = SITES
        .iter()
        .enumerate()
        .map(|(i, &(name, region, lat, lon))| Institution {
            id: InstitutionId(i as u32),
            name: name.to_string(),
            region,
            lat,
            lon,
        })
        .collect();
    let members: Vec<Author> = authors
        .iter()
        .map(|&a| Author {
            id: a,
            name: format!("member-{}", a.0),
            institution: InstitutionId(site_of(a.0 as usize) as u32),
        })
        .collect();
    let corpus = Corpus::new(members, institutions, Vec::new()).expect("dense ids");
    phases.corpus_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let sub = TrustSubgraph::from_parts(TrustFilter::Baseline, graph, authors);
    phases.subgraph_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut scdn = Scdn::build(&sub, &corpus, config);
    phases.core_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut ids = Vec::with_capacity(datasets);
    let mut contents = Vec::with_capacity(datasets);
    let mut owners = Vec::with_capacity(datasets);
    for d in 0..datasets {
        let owner = NodeId((splitmix64(&mut stream) % nodes as u64) as u32);
        let content = payload(splitmix64(&mut stream), dataset_bytes);
        let id = scdn
            .publish(
                owner,
                &format!("bench-{d:04}"),
                content.clone(),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        scdn.replicate(id).expect("replication succeeds");
        ids.push(id);
        contents.push(content);
        owners.push(owner);
    }
    phases.publish_replicate_ms_per_dataset = t.elapsed().as_secs_f64() * 1e3 / datasets as f64;

    World {
        scdn,
        datasets: ids,
        contents,
        owners,
        phases,
    }
}
