//! Availability-aware placement experiment (Section V-D, My3-style).
//!
//! Builds availability-overlap graphs for churn regimes, selects replicas
//! as cost-weighted dominating-set covers, and compares the fraction of
//! time a random member can reach at least one *online* replica against
//! degree-based and random placement of the same size.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin availability
//! ```

use scdn_alloc::placement::{place_availability_cover, PlacementAlgorithm};
use scdn_bench::paper_corpus;
use scdn_core::casestudy::CaseStudy;
use scdn_graph::{CsrGraph, NodeId};
use scdn_sim::availability::{availability_graph, AvailabilityModel, PeriodicChurn};
use scdn_sim::engine::SimTime;
use scdn_social::trustgraph::TrustFilter;

fn main() {
    let g = paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let sub = cs
        .subgraph(TrustFilter::MaxAuthorsPerPub(6))
        .expect("seed author present");
    let social = CsrGraph::from(&sub.graph);
    let n = social.node_count();
    let horizon = SimTime::from_secs(24 * 3600);
    let samples = 512;
    println!("availability-aware replica selection on the number-of-authors graph ({n} nodes)");
    println!();
    println!(
        "{:>6} {:>7} {:>22} {:>22} {:>22}",
        "duty", "k", "avail-cover uptime", "node-degree uptime", "random uptime"
    );
    for &duty in &[0.3f64, 0.5, 0.7] {
        let churn = PeriodicChurn {
            period_ms: 6 * 3600 * 1000,
            duty,
            seed: 13,
        };
        // Availability graph: edges between nodes whose uptime overlaps at
        // least 25% of the horizon; node cost = inverse availability.
        let ag = availability_graph(&churn, n, horizon, 128, 0.25);
        let cost: Vec<f64> = (0..n)
            .map(|v| {
                let a = churn.availability_fraction(v, horizon, 128).max(1e-3);
                1.0 / a
            })
            .collect();
        for &k in &[5usize, 10] {
            let cover = place_availability_cover(&ag, &cost, k);
            let degree = PlacementAlgorithm::NodeDegree.place(&social, k, 0);
            let random = PlacementAlgorithm::Random.place(&social, k, 1);
            let score = |set: &[NodeId]| reachable_uptime(&churn, set, horizon, samples);
            println!(
                "{:>6.2} {:>7} {:>21.1}% {:>21.1}% {:>21.1}%",
                duty,
                k,
                100.0 * score(&cover),
                100.0 * score(&degree),
                100.0 * score(&random)
            );
        }
    }
    println!();
    println!("uptime = fraction of sampled instants with >= 1 replica online.");
}

/// Fraction of sampled instants at which at least one of `set` is online.
fn reachable_uptime(
    churn: &PeriodicChurn,
    set: &[NodeId],
    horizon: SimTime,
    samples: usize,
) -> f64 {
    let step = (horizon.as_millis() / samples as u64).max(1);
    let mut ok = 0usize;
    let mut count = 0usize;
    let mut t = 0u64;
    while t < horizon.as_millis() {
        let st = SimTime::from_millis(t);
        if set.iter().any(|v| churn.is_online(v.index(), st)) {
            ok += 1;
        }
        count += 1;
        t += step;
    }
    ok as f64 / count as f64
}
