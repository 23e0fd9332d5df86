//! Ablation (Ext-A in DESIGN.md): the Fig. 3 sweep over every
//! `PlacementAlgorithm` — the paper's four, the two more it names but does
//! not evaluate (betweenness centrality, Section V-D; the DOSN-style social
//! score, Section VII) and this repository's two additions (PageRank and
//! weighted degree).
//!
//! Below the tables it prints, for each addition, the panels on which it
//! beats every paper-named algorithm, by its mean over k = 1..10 or by its
//! k = 10 value. An addition that wins nowhere has no claim to its place:
//! the binary then exits 1.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin fig3_extended
//! ```

use scdn_alloc::placement::PlacementAlgorithm;
use scdn_bench::{paper_corpus, REPLICA_COUNTS};
use scdn_core::casestudy::{CaseStudy, HitRateCurve};

fn main() {
    let g = paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let subs = cs.paper_subgraphs().expect("seed author present");
    let panels = [
        "(a) Baseline",
        "(b) Double Coauthorship",
        "(c) Number of Authors",
    ];
    // Fewer runs than fig3: the extended algorithms are deterministic, and
    // betweenness on the baseline graph costs a full Brandes pass.
    let runs = 20;
    let algorithms: Vec<PlacementAlgorithm> = PlacementAlgorithm::PAPER_SET
        .into_iter()
        .chain(PlacementAlgorithm::EXTENDED_SET)
        .collect();
    let mut swept = Vec::new();
    for (sub, panel) in subs.iter().zip(panels) {
        println!("Extended Fig. 3{panel}: hit rate (%) vs replicas");
        print!("{:<24}", "algorithm\\replicas");
        for k in REPLICA_COUNTS {
            print!(" {k:>6}");
        }
        println!();
        let curves = cs.sweep(sub, &algorithms, &REPLICA_COUNTS, runs);
        for curve in &curves {
            println!(
                "{}",
                scdn_bench::row(curve.algorithm.name(), &curve.hit_rate_pct)
            );
        }
        println!();
        swept.push((panel, curves));
    }
    println!("Claims: where each addition beats every paper-named algorithm");
    let mut unclaimed = Vec::new();
    for addition in algorithms.into_iter().filter(|&a| is_addition(a)) {
        let won = wins(&swept, addition);
        let claim = if won.is_empty() {
            unclaimed.push(addition.name());
            "nowhere".to_string()
        } else {
            won.join("; ")
        };
        println!("{:<24} {claim}", addition.name());
    }
    if !unclaimed.is_empty() {
        eprintln!(
            "no claim: {} beat(s) no paper-named algorithm on any panel",
            unclaimed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Whether the paper does not name `algorithm`: this repository's
/// additions, each of which must beat every algorithm the paper names on
/// some panel.
fn is_addition(algorithm: PlacementAlgorithm) -> bool {
    matches!(
        algorithm,
        PlacementAlgorithm::PageRank | PlacementAlgorithm::WeightedDegree
    )
}

/// Each panel and criterion on which `addition`'s curve beats the best
/// curve of the paper-named algorithms: `"<panel> <criterion>: <its
/// value> vs <best> (<best's name>)"`.
fn wins(panels: &[(&str, Vec<HitRateCurve>)], addition: PlacementAlgorithm) -> Vec<String> {
    let mut won = Vec::new();
    for (panel, curves) in panels {
        let own = curves
            .iter()
            .find(|c| c.algorithm == addition)
            .expect("every addition is swept");
        for (i, (criterion, value)) in readings(own).into_iter().enumerate() {
            let (best, name) = curves
                .iter()
                .filter(|c| !is_addition(c.algorithm))
                .map(|c| (readings(c)[i].1, c.algorithm.name()))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("the paper's algorithms are swept");
            if value > best {
                won.push(format!(
                    "{panel} {criterion}: {value:.2} vs {best:.2} ({name})"
                ));
            }
        }
    }
    won
}

/// A curve by each criterion: its mean over k = 1..10 and its k = 10
/// value.
fn readings(c: &HitRateCurve) -> [(&'static str, f64); 2] {
    let rates = &c.hit_rate_pct;
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    [("mean k = 1..10", mean), ("k = 10", rates[rates.len() - 1])]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(algorithm: PlacementAlgorithm, hit_rate_pct: Vec<f64>) -> HitRateCurve {
        HitRateCurve {
            algorithm,
            ks: (1..=hit_rate_pct.len()).collect(),
            hit_rate_pct,
        }
    }

    #[test]
    fn an_addition_wins_only_by_beating_every_paper_named_curve() {
        let panel = vec![
            curve(PlacementAlgorithm::NodeDegree, vec![10.0, 20.0]),
            curve(PlacementAlgorithm::Betweenness, vec![1.0, 30.0]),
            // Beats Node Degree on both criteria and Betweenness on the
            // mean only (16 vs 15.5): a win on the mean.
            curve(PlacementAlgorithm::PageRank, vec![11.0, 21.0]),
            // Ties Betweenness at k = 2 and loses the mean: no win.
            curve(PlacementAlgorithm::WeightedDegree, vec![0.0, 30.0]),
        ];
        let panels = [("(x)", panel)];
        assert_eq!(
            wins(&panels, PlacementAlgorithm::PageRank),
            vec!["(x) mean k = 1..10: 16.00 vs 15.50 (Betweenness)"]
        );
        assert!(wins(&panels, PlacementAlgorithm::WeightedDegree).is_empty());
    }
}
