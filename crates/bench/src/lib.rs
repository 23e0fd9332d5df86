//! # scdn-bench — experiment harness shared code
//!
//! The paper binaries (`table1`, `fig2`, `fig3`, `fig3_extended`,
//! `availability`, `boundary`, `caching`, `partitioning`) regenerate the
//! paper's tables, figures and ablations, and `metrics_report` prints or
//! validates the Section V-E metrics export; this library holds the
//! shared setup so every binary runs on the *same* synthetic corpus. The
//! criterion groups live under `benches/`. Performance numbers come from
//! the repository's one benchmark, `benchmark/` — nothing here times the
//! runtime.

use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::SyntheticDblp;

/// The canonical corpus every experiment uses (fixed RNG seed).
pub fn paper_corpus() -> SyntheticDblp {
    generate(&CaseStudyParams::default())
}

/// Replica counts swept in Fig. 3.
pub const REPLICA_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Runs averaged per configuration (paper: "run 100 times").
pub const RUNS: usize = 100;

/// Render a numeric table row with a fixed-width label.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!(" {v:6.2}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_stable() {
        let a = paper_corpus();
        let b = paper_corpus();
        assert_eq!(a.corpus.author_count(), b.corpus.author_count());
        assert_eq!(a.corpus.publication_count(), b.corpus.publication_count());
    }

    #[test]
    fn row_formats() {
        let s = row("Random", &[1.0, 2.5]);
        assert!(s.starts_with("Random"));
        assert!(s.contains("1.00"));
        assert!(s.contains("2.50"));
    }
}
