//! The pairwise interaction ledger.

use std::collections::HashMap;

use scdn_social::author::AuthorId;
use scdn_social::corpus::Corpus;

/// What kind of interaction occurred (the paper's "contextualized"
/// histories: context matters when interpreting an outcome).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InteractionKind {
    /// Coauthored a publication (always a positive outcome).
    Publication,
    /// One party served data to the other.
    DataExchange,
    /// One party hosted a replica on request of the overlay.
    ReplicaHosting,
}

/// One recorded interaction between a pair of parties.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interaction {
    /// Timestamp (arbitrary monotone unit; the case study uses years).
    pub at: f64,
    /// Context of the interaction.
    pub kind: InteractionKind,
    /// Whether it concluded successfully.
    pub success: bool,
}

/// Ledger of interactions keyed by unordered author pair.
#[derive(Clone, Debug, Default)]
pub struct InteractionLedger {
    entries: HashMap<(AuthorId, AuthorId), Vec<Interaction>>,
}

fn key(a: AuthorId, b: AuthorId) -> (AuthorId, AuthorId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InteractionLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an interaction between `a` and `b`.
    pub fn record(&mut self, a: AuthorId, b: AuthorId, interaction: Interaction) {
        if a == b {
            return; // self-interactions carry no trust information
        }
        self.entries.entry(key(a, b)).or_default().push(interaction);
    }

    /// All interactions between `a` and `b` (empty slice if none).
    pub fn between(&self, a: AuthorId, b: AuthorId) -> &[Interaction] {
        self.entries
            .get(&key(a, b))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct pairs with history.
    pub fn pair_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of recorded interactions.
    pub fn interaction_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Seed the ledger from a publication corpus: every joint publication
    /// within `years` becomes one successful [`InteractionKind::Publication`]
    /// interaction per coauthor pair with at least one author that passes
    /// `among`, timestamped with its year.
    ///
    /// This is the "proven trust … observed via publications" bootstrap.
    pub fn seed_from_corpus(
        &mut self,
        corpus: &Corpus,
        years: std::ops::RangeInclusive<u16>,
        among: impl Fn(AuthorId) -> bool,
    ) {
        for p in corpus.publications_in(years) {
            for (a, b) in p.coauthor_pairs().filter(|&(a, b)| among(a) || among(b)) {
                self.record(
                    a,
                    b,
                    Interaction {
                        at: p.year as f64,
                        kind: InteractionKind::Publication,
                        success: true,
                    },
                );
            }
        }
    }

    /// Iterate over all (pair, interactions) entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(AuthorId, AuthorId), &Vec<Interaction>)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_social::generator::{generate, CaseStudyParams};

    #[test]
    fn record_is_symmetric() {
        let mut l = InteractionLedger::new();
        l.record(
            AuthorId(2),
            AuthorId(1),
            Interaction {
                at: 1.0,
                kind: InteractionKind::DataExchange,
                success: true,
            },
        );
        assert_eq!(l.between(AuthorId(1), AuthorId(2)).len(), 1);
        assert_eq!(l.between(AuthorId(2), AuthorId(1)).len(), 1);
        assert_eq!(l.pair_count(), 1);
    }

    #[test]
    fn self_interaction_ignored() {
        let mut l = InteractionLedger::new();
        l.record(
            AuthorId(1),
            AuthorId(1),
            Interaction {
                at: 0.0,
                kind: InteractionKind::ReplicaHosting,
                success: true,
            },
        );
        assert_eq!(l.interaction_count(), 0);
    }

    #[test]
    fn seed_from_corpus_counts_joint_pubs() {
        let mut p = CaseStudyParams::default();
        p.level2_prob = 0.0;
        p.level3_prob = 0.0;
        p.level4_prob = 0.0;
        p.mega_pub_authors = 0;
        let g = generate(&p);
        let mut l = InteractionLedger::new();
        l.seed_from_corpus(&g.corpus, 2009..=2010, |_| true);
        assert!(l.pair_count() > 0);
        // Every seeded interaction is a successful publication.
        for (_, v) in l.iter() {
            for i in v {
                assert!(i.success);
                assert_eq!(i.kind, InteractionKind::Publication);
                assert!(i.at == 2009.0 || i.at == 2010.0);
            }
        }
    }

    #[test]
    fn missing_pair_is_empty() {
        let l = InteractionLedger::new();
        assert!(l.between(AuthorId(5), AuthorId(6)).is_empty());
    }
}
