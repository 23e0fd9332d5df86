//! Interest-based user grouping.
//!
//! Section VI-C suggests the allocation servers use "perhaps topic modeling
//! to extract areas of interest" when grouping users with similar data
//! needs. Interests are declared per author (the generator derives them
//! from team topics); this module turns them into a graph [`Partition`]
//! usable by the social data partitioner.

use std::collections::HashMap;

use scdn_graph::community::Partition;

use crate::author::AuthorId;
use crate::corpus::Corpus;

/// Partition a node-ordered author list by *dominant interest*: each author
/// joins the group of their first declared interest; authors with no
/// interests share one "uninterested" group. Returns the partition plus the
/// group-index → topic-name table (the last entry, if present, is the
/// `"(none)"` group).
pub fn interest_partition(corpus: &Corpus, authors: &[AuthorId]) -> (Partition, Vec<String>) {
    let mut topic_ids: HashMap<&str, u32> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut labels = Vec::with_capacity(authors.len());
    let mut none_label: Option<u32> = None;
    for &a in authors {
        let label = match corpus.interests_of(a).first() {
            Some(topic) => *topic_ids.entry(topic.as_str()).or_insert_with(|| {
                names.push(topic.clone());
                names.len() as u32 - 1
            }),
            None => *none_label.get_or_insert_with(|| {
                names.push("(none)".to_string());
                names.len() as u32 - 1
            }),
        };
        labels.push(label);
    }
    (Partition::from_labels(&labels), names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::author::{Author, Institution, InstitutionId, Region};
    use crate::corpus::Corpus;
    use crate::generator::{generate, CaseStudyParams};

    fn corpus_with_interests() -> Corpus {
        let inst = vec![Institution {
            id: InstitutionId(0),
            name: "U".into(),
            region: Region::Asia,
            lat: 0.0,
            lon: 0.0,
        }];
        let authors = (0..4)
            .map(|i| Author {
                id: AuthorId(i),
                name: format!("A{i}"),
                institution: InstitutionId(0),
            })
            .collect();
        let mut c = Corpus::new(authors, inst, vec![]).expect("valid");
        c.add_interest(AuthorId(0), "neuroimaging");
        c.add_interest(AuthorId(0), "machine-learning");
        c.add_interest(AuthorId(1), "neuroimaging");
        c.add_interest(AuthorId(2), "genomics");
        // Author 3 has no interests.
        c
    }

    #[test]
    fn partition_groups_by_dominant_interest() {
        let c = corpus_with_interests();
        let authors: Vec<AuthorId> = (0..4).map(AuthorId).collect();
        let (p, names) = interest_partition(&c, &authors);
        assert_eq!(p.assignment.len(), 4);
        // 0 and 1 share "neuroimaging"; 2 is "genomics"; 3 is "(none)".
        assert_eq!(p.assignment[0], p.assignment[1]);
        assert_ne!(p.assignment[0], p.assignment[2]);
        assert_ne!(p.assignment[2], p.assignment[3]);
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"neuroimaging".to_string()));
        assert_eq!(names.last().map(String::as_str), Some("(none)"));
    }

    #[test]
    fn generated_corpus_has_interest_coverage() {
        let g = generate(&CaseStudyParams::default());
        // Every team member got a topic; the mega-pub authors may not.
        assert!(g.corpus.authors_with_interests() > g.corpus.author_count() / 2);
        let seed_interests = g.corpus.interests_of(g.seed_author);
        assert!(!seed_interests.is_empty(), "the seed leads teams");
    }

    #[test]
    fn partition_of_generated_corpus_is_usable() {
        let mut params = CaseStudyParams::default();
        params.level3_prob = 0.0;
        let g = generate(&params);
        let authors: Vec<AuthorId> = g.corpus.authors().iter().map(|a| a.id).collect();
        let (p, names) = interest_partition(&g.corpus, &authors);
        assert!(p.count >= 2 && p.count <= names.len());
        assert_eq!(p.assignment.len(), authors.len());
    }
}
