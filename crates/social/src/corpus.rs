//! The corpus: authors + institutions + publications, with the query
//! surface the coauthorship builder and case study need.

use std::collections::HashMap;

use crate::author::{Author, AuthorId, Institution, InstitutionId};
use crate::publication::{PubId, Publication};

/// An immutable-after-build collection of authors, institutions, and
/// publications (a synthetic stand-in for a DBLP extract).
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    authors: Vec<Author>,
    institutions: Vec<Institution>,
    publications: Vec<Publication>,
    /// `pubs_by_author[a]` = publication ids authored by `a`.
    pubs_by_author: Vec<Vec<PubId>>,
    /// Declared research interests per author (sparse; most corpora fill
    /// this from the generator's team topics).
    interests: HashMap<AuthorId, Vec<String>>,
}

/// Errors from corpus construction / validation.
#[derive(Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// A publication references an author id outside the author table.
    UnknownAuthor {
        /// The offending publication.
        publication: PubId,
        /// The missing author id.
        author: AuthorId,
    },
    /// An author references an institution id outside the table.
    UnknownInstitution {
        /// The offending author.
        author: AuthorId,
        /// The missing institution id.
        institution: InstitutionId,
    },
    /// Ids are expected to be dense indices; this one is out of order.
    NonDenseId(&'static str, u32),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::UnknownAuthor {
                publication,
                author,
            } => write!(
                f,
                "publication p{} references unknown author {author}",
                publication.0
            ),
            CorpusError::UnknownInstitution {
                author,
                institution,
            } => write!(
                f,
                "author {author} references unknown institution i{}",
                institution.0
            ),
            CorpusError::NonDenseId(kind, id) => write!(f, "{kind} id {id} is not dense"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl Corpus {
    /// Build and validate a corpus. Ids must be dense (`authors[i].id == i`
    /// etc.) and all references must resolve.
    pub fn new(
        authors: Vec<Author>,
        institutions: Vec<Institution>,
        publications: Vec<Publication>,
    ) -> Result<Corpus, CorpusError> {
        for (i, inst) in institutions.iter().enumerate() {
            if inst.id.0 as usize != i {
                return Err(CorpusError::NonDenseId("institution", inst.id.0));
            }
        }
        for (i, a) in authors.iter().enumerate() {
            if a.id.0 as usize != i {
                return Err(CorpusError::NonDenseId("author", a.id.0));
            }
            if a.institution.index() >= institutions.len() {
                return Err(CorpusError::UnknownInstitution {
                    author: a.id,
                    institution: a.institution,
                });
            }
        }
        let mut pubs_by_author: Vec<Vec<PubId>> = vec![Vec::new(); authors.len()];
        for (i, p) in publications.iter().enumerate() {
            if p.id.0 as usize != i {
                return Err(CorpusError::NonDenseId("publication", p.id.0));
            }
            for &a in &p.authors {
                if a.index() >= authors.len() {
                    return Err(CorpusError::UnknownAuthor {
                        publication: p.id,
                        author: a,
                    });
                }
                pubs_by_author[a.index()].push(p.id);
            }
        }
        Ok(Corpus {
            authors,
            institutions,
            publications,
            pubs_by_author,
            interests: HashMap::new(),
        })
    }

    /// All authors.
    pub fn authors(&self) -> &[Author] {
        &self.authors
    }

    /// All institutions.
    pub fn institutions(&self) -> &[Institution] {
        &self.institutions
    }

    /// All publications.
    pub fn publications(&self) -> &[Publication] {
        &self.publications
    }

    /// Number of authors.
    pub fn author_count(&self) -> usize {
        self.authors.len()
    }

    /// Number of publications.
    pub fn publication_count(&self) -> usize {
        self.publications.len()
    }

    /// Author record by id.
    pub fn author(&self, id: AuthorId) -> &Author {
        &self.authors[id.index()]
    }

    /// Institution record by id.
    pub fn institution(&self, id: InstitutionId) -> &Institution {
        &self.institutions[id.index()]
    }

    /// Publication record by id.
    pub fn publication(&self, id: PubId) -> &Publication {
        &self.publications[id.index()]
    }

    /// Publications authored by `a`.
    pub fn publications_of(&self, a: AuthorId) -> &[PubId] {
        &self.pubs_by_author[a.index()]
    }

    /// Publications whose year is within `years` (inclusive range).
    pub fn publications_in(
        &self,
        years: std::ops::RangeInclusive<u16>,
    ) -> impl Iterator<Item = &Publication> {
        self.publications
            .iter()
            .filter(move |p| years.contains(&p.year))
    }

    /// Declare a research interest for an author (idempotent).
    pub fn add_interest(&mut self, a: AuthorId, topic: &str) {
        assert!(a.index() < self.authors.len(), "unknown author {a}");
        let list = self.interests.entry(a).or_default();
        if !list.iter().any(|t| t == topic) {
            list.push(topic.to_string());
        }
    }

    /// Declared interests of an author (empty slice if none).
    pub fn interests_of(&self, a: AuthorId) -> &[String] {
        self.interests.get(&a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All authors with at least one declared interest.
    pub fn authors_with_interests(&self) -> usize {
        self.interests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::author::Region;

    fn mini_corpus() -> Corpus {
        let inst = vec![Institution {
            id: InstitutionId(0),
            name: "U0".into(),
            region: Region::Europe,
            lat: 50.0,
            lon: 10.0,
        }];
        let authors = (0..4)
            .map(|i| Author {
                id: AuthorId(i),
                name: format!("A{i}"),
                institution: InstitutionId(0),
            })
            .collect();
        let pubs = vec![
            Publication::new(PubId(0), 2009, vec![AuthorId(0), AuthorId(1)], "p0".into()),
            Publication::new(
                PubId(1),
                2010,
                vec![AuthorId(0), AuthorId(2), AuthorId(3)],
                "p1".into(),
            ),
            Publication::new(PubId(2), 2011, vec![AuthorId(1), AuthorId(2)], "p2".into()),
        ];
        Corpus::new(authors, inst, pubs).expect("valid corpus")
    }

    #[test]
    fn construction_and_queries() {
        let c = mini_corpus();
        assert_eq!(c.author_count(), 4);
        assert_eq!(c.publication_count(), 3);
        assert_eq!(c.publications_of(AuthorId(0)), &[PubId(0), PubId(1)]);
        assert_eq!(c.publications_in(2009..=2010).count(), 2);
    }

    #[test]
    fn unknown_author_rejected() {
        let inst = vec![Institution {
            id: InstitutionId(0),
            name: "U0".into(),
            region: Region::Asia,
            lat: 0.0,
            lon: 0.0,
        }];
        let authors = vec![Author {
            id: AuthorId(0),
            name: "A0".into(),
            institution: InstitutionId(0),
        }];
        let pubs = vec![Publication::new(
            PubId(0),
            2010,
            vec![AuthorId(0), AuthorId(9)],
            "p".into(),
        )];
        let err = Corpus::new(authors, inst, pubs).unwrap_err();
        assert_eq!(
            err,
            CorpusError::UnknownAuthor {
                publication: PubId(0),
                author: AuthorId(9)
            }
        );
    }

    #[test]
    fn non_dense_ids_rejected() {
        let err = Corpus::new(
            vec![Author {
                id: AuthorId(5),
                name: "A".into(),
                institution: InstitutionId(0),
            }],
            vec![Institution {
                id: InstitutionId(0),
                name: "U".into(),
                region: Region::Europe,
                lat: 0.0,
                lon: 0.0,
            }],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CorpusError::NonDenseId("author", 5));
    }
}
