//! Publications: the atoms of "proven trust" in the case study.

use crate::author::AuthorId;

/// Dense publication identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PubId(pub u32);

impl PubId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A publication record (DBLP-like).
#[derive(Clone, Debug, PartialEq)]
pub struct Publication {
    /// Identifier (index into the corpus publication table).
    pub id: PubId,
    /// Publication year.
    pub year: u16,
    /// Author list, deduplicated, in author-id order.
    pub authors: Vec<AuthorId>,
    /// Title (synthetic titles in generated corpora).
    pub title: String,
}

impl Publication {
    /// Create a publication, deduplicating and sorting the author list.
    pub fn new(id: PubId, year: u16, mut authors: Vec<AuthorId>, title: String) -> Publication {
        authors.sort_unstable();
        authors.dedup();
        Publication {
            id,
            year,
            authors,
            title,
        }
    }

    /// Number of authors.
    pub fn author_count(&self) -> usize {
        self.authors.len()
    }

    /// `true` if `a` is an author.
    pub fn has_author(&self, a: AuthorId) -> bool {
        self.authors.binary_search(&a).is_ok()
    }

    /// Iterate over all unordered coauthor pairs `(a, b)` with `a < b`.
    pub fn coauthor_pairs(&self) -> impl Iterator<Item = (AuthorId, AuthorId)> + '_ {
        self.authors
            .iter()
            .enumerate()
            .flat_map(move |(i, &a)| self.authors[i + 1..].iter().map(move |&b| (a, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dedups_and_sorts() {
        let p = Publication::new(
            PubId(0),
            2010,
            vec![AuthorId(3), AuthorId(1), AuthorId(3)],
            "t".into(),
        );
        assert_eq!(p.authors, vec![AuthorId(1), AuthorId(3)]);
        assert_eq!(p.author_count(), 2);
    }

    #[test]
    fn has_author_uses_sorted_list() {
        let p = Publication::new(PubId(0), 2010, vec![AuthorId(5), AuthorId(2)], "t".into());
        assert!(p.has_author(AuthorId(2)));
        assert!(!p.has_author(AuthorId(4)));
    }

    #[test]
    fn coauthor_pairs_count() {
        let p = Publication::new(
            PubId(0),
            2011,
            vec![AuthorId(0), AuthorId(1), AuthorId(2), AuthorId(3)],
            "t".into(),
        );
        let pairs: Vec<_> = p.coauthor_pairs().collect();
        assert_eq!(pairs.len(), 6);
        for (a, b) in pairs {
            assert!(a < b);
        }
    }

    #[test]
    fn single_author_no_pairs() {
        let p = Publication::new(PubId(0), 2011, vec![AuthorId(7)], "t".into());
        assert_eq!(p.coauthor_pairs().count(), 0);
    }
}
