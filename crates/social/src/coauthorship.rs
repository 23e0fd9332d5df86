//! Coauthorship graph construction: authors become graph nodes, coauthoring
//! a publication adds (or reinforces) edges. Edge weight = number of joint
//! publications, which the double-coauthorship trust heuristic thresholds.

use std::collections::HashMap;

use scdn_graph::{Graph, NodeId};

use crate::author::AuthorId;
use crate::corpus::Corpus;
use crate::publication::Publication;

/// Bidirectional mapping between corpus [`AuthorId`]s and dense graph
/// [`NodeId`]s.
#[derive(Clone, Debug, Default)]
pub struct NodeIndexMap {
    author_to_node: HashMap<AuthorId, NodeId>,
    node_to_author: Vec<AuthorId>,
}

impl NodeIndexMap {
    /// Node for `a`, if the author is in the network.
    pub fn node_of(&self, a: AuthorId) -> Option<NodeId> {
        self.author_to_node.get(&a).copied()
    }

    /// Author behind node `v`.
    pub fn author_of(&self, v: NodeId) -> AuthorId {
        self.node_to_author[v.index()]
    }

    /// Number of mapped authors.
    pub fn len(&self) -> usize {
        self.node_to_author.len()
    }

    /// `true` if no authors are mapped.
    pub fn is_empty(&self) -> bool {
        self.node_to_author.is_empty()
    }

    /// Get the node for `a`, creating one if absent.
    fn get_or_insert(&mut self, a: AuthorId) -> NodeId {
        match self.author_to_node.get(&a) {
            Some(&v) => v,
            None => {
                let v = NodeId(self.node_to_author.len() as u32);
                self.author_to_node.insert(a, v);
                self.node_to_author.push(a);
                v
            }
        }
    }

    /// All mapped authors in node order.
    pub fn authors(&self) -> &[AuthorId] {
        &self.node_to_author
    }
}

/// A coauthorship network: a graph plus the author↔node mapping and the set
/// of publications that contributed at least one edge.
#[derive(Clone, Debug)]
pub struct CoauthorNetwork {
    /// The coauthorship graph (weights = joint publication counts).
    pub graph: Graph,
    /// Author ↔ node mapping.
    pub index: NodeIndexMap,
    /// Publications that contributed an edge (≥ 2 mapped authors).
    pub contributing_pubs: Vec<crate::publication::PubId>,
}

impl CoauthorNetwork {
    /// `true` if the author participates in the network.
    pub fn contains(&self, a: AuthorId) -> bool {
        self.index.node_of(a).is_some()
    }
}

/// Build a coauthorship network from all corpus publications within `years`
/// that satisfy `pub_filter`.
///
/// Nodes are created lazily (only authors of accepted publications appear);
/// single-author publications add the author as an isolated node but no
/// edges.
pub fn build_coauthorship<F>(
    corpus: &Corpus,
    years: std::ops::RangeInclusive<u16>,
    mut pub_filter: F,
) -> CoauthorNetwork
where
    F: FnMut(&Publication) -> bool,
{
    let mut index = NodeIndexMap::default();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut contributing = Vec::new();
    for p in corpus.publications_in(years) {
        if !pub_filter(p) {
            continue;
        }
        let nodes: Vec<NodeId> = p.authors.iter().map(|&a| index.get_or_insert(a)).collect();
        if nodes.len() >= 2 {
            contributing.push(p.id);
        }
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                edges.push((a, b));
            }
        }
    }
    let mut graph = Graph::new(index.len());
    for (a, b) in edges {
        graph.add_edge(a, b, 1);
    }
    CoauthorNetwork {
        graph,
        index,
        contributing_pubs: contributing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::author::{Author, Institution, InstitutionId, Region};
    use crate::publication::{PubId, Publication};

    fn corpus() -> Corpus {
        let inst = vec![Institution {
            id: InstitutionId(0),
            name: "U".into(),
            region: Region::Europe,
            lat: 0.0,
            lon: 0.0,
        }];
        let authors = (0..5)
            .map(|i| Author {
                id: AuthorId(i),
                name: format!("A{i}"),
                institution: InstitutionId(0),
            })
            .collect();
        let pubs = vec![
            Publication::new(PubId(0), 2009, vec![AuthorId(0), AuthorId(1)], "x".into()),
            Publication::new(PubId(1), 2010, vec![AuthorId(0), AuthorId(1)], "y".into()),
            Publication::new(
                PubId(2),
                2010,
                vec![AuthorId(1), AuthorId(2), AuthorId(3)],
                "z".into(),
            ),
            Publication::new(PubId(3), 2011, vec![AuthorId(3), AuthorId(4)], "w".into()),
            Publication::new(PubId(4), 2010, vec![AuthorId(4)], "solo".into()),
        ];
        Corpus::new(authors, inst, pubs).expect("valid")
    }

    /// Degree of an author in the network (0 if absent).
    fn degree_of(net: &CoauthorNetwork, a: AuthorId) -> usize {
        net.index.node_of(a).map_or(0, |v| net.graph.degree(v))
    }

    #[test]
    fn weights_count_joint_pubs() {
        let net = build_coauthorship(&corpus(), 2009..=2010, |_| true);
        let (a0, a1) = (
            net.index.node_of(AuthorId(0)).unwrap(),
            net.index.node_of(AuthorId(1)).unwrap(),
        );
        assert_eq!(net.graph.edge_weight(a0, a1), Some(2));
    }

    #[test]
    fn year_filter_excludes() {
        let net = build_coauthorship(&corpus(), 2009..=2010, |_| true);
        assert!(!net.contains(AuthorId(4)) || degree_of(&net, AuthorId(4)) == 0);
        // Author 4's only 2009-2010 appearance is a solo pub → isolated node.
        assert!(net.contains(AuthorId(4)));
        assert_eq!(degree_of(&net, AuthorId(4)), 0);
    }

    #[test]
    fn pub_filter_applies() {
        // Exclude pubs with 3+ authors: the triangle pub 2 disappears.
        let net = build_coauthorship(&corpus(), 2009..=2011, |p| p.author_count() < 3);
        assert_eq!(degree_of(&net, AuthorId(2)), 0);
        assert!(net.contains(AuthorId(3)));
        let (a3, a4) = (
            net.index.node_of(AuthorId(3)).unwrap(),
            net.index.node_of(AuthorId(4)).unwrap(),
        );
        assert!(net.graph.has_edge(a3, a4));
    }

    #[test]
    fn contributing_pubs_exclude_solo() {
        let net = build_coauthorship(&corpus(), 2009..=2011, |_| true);
        assert_eq!(net.contributing_pubs.len(), 4); // all but the solo pub
    }

    #[test]
    fn round_trip_mapping() {
        let net = build_coauthorship(&corpus(), 2009..=2011, |_| true);
        for v in net.graph.nodes() {
            let a = net.index.author_of(v);
            assert_eq!(net.index.node_of(a), Some(v));
        }
    }
}
