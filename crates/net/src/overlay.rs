//! Social overlay links (the SocialVPN complement of Section VII).
//!
//! "A SocialVPN enables an automatic establishment of peer-to-peer links
//! between participants that are connected through a social network …
//! involving the discovery of peers and the identification of cryptographic
//! public certificates." This module models exactly that surface: each
//! member advertises a certificate fingerprint; overlay links come up only
//! between *social* neighbors whose fingerprints verify; data paths are
//! then routed entirely over the verified overlay.

use std::collections::{HashMap, VecDeque};

use scdn_graph::{Graph, NodeId};
use scdn_storage::integrity::fnv1a64;

/// A member's certificate: an identity plus a fingerprint of its public
/// key material (simulated as an FNV-1a digest of the key bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerCertificate {
    /// The member node.
    pub node: NodeId,
    /// Fingerprint of the public key.
    pub fingerprint: u64,
}

impl PeerCertificate {
    /// Derive a certificate from raw key bytes.
    pub fn from_key(node: NodeId, key: &[u8]) -> PeerCertificate {
        PeerCertificate {
            node,
            fingerprint: fnv1a64(key),
        }
    }
}

/// Why a link could not be established.
#[derive(Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The pair is not connected in the social graph — the overlay only
    /// links friends.
    NotSociallyConnected(NodeId, NodeId),
    /// One endpoint has not published a certificate.
    MissingCertificate(NodeId),
    /// The fingerprint presented does not match the published certificate
    /// (a man-in-the-middle or stale key).
    FingerprintMismatch(NodeId),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::NotSociallyConnected(a, b) => {
                write!(f, "{a:?} and {b:?} are not socially connected")
            }
            LinkError::MissingCertificate(n) => write!(f, "{n:?} has no certificate"),
            LinkError::FingerprintMismatch(n) => {
                write!(f, "fingerprint mismatch for {n:?}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// The overlay: verified peer-to-peer links over the social graph.
pub struct SocialOverlay {
    n: usize,
    certificates: HashMap<NodeId, PeerCertificate>,
    links: Vec<Vec<NodeId>>,
}

impl SocialOverlay {
    /// An overlay over `n` member nodes with no links yet.
    pub fn new(n: usize) -> SocialOverlay {
        SocialOverlay {
            n,
            certificates: HashMap::new(),
            links: vec![Vec::new(); n],
        }
    }

    /// Publish a member's certificate (discovery via the social platform).
    pub fn publish_certificate(&mut self, cert: PeerCertificate) {
        self.certificates.insert(cert.node, cert);
    }

    /// Establish a verified link between `a` and `b`.
    ///
    /// Requires (1) a social edge between them, and (2) both presented
    /// fingerprints to match the published certificates.
    fn establish_link(
        &mut self,
        social: &Graph,
        a: NodeId,
        b: NodeId,
        presented_a: u64,
        presented_b: u64,
    ) -> Result<(), LinkError> {
        if !social.has_edge(a, b) {
            return Err(LinkError::NotSociallyConnected(a, b));
        }
        for (node, presented) in [(a, presented_a), (b, presented_b)] {
            let cert = self
                .certificates
                .get(&node)
                .ok_or(LinkError::MissingCertificate(node))?;
            if cert.fingerprint != presented {
                return Err(LinkError::FingerprintMismatch(node));
            }
        }
        if !self.links[a.index()].contains(&b) {
            self.links[a.index()].push(b);
            self.links[b.index()].push(a);
        }
        Ok(())
    }

    /// Establish links for every social edge whose endpoints have
    /// certificates (the "automatic establishment" flow). Returns the
    /// number of links brought up.
    pub fn establish_all(&mut self, social: &Graph) -> usize {
        let mut up = 0;
        for (a, b, _) in social.edges() {
            let (Some(ca), Some(cb)) = (
                self.certificates.get(&a).cloned(),
                self.certificates.get(&b).cloned(),
            ) else {
                continue;
            };
            if self
                .establish_link(social, a, b, ca.fingerprint, cb.fingerprint)
                .is_ok()
            {
                up += 1;
            }
        }
        up
    }

    /// Tear down the link `a — b` if present (e.g. the social edge
    /// backing it lapsed). Returns `true` if a link was removed.
    fn teardown_link(&mut self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.n || b.index() >= self.n {
            return false;
        }
        let Some(i) = self.links[a.index()].iter().position(|&x| x == b) else {
            return false;
        };
        // Preserve insertion order on both sides: `route` walks link
        // lists in order, and path tie-breaks must stay deterministic.
        self.links[a.index()].remove(i);
        if let Some(j) = self.links[b.index()].iter().position(|&x| x == a) {
            self.links[b.index()].remove(j);
        }
        true
    }

    /// Re-verify one pair after a social-graph change: the link comes up
    /// iff a social edge now exists and both published certificates
    /// verify, and is torn down otherwise. Returns `true` if the link is
    /// up afterwards.
    pub fn refresh_link(&mut self, social: &Graph, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.n || b.index() >= self.n {
            return false;
        }
        if social.has_edge(a, b) {
            let fa = self.certificates.get(&a).map(|c| c.fingerprint);
            let fb = self.certificates.get(&b).map(|c| c.fingerprint);
            match (fa, fb) {
                (Some(fa), Some(fb)) => {
                    self.establish_link(social, a, b, fa, fb).is_ok() || self.linked(a, b)
                }
                // Certificate-less members can't hold links up.
                _ => {
                    self.teardown_link(a, b);
                    false
                }
            }
        } else {
            self.teardown_link(a, b);
            false
        }
    }

    /// `true` if a verified link exists.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.links
            .get(a.index())
            .map(|l| l.contains(&b))
            .unwrap_or(false)
    }

    /// Each member's verified links, in the order they came up.
    pub fn links(&self) -> &[Vec<NodeId>] {
        &self.links
    }

    /// Number of verified links.
    pub fn link_count(&self) -> usize {
        self.links.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Shortest path from `src` to `dst` using only verified overlay links
    /// (BFS). `None` if unreachable over the overlay.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src.index() >= self.n || dst.index() >= self.n {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        seen[src.index()] = true;
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            for &u in &self.links[v.index()] {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    parent[u.index()] = Some(v);
                    if u == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while let Some(p) = parent[cur.index()] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(u);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay_with_certs(n: usize) -> SocialOverlay {
        let mut o = SocialOverlay::new(n);
        for i in 0..n {
            o.publish_certificate(PeerCertificate::from_key(
                NodeId(i as u32),
                format!("key-{i}").as_bytes(),
            ));
        }
        o
    }

    #[test]
    fn teardown_and_refresh_follow_social_churn() {
        let social = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]);
        let mut o = overlay_with_certs(3);
        o.establish_all(&social);
        assert!(o.linked(NodeId(0), NodeId(1)));
        // Collaboration lapses: refresh tears the link down.
        let mut churned = social.clone();
        churned.remove_edge(NodeId(0), NodeId(1));
        assert!(!o.refresh_link(&churned, NodeId(0), NodeId(1)));
        assert!(!o.linked(NodeId(0), NodeId(1)));
        assert!(o.linked(NodeId(1), NodeId(2)), "other links untouched");
        // New collaboration: refresh brings the link up.
        churned.add_edge(NodeId(0), NodeId(2), 1);
        assert!(o.refresh_link(&churned, NodeId(0), NodeId(2)));
        assert!(o.linked(NodeId(2), NodeId(0)));
        assert!(!o.teardown_link(NodeId(0), NodeId(1)), "already down");
    }

    #[test]
    fn links_require_social_edges() {
        let social = Graph::from_edges(3, [(0, 1, 1)]);
        let mut o = overlay_with_certs(3);
        let f = |i: usize| o.certificates[&NodeId(i as u32)].fingerprint;
        let (f0, f1, f2) = (f(0), f(1), f(2));
        assert!(o
            .establish_link(&social, NodeId(0), NodeId(1), f0, f1)
            .is_ok());
        assert_eq!(
            o.establish_link(&social, NodeId(0), NodeId(2), f0, f2),
            Err(LinkError::NotSociallyConnected(NodeId(0), NodeId(2)))
        );
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let social = Graph::from_edges(2, [(0, 1, 1)]);
        let mut o = overlay_with_certs(2);
        let f0 = o.certificates[&NodeId(0)].fingerprint;
        // Single-chain FNV-1a of "key-0" — not the storage layer's
        // word-wise segment digest.
        assert_eq!(f0, 0x71135bf295f28059);
        assert_eq!(
            o.establish_link(&social, NodeId(0), NodeId(1), f0, 0xBAD),
            Err(LinkError::FingerprintMismatch(NodeId(1)))
        );
        assert!(!o.linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn missing_certificate_rejected() {
        let social = Graph::from_edges(2, [(0, 1, 1)]);
        let mut o = SocialOverlay::new(2);
        o.publish_certificate(PeerCertificate::from_key(NodeId(0), b"k0"));
        let f0 = o.certificates[&NodeId(0)].fingerprint;
        assert_eq!(
            o.establish_link(&social, NodeId(0), NodeId(1), f0, 1),
            Err(LinkError::MissingCertificate(NodeId(1)))
        );
    }

    #[test]
    fn establish_all_covers_social_graph() {
        let social = scdn_graph::generators::barabasi_albert(60, 2, 3);
        let mut o = overlay_with_certs(60);
        let up = o.establish_all(&social);
        assert_eq!(up, social.edge_count());
        assert_eq!(o.link_count(), social.edge_count());
    }

    #[test]
    fn routing_follows_overlay_only() {
        let social = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let mut o = overlay_with_certs(4);
        o.establish_all(&social);
        let path = o.route(NodeId(0), NodeId(3)).expect("reachable");
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Tear nothing down but route to an unlinked island.
        let mut o2 = overlay_with_certs(4);
        o2.establish_link(
            &social,
            NodeId(0),
            NodeId(1),
            o2.certificates[&NodeId(0)].fingerprint,
            o2.certificates[&NodeId(1)].fingerprint,
        )
        .expect("up");
        assert_eq!(o2.route(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn self_route_is_trivial() {
        let o = overlay_with_certs(2);
        assert_eq!(o.route(NodeId(1), NodeId(1)), Some(vec![NodeId(1)]));
        assert_eq!(o.route(NodeId(0), NodeId(9)), None);
    }

    #[test]
    fn duplicate_links_counted_once() {
        let social = Graph::from_edges(2, [(0, 1, 1)]);
        let mut o = overlay_with_certs(2);
        let f0 = o.certificates[&NodeId(0)].fingerprint;
        let f1 = o.certificates[&NodeId(1)].fingerprint;
        o.establish_link(&social, NodeId(0), NodeId(1), f0, f1)
            .expect("up");
        o.establish_link(&social, NodeId(0), NodeId(1), f0, f1)
            .expect("idempotent");
        assert_eq!(o.link_count(), 1);
    }
}
