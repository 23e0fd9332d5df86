//! Geographic network topology: per-node coordinates and bandwidth,
//! distance-derived latency.

/// Per-node link quality.
#[derive(Clone, Copy, Debug)]
pub struct LinkQuality {
    /// Upload bandwidth in bytes per second.
    pub up_bps: u64,
    /// Download bandwidth in bytes per second.
    pub down_bps: u64,
    /// Fixed local access latency in milliseconds (last-mile + NAT/firewall
    /// traversal — the paper notes availability/latency "influenced by the
    /// use of NATs and firewalls at participating sites").
    pub access_latency_ms: f64,
}

impl Default for LinkQuality {
    fn default() -> Self {
        LinkQuality {
            up_bps: 12_500_000,   // 100 Mbit/s
            down_bps: 62_500_000, // 500 Mbit/s
            access_latency_ms: 5.0,
        }
    }
}

/// A static network topology over `n` nodes.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    positions: Vec<(f64, f64)>,
    links: Vec<LinkQuality>,
}

impl Topology {
    /// Build a topology from per-node (lat, lon) positions and link
    /// qualities.
    ///
    /// # Panics
    /// Panics if the two tables differ in length.
    pub fn new(positions: Vec<(f64, f64)>, links: Vec<LinkQuality>) -> Topology {
        assert_eq!(positions.len(), links.len(), "table length mismatch");
        Topology { positions, links }
    }

    /// Uniform topology: all nodes share the same link quality.
    pub fn uniform(positions: Vec<(f64, f64)>, link: LinkQuality) -> Topology {
        let links = vec![link; positions.len()];
        Topology { positions, links }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of node `i`.
    pub fn position(&self, i: usize) -> (f64, f64) {
        self.positions[i]
    }

    /// Link quality of node `i`.
    pub fn link(&self, i: usize) -> LinkQuality {
        self.links[i]
    }

    /// Great-circle distance between two nodes in km.
    fn distance_km(&self, a: usize, b: usize) -> f64 {
        haversine_km(self.positions[a], self.positions[b])
    }

    /// One-way network latency between two nodes in milliseconds:
    /// both access latencies plus propagation at ~2/3 c with a routing
    /// inflation factor of 1.6 (typical Internet path stretch).
    pub fn latency_ms(&self, a: usize, b: usize) -> f64 {
        const KM_PER_MS: f64 = 200.0; // 2/3 of c
        const PATH_STRETCH: f64 = 1.6;
        self.links[a].access_latency_ms
            + self.links[b].access_latency_ms
            + self.distance_km(a, b) * PATH_STRETCH / KM_PER_MS
    }

    /// Effective bulk bandwidth of a transfer `a → b` in bytes/s: the
    /// bottleneck of `a`'s uplink and `b`'s downlink, divided by the number
    /// of concurrent streams at each endpoint.
    fn effective_bandwidth(&self, a: usize, b: usize, concurrent_a: u32, concurrent_b: u32) -> f64 {
        let up = self.links[a].up_bps as f64 / concurrent_a.max(1) as f64;
        let down = self.links[b].down_bps as f64 / concurrent_b.max(1) as f64;
        up.min(down)
    }

    /// Estimated duration in milliseconds of transferring `bytes` from `a`
    /// to `b` with the given endpoint concurrency.
    pub fn transfer_time_ms(&self, a: usize, b: usize, bytes: u64, concurrent: u32) -> f64 {
        let bw = self.effective_bandwidth(a, b, concurrent, concurrent);
        self.latency_ms(a, b) + bytes as f64 / bw * 1000.0
    }
}

/// Great-circle distance between two (lat, lon) points in km.
pub fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    const R: f64 = 6371.0;
    let (lat1, lon1) = (a.0.to_radians(), a.1.to_radians());
    let (lat2, lon2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Topology {
        Topology::uniform(
            vec![(41.88, -87.63), (49.01, 8.40)], // Chicago, Karlsruhe
            LinkQuality::default(),
        )
    }

    #[test]
    fn latency_grows_with_distance() {
        let t = Topology::uniform(
            vec![(0.0, 0.0), (0.0, 1.0), (0.0, 90.0)],
            LinkQuality::default(),
        );
        assert!(t.latency_ms(0, 2) > t.latency_ms(0, 1));
        assert!(t.latency_ms(0, 1) > 2.0 * LinkQuality::default().access_latency_ms);
    }

    #[test]
    fn latency_symmetric_and_self_minimal() {
        let t = two_node();
        assert!((t.latency_ms(0, 1) - t.latency_ms(1, 0)).abs() < 1e-9);
        assert!((t.latency_ms(0, 0) - 10.0).abs() < 1e-9); // 2 × access
    }

    #[test]
    fn transatlantic_latency_plausible() {
        let t = two_node();
        let l = t.latency_ms(0, 1);
        // ~7000 km × 1.6 / 200 + 10 ≈ 66 ms.
        assert!((50.0..100.0).contains(&l), "latency = {l}");
    }

    #[test]
    fn bandwidth_bottleneck() {
        let fast = LinkQuality {
            up_bps: 100,
            down_bps: 1000,
            access_latency_ms: 1.0,
        };
        let slow = LinkQuality {
            up_bps: 1000,
            down_bps: 50,
            access_latency_ms: 1.0,
        };
        let t = Topology::new(vec![(0.0, 0.0), (0.0, 0.0)], vec![fast, slow]);
        // a→b limited by b's downlink (50); b→a limited by a's... b up 1000,
        // a down 1000 → 1000.
        assert_eq!(t.effective_bandwidth(0, 1, 1, 1), 50.0);
        assert_eq!(t.effective_bandwidth(1, 0, 1, 1), 1000.0);
        // Concurrency shares bandwidth.
        assert_eq!(t.effective_bandwidth(1, 0, 2, 2), 500.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = two_node();
        let small = t.transfer_time_ms(0, 1, 1_000_000, 1);
        let large = t.transfer_time_ms(0, 1, 100_000_000, 1);
        assert!(large > 10.0 * small / 2.0);
    }

    #[test]
    #[should_panic(expected = "table length mismatch")]
    fn mismatched_tables_panic() {
        let _ = Topology::new(vec![(0.0, 0.0)], vec![]);
    }
}
