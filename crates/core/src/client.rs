//! The CDN client: per-node monitoring and telemetry.
//!
//! "The CDN client is a lightweight server that … manages the contributed
//! storage repository and monitors system statistics such as availability
//! and performance. System and usage statistics are sent to allocation
//! servers to identify the location and number of replicas needed."
//! (Section V-A.)
//!
//! Each member node runs one [`MonitoringClient`]; the system samples them
//! on every tick and periodically flushes EWMA availability and service
//! statistics to the allocation server.

use scdn_alloc::server::AllocationServer;
use scdn_graph::NodeId;

/// Exponentially-weighted telemetry for one member node.
#[derive(Clone, Debug)]
pub struct MonitoringClient {
    /// The node this client runs on.
    pub node: NodeId,
    /// EWMA of the online indicator (the availability estimate reported to
    /// allocation servers).
    ewma_availability: f64,
    /// Smoothing factor per sample (0..1; higher = more reactive).
    alpha: f64,
    /// Samples observed so far.
    samples: u64,
    /// Requests served by this node's repository since the last report.
    served_since_report: u64,
    /// Bytes served since the last report.
    bytes_since_report: u64,
}

impl MonitoringClient {
    /// New client with the given EWMA smoothing factor.
    pub fn new(node: NodeId, alpha: f64) -> MonitoringClient {
        MonitoringClient {
            node,
            ewma_availability: 1.0,
            alpha: alpha.clamp(0.001, 1.0),
            samples: 0,
            served_since_report: 0,
            bytes_since_report: 0,
        }
    }

    /// Record one availability observation (`true` = online).
    pub fn sample_online(&mut self, online: bool) {
        let x = if online { 1.0 } else { 0.0 };
        if self.samples == 0 {
            self.ewma_availability = x;
        } else {
            self.ewma_availability = self.alpha * x + (1.0 - self.alpha) * self.ewma_availability;
        }
        self.samples += 1;
    }

    /// Record a request served from this node's repository.
    pub fn record_served(&mut self, bytes: u64) {
        self.served_since_report += 1;
        self.bytes_since_report += bytes;
    }

    /// The EWMA availability estimate and the samples behind it: what
    /// [`report`](Self::report) sends and what the next sample weighs.
    pub(crate) fn estimate(&self) -> (f64, u64) {
        (self.ewma_availability, self.samples)
    }

    /// Flush the telemetry to an allocation server, resetting the usage
    /// counters. Returns `(served, bytes)` flushed.
    pub fn report(&mut self, server: &AllocationServer) -> (u64, u64) {
        // Ignore the error for unregistered nodes: a client may outlive a
        // departed repository registration.
        let _ = server.report_availability(self.node, self.ewma_availability);
        let flushed = (self.served_since_report, self.bytes_since_report);
        self.served_since_report = 0;
        self.bytes_since_report = 0;
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_alloc::server::RepositoryInfo;
    use scdn_social::author::AuthorId;

    #[test]
    fn ewma_converges_to_duty() {
        let mut c = MonitoringClient::new(NodeId(0), 0.05);
        // 30% online pattern.
        for i in 0..2_000 {
            c.sample_online(i % 10 < 3);
        }
        let est = c.ewma_availability;
        assert!((est - 0.3).abs() < 0.1, "est = {est}");
    }

    #[test]
    fn first_sample_initializes() {
        let mut c = MonitoringClient::new(NodeId(0), 0.1);
        c.sample_online(false);
        assert_eq!(c.ewma_availability, 0.0);
        assert_eq!(c.samples, 1);
    }

    #[test]
    fn report_updates_server_and_resets_counters() {
        let server = AllocationServer::new();
        server.register_repository(RepositoryInfo {
            node: NodeId(3),
            owner: AuthorId(3),
            capacity: 1,
            availability: 1.0,
        });
        let mut c = MonitoringClient::new(NodeId(3), 0.5);
        c.sample_online(false);
        c.sample_online(false);
        c.record_served(100);
        c.record_served(50);
        let (served, bytes) = c.report(&server);
        assert_eq!((served, bytes), (2, 150));
        assert_eq!(c.report(&server), (0, 0), "counters reset after flush");
        let info = server.repository(NodeId(3)).expect("registered");
        assert!(info.availability < 0.1);
    }

    #[test]
    fn report_tolerates_unregistered_node() {
        let server = AllocationServer::new();
        let mut c = MonitoringClient::new(NodeId(9), 0.5);
        c.sample_online(true);
        c.record_served(10);
        assert_eq!(c.report(&server), (1, 10));
    }
}
