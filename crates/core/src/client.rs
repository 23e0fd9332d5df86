//! The CDN client: per-node availability monitoring and telemetry.
//!
//! "The CDN client is a lightweight server that … manages the contributed
//! storage repository and monitors system statistics such as availability
//! and performance. System and usage statistics are sent to allocation
//! servers to identify the location and number of replicas needed."
//! (Section V-A.)
//!
//! Each member node runs one [`MonitoringClient`]; the system samples them
//! on every tick and, on [`Op::Telemetry`](crate::ops::Op::Telemetry),
//! flushes each EWMA availability estimate to the allocation server.

use scdn_alloc::server::AllocationServer;
use scdn_graph::NodeId;

/// Exponentially-weighted availability telemetry for one member node.
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
}

impl MonitoringClient {
    /// New client with the given EWMA smoothing factor.
    pub fn new(node: NodeId, alpha: f64) -> MonitoringClient {
        MonitoringClient {
            node,
            ewma_availability: 1.0,
            alpha: alpha.clamp(0.001, 1.0),
            samples: 0,
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

    /// The EWMA availability estimate and the samples behind it: what
    /// [`report`](Self::report) sends and what the next sample weighs.
    pub(crate) fn estimate(&self) -> (f64, u64) {
        (self.ewma_availability, self.samples)
    }

    /// Send the availability estimate to an allocation server.
    pub fn report(&self, server: &AllocationServer) {
        // Ignore the error for unregistered nodes: a client may outlive a
        // departed repository registration.
        let _ = server.report_availability(self.node, self.ewma_availability);
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
    fn report_updates_the_servers_availability() {
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
        c.report(&server);
        let info = server.repository(NodeId(3)).expect("registered");
        assert_eq!(info.availability, c.estimate().0);
        assert!(info.availability < 0.1);
    }

    #[test]
    fn report_tolerates_unregistered_node() {
        let server = AllocationServer::new();
        let mut c = MonitoringClient::new(NodeId(9), 0.5);
        c.sample_online(true);
        c.report(&server);
        assert!(server.repository(NodeId(9)).is_none());
    }
}
