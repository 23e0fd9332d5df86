//! Reference implementations the equivalence tests hold the runtime to.
//! Test builds only: the product has one way to do each of these things.
//!
//! * [`Scdn::maintain_serial`] / [`Scdn::maintain_serial_with`] and
//!   [`Scdn::repair_serial`] are the loops `maintain` / `maintain_with` /
//!   `repair` replaced: one dataset at a time, in dataset order, each
//!   decision reading live state. The plan/commit pipeline must reproduce
//!   their replica decisions, metrics and clock bit for bit
//!   (`maintain_equivalence`, `coded_equivalence`, `review_repro`).
//! * [`Scdn::apply_graph_delta_flush`] is the twin of `apply_graph_delta`
//!   that re-freezes the CSR from scratch and tells no cache, so every
//!   cache flushes wholesale on its next use; the announced delta path
//!   must never resolve differently (`system_tests`).
//! * [`Scdn::set_publish_coding`] lets one fixture hold coded and
//!   whole-replica datasets side by side (`coded_equivalence`).

use scdn_alloc::replication::RebalancePolicy;
use scdn_graph::{CsrGraph, GraphDelta};
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::DatasetId;

use super::{RebalanceStrategy, Scdn, ScdnError};

impl Scdn {
    /// Publish later datasets under `coding`; earlier ones keep theirs.
    pub(crate) fn set_publish_coding(&mut self, coding: CodingConfig) {
        self.config.coding = coding;
    }

    /// Serial oracle for `repair`: one `replicate` call per dataset, in
    /// dataset order.
    pub(crate) fn repair_serial(&mut self) -> usize {
        let datasets: Vec<DatasetId> = {
            let mut v: Vec<DatasetId> = self.datasets.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let mut restored = 0;
        for d in datasets {
            if let Ok(added) = self.replicate(d) {
                restored += added.len();
            }
        }
        restored
    }

    /// Serial oracle for `maintain`: the configured rebalance strategy
    /// applied one dataset at a time, in dataset order.
    pub(crate) fn maintain_serial(&mut self) -> usize {
        match self.config.rebalance {
            RebalanceStrategy::Static => {
                let policy = self.static_rebalance();
                self.maintain_serial_with(&policy)
            }
            RebalanceStrategy::Adaptive(policy) => self.maintain_serial_with(&policy),
        }
    }

    /// [`maintain_serial`](Self::maintain_serial) with an explicit
    /// [`RebalancePolicy`]. The policy's target is honored verbatim — no
    /// config floor is re-applied here, so a demand-driven policy can hold
    /// a cold dataset below `replicas_per_dataset`.
    pub(crate) fn maintain_serial_with<P: RebalancePolicy>(&mut self, policy: &P) -> usize {
        let plan = self.alloc.rebalance_plan(policy);
        let mut changes = 0usize;
        for (dataset, current, target) in plan.triples() {
            if target > current {
                changes += self
                    .replicate_to(dataset, target)
                    .map(|added| added.len())
                    .unwrap_or(0);
            } else if target < current {
                // Shed the last-added replica(s).
                changes += self.shed_replicas(dataset, current - target).len();
            }
        }
        // Drain each window to the totals the plan observed: requests
        // resolved between the plan read and this drain stay in the next
        // window instead of vanishing.
        self.alloc.drain_demand(&plan);
        changes
    }

    /// Flush-everything oracle for `apply_graph_delta`: apply the same ops
    /// but re-freeze the CSR from scratch *without* announcing the delta
    /// (an unannounced generation change).
    pub(crate) fn apply_graph_delta_flush(&mut self, delta: &GraphDelta) -> Result<(), ScdnError> {
        self.check_delta(delta)?;
        delta.apply_to(&mut self.social);
        self.social_csr = CsrGraph::from(&self.social);
        for (a, b) in delta.edge_pairs() {
            self.overlay.refresh_link(&self.social, a, b);
        }
        Ok(())
    }
}
