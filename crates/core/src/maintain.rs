//! CDN management: demand-driven replication and post-departure repair,
//! one dataset at a time in dataset order, each decision reading live
//! state.
//!
//! [`Scdn::maintain`] reads one [`RebalancePlan`][plan] of the demand
//! windows, grows each dataset the policy wants larger through
//! [`Scdn::replicate_to`] (which rebuilds a coded dataset's missing blocks
//! instead) and sheds the last-added replicas of each it wants smaller,
//! then drains the windows to the totals the plan observed.
//! [`Scdn::repair`] brings every dataset back to the configured count.
//! Every grow walks one memoized placement ranking
//! ([`RankingCache`][cache]), so a cycle ranks the graph at most once.
//!
//! [plan]: scdn_alloc::server::RebalancePlan
//! [cache]: scdn_alloc::ranking_cache::RankingCache

use scdn_alloc::replication::RebalancePolicy;
use scdn_storage::object::DatasetId;

use super::{RebalanceStrategy, Scdn};

impl Scdn {
    /// Run one maintenance cycle: apply the configured rebalance strategy
    /// to every dataset (growing hot datasets, shrinking idle ones), then
    /// drain the demand windows to the totals the plan observed. Returns
    /// the number of replica changes made.
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn maintain(&mut self) -> usize {
        match self.config.rebalance {
            RebalanceStrategy::Static => {
                let policy = self.static_rebalance();
                self.maintain_with(&policy)
            }
            RebalanceStrategy::Adaptive(policy) => self.maintain_with(&policy),
        }
    }

    /// [`maintain`](Self::maintain) with an explicit [`RebalancePolicy`].
    /// The policy's target is honored verbatim, so a demand-driven policy
    /// can hold a cold dataset below `replicas_per_dataset`; the static
    /// strategy applies that floor inside [`StaticRebalance`].
    ///
    /// [`StaticRebalance`]: scdn_alloc::replication::StaticRebalance
    pub(crate) fn maintain_with<P: RebalancePolicy>(&mut self, policy: &P) -> usize {
        let plan = self.alloc.rebalance_plan(policy);
        let mut changes = 0usize;
        for (dataset, current, target) in plan.triples() {
            if target > current {
                changes += self
                    .replicate_to(dataset, target)
                    .map(|added| added.len())
                    .unwrap_or(0);
            } else if target < current {
                changes += self.shed_replicas(dataset, current - target).len();
            }
        }
        // Requests resolved after the plan read its windows stay in the
        // next window instead of vanishing.
        self.alloc.drain_demand(&plan);
        changes
    }

    /// Re-replicate every dataset below the configured replica count
    /// (post-departure repair), one [`replicate`](Self::replicate) per
    /// dataset in dataset order. Returns the number of replicas restored.
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn repair(&mut self) -> usize {
        let mut datasets: Vec<DatasetId> = self.datasets.keys().copied().collect();
        datasets.sort_unstable();
        datasets
            .into_iter()
            .filter_map(|d| self.replicate(d).ok())
            .map(|added| added.len())
            .sum()
    }
}
