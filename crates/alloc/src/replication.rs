//! Demand-driven replication policies.
//!
//! "Allocation servers are responsible for ensuring availability by
//! increasing the number of replicas needed (and selecting their locations)
//! based on demand and migrating replicas when required" (Section V-B).
//!
//! The [`RebalancePolicy`] trait is the pluggable brain of a maintenance
//! cycle: given one dataset's observed demand window, current replica
//! count, and size, plus the aggregate demand of the whole cycle, it
//! returns the replica count the dataset *should* have. Two
//! implementations ship:
//!
//! * [`StaticRebalance`] — the original per-dataset [`ReplicationPolicy`]
//!   thresholds with the runtime's `replicas_per_dataset` grow floor
//!   folded in. This is the bit-identical oracle: a maintenance cycle
//!   driven by it reproduces the pre-trait `maintain` exactly (proven by
//!   the `static_policy_plan_matches_legacy_rebalance_plan` proptest).
//! * [`AdaptiveRebalance`] — per-dataset targets proportional to the
//!   dataset's share of the cycle's demand under a **global replica
//!   budget**, following the adaptive-replication frame of Leconte,
//!   Lelarge & Massoulié ("Adaptive Replication in Distributed Content
//!   Delivery Networks"): hot datasets grow by reclaiming replicas from
//!   cold ones instead of growing storage without bound, with hysteresis
//!   (grow fast on a miss-rate spike, shed at most one replica per
//!   cycle) so flash crowds are absorbed quickly and their decay does
//!   not thrash the catalog.

/// Policy mapping observed demand to a target replica count.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationPolicy {
    /// Minimum replicas per dataset (redundancy floor).
    pub min_replicas: usize,
    /// Maximum replicas per dataset (cost ceiling).
    pub max_replicas: usize,
    /// Requests per observation window that justify one extra replica.
    pub requests_per_replica: u64,
    /// Miss-rate (0..=1) above which one extra replica is added regardless
    /// of volume.
    pub miss_rate_trigger: f64,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            min_replicas: 1,
            max_replicas: 10,
            requests_per_replica: 100,
            miss_rate_trigger: 0.5,
        }
    }
}

/// Demand observed for one dataset over a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct DemandWindow {
    /// Requests served within one social hop (hits).
    pub hits: u64,
    /// Requests that had to travel further (misses).
    pub misses: u64,
}

impl DemandWindow {
    /// Total requests in the window.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate (0 when no requests).
    fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.misses as f64 / self.total() as f64
        }
    }
}

impl ReplicationPolicy {
    /// Target replica count for a dataset given its current count and the
    /// demand window.
    pub fn target_replicas(&self, current: usize, demand: DemandWindow) -> usize {
        let volume_driven = 1 + (demand.total() / self.requests_per_replica.max(1)) as usize;
        let mut target = volume_driven
            .max(self.min_replicas)
            .max(current.min(self.max_replicas));
        if demand.miss_rate() > self.miss_rate_trigger && demand.total() > 0 {
            target = target.max(current + 1);
        }
        target.clamp(self.min_replicas, self.max_replicas)
    }

    /// `true` if the dataset should shed a replica (demand far below the
    /// next-lower tier and above the floor).
    pub fn should_shrink(&self, current: usize, demand: DemandWindow) -> bool {
        if current <= self.min_replicas {
            return false;
        }
        let sustainable = 1 + (demand.total() / self.requests_per_replica.max(1)) as usize;
        current > sustainable + 1
    }
}

/// Everything a [`RebalancePolicy`] may consult about one dataset when
/// choosing its target replica count.
#[derive(Clone, Copy, Debug)]
pub struct DatasetStats {
    /// Replicas the dataset has right now (including the owner's copy).
    pub current: usize,
    /// Demand observed for this dataset since the last drain.
    pub demand: DemandWindow,
    /// Segment count — the storage/transfer cost of one more replica.
    pub segments: u32,
}

/// Aggregate view of one maintenance cycle: what the whole catalog saw
/// while the per-dataset windows accumulated. Lets a policy reason about
/// a dataset's *share* of demand and about the global replica spend.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleStats {
    /// Datasets in the catalog at plan time.
    pub datasets: usize,
    /// Replicas across all datasets at plan time.
    pub total_replicas: usize,
    /// Sum of every dataset's demand window.
    pub demand: DemandWindow,
}

/// A pluggable replica-count policy for maintenance cycles.
///
/// Implementations must be pure functions of their inputs: the planner
/// may evaluate datasets in any order (or in parallel), and the
/// serial-vs-pipelined equivalence proofs rely on a dataset's target
/// depending only on `(dataset, cycle)`.
pub trait RebalancePolicy {
    /// The replica count `dataset` should have, given the cycle context.
    /// The maintenance cycle grows or shrinks toward this value
    /// verbatim — any floor or ceiling belongs *in* the policy.
    fn target(&self, dataset: &DatasetStats, cycle: &CycleStats) -> usize;
}

/// The legacy per-dataset thresholds as a [`RebalancePolicy`]: volume
/// tiers and the miss-rate trigger from [`ReplicationPolicy`], with the
/// shrink clamp the old `rebalance_plan` applied inline. No grow floor —
/// that lived in the runtime's config; [`StaticRebalance`] adds it.
impl RebalancePolicy for ReplicationPolicy {
    fn target(&self, dataset: &DatasetStats, _cycle: &CycleStats) -> usize {
        let target = self.target_replicas(dataset.current, dataset.demand);
        if self.should_shrink(dataset.current, dataset.demand) {
            target
                .min(dataset.current.saturating_sub(1))
                .max(self.min_replicas)
        } else {
            target
        }
    }
}

/// The pre-trait maintenance behavior, bit for bit: the
/// [`ReplicationPolicy`] thresholds plus the grow floor the runtime used
/// to apply outside the policy (`replicas_per_dataset.max(target)` on
/// the grow path only — a dataset already at target was never raised to
/// the floor, and a shrink was never clamped by it).
#[derive(Clone, Copy, Debug)]
pub struct StaticRebalance {
    /// The per-dataset demand thresholds.
    pub policy: ReplicationPolicy,
    /// Minimum count a *growing* dataset is raised to (the runtime's
    /// `replicas_per_dataset`). Never creates growth on its own.
    pub grow_floor: usize,
}

impl RebalancePolicy for StaticRebalance {
    fn target(&self, dataset: &DatasetStats, cycle: &CycleStats) -> usize {
        let target = self.policy.target(dataset, cycle);
        if target > dataset.current {
            target.max(self.grow_floor)
        } else {
            target
        }
    }
}

/// Demand-proportional replica targets under a global budget, after
/// Leconte/Lelarge/Massoulié: every dataset keeps a floor of
/// `min_replicas`, and the budget left over (`replica_budget −
/// datasets × min_replicas`) is split between datasets in proportion to
/// their share of the cycle's demand. Two hysteresis rules keep the
/// targets stable:
///
/// * **grow fast** — while the catalog is under budget, a dataset that
///   is demand-hot (above the cycle's per-dataset mean) *and* missing
///   (window miss rate above `miss_rate_trigger`) is granted at least
///   `current + 1` immediately, even if its floored volume share has not
///   caught up (flash-crowd onset). At or over budget the rule is
///   suspended: chronic miss rates must not inflate total storage past
///   the budget — hot datasets grow by out-sharing cold ones instead;
/// * **shrink slow** — a dataset sheds at most one replica per cycle,
///   so a cooling flash crowd decays gradually instead of being torn
///   down (and re-transferred) the moment its window goes quiet.
///
/// Budget accounting: proportional shares are floored, so the sum of
/// `min + share` over all datasets never exceeds `replica_budget` (when
/// `replica_budget ≥ datasets × min_replicas`). The hysteresis rules can
/// hold the *instantaneous* total above budget — a miss spike grants
/// `current + 1` up to the budget boundary, and shrink-by-one releases
/// reclaimed replicas over several cycles — but every excess target
/// decays by one per cycle, so the total converges back under the budget
/// once demand stabilizes.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveRebalance {
    /// Redundancy floor per dataset (at least 1 — the owner's copy).
    pub min_replicas: usize,
    /// Per-dataset ceiling, whatever the demand share says.
    pub max_replicas: usize,
    /// Global replica budget across the whole catalog. The knob that
    /// makes hot datasets reclaim replicas from cold ones instead of
    /// growing total storage without bound.
    pub replica_budget: usize,
    /// Window miss rate above which a dataset is granted `current + 1`
    /// immediately (0..=1).
    pub miss_rate_trigger: f64,
}

impl AdaptiveRebalance {
    /// A policy with the default floor/ceiling/trigger and an explicit
    /// global budget — typically `datasets × replicas_per_dataset`, the
    /// spend the static policy's floor would commit.
    pub fn with_budget(replica_budget: usize) -> AdaptiveRebalance {
        AdaptiveRebalance {
            replica_budget,
            ..AdaptiveRebalance::default()
        }
    }
}

impl Default for AdaptiveRebalance {
    fn default() -> Self {
        AdaptiveRebalance {
            min_replicas: 1,
            max_replicas: 10,
            replica_budget: 0,
            miss_rate_trigger: 0.5,
        }
    }
}

impl RebalancePolicy for AdaptiveRebalance {
    fn target(&self, dataset: &DatasetStats, cycle: &CycleStats) -> usize {
        let floor = self.min_replicas.max(1);
        let spare = self
            .replica_budget
            .saturating_sub(cycle.datasets.saturating_mul(floor));
        let cycle_total = cycle.demand.total();
        // Floored proportional share of the spare budget: floors sum to
        // at most `spare`, which is what keeps the allocation inside the
        // global budget.
        let share = if cycle_total == 0 {
            0
        } else {
            ((spare as f64 * dataset.demand.total() as f64) / cycle_total as f64).floor() as usize
        };
        let mut target = (floor + share).min(self.max_replicas);
        // Grow fast: a miss-rate spike on a demand-hot dataset gets one
        // replica immediately, before its floored volume share catches up
        // — but only while the catalog has budget headroom. Social-hop
        // miss rates are chronically high on sparse graphs; unconditional
        // spike growth would ratchet every dataset to `max_replicas` and
        // make the budget meaningless, so the spike must be backed by an
        // above-average demand share and global headroom.
        let headroom = self.replica_budget == 0 || cycle.total_replicas < self.replica_budget;
        let hot = dataset.demand.total().saturating_mul(cycle.datasets as u64) > cycle_total;
        if headroom && hot && dataset.demand.miss_rate() > self.miss_rate_trigger {
            target = target.max((dataset.current + 1).min(self.max_replicas));
        }
        // Shrink slow: at most one replica shed per cycle.
        if target < dataset.current {
            target = dataset.current - 1;
        }
        target.clamp(floor, self.max_replicas.max(floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_and_ceiling_respected() {
        let p = ReplicationPolicy::default();
        let quiet = DemandWindow::default();
        assert_eq!(p.target_replicas(0, quiet), 1);
        let storm = DemandWindow {
            hits: 100_000,
            misses: 0,
        };
        assert_eq!(p.target_replicas(1, storm), 10);
    }

    #[test]
    fn volume_scales_replicas() {
        let p = ReplicationPolicy::default();
        let d = DemandWindow {
            hits: 250,
            misses: 50,
        };
        // 300 requests / 100 per replica → 1 + 3 = 4.
        assert_eq!(p.target_replicas(1, d), 4);
    }

    #[test]
    fn high_miss_rate_forces_growth() {
        let p = ReplicationPolicy::default();
        let d = DemandWindow {
            hits: 5,
            misses: 45,
        };
        // Low volume, but 90% miss rate → current + 1.
        assert_eq!(p.target_replicas(3, d), 4);
    }

    #[test]
    fn never_shrinks_below_floor() {
        let p = ReplicationPolicy::default();
        assert!(!p.should_shrink(1, DemandWindow::default()));
        assert!(p.should_shrink(5, DemandWindow::default()));
        let busy = DemandWindow {
            hits: 500,
            misses: 0,
        };
        assert!(!p.should_shrink(5, busy));
    }

    #[test]
    fn current_count_is_sticky_within_bounds() {
        // Moderate demand does not tear down existing replicas directly.
        let p = ReplicationPolicy::default();
        let d = DemandWindow {
            hits: 10,
            misses: 0,
        };
        assert_eq!(p.target_replicas(3, d), 3);
    }

    fn stats(current: usize, hits: u64, misses: u64) -> DatasetStats {
        DatasetStats {
            current,
            demand: DemandWindow { hits, misses },
            segments: 4,
        }
    }

    #[test]
    fn static_rebalance_applies_grow_floor_only_on_growth() {
        let p = StaticRebalance {
            policy: ReplicationPolicy::default(),
            grow_floor: 3,
        };
        let cycle = CycleStats::default();
        // Growing 1 → 2 by demand is raised to the floor (the old
        // `replicas_per_dataset.max(target)` clamp).
        assert_eq!(p.target(&stats(1, 150, 0), &cycle), 3);
        // A dataset already at target is not raised to the floor…
        assert_eq!(p.target(&stats(2, 10, 0), &cycle), 2);
        // …and a shrink below the floor is not clamped by it: 3 → 2 even
        // though the grow floor is 3.
        assert_eq!(p.target(&stats(3, 0, 0), &cycle), 2);
    }

    #[test]
    fn adaptive_share_is_demand_proportional_under_budget() {
        let p = AdaptiveRebalance::with_budget(20);
        // 10 datasets × floor 1 → 10 spare replicas to distribute.
        let cycle = CycleStats {
            datasets: 10,
            total_replicas: 20,
            demand: DemandWindow {
                hits: 900,
                misses: 100,
            },
        };
        // 60% of the demand → 6 of the 10 spare replicas on top of the floor.
        assert_eq!(p.target(&stats(3, 600, 0), &cycle), 7);
        // A cold dataset shrinks — but only by one per cycle.
        assert_eq!(p.target(&stats(4, 0, 0), &cycle), 3);
        // Zero share lands on the floor.
        assert_eq!(p.target(&stats(1, 0, 0), &cycle), 1);
    }

    #[test]
    fn adaptive_budget_is_respected_by_floored_shares() {
        let p = AdaptiveRebalance::with_budget(12);
        let demands = [700u64, 200, 60, 30, 10, 0];
        let cycle = CycleStats {
            datasets: demands.len(),
            total_replicas: 6,
            demand: DemandWindow {
                hits: demands.iter().sum(),
                misses: 0,
            },
        };
        // With every dataset at the floor (no shrink hysteresis in play)
        // the targets must sum to at most the budget.
        let total: usize = demands
            .iter()
            .map(|&h| p.target(&stats(1, h, 0), &cycle))
            .sum();
        assert!(total <= 12, "targets sum to {total}, budget 12");
    }

    #[test]
    fn adaptive_miss_spike_grows_fast() {
        let p = AdaptiveRebalance::with_budget(8);
        let cycle = CycleStats {
            datasets: 8,
            total_replicas: 7,
            demand: DemandWindow {
                hits: 40,
                misses: 40,
            },
        };
        // Zero floored volume share, but above-average demand, a 100%
        // miss rate, and budget headroom: hysteresis grants current + 1
        // immediately.
        assert_eq!(p.target(&stats(2, 0, 30), &cycle), 3);
        // At (or over) budget the spike rule is suspended: the same
        // dataset only keeps its shrink-slow floor of current - 1.
        let at_budget = CycleStats {
            total_replicas: 8,
            ..cycle
        };
        assert_eq!(p.target(&stats(2, 0, 30), &at_budget), 1);
        // A below-average demand share never spikes, however bad its miss
        // rate: chronic background misses must not creep the total up.
        let busy = CycleStats {
            demand: DemandWindow {
                hits: 10_000,
                misses: 40,
            },
            ..cycle
        };
        assert_eq!(p.target(&stats(2, 0, 30), &busy), 1);
    }

    #[test]
    fn adaptive_shrinks_at_most_one_per_cycle() {
        let p = AdaptiveRebalance::with_budget(10);
        let cycle = CycleStats {
            datasets: 10,
            total_replicas: 30,
            demand: DemandWindow {
                hits: 1_000,
                misses: 0,
            },
        };
        // Proportional target is the floor (no demand), but an 8-replica
        // flash-crowd veteran cools off one step at a time.
        assert_eq!(p.target(&stats(8, 0, 0), &cycle), 7);
    }
}
