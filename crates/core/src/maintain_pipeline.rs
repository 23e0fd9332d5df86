//! Maintenance/repair plan/commit pipeline: parallel read-only *plan*
//! phase, strictly ordered *commit* phase — the request-batch
//! architecture of the `pipeline` module applied to the CDN-management
//! half of the system (demand-driven replication, post-departure
//! repair).
//!
//! [`Scdn::maintain`] and [`Scdn::repair`] both drive one cycle:
//!
//! * **Plan** — embarrassingly parallel over the cycle's work items.
//!   The full placement ordering is memoized once per cycle
//!   ([`RankingCache`][cache]; rankings are dataset-independent and
//!   prefix-consistent), then each worker slices it per dataset: walk
//!   the ordering, skip the owner and current replicas, check candidate
//!   liveness at a simulated clock that replays the serial walk's
//!   per-transfer advance, and simulate every
//!   segment transfer ([`TransferEngine::simulate_segment`], a pure hash
//!   of endpoints × segment × attempt) including a quota simulation that
//!   mirrors `StorageRepository::store`. The result is a
//!   [`MaintainPlan`]: the per-candidate hosting decisions, attempt
//!   tallies, staged segment payloads, and wave-aggregated timings —
//!   with no shared mutation.
//!
//! * **Commit** — applies plans on the calling thread in dataset order:
//!   hosting-request and exchange records, `net.attempts.*` counters,
//!   repository stores with partial-failure rollback, catalog
//!   `add_replica`, cache pinning, redundancy samples, clock advance.
//!   Shrink items always execute against live state (victim selection is
//!   cheap and reads nothing a concurrent plan could cache). A grow plan
//!   is re-planned only when an earlier commit in the same cycle
//!   invalidated its snapshot — counted in `core.maintain.replanned` and,
//!   by the first trigger that fired, in `core.maintain.replan.{entry,
//!   repo_epoch,clock}`: the version of the catalog entry the plan read
//!   moved, a repository epoch the plan recorded advanced, or the clock
//!   advanced under a time-dependent availability model. A cycle has one
//!   item per dataset and every commit changes only its own item's entry,
//!   so the entry trigger cannot fire inside a cycle; it stays as the
//!   safety net for the invariant. A stale grow plans again against a fresh snapshot at the live
//!   clock — candidates, liveness, quotas and attempts all re-derived —
//!   but keeps the owner's segments its first plan already read and
//!   verified (`core.maintain.replans_kept_payload`): nothing inside a
//!   cycle rewrites the owner's copy (see [`MaintainPlan::repos_read`]).
//!   A stale *coded* repair keeps the blocks it regenerated when they are
//!   still the right ones (same blocks missing, owner online and its
//!   repository untouched) and re-runs only the live block-shipping walk
//!   — `core.maintain.coded_replans_kept_blocks`.
//!
//! The plan phase is entirely lock-free on the catalog: one
//! [`CatalogSnapshot`] is loaded per cycle (`core.maintain.snapshot_reuse`
//! counts the amortization) and every worker plans against it.
//!
//! Determinism argument: a transfer simulation depends only on endpoint
//! identities, segment identities, and the failure model — never on the
//! clock — so under an always-on availability model the only snapshot
//! ingredients a grow plan reads are its catalog entry (covered by the
//! entry version) and destination repository quotas (covered by the
//! per-node repository epochs, which both grow stores and shrink
//! evictions bump).
//! Under periodic churn candidate liveness also depends on the clock:
//! *within* an item the plan replays the serial walk's clock advance
//! (each online candidate's transfer time pushes a simulated clock
//! forward, so a transfer straddling an availability boundary flips
//! later candidates exactly as it would serially), and *across* items
//! any commit that moved the real clock leaves the item's starting
//! clock wrong — covered by the clock-moved trigger. A stale item
//! re-reads live state exactly as the serial loop would, reproducing the
//! identical outcome. So a pipelined cycle is bit-identical to the serial
//! per-dataset loops it replaced (kept as the test-only oracles in
//! `oracle.rs`) under a fixed seed.
//!
//! [cache]: scdn_alloc::ranking_cache::RankingCache
//! [`TransferEngine::simulate_segment`]: scdn_net::transfer::TransferEngine::simulate_segment

use std::sync::Arc;

use scdn_alloc::CatalogSnapshot;
use scdn_graph::parallel::par_map_collect;
use scdn_graph::NodeId;
use scdn_net::failure::AttemptOutcome;
use scdn_sim::engine::SimTime;
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::Partition;

use scdn_alloc::replication::RebalancePolicy;

use super::{coded_missing, Availability, RebalanceStrategy, Scdn};

/// One work item of a maintenance or repair cycle.
struct WorkItem {
    dataset: DatasetId,
    target: Target,
}

/// What the cycle wants for one dataset.
enum Target {
    /// Bring the dataset up to `want` replicas.
    Grow { want: usize },
    /// Shed the last-added `drop` replicas.
    Shrink { drop: usize },
}

/// One candidate host considered by a grow plan, in ranking order.
struct GrowCand {
    cand: NodeId,
    /// Candidate liveness at the plan's simulated clock — the clock the
    /// serial walk would show when it reaches this candidate, i.e. the
    /// planned clock plus every earlier online candidate's transfer time
    /// (offline candidates still cost a rejected hosting request).
    online: bool,
    /// Owner → candidate latency (immediacy sample of an accepted
    /// hosting request).
    latency_ms: f64,
    /// Planned transfer outcome; `None` when the candidate is offline.
    xfer: Option<GrowXfer>,
}

/// Simulated transfer of the full segment set to one candidate.
struct GrowXfer {
    /// Attempt outcomes across every segment the serial loop would have
    /// processed, including the retries of a segment that ultimately
    /// failed.
    attempts: Vec<AttemptOutcome>,
    /// Staged payloads of the delivered segments in order; emptied when
    /// the transfer failed (the serial path stores then rolls back, so
    /// the commit stores nothing).
    deliveries: Vec<(SegmentId, Segment)>,
    /// Wave-aggregated wall-clock of the delivered segments.
    total_ms: f64,
    /// Bytes of the delivered segments (charged even on failure).
    total_bytes: u64,
    /// `true` if a segment exhausted its retries or overflowed the
    /// candidate's quota.
    failed: bool,
}

/// One candidate considered by a coded block-shipping plan, in ranking
/// order — the coded analogue of [`GrowCand`], carrying at most one
/// regenerated block instead of a whole segment set.
struct CodedStep {
    cand: NodeId,
    /// Liveness at the plan's simulated clock (serial-walk replay, like
    /// [`GrowCand::online`]).
    online: bool,
    /// Owner → candidate latency.
    latency_ms: f64,
    /// Planned single-block transfer; `None` when the candidate is
    /// offline.
    xfer: Option<CodedXfer>,
}

/// Simulated transfer of one regenerated coded block to one candidate.
struct CodedXfer {
    /// Attempt outcomes of the retry chain.
    attempts: Vec<AttemptOutcome>,
    /// The staged block `(index, payload)`; `None` when the chain
    /// exhausted its retries or the block overflowed the candidate's
    /// quota (the serial path stores nothing in either case and retries
    /// the block on the next candidate).
    delivery: Option<(u32, Segment)>,
    /// Wall-clock of the successful chain (charged only on delivery,
    /// mirroring `transfer_payload_observed`'s `Ok` report).
    elapsed_ms: f64,
    /// Block payload size.
    bytes: u64,
}

/// What the plan phase decided for one work item.
enum PlanKind {
    /// Nothing to do (already at target, or the dataset vanished — the
    /// serial path would have returned before any effect).
    Noop,
    /// Grow: the exact candidate sequence the serial walk would process.
    Grow { owner: NodeId, cands: Vec<GrowCand> },
    /// Coded repair with the owner online at plan time: the exact
    /// block-shipping walk `Scdn::restore_coded` would perform, with the
    /// regenerated payloads staged.
    CodedGrow {
        owner: NodeId,
        spec: CodingSpec,
        steps: Vec<CodedStep>,
        regenerated: Regenerated,
    },
    /// Coded repair that must run from live state: the owner was offline
    /// at plan time, and the reconstruct path's any-k multi-source fetch
    /// reads donor repositories mid-flight — state no snapshot covers.
    CodedLive,
    /// Shrink: victim selection is deferred to commit time (live state),
    /// exactly like the serial path.
    Shrink { drop: usize },
}

/// The blocks a coded plan regenerated from the owner's plain copy, kept
/// whole so a plan that goes stale on its *destinations* does not have to
/// read and encode them again: they stay the right blocks for as long as
/// the same ones are missing and the owner's repository has not changed.
struct Regenerated {
    /// Missing block indices at plan time, ascending.
    missing: Vec<u32>,
    /// `blocks[i]` is block `missing[i]`.
    blocks: Vec<Segment>,
    /// The owner's repository epoch when its plain copy was read.
    owner_epoch: u64,
}

/// Why an earlier commit in the cycle left a plan stale, in the order the
/// triggers are checked; indexes `Scdn::maintain_replan_causes`.
#[derive(Clone, Copy)]
enum ReplanCause {
    /// The catalog entry the plan read has a new version.
    Entry = 0,
    /// A repository the plan read was written.
    RepoEpoch = 1,
    /// The clock moved under a time-dependent availability model.
    Clock = 2,
}

/// A fully planned work item: pure output of the parallel phase.
struct MaintainPlan {
    /// Version of the catalog entry the plan read (`None` for an
    /// unknown dataset) — the commit-side catalog staleness token.
    version: Option<u64>,
    /// `(node index, repository epoch at plan time)` of every repository
    /// whose quota/contents the plan read (the online candidates it
    /// simulated stores into). The owner's repository is deliberately
    /// absent: source reads fetch this dataset's segments by id, and no
    /// other dataset's commit can create or remove those.
    repos_read: Vec<(u32, u64)>,
    kind: PlanKind,
}

impl Scdn {
    /// Run one maintenance cycle: apply the configured rebalance strategy
    /// to every dataset (growing hot datasets, shrinking idle ones), then
    /// drain the demand windows to the totals the plan observed. Returns
    /// the number of replica changes made.
    ///
    /// Grow/shrink decisions, host selection, and transfer simulation
    /// run in parallel against an immutable snapshot; effects apply in
    /// dataset order. Bit-identical to the serial per-dataset loop it
    /// replaced under a fixed seed — see the module docs for the
    /// determinism argument.
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
    /// The policy's target is honored verbatim — the old
    /// `replicas_per_dataset.max(target)` clamp is gone (the static
    /// strategy reproduces it inside [`StaticRebalance`]'s grow floor), so
    /// a demand-driven policy can hold a cold dataset below the configured
    /// count. Bit-identical to the serial loop under a fixed seed.
    ///
    /// [`StaticRebalance`]: scdn_alloc::replication::StaticRebalance
    pub fn maintain_with<P: RebalancePolicy>(&mut self, policy: &P) -> usize {
        let plan = self.alloc.rebalance_plan(policy);
        let items: Vec<WorkItem> = plan
            .triples()
            .map(|(dataset, current, target)| WorkItem {
                dataset,
                target: if target > current {
                    Target::Grow { want: target }
                } else {
                    Target::Shrink {
                        drop: current - target,
                    }
                },
            })
            .collect();
        let changes = self.run_maintenance_cycle(&items);
        // Drain to plan-time totals: requests resolved mid-cycle stay in
        // the next window instead of being dropped by a full reset.
        self.alloc.drain_demand(&plan);
        changes
    }

    /// Re-replicate every dataset below the configured replica count
    /// (post-departure repair). Returns the number of replicas restored.
    ///
    /// Same plan/commit cycle as [`maintain`](Self::maintain) with every
    /// dataset targeted at the configured count; bit-identical to one
    /// serial `replicate` call per dataset under a fixed seed.
    pub fn repair(&mut self) -> usize {
        let mut datasets: Vec<DatasetId> = self.datasets.keys().copied().collect();
        datasets.sort_unstable();
        let items: Vec<WorkItem> = datasets
            .into_iter()
            .map(|dataset| WorkItem {
                dataset,
                target: Target::Grow {
                    want: self.config.replicas_per_dataset,
                },
            })
            .collect();
        self.run_maintenance_cycle(&items)
    }

    /// Plan every item in parallel against the current snapshot, then
    /// commit in item order. Returns the number of replica changes.
    fn run_maintenance_cycle(&mut self, items: &[WorkItem]) -> usize {
        if items.is_empty() {
            return 0;
        }
        let planned_clock = self.clock;
        // One catalog snapshot serves the ranking-warm check and every
        // planning worker: after this load the plan phase acquires no
        // catalog lock at all.
        let snap = self.alloc.snapshot();
        self.maintain_snapshot_reuse
            .add(items.len().saturating_sub(1) as u64);
        // Warm the memoized ranking once, on this thread, iff some item
        // will actually walk it — the serial loop only ranks when a
        // dataset really grows, and ranking from inside a planning worker
        // would nest the parallel pool.
        let ranking: Option<Arc<Vec<NodeId>>> = items
            .iter()
            .any(|item| match item.target {
                // A coded dataset walks the ranking whenever any block is
                // missing (both the owner-online ship walk and the live
                // reconstruct path rank), regardless of `want`.
                Target::Grow { want } => match snap.coding_of(item.dataset) {
                    Some(spec) => {
                        !coded_missing(&snap.coded_inventory_of(item.dataset), &spec).is_empty()
                    }
                    None => snap
                        .replicas_of(item.dataset)
                        .is_some_and(|r| r.len() < want),
                },
                Target::Shrink { .. } => false,
            })
            .then(|| self.placement_ranking());
        let ranked: &[NodeId] = ranking.as_ref().map(|r| r.as_slice()).unwrap_or(&[]);
        let plans: Vec<MaintainPlan> = {
            let this: &Scdn = self;
            let snap = &snap;
            par_map_collect(items.len(), 1, |i| {
                this.plan_item(snap, &items[i], ranked, &[])
            })
        };
        self.maintain_planned.add(plans.len() as u64);
        items
            .iter()
            .zip(plans)
            .map(|(item, plan)| self.commit_item(item, plan, planned_clock))
            .sum()
    }

    /// Plan one work item. Read-only: safe from parallel planning
    /// workers (shared catalog snapshot, simulated per-item clock).
    /// `staged` holds owner segments already read and verified this cycle
    /// (see [`Scdn::simulate_fan_in`]).
    fn plan_item(
        &self,
        snap: &CatalogSnapshot,
        item: &WorkItem,
        ranked: &[NodeId],
        staged: &[(SegmentId, Segment)],
    ) -> MaintainPlan {
        let version = snap.version_of(item.dataset);
        let noop = || MaintainPlan {
            version,
            repos_read: Vec::new(),
            kind: PlanKind::Noop,
        };
        let Some(current) = snap.replicas_of(item.dataset) else {
            return noop();
        };
        match item.target {
            Target::Shrink { drop } => MaintainPlan {
                version,
                repos_read: Vec::new(),
                kind: PlanKind::Shrink { drop },
            },
            Target::Grow { want } => {
                // The serial path (`replicate_to`) checks for a coding
                // spec before comparing replica counts: coded datasets
                // measure durability in blocks, not whole replicas.
                if let Some(spec) = snap.coding_of(item.dataset) {
                    return self.plan_coded(snap, item.dataset, spec, ranked);
                }
                if current.len() >= want {
                    return noop();
                }
                // The serial path looks the owner up and fetches the
                // segment table before any effect; failures there abort
                // with nothing recorded.
                let Some(owner) = self.datasets.get(&item.dataset).map(|m| m.owner) else {
                    return noop();
                };
                let Some(segment_count) = snap.segments_of(item.dataset) else {
                    return noop();
                };
                let segments: Vec<SegmentId> = (0..segment_count)
                    .map(|ordinal| SegmentId {
                        dataset: item.dataset,
                        ordinal,
                    })
                    .collect();
                let mut cands = Vec::new();
                let mut repos_read = Vec::new();
                let mut have = current.len();
                // The serial walk advances the live clock after every
                // online candidate's transfer, so under periodic churn a
                // later candidate's liveness depends on the transfers
                // before it. Replaying that clock here keeps the plan
                // bit-identical to the serial walk even when a transfer
                // straddles an availability boundary.
                let mut sim_clock = self.clock;
                for &cand in ranked {
                    if have >= want {
                        break;
                    }
                    if current.contains(&cand) || cand == owner {
                        continue;
                    }
                    let online = self.is_online_at(cand, sim_clock);
                    let latency_ms = self.engine.topology.latency_ms(owner.index(), cand.index());
                    if !online {
                        cands.push(GrowCand {
                            cand,
                            online,
                            latency_ms,
                            xfer: None,
                        });
                        continue;
                    }
                    repos_read.push((cand.index() as u32, self.repo_epochs[cand.index()]));
                    let xfer = self.simulate_fan_in(owner, cand, &segments, staged);
                    sim_clock = sim_clock.plus_millis(xfer.total_ms as u64);
                    if !xfer.failed {
                        have += 1;
                    }
                    cands.push(GrowCand {
                        cand,
                        online,
                        latency_ms,
                        xfer: Some(xfer),
                    });
                }
                MaintainPlan {
                    version,
                    repos_read,
                    kind: PlanKind::Grow { owner, cands },
                }
            }
        }
    }

    /// Plan the coded repair of one dataset: regenerate the missing
    /// blocks from the owner's plain copy (read-only) and replay the exact
    /// block-shipping walk [`Scdn::restore_coded`] would perform against
    /// the snapshot's inventory — one missing block per accepted
    /// candidate, a failed chain retrying the same block on the next one,
    /// a simulated clock advancing per delivered block.
    fn plan_coded(
        &self,
        snap: &CatalogSnapshot,
        dataset: DatasetId,
        spec: CodingSpec,
        ranked: &[NodeId],
    ) -> MaintainPlan {
        let version = snap.version_of(dataset);
        let noop = |kind| MaintainPlan {
            version,
            repos_read: Vec::new(),
            kind,
        };
        let inventory = snap.coded_inventory_of(dataset);
        let missing = coded_missing(&inventory, &spec);
        if missing.is_empty() {
            return noop(PlanKind::Noop);
        }
        let Some(owner) = self.datasets.get(&dataset).map(|m| m.owner) else {
            return noop(PlanKind::Noop);
        };
        if !self.is_online(owner) {
            return noop(PlanKind::CodedLive);
        }
        // A read failure aborts the serial path before any effect
        // (`restore_coded` errors out of `replicate_to`), so a Noop
        // reproduces it.
        let Some(segments) = snap.segments_of(dataset) else {
            return noop(PlanKind::Noop);
        };
        let owner_epoch = self.repo_epochs[owner.index()];
        let Ok(blocks) = self.regenerate_coded_blocks(dataset, owner, &spec, segments, &missing)
        else {
            return noop(PlanKind::Noop);
        };
        let used: Vec<NodeId> = inventory
            .into_iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(n, _)| n)
            .collect();
        let mut steps = Vec::new();
        let mut repos_read = Vec::new();
        let mut sim_clock = self.clock;
        let mut queue = missing.iter().copied().zip(&blocks);
        let mut next = queue.next();
        for &cand in ranked {
            let Some((block, seg)) = next else { break };
            if cand == owner || used.contains(&cand) {
                continue;
            }
            let online = self.is_online_at(cand, sim_clock);
            let latency_ms = self.engine.topology.latency_ms(owner.index(), cand.index());
            if !online {
                steps.push(CodedStep {
                    cand,
                    online,
                    latency_ms,
                    xfer: None,
                });
                continue;
            }
            repos_read.push((cand.index() as u32, self.repo_epochs[cand.index()]));
            let dst_repo = &self.repos[cand.index()];
            let sim =
                self.engine
                    .simulate_segment(owner.index(), cand.index(), seg.id, seg.len() as u64);
            let attempts = sim.attempts.iter().map(|r| r.outcome).collect();
            // Quota sim mirroring `StorageRepository::store`: an
            // overwrite is size-neutral, a new block must fit.
            let delivered = sim.delivered
                && (dst_repo.contains_in(Partition::Replica, seg.id)
                    || dst_repo.used() + seg.len() as u64 <= dst_repo.capacity());
            if delivered {
                sim_clock = sim_clock.plus_millis(sim.elapsed_ms as u64);
                next = queue.next();
            }
            steps.push(CodedStep {
                cand,
                online,
                latency_ms,
                xfer: Some(CodedXfer {
                    attempts,
                    delivery: delivered.then(|| (block, seg.clone())),
                    elapsed_ms: sim.elapsed_ms,
                    bytes: seg.len() as u64,
                }),
            });
        }
        MaintainPlan {
            version,
            repos_read,
            kind: PlanKind::CodedGrow {
                owner,
                spec,
                steps,
                regenerated: Regenerated {
                    missing,
                    blocks,
                    owner_epoch,
                },
            },
        }
    }

    /// Simulate the full segment fan-in from `owner` to `cand`: retry
    /// chains via the pure failure model, destination quota mirroring
    /// `StorageRepository::store` (an overwrite of a same-partition copy
    /// is size-neutral; a new segment must fit the remaining capacity).
    /// A segment in `staged` — the owner's copy, read through `fetch_any`
    /// earlier in this cycle — is taken from there; every other segment is
    /// read (and verified) from the owner's repository.
    fn simulate_fan_in(
        &self,
        owner: NodeId,
        cand: NodeId,
        segments: &[SegmentId],
        staged: &[(SegmentId, Segment)],
    ) -> GrowXfer {
        let src_repo = &self.repos[owner.index()];
        let dst_repo = &self.repos[cand.index()];
        let capacity = dst_repo.capacity();
        let mut sim_used = dst_repo.used();
        let mut attempts = Vec::new();
        let mut deliveries = Vec::with_capacity(segments.len());
        let mut segment_ms = Vec::with_capacity(segments.len());
        let mut total_bytes = 0u64;
        let mut failed = false;
        for (i, &s) in segments.iter().enumerate() {
            let seg = match staged.get(i) {
                Some((id, seg)) if *id == s => Ok(seg.clone()),
                _ => src_repo.fetch_any(s),
            };
            // A missing/corrupt source aborts before any network attempt,
            // exactly like `transfer_segment_observed`.
            let Ok(seg) = seg else {
                failed = true;
                break;
            };
            let bytes = seg.len() as u64;
            let sim = self
                .engine
                .simulate_segment(owner.index(), cand.index(), s, bytes);
            attempts.extend(sim.attempts.iter().map(|r| r.outcome));
            if !sim.delivered {
                failed = true;
                break;
            }
            // The store happens on the delivered attempt (already
            // tallied above); quota rejection fails the candidate there.
            if !dst_repo.contains_in(Partition::Replica, s) {
                if sim_used + bytes > capacity {
                    failed = true;
                    break;
                }
                sim_used += bytes;
            }
            segment_ms.push(sim.elapsed_ms);
            total_bytes += bytes;
            deliveries.push((s, seg));
        }
        let total_ms = self.engine.aggregate_elapsed_ms(&segment_ms);
        if failed {
            // The serial path stores then rolls back: net repository
            // state is unchanged, so the commit won't store anything.
            deliveries.clear();
        }
        GrowXfer {
            attempts,
            deliveries,
            total_ms,
            total_bytes,
            failed,
        }
    }

    /// The first trigger under which an earlier commit in this cycle
    /// invalidated a grow plan's snapshot, or `None` while it is fresh.
    fn grow_plan_stale(
        &self,
        dataset: DatasetId,
        version: Option<u64>,
        repos_read: &[(u32, u64)],
        planned_clock: SimTime,
    ) -> Option<ReplanCause> {
        if self.alloc.catalog_version(dataset) != version {
            Some(ReplanCause::Entry)
        } else if repos_read
            .iter()
            .any(|&(r, e)| self.repo_epochs[r as usize] != e)
        {
            Some(ReplanCause::RepoEpoch)
        } else if self.clock != planned_clock
            && matches!(self.availability, Availability::Periodic(_))
        {
            Some(ReplanCause::Clock)
        } else {
            None
        }
    }

    /// Count one re-plan under its cause.
    fn count_replan(&self, cause: ReplanCause) {
        self.maintain_replanned.inc();
        self.maintain_replan_causes[cause as usize].inc();
    }

    /// Commit one work item in the serial order, re-planning from live
    /// state when the snapshot went stale. Returns the replica changes
    /// this item made.
    fn commit_item(
        &mut self,
        item: &WorkItem,
        plan: MaintainPlan,
        planned_clock: SimTime,
    ) -> usize {
        let MaintainPlan {
            version,
            repos_read,
            kind,
        } = plan;
        match kind {
            PlanKind::Noop => {
                // A noop whose entry moved replays from live state.
                if self.alloc.catalog_version(item.dataset) != version {
                    self.count_replan(ReplanCause::Entry);
                    return self.commit_item_live(item);
                }
                self.maintain_committed.inc();
                0
            }
            PlanKind::Shrink { drop } => {
                // Victim selection runs against live state either way —
                // the serial loop also re-reads the replica list at item
                // time — so a shrink plan is never stale.
                self.maintain_committed.inc();
                let shed = self.shed_replicas(item.dataset, drop);
                for &v in &shed {
                    self.repo_epochs[v.index()] += 1;
                }
                shed.len()
            }
            PlanKind::Grow { owner, cands } => {
                if let Some(cause) =
                    self.grow_plan_stale(item.dataset, version, &repos_read, planned_clock)
                {
                    self.count_replan(cause);
                    return self.replan_grow(item, cands);
                }
                self.maintain_committed.inc();
                self.apply_grow(item.dataset, owner, cands)
            }
            PlanKind::CodedGrow {
                owner,
                spec,
                steps,
                regenerated,
            } => {
                if let Some(cause) =
                    self.grow_plan_stale(item.dataset, version, &repos_read, planned_clock)
                {
                    self.count_replan(cause);
                    return self.commit_coded_stale(item, owner, spec, regenerated);
                }
                self.maintain_committed.inc();
                self.apply_coded(item.dataset, owner, spec, steps)
            }
            PlanKind::CodedLive => {
                // Always executes against live state (like Shrink): the
                // reconstruct path's donor reads are inherently live.
                self.maintain_committed.inc();
                self.commit_item_live(item)
            }
        }
    }

    /// Re-run a stale item from live committed state — exactly the
    /// serial loop's view — bumping the epochs of the repositories it
    /// mutates.
    fn commit_item_live(&mut self, item: &WorkItem) -> usize {
        match item.target {
            Target::Grow { want } => {
                let added = self.replicate_to(item.dataset, want).unwrap_or_default();
                for &n in &added {
                    self.repo_epochs[n.index()] += 1;
                }
                added.len()
            }
            Target::Shrink { drop } => {
                let shed = self.shed_replicas(item.dataset, drop);
                for &v in &shed {
                    self.repo_epochs[v.index()] += 1;
                }
                shed.len()
            }
        }
    }

    /// Commit a grow whose plan went stale: plan it again against a fresh
    /// snapshot at the live clock and apply that plan at once, so it is
    /// exactly what [`Scdn::replicate_to`] would do from live state. The
    /// re-plan takes the owner's segments from the stale plan's delivered
    /// payload, when it has one, instead of reading and digesting them
    /// again.
    fn replan_grow(&mut self, item: &WorkItem, stale: Vec<GrowCand>) -> usize {
        let staged = stale
            .into_iter()
            .filter_map(|c| c.xfer)
            .map(|x| x.deliveries)
            .find(|d| !d.is_empty())
            .unwrap_or_default();
        let snap = self.alloc.snapshot();
        // Rank only when the item still grows, where `replicate_to` does:
        // an item already at target (or gone) changes nothing.
        let grows = matches!(item.target, Target::Grow { want }
            if snap.replicas_of(item.dataset).is_some_and(|r| r.len() < want));
        if !grows {
            return 0;
        }
        let ranked = self.placement_ranking();
        match self.plan_item(&snap, item, &ranked, &staged).kind {
            PlanKind::Grow { owner, cands } => {
                if !staged.is_empty() && cands.iter().any(|c| c.xfer.is_some()) {
                    self.replans_kept_payload.inc();
                }
                self.apply_grow(item.dataset, owner, cands)
            }
            // No segment table: `replicate_to` fails before any effect.
            _ => 0,
        }
    }

    /// Commit a coded repair whose plan went stale. What the plan read of
    /// the *destinations* (inventory hosts, candidate liveness and quotas)
    /// is gone, but the blocks it regenerated are still exactly what the
    /// live path would regenerate when the same blocks are missing, the
    /// owner is still online, and the owner's repository epoch has not
    /// moved — then only the live block-shipping walk re-runs, with the
    /// staged blocks. Anything else replays the item from live state.
    fn commit_coded_stale(
        &mut self,
        item: &WorkItem,
        owner: NodeId,
        spec: CodingSpec,
        staged: Regenerated,
    ) -> usize {
        let live_missing = self
            .alloc
            .coded_inventory(item.dataset)
            .map(|inventory| coded_missing(&inventory, &spec));
        if live_missing.as_deref() != Ok(&staged.missing[..])
            || !self.is_online(owner)
            || self.repo_epochs[owner.index()] != staged.owner_epoch
        {
            return self.commit_item_live(item);
        }
        self.coded_replans_kept_blocks.inc();
        let added = self
            .ship_coded_blocks(item.dataset, owner, &spec, &staged.missing, &staged.blocks)
            .unwrap_or_default();
        for &n in &added {
            self.repo_epochs[n.index()] += 1;
        }
        added.len()
    }

    /// Apply a fresh grow plan's effects in the serial per-candidate
    /// order: hosting-request records, attempt counters, stores with
    /// rollback, exchange/byte accounting, clock advance, catalog and
    /// cache updates, closing redundancy sample.
    fn apply_grow(&mut self, dataset: DatasetId, owner: NodeId, cands: Vec<GrowCand>) -> usize {
        let mut added = 0usize;
        for c in cands {
            self.social_metrics.record_hosting_request(
                c.online,
                c.online.then(|| SimTime::from_millis(c.latency_ms as u64)),
            );
            let Some(x) = c.xfer else {
                continue;
            };
            x.attempts.iter().for_each(|&a| self.count_attempt(a));
            let mut failed = x.failed;
            if !failed {
                let dst_repo = self.repos[c.cand.index()].clone();
                let mut applied_new: Vec<SegmentId> = Vec::new();
                for (id, seg) in &x.deliveries {
                    let pre_existing = dst_repo.contains_in(Partition::Replica, *id);
                    match dst_repo.store(Partition::Replica, seg.clone()) {
                        Ok(()) => {
                            if !pre_existing {
                                applied_new.push(*id);
                            }
                        }
                        Err(_) => {
                            // Unreachable while the staleness triggers
                            // cover every quota the plan simulated; fail
                            // the candidate gracefully if they ever miss.
                            debug_assert!(false, "non-stale maintain plan stores cannot fail");
                            failed = true;
                            break;
                        }
                    }
                }
                if failed {
                    for &s in &applied_new {
                        let _ = dst_repo.remove(Partition::Replica, s, false);
                    }
                }
            }
            self.social_metrics.record_exchange(
                owner.index(),
                c.cand.index(),
                x.total_bytes,
                !failed,
            );
            self.cdn_metrics.bytes_transferred += x.total_bytes;
            self.clock = self.clock.plus_millis(x.total_ms as u64);
            if failed {
                continue;
            }
            let _ = self.alloc.add_replica(dataset, c.cand);
            let cache = &mut self.caches[c.cand.index()];
            for &(id, _) in &x.deliveries {
                cache.set_pinned(id, true);
            }
            self.repo_epochs[c.cand.index()] += 1;
            added += 1;
        }
        let replica_count = self
            .alloc
            .replicas_of(dataset)
            .map(|r| r.len())
            .unwrap_or(0);
        self.cdn_metrics.redundancy.record(replica_count as f64);
        added
    }

    /// Apply a fresh coded plan's effects in the serial per-candidate
    /// order — the commit-side mirror of [`Scdn::ship_coded_blocks`]:
    /// hosting-request records, attempt counters, single-block store,
    /// exchange/byte accounting, clock advance (successful chains only),
    /// catalog inventory update, cache pin, closing durability sample.
    fn apply_coded(
        &mut self,
        dataset: DatasetId,
        owner: NodeId,
        spec: CodingSpec,
        steps: Vec<CodedStep>,
    ) -> usize {
        let mut added = 0usize;
        for s in steps {
            self.social_metrics.record_hosting_request(
                s.online,
                s.online.then(|| SimTime::from_millis(s.latency_ms as u64)),
            );
            let Some(x) = s.xfer else {
                continue;
            };
            x.attempts.iter().for_each(|&a| self.count_attempt(a));
            let Some((block, seg)) = x.delivery else {
                // Retries exhausted or quota overflow: the serial path
                // charges neither bytes nor clock and burns the
                // candidate.
                self.social_metrics
                    .record_exchange(owner.index(), s.cand.index(), 0, false);
                continue;
            };
            let dst_repo = self.repos[s.cand.index()].clone();
            let id = seg.id;
            if dst_repo.store(Partition::Replica, seg).is_err() {
                // Unreachable while the staleness triggers cover every
                // quota the plan simulated; fail the candidate gracefully
                // if they ever miss.
                debug_assert!(false, "non-stale coded plan stores cannot fail");
                self.social_metrics
                    .record_exchange(owner.index(), s.cand.index(), 0, false);
                continue;
            }
            self.social_metrics
                .record_exchange(owner.index(), s.cand.index(), x.bytes, true);
            self.cdn_metrics.bytes_transferred += x.bytes;
            self.clock = self.clock.plus_millis(x.elapsed_ms as u64);
            let _ = self.alloc.add_coded_blocks(dataset, s.cand, &[block]);
            self.caches[s.cand.index()].set_pinned(id, true);
            self.repo_epochs[s.cand.index()] += 1;
            added += 1;
        }
        self.record_coded_redundancy(dataset, &spec);
        added
    }
}
