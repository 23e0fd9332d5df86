//! Batched request pipeline: parallel read-only *plan* phase, strictly
//! ordered *commit* phase.
//!
//! [`Scdn::request_batch`] splits the old monolithic `request` state
//! machine in two:
//!
//! * **Plan** — embarrassingly parallel over the batch, and entirely
//!   lock-free on the catalog: one [`CatalogSnapshot`] is loaded for the
//!   whole batch (`core.batch.snapshot_reuse` counts the amortization)
//!   and every worker plans against it. Each worker runs authenticate
//!   (read-only [`Middleware::peek_op`][peek]) → policy check →
//!   discover/select (quiet [`resolve_csr_snapshot`][planned], asking
//!   candidate liveness at the batch-entry clock) → simulated
//!   transfer timing ([`TransferEngine::simulate_segment`], a pure hash
//!   of endpoints × segment × attempt, so planning order cannot change
//!   outcomes). The result is a [`RequestPlan`]: the outcome body, the
//!   chosen replica, the fetched segment payloads, the exact trace-span
//!   sequence — and the staleness tokens below — with no shared
//!   mutation.
//!
//! * **Commit** — applies plans on the calling thread in submission
//!   order: authoritative session-budget consumption, audit trail,
//!   resolve/demand accounting, repository stores, cache touches and
//!   opportunistic promotion, Cdn/Social metrics, trace records, clock
//!   advance. A commit re-plans its request (from live state, at the
//!   current clock) only when an earlier commit invalidated its
//!   snapshot: the catalog shard the resolution read republished (its
//!   [`ShardStamp`] went stale), the requester's repository epoch
//!   advanced, the clock advanced under a time-dependent availability
//!   model or trust policy, or the session budget ran out mid-batch.
//!   When the requester's repository epoch is the *only* cause, the
//!   re-plan is partial: the resolution, the trace prefix, the payloads
//!   already fetched and verified from the source and their simulated
//!   retry chains are kept, and only the destination quota walk re-runs
//!   against the live repository (`replan_destination`).
//!
//! Determinism argument: every plan is a pure function of the snapshot it
//! was computed against; every effect is applied at commit, in submission
//! order; and every snapshot ingredient a plan read is covered by a
//! staleness trigger — a **version vector** in two halves: the catalog
//! shard epoch for replica sets and cache contents (a plan records the
//! stamp of the shard it resolved against; any commit that republishes
//! that shard invalidates it), and per-node repository epochs for
//! quota/pre-existing checks (a commit that stores into a repository
//! bumps its epoch). The clock covers churn and trust windows, and
//! commit-time `authorize_op` covers session budgets. Shard stamps are
//! deliberately coarser than the per-entry catalog versions of earlier
//! revisions: a commit to *another* dataset in the same shard triggers a
//! false-positive replan — recomputed from committed state, which is
//! exactly what the serial loop would have seen, so outcomes are
//! unchanged (the equivalence proptests drive shard counts down to 1 to
//! force these collisions). A stale plan is recomputed from committed
//! state — wholly, or, when only the requester's repository moved, in
//! the one part that read it — so a batched run is bit-identical to
//! issuing the same requests one `request` at a time under a fixed seed.
//! `request` itself is a batch of one through this same pipeline.
//!
//! [peek]: scdn_middleware::auth::Middleware::peek_op
//! [planned]: scdn_alloc::server::AllocationServer::resolve_csr_snapshot
//! [`TransferEngine::simulate_segment`]: scdn_net::transfer::TransferEngine::simulate_segment

use scdn_alloc::discovery::Selection;
use scdn_alloc::server::AllocationError;
use scdn_alloc::{CatalogSnapshot, ShardStamp};
use scdn_graph::parallel::par_map_collect;
use scdn_graph::NodeId;
use scdn_middleware::auth::MiddlewareError;
use scdn_middleware::authz::AccessDecision;
use scdn_net::failure::AttemptOutcome;
use scdn_net::transfer::{SegmentSim, TransferError};
use scdn_obs::{SpanKind, SpanStatus, TraceBuilder};
use scdn_sim::engine::SimTime;
use scdn_social::platform::UserId;
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, RepoError};

use super::{attempt_status, elapsed_ms, Availability, RequestOutcome, Scdn, ScdnError};

/// One deferred trace operation, replayed into a [`TraceBuilder`] at
/// commit time. Transfer attempts are not copied in here: they replay
/// from the plan's [`Fetched`] list.
enum TraceOp {
    Span {
        kind: SpanKind,
        status: SpanStatus,
        duration_ms: f64,
    },
    SpanPeer {
        kind: SpanKind,
        status: SpanStatus,
        duration_ms: f64,
        peer: u32,
    },
}

/// One segment of a planned transfer as far as the serving side and the
/// network decide it: the checksum-verified payload fetched from the
/// source and its simulated retry chain. Nothing in it reads the
/// requester's repository, so it outlives a re-plan forced only by the
/// requester's repository epoch.
struct Fetched {
    seg: Segment,
    sim: SegmentSim,
}

/// Where a planned request ended up, with everything the commit phase
/// needs to apply (or surface) it.
enum PlanBody {
    /// Node index outside the membership (no trace is begun — mirrors the
    /// serial early return).
    UnknownNode,
    /// The session failed the read-only authentication preview.
    AuthFailed(MiddlewareError),
    /// Dataset not in the runtime's policy table.
    UnknownDataset,
    /// Policy denied the requester.
    AccessDenied {
        user: UserId,
        decision: AccessDecision,
    },
    /// Discovery found no online replica.
    ResolveFailed {
        user: UserId,
        decision: AccessDecision,
        error: AllocationError,
    },
    /// A replica was selected but the social-boundary rule blocks it.
    BoundaryBlocked {
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
    },
    /// The catalog lost the segment table between selection and transfer
    /// (unreachable in practice; mirrors the serial `?` that abandons the
    /// trace builder unrecorded).
    SegmentsUnavailable {
        user: UserId,
        decision: AccessDecision,
        error: ScdnError,
    },
    /// The simulated transfer failed permanently. `fetched` holds every
    /// segment whose retry chain ran, the failing one included (unless
    /// the source fetch itself failed).
    TransferFailed {
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
        segments: Vec<SegmentId>,
        fetched: Vec<Fetched>,
        error: TransferError,
    },
    /// Delivered (or self-served, with nothing fetched): payloads staged
    /// for the commit-side stores.
    Served {
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
        segments: Vec<SegmentId>,
        fetched: Vec<Fetched>,
        total_ms: f64,
        total_bytes: u64,
    },
}

/// What an earlier commit did to a plan.
enum Staleness {
    /// Nothing the plan read has changed.
    Fresh,
    /// Only the requester's repository moved: the resolution, the fetched
    /// payloads and their simulated attempts stand, the destination quota
    /// walk does not.
    Destination,
    /// The resolution itself may differ: re-plan from live state.
    Full,
}

/// A fully planned request: pure output of the parallel phase.
struct RequestPlan {
    node: NodeId,
    dataset: DatasetId,
    /// Stamp of the catalog shard the resolution read (`None` before
    /// resolution was attempted) — the catalog half of the commit-side
    /// staleness vector. Valid even when the dataset is unregistered:
    /// registering it would republish this same shard.
    stamp: Option<ShardStamp>,
    /// The requester's repository epoch at plan time — the repository
    /// half of the staleness vector (quota + pre-existing checks).
    repo_epoch: u64,
    /// Deferred trace ops in emission order (terminal span excluded; the
    /// body implies it).
    trace: Vec<TraceOp>,
    body: PlanBody,
}

impl Scdn {
    /// Serve a batch of requests: plan all of them in parallel against an
    /// immutable snapshot (social CSR, catalog read view, session/policy
    /// state, liveness at the batch-entry clock), then commit the plans
    /// strictly in submission order. Results are positionally parallel to
    /// `reqs`.
    ///
    /// Under a fixed seed the outcomes, metrics, audit trail, and trace
    /// span sequences are bit-identical to calling
    /// [`request`](Scdn::request) once per entry in order — see the module
    /// docs for the determinism argument.
    pub fn request_batch(
        &mut self,
        reqs: &[(NodeId, DatasetId)],
    ) -> Vec<Result<RequestOutcome, ScdnError>> {
        let planned_clock = self.clock;
        // One catalog snapshot serves every planner in the batch: after
        // this load the plan phase acquires no catalog lock at all.
        let snap = self.alloc.snapshot();
        self.batch_snapshot_reuse
            .add(reqs.len().saturating_sub(1) as u64);
        let plans: Vec<RequestPlan> = {
            let this: &Scdn = self;
            let snap = &snap;
            par_map_collect(reqs.len(), 8, |i| {
                let (node, dataset) = reqs[i];
                if node.index() >= this.repos.len() {
                    return RequestPlan {
                        node,
                        dataset,
                        stamp: None,
                        repo_epoch: 0,
                        trace: Vec::new(),
                        body: PlanBody::UnknownNode,
                    };
                }
                let auth = this.middleware.peek_op(this.sessions[node.index()]);
                this.plan_after_auth(snap, node, dataset, auth, planned_clock)
            })
        };
        plans
            .into_iter()
            .map(|p| self.commit_plan(p, planned_clock))
            .collect()
    }

    /// Plan one request given an authentication result. Read-only: safe
    /// from parallel planning workers (shared catalog snapshot, liveness
    /// and policy evaluated at the batch-entry `clock`) and reused for
    /// commit-side re-planning (fresh snapshot — identical to live state
    /// on the single commit thread — live clock, authoritative auth
    /// result). Departures cannot interleave with a batch, so `clock` is
    /// all that separates the planned liveness view from the live one.
    fn plan_after_auth(
        &self,
        snap: &CatalogSnapshot,
        node: NodeId,
        dataset: DatasetId,
        auth: Result<UserId, MiddlewareError>,
        clock: SimTime,
    ) -> RequestPlan {
        let repo_epoch = self.repo_epochs[node.index()];
        let mut trace: Vec<TraceOp> = Vec::new();
        let plan = |stamp, trace, body| RequestPlan {
            node,
            dataset,
            stamp,
            repo_epoch,
            trace,
            body,
        };
        let auth_start = std::time::Instant::now();
        let user = match auth {
            Ok(u) => u,
            Err(e) => {
                trace.push(TraceOp::Span {
                    kind: SpanKind::Authenticate,
                    status: SpanStatus::Denied,
                    duration_ms: elapsed_ms(auth_start),
                });
                return plan(None, trace, PlanBody::AuthFailed(e));
            }
        };
        let Some(meta) = self.datasets.get(&dataset) else {
            trace.push(TraceOp::Span {
                kind: SpanKind::Authenticate,
                status: SpanStatus::Ok,
                duration_ms: elapsed_ms(auth_start),
            });
            trace.push(TraceOp::Span {
                kind: SpanKind::Discover,
                status: SpanStatus::Error,
                duration_ms: 0.0,
            });
            return plan(None, trace, PlanBody::UnknownDataset);
        };
        let decision = meta.policy.check(
            &self.platform,
            user,
            Some(self.authors[node.index()]),
            &self.trust_model,
            &self.ledger,
            clock.as_secs_f64(),
        );
        if !decision.allowed() {
            trace.push(TraceOp::Span {
                kind: SpanKind::Authenticate,
                status: SpanStatus::Denied,
                duration_ms: elapsed_ms(auth_start),
            });
            return plan(None, trace, PlanBody::AccessDenied { user, decision });
        }
        trace.push(TraceOp::Span {
            kind: SpanKind::Authenticate,
            status: SpanStatus::Ok,
            duration_ms: elapsed_ms(auth_start),
        });
        let topology = &self.engine.topology;
        let discover_start = std::time::Instant::now();
        // Quiet CSR resolution against the shared snapshot: selection
        // identical to `resolve_csr`, zero catalog locks, and the
        // resolve/demand accounting is deferred to the commit.
        let (resolved, stamp) = self.alloc.resolve_csr_snapshot(
            snap,
            dataset,
            node,
            &self.social_csr,
            |n| self.is_online_at(n, clock),
            |n| topology.latency_ms(node.index(), n.index()),
        );
        let stamp = Some(stamp);
        let selection = match resolved {
            Ok(sel) => sel,
            Err(error) => {
                trace.push(TraceOp::Span {
                    kind: SpanKind::Discover,
                    status: SpanStatus::NoReplica,
                    duration_ms: elapsed_ms(discover_start),
                });
                return plan(
                    stamp,
                    trace,
                    PlanBody::ResolveFailed {
                        user,
                        decision,
                        error,
                    },
                );
            }
        };
        trace.push(TraceOp::Span {
            kind: SpanKind::Discover,
            status: SpanStatus::Ok,
            duration_ms: elapsed_ms(discover_start),
        });
        if self.config.enforce_social_boundary
            && selection.node != node
            && self.overlay.route(selection.node, node).is_none()
        {
            trace.push(TraceOp::SpanPeer {
                kind: SpanKind::SelectReplica,
                status: SpanStatus::BoundaryBlocked,
                duration_ms: 0.0,
                peer: selection.node.0,
            });
            return plan(
                stamp,
                trace,
                PlanBody::BoundaryBlocked {
                    user,
                    decision,
                    selection,
                },
            );
        }
        trace.push(TraceOp::SpanPeer {
            kind: SpanKind::SelectReplica,
            status: SpanStatus::Ok,
            duration_ms: 0.0,
            peer: selection.node.0,
        });
        // Segment table from the same snapshot the resolution used — no
        // catalog lock, and trivially consistent with the replica set.
        let segments = match snap.segments_of(dataset) {
            Some(n) => (0..n)
                .map(|ordinal| SegmentId { dataset, ordinal })
                .collect::<Vec<_>>(),
            None => {
                return plan(
                    stamp,
                    trace,
                    PlanBody::SegmentsUnavailable {
                        user,
                        decision,
                        error: ScdnError::Alloc(AllocationError::UnknownDataset(dataset)),
                    },
                );
            }
        };
        let body = self.plan_transfer(
            node,
            user,
            decision,
            selection,
            segments,
            &meta.segment_digests,
            Vec::new(),
        );
        plan(stamp, trace, body)
    }

    /// Plan the transfer of `segments` from the selected replica: per
    /// segment, fetch from the source (verify-on-read), simulate the retry
    /// chain, refuse a delivered segment whose checksum is not the
    /// owner's digest in `recorded`, then simulate the destination quota.
    /// `prior` is the [`Fetched`] list of an earlier walk of this same
    /// selection; its entries stand in for the fetch and the simulation
    /// (both are independent of the requester's repository), and past its
    /// end the walk fetches live — so a re-walk can end earlier, later or
    /// differently than the first one did.
    #[allow(clippy::too_many_arguments)]
    fn plan_transfer(
        &self,
        node: NodeId,
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
        segments: Vec<SegmentId>,
        recorded: &[Checksum],
        prior: Vec<Fetched>,
    ) -> PlanBody {
        if selection.node == node {
            // Self-service: the requester already holds a replica.
            return PlanBody::Served {
                user,
                decision,
                selection,
                segments,
                fetched: Vec::new(),
                total_ms: 0.0,
                total_bytes: 0,
            };
        }
        let src_repo = &self.repos[selection.node.index()];
        let dst_repo = &self.repos[node.index()];
        let mut prior = prior.into_iter();
        let mut fetched = Vec::with_capacity(segments.len());
        let mut segment_ms = Vec::with_capacity(segments.len());
        let mut total_bytes = 0u64;
        // Quota simulation mirroring `StorageRepository::store`: an
        // overwrite of a pre-existing copy is size-neutral (one dataset
        // has one segmentation), a new segment must fit what remains.
        let capacity = dst_repo.capacity();
        let mut sim_used = dst_repo.used();
        let mut failure = None;
        for &s in &segments {
            let f = match prior.next() {
                Some(f) => f,
                None => match src_repo.fetch_any(s) {
                    Ok(seg) => {
                        let sim = self.engine.simulate_segment(
                            selection.node.index(),
                            node.index(),
                            s,
                            seg.len() as u64,
                        );
                        Fetched { seg, sim }
                    }
                    Err(RepoError::IntegrityFailure(id)) => {
                        failure = Some(TransferError::SourceCorrupt(id));
                        break;
                    }
                    Err(_) => {
                        failure = Some(TransferError::SourceMissing(s));
                        break;
                    }
                },
            };
            let bytes = f.seg.len() as u64;
            let (delivered, elapsed_ms) = (f.sim.delivered, f.sim.elapsed_ms);
            let forged = recorded.get(s.ordinal as usize) != Some(&f.seg.checksum);
            fetched.push(f);
            if !delivered {
                failure = Some(TransferError::RetriesExhausted {
                    segment: s,
                    attempts: self.engine.max_attempts,
                });
                break;
            }
            if forged {
                // Delivered, then refused: the source rewrote the segment
                // under a digest of its own.
                failure = Some(TransferError::SourceCorrupt(s));
                break;
            }
            if !dst_repo.contains_in(Partition::User, s) {
                if sim_used + bytes > capacity {
                    // The delivered attempt was already observed (span
                    // recorded) before the destination rejected it —
                    // exactly the serial store-after-observe order.
                    failure = Some(TransferError::Destination(RepoError::QuotaExceeded {
                        needed: bytes,
                        available: capacity - sim_used,
                    }));
                    break;
                }
                sim_used += bytes;
            }
            segment_ms.push(elapsed_ms);
            total_bytes += bytes;
        }
        if let Some(error) = failure {
            return PlanBody::TransferFailed {
                user,
                decision,
                selection,
                segments,
                fetched,
                error,
            };
        }
        // Segments move in waves of `concurrency` parallel streams; with
        // concurrency 1 this is the serial sum of per-segment times.
        let total_ms = self.engine.aggregate_elapsed_ms(&segment_ms);
        PlanBody::Served {
            user,
            decision,
            selection,
            segments,
            fetched,
            total_ms,
            total_bytes,
        }
    }

    /// Re-plan only what the requester's repository decides. The plan is
    /// stale on its repository epoch alone ([`Staleness::Destination`]),
    /// so everything else it read still matches committed state: the
    /// resolution and segment table (shard stamp current), the
    /// serving-side repository (mutated only through catalog operations,
    /// which republish that shard), the retry chains (a pure hash of
    /// endpoints × segment × attempt) and the clock-dependent inputs. Its
    /// trace prefix and verified payloads are therefore kept, and the
    /// quota walk alone re-runs against the live repository.
    fn replan_destination(&self, plan: RequestPlan) -> RequestPlan {
        let RequestPlan {
            node,
            dataset,
            stamp,
            trace,
            body,
            ..
        } = plan;
        let body = match body {
            PlanBody::TransferFailed {
                user,
                decision,
                selection,
                segments,
                fetched,
                ..
            }
            | PlanBody::Served {
                user,
                decision,
                selection,
                segments,
                fetched,
                ..
            } => {
                let meta = self
                    .datasets
                    .get(&dataset)
                    .expect("a planned transfer's dataset is published");
                self.plan_transfer(
                    node,
                    user,
                    decision,
                    selection,
                    segments,
                    &meta.segment_digests,
                    fetched,
                )
            }
            // No other body reads the requester's repository.
            other => other,
        };
        RequestPlan {
            node,
            dataset,
            stamp,
            repo_epoch: self.repo_epochs[node.index()],
            trace,
            body,
        }
    }

    /// Re-plan from live committed state (current clock, authoritative
    /// auth result). The fresh snapshot *is*
    /// live state: commits run single-threaded, so nothing can republish
    /// between this load and the plan's application.
    fn plan_live(
        &self,
        node: NodeId,
        dataset: DatasetId,
        auth: Result<UserId, MiddlewareError>,
    ) -> RequestPlan {
        let snap = self.alloc.snapshot();
        self.plan_after_auth(&snap, node, dataset, auth, self.clock)
    }

    /// `true` if the policy decision for `dataset` can change as the
    /// clock moves (trust windows decay over time).
    fn policy_is_time_dependent(&self, dataset: DatasetId) -> bool {
        self.datasets
            .get(&dataset)
            .is_some_and(|m| m.policy.trust.is_some())
    }

    /// `true` if the snapshot a resolution-bearing plan was computed
    /// against no longer matches committed state: the catalog shard the
    /// resolution read has republished (any replica-set change in it —
    /// possibly another dataset's, in which case the replan reproduces
    /// the same selection), or a time-dependent input moved with the
    /// clock.
    fn resolution_stale(&self, plan: &RequestPlan, clock_moved: bool) -> bool {
        plan.stamp.is_some_and(|st| !self.alloc.stamp_current(st))
            || (clock_moved
                && (matches!(self.availability, Availability::Periodic(_))
                    || self.policy_is_time_dependent(plan.dataset)))
    }

    /// Decide what an earlier commit invalidated of `plan`.
    fn staleness(&self, plan: &RequestPlan, planned_clock: SimTime) -> Staleness {
        let clock_moved = self.clock != planned_clock;
        let full_if = |stale| {
            if stale {
                Staleness::Full
            } else {
                Staleness::Fresh
            }
        };
        match &plan.body {
            // Node membership and the dataset policy table are immutable
            // within a batch.
            PlanBody::UnknownNode | PlanBody::UnknownDataset => Staleness::Fresh,
            // Only asked once the authoritative check has passed: the
            // preview's refusal holds nothing to keep.
            PlanBody::AuthFailed(_) => Staleness::Full,
            PlanBody::AccessDenied { .. } => {
                full_if(clock_moved && self.policy_is_time_dependent(plan.dataset))
            }
            PlanBody::ResolveFailed { .. }
            | PlanBody::BoundaryBlocked { .. }
            | PlanBody::SegmentsUnavailable { .. } => {
                full_if(self.resolution_stale(plan, clock_moved))
            }
            // Transfer outcomes additionally read the requester's
            // repository (quota + pre-existing checks), covered by its
            // epoch. Serving-side repositories are only mutated through
            // catalog operations, which the shard stamp already covers.
            PlanBody::TransferFailed { .. } | PlanBody::Served { .. } => {
                if self.resolution_stale(plan, clock_moved) {
                    Staleness::Full
                } else if self.repo_epochs[plan.node.index()] != plan.repo_epoch {
                    Staleness::Destination
                } else {
                    Staleness::Fresh
                }
            }
        }
    }

    /// Replay deferred trace ops into a live builder.
    fn replay_trace(&self, tb: &mut TraceBuilder, ops: &[TraceOp]) {
        for op in ops {
            match *op {
                TraceOp::Span {
                    kind,
                    status,
                    duration_ms,
                } => tb.span(kind, status, duration_ms),
                TraceOp::SpanPeer {
                    kind,
                    status,
                    duration_ms,
                    peer,
                } => tb.span_with_peer(kind, status, duration_ms, peer),
            }
        }
    }

    /// Replay the simulated transfer attempts of a plan into a live
    /// builder, driving the `net.attempts.*` counters exactly as the
    /// serial observer did.
    fn replay_attempts(&self, tb: &mut TraceBuilder, peer: u32, fetched: &[Fetched]) {
        for rec in fetched.iter().flat_map(|f| &f.sim.attempts) {
            match rec.outcome {
                AttemptOutcome::Delivered => self.att_delivered.inc(),
                AttemptOutcome::Lost => self.att_lost.inc(),
                AttemptOutcome::Corrupted => self.att_corrupted.inc(),
            }
            tb.attempt(
                attempt_status(rec.outcome),
                rec.duration_ms,
                rec.attempt,
                peer,
            );
        }
    }

    /// Commit one plan: authoritative auth, staleness check (re-plan if an
    /// earlier commit invalidated the snapshot), then effect application
    /// in the serial order.
    fn commit_plan(
        &mut self,
        plan: RequestPlan,
        planned_clock: SimTime,
    ) -> Result<RequestOutcome, ScdnError> {
        let node = plan.node;
        let dataset = plan.dataset;
        if matches!(plan.body, PlanBody::UnknownNode) {
            return Err(ScdnError::UnknownNode(node));
        }
        let mut tb = self.traces.begin(node.0, dataset.0);
        // Authoritative authentication: consumes one op from the session
        // budget and expires the session at zero, exactly like the serial
        // path. The plan's read-only preview cannot have done either.
        let user = match self.middleware.authorize_op(self.sessions[node.index()]) {
            Ok(u) => u,
            Err(e) => {
                if matches!(plan.body, PlanBody::AuthFailed(_)) {
                    self.replay_trace(&mut tb, &plan.trace);
                } else {
                    // The plan saw a live session that an earlier commit
                    // in this batch exhausted.
                    tb.span(SpanKind::Authenticate, SpanStatus::Denied, 0.0);
                }
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Denied));
                return Err(ScdnError::Auth(e));
            }
        };
        let mut plan = match self.staleness(&plan, planned_clock) {
            Staleness::Fresh => plan,
            Staleness::Destination => {
                self.batch_replans.inc();
                self.replan_destination(plan)
            }
            Staleness::Full => {
                self.batch_replans.inc();
                self.plan_live(node, dataset, Ok(user))
            }
        };
        let mut store_failures = 0u32;
        loop {
            match self.apply_plan(tb, plan) {
                Ok(result) => return result,
                Err((builder, repo_err)) => {
                    // A commit-side store failed, meaning the staleness
                    // triggers missed a state change. Re-plan from live
                    // state; a fresh plan simulates quota against exactly
                    // the repositories its commit will store into.
                    store_failures += 1;
                    debug_assert!(
                        store_failures <= 1,
                        "fresh plan committed against unchanged state cannot fail its stores"
                    );
                    if store_failures > 3 {
                        self.cdn_metrics.failures += 1;
                        self.traces
                            .record(builder.finish(SpanKind::Fail, SpanStatus::Error));
                        return Err(ScdnError::Transfer(TransferError::Destination(repo_err)));
                    }
                    tb = builder;
                    self.batch_replans.inc();
                    plan = self.plan_live(node, dataset, Ok(user));
                }
            }
        }
    }

    /// Apply a (fresh) plan's effects. Returns the request result, or the
    /// trace builder + repository error if a commit-side store failed (the
    /// caller re-plans; no effect has been applied in that case).
    #[allow(clippy::type_complexity)]
    fn apply_plan(
        &mut self,
        mut tb: TraceBuilder,
        plan: RequestPlan,
    ) -> Result<Result<RequestOutcome, ScdnError>, (TraceBuilder, RepoError)> {
        let node = plan.node;
        let dataset = plan.dataset;
        let trace = plan.trace;
        let at_ms = self.clock.as_millis();
        match plan.body {
            PlanBody::UnknownNode => Ok(Err(ScdnError::UnknownNode(node))),
            PlanBody::AuthFailed(e) => {
                self.replay_trace(&mut tb, &trace);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Denied));
                Ok(Err(ScdnError::Auth(e)))
            }
            PlanBody::UnknownDataset => {
                self.replay_trace(&mut tb, &trace);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Error));
                Ok(Err(ScdnError::Alloc(AllocationError::UnknownDataset(
                    dataset,
                ))))
            }
            PlanBody::AccessDenied { user, decision } => {
                self.audit.record(at_ms, user, dataset, decision.clone());
                self.replay_trace(&mut tb, &trace);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Denied));
                Ok(Err(ScdnError::Access(decision)))
            }
            PlanBody::ResolveFailed {
                user,
                decision,
                error,
            } => {
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc.commit_resolution(dataset, None);
                self.cdn_metrics.failures += 1;
                self.replay_trace(&mut tb, &trace);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::NoReplica));
                Ok(Err(ScdnError::Alloc(error)))
            }
            PlanBody::BoundaryBlocked {
                user,
                decision,
                selection,
            } => {
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc
                    .commit_resolution(dataset, Some(selection.social_hops));
                self.cdn_metrics.failures += 1;
                self.replay_trace(&mut tb, &trace);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::BoundaryBlocked));
                Ok(Err(ScdnError::Alloc(AllocationError::NoReplicaAvailable(
                    dataset,
                ))))
            }
            PlanBody::SegmentsUnavailable {
                user,
                decision,
                error,
            } => {
                self.audit.record(at_ms, user, dataset, decision);
                // The serial path resolved successfully before the segment
                // lookup failed, then abandoned the trace builder without
                // recording it. `tb` is dropped here for the same reason.
                self.replay_trace(&mut tb, &trace);
                drop(tb);
                Ok(Err(error))
            }
            PlanBody::TransferFailed {
                user,
                decision,
                selection,
                fetched,
                error,
                ..
            } => {
                // The serial path stored the successfully transferred
                // segments and then rolled them back; net repository state
                // is unchanged, so the commit stores nothing.
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc
                    .commit_resolution(dataset, Some(selection.social_hops));
                self.replay_trace(&mut tb, &trace);
                self.replay_attempts(&mut tb, selection.node.0, &fetched);
                if fetched
                    .last()
                    .is_some_and(|f| f.sim.delivered && !self.carries_owner_digest(&f.seg))
                {
                    self.owner_digest_mismatch.inc();
                }
                self.cdn_metrics.failures += 1;
                self.social_metrics
                    .record_exchange(selection.node.index(), node.index(), 0, false);
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Error));
                Ok(Err(ScdnError::Transfer(error)))
            }
            PlanBody::Served {
                user,
                decision,
                selection,
                segments,
                fetched,
                total_ms,
                total_bytes,
            } => {
                // Stores first: if one fails the commit retries with a
                // fresh plan and no effect has been applied yet.
                if selection.node != node {
                    let dst_repo = self.repos[node.index()].clone();
                    let mut applied_new: Vec<SegmentId> = Vec::new();
                    for Fetched { seg, .. } in &fetched {
                        let pre_existing = dst_repo.contains_in(Partition::User, seg.id);
                        match dst_repo.store(Partition::User, seg.clone()) {
                            Ok(()) => {
                                if !pre_existing {
                                    applied_new.push(seg.id);
                                }
                            }
                            Err(e) => {
                                for &d in &applied_new {
                                    let _ = dst_repo.remove(Partition::User, d, true);
                                }
                                return Err((tb, e));
                            }
                        }
                    }
                }
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc
                    .commit_resolution(dataset, Some(selection.social_hops));
                self.replay_trace(&mut tb, &trace);
                self.replay_attempts(&mut tb, selection.node.0, &fetched);
                let hit = matches!(selection.social_hops, Some(h) if h <= 1);
                if hit {
                    self.cdn_metrics.hits += 1;
                } else {
                    self.cdn_metrics.misses += 1;
                }
                self.cdn_metrics
                    .response_time_ms
                    .record(total_ms.max(selection.latency_ms));
                self.cdn_metrics.bytes_transferred += total_bytes;
                if selection.node != node {
                    self.social_metrics.record_exchange(
                        selection.node.index(),
                        node.index(),
                        total_bytes,
                        true,
                    );
                    self.clients[selection.node.index()].record_served(total_bytes);
                    self.repo_epochs[node.index()] += 1;
                }
                // Bump recency/frequency for the serving node's copies.
                self.caches[selection.node.index()].touch_all(segments.iter().copied());
                self.clock = self.clock.plus_millis(total_ms as u64);
                if self.config.opportunistic_caching && selection.node != node {
                    self.promote_opportunistically(node, dataset, &segments);
                }
                self.traces
                    .record(tb.finish(SpanKind::Deliver, SpanStatus::Ok));
                Ok(Ok(RequestOutcome {
                    served_by: selection.node,
                    social_hit: hit,
                    response_ms: total_ms.max(selection.latency_ms),
                    bytes: total_bytes,
                }))
            }
        }
    }
}
