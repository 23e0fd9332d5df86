//! The one request path: a parallel, read-only *plan* phase and a strictly
//! ordered *commit* phase. [`Scdn::request`] is a batch of one through
//! [`Scdn::request_batch`], and `request_coded` forwards to `request`.
//!
//! * **Plan** — parallel over the batch and lock-free on the catalog: one
//!   [`CatalogSnapshot`] serves every worker (`core.batch.snapshot_reuse`
//!   counts the amortization). A worker authenticates (read-only
//!   [`Middleware::peek_op`][peek]), checks the access policy, and then
//!   plans one of two bodies, with liveness asked at the batch-entry clock:
//!   - **Coded** — the dataset has a `CodingSpec`, the requester is not its
//!     owner, and its online block hosts hold at least k distinct blocks.
//!     With the social boundary enforced, only hosts with an overlay route
//!     to the requester count. The plan is the list of donors to race.
//!   - **Resolved** — otherwise: quiet [`resolve_csr_snapshot`][planned]
//!     picks one replica, the social-boundary rule vets it, and the
//!     transfer is simulated ([`TransferEngine::simulate_segment`], a pure
//!     hash of endpoints × segment × attempt) against the requester's
//!     quota, with each payload fetched and verified at the source.
//!
//!   The [`RequestPlan`] carries the body, the trace spans and the
//!   staleness tokens below, and mutates nothing shared.
//! * **Commit** — on the calling thread, in submission order: authoritative
//!   session-budget consumption, the audit record, the body's effects
//!   (resolve/demand accounting, stores, cache touches, opportunistic
//!   promotion, metrics, clock advance), the trace record. A coded body
//!   runs its any-k race here, through the helper the owner-offline rebuild
//!   also uses: the race reads donor repositories while it runs, and which
//!   chain lands the k-th block decides its timing, so no snapshot can
//!   stand in for it without a pure race simulation in `scdn-net`.
//!
//! **Staleness.** A commit re-plans from live state at the current clock
//! when an earlier commit in the batch changed something its plan read:
//! the version of the catalog entry it read moved (replica set, block
//! inventory — and with them the serving repositories' copies, which
//! change only through a catalog operation on that entry); the
//! requester's repository epoch advanced (quota and pre-existing checks);
//! the clock moved under periodic availability or a trust-windowed policy
//! (liveness, policy); or the session budget ran out. When the repository
//! epoch is the only cause, the re-plan is partial (`replan_destination`):
//! the resolution, trace prefix, verified payloads and retry chains stand,
//! and only the quota walk re-runs. A coded plan reads only the catalog
//! entry and the clock, so it is stale exactly when a resolution is.
//! Every re-plan counts in `core.batch.replans` and, under the first
//! trigger that fired, in `core.batch.replan.{entry,repo_epoch,clock,
//! session}` — `session` when the plan's authentication preview failed
//! but the authoritative check passed.
//!
//! **Determinism.** Every plan is a pure function of the snapshot it read,
//! every effect applies at commit in submission order, and every input a
//! plan read is covered by a trigger above, so a batch is bit-identical to
//! issuing its requests one `request` at a time under a fixed seed.
//!
//! [peek]: scdn_middleware::auth::Middleware::peek_op
//! [planned]: scdn_alloc::server::AllocationServer::resolve_csr_snapshot
//! [`TransferEngine::simulate_segment`]: scdn_net::transfer::TransferEngine::simulate_segment

use scdn_alloc::discovery::Selection;
use scdn_alloc::server::AllocationError;
use scdn_alloc::{CatalogSnapshot, CodedInventory};
use scdn_graph::parallel::par_map_collect;
use scdn_graph::NodeId;
use scdn_middleware::auth::MiddlewareError;
use scdn_middleware::authz::AccessDecision;
use scdn_net::transfer::{SegmentSim, TransferError};
use scdn_obs::{SpanKind, SpanStatus, TraceBuilder};
use scdn_sim::engine::SimTime;
use scdn_social::platform::UserId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, RepoError, StorageRepository};

use super::{
    attempt_status, coded_distinct, discard_scaffolding, elapsed_ms, Availability, CodedRace,
    RequestOutcome, Scdn, ScdnError,
};

/// One deferred trace span, replayed into a [`TraceBuilder`] at commit
/// time. Transfer attempts are not copied in here: they replay from the
/// plan's [`Fetched`] list.
struct TraceOp {
    kind: SpanKind,
    status: SpanStatus,
    duration_ms: f64,
    peer: Option<u32>,
}

/// A deferred span without a peer.
fn span(kind: SpanKind, status: SpanStatus, duration_ms: f64) -> TraceOp {
    TraceOp {
        kind,
        status,
        duration_ms,
        peer: None,
    }
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
    /// A coded dataset whose blocks the requester races: `donors` are the
    /// online block hosts (overlay-routable to the requester when the
    /// social boundary is enforced) that hold at least k distinct blocks.
    /// The race itself runs at commit.
    Coded {
        user: UserId,
        decision: AccessDecision,
        spec: CodingSpec,
        donors: CodedInventory,
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
    Full(ReplanCause),
}

/// Why a commit re-planned, by the first trigger that fired in this
/// order; indexes `Scdn::batch_replan_causes`
/// (`core.batch.replan.{entry,repo_epoch,clock,session}`).
#[derive(Clone, Copy)]
enum ReplanCause {
    /// The catalog entry the plan read has a new version.
    Entry = 0,
    /// The requester's repository was written (a partial re-plan), or a
    /// commit-side store into it failed.
    RepoEpoch = 1,
    /// The clock moved under periodic availability or a trust-windowed
    /// policy.
    Clock = 2,
    /// The plan's authentication preview failed but the authoritative
    /// check passed.
    Session = 3,
}

/// A fully planned request: pure output of the parallel phase.
struct RequestPlan {
    node: NodeId,
    dataset: DatasetId,
    /// Version of the catalog entry the plan read (`None` while the
    /// dataset is unregistered) — the catalog half of the commit-side
    /// staleness vector, checked only for bodies that read the entry.
    version: Option<u64>,
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
    /// `reqs`. A coded dataset within reach of `k` blocks is raced exactly
    /// as [`request`](Scdn::request) describes; its race runs at commit.
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
                        version: None,
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
        let plan = |version, trace, body| RequestPlan {
            node,
            dataset,
            version,
            repo_epoch,
            trace,
            body,
        };
        let auth_start = std::time::Instant::now();
        let authenticate = |status| span(SpanKind::Authenticate, status, elapsed_ms(auth_start));
        let user = match auth {
            Ok(u) => u,
            Err(e) => {
                let denied = authenticate(SpanStatus::Denied);
                return plan(None, vec![denied], PlanBody::AuthFailed(e));
            }
        };
        let Some(meta) = self.datasets.get(&dataset) else {
            trace.push(authenticate(SpanStatus::Ok));
            trace.push(span(SpanKind::Discover, SpanStatus::Error, 0.0));
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
            trace.push(authenticate(SpanStatus::Denied));
            return plan(None, trace, PlanBody::AccessDenied { user, decision });
        }
        trace.push(authenticate(SpanStatus::Ok));
        let topology = &self.engine.topology;
        let discover_start = std::time::Instant::now();
        let discover = |status| span(SpanKind::Discover, status, elapsed_ms(discover_start));
        // A coded dataset within reach races its blocks; any other request
        // resolves one replica.
        if let Some((spec, donors)) = self.coded_donors(snap, node, meta.owner, dataset, clock) {
            trace.push(discover(SpanStatus::Ok));
            let body = PlanBody::Coded {
                user,
                decision,
                spec,
                donors,
            };
            return plan(snap.version_of(dataset), trace, body);
        }
        // Quiet CSR resolution against the shared snapshot: selection
        // identical to `resolve_csr`, zero catalog locks, and the
        // resolve/demand accounting is deferred to the commit.
        let (resolved, version) = self.alloc.resolve_csr_snapshot(
            snap,
            dataset,
            node,
            &self.social_csr,
            |n| self.is_online_at(n, clock),
            |n| topology.latency_ms(node.index(), n.index()),
        );
        let selection = match resolved {
            Ok(sel) => sel,
            Err(error) => {
                trace.push(discover(SpanStatus::NoReplica));
                return plan(
                    version,
                    trace,
                    PlanBody::ResolveFailed {
                        user,
                        decision,
                        error,
                    },
                );
            }
        };
        trace.push(discover(SpanStatus::Ok));
        let select = |status| TraceOp {
            peer: Some(selection.node.0),
            ..span(SpanKind::SelectReplica, status, 0.0)
        };
        if self.config.enforce_social_boundary
            && selection.node != node
            && self.overlay.route(selection.node, node).is_none()
        {
            trace.push(select(SpanStatus::BoundaryBlocked));
            return plan(
                version,
                trace,
                PlanBody::BoundaryBlocked {
                    user,
                    decision,
                    selection,
                },
            );
        }
        trace.push(select(SpanStatus::Ok));
        // Segment table from the same snapshot the resolution used — no
        // catalog lock, and trivially consistent with the replica set.
        let segments = match snap.segments_of(dataset) {
            Some(n) => (0..n)
                .map(|ordinal| SegmentId { dataset, ordinal })
                .collect::<Vec<_>>(),
            None => {
                return plan(
                    version,
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
        plan(version, trace, body)
    }

    /// The block hosts `node` would race for `dataset`, read from `snap`
    /// at `clock`: online, not `node`, and overlay-routable to it when the
    /// social boundary is enforced. `None` — resolve one replica instead —
    /// when the dataset is uncoded, `node` is its `owner`, or those hosts
    /// hold fewer than k distinct blocks.
    fn coded_donors(
        &self,
        snap: &CatalogSnapshot,
        node: NodeId,
        owner: NodeId,
        dataset: DatasetId,
        clock: SimTime,
    ) -> Option<(CodingSpec, CodedInventory)> {
        let spec = snap.coding_of(dataset).filter(|_| owner != node)?;
        let donors: CodedInventory = snap
            .coded_inventory_of(dataset)
            .into_iter()
            .filter(|(host, blocks)| {
                !blocks.is_empty()
                    && *host != node
                    && self.is_online_at(*host, clock)
                    && (!self.config.enforce_social_boundary
                        || self.overlay.route(*host, node).is_some())
            })
            .collect();
        (coded_distinct(&donors, spec.n()) >= spec.k as usize).then_some((spec, donors))
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
    /// resolution and segment table (entry version current), the
    /// serving-side copy (changed only through catalog operations on this
    /// entry, which bump its version), the retry chains (a pure hash of
    /// endpoints × segment × attempt) and the clock-dependent inputs. Its
    /// trace prefix and verified payloads are therefore kept, and the
    /// quota walk alone re-runs against the live repository.
    fn replan_destination(&self, plan: RequestPlan) -> RequestPlan {
        let RequestPlan {
            node,
            dataset,
            version,
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
            version,
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

    /// Why the snapshot a resolution-bearing plan was computed against no
    /// longer matches committed state, if it does not: the catalog entry
    /// the resolution read has a new version, or a time-dependent input
    /// moved with the clock.
    fn resolution_stale(&self, plan: &RequestPlan, clock_moved: bool) -> Option<ReplanCause> {
        if self.alloc.catalog_version(plan.dataset) != plan.version {
            Some(ReplanCause::Entry)
        } else if clock_moved
            && (matches!(self.availability, Availability::Periodic(_))
                || self.policy_is_time_dependent(plan.dataset))
        {
            Some(ReplanCause::Clock)
        } else {
            None
        }
    }

    /// Decide what an earlier commit invalidated of `plan`.
    fn staleness(&self, plan: &RequestPlan, planned_clock: SimTime) -> Staleness {
        let clock_moved = self.clock != planned_clock;
        let full_if = |cause: Option<ReplanCause>| cause.map_or(Staleness::Fresh, Staleness::Full);
        match &plan.body {
            // Node membership and the dataset policy table are immutable
            // within a batch.
            PlanBody::UnknownNode | PlanBody::UnknownDataset => Staleness::Fresh,
            // Only asked once the authoritative check has passed: the
            // preview's refusal holds nothing to keep.
            PlanBody::AuthFailed(_) => Staleness::Full(ReplanCause::Session),
            PlanBody::AccessDenied { .. } => full_if(
                (clock_moved && self.policy_is_time_dependent(plan.dataset))
                    .then_some(ReplanCause::Clock),
            ),
            // A coded plan reads the block inventory (its entry version)
            // and donor liveness (the clock); the race reads the rest live.
            PlanBody::ResolveFailed { .. }
            | PlanBody::BoundaryBlocked { .. }
            | PlanBody::SegmentsUnavailable { .. }
            | PlanBody::Coded { .. } => full_if(self.resolution_stale(plan, clock_moved)),
            // Transfer outcomes additionally read the requester's
            // repository (quota + pre-existing checks), covered by its
            // epoch. A serving repository's copy of the dataset changes
            // only through a catalog operation on it, which the entry
            // version already covers.
            PlanBody::TransferFailed { .. } | PlanBody::Served { .. } => {
                if let Some(cause) = self.resolution_stale(plan, clock_moved) {
                    Staleness::Full(cause)
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
            match op.peer {
                Some(peer) => tb.span_with_peer(op.kind, op.status, op.duration_ms, peer),
                None => tb.span(op.kind, op.status, op.duration_ms),
            }
        }
    }

    /// Replay the simulated transfer attempts of a plan into a live
    /// builder, driving the `net.attempts.*` counters exactly as the
    /// serial observer did.
    fn replay_attempts(&self, tb: &mut TraceBuilder, peer: u32, fetched: &[Fetched]) {
        for rec in fetched.iter().flat_map(|f| &f.sim.attempts) {
            self.count_attempt(rec.outcome);
            tb.attempt(
                attempt_status(rec.outcome),
                rec.duration_ms,
                rec.attempt,
                peer,
            );
        }
    }

    /// Count one re-plan under its cause.
    fn count_batch_replan(&self, cause: ReplanCause) {
        self.batch_replans.inc();
        self.batch_replan_causes[cause as usize].inc();
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
                self.count_batch_replan(ReplanCause::RepoEpoch);
                self.replan_destination(plan)
            }
            Staleness::Full(cause) => {
                self.count_batch_replan(cause);
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
                    self.count_batch_replan(ReplanCause::RepoEpoch);
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
        let at_ms = self.clock.as_millis();
        // Stores first: if one fails the commit retries with a fresh plan
        // and no effect has been applied yet.
        if let PlanBody::Served {
            selection, fetched, ..
        } = &plan.body
        {
            if selection.node != node {
                let segments = fetched.iter().map(|f| f.seg.clone());
                if let Err(e) = store_user_segments(&self.repos[node.index()], segments) {
                    return Err((tb, e));
                }
            }
        }
        self.replay_trace(&mut tb, &plan.trace);
        let (result, status) = match plan.body {
            PlanBody::UnknownNode => return Ok(Err(ScdnError::UnknownNode(node))),
            PlanBody::AuthFailed(e) => (Err(ScdnError::Auth(e)), SpanStatus::Denied),
            PlanBody::UnknownDataset => (
                Err(ScdnError::Alloc(AllocationError::UnknownDataset(dataset))),
                SpanStatus::Error,
            ),
            PlanBody::AccessDenied { user, decision } => {
                self.audit.record(at_ms, user, dataset, decision.clone());
                (Err(ScdnError::Access(decision)), SpanStatus::Denied)
            }
            PlanBody::Coded {
                user,
                decision,
                spec,
                donors,
            } => {
                self.audit.record(at_ms, user, dataset, decision);
                match self.commit_coded(node, dataset, &spec, &donors) {
                    Ok(outcome) => (Ok(outcome), SpanStatus::Ok),
                    Err(e) => {
                        self.cdn_metrics.failures += 1;
                        (Err(e), SpanStatus::Error)
                    }
                }
            }
            PlanBody::ResolveFailed {
                user,
                decision,
                error,
            } => {
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc.commit_resolution(dataset, None);
                self.cdn_metrics.failures += 1;
                (Err(ScdnError::Alloc(error)), SpanStatus::NoReplica)
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
                let error = AllocationError::NoReplicaAvailable(dataset);
                (Err(ScdnError::Alloc(error)), SpanStatus::BoundaryBlocked)
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
                return Ok(Err(error));
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
                (Err(ScdnError::Transfer(error)), SpanStatus::Error)
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
                self.audit.record(at_ms, user, dataset, decision);
                self.alloc
                    .commit_resolution(dataset, Some(selection.social_hops));
                self.replay_attempts(&mut tb, selection.node.0, &fetched);
                let hit = matches!(selection.social_hops, Some(h) if h <= 1);
                let response_ms = total_ms.max(selection.latency_ms);
                self.record_hit(hit, response_ms);
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
                let outcome = RequestOutcome {
                    served_by: selection.node,
                    social_hit: hit,
                    response_ms,
                    bytes: total_bytes,
                };
                (Ok(outcome), SpanStatus::Ok)
            }
        };
        let kind = if result.is_ok() {
            SpanKind::Deliver
        } else {
            SpanKind::Fail
        };
        self.traces.record(tb.finish(kind, status));
        Ok(result)
    }

    /// Count a served request as a social hit or a miss, and sample its
    /// response time.
    fn record_hit(&mut self, hit: bool, response_ms: f64) {
        if hit {
            self.cdn_metrics.hits += 1;
        } else {
            self.cdn_metrics.misses += 1;
        }
        self.cdn_metrics.response_time_ms.record(response_ms);
    }

    /// Apply a coded plan: race its blocks into the requester's user
    /// partition, then replace them with the plain segments they decode
    /// to, stored under the owner's digests (a wrong decode fails its
    /// first read). See the module docs for why the race runs here.
    fn commit_coded(
        &mut self,
        node: NodeId,
        dataset: DatasetId,
        spec: &CodingSpec,
        donors: &CodedInventory,
    ) -> Result<RequestOutcome, ScdnError> {
        let (rep, race) = self.race_coded(node, Partition::User, dataset, spec, donors);
        self.cdn_metrics.bytes_transferred += rep.total_bytes;
        self.clock = self.clock.plus_millis(rep.total_ms as u64);
        self.coded_blocks_landed.add(rep.landed.len() as u64);
        self.coded_blocks_preexisting
            .add(rep.pre_existing.len() as u64);
        self.coded_discarded_corrupt
            .add(u64::from(rep.discarded_corrupt));
        let decoded = match race {
            CodedRace::Short(e) | CodedRace::Forged(e) => {
                self.social_metrics
                    .record_exchange(donors[0].0.index(), node.index(), 0, false);
                return Err(ScdnError::Transfer(e));
            }
            CodedRace::Landed(decoded) => decoded,
        };
        // Per-donor exchange and served accounting, in acceptance order.
        let mut per_donor: Vec<(usize, u64)> = Vec::new();
        for ((_, donor), report) in rep.delivered.iter().zip(&rep.reports) {
            match per_donor.iter_mut().find(|(d, _)| d == donor) {
                Some((_, bytes)) => *bytes += report.bytes,
                None => per_donor.push((*donor, report.bytes)),
            }
        }
        for &(donor, bytes) in &per_donor {
            self.social_metrics
                .record_exchange(donor, node.index(), bytes, true);
            self.clients[donor].record_served(bytes);
        }
        let decoded = decoded?;
        self.coded_shards_reconstructed
            .add(decoded.reconstructed as u64);
        let dst_repo = &self.repos[node.index()];
        discard_scaffolding(dst_repo, Partition::User, dataset, &rep);
        let (seg_size, total) = (self.config.segment_size, spec.total_len as usize);
        let digests = self.datasets[&dataset].segment_digests.iter();
        let plain = digests.zip(0u32..).map(|(&checksum, ordinal)| {
            let start = ordinal as usize * seg_size;
            let data = decoded.range(start, (start + seg_size).min(total));
            let id = SegmentId { dataset, ordinal };
            Segment { id, data, checksum }
        });
        store_user_segments(dst_repo, plain).map_err(ScdnError::Repo)?;
        self.repo_epochs[node.index()] += 1;
        let neighbors = self.social.neighbors(node);
        let social_hit = rep
            .delivered
            .iter()
            .any(|&(_, d)| neighbors.iter().any(|e| e.to.index() == d));
        self.record_hit(social_hit, rep.total_ms);
        Ok(RequestOutcome {
            served_by: rep
                .delivered
                .first()
                .map_or(node, |&(_, d)| NodeId(d as u32)),
            social_hit,
            response_ms: rep.total_ms,
            bytes: rep.total_bytes,
        })
    }
}

/// Store `segments` in `repo`'s user partition. On the first refusal, the
/// segments this call added are removed again (overwritten ones stay) and
/// the refusal is returned.
fn store_user_segments(
    repo: &StorageRepository,
    segments: impl IntoIterator<Item = Segment>,
) -> Result<(), RepoError> {
    let mut added: Vec<SegmentId> = Vec::new();
    for seg in segments {
        let id = seg.id;
        let pre_existing = repo.contains_in(Partition::User, id);
        if let Err(e) = repo.store(Partition::User, seg) {
            for d in added {
                let _ = repo.remove(Partition::User, d, true);
            }
            return Err(e);
        }
        if !pre_existing {
            added.push(id);
        }
    }
    Ok(())
}
