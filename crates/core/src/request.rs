//! One request: authorize, plan, apply. [`Scdn::request`] serves one
//! request at a time, [`Scdn::request_batch`] is its loop, and
//! `request_coded` forwards to it.
//!
//! * **Authorize** — the session budget is consumed and an exhausted
//!   session expires, exactly once per request.
//! * **Plan** — reads state; the only thing it records is a resolution's
//!   resolve and demand accounting. The access policy is checked at the
//!   current clock, and then one of two bodies is planned:
//!   - **Coded** — the dataset has a `CodingSpec`, the requester is not its
//!     owner, and its online block hosts hold at least k distinct blocks.
//!     With the social boundary enforced, only hosts with an overlay route
//!     to the requester count. The plan is the list of donors to race.
//!   - **Resolved** — otherwise: [`resolve_csr`][resolve] picks one online
//!     replica and records the resolve and demand accounting, the
//!     social-boundary rule vets it, and the transfer is simulated
//!     ([`TransferEngine::simulate_segment`], a pure hash of endpoints ×
//!     segment × attempt) against the requester's quota, with each payload
//!     fetched and verified at the source.
//! * **Apply** — the audit record, the body's effects (stores, cache
//!   touches, opportunistic promotion, metrics, clock advance) and the
//!   trace record. A coded body runs its any-k race here, through the
//!   helper the owner-offline rebuild also uses.
//!
//! The plan's quota walk read the same repository the apply stores into,
//! with nothing in between, so a store cannot fail. If one does anyway, the
//! request fails with [`TransferError::Destination`] and counts a failure.
//!
//! [resolve]: scdn_alloc::server::AllocationServer::resolve_csr
//! [`TransferEngine::simulate_segment`]: scdn_net::transfer::TransferEngine::simulate_segment

use scdn_alloc::discovery::Selection;
use scdn_alloc::server::AllocationError;
use scdn_alloc::CodedInventory;
use scdn_graph::NodeId;
use scdn_middleware::authz::AccessDecision;
use scdn_net::transfer::{SegmentSim, TransferError};
use scdn_obs::{SpanKind, SpanStatus, TraceBuilder};
use scdn_social::platform::UserId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, RepoError, StorageRepository};

use super::{
    attempt_status, coded_distinct, discard_scaffolding, elapsed_ms, CodedRace, RequestOutcome,
    Scdn, ScdnError,
};

/// One planned trace span, recorded into the request's [`TraceBuilder`]
/// when the plan is applied. Transfer attempts are not copied in here:
/// they replay from the plan's [`Fetched`] list.
struct TraceOp {
    kind: SpanKind,
    status: SpanStatus,
    duration_ms: f64,
    peer: Option<u32>,
}

/// A planned span without a peer.
fn span(kind: SpanKind, status: SpanStatus, duration_ms: f64) -> TraceOp {
    TraceOp {
        kind,
        status,
        duration_ms,
        peer: None,
    }
}

/// One segment of a planned transfer: the checksum-verified payload
/// fetched from the source and its simulated retry chain.
struct Fetched {
    seg: Segment,
    sim: SegmentSim,
}

/// Where a planned request ended up, with everything the apply needs.
enum PlanBody {
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
    },
    /// The simulated transfer failed permanently. `fetched` holds every
    /// segment whose retry chain ran, the failing one included (unless
    /// the source fetch itself failed).
    TransferFailed {
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
        fetched: Vec<Fetched>,
        error: TransferError,
    },
    /// Delivered (or self-served, with nothing fetched): payloads staged
    /// for the stores.
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

/// A planned request: its trace spans in emission order (the terminal
/// span excluded; the body implies it) and its body.
struct RequestPlan {
    trace: Vec<TraceOp>,
    body: PlanBody,
}

impl Scdn {
    /// Request a dataset from `node`: authenticate, check access policy,
    /// then deliver it into the requester's user partition.
    ///
    /// A coded dataset is raced when the requester is not its owner and
    /// its online block hosts — only those with an overlay route to the
    /// requester, under [`ScdnConfig::enforce_social_boundary`] — hold `k`
    /// distinct blocks: every such host serves at once and the request
    /// completes when any `k` land. A landed block must carry the owner's
    /// digest ([`TransferError::SourceCorrupt`] otherwise); the plain
    /// segments decoded from the blocks are stored under the owner's
    /// digests, and a failed race gives back what it landed. Any other
    /// request transfers every segment from the best online replica.
    ///
    /// Every request leaves a lifecycle trace: `authenticate → discover →
    /// select replica → transfer attempt(s) → deliver | fail`, or
    /// `authenticate → discover → deliver | fail` for a race. Control-plane
    /// spans carry wall-clock time, attempts the simulated network time.
    ///
    /// [`ScdnConfig::enforce_social_boundary`]: super::ScdnConfig::enforce_social_boundary
    pub fn request(
        &mut self,
        node: NodeId,
        dataset: DatasetId,
    ) -> Result<RequestOutcome, ScdnError> {
        if node.index() >= self.repos.len() {
            return Err(ScdnError::UnknownNode(node));
        }
        let mut tb = self.traces.begin(node.0, dataset.0);
        let auth_start = std::time::Instant::now();
        let user = match self.middleware.authorize_op(self.sessions[node.index()]) {
            Ok(u) => u,
            Err(e) => {
                tb.span(
                    SpanKind::Authenticate,
                    SpanStatus::Denied,
                    elapsed_ms(auth_start),
                );
                self.traces
                    .record(tb.finish(SpanKind::Fail, SpanStatus::Denied));
                return Err(ScdnError::Auth(e));
            }
        };
        let plan = self.plan(node, dataset, user, auth_start);
        self.apply_plan(tb, node, dataset, plan)
    }

    /// [`request`](Self::request), which races the blocks of a coded
    /// dataset itself. The name remains because `benchmark/`'s
    /// `coded_repair` workload calls it.
    pub fn request_coded(
        &mut self,
        node: NodeId,
        dataset: DatasetId,
    ) -> Result<RequestOutcome, ScdnError> {
        self.request(node, dataset)
    }

    /// Serve `reqs` in order, one [`request`](Self::request) each. Results
    /// are positionally parallel to `reqs`.
    pub fn request_batch(
        &mut self,
        reqs: &[(NodeId, DatasetId)],
    ) -> Vec<Result<RequestOutcome, ScdnError>> {
        reqs.iter()
            .map(|&(node, dataset)| self.request(node, dataset))
            .collect()
    }

    /// Plan one authorized request at the current clock. Changes nothing
    /// but the resolve and demand accounting a resolution records.
    fn plan(
        &self,
        node: NodeId,
        dataset: DatasetId,
        user: UserId,
        auth_start: std::time::Instant,
    ) -> RequestPlan {
        let mut trace: Vec<TraceOp> = Vec::new();
        let authenticate = |status| span(SpanKind::Authenticate, status, elapsed_ms(auth_start));
        let Some(meta) = self.datasets.get(&dataset) else {
            trace.push(authenticate(SpanStatus::Ok));
            trace.push(span(SpanKind::Discover, SpanStatus::Error, 0.0));
            return RequestPlan {
                trace,
                body: PlanBody::UnknownDataset,
            };
        };
        let decision = meta.policy.check(
            &self.platform,
            user,
            Some(self.authors[node.index()]),
            &self.trust_model,
            &self.ledger,
            self.clock.as_secs_f64(),
        );
        if !decision.allowed() {
            trace.push(authenticate(SpanStatus::Denied));
            let body = PlanBody::AccessDenied { user, decision };
            return RequestPlan { trace, body };
        }
        trace.push(authenticate(SpanStatus::Ok));
        let topology = &self.engine.topology;
        let discover_start = std::time::Instant::now();
        let discover = |status| span(SpanKind::Discover, status, elapsed_ms(discover_start));
        // A coded dataset within reach races its blocks; any other request
        // resolves one replica.
        if let Some((spec, donors)) = self.coded_donors(node, meta.owner, dataset) {
            trace.push(discover(SpanStatus::Ok));
            let body = PlanBody::Coded {
                user,
                decision,
                spec,
                donors,
            };
            return RequestPlan { trace, body };
        }
        let resolved = self.alloc.resolve_csr(
            dataset,
            node,
            &self.social_csr,
            |n| self.is_online(n),
            |n| topology.latency_ms(node.index(), n.index()),
        );
        let selection = match resolved {
            Ok(sel) => sel,
            Err(error) => {
                trace.push(discover(SpanStatus::NoReplica));
                let body = PlanBody::ResolveFailed {
                    user,
                    decision,
                    error,
                };
                return RequestPlan { trace, body };
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
            let body = PlanBody::BoundaryBlocked { user, decision };
            return RequestPlan { trace, body };
        }
        trace.push(select(SpanStatus::Ok));
        let body = self.plan_transfer(
            node,
            user,
            decision,
            selection,
            dataset,
            &meta.segment_digests,
        );
        RequestPlan { trace, body }
    }

    /// The block hosts `node` would race for `dataset`: online, not `node`,
    /// and overlay-routable to it when the social boundary is enforced.
    /// `None` — resolve one replica instead — when the dataset is uncoded,
    /// `node` is its `owner`, or those hosts hold fewer than k distinct
    /// blocks.
    fn coded_donors(
        &self,
        node: NodeId,
        owner: NodeId,
        dataset: DatasetId,
    ) -> Option<(CodingSpec, CodedInventory)> {
        let spec = self
            .alloc
            .coding_of(dataset)
            .ok()?
            .filter(|_| owner != node)?;
        let donors: CodedInventory = self
            .alloc
            .coded_inventory(dataset)
            .ok()?
            .into_iter()
            .filter(|(host, blocks)| {
                !blocks.is_empty()
                    && *host != node
                    && self.is_online(*host)
                    && (!self.config.enforce_social_boundary
                        || self.overlay.route(*host, node).is_some())
            })
            .collect();
        (coded_distinct(&donors, spec.n()) >= spec.k as usize).then_some((spec, donors))
    }

    /// Plan the transfer of `dataset`'s segments — one per digest the
    /// owner `recorded` — from the selected replica: per segment, fetch
    /// from the source (verify-on-read), simulate the retry chain, refuse
    /// a delivered segment whose checksum is not the owner's digest, then
    /// simulate the destination quota.
    fn plan_transfer(
        &self,
        node: NodeId,
        user: UserId,
        decision: AccessDecision,
        selection: Selection,
        dataset: DatasetId,
        recorded: &[Checksum],
    ) -> PlanBody {
        let segments: Vec<SegmentId> = (0..recorded.len() as u32)
            .map(|ordinal| SegmentId { dataset, ordinal })
            .collect();
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
            let seg = match src_repo.fetch_any(s) {
                Ok(seg) => seg,
                Err(RepoError::IntegrityFailure(id)) => {
                    failure = Some(TransferError::SourceCorrupt(id));
                    break;
                }
                Err(_) => {
                    failure = Some(TransferError::SourceMissing(s));
                    break;
                }
            };
            let bytes = seg.len() as u64;
            let sim = self
                .engine
                .simulate_segment(selection.node.index(), node.index(), s, bytes);
            let (delivered, elapsed_ms) = (sim.delivered, sim.elapsed_ms);
            let forged = recorded.get(s.ordinal as usize) != Some(&seg.checksum);
            fetched.push(Fetched { seg, sim });
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
                    // The delivered attempt was observed (its span
                    // recorded) before the destination rejected it.
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

    /// Record planned trace ops into a live builder.
    fn replay_trace(&self, tb: &mut TraceBuilder, ops: &[TraceOp]) {
        for op in ops {
            match op.peer {
                Some(peer) => tb.span_with_peer(op.kind, op.status, op.duration_ms, peer),
                None => tb.span(op.kind, op.status, op.duration_ms),
            }
        }
    }

    /// Record the simulated transfer attempts of a plan into a live
    /// builder, counting each in `net.attempts.*`.
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

    /// Apply a plan's effects and record its trace.
    fn apply_plan(
        &mut self,
        mut tb: TraceBuilder,
        node: NodeId,
        dataset: DatasetId,
        plan: RequestPlan,
    ) -> Result<RequestOutcome, ScdnError> {
        let at_ms = self.clock.as_millis();
        // Stores first, so a refused store leaves no other effect.
        if let PlanBody::Served {
            selection, fetched, ..
        } = &plan.body
        {
            if selection.node != node {
                let segments = fetched.iter().map(|f| f.seg.clone());
                if let Err(e) = store_user_segments(&self.repos[node.index()], segments) {
                    self.cdn_metrics.failures += 1;
                    self.traces
                        .record(tb.finish(SpanKind::Fail, SpanStatus::Error));
                    return Err(ScdnError::Transfer(TransferError::Destination(e)));
                }
            }
        }
        self.replay_trace(&mut tb, &plan.trace);
        let (result, status) = match plan.body {
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
                self.cdn_metrics.failures += 1;
                (Err(ScdnError::Alloc(error)), SpanStatus::NoReplica)
            }
            PlanBody::BoundaryBlocked { user, decision } => {
                self.audit.record(at_ms, user, dataset, decision);
                self.cdn_metrics.failures += 1;
                let error = AllocationError::NoReplicaAvailable(dataset);
                (Err(ScdnError::Alloc(error)), SpanStatus::BoundaryBlocked)
            }
            PlanBody::TransferFailed {
                user,
                decision,
                selection,
                fetched,
                error,
            } => {
                // Nothing of a failed transfer is stored.
                self.audit.record(at_ms, user, dataset, decision);
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
        result
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
    /// first read).
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
