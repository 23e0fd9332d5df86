//! One request: authorize, decide, act. [`Scdn::request`] serves one
//! request at a time in one pass, [`Scdn::request_batch`] is its loop, and
//! `request_coded` forwards to it. Each step records its trace span and
//! applies its effects as it runs.
//!
//! * **Authorize** — the session budget is consumed and an exhausted
//!   session expires, exactly once per request. The access policy is
//!   checked at the current clock and its decision audited.
//! * **Decide** — one of two branches:
//!   - **Coded** — the dataset has a `CodingSpec`, the requester is not its
//!     owner, and its online block hosts hold at least k distinct blocks.
//!     With the social boundary enforced, only hosts with an overlay route
//!     to the requester count. Those hosts are the donors to race.
//!   - **Resolved** — otherwise: [`resolve_csr`][resolve] picks one online
//!     replica and records the resolve and demand accounting, and the
//!     social-boundary rule vets it.
//! * **Act** — a coded request runs its any-k race through the helper the
//!   owner-offline rebuild also uses. A resolved one moves its segments
//!   with one call of the transfer client every repository shares,
//!   [`TransferEngine::transfer_segments`]: each attempt is counted and
//!   traced as it is observed, and a delivered segment without the owner's
//!   digest is refused. Then the cache touches, opportunistic promotion,
//!   metrics and clock advance follow.
//!
//! A failed transfer removes the segments it added. A copy the requester
//! already held is overwritten only once every segment has arrived, so a
//! failed request leaves the user partition as it found it.
//!
//! [resolve]: scdn_alloc::server::AllocationServer::resolve_csr
//! [`TransferEngine::transfer_segments`]: scdn_net::transfer::TransferEngine::transfer_segments

use scdn_alloc::server::AllocationError;
use scdn_alloc::CodedInventory;
use scdn_graph::NodeId;
use scdn_net::transfer::TransferError;
use scdn_obs::{SpanKind, SpanStatus, TraceBuilder};
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, RepoError, StorageRepository};

use super::{
    attempt_status, coded_distinct, discard_scaffolding, elapsed_ms, CodedRace, RequestOutcome,
    Scdn, ScdnError,
};

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
        let result = self.serve(&mut tb, node, dataset);
        let (kind, status) = match &result {
            Ok(_) => (SpanKind::Deliver, SpanStatus::Ok),
            Err((_, status)) => (SpanKind::Fail, *status),
        };
        self.traces.record(tb.finish(kind, status));
        result.map_err(|(e, _)| e)
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

    /// One request's pass, every span but the terminal one written into
    /// `tb`. An error carries the terminal span's status.
    fn serve(
        &mut self,
        tb: &mut TraceBuilder,
        node: NodeId,
        dataset: DatasetId,
    ) -> Result<RequestOutcome, (ScdnError, SpanStatus)> {
        let auth_start = std::time::Instant::now();
        let user = match self.middleware.authorize_op(self.sessions[node.index()]) {
            Ok(u) => u,
            Err(e) => {
                let auth_ms = elapsed_ms(auth_start);
                tb.span(SpanKind::Authenticate, SpanStatus::Denied, auth_ms);
                return Err((ScdnError::Auth(e), SpanStatus::Denied));
            }
        };
        let Some(meta) = self.datasets.get(&dataset) else {
            tb.span(
                SpanKind::Authenticate,
                SpanStatus::Ok,
                elapsed_ms(auth_start),
            );
            tb.span(SpanKind::Discover, SpanStatus::Error, 0.0);
            let error = AllocationError::UnknownDataset(dataset);
            return Err((ScdnError::Alloc(error), SpanStatus::Error));
        };
        let decision = meta.policy.check(
            &self.platform,
            user,
            Some(self.authors[node.index()]),
            &self.trust_model,
            &self.ledger,
            self.clock.as_secs_f64(),
        );
        let status = if decision.allowed() {
            SpanStatus::Ok
        } else {
            SpanStatus::Denied
        };
        tb.span(SpanKind::Authenticate, status, elapsed_ms(auth_start));
        let at_ms = self.clock.as_millis();
        self.audit.record(at_ms, user, dataset, decision.clone());
        if !decision.allowed() {
            return Err((ScdnError::Access(decision), SpanStatus::Denied));
        }
        let (owner, segment_count) = (meta.owner, meta.segment_digests.len() as u32);
        let discover_start = std::time::Instant::now();
        // A coded dataset within reach races its blocks; any other request
        // resolves one replica.
        if let Some((spec, donors)) = self.coded_donors(node, owner, dataset) {
            tb.span(
                SpanKind::Discover,
                SpanStatus::Ok,
                elapsed_ms(discover_start),
            );
            return self
                .commit_coded(node, dataset, &spec, &donors)
                .map_err(|e| self.failed(e, SpanStatus::Error));
        }
        let selection = match self.resolve(node, dataset) {
            Ok(sel) => sel,
            Err(error) => {
                let discover_ms = elapsed_ms(discover_start);
                tb.span(SpanKind::Discover, SpanStatus::NoReplica, discover_ms);
                return Err(self.failed(ScdnError::Alloc(error), SpanStatus::NoReplica));
            }
        };
        tb.span(
            SpanKind::Discover,
            SpanStatus::Ok,
            elapsed_ms(discover_start),
        );
        let src = selection.node;
        if self.config.enforce_social_boundary
            && src != node
            && self.overlay.route(src, node).is_none()
        {
            tb.span_with_peer(
                SpanKind::SelectReplica,
                SpanStatus::BoundaryBlocked,
                0.0,
                src.0,
            );
            let error = ScdnError::Alloc(AllocationError::NoReplicaAvailable(dataset));
            return Err(self.failed(error, SpanStatus::BoundaryBlocked));
        }
        tb.span_with_peer(SpanKind::SelectReplica, SpanStatus::Ok, 0.0, src.0);
        let segments: Vec<SegmentId> = (0..segment_count)
            .map(|ordinal| SegmentId { dataset, ordinal })
            .collect();
        let (total_ms, total_bytes) = if src == node {
            // Self-service: the requester already holds a replica.
            (0.0, 0)
        } else {
            match self.receive_segments(tb, node, src, &segments) {
                Ok(moved) => moved,
                Err(e) => {
                    self.social_metrics
                        .record_exchange(src.index(), node.index(), 0, false);
                    return Err(self.failed(ScdnError::Transfer(e), SpanStatus::Error));
                }
            }
        };
        let hit = matches!(selection.social_hops, Some(h) if h <= 1);
        let response_ms = total_ms.max(selection.latency_ms);
        self.record_hit(hit, response_ms);
        self.cdn_metrics.bytes_transferred += total_bytes;
        if src != node {
            self.social_metrics
                .record_exchange(src.index(), node.index(), total_bytes, true);
            self.clients[src.index()].record_served(total_bytes);
        }
        // Bump recency/frequency for the serving node's copies.
        self.caches[src.index()].touch_all(segments.iter().copied());
        self.clock = self.clock.plus_millis(total_ms as u64);
        if self.config.opportunistic_caching && src != node {
            self.promote_opportunistically(node, dataset, &segments);
        }
        Ok(RequestOutcome {
            served_by: src,
            social_hit: hit,
            response_ms,
            bytes: total_bytes,
        })
    }

    /// Count a request that failed after its access check.
    fn failed(&mut self, error: ScdnError, status: SpanStatus) -> (ScdnError, SpanStatus) {
        self.cdn_metrics.failures += 1;
        (error, status)
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

    /// Move `segments` from `src` into `node`'s user partition through
    /// the one transfer loop, counting and tracing every attempt as it is
    /// observed and refusing a segment without the owner's digest. Returns
    /// the transfer's simulated time and bytes.
    fn receive_segments(
        &self,
        tb: &mut TraceBuilder,
        node: NodeId,
        src: NodeId,
        segments: &[SegmentId],
    ) -> Result<(f64, u64), TransferError> {
        let src_repo = &self.repos[src.index()];
        let (reports, error) = self.engine.transfer_segments(
            src.index(),
            node.index(),
            segments,
            &|id| src_repo.fetch_any(id),
            &self.repos[node.index()],
            Partition::User,
            &mut |rec| {
                self.count_attempt(rec.outcome);
                let status = attempt_status(rec.outcome);
                tb.attempt(status, rec.duration_ms, rec.attempt, src.0);
            },
            &mut |seg| self.carries_owner_digest(seg),
        );
        match error {
            Some(e) => Err(e),
            None => Ok(self.moved(&reports)),
        }
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

    /// Serve a coded request: race its blocks into the requester's user
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
        self.clock = self.clock.plus_millis(rep.total_ms as u64);
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
