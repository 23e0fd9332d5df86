//! Third-party transfer engine (the GlobusTransfer substitute).
//!
//! A transfer moves one segment from a source repository to a destination
//! repository's replica partition. The engine:
//!
//! * models duration from the topology (latency + size / bottleneck
//!   bandwidth);
//! * injects losses/corruption per the failure model, retrying up to a cap
//!   with the attempt count recorded;
//! * verifies the checksum at the destination before accepting delivery
//!   (a corrupted attempt counts as failed and is retried);
//! * supports *third-party* initiation: the caller need not be either
//!   endpoint, exactly like Globus' control/data channel split.

use scdn_storage::coding::CodedBlockId;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, RepoError, StorageRepository};

use crate::failure::{AttemptOutcome, FailureModel};
use crate::topology::Topology;

/// Why a transfer failed permanently.
#[derive(Debug, PartialEq, Eq)]
pub enum TransferError {
    /// The source repository does not hold the segment.
    SourceMissing(SegmentId),
    /// The source copy failed verification before sending.
    SourceCorrupt(SegmentId),
    /// Every attempt failed (loss or corruption).
    RetriesExhausted {
        /// Segment that could not be delivered.
        segment: SegmentId,
        /// Number of attempts made.
        attempts: u32,
    },
    /// A coded fetch ran out of donors before any k distinct blocks
    /// landed.
    InsufficientBlocks {
        /// Dataset being fetched.
        dataset: DatasetId,
        /// Distinct blocks that did land.
        have: u32,
        /// Blocks required (k).
        need: u32,
    },
    /// The destination rejected the delivery (e.g. quota).
    Destination(RepoError),
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::SourceMissing(id) => write!(f, "source missing segment {id:?}"),
            TransferError::SourceCorrupt(id) => write!(f, "source copy of {id:?} corrupt"),
            TransferError::RetriesExhausted { segment, attempts } => {
                write!(
                    f,
                    "transfer of {segment:?} failed after {attempts} attempts"
                )
            }
            TransferError::InsufficientBlocks {
                dataset,
                have,
                need,
            } => {
                write!(
                    f,
                    "coded fetch of {dataset:?} stalled at {have} of {need} blocks"
                )
            }
            TransferError::Destination(e) => write!(f, "destination error: {e}"),
        }
    }
}

impl std::error::Error for TransferError {}

/// One network attempt of a segment transfer, reported to the observer
/// callback of an observed transfer (such as
/// [`transfer_many_observed`](TransferEngine::transfer_many_observed)) as
/// it happens. This is how higher layers trace per-attempt outcomes
/// without the transfer engine depending on any telemetry crate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Segment being moved.
    pub segment: SegmentId,
    /// 1-based attempt number.
    pub attempt: u32,
    /// What the network did to this attempt.
    pub outcome: AttemptOutcome,
    /// Time charged to this attempt in milliseconds (lost attempts are
    /// charged half an attempt; delivered/corrupted a full one).
    pub duration_ms: f64,
}

/// Pure simulation of one segment's retry chain: what the network would do
/// to every attempt, with no repository access and no observer side
/// effects. Produced by
/// [`simulate_segment`](TransferEngine::simulate_segment); the caller
/// counts and traces each attempt and stores the delivered segment.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentSim {
    /// Every attempt in order, including the final delivered one (when
    /// `delivered`) or the last exhausted retry (when not).
    pub attempts: Vec<AttemptRecord>,
    /// `true` if some attempt delivered the segment.
    pub delivered: bool,
    /// Total charged time across all attempts in milliseconds.
    pub elapsed_ms: f64,
}

/// Result of a successful transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferReport {
    /// Bytes delivered.
    pub bytes: u64,
    /// Total wall-clock duration in milliseconds, including failed
    /// attempts.
    pub duration_ms: f64,
    /// Attempts used (1 = first try succeeded).
    pub attempts: u32,
}

/// One donor in a coded multi-source fetch: a node that advertises some
/// of a dataset's coded blocks (per the catalog's per-host inventory).
pub struct CodedSource<'a> {
    /// Topology index of the donor.
    pub node: usize,
    /// The donor's repository.
    pub repo: &'a StorageRepository,
    /// Coded-block indices this donor advertises.
    pub blocks: Vec<u32>,
}

/// Outcome of a coded any-k-of-n fetch
/// ([`transfer_coded_observed`](TransferEngine::transfer_coded_observed)).
#[derive(Clone, Debug, Default)]
pub struct CodedFetchReport {
    /// `(block index, donor node)` for every block that landed over the
    /// network, in acceptance order.
    pub delivered: Vec<(u32, usize)>,
    /// Block indices that already sat in the destination partition and
    /// counted toward k without any transfer.
    pub pre_existing: Vec<u32>,
    /// Per-delivered-block transfer reports, in acceptance order.
    pub reports: Vec<TransferReport>,
    /// The blocks this fetch stored and left in the destination
    /// partition, in acceptance order: the very segments whose checksums
    /// the donor-side read verified, so a caller can decode from them
    /// without fetching (and verifying) them back out of the destination.
    /// Each carries the checksum its donor stored it under, which matches
    /// its bytes but is only the donor's claim: a caller holding the
    /// owner's digest of each block compares the two before trusting the
    /// block, a 12-byte compare rather than a second digest pass. Empty
    /// when the fetch failed and rolled its deliveries back.
    pub landed: Vec<Segment>,
    /// Wall-clock total across waves in milliseconds: each wave costs its
    /// slowest member, except the final wave, which is cut at the moment
    /// the k-th block lands (any still-running chains are abandoned).
    pub total_ms: f64,
    /// Bytes delivered over the network (accepted blocks only).
    pub total_bytes: u64,
    /// Chains abandoned because a donor served corrupt bytes — a
    /// Byzantine source, in-flight corruption on every attempt, or a
    /// stored copy failing checksum verification at the source. Each such
    /// block was retried from another donor (when one existed).
    pub discarded_corrupt: u32,
}

/// The transfer engine: topology + failure model + retry policy.
#[derive(Clone, Debug)]
pub struct TransferEngine {
    /// Network topology.
    pub topology: Topology,
    /// Failure injection model.
    pub failure: FailureModel,
    /// Maximum attempts per transfer (≥ 1).
    pub max_attempts: u32,
    /// Assumed endpoint concurrency when estimating bandwidth.
    pub concurrency: u32,
}

impl TransferEngine {
    /// Engine with no failures and the given topology.
    pub fn reliable(topology: Topology) -> TransferEngine {
        TransferEngine {
            topology,
            failure: FailureModel::reliable(),
            max_attempts: 3,
            concurrency: 1,
        }
    }

    /// Estimate the duration of one attempt in milliseconds.
    fn attempt_time_ms(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        self.topology
            .transfer_time_ms(src, dst, bytes, self.concurrency)
    }

    /// Pure, side-effect-free simulation of one segment's retry chain.
    ///
    /// The per-attempt outcome comes from [`FailureModel::outcome`], a
    /// stateless hash of `(src, dst, segment key, attempt)` — so the result
    /// is independent of call order. The observed transfers run this
    /// simulation against real repositories, so a request that moves its
    /// segments through `simulate_segment` sees exactly the attempts and
    /// timings a live transfer would produce.
    pub fn simulate_segment(
        &self,
        src: usize,
        dst: usize,
        segment: SegmentId,
        bytes: u64,
    ) -> SegmentSim {
        let key = (u64::from(segment.dataset.0) << 32) | u64::from(segment.ordinal);
        // A Byzantine source garbles every byte it serves: attempts that
        // would have delivered arrive corrupted instead (and are rejected
        // by the destination checksum), so the chain can never succeed
        // from this donor. With `byzantine_frac == 0.0` (the default) this
        // branch is never taken and outcomes are bit-identical to before
        // the mode existed.
        let byzantine = self.failure.is_byzantine_source(src);
        let mut attempts = Vec::new();
        let mut elapsed = 0.0;
        for attempt in 1..=self.max_attempts {
            let attempt_ms = self.attempt_time_ms(src, dst, bytes);
            let mut outcome = self.failure.outcome(src, dst, key, attempt);
            if byzantine && outcome == AttemptOutcome::Delivered {
                outcome = AttemptOutcome::Corrupted;
            }
            // Lost attempts drop mid-flight and are charged half an
            // attempt; delivered/corrupted attempts are charged in full.
            let charged = match outcome {
                AttemptOutcome::Lost => attempt_ms * 0.5,
                _ => attempt_ms,
            };
            elapsed += charged;
            attempts.push(AttemptRecord {
                segment,
                attempt,
                outcome,
                duration_ms: charged,
            });
            if outcome == AttemptOutcome::Delivered {
                return SegmentSim {
                    attempts,
                    delivered: true,
                    elapsed_ms: elapsed,
                };
            }
        }
        SegmentSim {
            attempts,
            delivered: false,
            elapsed_ms: elapsed,
        }
    }

    /// Fold per-segment elapsed times into a wall-clock total under this
    /// engine's endpoint concurrency: segments move in waves of
    /// `concurrency` parallel streams, each wave costing its slowest
    /// member. With `concurrency == 1` this is the plain serial sum.
    /// (Per-stream bandwidth already divides by `concurrency` inside
    /// `attempt_time_ms`, so raising concurrency trades slower individual
    /// streams for overlap — a win whenever per-attempt latency is
    /// non-zero.)
    pub fn aggregate_elapsed_ms(&self, per_segment_ms: &[f64]) -> f64 {
        let wave = self.concurrency.max(1) as usize;
        per_segment_ms
            .chunks(wave)
            .map(|w| w.iter().copied().fold(0.0f64, f64::max))
            .sum()
    }

    /// Move `segment` from `src_repo` (node index `src`) into the replica
    /// partition of `dst_repo` (node index `dst`).
    ///
    /// This is a third-party transfer: the caller orchestrates, the
    /// endpoints move the data.
    pub fn transfer_segment(
        &self,
        src: usize,
        dst: usize,
        src_repo: &StorageRepository,
        dst_repo: &StorageRepository,
        segment: SegmentId,
    ) -> Result<TransferReport, TransferError> {
        self.transfer_segment_observed(
            src,
            dst,
            src_repo,
            dst_repo,
            segment,
            Partition::Replica,
            &mut |_| {},
        )
    }

    /// Like [`transfer_segment`](Self::transfer_segment) but delivering
    /// into a chosen destination partition (user downloads land in the
    /// user partition; CDN replication lands in the replica partition) and
    /// invoking `observe` once per network attempt, in order, with the
    /// outcome and charged time of each. The observer sees every attempt —
    /// including the final delivered/failed one — before the result is
    /// returned, so callers can build complete per-request traces.
    #[allow(clippy::too_many_arguments)]
    fn transfer_segment_observed(
        &self,
        src: usize,
        dst: usize,
        src_repo: &StorageRepository,
        dst_repo: &StorageRepository,
        segment: SegmentId,
        partition: Partition,
        observe: &mut dyn FnMut(AttemptRecord),
    ) -> Result<TransferReport, TransferError> {
        let seg = match src_repo.fetch_any(segment) {
            Ok(s) => s,
            Err(RepoError::IntegrityFailure(id)) => return Err(TransferError::SourceCorrupt(id)),
            Err(_) => return Err(TransferError::SourceMissing(segment)),
        };
        self.transfer_payload_observed(src, dst, dst_repo, &seg, partition, observe)
    }

    /// Deliver an in-memory segment from node `src` into the destination
    /// repository, with the same retry chain, observer protocol, and
    /// failure injection as `transfer_segment_observed` — but without requiring any source repository to hold the bytes.
    /// This is how a dataset owner ships freshly re-encoded coded blocks
    /// that exist nowhere on disk yet.
    pub fn transfer_payload_observed(
        &self,
        src: usize,
        dst: usize,
        dst_repo: &StorageRepository,
        seg: &Segment,
        partition: Partition,
        observe: &mut dyn FnMut(AttemptRecord),
    ) -> Result<TransferReport, TransferError> {
        // The network behaviour is a pure function of the endpoints and
        // segment identity: simulate the full retry chain, then replay it
        // against the observer and the destination repository.
        let segment = seg.id;
        let sim = self.simulate_segment(src, dst, segment, seg.len() as u64);
        for record in &sim.attempts {
            observe(*record);
            match record.outcome {
                AttemptOutcome::Delivered => {
                    dst_repo
                        .store(partition, seg.clone())
                        .map_err(TransferError::Destination)?;
                    return Ok(TransferReport {
                        bytes: seg.len() as u64,
                        duration_ms: sim.elapsed_ms,
                        attempts: record.attempt,
                    });
                }
                // A full attempt spent and nothing stored: a lost payload
                // never arrives, a corrupted one fails the destination's
                // checksum (`any_flipped_bit_fails_segment_verify`).
                AttemptOutcome::Lost | AttemptOutcome::Corrupted => {}
            }
        }
        Err(TransferError::RetriesExhausted {
            segment,
            attempts: self.max_attempts,
        })
    }

    /// Transfer a whole dataset's segments, returning per-segment reports.
    ///
    /// Stops at the first permanent failure and **rolls back** every
    /// segment this call delivered, so a failed batch never leaves a
    /// partial dataset occupying the destination's replica partition.
    /// Segments that were already present in the destination's replica
    /// partition before the call are left untouched (a re-delivery
    /// overwrites in place and is not rolled back).
    pub fn transfer_many(
        &self,
        src: usize,
        dst: usize,
        src_repo: &StorageRepository,
        dst_repo: &StorageRepository,
        segments: &[SegmentId],
    ) -> Result<Vec<TransferReport>, TransferError> {
        let (out, error) = self.transfer_many_observed(
            src,
            dst,
            src_repo,
            dst_repo,
            segments,
            Partition::Replica,
            &mut |_| {},
        );
        match error {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// [`transfer_many`](Self::transfer_many) with an attempt observer, a
    /// destination partition, and a partial-result return: the reports of
    /// every segment that delivered (in order) plus the first permanent
    /// failure, if one stopped the batch early.
    ///
    /// Rollback semantics are identical to `transfer_many` — on failure,
    /// newly delivered segments are removed from the destination while
    /// pre-existing copies survive — but the successful reports are kept,
    /// because replication accounting charges the bytes and wave time of
    /// the segments that did move even when the batch ultimately failed.
    /// The observer sees every attempt of every processed segment,
    /// including the retries of the segment that failed.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_many_observed(
        &self,
        src: usize,
        dst: usize,
        src_repo: &StorageRepository,
        dst_repo: &StorageRepository,
        segments: &[SegmentId],
        partition: Partition,
        observe: &mut dyn FnMut(AttemptRecord),
    ) -> (Vec<TransferReport>, Option<TransferError>) {
        let mut out = Vec::with_capacity(segments.len());
        let mut newly_delivered: Vec<SegmentId> = Vec::new();
        for &s in segments {
            let pre_existing = dst_repo.contains_in(partition, s);
            match self
                .transfer_segment_observed(src, dst, src_repo, dst_repo, s, partition, observe)
            {
                Ok(report) => {
                    out.push(report);
                    if !pre_existing {
                        newly_delivered.push(s);
                    }
                }
                Err(e) => {
                    for id in newly_delivered {
                        dst_repo.remove(partition, id, false).ok();
                    }
                    return (out, Some(e));
                }
            }
        }
        (out, None)
    }

    /// Coded any-k-of-n multi-source fetch: race `dataset`'s coded blocks
    /// from several donor replicas in waves of up to `concurrency`
    /// parallel chains, completing as soon as **any k distinct blocks**
    /// land in the destination partition — so one slow, lossy, corrupt, or
    /// departed donor no longer gates the whole fetch.
    ///
    /// Scheduling is fully deterministic: missing blocks are taken in
    /// ascending index order, each block's donor list is rotated by its
    /// index (spreading fan-in across the sources), and a chain that fails
    /// — retries exhausted, donor missing the block, or the donor's stored
    /// copy failing its [integrity
    /// checksum](scdn_storage::integrity::Checksum) — falls over to the
    /// block's next donor in a later wave. Corrupt serves are counted in
    /// [`CodedFetchReport::discarded_corrupt`] and never stored (the
    /// destination checksum rejects them inside the retry chain).
    ///
    /// Blocks already present in the destination partition count toward k
    /// for free. Each non-final wave costs its slowest member
    /// (the [`aggregate_elapsed_ms`](Self::aggregate_elapsed_ms) model);
    /// the final wave is cut at the chain that lands the k-th block, and
    /// chains still in flight at that instant are abandoned — their
    /// attempts are not observed and their bytes are not stored.
    ///
    /// **Partial-failure accounting** (distinct from
    /// [`transfer_many_observed`](Self::transfer_many_observed)'s
    /// all-or-nothing batches): once k blocks have landed the fetch *is*
    /// the success — later failures cannot occur (no further waves
    /// launch), and failures in earlier waves never roll back delivered
    /// blocks. Only a fetch that exhausts every donor below k rolls back
    /// what it delivered, leaving pre-existing blocks untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_coded_observed(
        &self,
        dst: usize,
        dst_repo: &StorageRepository,
        dataset: DatasetId,
        k: u32,
        sources: &[CodedSource<'_>],
        partition: Partition,
        observe: &mut dyn FnMut(AttemptRecord),
    ) -> (CodedFetchReport, Option<TransferError>) {
        // Blocks already on hand count toward k without any transfer.
        let mut report = CodedFetchReport {
            pre_existing: dst_repo.list_coded(partition, dataset),
            ..CodedFetchReport::default()
        };
        let mut have: usize = report.pre_existing.len();
        if have >= k as usize {
            return (report, None);
        }
        // Donor lists per missing block, rotated by block index so the
        // fan-in spreads across sources instead of hammering the first.
        let mut donors: Vec<(u32, Vec<usize>)> = Vec::new();
        let mut wanted: Vec<u32> = sources
            .iter()
            .flat_map(|s| s.blocks.iter().copied())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        for block in wanted {
            if report.pre_existing.contains(&block) {
                continue;
            }
            let mut holders: Vec<usize> = sources
                .iter()
                .enumerate()
                .filter(|(_, s)| s.blocks.contains(&block))
                .map(|(i, _)| i)
                .collect();
            if holders.is_empty() {
                continue;
            }
            let rot = block as usize % holders.len();
            holders.rotate_left(rot);
            donors.push((block, holders));
        }
        // Simulate every member chain first (pure), then decide which
        // deliveries to accept and how much wall-clock the wave costs.
        struct Member {
            block: u32,
            source: usize,
            outcome: Result<(Segment, SegmentSim), TransferError>,
        }
        let wave_width = self.concurrency.max(1) as usize;
        while have < k as usize && !donors.is_empty() {
            // One wave: the first `wave_width` still-missing blocks, each
            // from its current preferred donor.
            let members: Vec<(u32, usize)> = donors
                .iter()
                .take(wave_width)
                .map(|(block, holders)| (*block, holders[0]))
                .collect();
            let sims: Vec<Member> = members
                .iter()
                .map(|&(block, source)| {
                    let id = CodedBlockId {
                        dataset,
                        index: block,
                    }
                    .segment_id();
                    // Replica partition first (the CDN's copy), but keep an
                    // integrity failure as such instead of letting the
                    // user-partition miss mask it — corrupt donors must be
                    // *counted* as corrupt so callers can see them.
                    let fetched = match sources[source].repo.fetch(Partition::Replica, id) {
                        Err(RepoError::NotFound(_)) => {
                            sources[source].repo.fetch(Partition::User, id)
                        }
                        r => r,
                    };
                    let outcome = match fetched {
                        Ok(seg) => {
                            let sim = self.simulate_segment(
                                sources[source].node,
                                dst,
                                id,
                                seg.len() as u64,
                            );
                            Ok((seg, sim))
                        }
                        Err(RepoError::IntegrityFailure(bad)) => {
                            Err(TransferError::SourceCorrupt(bad))
                        }
                        Err(_) => Err(TransferError::SourceMissing(id)),
                    };
                    Member {
                        block,
                        source,
                        outcome,
                    }
                })
                .collect();
            // Completion order inside the wave: by chain elapsed time,
            // ties broken by block index (control-channel failures, which
            // never touch the network, complete at time zero).
            let mut order: Vec<usize> = (0..sims.len()).collect();
            order.sort_by(|&a, &b| {
                let t = |m: &Member| match &m.outcome {
                    Ok((_, sim)) => sim.elapsed_ms,
                    Err(_) => 0.0,
                };
                t(&sims[a])
                    .partial_cmp(&t(&sims[b]))
                    .expect("elapsed times are finite")
                    .then(sims[a].block.cmp(&sims[b].block))
            });
            let mut wave_ms = 0.0f64;
            let mut cut = false;
            let mut wave_failed: Vec<u32> = Vec::new();
            for &i in &order {
                let member = &sims[i];
                match &member.outcome {
                    Ok((seg, sim)) if sim.delivered => {
                        for record in &sim.attempts {
                            observe(*record);
                        }
                        if let Err(e) = dst_repo.store(partition, seg.clone()) {
                            // Destination rejection (quota) is permanent:
                            // no donor can fix it.
                            for landed in report.landed.drain(..) {
                                dst_repo.remove(partition, landed.id, false).ok();
                            }
                            return (report, Some(TransferError::Destination(e)));
                        }
                        report.landed.push(seg.clone());
                        report
                            .delivered
                            .push((member.block, sources[member.source].node));
                        report.reports.push(TransferReport {
                            bytes: seg.len() as u64,
                            duration_ms: sim.elapsed_ms,
                            attempts: sim.attempts.len() as u32,
                        });
                        report.total_bytes += seg.len() as u64;
                        have += 1;
                        wave_ms = sim.elapsed_ms;
                        if have == k as usize {
                            // The k-th block landed: abandon the chains
                            // still in flight and stop the clock here.
                            cut = true;
                            break;
                        }
                    }
                    Ok((_, sim)) => {
                        for record in &sim.attempts {
                            observe(*record);
                        }
                        if sim
                            .attempts
                            .iter()
                            .any(|a| a.outcome == AttemptOutcome::Corrupted)
                        {
                            report.discarded_corrupt += 1;
                        }
                        wave_failed.push(member.block);
                        wave_ms = wave_ms.max(sim.elapsed_ms);
                    }
                    Err(e) => {
                        if matches!(e, TransferError::SourceCorrupt(_)) {
                            report.discarded_corrupt += 1;
                        }
                        wave_failed.push(member.block);
                    }
                }
            }
            report.total_ms += wave_ms;
            if cut {
                return (report, None);
            }
            // Drop delivered blocks from the schedule; rotate failed
            // blocks to their next donor (or give up on them).
            let wave_blocks: Vec<u32> = members.iter().map(|&(b, _)| b).collect();
            donors.retain_mut(|(block, holders)| {
                if !wave_blocks.contains(block) {
                    return true;
                }
                if wave_failed.contains(block) {
                    holders.remove(0);
                    !holders.is_empty()
                } else {
                    false
                }
            });
        }
        if have >= k as usize {
            (report, None)
        } else {
            for landed in report.landed.drain(..) {
                dst_repo.remove(partition, landed.id, false).ok();
            }
            let err = TransferError::InsufficientBlocks {
                dataset,
                have: have as u32,
                need: k,
            };
            (report, Some(err))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkQuality;
    use bytes::Bytes;
    use scdn_storage::integrity::corrupt_bit;
    use scdn_storage::object::{DatasetId, Segment};

    fn seg(ds: u32, ord: u32, size: usize) -> Segment {
        Segment::new(
            SegmentId {
                dataset: DatasetId(ds),
                ordinal: ord,
            },
            Bytes::from(vec![0x5a; size]),
        )
    }

    fn two_node_engine(failure: FailureModel) -> TransferEngine {
        let topo = Topology::uniform(vec![(41.88, -87.63), (49.01, 8.40)], LinkQuality::default());
        TransferEngine {
            topology: topo,
            failure,
            max_attempts: 3,
            concurrency: 1,
        }
    }

    #[test]
    fn reliable_transfer_delivers() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let s = seg(1, 0, 4096);
        a.store(Partition::User, s.clone()).expect("stored");
        let r = e.transfer_segment(0, 1, &a, &b, s.id).expect("delivers");
        assert_eq!(r.bytes, 4096);
        assert_eq!(r.attempts, 1);
        assert!(r.duration_ms > 0.0);
        assert!(b.fetch(Partition::Replica, s.id).is_ok());
    }

    #[test]
    fn missing_source_fails() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1024);
        let b = StorageRepository::new(1024);
        let id = SegmentId {
            dataset: DatasetId(9),
            ordinal: 0,
        };
        assert_eq!(
            e.transfer_segment(0, 1, &a, &b, id).unwrap_err(),
            TransferError::SourceMissing(id)
        );
    }

    #[test]
    fn destination_quota_propagates() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(10); // too small
        let s = seg(1, 0, 4096);
        a.store(Partition::User, s.clone()).expect("stored");
        match e.transfer_segment(0, 1, &a, &b, s.id).unwrap_err() {
            TransferError::Destination(RepoError::QuotaExceeded { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn lossy_transfers_retry_and_record_attempts() {
        let e = two_node_engine(FailureModel {
            loss_prob: 0.5,
            corruption_prob: 0.0,
            seed: 11,
            ..FailureModel::default()
        });
        let a = StorageRepository::new(1 << 24);
        let b = StorageRepository::new(1 << 24);
        let mut delivered = 0;
        let mut exhausted = 0;
        let mut multi_attempt = 0;
        for i in 0..200 {
            let s = seg(i, 0, 256);
            a.store(Partition::User, s.clone()).expect("stored");
            match e.transfer_segment(0, 1, &a, &b, s.id) {
                Ok(r) => {
                    delivered += 1;
                    if r.attempts > 1 {
                        multi_attempt += 1;
                    }
                }
                Err(TransferError::RetriesExhausted { attempts, .. }) => {
                    assert_eq!(attempts, 3);
                    exhausted += 1;
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
        // p(fail all 3) = 0.125 → ~25 of 200.
        assert!(delivered > 150, "delivered = {delivered}");
        assert!(exhausted > 5, "exhausted = {exhausted}");
        assert!(multi_attempt > 20, "multi_attempt = {multi_attempt}");
    }

    #[test]
    fn duration_accumulates_over_retries() {
        // Force loss on attempt 1 by scanning for a seed where the first
        // attempt is lost and the second delivers.
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let s = seg(1, 0, 1000);
        a.store(Partition::User, s.clone()).expect("stored");
        for seed in 0..200 {
            let e = two_node_engine(FailureModel {
                loss_prob: 0.5,
                corruption_prob: 0.0,
                seed,
                ..FailureModel::default()
            });
            if let Ok(r) = e.transfer_segment(0, 1, &a, &b, s.id) {
                if r.attempts == 2 {
                    let single = e.attempt_time_ms(0, 1, 1000);
                    assert!((r.duration_ms - 1.5 * single).abs() < 1e-6);
                    return;
                }
            }
            b.remove(Partition::Replica, s.id, false).ok();
        }
        panic!("no seed produced a 2-attempt success");
    }

    #[test]
    fn transfer_many_moves_dataset() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let ids: Vec<SegmentId> = (0..5)
            .map(|ord| {
                let s = seg(3, ord, 512);
                let id = s.id;
                a.store(Partition::User, s).expect("stored");
                id
            })
            .collect();
        let reports = e.transfer_many(0, 1, &a, &b, &ids).expect("all deliver");
        assert_eq!(reports.len(), 5);
        assert_eq!(b.segment_count(Partition::Replica), 5);
    }

    #[test]
    fn transfer_many_rolls_back_partial_delivery() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        // A segment already replicated at the destination before the batch:
        // it must survive the rollback.
        let kept = seg(3, 0, 512);
        a.store(Partition::User, kept.clone()).expect("stored");
        b.store(Partition::Replica, kept.clone()).expect("stored");
        let mut ids = vec![kept.id];
        for ord in 1..4 {
            let s = seg(3, ord, 512);
            ids.push(s.id);
            a.store(Partition::User, s).expect("stored");
        }
        // The final segment is missing at the source, so the batch fails
        // after three successful deliveries.
        ids.push(SegmentId {
            dataset: DatasetId(3),
            ordinal: 99,
        });
        let err = e.transfer_many(0, 1, &a, &b, &ids).unwrap_err();
        assert!(matches!(err, TransferError::SourceMissing(_)));
        // Only the pre-existing replica remains; the three new deliveries
        // were rolled back instead of squatting in the replica partition.
        assert_eq!(b.list(Partition::Replica), vec![kept.id]);
    }

    #[test]
    fn transfer_many_observed_keeps_partial_reports_and_rolls_back() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let mut ids = Vec::new();
        for ord in 0..3 {
            let s = seg(4, ord, 512);
            ids.push(s.id);
            a.store(Partition::User, s).expect("stored");
        }
        // Missing at the source: fails after two successful deliveries.
        ids.insert(
            2,
            SegmentId {
                dataset: DatasetId(4),
                ordinal: 99,
            },
        );
        let mut attempts = 0usize;
        let (reports, error) =
            e.transfer_many_observed(0, 1, &a, &b, &ids, Partition::Replica, &mut |_| {
                attempts += 1
            });
        assert!(matches!(error, Some(TransferError::SourceMissing(_))));
        assert_eq!(reports.len(), 2, "the two delivered segments are reported");
        assert_eq!(attempts, 2, "one reliable attempt per delivered segment");
        assert!(
            b.list(Partition::Replica).is_empty(),
            "failed batch rolled back"
        );
    }

    #[test]
    fn transfer_many_observed_honors_partition() {
        let e = two_node_engine(FailureModel::reliable());
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let s = seg(6, 0, 256);
        a.store(Partition::User, s.clone()).expect("stored");
        let (reports, error) =
            e.transfer_many_observed(0, 1, &a, &b, &[s.id], Partition::User, &mut |_| {});
        assert!(error.is_none());
        assert_eq!(reports.len(), 1);
        assert!(b.fetch(Partition::User, s.id).is_ok());
        assert!(b.fetch(Partition::Replica, s.id).is_err());
    }

    #[test]
    fn simulation_matches_observed_transfer() {
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let e = two_node_engine(FailureModel {
            loss_prob: 0.4,
            corruption_prob: 0.1,
            seed: 23,
            ..FailureModel::default()
        });
        for ds in 0..50 {
            let s = seg(ds, 0, 777);
            a.store(Partition::User, s.clone()).expect("stored");
            let sim = e.simulate_segment(0, 1, s.id, 777);
            let mut records: Vec<AttemptRecord> = Vec::new();
            let result =
                e.transfer_segment_observed(0, 1, &a, &b, s.id, Partition::Replica, &mut |r| {
                    records.push(r)
                });
            assert_eq!(records, sim.attempts, "dataset {ds}");
            match result {
                Ok(report) => {
                    assert!(sim.delivered);
                    assert_eq!(report.duration_ms, sim.elapsed_ms);
                    assert_eq!(report.attempts, sim.attempts.len() as u32);
                }
                Err(TransferError::RetriesExhausted { .. }) => assert!(!sim.delivered),
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
    }

    /// What a `Corrupted` attempt stands for: the bytes that would have
    /// arrived differ from the segment's in at least one bit, and the
    /// destination's checksum refuses them — so the retry loop stores
    /// nothing for such an attempt. Exhaustive over every bit of payloads
    /// shorter than, equal to and longer than a checksum stripe, and of
    /// sizes that end the carry-less CRC fold in each of its branches
    /// (table only, four accumulators alone, one to three single folds, a
    /// byte tail after each).
    #[test]
    fn any_flipped_bit_fails_segment_verify() {
        for size in [1, 31, 32, 33, 64, 100, 127, 128, 129, 192, 255, 777] {
            let good = seg(1, 0, size);
            assert!(good.verify());
            for bit in 0..size * 8 {
                let mut raw = good.data.to_vec();
                corrupt_bit(&mut raw, bit);
                let bad = Segment {
                    id: good.id,
                    data: Bytes::from(raw),
                    checksum: good.checksum,
                };
                assert!(!bad.verify(), "{size} bytes, bit {bit}");
            }
        }
    }

    #[test]
    fn concurrency_strictly_reduces_multi_segment_time() {
        // Per-stream bandwidth divides by the concurrency, so each wave is
        // slower than a lone stream — but waves overlap, and with non-zero
        // latency the overlap strictly wins for multi-segment transfers.
        let topo = Topology::uniform(vec![(41.88, -87.63), (49.01, 8.40)], LinkQuality::default());
        let serial = TransferEngine {
            topology: topo.clone(),
            failure: FailureModel::reliable(),
            max_attempts: 3,
            concurrency: 1,
        };
        let wide = TransferEngine {
            topology: topo,
            failure: FailureModel::reliable(),
            max_attempts: 3,
            concurrency: 4,
        };
        let per_seg = |e: &TransferEngine| {
            (0..8)
                .map(|ord| {
                    let id = SegmentId {
                        dataset: DatasetId(5),
                        ordinal: ord,
                    };
                    e.simulate_segment(0, 1, id, 64 * 1024).elapsed_ms
                })
                .collect::<Vec<f64>>()
        };
        let t1 = serial.aggregate_elapsed_ms(&per_seg(&serial));
        let t4 = wide.aggregate_elapsed_ms(&per_seg(&wide));
        assert!(
            t4 < t1,
            "concurrency 4 must beat serial: {t4} ms vs {t1} ms"
        );
        // concurrency == 1 aggregation is the plain sum.
        let times = per_seg(&serial);
        let sum: f64 = times.iter().sum();
        assert_eq!(serial.aggregate_elapsed_ms(&times), sum);
    }

    // ---- coded any-k-of-n fetch -------------------------------------

    use scdn_storage::coding::{CodedBlockId, CodingSpec};

    /// A topology of `n` sites and per-node repositories, with dataset 1
    /// coded (k, m) and block `i` stored on node `i + 1` (node 0 is the
    /// fetch destination and holds nothing).
    fn coded_world(
        k: u8,
        m: u8,
        failure: FailureModel,
        concurrency: u32,
    ) -> (TransferEngine, Vec<StorageRepository>, Vec<u8>, CodingSpec) {
        let n = (k + m) as usize;
        let coords: Vec<(f64, f64)> = (0..=n).map(|i| (10.0 + i as f64, 20.0)).collect();
        let engine = TransferEngine {
            topology: Topology::uniform(coords, LinkQuality::default()),
            failure,
            max_attempts: 3,
            concurrency,
        };
        let content: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let spec = CodingSpec {
            k,
            m,
            seed: 7,
            total_len: content.len() as u64,
        };
        let blocks = scdn_storage::coding::encode_blocks(&spec, DatasetId(1), &content);
        let repos: Vec<StorageRepository> =
            (0..=n).map(|_| StorageRepository::new(1 << 24)).collect();
        for (i, b) in blocks.iter().enumerate() {
            repos[i + 1]
                .store(Partition::Replica, b.clone())
                .expect("stored");
        }
        (engine, repos, content, spec)
    }

    fn one_block_sources<'a>(repos: &'a [StorageRepository], n: usize) -> Vec<CodedSource<'a>> {
        (0..n)
            .map(|i| CodedSource {
                node: i + 1,
                repo: &repos[i + 1],
                blocks: vec![i as u32],
            })
            .collect()
    }

    #[test]
    fn coded_fetch_completes_at_k_and_decodes() {
        let (e, repos, content, spec) = coded_world(3, 2, FailureModel::reliable(), 2);
        let sources = one_block_sources(&repos, 5);
        let mut records = Vec::new();
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            3,
            &sources,
            Partition::User,
            &mut |r| records.push(r),
        );
        assert!(error.is_none());
        assert_eq!(report.delivered.len(), 3);
        assert!(report.total_ms > 0.0);
        assert_eq!(report.total_bytes, 3 * spec.block_len() as u64);
        assert_eq!(records.len(), 3, "one reliable attempt per block");
        // Exactly k blocks landed — never more.
        let held = repos[0].list_coded(Partition::User, DatasetId(1));
        assert_eq!(held.len(), 3);
        // And they decode back to the original content.
        let segs: Vec<Segment> = held
            .iter()
            .map(|&i| {
                repos[0]
                    .fetch(
                        Partition::User,
                        CodedBlockId {
                            dataset: DatasetId(1),
                            index: i,
                        }
                        .segment_id(),
                    )
                    .expect("held")
            })
            .collect();
        let got = scdn_storage::coding::decode_blocks(&spec, &segs).expect("decodes");
        assert_eq!(got.as_ref(), &content[..]);
    }

    #[test]
    fn coded_fetch_succeeds_when_wave_member_fails_after_k_landed() {
        // Satellite regression: a wave containing a permanently failing
        // chain must still count as success once k blocks have landed, and
        // the delivered blocks must NOT be rolled back (the old
        // transfer_many semantics would have removed them).
        let (e, repos, _, _) = coded_world(2, 2, FailureModel::reliable(), 4);
        let mut sources = one_block_sources(&repos, 4);
        // Donor of block 1 advertises it but does not hold it: that chain
        // fails at time zero inside the very wave that delivers k = 2.
        sources[1] = CodedSource {
            node: 2,
            repo: &repos[3],
            blocks: vec![1],
        };
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            2,
            &sources,
            Partition::User,
            &mut |_| {},
        );
        assert!(error.is_none(), "k landed: the failing member is moot");
        assert_eq!(report.delivered.len(), 2);
        assert_eq!(
            repos[0].list_coded(Partition::User, DatasetId(1)).len(),
            2,
            "delivered blocks survive the wave member's failure"
        );
    }

    #[test]
    fn coded_fetch_below_k_rolls_back_but_keeps_pre_existing() {
        let (e, repos, _, _) = coded_world(3, 1, FailureModel::reliable(), 2);
        // Destination already holds block 3.
        let pre = CodedBlockId {
            dataset: DatasetId(1),
            index: 3,
        };
        repos[0]
            .store(
                Partition::User,
                repos[4]
                    .fetch(Partition::Replica, pre.segment_id())
                    .expect("held"),
            )
            .expect("stored");
        // Only one live donor (block 0): 2 of 3 reachable.
        let sources = vec![CodedSource {
            node: 1,
            repo: &repos[1],
            blocks: vec![0],
        }];
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            3,
            &sources,
            Partition::User,
            &mut |_| {},
        );
        assert_eq!(
            error,
            Some(TransferError::InsufficientBlocks {
                dataset: DatasetId(1),
                have: 2,
                need: 3,
            })
        );
        assert_eq!(report.pre_existing, vec![3]);
        assert_eq!(
            repos[0].list_coded(Partition::User, DatasetId(1)),
            vec![3],
            "newly delivered rolled back, pre-existing kept"
        );
    }

    #[test]
    fn coded_fetch_hands_back_the_blocks_it_landed() {
        let (e, repos, _, _) = coded_world(3, 2, FailureModel::reliable(), 2);
        let sources = one_block_sources(&repos, 5);
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            3,
            &sources,
            Partition::User,
            &mut |_| {},
        );
        assert!(error.is_none());
        // One verified segment per delivery, in acceptance order, sharing
        // the donor's buffer — what the destination now stores.
        assert_eq!(report.landed.len(), report.delivered.len());
        for (seg, &(block, donor)) in report.landed.iter().zip(&report.delivered) {
            let id = CodedBlockId {
                dataset: DatasetId(1),
                index: block,
            }
            .segment_id();
            assert_eq!(seg.id, id);
            let at_donor = repos[donor].fetch(Partition::Replica, id).expect("held");
            let at_dst = repos[0].fetch(Partition::User, id).expect("landed");
            assert_eq!(seg.data.as_ptr(), at_donor.data.as_ptr());
            assert_eq!(seg.data.as_ptr(), at_dst.data.as_ptr());
            assert_eq!(seg.checksum, at_dst.checksum);
        }
        // A fetch that stalls below k rolls back and reports nothing landed.
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[5],
            DatasetId(1),
            3,
            &sources[..2],
            Partition::User,
            &mut |_| {},
        );
        assert!(matches!(
            error,
            Some(TransferError::InsufficientBlocks { have: 2, .. })
        ));
        assert_eq!(report.delivered.len(), 2, "accounting keeps the moves");
        assert!(report.landed.is_empty());
    }

    #[test]
    fn byzantine_donor_discarded_and_fetched_elsewhere() {
        // Find a byzantine seed that marks exactly node 1 (the holder of
        // block 0) as Byzantine among nodes 0..=4.
        let mut failure = FailureModel {
            byzantine_frac: 0.25,
            ..FailureModel::default()
        };
        let mut found = false;
        for seed in 0..500 {
            failure.byzantine_seed = seed;
            if failure.is_byzantine_source(1) && !(2..=4).any(|n| failure.is_byzantine_source(n)) {
                found = true;
                break;
            }
        }
        assert!(found, "no suitable byzantine seed in range");
        let (e, repos, content, spec) = coded_world(2, 2, failure, 2);
        // Every donor advertises every block it could serve: give block 0
        // a fallback donor (node 2 also stores block 0's segment).
        let block0 = repos[1]
            .fetch(
                Partition::Replica,
                CodedBlockId {
                    dataset: DatasetId(1),
                    index: 0,
                }
                .segment_id(),
            )
            .expect("held");
        repos[2].store(Partition::Replica, block0).expect("stored");
        let mut sources = one_block_sources(&repos, 4);
        sources[1].blocks = vec![0, 1];
        let mut records = Vec::new();
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            2,
            &sources,
            Partition::User,
            &mut |r| records.push(r),
        );
        assert!(error.is_none(), "k-of-n absorbs the Byzantine donor");
        assert_eq!(report.delivered.len(), 2);
        assert!(
            report.delivered.iter().all(|&(_, node)| node != 1),
            "nothing accepted from the Byzantine donor: {:?}",
            report.delivered
        );
        assert!(
            records
                .iter()
                .any(|r| r.outcome == AttemptOutcome::Corrupted),
            "the Byzantine donor's corrupt serves were observed"
        );
        assert!(report.discarded_corrupt >= 1);
        // Delivered blocks still decode.
        let segs: Vec<Segment> = repos[0]
            .list_coded(Partition::User, DatasetId(1))
            .iter()
            .map(|&i| {
                repos[0]
                    .fetch(
                        Partition::User,
                        CodedBlockId {
                            dataset: DatasetId(1),
                            index: i,
                        }
                        .segment_id(),
                    )
                    .expect("held")
            })
            .collect();
        let got = scdn_storage::coding::decode_blocks(&spec, &segs).expect("decodes");
        assert_eq!(got.as_ref(), &content[..]);
    }

    #[test]
    fn tampered_stored_block_detected_at_source_and_skipped() {
        let (e, repos, _, _) = coded_world(2, 2, FailureModel::reliable(), 2);
        // Tamper node 1's stored copy of block 0 behind the CDN's back.
        let id = CodedBlockId {
            dataset: DatasetId(1),
            index: 0,
        }
        .segment_id();
        let good = repos[1].fetch(Partition::Replica, id).expect("intact");
        let mut raw = good.data.to_vec();
        raw[0] ^= 0xff;
        repos[1]
            .store(
                Partition::Replica,
                Segment {
                    id,
                    data: Bytes::from(raw),
                    checksum: good.checksum,
                },
            )
            .expect("stored tampered");
        let sources = one_block_sources(&repos, 4);
        let (report, error) = e.transfer_coded_observed(
            0,
            &repos[0],
            DatasetId(1),
            2,
            &sources,
            Partition::User,
            &mut |_| {},
        );
        assert!(error.is_none());
        assert!(report.discarded_corrupt >= 1, "source checksum caught it");
        assert!(
            report.delivered.iter().all(|&(b, _)| b != 0),
            "the tampered block was never accepted"
        );
    }

    #[test]
    fn transfer_payload_observed_matches_repo_transfer() {
        let e = two_node_engine(FailureModel {
            loss_prob: 0.3,
            corruption_prob: 0.1,
            seed: 31,
            ..FailureModel::default()
        });
        for ds in 0..20 {
            let s = seg(ds, 0, 999);
            let a = StorageRepository::new(1 << 20);
            let b1 = StorageRepository::new(1 << 20);
            let b2 = StorageRepository::new(1 << 20);
            a.store(Partition::User, s.clone()).expect("stored");
            let via_repo =
                e.transfer_segment_observed(0, 1, &a, &b1, s.id, Partition::Replica, &mut |_| {});
            let via_payload =
                e.transfer_payload_observed(0, 1, &b2, &s, Partition::Replica, &mut |_| {});
            assert_eq!(via_repo.is_ok(), via_payload.is_ok(), "dataset {ds}");
            if let (Ok(r1), Ok(r2)) = (via_repo, via_payload) {
                assert_eq!(r1, r2, "identical retry chain either way");
                assert_eq!(
                    b1.fetch(Partition::Replica, s.id).expect("held").data,
                    b2.fetch(Partition::Replica, s.id).expect("held").data
                );
            }
        }
    }

    #[test]
    fn observer_sees_every_attempt_in_order() {
        let a = StorageRepository::new(1 << 20);
        let b = StorageRepository::new(1 << 20);
        let s = seg(7, 0, 1000);
        a.store(Partition::User, s.clone()).expect("stored");
        // Find a seed whose transfer needs more than one attempt so the
        // observer records a retry chain.
        for seed in 0..200 {
            let e = two_node_engine(FailureModel {
                loss_prob: 0.5,
                corruption_prob: 0.0,
                seed,
                ..FailureModel::default()
            });
            let mut records: Vec<AttemptRecord> = Vec::new();
            let result =
                e.transfer_segment_observed(0, 1, &a, &b, s.id, Partition::Replica, &mut |r| {
                    records.push(r)
                });
            match result {
                Ok(report) if report.attempts > 1 => {
                    assert_eq!(records.len(), report.attempts as usize);
                    for (i, r) in records.iter().enumerate() {
                        assert_eq!(r.attempt, i as u32 + 1);
                        assert_eq!(r.segment, s.id);
                        assert!(r.duration_ms > 0.0);
                    }
                    let (last, earlier) = records.split_last().expect("non-empty");
                    assert_eq!(last.outcome, AttemptOutcome::Delivered);
                    assert!(earlier.iter().all(|r| r.outcome == AttemptOutcome::Lost));
                    assert!(
                        (records.iter().map(|r| r.duration_ms).sum::<f64>() - report.duration_ms)
                            .abs()
                            < 1e-9
                    );
                    return;
                }
                _ => {
                    b.remove(Partition::Replica, s.id, false).ok();
                }
            }
        }
        panic!("no seed produced a multi-attempt success");
    }
}
