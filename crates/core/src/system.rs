//! The S-CDN runtime: the four architecture components wired together.
//!
//! Nodes of the trust subgraph double as network endpoints: each author
//! contributes a [`StorageRepository`], registers with the
//! [`SocialPlatform`], and authenticates through the [`Middleware`]. The
//! [`AllocationServer`] places replicas with a social placement algorithm
//! and resolves requests; the [`TransferEngine`] moves checksummed
//! segments; availability churn and all Section V-E metrics are recorded.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use scdn_alloc::discovery::Selection;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_alloc::ranking_cache::RankingCache;
use scdn_alloc::replication::{AdaptiveRebalance, ReplicationPolicy, StaticRebalance};
use scdn_alloc::server::{AllocationError, AllocationServer, RepositoryInfo};
use scdn_graph::{CsrGraph, Graph, GraphDelta, NodeId};
use scdn_middleware::audit::AuditLog;
use scdn_middleware::auth::{Middleware, MiddlewareError};
use scdn_middleware::authz::{AccessDecision, AccessPolicy};
use scdn_net::failure::{AttemptOutcome, FailureModel};
use scdn_net::topology::{LinkQuality, Topology};
use scdn_net::transfer::{
    CodedFetchReport, CodedSource, TransferEngine, TransferError, TransferReport,
};
use scdn_obs::{
    Counter, Gauge, HistogramConfig, Registry, SharedHistogram, SpanStatus, TraceCollector,
};
use scdn_sim::availability::{AvailabilityModel, PeriodicChurn};
use scdn_sim::engine::SimTime;
use scdn_sim::metrics::{CdnMetrics, SocialMetrics};
use scdn_social::author::AuthorId;
use scdn_social::corpus::Corpus;
use scdn_social::platform::SocialPlatform;
use scdn_social::trustgraph::TrustSubgraph;
use scdn_storage::cache::{CacheManager, EvictionPolicy};
use scdn_storage::coding::{
    decode_block_shards, encode_block_rows, CodedBlockId, CodingConfig, CodingError, CodingSpec,
    DecodedShards, ErasureCoder,
};
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{Dataset, DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::{Partition, RepoError, StorageRepository};
use scdn_trust::interaction::InteractionLedger;
use scdn_trust::model::{TrustModel, TrustParams};

/// Availability regime of the contributed repositories.
#[derive(Clone, Copy, Debug)]
pub enum AvailabilityConfig {
    /// Idealized always-on fabric.
    AlwaysOn,
    /// Deterministic churn: every node cycles with the given period and
    /// duty fraction (decorrelated phases).
    Periodic {
        /// Cycle length in milliseconds.
        period_ms: u64,
        /// Online fraction per cycle.
        duty: f64,
    },
}

/// Which [`RebalancePolicy`] maintenance cycles plan with.
///
/// `Static` reproduces the pre-policy-trait behavior exactly: the
/// [`ReplicationPolicy`] formula with `replicas_per_dataset` as the grow
/// floor. `Adaptive` distributes a global replica budget in proportion to
/// each dataset's share of the demand window (see
/// [`AdaptiveRebalance`]).
///
/// [`RebalancePolicy`]: scdn_alloc::replication::RebalancePolicy
#[derive(Clone, Copy, Debug)]
pub enum RebalanceStrategy {
    /// The static [`ReplicationPolicy`] from `ScdnConfig::replication`,
    /// with `replicas_per_dataset` as the grow floor.
    Static,
    /// Demand-proportional targets under a global replica budget.
    Adaptive(AdaptiveRebalance),
}

/// Configuration of an S-CDN instance.
#[derive(Clone, Debug)]
pub struct ScdnConfig {
    /// Capacity of each contributed repository, bytes.
    pub repo_capacity: u64,
    /// Segment size for published datasets, bytes.
    pub segment_size: usize,
    /// Replica placement algorithm.
    pub placement: PlacementAlgorithm,
    /// Target replica count per dataset.
    pub replicas_per_dataset: usize,
    /// Transfer failure model.
    pub failure: FailureModel,
    /// Repository availability regime.
    pub availability: AvailabilityConfig,
    /// Replication policy for maintenance cycles.
    pub replication: ReplicationPolicy,
    /// How maintenance cycles pick per-dataset replica targets (see
    /// [`RebalanceStrategy`]). `Static` keeps today's behavior.
    pub rebalance: RebalanceStrategy,
    /// When set, a request is served only by hosts socially reachable
    /// from the requester in the current graph: a replica or coded block
    /// host in another island of a pruned trust graph cannot serve it —
    /// "data stays within the bounds of a particular project" (Section V).
    pub enforce_social_boundary: bool,
    /// Opportunistic caching: after a successful remote fetch, the
    /// requester's downloaded copy is promoted into its replica partition
    /// and registered with the catalog ("they may … also be copied to the
    /// replica partition if so instructed by an allocation server",
    /// Section V-A). Subsequent requests from that neighborhood then hit.
    pub opportunistic_caching: bool,
    /// Parallel streams per endpoint pair assumed by the transfer engine
    /// (Globus-style striping). Values above 1 overlap segment transfers
    /// in waves: per-stream bandwidth drops, but multi-segment datasets
    /// finish sooner whenever per-attempt latency is non-zero.
    pub transfer_concurrency: u32,
    /// Storage-redundancy scheme for published datasets. The default
    /// [`CodingConfig::None`] keeps whole-replica replication exactly as
    /// before; [`CodingConfig::Rs`] erasure-codes each dataset into
    /// `k + m` blocks spread one per host, so any `k` reconstruct the
    /// content ([`Scdn::request`]) and repair regenerates only the
    /// blocks that went missing ([`Scdn::replicate`] on a coded dataset).
    pub coding: CodingConfig,
    /// Master RNG seed (placement + workload side).
    pub seed: u64,
}

impl Default for ScdnConfig {
    fn default() -> Self {
        ScdnConfig {
            repo_capacity: 64 << 20,
            segment_size: 256 << 10,
            placement: PlacementAlgorithm::CommunityNodeDegree,
            replicas_per_dataset: 3,
            failure: FailureModel::reliable(),
            availability: AvailabilityConfig::AlwaysOn,
            replication: ReplicationPolicy::default(),
            rebalance: RebalanceStrategy::Static,
            enforce_social_boundary: false,
            opportunistic_caching: false,
            transfer_concurrency: 1,
            coding: CodingConfig::None,
            seed: 7,
        }
    }
}

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum ScdnError {
    /// Authentication / session failure.
    Auth(MiddlewareError),
    /// Access denied by policy.
    Access(AccessDecision),
    /// Allocation layer failure.
    Alloc(AllocationError),
    /// Transfer layer failure.
    Transfer(TransferError),
    /// Storage layer failure.
    Repo(RepoError),
    /// Node index outside the membership.
    UnknownNode(NodeId),
    /// The configured erasure-coding scheme cannot be built.
    Coding(CodingError),
}

impl std::fmt::Display for ScdnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScdnError::Auth(e) => write!(f, "auth: {e}"),
            ScdnError::Access(d) => write!(f, "access denied: {d:?}"),
            ScdnError::Alloc(e) => write!(f, "allocation: {e}"),
            ScdnError::Transfer(e) => write!(f, "transfer: {e}"),
            ScdnError::Repo(e) => write!(f, "storage: {e}"),
            ScdnError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            ScdnError::Coding(e) => write!(f, "coding: {e}"),
        }
    }
}

impl std::error::Error for ScdnError {}

impl From<AllocationError> for ScdnError {
    fn from(e: AllocationError) -> Self {
        ScdnError::Alloc(e)
    }
}

impl From<TransferError> for ScdnError {
    fn from(e: TransferError) -> Self {
        ScdnError::Transfer(e)
    }
}

impl From<MiddlewareError> for ScdnError {
    fn from(e: MiddlewareError) -> Self {
        ScdnError::Auth(e)
    }
}

/// Outcome of a data request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestOutcome {
    /// Replica node that served the request.
    pub served_by: NodeId,
    /// `true` if the replica was within one social hop.
    pub social_hit: bool,
    /// End-to-end response time, ms.
    pub response_ms: f64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// What the runtime records about one published dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetMeta {
    owner: NodeId,
    policy: AccessPolicy,
    /// The owner's digest of each plain segment, as `publish` cut it: the
    /// reference a segment received from another member must carry, and
    /// the digest a decoded segment is stored under.
    segment_digests: Arc<[Checksum]>,
    /// The owner's digest of each coded block `0..n`, recorded by the
    /// first full encode of its plain copy (never, for an uncoded
    /// dataset). Set once, by that encode, which runs from `&self`.
    block_digests: OnceCell<Box<[Checksum]>>,
}

enum Availability {
    AlwaysOn,
    Periodic(PeriodicChurn),
}

impl Availability {
    fn is_online(&self, node: usize, t: SimTime) -> bool {
        match self {
            Availability::AlwaysOn => true,
            Availability::Periodic(p) => p.is_online(node, t),
        }
    }

    fn fraction(&self, _node: usize) -> f64 {
        match self {
            Availability::AlwaysOn => 1.0,
            Availability::Periodic(p) => p.duty,
        }
    }
}

/// A running Social CDN over one trust subgraph.
pub struct Scdn {
    config: ScdnConfig,
    /// The social graph (node ids index everything below).
    pub social: Graph,
    /// The frozen view of `social` that resolution and placement query:
    /// frozen once at build time and advanced copy-on-write by every
    /// [`apply_graph_delta`](Scdn::apply_graph_delta), so the two always
    /// describe the same edge set.
    social_csr: CsrGraph,
    /// Node → author mapping.
    pub authors: Vec<AuthorId>,
    platform: Rc<SocialPlatform>,
    middleware: Middleware,
    sessions: Vec<u64>,
    repos: Vec<StorageRepository>,
    engine: TransferEngine,
    alloc: AllocationServer,
    availability: Availability,
    departed: Vec<bool>,
    clients: Vec<crate::client::MonitoringClient>,
    clock: SimTime,
    datasets: HashMap<DatasetId, DatasetMeta>,
    next_dataset: u32,
    ledger: InteractionLedger,
    trust_model: TrustModel,
    audit: AuditLog,
    /// CDN quality metrics.
    pub cdn_metrics: CdnMetrics,
    /// Social collaboration metrics.
    pub social_metrics: SocialMetrics,
    /// Shared metric registry: the alloc server, the per-node cache
    /// managers, and the runtime's own counters all register here.
    registry: Registry,
    /// Bounded ring of recent request-lifecycle traces.
    traces: TraceCollector,
    /// Per-node replica-partition cache managers (LRU, shared counters).
    caches: Vec<CacheManager>,
    /// Per-attempt transfer outcome counters (`net.attempts.*`).
    att_delivered: Counter,
    att_lost: Counter,
    att_corrupted: Counter,
    /// Latest sampled online fraction (`core.online_fraction`).
    online_fraction: Gauge,
    /// Memoized full placement orderings: `replicate_to`, `maintain`, and
    /// `repair` rank the social graph once per graph generation and slice
    /// per dataset instead of re-running the placement algorithm per
    /// dataset (`core.maintain.ranking_cache_{hit,miss}`).
    rankings: RankingCache,
    ranking_hits: Counter,
    ranking_misses: Counter,
    /// Wall time of every ranking-cache miss, i.e. of one full placement
    /// recompute (`core.maintain.ranking_recompute_ms`). Host time: kept
    /// out of every snapshot-equality comparison.
    ranking_recompute_ms: SharedHistogram,
    /// Graph-churn counters: deltas applied via
    /// [`apply_graph_delta`](Scdn::apply_graph_delta)
    /// (`core.graph.delta_applied`), total CSR rows rebuilt by them
    /// (`core.graph.delta_nodes_touched`), bytes of CSR column data the
    /// chunked copy-on-write assembly actually copied
    /// (`core.graph.delta_bytes_copied`), and chunks it shared with the
    /// predecessor snapshot by refcount bump
    /// (`core.graph.delta_chunks_shared`).
    delta_applied: Counter,
    delta_nodes_touched: Counter,
    delta_bytes_copied: Counter,
    delta_chunks_shared: Counter,
    /// What coded requests did with blocks (`core.coded.*`): blocks a
    /// fetch landed, blocks the requester already held, donor chains
    /// dropped for serving corrupt bytes, and data shards that had to be
    /// reconstructed from parity (0 while every data block arrives).
    coded_blocks_landed: Counter,
    coded_blocks_preexisting: Counter,
    coded_discarded_corrupt: Counter,
    coded_shards_reconstructed: Counter,
    /// Coded blocks regenerated from an owner's plain copy or a rebuild
    /// (`core.maintain.coded_rows_encoded`).
    coded_rows_encoded: Counter,
    /// Segments and coded blocks received from another member under a
    /// digest other than the owner's (`core.transfer.owner_digest_mismatch`).
    owner_digest_mismatch: Counter,
}

/// What one [`Scdn::apply_graph_delta`] call did: how much of the CSR was
/// rebuilt and how many hop-cache entries the new generation flushed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphDeltaStats {
    /// Nodes whose CSR adjacency rows were rebuilt.
    pub nodes_touched: usize,
    /// Bytes of CSR column data copied by the chunked COW assembly
    /// (untouched chunks are shared by refcount bump, not copied).
    pub bytes_copied: u64,
    /// Chunks the new CSR snapshot shares with its predecessor.
    pub chunks_shared: usize,
    /// Always 0: a delta mints a new CSR generation, which flushes the
    /// hop cache whatever the delta changed. The field stays because
    /// `benchmark/` reads it.
    pub resolve_retained: u64,
    /// Hop-cache entries the delta's new generation flushed. `benchmark/`
    /// reads it.
    pub resolve_evicted: u64,
}

/// Wall-clock elapsed time in milliseconds (control-plane span timing).
fn elapsed_ms(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Span status for one network attempt outcome.
fn attempt_status(outcome: AttemptOutcome) -> SpanStatus {
    match outcome {
        AttemptOutcome::Delivered => SpanStatus::Ok,
        AttemptOutcome::Lost => SpanStatus::Lost,
        AttemptOutcome::Corrupted => SpanStatus::Corrupted,
    }
}

/// Which of the coded blocks `0..n` some host in `inventory` advertises.
fn coded_present(inventory: &[(NodeId, Arc<Vec<u32>>)], n: u32) -> Vec<bool> {
    let mut present = vec![false; n as usize];
    for (_, blocks) in inventory {
        for &b in blocks.iter() {
            if b < n {
                present[b as usize] = true;
            }
        }
    }
    present
}

/// How many distinct coded blocks of `0..n` the hosts in `inventory`
/// advertise between them.
fn coded_distinct(inventory: &[(NodeId, Arc<Vec<u32>>)], n: u32) -> usize {
    coded_present(inventory, n).iter().filter(|&&p| p).count()
}

/// Coded-block indices absent from every host inventory (`0..n` minus the
/// union), ascending. Empty when the dataset is fully provisioned.
fn coded_missing(inventory: &[(NodeId, Arc<Vec<u32>>)], spec: &CodingSpec) -> Vec<u32> {
    let present = coded_present(inventory, spec.n());
    (0..spec.n()).filter(|&b| !present[b as usize]).collect()
}

/// Decode the data shards from the blocks a successful coded fetch left
/// the destination holding: the ones that were already in the partition,
/// fetched — and so verified — from it, then the ones it landed, as handed
/// back (verified where the donor read them and held to the owner's
/// digests on arrival).
fn decode_fetched(
    dst_repo: &StorageRepository,
    partition: Partition,
    spec: &CodingSpec,
    dataset: DatasetId,
    rep: &CodedFetchReport,
) -> Result<DecodedShards, ScdnError> {
    let mut blocks = Vec::with_capacity(rep.pre_existing.len() + rep.landed.len());
    for &index in &rep.pre_existing {
        let id = CodedBlockId { dataset, index }.segment_id();
        blocks.push(dst_repo.fetch(partition, id).map_err(ScdnError::Repo)?);
    }
    blocks.extend(rep.landed.iter().cloned());
    decode_block_shards(spec, &blocks).map_err(|_| {
        ScdnError::Transfer(TransferError::InsufficientBlocks {
            dataset,
            have: blocks.len() as u32,
            need: spec.k as u32,
        })
    })
}

/// Give back the blocks a coded fetch landed; blocks that were in the
/// partition before it stay.
fn discard_landed(dst_repo: &StorageRepository, partition: Partition, rep: &CodedFetchReport) {
    for seg in &rep.landed {
        let _ = dst_repo.remove(partition, seg.id, false);
    }
}

/// Drop every coded block of `dataset` a decoded fetch counted toward k,
/// landed or already present: once the content is recovered they are
/// scaffolding.
fn discard_scaffolding(
    dst_repo: &StorageRepository,
    partition: Partition,
    dataset: DatasetId,
    rep: &CodedFetchReport,
) {
    discard_landed(dst_repo, partition, rep);
    for &index in &rep.pre_existing {
        let id = CodedBlockId { dataset, index }.segment_id();
        let _ = dst_repo.remove(partition, id, false);
    }
}

/// How one any-k race ([`Scdn::race_coded`]) ended. Every ending but a
/// decoded `Landed` has given back what the race landed.
enum CodedRace {
    /// Fewer than k blocks landed.
    Short(TransferError),
    /// A landed block does not carry the owner's digest.
    Forged(TransferError),
    /// k blocks landed under the owner's digests: the decoded data shards,
    /// or why the blocks on hand do not decode.
    Landed(Result<DecodedShards, ScdnError>),
}

impl Scdn {
    /// Build a running S-CDN from a trust subgraph and its corpus.
    ///
    /// Every subgraph author joins the Social Cloud: a platform account is
    /// registered (password = login, as a simulation shortcut), a session
    /// is established, a repository is contributed and registered with the
    /// allocation server, and the trust ledger is seeded from the
    /// training-period publications.
    pub fn build(sub: &TrustSubgraph, corpus: &Corpus, config: ScdnConfig) -> Scdn {
        let n = sub.graph.node_count();
        let platform = Rc::new(SocialPlatform::new());
        let mut middleware = Middleware::new(platform.clone());
        let mut sessions = Vec::with_capacity(n);
        let mut repos = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        let availability = match config.availability {
            AvailabilityConfig::AlwaysOn => Availability::AlwaysOn,
            AvailabilityConfig::Periodic { period_ms, duty } => {
                Availability::Periodic(PeriodicChurn {
                    period_ms,
                    duty,
                    seed: config.seed,
                })
            }
        };
        let registry = Registry::new();
        let alloc = AllocationServer::with_registry(&registry);
        let mut repo_infos = Vec::with_capacity(n);
        let mut social_metrics = SocialMetrics::default();
        for (i, &author) in sub.authors.iter().enumerate() {
            let a = corpus.author(author);
            let inst = corpus.institution(a.institution);
            positions.push((inst.lat, inst.lon));
            let login = format!("user-{}", author.0);
            let user = platform
                .register(&login, &a.name, &login, Some(author))
                .expect("generated logins are unique");
            for topic in corpus.interests_of(author) {
                platform
                    .add_interest(user, topic)
                    .expect("user just registered");
            }
            let token = platform
                .login(&login, &login)
                .expect("credentials just set");
            let session = middleware
                .establish_session(&token)
                .expect("fresh token validates");
            sessions.push(session.id);
            repos.push(StorageRepository::new(config.repo_capacity));
            repo_infos.push(RepositoryInfo {
                node: NodeId(i as u32),
                owner: author,
                capacity: config.repo_capacity,
                availability: availability.fraction(i),
            });
            social_metrics.contributed_bytes += config.repo_capacity;
            let region_idx = inst.region as usize;
            *social_metrics
                .region_capacity
                .entry(region_idx)
                .or_insert(0) += config.repo_capacity;
        }
        // One catalog publication for the whole membership instead of a
        // copy-on-write republication per member.
        alloc.register_repositories(repo_infos);
        let mut ledger = InteractionLedger::new();
        ledger.seed_from_corpus(corpus, 1900..=2100);
        let topology = Topology::uniform(positions, LinkQuality::default());
        let engine = TransferEngine {
            topology,
            failure: config.failure,
            max_attempts: 3,
            concurrency: config.transfer_concurrency.max(1),
        };
        let clients = (0..n)
            .map(|i| crate::client::MonitoringClient::new(NodeId(i as u32), 0.05))
            .collect();
        let caches = (0..n)
            .map(|_| CacheManager::with_registry(EvictionPolicy::Lru, &registry))
            .collect();
        let att_delivered = registry.counter("net.attempts.delivered");
        let att_lost = registry.counter("net.attempts.lost");
        let att_corrupted = registry.counter("net.attempts.corrupted");
        let online_fraction = registry.gauge("core.online_fraction");
        let ranking_hits = registry.counter("core.maintain.ranking_cache_hit");
        let ranking_misses = registry.counter("core.maintain.ranking_cache_miss");
        let ranking_recompute_ms = registry.histogram_with(
            "core.maintain.ranking_recompute_ms",
            HistogramConfig::coarse(),
        );
        let delta_applied = registry.counter("core.graph.delta_applied");
        let delta_nodes_touched = registry.counter("core.graph.delta_nodes_touched");
        let delta_bytes_copied = registry.counter("core.graph.delta_bytes_copied");
        let delta_chunks_shared = registry.counter("core.graph.delta_chunks_shared");
        let coded_blocks_landed = registry.counter("core.coded.blocks_landed");
        let coded_blocks_preexisting = registry.counter("core.coded.blocks_preexisting");
        let coded_discarded_corrupt = registry.counter("core.coded.discarded_corrupt");
        let coded_shards_reconstructed = registry.counter("core.coded.shards_reconstructed");
        let coded_rows_encoded = registry.counter("core.maintain.coded_rows_encoded");
        let owner_digest_mismatch = registry.counter("core.transfer.owner_digest_mismatch");
        Scdn {
            social: sub.graph.clone(),
            social_csr: CsrGraph::from(&sub.graph),
            authors: sub.authors.clone(),
            platform,
            middleware,
            sessions,
            repos,
            engine,
            alloc,
            availability,
            departed: vec![false; n],
            clients,
            clock: SimTime::ZERO,
            datasets: HashMap::new(),
            next_dataset: 0,
            ledger,
            trust_model: TrustModel::new(TrustParams::default()),
            audit: AuditLog::new(),
            cdn_metrics: CdnMetrics::default(),
            social_metrics,
            registry,
            traces: TraceCollector::default(),
            caches,
            att_delivered,
            att_lost,
            att_corrupted,
            online_fraction,
            rankings: RankingCache::new(),
            ranking_hits,
            ranking_misses,
            ranking_recompute_ms,
            delta_applied,
            delta_nodes_touched,
            delta_bytes_copied,
            delta_chunks_shared,
            coded_blocks_landed,
            coded_blocks_preexisting,
            coded_discarded_corrupt,
            coded_shards_reconstructed,
            coded_rows_encoded,
            owner_digest_mismatch,
            config,
        }
    }

    /// Number of member nodes.
    pub fn member_count(&self) -> usize {
        self.repos.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance the simulation clock by `ms` milliseconds, sample fabric
    /// availability into the metrics, and feed each node's CDN client
    /// ([`Op::Tick`](crate::ops::Op::Tick)).
    ///
    /// The one operation that visits every member: each client samples
    /// its own liveness at the new clock. Requests and maintenance never
    /// tabulate the membership — they ask [`is_online_at`](Self::is_online_at)
    /// about the few candidates they reach.
    pub(crate) fn tick(&mut self, ms: u64) {
        self.clock = self.clock.plus_millis(ms);
        let mut online = 0usize;
        for i in 0..self.repos.len() {
            let up = self.is_online(NodeId(i as u32));
            self.clients[i].sample_online(up);
            online += usize::from(up);
        }
        if !self.repos.is_empty() {
            let fraction = online as f64 / self.repos.len() as f64;
            self.cdn_metrics.availability_samples.record(fraction);
            self.online_fraction.set(fraction);
        }
    }

    /// `true` if `node` is online at the current clock (departed members
    /// never come back; an id outside the membership is never online).
    pub fn is_online(&self, node: NodeId) -> bool {
        self.is_online_at(node, self.clock)
    }

    /// [`is_online`](Self::is_online) at an explicit clock — the one
    /// liveness test of the runtime.
    pub fn is_online_at(&self, node: NodeId, clock: SimTime) -> bool {
        self.departed.get(node.index()) == Some(&false)
            && self.availability.is_online(node.index(), clock)
    }

    /// Flush every CDN client's EWMA availability estimate to the
    /// allocation server, as the clients of Section V-A periodically do
    /// ([`Op::Telemetry`](crate::ops::Op::Telemetry)).
    pub(crate) fn report_telemetry(&mut self) {
        for c in &self.clients {
            c.report(&self.alloc);
        }
    }

    /// A member leaves the Social Cloud permanently: its repository goes
    /// dark and its replicas are dropped from the catalog. Returns the
    /// datasets that lost a replica (candidates for [`Self::repair`]).
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn depart(&mut self, node: NodeId) -> Result<Vec<DatasetId>, ScdnError> {
        self.check_node(node)?;
        self.departed[node.index()] = true;
        let affected = self.alloc.datasets_hosted_by(node);
        for &d in &affected {
            let _ = self.alloc.remove_replica(d, node);
            let _ = self.alloc.remove_coded_host(d, node);
        }
        Ok(affected)
    }

    /// The repository contributed by `node`.
    pub fn repo(&self, node: NodeId) -> Result<&StorageRepository, ScdnError> {
        self.repos
            .get(node.index())
            .ok_or(ScdnError::UnknownNode(node))
    }

    fn check_node(&self, node: NodeId) -> Result<(), ScdnError> {
        if node.index() >= self.repos.len() {
            Err(ScdnError::UnknownNode(node))
        } else {
            Ok(())
        }
    }

    /// `true` if `seg`, received from another member, carries the digest
    /// the owner recorded for it — not merely one its own bytes match. A
    /// 12-byte compare: the sender's read already digested the bytes. The
    /// one place a refusal is counted (`core.transfer.owner_digest_mismatch`).
    fn carries_owner_digest(&self, seg: &Segment) -> bool {
        let meta = self.datasets.get(&seg.id.dataset);
        let recorded = match CodedBlockId::from_segment_id(seg.id) {
            Some(block) => meta.and_then(|m| m.block_digests.get()?.get(block.index as usize)),
            None => meta.and_then(|m| m.segment_digests.get(seg.id.ordinal as usize)),
        };
        let carries = recorded == Some(&seg.checksum);
        if !carries {
            self.owner_digest_mismatch.inc();
        }
        carries
    }

    /// Hold every block a coded fetch landed to the owner's digests. A
    /// forged block fails the hand-off: each one is counted, everything
    /// the fetch landed is given back, and the first is the error.
    fn check_landed(
        &self,
        dst_repo: &StorageRepository,
        partition: Partition,
        rep: &CodedFetchReport,
    ) -> Result<(), TransferError> {
        // `reduce` checks every block, so every forged one is counted.
        let forged = rep
            .landed
            .iter()
            .filter(|seg| !self.carries_owner_digest(seg));
        let Some(first) = forged.map(|seg| seg.id).reduce(|first, _| first) else {
            return Ok(());
        };
        discard_landed(dst_repo, partition, rep);
        Err(TransferError::SourceCorrupt(first))
    }

    /// Count one network attempt in `net.attempts.*` — the one place an
    /// attempt is counted, whether the plain-segment loop
    /// (`TransferEngine::transfer_segments`) or the any-k race observes it.
    fn count_attempt(&self, outcome: AttemptOutcome) {
        match outcome {
            AttemptOutcome::Delivered => self.att_delivered.inc(),
            AttemptOutcome::Lost => self.att_lost.inc(),
            AttemptOutcome::Corrupted => self.att_corrupted.inc(),
        }
    }

    /// The simulated wall-clock and bytes of the segments a transfer
    /// `reports` moved: waves of `transfer_concurrency` parallel streams,
    /// each costing its slowest member (with concurrency 1, the serial sum).
    fn moved(&self, reports: &[TransferReport]) -> (f64, u64) {
        let segment_ms: Vec<f64> = reports.iter().map(|r| r.duration_ms).collect();
        let bytes = reports.iter().map(|r| r.bytes).sum();
        (self.engine.aggregate_elapsed_ms(&segment_ms), bytes)
    }

    /// The any-k fetch, shared by a coded request's apply and the
    /// owner-offline rebuild: race `dataset`'s blocks from `donors` into
    /// `dst`'s `partition` until any k land, hold every landed block to the
    /// owner's digests, and decode the blocks on hand. Blocks that do not
    /// decode — one already held is corrupt at rest, or one is the wrong
    /// size — are given back like a short or forged race's. Bytes, clock
    /// and exchanges are the caller's to account.
    fn race_coded(
        &self,
        dst: NodeId,
        partition: Partition,
        dataset: DatasetId,
        spec: &CodingSpec,
        donors: &[(NodeId, Arc<Vec<u32>>)],
    ) -> (CodedFetchReport, CodedRace) {
        let dst_repo = &self.repos[dst.index()];
        let sources: Vec<CodedSource<'_>> = donors
            .iter()
            .map(|(host, blocks)| CodedSource {
                node: host.index(),
                repo: &self.repos[host.index()],
                blocks: blocks.to_vec(),
            })
            .collect();
        let (rep, short) = self.engine.transfer_coded_observed(
            dst.index(),
            dst_repo,
            dataset,
            spec.k as u32,
            &sources,
            partition,
            &mut |r| self.count_attempt(r.outcome),
        );
        let race = if let Some(e) = short {
            CodedRace::Short(e)
        } else if let Err(e) = self.check_landed(dst_repo, partition, &rep) {
            CodedRace::Forged(e)
        } else {
            let decoded = decode_fetched(dst_repo, partition, spec, dataset, &rep);
            if decoded.is_err() {
                discard_landed(dst_repo, partition, &rep);
            }
            CodedRace::Landed(decoded)
        };
        (rep, race)
    }

    /// The frozen CSR snapshot of the social graph currently serving
    /// resolution and placement.
    pub fn social_csr(&self) -> &CsrGraph {
        &self.social_csr
    }

    /// Membership is fixed at build time (accounts, repositories, and
    /// sessions are created per member), so a runtime delta may only
    /// rewire edges between existing members — no `AddNodes` ops and no
    /// out-of-range endpoints. "Join/leave" churn at this level is
    /// edge-set activation: a member's collaborations forming or lapsing.
    fn check_delta(&self, delta: &GraphDelta) -> Result<(), ScdnError> {
        if delta.nodes_added() > 0 {
            return Err(ScdnError::UnknownNode(NodeId(self.repos.len() as u32)));
        }
        for (a, b) in delta.edge_pairs() {
            self.check_node(a)?;
            self.check_node(b)?;
        }
        Ok(())
    }

    /// Apply a batch of social-graph churn end to end — the cheap path.
    ///
    /// The mutable graph absorbs the ops, the frozen CSR is refreshed
    /// incrementally ([`CsrGraph::apply_delta`] rebuilds only the touched
    /// rows) under a new generation. The new generation is the graph caches' one
    /// staleness rule: the hop cache is flushed here, so that
    /// `alloc.resolve.cache.evict` counts the flush, and the ranking cache
    /// flushes at its next lookup. The next request or cycle reads the
    /// new snapshot.
    ///
    /// Exposes `core.graph.delta_{applied,nodes_touched,bytes_copied,chunks_shared}`
    /// counters; the returned [`GraphDeltaStats`] carries the same numbers
    /// per call.
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn apply_graph_delta(&mut self, delta: &GraphDelta) -> Result<GraphDeltaStats, ScdnError> {
        self.check_delta(delta)?;
        delta.apply_to(&mut self.social);
        let new_csr = self.social_csr.apply_delta(delta);
        let (resolve_retained, resolve_evicted) =
            self.alloc.note_graph_delta(&self.social_csr, &new_csr);
        let nodes_touched = new_csr.last_delta().map_or(0, |s| s.touched.len());
        let cow = new_csr.cow_stats();
        self.delta_applied.inc();
        self.delta_nodes_touched.add(nodes_touched as u64);
        self.delta_bytes_copied.add(cow.bytes_copied);
        self.delta_chunks_shared.add(cow.chunks_shared as u64);
        self.social_csr = new_csr;
        Ok(GraphDeltaStats {
            nodes_touched,
            bytes_copied: cow.bytes_copied,
            chunks_shared: cow.chunks_shared,
            resolve_retained,
            resolve_evicted,
        })
    }

    /// Publish a dataset from `node`'s repository: segments are stored in
    /// the owner's user partition and the dataset is registered with the
    /// allocation server under `policy` (pass `None` for a public dataset).
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn publish(
        &mut self,
        node: NodeId,
        name: &str,
        content: bytes::Bytes,
        sensitivity: Sensitivity,
        policy: Option<AccessPolicy>,
    ) -> Result<DatasetId, ScdnError> {
        self.check_node(node)?;
        // A coding scheme no coder can be built for fails the publish
        // before it has any effect.
        if let CodingConfig::Rs { k, m } = self.config.coding {
            ErasureCoder::try_new(k, m, self.config.seed).map_err(ScdnError::Coding)?;
        }
        self.middleware.authorize_op(self.sessions[node.index()])?;
        let id = DatasetId(self.next_dataset);
        let total_len = content.len() as u64;
        let dataset = Dataset::from_bytes(id, name, sensitivity, content, self.config.segment_size);
        // A refused store leaves the partition as it was and the id unused.
        request::store_user_segments(&self.repos[node.index()], dataset.segments.iter().cloned())
            .map_err(ScdnError::Repo)?;
        self.next_dataset += 1;
        self.social_metrics.allocated_bytes += dataset.total_bytes();
        match self.config.coding {
            CodingConfig::None => {
                self.alloc
                    .register_dataset(id, dataset.segment_count() as u32, node)?;
            }
            CodingConfig::Rs { k, m } => {
                // The owner keeps the plain segment set as the primary
                // copy; durability comes from the k+m coded blocks that
                // `replicate` spreads one per host.
                let spec = CodingSpec {
                    k,
                    m,
                    seed: self.config.seed,
                    total_len,
                };
                self.alloc.register_dataset_coded(
                    id,
                    dataset.segment_count() as u32,
                    node,
                    spec,
                )?;
            }
        }
        let policy = policy.unwrap_or_else(|| AccessPolicy {
            sensitivity,
            owner: self.authors[node.index()],
            group: None,
            grants: Vec::new(),
            trust: None,
        });
        self.datasets.insert(
            id,
            DatasetMeta {
                owner: node,
                policy,
                segment_digests: dataset.segments.iter().map(|s| s.checksum).collect(),
                block_digests: OnceCell::new(),
            },
        );
        Ok(id)
    }

    /// Segment ids of a dataset (from the catalog).
    fn segment_ids(&self, dataset: DatasetId) -> Result<Vec<SegmentId>, ScdnError> {
        let n = self.alloc.segments_of(dataset)?;
        Ok((0..n)
            .map(|ordinal| SegmentId { dataset, ordinal })
            .collect())
    }

    /// Replicate a dataset to the configured replica count using the
    /// configured placement algorithm. Hosting requests to offline nodes
    /// are rejected (and recorded as such); accepted hosts receive the
    /// full segment set via third-party transfers.
    ///
    /// Returns the nodes that now host new replicas.
    ///
    /// `pub` only because `benchmark/` calls it (ROADMAP 5(e)); see [`Op`](crate::ops::Op).
    pub fn replicate(&mut self, dataset: DatasetId) -> Result<Vec<NodeId>, ScdnError> {
        self.replicate_to(dataset, self.config.replicas_per_dataset)
    }

    /// The full memoized placement ordering for the configured algorithm
    /// and seed, counting cache hits/misses in
    /// `core.maintain.ranking_cache_{hit,miss}` and the wall time of each
    /// miss in `core.maintain.ranking_recompute_ms`.
    fn placement_ranking(&mut self) -> Arc<Vec<NodeId>> {
        let start = std::time::Instant::now();
        let (order, hit) =
            self.rankings
                .full_ranking(&self.social_csr, self.config.placement, self.config.seed);
        if hit {
            self.ranking_hits.inc();
        } else {
            self.ranking_misses.inc();
            self.ranking_recompute_ms.record(elapsed_ms(start));
        }
        order
    }

    /// [`replicate`](Self::replicate) with an explicit target replica
    /// count (maintenance cycles grow past the configured default when
    /// demand justifies it).
    ///
    /// Candidates come from the memoized full placement ordering: the
    /// walk extends as far as it must — past any fixed over-provisioning
    /// prefix — until `want` replicas exist or every member has been
    /// considered, so a mostly-offline membership degrades to "as many
    /// replicas as are reachable" instead of silently under-provisioning.
    ///
    /// The owner seeds every new replica unless it departed; then the
    /// first online catalog replica does, and with none nothing grows.
    /// Either way each copy is held to the owner's digests.
    fn replicate_to(&mut self, dataset: DatasetId, want: usize) -> Result<Vec<NodeId>, ScdnError> {
        let meta = self
            .datasets
            .get(&dataset)
            .ok_or(ScdnError::Alloc(AllocationError::UnknownDataset(dataset)))?;
        let owner = meta.owner;
        if self.alloc.coding_of(dataset)?.is_some() {
            // Coded datasets measure durability in blocks, not whole
            // replicas: replication and repair both mean "bring the block
            // inventory back to n", regardless of `want`.
            return self.restore_coded(dataset);
        }
        let current = self.alloc.replicas_of(dataset)?;
        if current.len() >= want {
            return Ok(Vec::new());
        }
        let source = if self.departed[owner.index()] {
            match current.iter().copied().find(|&r| self.is_online(r)) {
                Some(replica) => replica,
                None => return Ok(Vec::new()),
            }
        } else {
            owner
        };
        let ranked = self.placement_ranking();
        let segments = self.segment_ids(dataset)?;
        let mut added = Vec::new();
        let mut have = current.len();
        for &cand in ranked.iter() {
            if have >= want {
                break;
            }
            if current.contains(&cand) || cand == owner {
                continue;
            }
            let online = self.is_online(cand);
            let latency = self
                .engine
                .topology
                .latency_ms(source.index(), cand.index());
            self.social_metrics.record_hosting_request(
                online,
                online.then(|| SimTime::from_millis(latency as u64)),
            );
            if !online {
                continue;
            }
            // Third-party transfer of the segment set into the host, in
            // waves of `transfer_concurrency` parallel streams. A failed
            // batch rolls its newly delivered segments back — a partial
            // replica must not squat in the candidate's replica partition,
            // since the catalog never learns about it and nothing would
            // ever reclaim that space.
            let src_repo = &self.repos[source.index()];
            let (reports, error) = self.engine.transfer_segments(
                source.index(),
                cand.index(),
                &segments,
                &|id| src_repo.fetch_any(id),
                &self.repos[cand.index()],
                Partition::Replica,
                &mut |r| self.count_attempt(r.outcome),
                &mut |seg| self.carries_owner_digest(seg),
            );
            let failed = error.is_some();
            let (total_ms, total_bytes) = self.moved(&reports);
            self.social_metrics
                .record_exchange(source.index(), cand.index(), total_bytes, !failed);
            self.cdn_metrics.bytes_transferred += total_bytes;
            self.clock = self.clock.plus_millis(total_ms as u64);
            if failed {
                continue;
            }
            self.alloc.add_replica(dataset, cand)?;
            // Catalog-mandated replicas are pinned: opportunistic cache
            // churn may never evict them.
            let cache = &mut self.caches[cand.index()];
            for &s in &segments {
                cache.set_pinned(s, true);
            }
            added.push(cand);
            have += 1;
        }
        let replica_count = self.alloc.replicas_of(dataset)?.len();
        self.cdn_metrics.redundancy.record(replica_count as f64);
        Ok(added)
    }

    /// Bring a coded dataset's block inventory back to `n = k + m` distinct
    /// blocks, regenerating *only the missing ones*. Two regimes:
    ///
    /// * **Owner online** — the owner regenerates the missing blocks from
    ///   its plain copy and ships each to a fresh host: `missing × (S/k)`
    ///   bytes on the wire, versus the `r × S` a whole-replica repair
    ///   would move.
    /// * **Owner offline** — a rebuilder fetches any `k` surviving blocks
    ///   (one coded multi-source fetch), decodes, regenerates the missing
    ///   blocks, keeps the first and ships the rest.
    ///
    /// Blocks a surviving peer already holds are never transferred again.
    fn restore_coded(&mut self, dataset: DatasetId) -> Result<Vec<NodeId>, ScdnError> {
        let owner = self
            .datasets
            .get(&dataset)
            .map(|m| m.owner)
            .ok_or(ScdnError::Alloc(AllocationError::UnknownDataset(dataset)))?;
        let spec = self
            .alloc
            .coding_of(dataset)?
            .ok_or(ScdnError::Alloc(AllocationError::UnknownDataset(dataset)))?;
        let inventory = self.alloc.coded_inventory(dataset)?;
        let missing = coded_missing(&inventory, &spec);
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        if self.is_online(owner) {
            let segments = self.alloc.segments_of(dataset)?;
            let blocks = self
                .regenerate_coded_blocks(dataset, owner, &spec, segments, &missing)
                .map_err(ScdnError::Repo)?;
            self.ship_coded_blocks(dataset, owner, &spec, &missing, &blocks)
        } else {
            self.restore_coded_reconstruct(dataset, owner, &spec, &inventory, &missing)
        }
    }

    /// Regenerate coded blocks `rows` of `dataset` from the owner's plain
    /// copy: read (and verify) the `segments` plain segments out of the
    /// owner's user partition back into the published byte string, then
    /// encode exactly those rows.
    fn regenerate_coded_blocks(
        &self,
        dataset: DatasetId,
        owner: NodeId,
        spec: &CodingSpec,
        segments: u32,
        rows: &[u32],
    ) -> Result<Vec<Segment>, RepoError> {
        let repo = &self.repos[owner.index()];
        let mut content = Vec::with_capacity(spec.total_len as usize);
        for ordinal in 0..segments {
            let seg = repo.fetch(Partition::User, SegmentId { dataset, ordinal })?;
            content.extend_from_slice(&seg.data);
        }
        self.coded_rows_encoded.add(rows.len() as u64);
        Ok(self.encode_coded_rows(dataset, spec, &content, rows))
    }

    /// Encode coded blocks `rows` of `dataset` from its content. The first
    /// full encode (every row, the owner's first `replicate`) digests its
    /// blocks and records the digests as the owner's; every later encode
    /// stores its rows under the recorded digests without digesting them,
    /// so a row that comes out wrong fails its first read instead of
    /// living on under a digest of its own bytes.
    fn encode_coded_rows(
        &self,
        dataset: DatasetId,
        spec: &CodingSpec,
        content: &[u8],
        rows: &[u32],
    ) -> Vec<Segment> {
        let recorded = self.datasets.get(&dataset).map(|m| &m.block_digests);
        if let Some(digests) = recorded.and_then(OnceCell::get) {
            return spec
                .coder()
                .encode_rows(content, rows)
                .into_iter()
                .zip(rows)
                .map(|(bytes, &index)| Segment {
                    id: CodedBlockId { dataset, index }.segment_id(),
                    data: bytes::Bytes::from(bytes),
                    checksum: digests[index as usize],
                })
                .collect();
        }
        let blocks = encode_block_rows(spec, dataset, content, rows);
        if let Some(cell) = recorded.filter(|_| rows.iter().copied().eq(0..spec.n())) {
            // Still unset: this is the dataset's first full encode.
            let _ = cell.set(blocks.iter().map(|b| b.checksum).collect());
        }
        blocks
    }

    /// Ship the regenerated coded blocks `blocks` — `blocks[i]` is block
    /// `missing[i]`, ascending — from `src`, which holds them in memory,
    /// to new hosts drawn from the placement ranking, one block per
    /// accepted candidate. Candidates that already hold blocks of this
    /// dataset are skipped (their inventory is the point of erasure
    /// coding: one loss domain per block); offline candidates burn a
    /// hosting request, exactly like whole-replica placement; a failed
    /// transfer burns the candidate and retries the same block on the
    /// next one.
    fn ship_coded_blocks(
        &mut self,
        dataset: DatasetId,
        src: NodeId,
        spec: &CodingSpec,
        missing: &[u32],
        blocks: &[Segment],
    ) -> Result<Vec<NodeId>, ScdnError> {
        let owner = self.datasets.get(&dataset).map(|m| m.owner);
        let used: Vec<NodeId> = self
            .alloc
            .coded_inventory(dataset)?
            .into_iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(n, _)| n)
            .collect();
        let ranked = self.placement_ranking();
        let mut added = Vec::new();
        let mut queue = missing.iter().copied().zip(blocks);
        let mut next = queue.next();
        for &cand in ranked.iter() {
            let Some((block, seg)) = next else { break };
            if Some(cand) == owner || cand == src || used.contains(&cand) {
                continue;
            }
            let online = self.is_online(cand);
            let latency = self.engine.topology.latency_ms(src.index(), cand.index());
            self.social_metrics.record_hosting_request(
                online,
                online.then(|| SimTime::from_millis(latency as u64)),
            );
            if !online {
                continue;
            }
            let (reports, error) = self.engine.transfer_segments(
                src.index(),
                cand.index(),
                &[seg.id],
                &|_| Ok(seg.clone()),
                &self.repos[cand.index()],
                Partition::Replica,
                &mut |r| self.count_attempt(r.outcome),
                &mut |s| self.carries_owner_digest(s),
            );
            if error.is_some() {
                self.social_metrics
                    .record_exchange(src.index(), cand.index(), 0, false);
                continue;
            }
            let (ms, bytes) = self.moved(&reports);
            self.social_metrics
                .record_exchange(src.index(), cand.index(), bytes, true);
            self.cdn_metrics.bytes_transferred += bytes;
            self.clock = self.clock.plus_millis(ms as u64);
            self.alloc.add_coded_blocks(dataset, cand, &[block])?;
            self.caches[cand.index()].set_pinned(seg.id, true);
            added.push(cand);
            next = queue.next();
        }
        self.record_coded_redundancy(dataset, spec);
        Ok(added)
    }

    /// Durability sample of a coded dataset in replica-equivalents, from
    /// the live inventory: n/k distinct blocks tolerate the same m losses
    /// as m+1 whole replicas.
    fn record_coded_redundancy(&mut self, dataset: DatasetId, spec: &CodingSpec) {
        let inventory = self.alloc.coded_inventory(dataset).unwrap_or_default();
        let distinct = coded_distinct(&inventory, spec.n());
        self.cdn_metrics
            .redundancy
            .record(distinct as f64 / spec.k as f64);
    }

    /// Owner-offline coded repair: pick the first ranked online non-host as
    /// the rebuilder, fetch any `k` surviving blocks into it, decode,
    /// regenerate the missing blocks, keep the first locally and ship the
    /// rest. Costs `k` blocks in plus `missing - 1` out — still far below
    /// a full re-replication when few blocks are missing. A landed block
    /// that does not carry the owner's digest fails the rebuild with
    /// [`TransferError::SourceCorrupt`] and gives back what it landed.
    fn restore_coded_reconstruct(
        &mut self,
        dataset: DatasetId,
        owner: NodeId,
        spec: &CodingSpec,
        inventory: &[(NodeId, Arc<Vec<u32>>)],
        missing: &[u32],
    ) -> Result<Vec<NodeId>, ScdnError> {
        let donors: Vec<(NodeId, Arc<Vec<u32>>)> = inventory
            .iter()
            .filter(|(nid, b)| !b.is_empty() && self.is_online(*nid))
            .cloned()
            .collect();
        if coded_distinct(&donors, spec.n()) < spec.k as usize {
            // Not enough surviving blocks reachable: the dataset is not
            // repairable until hosts return (the owner's plain copy may
            // still come back).
            return Ok(Vec::new());
        }
        let used: Vec<NodeId> = inventory
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(n, _)| *n)
            .collect();
        let ranked = self.placement_ranking();
        let Some(rebuilder) = ranked
            .iter()
            .copied()
            .find(|&c| c != owner && !used.contains(&c) && self.is_online(c))
        else {
            return Ok(Vec::new());
        };
        let latency = self
            .engine
            .topology
            .latency_ms(donors[0].0.index(), rebuilder.index());
        self.social_metrics
            .record_hosting_request(true, Some(SimTime::from_millis(latency as u64)));
        let (rep, race) = self.race_coded(rebuilder, Partition::Replica, dataset, spec, &donors);
        self.cdn_metrics.bytes_transferred += rep.total_bytes;
        self.clock = self.clock.plus_millis(rep.total_ms as u64);
        let landed = !matches!(race, CodedRace::Short(_));
        for ((_, donor), report) in rep.delivered.iter().zip(&rep.reports) {
            self.social_metrics
                .record_exchange(*donor, rebuilder.index(), report.bytes, landed);
        }
        let decoded = match race {
            CodedRace::Short(_) => return Ok(Vec::new()),
            CodedRace::Forged(e) => return Err(e.into()),
            CodedRace::Landed(decoded) => decoded?,
        };
        self.coded_rows_encoded.add(missing.len() as u64);
        let content = decoded.range(0, spec.total_len as usize);
        let blocks = self.encode_coded_rows(dataset, spec, &content, missing);
        // The fetched donor blocks were scaffolding: the rebuilder keeps
        // only the first regenerated missing block.
        let dst_repo = &self.repos[rebuilder.index()];
        discard_scaffolding(dst_repo, Partition::Replica, dataset, &rep);
        let keep = &blocks[0];
        dst_repo
            .store(Partition::Replica, keep.clone())
            .map_err(ScdnError::Repo)?;
        self.alloc
            .add_coded_blocks(dataset, rebuilder, &missing[..1])?;
        self.caches[rebuilder.index()].set_pinned(keep.id, true);
        let mut added = vec![rebuilder];
        added.extend(self.ship_coded_blocks(
            dataset,
            rebuilder,
            spec,
            &missing[1..],
            &blocks[1..],
        )?);
        Ok(added)
    }

    /// Promote the freshly downloaded copy into the requester's replica
    /// partition through its cache manager (evicting unpinned opportunistic
    /// copies as needed) and tell the catalog about it. Datasets that lose
    /// a segment to eviction are dropped wholesale — catalog entry and
    /// remaining segments — so no partial replica lingers.
    fn promote_opportunistically(
        &mut self,
        node: NodeId,
        dataset: DatasetId,
        segments: &[SegmentId],
    ) {
        let repo = &self.repos[node.index()];
        let mut promoted = true;
        let mut evicted: Vec<SegmentId> = Vec::new();
        for &s in segments {
            match repo.fetch(Partition::User, s) {
                Ok(seg) => match self.caches[node.index()].insert(repo, seg) {
                    Ok(out) => evicted.extend(out),
                    Err(_) => {
                        promoted = false;
                        break;
                    }
                },
                Err(_) => {
                    promoted = false;
                    break;
                }
            }
        }
        if promoted {
            let _ = self.alloc.add_replica(dataset, node);
        }
        evicted.sort_unstable();
        evicted.dedup_by_key(|id| id.dataset);
        for ev in evicted {
            let _ = self.alloc.remove_replica(ev.dataset, node);
            if let Ok(rest) = self.segment_ids(ev.dataset) {
                for s in rest {
                    let _ = self.repos[node.index()].remove(Partition::Replica, s, false);
                    self.caches[node.index()].forget(s);
                }
            }
        }
    }

    /// Shed the last-added `n` replicas of `dataset` from live state:
    /// catalog entries removed, stored segments evicted (CDN-initiated),
    /// cache bookkeeping forgotten. Returns the victims actually removed,
    /// in shedding order.
    ///
    /// The dataset owner's copy is never a victim: churn and repair can
    /// reorder the replica list until the owner is no longer at the front,
    /// and a shrink must not delete the primary copy — if the owner sits
    /// within the last `n` entries, one fewer replica is shed instead.
    fn shed_replicas(&mut self, dataset: DatasetId, n: usize) -> Vec<NodeId> {
        let owner = self.datasets.get(&dataset).map(|m| m.owner);
        let mut shed = Vec::new();
        if let Ok(replicas) = self.alloc.replicas_of(dataset) {
            let victims: Vec<NodeId> = replicas
                .iter()
                .rev()
                .filter(|&&v| Some(v) != owner)
                .take(n)
                .copied()
                .collect();
            for v in victims {
                if self.alloc.remove_replica(dataset, v).unwrap_or(false) {
                    if let Ok(segments) = self.segment_ids(dataset) {
                        for s in segments {
                            let _ = self.repos[v.index()].remove(Partition::Replica, s, false);
                            self.caches[v.index()].forget(s);
                        }
                    }
                    shed.push(v);
                }
            }
        }
        shed
    }

    /// The `RebalancePolicy` equivalent of the configured
    /// [`RebalanceStrategy::Static`] variant: the config's
    /// [`ReplicationPolicy`] with `replicas_per_dataset` as the grow
    /// floor (the floor the old maintain paths applied inline via
    /// `replicas_per_dataset.max(target)`).
    fn static_rebalance(&self) -> StaticRebalance {
        StaticRebalance {
            policy: self.config.replication,
            grow_floor: self.config.replicas_per_dataset,
        }
    }

    /// The allocation server (read access for tests and experiments).
    pub fn allocation(&self) -> &AllocationServer {
        &self.alloc
    }

    /// The shared metric registry (alloc, cache, and transfer counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The bounded ring of recent request-lifecycle traces.
    pub fn traces(&self) -> &TraceCollector {
        &self.traces
    }

    /// One frozen view of everything this instance knows about itself:
    /// the shared registry (`alloc.*`, `storage.cache.*`, `net.attempts.*`,
    /// `core.*`) merged with the Section V-E metric structs (`cdn.*`,
    /// `social.*`) and the trace-collector totals (`trace.*`). This is
    /// what the exporters in `scdn_obs::export` serialize.
    pub fn observability_snapshot(&self) -> scdn_obs::Snapshot {
        let mut snap = self.registry.snapshot();
        let m = &self.cdn_metrics;
        snap.add_counter("cdn.requests.hits", m.hits);
        snap.add_counter("cdn.requests.misses", m.misses);
        snap.add_counter("cdn.requests.failures", m.failures);
        snap.add_counter("cdn.bytes_transferred", m.bytes_transferred);
        snap.add_gauge("cdn.hit_rate_pct", m.hit_rate());
        snap.add_histogram("cdn.response_time_ms", m.response_time_ms.clone());
        snap.add_histogram("cdn.redundancy", m.redundancy.clone());
        snap.add_histogram("cdn.availability", m.availability_samples.clone());
        let s = &self.social_metrics;
        snap.add_counter("social.hosting.requests", s.hosting_requests);
        snap.add_counter("social.hosting.accepted", s.hosting_accepted);
        snap.add_counter("social.exchanges.ok", s.exchanges_ok);
        snap.add_counter("social.exchanges.failed", s.exchanges_failed);
        snap.add_gauge("social.acceptance_rate_pct", s.acceptance_rate());
        snap.add_histogram("social.immediacy_ms", s.immediacy_ms.clone());
        snap.add_counter("trace.recorded", self.traces.total_recorded());
        snap.add_counter("trace.evicted", self.traces.total_evicted());
        snap.add_counter("trace.retained", self.traces.len() as u64);
        snap.add_gauge("core.clock_ms", self.clock.as_millis() as f64);
        snap.sort();
        snap
    }

    /// The social platform handle.
    pub fn platform(&self) -> &Rc<SocialPlatform> {
        &self.platform
    }

    /// The access audit trail (every grant and denial, in order).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Current replica nodes of a dataset.
    pub fn replicas_of(&self, dataset: DatasetId) -> Result<Vec<NodeId>, ScdnError> {
        Ok(self.alloc.replicas_of(dataset)?)
    }

    /// Resolve `dataset` to the replica the allocation server would serve
    /// `requester` from, without transferring anything — the discovery
    /// half of a request ([`Op::Resolve`](crate::ops::Op::Resolve)).
    /// Records the same resolve and demand accounting as a served
    /// request's resolution step, so the demand-driven replication policy
    /// observes the load (maintenance studies use this to synthesize
    /// demand without paying for transfers).
    pub(crate) fn resolve_replica(
        &mut self,
        requester: NodeId,
        dataset: DatasetId,
    ) -> Result<NodeId, ScdnError> {
        self.check_node(requester)?;
        Ok(self.resolve(requester, dataset)?.node)
    }

    /// The allocation server's pick among `dataset`'s online replicas for
    /// `requester`, by current liveness and the topology's latency from
    /// `requester`; records the resolve and demand accounting.
    fn resolve(&self, requester: NodeId, dataset: DatasetId) -> Result<Selection, AllocationError> {
        let topology = &self.engine.topology;
        self.alloc.resolve_csr(
            dataset,
            requester,
            &self.social_csr,
            |n| self.is_online(n),
            |n| topology.latency_ms(requester.index(), n.index()),
        )
    }
}

// Child modules so the request and maintenance paths can reach the
// runtime's private fields without widening their visibility.
#[path = "maintain.rs"]
mod maintain;
#[path = "request.rs"]
mod request;

#[path = "state.rs"]
mod state;
pub use state::{DecisionState, HeldSegment, RepoState};

#[cfg(test)]
impl Scdn {
    /// Publish later datasets under `coding`; earlier ones keep theirs, so
    /// one fixture can hold coded and whole-replica datasets side by side
    /// (`fixtures::mixed_system`).
    pub(crate) fn set_publish_coding(&mut self, coding: CodingConfig) {
        self.config.coding = coding;
    }
}

#[cfg(test)]
#[path = "system_tests.rs"]
mod system_tests;
