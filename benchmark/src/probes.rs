//! Layer probes: after a traced replay, the inputs the workload fed the
//! system are pushed through each layer's public entry point in
//! isolation and timed in blocks. Multiplied by the counts the replay
//! observed, the unit costs give each layer's estimated share of the
//! timed wall; what they cannot explain is `core.unattributed_share`.
//!
//! Probes run on the post-replay system and mutate it (demand counters,
//! hop cache, graph generation), so every output check runs first.

use std::hint::black_box;
use std::time::Instant;

use scdn_alloc::replication::StaticRebalance;
use scdn_alloc::RankingCache;
use scdn_core::system::{RebalanceStrategy, ScdnConfig};
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_middleware::Middleware;
use scdn_net::{CodedSource, TransferEngine};
use scdn_obs::{SpanKind, SpanStatus, TraceCollector};
use scdn_storage::cache::{CacheManager, EvictionPolicy};
use scdn_storage::coding::{decode_blocks, encode_blocks, CodedBlockId, CodingSpec};
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, SegmentId};
use scdn_storage::repository::{Partition, StorageRepository};

use crate::workloads::{churn_deltas, Plan, Sizes, CODED_K, CODED_M};
use crate::world::{topology, World};

/// Unit costs measured in isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    pub snapshot_us: f64,
    pub resolve_hit_us: f64,
    pub resolve_miss_us: f64,
    pub commit_resolution_us: f64,
    pub rebalance_plan_ms: f64,
    pub note_graph_delta_ms: f64,
    pub ranking_ms: f64,
    pub bfs_us: f64,
    pub apply_delta_ms: f64,
    pub bytes_copied_per_delta: f64,
    pub chunks_shared_ratio: f64,
    pub freeze_ms: f64,
    pub peek_ns: f64,
    pub authorize_ns: f64,
    pub simulate_ns: f64,
    pub transfer_many_us_per_segment: f64,
    pub transfer_coded_us: f64,
    pub checksum_mib_s: f64,
    /// Store / fetch of one serving unit: a segment, or a coded block
    /// on the coded workload.
    pub store_us: f64,
    pub fetch_us: f64,
    pub touch_ns: f64,
    pub encode_mib_s: f64,
    pub decode_mib_s: f64,
    pub snapshot_export_ms: f64,
    pub trace_record_us: f64,
}

/// Run `f(i)` for `i in 0..calls` as one timed block; nanoseconds per
/// call.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    (bytes as f64 / (1 << 20) as f64) / (ns / 1e9)
}

/// Probe every layer. `block` is the call count of one timed block
/// (1000 on full runs); dearer probes run a fixed fraction of it.
pub fn probe(
    sizes: &Sizes,
    config: &ScdnConfig,
    world: &World,
    plan: &Plan,
    block: usize,
) -> UnitCosts {
    let mut u = UnitCosts::default();
    alloc_and_bfs(&mut u, config, world, plan, block);
    middleware(&mut u, world, plan, block);
    net(&mut u, sizes, config, world, plan, block);
    storage(&mut u, sizes, config, world, block);
    obs(&mut u, sizes, world, block);
    graph_writes(&mut u, config, world, plan);
    u
}

fn alloc_and_bfs(u: &mut UnitCosts, config: &ScdnConfig, world: &World, plan: &Plan, block: usize) {
    let scdn = &world.scdn;
    let alloc = scdn.allocation();
    let csr = scdn.social_csr();
    let topo = topology(scdn.member_count());
    let online = |n: NodeId| scdn.is_online(n);
    let datasets = &world.datasets;

    u.snapshot_us = per_call_ns(block, |_| {
        black_box(alloc.snapshot());
    }) / 1e3;

    let snap = alloc.snapshot();
    let resolve = |node: NodeId, dataset: DatasetId| {
        let (selection, _) = alloc.resolve_csr_snapshot(&snap, dataset, node, csr, online, |n| {
            topo.latency_ms(node.index(), n.index())
        });
        black_box(selection.is_ok());
    };
    // Hits: the workload's own most recent pairs, resolved once to make
    // sure they are cached, then timed.
    let recent: Vec<(NodeId, DatasetId)> = plan.reqs.iter().rev().take(block).copied().collect();
    for &(node, dataset) in &recent {
        resolve(node, dataset);
    }
    u.resolve_hit_us = per_call_ns(block, |i| {
        let (node, dataset) = recent[i % recent.len()];
        resolve(node, dataset);
    }) / 1e3;

    // Misses: pairs nobody has asked for — members the plan left unused.
    let fresh: Vec<(NodeId, DatasetId)> = (0..block)
        .map(|i| {
            let node = plan.spare[i % plan.spare.len()];
            let dataset = datasets[(i / plan.spare.len() + i) % datasets.len()];
            (node, dataset)
        })
        .collect();
    u.resolve_miss_us = per_call_ns(block, |i| {
        let (node, dataset) = fresh[i];
        resolve(node, dataset);
    }) / 1e3;
    let mut scratch = TraversalScratch::new();
    u.bfs_us = per_call_ns(block, |i| {
        let (node, dataset) = fresh[i];
        let replicas = snap.replicas_of(dataset).unwrap_or(&[]);
        black_box(scratch.bfs_to_targets(csr, node, replicas, u32::MAX));
    }) / 1e3;

    u.commit_resolution_us = per_call_ns(block, |i| {
        alloc.commit_resolution(datasets[i % datasets.len()], Some(Some(2)));
    }) / 1e3;

    u.rebalance_plan_ms = per_call_ns((block / 50).max(2), |_| match config.rebalance {
        RebalanceStrategy::Static => {
            black_box(alloc.rebalance_plan(&StaticRebalance {
                policy: config.replication,
                grow_floor: config.replicas_per_dataset,
            }));
        }
        RebalanceStrategy::Adaptive(policy) => {
            black_box(alloc.rebalance_plan(&policy));
        }
    }) / 1e6;

    // A ranking miss is a full placement recompute on a cold cache.
    u.ranking_ms = per_call_ns(1, |_| {
        black_box(RankingCache::new().full_ranking(csr, config.placement, config.seed));
    }) / 1e6;

    u.freeze_ms = per_call_ns(3, |_| {
        black_box(CsrGraph::from(&scdn.social));
    }) / 1e6;
}

fn middleware(u: &mut UnitCosts, world: &World, plan: &Plan, block: usize) {
    // The runtime's middleware and sessions are private: a second
    // middleware over the same platform, with sessions for the same
    // requesters, prices the same table lookups.
    let platform = world.scdn.platform();
    let mut mw = Middleware::new(platform.clone());
    mw.ttl_ops = u32::MAX;
    let mut members: Vec<NodeId> = plan.reqs.iter().map(|&(node, _)| node).collect();
    members.sort_unstable();
    members.dedup();
    members.truncate(1024);
    let sessions: Vec<u64> = members
        .iter()
        .map(|node| {
            let login = format!("user-{}", world.scdn.authors[node.index()].0);
            let token = platform.login(&login, &login).expect("member account");
            mw.establish_session(&token).expect("fresh token").id
        })
        .collect();
    u.peek_ns = per_call_ns(block * 100, |i| {
        black_box(mw.peek_op(sessions[i % sessions.len()]).is_ok());
    });
    u.authorize_ns = per_call_ns(block * 100, |i| {
        black_box(mw.authorize_op(sessions[i % sessions.len()]).is_ok());
    });
}

fn net(
    u: &mut UnitCosts,
    sizes: &Sizes,
    config: &ScdnConfig,
    world: &World,
    plan: &Plan,
    block: usize,
) {
    let scdn = &world.scdn;
    let engine = TransferEngine {
        topology: topology(scdn.member_count()),
        failure: config.failure,
        max_attempts: 3,
        concurrency: config.transfer_concurrency.max(1),
    };
    let segments = sizes.segments_per_dataset() as u32;
    let unit_bytes = sizes.dataset_bytes.min(sizes.segment_size) as u64;
    let triples: Vec<(usize, usize, SegmentId)> = plan
        .reqs
        .iter()
        .take(block)
        .enumerate()
        .map(|(i, &(node, dataset))| {
            let src = scdn.replicas_of(dataset).expect("published")[0];
            let ordinal = i as u32 % segments;
            (src.index(), node.index(), SegmentId { dataset, ordinal })
        })
        .collect();
    u.simulate_ns = per_call_ns(block * 10, |i| {
        let (src, dst, seg) = triples[i % triples.len()];
        black_box(engine.simulate_segment(src, dst, seg, unit_bytes));
    });

    // The maintenance fan-in: owner → fresh host, whole segment sets,
    // until a block's worth of segments has moved.
    let sets = block.div_ceil(segments as usize);
    let ns = per_call_ns(sets, |i| {
        let slot = i % world.datasets.len();
        let dataset = world.datasets[slot];
        let owner = world.owners[slot];
        let ids: Vec<SegmentId> = (0..segments)
            .map(|ordinal| SegmentId { dataset, ordinal })
            .collect();
        let dst = StorageRepository::new(config.repo_capacity);
        let src = scdn.repo(owner).expect("owner exists");
        let (_, error) = engine.transfer_many_observed(
            owner.index(),
            plan.spare[i % plan.spare.len()].index(),
            src,
            &dst,
            &ids,
            Partition::Replica,
            &mut |_| {},
        );
        assert!(error.is_none(), "probe transfer failed: {error:?}");
    });
    u.transfer_many_us_per_segment = ns / f64::from(segments) / 1e3;

    // The any-k race, one fetch per coded dataset.
    let coded: Vec<DatasetId> = world
        .datasets
        .iter()
        .copied()
        .filter(|&d| matches!(scdn.allocation().coding_of(d), Ok(Some(_))))
        .collect();
    if !coded.is_empty() {
        u.transfer_coded_us = per_call_ns(coded.len(), |i| {
            let dataset = coded[i];
            let inventory = scdn.allocation().coded_inventory(dataset).expect("coded");
            let sources: Vec<CodedSource<'_>> = inventory
                .iter()
                .filter(|(host, _)| scdn.is_online(*host))
                .map(|(host, blocks)| CodedSource {
                    node: host.index(),
                    repo: scdn.repo(*host).expect("host exists"),
                    blocks: blocks.to_vec(),
                })
                .collect();
            let dst = StorageRepository::new(config.repo_capacity);
            let (_, error) = engine.transfer_coded_observed(
                plan.spare[i % plan.spare.len()].index(),
                &dst,
                dataset,
                u32::from(CODED_K),
                &sources,
                Partition::User,
                &mut |_| {},
            );
            assert!(error.is_none(), "probe coded fetch failed: {error:?}");
        }) / 1e3;
    }
}

fn storage(u: &mut UnitCosts, sizes: &Sizes, config: &ScdnConfig, world: &World, block: usize) {
    let scdn = &world.scdn;
    let rounds = (block * (32 << 10)).div_ceil(sizes.dataset_bytes).max(1);
    let ns = per_call_ns(rounds, |i| {
        black_box(Checksum::of(&world.contents[i % world.contents.len()]));
    });
    u.checksum_mib_s = mib_per_s(sizes.dataset_bytes, ns);

    // Serving units as the request path moves them: coded blocks from
    // their hosts on the coded workload, plain segments from the owners
    // otherwise.
    let mut units: Vec<(&StorageRepository, Partition, SegmentId)> = Vec::new();
    for (slot, &dataset) in world.datasets.iter().enumerate() {
        let inventory = scdn
            .allocation()
            .coded_inventory(dataset)
            .expect("published");
        if inventory.is_empty() {
            let repo = scdn.repo(world.owners[slot]).expect("owner exists");
            for ordinal in 0..sizes.segments_per_dataset() as u32 {
                units.push((repo, Partition::User, SegmentId { dataset, ordinal }));
            }
        } else {
            for (host, blocks) in &inventory {
                let repo = scdn.repo(*host).expect("host exists");
                for &index in blocks.iter() {
                    let id = CodedBlockId { dataset, index }.segment_id();
                    units.push((repo, Partition::Replica, id));
                }
            }
        }
        if units.len() >= block {
            break;
        }
    }
    let calls = block.min(units.len() * 4);
    let mut fetched = Vec::with_capacity(calls);
    u.fetch_us = per_call_ns(calls, |i| {
        let (repo, partition, id) = units[i % units.len()];
        fetched.push(repo.fetch(partition, id).expect("catalogued unit"));
    }) / 1e3;
    let dst = StorageRepository::new(u64::MAX / 2);
    u.store_us = per_call_ns(calls, |i| {
        dst.store(Partition::User, fetched[i].clone())
            .expect("room");
    }) / 1e3;

    let mut cache = CacheManager::new(EvictionPolicy::Lru);
    let ids: Vec<SegmentId> = units.iter().map(|&(_, _, id)| id).collect();
    u.touch_ns = per_call_ns(block * 100, |i| cache.touch(ids[i % ids.len()]));

    let dataset = world.datasets[0];
    let content = &world.contents[0];
    let spec = scdn
        .allocation()
        .coding_of(dataset)
        .expect("published")
        .unwrap_or(CodingSpec {
            k: CODED_K,
            m: CODED_M,
            seed: config.seed,
            total_len: content.len() as u64,
        });
    let rounds = (block * (8 << 10) / sizes.dataset_bytes).clamp(1, 64);
    let mut blocks = Vec::new();
    let ns = per_call_ns(rounds, |_| blocks = encode_blocks(&spec, dataset, content));
    u.encode_mib_s = mib_per_s(content.len(), ns);
    // The last k blocks include every parity block, so this inverts.
    let tail = &blocks[usize::from(spec.m)..];
    let ns = per_call_ns(rounds, |_| {
        black_box(decode_blocks(&spec, tail).expect("k blocks decode"));
    });
    u.decode_mib_s = mib_per_s(content.len(), ns);
}

fn obs(u: &mut UnitCosts, sizes: &Sizes, world: &World, block: usize) {
    u.snapshot_export_ms = per_call_ns(3, |_| {
        black_box(scdn_obs::to_json(&world.scdn.observability_snapshot()));
    }) / 1e6;
    // One request's lifecycle trace as the commit path builds it.
    let attempts = sizes.segments_per_dataset() as u32;
    let mut collector = TraceCollector::default();
    u.trace_record_us = per_call_ns(block * 10, |i| {
        let mut tb = collector.begin(i as u32, 0);
        tb.span(SpanKind::Authenticate, SpanStatus::Ok, 0.01);
        tb.span(SpanKind::Discover, SpanStatus::Ok, 0.01);
        tb.span_with_peer(SpanKind::SelectReplica, SpanStatus::Ok, 0.0, 1);
        for _ in 0..attempts {
            tb.attempt(SpanStatus::Ok, 1.0, 1, 1);
        }
        collector.record(tb.finish(SpanKind::Deliver, SpanStatus::Ok));
    }) / 1e3;
}

/// The write side of the graph: a chain of copy-on-write applies, each
/// announced to the allocation server's hop cache. Runs last — it moves
/// the cache to a generation the runtime does not hold.
fn graph_writes(u: &mut UnitCosts, config: &ScdnConfig, world: &World, plan: &Plan) {
    const CHAIN: usize = 16;
    let generated;
    let deltas = if plan.deltas.is_empty() {
        generated = churn_deltas(world, config.seed, CHAIN);
        &generated[..]
    } else {
        &plan.deltas[..plan.deltas.len().min(CHAIN)]
    };
    let alloc = world.scdn.allocation();
    let mut current: Option<CsrGraph> = None;
    let (mut apply_ns, mut note_ns) = (0u128, 0u128);
    let (mut copied, mut shared, mut rewritten) = (0u64, 0u64, 0u64);
    for delta in deltas {
        let old = current.as_ref().unwrap_or(world.scdn.social_csr());
        let t = Instant::now();
        let new = old.apply_delta(delta);
        apply_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(alloc.note_graph_delta(old, &new));
        note_ns += t.elapsed().as_nanos();
        let cow = new.cow_stats();
        copied += cow.bytes_copied;
        shared += cow.chunks_shared as u64;
        rewritten += cow.chunks_rewritten as u64;
        current = Some(new);
    }
    let n = deltas.len() as f64;
    u.apply_delta_ms = apply_ns as f64 / 1e6 / n;
    u.note_graph_delta_ms = note_ns as f64 / 1e6 / n;
    u.bytes_copied_per_delta = copied as f64 / n;
    u.chunks_shared_ratio = shared as f64 / (shared + rewritten).max(1) as f64;
}
