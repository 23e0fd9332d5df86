//! The four workloads: what each builds and the fixed operation list it
//! replays.
//!
//! Every epoch replays the *same* list on a *fresh* system, so each
//! counted metric is a pure function of the seed. Why each exists and
//! which layer it bypasses is in `README.md`; sizes are pinned by two
//! program constants:
//!
//! * `Middleware::ttl_ops` = 1000 and sessions are never renewed, so no
//!   member may issue 1000 operations in one epoch;
//! * `DEFAULT_RESOLVE_CACHE_CAPACITY` = 4096 (requester, dataset) pairs:
//!   `serve_hot` keeps its working set below it, `resolve_cold` never
//!   repeats a pair.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_alloc::replication::AdaptiveRebalance;
use scdn_core::system::{AvailabilityConfig, RebalanceStrategy, ScdnConfig};
use scdn_graph::{Graph, GraphDelta, NodeId};
use scdn_sim::workload::{
    generate_churn, generate_phased_requests, generate_requests, interleave_churn, ChurnConfig,
    ChurnOp, FlashCrowd, PhasedWorkloadConfig, Request, StreamEvent, WorkloadConfig, WorkloadPhase,
};
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::DatasetId;

use crate::world::{site_of, splitmix64, World, SITES};

/// Churn ops folded into one `apply_graph_delta` call.
pub const DELTA_OPS: usize = 32;
/// Reed–Solomon shape of `coded_repair`.
pub const CODED_K: u8 = 4;
pub const CODED_M: u8 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ResolveCold,
    ChurnMaintain,
    CodedRepair,
}

/// Fixed sizes of one workload (full or `--smoke`).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub nodes: usize,
    pub datasets: usize,
    pub dataset_bytes: usize,
    pub segment_size: usize,
    /// Distinct members that issue requests.
    pub requesters: usize,
    /// Data requests in one epoch's timed section.
    pub requests: usize,
    /// `request_batch` size (`serve_hot`, `resolve_cold`).
    pub batch: usize,
    /// `churn_maintain`: requests per `maintain()`.
    pub maintain_every: usize,
    /// `churn_maintain`: requests per `depart` + `repair()`.
    pub depart_every: usize,
    /// `coded_repair`: fetch → depart → repair rounds per epoch.
    pub rounds: usize,
}

impl Sizes {
    /// Untimed warm-up requests at the end of set-up: 5% of the epoch.
    pub fn warmup(&self) -> usize {
        self.requests.div_ceil(20)
    }

    pub fn segments_per_dataset(&self) -> usize {
        self.dataset_bytes.div_ceil(self.segment_size).max(1)
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ResolveCold,
        Workload::ChurnMaintain,
        Workload::CodedRepair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ResolveCold => "resolve_cold",
            Workload::ChurnMaintain => "churn_maintain",
            Workload::CodedRepair => "coded_repair",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes are constants, never derived from the host or the clock:
    /// each epoch is sized to 3–4 s on the 2-core reference host.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let base = Sizes {
            nodes: 0,
            datasets: 0,
            dataset_bytes: 0,
            segment_size: 16 << 10,
            requesters: 0,
            requests: 0,
            batch: 64,
            maintain_every: usize::MAX,
            depart_every: usize::MAX,
            rounds: 0,
        };
        match (self, smoke) {
            (Workload::ServeHot, false) => Sizes {
                nodes: 10_000,
                datasets: 16,
                dataset_bytes: 128 << 10,
                requesters: 64,
                requests: 4096,
                ..base
            },
            (Workload::ServeHot, true) => Sizes {
                nodes: 1_000,
                datasets: 8,
                dataset_bytes: 64 << 10,
                requesters: 8,
                requests: 256,
                ..base
            },
            // 40k members, not the 100k the other reporters reach:
            // `Scdn::build` is quadratic in the membership (19 s at
            // 100k, 1.6 s here) and set-up runs once per epoch.
            (Workload::ResolveCold, false) => Sizes {
                nodes: 40_000,
                datasets: 2048,
                dataset_bytes: 1 << 10,
                requesters: 6144 + 308,
                requests: 6144,
                ..base
            },
            (Workload::ResolveCold, true) => Sizes {
                nodes: 1_000,
                datasets: 64,
                dataset_bytes: 1 << 10,
                requesters: 512 + 26,
                requests: 512,
                ..base
            },
            (Workload::ChurnMaintain, false) => Sizes {
                nodes: 20_000,
                datasets: 256,
                dataset_bytes: 64 << 10,
                requesters: 1_000,
                requests: 3_000,
                maintain_every: 1_000,
                depart_every: 2_500,
                ..base
            },
            (Workload::ChurnMaintain, true) => Sizes {
                nodes: 1_000,
                datasets: 32,
                dataset_bytes: 32 << 10,
                requesters: 200,
                requests: 600,
                maintain_every: 200,
                depart_every: 500,
                ..base
            },
            (Workload::CodedRepair, false) => Sizes {
                nodes: 20_000,
                datasets: 24,
                dataset_bytes: 1 << 20,
                segment_size: 64 << 10,
                requesters: 192 + 10,
                requests: 192,
                rounds: 2,
                ..base
            },
            (Workload::CodedRepair, true) => Sizes {
                nodes: 1_000,
                datasets: 4,
                dataset_bytes: 128 << 10,
                segment_size: 32 << 10,
                requesters: 16 + 1,
                requests: 16,
                rounds: 2,
                ..base
            },
        }
    }

    /// The runtime configuration; `seed` is the fixed stage's seed.
    pub fn config(self, sizes: &Sizes, seed: u64) -> ScdnConfig {
        let base = ScdnConfig {
            segment_size: sizes.segment_size,
            repo_capacity: 64 << 20,
            transfer_concurrency: 2,
            seed,
            ..Default::default()
        };
        match self {
            Workload::ServeHot => base,
            Workload::ResolveCold => ScdnConfig {
                // The default community ranking costs tens of seconds of
                // set-up at this size and placement is not what this
                // workload prices.
                placement: PlacementAlgorithm::NodeDegree,
                ..base
            },
            Workload::ChurnMaintain => ScdnConfig {
                // The availability model is consulted for every request
                // and every maintenance candidate and makes every plan
                // clock-dependent, but with duty 1.0 nobody is ever
                // offline: the contract wants workloads on which no
                // operation fails, and a periodic fabric with r replicas
                // refuses a few requests per ten thousand.
                availability: AvailabilityConfig::Periodic {
                    period_ms: 3_600_000,
                    duty: 1.0,
                },
                rebalance: RebalanceStrategy::Adaptive(AdaptiveRebalance {
                    min_replicas: 2,
                    ..AdaptiveRebalance::with_budget(sizes.datasets * 3)
                }),
                // `repair()` restores this count, so it equals the
                // adaptive floor: repair re-homes lost replicas without
                // undoing the policy's shrinks.
                replicas_per_dataset: 2,
                ..base
            },
            Workload::CodedRepair => ScdnConfig {
                coding: CodingConfig::Rs {
                    k: CODED_K,
                    m: CODED_M,
                },
                ..base
            },
        }
    }
}

/// One top-level call into the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `request_batch(&reqs[start..start + len])`.
    Batch {
        start: usize,
        len: usize,
    },
    /// `request(reqs[i])`.
    Single(usize),
    /// `request_coded(reqs[i])`.
    Coded(usize),
    /// `apply_graph_delta(&deltas[i])`.
    Delta(usize),
    Maintain,
    /// `depart` the first catalog host of dataset slot `i` that neither
    /// owns a dataset nor issues requests.
    DepartReplicaHost(usize),
    /// `depart` one such block host per coded dataset.
    DepartBlockHosts,
    Repair,
}

/// The generated inputs of one epoch.
pub struct Plan {
    pub reqs: Vec<(NodeId, DatasetId)>,
    /// Dataset slot of each request (index into `World::datasets`).
    pub slots: Vec<u32>,
    pub deltas: Vec<GraphDelta>,
    /// Untimed, at the end of set-up.
    pub warmup: Vec<Op>,
    pub ops: Vec<Op>,
    /// Members that own a dataset or issue a request: never departed.
    pub protected: Vec<bool>,
    /// Non-hosting members no request uses — fresh pairs for the probes.
    pub spare: Vec<NodeId>,
    pub generate_requests_ms: f64,
    pub generate_churn_ms: f64,
}

/// Members hosting nothing after set-up, shuffled by `seed` and then
/// dealt round-robin over the sites, so any prefix — the requester pool
/// — is spread evenly over the topology and simulated response times do
/// not hinge on which sites a seed happened to draw. Requesters come
/// from here so that a served request really moves the dataset (a
/// hosting requester is self-served with zero bytes).
fn non_hosts(world: &World, seed: u64) -> Vec<NodeId> {
    let n = world.scdn.member_count();
    let mut hosting = vec![false; n];
    for &d in &world.datasets {
        for host in world.scdn.replicas_of(d).expect("published dataset") {
            hosting[host.index()] = true;
        }
        for (host, _) in world
            .scdn
            .allocation()
            .coded_inventory(d)
            .expect("published dataset")
        {
            hosting[host.index()] = true;
        }
    }
    let mut free: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|v| !hosting[v.index()])
        .collect();
    free.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut by_site: Vec<Vec<NodeId>> = vec![Vec::new(); SITES.len()];
    for v in free {
        by_site[site_of(v.index())].push(v);
    }
    let longest = by_site.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| by_site.iter().filter_map(move |site| site.get(i).copied()))
        .collect()
}

fn batches(range: std::ops::Range<usize>, batch: usize) -> Vec<Op> {
    range
        .clone()
        .step_by(batch)
        .map(|start| Op::Batch {
            start,
            len: batch.min(range.end - start),
        })
        .collect()
}

/// Append one churn op to the pending delta, mirroring it on the
/// harness's shadow graph so `Leave` can expand to the live ties.
fn append_churn(delta: &mut GraphDelta, op: &ChurnOp, mirror: &mut Graph) {
    match op {
        ChurnOp::AddEdge { a, b, weight } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.add_edge(a, b, *weight);
            mirror.add_edge(a, b, *weight);
        }
        ChurnOp::RemoveEdge { a, b } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.remove_edge(a, b);
            mirror.remove_edge(a, b);
        }
        ChurnOp::Leave { node } => {
            let v = NodeId(*node as u32);
            let ties: Vec<NodeId> = mirror.neighbors(v).iter().map(|e| e.to).collect();
            for p in ties {
                delta.remove_edge(v, p);
                mirror.remove_edge(v, p);
            }
        }
        ChurnOp::Join { node, peers } => {
            let v = NodeId(*node as u32);
            for &p in peers {
                let p = NodeId(p as u32);
                delta.add_edge(v, p, 1);
                mirror.add_edge(v, p, 1);
            }
        }
    }
}

/// Group a churn stream into `DELTA_OPS`-sized deltas against the
/// world's current graph.
pub fn churn_deltas(world: &World, seed: u64, deltas: usize) -> Vec<GraphDelta> {
    let events = generate_churn(&ChurnConfig {
        seed,
        users: world.scdn.member_count(),
        count: deltas * DELTA_OPS,
        ..Default::default()
    });
    let mut mirror = world.scdn.social.clone();
    events
        .chunks(DELTA_OPS)
        .map(|chunk| {
            let mut delta = GraphDelta::new();
            for ev in chunk {
                append_churn(&mut delta, &ev.op, &mut mirror);
            }
            delta
        })
        .collect()
}

impl Workload {
    /// Generate the epoch's inputs against a freshly built world.
    pub fn plan(self, world: &World, sizes: &Sizes, seed: u64) -> Plan {
        let mut stream = seed;
        let pool = non_hosts(world, splitmix64(&mut stream));
        assert!(
            pool.len() >= sizes.requesters,
            "membership too small for the requester pool"
        );
        let (requesters, spare) = pool.split_at(sizes.requesters);
        let warm = sizes.warmup();
        let total = warm + sizes.requests;
        let mut protected = vec![false; world.scdn.member_count()];
        for v in requesters.iter().chain(&world.owners) {
            protected[v.index()] = true;
        }
        let mut plan = Plan {
            reqs: Vec::with_capacity(total),
            slots: Vec::with_capacity(total),
            deltas: Vec::new(),
            warmup: Vec::new(),
            ops: Vec::new(),
            protected,
            spare: spare.to_vec(),
            generate_requests_ms: 0.0,
            generate_churn_ms: 0.0,
        };
        if self == Workload::ChurnMaintain {
            self.plan_churn(world, sizes, requesters, &mut stream, &mut plan);
            return plan;
        }
        // The other three draw one flat stream from the generator:
        // `serve_hot` takes requester and (Zipf 1.1) dataset from it, the
        // two fresh-requester workloads only the (uniform) dataset.
        let hot = self == Workload::ServeHot;
        let t = Instant::now();
        let generated = generate_requests(&WorkloadConfig {
            seed: splitmix64(&mut stream),
            users: if hot { sizes.requesters } else { 1 },
            datasets: sizes.datasets,
            popularity_exponent: if hot { 1.1 } else { 0.0 },
            activity_exponent: 0.0,
            mean_interarrival_ms: 1.0,
            count: total,
        });
        plan.generate_requests_ms = t.elapsed().as_secs_f64() * 1e3;
        for (i, r) in generated.iter().enumerate() {
            let user = requesters[if hot { r.user } else { i }];
            plan.reqs.push((user, world.datasets[r.dataset]));
            plan.slots.push(r.dataset as u32);
        }
        if self == Workload::CodedRepair {
            plan.warmup = (0..warm).map(Op::Coded).collect();
            let per_round = sizes.requests / sizes.rounds;
            for round in 0..sizes.rounds {
                let start = warm + round * per_round;
                plan.ops.extend((start..start + per_round).map(Op::Coded));
                plan.ops.push(Op::DepartBlockHosts);
                plan.ops.push(Op::Repair);
            }
        } else {
            plan.warmup = batches(0..warm, sizes.batch);
            plan.ops = batches(warm..total, sizes.batch);
        }
        plan
    }

    /// Phased Zipf + flash-crowd requests issued one `request` at a
    /// time, merged with a churn stream: a `DELTA_OPS`-op delta whenever
    /// that many churn events are pending, `maintain()` and `depart` +
    /// `repair()` on their request-count cadences.
    fn plan_churn(
        self,
        world: &World,
        sizes: &Sizes,
        requesters: &[NodeId],
        stream: &mut u64,
        plan: &mut Plan,
    ) {
        let warm = sizes.warmup();
        // Warm-up: a flat stream over the same requesters.
        let warm_reqs = generate_requests(&WorkloadConfig {
            seed: splitmix64(stream),
            users: requesters.len(),
            datasets: sizes.datasets,
            popularity_exponent: 0.0,
            activity_exponent: 0.0,
            mean_interarrival_ms: 1.0,
            count: warm,
        });
        // Four equal phases, 10% more arrivals than needed so the
        // Poisson count never falls short; the tail is cut.
        const INTERARRIVAL_MS: f64 = 10.0;
        let phase_ms = (sizes.requests as f64 * 1.1 * INTERARRIVAL_MS / 4.0) as u64;
        let phase = |popularity_exponent, flash| WorkloadPhase {
            duration_ms: phase_ms,
            popularity_exponent,
            mean_interarrival_ms: INTERARRIVAL_MS,
            flash,
        };
        let t = Instant::now();
        let mut requests: Vec<Request> = generate_phased_requests(&PhasedWorkloadConfig {
            seed: splitmix64(stream),
            users: requesters.len(),
            datasets: sizes.datasets,
            activity_exponent: 0.6,
            phases: vec![
                phase(0.0, None),
                phase(0.8, None),
                phase(
                    1.2,
                    Some(FlashCrowd {
                        dataset: sizes.datasets - 1,
                        fraction: 0.3,
                    }),
                ),
                phase(0.8, None),
            ],
        });
        plan.generate_requests_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            requests.len() >= sizes.requests,
            "phased generator fell short of the epoch's request count"
        );
        requests.truncate(sizes.requests);
        let churn_events = sizes.requests / 200 * DELTA_OPS;
        let t = Instant::now();
        let churn = generate_churn(&ChurnConfig {
            seed: splitmix64(stream),
            users: sizes.nodes,
            mean_interarrival_ms: 4.0 * phase_ms as f64 / churn_events as f64,
            count: churn_events,
            ..Default::default()
        });
        plan.generate_churn_ms = t.elapsed().as_secs_f64() * 1e3;

        for r in &warm_reqs {
            plan.warmup.push(Op::Single(plan.reqs.len()));
            plan.reqs
                .push((requesters[r.user], world.datasets[r.dataset]));
            plan.slots.push(r.dataset as u32);
        }
        let mut mirror = world.scdn.social.clone();
        let mut pending = GraphDelta::new();
        let mut pending_ops = 0usize;
        let mut issued = 0usize;
        for ev in interleave_churn(&requests, &churn) {
            if issued == sizes.requests {
                // Churn arriving after the last request is not replayed.
                break;
            }
            match ev {
                StreamEvent::Churn(c) => {
                    append_churn(&mut pending, &c.op, &mut mirror);
                    pending_ops += 1;
                    if pending_ops == DELTA_OPS {
                        plan.ops.push(Op::Delta(plan.deltas.len()));
                        plan.deltas.push(std::mem::take(&mut pending));
                        pending_ops = 0;
                    }
                }
                StreamEvent::Request(r) => {
                    plan.ops.push(Op::Single(plan.reqs.len()));
                    plan.reqs
                        .push((requesters[r.user], world.datasets[r.dataset]));
                    plan.slots.push(r.dataset as u32);
                    issued += 1;
                    if issued.is_multiple_of(sizes.maintain_every) {
                        plan.ops.push(Op::Maintain);
                    }
                    if issued.is_multiple_of(sizes.depart_every) {
                        plan.ops
                            .push(Op::DepartReplicaHost(issued % sizes.datasets));
                        plan.ops.push(Op::Repair);
                    }
                }
            }
        }
    }
}
