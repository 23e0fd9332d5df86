//! Replaying a plan against a world: one closed-loop client on one
//! thread issues each operation only after the previous one returned.

use std::time::Instant;

use scdn_core::system::{RequestOutcome, ScdnError};
use scdn_graph::NodeId;

use crate::spans::Recorder;
use crate::workloads::{Op, Plan, Sizes, Workload, CODED_K};
use crate::world::World;

/// Kinds of top-level call, in `Epoch::tallies` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Batch,
    Single,
    Coded,
    Delta,
    Maintain,
    Depart,
    Repair,
}

impl Kind {
    pub const COUNT: usize = 7;

    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Batch => "core.request_batch",
            Kind::Single => "core.request",
            Kind::Coded => "core.request_coded",
            Kind::Delta => "core.apply_graph_delta",
            Kind::Maintain => "core.maintain",
            Kind::Depart => "core.depart",
            Kind::Repair => "core.repair",
        }
    }

    /// Serving calls carry data requests; the rest is background work.
    pub fn is_serving(self) -> bool {
        matches!(self, Kind::Batch | Kind::Single | Kind::Coded)
    }
}

/// Calls and wall time of one kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

/// Everything one replay produced.
#[derive(Clone, Debug, Default)]
pub struct Epoch {
    /// Wall seconds of the whole section, background calls included.
    pub wall_s: f64,
    pub attempted: u64,
    /// Requests that were refused, failed, or delivered the wrong size.
    pub failed: u64,
    /// Host wall time of each serving call, ms.
    pub serve_ms: Vec<f64>,
    /// Simulated response time of each served request, ms.
    pub response_ms: Vec<f64>,
    pub social_hits: u64,
    /// Growth of `cdn_metrics.bytes_transferred` across serving calls.
    pub transfer_bytes: u64,
    /// ... across `maintain` / `repair` calls.
    pub maintenance_bytes: u64,
    /// FNV-1a over the full outcome sequence.
    pub digest: u64,
    pub tallies: [Tally; Kind::COUNT],
    /// Resolve-cache entries graph deltas retained / evicted.
    pub delta_retained: u64,
    pub delta_evicted: u64,
    /// Datasets that lost a host to a departure (each re-encoded or
    /// re-replicated by the following repair).
    pub datasets_hit_by_departure: u64,
    /// The last requests served from a remote host, for the audit.
    pub served_pairs: Vec<(NodeId, u32)>,
    /// Wall seconds and digest when the first quarter of the operation
    /// list had run (the two-worker replay repeats that prefix).
    pub quarter_wall_s: f64,
    pub quarter_digest: u64,
}

impl Epoch {
    pub fn tally(&self, kind: Kind) -> Tally {
        self.tallies[kind as usize]
    }

    pub fn background_ns(&self) -> u64 {
        [Kind::Delta, Kind::Maintain, Kind::Depart, Kind::Repair]
            .iter()
            .map(|&k| self.tally(k).ns)
            .sum()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// Pairs kept for the post-run repository audit.
const AUDIT_PAIRS: usize = 64;

struct Replay<'a> {
    world: &'a mut World,
    plan: &'a Plan,
    rec: &'a mut Recorder,
    epoch: Epoch,
    root: Option<u32>,
    /// Bytes a correctly served request reports.
    expected_bytes: u64,
}

impl Replay<'_> {
    /// Time one call, attribute it, and record its span.
    fn call<T>(&mut self, kind: Kind, op_id: u32, f: impl FnOnce(&mut World) -> T) -> T {
        let bytes_before = self.world.scdn.cdn_metrics.bytes_transferred;
        let start = self.rec.now_ns();
        let out = f(self.world);
        let end = self.rec.now_ns();
        self.rec
            .record(kind.span_name(), start, end, self.root, op_id);
        let tally = &mut self.epoch.tallies[kind as usize];
        tally.calls += 1;
        tally.ns += end - start;
        let moved = self.world.scdn.cdn_metrics.bytes_transferred - bytes_before;
        if kind.is_serving() {
            self.epoch.transfer_bytes += moved;
            self.epoch.serve_ms.push((end - start) as f64 / 1e6);
        } else {
            self.epoch.maintenance_bytes += moved;
        }
        out
    }

    /// Check and fold one request's result.
    fn outcome(&mut self, index: usize, result: &Result<RequestOutcome, ScdnError>) {
        let (node, _) = self.plan.reqs[index];
        self.epoch.attempted += 1;
        match result {
            Ok(o) => {
                let self_served = o.served_by == node && o.bytes == 0;
                if o.bytes == self.expected_bytes || self_served {
                    self.epoch.response_ms.push(o.response_ms);
                    self.epoch.social_hits += u64::from(o.social_hit);
                    if !self_served {
                        if self.epoch.served_pairs.len() == AUDIT_PAIRS {
                            self.epoch.served_pairs.remove(0);
                        }
                        self.epoch.served_pairs.push((node, self.plan.slots[index]));
                    }
                } else {
                    self.epoch.failed += 1;
                }
                fnv(&mut self.epoch.digest, u64::from(o.served_by.0));
                fnv(&mut self.epoch.digest, u64::from(o.social_hit));
                fnv(&mut self.epoch.digest, o.response_ms.to_bits());
                fnv(&mut self.epoch.digest, o.bytes);
            }
            Err(e) => {
                self.epoch.failed += 1;
                for byte in e.to_string().bytes() {
                    fnv(&mut self.epoch.digest, u64::from(byte));
                }
            }
        }
    }

    /// Catalog hosts of dataset slot `slot` that may depart.
    fn departable(&self, slot: usize) -> Option<NodeId> {
        let scdn = &self.world.scdn;
        let dataset = self.world.datasets[slot];
        let mut hosts = scdn.replicas_of(dataset).unwrap_or_default();
        if let Ok(inventory) = scdn.allocation().coded_inventory(dataset) {
            hosts.extend(inventory.into_iter().map(|(host, _)| host));
        }
        hosts
            .into_iter()
            .find(|h| !self.plan.protected[h.index()] && scdn.is_online(*h))
    }

    fn depart(&mut self, victim: NodeId, op_id: u32) {
        let affected = self.call(Kind::Depart, op_id, |w| {
            w.scdn.depart(victim).expect("member exists")
        });
        self.epoch.datasets_hit_by_departure += affected.len() as u64;
        fnv(&mut self.epoch.digest, u64::from(victim.0));
    }

    fn step(&mut self, op_id: u32, op: Op) {
        let plan = self.plan;
        match op {
            Op::Batch { start, len } => {
                let reqs = &plan.reqs[start..start + len];
                let results = self.call(Kind::Batch, op_id, |w| w.scdn.request_batch(reqs));
                for (i, r) in results.iter().enumerate() {
                    self.outcome(start + i, r);
                }
            }
            Op::Single(i) => {
                let (node, dataset) = plan.reqs[i];
                let r = self.call(Kind::Single, op_id, |w| w.scdn.request(node, dataset));
                self.outcome(i, &r);
            }
            Op::Coded(i) => {
                let (node, dataset) = plan.reqs[i];
                let r = self.call(Kind::Coded, op_id, |w| w.scdn.request_coded(node, dataset));
                self.outcome(i, &r);
            }
            Op::Delta(i) => {
                let stats = self.call(Kind::Delta, op_id, |w| {
                    w.scdn
                        .apply_graph_delta(&plan.deltas[i])
                        .expect("generated deltas stay inside the membership")
                });
                self.epoch.delta_retained += stats.resolve_retained;
                self.epoch.delta_evicted += stats.resolve_evicted;
                fnv(&mut self.epoch.digest, stats.nodes_touched as u64);
            }
            Op::Maintain => {
                let changes = self.call(Kind::Maintain, op_id, |w| w.scdn.maintain());
                fnv(&mut self.epoch.digest, changes as u64);
            }
            Op::Repair => {
                let restored = self.call(Kind::Repair, op_id, |w| w.scdn.repair());
                fnv(&mut self.epoch.digest, restored as u64);
            }
            Op::DepartReplicaHost(slot) => {
                if let Some(victim) = self.departable(slot) {
                    self.depart(victim, op_id);
                }
            }
            Op::DepartBlockHosts => {
                // One host per dataset; a host of several datasets
                // departs once.
                let mut victims: Vec<NodeId> = (0..self.world.datasets.len())
                    .filter_map(|slot| self.departable(slot))
                    .collect();
                victims.sort_unstable();
                victims.dedup();
                for victim in victims {
                    self.depart(victim, op_id);
                }
            }
        }
    }
}

/// Bytes `RequestOutcome::bytes` reports for a fully delivered dataset:
/// its length, or the `k` equal blocks a coded fetch lands.
pub fn expected_bytes(workload: Workload, sizes: &Sizes) -> u64 {
    match workload {
        Workload::CodedRepair => {
            let k = usize::from(CODED_K);
            (sizes.dataset_bytes.div_ceil(k) * k) as u64
        }
        _ => sizes.dataset_bytes as u64,
    }
}

/// Replay `ops` in order. Spans go to `rec` under one root span; the
/// root's self time is the harness's own share of the section.
pub fn replay(
    workload: Workload,
    sizes: &Sizes,
    world: &mut World,
    plan: &Plan,
    ops: &[Op],
    rec: &mut Recorder,
) -> Epoch {
    let root = rec.open("epoch", u32::MAX);
    let mut replay = Replay {
        world,
        plan,
        rec,
        epoch: Epoch {
            digest: FNV_OFFSET,
            ..Epoch::default()
        },
        root: Some(root),
        expected_bytes: expected_bytes(workload, sizes),
    };
    let start = Instant::now();
    for (op_id, &op) in ops.iter().enumerate() {
        if op_id == ops.len() / 4 {
            replay.epoch.quarter_wall_s = start.elapsed().as_secs_f64();
            replay.epoch.quarter_digest = replay.epoch.digest;
        }
        replay.step(op_id as u32, op);
    }
    replay.epoch.wall_s = start.elapsed().as_secs_f64();
    replay.rec.close(root);
    replay.epoch
}
