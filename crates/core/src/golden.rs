//! Golden operation streams: fixed schedules folded through
//! [`Scdn::apply`], each pinned to what it produced.
//!
//! Three streams per fixture family, each from its own seed:
//! - request batches on the serving system (periodic churn, a departure,
//!   trust-gated and confidential datasets) and under quota pressure;
//! - maintenance and repair cycles under the static and adaptive
//!   policies, periodic or always-on, roomy or tight repositories;
//! - coded datasets, alone and mixed with whole replicas in one batch;
//! - departures followed by repair under fast availability churn.
//!
//! Every stream pins four numbers: the outcome [`Digest`], an FNV-1a of
//! the exported metric snapshot, of the trace shapes and of the catalog
//! part of the [`DecisionState`] ([`catalog_pin`]). The values were
//! recorded when batches and cycles still ran through a parallel
//! plan/commit pipeline, itself held bit-identical to the serial loops
//! the runtime now is; the snapshot omits the series that count work
//! rather than decisions ([`NOT_DECISIONS`]) and the counters that
//! pipeline alone kept, and its pins were re-recorded once, when the
//! ranking-cache counters joined that list. Any change to what a
//! request, a cycle or a repair decides, stores, charges or records
//! fails here.

use scdn_alloc::replication::AdaptiveRebalance;
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::DatasetId;

use crate::fixtures::{
    coded_cycle_system, export_without, fast_churn_system, maintenance_system, mixed_system, pick,
    quota_system, serving_system, trace_shapes, ROOMY,
};
use crate::ops::{Digest, Op};
use crate::system::{AvailabilityConfig, DecisionState, RebalanceStrategy, Scdn};

/// Export lines that count work rather than decisions — hop-cache
/// lookups, the searches behind them and coded rows encoded, all of which
/// a plan/commit pipeline that re-planned stale work repeated, and
/// ranking-cache hits and misses, which move with the cache's staleness
/// rule — the one host-time series, and the retired catalog-wide
/// invalidation counter. The metric-side complement of
/// [`DecisionState`]: the snapshot pin hashes what is left of the export,
/// which records what was decided; the state is what decides. It stays
/// until the export can tell a decision metric from a work metric by its
/// kind.
const NOT_DECISIONS: [&str; 6] = [
    "alloc.catalog.touch_all",
    "alloc.resolve.cache.",
    "alloc.resolve.bfs.",
    "core.maintain.coded_rows_encoded",
    "core.maintain.ranking_cache_",
    "core.maintain.ranking_recompute_ms",
];

/// A splitmix64 sequence from a seed: the stream generators' only source
/// of choice, here and in `fuzz`.
pub(crate) struct Choices(pub(crate) u64);

impl Choices {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(crate) fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub(crate) fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    /// `1..=max` selector pairs; requesters below `members` when given.
    fn selectors(&mut self, max: u64, members: Option<u8>) -> Vec<(u8, u8)> {
        let len = 1 + self.below(max);
        (0..len)
            .map(|_| {
                let n = self.byte();
                (members.map_or(n, |m| n % m), self.byte())
            })
            .collect()
    }
}

/// What one stream produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    snapshot: u64,
    traces: u64,
    catalog: u64,
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fold `ops` through `apply` into `digest`.
fn fold(scdn: &mut Scdn, ops: &[Op], digest: &mut Digest) {
    for op in ops {
        let outcome = scdn.apply(op);
        digest.fold(op, &outcome);
    }
}

/// The catalog pin's text: each catalog entry's replica set, version and
/// per-host coded inventory, in `DatasetId` order.
fn catalog_pin(state: &DecisionState) -> String {
    let entries = state.catalog.entries.iter();
    let rows: Vec<_> = entries
        .map(|(_, e)| (&e.replicas, Some(e.version), &e.coded_hosts))
        .collect();
    format!("{rows:?}")
}

fn observe(scdn: &Scdn, digest: Digest) -> Golden {
    Golden {
        digest: digest.value(),
        snapshot: fnv(&export_without(scdn, &NOT_DECISIONS)),
        traces: fnv(&trace_shapes(scdn).join("\n")),
        catalog: fnv(&catalog_pin(&scdn.decision_state())),
    }
}

/// Run `ops` from a fresh digest and observe the result.
fn run(mut scdn: Scdn, ops: &[Op]) -> Golden {
    let mut digest = Digest::default();
    fold(&mut scdn, ops, &mut digest);
    observe(&scdn, digest)
}

/// `steps` ticks below `dt_max`, each followed by a batch of up to
/// `batch_max` requests (requesters below `members` when given), a
/// departure before the second step when `depart`, and a repair after
/// each step when `repair`.
#[allow(clippy::too_many_arguments)]
fn batch_stream(
    scdn: &Scdn,
    datasets: &[DatasetId],
    choices: &mut Choices,
    steps: usize,
    dt_max: u64,
    batch_max: u64,
    members: Option<u8>,
    depart: bool,
    repair: bool,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for step in 0..steps {
        if depart && step == 1 {
            let node = choices.below(scdn.member_count() as u64) as u32;
            ops.push(Op::Depart(NodeId(node)));
        }
        ops.push(Op::Tick(choices.below(dt_max)));
        let batch = choices.selectors(batch_max, members);
        ops.extend(batch.into_iter().map(|s| {
            let (node, dataset) = pick(scdn, datasets, s);
            Op::Request(node, dataset)
        }));
        if repair {
            ops.push(Op::Repair);
        }
    }
    ops
}

/// `steps` cycles: a tick, a burst of single requests (which feed the
/// replication policy's windows), maybe a departure, then a maintenance
/// or a repair cycle.
fn cycle_stream(
    scdn: &Scdn,
    datasets: &[DatasetId],
    choices: &mut Choices,
    steps: usize,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..steps {
        ops.push(Op::Tick(choices.below(6_000)));
        let burst = choices.below(7);
        for _ in 0..burst {
            let (n, d) = pick(scdn, datasets, (choices.byte(), choices.byte()));
            ops.push(Op::Request(n, d));
        }
        if choices.coin() {
            let node = choices.below(scdn.member_count() as u64) as u32;
            ops.push(Op::Depart(NodeId(node)));
        }
        ops.push(if choices.coin() {
            Op::Repair
        } else {
            Op::Maintain
        });
    }
    ops
}

fn request_batches(seed: u64) -> Golden {
    let mut choices = Choices(seed);
    match seed {
        1 | 2 => {
            let (scdn, datasets) = serving_system(seed == 1);
            let ops = batch_stream(
                &scdn,
                &datasets,
                &mut choices,
                6,
                5_000,
                6,
                None,
                seed == 1,
                false,
            );
            run(scdn, &ops)
        }
        _ => {
            let (scdn, datasets) = quota_system(FailureModel {
                loss_prob: 0.3,
                corruption_prob: 0.1,
                seed: 5,
                ..FailureModel::default()
            });
            let ops = batch_stream(
                &scdn,
                &datasets,
                &mut choices,
                5,
                500,
                8,
                Some(6),
                false,
                false,
            );
            run(scdn, &ops)
        }
    }
}

fn maintenance_cycles(seed: u64) -> Golden {
    let mut choices = Choices(seed);
    let adaptive = RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(8));
    let (rebalance, periodic, capacity) = match seed {
        1 => (RebalanceStrategy::Static, true, ROOMY),
        2 => (adaptive, false, 16 << 10),
        _ => (adaptive, true, 16 << 10),
    };
    let (scdn, datasets) = maintenance_system(rebalance, periodic, capacity);
    let ops = cycle_stream(&scdn, &datasets, &mut choices, 6);
    run(scdn, &ops)
}

fn coded_streams(seed: u64) -> Golden {
    let mut choices = Choices(seed);
    if seed == 1 {
        let (scdn, datasets) = coded_cycle_system(CodingConfig::Rs { k: 3, m: 2 });
        let ops = cycle_stream(&scdn, &datasets, &mut choices, 6);
        return run(scdn, &ops);
    }
    let availability = if seed == 2 {
        AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.8,
        }
    } else {
        AvailabilityConfig::AlwaysOn
    };
    let (scdn, datasets) = mixed_system(availability);
    let ops = batch_stream(
        &scdn,
        &datasets,
        &mut choices,
        5,
        6_000,
        6,
        Some(12),
        true,
        true,
    );
    run(scdn, &ops)
}

/// Place both datasets at a random start clock, then three rounds of:
/// depart two live replica hosts that own nothing, tick, repair.
fn depart_then_repair(seed: u64) -> Golden {
    let mut choices = Choices(seed);
    let period_ms = [60, 200, 800][(seed as usize - 1) % 3];
    let (mut scdn, datasets) = fast_churn_system(period_ms, seed);
    let mut digest = Digest::default();
    fold(
        &mut scdn,
        &[Op::Tick(13 * choices.below(60)), Op::Repair],
        &mut digest,
    );
    for _ in 0..3 {
        let mut ops = Vec::new();
        for &d in &datasets {
            let hosts: Vec<NodeId> = scdn
                .replicas_of(d)
                .unwrap_or_default()
                .into_iter()
                .filter(|n| n.0 >= datasets.len() as u32)
                .collect();
            if !hosts.is_empty() {
                ops.push(Op::Depart(
                    hosts[choices.below(hosts.len() as u64) as usize],
                ));
            }
        }
        ops.push(Op::Tick(choices.below(400)));
        ops.push(Op::Repair);
        fold(&mut scdn, &ops, &mut digest);
    }
    observe(&scdn, digest)
}

/// Hold `family`'s three seeds to `want`, reporting every mismatch.
fn check(family: &str, stream: fn(u64) -> Golden, want: [[u64; 4]; 3]) {
    let mut wrong = Vec::new();
    for (seed, want) in (1..).zip(want) {
        let got = stream(seed);
        let want = Golden {
            digest: want[0],
            snapshot: want[1],
            traces: want[2],
            catalog: want[3],
        };
        if got != want {
            wrong.push(format!(
                "{family} seed {seed}: got [{:#x}, {:#x}, {:#x}, {:#x}]",
                got.digest, got.snapshot, got.traces, got.catalog
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn request_batches_reproduce_their_goldens() {
    check(
        "request_batches",
        request_batches,
        [
            [
                0xb96a_07bc_e044_c371,
                0xc1ee_5c20_5e70_4e90,
                0x3bda_ff6a_7b5e_a18c,
                0x01ac_53ee_2081_3031,
            ],
            [
                0xbd45_9b11_e883_fb99,
                0x89e7_379f_8394_734f,
                0xeafe_4c3b_86cb_b8b6,
                0x3b81_9eff_97f3_11ef,
            ],
            [
                0x3bc8_4c39_b82e_1010,
                0xd76c_9d19_408a_faa0,
                0x2f29_81c1_65c1_1967,
                0xe13a_8c6b_b649_53ee,
            ],
        ],
    );
}

#[test]
fn maintenance_cycles_reproduce_their_goldens() {
    check(
        "maintenance_cycles",
        maintenance_cycles,
        [
            [
                0x4b67_a6ba_9150_8a3e,
                0x128d_c3d8_3a30_3c71,
                0xd72c_d5e8_c72b_2f66,
                0x20df_e89f_5086_04f7,
            ],
            [
                0xebeb_1ef3_06f1_6de3,
                0xc943_cc88_e5b4_d8ab,
                0x0b2b_dee9_9aad_d428,
                0xa2b2_2796_c784_e827,
            ],
            [
                0xe7d7_ba36_c23e_c2e3,
                0x3ab8_9160_11a3_7265,
                0xb346_79c9_72cf_5f55,
                0xd2dd_c844_88c3_bad8,
            ],
        ],
    );
}

#[test]
fn coded_streams_reproduce_their_goldens() {
    check(
        "coded_streams",
        coded_streams,
        [
            [
                0x22c8_209e_ce22_cdb7,
                0x0414_6eba_5a17_23f1,
                0x9b6d_ea48_31b5_ac75,
                0x0b09_9571_fec5_3965,
            ],
            [
                0xf5af_0643_79dd_4b67,
                0x5059_2175_f04b_8a36,
                0x395e_d9eb_7350_aee0,
                0x8ecd_c1ab_b9d4_7f0b,
            ],
            [
                0xe92a_7787_605b_8af1,
                0x8ac2_e187_f7d6_8e1e,
                0xf196_a430_5aea_6fd1,
                0x8b9c_5156_547b_289e,
            ],
        ],
    );
}

#[test]
fn departures_then_repair_reproduce_their_goldens() {
    check(
        "depart_then_repair",
        depart_then_repair,
        [
            [
                0x2e6e_b331_bf48_8e29,
                0xb9d9_9a93_1c87_0346,
                0xcbf2_9ce4_8422_2325,
                0xfa08_9b99_e151_1607,
            ],
            [
                0xc372_3fe5_19de_00a2,
                0x03ab_22db_7f10_40e0,
                0xcbf2_9ce4_8422_2325,
                0xb19f_162b_0abc_db19,
            ],
            [
                0xdc3c_b0b2_12bf_2982,
                0xc1dd_7c30_798d_3392,
                0xcbf2_9ce4_8422_2325,
                0xbc2f_25d3_99ae_0db5,
            ],
        ],
    );
}
