//! Seeded whole-system schedules: a generator that draws every [`Op`]
//! over the fixture families, and the properties checked after every op.
//!
//! A seed picks a family and draws a schedule from it with
//! [`Choices`]: publishes (some over quota, some from outside the
//! membership), replications, resolves and requests of published, later
//! and unknown datasets, telemetry, ticks (`0` included), deltas that join
//! members, lapse an edge or reach outside the membership, departures
//! (repeated and out-of-range ones too), and maintenance and repair
//! cycles. Two properties hold over every schedule:
//! - an op that returns `Err` leaves [`Scdn::decision_state`] as it found
//!   it, apart from the charges of [`fixtures::charged`]: a request or a
//!   publish that authenticated pays its session one operation, and a
//!   request whose resolve succeeded counts one more hit or miss;
//! - two builds fed one schedule end with equal [`Digest`]s, decision
//!   states and metric exports (all but the one host-time series).
//!
//! The generator draws no fault op yet (flipped or forged copies), and no
//! invariant beyond these two is checked here.

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::replication::AdaptiveRebalance;
use scdn_graph::{GraphDelta, NodeId};
use scdn_net::failure::FailureModel;
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::{DatasetId, Sensitivity};

use crate::fixtures::{
    self, assert_same_state, coded_cycle_system, export_without, fast_churn_system,
    maintenance_system, mixed_system, quota_system, serving_system,
};
use crate::golden::Choices;
use crate::ops::{Digest, Op};
use crate::system::{AvailabilityConfig, DecisionState, RebalanceStrategy, Scdn, ScdnError};

/// The one export series that measures host time, not simulation state.
const WALL_CLOCK: [&str; 1] = ["core.maintain.ranking_recompute_ms"];

/// Fixture family `family` (modulo six), built deterministically.
fn build(family: u64, seed: u64) -> (Scdn, Vec<DatasetId>) {
    match family % 6 {
        0 => serving_system(true),
        1 => quota_system(FailureModel {
            loss_prob: 0.3,
            corruption_prob: 0.1,
            seed: 5,
            ..FailureModel::default()
        }),
        2 => maintenance_system(
            RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(8)),
            true,
            16 << 10,
        ),
        3 => coded_cycle_system(CodingConfig::Rs { k: 3, m: 2 }),
        4 => mixed_system(AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.8,
        }),
        _ => fast_churn_system(200, seed),
    }
}

/// A member, or about one time in nine an id just past the membership.
fn node(c: &mut Choices, members: u64) -> NodeId {
    NodeId(c.below(members + members / 8 + 1) as u32)
}

/// A published dataset, one a later publish may take, or an unknown one.
fn dataset(c: &mut Choices, datasets: u64) -> DatasetId {
    DatasetId(c.below(datasets + 3) as u32)
}

/// One to three edge changes: a join between members, a lapse of one of
/// the graph's edges at build time, or an endpoint or a node added past
/// the membership.
fn delta(c: &mut Choices, scdn: &Scdn) -> GraphDelta {
    let members = scdn.member_count() as u64;
    let mut delta = GraphDelta::new();
    for _ in 0..1 + c.below(3) {
        match c.below(8) {
            0..=3 => {
                let (a, b) = (c.below(members), c.below(members));
                delta.add_edge(NodeId(a as u32), NodeId(b as u32), 1 + c.below(3) as u32);
            }
            4..=6 => {
                let edges = scdn.social_csr().edge_count() as u64;
                if let Some((a, b, _)) = scdn.social_csr().edges().nth(c.below(edges) as usize) {
                    delta.remove_edge(a, b);
                }
            }
            _ if c.coin() => {
                let outside = NodeId((members + c.below(3)) as u32);
                delta.add_edge(NodeId(c.below(members) as u32), outside, 1);
            }
            _ => {
                delta.add_nodes(1);
            }
        }
    }
    delta
}

/// One op drawn over `scdn` as built, which published `datasets`.
fn draw(c: &mut Choices, scdn: &Scdn, datasets: u64) -> Op {
    let members = scdn.member_count() as u64;
    match c.below(100) {
        0..=5 => Op::Publish {
            node: node(c, members),
            name: format!("drawn-{}", c.byte()),
            content: Bytes::from(vec![c.byte(); 1 + c.below(24 << 10) as usize]),
            sensitivity: if c.below(4) == 0 {
                Sensitivity::Confidential
            } else {
                Sensitivity::Public
            },
            policy: None,
        },
        6..=11 => Op::Replicate(dataset(c, datasets)),
        12..=19 => Op::Resolve(node(c, members), dataset(c, datasets)),
        20..=23 => Op::Telemetry,
        24..=37 => Op::Tick(if c.below(4) == 0 { 0 } else { c.below(6_000) }),
        38..=67 => Op::Request(node(c, members), dataset(c, datasets)),
        68..=76 => Op::Delta(delta(c, scdn)),
        // Half the departures hit the low ids, owners among them, so a
        // member often departs twice.
        77..=84 if c.coin() => Op::Depart(NodeId(c.below(6) as u32)),
        77..=84 => Op::Depart(node(c, members)),
        85..=92 => Op::Maintain,
        _ => Op::Repair,
    }
}

/// A schedule of 16 to 47 ops over `scdn` as built.
fn schedule(c: &mut Choices, scdn: &Scdn, datasets: usize) -> Vec<Op> {
    let len = 16 + c.below(32);
    (0..len).map(|_| draw(c, scdn, datasets as u64)).collect()
}

/// Hits and misses of `dataset`'s catalog entry, if it has one.
fn demand(state: &DecisionState, dataset: DatasetId) -> Option<(u64, u64)> {
    let mut entries = state.catalog.entries.iter();
    let (_, entry) = entries.find(|&&(d, _)| d == dataset)?;
    Some((entry.hits, entry.misses))
}

/// What `op`, refused with `error`, may leave of `before`: a request or
/// a publish refused after authenticating pays its documented charges
/// (`after` says whether a request's resolve succeeded); any other refusal
/// leaves `before`.
fn refused(
    before: DecisionState,
    after: &DecisionState,
    op: &Op,
    error: &ScdnError,
) -> DecisionState {
    let authenticated = !matches!(
        error,
        ScdnError::UnknownNode(_) | ScdnError::Auth(_) | ScdnError::Coding(_)
    );
    match *op {
        Op::Request(node, dataset) if authenticated => {
            let resolved = (demand(&before, dataset) != demand(after, dataset)).then_some(dataset);
            fixtures::charged(before, after, node, resolved)
        }
        Op::Publish { node, .. } if authenticated => fixtures::charged(before, after, node, None),
        _ => before,
    }
}

/// Build the family `seed` draws twice and fold one drawn schedule
/// through both. The second build runs one op behind the first, so when
/// an op fails on the first, the second still holds the state before it
/// (the two end equal, checked last): no state is copied for an op that
/// succeeds.
fn check(seed: u64) {
    let mut choices = Choices(seed);
    let family = choices.next();
    let (mut a, datasets) = build(family, seed);
    let (mut b, _) = build(family, seed);
    let ops = schedule(&mut choices, &a, datasets.len());
    let (mut digest_a, mut digest_b) = (Digest::default(), Digest::default());
    for (i, op) in ops.iter().enumerate() {
        let outcome = a.apply(op);
        digest_a.fold(op, &outcome);
        if let Some(e) = outcome.error() {
            let (before, after) = (b.decision_state(), a.decision_state());
            let case = format!("seed {seed:#x}, op {i} {op:?}: {e}");
            assert_same_state(&after, &refused(before, &after, op, e), &case);
        }
        digest_b.fold(op, &b.apply(op));
    }
    assert_eq!(
        digest_a.value(),
        digest_b.value(),
        "seed {seed:#x}: digests"
    );
    let case = format!("seed {seed:#x}: two builds");
    assert_same_state(&a.decision_state(), &b.decision_state(), &case);
    assert_eq!(
        export_without(&a, &WALL_CLOCK),
        export_without(&b, &WALL_CLOCK),
        "seed {seed:#x}: metric exports"
    );
}

proptest! {
    /// Every drawn schedule keeps both properties of the module doc.
    #[test]
    fn drawn_schedules_refuse_cleanly_and_replay_exactly(seed in any::<u64>()) {
        check(seed);
    }
}
