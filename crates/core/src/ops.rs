//! One operation stream: [`Scdn::apply`] is the one call that changes an
//! [`Scdn`] from outside the runtime, and every driver folds its schedule
//! through it as a sequence of [`Op`]s.
//!
//! The alphabet is the paper's (Section V): a member publishes, the
//! Allocation Server replicates and resolves, a member requests through
//! the middleware, CDN clients report their statistics, time passes,
//! collaborations form or lapse, members leave, and the CDN maintains and
//! repairs itself.
//!
//! Nine runtime methods stay `pub` only because `benchmark/` calls them
//! (ROADMAP 5(e)): `publish`, `replicate`, `request`, `request_batch`,
//! `request_coded`, `apply_graph_delta`, `maintain`, `repair` and
//! `depart`. The root `clippy.toml` disallows them in every other crate;
//! `scdn-core`'s own `clippy.toml` repeats the root's other entries, and a
//! unit test holds the two files in step.
//!
//! A stream states every tick: [`Op::Tick`] advances the clock, `0`
//! included, and no driver reads the clock to decide one. An op fails
//! exactly when its outcome carries an `Err` ([`OpOutcome::error`]).
//! [`Digest`] folds the outcomes into the one number two runs of the same
//! stream must agree on.

use bytes::Bytes;
use scdn_graph::{GraphDelta, NodeId};
use scdn_middleware::authz::AccessPolicy;
use scdn_storage::object::{DatasetId, Sensitivity};

use crate::system::{GraphDeltaStats, RequestOutcome, Scdn, ScdnError};

/// One call into the runtime.
#[derive(Debug)]
pub enum Op {
    /// [`Scdn::publish`]: store `content` in `node`'s user partition and
    /// register it under `policy` (`None` for the default policy of its
    /// `sensitivity`).
    Publish {
        /// The publishing member.
        node: NodeId,
        /// The dataset's name.
        name: String,
        /// The published bytes.
        content: Bytes,
        /// The dataset's sensitivity level.
        sensitivity: Sensitivity,
        /// Its access policy.
        policy: Option<AccessPolicy>,
    },
    /// [`Scdn::replicate`] to the configured replica count.
    Replicate(DatasetId),
    /// The replica the allocation server would serve this requester from,
    /// with the resolve and demand accounting of a request and no
    /// transfer.
    Resolve(NodeId, DatasetId),
    /// Every CDN client reports its availability estimate to the
    /// allocation server.
    Telemetry,
    /// Advance the clock by this many milliseconds, sample every client's
    /// liveness and record an availability sample.
    Tick(u64),
    /// [`Scdn::request`].
    Request(NodeId, DatasetId),
    /// [`Scdn::apply_graph_delta`].
    Delta(GraphDelta),
    /// [`Scdn::maintain`].
    Maintain,
    /// [`Scdn::repair`].
    Repair,
    /// [`Scdn::depart`].
    Depart(NodeId),
}

impl Op {
    /// An [`Op::Publish`] of public `content` from `node` under the
    /// default policy.
    pub fn publish(node: NodeId, name: &str, content: Bytes) -> Op {
        Op::Publish {
            node,
            name: name.to_string(),
            content,
            sensitivity: Sensitivity::Public,
            policy: None,
        }
    }
}

/// What the call an [`Op`] made returned.
#[derive(Debug)]
pub enum OpOutcome {
    /// The published dataset's id.
    Published(Result<DatasetId, ScdnError>),
    /// The nodes that now host new replicas or coded blocks.
    Replicated(Result<Vec<NodeId>, ScdnError>),
    /// The replica a resolve picked.
    Resolved(Result<NodeId, ScdnError>),
    /// Telemetry returns nothing.
    Reported,
    /// A tick returns nothing.
    Ticked,
    /// A request's result.
    Requested(Result<RequestOutcome, ScdnError>),
    /// The delta's statistics.
    Delta(Result<GraphDeltaStats, ScdnError>),
    /// Replica changes made by a maintenance or repair cycle.
    Changes(usize),
    /// The datasets that lost a replica to the departure.
    Departed(Result<Vec<DatasetId>, ScdnError>),
}

impl OpOutcome {
    /// The error the op returned, if any. Telemetry, ticks, maintenance
    /// and repair never fail.
    pub fn error(&self) -> Option<&ScdnError> {
        match self {
            OpOutcome::Published(r) => r.as_ref().err(),
            OpOutcome::Replicated(r) => r.as_ref().err(),
            OpOutcome::Resolved(r) => r.as_ref().err(),
            OpOutcome::Requested(r) => r.as_ref().err(),
            OpOutcome::Delta(r) => r.as_ref().err(),
            OpOutcome::Departed(r) => r.as_ref().err(),
            OpOutcome::Reported | OpOutcome::Ticked | OpOutcome::Changes(_) => None,
        }
    }

    /// What an [`Op::Publish`] returned; panics on any other outcome.
    pub fn published(self) -> Result<DatasetId, ScdnError> {
        match self {
            OpOutcome::Published(r) => r,
            other => other.mismatch("Publish"),
        }
    }

    /// What an [`Op::Replicate`] returned; panics on any other outcome.
    pub fn replicated(self) -> Result<Vec<NodeId>, ScdnError> {
        match self {
            OpOutcome::Replicated(r) => r,
            other => other.mismatch("Replicate"),
        }
    }

    /// What an [`Op::Resolve`] returned; panics on any other outcome.
    pub fn resolved(self) -> Result<NodeId, ScdnError> {
        match self {
            OpOutcome::Resolved(r) => r,
            other => other.mismatch("Resolve"),
        }
    }

    /// What an [`Op::Request`] returned; panics on any other outcome.
    pub fn requested(self) -> Result<RequestOutcome, ScdnError> {
        match self {
            OpOutcome::Requested(r) => r,
            other => other.mismatch("Request"),
        }
    }

    /// What an [`Op::Depart`] returned; panics on any other outcome.
    pub fn departed(self) -> Result<Vec<DatasetId>, ScdnError> {
        match self {
            OpOutcome::Departed(r) => r,
            other => other.mismatch("Depart"),
        }
    }

    /// The change count of an [`Op::Maintain`] or [`Op::Repair`]; panics
    /// on any other outcome.
    pub fn changes(self) -> usize {
        match self {
            OpOutcome::Changes(n) => n,
            other => other.mismatch("Maintain or Op::Repair"),
        }
    }

    fn mismatch(&self, op: &str) -> ! {
        panic!("not the outcome of an Op::{op}: {self:?}")
    }
}

impl Scdn {
    /// Make the call `op` names: the one way to change an `Scdn` from
    /// outside the runtime.
    pub fn apply(&mut self, op: &Op) -> OpOutcome {
        match op {
            Op::Publish {
                node,
                name,
                content,
                sensitivity,
                policy,
            } => OpOutcome::Published(self.publish(
                *node,
                name,
                content.clone(),
                *sensitivity,
                policy.clone(),
            )),
            Op::Replicate(dataset) => OpOutcome::Replicated(self.replicate(*dataset)),
            Op::Resolve(node, dataset) => {
                OpOutcome::Resolved(self.resolve_replica(*node, *dataset))
            }
            Op::Telemetry => {
                self.report_telemetry();
                OpOutcome::Reported
            }
            Op::Tick(ms) => {
                self.tick(*ms);
                OpOutcome::Ticked
            }
            Op::Request(node, dataset) => OpOutcome::Requested(self.request(*node, *dataset)),
            Op::Delta(delta) => OpOutcome::Delta(self.apply_graph_delta(delta)),
            Op::Maintain => OpOutcome::Changes(self.maintain()),
            Op::Repair => OpOutcome::Changes(self.repair()),
            Op::Depart(node) => OpOutcome::Departed(self.depart(*node)),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over little-endian `u64` words, folded per operation:
///
/// * an `Err` (of any op but a departure): each byte of its `Display`
///   text;
/// * a publish: the dataset id;
/// * a replicate: the count of new hosts, then each host's id;
/// * a resolve: the picked replica's id;
/// * an `Ok` request: `served_by`, `social_hit`, the bits of
///   `response_ms`, `bytes`;
/// * a delta: `nodes_touched`;
/// * maintain and repair: the change count;
/// * a departure, refused or not: the departing node's id;
/// * telemetry and a tick: nothing.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Fold one operation's outcome.
    pub fn fold(&mut self, op: &Op, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Published(Ok(id)) => self.word(u64::from(id.0)),
            OpOutcome::Replicated(Ok(hosts)) => {
                self.word(hosts.len() as u64);
                for host in hosts {
                    self.word(u64::from(host.0));
                }
            }
            OpOutcome::Resolved(Ok(node)) => self.word(u64::from(node.0)),
            OpOutcome::Requested(Ok(o)) => {
                self.word(u64::from(o.served_by.0));
                self.word(u64::from(o.social_hit));
                self.word(o.response_ms.to_bits());
                self.word(o.bytes);
            }
            OpOutcome::Delta(Ok(stats)) => self.word(stats.nodes_touched as u64),
            OpOutcome::Changes(n) => self.word(*n as u64),
            OpOutcome::Departed(_) => {
                if let Op::Depart(node) = op {
                    self.word(u64::from(node.0));
                }
            }
            OpOutcome::Published(Err(e))
            | OpOutcome::Replicated(Err(e))
            | OpOutcome::Resolved(Err(e))
            | OpOutcome::Requested(Err(e))
            | OpOutcome::Delta(Err(e)) => self.text(e),
            OpOutcome::Reported | OpOutcome::Ticked => {}
        }
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn text(&mut self, error: &ScdnError) {
        for byte in error.to_string().bytes() {
            self.word(u64::from(byte));
        }
    }
}
