//! One operation stream: every driver turns its schedule into a `Vec<Op>`
//! and folds it through [`Scdn::apply`].
//!
//! A stream states every tick: [`Op::Tick`] is `tick(ms)`, `0` included,
//! and no driver reads the clock to decide one. A request fails exactly
//! when its result is `Err`. [`Digest`] folds the outcomes into the one
//! number two runs of the same stream must agree on.

use scdn_graph::{GraphDelta, NodeId};
use scdn_storage::object::DatasetId;

use crate::system::{GraphDeltaStats, RequestOutcome, Scdn, ScdnError};

/// One call into the runtime.
#[derive(Debug)]
pub enum Op {
    /// [`Scdn::tick`] by this many milliseconds.
    Tick(u64),
    /// [`Scdn::request`].
    Request(NodeId, DatasetId),
    /// [`Scdn::request_batch`].
    Batch(Vec<(NodeId, DatasetId)>),
    /// [`Scdn::apply_graph_delta`].
    Delta(GraphDelta),
    /// [`Scdn::maintain`].
    Maintain,
    /// [`Scdn::repair`].
    Repair,
    /// [`Scdn::depart`].
    Depart(NodeId),
}

/// What the call an [`Op`] made returned.
#[derive(Debug)]
pub enum OpOutcome {
    /// A tick returns nothing.
    Ticked,
    /// One result per request, in order.
    Requests(Vec<Result<RequestOutcome, ScdnError>>),
    /// The delta's statistics.
    Delta(Result<GraphDeltaStats, ScdnError>),
    /// Replica changes made by a maintenance or repair cycle.
    Changes(usize),
    /// The datasets that lost a replica to the departure.
    Departed(Result<Vec<DatasetId>, ScdnError>),
}

impl OpOutcome {
    /// Requests whose result is `Err`.
    pub fn failed(&self) -> usize {
        match self {
            OpOutcome::Requests(results) => results.iter().filter(|r| r.is_err()).count(),
            _ => 0,
        }
    }
}

impl Scdn {
    /// Make the call `op` names.
    pub fn apply(&mut self, op: &Op) -> OpOutcome {
        match op {
            Op::Tick(ms) => {
                self.tick(*ms);
                OpOutcome::Ticked
            }
            Op::Request(node, dataset) => OpOutcome::Requests(vec![self.request(*node, *dataset)]),
            Op::Batch(reqs) => OpOutcome::Requests(self.request_batch(reqs)),
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
/// * an `Ok` request: `served_by`, `social_hit`, the bits of
///   `response_ms`, `bytes`;
/// * an `Err` (request or delta): each byte of its `Display` text;
/// * a delta: `nodes_touched`;
/// * maintain and repair: the change count;
/// * a departure: the departing node's id;
/// * a tick: nothing.
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
            OpOutcome::Ticked => {}
            OpOutcome::Requests(results) => {
                for result in results {
                    match result {
                        Ok(o) => {
                            self.word(u64::from(o.served_by.0));
                            self.word(u64::from(o.social_hit));
                            self.word(o.response_ms.to_bits());
                            self.word(o.bytes);
                        }
                        Err(e) => self.text(e),
                    }
                }
            }
            OpOutcome::Delta(Ok(stats)) => self.word(stats.nodes_touched as u64),
            OpOutcome::Delta(Err(e)) => self.text(e),
            OpOutcome::Changes(n) => self.word(*n as u64),
            OpOutcome::Departed(_) => {
                if let Op::Depart(node) = op {
                    self.word(u64::from(node.0));
                }
            }
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
