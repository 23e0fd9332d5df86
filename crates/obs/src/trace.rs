//! Lightweight structured tracing of a request's lifecycle.
//!
//! Each data request walks a fixed span chain:
//!
//! ```text
//! authenticate → discover → select replica → transfer attempt(s) → deliver | fail
//! ```
//!
//! A [`TraceBuilder`] stamps each span with a start offset (monotone
//! within the trace) and a duration, capping the span count so a single
//! pathological request cannot balloon a trace. Finished traces land in a
//! [`TraceCollector`] ring buffer of fixed capacity — like the metric
//! histograms, tracing memory is bounded no matter how many requests are
//! served; the oldest traces are evicted (and counted) once the ring is
//! full.

use std::collections::VecDeque;

/// Lifecycle stage a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Session authentication and access-policy authorization.
    Authenticate,
    /// Catalog lookup: which replicas exist and which are reachable.
    Discover,
    /// Replica selection (social distance / latency / availability rank).
    SelectReplica,
    /// One network attempt to move one segment.
    TransferAttempt,
    /// Terminal span: the request delivered.
    Deliver,
    /// Terminal span: the request failed.
    Fail,
}

impl SpanKind {
    /// Position in the canonical lifecycle (terminals share the last slot).
    fn rank(self) -> u8 {
        match self {
            SpanKind::Authenticate => 0,
            SpanKind::Discover => 1,
            SpanKind::SelectReplica => 2,
            SpanKind::TransferAttempt => 3,
            SpanKind::Deliver | SpanKind::Fail => 4,
        }
    }

    /// `true` for `Deliver` / `Fail`.
    fn is_terminal(self) -> bool {
        matches!(self, SpanKind::Deliver | SpanKind::Fail)
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// The stage completed normally.
    Ok,
    /// Authentication or authorization rejected the requester.
    Denied,
    /// No online replica could be found.
    NoReplica,
    /// A replica exists but lies outside the social boundary.
    BoundaryBlocked,
    /// Transfer attempt dropped mid-flight.
    Lost,
    /// Transfer attempt delivered corrupted bytes (checksum reject).
    Corrupted,
    /// Any other error (storage, retries exhausted…).
    Error,
}

/// One step of a request's lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which lifecycle stage this is.
    pub kind: SpanKind,
    /// Outcome of the stage.
    pub status: SpanStatus,
    /// Start offset from the trace start, milliseconds.
    pub start_ms: f64,
    /// Duration of the stage, milliseconds.
    pub duration_ms: f64,
    /// Attempt ordinal for `TransferAttempt` spans (1-based), else 0.
    pub attempt: u32,
    /// Peer node involved (replica / transfer source), if any.
    pub peer: Option<u32>,
}

/// A finished request trace: the ordered span chain plus identity.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Collector-assigned id (monotone per collector).
    pub id: u64,
    /// Requesting node index.
    pub requester: u32,
    /// Requested dataset id.
    pub dataset: u32,
    /// The span chain, in lifecycle order.
    pub spans: Vec<Span>,
    /// Spans discarded because the per-trace cap was hit.
    pub dropped_spans: u32,
}

impl RequestTrace {
    /// Terminal span of the chain, if the trace was finished properly.
    pub fn terminal(&self) -> Option<&Span> {
        self.spans.last().filter(|s| s.kind.is_terminal())
    }

    /// `true` if the request delivered.
    pub fn delivered(&self) -> bool {
        self.terminal()
            .map(|s| s.kind == SpanKind::Deliver)
            .unwrap_or(false)
    }

    /// Validate the span chain: starts with `Authenticate`, stage ranks
    /// never regress, start offsets are non-decreasing, exactly one
    /// terminal span, and it is last.
    pub fn is_well_formed(&self) -> bool {
        let Some(first) = self.spans.first() else {
            return false;
        };
        if first.kind != SpanKind::Authenticate {
            return false;
        }
        let mut prev_rank = 0u8;
        let mut prev_start = 0.0f64;
        let mut terminals = 0usize;
        for s in &self.spans {
            if s.kind.rank() < prev_rank || s.start_ms < prev_start {
                return false;
            }
            if !s.duration_ms.is_finite() || s.duration_ms < 0.0 {
                return false;
            }
            prev_rank = s.kind.rank();
            prev_start = s.start_ms;
            terminals += usize::from(s.kind.is_terminal());
        }
        terminals == 1
            && self
                .spans
                .last()
                .map(|s| s.kind.is_terminal())
                .unwrap_or(false)
    }
}

/// Builds one trace, stamping monotone start offsets and enforcing the
/// span cap. Terminal spans always fit: the cap applies to interior spans.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: RequestTrace,
    cursor_ms: f64,
    span_cap: usize,
}

impl TraceBuilder {
    /// Start a trace (normally obtained via [`TraceCollector::begin`]).
    pub fn new(id: u64, requester: u32, dataset: u32, span_cap: usize) -> TraceBuilder {
        TraceBuilder {
            trace: RequestTrace {
                id,
                requester,
                dataset,
                spans: Vec::new(),
                dropped_spans: 0,
            },
            cursor_ms: 0.0,
            span_cap: span_cap.max(2),
        }
    }

    /// Append a lifecycle span of `duration_ms`, advancing the cursor.
    pub fn span(&mut self, kind: SpanKind, status: SpanStatus, duration_ms: f64) {
        self.push(Span {
            kind,
            status,
            start_ms: self.cursor_ms,
            duration_ms,
            attempt: 0,
            peer: None,
        });
    }

    /// Append a span tagged with the peer node it involved.
    pub fn span_with_peer(
        &mut self,
        kind: SpanKind,
        status: SpanStatus,
        duration_ms: f64,
        peer: u32,
    ) {
        self.push(Span {
            kind,
            status,
            start_ms: self.cursor_ms,
            duration_ms,
            attempt: 0,
            peer: Some(peer),
        });
    }

    /// Append a transfer-attempt span.
    pub fn attempt(&mut self, status: SpanStatus, duration_ms: f64, attempt: u32, peer: u32) {
        self.push(Span {
            kind: SpanKind::TransferAttempt,
            status,
            start_ms: self.cursor_ms,
            duration_ms,
            attempt,
            peer: Some(peer),
        });
    }

    fn push(&mut self, span: Span) {
        let duration = if span.duration_ms.is_finite() {
            span.duration_ms.max(0.0)
        } else {
            0.0
        };
        // Interior spans beyond the cap are dropped (counted); time still
        // advances so later spans keep honest offsets.
        if span.kind.is_terminal() || self.trace.spans.len() + 1 < self.span_cap {
            self.trace.spans.push(Span {
                duration_ms: duration,
                ..span
            });
        } else {
            self.trace.dropped_spans += 1;
        }
        self.cursor_ms += duration;
    }

    /// Close the trace with a terminal span and return it for recording.
    pub fn finish(mut self, kind: SpanKind, status: SpanStatus) -> RequestTrace {
        debug_assert!(kind.is_terminal(), "finish takes Deliver or Fail");
        self.span(kind, status, 0.0);
        self.trace
    }
}

/// Fixed-capacity ring of recent request traces plus lifetime totals.
#[derive(Debug)]
pub struct TraceCollector {
    ring: VecDeque<RequestTrace>,
    capacity: usize,
    span_cap: usize,
    next_id: u64,
    recorded: u64,
    evicted: u64,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new(1024, 64)
    }
}

impl TraceCollector {
    /// Collector retaining at most `capacity` traces of at most `span_cap`
    /// spans each.
    pub fn new(capacity: usize, span_cap: usize) -> TraceCollector {
        TraceCollector {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            span_cap,
            next_id: 0,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Begin a new trace with a fresh id.
    pub fn begin(&mut self, requester: u32, dataset: u32) -> TraceBuilder {
        let id = self.next_id;
        self.next_id += 1;
        TraceBuilder::new(id, requester, dataset, self.span_cap)
    }

    /// Record a finished trace, evicting the oldest when full.
    pub fn record(&mut self, trace: RequestTrace) {
        self.recorded += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(trace);
    }

    /// Retained traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &RequestTrace> {
        self.ring.iter()
    }

    /// Number of retained traces (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces recorded over the collector's lifetime.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Traces evicted from the ring over the collector's lifetime.
    pub fn total_evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered_trace(col: &mut TraceCollector) -> RequestTrace {
        let mut tb = col.begin(1, 2);
        tb.span(SpanKind::Authenticate, SpanStatus::Ok, 0.1);
        tb.span(SpanKind::Discover, SpanStatus::Ok, 0.2);
        tb.span_with_peer(SpanKind::SelectReplica, SpanStatus::Ok, 0.0, 5);
        tb.attempt(SpanStatus::Lost, 4.0, 1, 5);
        tb.attempt(SpanStatus::Ok, 8.0, 2, 5);
        tb.finish(SpanKind::Deliver, SpanStatus::Ok)
    }

    #[test]
    fn well_formed_chain() {
        let mut col = TraceCollector::default();
        let t = delivered_trace(&mut col);
        assert!(t.is_well_formed());
        assert!(t.delivered());
        assert_eq!(t.spans.len(), 6);
        // Start offsets accumulate durations.
        assert!((t.spans[3].start_ms - 0.3).abs() < 1e-9);
        assert!((t.spans[5].start_ms - 12.3).abs() < 1e-9);
    }

    #[test]
    fn malformed_chains_detected() {
        let mut col = TraceCollector::default();
        // Missing terminal.
        let mut tb = col.begin(0, 0);
        tb.span(SpanKind::Authenticate, SpanStatus::Ok, 0.0);
        assert!(!tb.trace.is_well_formed(), "no terminal span yet");
        // Doesn't start with Authenticate.
        let mut tb = col.begin(0, 0);
        tb.span(SpanKind::Discover, SpanStatus::Ok, 0.0);
        let t = tb.finish(SpanKind::Deliver, SpanStatus::Ok);
        assert!(!t.is_well_formed());
        // Stage regression (attempt after terminal is impossible via the
        // builder, so construct by hand).
        let mut t = delivered_trace(&mut col);
        t.spans.swap(1, 3);
        assert!(!t.is_well_formed());
    }

    #[test]
    fn span_cap_drops_interior_but_keeps_terminal() {
        let mut col = TraceCollector::new(8, 4);
        let mut tb = col.begin(0, 0);
        tb.span(SpanKind::Authenticate, SpanStatus::Ok, 0.0);
        tb.span(SpanKind::Discover, SpanStatus::Ok, 0.0);
        for a in 1..=10 {
            tb.attempt(SpanStatus::Ok, 1.0, a, 3);
        }
        let t = tb.finish(SpanKind::Deliver, SpanStatus::Ok);
        assert!(t.is_well_formed(), "capped trace still well-formed");
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.dropped_spans, 9);
        // Cursor kept advancing through dropped spans.
        assert!((t.terminal().unwrap().start_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut col = TraceCollector::new(3, 16);
        for _ in 0..10 {
            let t = delivered_trace(&mut col);
            col.record(t);
        }
        assert_eq!(col.len(), 3);
        assert_eq!(col.total_recorded(), 10);
        assert_eq!(col.total_evicted(), 7);
        // Oldest evicted: retained ids are the last three begun.
        let ids: Vec<u64> = col.recent().map(|t| t.id).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }
}
