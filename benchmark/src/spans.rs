//! Outside-in spans: one per top-level call into the system, recorded
//! from the benchmark's own files (in-crate spans are a later change).
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! *self time* is its duration minus the part of that interval its
//! direct children cover — for the per-epoch root span that is exactly
//! the harness's own time between calls (`harness.generator_share`).

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the span that caused this one; spans of one
/// operation share `op_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. A disabled recorder still hands out clock
/// readings (the untraced run needs per-call wall times too) but stores
/// nothing, so the traced-vs-untraced difference is the cost of
/// recording itself.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that stores spans iff `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Store a finished span; returns its index (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u32,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserve a slot for a span that ends later (a root whose children
    /// are recorded before it closes); close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op_id: u32) -> u32 {
        let now = self.now_ns();
        self.record(name, now, now, None, op_id)
    }

    /// Set the end of a span opened with [`Recorder::open`].
    pub fn close(&mut self, index: u32) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(index as usize) {
            s.end_ns = now;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the parent, overlaps counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans as a JSON array (hand-rolled: the workspace has no
/// serde_json).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.op_id,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}
