//! Discrete-event simulation kernel: a millisecond clock and a
//! deterministic time-ordered event queue.
//!
//! Ties are broken by insertion sequence so simulations are fully
//! reproducible regardless of payload type.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in milliseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Milliseconds since epoch.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This time advanced by `ms` milliseconds (saturating).
    pub fn plus_millis(self, ms: u64) -> SimTime {
        SimTime(self.0.saturating_add(ms))
    }

    /// Duration since an earlier time (saturating at zero).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[derive(PartialEq, Eq)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in insertion order. Popping
/// advances the queue's notion of "now"; scheduling in the past is clamped
/// to now (a common convenience in event-driven simulators).
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }
}

impl<E: Eq> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at` (clamped to now if earlier).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse(Entry {
            time: at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 1);
        q.schedule(SimTime::from_millis(5), 2);
        q.schedule(SimTime::from_millis(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "x");
        q.pop();
        q.schedule(SimTime::from_millis(1), "late");
        let (t, _) = q.pop().expect("event");
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
        assert_eq!(t.plus_millis(500).as_secs_f64(), 2.5);
        assert_eq!(t.since(SimTime::from_millis(1500)), 500);
        assert_eq!(SimTime::from_millis(1).since(t), 0);
        assert_eq!(format!("{t}"), "2.000s");
    }
}
