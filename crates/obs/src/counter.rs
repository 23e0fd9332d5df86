//! Counters and gauges.
//!
//! A [`Counter`] is a shared `u64` cell and a [`Gauge`] a shared `f64`
//! cell. Handles are cheap `Rc` clones: every clone observes and
//! contributes to the same value, which is how the
//! [`crate::registry::Registry`] hands the *same* counter to many
//! subsystems of one runtime.

use std::cell::Cell;
use std::rc::Rc;

/// Monotonic event counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// A new counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// `true` if this handle and `other` share the same underlying counter.
    pub fn same_as(&self, other: &Counter) -> bool {
        Rc::ptr_eq(&self.value, &other.value)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Last-write-wins scalar gauge holding an `f64`.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
}

impl Gauge {
    /// A new gauge at 0.0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Read the gauge.
    pub fn get(&self) -> f64 {
        self.value.get()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new();
        let d = c.clone();
        c.add(5);
        d.add(7);
        assert_eq!(c.get(), 12);
        assert!(c.same_as(&d));
        assert!(!c.same_as(&Counter::new()));
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        let h = g.clone();
        h.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }
}
