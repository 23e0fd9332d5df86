//! The metric registry: one named home for every counter, gauge, and
//! histogram a runtime records, and the single source every exporter
//! reads from.
//!
//! Handles returned by [`Registry::counter`] / [`Registry::gauge`] /
//! [`Registry::histogram`] are cheap clones of shared cells: a subsystem
//! grabs its handles once (at construction) and records through them
//! without going back to the registry, which is read again only at
//! snapshot time.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramConfig, SharedHistogram};

/// A runtime's metric registry, owned by that runtime.
#[derive(Default)]
pub struct Registry {
    counters: RefCell<BTreeMap<String, Counter>>,
    gauges: RefCell<BTreeMap<String, Gauge>>,
    histograms: RefCell<BTreeMap<String, SharedHistogram>>,
}

/// The handle named `name` in `map`, created by `make` if absent.
fn get_or_create<H: Clone>(
    map: &RefCell<BTreeMap<String, H>>,
    name: &str,
    make: impl FnOnce() -> H,
) -> H {
    let mut map = map.borrow_mut();
    if let Some(h) = map.get(name) {
        return h.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// Get or create the histogram named `name` with the default shape.
    pub fn histogram(&self, name: &str) -> SharedHistogram {
        self.histogram_with(name, HistogramConfig::default())
    }

    /// Get or create the histogram named `name`; `config` applies only on
    /// first creation.
    pub fn histogram_with(&self, name: &str, config: HistogramConfig) -> SharedHistogram {
        get_or_create(&self.histograms, name, || SharedHistogram::new(config))
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, c) in self.counters.borrow().iter() {
            snap.counters.push((name.clone(), c.get()));
        }
        for (name, g) in self.gauges.borrow().iter() {
            snap.gauges.push((name.clone(), g.get()));
        }
        for (name, h) in self.histograms.borrow().iter() {
            snap.histograms.push((name.clone(), h.snapshot()));
        }
        snap
    }
}

/// A frozen view of a metric set: what exporters serialize and the
/// schema validator checks. Entries stay sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, total)` pairs.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs.
    pub histograms: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Empty snapshot (for hand-assembled metric sets).
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Add a counter value under `name`.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Add a gauge value under `name`.
    pub fn add_gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Add a histogram under `name`.
    pub fn add_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.push((name.to_string(), h));
    }

    /// Restore name ordering after manual additions.
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter("x.events").get(), 5);
        assert!(a.same_as(&b));
    }

    #[test]
    fn snapshot_collects_sorted() {
        let reg = Registry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(4);
        reg.gauge("z.level").set(0.5);
        reg.histogram("lat.ms").record(12.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.count", "b.count"]);
        assert_eq!(snap.counter("a.count"), Some(4));
        assert_eq!(snap.gauge("z.level"), Some(0.5));
        assert_eq!(snap.histogram("lat.ms").unwrap().count(), 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn handles_record_after_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let s1 = reg.snapshot();
        c.inc();
        let s2 = reg.snapshot();
        assert_eq!(s1.counter("n"), Some(0));
        assert_eq!(s2.counter("n"), Some(1));
    }
}
