//! # scdn-obs — bounded-memory observability for the SCDN stack
//!
//! This crate replaces the old retain-every-sample `Summary` pattern
//! (`scdn-sim`) with telemetry primitives whose memory footprint is
//! **independent of how many observations they absorb**:
//!
//! - [`Counter`] / [`Gauge`] — event counters and last-write-wins scalar
//!   gauges, each one shared cell.
//! - [`Histogram`] / [`SharedHistogram`] — fixed-bucket log-linear
//!   (HDR-style) histograms: `O(buckets)` memory forever, allocated on the
//!   first record, mergeable, with a documented relative-error bound on
//!   every quantile. The shared handle wraps one plain histogram.
//! - [`TraceCollector`] / [`RequestTrace`] — a bounded ring of structured
//!   request-lifecycle traces, each a span chain
//!   `authenticate → discover → select replica → transfer attempt(s) →
//!   deliver/fail` with per-span timing and outcome.
//! - [`Registry`] / [`Snapshot`] — named metric registration plus frozen
//!   snapshots feeding the [`export`] module's JSON (`scdn-obs/v1`) and
//!   Prometheus-text exporters and schema validator.
//!
//! Handles are cheap `Rc` clones of one runtime's cells: subsystems grab
//! them once at construction and record through `&self`. A registry and
//! its handles belong to one thread, as the runtime that owns them does.

pub mod counter;
pub mod export;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use export::{to_json, to_prometheus, validate, validate_json, SCHEMA};
pub use histogram::{Histogram, HistogramConfig, SharedHistogram};
pub use json::Json;
pub use registry::{Registry, Snapshot};
pub use trace::{RequestTrace, Span, SpanKind, SpanStatus, TraceBuilder, TraceCollector};
