//! # scdn-sim — simulation substrate
//!
//! The simulation clock plus the models the S-CDN evaluation needs:
//!
//! * [`engine`] — the millisecond simulation clock;
//! * [`availability`] — node uptime/churn models (always-on, fractional,
//!   diurnal, trace-driven) and the availability-overlap graphs used by
//!   My3-style replica selection (Section V-D of the paper);
//! * [`workload`] — request workload generation (Zipf popularity, Poisson
//!   arrivals) without external distribution crates;
//! * [`metrics`] — collectors for the paper's Section V-E metrics: CDN
//!   quality (availability, response time, redundancy) and social
//!   collaboration metrics (acceptance rate, immediacy, freerider ratio,
//!   resource abundance, geographic scarcity).

pub mod availability;
pub mod engine;
pub mod metrics;
pub mod workload;

pub use engine::SimTime;
