//! Ext-B in DESIGN.md: the Section V-E metrics table, plus machine-readable
//! telemetry export.
//!
//! Default mode runs the full S-CDN system end to end (publish → replicate →
//! churn + Zipf request workload → maintenance) on the number-of-authors
//! trust subgraph and reports every metric Section V-E proposes, for an
//! always-on fabric and for two churn regimes.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin metrics_report            # V-E table
//! cargo run -p scdn-bench --release --bin metrics_report -- --json  # scdn-obs/v1 JSON
//! cargo run -p scdn-bench --release --bin metrics_report -- --check # validate export
//! ```
//!
//! `--json` runs a small scenario and prints the full observability
//! snapshot (counters, gauges, bounded histograms) as an `scdn-obs/v1`
//! JSON document. `--check` does the same run, then validates both the
//! in-memory snapshot and the JSON round-trip — any NaN, negative counter,
//! mis-ordered quantile, resolve miss that reported no search work
//! (`alloc.resolve.bfs.visited`), bound miss outnumbering misses, missing
//! `alloc.resolve.bfs.targets_beyond_bound`, or ranking-cache miss that
//! left no recompute time (`core.maintain.ranking_recompute_ms`) exits non-zero.
//! CI uses `--check` as a schema gate.

use std::process::ExitCode;

use scdn_core::scenario::{run, ScenarioConfig, ScenarioReport};
use scdn_core::system::AvailabilityConfig;
use scdn_obs::{to_json, validate, validate_json};

/// A scenario small enough to finish in a few seconds yet exercising every
/// subsystem (auth, discovery, selection, transfers, caching, maintenance).
fn small_scenario() -> ScenarioReport {
    let mut cfg = ScenarioConfig::default();
    cfg.corpus.level2_prob = 0.4;
    cfg.corpus.level3_prob = 0.0;
    cfg.corpus.mega_pub_authors = 0;
    cfg.datasets = 5;
    cfg.requests = 200;
    cfg.dataset_bytes = 8 << 10;
    cfg.scdn.segment_size = 4 << 10;
    cfg.scdn.availability = AvailabilityConfig::Periodic {
        period_ms: 30_000,
        duty: 0.8,
    };
    run(&cfg)
}

/// `--json`: emit the scdn-obs/v1 snapshot of a small scenario run.
fn emit_json() -> ExitCode {
    let report = small_scenario();
    println!("{}", to_json(&report.scdn.observability_snapshot()));
    ExitCode::SUCCESS
}

/// `--check`: validate the snapshot and its JSON serialisation; exit
/// non-zero (with one line per violation) if anything is NaN, negative,
/// or structurally off-schema.
fn check() -> ExitCode {
    let report = small_scenario();
    let snap = report.scdn.observability_snapshot();
    let mut violations = Vec::new();
    if let Err(errs) = validate(&snap) {
        violations.extend(errs.into_iter().map(|e| format!("snapshot: {e}")));
    }
    let text = to_json(&snap);
    if let Err(errs) = validate_json(&text) {
        violations.extend(errs.into_iter().map(|e| format!("json: {e}")));
    }
    if snap.counters.is_empty() || snap.histograms.is_empty() {
        violations.push("snapshot: expected non-empty counters and histograms".into());
    }
    // Every hop-cache miss runs one search, and a search visits at least
    // the requester: a smaller count means a miss path stopped reporting.
    let misses = snap.counter("alloc.resolve.cache.miss").unwrap_or(0);
    match snap.counter("alloc.resolve.bfs.visited") {
        Some(visited) if misses > 0 && visited >= misses => {}
        other => violations.push(format!(
            "snapshot: alloc.resolve.bfs.visited is {other:?} after {misses} resolve misses"
        )),
    }
    // A bound miss is one kind of miss.
    let bound_misses = snap.counter("alloc.resolve.cache.bound_miss");
    if bound_misses.is_none_or(|b| b > misses) {
        violations.push(format!(
            "snapshot: alloc.resolve.cache.bound_miss is {bound_misses:?} after {misses} \
             resolve misses"
        ));
    }
    if snap
        .counter("alloc.resolve.bfs.targets_beyond_bound")
        .is_none()
    {
        violations.push("snapshot: alloc.resolve.bfs.targets_beyond_bound is missing".into());
    }
    // Every ranking-cache miss is a full placement recompute and must
    // leave its wall time behind.
    let ranking_misses = snap
        .counter("core.maintain.ranking_cache_miss")
        .unwrap_or(0);
    let timed = snap
        .histogram("core.maintain.ranking_recompute_ms")
        .map_or(0, |h| h.count());
    if timed != ranking_misses {
        violations.push(format!(
            "snapshot: core.maintain.ranking_recompute_ms holds {timed} samples after \
             {ranking_misses} ranking-cache misses"
        ));
    }
    if violations.is_empty() {
        println!(
            "metrics export OK: {} counters, {} gauges, {} histograms ({} bytes of JSON)",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len(),
            text.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("metrics export FAILED validation:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

/// Default: the human-readable Section V-E table across churn regimes.
fn table() {
    println!("Section V-E metrics under three availability regimes");
    println!();
    let regimes = [
        ("always-on", AvailabilityConfig::AlwaysOn),
        (
            "duty 0.75",
            AvailabilityConfig::Periodic {
                period_ms: 60_000,
                duty: 0.75,
            },
        ),
        (
            "duty 0.40",
            AvailabilityConfig::Periodic {
                period_ms: 60_000,
                duty: 0.40,
            },
        ),
    ];
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "metric", regimes[0].0, regimes[1].0, regimes[2].0
    );
    let reports: Vec<_> = regimes
        .iter()
        .map(|(_, availability)| {
            let mut cfg = ScenarioConfig::default();
            cfg.scdn.availability = *availability;
            cfg.requests = 2_000;
            cfg.datasets = 30;
            run(&cfg)
        })
        .collect();
    let metric =
        |label: &str, f: &dyn Fn(&scdn_core::scenario::ScenarioReport) -> f64, unit: &str| {
            print!("{label:<34}");
            for r in &reports {
                print!(" {:>11.2}{unit}", f(r));
            }
            println!();
        };
    println!("--- CDN quality -------------------------------------------------------");
    metric(
        "requests served",
        &|r| (r.scdn.cdn_metrics.hits + r.scdn.cdn_metrics.misses) as f64,
        " ",
    );
    metric("social hit rate", &|r| r.scdn.cdn_metrics.hit_rate(), "%");
    metric(
        "failure rate",
        &|r| 100.0 * r.scdn.cdn_metrics.failure_rate(),
        "%",
    );
    metric(
        "response time mean",
        &|r| r.scdn.cdn_metrics.response_time_ms.mean(),
        "ms",
    );
    metric(
        "response time p95",
        &|r| r.scdn.cdn_metrics.response_time_ms.quantile(0.95),
        "ms",
    );
    metric(
        "fabric availability",
        &|r| 100.0 * r.scdn.cdn_metrics.availability_samples.mean(),
        "%",
    );
    metric(
        "mean redundancy (replicas)",
        &|r| r.scdn.cdn_metrics.redundancy.mean(),
        " ",
    );
    metric(
        "bytes transferred (MB)",
        &|r| r.scdn.cdn_metrics.bytes_transferred as f64 / 1e6,
        " ",
    );
    println!("--- social collaboration ----------------------------------------------");
    metric(
        "request acceptance rate",
        &|r| r.scdn.social_metrics.acceptance_rate(),
        "%",
    );
    metric(
        "immediacy of allocation",
        &|r| r.scdn.social_metrics.immediacy_ms.mean(),
        "ms",
    );
    metric(
        "exchanges (ok)",
        &|r| r.scdn.social_metrics.exchanges_ok as f64,
        " ",
    );
    metric(
        "exchange success ratio",
        &|r| {
            let v = r.scdn.social_metrics.exchange_success_ratio();
            if v.is_finite() {
                v
            } else {
                -1.0 // ∞ (no failures)
            }
        },
        " ",
    );
    metric(
        "freerider ratio (t=0.1)",
        &|r| 100.0 * r.scdn.social_metrics.freerider_ratio(0.1),
        "%",
    );
    metric(
        "allocated/contributed",
        &|r| 100.0 * r.scdn.social_metrics.allocation_ratio(),
        "%",
    );
    metric(
        "geographic scarcity",
        &|r| r.scdn.social_metrics.geographic_scarcity(),
        " ",
    );
    metric(
        "transaction volume (MB)",
        &|r| r.scdn.social_metrics.transaction_volume() as f64 / 1e6,
        " ",
    );
    println!();
    println!("(exchange success ratio of -1.00 denotes ∞: no failed exchanges)");
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        Some("--json") => emit_json(),
        Some("--check") => check(),
        Some(other) => {
            eprintln!("unknown flag {other:?}; use --json, --check, or no flag");
            ExitCode::FAILURE
        }
        None => {
            table();
            ExitCode::SUCCESS
        }
    }
}
