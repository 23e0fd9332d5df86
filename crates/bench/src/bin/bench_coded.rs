//! Erasure-coding reporter: coded any-k-of-n blocks vs full replication
//! under heavy node departure, at equal durability.
//!
//! Hosts a full S-CDN on a Barabási–Albert social graph twice with the
//! same membership, topology, and demand schedule:
//!
//! * `plain` — `CodingConfig::None` with `replicas_per_dataset = m + 1`
//!   full copies, so a dataset survives any `m` host losses;
//! * `coded` — `CodingConfig::Rs { k, m }`: `n = k + m` systematic
//!   Reed–Solomon blocks of `ceil(S / k)` bytes, one per host, so the
//!   dataset likewise survives any `m` block-host losses (any `k`
//!   blocks reconstruct).
//!
//! Each epoch departs one current non-owner host per dataset (owners
//! never leave, so repair always has the cheap owner-alive path
//! available in both modes), runs a repair cycle, and records the
//! maintenance bytes the cycle moved. Between epochs a batch of fresh
//! requesters fetches datasets — single-source segment streams in plain
//! mode (`request`), multi-donor any-k block races in coded mode
//! (`request_coded`) — and per-request response times feed the latency
//! quantiles.
//!
//! Three gates make the numbers trustworthy:
//!
//! * **identical-outcome gate** — each mode is run through both the
//!   serial repair oracle (`repair_serial`) and the plan/commit pipeline
//!   (`repair`); per-epoch change counts, final replica sets and coded
//!   block inventories, catalog-entry versions, the simulated clock, and
//!   metric snapshots must match exactly. The plain run doubles as the
//!   "uncoded config is bit-identical to today" regression.
//! * **repair-bytes gate** — the coded run's total repair traffic must
//!   be strictly below the plain run's full re-replication traffic
//!   (missing blocks cost `S / k` bytes each instead of `S`).
//! * **fetch-latency gate** — the coded any-k race's p99 response time
//!   must not exceed the single-source fetch's p99.
//!
//! Results go to `BENCH_coded.json` (hand-rolled JSON; the workspace has
//! no serde_json). `--smoke` runs a small instance for CI and writes
//! `target/BENCH_coded_smoke.json`.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin bench_coded             # full run
//! cargo run -p scdn-bench --release --bin bench_coded -- --smoke  # CI gate
//! ```

use std::collections::BTreeSet;
use std::process::ExitCode;

use bytes::Bytes;
use scdn_core::system::{Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::NodeId;
use scdn_social::author::{Author, AuthorId, Institution, InstitutionId, Region};
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{TrustFilter, TrustSubgraph};
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::{DatasetId, Sensitivity};

/// A dozen research sites spread over the paper's "different regions of
/// the world", so topology latencies are non-trivial.
const SITES: [(&str, Region, f64, f64); 12] = [
    ("Ann Arbor", Region::NorthAmerica, 42.28, -83.74),
    ("Chicago", Region::NorthAmerica, 41.88, -87.63),
    ("San Diego", Region::NorthAmerica, 32.72, -117.16),
    ("Vancouver", Region::NorthAmerica, 49.26, -123.11),
    ("Sao Paulo", Region::SouthAmerica, -23.55, -46.63),
    ("Amsterdam", Region::Europe, 52.37, 4.90),
    ("Geneva", Region::Europe, 46.20, 6.14),
    ("Warsaw", Region::Europe, 52.23, 21.01),
    ("Tokyo", Region::Asia, 35.68, 139.69),
    ("Singapore", Region::Asia, 1.35, 103.82),
    ("Cape Town", Region::Africa, -33.92, 18.42),
    ("Melbourne", Region::Oceania, -37.81, 144.96),
];

/// One benchmark scenario: a synthetic membership plus a deterministic
/// departure / repair / fetch schedule.
struct Workload {
    name: &'static str,
    nodes: usize,
    graph_seed: u64,
    datasets: u32,
    dataset_bytes: usize,
    segment_size: usize,
    /// Reed–Solomon data blocks (coded mode); the plain mode keeps
    /// `m + 1` full copies for the same `m`-loss durability.
    k: u8,
    /// Parity blocks / extra full copies.
    m: u8,
    /// Departure + repair epochs.
    epochs: usize,
    /// Requests issued after each epoch's repair.
    fetches_per_epoch: usize,
}

impl Workload {
    fn block_bytes(&self) -> usize {
        self.dataset_bytes.div_ceil(self.k as usize)
    }

    fn owner_of(&self, d: u32) -> NodeId {
        NodeId(d.wrapping_mul(37) % self.nodes as u32)
    }

    /// A fresh, fully built system with every dataset published and
    /// replicated. Bit-identical across calls with the same `coded`.
    fn build(&self, coded: bool) -> (Scdn, Vec<DatasetId>) {
        let graph = barabasi_albert(self.nodes, 3, self.graph_seed);
        let authors: Vec<AuthorId> = (0..self.nodes as u32).map(AuthorId).collect();
        let institutions: Vec<Institution> = SITES
            .iter()
            .enumerate()
            .map(|(i, &(name, region, lat, lon))| Institution {
                id: InstitutionId(i as u32),
                name: name.to_string(),
                region,
                lat,
                lon,
            })
            .collect();
        let members: Vec<Author> = authors
            .iter()
            .map(|&a| Author {
                id: a,
                name: format!("member-{}", a.0),
                institution: InstitutionId(a.0 % SITES.len() as u32),
            })
            .collect();
        let corpus = Corpus::new(members, institutions, Vec::new()).expect("dense ids");
        let sub = TrustSubgraph::from_parts(TrustFilter::Baseline, graph, authors);
        let config = ScdnConfig {
            segment_size: self.segment_size,
            repo_capacity: 64 << 20,
            // Equal durability: m extra full copies beside the owner's,
            // matching the m parity blocks of the coded run.
            replicas_per_dataset: self.m as usize + 1,
            transfer_concurrency: 2,
            coding: if coded {
                CodingConfig::Rs {
                    k: self.k,
                    m: self.m,
                }
            } else {
                CodingConfig::None
            },
            ..Default::default()
        };
        let mut scdn = Scdn::build(&sub, &corpus, config);
        let mut datasets = Vec::with_capacity(self.datasets as usize);
        for d in 0..self.datasets {
            let id = scdn
                .publish(
                    self.owner_of(d),
                    &format!("coded-{d:03}"),
                    Bytes::from(vec![d as u8; self.dataset_bytes]),
                    Sensitivity::Public,
                    None,
                )
                .expect("publish succeeds");
            scdn.replicate(id).expect("replication succeeds");
            datasets.push(id);
        }
        (scdn, datasets)
    }
}

/// Per-dataset catalog comparable: replica set, catalog version, and
/// coded block inventory.
type CatalogEntry = (Vec<NodeId>, Option<u64>, Vec<(NodeId, Vec<u32>)>);

/// Everything one mode run produces: the report inputs plus the
/// comparables the identical-outcome gate checks across executions.
struct ModeOutcome {
    /// Per-epoch repair change counts.
    changes: Vec<usize>,
    /// Distinct hosts departed over the whole run.
    departures: usize,
    /// Maintenance bytes moved by the repair cycles.
    repair_bytes: u64,
    /// Per-request response times, ms.
    latencies: Vec<f64>,
    fetch_failures: usize,
    catalog: Vec<CatalogEntry>,
    snapshot: String,
    sim_clock_ms: u64,
}

impl ModeOutcome {
    fn latency_quantile(&self, q: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    fn latency_mean(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        }
    }
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and pipelined execution.
fn comparable_snapshot(scdn: &Scdn) -> String {
    scdn_obs::to_json(&scdn.observability_snapshot())
        .lines()
        .filter(|l| {
            !l.contains("alloc.resolve.cache.")
                && !l.contains("alloc.resolve.bfs.")
                && !l.contains("core.batch.")
                && !l.contains("core.maintain.")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Catalog state: replica set, version token, and coded block inventory
/// per dataset.
fn catalog_state(scdn: &Scdn, datasets: &[DatasetId]) -> Vec<CatalogEntry> {
    datasets
        .iter()
        .map(|&d| {
            let inventory: Vec<(NodeId, Vec<u32>)> = scdn
                .allocation()
                .coded_inventory(d)
                .unwrap_or_default()
                .into_iter()
                .map(|(n, blocks)| (n, blocks.as_ref().clone()))
                .collect();
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
                inventory,
            )
        })
        .collect()
}

/// Drive the departure / repair / fetch schedule. `serial` selects the
/// oracle repair loop, otherwise the plan/commit pipeline.
fn run_mode(w: &Workload, coded: bool, serial: bool) -> ModeOutcome {
    let (mut scdn, datasets) = w.build(coded);
    let owners: BTreeSet<NodeId> = (0..w.datasets).map(|d| w.owner_of(d)).collect();
    let mut gone: BTreeSet<NodeId> = BTreeSet::new();
    let mut changes = Vec::with_capacity(w.epochs);
    let mut repair_bytes = 0u64;
    let mut latencies = Vec::new();
    let mut fetch_failures = 0usize;
    // Fresh requester per fetch so quota and pre-existing copies never
    // skew the latency samples; owners and departed hosts are skipped.
    let mut requester = 0u32;
    for epoch in 0..w.epochs {
        // Heavy departure: one current non-owner host per dataset (block
        // host in coded mode, replica host in plain mode). The same node
        // may serve several datasets, so the departing set is deduped.
        let mut victims: BTreeSet<NodeId> = BTreeSet::new();
        for &d in &datasets {
            let hosts: Vec<NodeId> = if coded {
                scdn.allocation()
                    .coded_inventory(d)
                    .expect("known dataset")
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect()
            } else {
                scdn.replicas_of(d).expect("known dataset")
            };
            if let Some(&victim) = hosts
                .iter()
                .find(|h| !owners.contains(h) && !gone.contains(h))
            {
                victims.insert(victim);
            }
        }
        for &v in &victims {
            let _ = scdn.depart(v);
            gone.insert(v);
        }
        scdn.tick(1_000);
        let bytes0 = scdn.cdn_metrics.bytes_transferred;
        changes.push(if serial {
            scdn.repair_serial()
        } else {
            scdn.repair()
        });
        repair_bytes += scdn.cdn_metrics.bytes_transferred - bytes0;
        // Fetch phase: every dataset gets an equal share of requests from
        // fresh, never-seen requesters.
        for f in 0..w.fetches_per_epoch {
            while owners.contains(&NodeId(requester)) || gone.contains(&NodeId(requester)) {
                requester += 1;
            }
            let node = NodeId(requester);
            requester += 1;
            let dataset = datasets[(epoch * w.fetches_per_epoch + f) % datasets.len()];
            let outcome = if coded {
                scdn.request_coded(node, dataset)
            } else {
                scdn.request(node, dataset)
            };
            match outcome {
                Ok(o) => latencies.push(o.response_ms),
                Err(_) => fetch_failures += 1,
            }
        }
    }
    ModeOutcome {
        changes,
        departures: gone.len(),
        repair_bytes,
        latencies,
        fetch_failures,
        catalog: catalog_state(&scdn, &datasets),
        snapshot: comparable_snapshot(&scdn),
        sim_clock_ms: scdn.now().as_millis(),
    }
}

struct WorkloadReport {
    w: &'static str,
    nodes: usize,
    datasets: u32,
    k: u8,
    m: u8,
    dataset_bytes: usize,
    block_bytes: usize,
    plain: ModeOutcome,
    coded: ModeOutcome,
}

impl WorkloadReport {
    fn coded_wins_repair_bytes(&self) -> bool {
        self.coded.repair_bytes < self.plain.repair_bytes
    }

    fn coded_wins_p99(&self) -> bool {
        self.coded.latency_quantile(0.99) <= self.plain.latency_quantile(0.99)
    }

    fn repair_bytes_ratio(&self) -> f64 {
        if self.plain.repair_bytes == 0 {
            0.0
        } else {
            self.coded.repair_bytes as f64 / self.plain.repair_bytes as f64
        }
    }

    fn mode_json(outcome: &ModeOutcome) -> String {
        format!(
            concat!(
                "{{\n",
                "        \"departures\": {},\n",
                "        \"repair_transfers\": {},\n",
                "        \"repair_bytes\": {},\n",
                "        \"fetch\": {{ \"count\": {}, \"failures\": {}, ",
                "\"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}\n",
                "      }}"
            ),
            outcome.departures,
            outcome.changes.iter().sum::<usize>(),
            outcome.repair_bytes,
            outcome.latencies.len(),
            outcome.fetch_failures,
            outcome.latency_mean(),
            outcome.latency_quantile(0.5),
            outcome.latency_quantile(0.99),
        )
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"nodes\": {},\n",
                "      \"datasets\": {},\n",
                "      \"coding\": {{ \"k\": {}, \"m\": {}, \"n\": {}, ",
                "\"dataset_bytes\": {}, \"block_bytes\": {} }},\n",
                "      \"identical_outcomes\": true,\n",
                "      \"modes\": {{\n",
                "      \"plain\": {},\n",
                "      \"coded\": {}\n",
                "      }},\n",
                "      \"repair_bytes_ratio\": {:.4},\n",
                "      \"coded_beats_plain\": {{ \"repair_bytes\": {}, ",
                "\"fetch_p99\": {} }}\n",
                "    }}"
            ),
            self.w,
            self.nodes,
            self.datasets,
            self.k,
            self.m,
            self.k as usize + self.m as usize,
            self.dataset_bytes,
            self.block_bytes,
            Self::mode_json(&self.plain),
            Self::mode_json(&self.coded),
            self.repair_bytes_ratio(),
            self.coded_wins_repair_bytes(),
            self.coded_wins_p99(),
        )
    }
}

fn run_workload(w: &Workload) -> WorkloadReport {
    eprintln!(
        "workload {}: {} nodes, {} datasets, rs({},{}) over {} B, {} epochs...",
        w.name, w.nodes, w.datasets, w.k, w.m, w.dataset_bytes, w.epochs
    );
    // Identical-outcome gate, uncoded: CodingConfig::None through the
    // serial oracle and the plan/commit pipeline must agree on
    // everything — the coded machinery is invisible to plain datasets.
    let plain_serial = run_mode(w, false, true);
    let plain_piped = run_mode(w, false, false);
    assert_eq!(
        plain_serial.changes, plain_piped.changes,
        "plain per-epoch change counts diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        plain_serial.catalog, plain_piped.catalog,
        "plain replica sets / catalog versions diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        plain_serial.sim_clock_ms, plain_piped.sim_clock_ms,
        "plain simulated clock diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        plain_serial.snapshot, plain_piped.snapshot,
        "plain metric snapshot diverged between serial and piped on {}",
        w.name
    );
    // Identical-outcome gate, coded: the pipelined CodedGrow plan/commit
    // must reproduce the serial block-repair walk bit-identically.
    let coded_serial = run_mode(w, true, true);
    let coded_piped = run_mode(w, true, false);
    assert_eq!(
        coded_serial.changes, coded_piped.changes,
        "coded per-epoch change counts diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        coded_serial.catalog, coded_piped.catalog,
        "coded block inventories / catalog versions diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        coded_serial.sim_clock_ms, coded_piped.sim_clock_ms,
        "coded simulated clock diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        coded_serial.snapshot, coded_piped.snapshot,
        "coded metric snapshot diverged between serial and piped on {}",
        w.name
    );
    let report = WorkloadReport {
        w: w.name,
        nodes: w.nodes,
        datasets: w.datasets,
        k: w.k,
        m: w.m,
        dataset_bytes: w.dataset_bytes,
        block_bytes: w.block_bytes(),
        plain: plain_piped,
        coded: coded_piped,
    };
    eprintln!(
        "  plain  repair {:>12} B over {} departures, fetch p99 {:.2} ms",
        report.plain.repair_bytes,
        report.plain.departures,
        report.plain.latency_quantile(0.99),
    );
    eprintln!(
        "  coded  repair {:>12} B over {} departures, fetch p99 {:.2} ms",
        report.coded.repair_bytes,
        report.coded.departures,
        report.coded.latency_quantile(0.99),
    );
    // Every fetch must land: departures never touch owners, so both modes
    // always have a live source (plain) or k live donors (coded).
    assert_eq!(
        report.plain.fetch_failures, 0,
        "plain fetches failed on {}",
        w.name
    );
    assert_eq!(
        report.coded.fetch_failures, 0,
        "coded fetches failed on {}",
        w.name
    );
    // Repair-bytes gate: regenerating missing blocks must move strictly
    // fewer bytes than re-replicating full copies at equal durability.
    assert!(
        report.plain.repair_bytes > 0 && report.coded.repair_bytes > 0,
        "departure epochs must force repair traffic on {}",
        w.name
    );
    assert!(
        report.coded_wins_repair_bytes(),
        "coded repair moved {} B, not below plain re-replication's {} B on {}",
        report.coded.repair_bytes,
        report.plain.repair_bytes,
        w.name
    );
    // Fetch-latency gate: the any-k multi-donor race must not be slower
    // at the tail than the single-source segment stream.
    assert!(
        report.coded_wins_p99(),
        "coded fetch p99 {:.3} ms exceeds single-source p99 {:.3} ms on {}",
        report.coded.latency_quantile(0.99),
        report.plain.latency_quantile(0.99),
        w.name
    );
    report
}

/// Schema gate on the emitted document (the `metrics_report --check`
/// pattern): balanced braces, required keys, no NaN/infinite numbers.
fn validate_report(text: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let mut depth = 0i64;
    for c in text.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            violations.push("unbalanced braces: closed more than opened".into());
            break;
        }
    }
    if depth != 0 {
        violations.push(format!("unbalanced braces: depth {depth} at end"));
    }
    for key in [
        "\"schema\": \"scdn-bench-coded/v1\"",
        "\"workloads\"",
        "\"coding\"",
        "\"identical_outcomes\": true",
        "\"plain\"",
        "\"coded\"",
        "\"repair_bytes\"",
        "\"p99_ms\"",
        "\"repair_bytes_ratio\"",
        "\"coded_beats_plain\": { \"repair_bytes\": true, \"fetch_p99\": true }",
    ] {
        if !text.contains(key) {
            violations.push(format!("missing key {key}"));
        }
    }
    for bad in ["NaN", "inf"] {
        if text.contains(bad) {
            violations.push(format!("non-finite number ({bad}) in report"));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn emit(reports: &[WorkloadReport], out_path: &str) -> ExitCode {
    let body = reports
        .iter()
        .map(WorkloadReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"scdn-bench-coded/v1\",\n",
            "  \"description\": \"erasure-coded any-k-of-n blocks vs full replication ",
            "at equal durability (m extra copies vs m parity blocks) under heavy ",
            "non-owner host departure; repair bytes count maintenance traffic to ",
            "restore durability after each departure epoch, fetch latencies compare ",
            "the multi-donor any-k race against the single-source segment stream; ",
            "both modes are gated bit-identical between the serial repair oracle and ",
            "the plan/commit pipeline\",\n",
            "  \"workloads\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        body
    );
    if let Err(violations) = validate_report(&json) {
        eprintln!("bench_coded report FAILED validation:");
        for v in violations {
            eprintln!("  - {v}");
        }
        return ExitCode::FAILURE;
    }
    std::fs::write(out_path, &json).expect("write results");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                // Keep CI runs from clobbering the committed full report.
                "target/BENCH_coded_smoke.json".to_string()
            } else {
                "BENCH_coded.json".to_string()
            }
        });

    let workloads: Vec<Workload> = if smoke {
        vec![Workload {
            name: "ba_1500_smoke",
            nodes: 1_500,
            graph_seed: 7,
            datasets: 12,
            dataset_bytes: 96 << 10,
            segment_size: 8 << 10,
            k: 3,
            m: 2,
            epochs: 3,
            fetches_per_epoch: 60,
        }]
    } else {
        vec![Workload {
            name: "ba_10k",
            nodes: 10_000,
            graph_seed: 17,
            datasets: 32,
            dataset_bytes: 256 << 10,
            segment_size: 16 << 10,
            k: 4,
            m: 2,
            epochs: 5,
            fetches_per_epoch: 150,
        }]
    };

    let reports: Vec<WorkloadReport> = workloads.iter().map(run_workload).collect();
    for r in &reports {
        println!(
            "{:<16} n={:<7} rs({},{}) repair bytes {} vs {} (ratio {:.3}); \
             fetch p99 {:.2} vs {:.2} ms",
            r.w,
            r.nodes,
            r.k,
            r.m,
            r.coded.repair_bytes,
            r.plain.repair_bytes,
            r.repair_bytes_ratio(),
            r.coded.latency_quantile(0.99),
            r.plain.latency_quantile(0.99),
        );
    }
    emit(&reports, &out_path)
}
