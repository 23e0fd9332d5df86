//! Maintenance-pipeline reporter: serial rebalancing loop vs the
//! plan/commit maintenance pipeline.
//!
//! Hosts a full S-CDN on a Barabási–Albert social graph, then drives
//! identical maintenance epochs two ways:
//!
//! * `serial` — the oracle loop (`maintain_serial` / `repair_serial`)
//!   with placement-ranking memoization disabled: every growing dataset
//!   re-runs the full placement algorithm, every repair re-ranks — the
//!   per-dataset cost profile of the pre-pipeline code;
//! * `piped@W` — the same epochs through the plan/commit pipeline
//!   (`maintain` / `repair`): the ranking computed once per graph and
//!   sliced per dataset, grow/shrink plans produced in parallel by `W`
//!   planning workers (`scdn_graph::parallel::set_worker_limit`), commits
//!   applied in dataset order.
//!
//! Each epoch synthesizes demand through `Scdn::resolve_replica` (the
//! discovery half of a request — feeds the replication policy's demand
//! windows without paying for transfers), rotates which third of the
//! datasets is hot (so grows *and* shrinks occur), and interleaves repair
//! cycles that re-provision datasets the shrink pass cut below target.
//!
//! The **identical-outcome gate** aborts the benchmark if any piped run
//! diverges from the serial oracle in per-cycle change counts, final
//! replica sets, catalog-entry versions, simulated clock, or metric
//! snapshot (minus the `core.maintain.*` / `core.batch.*` /
//! `alloc.resolve.cache.*` diagnostics) — speedup for a pipeline that
//! changes behavior is meaningless.
//!
//! Results go to `BENCH_maintain.json` (hand-rolled JSON; the workspace
//! has no serde_json). `hardware_parallelism` records how many CPUs the
//! host actually offers: on a single-core host the parallel plan phase
//! cannot help, and the reported speedup is the ranking-memoization and
//! batched-transfer savings alone.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin bench_maintain             # full run
//! cargo run -p scdn-bench --release --bin bench_maintain -- --smoke  # CI gate
//! ```

use std::process::ExitCode;
use std::time::Instant;

use bytes::Bytes;
use scdn_alloc::replication::ReplicationPolicy;
use scdn_core::system::{Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::parallel::set_worker_limit;
use scdn_graph::NodeId;
use scdn_social::author::{Author, AuthorId, Institution, InstitutionId, Region};
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{TrustFilter, TrustSubgraph};
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
/// schedule of demand-then-maintain epochs.
struct Workload {
    name: &'static str,
    nodes: usize,
    graph_seed: u64,
    datasets: u32,
    dataset_bytes: usize,
    /// Maintenance epochs to run (a repair cycle follows every second
    /// epoch).
    cycles: usize,
    /// Demand resolves per hot dataset per epoch.
    resolves_per_hot: usize,
}

impl Workload {
    /// A fresh, fully built system with every dataset published and
    /// replicated. Bit-identical across calls.
    fn build(&self) -> (Scdn, Vec<DatasetId>) {
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
            segment_size: 16 << 10,
            repo_capacity: 64 << 20,
            replicas_per_dataset: 2,
            transfer_concurrency: 2,
            // Low per-replica volume so the synthetic demand bursts move
            // the rebalance targets without millions of resolves.
            replication: ReplicationPolicy {
                requests_per_replica: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut scdn = Scdn::build(&sub, &corpus, config);
        let n = self.nodes as u32;
        let mut datasets = Vec::with_capacity(self.datasets as usize);
        for d in 0..self.datasets {
            let owner = NodeId(d.wrapping_mul(37) % n);
            let id = scdn
                .publish(
                    owner,
                    &format!("maint-{d:03}"),
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

/// Everything a timed run produces that must be identical across modes
/// (plus the timing itself, which must not be).
struct RunOutcome {
    /// Wall-clock spent inside the maintenance/repair cycles only (the
    /// demand bursts are identical warm-up on every mode).
    ms: f64,
    changes: Vec<usize>,
    catalog: Vec<(Vec<NodeId>, Option<u64>)>,
    snapshot: String,
    sim_clock_ms: u64,
    ranking_hits: u64,
    ranking_misses: u64,
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and pipelined execution (resolve-cache probe counts,
/// request-batch counters, and the maintenance-pipeline counters
/// themselves).
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

/// Run the epoch schedule. `workers == 0` is the serial oracle with
/// ranking memoization disabled; otherwise the plan/commit pipeline with
/// the planning pool clamped to `workers`.
fn run_mode(w: &Workload, workers: usize) -> RunOutcome {
    let (mut scdn, datasets) = w.build();
    let serial = workers == 0;
    if serial {
        scdn.set_ranking_cache_enabled(false);
    }
    set_worker_limit(workers);
    let members = scdn.member_count() as u32;
    let mut changes = Vec::with_capacity(w.cycles * 2);
    let mut timed = 0.0f64;
    for cycle in 0..w.cycles {
        // Rotate which third of the corpus is hot, so every epoch both
        // grows (hot datasets) and sheds (last epoch's hot set cooling).
        for (d, &id) in datasets.iter().enumerate() {
            if (d + cycle) % 3 != 0 {
                continue;
            }
            for i in 0..w.resolves_per_hot {
                let requester = NodeId(((d * 31 + i * 7 + cycle * 13) as u32) % members);
                let _ = scdn.resolve_replica(requester, id);
            }
        }
        scdn.tick(1_000);
        let start = Instant::now();
        changes.push(if serial {
            scdn.maintain_serial()
        } else {
            scdn.maintain()
        });
        if cycle % 2 == 1 {
            // Re-provision whatever the shrink pass cut below target.
            changes.push(if serial {
                scdn.repair_serial()
            } else {
                scdn.repair()
            });
        }
        timed += start.elapsed().as_secs_f64() * 1_000.0;
    }
    set_worker_limit(0);
    let catalog = datasets
        .iter()
        .map(|&d| {
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
            )
        })
        .collect();
    RunOutcome {
        ms: timed,
        changes,
        catalog,
        snapshot: comparable_snapshot(&scdn),
        sim_clock_ms: scdn.now().as_millis(),
        ranking_hits: scdn
            .registry()
            .counter("core.maintain.ranking_cache_hit")
            .get(),
        ranking_misses: scdn
            .registry()
            .counter("core.maintain.ranking_cache_miss")
            .get(),
    }
}

struct WorkloadReport {
    name: &'static str,
    nodes: usize,
    datasets: u32,
    cycles: usize,
    changes_total: usize,
    serial_ms: f64,
    /// `(workers, ms, ranking_hits)` per piped run.
    piped: Vec<(usize, f64, u64)>,
}

impl WorkloadReport {
    fn best_speedup(&self) -> f64 {
        self.piped
            .iter()
            .map(|&(_, ms, _)| self.serial_ms / ms)
            .fold(0.0, f64::max)
    }

    fn to_json(&self) -> String {
        let workers = self
            .piped
            .iter()
            .map(|&(wk, ms, hits)| {
                format!(
                    concat!(
                        "        \"{}\": {{ \"ms\": {:.3}, \"speedup_vs_serial\": {:.2}, ",
                        "\"ranking_cache_hits\": {} }}"
                    ),
                    wk,
                    ms,
                    self.serial_ms / ms,
                    hits,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"nodes\": {},\n",
                "      \"datasets\": {},\n",
                "      \"cycles\": {},\n",
                "      \"replica_changes\": {},\n",
                "      \"serial\": {{ \"ms\": {:.3} }},\n",
                "      \"piped_workers\": {{\n{}\n      }},\n",
                "      \"identical_outcomes\": true\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.datasets,
            self.cycles,
            self.changes_total,
            self.serial_ms,
            workers,
        )
    }
}

fn run_workload(w: &Workload, worker_counts: &[usize]) -> WorkloadReport {
    eprintln!(
        "workload {}: {} nodes, {} datasets, {} epochs...",
        w.name, w.nodes, w.datasets, w.cycles
    );
    let serial = run_mode(w, 0);
    eprintln!(
        "  {:<10} {:9.1} ms  ({} replica changes, {} rankings)",
        "serial",
        serial.ms,
        serial.changes.iter().sum::<usize>(),
        serial.ranking_misses,
    );
    let mut piped = Vec::new();
    for &wk in worker_counts {
        let run = run_mode(w, wk);
        // Identical-outcome gate: a pipeline that changes any replica
        // decision, metric, or clock is wrong, whatever its speed.
        assert_eq!(
            serial.changes, run.changes,
            "piped@{wk} per-cycle change counts diverged from serial on {}",
            w.name
        );
        assert_eq!(
            serial.catalog, run.catalog,
            "piped@{wk} replica sets / catalog versions diverged from serial on {}",
            w.name
        );
        assert_eq!(
            serial.sim_clock_ms, run.sim_clock_ms,
            "piped@{wk} simulated clock diverged from serial on {}",
            w.name
        );
        assert_eq!(
            serial.snapshot, run.snapshot,
            "piped@{wk} metric snapshot diverged from serial on {}",
            w.name
        );
        eprintln!(
            "  piped@{:<4} {:9.1} ms  ({:.2}x, {} ranking cache hits)",
            wk,
            run.ms,
            serial.ms / run.ms,
            run.ranking_hits,
        );
        piped.push((wk, run.ms, run.ranking_hits));
    }
    WorkloadReport {
        name: w.name,
        nodes: w.nodes,
        datasets: w.datasets,
        cycles: w.cycles,
        changes_total: serial.changes.iter().sum(),
        serial_ms: serial.ms,
        piped,
    }
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
        "\"schema\": \"scdn-bench-maintain/v1\"",
        "\"hardware_parallelism\"",
        "\"workloads\"",
        "\"serial\"",
        "\"piped_workers\"",
        "\"ranking_cache_hits\"",
        "\"replica_changes\"",
        "\"identical_outcomes\": true",
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

fn emit(reports: &[WorkloadReport], hardware: usize, out_path: &str) -> ExitCode {
    let body = reports
        .iter()
        .map(WorkloadReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"scdn-bench-maintain/v1\",\n",
            "  \"description\": \"maintenance/repair cycles: serial rebalancing loop ",
            "with per-dataset placement rankings vs plan/commit pipeline with one ",
            "memoized ranking per graph; identical replica decisions, metrics, and ",
            "clock enforced\",\n",
            "  \"hardware_parallelism\": {},\n",
            "  \"note\": \"on a single-core host the parallel plan phase cannot help; ",
            "the speedup shown is ranking memoization plus batched transfers alone\",\n",
            "  \"workloads\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        hardware, body
    );
    if let Err(violations) = validate_report(&json) {
        eprintln!("bench_maintain report FAILED validation:");
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
                "target/BENCH_maintain_smoke.json".to_string()
            } else {
                "BENCH_maintain.json".to_string()
            }
        });
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (workloads, worker_counts): (Vec<Workload>, Vec<usize>) = if smoke {
        (
            vec![Workload {
                name: "ba_1500_smoke",
                nodes: 1_500,
                graph_seed: 5,
                datasets: 24,
                dataset_bytes: 64 << 10,
                cycles: 3,
                resolves_per_hot: 60,
            }],
            vec![1, 2],
        )
    } else {
        (
            vec![Workload {
                name: "ba_10k",
                nodes: 10_000,
                graph_seed: 21,
                datasets: 200,
                dataset_bytes: 64 << 10,
                cycles: 4,
                resolves_per_hot: 60,
            }],
            vec![1, 2, 4],
        )
    };

    let reports: Vec<WorkloadReport> = workloads
        .iter()
        .map(|w| run_workload(w, &worker_counts))
        .collect();
    for r in &reports {
        println!(
            "{:<16} n={:<6} serial {:>9.1} ms  best piped {:.2}x  (host cpus: {})",
            r.name,
            r.nodes,
            r.serial_ms,
            r.best_speedup(),
            hardware,
        );
    }
    if smoke {
        // CI gate: the memoized ranking must actually be reused.
        for r in &reports {
            assert!(
                r.piped.iter().any(|&(_, _, hits)| hits > 0),
                "smoke run recorded no ranking-cache hits on {}",
                r.name
            );
        }
    }
    emit(&reports, hardware, &out_path)
}
