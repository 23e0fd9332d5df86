//! Replica-resolution throughput reporter.
//!
//! Replays an identical request trace against the four resolution paths
//! of the allocation server, on Barabási–Albert social graphs:
//!
//! * `full_bfs` — the oracle (`select_replica_full_bfs`): one full
//!   `TraversalScratch::bfs` of the requester's component per request,
//!   then the shared ranking loop over the catalogued replicas;
//! * `csr_uncached` — bounded multi-target meet-in-the-middle search, hop
//!   cache disabled;
//! * `csr_cached` — the same with the version-keyed hop cache on;
//! * `batch@W` — `resolve_batch` fanning the trace over `W` worker
//!   threads (cache on, cold at the start of the timed region), once per
//!   swept thread count.
//!
//! Every path must select the same replica as the oracle for every
//! request it checks; the run aborts otherwise. On huge graphs the
//! oracle is **prefix-limited**: `full_bfs` resolves only the first
//! `oracle_prefix` trace entries (a full BFS per request over a
//! million-node graph would dominate the run), the other paths still
//! replay the whole trace, and the gate compares selections on that
//! prefix. The report records the prefix so a partial gate can never
//! read as a full one. Results go to `BENCH_resolve.json` (hand-rolled
//! JSON; the workspace has no serde_json) after passing the same style of
//! self-validation `metrics_report --check` applies to the obs export.
//!
//! ```text
//! cargo run -p scdn-bench --release --bin bench_resolve                    # full run
//! cargo run -p scdn-bench --release --bin bench_resolve -- --smoke         # CI gate
//! cargo run -p scdn-bench --release --bin bench_resolve -- --threads 1,2,4 # explicit sweep
//! cargo run -p scdn-bench --release --bin bench_resolve -- --huge          # adds ba_1m
//! ```
//!
//! `--smoke` runs a small workload, asserts the cache actually hit, and
//! writes to `target/BENCH_resolve_smoke.json` so the committed full-run
//! report is not clobbered.

use std::process::ExitCode;
use std::time::Instant;

use scdn_alloc::discovery::{select_replica_full_bfs, Candidate};
use scdn_alloc::server::{AllocationServer, RepositoryInfo};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::parallel::set_worker_limit;
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_obs::Registry;
use scdn_social::author::AuthorId;
use scdn_storage::object::DatasetId;

/// One benchmark workload: a social graph plus a deterministic request
/// trace over a pool of distinct requesters.
struct Workload {
    name: &'static str,
    csr: CsrGraph,
    datasets: u32,
    replicas_per_dataset: u32,
    /// Distinct requester nodes the trace cycles through.
    requester_pool: Vec<NodeId>,
    /// The request trace: `(dataset, requester)` pairs.
    requests: Vec<(DatasetId, NodeId)>,
    /// How many leading trace entries the `full_bfs` oracle resolves and
    /// the identical-selection gate checks. Equal to the trace length
    /// except on huge graphs, where a full BFS per request is
    /// intractable.
    oracle_prefix: usize,
}

impl Workload {
    fn new(
        name: &'static str,
        nodes: usize,
        seed: u64,
        datasets: u32,
        replicas_per_dataset: u32,
        pool_size: usize,
        request_count: usize,
    ) -> Workload {
        let csr = CsrGraph::from(&barabasi_albert(nodes, 3, seed));
        let n = nodes as u32;
        let requester_pool: Vec<NodeId> = (0..pool_size as u32)
            .map(|j| NodeId(j.wrapping_mul(97) % n))
            .collect();
        let requests: Vec<(DatasetId, NodeId)> = (0..request_count)
            .map(|i| {
                (
                    DatasetId(i as u32 * 7 % datasets),
                    requester_pool[i * 13 % pool_size],
                )
            })
            .collect();
        Workload {
            name,
            csr,
            datasets,
            replicas_per_dataset,
            requester_pool,
            requests,
            oracle_prefix: request_count,
        }
    }

    /// Limit the `full_bfs` oracle (and the identical-selection gate) to
    /// the first `prefix` trace entries.
    fn with_oracle_prefix(mut self, prefix: usize) -> Workload {
        self.oracle_prefix = prefix.min(self.requests.len());
        self
    }

    /// A fresh allocation server with every node registered and the same
    /// deterministic replica layout — one per timed path, so no path
    /// benefits from another's warm state.
    fn build_server(&self, reg: &Registry) -> AllocationServer {
        let srv = AllocationServer::with_registry(reg);
        let n = self.csr.node_count() as u32;
        // Bulk registration: one table republication instead of the
        // O(n²) copy-on-write a per-repository loop costs — at a
        // million nodes that loop dominates the whole run.
        srv.register_repositories(self.csr.nodes().map(|v| RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1 << 30,
            availability: 0.5 + (v.0 % 50) as f64 / 100.0,
        }));
        for d in 0..self.datasets {
            let primary = NodeId(d.wrapping_mul(37) % n);
            srv.register_dataset(DatasetId(d), 1, primary)
                .expect("fresh catalog");
            for k in 1..self.replicas_per_dataset {
                let _ = srv.add_replica(DatasetId(d), NodeId((d * 37 + k * 101) % n));
            }
        }
        // The trace's key space must fit, or steady-state evictions turn
        // cache timing into eviction timing.
        srv.set_resolve_cache_capacity(2 * self.requester_pool.len() * self.datasets as usize);
        srv
    }
}

fn latency_of(requester: NodeId, replica: NodeId) -> f64 {
    ((requester.0 ^ replica.0) % 200) as f64 / 4.0
}

/// Timed throughput + the replica chosen per request (for the
/// identical-selection gate).
struct PathResult {
    ms: f64,
    selected: Vec<Option<NodeId>>,
}

impl PathResult {
    fn requests_per_sec(&self, requests: usize) -> f64 {
        requests as f64 / (self.ms / 1_000.0)
    }
}

/// Time one path. `workers` only matters for `batch`, where the planning
/// pool is clamped to that many threads. `full_bfs` resolves only the
/// oracle prefix; every other path replays the whole trace.
fn run_path(w: &Workload, reg: &Registry, mode: &str, workers: usize) -> PathResult {
    let srv = w.build_server(reg);
    if mode == "csr_uncached" {
        srv.set_resolve_cache_capacity(0);
    }
    let online = |_: NodeId| true;
    let mut scratch = TraversalScratch::new();
    let start = Instant::now();
    let selected: Vec<Option<NodeId>> = if mode == "batch" {
        set_worker_limit(workers);
        let out = srv
            .resolve_batch(&w.requests, &w.csr, online, latency_of)
            .into_iter()
            .map(|r| r.ok().map(|s| s.node))
            .collect();
        set_worker_limit(0);
        out
    } else {
        let trace = if mode == "full_bfs" {
            &w.requests[..w.oracle_prefix]
        } else {
            &w.requests[..]
        };
        trace
            .iter()
            .map(|&(d, req)| match mode {
                "full_bfs" => full_bfs_selection(&srv, &w.csr, &mut scratch, d, req),
                _ => srv
                    .resolve_csr(d, req, &w.csr, online, |n| latency_of(req, n))
                    .ok()
                    .map(|s| s.node),
            })
            .collect()
    };
    PathResult {
        ms: start.elapsed().as_secs_f64() * 1_000.0,
        selected,
    }
}

/// The oracle: every catalogued replica of `dataset` (all online) ranked
/// on the hop distances of one full BFS from `requester`.
fn full_bfs_selection(
    srv: &AllocationServer,
    csr: &CsrGraph,
    scratch: &mut TraversalScratch,
    dataset: DatasetId,
    requester: NodeId,
) -> Option<NodeId> {
    let candidates: Vec<Candidate> = srv
        .replicas_of(dataset)
        .ok()?
        .into_iter()
        .map(|node| Candidate {
            node,
            online: true,
            latency_ms: latency_of(requester, node),
            availability: srv.repository(node).map_or(0.0, |r| r.availability),
        })
        .collect();
    select_replica_full_bfs(csr, requester, &candidates, scratch).map(|s| s.node)
}

struct WorkloadReport {
    name: &'static str,
    nodes: usize,
    edges: usize,
    datasets: u32,
    requests: usize,
    distinct_requesters: usize,
    /// How many leading requests the oracle checked (== `requests`
    /// unless prefix-limited).
    oracle_prefix: usize,
    paths: Vec<(String, f64, f64)>, // (name, ms, req/s)
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    speedup_cached: f64,
    speedup_batch: f64,
}

impl WorkloadReport {
    fn to_json(&self) -> String {
        let paths = self
            .paths
            .iter()
            .map(|(name, ms, rps)| {
                format!("        \"{name}\": {{ \"ms\": {ms:.3}, \"requests_per_sec\": {rps:.1} }}")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"nodes\": {},\n",
                "      \"edges\": {},\n",
                "      \"datasets\": {},\n",
                "      \"requests\": {},\n",
                "      \"distinct_requesters\": {},\n",
                "      \"oracle\": {{ \"requests_checked\": {}, \"prefix_limited\": {} }},\n",
                "      \"paths\": {{\n{}\n      }},\n",
                "      \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }},\n",
                "      \"speedup_cached_vs_full_bfs\": {:.2},\n",
                "      \"speedup_batch_vs_full_bfs\": {:.2}\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.edges,
            self.datasets,
            self.requests,
            self.distinct_requesters,
            self.oracle_prefix,
            self.oracle_prefix < self.requests,
            paths,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.speedup_cached,
            self.speedup_batch,
        )
    }
}

/// The serial resolution paths every workload times, in report order;
/// the batch path follows once per swept worker count.
const SERIAL_PATHS: [&str; 3] = ["full_bfs", "csr_uncached", "csr_cached"];

fn run_workload(w: &Workload, worker_counts: &[usize]) -> WorkloadReport {
    eprintln!(
        "workload {}: {} nodes, {} requests over {} requesters (oracle prefix {})...",
        w.name,
        w.csr.node_count(),
        w.requests.len(),
        w.requester_pool.len(),
        w.oracle_prefix,
    );
    let modes: Vec<(String, &'static str, usize)> = SERIAL_PATHS
        .iter()
        .map(|&m| (m.to_string(), m, 0))
        .chain(
            worker_counts
                .iter()
                .map(|&wk| (format!("batch@{wk}"), "batch", wk)),
        )
        .collect();
    let mut results: Vec<(String, usize, PathResult)> = Vec::new();
    let mut cache = (0, 0, 0);
    for (label, mode, workers) in &modes {
        let reg = Registry::new();
        let r = run_path(w, &reg, mode, *workers);
        if *label == "csr_cached" {
            let snap = reg.snapshot();
            cache = (
                snap.counter("alloc.resolve.cache.hit").unwrap_or(0),
                snap.counter("alloc.resolve.cache.miss").unwrap_or(0),
                snap.counter("alloc.resolve.cache.evict").unwrap_or(0),
            );
        }
        let timed = r.selected.len();
        eprintln!(
            "  {:<14} {:9.1} ms  {:>10.0} req/s",
            label,
            r.ms,
            r.requests_per_sec(timed)
        );
        results.push((label.clone(), timed, r));
    }
    // Identical-selection gate: every path serves each oracle-checked
    // request from the same replica the full-BFS oracle picked.
    let oracle = &results[0].2.selected;
    for (label, _, r) in &results[1..] {
        assert_eq!(
            oracle.as_slice(),
            &r.selected[..w.oracle_prefix],
            "{label} disagreed with full_bfs on workload {}",
            w.name
        );
    }
    // Speedups compare throughputs, not raw times — a prefix-limited
    // oracle times fewer requests than the CSR paths.
    let rps_of = |label: &str| {
        results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, timed, r)| r.requests_per_sec(*timed))
            .expect("path ran")
    };
    let best_batch_rps = worker_counts
        .iter()
        .map(|&wk| rps_of(&format!("batch@{wk}")))
        .fold(0.0, f64::max);
    WorkloadReport {
        name: w.name,
        nodes: w.csr.node_count(),
        edges: w.csr.edge_count(),
        datasets: w.datasets,
        requests: w.requests.len(),
        distinct_requesters: w.requester_pool.len(),
        oracle_prefix: w.oracle_prefix,
        paths: results
            .iter()
            .map(|(l, timed, r)| (l.clone(), r.ms, r.requests_per_sec(*timed)))
            .collect(),
        cache_hits: cache.0,
        cache_misses: cache.1,
        cache_evictions: cache.2,
        speedup_cached: rps_of("csr_cached") / rps_of("full_bfs"),
        speedup_batch: best_batch_rps / rps_of("full_bfs"),
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
        "\"schema\": \"scdn-bench-resolve/v2\"",
        "\"workloads\"",
        "\"full_bfs\"",
        "\"csr_uncached\"",
        "\"csr_cached\"",
        "\"batch@",
        "\"threads_swept\"",
        "\"oracle\"",
        "\"cache\"",
        "\"speedup_cached_vs_full_bfs\"",
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

fn emit(reports: &[WorkloadReport], worker_counts: &[usize], out_path: &str) -> ExitCode {
    let body = reports
        .iter()
        .map(WorkloadReport::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let threads_swept = worker_counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"scdn-bench-resolve/v2\",\n",
            "  \"description\": \"replica-resolution throughput: full-BFS oracle ",
            "vs bounded bidirectional search vs version-keyed hop cache vs parallel batch swept ",
            "over worker counts; selections gated against the oracle on every ",
            "oracle-checked request\",\n",
            "  \"generator\": \"barabasi_albert(n, 3)\",\n",
            "  \"threads_swept\": [{}],\n",
            "  \"workloads\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        threads_swept, body
    );
    if let Err(violations) = validate_report(&json) {
        eprintln!("bench_resolve report FAILED validation:");
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
    let huge = args.iter().any(|a| a == "--huge");
    let threads = scdn_bench::parse_threads(&args);
    let mut after_threads_flag = false;
    let out_path = args
        .iter()
        .filter(|a| {
            // Skip the value operand of a space-separated `--threads`.
            let skip = std::mem::replace(&mut after_threads_flag, **a == "--threads");
            !skip
        })
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                // Keep CI runs from clobbering the committed full report.
                "target/BENCH_resolve_smoke.json".to_string()
            } else {
                "BENCH_resolve.json".to_string()
            }
        });

    let (mut workloads, default_counts) = if smoke {
        (
            vec![Workload::new("ba_1500_smoke", 1_500, 5, 8, 3, 64, 600)],
            vec![1, 2],
        )
    } else {
        (
            vec![
                Workload::new("ba_10k", 10_000, 21, 16, 3, 128, 4_000),
                Workload::new("ba_100k", 100_000, 22, 16, 3, 128, 1_000),
            ],
            vec![1, 2, 4, 8],
        )
    };
    if huge {
        // A full BFS over a million-node graph per request would dominate
        // the run, so the oracle checks a 64-request prefix; the CSR and
        // batch paths still replay the whole trace.
        workloads
            .push(Workload::new("ba_1m", 1_000_000, 23, 16, 3, 128, 1_000).with_oracle_prefix(64));
    }
    let worker_counts = threads.unwrap_or(default_counts);
    let reports: Vec<WorkloadReport> = workloads
        .iter()
        .map(|w| run_workload(w, &worker_counts))
        .collect();
    for r in &reports {
        println!(
            "{:<16} n={:<7} cached {:5.2}x  batch {:5.2}x  (cache {} hit / {} miss / {} evict)",
            r.name,
            r.nodes,
            r.speedup_cached,
            r.speedup_batch,
            r.cache_hits,
            r.cache_misses,
            r.cache_evictions
        );
    }
    if smoke {
        // The smoke trace revisits (requester, dataset) keys, so a working
        // cache must register hits; zero hits means the version keying or
        // the lookup path regressed.
        let r = &reports[0];
        assert!(
            r.cache_hits >= 1,
            "smoke run expected at least one cache hit, saw {}",
            r.cache_hits
        );
        println!(
            "smoke OK: {} cache hits over {} requests",
            r.cache_hits, r.requests
        );
    }
    emit(&reports, &worker_counts, &out_path)
}
