//! Rebalance-policy reporter: static vs adaptive replication under a
//! Zipf-skew sweep and a flash-crowd phase change.
//!
//! Hosts a full S-CDN on a Barabási–Albert social graph and drives an
//! identical phased workload (`scdn_sim::workload::generate_phased_requests`:
//! uniform warm-up → Zipf 0.8 → Zipf 1.2 → flash crowd on a tail dataset
//! → cooldown) through maintenance cycles under two rebalance policies:
//!
//! * `static` — the [`StaticRebalance`] policy: the pre-trait
//!   `ReplicationPolicy` formula with `replicas_per_dataset` as the grow
//!   floor, i.e. exactly what `Scdn::maintain` did before the policy
//!   trait existed;
//! * `adaptive` — [`AdaptiveRebalance`] (after Leconte/Lelarge/Massoulié,
//!   "Adaptive Replication in Distributed Content Delivery Networks"):
//!   per-dataset targets proportional to the dataset's share of window
//!   demand under a **global replica budget**, with grow-fast /
//!   shrink-slow hysteresis. The budget is set to the *static run's
//!   final replica count*, so the two modes spend the same storage and
//!   the comparison isolates *where* the replicas sit.
//!
//! Two gates make the numbers trustworthy:
//!
//! * **identical-outcome gate** — the static policy is run through both
//!   the serial oracle (`maintain_serial`) and the plan/commit pipeline
//!   (`maintain`); per-cycle change counts, final replica sets,
//!   catalog-entry versions, simulated clock, and metric snapshots must
//!   match exactly;
//! * **legacy-plan gate** — before every static maintenance cycle the
//!   plan is recomputed from the public pre-trait formula
//!   (`target_replicas` + the `should_shrink` clamp + the old
//!   `replicas_per_dataset.max(target)` grow clamp) and compared item
//!   for item against `rebalance_plan(&StaticRebalance)`, proving the
//!   `Static` impl reproduces today's `maintain` exactly.
//!
//! Per phase and per mode the report carries the demand hit rate (the
//! fraction of resolves served within one social hop), maintenance
//! transfer bytes, and the replica-count distribution. `--smoke` runs a
//! small instance for CI and additionally asserts the adaptive policy
//! grew the flash-crowd dataset during the flash phase.
//!
//! Results go to `BENCH_rebalance.json` (hand-rolled JSON; the workspace
//! has no serde_json).
//!
//! ```text
//! cargo run -p scdn-bench --release --bin bench_rebalance             # full run
//! cargo run -p scdn-bench --release --bin bench_rebalance -- --smoke  # CI gate
//! ```

use std::process::ExitCode;

use bytes::Bytes;
use scdn_alloc::replication::{AdaptiveRebalance, ReplicationPolicy, StaticRebalance};
use scdn_core::system::{RebalanceStrategy, Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::NodeId;
use scdn_sim::workload::{
    generate_phased_requests, FlashCrowd, PhasedWorkloadConfig, Request, WorkloadPhase,
};
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

/// The phase script: names must parallel the `WorkloadPhase` vector built
/// in [`Workload::phases`].
const PHASE_NAMES: [&str; 5] = [
    "warm_uniform",
    "zipf_0.8",
    "zipf_1.2",
    "flash_crowd",
    "cooldown",
];

/// Index of the flash phase within [`PHASE_NAMES`].
const FLASH_PHASE: usize = 3;

/// One benchmark scenario: a synthetic membership plus a deterministic
/// phased demand schedule.
struct Workload {
    name: &'static str,
    nodes: usize,
    graph_seed: u64,
    datasets: u32,
    dataset_bytes: usize,
    /// Length of each workload phase, milliseconds.
    phase_ms: u64,
    /// Mean request inter-arrival, milliseconds.
    mean_interarrival_ms: f64,
    /// Maintenance cycles per phase (the phase's requests are fed in this
    /// many equal time slices, each followed by one `maintain`).
    cycles_per_phase: usize,
}

impl Workload {
    /// The tail dataset the flash crowd piles onto: last by Zipf rank, so
    /// it holds only the floor replicas when the crowd arrives.
    fn flash_dataset(&self) -> usize {
        self.datasets as usize - 1
    }

    fn phases(&self) -> Vec<WorkloadPhase> {
        let base = |s: f64, flash: Option<FlashCrowd>| WorkloadPhase {
            duration_ms: self.phase_ms,
            popularity_exponent: s,
            mean_interarrival_ms: self.mean_interarrival_ms,
            flash,
        };
        vec![
            base(0.0, None),
            base(0.8, None),
            base(1.2, None),
            base(
                0.8,
                Some(FlashCrowd {
                    dataset: self.flash_dataset(),
                    fraction: 0.7,
                }),
            ),
            base(0.8, None),
        ]
    }

    fn requests(&self) -> Vec<Request> {
        generate_phased_requests(&PhasedWorkloadConfig {
            seed: self.graph_seed ^ 0x5eed,
            users: self.nodes,
            datasets: self.datasets as usize,
            activity_exponent: 0.6,
            phases: self.phases(),
        })
    }

    /// A fresh, fully built system with every dataset published and
    /// replicated. Bit-identical across calls with the same strategy.
    fn build(&self, rebalance: RebalanceStrategy) -> (Scdn, Vec<DatasetId>) {
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
            rebalance,
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
                    &format!("rebal-{d:03}"),
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

/// Per-phase demand and replication telemetry for one mode.
struct PhaseStats {
    name: &'static str,
    requests: usize,
    hits: u64,
    misses: u64,
    /// Maintenance transfer bytes spent during the phase.
    bytes: u64,
    /// Flash-target replica count entering / leaving the phase.
    flash_start: usize,
    flash_end: usize,
}

impl PhaseStats {
    fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

/// Replica-count distribution over the catalog.
struct Distribution {
    min: usize,
    median: usize,
    max: usize,
    total: usize,
}

fn distribution(counts: &[usize]) -> Distribution {
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    Distribution {
        min: sorted.first().copied().unwrap_or(0),
        median: sorted.get(sorted.len() / 2).copied().unwrap_or(0),
        max: sorted.last().copied().unwrap_or(0),
        total: sorted.iter().sum(),
    }
}

/// Everything one mode run produces: the report inputs plus the
/// comparables the identical-outcome gate checks across executions.
struct ModeOutcome {
    phases: Vec<PhaseStats>,
    changes: Vec<usize>,
    catalog: Vec<(Vec<NodeId>, Option<u64>)>,
    snapshot: String,
    sim_clock_ms: u64,
    /// Final replica count per dataset, in dataset order.
    final_counts: Vec<usize>,
    total_bytes: u64,
    /// `false` if any legacy-plan comparison failed (static runs only;
    /// `true` when the gate was not requested).
    legacy_identical: bool,
}

impl ModeOutcome {
    fn total_hits(&self) -> u64 {
        self.phases.iter().map(|p| p.hits).sum()
    }

    fn total_misses(&self) -> u64 {
        self.phases.iter().map(|p| p.misses).sum()
    }

    fn hit_rate_pct(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 * 100.0 / total as f64
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

/// The pre-trait maintain plan, recomputed from the public formula: the
/// inline `target_replicas` + `should_shrink` clamp the old
/// `rebalance_plan` applied, plus the old grow path's
/// `replicas_per_dataset.max(target)` clamp.
fn legacy_plan(
    scdn: &Scdn,
    datasets: &[DatasetId],
    policy: &ReplicationPolicy,
    grow_floor: usize,
) -> Vec<(DatasetId, usize, usize)> {
    let mut out = Vec::new();
    for &d in datasets {
        let current = scdn.allocation().replicas_of(d).expect("known").len();
        let demand = scdn.allocation().demand_of(d).expect("known");
        let mut target = policy.target_replicas(current, demand);
        if policy.should_shrink(current, demand) {
            target = target
                .min(current.saturating_sub(1))
                .max(policy.min_replicas);
        }
        if target != current {
            let target = if target > current {
                target.max(grow_floor)
            } else {
                target
            };
            out.push((d, current, target));
        }
    }
    out
}

/// Drive the phased workload through maintenance cycles. `serial` selects
/// the oracle loop; `check_legacy` compares every cycle's static plan
/// against the recomputed pre-trait plan (pass it for static runs only,
/// and identically for the serial and piped executions so their metric
/// snapshots stay comparable).
fn run_mode(
    w: &Workload,
    rebalance: RebalanceStrategy,
    serial: bool,
    check_legacy: bool,
) -> ModeOutcome {
    let (mut scdn, datasets) = w.build(rebalance);
    let requests = w.requests();
    let members = scdn.member_count() as u32;
    let flash = datasets[w.flash_dataset()];
    let hits_ctr = scdn.registry().counter("alloc.demand.hits");
    let misses_ctr = scdn.registry().counter("alloc.demand.misses");
    let static_policy = StaticRebalance {
        policy: ReplicationPolicy::default(),
        grow_floor: 2,
    };
    let mut phases = Vec::with_capacity(PHASE_NAMES.len());
    let mut changes = Vec::new();
    let mut legacy_identical = true;
    let mut cursor = 0usize;
    for (p, name) in PHASE_NAMES.iter().enumerate() {
        let phase_start_ms = p as u64 * w.phase_ms;
        let hits0 = hits_ctr.get();
        let misses0 = misses_ctr.get();
        let bytes0 = scdn.cdn_metrics.bytes_transferred;
        let flash_start = scdn.replicas_of(flash).expect("known").len();
        let mut fed = 0usize;
        let slice_ms = w.phase_ms / w.cycles_per_phase as u64;
        for c in 0..w.cycles_per_phase {
            let slice_end = phase_start_ms + (c as u64 + 1) * slice_ms;
            while cursor < requests.len() && requests[cursor].at.as_millis() < slice_end {
                let r = requests[cursor];
                let _ = scdn.resolve_replica(NodeId(r.user as u32 % members), datasets[r.dataset]);
                cursor += 1;
                fed += 1;
            }
            scdn.tick(slice_ms);
            if check_legacy {
                let expected = legacy_plan(&scdn, &datasets, &static_policy.policy, 2);
                let got: Vec<_> = scdn
                    .allocation()
                    .rebalance_plan(&static_policy)
                    .triples()
                    .collect();
                if got != expected {
                    legacy_identical = false;
                }
            }
            changes.push(if serial {
                scdn.maintain_serial()
            } else {
                scdn.maintain()
            });
        }
        phases.push(PhaseStats {
            name,
            requests: fed,
            hits: hits_ctr.get() - hits0,
            misses: misses_ctr.get() - misses0,
            bytes: scdn.cdn_metrics.bytes_transferred - bytes0,
            flash_start,
            flash_end: scdn.replicas_of(flash).expect("known").len(),
        });
    }
    let catalog = datasets
        .iter()
        .map(|&d| {
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
            )
        })
        .collect();
    let final_counts: Vec<usize> = datasets
        .iter()
        .map(|&d| scdn.replicas_of(d).map(|r| r.len()).unwrap_or(0))
        .collect();
    ModeOutcome {
        total_bytes: phases.iter().map(|p| p.bytes).sum(),
        phases,
        changes,
        catalog,
        snapshot: comparable_snapshot(&scdn),
        sim_clock_ms: scdn.now().as_millis(),
        final_counts,
        legacy_identical,
    }
}

struct WorkloadReport {
    name: &'static str,
    nodes: usize,
    datasets: u32,
    replica_budget: usize,
    static_run: ModeOutcome,
    adaptive_run: ModeOutcome,
}

impl WorkloadReport {
    fn adaptive_wins_hit_rate(&self) -> bool {
        self.adaptive_run.hit_rate_pct() > self.static_run.hit_rate_pct()
    }

    fn adaptive_wins_bytes(&self) -> bool {
        self.adaptive_run.total_bytes < self.static_run.total_bytes
    }

    fn mode_json(outcome: &ModeOutcome) -> String {
        let phases = outcome
            .phases
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "          \"{}\": {{ \"requests\": {}, \"hit_rate_pct\": {:.2}, ",
                        "\"transfer_bytes\": {}, \"flash_replicas\": [{}, {}] }}"
                    ),
                    p.name,
                    p.requests,
                    p.hit_rate_pct(),
                    p.bytes,
                    p.flash_start,
                    p.flash_end,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let dist = distribution(&outcome.final_counts);
        format!(
            concat!(
                "{{\n",
                "        \"hit_rate_pct\": {:.2},\n",
                "        \"transfer_bytes\": {},\n",
                "        \"replica_changes\": {},\n",
                "        \"replicas\": {{ \"min\": {}, \"median\": {}, \"max\": {}, ",
                "\"total\": {} }},\n",
                "        \"phases\": {{\n{}\n        }}\n",
                "      }}"
            ),
            outcome.hit_rate_pct(),
            outcome.total_bytes,
            outcome.changes.iter().sum::<usize>(),
            dist.min,
            dist.median,
            dist.max,
            dist.total,
            phases,
        )
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"nodes\": {},\n",
                "      \"datasets\": {},\n",
                "      \"replica_budget\": {},\n",
                "      \"identical_outcomes\": true,\n",
                "      \"legacy_plan_identical\": {},\n",
                "      \"modes\": {{\n",
                "      \"static\": {},\n",
                "      \"adaptive\": {}\n",
                "      }},\n",
                "      \"adaptive_beats_static\": {{ \"hit_rate\": {}, ",
                "\"transfer_bytes\": {} }}\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.datasets,
            self.replica_budget,
            self.static_run.legacy_identical,
            Self::mode_json(&self.static_run),
            Self::mode_json(&self.adaptive_run),
            self.adaptive_wins_hit_rate(),
            self.adaptive_wins_bytes(),
        )
    }
}

fn run_workload(w: &Workload) -> WorkloadReport {
    eprintln!(
        "workload {}: {} nodes, {} datasets, {} phases x {} cycles...",
        w.name,
        w.nodes,
        w.datasets,
        PHASE_NAMES.len(),
        w.cycles_per_phase
    );
    // Identical-outcome gate: the static policy through the serial oracle
    // and the plan/commit pipeline must agree on everything.
    let static_serial = run_mode(w, RebalanceStrategy::Static, true, true);
    let static_piped = run_mode(w, RebalanceStrategy::Static, false, true);
    assert_eq!(
        static_serial.changes, static_piped.changes,
        "static per-cycle change counts diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        static_serial.catalog, static_piped.catalog,
        "static replica sets / catalog versions diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        static_serial.sim_clock_ms, static_piped.sim_clock_ms,
        "static simulated clock diverged between serial and piped on {}",
        w.name
    );
    assert_eq!(
        static_serial.snapshot, static_piped.snapshot,
        "static metric snapshot diverged between serial and piped on {}",
        w.name
    );
    // Legacy-plan gate: the Static impl reproduces the pre-trait plan.
    assert!(
        static_serial.legacy_identical && static_piped.legacy_identical,
        "StaticRebalance plan diverged from the recomputed pre-trait plan on {}",
        w.name
    );
    // Same total replica budget: the adaptive policy gets exactly the
    // storage the static run ended up spending.
    let budget: usize = static_piped.final_counts.iter().sum();
    let adaptive = run_mode(
        w,
        RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(budget)),
        false,
        false,
    );
    eprintln!(
        "  static    hit rate {:6.2}%  transfer {:>12} B  replicas {}",
        static_piped.hit_rate_pct(),
        static_piped.total_bytes,
        budget,
    );
    eprintln!(
        "  adaptive  hit rate {:6.2}%  transfer {:>12} B  replicas {}",
        adaptive.hit_rate_pct(),
        adaptive.total_bytes,
        adaptive.final_counts.iter().sum::<usize>(),
    );
    WorkloadReport {
        name: w.name,
        nodes: w.nodes,
        datasets: w.datasets,
        replica_budget: budget,
        static_run: static_piped,
        adaptive_run: adaptive,
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
        "\"schema\": \"scdn-bench-rebalance/v1\"",
        "\"workloads\"",
        "\"replica_budget\"",
        "\"identical_outcomes\": true",
        "\"legacy_plan_identical\": true",
        "\"static\"",
        "\"adaptive\"",
        "\"hit_rate_pct\"",
        "\"transfer_bytes\"",
        "\"replicas\"",
        "\"phases\"",
        "\"flash_crowd\"",
        "\"adaptive_beats_static\"",
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
            "  \"schema\": \"scdn-bench-rebalance/v1\",\n",
            "  \"description\": \"static vs adaptive rebalance policy under a phased ",
            "workload (uniform warm-up, Zipf skew sweep, flash crowd on a tail dataset, ",
            "cooldown); the adaptive policy's global replica budget equals the static ",
            "run's final replica spend, so the comparison isolates where the replicas ",
            "sit; static is gated bit-identical to the pre-trait maintain (serial vs ",
            "piped outcome + recomputed legacy plan)\",\n",
            "  \"workloads\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        body
    );
    if let Err(violations) = validate_report(&json) {
        eprintln!("bench_rebalance report FAILED validation:");
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
                "target/BENCH_rebalance_smoke.json".to_string()
            } else {
                "BENCH_rebalance.json".to_string()
            }
        });

    let workloads: Vec<Workload> = if smoke {
        vec![Workload {
            name: "ba_1500_smoke",
            nodes: 1_500,
            graph_seed: 5,
            datasets: 24,
            dataset_bytes: 64 << 10,
            phase_ms: 30_000,
            mean_interarrival_ms: 40.0,
            cycles_per_phase: 2,
        }]
    } else {
        vec![
            Workload {
                name: "ba_10k",
                nodes: 10_000,
                graph_seed: 21,
                datasets: 200,
                dataset_bytes: 64 << 10,
                phase_ms: 60_000,
                mean_interarrival_ms: 15.0,
                cycles_per_phase: 3,
            },
            Workload {
                name: "ba_100k",
                nodes: 100_000,
                graph_seed: 33,
                datasets: 300,
                dataset_bytes: 64 << 10,
                phase_ms: 60_000,
                mean_interarrival_ms: 10.0,
                cycles_per_phase: 3,
            },
        ]
    };

    let reports: Vec<WorkloadReport> = workloads.iter().map(run_workload).collect();
    for r in &reports {
        println!(
            "{:<16} n={:<7} budget={:<5} static {:.2}% vs adaptive {:.2}% hit rate; \
             bytes {} vs {}",
            r.name,
            r.nodes,
            r.replica_budget,
            r.static_run.hit_rate_pct(),
            r.adaptive_run.hit_rate_pct(),
            r.static_run.total_bytes,
            r.adaptive_run.total_bytes,
        );
    }
    if smoke {
        // CI sanity: the flash-crowd dataset must end the flash phase with
        // more replicas than it started under the adaptive policy.
        for r in &reports {
            let flash = &r.adaptive_run.phases[FLASH_PHASE];
            assert_eq!(flash.name, "flash_crowd");
            assert!(
                flash.flash_end > flash.flash_start,
                "adaptive policy did not grow the flash-crowd dataset on {} ({} -> {})",
                r.name,
                flash.flash_start,
                flash.flash_end
            );
        }
    }
    emit(&reports, &out_path)
}
