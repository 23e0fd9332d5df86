//! The two kinds of run.
//!
//! * [`run_end_to_end`] — tracing off. Epochs (fresh set-up, then the
//!   fixed operation list) repeat until `--seconds` of timed section
//!   have been measured; host-time metrics are medians over epochs,
//!   counted metrics come from the (identical) epochs' outcomes.
//! * [`run_traced`] — one untraced and one traced epoch, the layer
//!   probes, and a short two-worker replay; yields only per-layer
//!   metrics.
//!
//! Both run every output check and return `correct: false` with the
//! reason instead of numbers that cannot be trusted.

use std::time::Instant;

use scdn_core::system::ScdnConfig;
use scdn_graph::parallel::set_worker_limit;

use crate::checks::audit;
use crate::metrics::Values;
use crate::probes::{probe, UnitCosts};
use crate::run::{replay, Epoch, Kind};
use crate::spans::{self_times_ns, to_json, Recorder};
use crate::stats::{mean, median, percentile, sorted};
use crate::workloads::{Op, Plan, Sizes, Workload, CODED_K};
use crate::world::{self, splitmix64, World};

/// Epochs per end-to-end run: at least this many (so `setup_s` is a
/// median of several set-ups), at most this many (so a faster program
/// cannot push a run past the driver's budget with set-up alone).
const MIN_EPOCHS: usize = 3;
const MAX_EPOCHS: usize = 12;

/// Calibration: a dependent-load chase over a buffer far beyond L2.
const CHASE_BYTES: usize = 32 << 20;
const CHASE_HOPS: usize = 200_000;
const CHASE_ROUNDS: usize = 7;

#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Timed seconds an end-to-end run measures for.
    pub seconds: f64,
    pub smoke: bool,
    /// `(calls, bytes)` of the process's counting allocator.
    pub alloc_totals: fn() -> (u64, u64),
}

/// What one run reports.
pub struct Report {
    pub workload: Workload,
    /// The output check that failed, if one did.
    pub failure: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub outcome_digest: u64,
    /// Serving-call wall samples behind `serve_p50_ms` /
    /// `core.serve.p99_ms`.
    pub serve_samples: usize,
    pub epochs: usize,
    /// `requests_per_s` of each epoch, in order: a slow first epoch or a
    /// drifting host shows here before it shows in the median.
    pub epoch_rates: Vec<f64>,
    pub spans_json: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failure.is_none()
    }
}

struct Setup {
    world: World,
    plan: Plan,
    config: ScdnConfig,
    seconds: f64,
}

/// Graph generation → `Scdn::build` → publish/replicate → stream
/// generation → untimed warm-up.
fn set_up(workload: Workload, sizes: &Sizes, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let mut stream = seed;
    let config = workload.config(sizes, world::WORLD_SEED);
    let mut world = world::build(
        sizes.nodes,
        sizes.datasets,
        sizes.dataset_bytes,
        config.clone(),
        splitmix64(&mut stream),
    );
    let plan = workload.plan(&world, sizes, splitmix64(&mut stream));
    let warm = replay(
        workload,
        sizes,
        &mut world,
        &plan,
        &plan.warmup,
        &mut Recorder::new(false),
    );
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm.failed));
    }
    Ok(Setup {
        world,
        plan,
        config,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Forget the process's peak-RSS mark so the next in-process run reads
/// its own (`--repeat`). Best effort: without it peaks only ever rise.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes the catalog holds per byte published: whole replicas plus
/// coded blocks (requesters' own downloads are not catalogued).
fn stored_per_published(world: &World, sizes: &Sizes) -> f64 {
    let alloc = world.scdn.allocation();
    let block_len = sizes.dataset_bytes.div_ceil(usize::from(CODED_K));
    let stored: usize = world
        .datasets
        .iter()
        .map(|&d| {
            let replicas = alloc.replicas_of(d).map_or(0, |r| r.len());
            let blocks: usize = alloc
                .coded_inventory(d)
                .map_or(0, |inv| inv.iter().map(|(_, b)| b.len()).sum());
            replicas * sizes.dataset_bytes + blocks * block_len
        })
        .sum();
    stored as f64 / (sizes.datasets * sizes.dataset_bytes) as f64
}

fn failed_report(workload: Workload, reason: String) -> Report {
    Report {
        workload,
        failure: Some(reason),
        attempted: 1,
        failed: 1,
        values: Values::default(),
        outcome_digest: 0,
        serve_samples: 0,
        epochs: 0,
        epoch_rates: Vec::new(),
        spans_json: None,
    }
}

/// Check one finished epoch against the world it ran on.
fn verify(
    world: &World,
    sizes: &Sizes,
    epoch: &Epoch,
    reference: Option<u64>,
) -> Result<(), String> {
    if epoch.failed > 0 {
        return Err(format!(
            "{} of {} requests were refused, failed or short",
            epoch.failed, epoch.attempted
        ));
    }
    if let Some(digest) = reference {
        if digest != epoch.digest {
            return Err(format!(
                "outcome_digest {:016x} differs from the first epoch's {digest:016x}: \
                 the replay is not a function of the seed",
                epoch.digest
            ));
        }
    }
    audit(world, sizes, epoch)
}

pub fn run_end_to_end(workload: Workload, opts: &Options) -> Report {
    set_worker_limit(1);
    let sizes = workload.sizes(opts.smoke);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut serve_ms = Vec::new();
    let mut timed = 0.0;
    let mut first: Option<Epoch> = None;
    let mut stored = 0.0;
    loop {
        let Setup {
            mut world,
            plan,
            seconds,
            ..
        } = match set_up(workload, &sizes, opts.seed) {
            Ok(s) => s,
            Err(reason) => return failed_report(workload, reason),
        };
        setups.push(seconds);
        let epoch = replay(
            workload,
            &sizes,
            &mut world,
            &plan,
            &plan.ops,
            &mut Recorder::new(false),
        );
        if let Err(reason) = verify(&world, &sizes, &epoch, first.as_ref().map(|e| e.digest)) {
            return failed_report(workload, reason);
        }
        timed += epoch.wall_s;
        rates.push(epoch.attempted as f64 / epoch.wall_s);
        serve_ms.extend_from_slice(&epoch.serve_ms);
        let last_wall = epoch.wall_s;
        if first.is_none() {
            stored = stored_per_published(&world, &sizes);
            first = Some(epoch);
        }
        // Whole epochs only; stop at the count nearest to `--seconds`.
        let enough = timed + last_wall / 2.0 >= opts.seconds;
        if setups.len() >= MAX_EPOCHS || (setups.len() >= MIN_EPOCHS && enough) {
            break;
        }
    }
    let first = first.expect("at least one epoch ran");
    let serve_ms = sorted(serve_ms);
    let response_ms = sorted(first.response_ms.clone());
    let served = first.response_ms.len() as f64;
    let mut values = Values::default();
    values.set("requests_per_s", median(&sorted(rates.clone())));
    values.set("serve_p50_ms", percentile(&serve_ms, 0.5));
    values.set("served_share", served / first.attempted as f64);
    values.set("sim_response_mean_ms", mean(&first.response_ms));
    values.set("sim_response_p90_ms", percentile(&response_ms, 0.9));
    values.set(
        "transfer_bytes_per_request",
        first.transfer_bytes as f64 / first.attempted as f64,
    );
    values.set("stored_bytes_per_published_byte", stored);
    let epochs = setups.len();
    values.set("setup_s", median(&sorted(setups)));
    values.set("peak_rss_mib", peak_rss_mib());
    Report {
        workload,
        failure: None,
        attempted: first.attempted,
        failed: first.failed,
        values,
        outcome_digest: first.digest,
        serve_samples: serve_ms.len(),
        epochs,
        epoch_rates: rates,
        spans_json: None,
    }
}

/// A random single-cycle permutation walked by dependent loads.
struct Chase {
    next: Vec<u32>,
    at: u32,
}

impl Chase {
    fn new(bytes: usize, seed: u64) -> Chase {
        let n = (bytes / 4).max(2);
        let mut next: Vec<u32> = (0..n as u32).collect();
        // Sattolo's algorithm: one cycle through every slot.
        let mut state = seed;
        for i in (1..n).rev() {
            let j = (splitmix64(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        Chase { next, at: 0 }
    }

    /// Nanoseconds per hop over `hops` dependent loads.
    fn run(&mut self, hops: usize) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..hops {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        start.elapsed().as_nanos() as f64 / hops as f64
    }

    fn rounds(&mut self, samples: &mut Vec<f64>, hops: usize) {
        for _ in 0..CHASE_ROUNDS {
            samples.push(self.run(hops));
        }
    }
}

/// Registry counters read before and after the traced epoch.
const COUNTERS: [&str; 12] = [
    "alloc.resolve.cache.hit",
    "alloc.resolve.cache.miss",
    "alloc.resolve.cache.evict",
    "core.batch.replans",
    "core.batch.snapshot_reuse",
    "core.maintain.planned",
    "core.maintain.replanned",
    "core.maintain.ranking_cache_hit",
    "core.maintain.ranking_cache_miss",
    "net.attempts.delivered",
    "net.attempts.lost",
    "net.attempts.corrupted",
];

fn read_counters(world: &World) -> [u64; COUNTERS.len()] {
    let registry = world.scdn.registry();
    COUNTERS.map(|name| registry.counter(name).get())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Requests the timed ops issue through each serving path.
fn requests_by_path(ops: &[Op]) -> (f64, f64, f64) {
    let (mut batch, mut single, mut coded) = (0usize, 0usize, 0usize);
    for op in ops {
        match *op {
            Op::Batch { len, .. } => batch += len,
            Op::Single(_) => single += 1,
            Op::Coded(_) => coded += 1,
            _ => {}
        }
    }
    (batch as f64, single as f64, coded as f64)
}

/// Everything the traced run measured, before it becomes metrics.
struct Traced {
    /// Tracing off: the reference wall for the overhead reading.
    untraced: Epoch,
    traced: Epoch,
    /// The first quarter of the operations with two planning workers.
    two_workers: Epoch,
    counters: [f64; COUNTERS.len()],
    traces: f64,
    allocs: (f64, f64),
    unit: UnitCosts,
    phases: world::SetupPhases,
    generate_requests_ms: f64,
    generate_churn_ms: f64,
    paths: (f64, f64, f64),
    recorder: Recorder,
    hop_ns: Vec<f64>,
    chase_hops: usize,
}

impl Traced {
    fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("listed counter");
        self.counters[i]
    }
}

fn measure_traced(workload: Workload, sizes: &Sizes, opts: &Options) -> Result<Traced, String> {
    let (chase_bytes, chase_hops, block) = if opts.smoke {
        (1 << 20, 20_000, 50)
    } else {
        (CHASE_BYTES, CHASE_HOPS, 1000)
    };
    let mut chase = Chase::new(chase_bytes, opts.seed);
    let mut hop_ns = Vec::new();
    let off = || Recorder::new(false);

    chase.rounds(&mut hop_ns, chase_hops);
    let mut a = set_up(workload, sizes, opts.seed)?;
    let untraced = replay(
        workload,
        sizes,
        &mut a.world,
        &a.plan,
        &a.plan.ops,
        &mut off(),
    );
    drop(a);

    chase.rounds(&mut hop_ns, chase_hops);
    let mut b = set_up(workload, sizes, opts.seed)?;
    let mut recorder = Recorder::new(true);
    let counters_before = read_counters(&b.world);
    let traces_before = b.world.scdn.traces().total_recorded();
    let allocs_before = (opts.alloc_totals)();
    let traced = replay(
        workload,
        sizes,
        &mut b.world,
        &b.plan,
        &b.plan.ops,
        &mut recorder,
    );
    let allocs_after = (opts.alloc_totals)();
    let counters_after = read_counters(&b.world);
    let traces = (b.world.scdn.traces().total_recorded() - traces_before) as f64;
    verify(&b.world, sizes, &traced, Some(untraced.digest))?;

    // Probes mutate the system, so they follow the checks.
    chase.rounds(&mut hop_ns, chase_hops);
    let unit = probe(sizes, &b.config, &b.world, &b.plan, block);
    let phases = b.world.phases;
    let generate_requests_ms = b.plan.generate_requests_ms;
    let generate_churn_ms = b.plan.generate_churn_ms;
    let paths = requests_by_path(&b.plan.ops);
    drop(b);

    chase.rounds(&mut hop_ns, chase_hops);
    let mut c = set_up(workload, sizes, opts.seed)?;
    let quarter = &c.plan.ops[..c.plan.ops.len() / 4];
    set_worker_limit(2);
    let two_workers = replay(workload, sizes, &mut c.world, &c.plan, quarter, &mut off());
    set_worker_limit(1);
    drop(c);
    chase.rounds(&mut hop_ns, chase_hops);
    if two_workers.digest != untraced.quarter_digest {
        return Err("two planning workers changed the outcome sequence".to_string());
    }

    let mut counters = [0.0; COUNTERS.len()];
    for (delta, (after, before)) in counters
        .iter_mut()
        .zip(counters_after.iter().zip(&counters_before))
    {
        *delta = (after - before) as f64;
    }
    Ok(Traced {
        untraced,
        traced,
        two_workers,
        counters,
        traces,
        allocs: (
            (allocs_after.0 - allocs_before.0) as f64,
            (allocs_after.1 - allocs_before.1) as f64,
        ),
        unit,
        phases,
        generate_requests_ms,
        generate_churn_ms,
        paths,
        recorder,
        hop_ns,
        chase_hops,
    })
}

pub fn run_traced(workload: Workload, opts: &Options) -> Report {
    set_worker_limit(1);
    let sizes = workload.sizes(opts.smoke);
    let t = match measure_traced(workload, &sizes, opts) {
        Ok(t) => t,
        Err(reason) => return failed_report(workload, reason),
    };
    let epoch = &t.traced;
    let unit = &t.unit;
    let requests = epoch.attempted as f64;
    let wall_ns = epoch.wall_s * 1e9;
    let r_batch = t.paths.0;
    // Mean wall of one call of `kind`, in units of `scale` ns.
    let per_call = |kind: Kind, scale: f64| {
        let tally = epoch.tally(kind);
        ratio(tally.ns as f64 / scale, tally.calls as f64)
    };
    let hit = t.counter("alloc.resolve.cache.hit");
    let miss = t.counter("alloc.resolve.cache.miss");
    let ranking_hit = t.counter("core.maintain.ranking_cache_hit");
    let ranking_miss = t.counter("core.maintain.ranking_cache_miss");
    let delivered = t.counter("net.attempts.delivered");
    let attempts = delivered + t.counter("net.attempts.lost") + t.counter("net.attempts.corrupted");

    let mut v = Values::default();
    v.set(
        "core.request_batch.us_per_request",
        ratio(epoch.tally(Kind::Batch).ns as f64 / 1e3, r_batch),
    );
    v.set("core.request.us_per_call", per_call(Kind::Single, 1e3));
    v.set("core.request_coded.us_per_call", per_call(Kind::Coded, 1e3));
    v.set("core.maintain.ms_per_cycle", per_call(Kind::Maintain, 1e6));
    v.set("core.repair.ms_per_cycle", per_call(Kind::Repair, 1e6));
    v.set(
        "core.apply_graph_delta.ms_per_delta",
        per_call(Kind::Delta, 1e6),
    );
    v.set("core.depart.us_per_call", per_call(Kind::Depart, 1e3));
    v.set(
        "core.background.wall_share",
        epoch.background_ns() as f64 / wall_ns,
    );
    v.set(
        "core.batch.replan_ratio",
        ratio(t.counter("core.batch.replans"), requests),
    );
    v.set(
        "core.maintain.replan_ratio",
        ratio(
            t.counter("core.maintain.replanned"),
            t.counter("core.maintain.planned"),
        ),
    );
    v.set(
        "core.batch.snapshot_reuse_ratio",
        ratio(t.counter("core.batch.snapshot_reuse"), requests),
    );
    v.set(
        "core.maintenance.bytes_per_request",
        epoch.maintenance_bytes as f64 / requests,
    );
    let serve_ms = sorted(epoch.serve_ms.clone());
    v.set("core.serve.p99_ms", percentile(&serve_ms, 0.99));
    v.set(
        "core.request_batch.speedup_2w",
        t.untraced.quarter_wall_s / t.two_workers.wall_s,
    );
    v.set("core.build.s", t.phases.core_build_s);
    v.set(
        "core.publish_replicate.ms_per_dataset",
        t.phases.publish_replicate_ms_per_dataset,
    );

    let shares = estimate_shares(&t, &sizes, workload == Workload::CodedRepair);
    v.set(
        "core.unattributed_share",
        1.0 - shares.iter().map(|&(_, ns)| ns / wall_ns).sum::<f64>(),
    );
    for (name, ns) in shares {
        v.set(name, ns / wall_ns);
    }

    v.set("alloc.snapshot.us_per_call", unit.snapshot_us);
    v.set("alloc.resolve_hit.us_per_call", unit.resolve_hit_us);
    v.set("alloc.resolve_miss.us_per_call", unit.resolve_miss_us);
    v.set("alloc.resolve_cache.hit_ratio", ratio(hit, hit + miss));
    v.set(
        "alloc.resolve_cache.evictions_per_kreq",
        ratio(t.counter("alloc.resolve.cache.evict") * 1e3, requests),
    );
    v.set(
        "alloc.resolve_cache.retained_ratio",
        ratio(
            epoch.delta_retained as f64,
            (epoch.delta_retained + epoch.delta_evicted) as f64,
        ),
    );
    v.set(
        "alloc.commit_resolution.us_per_call",
        unit.commit_resolution_us,
    );
    v.set("alloc.rebalance_plan.ms_per_call", unit.rebalance_plan_ms);
    v.set(
        "alloc.note_graph_delta.ms_per_call",
        unit.note_graph_delta_ms,
    );
    v.set("alloc.ranking.ms_per_miss", unit.ranking_ms);
    v.set(
        "alloc.ranking_cache.hit_ratio",
        ratio(ranking_hit, ranking_hit + ranking_miss),
    );
    v.set(
        "alloc.social_hit_ratio",
        ratio(epoch.social_hits as f64, epoch.response_ms.len() as f64),
    );
    v.set("graph.bfs_to_targets.us_per_call", unit.bfs_us);
    v.set("graph.apply_delta.ms_per_delta", unit.apply_delta_ms);
    v.set(
        "graph.apply_delta.bytes_copied_per_delta",
        unit.bytes_copied_per_delta,
    );
    v.set(
        "graph.apply_delta.chunks_shared_ratio",
        unit.chunks_shared_ratio,
    );
    v.set("graph.freeze.ms", unit.freeze_ms);
    v.set("graph.generate.s", t.phases.graph_generate_s);
    v.set("middleware.peek_op.ns_per_call", unit.peek_ns);
    v.set("middleware.authorize_op.ns_per_call", unit.authorize_ns);
    v.set("net.simulate_segment.ns_per_call", unit.simulate_ns);
    v.set(
        "net.transfer_many.us_per_segment",
        unit.transfer_many_us_per_segment,
    );
    v.set("net.transfer_coded.us_per_fetch", unit.transfer_coded_us);
    v.set("net.attempts_per_request", attempts / requests);
    v.set("net.retry_ratio", ratio(attempts - delivered, attempts));
    v.set("storage.checksum.mib_per_s", unit.checksum_mib_s);
    v.set("storage.store.us_per_segment", unit.store_us);
    v.set("storage.fetch.us_per_segment", unit.fetch_us);
    v.set("storage.cache_touch.ns_per_segment", unit.touch_ns);
    v.set("storage.encode.mib_per_s", unit.encode_mib_s);
    v.set("storage.decode.mib_per_s", unit.decode_mib_s);
    v.set("obs.snapshot_export.ms", unit.snapshot_export_ms);
    v.set("obs.trace_record.us_per_trace", unit.trace_record_us);
    v.set("obs.traces_recorded_per_request", t.traces / requests);
    v.set("sim.generate_requests.ms", t.generate_requests_ms);
    v.set("sim.generate_churn.ms", t.generate_churn_ms);
    v.set("social.corpus_build.ms", t.phases.corpus_build_ms);
    v.set("trust.subgraph_build.ms", t.phases.subgraph_build_ms);

    v.set(
        "harness.trace_overhead_share",
        epoch.wall_s / t.untraced.wall_s - 1.0,
    );
    let spans = t.recorder.spans();
    v.set(
        "harness.generator_share",
        ratio(
            self_times_ns(spans)[0] as f64,
            spans[0].duration_ns() as f64,
        ),
    );
    let hop = median(&sorted(t.hop_ns.clone()));
    v.set("harness.calibration.ns_per_hop", hop);
    v.set(
        "harness.calibrated_cost",
        wall_ns / (hop * t.chase_hops as f64),
    );
    v.set("harness.allocs_per_request", t.allocs.0 / requests);
    v.set("harness.alloc_bytes_per_request", t.allocs.1 / requests);

    Report {
        workload,
        failure: None,
        attempted: epoch.attempted,
        failed: epoch.failed,
        values: v,
        outcome_digest: epoch.digest,
        serve_samples: serve_ms.len(),
        epochs: 1,
        epoch_rates: vec![requests / epoch.wall_s],
        spans_json: Some(to_json(spans)),
    }
}

/// Unit cost × observed count, per layer, in nanoseconds of the traced
/// epoch's wall.
fn estimate_shares(t: &Traced, sizes: &Sizes, coded: bool) -> [(&'static str, f64); 6] {
    let (e, u) = (&t.traced, &t.unit);
    let (r_batch, r_single, r_coded) = t.paths;
    let hits = t.counter("alloc.resolve.cache.hit");
    let misses = t.counter("alloc.resolve.cache.miss");
    let replans = t.counter("core.batch.replans");
    let ranking_misses = t.counter("core.maintain.ranking_cache_miss");
    let served = e.response_ms.len() as f64;
    let len = sizes.dataset_bytes as f64;
    let mib = len / (1 << 20) as f64;
    let k = f64::from(CODED_K);
    // Units moved: plain segments, or coded blocks on the coded workload.
    let (serve_units, unit_bytes) = if coded {
        (served * k, len / k)
    } else {
        let unit = sizes.dataset_bytes.min(sizes.segment_size) as f64;
        (served * sizes.segments_per_dataset() as f64, unit)
    };
    let maintenance_units = e.maintenance_bytes as f64 / unit_bytes;
    let deltas = e.tally(Kind::Delta).calls as f64;
    let maintains = e.tally(Kind::Maintain).calls as f64;
    let snapshots = (e.tally(Kind::Batch).calls + e.tally(Kind::Single).calls) as f64 + replans;

    let middleware = (r_batch + r_single) * (u.peek_ns + u.authorize_ns) + r_coded * u.authorize_ns;
    // The BFS inside a miss is the graph layer's, not alloc's.
    let alloc = snapshots * u.snapshot_us * 1e3
        + hits * u.resolve_hit_us * 1e3
        + misses * (u.resolve_miss_us - u.bfs_us).max(0.0) * 1e3
        + served * u.commit_resolution_us * 1e3
        + maintains * u.rebalance_plan_ms * 1e6
        + deltas * u.note_graph_delta_ms * 1e6
        + ranking_misses * u.ranking_ms * 1e6;
    let graph = misses * u.bfs_us * 1e3 + deltas * u.apply_delta_ms * 1e6;
    let net = (serve_units + maintenance_units) * u.simulate_ns;
    let storage = if coded {
        // A coded fetch reads each block at its donor and again for the
        // decode, stores it once, decodes, and re-checksums the plain
        // segments; a repair re-reads and re-encodes each hit dataset.
        let fetch = k * (2.0 * u.fetch_us + u.store_us) * 1e3
            + mib / u.decode_mib_s * 1e9
            + mib / u.checksum_mib_s * 1e9;
        let repair = mib / u.encode_mib_s * 1e9 + mib / u.checksum_mib_s * 1e9;
        served * fetch
            + e.datasets_hit_by_departure as f64 * repair
            + maintenance_units * u.store_us * 1e3
    } else {
        (serve_units + maintenance_units) * (u.fetch_us + u.store_us) * 1e3
            + serve_units * u.touch_ns
    };
    let obs = t.traces * u.trace_record_us * 1e3;
    [
        ("alloc.est_share", alloc),
        ("graph.est_share", graph),
        ("middleware.est_share", middleware),
        ("net.est_share", net),
        ("storage.est_share", storage),
        ("obs.est_share", obs),
    ]
}
