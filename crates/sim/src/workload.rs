//! Request workload generation: Zipf-distributed dataset popularity and
//! Poisson request arrivals, implemented from first principles (the offline
//! crate set has `rand` but no distribution crates).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::SimTime;

/// Zipf sampler over `0..n` with exponent `s` (inverse-CDF lookup table).
///
/// Item `k` has probability ∝ `1 / (k+1)^s`. `s = 0` degenerates to a
/// uniform distribution; larger `s` concentrates mass on early items —
/// modelling the "long-tail nature" of research data the paper contrasts
/// with high-profile CDN content.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` items with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating error on the last entry.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if the sampler holds no items. Always `false` in practice:
    /// [`Zipf::new`] panics on `n == 0`, so every constructed sampler has
    /// at least one item. Provided for the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample an item index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of item `k`.
    pub fn probability(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// A single data-access request in the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arrival time.
    pub at: SimTime,
    /// Requesting user (index into the S-CDN membership).
    pub user: usize,
    /// Requested dataset (index into the catalog).
    pub dataset: usize,
}

/// Configuration for [`generate_requests`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of users issuing requests.
    pub users: usize,
    /// Number of datasets.
    pub datasets: usize,
    /// Zipf exponent for dataset popularity (0 = uniform).
    pub popularity_exponent: f64,
    /// Zipf exponent for user activity (0 = uniform).
    pub activity_exponent: f64,
    /// Mean request inter-arrival time in milliseconds (Poisson process).
    pub mean_interarrival_ms: f64,
    /// Total number of requests to generate.
    pub count: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            users: 100,
            datasets: 50,
            popularity_exponent: 0.9,
            activity_exponent: 0.6,
            mean_interarrival_ms: 1_000.0,
            count: 1_000,
        }
    }
}

/// Generate a deterministic Poisson/Zipf request stream.
pub fn generate_requests(cfg: &WorkloadConfig) -> Vec<Request> {
    assert!(cfg.users > 0 && cfg.datasets > 0, "need users and datasets");
    assert!(
        cfg.mean_interarrival_ms > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop = Zipf::new(cfg.datasets, cfg.popularity_exponent);
    let act = Zipf::new(cfg.users, cfg.activity_exponent);
    let mut out = Vec::with_capacity(cfg.count);
    let mut t = 0.0f64;
    for _ in 0..cfg.count {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -cfg.mean_interarrival_ms * u.ln();
        out.push(Request {
            at: SimTime::from_millis(t as u64),
            user: act.sample(&mut rng),
            dataset: pop.sample(&mut rng),
        });
    }
    out
}

/// One phase of a scripted workload: a fixed-duration regime with its own
/// popularity skew, request rate, and optional flash crowd. Phases run
/// back to back, so a script models a popularity *phase change* — the
/// pattern adaptive replication must track (warm-up → skew shift → flash
/// crowd → cooldown).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadPhase {
    /// Phase length, milliseconds.
    pub duration_ms: u64,
    /// Zipf exponent for dataset popularity during this phase.
    pub popularity_exponent: f64,
    /// Mean request inter-arrival time during this phase, milliseconds.
    pub mean_interarrival_ms: f64,
    /// Flash crowd riding on the phase, if any.
    pub flash: Option<FlashCrowd>,
}

/// A flash crowd within one [`WorkloadPhase`]: `fraction` of the phase's
/// requests are redirected to one dataset regardless of its Zipf rank.
#[derive(Clone, Copy, Debug)]
pub struct FlashCrowd {
    /// The dataset everyone suddenly wants.
    pub dataset: usize,
    /// Fraction of the phase's requests (0..=1) that target it.
    pub fraction: f64,
}

/// Configuration for [`generate_phased_requests`].
#[derive(Clone, Debug)]
pub struct PhasedWorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of users issuing requests.
    pub users: usize,
    /// Number of datasets.
    pub datasets: usize,
    /// Zipf exponent for user activity (constant across phases).
    pub activity_exponent: f64,
    /// The phase script, executed in order.
    pub phases: Vec<WorkloadPhase>,
}

/// Generate a deterministic multi-phase request stream: each phase is a
/// Poisson/Zipf regime over its time slice, with optional flash-crowd
/// redirection. The output is time-sorted by construction and phases are
/// contiguous (phase `i+1` starts where phase `i` ended), so a driver can
/// split the stream back into phases by arrival time.
pub fn generate_phased_requests(cfg: &PhasedWorkloadConfig) -> Vec<Request> {
    assert!(cfg.users > 0 && cfg.datasets > 0, "need users and datasets");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let act = Zipf::new(cfg.users, cfg.activity_exponent);
    let mut out = Vec::new();
    let mut phase_start = 0.0f64;
    for phase in &cfg.phases {
        assert!(
            phase.mean_interarrival_ms > 0.0,
            "mean inter-arrival must be positive"
        );
        if let Some(f) = phase.flash {
            assert!(f.dataset < cfg.datasets, "flash dataset out of range");
            assert!(
                (0.0..=1.0).contains(&f.fraction),
                "flash fraction must be in 0..=1"
            );
        }
        let pop = Zipf::new(cfg.datasets, phase.popularity_exponent);
        let end = phase_start + phase.duration_ms as f64;
        let mut t = phase_start;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -phase.mean_interarrival_ms * u.ln();
            if t >= end {
                break;
            }
            let dataset = match phase.flash {
                Some(f) if rng.gen::<f64>() < f.fraction => f.dataset,
                _ => pop.sample(&mut rng),
            };
            out.push(Request {
                at: SimTime::from_millis(t as u64),
                user: act.sample(&mut rng),
                dataset,
            });
        }
        phase_start = end;
    }
    out
}

/// One social-graph mutation in a churn stream. Endpoints are membership
/// indices (same space as [`Request::user`]); the driver maps them onto
/// `NodeId`s and batches consecutive ops into one `GraphDelta`.
///
/// `Leave`/`Join` model collaboration-level churn, not membership churn:
/// a member whose active coauthorships all lapse (leave) or who forms a
/// fresh set of ties (join). The S-CDN membership itself is fixed at
/// build time, so the driver translates `Leave` into removing the node's
/// incident edges and `Join` into adding edges to `peers`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new coauthorship tie between `a` and `b`.
    AddEdge { a: usize, b: usize, weight: u32 },
    /// A lapsed tie between `a` and `b` (tolerant: may already be gone).
    RemoveEdge { a: usize, b: usize },
    /// All of `node`'s active ties lapse at once.
    Leave { node: usize },
    /// `node` (re-)activates with fresh ties to `peers`.
    Join { node: usize, peers: Vec<usize> },
}

/// A timed churn op within a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the mutation lands.
    pub at: SimTime,
    /// What changes.
    pub op: ChurnOp,
}

/// Configuration for [`generate_churn`]. The four `*_weight` fields set
/// the relative frequency of each op kind (they need not sum to one;
/// zero disables a kind).
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// RNG seed.
    pub seed: u64,
    /// Membership size — op endpoints are drawn from `0..users`.
    pub users: usize,
    /// Mean churn inter-arrival time in milliseconds (Poisson process).
    pub mean_interarrival_ms: f64,
    /// Total number of churn events to generate.
    pub count: usize,
    /// Relative frequency of `AddEdge`.
    pub add_edge_weight: f64,
    /// Relative frequency of `RemoveEdge`.
    pub remove_edge_weight: f64,
    /// Relative frequency of `Leave`.
    pub leave_weight: f64,
    /// Relative frequency of `Join`.
    pub join_weight: f64,
    /// Number of fresh ties a `Join` forms.
    pub join_degree: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 42,
            users: 100,
            mean_interarrival_ms: 10_000.0,
            count: 100,
            add_edge_weight: 4.0,
            remove_edge_weight: 4.0,
            leave_weight: 1.0,
            join_weight: 1.0,
            join_degree: 3,
        }
    }
}

/// Generate a deterministic Poisson churn stream over the membership.
///
/// `RemoveEdge` preferentially targets ties the stream itself added
/// earlier (so removals usually hit live edges rather than no-oping);
/// when none exist yet it falls back to a random pair, which the
/// tolerant `remove_edge` semantics absorb. Self-loops are never
/// emitted. The stream is time-sorted by construction.
pub fn generate_churn(cfg: &ChurnConfig) -> Vec<ChurnEvent> {
    assert!(cfg.users >= 2, "churn needs at least two members");
    assert!(
        cfg.mean_interarrival_ms > 0.0,
        "mean inter-arrival must be positive"
    );
    let total = cfg.add_edge_weight + cfg.remove_edge_weight + cfg.leave_weight + cfg.join_weight;
    assert!(
        total > 0.0 && total.is_finite(),
        "at least one op kind must have positive weight"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.count);
    // Ties this stream has added and not yet removed, so removals bite.
    let mut live: Vec<(usize, usize)> = Vec::new();
    let mut t = 0.0f64;
    let pair = |rng: &mut StdRng| loop {
        let a = rng.gen_range(0..cfg.users);
        let b = rng.gen_range(0..cfg.users);
        if a != b {
            return (a, b);
        }
    };
    for _ in 0..cfg.count {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -cfg.mean_interarrival_ms * u.ln();
        let roll: f64 = rng.gen_range(0.0..total);
        let op = if roll < cfg.add_edge_weight {
            let (a, b) = pair(&mut rng);
            live.push((a, b));
            ChurnOp::AddEdge {
                a,
                b,
                weight: rng.gen_range(1..5),
            }
        } else if roll < cfg.add_edge_weight + cfg.remove_edge_weight {
            let (a, b) = if live.is_empty() {
                pair(&mut rng)
            } else {
                live.swap_remove(rng.gen_range(0..live.len()))
            };
            ChurnOp::RemoveEdge { a, b }
        } else if roll < cfg.add_edge_weight + cfg.remove_edge_weight + cfg.leave_weight {
            let node = rng.gen_range(0..cfg.users);
            live.retain(|&(a, b)| a != node && b != node);
            ChurnOp::Leave { node }
        } else {
            let node = rng.gen_range(0..cfg.users);
            let mut peers = Vec::with_capacity(cfg.join_degree);
            while peers.len() < cfg.join_degree.min(cfg.users - 1) {
                let p = rng.gen_range(0..cfg.users);
                if p != node && !peers.contains(&p) {
                    peers.push(p);
                }
            }
            for &p in &peers {
                live.push((node, p));
            }
            ChurnOp::Join { node, peers }
        };
        out.push(ChurnEvent {
            at: SimTime::from_millis(t as u64),
            op,
        });
    }
    out
}

/// One event of a merged request+churn stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// A data-access request.
    Request(Request),
    /// A social-graph mutation.
    Churn(ChurnEvent),
}

impl StreamEvent {
    /// Arrival time of the event.
    pub fn at(&self) -> SimTime {
        match self {
            StreamEvent::Request(r) => r.at,
            StreamEvent::Churn(c) => c.at,
        }
    }
}

/// Merge a time-sorted request stream with a time-sorted churn stream
/// into one chronological event stream. At equal timestamps churn lands
/// first, so a request issued "at" a mutation already observes it — the
/// same order a driver applying deltas between request batches produces.
/// The merge is stable within each input.
pub fn interleave_churn(requests: &[Request], churn: &[ChurnEvent]) -> Vec<StreamEvent> {
    let mut out = Vec::with_capacity(requests.len() + churn.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < requests.len() && j < churn.len() {
        if churn[j].at <= requests[i].at {
            out.push(StreamEvent::Churn(churn[j].clone()));
            j += 1;
        } else {
            out.push(StreamEvent::Request(requests[i]));
            i += 1;
        }
    }
    out.extend(requests[i..].iter().copied().map(StreamEvent::Request));
    out.extend(churn[j..].iter().cloned().map(StreamEvent::Churn));
    out
}

/// Superimpose a flash crowd on a base workload: between `start` and `end`,
/// extra requests for `dataset` arrive at `burst_interarrival_ms` mean
/// spacing from random users. Returns a merged, time-sorted stream — the
/// "peak usage" pattern CDNs exist to absorb.
pub fn with_flash_crowd(
    base: &[Request],
    users: usize,
    dataset: usize,
    start: SimTime,
    end: SimTime,
    burst_interarrival_ms: f64,
    seed: u64,
) -> Vec<Request> {
    assert!(users > 0, "need users");
    assert!(start < end, "empty flash window");
    assert!(
        burst_interarrival_ms > 0.0,
        "positive inter-arrival required"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut merged: Vec<Request> = base.to_vec();
    let mut t = start.as_millis() as f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -burst_interarrival_ms * u.ln();
        if t >= end.as_millis() as f64 {
            break;
        }
        merged.push(Request {
            at: SimTime::from_millis(t as u64),
            user: rng.gen_range(0..users),
            dataset,
        });
    }
    merged.sort_by_key(|r| r.at);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = Zipf::new(20, 1.0);
        let total: f64 = (0..20).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(10, 1.2);
        for k in 1..10 {
            assert!(z.probability(k) <= z.probability(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_zero_exponent_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_empirical_skew() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-10 of 100 items under s=1 carry ~56% of the mass.
        let frac = head as f64 / N as f64;
        assert!((0.5..0.65).contains(&frac), "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn zipf_single_item_is_not_empty() {
        let z = Zipf::new(1, 1.3);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty(), "one item is non-empty");
        assert!((z.probability(0) - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn requests_sorted_and_in_range() {
        let cfg = WorkloadConfig {
            count: 500,
            ..Default::default()
        };
        let reqs = generate_requests(&cfg);
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for r in &reqs {
            assert!(r.user < cfg.users);
            assert!(r.dataset < cfg.datasets);
        }
    }

    #[test]
    fn requests_deterministic_by_seed() {
        let cfg = WorkloadConfig::default();
        assert_eq!(generate_requests(&cfg), generate_requests(&cfg));
    }

    #[test]
    fn flash_crowd_concentrates_on_target() {
        let base = generate_requests(&WorkloadConfig {
            count: 200,
            mean_interarrival_ms: 1_000.0,
            ..Default::default()
        });
        let merged = with_flash_crowd(
            &base,
            100,
            7,
            SimTime::from_secs(30),
            SimTime::from_secs(60),
            50.0,
            5,
        );
        assert!(merged.len() > base.len() + 300, "burst adds ~600 requests");
        for w in merged.windows(2) {
            assert!(w[0].at <= w[1].at, "stream stays sorted");
        }
        // Inside the window the burst dataset dominates.
        let in_window: Vec<_> = merged
            .iter()
            .filter(|r| r.at >= SimTime::from_secs(30) && r.at < SimTime::from_secs(60))
            .collect();
        let on_target = in_window.iter().filter(|r| r.dataset == 7).count();
        assert!(
            on_target * 10 > in_window.len() * 8,
            "target >= 80% of window"
        );
    }

    #[test]
    fn phased_stream_is_sorted_contiguous_and_deterministic() {
        let cfg = PhasedWorkloadConfig {
            seed: 11,
            users: 50,
            datasets: 30,
            activity_exponent: 0.5,
            phases: vec![
                WorkloadPhase {
                    duration_ms: 20_000,
                    popularity_exponent: 0.0,
                    mean_interarrival_ms: 40.0,
                    flash: None,
                },
                WorkloadPhase {
                    duration_ms: 20_000,
                    popularity_exponent: 1.2,
                    mean_interarrival_ms: 20.0,
                    flash: None,
                },
            ],
        };
        let reqs = generate_phased_requests(&cfg);
        assert_eq!(reqs, generate_phased_requests(&cfg), "seeded determinism");
        for w in reqs.windows(2) {
            assert!(w[0].at <= w[1].at, "stream stays sorted");
        }
        for r in &reqs {
            assert!(r.user < cfg.users);
            assert!(r.dataset < cfg.datasets);
        }
        // Both phases produced traffic in their own time slice.
        let cut = SimTime::from_millis(20_000);
        let first = reqs.iter().filter(|r| r.at < cut).count();
        let second = reqs.len() - first;
        assert!(first > 100, "phase one generated traffic ({first})");
        assert!(second > 100, "phase two generated traffic ({second})");
        // Phase two's skew concentrates on the head; phase one's uniform
        // regime does not.
        let head = |rs: &[&Request]| rs.iter().filter(|r| r.dataset < 3).count();
        let p1: Vec<&Request> = reqs.iter().filter(|r| r.at < cut).collect();
        let p2: Vec<&Request> = reqs.iter().filter(|r| r.at >= cut).collect();
        assert!(
            head(&p2) * p1.len() > 2 * head(&p1) * p2.len(),
            "skewed phase concentrates on the head"
        );
    }

    #[test]
    fn phased_flash_crowd_redirects_the_requested_fraction() {
        let cfg = PhasedWorkloadConfig {
            seed: 23,
            users: 40,
            datasets: 25,
            activity_exponent: 0.0,
            phases: vec![WorkloadPhase {
                duration_ms: 60_000,
                popularity_exponent: 0.8,
                mean_interarrival_ms: 15.0,
                flash: Some(FlashCrowd {
                    // A tail dataset nobody would hit this hard organically.
                    dataset: 24,
                    fraction: 0.7,
                }),
            }],
        };
        let reqs = generate_phased_requests(&cfg);
        let on_target = reqs.iter().filter(|r| r.dataset == 24).count();
        let frac = on_target as f64 / reqs.len() as f64;
        assert!((0.6..0.85).contains(&frac), "flash fraction = {frac}");
    }

    #[test]
    fn churn_stream_is_sorted_deterministic_and_in_range() {
        let cfg = ChurnConfig {
            seed: 7,
            users: 40,
            count: 300,
            ..Default::default()
        };
        let churn = generate_churn(&cfg);
        assert_eq!(churn.len(), 300);
        assert_eq!(churn, generate_churn(&cfg), "seeded determinism");
        for w in churn.windows(2) {
            assert!(w[0].at <= w[1].at, "stream stays sorted");
        }
        let in_range = |v: usize| v < cfg.users;
        for e in &churn {
            match &e.op {
                ChurnOp::AddEdge { a, b, weight } => {
                    assert!(in_range(*a) && in_range(*b) && a != b);
                    assert!(*weight >= 1);
                }
                ChurnOp::RemoveEdge { a, b } => {
                    assert!(in_range(*a) && in_range(*b) && a != b);
                }
                ChurnOp::Leave { node } => assert!(in_range(*node)),
                ChurnOp::Join { node, peers } => {
                    assert!(in_range(*node));
                    assert_eq!(peers.len(), cfg.join_degree, "full join degree");
                    for (i, p) in peers.iter().enumerate() {
                        assert!(in_range(*p) && p != node, "peer valid");
                        assert!(!peers[..i].contains(p), "peers distinct");
                    }
                }
            }
        }
        // All four kinds occur at the default weights over 300 events.
        let count = |f: fn(&ChurnOp) -> bool| churn.iter().filter(|e| f(&e.op)).count();
        assert!(count(|o| matches!(o, ChurnOp::AddEdge { .. })) > 0);
        assert!(count(|o| matches!(o, ChurnOp::RemoveEdge { .. })) > 0);
        assert!(count(|o| matches!(o, ChurnOp::Leave { .. })) > 0);
        assert!(count(|o| matches!(o, ChurnOp::Join { .. })) > 0);
    }

    #[test]
    fn churn_removals_mostly_target_previously_added_ties() {
        let churn = generate_churn(&ChurnConfig {
            seed: 3,
            users: 60,
            count: 500,
            ..Default::default()
        });
        // Replay the stream against a live tie set: removals drawn from
        // the generator's book-keeping must hit an existing tie.
        let mut live: Vec<(usize, usize)> = Vec::new();
        let (mut hit, mut total) = (0usize, 0usize);
        for e in &churn {
            match &e.op {
                ChurnOp::AddEdge { a, b, .. } => live.push((*a, *b)),
                ChurnOp::Join { node, peers } => {
                    live.extend(peers.iter().map(|&p| (*node, p)));
                }
                ChurnOp::Leave { node } => live.retain(|&(a, b)| a != *node && b != *node),
                ChurnOp::RemoveEdge { a, b } => {
                    total += 1;
                    if let Some(i) = live.iter().position(|&e| e == (*a, *b)) {
                        live.swap_remove(i);
                        hit += 1;
                    }
                }
            }
        }
        assert!(total > 50, "enough removals to judge ({total})");
        assert!(
            hit * 10 >= total * 8,
            "removals should usually bite: {hit}/{total}"
        );
    }

    #[test]
    fn interleave_merges_chronologically_with_churn_first_on_ties() {
        let reqs = generate_requests(&WorkloadConfig {
            count: 200,
            mean_interarrival_ms: 25.0,
            ..Default::default()
        });
        let churn = generate_churn(&ChurnConfig {
            count: 60,
            mean_interarrival_ms: 80.0,
            ..Default::default()
        });
        let merged = interleave_churn(&reqs, &churn);
        assert_eq!(merged.len(), reqs.len() + churn.len());
        for w in merged.windows(2) {
            assert!(w[0].at() <= w[1].at(), "chronological");
            if w[0].at() == w[1].at() {
                // Churn never follows a request at the same instant.
                assert!(
                    !(matches!(w[0], StreamEvent::Request(_))
                        && matches!(w[1], StreamEvent::Churn(_))),
                    "churn lands before same-time requests"
                );
            }
        }
        // Both inputs survive the merge in their original order.
        let back_r: Vec<Request> = merged
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Request(r) => Some(*r),
                _ => None,
            })
            .collect();
        let back_c: Vec<ChurnEvent> = merged
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Churn(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(back_r, reqs);
        assert_eq!(back_c, churn);
    }

    #[test]
    fn mean_interarrival_roughly_matches() {
        let cfg = WorkloadConfig {
            count: 5_000,
            mean_interarrival_ms: 200.0,
            ..Default::default()
        };
        let reqs = generate_requests(&cfg);
        let total = reqs.last().expect("non-empty").at.as_millis() as f64;
        let mean = total / reqs.len() as f64;
        assert!((mean - 200.0).abs() < 20.0, "mean = {mean}");
    }
}
