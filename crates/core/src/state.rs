//! Decision state: everything an [`Scdn`] decides from, as one value.
//!
//! [`Scdn::decision_state`] copies it out; two states compare with `==`.
//! What is in, what is left out and why, and the two charges a failed
//! request may leave are stated on [`DecisionState`] and in DESIGN.md
//! ("Decision state").

use std::collections::BTreeSet;

use scdn_alloc::CatalogState;
use scdn_graph::NodeId;
use scdn_middleware::auth::Session;
use scdn_sim::engine::SimTime;
use scdn_social::author::AuthorId;
use scdn_social::platform::{GroupId, UserId};
use scdn_storage::cache::CacheManager;
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, SegmentId};
use scdn_storage::repository::{Partition, StorageRepository};
use scdn_trust::interaction::Interaction;

use super::{DatasetMeta, Scdn};

/// Everything an [`Scdn`] decides from, as one plain value: no `Rc`, no
/// metric handle, nothing read from a process-wide counter, so two
/// systems built the same way and fed the same operations are `==`.
///
/// **Out**, each for its reason:
/// - counters, gauges, histograms and the Section V-E metric structs:
///   they record what was decided;
/// - the trace ring and the audit log: the same, as records;
/// - every cache — the hop cache, the ranking cache and the cache
///   managers' recency: a cache never decides. What one
///   evicts or answers shows here once it changes a repository or the
///   catalog;
/// - the CSR snapshot's generation: a process-wide counter, so two equal
///   graphs frozen apart carry different ones;
/// - what only the build writes — the configuration, topology,
///   availability model, trust parameters, platform accounts and the
///   node → author map.
///
/// **Groups are in**: restricted access is granted by membership, and the
/// shared platform takes new groups and members after the build.
///
/// **Pins are in.** A cache manager's pin is the catalog's mandate that a
/// copy is a replica and never an eviction victim: `replicate` and repair
/// set it, a shed drops it, and an opportunistic promotion evicts only
/// what it does not cover.
///
/// **Sessions** are compared by what they allow: a session with no
/// operations left is `None`, like one the middleware has dropped.
///
/// **A request that fails after authenticating** leaves this value equal
/// but for two charges: its session pays one operation, and, when its
/// resolve succeeded, the dataset's demand counts one more hit or miss.
/// A request refused before authenticating leaves it equal.
#[derive(Debug, PartialEq)]
pub struct DecisionState {
    /// The simulation clock.
    pub clock: SimTime,
    /// The allocation catalog: entries (replicas, version, demand, coded
    /// inventory) in `DatasetId` order, the hosted index, the repository
    /// registry and the version counter.
    pub catalog: CatalogState,
    /// Each member's repository, in node order.
    pub repos: Vec<RepoState>,
    /// The social graph's edge set, each edge once as `(a, b, weight)`
    /// with `a < b`.
    pub edges: Vec<(NodeId, NodeId, u32)>,
    /// Members that left, in node order.
    pub departed: Vec<bool>,
    /// Each member's middleware session while it allows an operation.
    pub sessions: Vec<Option<Session>>,
    /// What the runtime records per published dataset (owner, access
    /// policy, the owner's digests), in `DatasetId` order.
    pub datasets: Vec<(DatasetId, DatasetMeta)>,
    /// The id the next publish takes.
    pub next_dataset: u32,
    /// The interaction ledger trust is scored from, in pair order.
    pub ledger: Vec<((AuthorId, AuthorId), Vec<Interaction>)>,
    /// Each member's CDN-client availability estimate and its sample
    /// count: what a telemetry report sends the catalog.
    pub estimates: Vec<(f64, u64)>,
    /// Each platform group's owner and its members, sorted, in `GroupId`
    /// order: what restricted access is granted by.
    pub groups: Vec<(UserId, Vec<UserId>)>,
}

/// One member's repository as a value.
#[derive(Debug, PartialEq)]
pub struct RepoState {
    /// Bytes used across both partitions.
    pub used: u64,
    /// The replica partition, in id order.
    pub replica: Vec<HeldSegment>,
    /// The user partition, in id order.
    pub user: Vec<HeldSegment>,
    /// The segments the member's cache manager pins, in id order.
    pub pinned: Vec<SegmentId>,
}

/// A stored segment or coded block: the checksum it is stored under and
/// one recomputed from the bytes held, so an at-rest flip shows even
/// where the stored checksum did not move.
#[derive(Debug, PartialEq)]
pub struct HeldSegment {
    /// The segment or block id.
    pub id: SegmentId,
    /// The checksum the segment is stored under.
    pub stored: Checksum,
    /// The checksum of the bytes held.
    pub held: Checksum,
}

fn partition(repo: &StorageRepository, p: Partition) -> Vec<HeldSegment> {
    repo.segments(p)
        .into_iter()
        .map(|seg| HeldSegment {
            id: seg.id,
            stored: seg.checksum,
            held: Checksum::of(&seg.data),
        })
        .collect()
}

impl RepoState {
    fn of(repo: &StorageRepository, cache: &CacheManager) -> RepoState {
        RepoState {
            used: repo.used(),
            replica: partition(repo, Partition::Replica),
            user: partition(repo, Partition::User),
            pinned: cache.pinned(),
        }
    }
}

impl Scdn {
    /// Everything this system decides from, as one value (see
    /// [`DecisionState`]). Names every field of `Scdn`, in or out, so a
    /// new one must be placed. Digests every stored byte: a test's tool,
    /// not a hot-path read.
    pub fn decision_state(&self) -> DecisionState {
        // Every field is named: a new one does not compile until it is put
        // in the value or left out below, with its reason.
        let Scdn {
            clock,
            alloc,
            repos,
            caches,
            social_csr,
            departed,
            middleware,
            sessions,
            datasets,
            next_dataset,
            ledger,
            clients,
            platform,
            // Written only by the build; `social` is `social_csr`'s
            // mutable twin, the same edge set.
            config: _,
            social: _,
            authors: _,
            engine: _,
            availability: _,
            trust_model: _,
            // A cache never decides.
            rankings: _,
            // Records and metrics of what was decided.
            audit: _,
            cdn_metrics: _,
            social_metrics: _,
            registry: _,
            traces: _,
            att_delivered: _,
            att_lost: _,
            att_corrupted: _,
            online_fraction: _,
            ranking_hits: _,
            ranking_misses: _,
            ranking_recompute_ms: _,
            delta_applied: _,
            delta_nodes_touched: _,
            delta_bytes_copied: _,
            delta_chunks_shared: _,
            coded_blocks_landed: _,
            coded_blocks_preexisting: _,
            coded_discarded_corrupt: _,
            coded_shards_reconstructed: _,
            coded_rows_encoded: _,
            owner_digest_mismatch: _,
        } = self;
        let mut datasets: Vec<(DatasetId, DatasetMeta)> = datasets
            .iter()
            .map(|(&id, meta)| (id, meta.clone()))
            .collect();
        datasets.sort_unstable_by_key(|&(id, _)| id);
        let mut ledger: Vec<((AuthorId, AuthorId), Vec<Interaction>)> = ledger
            .iter()
            .map(|(&pair, history)| (pair, history.clone()))
            .collect();
        ledger.sort_unstable_by_key(|&(pair, _)| pair);
        DecisionState {
            clock: *clock,
            catalog: alloc.state(),
            repos: repos
                .iter()
                .zip(caches)
                .map(|(repo, cache)| RepoState::of(repo, cache))
                .collect(),
            edges: social_csr.edges().collect(),
            departed: departed.clone(),
            sessions: sessions
                .iter()
                .map(|&id| {
                    let session = middleware.session(id);
                    session.filter(|s| s.remaining_ops > 0).cloned()
                })
                .collect(),
            datasets,
            next_dataset: *next_dataset,
            ledger,
            estimates: clients.iter().map(|c| c.estimate()).collect(),
            groups: (0..)
                .map_while(|id| platform.group(GroupId(id)).ok())
                .map(|g| (g.owner, Vec::from_iter(BTreeSet::from_iter(g.members))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use scdn_graph::{GraphDelta, NodeId};
    use scdn_net::failure::FailureModel;
    use scdn_net::transfer::TransferError;
    use scdn_storage::object::{DatasetId, Segment, SegmentId, Sensitivity};
    use scdn_storage::repository::{Partition, RepoError};
    use scdn_trust::interaction::{Interaction, InteractionKind};

    use crate::fixtures::{assert_same_state, charged, mixed_system, quota_system, serving_system};
    use crate::ops::{Op, OpOutcome};
    use crate::system::{AvailabilityConfig, Scdn, ScdnError};

    #[test]
    fn decision_state_is_a_value_not_an_identity() {
        let (a, _) = serving_system(true);
        let (mut b, _) = serving_system(true);
        let state = a.decision_state();
        assert_same_state(&b.decision_state(), &state, "two builds of one fixture");
        b.apply(&Op::Tick(1));
        assert!(b.decision_state() != state, "a tick does not show");
    }

    /// A member that hosts nothing.
    fn idle(scdn: &Scdn) -> NodeId {
        (0..scdn.member_count() as u32)
            .map(NodeId)
            .rev()
            .find(|&n| scdn.alloc.datasets_hosted_by(n).is_empty())
            .expect("an idle member")
    }

    /// Segment 0 of `datasets[0]`, as its owner (node 0) holds it.
    fn owners_first_segment(scdn: &Scdn, datasets: &[DatasetId]) -> Segment {
        let id = SegmentId {
            dataset: datasets[0],
            ordinal: 0,
        };
        scdn.repos[0]
            .fetch(Partition::User, id)
            .expect("the owner holds it")
    }

    /// Each write below must make the state differ. All but the tick and
    /// the publish touch one part of it alone, so a part dropped from the
    /// value fails its line.
    #[test]
    fn every_kind_of_write_shows_in_the_state() {
        type Write = (&'static str, fn(&mut Scdn, &[DatasetId]));
        let writes: [Write; 15] = [
            ("a tick", |s, _| s.tick(1)),
            ("a flipped byte at rest", |s, d| {
                let good = owners_first_segment(s, d);
                let mut raw = good.data.to_vec();
                raw[0] ^= 1;
                let flipped = Segment {
                    data: Bytes::from(raw),
                    ..good
                };
                s.repos[0].store(Partition::User, flipped).expect("fits");
            }),
            ("a self-consistent overwrite", |s, d| {
                let good = owners_first_segment(s, d);
                let forged = Segment::new(good.id, Bytes::from(vec![0xAB; good.len()]));
                s.repos[0].store(Partition::User, forged).expect("fits");
            }),
            ("a pin", |s, d| {
                let n = idle(s);
                let id = SegmentId {
                    dataset: d[0],
                    ordinal: 0,
                };
                s.caches[n.index()].set_pinned(id, true);
            }),
            ("a session operation", |s, _| {
                let session = s.sessions[3];
                s.middleware.authorize_op(session).expect("live session");
            }),
            ("a resolve's demand", |s, d| {
                s.resolve_replica(NodeId(5), d[0]).expect("resolves");
            }),
            ("a replica added", |s, d| {
                let n = idle(s);
                s.alloc.add_replica(d[0], n).expect("registered");
            }),
            ("reported telemetry", |s, _| s.report_telemetry()),
            ("an enrolled member", |s, _| {
                let owner = s.platform.user_of_author(s.authors[0]).expect("a user");
                let member = s.platform.user_of_author(s.authors[1]).expect("a user");
                let group = s.platform.create_group(owner, "trial").expect("created");
                s.platform
                    .add_to_group(owner, group, member)
                    .expect("the owner enrolls");
            }),
            ("a sampled estimate", |s, _| {
                s.clients[3].sample_online(false)
            }),
            ("a departure", |s, _| {
                let n = idle(s);
                s.depart(n).expect("a member");
            }),
            ("a reinforced edge", |s, _| {
                let (a, b, _) = s.social_csr.edges().next().expect("an edge");
                let mut delta = GraphDelta::new();
                delta.add_edge(a, b, 1);
                s.apply_graph_delta(&delta).expect("members");
            }),
            ("a lapsed edge", |s, _| {
                let (a, b, _) = s.social_csr.edges().next().expect("an edge");
                let mut delta = GraphDelta::new();
                delta.remove_edge(a, b);
                s.apply_graph_delta(&delta).expect("members");
            }),
            ("a ledger interaction", |s, _| {
                let interaction = Interaction {
                    at: 2011.0,
                    kind: InteractionKind::Publication,
                    success: true,
                };
                s.ledger.record(s.authors[0], s.authors[1], interaction);
            }),
            ("a publish", |s, _| {
                let content = Bytes::from(vec![9u8; 1024]);
                let n = idle(s);
                s.publish(n, "late", content, Sensitivity::Public, None)
                    .expect("publishes");
            }),
        ];
        for (what, write) in writes {
            let (mut scdn, datasets) = serving_system(true);
            let before = scdn.decision_state();
            write(&mut scdn, &datasets);
            assert!(scdn.decision_state() != before, "{what} does not show");
        }
    }

    /// Apply `op`; it must return an error matching `refused`.
    fn refuse(scdn: &mut Scdn, op: Op, refused: fn(&ScdnError) -> bool) {
        let outcome = scdn.apply(&op);
        match outcome.error() {
            Some(e) => assert!(refused(e), "{op:?}: unexpected {e:?}"),
            None => panic!("{op:?} did not fail: {outcome:?}"),
        }
    }

    /// Every `Op` kind that can return `Err`, in every way it can: a
    /// refusal before authenticating leaves the decision state equal; a
    /// request that fails after it differs by its documented charges only.
    #[test]
    fn a_failed_op_changes_nothing_but_its_documented_charges() {
        let (mut scdn, datasets) = serving_system(false);
        let members = scdn.member_count() as u32;
        let stranger = NodeId(members);

        // Refused before authenticating: nothing moves.
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(stranger, datasets[0]), |e| {
            matches!(e, ScdnError::UnknownNode(_))
        });
        refuse(&mut scdn, Op::Depart(stranger), |e| {
            matches!(e, ScdnError::UnknownNode(_))
        });
        let mut grow = GraphDelta::new();
        grow.add_nodes(1);
        refuse(&mut scdn, Op::Delta(grow), |e| {
            matches!(e, ScdnError::UnknownNode(_))
        });
        let mut wild = GraphDelta::new();
        wild.add_edge(NodeId(0), stranger, 1);
        refuse(&mut scdn, Op::Delta(wild), |e| {
            matches!(e, ScdnError::UnknownNode(_))
        });
        refuse(
            &mut scdn,
            Op::publish(stranger, "late", Bytes::from(vec![9u8; 1 << 10])),
            |e| matches!(e, ScdnError::UnknownNode(_)),
        );
        let unknown = DatasetId(99);
        refuse(&mut scdn, Op::Replicate(unknown), |e| {
            matches!(e, ScdnError::Alloc(_))
        });
        refuse(&mut scdn, Op::Resolve(NodeId(3), unknown), |e| {
            matches!(e, ScdnError::Alloc(_))
        });
        refuse(&mut scdn, Op::Resolve(stranger, datasets[0]), |e| {
            matches!(e, ScdnError::UnknownNode(_))
        });
        assert_same_state(&scdn.decision_state(), &before, "refused before auth");

        // A second departure finds nothing left to take.
        let gone = NodeId(members - 1);
        scdn.depart(gone).expect("a member");
        let before = scdn.decision_state();
        let again = scdn.apply(&Op::Depart(gone));
        assert!(matches!(again, OpOutcome::Departed(Ok(ref lost)) if lost.is_empty()));
        assert_same_state(&scdn.decision_state(), &before, "a repeated departure");

        // Authenticated, then refused: the session pays, no demand moves.
        let asker = NodeId(3);
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(asker, unknown), |e| {
            matches!(e, ScdnError::Alloc(_))
        });
        let after = scdn.decision_state();
        assert_same_state(
            &after,
            &charged(before, &after, asker, None),
            "unknown dataset",
        );

        // Dataset 1 is confidential to its owner, node 1.
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(asker, datasets[1]), |e| {
            matches!(e, ScdnError::Access(_))
        });
        let after = scdn.decision_state();
        assert_same_state(
            &after,
            &charged(before, &after, asker, None),
            "access denied",
        );

        // A session spent to its last operation refuses the next one at
        // authentication, and the dropped session equals the spent one.
        let spender = NodeId(4);
        for _ in 0..scdn.middleware.ttl_ops {
            scdn.apply(&Op::Request(spender, unknown));
        }
        let before = scdn.decision_state();
        assert_eq!(before.sessions[spender.index()], None, "spent");
        refuse(&mut scdn, Op::Request(spender, datasets[0]), |e| {
            matches!(e, ScdnError::Auth(_))
        });
        assert_same_state(&scdn.decision_state(), &before, "spent session");

        // Cut every edge of the requester: the resolve succeeds, the
        // social boundary then refuses the replica it picked.
        scdn.config.enforce_social_boundary = true;
        let outsider = (0..members)
            .map(NodeId)
            .find(|&n| ![gone, spender].contains(&n) && scdn.alloc.datasets_hosted_by(n).is_empty())
            .expect("a member hosting nothing");
        let mut cut = GraphDelta::new();
        for e in scdn.social_csr.neighbors(outsider) {
            cut.remove_edge(outsider, e.to);
        }
        scdn.apply_graph_delta(&cut).expect("members");
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(outsider, datasets[0]), |e| {
            matches!(e, ScdnError::Alloc(_))
        });
        let after = scdn.decision_state();
        let want = charged(before, &after, outsider, Some(datasets[0]));
        assert_same_state(&after, &want, "boundary");

        // A fabric that loses every attempt: two transfers.
        let lossy = FailureModel {
            loss_prob: 1.0,
            ..FailureModel::reliable()
        };
        let (mut scdn, datasets) = quota_system(lossy);
        let reqs = [(NodeId(7), datasets[0]), (NodeId(8), datasets[1])];
        let before = scdn.decision_state();
        for (node, dataset) in reqs {
            refuse(&mut scdn, Op::Request(node, dataset), |e| {
                matches!(e, ScdnError::Transfer(_))
            });
        }
        let after = scdn.decision_state();
        let want = reqs
            .iter()
            .fold(before, |state, &(n, d)| charged(state, &after, n, Some(d)));
        assert_same_state(&after, &want, "lossy transfer");

        // The second 14-15 KiB dataset no longer fits a 25 KiB repository.
        let (mut scdn, datasets) = quota_system(FailureModel::reliable());
        let full = NodeId(scdn.member_count() as u32 - 1);
        scdn.request(full, datasets[0]).expect("14 KiB fits");
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(full, datasets[1]), |e| {
            matches!(
                e,
                ScdnError::Transfer(TransferError::Destination(RepoError::QuotaExceeded { .. }))
            )
        });
        let after = scdn.decision_state();
        let want = charged(before, &after, full, Some(datasets[1]));
        assert_same_state(&after, &want, "quota");

        // 20 KiB more does not fit beside the owner's 14 KiB: the publish
        // keeps none of its segments and takes no dataset id.
        let owner = NodeId(0);
        let before = scdn.decision_state();
        refuse(
            &mut scdn,
            Op::publish(owner, "too-big", Bytes::from(vec![9u8; 20 << 10])),
            |e| matches!(e, ScdnError::Repo(RepoError::QuotaExceeded { .. })),
        );
        let after = scdn.decision_state();
        let want = charged(before, &after, owner, None);
        assert_same_state(&after, &want, "publish over quota");

        // An any-k race on a fabric that loses every attempt: no resolve,
        // so no demand, and neither a landed block nor the race's time
        // stays behind.
        let (mut scdn, datasets) = mixed_system(AvailabilityConfig::AlwaysOn);
        let coded = datasets[0];
        let racer = idle(&scdn);
        scdn.engine.failure = lossy;
        let before = scdn.decision_state();
        refuse(&mut scdn, Op::Request(racer, coded), |e| {
            matches!(
                e,
                ScdnError::Transfer(TransferError::InsufficientBlocks { .. })
            )
        });
        let after = scdn.decision_state();
        assert_same_state(&after, &charged(before, &after, racer, None), "coded race");
    }
}
