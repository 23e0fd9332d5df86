//! Concurrent stress for the one-lock catalog: readers resolving against
//! snapshots while writers migrate.
//!
//! What the readers prove about the lock:
//!
//! * **No torn entries** — a snapshot is copied under the lock that every
//!   mutation holds for its whole body, so every snapshot must be
//!   internally consistent ([`CatalogSnapshot::is_consistent`]) and every
//!   dataset must show exactly the replica cardinality the writers
//!   maintain (one, here — a torn migrate would show zero or two).
//! * **Versions only move forward** — a dataset's entry version never
//!   goes backwards within a reader, and the final versions account for
//!   exactly one bump per registration and per migration.
//! * **Resolution agrees with its own snapshot** — a selection computed
//!   via [`AllocationServer::resolve_csr_snapshot`] lands on the replica
//!   that snapshot holds, and reports the entry version that snapshot
//!   holds, even while the live catalog has long moved on.
//!
//! [`CatalogSnapshot::is_consistent`]: scdn_alloc::CatalogSnapshot::is_consistent

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use scdn_alloc::server::{AllocationServer, RepositoryInfo};
use scdn_graph::{CsrGraph, Graph, NodeId};
use scdn_social::author::AuthorId;
use scdn_storage::object::DatasetId;

const NODES: u32 = 64;
const DATASETS: u32 = 64;
const WRITERS: u32 = 4;
const READERS: u32 = 4;
const MIGRATIONS_PER_WRITER: u32 = 1500;

fn build_server() -> Arc<AllocationServer> {
    let srv = AllocationServer::new();
    srv.register_repositories((0..NODES).map(|i| RepositoryInfo {
        node: NodeId(i),
        owner: AuthorId(i),
        capacity: 1 << 30,
        availability: 0.9,
    }));
    for d in 0..DATASETS {
        srv.register_dataset(DatasetId(d), 4, NodeId(d % NODES))
            .expect("register");
    }
    Arc::new(srv)
}

fn ring_csr() -> CsrGraph {
    let mut g = Graph::new(NODES as usize);
    for i in 0..NODES {
        g.add_edge(NodeId(i), NodeId((i + 1) % NODES), 1);
    }
    CsrGraph::from(&g)
}

#[test]
fn readers_never_observe_torn_or_unpublished_state() {
    let srv = build_server();
    let csr = Arc::new(ring_csr());
    let done = Arc::new(AtomicBool::new(false));

    // Each writer owns the datasets congruent to its index and walks
    // each one's single replica around the node ring, so every dataset
    // always has exactly one replica in any published state.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let srv = srv.clone();
            thread::spawn(move || {
                for step in 0..MIGRATIONS_PER_WRITER {
                    for d in (w..DATASETS).step_by(WRITERS as usize) {
                        let from = NodeId((d + step) % NODES);
                        let to = NodeId((d + step + 1) % NODES);
                        srv.migrate_replica(DatasetId(d), from, to)
                            .expect("sole mutator of this dataset");
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let srv = srv.clone();
            let csr = csr.clone();
            let done = done.clone();
            thread::spawn(move || {
                let mut last_versions = vec![0u64; DATASETS as usize];
                let mut snapshots_checked = 0u64;
                while !done.load(Ordering::Relaxed) || snapshots_checked < 50 {
                    let snap = srv.snapshot();
                    assert!(snap.is_consistent(), "torn snapshot");
                    for (d, last) in last_versions.iter_mut().enumerate() {
                        let dataset = DatasetId(d as u32);
                        let now = snap.version_of(dataset).expect("registered");
                        assert!(now >= *last, "dataset {d} went backwards: {now} < {last}");
                        *last = now;
                        let replicas = snap
                            .replicas_of(dataset)
                            .expect("dataset registered before any reader started");
                        assert_eq!(
                            replicas.len(),
                            1,
                            "dataset {d}: a migrate must never expose 0 or 2 replicas"
                        );
                    }
                    for d in (r..DATASETS).step_by(READERS as usize) {
                        let dataset = DatasetId(d);
                        let (sel, version) = srv.resolve_csr_snapshot(
                            &snap,
                            dataset,
                            NodeId(d % NODES),
                            &csr,
                            |_| true,
                            |_| 1.0,
                        );
                        let sel = sel.expect("one online replica always resolvable");
                        assert_eq!(
                            Some(&[sel.node][..]),
                            snap.replicas_of(dataset),
                            "selection disagrees with its own snapshot"
                        );
                        assert_eq!(
                            version,
                            snap.version_of(dataset),
                            "the version must identify the entry actually read"
                        );
                    }
                    snapshots_checked += 1;
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
    // Every registration and every migration took exactly one version,
    // and no two changes shared one: the versions are distinct and the
    // newest is the total change count.
    let mut versions: Vec<u64> = (0..DATASETS)
        .map(|d| srv.catalog_version(DatasetId(d)).expect("registered"))
        .collect();
    versions.sort_unstable();
    versions.dedup();
    assert_eq!(versions.len(), DATASETS as usize, "one entry per version");
    assert_eq!(
        versions.last().copied(),
        Some(u64::from(
            DATASETS + WRITERS * MIGRATIONS_PER_WRITER * (DATASETS / WRITERS)
        )),
        "each registration and each commit takes exactly one version"
    );
}
