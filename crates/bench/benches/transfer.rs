//! Criterion benches: transfer-engine throughput and dataset segmentation
//! (the checksum and coding kernels are in `storage.rs`).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use scdn_net::failure::FailureModel;
use scdn_net::topology::{LinkQuality, Topology};
use scdn_net::transfer::TransferEngine;
use scdn_storage::object::{Dataset, DatasetId, SegmentId, Sensitivity};
use scdn_storage::repository::{Partition, StorageRepository};

fn segmentation(c: &mut Criterion) {
    let content = Bytes::from(vec![7u8; 4 << 20]);
    let mut group = c.benchmark_group("storage/segmentation");
    group.throughput(Throughput::Bytes(content.len() as u64));
    group.bench_function("4MB-into-256KB", |b| {
        b.iter(|| {
            Dataset::from_bytes(
                DatasetId(0),
                "bench",
                Sensitivity::Public,
                std::hint::black_box(content.clone()),
                256 << 10,
            )
        });
    });
    group.finish();
}

fn transfers(c: &mut Criterion) {
    let topo = Topology::uniform(vec![(41.88, -87.63), (49.01, 8.40)], LinkQuality::default());
    let engine = TransferEngine {
        topology: topo,
        failure: FailureModel {
            loss_prob: 0.05,
            corruption_prob: 0.01,
            seed: 3,
            ..FailureModel::default()
        },
        max_attempts: 3,
        concurrency: 1,
    };
    let src = StorageRepository::new(1 << 30);
    let dst = StorageRepository::new(1 << 30);
    let ds = Dataset::from_bytes(
        DatasetId(0),
        "bench",
        Sensitivity::Public,
        Bytes::from(vec![1u8; 1 << 20]),
        64 << 10,
    );
    for seg in &ds.segments {
        src.store(Partition::User, seg.clone()).expect("stored");
    }
    let ids: Vec<SegmentId> = ds.segments.iter().map(|s| s.id).collect();
    let mut group = c.benchmark_group("net/transfer");
    group.throughput(Throughput::Bytes(ds.total_bytes()));
    group.bench_function("1MB-dataset-16-segments", |b| {
        b.iter(|| {
            for s in dst.list(Partition::Replica) {
                dst.remove(Partition::Replica, s, false).expect("evicted");
            }
            engine
                .transfer_many(0, 1, &src, &dst, std::hint::black_box(&ids))
                .expect("delivers");
        });
    });
    group.finish();
}

criterion_group!(benches, segmentation, transfers);
criterion_main!(benches);
