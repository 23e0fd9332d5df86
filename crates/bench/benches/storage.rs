//! Criterion benches for the two payload kernels of `scdn-storage`: the
//! checksum and the GF(2^8) coder at RS(4,2) over 1 MiB.
//!
//! `storage/checksum/*` reproduces EXPERIMENTS.md "Word-wise digest":
//! `checksum` is `Checksum::of` as the product runs it (one loop feeding
//! the word-wise mix lanes and the carry-less-multiply CRC-32 where the
//! CPU has `pclmulqdq`); `mix-lanes-only` is the mix pass alone;
//! `portable` is what a host without `pclmulqdq` runs (the mix pass, then
//! the CRC on slice-by-16 tables); `references` is the mix lanes and the
//! byte-at-a-time CRC-32 back to back. Each of those reads one buffer
//! over and over, from cache; `storage/checksum/cold/*` walks a 64 MiB
//! pool, larger than L2, a scattered window at a time, as a coded donor
//! read or a repair's read of owner segments does (EXPERIMENTS.md
//! "Cold-byte kernels"). `storage/coding/rebuild_row/{data,parity}` is
//! what a coded repair pays per lost row: the verified owner segments it
//! encodes from, and the row. `storage/coding/mul_acc/*` is the GF(2^8)
//! multiply-accumulate alone, as the CPU dispatches it and on the
//! portable product-row loop. For humans; the accept/reject numbers come
//! from `benchmark/` (`storage.checksum.mib_per_s`,
//! `storage.encode/decode.*`).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scdn_storage::coding::{mul_acc, mul_acc_portable, ErasureCoder};
use scdn_storage::integrity::{crc32, mix64, Checksum};
use scdn_storage::object::{Dataset, DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::{Partition, StorageRepository};

/// Incompressible-looking bytes, so table lookups spread over the tables.
fn payload(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

fn checksums(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/checksum");
    for (name, size) in [
        ("1KiB", 1usize << 10),
        ("16KiB", 16 << 10),
        // A `churn_maintain` segment and a `coded_repair` dataset.
        ("64KiB", 64 << 10),
        ("256KiB", 256 << 10),
        ("1MiB", 1 << 20),
    ] {
        let data = payload(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("checksum", name), &data, |b, d| {
            b.iter(|| Checksum::of(std::hint::black_box(d)));
        });
        group.bench_with_input(BenchmarkId::new("mix-lanes-only", name), &data, |b, d| {
            b.iter(|| mix64(std::hint::black_box(d)));
        });
        group.bench_with_input(BenchmarkId::new("portable", name), &data, |b, d| {
            b.iter(|| Checksum::of_portable(std::hint::black_box(d)));
        });
        group.bench_with_input(BenchmarkId::new("references", name), &data, |b, d| {
            b.iter(|| {
                let d = std::hint::black_box(d);
                Checksum {
                    mix: mix64(d),
                    crc: crc32(d),
                }
            });
        });
    }
    // Windows are visited 167 apart (odd, so each of the 256 in turn): a
    // prefetch that runs past one window never brings in the next.
    let pool = payload(64 << 20);
    for (name, window) in [
        ("1KiB", 1usize << 10),
        ("16KiB", 16 << 10),
        ("64KiB", 64 << 10),
        ("256KiB", 256 << 10),
    ] {
        group.throughput(Throughput::Bytes(window as u64));
        let mut at = 0;
        group.bench_function(BenchmarkId::new("cold", name), |b| {
            b.iter(|| {
                let d = &pool[at..at + window];
                at = (at + 167 * window) % pool.len();
                Checksum::of(std::hint::black_box(d))
            });
        });
    }
    group.finish();
}

fn coding(c: &mut Criterion) {
    let coder = ErasureCoder::new(4, 2, 7);
    let content = payload(1 << 20);
    let all_rows: Vec<u32> = (0..6).collect();
    let blocks: Vec<Bytes> = coder
        .encode_rows(content.len(), &[(0, &content)], &all_rows)
        .into_iter()
        .map(Bytes::from)
        .collect();
    let pick = |indices: [usize; 4]| -> Vec<(u32, Bytes)> {
        indices
            .iter()
            .map(|&i| (i as u32, blocks[i].clone()))
            .collect()
    };
    // The four data shards (nothing to reconstruct: the join is the only
    // copy) against both parity blocks plus two data shards (two shards
    // rebuilt through dense inverse rows).
    let systematic = pick([0, 1, 2, 3]);
    let parity = pick([4, 5, 0, 1]);
    let mut group = c.benchmark_group("storage/coding/rs4+2/1MiB");
    group.throughput(Throughput::Bytes(content.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            coder.encode_rows(
                content.len(),
                &[(0, std::hint::black_box(&content))],
                &all_rows,
            )
        });
    });
    // What repair pays to regenerate one lost parity block.
    group.bench_function("encode_one_parity_row", |b| {
        b.iter(|| coder.encode_rows(content.len(), &[(0, std::hint::black_box(&content))], &[4]));
    });
    for (name, picked) in [
        ("decode_systematic", &systematic),
        ("decode_parity", &parity),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                coder
                    .decode_shards(std::hint::black_box(picked), content.len())
                    .map(|d| d.range(0, content.len()))
            });
        });
    }
    group.finish();

    // A `coded_repair` rebuild as the owner runs it: fetch (and verify)
    // the 64 KiB owner segments the row encodes from, then encode the row
    // from them as pieces. Data row 0 reads the 4 segments of its shard,
    // parity row 4 all 16.
    let segment = 64 << 10;
    let dataset = Dataset::from_bytes(
        DatasetId(0),
        "rebuild",
        Sensitivity::Public,
        Bytes::from(content.clone()),
        segment,
    );
    let repo = StorageRepository::new(4 << 20);
    for s in dataset.segments {
        repo.store(Partition::User, s).expect("fits");
    }
    let mut group = c.benchmark_group("storage/coding/rebuild_row");
    for (name, row, ordinals) in [("data", 0u32, 0..4u32), ("parity", 4, 0..16)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let fetched: Vec<Segment> = ordinals
                    .clone()
                    .map(|ordinal| {
                        let id = SegmentId {
                            dataset: DatasetId(0),
                            ordinal,
                        };
                        repo.fetch(Partition::User, id).expect("intact")
                    })
                    .collect();
                let pieces: Vec<(usize, &[u8])> = fetched
                    .iter()
                    .map(|s| (s.id.ordinal as usize * segment, &s.data[..]))
                    .collect();
                coder.encode_rows(content.len(), &pieces, &[row])
            });
        });
    }
    group.finish();

    // One shard of a `coded_repair` dataset under a parity coefficient.
    let src = payload(256 << 10);
    let mut acc = vec![0u8; src.len()];
    let coef = 0x8e;
    let mut group = c.benchmark_group("storage/coding/mul_acc");
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function(BenchmarkId::new("dispatched", "256KiB"), |b| {
        b.iter(|| mul_acc(&mut acc, coef, std::hint::black_box(&src)));
    });
    group.bench_function(BenchmarkId::new("portable", "256KiB"), |b| {
        b.iter(|| mul_acc_portable(&mut acc, coef, std::hint::black_box(&src)));
    });
    group.finish();
}

criterion_group!(benches, checksums, coding);
criterion_main!(benches);
