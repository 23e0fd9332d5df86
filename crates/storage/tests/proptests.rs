//! Property-based tests for storage invariants.

use bytes::Bytes;
use proptest::prelude::*;
use scdn_storage::coding::{decode_blocks, encode_blocks, CodingError, CodingSpec};
use scdn_storage::integrity::{corrupt_bit, crc32, mix64, Checksum};
use scdn_storage::object::{Dataset, DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::{Partition, StorageRepository};

proptest! {
    #[test]
    fn segmentation_reassembles_exactly(
        content in proptest::collection::vec(any::<u8>(), 0..4096),
        segment_size in 1usize..512,
    ) {
        let d = Dataset::from_bytes(
            DatasetId(0),
            "p",
            Sensitivity::Public,
            Bytes::from(content.clone()),
            segment_size,
        );
        prop_assert_eq!(d.reassemble().to_vec(), content.clone());
        prop_assert!(d.verify_all());
        // Segment sizes: all but the last equal segment_size (when content
        // is non-empty).
        if !content.is_empty() {
            for s in &d.segments[..d.segments.len() - 1] {
                prop_assert_eq!(s.len(), segment_size);
            }
            prop_assert!(d.segments.last().expect("non-empty").len() <= segment_size);
        }
    }

    #[test]
    fn decode_from_any_k_subset_recovers_content(
        content in proptest::collection::vec(any::<u8>(), 0..2048),
        k in 1u8..12,
        m in 1u8..6,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let spec = CodingSpec { k, m, seed, total_len: content.len() as u64 };
        let blocks = encode_blocks(&spec, DatasetId(7), &content);
        prop_assert_eq!(blocks.len(), spec.n() as usize);
        // A pseudo-random k-subset of the n blocks, drawn from `pick`.
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by_key(|&i| {
            (i as u64 ^ pick)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left((pick % 61) as u32)
        });
        let subset: Vec<Segment> = order
            .iter()
            .take(k as usize)
            .map(|&i| blocks[i].clone())
            .collect();
        let decoded = decode_blocks(&spec, &subset).expect("any k distinct blocks decode");
        prop_assert_eq!(decoded.to_vec(), content);
        // One block short must fail loudly, never mis-decode.
        if k > 1 {
            let short = &subset[..k as usize - 1];
            prop_assert!(matches!(
                decode_blocks(&spec, short),
                Err(CodingError::NotEnoughBlocks { .. })
            ));
        }
    }

    /// The dispatched kernel (`Checksum::of`: carry-less CRC where the CPU
    /// has it) and the portable one (`Checksum::of_portable`, slice-by-16
    /// on every host), each against the definitions of the two halves —
    /// `mix64` and the byte-at-a-time `crc32` — on windows of one larger
    /// buffer so the loops start at every alignment and end on every
    /// `len % 64` tail.
    #[test]
    fn fused_checksum_matches_reference_kernels(
        buffer in proptest::collection::vec(any::<u8>(), 70_064..=70_064),
        offset in 0usize..64,
        len in 0usize..=70_000,
        short in 0usize..=320,
    ) {
        for len in [len, short] {
            let d = &buffer[offset..offset + len];
            let reference = Checksum { mix: mix64(d), crc: crc32(d) };
            prop_assert_eq!(Checksum::of(d), reference);
            prop_assert_eq!(Checksum::of_portable(d), reference);
        }
    }

    #[test]
    fn any_single_bitflip_is_detected(
        content in proptest::collection::vec(any::<u8>(), 1..4096),
        bit in any::<usize>(),
    ) {
        let checksum = Checksum::of(&content);
        let mut tampered = content.clone();
        corrupt_bit(&mut tampered, bit);
        prop_assert!(!checksum.verify(&tampered));
    }

    /// Two 8-byte words trading places — in one stripe, in one lane or
    /// neither — and zero bytes appended or cut are all caught: word order
    /// and length are part of the digest, not only the bytes.
    #[test]
    fn word_swaps_and_zero_padding_are_detected(
        content in proptest::collection::vec(any::<u8>(), 16..2048),
        a in any::<usize>(),
        b in any::<usize>(),
        zeros in 1usize..=96,
    ) {
        let checksum = Checksum::of(&content);
        let words = content.len() / 8;
        let (a, b) = (a % words, b % words);
        let mut swapped = content.clone();
        for i in 0..8 {
            swapped.swap(8 * a + i, 8 * b + i);
        }
        prop_assert_eq!(checksum.verify(&swapped), swapped == content);

        let mut padded = content.clone();
        padded.resize(content.len() + zeros, 0);
        prop_assert!(!checksum.verify(&padded));
        prop_assert!(!Checksum::of(&padded).verify(&content));
    }

    /// Any one aligned 8-byte word replaced by any other value moves the
    /// mix half on its own: every step is a bijection in its word and in
    /// the state, so the changed lane (or tail) state survives to the end.
    #[test]
    fn replacing_one_word_moves_the_mix_half(
        content in proptest::collection::vec(any::<u8>(), 8..4096),
        at in any::<usize>(),
        word in any::<u64>(),
    ) {
        let at = 8 * (at % (content.len() / 8));
        let mut replaced = content.clone();
        replaced[at..at + 8].copy_from_slice(&word.to_le_bytes());
        prop_assert_eq!(mix64(&replaced) == mix64(&content), replaced == content);
    }

    #[test]
    fn repository_usage_equals_stored_bytes(
        sizes in proptest::collection::vec(1usize..2048, 1..20),
    ) {
        let total: usize = sizes.iter().sum();
        let repo = StorageRepository::new(total as u64);
        for (i, &size) in sizes.iter().enumerate() {
            let seg = Segment::new(
                SegmentId {
                    dataset: DatasetId(0),
                    ordinal: i as u32,
                },
                Bytes::from(vec![i as u8; size]),
            );
            repo.store(Partition::User, seg).expect("fits exactly");
        }
        prop_assert_eq!(repo.used(), total as u64);
        prop_assert_eq!(repo.available(), 0);
        // Removing everything returns usage to zero.
        for id in repo.list(Partition::User) {
            repo.remove(Partition::User, id, true).expect("removes");
        }
        prop_assert_eq!(repo.used(), 0);
    }

    #[test]
    fn quota_never_exceeded(
        sizes in proptest::collection::vec(1usize..4096, 1..30),
        capacity in 1024u64..8192,
    ) {
        let repo = StorageRepository::new(capacity);
        for (i, &size) in sizes.iter().enumerate() {
            let seg = Segment::new(
                SegmentId {
                    dataset: DatasetId(1),
                    ordinal: i as u32,
                },
                Bytes::from(vec![0u8; size]),
            );
            let _ = repo.store(Partition::Replica, seg);
            prop_assert!(repo.used() <= capacity);
        }
    }
}
