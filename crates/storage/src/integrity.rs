//! Data integrity: checksum algorithms and corruption detection.
//!
//! The paper requires "CDN folders to have associated properties of data
//! integrity" (Section V); every segment carries a checksum verified after
//! each transfer. Both algorithms are implemented locally — the offline
//! dependency set has no hashing crates.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a hash — fast, adequate for integrity checks in a simulated
/// network (not cryptographic). One serial xor-multiply chain: the
/// one-lane primitive of [`fnv1a64_striped`], and the digest behind the
/// coder's golden hash and the overlay's certificate fingerprints.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

#[inline(always)]
const fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Byte `i` of a little-endian word.
#[inline(always)]
fn byte(word: u64, i: usize) -> u8 {
    (word >> (8 * i)) as u8
}

/// Independent FNV-1a chains of the striped digest. Chosen by measurement
/// from {2, 4, 8} (EXPERIMENTS.md "Lane-striped digest"): four chains keep
/// the multiplier busy every cycle, eight only spill registers.
const LANES: usize = 4;

/// Bytes per stripe: one little-endian 8-byte word for each lane.
const STRIPE: usize = 8 * LANES;

/// Lane `j` starts from the FNV-1a digest of the single byte `j`, so equal
/// words in different lanes do not leave equal lane states.
const LANE_BASIS: [u64; LANES] = {
    let mut basis = [0; LANES];
    let mut j = 0;
    while j < LANES {
        basis[j] = fnv_step(FNV_OFFSET, j as u8);
        j += 1;
    }
    basis
};

/// Fold the lane states, in lane order, into one chain state: a word-wise
/// xor-multiply, bijective in each lane with the others fixed and
/// sensitive to their order.
#[inline(always)]
fn fold_lanes(lanes: [u64; LANES]) -> u64 {
    lanes
        .iter()
        .fold(FNV_OFFSET, |h, &lane| h.wrapping_mul(FNV_PRIME) ^ lane)
}

/// Lane-striped FNV-1a 64, the `fnv` half of [`Checksum`]. The input is
/// cut into 32-byte stripes; word `j` (bytes `8j..8j + 8`) of every stripe
/// feeds lane `j`, an ordinary byte-wise FNV-1a chain from its own offset
/// basis; after the last whole stripe the four lanes are folded in order
/// by `h = h * P ^ lane` from the FNV offset basis, and the remaining
/// `len % 32` bytes continue byte-wise on the folded state.
///
/// Byte-at-a-time reference kernel: this function *defines* the digest;
/// [`Checksum::of`] computes it with the four chains in flight at once and
/// is tested against this.
pub fn fnv1a64_striped(data: &[u8]) -> u64 {
    let (stripes, tail) = data.split_at(data.len() - data.len() % STRIPE);
    let mut lanes = LANE_BASIS;
    for (i, &b) in stripes.iter().enumerate() {
        let lane = i % STRIPE / 8;
        lanes[lane] = fnv_step(lanes[lane], b);
    }
    tail.iter().fold(fold_lanes(lanes), |h, &b| fnv_step(h, b))
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte.
/// Reference kernel for the slice-by-16 loop in [`Checksum::of`].
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| crc_step(crc, b))
}

#[inline(always)]
fn crc_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize]
}

/// Bytes one CRC step folds into the register. Chosen by measurement from
/// {8, 16} (EXPERIMENTS.md "Lane-striped digest").
const CRC_SLICE: usize = 16;

/// Slice-by-16 CRC-32 tables (16 KiB). `CRC_TABLES[0]` is the classic
/// byte table; `CRC_TABLES[j][i]` is the CRC state after byte `i` followed
/// by `j` zero bytes, so sixteen input bytes fold into the state with
/// sixteen independent lookups instead of sixteen dependent ones.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// The checksum attached to stored segments: two digests of unrelated
/// construction (a multiplicative hash and a cyclic code) over the same
/// bytes, compared together.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum {
    /// Lane-striped FNV-1a 64 digest ([`fnv1a64_striped`]) — not the
    /// single-chain [`fnv1a64`] of the same bytes.
    pub fnv: u64,
    /// CRC-32 digest ([`crc32`]).
    pub crc: u32,
}

impl Checksum {
    /// Compute the checksum of `data` in one pass, a 32-byte stripe at a
    /// time. The stripe's four words are loaded once; each lane's chain
    /// is one multiply latency per byte, but the four chains are
    /// independent, so a multiply issues every cycle; the two slice-by-16
    /// CRC steps take their bytes from the same words, and their lookups
    /// depend on neither the lanes nor each other.
    pub fn of(data: &[u8]) -> Checksum {
        let t = &CRC_TABLES;
        let mut lanes = LANE_BASIS;
        let mut crc = !0u32;
        let mut stripes = data.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            let mut words = [0u64; LANES];
            for (word, bytes) in words.iter_mut().zip(stripe.chunks_exact(8)) {
                *word = u64::from_le_bytes(bytes.try_into().expect("chunks_exact yields 8 bytes"));
            }
            for pair in words.chunks_exact(CRC_SLICE / 8) {
                let (lo, hi) = (pair[0] ^ crc as u64, pair[1]);
                crc = 0;
                for i in 0..8 {
                    crc ^= t[CRC_SLICE - 1 - i][byte(lo, i) as usize]
                        ^ t[CRC_SLICE - 9 - i][byte(hi, i) as usize];
                }
            }
            for i in 0..8 {
                for (lane, word) in lanes.iter_mut().zip(words) {
                    *lane = fnv_step(*lane, byte(word, i));
                }
            }
        }
        let mut fnv = fold_lanes(lanes);
        for &b in stripes.remainder() {
            fnv = fnv_step(fnv, b);
            crc = crc_step(crc, b);
        }
        Checksum { fnv, crc: !crc }
    }

    /// Verify `data` against this checksum.
    pub fn verify(&self, data: &[u8]) -> bool {
        *self == Checksum::of(data)
    }
}

/// Flip one bit of `data` at `bit_index % (len*8)` — used by the
/// failure-injection tests to prove corruption is caught. No-op on empty
/// input.
pub fn corrupt_bit(data: &mut [u8], bit_index: usize) {
    if data.is_empty() {
        return;
    }
    let bit = bit_index % (data.len() * 8);
    data[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_known_vectors() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        // "a" → 0xaf63dc4c8601ec8c (published FNV-1a test vector).
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    /// `0, 1, 2, …` — every byte of a stripe distinct.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn fused_kernel_known_vectors() {
        // The striped digest of "", "a" and "123456789" (tail only), and of
        // the counting bytes 0, 1, 2, … one short of a stripe, one stripe,
        // one over, two stripes and two plus one. Worked out from the
        // definition outside this crate; the CRC column is the standard
        // CRC-32 of the same bytes.
        let vectors: [(&[u8], u64, u32); 8] = [
            (b"", 0x9f05798b0448e9a1, 0),
            (b"a", 0x7f37473847e53140, 0xe8b7be43),
            (b"123456789", 0x2048710eee6a45f0, 0xcbf43926),
            (&counting(31), 0xe2bb9a9ceaacd664, 0x4d786d77),
            (&counting(32), 0x860c241aa195b821, 0x91267e8a),
            (&counting(33), 0x5c595a409167a9b3, 0xe4908305),
            (&counting(64), 0x660d53a5155fd921, 0x100ece8c),
            (&counting(65), 0xc87e828351de5fd3, 0x40c06fd8),
        ];
        for (data, fnv, crc) in vectors {
            assert_eq!(Checksum::of(data), Checksum { fnv, crc }, "{data:?}");
            assert_eq!(fnv1a64_striped(data), fnv, "{data:?}");
            assert_eq!(crc32(data), crc, "{data:?}");
        }
    }

    #[test]
    fn crc_tables_extend_by_zero_bytes() {
        // T[j][i] is the raw CRC register after byte i and j zero bytes.
        for i in 0..=255u8 {
            let mut reg = 0u32;
            reg = crc_step(reg, i);
            for table in &CRC_TABLES {
                assert_eq!(table[i as usize], reg);
                reg = crc_step(reg, 0);
            }
        }
    }

    #[test]
    fn every_byte_of_the_first_three_stripes_is_bound() {
        // Exhaustive over position × replacement value: one changed byte
        // moves both halves, wherever it falls in a stripe or the tail.
        let data = counting(96 + 17);
        let clean = Checksum::of(&data);
        for at in 0..96 {
            let mut tampered = data.clone();
            for value in 0..=255u8 {
                if value == data[at] {
                    continue;
                }
                tampered[at] = value;
                let bad = Checksum::of(&tampered);
                assert_ne!(bad.fnv, clean.fnv, "byte {at} -> {value}");
                assert_ne!(bad.crc, clean.crc, "byte {at} -> {value}");
            }
        }
    }

    #[test]
    fn word_order_is_bound() {
        // Swapping two 8-byte words moves the FNV half whether they share
        // a stripe (two lanes change) or a lane (one chain reordered).
        let data = counting(3 * STRIPE + 5);
        let clean = Checksum::of(&data);
        let words = data.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                let mut swapped = data.clone();
                for i in 0..8 {
                    swapped.swap(8 * a + i, 8 * b + i);
                }
                assert_ne!(Checksum::of(&swapped).fnv, clean.fnv, "words {a} and {b}");
            }
        }
    }

    #[test]
    fn length_is_bound() {
        // Zero bytes appended or cut — whole stripes of them included —
        // change the FNV half: a zero byte still multiplies its chain.
        for base in [0, 1, 31, 32, 33, 64, 100] {
            let mut data = counting(base);
            let mut seen = vec![Checksum::of(&data).fnv];
            for _ in 0..3 * STRIPE {
                data.push(0);
                let grown = Checksum::of(&data).fnv;
                assert!(
                    !seen.contains(&grown),
                    "{base} + {} zero bytes",
                    data.len() - base
                );
                seen.push(grown);
            }
        }
    }

    #[test]
    fn checksum_round_trip() {
        let data = b"neuroimaging session 001";
        let c = Checksum::of(data);
        assert!(c.verify(data));
        assert!(!c.verify(b"neuroimaging session 002"));
    }

    #[test]
    fn corruption_is_detected() {
        let mut data = vec![0xAAu8; 128];
        let c = Checksum::of(&data);
        corrupt_bit(&mut data, 777);
        assert!(!c.verify(&data));
        // Flipping the same bit back restores integrity.
        corrupt_bit(&mut data, 777);
        assert!(c.verify(&data));
    }

    #[test]
    fn corrupt_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        corrupt_bit(&mut data, 5);
        assert!(data.is_empty());
    }
}
