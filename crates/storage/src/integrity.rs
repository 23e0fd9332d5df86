//! Data integrity: checksum algorithms and corruption detection.
//!
//! The paper requires "CDN folders to have associated properties of data
//! integrity" (Section V); every segment carries a checksum verified after
//! each transfer. Both algorithms are implemented locally — the offline
//! dependency set has no hashing crates.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a hash — fast, adequate for integrity checks in a simulated
/// network (not cryptographic). Byte-at-a-time reference kernel:
/// [`Checksum::of`] computes the same digest in its fused loop and is
/// tested against this.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

#[inline(always)]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte.
/// Reference kernel for the slice-by-8 loop in [`Checksum::of`].
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| crc_step(crc, b))
}

#[inline(always)]
fn crc_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize]
}

/// Slice-by-8 CRC-32 tables (8 KiB). `CRC_TABLES[0]` is the classic byte
/// table; `CRC_TABLES[j][i]` is the CRC state after byte `i` followed by
/// `j` zero bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while j < 8 {
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

/// The checksum attached to stored segments (both algorithms, so either
/// endpoint implementation can verify).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum {
    /// FNV-1a 64 digest.
    pub fnv: u64,
    /// CRC-32 digest.
    pub crc: u32,
}

impl Checksum {
    /// Compute the checksum of `data`: one pass that advances both
    /// digests per 8-byte word. FNV-1a is a serial xor-multiply chain
    /// (one multiply latency per byte, whatever the word size); the
    /// slice-by-8 CRC lookups are independent of it and of each other,
    /// so they issue in the multiplies' shadow.
    pub fn of(data: &[u8]) -> Checksum {
        let t = &CRC_TABLES;
        let mut fnv = FNV_OFFSET;
        let mut crc = !0u32;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let w: [u8; 8] = w.try_into().expect("chunks_exact yields 8-byte words");
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
            for b in w {
                fnv = fnv_step(fnv, b);
            }
        }
        for &b in words.remainder() {
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

    #[test]
    fn fused_kernel_known_vectors() {
        // The same published vectors through the one-pass kernel: "" and
        // "a" run the tail loop only, "123456789" one word plus a tail.
        assert_eq!(
            Checksum::of(b""),
            Checksum {
                fnv: 0xcbf29ce484222325,
                crc: 0
            }
        );
        assert_eq!(Checksum::of(b"a").fnv, 0xaf63dc4c8601ec8c);
        assert_eq!(Checksum::of(b"123456789").crc, 0xcbf43926);
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
