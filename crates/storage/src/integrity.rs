//! Data integrity: checksum algorithms and corruption detection.
//!
//! The paper requires "CDN folders to have associated properties of data
//! integrity" (Section V); every segment carries a checksum verified after
//! each transfer. Both algorithms are implemented locally — the offline
//! dependency set has no hashing crates.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a hash — one serial xor-multiply chain per byte. Not part
/// of [`Checksum`]: the digest behind the coder's golden hash and the
/// overlay's certificate fingerprints.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Odd multiplier of the mix step: 2^64 over the golden ratio.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the mix digest: xor the word in, multiply by the odd `K`,
/// fold the high half onto the low. Each of the three is a bijection of
/// the state, and the xor is one of the word, so the step is bijective in
/// the state for a fixed word and in the word for a fixed state.
#[inline(always)]
const fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(K);
    h ^ (h >> 32)
}

/// Independent chains of the mix digest. Chosen by measurement from
/// {4, 8} (EXPERIMENTS.md "Word-wise digest"): four chains leave the
/// six-cycle step latency exposed, eight fill the issue width.
const LANES: usize = 8;

/// Bytes per stripe: one little-endian 8-byte word for each lane.
const STRIPE: usize = 8 * LANES;

/// Lane `j` starts from `mix(FNV_OFFSET, j)`, so equal words in different
/// lanes do not leave equal lane states.
const LANE_BASIS: [u64; LANES] = {
    let mut basis = [0; LANES];
    let mut j = 0;
    while j < LANES {
        basis[j] = mix(FNV_OFFSET, j as u64);
        j += 1;
    }
    basis
};

/// How far ahead of the stripe it is digesting [`mix64`] prefetches.
/// Chosen by measurement from {512, 1024, 2048, 4096, 8192} on input not
/// in cache (EXPERIMENTS.md "Cold-byte kernels"): nearer leaves DRAM
/// latency exposed, and from 2048 on the throughput is flat, while every
/// input leaves its first `PREFETCH_AHEAD` bytes unprefetched.
#[cfg(target_arch = "x86_64")]
const PREFETCH_AHEAD: usize = 2048;

/// Hint the CPU to bring the cache line at `at` into L1. A prefetch never
/// faults, so `at` may point past the end of its allocation (the last
/// `PREFETCH_AHEAD` bytes of every input do).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch(at: *const u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `prefetch` reads no memory and cannot fault on any address,
    // so `at` need not be dereferenceable; `sse` is part of the `x86_64`
    // baseline.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(at.cast()) }
}

/// The little-endian word of up to eight bytes, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Word-wise mix digest, the `mix` half of [`Checksum`]. The input is cut
/// into stripes of `LANES` little-endian 8-byte words; word `j` of every
/// stripe feeds lane `j` by the `mix` step. After the last whole stripe the
/// lanes fold in order, `h = mix(h, lane)` from the FNV offset basis; the
/// `len % STRIPE` tail follows as zero-padded words, and the byte length
/// is mixed in last. One multiply per 8 bytes, with the `LANES` chains
/// in flight at once.
///
/// On `x86_64` each stripe first asks the CPU to fetch the cache line
/// `PREFETCH_AHEAD` bytes on. The lanes' dependent multiplies fill the
/// out-of-order window before later loads issue, so on input that is not
/// in cache the DRAM time would add to the compute time instead of
/// overlapping it.
pub fn mix64(data: &[u8]) -> u64 {
    let mut lanes = LANE_BASIS;
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        #[cfg(target_arch = "x86_64")]
        prefetch(stripe.as_ptr().wrapping_add(PREFETCH_AHEAD));
        let stripe: &[u8; STRIPE] = stripe.try_into().expect("chunks_exact yields a stripe");
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, le_word(&stripe[8 * j..8 * j + 8]));
        }
    }
    let h = lanes.iter().fold(FNV_OFFSET, |h, &lane| mix(h, lane));
    let h = stripes
        .remainder()
        .chunks(8)
        .fold(h, |h, word| mix(h, le_word(word)));
    mix(h, data.len() as u64)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte.
/// Reference kernel for [`crc32_fast`] and the portable slice-by-16 loop.
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

/// Run the CRC register over `data` sixteen bytes a step: the register is
/// XORed into the low four bytes of the block and the sixteen lookups
/// `T[15][b0] ^ … ^ T[0][b15]` depend on neither each other nor the last
/// step's lookups. The last `len % 16` bytes take the byte step.
fn crc_slice16(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(CRC_SLICE);
    for block in &mut blocks {
        let word =
            |at: usize| u64::from_le_bytes(block[at..at + 8].try_into().expect("8 of 16 bytes"));
        let (lo, hi) = (word(0) ^ crc as u64, word(8));
        crc = 0;
        for i in 0..8 {
            crc ^= t[CRC_SLICE - 1 - i][(lo >> (8 * i)) as u8 as usize]
                ^ t[CRC_SLICE - 9 - i][(hi >> (8 * i)) as u8 as usize];
        }
    }
    blocks
        .remainder()
        .iter()
        .fold(crc, |crc, &b| crc_step(crc, b))
}

/// Shortest input the carry-less fold takes; shorter inputs run the
/// slice-by-16 loop. The fold needs 64 bytes to fill its four
/// accumulators, and from there on it beats the table even after its
/// fixed reduction: chosen by measurement from {64, 128, 256}
/// (EXPERIMENTS.md "Carry-less CRC").
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// CRC-32 of `data` ([`crc32`]), the `crc` half of [`Checksum::of`].
///
/// The kernel is picked by the CPU alone. An `x86_64` host with
/// `pclmulqdq` and `sse4.1` runs the carry-less-multiply fold, which
/// takes 64 bytes with eight independent multiplies; every other host —
/// another architecture, or an x86 part without the instructions — runs
/// the portable slice-by-16 table loop, whose 16 lookups per 16 bytes are
/// the best a table can do. Both equal [`crc32`] on every input.
pub fn crc32_fast(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::fold` needs `pclmulqdq` and `sse4.1`, and both
        // were just detected at run time on this CPU.
        return !unsafe { clmul::fold(!0, data) };
    }
    !crc_slice16(!0, data)
}

/// Carry-less-multiply CRC-32: Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Gopal et al., 2009) for the
/// reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold constants, bit-reflected as the reflected CRC needs them: each
    // is `x^n mod P(x)` for the distance `n` it moves a 64-bit half.
    /// `x^(4·128+32)`, `x^(4·128−32)`: fold an accumulator 64 bytes on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)`, `x^(128−32)`: fold an accumulator 16 bytes on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64`: fold the 96 bits left after the 128 → 64 step to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` and `μ = ⌊x^64 / P(x)⌋`, reflected, for the Barrett step.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Unaligned load of the 16 bytes at `block[..16]`.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block[..16].try_into().expect("16 bytes");
        // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
        // requirement (a `Bytes` slice starts anywhere); `sse2` is part of
        // the `x86_64` baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Move the 128-bit accumulator `acc` on by the distance `keys`
    /// encodes and add the block that sits there: `acc.lo · k_lo ^
    /// acc.hi · k_hi ^ block`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), block)
    }

    /// Run the raw CRC register `crc` over `data` (at least 64 bytes):
    /// four 128-bit accumulators over 64-byte blocks, one fold of the four
    /// into one, single 16-byte folds to the last whole block, a fold to
    /// 64 bits and a Barrett reduction to the 32-bit register. The last
    /// `len % 16` bytes take the table's byte step.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`: callers check both
    /// with `is_x86_feature_detected!` first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        let (first, rest) = data
            .split_first_chunk::<64>()
            .expect("the caller passes at least 64 bytes");
        let mut acc = [
            load(&first[0..]),
            load(&first[16..]),
            load(&first[32..]),
            load(&first[48..]),
        ];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = fold_into(*a, load(&block[16 * j..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        let mut blocks = blocks.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold_into(x, load(block), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        // 128 → 96 bits: the low half moves 64 bits on into the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits.
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32) · μ, T2 = (T1 mod x^32) · P, and the
        // register is the high 32 bits of R ^ T2 (reflected).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        blocks
            .remainder()
            .iter()
            .fold(crc, |crc, &b| super::crc_step(crc, b))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// `x^n mod P(x)` in normal bit order, by shift-and-reduce.
        fn x_pow_mod_p(n: u32) -> u32 {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 != 0 {
                    r ^ 0x1_04c1_1db7
                } else {
                    r
                }
            }) as u32
        }

        #[test]
        fn fold_constants_are_reflected_powers_of_x() {
            let k = |n| i64::from(x_pow_mod_p(n).reverse_bits()) << 1;
            assert_eq!([K1, K2, K3, K4, K5], [k(544), k(480), k(160), k(96), k(64)]);
            // μ = ⌊x^64 / P(x)⌋ by long division; both 33-bit values reflected.
            let p = 0x1_04c1_1db7u64;
            let (mut rem, mut mu) = (1u128 << 64, 0u64);
            for shift in (0..=32).rev() {
                if rem >> (32 + shift) & 1 != 0 {
                    rem ^= u128::from(p) << shift;
                    mu |= 1 << shift;
                }
            }
            let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
            assert_eq!((P, MU), (reflect33(p), reflect33(mu)));
        }
    }
}

/// The checksum attached to stored segments: two digests of unrelated
/// construction (a multiplicative hash and a cyclic code) over the same
/// bytes, compared together.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum {
    /// Word-wise mix digest ([`mix64`]).
    pub mix: u64,
    /// CRC-32 digest ([`crc32`]).
    pub crc: u32,
}

impl Checksum {
    /// Compute the checksum of `data`: two single-purpose passes over the
    /// same bytes, [`mix64`] and [`crc32_fast`]. Kept apart, neither
    /// loop's registers and ports crowd the other's (EXPERIMENTS.md
    /// "Word-wise digest" has the fused loop measured against them). The
    /// second pass re-reads from L1 only what fits there (48 KiB on the
    /// reference host); a 64 KiB segment or a 256 KiB block comes back
    /// from L2. On the reference host the two read 7,300–8,500 MiB/s
    /// over a 256 KiB buffer in cache, and over one that is not
    /// 5,200–6,500 MiB/s with the mix pass's prefetch, ~3,800 without
    /// (EXPERIMENTS.md "Cold-byte kernels").
    pub fn of(data: &[u8]) -> Checksum {
        Checksum {
            mix: mix64(data),
            crc: crc32_fast(data),
        }
    }

    /// [`Checksum::of`] with the CRC half on the portable slice-by-16 loop
    /// whatever the CPU offers: what a host without `pclmulqdq` runs. For
    /// tests and benches, which hold both kernels to the references on
    /// every host.
    pub fn of_portable(data: &[u8]) -> Checksum {
        Checksum {
            mix: mix64(data),
            crc: !crc_slice16(!0, data),
        }
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

    /// The mix digest word by word, straight from its definition: the
    /// reference [`mix64`] is held to. Word `i` of the whole stripes goes
    /// to lane `i % LANES`; every tail word is assembled byte by byte.
    fn mix_reference(data: &[u8]) -> u64 {
        let whole = data.len() - data.len() % STRIPE;
        let word = |at: usize| {
            (0..8).fold(0u64, |w, i| {
                w | u64::from(data.get(at + i).copied().unwrap_or(0)) << (8 * i)
            })
        };
        let mut lanes: Vec<u64> = (0..LANES as u64).map(|j| mix(FNV_OFFSET, j)).collect();
        for i in 0..whole / 8 {
            lanes[i % LANES] = mix(lanes[i % LANES], word(8 * i));
        }
        let mut h = lanes.iter().fold(FNV_OFFSET, |h, &lane| mix(h, lane));
        for at in (whole..data.len()).step_by(8) {
            h = mix(h, word(at));
        }
        mix(h, data.len() as u64)
    }

    #[test]
    fn fused_kernel_known_vectors() {
        // The mix digest of "", "a" and "123456789", and of the counting
        // bytes 0, 1, 2, … 31, 32 and 33 long (all tail: zero-padded
        // words), one stripe and one over. Worked out from the definition
        // outside this crate; the CRC column is the standard CRC-32 of the
        // same bytes.
        let vectors: [(&[u8], u64, u32); 8] = [
            (b"", 0x7f2e7adba4e689ac, 0),
            (b"a", 0x6af33882f3dcf987, 0xe8b7be43),
            (b"123456789", 0xca305d4cfa7aabd1, 0xcbf43926),
            (&counting(31), 0xdfe6a050fffc6a35, 0x4d786d77),
            (&counting(32), 0xfff7075fbd7ddf99, 0x91267e8a),
            (&counting(33), 0x56c0d6fa2020ace2, 0xe4908305),
            (&counting(64), 0x9e624990be9170b9, 0x100ece8c),
            (&counting(65), 0x76db3d7bb28d5923, 0x40c06fd8),
        ];
        for (data, mix, crc) in vectors {
            assert_eq!(Checksum::of(data), Checksum { mix, crc }, "{data:?}");
            assert_eq!(
                Checksum::of_portable(data),
                Checksum { mix, crc },
                "{data:?}"
            );
            assert_eq!(mix_reference(data), mix, "{data:?}");
            assert_eq!(crc32(data), crc, "{data:?}");
        }
    }

    /// Every length 0..=320 (up to five stripes and every tail) at 16
    /// offsets through the dispatched and the portable kernel, and through
    /// the carry-less fold itself from its 64-byte minimum where the CPU
    /// has it: every fold branch (four accumulators, zero to four single
    /// folds, every `len % 16` tail) on every host, and the portable loop
    /// on a `pclmulqdq` host too.
    #[test]
    fn every_short_length_and_offset_matches_the_references() {
        let buffer: Vec<u8> = (0..336u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        #[cfg(target_arch = "x86_64")]
        let clmul = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        for offset in 0..16 {
            for len in 0..=320 {
                let d = &buffer[offset..offset + len];
                let reference = Checksum {
                    mix: mix_reference(d),
                    crc: crc32(d),
                };
                assert_eq!(Checksum::of(d), reference, "offset {offset}, len {len}");
                assert_eq!(
                    Checksum::of_portable(d),
                    reference,
                    "offset {offset}, len {len}"
                );
                #[cfg(target_arch = "x86_64")]
                if clmul && len >= 64 {
                    // SAFETY: `pclmulqdq` and `sse4.1` were detected above.
                    let crc = !unsafe { clmul::fold(!0, d) };
                    assert_eq!(crc, reference.crc, "offset {offset}, len {len}");
                }
            }
        }
    }

    /// Every length 0..=4096 as a window that ends exactly where its
    /// allocation ends, so the last `PREFETCH_AHEAD` bytes of every input
    /// prefetch past it: harmless, and the digest is the reference's.
    #[test]
    fn mix_prefetching_past_the_allocation_matches_the_reference() {
        let buffer: Box<[u8]> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=buffer.len() {
            let window = &buffer[buffer.len() - len..];
            assert_eq!(mix64(window), mix_reference(window), "len {len}");
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
                assert_ne!(bad.mix, clean.mix, "byte {at} -> {value}");
                assert_ne!(bad.crc, clean.crc, "byte {at} -> {value}");
            }
        }
    }

    #[test]
    fn word_order_is_bound() {
        // Swapping two 8-byte words moves the mix half whether they share
        // a stripe (two lanes change), a lane (one chain reordered) or the
        // tail.
        let data = counting(3 * STRIPE + 5);
        let clean = Checksum::of(&data);
        let words = data.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                let mut swapped = data.clone();
                for i in 0..8 {
                    swapped.swap(8 * a + i, 8 * b + i);
                }
                assert_ne!(Checksum::of(&swapped).mix, clean.mix, "words {a} and {b}");
            }
        }
    }

    #[test]
    fn length_is_bound() {
        // Zero bytes appended or cut — whole stripes of them included —
        // change the mix half: the tail's zero padding cannot tell them
        // apart, so the length is mixed in last.
        for base in [0, 1, 31, 32, 33, 64, 100] {
            let mut data = counting(base);
            let mut seen = vec![Checksum::of(&data).mix];
            for _ in 0..3 * STRIPE {
                data.push(0);
                let grown = Checksum::of(&data).mix;
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
    fn every_two_bit_flip_moves_the_mix_half() {
        // Exhaustive over every pair of bits of two stripes and a 5-byte
        // tail, the mix half alone. Two flips in one word are one changed
        // word; bit 63 flipped in two consecutive words of one lane is
        // what a plain xor-multiply chain cancels — `(h ^ 2^63) * K` is
        // `h * K ^ 2^63` — and the xorshift carries it down to bit 31.
        let mut data = counting(2 * STRIPE + 5);
        let clean = mix64(&data);
        let bits = data.len() * 8;
        for a in 0..bits {
            corrupt_bit(&mut data, a);
            for b in a + 1..bits {
                corrupt_bit(&mut data, b);
                assert_ne!(mix64(&data), clean, "bits {a} and {b}");
                corrupt_bit(&mut data, b);
            }
            corrupt_bit(&mut data, a);
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
