//! Data integrity: checksum algorithms and corruption detection.
//!
//! The paper requires "CDN folders to have associated properties of data
//! integrity" (Section V); every segment carries a checksum verified after
//! each transfer. Both algorithms are implemented locally — the offline
//! dependency set has no hashing crates.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// 64-bit FNV-1a hash — one serial xor-multiply chain per byte. Not part
/// of [`Checksum`]: the digest behind the coder's golden hash.
#[cfg(test)]
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x100000001b3;
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

/// One stripe of the mix digest: word `j` of `stripe` feeds lane `j` by
/// the `mix` step. On `x86_64` it first asks the CPU to fetch the cache
/// line `PREFETCH_AHEAD` bytes on. The lanes' dependent multiplies fill
/// the out-of-order window before later loads issue, so on input that is
/// not in cache the DRAM time would add to the compute time instead of
/// overlapping it.
#[inline(always)]
fn mix_stripe(lanes: &mut [u64; LANES], stripe: &[u8; STRIPE]) {
    #[cfg(target_arch = "x86_64")]
    prefetch(stripe.as_ptr().wrapping_add(PREFETCH_AHEAD));
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane = mix(*lane, le_word(&stripe[8 * j..8 * j + 8]));
    }
}

/// The end of the mix digest: the lanes fold in order, `h = mix(h,
/// lane)` from the FNV offset basis; the `tail` (fewer than `STRIPE`
/// bytes) follows as zero-padded words, and the byte length `len` is
/// mixed in last.
#[inline(always)]
fn mix_finish(lanes: &[u64; LANES], tail: &[u8], len: usize) -> u64 {
    let h = lanes.iter().fold(FNV_OFFSET, |h, &lane| mix(h, lane));
    let h = tail.chunks(8).fold(h, |h, word| mix(h, le_word(word)));
    mix(h, len as u64)
}

/// Word-wise mix digest, the `mix` half of [`Checksum`]. The input is cut
/// into stripes of `LANES` little-endian 8-byte words; word `j` of every
/// stripe feeds lane `j` by the `mix` step. After the last whole stripe the
/// lanes fold in order, `h = mix(h, lane)` from the FNV offset basis; the
/// `len % STRIPE` tail follows as zero-padded words, and the byte length
/// is mixed in last. One multiply per 8 bytes, with the `LANES` chains
/// in flight at once; on `x86_64` each stripe prefetches
/// `PREFETCH_AHEAD` bytes on.
pub fn mix64(data: &[u8]) -> u64 {
    let mut lanes = LANE_BASIS;
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        mix_stripe(
            &mut lanes,
            stripe.try_into().expect("chunks_exact yields a stripe"),
        );
    }
    mix_finish(&lanes, stripes.remainder(), data.len())
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte.
/// Reference kernel for the CRC half of [`Checksum::of`], carry-less and
/// portable.
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

    /// `true` where run-time detection finds `pclmulqdq` and `sse4.1`,
    /// which [`checksum`] needs.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The four accumulators over the first 64-byte block, with the raw
    /// register `crc` in the low 32 bits of the first.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn start(crc: u32, first: &[u8; 64]) -> [__m128i; 4] {
        let acc = [
            load(&first[0..]),
            load(&first[16..]),
            load(&first[32..]),
            load(&first[48..]),
        ];
        [
            _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32)),
            acc[1],
            acc[2],
            acc[3],
        ]
    }

    /// Move each accumulator 64 bytes on and add its 16 bytes of `block`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_block(acc: &mut [__m128i; 4], block: &[u8; 64]) {
        let k1k2 = _mm_set_epi64x(K2, K1);
        for (j, a) in acc.iter_mut().enumerate() {
            *a = fold_into(*a, load(&block[16 * j..]), k1k2);
        }
    }

    /// Reduce the four accumulators to the raw 32-bit register and run it
    /// over `tail`, the fewer than 64 bytes after the last whole block:
    /// one fold of the four into one, single 16-byte folds over the
    /// tail's whole 16-byte blocks, a fold to 64 bits and a Barrett
    /// reduction. The last `len % 16` bytes take the table's byte step.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(acc: [__m128i; 4], tail: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        let mut blocks = tail.chunks_exact(16);
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

    /// [`Checksum::of`](super::Checksum::of) in one pass over `data` (at
    /// least 64 bytes). A mix stripe and a fold block are the same 64
    /// bytes, so each stripe feeds the eight mix lanes and the four
    /// accumulators while it is in L1, and the prefetch of
    /// [`mix_stripe`](super::mix_stripe) serves both. The tail after the
    /// last whole stripe ends both digests.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`: callers check both
    /// with [`detected`] first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn checksum(data: &[u8]) -> super::Checksum {
        let (first, rest) = data
            .split_first_chunk::<64>()
            .expect("the caller passes at least 64 bytes");
        let mut lanes = super::LANE_BASIS;
        super::mix_stripe(&mut lanes, first);
        let mut acc = start(!0, first);
        let mut stripes = rest.chunks_exact(64);
        for stripe in &mut stripes {
            let stripe = stripe.try_into().expect("chunks_exact yields a stripe");
            super::mix_stripe(&mut lanes, stripe);
            fold_block(&mut acc, stripe);
        }
        let tail = stripes.remainder();
        super::Checksum {
            mix: super::mix_finish(&lanes, tail, data.len()),
            crc: !reduce(acc, tail),
        }
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
    /// Compute the checksum of `data`, reading each byte once where it
    /// can. On an `x86_64` host with `pclmulqdq` and `sse4.1`, an input of
    /// at least 64 bytes runs one loop: each 64-byte stripe feeds the
    /// eight [`mix64`] lanes and the four carry-less CRC accumulators,
    /// sharing `mix64`'s stripe step and lane fold. Two passes re-read
    /// from L2 whatever does not fit in L1 (48 KiB on the reference host),
    /// so the one loop beat the mix-then-carry-less-CRC passes it replaced
    /// on input that is not in cache (1.15–1.29× on a cold 256 KiB block)
    /// and tied them on input that is (DESIGN.md §18 has the table). Every
    /// other input and host runs [`Checksum::of_portable`]'s two passes.
    pub fn of(data: &[u8]) -> Checksum {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= CLMUL_MIN && clmul::detected() {
            // SAFETY: `clmul::checksum` needs `pclmulqdq` and `sse4.1`,
            // and both were just detected at run time on this CPU.
            return unsafe { clmul::checksum(data) };
        }
        Checksum::of_portable(data)
    }

    /// [`Checksum::of`] as two passes, [`mix64`] and the portable
    /// slice-by-16 CRC loop, whatever the CPU offers: what a host without
    /// `pclmulqdq` runs, and every host on input shorter than 64 bytes.
    /// Tests and benches hold both kernels to the references on every
    /// host.
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
    /// offsets through the dispatched and the portable kernel. Where the
    /// CPU has `pclmulqdq`, the dispatched kernel is the one loop from its
    /// 64-byte minimum, so every branch of its CRC half runs (four
    /// accumulators, zero to three single folds, every `len % 16` tail);
    /// the portable loop runs on every host.
    #[test]
    fn every_short_length_and_offset_matches_the_references() {
        let buffer: Vec<u8> = (0..336u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
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
            }
        }
    }

    /// The fused loop's edges against the references, at offsets 0..8:
    /// every length 0..=1100, and each length `64·m + δ` up to 70 000 for
    /// δ in {−1, 0, 1, 15, 16, 17, 48, 63} — a tail that ends on either
    /// side of a stripe, of a 16-byte fold and of a byte step. `m` runs
    /// over every value to 64 (past the prefetch distance), around each
    /// power of two to 1024 (a 64 KiB segment) and 1093, the last stripe
    /// under 70 000: every `m` would take half a minute unoptimised. The
    /// references run once per offset over the longest window: the CRC
    /// register after every byte, and the mix lanes after every whole
    /// stripe (each length then ends its own tail, as `mix_reference`
    /// does).
    #[test]
    fn fused_kernel_edges_match_the_references() {
        const LONGEST: usize = 70_000;
        let buffer: Vec<u8> = (0..LONGEST as u32 + 8)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut lengths: Vec<usize> = (0..=1100).collect();
        let powers = (7..=10).flat_map(|j| [(1 << j) - 1, 1 << j, (1 << j) + 1]);
        for m in (1..=64).chain(powers).chain([LONGEST / 64]) {
            for delta in [-1, 0, 1, 15, 16, 17, 48, 63] {
                lengths.push((64 * m).wrapping_add_signed(delta));
            }
        }
        lengths.retain(|&len| len <= LONGEST);
        lengths.sort_unstable();
        lengths.dedup();
        for offset in 0..8 {
            let data = &buffer[offset..offset + LONGEST];
            let crc_after: Vec<u32> = std::iter::once(!0)
                .chain(data.iter().scan(!0u32, |crc, &b| {
                    *crc = crc_step(*crc, b);
                    Some(*crc)
                }))
                .collect();
            let mut lanes: [u64; LANES] = LANE_BASIS;
            let mut lanes_after = vec![lanes];
            for stripe in data.chunks_exact(STRIPE) {
                for (j, lane) in lanes.iter_mut().enumerate() {
                    let word =
                        (0..8).fold(0u64, |w, i| w | u64::from(stripe[8 * j + i]) << (8 * i));
                    *lane = mix(*lane, word);
                }
                lanes_after.push(lanes);
            }
            for &len in &lengths {
                let whole = len - len % STRIPE;
                let mut h = lanes_after[whole / STRIPE]
                    .iter()
                    .fold(FNV_OFFSET, |h, &lane| mix(h, lane));
                for word in data[whole..len].chunks(8) {
                    h = mix(
                        h,
                        word.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b)),
                    );
                }
                let reference = Checksum {
                    mix: mix(h, len as u64),
                    crc: !crc_after[len],
                };
                assert_eq!(
                    Checksum::of(&data[..len]),
                    reference,
                    "offset {offset}, len {len}"
                );
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
