//! Deterministic, seedable systematic erasure coding for datasets.
//!
//! The availability problem the paper leaves open is that user-contributed
//! repositories churn: a requester needs one replica holding a *complete*
//! copy, and repair re-replicates whole datasets when a host departs. This
//! module codes a dataset's bytes into `n = k + m` fixed-size blocks such
//! that **any k** of them reconstruct the original content exactly —
//! requesters can fan in from many partial holders, and repair regenerates
//! only the *missing* blocks (each `ceil(len / k)` bytes) instead of
//! shipping full copies.
//!
//! The code is a systematic Reed–Solomon code over GF(2^8):
//!
//! * the generator matrix is `[I_k; C]` where `C` is an `m x k` Cauchy
//!   matrix `C[j][i] = 1 / (x_j ^ y_i)` over distinct field points
//!   `y_i = off + i`, `x_j = off + k + j`. Every square submatrix of a
//!   Cauchy matrix is nonsingular, so any k rows of the generator are
//!   invertible — the any-k-of-n property holds by construction;
//! * `off` is derived from the seed, making the whole code book a pure
//!   function of `(k, m, seed)` — encode and decode replay identically on
//!   every host with no shared state;
//! * blocks 0..k are the raw data shards (systematic), so an uncoded
//!   reader that happens to hold the first k blocks can concatenate them.
//!
//! Everything is implemented here — GF(2^8) log/exp tables and
//! Gauss–Jordan inversion included — per the vendored-offline constraint
//! (no external coding crates).

use bytes::Bytes;

use crate::object::{DatasetId, Segment, SegmentId};

/// Ordinal base for coded blocks: a coded block with index `i` is stored
/// and transferred as the segment `(dataset, CODED_ORDINAL_BASE + i)`.
/// Plain segment ordinals are dataset offsets (far below 2^30), so coded
/// and plain segments never collide in repositories, transfer-failure
/// hashes, or quota accounting.
pub const CODED_ORDINAL_BASE: u32 = 1 << 30;

/// Per-dataset coding policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CodingConfig {
    /// Whole-replica storage, exactly as before coding existed.
    #[default]
    None,
    /// Systematic Reed–Solomon: k data blocks + m parity blocks; any k of
    /// the n = k + m blocks reconstruct the dataset.
    Rs {
        /// Data blocks (k >= 1).
        k: u8,
        /// Parity blocks (m >= 1, k + m <= 255).
        m: u8,
    },
}

/// The fully-determined coding parameters of one published dataset, as
/// recorded in the allocation catalog: everything a peer needs to encode,
/// decode, or repair blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodingSpec {
    /// Data blocks.
    pub k: u8,
    /// Parity blocks.
    pub m: u8,
    /// Seed the generator matrix is derived from.
    pub seed: u64,
    /// Exact content length in bytes (decode truncates padding to this).
    pub total_len: u64,
}

impl CodingSpec {
    /// Total block count `n = k + m`.
    pub fn n(&self) -> u32 {
        self.k as u32 + self.m as u32
    }

    /// Bytes per coded block: `ceil(total_len / k)`, at least 1 so empty
    /// datasets still produce addressable blocks.
    pub fn block_len(&self) -> usize {
        (self.total_len as usize).div_ceil(self.k as usize).max(1)
    }

    /// The coder for this spec.
    pub fn coder(&self) -> ErasureCoder {
        ErasureCoder::new(self.k, self.m, self.seed)
    }
}

/// Address of one coded block of a dataset.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CodedBlockId {
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Block index in `0..n` (indices `0..k` are systematic data shards).
    pub index: u32,
}

impl CodedBlockId {
    /// The segment id this block is stored and transferred under.
    pub fn segment_id(self) -> SegmentId {
        SegmentId {
            dataset: self.dataset,
            ordinal: CODED_ORDINAL_BASE + self.index,
        }
    }

    /// Recover a block id from a segment id, if it addresses a coded block.
    pub fn from_segment_id(id: SegmentId) -> Option<CodedBlockId> {
        if id.ordinal >= CODED_ORDINAL_BASE {
            Some(CodedBlockId {
                dataset: id.dataset,
                index: id.ordinal - CODED_ORDINAL_BASE,
            })
        } else {
            None
        }
    }
}

/// `true` if the ordinal addresses a coded block rather than a plain
/// segment.
pub fn is_coded_ordinal(ordinal: u32) -> bool {
    ordinal >= CODED_ORDINAL_BASE
}

/// Decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum CodingError {
    /// Fewer than k distinct blocks were supplied.
    NotEnoughBlocks {
        /// Distinct blocks supplied.
        have: usize,
        /// Blocks required (k).
        need: usize,
    },
    /// A supplied block's index is outside `0..n` or duplicated.
    BadBlockIndex(u32),
    /// A supplied block's length differs from the spec's block length.
    BadBlockLength {
        /// Offending block index.
        index: u32,
        /// Its length.
        got: usize,
        /// The spec's block length.
        want: usize,
    },
    /// Invalid parameters (k = 0, m = 0, or k + m > 255).
    BadParameters,
}

impl std::fmt::Display for CodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodingError::NotEnoughBlocks { have, need } => {
                write!(f, "decode needs {need} distinct blocks, have {have}")
            }
            CodingError::BadBlockIndex(i) => write!(f, "block index {i} out of range or duplicate"),
            CodingError::BadBlockLength { index, got, want } => {
                write!(f, "block {index} is {got} B, expected {want} B")
            }
            CodingError::BadParameters => write!(f, "invalid coding parameters"),
        }
    }
}

impl std::error::Error for CodingError {}

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic, generated at compile time (polynomial 0x11d).

const GF_POLY: u16 = 0x11d;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0usize;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    // Mirror the cycle so mul can index log(a) + log(b) without a mod.
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

const GF_TABLES: ([u8; 512], [u8; 256]) = build_tables();
const GF_EXP: [u8; 512] = GF_TABLES.0;
const GF_LOG: [u8; 256] = GF_TABLES.1;

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse in GF(256)");
    GF_EXP[255 - GF_LOG[a as usize] as usize]
}

#[inline]
fn gf_div(a: u8, b: u8) -> u8 {
    if a == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + 255 - GF_LOG[b as usize] as usize]
    }
}

/// The 256 products `coef * d`: built once per (row, coefficient), it turns
/// every GF(2^8) multiply over a shard into one unconditional lookup.
fn product_row(coef: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    if coef != 0 {
        let log_c = GF_LOG[coef as usize] as usize;
        for (d, p) in row.iter_mut().enumerate().skip(1) {
            *p = GF_EXP[log_c + GF_LOG[d] as usize];
        }
    }
    row
}

/// The split-nibble form of `coef · d`: `lo[i] = coef · i` and
/// `hi[i] = coef · (i << 4)`. Multiplication by `coef` is linear over
/// GF(2), so `coef · d = lo[d & 15] ^ hi[d >> 4]`, and two 16-entry
/// tables fit one vector register each.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn nibble_tables(coef: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16u8 {
        lo[i as usize] = gf_mul(coef, i);
        hi[i as usize] = gf_mul(coef, i << 4);
    }
    (lo, hi)
}

/// `acc[i] ^= coef * src[i]` over a whole shard. Panics unless the two
/// are the same length.
///
/// The kernel is picked by the CPU alone. An `x86_64` host with `avx2`
/// multiplies 32 bytes a step by two byte shuffles of the split-nibble
/// tables (`nibble_tables`); the `len % 32` tail, a coefficient of 0
/// or 1, and every other host run [`mul_acc_portable`]. Both equal the
/// per-byte `gf_mul` on every input.
pub fn mul_acc(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "mul_acc over shards of one length");
    #[cfg(target_arch = "x86_64")]
    if coef > 1 && src.len() >= nibble::STEP && is_x86_feature_detected!("avx2") {
        // SAFETY: `nibble::mul_acc` needs `avx2`, which was just detected
        // at run time on this CPU.
        let done = unsafe { nibble::mul_acc(acc, coef, src) };
        if done < src.len() {
            mul_acc_portable(&mut acc[done..], coef, &src[done..]);
        }
        return;
    }
    mul_acc_portable(acc, coef, src);
}

/// [`mul_acc`] on the portable product-row loop whatever the CPU offers:
/// what a host without `avx2` runs. A zero coefficient contributes
/// nothing and a unit coefficient is a plain XOR, so the identity rows of
/// the generator (and of its inverse, when decoding from the systematic
/// blocks) do no field arithmetic at all. Panics unless the two are the
/// same length.
pub fn mul_acc_portable(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "mul_acc over shards of one length");
    match coef {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a ^= s;
            }
        }
        _ => {
            let row = product_row(coef);
            for (a, &s) in acc.iter_mut().zip(src) {
                *a ^= row[s as usize];
            }
        }
    }
}

/// The split-nibble multiply on AVX2: `vpshufb` looks up 32 bytes of a
/// 16-entry table at once, so `coef · x` is two shuffles and two XORs
/// per 32 bytes.
#[cfg(target_arch = "x86_64")]
mod nibble {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// Bytes per step: one 256-bit register.
    pub(super) const STEP: usize = 32;

    /// Unaligned load of the 32 bytes at `bytes`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; STEP]) -> __m256i {
        // SAFETY: `bytes` is 32 readable bytes and `loadu` has no alignment
        // requirement; `avx` is implied by the enclosing `avx2`.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    /// Run `acc ^= coef · src` over the whole 32-byte steps of `src` and
    /// return how many bytes that covered; the caller finishes the rest.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`: callers check with
    /// `is_x86_feature_detected!` first.
    #[target_feature(enable = "avx2")]
    pub(super) fn mul_acc(acc: &mut [u8], coef: u8, src: &[u8]) -> usize {
        let (lo, hi) = super::nibble_tables(coef);
        // SAFETY: each table is 16 readable bytes and `loadu` has no
        // alignment requirement; `sse2` is part of the `x86_64` baseline.
        let (lo, hi) = unsafe {
            (
                _mm_loadu_si128(lo.as_ptr().cast()),
                _mm_loadu_si128(hi.as_ptr().cast()),
            )
        };
        // The shuffle looks up within each 128-bit half, so both halves
        // carry the whole table.
        let (lo, hi) = (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        );
        let low_nibbles = _mm256_set1_epi8(0x0f);
        for (a, s) in acc.chunks_exact_mut(STEP).zip(src.chunks_exact(STEP)) {
            let a: &mut [u8; STEP] = a.try_into().expect("chunks_exact yields a step");
            let x = load(s.try_into().expect("chunks_exact yields a step"));
            let product = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(x, low_nibbles)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), low_nibbles)),
            );
            let sum = _mm256_xor_si256(load(a), product);
            // SAFETY: `a` is 32 writable bytes and `storeu` has no
            // alignment requirement; `avx` is implied by `avx2`.
            unsafe { _mm256_storeu_si256(a.as_mut_ptr().cast(), sum) };
        }
        src.len() - src.len() % STEP
    }
}

// ---------------------------------------------------------------------------

/// Systematic Reed–Solomon coder: a pure function of `(k, m, seed)`.
#[derive(Clone, Debug)]
pub struct ErasureCoder {
    k: usize,
    m: usize,
    /// Parity rows of the generator matrix: `m` rows of `k` coefficients.
    parity: Vec<Vec<u8>>,
}

/// The `k` data shards a decode produced, in shard order.
#[derive(Clone, Debug)]
pub struct DecodedShards {
    /// Data shards `0..k`, each exactly the block length (the tail of the
    /// last ones is zero padding past the content length). A shard that
    /// was among the supplied blocks is that block's own buffer, not a
    /// copy.
    pub shards: Vec<Bytes>,
    /// Shards that had to be reconstructed from parity; `0` when every
    /// data block was supplied.
    pub reconstructed: usize,
}

impl DecodedShards {
    /// Bytes `start..end` of the content the shards spell out end to end:
    /// a slice sharing a shard's buffer when the range lies inside one
    /// shard, a copy only when it straddles a shard boundary. Panics if
    /// the range is inverted or runs past the last shard.
    pub fn range(&self, start: usize, end: usize) -> Bytes {
        let shard_len = self.shards[0].len();
        let first = start / shard_len;
        if end <= (first + 1) * shard_len {
            return self.shards[first].slice(start - first * shard_len..end - first * shard_len);
        }
        let mut bytes = Vec::with_capacity(end - start);
        let mut at = start;
        while at < end {
            let shard = at / shard_len;
            let upto = end.min((shard + 1) * shard_len);
            bytes.extend_from_slice(
                &self.shards[shard][at - shard * shard_len..upto - shard * shard_len],
            );
            at = upto;
        }
        Bytes::from(bytes)
    }
}

/// The piece `(at, bytes)` cut at the shard boundaries of `shard_len`-byte
/// shards: `(shard, offset within the shard, part)` for each shard it
/// touches, in content order.
fn shard_parts(
    shard_len: usize,
    (mut at, mut rest): (usize, &[u8]),
) -> impl Iterator<Item = (usize, usize, &[u8])> {
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (shard, within) = (at / shard_len, at % shard_len);
        let (part, tail) = rest.split_at(rest.len().min(shard_len - within));
        rest = tail;
        at += part.len();
        Some((shard, within, part))
    })
}

/// Invert a `k x k` matrix of generator rows by Gauss–Jordan elimination,
/// carrying the identity alongside.
fn invert(mut mat: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let k = mat.len();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|r| {
            let mut row = vec![0u8; k];
            row[r] = 1;
            row
        })
        .collect();
    for col in 0..k {
        // Any k generator rows are linearly independent (Cauchy), so a
        // pivot always exists.
        let pivot = (col..k)
            .find(|&r| mat[r][col] != 0)
            .expect("any k generator rows are invertible");
        mat.swap(col, pivot);
        inv.swap(col, pivot);
        let p = mat[col][col];
        for c in 0..k {
            mat[col][c] = gf_div(mat[col][c], p);
            inv[col][c] = gf_div(inv[col][c], p);
        }
        for r in 0..k {
            if r == col || mat[r][col] == 0 {
                continue;
            }
            let factor = mat[r][col];
            for c in 0..k {
                let m = gf_mul(factor, mat[col][c]);
                mat[r][c] ^= m;
                let i = gf_mul(factor, inv[col][c]);
                inv[r][c] ^= i;
            }
        }
    }
    inv
}

impl ErasureCoder {
    /// Build the coder, rejecting invalid parameters (`k == 0`, `m == 0`,
    /// or `k + m > 255`) — the check a publish runs on its configuration.
    pub fn try_new(k: u8, m: u8, seed: u64) -> Result<ErasureCoder, CodingError> {
        let n = k as usize + m as usize;
        if k == 0 || m == 0 || n > 255 {
            return Err(CodingError::BadParameters);
        }
        // Distinct field points: seed only shifts the window, so every
        // seed yields a valid Cauchy construction.
        let off = (seed % (256 - n as u64)) as usize;
        let parity = (0..m as usize)
            .map(|j| {
                let x = (off + k as usize + j) as u8;
                (0..k as usize)
                    .map(|i| {
                        let y = (off + i) as u8;
                        gf_inv(x ^ y)
                    })
                    .collect()
            })
            .collect();
        Ok(ErasureCoder {
            k: k as usize,
            m: m as usize,
            parity,
        })
    }

    /// [`try_new`](Self::try_new) for parameters that were already
    /// validated — a catalogued [`CodingSpec`] passed `try_new` when its
    /// dataset was published. Panics on invalid parameters.
    pub fn new(k: u8, m: u8, seed: u64) -> ErasureCoder {
        ErasureCoder::try_new(k, m, seed).expect("coding parameters are validated at publish time")
    }

    /// Data block count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total block count.
    pub fn n(&self) -> usize {
        self.k + self.m
    }

    /// Row `index` of the generator matrix (identity for data blocks,
    /// Cauchy for parity blocks).
    fn generator_row(&self, index: usize) -> Vec<u8> {
        if index < self.k {
            let mut row = vec![0u8; self.k];
            row[index] = 1;
            row
        } else {
            self.parity[index - self.k].clone()
        }
    }

    /// Encode the blocks `rows` (any subset of `0..n`, in any order) of a
    /// `total_len`-byte content, each `ceil(total_len / k).max(1)` bytes.
    /// The content comes as `pieces`: `(offset, bytes)` runs inside
    /// `0..total_len` that do not overlap, in any order; a byte no piece
    /// covers counts as zero. A whole content slice is the one piece
    /// `(0, content)`. A data row copies into place the parts of the
    /// pieces that fall in its shard, so it needs only those; a parity row
    /// multiplies every part into place under its shard's generator
    /// coefficient, so it needs them all. No other block is materialised.
    /// Panics on a row outside `0..n` or a piece past `total_len`.
    pub fn encode_rows(
        &self,
        total_len: usize,
        pieces: &[(usize, &[u8])],
        rows: &[u32],
    ) -> Vec<Vec<u8>> {
        let shard_len = total_len.div_ceil(self.k).max(1);
        for &(at, bytes) in pieces {
            assert!(
                at + bytes.len() <= total_len,
                "piece {at}..{} past the content's {total_len} bytes",
                at + bytes.len()
            );
        }
        rows.iter()
            .map(|&row| {
                let row = row as usize;
                assert!(row < self.n(), "block row {row} outside 0..{}", self.n());
                let mut block = vec![0u8; shard_len];
                for (shard, within, part) in pieces.iter().flat_map(|&p| shard_parts(shard_len, p))
                {
                    let into = &mut block[within..within + part.len()];
                    if row >= self.k {
                        mul_acc(into, self.parity[row - self.k][shard], part);
                    } else if shard == row {
                        into.copy_from_slice(part);
                    }
                }
                block
            })
            .collect()
    }

    /// The first `k` distinct, well-formed blocks of `blocks`, in the
    /// order supplied: duplicates are skipped, blocks past the k-th are
    /// ignored (unchecked), a bad index or length among the ones looked
    /// at is an error.
    fn choose<'a>(
        &self,
        blocks: &'a [(u32, Bytes)],
        shard_len: usize,
    ) -> Result<Vec<(usize, &'a Bytes)>, CodingError> {
        let mut chosen: Vec<(usize, &Bytes)> = Vec::with_capacity(self.k);
        for (index, data) in blocks {
            let idx = *index as usize;
            if idx >= self.n() {
                return Err(CodingError::BadBlockIndex(*index));
            }
            if chosen.iter().any(|&(c, _)| c == idx) {
                continue;
            }
            if data.len() != shard_len {
                return Err(CodingError::BadBlockLength {
                    index: *index,
                    got: data.len(),
                    want: shard_len,
                });
            }
            chosen.push((idx, data));
            if chosen.len() == self.k {
                return Ok(chosen);
            }
        }
        Err(CodingError::NotEnoughBlocks {
            have: chosen.len(),
            need: self.k,
        })
    }

    /// Recover the `k` data shards from any `k` distinct blocks. `blocks`
    /// pairs each block index with its bytes; `total_len` is the original
    /// content length. Extra blocks beyond the first `k` usable ones are
    /// ignored. A data shard that was supplied passes through as the
    /// buffer it arrived in; only absent ones are computed, and the
    /// generator submatrix is inverted only if some shard is absent.
    pub fn decode_shards(
        &self,
        blocks: &[(u32, Bytes)],
        total_len: usize,
    ) -> Result<DecodedShards, CodingError> {
        let shard_len = total_len.div_ceil(self.k).max(1);
        let chosen = self.choose(blocks, shard_len)?;
        let mut inverse: Option<Vec<Vec<u8>>> = None;
        let mut reconstructed = 0;
        let shards = (0..self.k)
            .map(|r| {
                if let Some(&(_, block)) = chosen.iter().find(|&&(i, _)| i == r) {
                    return block.clone();
                }
                reconstructed += 1;
                let inv = inverse.get_or_insert_with(|| {
                    invert(chosen.iter().map(|&(i, _)| self.generator_row(i)).collect())
                });
                // data_shard[r] = sum_j inv[r][j] * chosen[j].
                let mut shard = vec![0u8; shard_len];
                for (&coef, &(_, block)) in inv[r].iter().zip(&chosen) {
                    mul_acc(&mut shard, coef, block);
                }
                Bytes::from(shard)
            })
            .collect();
        Ok(DecodedShards {
            shards,
            reconstructed,
        })
    }
}

/// Encode the coded blocks `rows` of a dataset's content into checksummed
/// segments (ordinals `CODED_ORDINAL_BASE + row`), in `rows` order, ready
/// for repository storage and transfer.
pub fn encode_block_rows(
    spec: &CodingSpec,
    dataset: DatasetId,
    content: &[u8],
    rows: &[u32],
) -> Vec<Segment> {
    debug_assert_eq!(content.len() as u64, spec.total_len);
    spec.coder()
        .encode_rows(content.len(), &[(0, content)], rows)
        .into_iter()
        .zip(rows)
        .map(|(bytes, &index)| {
            Segment::new(
                CodedBlockId { dataset, index }.segment_id(),
                Bytes::from(bytes),
            )
        })
        .collect()
}

/// Encode a dataset's full content into all `n` checksummed coded-block
/// segments (ordinals `CODED_ORDINAL_BASE..CODED_ORDINAL_BASE + n`).
pub fn encode_blocks(spec: &CodingSpec, dataset: DatasetId, content: &[u8]) -> Vec<Segment> {
    let rows: Vec<u32> = (0..spec.n()).collect();
    encode_block_rows(spec, dataset, content, &rows)
}

/// Recover the data shards from any k coded-block segments (as produced
/// by [`encode_blocks`] and addressed by [`CodedBlockId`]); segments that
/// are not coded blocks are ignored.
pub fn decode_block_shards(
    spec: &CodingSpec,
    blocks: &[Segment],
) -> Result<DecodedShards, CodingError> {
    let pairs: Vec<(u32, Bytes)> = blocks
        .iter()
        .filter_map(|s| CodedBlockId::from_segment_id(s.id).map(|b| (b.index, s.data.clone())))
        .collect();
    spec.coder().decode_shards(&pairs, spec.total_len as usize)
}

/// Decode the original content from any k coded-block segments.
pub fn decode_blocks(spec: &CodingSpec, blocks: &[Segment]) -> Result<Bytes, CodingError> {
    Ok(decode_block_shards(spec, blocks)?.range(0, spec.total_len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_mul_inverse_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            for b in 1..=255u8 {
                assert_eq!(gf_div(gf_mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn product_row_matches_gf_mul_exhaustively() {
        for c in 0..=255u8 {
            let row = product_row(c);
            for d in 0..=255u8 {
                assert_eq!(row[d as usize], gf_mul(c, d), "c = {c}, d = {d}");
            }
        }
    }

    #[test]
    fn nibble_tables_match_gf_mul_exhaustively() {
        for c in 0..=255u8 {
            let (lo, hi) = nibble_tables(c);
            for d in 0..=255u8 {
                let split = lo[(d & 15) as usize] ^ hi[(d >> 4) as usize];
                assert_eq!(split, gf_mul(c, d), "c = {c}, d = {d}");
            }
        }
    }

    /// The per-byte kernel the product rows replaced, kept as the
    /// reference the coder is compared against.
    fn mul_acc_reference(acc: &mut [u8], coef: u8, src: &[u8]) {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a ^= gf_mul(coef, s);
        }
    }

    /// The whole-dataset kernels the row-wise encoder and the shard-wise
    /// decoder replaced, kept verbatim (over the per-byte multiply) as the
    /// references the new kernels are property-tested against.
    impl ErasureCoder {
        /// All `n` blocks at once: materialise the `k` padded shards, then
        /// every parity row.
        fn encode_reference(&self, content: &[u8]) -> Vec<Vec<u8>> {
            let shard_len = content.len().div_ceil(self.k).max(1);
            let mut blocks: Vec<Vec<u8>> = (0..self.k)
                .map(|i| {
                    let start = (i * shard_len).min(content.len());
                    let end = ((i + 1) * shard_len).min(content.len());
                    let mut shard = content[start..end].to_vec();
                    shard.resize(shard_len, 0);
                    shard
                })
                .collect();
            for row in &self.parity {
                let mut parity = vec![0u8; shard_len];
                for (&coef, shard) in row.iter().zip(&blocks) {
                    mul_acc_reference(&mut parity, coef, shard);
                }
                blocks.push(parity);
            }
            blocks
        }

        /// The whole content at once: invert the chosen generator rows and
        /// multiply every data shard out, present or not.
        fn decode_reference(
            &self,
            blocks: &[(u32, &[u8])],
            total_len: usize,
        ) -> Result<Bytes, CodingError> {
            let shard_len = total_len.div_ceil(self.k).max(1);
            // Pick the first k distinct, well-formed blocks.
            let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(self.k);
            for &(index, data) in blocks {
                let idx = index as usize;
                if idx >= self.n() {
                    return Err(CodingError::BadBlockIndex(index));
                }
                if chosen.iter().any(|&(c, _)| c == idx) {
                    continue;
                }
                if data.len() != shard_len {
                    return Err(CodingError::BadBlockLength {
                        index,
                        got: data.len(),
                        want: shard_len,
                    });
                }
                chosen.push((idx, data));
                if chosen.len() == self.k {
                    break;
                }
            }
            if chosen.len() < self.k {
                return Err(CodingError::NotEnoughBlocks {
                    have: chosen.len(),
                    need: self.k,
                });
            }
            let k = self.k;
            let mut mat: Vec<Vec<u8>> =
                chosen.iter().map(|&(i, _)| self.generator_row(i)).collect();
            let mut inv: Vec<Vec<u8>> = (0..k)
                .map(|r| {
                    let mut row = vec![0u8; k];
                    row[r] = 1;
                    row
                })
                .collect();
            for col in 0..k {
                let pivot = (col..k)
                    .find(|&r| mat[r][col] != 0)
                    .expect("any k generator rows are invertible");
                mat.swap(col, pivot);
                inv.swap(col, pivot);
                let p = mat[col][col];
                for c in 0..k {
                    mat[col][c] = gf_div(mat[col][c], p);
                    inv[col][c] = gf_div(inv[col][c], p);
                }
                for r in 0..k {
                    if r == col || mat[r][col] == 0 {
                        continue;
                    }
                    let factor = mat[r][col];
                    for c in 0..k {
                        let m = gf_mul(factor, mat[col][c]);
                        mat[r][c] ^= m;
                        let i = gf_mul(factor, inv[col][c]);
                        inv[r][c] ^= i;
                    }
                }
            }
            // data_shard[r] = sum_j inv[r][j] * chosen[j].
            let mut content = vec![0u8; k * shard_len];
            for (inv_row, shard) in inv.iter().zip(content.chunks_exact_mut(shard_len)) {
                for (&coef, &(_, block)) in inv_row.iter().zip(&chosen) {
                    mul_acc_reference(shard, coef, block);
                }
            }
            content.truncate(total_len);
            Ok(Bytes::from(content))
        }

        /// The row-wise encoder over one whole content slice, as it was
        /// before it took pieces: a data row is its zero-padded slice, a
        /// parity row accumulates the `k` data slices.
        fn encode_rows_reference(&self, content: &[u8], rows: &[u32]) -> Vec<Vec<u8>> {
            let shard_len = content.len().div_ceil(self.k).max(1);
            // Data shard `i` without its padding (zeros add nothing to parity).
            let data = |i: usize| {
                let start = (i * shard_len).min(content.len());
                let end = ((i + 1) * shard_len).min(content.len());
                &content[start..end]
            };
            rows.iter()
                .map(|&row| {
                    let row = row as usize;
                    assert!(row < self.n(), "block row {row} outside 0..{}", self.n());
                    if row < self.k {
                        let mut block = data(row).to_vec();
                        block.resize(shard_len, 0);
                        block
                    } else {
                        let mut block = vec![0u8; shard_len];
                        for (i, &coef) in self.parity[row - self.k].iter().enumerate() {
                            let shard = data(i);
                            mul_acc(&mut block[..shard.len()], coef, shard);
                        }
                        block
                    }
                })
                .collect()
        }
    }

    /// Every block of `content`, through the row-wise kernel.
    fn encode_all(coder: &ErasureCoder, content: &[u8]) -> Vec<Vec<u8>> {
        let rows: Vec<u32> = (0..coder.n() as u32).collect();
        coder.encode_rows(content.len(), &[(0, content)], &rows)
    }

    /// The content, through the shard-wise kernel.
    fn decode(
        coder: &ErasureCoder,
        blocks: &[(u32, &[u8])],
        total_len: usize,
    ) -> Result<Bytes, CodingError> {
        let owned: Vec<(u32, Bytes)> = blocks
            .iter()
            .map(|&(i, b)| (i, Bytes::from(b.to_vec())))
            .collect();
        Ok(coder.decode_shards(&owned, total_len)?.range(0, total_len))
    }

    /// Seeded filler bytes.
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 29) as u8)
            .collect()
    }

    /// Every `k`-subset of `0..n`, ascending.
    fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| (0..n).filter(|&i| mask & (1 << i) != 0).collect())
            .collect()
    }

    proptest::proptest! {
        /// The dispatched kernel (the AVX2 nibble steps and the portable
        /// tail, where the CPU has `avx2`) and the portable loop against
        /// the per-byte reference: every length 0..=96 (zero to three
        /// 32-byte steps, every tail) for the coefficients 0, 1 and a
        /// random one, at a source offset in 0..32 and the accumulator
        /// shifted against it by another.
        #[test]
        fn mul_acc_matches_per_byte_reference(
            src in proptest::collection::vec(proptest::prelude::any::<u8>(), 128),
            acc in proptest::collection::vec(proptest::prelude::any::<u8>(), 160),
            coef in proptest::prelude::any::<u8>(),
            offset in 0usize..32,
            shift in 0usize..32,
        ) {
            let at = offset + shift;
            for coef in [0, 1, coef] {
                for len in 0..=96 {
                    let s = &src[offset..offset + len];
                    let mut want = acc[at..at + len].to_vec();
                    mul_acc_reference(&mut want, coef, s);
                    let mut got = acc.clone();
                    mul_acc(&mut got[at..at + len], coef, s);
                    proptest::prop_assert_eq!(&got[at..at + len], &want[..], "coef {}, len {}", coef, len);
                    let mut got = acc.clone();
                    mul_acc_portable(&mut got[at..at + len], coef, s);
                    proptest::prop_assert_eq!(&got[at..at + len], &want[..], "coef {}, len {}", coef, len);
                }
            }
        }

        #[test]
        fn coder_matches_per_byte_reference(
            content in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            k in 1u8..10,
            m in 1u8..5,
            seed in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<u64>(),
        ) {
            let coder = ErasureCoder::new(k, m, seed);
            let blocks = encode_all(&coder, &content);
            proptest::prop_assert_eq!(&blocks, &coder.encode_reference(&content));
            let (k, n) = (k as usize, blocks.len());
            // The k systematic blocks (nothing to reconstruct), parity
            // first (every parity block, topped up with data from the
            // tail), and a seeded rotation of the block order.
            let systematic: Vec<usize> = (0..k).collect();
            let parity_first: Vec<usize> = (0..n).rev().take(k).collect();
            let rotated: Vec<usize> = (0..k).map(|i| (i + pick as usize % n) % n).collect();
            for subset in [systematic, parity_first, rotated] {
                let picked: Vec<(u32, &[u8])> = subset
                    .iter()
                    .map(|&i| (i as u32, blocks[i].as_slice()))
                    .collect();
                let got = decode(&coder, &picked, content.len()).expect("any k blocks decode");
                let want = coder
                    .decode_reference(&picked, content.len())
                    .expect("any k blocks decode");
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(got.as_ref(), &content[..]);
            }
        }

        /// Shard-wise decode against the whole-content reference: every
        /// k-subset of the n blocks, in a seeded order, with a duplicate
        /// and the surplus blocks (one of them malformed) trailing — and
        /// the same error for k−1 blocks, a bad index, a bad length.
        #[test]
        fn decode_shards_matches_reference_on_every_k_subset(
            k in 1u8..=6,
            m in 1u8..=3,
            len_kind in 0usize..6,
            q in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<u64>(),
        ) {
            let (ku, n) = (k as usize, k as usize + m as usize);
            let total_len = [0, 1, ku - 1, ku, ku * q + ku.min(2) - 1, ku * q][len_kind];
            let content = filler(total_len, seed);
            let coder = ErasureCoder::new(k, m, seed);
            let blocks = coder.encode_reference(&content);
            let shard_len = blocks[0].len();
            let junk = vec![0u8; shard_len + 1];
            for subset in k_subsets(n, ku) {
                let mut order = subset.clone();
                order.rotate_left(pick as usize % ku);
                if pick & 1 == 1 {
                    order.reverse();
                }
                let mut picked: Vec<(u32, &[u8])> = order
                    .iter()
                    .map(|&i| (i as u32, blocks[i].as_slice()))
                    .collect();
                // A duplicate mid-list is skipped; everything past the
                // k-th usable block is never looked at.
                picked.insert(1, picked[0]);
                picked.extend((0..n).filter(|i| !subset.contains(i)).map(|i| (i as u32, blocks[i].as_slice())));
                picked.push((n as u32, junk.as_slice()));
                let want = coder.decode_reference(&picked, total_len).expect("k blocks decode");
                let got = decode(&coder, &picked, total_len).expect("k blocks decode");
                proptest::prop_assert_eq!(&got, &want, "subset {:?}", &subset);
                proptest::prop_assert_eq!(got.as_ref(), &content[..]);
                // Reconstructed exactly the absent data shards; present
                // ones are the supplied buffers.
                let owned: Vec<(u32, Bytes)> = order
                    .iter()
                    .map(|&i| (i as u32, Bytes::from(blocks[i].clone())))
                    .collect();
                let decoded = coder.decode_shards(&owned, total_len).expect("k blocks decode");
                let absent = (0..ku).filter(|r| !subset.contains(r)).count();
                proptest::prop_assert_eq!(decoded.reconstructed, absent);
                for (i, block) in &owned {
                    if (*i as usize) < ku {
                        proptest::prop_assert_eq!(
                            decoded.shards[*i as usize].as_ptr(),
                            block.as_ptr(),
                            "data shard {} was copied", i
                        );
                    }
                }

                // One block short, a bad index, a bad length (on the
                // k-th usable block, past the duplicate): same error.
                let short = &picked[..if ku == 1 { 0 } else { ku }];
                let bad_index: Vec<(u32, &[u8])> =
                    std::iter::once((n as u32 + 3, blocks[0].as_slice()))
                        .chain(picked.iter().copied())
                        .collect();
                let mut bad_length = picked.clone();
                bad_length[if ku == 1 { 0 } else { ku }].1 = junk.as_slice();
                for hostile in [short, &bad_index[..], &bad_length[..]] {
                    let want = coder.decode_reference(hostile, total_len).unwrap_err();
                    let got = decode(&coder, hostile, total_len).unwrap_err();
                    proptest::prop_assert_eq!(got, want);
                }
            }
        }

        /// Row-wise encode of any row subset, in any order, from the
        /// content cut into pieces at random points (near shard boundaries
        /// and anywhere), in a seeded order, against the same rows of the
        /// one-slice reference and of the whole-dataset reference. When
        /// every row asked for is a data row, the pieces that touch none of
        /// their shards are left out: a data row reads only its own shard.
        #[test]
        fn encode_rows_matches_reference_rows(
            k in 1u8..=6,
            m in 1u8..=3,
            len_kind in 0usize..6,
            q in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
            mask in 0u32..512,
            cuts in proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..1 << 16, 0usize..5), 0..10),
            pick in proptest::prelude::any::<u64>(),
        ) {
            let (ku, n) = (k as usize, k as usize + m as usize);
            let total_len = [0, 1, ku - 1, ku, ku * q + ku.min(2) - 1, ku * q][len_kind];
            let content = filler(total_len, seed);
            let coder = ErasureCoder::new(k, m, seed);
            let shard_len = total_len.div_ceil(ku).max(1);
            // A cut within two bytes of a shard boundary, or anywhere.
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|&(near, r, d)| {
                    let cut = if near { (r % (ku + 1)) * shard_len + d } else { r };
                    cut.saturating_sub(2).min(total_len)
                })
                .chain([0, total_len])
                .collect();
            at.sort_unstable();
            at.dedup();
            let mut pieces: Vec<(usize, &[u8])> =
                at.windows(2).map(|w| (w[0], &content[w[0]..w[1]])).collect();
            if !pieces.is_empty() {
                let by = pick as usize % pieces.len();
                pieces.rotate_left(by);
            }
            let mut rows: Vec<u32> = (0..n as u32).filter(|r| mask & (1 << r) != 0).collect();
            if !rows.is_empty() {
                let by = (pick >> 32) as usize % rows.len();
                rows.rotate_left(by);
            }
            let all = coder.encode_reference(&content);
            let want = coder.encode_rows_reference(&content, &rows);
            let reference: Vec<Vec<u8>> = rows.iter().map(|&r| all[r as usize].clone()).collect();
            proptest::prop_assert_eq!(&want, &reference);
            proptest::prop_assert_eq!(&coder.encode_rows(total_len, &pieces, &rows), &want);
            if rows.iter().all(|&r| (r as usize) < ku) {
                let read = |&&(start, bytes): &&(usize, &[u8])| {
                    rows.iter().any(|&r| {
                        let shard = r as usize * shard_len..(r as usize + 1) * shard_len;
                        start < shard.end && shard.start < start + bytes.len()
                    })
                };
                let needed: Vec<(usize, &[u8])> = pieces.iter().filter(read).copied().collect();
                proptest::prop_assert_eq!(&coder.encode_rows(total_len, &needed, &rows), &want);
            }
        }
    }

    #[test]
    fn shard_ranges_share_a_shard_or_copy_across_two() {
        let coder = ErasureCoder::new(3, 2, 9);
        let content = filler(100, 9); // three 34 B shards, 2 B of padding
        let blocks: Vec<(u32, Bytes)> = encode_all(&coder, &content)
            .into_iter()
            .enumerate()
            .map(|(i, b)| (i as u32, Bytes::from(b)))
            .collect();
        let decoded = coder.decode_shards(&blocks[..3], 100).expect("decodes");
        assert_eq!(decoded.reconstructed, 0);
        for (start, end) in [(0, 0), (0, 34), (34, 68), (40, 60), (68, 100), (100, 100)] {
            let got = decoded.range(start, end);
            assert_eq!(got.as_ref(), &content[start..end]);
            if start < end {
                let shard = &blocks[start / 34].1;
                assert_eq!(
                    got.as_ptr(),
                    shard[start % 34..].as_ptr(),
                    "{start}..{end} lies inside one shard and must not be copied"
                );
            }
        }
        for (start, end) in [(0, 35), (33, 35), (30, 100), (0, 100)] {
            assert_eq!(decoded.range(start, end).as_ref(), &content[start..end]);
        }
    }

    #[test]
    fn systematic_prefix_is_raw_data() {
        let coder = ErasureCoder::new(4, 2, 7);
        let content: Vec<u8> = (0..100u8).collect();
        let blocks = encode_all(&coder, &content);
        assert_eq!(blocks.len(), 6);
        let shard_len = content.len().div_ceil(4);
        let mut padded = content.clone();
        padded.resize(4 * shard_len, 0);
        for (i, block) in blocks.iter().take(4).enumerate() {
            assert_eq!(&block[..], &padded[i * shard_len..(i + 1) * shard_len]);
        }
    }

    #[test]
    fn decode_from_every_k_subset() {
        let coder = ErasureCoder::new(3, 3, 42);
        let content: Vec<u8> = (0..250u8).map(|i| i.wrapping_mul(31)).collect();
        let blocks = encode_all(&coder, &content);
        let n = blocks.len();
        // All C(6, 3) = 20 subsets.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let picked: Vec<(u32, &[u8])> = [a, b, c]
                        .iter()
                        .map(|&i| (i as u32, blocks[i].as_slice()))
                        .collect();
                    let got = decode(&coder, &picked, content.len()).expect("decodes");
                    assert_eq!(got.as_ref(), &content[..], "subset ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn seed_changes_parity_not_data() {
        let content: Vec<u8> = (0..64u8).collect();
        let a = encode_all(&ErasureCoder::new(4, 2, 1), &content);
        let b = encode_all(&ErasureCoder::new(4, 2, 2), &content);
        assert_eq!(a[..4], b[..4], "data shards are seed-independent");
        assert_ne!(a[4..], b[4..], "parity depends on the seed");
        // And each seed decodes its own parity.
        for (seed, blocks) in [(1u64, &a), (2u64, &b)] {
            let coder = ErasureCoder::new(4, 2, seed);
            let picked: Vec<(u32, &[u8])> = vec![
                (4, blocks[4].as_slice()),
                (5, blocks[5].as_slice()),
                (0, blocks[0].as_slice()),
                (1, blocks[1].as_slice()),
            ];
            assert_eq!(
                decode(&coder, &picked, content.len())
                    .expect("decodes")
                    .as_ref(),
                &content[..]
            );
        }
    }

    #[test]
    fn empty_content_round_trips() {
        let coder = ErasureCoder::new(3, 2, 0);
        let blocks = encode_all(&coder, &[]);
        assert!(blocks.iter().all(|b| b.len() == 1));
        let picked: Vec<(u32, &[u8])> = [2usize, 3, 4]
            .iter()
            .map(|&i| (i as u32, blocks[i].as_slice()))
            .collect();
        assert_eq!(decode(&coder, &picked, 0).expect("decodes").len(), 0);
    }

    #[test]
    fn not_enough_blocks_is_an_error() {
        let coder = ErasureCoder::new(3, 2, 0);
        let blocks = encode_all(&coder, &[1, 2, 3, 4, 5, 6]);
        let picked: Vec<(u32, &[u8])> = vec![
            (0, blocks[0].as_slice()),
            (0, blocks[0].as_slice()),
            (1, blocks[1].as_slice()),
        ];
        assert_eq!(
            decode(&coder, &picked, 6).unwrap_err(),
            CodingError::NotEnoughBlocks { have: 2, need: 3 }
        );
    }

    #[test]
    fn bad_index_and_length_are_errors() {
        let coder = ErasureCoder::new(2, 1, 0);
        let blocks = encode_all(&coder, &[9, 8, 7]);
        assert_eq!(
            decode(
                &coder,
                &[(3, blocks[0].as_slice()), (1, blocks[1].as_slice())],
                3
            )
            .unwrap_err(),
            CodingError::BadBlockIndex(3)
        );
        let short = [0u8; 1];
        assert_eq!(
            decode(&coder, &[(0, &short[..]), (1, blocks[1].as_slice())], 3).unwrap_err(),
            CodingError::BadBlockLength {
                index: 0,
                got: 1,
                want: 2
            }
        );
    }

    #[test]
    fn coded_block_segment_ids_round_trip() {
        let b = CodedBlockId {
            dataset: DatasetId(7),
            index: 5,
        };
        let sid = b.segment_id();
        assert!(is_coded_ordinal(sid.ordinal));
        assert_eq!(CodedBlockId::from_segment_id(sid), Some(b));
        let plain = SegmentId {
            dataset: DatasetId(7),
            ordinal: 12,
        };
        assert!(!is_coded_ordinal(plain.ordinal));
        assert_eq!(CodedBlockId::from_segment_id(plain), None);
    }

    #[test]
    fn spec_helpers_and_segment_round_trip() {
        let spec = CodingSpec {
            k: 4,
            m: 3,
            seed: 99,
            total_len: 1000,
        };
        assert_eq!(spec.n(), 7);
        assert_eq!(spec.block_len(), 250);
        let content: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let segs = encode_blocks(&spec, DatasetId(3), &content);
        assert_eq!(segs.len(), 7);
        assert!(segs.iter().all(|s| s.verify()));
        // Decode from the last four blocks (pure parity + one data shard).
        let got = decode_blocks(&spec, &segs[3..]).expect("decodes");
        assert_eq!(got.as_ref(), &content[..]);
    }

    /// Pins `encode_blocks` output byte for byte: the digest below was
    /// taken from the per-byte `gf_mul` coder before the product-row
    /// kernel replaced it, hashed with the reference `fnv1a64` (not
    /// `Checksum::of`), so neither kernel swap can move it unnoticed.
    #[test]
    fn encode_blocks_golden_hash() {
        let content: Vec<u8> = (0..100_003u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let spec = CodingSpec {
            k: 4,
            m: 2,
            seed: 0x5cd1_2012,
            total_len: content.len() as u64,
        };
        let all: Vec<u8> = encode_blocks(&spec, DatasetId(11), &content)
            .iter()
            .flat_map(|s| s.data.iter().copied())
            .collect();
        assert_eq!(all.len(), 6 * 25_001);
        assert_eq!(crate::integrity::fnv1a64(&all), 0xb88d_4058_8ddb_aa9c);
    }

    #[test]
    fn large_km_still_invertible() {
        // Stress the Cauchy construction near the field boundary.
        let coder = ErasureCoder::new(20, 10, 0xdead_beef);
        let content: Vec<u8> = (0..997).map(|i| (i * 7 % 256) as u8).collect();
        let blocks = encode_all(&coder, &content);
        // Decode from the *last* k blocks (all parity plus tail data).
        let picked: Vec<(u32, &[u8])> =
            (10..30).map(|i| (i as u32, blocks[i].as_slice())).collect();
        assert_eq!(
            decode(&coder, &picked, content.len())
                .expect("decodes")
                .as_ref(),
            &content[..]
        );
    }
}
