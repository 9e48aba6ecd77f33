//! Simplified Jacobson bit-vector rank index (Section 5.3, Figure 7).
//!
//! Abadi's bit-string NULL-compression scheme stores non-NULL values densely
//! plus one bit per position, but finding the value at position `p` requires
//! `rank(p)` — the number of non-NULLs before `p` — which is linear-time
//! without an index. The paper augments the bit string with a simplified
//! Jacobson index:
//!
//! * the column is divided into **blocks** of `2^m` elements; each block
//!   stores absolute ranks compactly,
//! * each block is divided into **chunks** of `c` bits; an `m`-bit prefix
//!   sum per chunk holds the number of 1-bits before the chunk within its
//!   block,
//! * a pre-populated static map `M[b][i]` of `2^c × c` cells gives the
//!   number of 1-bits before the `i`-th bit of any `c`-bit string `b`.
//!
//! `rank(p) = blockBase[p / 2^m] + prefix[p / c] + M[bits(chunk of p)][p mod c]`
//!
//! `c` and `2^m` are powers of two, so every `/` and `mod` above is a shift
//! or a mask: the index keeps `log2(c)` and the map's address, and a rank
//! is three loads and no division.
//!
//! With the defaults `m = c = 16`: a 1 MB shared map, 64K-element blocks,
//! and `m/c = 1` extra bit per element — 2 bits total with the bit string
//! itself, versus 1 bit for the vanilla scheme, in exchange for
//! constant-time access (Desideratum 2).

use std::sync::OnceLock;

use gfcl_common::{MemoryUsage, Result};

use crate::bitmap::Bitmap;

/// Tunable parameters of the Jacobson index (Appendix A.2 sensitivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankParams {
    /// Chunk size in bits: 4, 8 or 16. Determines the static map size
    /// (`2^c * c` bytes): 64 B at c=4, 2 KB at c=8, 1 MB at c=16. The paper
    /// notes c=24 would already need 1.6 GB, so larger values are rejected.
    pub c: u32,
    /// Prefix-sum width in bits: 8, 16, 24 or 32. Blocks hold `2^m`
    /// elements; the per-element overhead is `m/c` bits.
    pub m: u32,
}

impl Default for RankParams {
    fn default() -> Self {
        RankParams { c: 16, m: 16 }
    }
}

impl RankParams {
    pub fn new(c: u32, m: u32) -> Result<Self> {
        if ![4, 8, 16].contains(&c) {
            return Err(gfcl_common::Error::Invalid(format!(
                "Jacobson chunk size c must be 4, 8 or 16 (got {c}); larger maps are impractically big"
            )));
        }
        if ![8, 16, 24, 32].contains(&m) {
            return Err(gfcl_common::Error::Invalid(format!(
                "Jacobson prefix width m must be 8, 16, 24 or 32 (got {m})"
            )));
        }
        Ok(RankParams { c, m })
    }

    /// Elements per block: `2^m`.
    pub fn block_elems(self) -> usize {
        1usize << self.m
    }

    /// Size in bytes of the shared pre-populated map for this `c`.
    pub fn map_bytes(self) -> usize {
        (1usize << self.c) * self.c as usize
    }
}

/// `M[b * c + i]` = number of 1-bits strictly before bit `i` of the `c`-bit
/// string `b`. Built once per process per `c` and shared by every column.
fn popcount_map(c: u32) -> &'static [u8] {
    static MAP4: OnceLock<Vec<u8>> = OnceLock::new();
    static MAP8: OnceLock<Vec<u8>> = OnceLock::new();
    static MAP16: OnceLock<Vec<u8>> = OnceLock::new();
    let cell = match c {
        4 => &MAP4,
        8 => &MAP8,
        16 => &MAP16,
        _ => unreachable!("validated by RankParams::new"),
    };
    cell.get_or_init(|| {
        let n = 1usize << c;
        let mut map = vec![0u8; n * c as usize];
        for b in 0..n {
            for i in 0..c as usize {
                map[b * c as usize + i] = (b & ((1 << i) - 1)).count_ones() as u8;
            }
        }
        map
    })
}

/// A shared static popcount map. Two maps for one `c` are the same map, so
/// equality compares `c` (the length) and `Debug` prints only that.
#[derive(Clone, Copy)]
struct PopcountMap(&'static [u8]);

impl PartialEq for PopcountMap {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
    }
}

impl std::fmt::Debug for PopcountMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PopcountMap({} bytes)", self.0.len())
    }
}

/// `m`-bit prefix sums stored byte-aligned (1/2/3/4 bytes per entry).
#[derive(Debug, Clone, PartialEq)]
struct PackedInts {
    width: usize,
    data: Vec<u8>,
}

impl PackedInts {
    fn new(width_bits: u32, cap: usize) -> Self {
        let width = (width_bits as usize) / 8;
        PackedInts { width, data: Vec::with_capacity(cap * width) }
    }

    #[inline]
    fn push(&mut self, v: u64) {
        debug_assert!(self.width == 8 || v < (1u64 << (self.width * 8)));
        let bytes = v.to_le_bytes();
        self.data.extend_from_slice(&bytes[..self.width]);
    }

    /// Entry `i`, with the two byte widths of the paper's `m` in {8, 16}
    /// read as one load each.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self.width {
            1 => u64::from(self.data[i]),
            2 => u64::from(u16::from_le_bytes([self.data[2 * i], self.data[2 * i + 1]])),
            w => {
                let mut out = [0u8; 8];
                out[..w].copy_from_slice(&self.data[i * w..i * w + w]);
                u64::from_le_bytes(out)
            }
        }
    }
}

impl MemoryUsage for PackedInts {
    fn memory_bytes(&self) -> usize {
        self.data.memory_bytes()
    }
}

/// Constant-time rank index over an external [`Bitmap`].
///
/// The index does not own the bitmap; [`crate::NullMap`] keeps both together.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobsonRank {
    params: RankParams,
    /// `log2(c)`: a position's chunk is `p >> c_log2`, its bit within the
    /// chunk `p & (c - 1)`, so `rank` divides nothing at run time.
    c_log2: u32,
    /// The shared static map for `c`, held so `rank` pays no lazy load.
    map: PopcountMap,
    /// Absolute rank at the start of each `2^m`-element block.
    block_base: Vec<u64>,
    /// Per-chunk prefix sums, relative to the containing block, `m` bits each.
    prefix: PackedInts,
    total_ones: usize,
}

impl JacobsonRank {
    /// Build the index for `bits`.
    pub fn build(bits: &Bitmap, params: RankParams) -> Self {
        let map = PopcountMap(popcount_map(params.c));
        let c = params.c as usize;
        let block_elems = params.block_elems();
        let len = bits.len();
        let n_chunks = len.div_ceil(c);
        let mut prefix = PackedInts::new(params.m, n_chunks);
        let mut block_base = Vec::with_capacity(len.div_ceil(block_elems) + 1);

        let mut abs_rank = 0u64;
        let mut block_start_rank = 0u64;
        for chunk in 0..n_chunks {
            let bit_pos = chunk * c;
            if bit_pos.is_multiple_of(block_elems) {
                block_base.push(abs_rank);
                block_start_rank = abs_rank;
            }
            prefix.push(abs_rank - block_start_rank);
            let width = c.min(len - bit_pos);
            let b = bits.bits_at(bit_pos, width.max(1));
            // Mask out bits beyond len for the final partial chunk.
            let b = if width == 0 { 0 } else { b & mask_u32(width) };
            abs_rank += b.count_ones() as u64;
        }
        if block_base.is_empty() {
            block_base.push(0);
        }
        let c_log2 = params.c.trailing_zeros();
        JacobsonRank { params, c_log2, map, block_base, prefix, total_ones: abs_rank as usize }
    }

    /// Number of 1-bits strictly before position `p`, in constant time:
    /// one block-base read, one prefix read, one map lookup — all by
    /// shifts and masks, since `c` and `2^m` are powers of two.
    #[inline]
    pub fn rank(&self, bits: &Bitmap, p: usize) -> usize {
        debug_assert!(p < bits.len());
        let c_log2 = self.c_log2;
        let within = p & ((1 << c_log2) - 1);
        // `c` divides 64, so a chunk never straddles two words. Bits past
        // the bitmap's end in its last chunk sit at or after `within`,
        // where the map does not count.
        let chunk_bits = (bits.word(p >> 6) >> ((p & 63) - within)) as usize;
        let chunk_bits = chunk_bits & ((1 << (1 << c_log2)) - 1);
        let in_chunk = self.map.0[(chunk_bits << c_log2) + within] as usize;
        self.block_base[p >> self.params.m] as usize
            + self.prefix.get(p >> c_log2) as usize
            + in_chunk
    }

    /// Total number of 1-bits in the indexed bitmap.
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    pub fn params(&self) -> RankParams {
        self.params
    }

    /// Index overhead in bytes: prefix sums + block bases. The shared static
    /// map (`2^c * c` bytes, 1 MB at c=16) is amortized across all columns
    /// in the process and reported separately by [`RankParams::map_bytes`].
    pub fn overhead_bytes(&self) -> usize {
        self.prefix.memory_bytes() + self.block_base.memory_bytes()
    }
}

#[inline]
fn mask_u32(width: usize) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

impl MemoryUsage for JacobsonRank {
    fn memory_bytes(&self) -> usize {
        self.overhead_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all_ranks(bits: &[bool], params: RankParams) {
        let bm = Bitmap::from_bools(bits);
        let idx = JacobsonRank::build(&bm, params);
        let mut naive = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(idx.rank(&bm, i), naive, "rank({i}) with c={} m={}", params.c, params.m);
            if b {
                naive += 1;
            }
        }
        assert_eq!(idx.count_ones(), naive);
    }

    #[test]
    fn rank_matches_naive_default_params() {
        let bits: Vec<bool> = (0..5000).map(|i| (i * 2654435761u64) % 10 < 3).collect();
        check_all_ranks(&bits, RankParams::default());
    }

    #[test]
    fn rank_matches_naive_all_params() {
        let bits: Vec<bool> = (0..2000).map(|i| i % 5 != 0).collect();
        for c in [4u32, 8, 16] {
            for m in [8u32, 16, 24, 32] {
                check_all_ranks(&bits, RankParams::new(c, m).unwrap());
            }
        }
    }

    #[test]
    fn rank_spans_multiple_blocks() {
        // m=8 -> 256-element blocks; 1000 elements = 4 blocks.
        let bits: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        check_all_ranks(&bits, RankParams::new(8, 8).unwrap());
    }

    #[test]
    fn degenerate_bitmaps() {
        check_all_ranks(&[], RankParams::default());
        check_all_ranks(&[true], RankParams::default());
        check_all_ranks(&[false], RankParams::default());
        check_all_ranks(&vec![true; 333], RankParams::new(8, 16).unwrap());
        check_all_ranks(&vec![false; 333], RankParams::new(16, 8).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(RankParams::new(24, 16).is_err());
        assert!(RankParams::new(16, 12).is_err());
        assert!(RankParams::new(16, 16).is_ok());
    }

    #[test]
    fn overhead_is_m_over_c_bits_per_element() {
        // m=16, c=16 -> 1 extra bit per element -> n/8 bytes of prefix sums.
        let n = 64 * 1024;
        let bm = Bitmap::from_fn(n, |i| i % 3 == 0);
        let idx = JacobsonRank::build(&bm, RankParams::default());
        let expected_prefix = (n / 16) * 2; // one 2-byte prefix per 16 bits
        assert!(idx.overhead_bytes() >= expected_prefix);
        assert!(idx.overhead_bytes() < expected_prefix + 64);
    }

    #[test]
    fn map_bytes_matches_paper() {
        assert_eq!(RankParams::new(16, 16).unwrap().map_bytes(), 1 << 20); // 1 MB
        assert_eq!(RankParams::new(8, 16).unwrap().map_bytes(), 2048); // 2 KB
    }
}
