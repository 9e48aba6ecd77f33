//! A plain bit vector used as the NULL/validity bitmap of columns and as the
//! bit-string component of the paper's Jacobson-indexed NULL compression.

use gfcl_common::{Error, MemoryUsage, Reader, Result, Writer};

/// A fixed-length bit vector backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bm = Bitmap::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    }

    /// Build from a predicate over `0..len`.
    pub fn from_fn(len: usize, f: impl Fn(usize) -> bool) -> Self {
        let mut bm = Bitmap::zeros(len);
        for i in 0..len {
            if f(i) {
                bm.set(i);
            }
        }
        bm
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Backing word `w`: bits `64 w .. 64 w + 64`, LSB-first.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits strictly before position `i`, computed by a linear
    /// scan over the words. This is deliberately O(i/64): it is the access
    /// path of Abadi's *vanilla* bit-string scheme, which the paper shows is
    /// over 20x slower than the Jacobson-indexed rank (Figure 10). The fast
    /// path lives in [`crate::rank::JacobsonRank`].
    pub fn rank_scan(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let word = i >> 6;
        let mut count = 0usize;
        for w in &self.words[..word] {
            count += w.count_ones() as usize;
        }
        let rem = i & 63;
        if rem != 0 {
            count += (self.words[word] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Extract `width <= 32` bits starting at bit position `pos` (LSB-first),
    /// used by the Jacobson index to fetch a chunk's bit string.
    #[inline]
    pub fn bits_at(&self, pos: usize, width: usize) -> u32 {
        debug_assert!(width <= 32 && width > 0);
        let word = pos >> 6;
        let shift = pos & 63;
        let lo = self.words[word] >> shift;
        let val = if shift + width > 64 && word + 1 < self.words.len() {
            lo | (self.words[word + 1] << (64 - shift))
        } else {
            lo
        };
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        (val as u32) & mask
    }

    /// Iterate over the positions of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Encode into a metadata stream: bit length + backing words.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.len);
        for &word in &self.words {
            w.u64(word);
        }
    }

    /// Decode a [`Bitmap::encode`] stream.
    pub fn decode(r: &mut Reader<'_>) -> Result<Bitmap> {
        let len = r.usize()?;
        let n_words = len.div_ceil(64);
        if n_words * 8 > r.remaining() {
            return Err(Error::Storage(format!("truncated bitmap of {len} bits")));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        Ok(Bitmap { words, len })
    }
}

impl MemoryUsage for Bitmap {
    fn memory_bytes(&self) -> usize {
        self.words.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bm = Bitmap::zeros(130);
        assert!(!bm.get(0));
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(63) && !bm.get(65));
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn rank_scan_matches_naive() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        for i in 0..=200 {
            let naive = bits[..i].iter().filter(|&&b| b).count();
            assert_eq!(bm.rank_scan(i), naive, "rank at {i}");
        }
    }

    #[test]
    fn bits_at_crosses_word_boundaries() {
        let mut bm = Bitmap::zeros(128);
        // Set bits 62, 63, 64, 66.
        for i in [62, 63, 64, 66] {
            bm.set(i);
        }
        // Reading 8 bits starting at 60: bits 60..68 = 0,0,1,1,1,0,1,0 (LSB first).
        assert_eq!(bm.bits_at(60, 8), 0b0101_1100);
        assert_eq!(bm.bits_at(62, 2), 0b11);
        assert_eq!(bm.bits_at(64, 4), 0b0101);
    }

    #[test]
    fn from_fn_and_iter_ones() {
        let bm = Bitmap::from_fn(10, |i| i % 2 == 1);
        let ones: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(ones, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn encode_roundtrip_and_truncation() {
        let bm = Bitmap::from_fn(150, |i| i % 5 == 0);
        let mut w = Writer::new();
        bm.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(Bitmap::decode(&mut Reader::new(&bytes)).unwrap(), bm);
        assert!(Bitmap::decode(&mut Reader::new(&bytes[..12])).is_err());
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::zeros(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.rank_scan(0), 0);
    }
}
