//! Byte-level serialization primitives for the on-disk format.
//!
//! The container is offline (no serde); every persisted structure encodes
//! itself through [`Writer`] and decodes through [`Reader`]. All integers
//! are little-endian; strings are a `u64` length followed by UTF-8 bytes;
//! `Option<T>` is a one-byte tag. `Reader` never panics on malformed
//! input — every read returns [`Error::Storage`] on truncation so a
//! corrupted file fails cleanly at open time.

use crate::error::{Error, Result};
use crate::types::DataType;

/// Append-only byte sink for metadata encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Encode a [`DataType`] as a one-byte tag. The single tag table all
    /// persisted structures share — keep in sync with [`Reader::dtype`].
    pub fn dtype(&mut self, dt: DataType) {
        self.u8(match dt {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Bool => 2,
            DataType::String => 3,
            DataType::Date => 4,
        });
    }

    /// Encode an optional value: a presence byte, then the value.
    pub fn opt<T>(&mut self, v: Option<T>, mut enc: impl FnMut(&mut Writer, T)) {
        match v {
            Some(x) => {
                self.u8(1);
                enc(self, x);
            }
            None => self.u8(0),
        }
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Storage(format!(
                "truncated metadata: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(Error::Storage(format!("invalid bool tag {t}"))),
        }
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Error::Storage(format!("length {v} exceeds usize")))
    }

    /// A `usize` that must also be a plausible element count for the
    /// remaining input (each element at least one byte) — rejects absurd
    /// lengths from corrupted files before any allocation.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(Error::Storage(format!(
                "corrupt element count {n} with only {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.count()?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| Error::Storage("invalid UTF-8".into()))
    }

    /// Decode a [`Writer::dtype`] tag.
    pub fn dtype(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Bool,
            3 => DataType::String,
            4 => DataType::Date,
            t => return Err(Error::Storage(format!("invalid dtype tag {t}"))),
        })
    }

    /// Decode an optional value written by [`Writer::opt`].
    pub fn opt<T>(
        &mut self,
        mut dec: impl FnMut(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(dec(self)?)),
            t => Err(Error::Storage(format!("invalid option tag {t}"))),
        }
    }
}

/// FNV-1a over `data`: the checksum of the on-disk format's header,
/// metadata and checksum array, and of WAL records. Not cryptographic — it
/// guards against torn writes and truncation, like the CRCs of classic
/// database page headers. Byte at a time, so data pages use
/// [`page_checksum`].
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Odd multiplier of [`page_checksum`]'s lane and finish steps.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The data-page checksum of the on-disk format: four independent 64-bit
/// lanes, each absorbing every fourth little-endian word as
/// `lane = (lane ^ word) * LANE_MUL`, so a 64 KiB page costs four
/// multiply chains over 8-byte words instead of one over bytes. A tail
/// shorter than 32 bytes is zero-padded to whole words; the length seeds
/// the finish. Not cryptographic, like [`fnv1a_64`].
///
/// Every step is a bijection of the value it absorbs or carries (xor with
/// a constant, multiplication by an odd constant, an xor-shift), so two
/// inputs of one length that differ in a single aligned 8-byte word — any
/// single-bit flip included — always checksum differently.
pub fn page_checksum(data: &[u8]) -> u64 {
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let (blocks, tail) = data.as_chunks::<32>();
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = (*lane ^ u64::from_le_bytes(*w)).wrapping_mul(LANE_MUL);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        *lane = (*lane ^ u64::from_le_bytes(padded)).wrapping_mul(LANE_MUL);
    }
    lanes.iter().fold(data.len() as u64, |h, &lane| {
        let h = (h ^ lane).wrapping_mul(LANE_MUL);
        h ^ (h >> 29)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(2.5);
        w.str("héllo");
        w.opt(Some(9u64), Writer::u64);
        w.opt(None::<u64>, Writer::u64);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt(Reader::u64).unwrap(), Some(9));
        assert_eq!(r.opt(Reader::u64).unwrap(), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_a_storage_error() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(Error::Storage(_))));
    }

    #[test]
    fn absurd_count_is_rejected() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(), Err(Error::Storage(_))));
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
    }

    /// `len` bytes of a xorshift stream seeded by `seed`.
    fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            })
            .collect()
    }

    #[test]
    fn page_checksum_is_stable_and_length_aware() {
        let page = pseudo_bytes(65_536, 7);
        assert_eq!(page_checksum(&page), page_checksum(&page.clone()));
        // Zero padding of the tail does not hide a length difference.
        assert_ne!(page_checksum(&[0u8; 5]), page_checksum(&[0u8; 8]));
        assert_ne!(page_checksum(b""), page_checksum(&[0u8; 32]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A change confined to one aligned 8-byte word — a single bit flip
        /// among them — always moves the checksum, whole pages and lengths
        /// with a tail shorter than one 32-byte block alike.
        #[test]
        fn page_checksum_sees_every_change_inside_one_word(
            len in prop_oneof![Just(65_536usize), 1usize..65_536, 1usize..100],
            seed in any::<u64>(),
            at in any::<usize>(),
            mask in any::<u64>(),
        ) {
            let page = pseudo_bytes(len, seed);
            let sum = page_checksum(&page);

            let lo = at % len.div_ceil(8) * 8;
            let hi = len.min(lo + 8);
            let mut delta = mask.to_le_bytes();
            delta[hi - lo..].fill(0);
            if delta == [0; 8] {
                delta[0] = 1;
            }
            let mut changed = page.clone();
            for (b, d) in changed[lo..hi].iter_mut().zip(delta) {
                *b ^= d;
            }
            prop_assert_ne!(page_checksum(&changed), sum, "word at {} of {}", lo, len);

            let bit = at % (len * 8);
            let mut flipped = page;
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(page_checksum(&flipped), sum, "bit {} of {}", bit, len);
        }
    }
}
