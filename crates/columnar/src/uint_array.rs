//! Fixed-width unsigned integer arrays with leading-0 suppression
//! (Section 5.1 of the paper).
//!
//! Adjacency lists store small factored ID components — label-level vertex
//! offsets and page-level positional offsets — whose maxima are known at
//! build time. Storing them in the narrowest byte width that fits the
//! maximum (`⌈log2(max)/8⌉` bytes, rounded to a power of two for aligned
//! access) is the paper's fixed-length variant of leading-0 suppression:
//! compression with **no decompression loop** — a single widening load per
//! element (Desideratum 2).
//!
//! Each width wraps an [`ArrayData`], so the same array can be fully
//! resident (the build path) or faulted in from disk pages (a reopened
//! graph) without the callers changing.

use gfcl_common::{Error, MemoryUsage, Reader, Result, Writer};

use crate::paged_array::{ArrayData, PageCursor, SegmentSink, SegmentSource};

/// An immutable-after-build array of `u64` values stored in 1, 2, 4 or
/// 8-byte codes.
#[derive(Debug, Clone, PartialEq)]
pub enum UIntArray {
    U8(ArrayData<u8>),
    U16(ArrayData<u16>),
    U32(ArrayData<u32>),
    U64(ArrayData<u64>),
}

impl UIntArray {
    /// Choose the narrowest width that can hold `max_value`.
    pub fn width_for(max_value: u64) -> usize {
        if max_value <= u8::MAX as u64 {
            1
        } else if max_value <= u16::MAX as u64 {
            2
        } else if max_value <= u32::MAX as u64 {
            4
        } else {
            8
        }
    }

    /// An empty array sized for values up to `max_value`.
    pub fn with_capacity_for(max_value: u64, cap: usize) -> Self {
        match Self::width_for(max_value) {
            1 => UIntArray::U8(Vec::with_capacity(cap).into()),
            2 => UIntArray::U16(Vec::with_capacity(cap).into()),
            4 => UIntArray::U32(Vec::with_capacity(cap).into()),
            _ => UIntArray::U64(Vec::with_capacity(cap).into()),
        }
    }

    /// Build from values, suppressing leading zeros based on the maximum
    /// value present. With `suppress = false` the full 8-byte representation
    /// is kept (the `GF-RV`/pre-`+0-SUPR` configurations of Table 2).
    pub fn from_values(values: &[u64], suppress: bool) -> Self {
        let max = if suppress { values.iter().copied().max().unwrap_or(0) } else { u64::MAX };
        let mut arr = Self::with_capacity_for(max, values.len());
        for &v in values {
            arr.push(v);
        }
        arr
    }

    /// Append a value. Panics in debug builds if it does not fit the width.
    #[inline]
    pub fn push(&mut self, v: u64) {
        match self {
            UIntArray::U8(d) => {
                debug_assert!(v <= u8::MAX as u64);
                d.push(v as u8);
            }
            UIntArray::U16(d) => {
                debug_assert!(v <= u16::MAX as u64);
                d.push(v as u16);
            }
            UIntArray::U32(d) => {
                debug_assert!(v <= u32::MAX as u64);
                d.push(v as u32);
            }
            UIntArray::U64(d) => d.push(v),
        }
    }

    /// Constant-time random access (a single widening load).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            UIntArray::U8(d) => d.get(i) as u64,
            UIntArray::U16(d) => d.get(i) as u64,
            UIntArray::U32(d) => d.get(i) as u64,
            UIntArray::U64(d) => d.get(i),
        }
    }

    /// [`UIntArray::get`] through a reader-owned page cursor
    /// ([`ArrayData::get_with`]).
    #[inline]
    pub fn get_with(&self, cur: &mut PageCursor, i: usize) -> u64 {
        match self {
            UIntArray::U8(d) => d.get_with(cur, i) as u64,
            UIntArray::U16(d) => d.get_with(cur, i) as u64,
            UIntArray::U32(d) => d.get_with(cur, i) as u64,
            UIntArray::U64(d) => d.get_with(cur, i),
        }
    }

    /// Append elements `[start, end)`, widened, to `out`: the width is
    /// matched once per block, not once per value
    /// ([`ArrayData::read_range`]).
    pub fn read_range(&self, cur: &mut PageCursor, start: usize, end: usize, out: &mut Vec<u64>) {
        match self {
            UIntArray::U8(d) => d.read_range_with(cur, start, end, out, u64::from),
            UIntArray::U16(d) => d.read_range_with(cur, start, end, out, u64::from),
            UIntArray::U32(d) => d.read_range_with(cur, start, end, out, u64::from),
            UIntArray::U64(d) => d.read_range(cur, start, end, out),
        }
    }

    /// Overwrite position `i`. The value must fit the established width.
    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        match self {
            UIntArray::U8(d) => {
                debug_assert!(v <= u8::MAX as u64);
                d.set(i, v as u8);
            }
            UIntArray::U16(d) => {
                debug_assert!(v <= u16::MAX as u64);
                d.set(i, v as u16);
            }
            UIntArray::U32(d) => {
                debug_assert!(v <= u32::MAX as u64);
                d.set(i, v as u32);
            }
            UIntArray::U64(d) => d.set(i, v),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            UIntArray::U8(d) => d.len(),
            UIntArray::U16(d) => d.len(),
            UIntArray::U32(d) => d.len(),
            UIntArray::U64(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code width in bytes.
    pub fn width_bytes(&self) -> usize {
        match self {
            UIntArray::U8(_) => 1,
            UIntArray::U16(_) => 2,
            UIntArray::U32(_) => 4,
            UIntArray::U64(_) => 8,
        }
    }

    /// Iterate all values widened to `u64`.
    pub fn iter(&self) -> UIntArrayIter<'_> {
        UIntArrayIter { arr: self, pos: 0 }
    }

    /// Shrink backing storage to fit (called at the end of builds).
    pub fn shrink_to_fit(&mut self) {
        match self {
            UIntArray::U8(d) => d.shrink_to_fit(),
            UIntArray::U16(d) => d.shrink_to_fit(),
            UIntArray::U32(d) => d.shrink_to_fit(),
            UIntArray::U64(d) => d.shrink_to_fit(),
        }
    }

    /// Heap bytes held right now (0 for a paged array).
    pub fn resident_bytes(&self) -> usize {
        match self {
            UIntArray::U8(d) => d.resident_bytes(),
            UIntArray::U16(d) => d.resident_bytes(),
            UIntArray::U32(d) => d.resident_bytes(),
            UIntArray::U64(d) => d.resident_bytes(),
        }
    }

    /// Bytes living on disk, faulted in through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        match self {
            UIntArray::U8(d) => d.pageable_bytes(),
            UIntArray::U16(d) => d.pageable_bytes(),
            UIntArray::U32(d) => d.pageable_bytes(),
            UIntArray::U64(d) => d.pageable_bytes(),
        }
    }

    /// Account the pages covering `[start, end)` as skipped without
    /// faulting (no-op when resident).
    pub fn note_skipped_range(&self, start: usize, end: usize) {
        match self {
            UIntArray::U8(d) => d.note_skipped_range(start, end),
            UIntArray::U16(d) => d.note_skipped_range(start, end),
            UIntArray::U32(d) => d.note_skipped_range(start, end),
            UIntArray::U64(d) => d.note_skipped_range(start, end),
        }
    }

    fn width_tag(&self) -> u8 {
        self.width_bytes() as u8
    }

    /// Encode into the metadata stream itself (small arrays that stay
    /// resident after open).
    pub fn encode_inline(&self, w: &mut Writer) {
        w.u8(self.width_tag());
        match self {
            UIntArray::U8(d) => d.encode_inline(w),
            UIntArray::U16(d) => d.encode_inline(w),
            UIntArray::U32(d) => d.encode_inline(w),
            UIntArray::U64(d) => d.encode_inline(w),
        }
    }

    /// Decode an [`UIntArray::encode_inline`] stream.
    pub fn decode_inline(r: &mut Reader<'_>) -> Result<UIntArray> {
        Ok(match r.u8()? {
            1 => UIntArray::U8(ArrayData::decode_inline(r)?),
            2 => UIntArray::U16(ArrayData::decode_inline(r)?),
            4 => UIntArray::U32(ArrayData::decode_inline(r)?),
            8 => UIntArray::U64(ArrayData::decode_inline(r)?),
            t => return Err(Error::Storage(format!("invalid uint width tag {t}"))),
        })
    }

    /// Encode as a page-aligned segment (large value arrays that fault in
    /// on demand after open).
    pub fn encode_seg(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.u8(self.width_tag());
        match self {
            UIntArray::U8(d) => d.encode_seg(w, sink),
            UIntArray::U16(d) => d.encode_seg(w, sink),
            UIntArray::U32(d) => d.encode_seg(w, sink),
            UIntArray::U64(d) => d.encode_seg(w, sink),
        }
    }

    /// Decode an [`UIntArray::encode_seg`] stream as a paged array.
    pub fn decode_seg(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<UIntArray> {
        Ok(match r.u8()? {
            1 => UIntArray::U8(ArrayData::decode_seg(r, src)?),
            2 => UIntArray::U16(ArrayData::decode_seg(r, src)?),
            4 => UIntArray::U32(ArrayData::decode_seg(r, src)?),
            8 => UIntArray::U64(ArrayData::decode_seg(r, src)?),
            t => return Err(Error::Storage(format!("invalid uint width tag {t}"))),
        })
    }
}

/// Iterator over a [`UIntArray`], yielding `u64`.
pub struct UIntArrayIter<'a> {
    arr: &'a UIntArray,
    pos: usize,
}

impl Iterator for UIntArrayIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.pos < self.arr.len() {
            let v = self.arr.get(self.pos);
            self.pos += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.arr.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for UIntArrayIter<'_> {}

impl MemoryUsage for UIntArray {
    fn memory_bytes(&self) -> usize {
        self.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selection() {
        assert_eq!(UIntArray::width_for(0), 1);
        assert_eq!(UIntArray::width_for(255), 1);
        assert_eq!(UIntArray::width_for(256), 2);
        assert_eq!(UIntArray::width_for(65_535), 2);
        assert_eq!(UIntArray::width_for(65_536), 4);
        assert_eq!(UIntArray::width_for(u32::MAX as u64), 4);
        assert_eq!(UIntArray::width_for(u32::MAX as u64 + 1), 8);
    }

    #[test]
    fn roundtrip_all_widths() {
        for max in [200u64, 60_000, 4_000_000_000, u64::MAX / 2] {
            let values: Vec<u64> = (0..100).map(|i| (i * 37) % (max + 1)).collect();
            let arr = UIntArray::from_values(&values, true);
            assert_eq!(arr.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(arr.get(i), v);
            }
            let collected: Vec<u64> = arr.iter().collect();
            assert_eq!(collected, values);
        }
    }

    #[test]
    fn no_suppression_keeps_u64() {
        let arr = UIntArray::from_values(&[1, 2, 3], false);
        assert_eq!(arr.width_bytes(), 8);
        let arr = UIntArray::from_values(&[1, 2, 3], true);
        assert_eq!(arr.width_bytes(), 1);
    }

    #[test]
    fn memory_is_proportional_to_width() {
        let values: Vec<u64> = (0..1000).collect();
        let narrow = UIntArray::from_values(&values, true); // fits u16
        let wide = UIntArray::from_values(&values, false);
        assert_eq!(narrow.width_bytes(), 2);
        assert!(wide.memory_bytes() >= 4 * narrow.memory_bytes() - 64);
    }

    #[test]
    fn set_overwrites() {
        let mut arr = UIntArray::from_values(&[5, 6, 7], true);
        arr.set(1, 200);
        assert_eq!(arr.get(1), 200);
    }

    #[test]
    fn inline_encode_roundtrips_every_width() {
        for max in [100u64, 30_000, 3_000_000_000, u64::MAX / 3] {
            let values: Vec<u64> = (0..64).map(|i| (i * 97) % (max + 1)).collect();
            let arr = UIntArray::from_values(&values, true);
            let mut w = Writer::new();
            arr.encode_inline(&mut w);
            let bytes = w.into_bytes();
            let back = UIntArray::decode_inline(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, arr);
            assert_eq!(back.width_bytes(), arr.width_bytes());
        }
    }

    #[test]
    fn bad_width_tag_is_a_storage_error() {
        let mut w = Writer::new();
        w.u8(3);
        let bytes = w.into_bytes();
        assert!(UIntArray::decode_inline(&mut Reader::new(&bytes)).is_err());
    }
}
