//! NULL / empty-list compression layouts (Section 5.3).
//!
//! Compressed layouts follow Abadi's bit-string design: non-NULL elements
//! are stored **densely** in a values array, and a bit string maps a
//! logical position to the physical position of its value (its *rank*).
//! [`NullMap`] is that secondary structure. A caller picks one of the
//! three [`NullKind`]s Figure 10 compares; `AllValid` is never requested,
//! only derived (a column with no NULL, a CSR whose empty lists are not
//! compressed):
//!
//! | Layout          | Source                   | `physical(p)` cost     |
//! |-----------------|--------------------------|------------------------|
//! | `AllValid`      | derived: nothing is NULL | O(1), identity         |
//! | `Uncompressed`  | values kept at all slots | O(1), identity         |
//! | `Vanilla`       | Abadi's bit string       | **O(p)** linear rank   |
//! | `Jacobson`      | paper's bit string + rank index | O(1), 2 bits/elem |
//!
//! The same structure compresses empty adjacency lists in CSRs (a vertex
//! with an empty list is a "NULL" CSR entry) — Section 8.4.

use gfcl_common::{Error, MemoryUsage, Reader, Result, Writer};

use crate::bitmap::Bitmap;
use crate::rank::{JacobsonRank, RankParams};

/// Which NULL layout to build (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullKind {
    /// Keep values at every slot plus a validity bitmap; no compression.
    Uncompressed,
    /// Abadi's bit string, rank computed by scanning (slow baseline).
    Vanilla,
    /// The bit string + Jacobson rank index: the paper's J-NULL.
    Jacobson(RankParams),
}

impl NullKind {
    /// The paper's default configuration: Jacobson with `m = c = 16`.
    pub fn jacobson_default() -> Self {
        NullKind::Jacobson(RankParams::default())
    }

    /// `true` for the layouts that store only the non-NULL values.
    pub fn compresses(self) -> bool {
        !matches!(self, NullKind::Uncompressed)
    }
}

/// Secondary structure mapping logical column positions to physical
/// positions in a dense non-NULL values array.
#[derive(Debug, Clone, PartialEq)]
pub enum NullMap {
    AllValid { len: usize },
    Uncompressed { valid: Bitmap, n_valid: usize },
    Vanilla { bits: Bitmap, n_valid: usize },
    Jacobson { bits: Bitmap, rank: JacobsonRank },
}

impl NullMap {
    /// Build the chosen layout from a validity slice.
    pub fn build(valid: &[bool], kind: NullKind) -> NullMap {
        match kind {
            NullKind::Uncompressed => NullMap::Uncompressed {
                valid: Bitmap::from_bools(valid),
                n_valid: valid.iter().filter(|&&v| v).count(),
            },
            NullKind::Vanilla => NullMap::Vanilla {
                bits: Bitmap::from_bools(valid),
                n_valid: valid.iter().filter(|&&v| v).count(),
            },
            NullKind::Jacobson(params) => {
                let bits = Bitmap::from_bools(valid);
                let rank = JacobsonRank::build(&bits, params);
                NullMap::Jacobson { bits, rank }
            }
        }
    }

    /// The map of a column, or of a single-cardinality adjacency: `AllValid`
    /// when nothing is NULL, else `kind`.
    pub fn for_column(valid: &[bool], kind: NullKind) -> NullMap {
        if valid.iter().all(|&v| v) {
            NullMap::AllValid { len: valid.len() }
        } else {
            NullMap::build(valid, kind)
        }
    }

    /// Logical length of the column.
    pub fn len(&self) -> usize {
        match self {
            NullMap::AllValid { len } => *len,
            NullMap::Uncompressed { valid, .. } => valid.len(),
            NullMap::Vanilla { bits, .. } => bits.len(),
            NullMap::Jacobson { bits, .. } => bits.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of non-NULL positions.
    pub fn count_valid(&self) -> usize {
        match self {
            NullMap::AllValid { len } => *len,
            NullMap::Uncompressed { n_valid, .. } => *n_valid,
            NullMap::Vanilla { n_valid, .. } => *n_valid,
            NullMap::Jacobson { rank, .. } => rank.count_ones(),
        }
    }

    /// Is position `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            NullMap::AllValid { .. } => true,
            NullMap::Uncompressed { valid, .. } => valid.get(i),
            NullMap::Vanilla { bits, .. } => bits.get(i),
            NullMap::Jacobson { bits, .. } => bits.get(i),
        }
    }

    /// Physical position of logical position `i` in the dense values array,
    /// or `None` if `i` is NULL. For `AllValid`/`Uncompressed` (dense data)
    /// the physical position equals the logical position.
    #[inline]
    pub fn physical(&self, i: usize) -> Option<usize> {
        match self {
            NullMap::AllValid { .. } => Some(i),
            NullMap::Uncompressed { valid, .. } => valid.get(i).then_some(i),
            NullMap::Vanilla { bits, .. } => {
                // Deliberately linear: the vanilla baseline of Figure 10.
                bits.get(i).then(|| bits.rank_scan(i))
            }
            NullMap::Jacobson { bits, rank } => bits.get(i).then(|| rank.rank(bits, i)),
        }
    }

    /// `true` if values are stored at every slot (physical == logical).
    pub fn is_dense(&self) -> bool {
        matches!(self, NullMap::AllValid { .. } | NullMap::Uncompressed { .. })
    }

    /// Encode into a metadata stream. NULL maps stay fully resident after a
    /// reopen (they are consulted on every access), so everything is
    /// inline; the Jacobson rank index stores only its parameters and is
    /// rebuilt deterministically from the bit string on decode. Tags 2 and
    /// 3 belonged to the retired position-list and run-list layouts and
    /// are rejected on decode.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            NullMap::AllValid { len } => {
                w.u8(0);
                w.usize(*len);
            }
            NullMap::Uncompressed { valid, n_valid } => {
                w.u8(1);
                valid.encode(w);
                w.usize(*n_valid);
            }
            NullMap::Vanilla { bits, n_valid } => {
                w.u8(4);
                bits.encode(w);
                w.usize(*n_valid);
            }
            NullMap::Jacobson { bits, rank } => {
                w.u8(5);
                bits.encode(w);
                let p = rank.params();
                w.u32(p.c);
                w.u32(p.m);
            }
        }
    }

    /// Decode a [`NullMap::encode`] stream.
    pub fn decode(r: &mut Reader<'_>) -> Result<NullMap> {
        Ok(match r.u8()? {
            0 => NullMap::AllValid { len: r.usize()? },
            1 => NullMap::Uncompressed { valid: Bitmap::decode(r)?, n_valid: r.usize()? },
            4 => NullMap::Vanilla { bits: Bitmap::decode(r)?, n_valid: r.usize()? },
            5 => {
                let bits = Bitmap::decode(r)?;
                let params = RankParams::new(r.u32()?, r.u32()?)
                    .map_err(|e| Error::Storage(format!("bad rank params: {e}")))?;
                let rank = JacobsonRank::build(&bits, params);
                NullMap::Jacobson { bits, rank }
            }
            t => return Err(Error::Storage(format!("invalid null-map tag {t}"))),
        })
    }

    /// Bytes of the secondary structure only (the Figure 10 / Table 8
    /// "overhead" number: bit strings + rank index).
    pub fn overhead_bytes(&self) -> usize {
        match self {
            NullMap::AllValid { .. } => 0,
            NullMap::Uncompressed { valid, .. } => valid.memory_bytes(),
            NullMap::Vanilla { bits, .. } => bits.memory_bytes(),
            NullMap::Jacobson { bits, rank } => bits.memory_bytes() + rank.overhead_bytes(),
        }
    }
}

impl MemoryUsage for NullMap {
    fn memory_bytes(&self) -> usize {
        self.overhead_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<NullKind> {
        vec![
            NullKind::Uncompressed,
            NullKind::Vanilla,
            NullKind::jacobson_default(),
            NullKind::Jacobson(RankParams::new(8, 8).unwrap()),
        ]
    }

    fn reference_physical(valid: &[bool], i: usize) -> Option<usize> {
        if !valid[i] {
            return None;
        }
        Some(valid[..i].iter().filter(|&&v| v).count())
    }

    #[test]
    fn layouts_agree_on_physical_positions() {
        let patterns: Vec<Vec<bool>> = vec![
            (0..500).map(|i| i % 3 != 0).collect(),        // ~66% dense
            (0..500).map(|i| i % 17 == 0).collect(),       // sparse
            (0..500).map(|i| (i / 50) % 2 == 0).collect(), // runs
            vec![true; 100],
            vec![false; 100],
        ];
        for valid in &patterns {
            for kind in all_kinds() {
                let map = NullMap::build(valid, kind);
                assert_eq!(map.len(), valid.len());
                assert_eq!(map.count_valid(), valid.iter().filter(|&&v| v).count(), "{kind:?}");
                for i in 0..valid.len() {
                    assert_eq!(map.is_valid(i), valid[i], "{kind:?} is_valid({i})");
                    let expected = if map.is_dense() {
                        valid[i].then_some(i)
                    } else {
                        reference_physical(valid, i)
                    };
                    assert_eq!(map.physical(i), expected, "{kind:?} physical({i})");
                }
            }
        }
    }

    #[test]
    fn all_valid_has_zero_overhead() {
        let map = NullMap::for_column(&vec![true; 1000], NullKind::jacobson_default());
        assert_eq!(map, NullMap::AllValid { len: 1000 });
        assert_eq!(map.overhead_bytes(), 0);
        assert!(map.is_dense());
        assert_eq!(map.physical(999), Some(999));
    }

    #[test]
    fn jacobson_overhead_is_about_two_bits_per_element() {
        let valid: Vec<bool> = (0..64 * 1024).map(|i| i % 2 == 0).collect();
        let map = NullMap::build(&valid, NullKind::jacobson_default());
        let bits = map.overhead_bytes() * 8;
        let per_elem = bits as f64 / valid.len() as f64;
        assert!((1.9..2.3).contains(&per_elem), "got {per_elem} bits/elem");
    }

    #[test]
    fn vanilla_overhead_is_about_one_bit_per_element() {
        let valid: Vec<bool> = (0..64 * 1024).map(|i| i % 2 == 0).collect();
        let map = NullMap::build(&valid, NullKind::Vanilla);
        let per_elem = (map.overhead_bytes() * 8) as f64 / valid.len() as f64;
        assert!((0.9..1.1).contains(&per_elem), "got {per_elem} bits/elem");
    }

    #[test]
    fn encode_roundtrip_every_layout() {
        let valid: Vec<bool> = (0..700).map(|i| i % 4 != 1 && i % 31 != 0).collect();
        let all_valid = NullMap::for_column(&[true; 700], NullKind::Uncompressed);
        let maps = all_kinds().into_iter().map(|kind| NullMap::build(&valid, kind));
        for map in maps.chain([all_valid]) {
            let mut w = Writer::new();
            map.encode(&mut w);
            let bytes = w.into_bytes();
            let back = NullMap::decode(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, map);
            for i in 0..map.len() {
                assert_eq!(back.physical(i), map.physical(i), "{map:?} at {i}");
            }
        }
    }

    #[test]
    fn bad_tag_and_truncation_are_storage_errors() {
        let mut w = Writer::new();
        w.u8(9);
        let bytes = w.into_bytes();
        assert!(NullMap::decode(&mut Reader::new(&bytes)).is_err());
        let mut w = Writer::new();
        NullMap::build(&[true, false, true], NullKind::jacobson_default()).encode(&mut w);
        let bytes = w.into_bytes();
        assert!(NullMap::decode(&mut Reader::new(&bytes[..bytes.len() - 2])).is_err());
    }

    #[test]
    fn retired_layout_tags_are_storage_errors() {
        // Tags 2 and 3 named the position-list and run-list layouts.
        for tag in [2u8, 3] {
            let mut w = Writer::new();
            w.u8(tag);
            w.usize(4);
            let bytes = w.into_bytes();
            let err = NullMap::decode(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "tag {tag}: {err:?}");
        }
    }

    #[test]
    fn empty_column() {
        for kind in all_kinds() {
            let map = NullMap::build(&[], kind);
            assert_eq!(map.len(), 0);
            assert!(map.is_empty());
            assert_eq!(map.count_valid(), 0);
        }
    }
}
