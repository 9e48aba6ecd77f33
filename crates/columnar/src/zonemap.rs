//! Per-block zone maps (block-level min/max synopses) for scan pruning.
//!
//! A [`ZoneMap`] summarizes a [`Column`] in fixed [`ZONE_BLOCK`]-value
//! blocks: the min/max of the non-NULL values (for `Int64`/`Date`/`Float64`
//! columns), a presence bitmap over dictionary codes (for string columns
//! whose dictionary is small enough), the true/false mix (for `Bool`
//! columns), and the NULL count. A scan with a pushed-down predicate
//! consults the zone map once per block and skips whole blocks whose
//! summary proves no row can satisfy the predicate — the classic columnar
//! scan acceleration of Vertica/MonetDB-style engines, specialized here to
//! the vertex-property columns the list-based processor scans.
//!
//! Zone maps live beside the column (not inside its compressed payload):
//! the summaries are computed through the column's logical block reads,
//! so every NULL layout (dense, sparse, Jacobson, ...) gets the same map.

use gfcl_common::{Error, MemoryUsage, Reader, Result, Writer};

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::paged_array::PageCursor;

/// Number of values summarized per zone-map block. Equal to the default
/// scan morsel of the list-based processor, so a pruned block maps 1:1 to
/// a skipped morsel at the default geometry (both remain independently
/// tunable).
pub const ZONE_BLOCK: usize = 1024;

/// Largest dictionary for which string blocks keep a code-presence bitmap.
/// Beyond this NDV a per-block bitmap costs more memory than the pruning is
/// worth, and the block falls back to [`ZoneInfo::None`] (never pruned).
pub const ZONE_DICT_MAX_NDV: usize = 1024;

/// The type-specific summary of one block.
#[derive(Debug, Clone)]
pub enum ZoneInfo {
    /// Min/max over the non-NULL values (`Int64`/`Date` columns).
    I64 { min: i64, max: i64 },
    /// Min/max over the non-NULL, non-NaN values. When the block holds no
    /// such value, `min > max` (the empty-range sentinel). `has_nan` is set
    /// when any non-NULL value is NaN — NaN compares false under every
    /// ordered comparison, so it needs separate tracking.
    F64 { min: f64, max: f64, has_nan: bool },
    /// Which of `true`/`false` occur among the non-NULL values.
    Bool { any_true: bool, any_false: bool },
    /// Dictionary codes present in the block (string columns with
    /// NDV ≤ [`ZONE_DICT_MAX_NDV`]).
    Codes { present: Bitmap },
    /// No pruning information (all-NULL block, or an unsupported shape).
    None,
}

/// Summary of one [`ZONE_BLOCK`]-sized run of column values.
#[derive(Debug, Clone)]
pub struct ZoneEntry {
    /// Number of logical values in the block (the last block may be short).
    pub len: u32,
    /// Number of NULLs among them.
    pub null_count: u32,
    pub info: ZoneInfo,
}

impl ZoneEntry {
    /// Every value in the block is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.len
    }

    /// At least one value in the block is NULL.
    pub fn has_nulls(&self) -> bool {
        self.null_count > 0
    }
}

/// Block summaries of one column, in logical-position order.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    blocks: Vec<ZoneEntry>,
}

impl ZoneMap {
    /// Zone block containing logical position `pos`.
    #[inline]
    pub fn block_of(pos: usize) -> usize {
        pos / ZONE_BLOCK
    }

    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Summary of block `b`.
    #[inline]
    pub fn block(&self, b: usize) -> &ZoneEntry {
        &self.blocks[b]
    }

    pub fn blocks(&self) -> &[ZoneEntry] {
        &self.blocks
    }

    /// Build the zone map of `col` in one pass over its logical positions,
    /// one range read per block.
    pub fn build(col: &Column) -> ZoneMap {
        let n = col.len();
        let mut blocks = Vec::with_capacity(n.div_ceil(ZONE_BLOCK));
        let dict_ndv = col.dictionary().map(crate::dictionary::Dictionary::len);
        let mut read = BlockRead::default();
        for start in (0..n).step_by(ZONE_BLOCK) {
            let end = (start + ZONE_BLOCK).min(n);
            blocks.push(read.summarize(col, start, end, dict_ndv));
        }
        ZoneMap { blocks }
    }

    /// Encode into a metadata stream. Zone maps are serialized explicitly —
    /// rebuilding one on open would fault every page of the column, which
    /// defeats the whole point of faulting on demand.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.blocks.len());
        for b in &self.blocks {
            w.u32(b.len);
            w.u32(b.null_count);
            match &b.info {
                ZoneInfo::None => w.u8(0),
                ZoneInfo::I64 { min, max } => {
                    w.u8(1);
                    w.i64(*min);
                    w.i64(*max);
                }
                ZoneInfo::F64 { min, max, has_nan } => {
                    w.u8(2);
                    w.f64(*min);
                    w.f64(*max);
                    w.bool(*has_nan);
                }
                ZoneInfo::Bool { any_true, any_false } => {
                    w.u8(3);
                    w.bool(*any_true);
                    w.bool(*any_false);
                }
                ZoneInfo::Codes { present } => {
                    w.u8(4);
                    present.encode(w);
                }
            }
        }
    }

    /// Decode a [`ZoneMap::encode`] stream.
    pub fn decode(r: &mut Reader<'_>) -> Result<ZoneMap> {
        let n = r.count()?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.u32()?;
            let null_count = r.u32()?;
            let info = match r.u8()? {
                0 => ZoneInfo::None,
                1 => ZoneInfo::I64 { min: r.i64()?, max: r.i64()? },
                2 => ZoneInfo::F64 { min: r.f64()?, max: r.f64()?, has_nan: r.bool()? },
                3 => ZoneInfo::Bool { any_true: r.bool()?, any_false: r.bool()? },
                4 => ZoneInfo::Codes { present: Bitmap::decode(r)? },
                t => return Err(Error::Storage(format!("invalid zone-info tag {t}"))),
            };
            blocks.push(ZoneEntry { len, null_count, info });
        }
        Ok(ZoneMap { blocks })
    }
}

/// The cursor and value buffers of a zone-map build, reused block to
/// block.
#[derive(Default)]
struct BlockRead {
    cur: PageCursor,
    i64s: Vec<i64>,
    f64s: Vec<f64>,
    bools: Vec<bool>,
    codes: Vec<u64>,
    valid: Vec<bool>,
}

/// The non-NULL values of one block read.
fn present<'a, T: Copy>(vals: &'a [T], valid: &'a [bool]) -> impl Iterator<Item = T> + 'a {
    vals.iter().zip(valid).filter(|(_, &ok)| ok).map(|(&v, _)| v)
}

impl BlockRead {
    /// Summarize logical positions `start..end` of `col` from one range
    /// read of them.
    fn summarize(
        &mut self,
        col: &Column,
        start: usize,
        end: usize,
        dict_ndv: Option<usize>,
    ) -> ZoneEntry {
        let BlockRead { cur, i64s, f64s, bools, codes, valid } = self;
        valid.clear();
        let info = match col.data() {
            ColumnData::I64(_) => {
                i64s.clear();
                col.read_i64_range(cur, start, end, i64s, valid);
                match (present(i64s, valid).min(), present(i64s, valid).max()) {
                    (Some(min), Some(max)) => ZoneInfo::I64 { min, max },
                    _ => ZoneInfo::None, // all NULLs
                }
            }
            ColumnData::F64(_) => {
                f64s.clear();
                col.read_f64_range(cur, start, end, f64s, valid);
                let numbers = || present(f64s, valid).filter(|v| !v.is_nan());
                let min = numbers().fold(f64::INFINITY, f64::min);
                let max = numbers().fold(f64::NEG_INFINITY, f64::max);
                let has_nan = present(f64s, valid).any(f64::is_nan);
                if valid.contains(&true) {
                    ZoneInfo::F64 { min, max, has_nan }
                } else {
                    ZoneInfo::None
                }
            }
            ColumnData::Bool(_) => {
                bools.clear();
                col.read_bool_range(cur, start, end, bools, valid);
                let any_true = present(bools, valid).any(|v| v);
                let any_false = present(bools, valid).any(|v| !v);
                if any_true || any_false {
                    ZoneInfo::Bool { any_true, any_false }
                } else {
                    ZoneInfo::None
                }
            }
            ColumnData::Str { .. } => {
                codes.clear();
                col.read_code_range(cur, start, end, codes, valid);
                let ndv = dict_ndv.unwrap_or(0);
                if ndv > ZONE_DICT_MAX_NDV || !valid.contains(&true) {
                    ZoneInfo::None
                } else {
                    let mut present_codes = Bitmap::zeros(ndv);
                    for c in present(codes, valid) {
                        present_codes.set(c as usize);
                    }
                    ZoneInfo::Codes { present: present_codes }
                }
            }
        };
        let len = (end - start) as u32;
        let null_count = valid.iter().filter(|&&ok| !ok).count() as u32;
        ZoneEntry { len, null_count, info }
    }
}

impl MemoryUsage for ZoneMap {
    fn memory_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                std::mem::size_of::<ZoneEntry>()
                    + match &b.info {
                        ZoneInfo::Codes { present } => present.memory_bytes(),
                        _ => 0,
                    }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nulls::NullKind;
    use gfcl_common::DataType;

    #[test]
    fn i64_blocks_cover_boundaries() {
        // 2.5 blocks of increasing values: min/max per block must reflect
        // the exact [start, end) slice, including the short tail block.
        let n = ZONE_BLOCK * 2 + ZONE_BLOCK / 2;
        let values: Vec<Option<i64>> = (0..n as i64).map(Some).collect();
        let col = Column::from_i64(DataType::Int64, &values, NullKind::Uncompressed);
        let zm = ZoneMap::build(&col);
        assert_eq!(zm.n_blocks(), 3);
        for (b, e) in zm.blocks().iter().enumerate() {
            let start = (b * ZONE_BLOCK) as i64;
            let end = ((b + 1) * ZONE_BLOCK).min(n) as i64 - 1;
            assert_eq!(e.len as i64, end - start + 1);
            assert_eq!(e.null_count, 0);
            match e.info {
                ZoneInfo::I64 { min, max } => {
                    assert_eq!((min, max), (start, end), "block {b}");
                }
                _ => panic!("i64 info expected"),
            }
        }
        // A value sitting exactly on the 1023/1024 boundary lands in the
        // right block.
        assert_eq!(ZoneMap::block_of(ZONE_BLOCK - 1), 0);
        assert_eq!(ZoneMap::block_of(ZONE_BLOCK), 1);
    }

    #[test]
    fn all_null_and_single_value_blocks() {
        let mut values: Vec<Option<i64>> = vec![None; ZONE_BLOCK];
        values.extend(std::iter::repeat_n(Some(7i64), ZONE_BLOCK));
        for kind in [NullKind::Uncompressed, NullKind::Vanilla, NullKind::jacobson_default()] {
            let col = Column::from_i64(DataType::Int64, &values, kind);
            let zm = ZoneMap::build(&col);
            assert_eq!(zm.n_blocks(), 2);
            assert!(zm.block(0).all_null());
            assert!(matches!(zm.block(0).info, ZoneInfo::None));
            let b1 = zm.block(1);
            assert!(!b1.has_nulls());
            assert!(matches!(b1.info, ZoneInfo::I64 { min: 7, max: 7 }));
        }
    }

    #[test]
    fn f64_nan_is_tracked_outside_min_max() {
        let values: Vec<Option<f64>> =
            vec![Some(1.0), Some(f64::NAN), Some(-3.5), None, Some(2.25)];
        let col = Column::from_f64(&values, NullKind::Uncompressed);
        let zm = ZoneMap::build(&col);
        let e = zm.block(0);
        assert_eq!(e.null_count, 1);
        match e.info {
            ZoneInfo::F64 { min, max, has_nan } => {
                assert_eq!((min, max), (-3.5, 2.25));
                assert!(has_nan);
            }
            _ => panic!("f64 info expected"),
        }
        // An all-NaN block keeps the empty-range sentinel.
        let col = Column::from_f64(&[Some(f64::NAN)], NullKind::Uncompressed);
        let zm = ZoneMap::build(&col);
        match zm.block(0).info {
            ZoneInfo::F64 { min, max, has_nan } => {
                assert!(min > max, "empty non-NaN range");
                assert!(has_nan);
            }
            _ => panic!("f64 info expected"),
        }
    }

    #[test]
    fn string_blocks_keep_code_presence() {
        let values: Vec<Option<&str>> = vec![Some("a"), Some("b"), None, Some("a")];
        let col = Column::from_str(&values, NullKind::Uncompressed, true);
        let zm = ZoneMap::build(&col);
        let e = zm.block(0);
        assert_eq!(e.null_count, 1);
        match &e.info {
            ZoneInfo::Codes { present } => {
                let cur = &mut PageCursor::new();
                let a = col.get_code_with(cur, 0).unwrap() as usize;
                let b = col.get_code_with(cur, 1).unwrap() as usize;
                assert!(present.get(a) && present.get(b));
                assert_eq!(present.count_ones(), 2);
            }
            _ => panic!("codes info expected"),
        }
    }

    #[test]
    fn bool_blocks_track_the_mix() {
        let col = Column::from_bool(&[Some(true), Some(true), None], NullKind::Uncompressed);
        let zm = ZoneMap::build(&col);
        match zm.block(0).info {
            ZoneInfo::Bool { any_true, any_false } => {
                assert!(any_true && !any_false);
            }
            _ => panic!("bool info expected"),
        }
    }

    #[test]
    fn encode_roundtrip_every_info_shape() {
        let i64s: Vec<Option<i64>> =
            (0..(ZONE_BLOCK * 2) as i64).map(|i| (i % 5 != 0).then_some(i * 3)).collect();
        let f64s: Vec<Option<f64>> = vec![Some(1.5), Some(f64::NAN), None, Some(-2.0)];
        let bools: Vec<Option<bool>> = vec![Some(true), None, Some(false)];
        let strs: Vec<Option<&str>> = vec![Some("x"), Some("y"), None];
        let cols = vec![
            Column::from_i64(DataType::Int64, &i64s, NullKind::jacobson_default()),
            Column::from_f64(&f64s, NullKind::Uncompressed),
            Column::from_bool(&bools, NullKind::Uncompressed),
            Column::from_str(&strs, NullKind::Uncompressed, true),
        ];
        for col in cols {
            let zm = ZoneMap::build(&col);
            let mut w = gfcl_common::Writer::new();
            zm.encode(&mut w);
            let bytes = w.into_bytes();
            let back = ZoneMap::decode(&mut gfcl_common::Reader::new(&bytes)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{zm:?}"));
        }
        let mut w = gfcl_common::Writer::new();
        w.usize(1);
        w.u32(5);
        w.u32(0);
        w.u8(9);
        let bytes = w.into_bytes();
        assert!(ZoneMap::decode(&mut gfcl_common::Reader::new(&bytes)).is_err());
    }

    #[test]
    fn empty_column_has_no_blocks() {
        let col = Column::from_i64(DataType::Int64, &[], NullKind::Uncompressed);
        assert_eq!(ZoneMap::build(&col).n_blocks(), 0);
    }
}
