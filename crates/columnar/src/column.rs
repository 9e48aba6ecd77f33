//! A typed column: physical values + a [`NullMap`].
//!
//! Columns are the unit of storage for vertex properties ("vertex columns",
//! Section 4.1.2), edge property pages (Section 4.2) and edge columns. A
//! column with a *compressed* NULL layout stores only its non-NULL values,
//! densely; the [`NullMap`] translates logical to physical positions in
//! constant time (for the Jacobson layout).
//!
//! Value arrays are [`ArrayData`]: fully resident when built in memory,
//! paged through a buffer pool when reopened from the on-disk format. The
//! NULL map, dictionary and zone map always stay resident — they are
//! consulted on every access (or every block) and are small.

use gfcl_common::{DataType, Error, MemoryUsage, Reader, Result, Value, Writer};

use crate::dictionary::Dictionary;
use crate::nulls::{NullKind, NullMap};
use crate::paged_array::{ArrayData, PageCursor, PagedElem, SegmentSink, SegmentSource};
use crate::uint_array::UIntArray;
use crate::zonemap::ZoneMap;

/// Physical value storage of a column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `Int64` and `Date` values.
    I64(ArrayData<i64>),
    F64(ArrayData<f64>),
    Bool(ArrayData<bool>),
    /// Dictionary-encoded strings: fixed-length codes into `dict`.
    Str {
        dict: Dictionary,
        codes: UIntArray,
    },
}

/// The two block-read primitives of a physical value array, so the typed
/// column reads below are written once over [`ArrayData`] and
/// [`UIntArray`].
trait Values<T> {
    fn at(&self, cur: &mut PageCursor, p: usize) -> T;
    fn range(&self, cur: &mut PageCursor, start: usize, end: usize, out: &mut Vec<T>);
}

impl<T: PagedElem> Values<T> for ArrayData<T> {
    #[inline]
    fn at(&self, cur: &mut PageCursor, p: usize) -> T {
        self.get_with(cur, p)
    }
    fn range(&self, cur: &mut PageCursor, start: usize, end: usize, out: &mut Vec<T>) {
        self.read_range(cur, start, end, out);
    }
}

impl Values<u64> for UIntArray {
    #[inline]
    fn at(&self, cur: &mut PageCursor, p: usize) -> u64 {
        self.get_with(cur, p)
    }
    fn range(&self, cur: &mut PageCursor, start: usize, end: usize, out: &mut Vec<u64>) {
        self.read_range(cur, start, end, out);
    }
}

/// An immutable typed column with pluggable NULL compression.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    data: ColumnData,
    nulls: NullMap,
    /// Per-block min/max synopses for scan pruning (built on demand by
    /// [`Column::build_zone_map`]; `None` until then).
    zones: Option<Box<ZoneMap>>,
}

impl Column {
    /// Build from `Option<i64>` values (dtype `Int64` or `Date`).
    pub fn from_i64(dtype: DataType, values: &[Option<i64>], kind: NullKind) -> Column {
        debug_assert!(matches!(dtype, DataType::Int64 | DataType::Date));
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let nulls = NullMap::build(&valid, kind);
        let data: Vec<i64> = if nulls.is_dense() {
            values.iter().map(|v| v.unwrap_or(0)).collect()
        } else {
            // `flatten()` hides the size hint; collect + shrink so memory
            // accounting reflects the actual non-NULL count.
            let mut d: Vec<_> = values.iter().flatten().copied().collect();
            d.shrink_to_fit();
            d
        };
        Column { dtype, data: ColumnData::I64(data.into()), nulls, zones: None }
    }

    /// Build from `Option<f64>` values.
    pub fn from_f64(values: &[Option<f64>], kind: NullKind) -> Column {
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let nulls = NullMap::build(&valid, kind);
        let data: Vec<f64> = if nulls.is_dense() {
            values.iter().map(|v| v.unwrap_or(0.0)).collect()
        } else {
            // `flatten()` hides the size hint; collect + shrink so memory
            // accounting reflects the actual non-NULL count.
            let mut d: Vec<_> = values.iter().flatten().copied().collect();
            d.shrink_to_fit();
            d
        };
        Column { dtype: DataType::Float64, data: ColumnData::F64(data.into()), nulls, zones: None }
    }

    /// Build from `Option<bool>` values.
    pub fn from_bool(values: &[Option<bool>], kind: NullKind) -> Column {
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let nulls = NullMap::build(&valid, kind);
        let data: Vec<bool> = if nulls.is_dense() {
            values.iter().map(|v| v.unwrap_or(false)).collect()
        } else {
            // `flatten()` hides the size hint; collect + shrink so memory
            // accounting reflects the actual non-NULL count.
            let mut d: Vec<_> = values.iter().flatten().copied().collect();
            d.shrink_to_fit();
            d
        };
        Column { dtype: DataType::Bool, data: ColumnData::Bool(data.into()), nulls, zones: None }
    }

    /// Build a dictionary-encoded string column. With `suppress = true` the
    /// code array uses `⌈log2(z)/8⌉`-byte codes; otherwise 8-byte codes
    /// (the pre-compression configurations of Table 2).
    pub fn from_str<S: AsRef<str>>(values: &[Option<S>], kind: NullKind, suppress: bool) -> Column {
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let nulls = NullMap::build(&valid, kind);
        let mut dict = Dictionary::new();
        let mut raw_codes: Vec<u64> = Vec::new();
        if nulls.is_dense() {
            for v in values {
                let code = match v {
                    Some(s) => dict.intern(s.as_ref()) as u64,
                    None => 0,
                };
                raw_codes.push(code);
            }
            // Ensure code 0 exists even if every value is NULL.
            if dict.is_empty() {
                dict.intern("");
            }
        } else {
            for v in values.iter().flatten() {
                raw_codes.push(dict.intern(v.as_ref()) as u64);
            }
            if dict.is_empty() {
                dict.intern("");
            }
        }
        let max_code = (dict.len() as u64).saturating_sub(1);
        let codes = if suppress {
            let mut arr = UIntArray::with_capacity_for(max_code, raw_codes.len());
            for c in &raw_codes {
                arr.push(*c);
            }
            arr
        } else {
            UIntArray::U64(raw_codes.into())
        };
        Column {
            dtype: DataType::String,
            data: ColumnData::Str { dict, codes },
            nulls,
            zones: None,
        }
    }

    /// Build from dynamically-typed values.
    pub fn from_values(dtype: DataType, values: &[Value], kind: NullKind) -> Result<Column> {
        match dtype {
            DataType::Int64 | DataType::Date => {
                let opts: Vec<Option<i64>> = values.iter().map(Value::as_i64).collect();
                Ok(Column::from_i64(dtype, &opts, kind))
            }
            DataType::Float64 => {
                let opts: Vec<Option<f64>> = values.iter().map(Value::as_f64).collect();
                Ok(Column::from_f64(&opts, kind))
            }
            DataType::Bool => {
                let opts: Vec<Option<bool>> = values.iter().map(Value::as_bool).collect();
                Ok(Column::from_bool(&opts, kind))
            }
            DataType::String => {
                let opts: Vec<Option<&str>> = values.iter().map(Value::as_str).collect();
                Ok(Column::from_str(&opts, kind, true))
            }
        }
    }

    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        !self.nulls.is_valid(i)
    }

    /// Read an `Int64`/`Date` value without a cursor: one pin per value on
    /// a paged column. Kept only because the benchmark's column-read probe
    /// calls it; every engine reads through [`Column::get_i64_with`] or a
    /// range read.
    #[inline]
    pub fn get_i64(&self, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::I64(v) => self.nulls.physical(i).map(|p| v.get(p)),
            _ => None,
        }
    }

    /// Read an `Int64`/`Date` value through a reader-owned page cursor: a
    /// gather over one page of a paged column pins it once, not once per
    /// value. A NULL, or a column of another type, reads as `None`.
    #[inline]
    pub fn get_i64_with(&self, cur: &mut PageCursor, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::I64(v) => self.nulls.physical(i).map(|p| v.get_with(cur, p)),
            _ => None,
        }
    }

    #[inline]
    pub fn get_f64_with(&self, cur: &mut PageCursor, i: usize) -> Option<f64> {
        match &self.data {
            ColumnData::F64(v) => self.nulls.physical(i).map(|p| v.get_with(cur, p)),
            _ => None,
        }
    }

    #[inline]
    pub fn get_bool_with(&self, cur: &mut PageCursor, i: usize) -> Option<bool> {
        match &self.data {
            ColumnData::Bool(v) => self.nulls.physical(i).map(|p| v.get_with(cur, p)),
            _ => None,
        }
    }

    /// Read a dictionary code (string columns only) through a reader-owned
    /// page cursor.
    #[inline]
    pub fn get_code_with(&self, cur: &mut PageCursor, i: usize) -> Option<u64> {
        match &self.data {
            ColumnData::Str { codes, .. } => self.nulls.physical(i).map(|p| codes.get_with(cur, p)),
            _ => None,
        }
    }

    /// Block read of logical rows `[start, end)`: appends one value and one
    /// validity flag per row (a NULL row reads as the default value,
    /// `false`). A NULL-free column is one range read of the value array;
    /// otherwise the NULL map is consulted per row, exactly as
    /// [`Column::get_i64_with`] does, and the values step through `cur`.
    fn read_rows<T: Copy + Default>(
        &self,
        arr: &impl Values<T>,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        vals: &mut Vec<T>,
        valid: &mut Vec<bool>,
    ) {
        if matches!(self.nulls, NullMap::AllValid { .. }) {
            arr.range(cur, start, end, vals);
            valid.resize(valid.len() + (end - start), true);
            return;
        }
        for i in start..end {
            let p = self.nulls.physical(i);
            vals.push(p.map_or_else(T::default, |p| arr.at(cur, p)));
            valid.push(p.is_some());
        }
    }

    /// Typed block read of an `Int64`/`Date` column (see
    /// [`Column::get_i64_with`] for the per-row semantics); a column of another
    /// type reads as all-NULL, as the scalar accessor does.
    pub fn read_i64_range(
        &self,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        vals: &mut Vec<i64>,
        valid: &mut Vec<bool>,
    ) {
        match &self.data {
            ColumnData::I64(v) => self.read_rows(v, cur, start, end, vals, valid),
            _ => read_nulls(start, end, vals, valid),
        }
    }

    pub fn read_f64_range(
        &self,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        vals: &mut Vec<f64>,
        valid: &mut Vec<bool>,
    ) {
        match &self.data {
            ColumnData::F64(v) => self.read_rows(v, cur, start, end, vals, valid),
            _ => read_nulls(start, end, vals, valid),
        }
    }

    pub fn read_bool_range(
        &self,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        vals: &mut Vec<bool>,
        valid: &mut Vec<bool>,
    ) {
        match &self.data {
            ColumnData::Bool(v) => self.read_rows(v, cur, start, end, vals, valid),
            _ => read_nulls(start, end, vals, valid),
        }
    }

    /// Typed block read of a string column's dictionary codes.
    pub fn read_code_range(
        &self,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        vals: &mut Vec<u64>,
        valid: &mut Vec<bool>,
    ) {
        match &self.data {
            ColumnData::Str { codes, .. } => self.read_rows(codes, cur, start, end, vals, valid),
            _ => read_nulls(start, end, vals, valid),
        }
    }

    /// Read row `i` as a dynamically-typed [`Value`], through a
    /// reader-owned page cursor.
    pub fn value(&self, cur: &mut PageCursor, i: usize) -> Value {
        match &self.data {
            ColumnData::I64(_) => match self.get_i64_with(cur, i) {
                Some(v) if self.dtype == DataType::Date => Value::Date(v),
                Some(v) => Value::Int64(v),
                None => Value::Null,
            },
            ColumnData::F64(_) => self.get_f64_with(cur, i).map_or(Value::Null, Value::Float64),
            ColumnData::Bool(_) => self.get_bool_with(cur, i).map_or(Value::Null, Value::Bool),
            ColumnData::Str { dict, .. } => self
                .get_code_with(cur, i)
                .map_or(Value::Null, |c| Value::String(dict.decode(c).to_owned())),
        }
    }

    /// Build (or rebuild) the per-block zone map used for scan pruning.
    /// One pass over the logical positions; idempotent.
    pub fn build_zone_map(&mut self) {
        let zm = ZoneMap::build(self);
        self.zones = Some(Box::new(zm));
    }

    /// The zone map, when one has been built ([`Column::build_zone_map`]).
    /// Scans treat `None` as "no pruning possible".
    #[inline]
    pub fn zone_map(&self) -> Option<&ZoneMap> {
        self.zones.as_deref()
    }

    /// The dictionary, for string columns (predicate pre-evaluation).
    pub fn dictionary(&self) -> Option<&Dictionary> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Logical bytes of the physical values (excluding the NULL structure),
    /// whether resident or on disk — the Table 2 accounting number, which a
    /// save/reopen must not change.
    pub fn data_bytes(&self) -> usize {
        self.resident_data_bytes() + self.pageable_bytes()
    }

    /// Value bytes held on the heap right now. Equal to
    /// [`Column::data_bytes`] for a built graph; the dictionary (always
    /// resident) for a reopened one.
    pub fn resident_data_bytes(&self) -> usize {
        match &self.data {
            ColumnData::I64(v) => v.resident_bytes(),
            ColumnData::F64(v) => v.resident_bytes(),
            ColumnData::Bool(v) => v.resident_bytes(),
            ColumnData::Str { dict, codes } => dict.memory_bytes() + codes.resident_bytes(),
        }
    }

    /// Value bytes living on disk, faulted through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        match &self.data {
            ColumnData::I64(v) => v.pageable_bytes(),
            ColumnData::F64(v) => v.pageable_bytes(),
            ColumnData::Bool(v) => v.pageable_bytes(),
            ColumnData::Str { codes, .. } => codes.pageable_bytes(),
        }
    }

    /// `true` when the value array faults in from disk pages.
    pub fn is_paged(&self) -> bool {
        self.pageable_bytes() > 0
    }

    /// Heap bytes of the NULL secondary structure.
    pub fn null_overhead_bytes(&self) -> usize {
        self.nulls.overhead_bytes()
    }

    /// Physical value-array span backing logical rows `[start, end)`:
    /// identity for dense layouts, the first/last valid rank for compressed
    /// ones (`None` when the range holds no values).
    fn physical_span(&self, start: usize, end: usize) -> Option<(usize, usize)> {
        let end = end.min(self.len());
        if start >= end {
            return None;
        }
        if self.nulls.is_dense() {
            return Some((start, end));
        }
        let mut first = None;
        let mut last = None;
        for i in start..end {
            if let Some(p) = self.nulls.physical(i) {
                first.get_or_insert(p);
                last = Some(p);
            }
        }
        Some((first?, last? + 1))
    }

    /// Tell the buffer pool the pages backing logical rows `[start, end)`
    /// were pruned without faulting (zone maps turned into saved I/O).
    /// No-op on a resident column.
    pub fn note_skipped_rows(&self, start: usize, end: usize) {
        let Some((p0, p1)) = self.physical_span(start, end) else { return };
        match &self.data {
            ColumnData::I64(v) => v.note_skipped_range(p0, p1),
            ColumnData::F64(v) => v.note_skipped_range(p0, p1),
            ColumnData::Bool(v) => v.note_skipped_range(p0, p1),
            ColumnData::Str { codes, .. } => codes.note_skipped_range(p0, p1),
        }
    }

    /// Encode for the on-disk format: value arrays as page-aligned
    /// segments through `sink`, everything consulted per-access (dtype,
    /// NULL map, dictionary, zone map) inline in the metadata stream.
    pub fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.dtype(self.dtype);
        match &self.data {
            ColumnData::I64(v) => v.encode_seg(w, sink),
            ColumnData::F64(v) => v.encode_seg(w, sink),
            ColumnData::Bool(v) => v.encode_seg(w, sink),
            ColumnData::Str { dict, codes } => {
                dict.encode(w);
                codes.encode_seg(w, sink);
            }
        }
        self.nulls.encode(w);
        w.opt(self.zones.as_deref(), |w, z| z.encode(w));
    }

    /// Decode a [`Column::encode`] stream: value arrays come back paged
    /// over `src`'s store, faulting in on first access.
    pub fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<Column> {
        let dtype = r.dtype()?;
        let data = match dtype {
            DataType::Int64 | DataType::Date => ColumnData::I64(ArrayData::decode_seg(r, src)?),
            DataType::Float64 => ColumnData::F64(ArrayData::decode_seg(r, src)?),
            DataType::Bool => ColumnData::Bool(ArrayData::decode_seg(r, src)?),
            DataType::String => {
                let dict = Dictionary::decode_stream(r)?;
                let codes = UIntArray::decode_seg(r, src)?;
                ColumnData::Str { dict, codes }
            }
        };
        let nulls = NullMap::decode(r)?;
        let zones = r.opt(ZoneMap::decode)?.map(Box::new);
        Ok(Column { dtype, data, nulls, zones })
    }
}

/// `end - start` NULL rows.
fn read_nulls<T: Copy + Default>(
    start: usize,
    end: usize,
    vals: &mut Vec<T>,
    valid: &mut Vec<bool>,
) {
    vals.resize(vals.len() + (end - start), T::default());
    valid.resize(valid.len() + (end - start), false);
}

impl MemoryUsage for Column {
    fn memory_bytes(&self) -> usize {
        self.data_bytes()
            + self.null_overhead_bytes()
            + self.zones.as_ref().map_or(0, |z| z.memory_bytes())
    }
}

/// Incremental builder accumulating dynamically-typed values.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    dtype: DataType,
    values: Vec<Value>,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder { dtype, values: Vec::new() }
    }

    pub fn push(&mut self, v: Value) -> Result<()> {
        if let Some(dt) = v.data_type() {
            let compatible = dt == self.dtype
                || (dt == DataType::Int64 && self.dtype == DataType::Date)
                || (dt == DataType::Date && self.dtype == DataType::Int64);
            if !compatible {
                return Err(Error::TypeMismatch {
                    expected: self.dtype.to_string(),
                    found: dt.to_string(),
                });
            }
        }
        self.values.push(v);
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.values.push(Value::Null);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn build(self, kind: NullKind) -> Result<Column> {
        Column::from_values(self.dtype, &self.values, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankParams;

    fn kinds() -> Vec<NullKind> {
        vec![
            NullKind::Uncompressed,
            NullKind::Sparse,
            NullKind::Ranges,
            NullKind::Vanilla,
            NullKind::Jacobson(RankParams::default()),
        ]
    }

    #[test]
    fn i64_column_roundtrip_all_layouts() {
        let values: Vec<Option<i64>> =
            (0..300).map(|i| if i % 4 == 0 { None } else { Some(i * 11) }).collect();
        for kind in kinds() {
            let col = Column::from_i64(DataType::Int64, &values, kind);
            assert_eq!(col.len(), values.len());
            for (i, v) in values.iter().enumerate() {
                assert_eq!(col.get_i64(i), *v, "{kind:?} at {i}");
                assert_eq!(col.is_null(i), v.is_none());
            }
        }
    }

    #[test]
    fn date_column_values() {
        let col = Column::from_i64(DataType::Date, &[Some(100), None], NullKind::Uncompressed);
        let mut cur = PageCursor::new();
        assert_eq!(col.value(&mut cur, 0), Value::Date(100));
        assert_eq!(col.value(&mut cur, 1), Value::Null);
    }

    #[test]
    fn string_column_dictionary_encoding() {
        let values = vec![Some("de"), Some("us"), None, Some("de"), Some("fr")];
        for kind in kinds() {
            let col = Column::from_str(&values, kind, true);
            let cur = &mut PageCursor::new();
            assert_eq!(col.value(cur, 0), Value::String("de".into()));
            assert_eq!(col.value(cur, 2), Value::Null);
            assert_eq!(col.value(cur, 3), Value::String("de".into()));
            assert_eq!(
                col.get_code_with(cur, 0),
                col.get_code_with(cur, 3),
                "same string, same code"
            );
            assert_ne!(col.get_code_with(cur, 0), col.get_code_with(cur, 4));
            let dict = col.dictionary().unwrap();
            assert_eq!(dict.len(), 3);
            assert_eq!(dict.code_width_bytes(), 1);
        }
    }

    #[test]
    fn compressed_layout_stores_only_non_nulls() {
        let values: Vec<Option<i64>> =
            (0..1000).map(|i| if i % 10 == 0 { Some(i) } else { None }).collect();
        let dense = Column::from_i64(DataType::Int64, &values, NullKind::Uncompressed);
        let sparse = Column::from_i64(DataType::Int64, &values, NullKind::Sparse);
        assert!(sparse.data_bytes() < dense.data_bytes() / 5);
    }

    #[test]
    fn f64_and_bool_columns() {
        let cur = &mut PageCursor::new();
        let f = Column::from_f64(&[Some(1.5), None, Some(-2.0)], NullKind::jacobson_default());
        assert_eq!(f.get_f64_with(cur, 0), Some(1.5));
        assert_eq!(f.get_f64_with(cur, 1), None);
        assert_eq!(f.value(cur, 2), Value::Float64(-2.0));
        let b = Column::from_bool(&[Some(true), None], NullKind::Uncompressed);
        assert_eq!(b.get_bool_with(cur, 0), Some(true));
        assert_eq!(b.get_bool_with(cur, 1), None);
        // Wrong-type accessor returns None rather than panicking.
        assert_eq!(b.get_i64(0), None);
    }

    #[test]
    fn builder_enforces_types() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push(Value::Int64(1)).unwrap();
        b.push_null();
        assert!(b.push(Value::String("no".into())).is_err());
        let col = b.build(NullKind::Uncompressed).unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col.get_i64(0), Some(1));
        assert_eq!(col.get_i64(1), None);
    }

    #[test]
    fn all_null_string_column() {
        let values: Vec<Option<&str>> = vec![None, None];
        let col = Column::from_str(&values, NullKind::jacobson_default(), true);
        let cur = &mut PageCursor::new();
        assert_eq!(col.value(cur, 0), Value::Null);
        assert_eq!(col.value(cur, 1), Value::Null);
    }

    #[test]
    fn resident_columns_report_no_pageable_bytes() {
        let col = Column::from_i64(
            DataType::Int64,
            &(0..100).map(Some).collect::<Vec<_>>(),
            NullKind::Uncompressed,
        );
        assert!(!col.is_paged());
        assert_eq!(col.pageable_bytes(), 0);
        assert_eq!(col.resident_data_bytes(), col.data_bytes());
        // Skip accounting is a no-op on resident columns.
        col.note_skipped_rows(0, 100);
    }
}
