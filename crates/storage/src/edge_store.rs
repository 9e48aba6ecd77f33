//! Per-label storage of n-n edge properties: the Section 4.2 design space.

use gfcl_columnar::{Column, SegmentSink, SegmentSource};
use gfcl_common::{Error, MemoryUsage, Reader, Result, Writer};

use crate::edge_prop_pages::PropertyPages;

/// How one edge label's properties are physically stored.
#[derive(Debug, Clone)]
pub enum EdgePropStore {
    /// The label has no properties — nothing is stored at all (one of the
    /// big wins over the row store, which keeps a pointer per edge).
    None,
    /// Single-indexed property pages (the paper's design).
    Pages(PropertyPages),
    /// Flat columns indexed by a randomly-assigned dense edge ID
    /// (baseline "edge columns").
    Columns { props: Vec<Column> },
    /// Properties duplicated in forward and backward list order
    /// (baseline "double-indexed property CSRs").
    DoubleIndexed { fwd: Vec<Column>, bwd: Vec<Column> },
    /// Single-cardinality label: properties live in the
    /// [`crate::single_card::SingleCardAdj`] vertex columns; their bytes are
    /// accounted there.
    InVertexColumns,
}

impl EdgePropStore {
    pub fn n_props(&self) -> usize {
        match self {
            EdgePropStore::None | EdgePropStore::InVertexColumns => 0,
            EdgePropStore::Pages(p) => p.n_props(),
            EdgePropStore::Columns { props } => props.len(),
            EdgePropStore::DoubleIndexed { fwd, .. } => fwd.len(),
        }
    }

    /// Heap bytes held right now.
    pub fn resident_bytes(&self) -> usize {
        match self {
            EdgePropStore::None | EdgePropStore::InVertexColumns => 0,
            EdgePropStore::Pages(p) => p.resident_bytes(),
            EdgePropStore::Columns { props } => column_resident(props),
            EdgePropStore::DoubleIndexed { fwd, bwd } => {
                column_resident(fwd) + column_resident(bwd)
            }
        }
    }

    /// Bytes living on disk, faulted through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        match self {
            EdgePropStore::None | EdgePropStore::InVertexColumns => 0,
            EdgePropStore::Pages(p) => p.pageable_bytes(),
            EdgePropStore::Columns { props } => column_pageable(props),
            EdgePropStore::DoubleIndexed { fwd, bwd } => {
                column_pageable(fwd) + column_pageable(bwd)
            }
        }
    }

    /// Encode for the on-disk format.
    pub fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        match self {
            EdgePropStore::None => w.u8(0),
            EdgePropStore::Pages(p) => {
                w.u8(1);
                p.encode(w, sink);
            }
            EdgePropStore::Columns { props } => {
                w.u8(2);
                encode_columns(w, sink, props);
            }
            EdgePropStore::DoubleIndexed { fwd, bwd } => {
                w.u8(3);
                encode_columns(w, sink, fwd);
                encode_columns(w, sink, bwd);
            }
            EdgePropStore::InVertexColumns => w.u8(4),
        }
    }

    /// Decode an [`EdgePropStore::encode`] stream.
    pub fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<EdgePropStore> {
        Ok(match r.u8()? {
            0 => EdgePropStore::None,
            1 => EdgePropStore::Pages(PropertyPages::decode(r, src)?),
            2 => EdgePropStore::Columns { props: decode_columns(r, src)? },
            3 => EdgePropStore::DoubleIndexed {
                fwd: decode_columns(r, src)?,
                bwd: decode_columns(r, src)?,
            },
            4 => EdgePropStore::InVertexColumns,
            t => return Err(Error::Storage(format!("invalid edge-prop-store tag {t}"))),
        })
    }
}

fn column_resident(props: &[Column]) -> usize {
    props.iter().map(|c| c.resident_data_bytes() + c.null_overhead_bytes()).sum()
}

fn column_pageable(props: &[Column]) -> usize {
    props.iter().map(Column::pageable_bytes).sum()
}

fn encode_columns(w: &mut Writer, sink: &mut dyn SegmentSink, props: &[Column]) {
    w.usize(props.len());
    for p in props {
        p.encode(w, sink);
    }
}

fn decode_columns(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<Vec<Column>> {
    let n = r.count()?;
    let mut props = Vec::with_capacity(n);
    for _ in 0..n {
        props.push(Column::decode(r, src)?);
    }
    Ok(props)
}

impl MemoryUsage for EdgePropStore {
    fn memory_bytes(&self) -> usize {
        match self {
            EdgePropStore::None | EdgePropStore::InVertexColumns => 0,
            EdgePropStore::Pages(p) => p.memory_bytes(),
            EdgePropStore::Columns { props } => props.iter().map(Column::memory_bytes).sum(),
            EdgePropStore::DoubleIndexed { fwd, bwd } => {
                fwd.iter().chain(bwd).map(Column::memory_bytes).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_columnar::NullKind;
    use gfcl_common::DataType;

    #[test]
    fn double_indexed_costs_twice_columns() {
        let values: Vec<Option<i64>> = (0..1000).map(Some).collect();
        let col = Column::from_i64(DataType::Int64, &values, NullKind::Uncompressed);
        let single = EdgePropStore::Columns { props: vec![col.clone()] };
        let double = EdgePropStore::DoubleIndexed { fwd: vec![col.clone()], bwd: vec![col] };
        assert_eq!(double.memory_bytes(), 2 * single.memory_bytes());
        assert_eq!(single.n_props(), 1);
        assert_eq!(double.n_props(), 1);
    }

    #[test]
    fn none_is_free() {
        assert_eq!(EdgePropStore::None.memory_bytes(), 0);
        assert_eq!(EdgePropStore::InVertexColumns.memory_bytes(), 0);
    }
}
