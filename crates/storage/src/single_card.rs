//! Vertex-column storage for single-cardinality edges (Section 4.1.2,
//! Figure 4).
//!
//! A 1-1 / 1-n / n-1 edge label has at most one edge per vertex on its
//! single side, so the edge — its neighbour, and its properties — can be
//! stored as ordinary vertex columns of that side, addressed directly by
//! vertex offset. Compared to a CSR this saves the offsets array entirely
//! and removes one indirection per lookup (the Table 4 experiment), and the
//! "vertex has no such edge" case is exactly a NULL, so empty-edge
//! compression reuses the [`NullMap`] machinery (Section 8.4).

use gfcl_columnar::{Column, NullKind, NullMap, PageCursor, SegmentSink, SegmentSource, UIntArray};
use gfcl_common::{MemoryUsage, Reader, Result, Writer};

/// Single-direction adjacency of a single-cardinality edge label, stored as
/// a vertex column of the `from` side.
#[derive(Debug, Clone)]
pub struct SingleCardAdj {
    /// Neighbour offsets, dense (one per vertex) or NULL-compressed.
    nbr: UIntArray,
    /// Which vertices have the edge.
    nulls: NullMap,
    /// Edge properties as vertex columns of this side (present only on the
    /// property side chosen by [`crate::catalog::Cardinality::property_side`]).
    props: Vec<Column>,
}

impl SingleCardAdj {
    /// Build from per-vertex optional neighbours. `kind` is the NULL layout
    /// (Uncompressed keeps a dense neighbour array).
    pub fn build(
        nbrs: &[Option<u64>],
        kind: NullKind,
        zero_suppress: bool,
        props: Vec<Column>,
    ) -> SingleCardAdj {
        let valid: Vec<bool> = nbrs.iter().map(Option::is_some).collect();
        let nulls = NullMap::build(&valid, kind);
        let values: Vec<u64> = if nulls.is_dense() {
            nbrs.iter().map(|n| n.unwrap_or(0)).collect()
        } else {
            nbrs.iter().flatten().copied().collect()
        };
        let nbr = UIntArray::from_values(&values, zero_suppress);
        SingleCardAdj { nbr, nulls, props }
    }

    /// Number of vertices on this side.
    pub fn n_vertices(&self) -> usize {
        self.nulls.len()
    }

    /// Number of edges (vertices that have one).
    pub fn n_edges(&self) -> usize {
        self.nulls.count_valid()
    }

    /// The neighbour of `v`, if `v` has the edge, through a reader-owned
    /// page cursor. One constant-time column read — no CSR offset
    /// indirection.
    #[inline]
    pub fn nbr_with(&self, cur: &mut PageCursor, v: u64) -> Option<u64> {
        self.nulls.physical(v as usize).map(|p| self.nbr.get_with(cur, p))
    }

    pub fn n_props(&self) -> usize {
        self.props.len()
    }

    /// Edge property column `j`, indexed by vertex offset of this side.
    pub fn prop(&self, j: usize) -> &Column {
        &self.props[j]
    }

    /// Bytes of the adjacency itself (neighbours + validity), excluding
    /// edge properties — the Table 2/4 split between "Adj. Lists" and
    /// "Edge Props".
    pub fn adjacency_bytes(&self) -> usize {
        self.nbr.memory_bytes() + self.nulls.overhead_bytes()
    }

    /// Bytes of the edge property columns.
    pub fn props_bytes(&self) -> usize {
        self.props.iter().map(Column::memory_bytes).sum()
    }

    /// Heap bytes held right now.
    pub fn resident_bytes(&self) -> usize {
        self.nbr.resident_bytes()
            + self.nulls.overhead_bytes()
            + self.props.iter().map(Column::resident_data_bytes).sum::<usize>()
            + self.props.iter().map(Column::null_overhead_bytes).sum::<usize>()
    }

    /// Bytes living on disk, faulted through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        self.nbr.pageable_bytes() + self.props.iter().map(Column::pageable_bytes).sum::<usize>()
    }

    /// Encode for the on-disk format: neighbour array and property values
    /// as page segments, the NULL map inline.
    pub fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        self.nbr.encode_seg(w, sink);
        self.nulls.encode(w);
        w.usize(self.props.len());
        for p in &self.props {
            p.encode(w, sink);
        }
    }

    /// Decode a [`SingleCardAdj::encode`] stream.
    pub fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<SingleCardAdj> {
        let nbr = UIntArray::decode_seg(r, src)?;
        let nulls = NullMap::decode(r)?;
        let n = r.count()?;
        let mut props = Vec::with_capacity(n);
        for _ in 0..n {
            props.push(Column::decode(r, src)?);
        }
        Ok(SingleCardAdj { nbr, nulls, props })
    }
}

impl MemoryUsage for SingleCardAdj {
    fn memory_bytes(&self) -> usize {
        self.adjacency_bytes() + self.props_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_common::DataType;

    fn nbrs() -> Vec<Option<u64>> {
        vec![Some(3), None, Some(1), None, None, Some(0)]
    }

    #[test]
    fn lookup_all_layouts() {
        for kind in [
            NullKind::Uncompressed,
            NullKind::jacobson_default(),
            NullKind::Vanilla,
            NullKind::Sparse,
            NullKind::Ranges,
        ] {
            let adj = SingleCardAdj::build(&nbrs(), kind, true, vec![]);
            assert_eq!(adj.n_vertices(), 6);
            assert_eq!(adj.n_edges(), 3);
            let cur = &mut PageCursor::new();
            assert_eq!(adj.nbr_with(cur, 0), Some(3));
            assert_eq!(adj.nbr_with(cur, 1), None);
            assert_eq!(adj.nbr_with(cur, 2), Some(1));
            assert_eq!(adj.nbr_with(cur, 5), Some(0));
        }
    }

    #[test]
    fn null_compression_shrinks_sparse_adjacency() {
        // 10000 vertices, 100 edges: half-full replyOf-style lists.
        let nbrs: Vec<Option<u64>> =
            (0..10_000).map(|i| (i % 100 == 0).then_some(i as u64)).collect();
        let unc = SingleCardAdj::build(&nbrs, NullKind::Uncompressed, true, vec![]);
        let cmp = SingleCardAdj::build(&nbrs, NullKind::jacobson_default(), true, vec![]);
        assert!(cmp.adjacency_bytes() < unc.adjacency_bytes());
        let (mut a, mut b) = (PageCursor::new(), PageCursor::new());
        for v in 0..10_000u64 {
            assert_eq!(cmp.nbr_with(&mut a, v), unc.nbr_with(&mut b, v));
        }
    }

    #[test]
    fn encode_roundtrip_with_props() {
        use gfcl_columnar::paged_array::mem::{MemSink, MemStore};
        use gfcl_common::{Reader, Writer};
        let doj = Column::from_i64(
            DataType::Int64,
            &[Some(2006), None, Some(2019), None, None, Some(1980)],
            NullKind::jacobson_default(),
        );
        let adj = SingleCardAdj::build(&nbrs(), NullKind::jacobson_default(), true, vec![doj]);
        let store = MemStore::new();
        let mut w = Writer::new();
        adj.encode(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        let back = SingleCardAdj::decode(&mut Reader::new(&bytes), &store).unwrap();
        assert_eq!(back.n_vertices(), 6);
        assert!(back.pageable_bytes() > 0);
        let (mut a, mut b) = (PageCursor::new(), PageCursor::new());
        for v in 0..6u64 {
            assert_eq!(back.nbr_with(&mut a, v), adj.nbr_with(&mut b, v));
        }
        assert_eq!(back.prop(0).get_i64(0), Some(2006));
        assert_eq!(back.prop(0).get_i64(1), None);
        assert!(SingleCardAdj::decode(&mut Reader::new(&bytes[..5]), &store).is_err());
    }

    #[test]
    fn props_are_vertex_columns() {
        let doj = Column::from_i64(
            DataType::Int64,
            &[Some(2006), None, Some(2019), None, None, Some(1980)],
            NullKind::Uncompressed,
        );
        let adj = SingleCardAdj::build(&nbrs(), NullKind::Uncompressed, true, vec![doj]);
        assert_eq!(adj.n_props(), 1);
        assert_eq!(adj.prop(0).get_i64(0), Some(2006));
        assert_eq!(adj.prop(0).get_i64(1), None);
        assert!(adj.props_bytes() > 0);
        assert!(adj.adjacency_bytes() > 0);
    }
}
