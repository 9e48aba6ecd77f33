//! Two-level CSR adjacency index (Section 4.1.1) with factored ID
//! components (Section 5.2) and empty-list compression (Section 5.3).
//!
//! A CSR stores, per (edge label, direction), the `(edge ID, neighbour ID)`
//! pairs of every vertex's adjacency list, clustered by vertex. After ID
//! factoring only two per-edge components remain, each in its own
//! leading-0-suppressed array:
//!
//! * `nbr` — the neighbour's label-level positional offset (its label is
//!   determined by the edge label and therefore omitted);
//! * `edge_ids` — the page-level positional offsets of the edge IDs, and
//!   only when the Figure 6 decision tree says they are needed (the label
//!   has properties and is not single-cardinality).
//!
//! Vertices with empty adjacency lists can be NULL-compressed: the offsets
//! array then stores entries only for non-empty vertices and a
//! [`NullMap`] (Jacobson by default) maps vertex offsets to them in
//! constant time. Uncompressed, the offsets keep one entry per vertex and
//! already encode an empty list as two equal offsets, so no map is stored;
//! nor is one under any layout when no list is empty.

use gfcl_columnar::{NullKind, NullMap, PageCursor, SegmentSink, SegmentSource, UIntArray};
use gfcl_common::{MemoryUsage, Reader, Result, Writer};

/// Build options for a [`Csr`].
#[derive(Debug, Clone, Copy)]
pub struct CsrOptions {
    /// Leading-0 suppression of the offsets and neighbour arrays.
    pub zero_suppress: bool,
    /// Empty-list layout: `Vanilla` or `Jacobson` store offsets only for
    /// non-empty lists behind that [`NullMap`] when some list is empty;
    /// `Uncompressed`, or a CSR without an empty list, keeps one offsets
    /// entry per vertex and an `AllValid` map.
    pub nulls: NullKind,
}

impl Default for CsrOptions {
    fn default() -> Self {
        CsrOptions { zero_suppress: true, nulls: NullKind::Uncompressed }
    }
}

/// A single-direction CSR for one edge label.
#[derive(Debug, Clone)]
pub struct Csr {
    n_vertices: usize,
    /// `offsets[s]..offsets[s+1]` bounds the list of the s-th *stored*
    /// vertex. One entry per vertex (+1) when uncompressed; one per
    /// non-empty vertex (+1) when empty-list compressed.
    offsets: UIntArray,
    /// Maps a vertex offset to its slot in `offsets`; `AllValid` when
    /// empty lists are not compressed or there is none.
    empties: NullMap,
    /// Neighbour label-level positional offsets, in list order.
    nbr: UIntArray,
    /// Per-edge ID component (page-level positional offsets under the new
    /// ID scheme; global edge IDs otherwise); `None` when the decision tree
    /// omits them.
    edge_ids: Option<UIntArray>,
}

impl Csr {
    /// Build a CSR from parallel `(from, nbr)` edge arrays. Returns the CSR
    /// and the permutation `input_of_pos` mapping each CSR position to the
    /// index of the input edge stored there (used to align edge properties
    /// and edge-ID arrays with CSR order).
    pub fn build(
        n_vertices: usize,
        from: &[u64],
        nbr: &[u64],
        opts: CsrOptions,
    ) -> (Csr, Vec<u64>) {
        assert_eq!(from.len(), nbr.len());
        let m = from.len();

        // Counting sort by `from`.
        let mut degree = vec![0u64; n_vertices];
        for &f in from {
            degree[f as usize] += 1;
        }
        let mut starts = vec![0u64; n_vertices + 1];
        for v in 0..n_vertices {
            starts[v + 1] = starts[v] + degree[v];
        }
        let mut cursor = starts.clone();
        let mut nbr_sorted = vec![0u64; m];
        let mut input_of_pos = vec![0u64; m];
        for i in 0..m {
            let f = from[i] as usize;
            let p = cursor[f] as usize;
            cursor[f] += 1;
            nbr_sorted[p] = nbr[i];
            input_of_pos[p] = i as u64;
        }

        // Empty lists are compressed only when some list is empty: a CSR
        // without one stores every vertex's offsets and no map, as an
        // uncompressed one does, and its list lookups rank nothing.
        let empties = if opts.nulls.compresses() {
            let valid: Vec<bool> = degree.iter().map(|&d| d > 0).collect();
            NullMap::for_column(&valid, opts.nulls)
        } else {
            NullMap::AllValid { len: n_vertices }
        };
        let offsets = if empties.is_dense() {
            UIntArray::from_values(&starts, opts.zero_suppress)
        } else {
            let mut compact = Vec::with_capacity(empties.count_valid() + 1);
            compact.extend((0..n_vertices).filter(|&v| degree[v] > 0).map(|v| starts[v]));
            compact.push(m as u64);
            UIntArray::from_values(&compact, opts.zero_suppress)
        };

        let csr = Csr {
            n_vertices,
            offsets,
            empties,
            nbr: UIntArray::from_values(&nbr_sorted, opts.zero_suppress),
            edge_ids: None,
        };
        (csr, input_of_pos)
    }

    /// Attach the per-edge ID-component array (aligned with CSR positions).
    pub fn set_edge_ids(&mut self, ids: UIntArray) {
        assert_eq!(ids.len(), self.nbr.len());
        self.edge_ids = Some(ids);
    }

    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    pub fn n_edges(&self) -> usize {
        self.nbr.len()
    }

    /// Adjacency list bounds of vertex `v`: `(start position, length)`.
    /// Constant time in every configuration (Desideratum 2): the empty-list
    /// NullMap is Jacobson-indexed.
    #[inline]
    pub fn list(&self, v: u64) -> (u64, usize) {
        match self.empties.physical(v as usize) {
            Some(s) => {
                let start = self.offsets.get(s);
                let end = self.offsets.get(s + 1);
                (start, (end - start) as usize)
            }
            None => (0, 0),
        }
    }

    #[inline]
    pub fn degree(&self, v: u64) -> usize {
        self.list(v).1
    }

    /// Neighbour offset of the edge at CSR position `pos`, through a
    /// reader-owned page cursor: stepping a list costs one pin per page it
    /// spans, not one per edge.
    #[inline]
    pub fn nbr_at_with(&self, cur: &mut PageCursor, pos: u64) -> u64 {
        self.nbr.get_with(cur, pos as usize)
    }

    pub fn has_edge_ids(&self) -> bool {
        self.edge_ids.is_some()
    }

    /// The raw neighbour array (zero-copy list views in the LBP).
    pub fn nbr_array(&self) -> &UIntArray {
        &self.nbr
    }

    /// The per-edge ID components, aligned with CSR positions; `None` when
    /// the decision tree omitted them. Read through
    /// `EdgePropRead::resolve_list`, which validates their presence.
    pub fn edge_ids_array(&self) -> Option<&UIntArray> {
        self.edge_ids.as_ref()
    }

    /// Iterate the `(csr position, nbr)` pairs of `v`'s list. The iterator
    /// owns a fresh page cursor: one pin per page the list spans, and on a
    /// paged array a cursor table allocated per list. Kept only because
    /// the benchmark's adjacency probe calls it; engines and the store step
    /// lists with [`Csr::nbr_at_with`] through their own cursors.
    pub fn iter_list(&self, v: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (start, len) = self.list(v);
        let mut cur = PageCursor::new();
        (start..start + len as u64).map(move |p| (p, self.nbr_at_with(&mut cur, p)))
    }

    /// Memory of the offsets structure (the "CSR offsets" cost that vertex
    /// columns avoid for single-cardinality edges — Section 8.4).
    pub fn offsets_bytes(&self) -> usize {
        self.offsets.memory_bytes() + self.empties.overhead_bytes()
    }

    /// Heap bytes held right now (offsets and the empty-list map always
    /// stay resident; the per-edge arrays may be paged).
    pub fn resident_bytes(&self) -> usize {
        self.offsets_bytes()
            + self.nbr.resident_bytes()
            + self.edge_ids.as_ref().map_or(0, UIntArray::resident_bytes)
    }

    /// Per-edge bytes living on disk, faulted through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        self.nbr.pageable_bytes() + self.edge_ids.as_ref().map_or(0, UIntArray::pageable_bytes)
    }

    /// Encode for the on-disk format. The per-edge arrays (`nbr`,
    /// `edge_ids`) — the bulk of an adjacency index — go out as page
    /// segments; the offsets structure stays inline so `list()` never
    /// faults a page just to find a list's bounds.
    pub fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.usize(self.n_vertices);
        self.offsets.encode_inline(w);
        self.empties.encode(w);
        self.nbr.encode_seg(w, sink);
        w.opt(self.edge_ids.as_ref(), |w, e| e.encode_seg(w, sink));
    }

    /// Decode a [`Csr::encode`] stream; per-edge arrays come back paged.
    pub fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<Csr> {
        let n_vertices = r.usize()?;
        let offsets = UIntArray::decode_inline(r)?;
        let empties = NullMap::decode(r)?;
        let nbr = UIntArray::decode_seg(r, src)?;
        let edge_ids = r.opt(|r| UIntArray::decode_seg(r, src))?;
        Ok(Csr { n_vertices, offsets, empties, nbr, edge_ids })
    }
}

impl MemoryUsage for Csr {
    fn memory_bytes(&self) -> usize {
        self.offsets_bytes()
            + self.nbr.memory_bytes()
            + self.edge_ids.as_ref().map_or(0, |e| e.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> (usize, Vec<u64>, Vec<u64>) {
        // 6 vertices; vertices 2 and 5 have empty lists.
        let from = vec![0u64, 0, 1, 3, 3, 3, 4, 0];
        let nbr = vec![1u64, 2, 3, 0, 1, 5, 4, 3];
        (6, from, nbr)
    }

    fn check_lists(csr: &Csr, from: &[u64], nbr: &[u64]) {
        // The multiset of (from, nbr) pairs must round-trip (invariant 4).
        let mut expected: Vec<(u64, u64)> = from.iter().zip(nbr).map(|(&f, &n)| (f, n)).collect();
        expected.sort_unstable();
        let mut actual = Vec::new();
        for v in 0..csr.n_vertices() as u64 {
            for (_, n) in csr.iter_list(v) {
                actual.push((v, n));
            }
        }
        actual.sort_unstable();
        assert_eq!(actual, expected);
    }

    #[test]
    fn build_uncompressed() {
        let (n, from, nbr) = sample_edges();
        let (csr, perm) = Csr::build(n, &from, &nbr, CsrOptions::default());
        assert_eq!(csr.n_edges(), 8);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.degree(3), 3);
        check_lists(&csr, &from, &nbr);
        // Permutation maps CSR positions back to input edges.
        let mut cur = PageCursor::new();
        for p in 0..csr.n_edges() as u64 {
            let i = perm[p as usize] as usize;
            assert_eq!(csr.nbr_at_with(&mut cur, p), nbr[i]);
        }
    }

    #[test]
    fn build_with_empty_list_compression() {
        let (n, from, nbr) = sample_edges();
        for nulls in [NullKind::jacobson_default(), NullKind::Vanilla] {
            let opts = CsrOptions { zero_suppress: true, nulls };
            let (csr, _) = Csr::build(n, &from, &nbr, opts);
            assert_eq!(csr.degree(2), 0);
            assert_eq!(csr.degree(5), 0);
            check_lists(&csr, &from, &nbr);
        }
    }

    #[test]
    fn empty_compression_shrinks_offsets_when_sparse() {
        // 1000 vertices, only 10 have edges.
        let from: Vec<u64> = (0..10).map(|i| i * 100).collect();
        let nbr: Vec<u64> = (0..10).collect();
        let unc = Csr::build(1000, &from, &nbr, CsrOptions::default()).0;
        let cmp = Csr::build(
            1000,
            &from,
            &nbr,
            CsrOptions { zero_suppress: true, nulls: NullKind::jacobson_default() },
        )
        .0;
        assert!(cmp.offsets_bytes() < unc.offsets_bytes());
        check_lists(&cmp, &from, &nbr);
    }

    #[test]
    fn zero_suppression_narrows_arrays() {
        let (n, from, nbr) = sample_edges();
        let narrow = Csr::build(n, &from, &nbr, CsrOptions::default()).0;
        let wide = Csr::build(
            n,
            &from,
            &nbr,
            CsrOptions { zero_suppress: false, nulls: NullKind::Uncompressed },
        )
        .0;
        assert!(narrow.memory_bytes() < wide.memory_bytes());
        check_lists(&wide, &from, &nbr);
    }

    #[test]
    fn edge_ids_roundtrip() {
        let (n, from, nbr) = sample_edges();
        let (mut csr, _) = Csr::build(n, &from, &nbr, CsrOptions::default());
        assert!(!csr.has_edge_ids());
        assert!(csr.edge_ids_array().is_none(), "omitted array is not a panic");
        let ids: Vec<u64> = (0..8).map(|i| i * 3).collect();
        csr.set_edge_ids(UIntArray::from_values(&ids, true));
        assert!(csr.has_edge_ids());
        let (arr, mut cur) = (csr.edge_ids_array().unwrap(), PageCursor::new());
        for p in 0..8 {
            assert_eq!(arr.get_with(&mut cur, p), p as u64 * 3);
        }
    }

    #[test]
    fn dense_null_layout_keeps_full_offsets() {
        // Uncompressed keeps one offsets entry per vertex and stores no
        // validity bitmap: equal offsets already say "empty list".
        let (n, from, nbr) = sample_edges();
        let opts = CsrOptions { zero_suppress: true, nulls: NullKind::Uncompressed };
        let (csr, _) = Csr::build(n, &from, &nbr, opts);
        check_lists(&csr, &from, &nbr);
        assert_eq!(csr.degree(5), 0);
        assert_eq!(csr.offsets.len(), n + 1);
        assert_eq!(csr.empties, NullMap::AllValid { len: n });
    }

    #[test]
    fn encode_roundtrip_faults_lists_back_in() {
        use gfcl_columnar::paged_array::mem::{MemSink, MemStore};
        use gfcl_common::{Reader, Writer};
        let (n, from, nbr) = sample_edges();
        let opts = CsrOptions { zero_suppress: true, nulls: NullKind::jacobson_default() };
        let (mut csr, _) = Csr::build(n, &from, &nbr, opts);
        csr.set_edge_ids(UIntArray::from_values(&[0, 1, 2, 3, 4, 5, 6, 7], true));
        let store = MemStore::new();
        let mut w = Writer::new();
        csr.encode(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        let back = Csr::decode(&mut Reader::new(&bytes), &store).unwrap();
        assert_eq!(back.n_vertices(), csr.n_vertices());
        assert!(back.pageable_bytes() > 0, "per-edge arrays are paged");
        check_lists(&back, &from, &nbr);
        let (a, b) = (back.edge_ids_array().unwrap(), csr.edge_ids_array().unwrap());
        let (mut ca, mut cb) = (PageCursor::new(), PageCursor::new());
        for p in 0..8 {
            assert_eq!(a.get_with(&mut ca, p), b.get_with(&mut cb, p));
        }
        assert!(Csr::decode(&mut Reader::new(&bytes[..bytes.len() / 3]), &store).is_err());
    }

    #[test]
    fn no_edges_at_all() {
        let (csr, perm) = Csr::build(5, &[], &[], CsrOptions::default());
        assert!(perm.is_empty());
        for v in 0..5 {
            assert_eq!(csr.degree(v), 0);
        }
        let opts = CsrOptions { zero_suppress: true, nulls: NullKind::jacobson_default() };
        let (csr, _) = Csr::build(5, &[], &[], opts);
        assert_eq!(csr.degree(3), 0);
    }
}
