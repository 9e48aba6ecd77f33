//! Single-indexed edge property pages (Section 4.2, Figure 5).
//!
//! Properties of n-n edges are stored once, in the order of the *indexed*
//! direction's adjacency lists (forward, by convention here). A **page**
//! groups the property lists of `k` consecutive source vertices (k = 128 by
//! default), and each edge's ID carries its **page-level positional
//! offset**. Reads:
//!
//! * *indexed direction*: the properties of a list live in one page, in
//!   list order — sequential, cache-friendly access (Desideratum 1);
//! * *opposite direction*: `page_starts[src / k] + page_offset` locates the
//!   value with one extra array read — constant-time random access, no
//!   scan of the neighbour's list (the problem with a standard edge ID
//!   scheme the paper describes).
//!
//! Small `k` additionally makes deleted page offsets easy to recycle: a gap
//! can be reused by an insertion into *any* of the page's k lists.

use gfcl_columnar::{Column, SegmentSink, SegmentSource};
use gfcl_common::{MemoryUsage, Reader, Result, Writer};

/// The property pages of one edge label (all of its properties share the
/// page geometry).
#[derive(Debug, Clone)]
pub struct PropertyPages {
    k: usize,
    /// `page_starts[g]` = flat index of the first slot of page `g`
    /// (the page covering source vertices `g*k .. (g+1)*k`).
    page_starts: Vec<u64>,
    /// Property columns in flat (page, slot) order — which, for bulk-built
    /// graphs, equals the indexed direction's CSR order.
    props: Vec<Column>,
    /// Largest page size, determining the byte width of stored page-level
    /// positional offsets (`⌈log2(t)/8⌉` bytes — Section 5.1).
    max_page_size: u64,
}

/// The slot assignment produced by filling pages in edge-insertion order:
/// each arriving edge takes the next free slot of its source's page. Within
/// a page the `k` lists interleave (the paper: "properties of the same list
/// does not have to be consecutive... stored in close-by memory locations"),
/// which is what makes small `k` cache-friendly and the page-offset scheme
/// update-friendly (any of the k lists can recycle a freed slot).
#[derive(Debug, Clone)]
pub struct PageAssignment {
    /// Flat index of the first slot of each page (+1 sentinel).
    pub page_starts: Vec<u64>,
    /// Page-level positional offset assigned to each input edge.
    pub slot_of_input: Vec<u64>,
    /// Flat storage index of each input edge (`page_start + slot`).
    pub flat_of_input: Vec<u64>,
    pub max_page_size: u64,
}

/// Assign page slots for `src_of_edge` in insertion order.
pub fn assign_insertion_order(k: usize, n_src: usize, src_of_edge: &[u64]) -> PageAssignment {
    assert!(k > 0, "page size k must be positive");
    let n_pages = n_src.div_ceil(k).max(1);
    // Page sizes, then prefix-summed starts.
    let mut sizes = vec![0u64; n_pages];
    for &s in src_of_edge {
        sizes[s as usize / k] += 1;
    }
    let mut page_starts = Vec::with_capacity(n_pages + 1);
    let mut acc = 0u64;
    for &sz in &sizes {
        page_starts.push(acc);
        acc += sz;
    }
    page_starts.push(acc);
    let max_page_size = sizes.iter().copied().max().unwrap_or(0);
    // Slots in arrival order.
    let mut next = vec![0u64; n_pages];
    let mut slot_of_input = Vec::with_capacity(src_of_edge.len());
    let mut flat_of_input = Vec::with_capacity(src_of_edge.len());
    for &s in src_of_edge {
        let page = s as usize / k;
        let slot = next[page];
        next[page] += 1;
        slot_of_input.push(slot);
        flat_of_input.push(page_starts[page] + slot);
    }
    PageAssignment { page_starts, slot_of_input, flat_of_input, max_page_size }
}

impl PropertyPages {
    /// Assemble pages from an insertion-order [`PageAssignment`] and the
    /// property columns already scattered to flat (page, slot) positions.
    pub fn from_assignment(
        k: usize,
        assignment: &PageAssignment,
        props: Vec<Column>,
    ) -> PropertyPages {
        PropertyPages {
            k,
            page_starts: assignment.page_starts.clone(),
            props,
            max_page_size: assignment.max_page_size,
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n_pages(&self) -> usize {
        self.page_starts.len() - 1
    }

    pub fn n_props(&self) -> usize {
        self.props.len()
    }

    pub fn prop(&self, j: usize) -> &Column {
        &self.props[j]
    }

    /// Flat index of the edge `(src, page_offset)` — the constant-time
    /// opposite-direction access path.
    #[inline]
    pub fn flat_index(&self, src: u64, page_offset: u64) -> u64 {
        self.page_starts[src as usize / self.k] + page_offset
    }

    /// Largest page-level positional offset that can occur (for leading-0
    /// suppression of the stored offsets).
    pub fn max_page_offset(&self) -> u64 {
        self.max_page_size.saturating_sub(1)
    }

    /// Heap bytes held right now (`page_starts` stays resident — it is
    /// the random-access path — while property values may be paged).
    pub fn resident_bytes(&self) -> usize {
        self.page_starts.memory_bytes()
            + self.props.iter().map(Column::resident_data_bytes).sum::<usize>()
            + self.props.iter().map(Column::null_overhead_bytes).sum::<usize>()
    }

    /// Bytes living on disk, faulted through the buffer pool.
    pub fn pageable_bytes(&self) -> usize {
        self.props.iter().map(Column::pageable_bytes).sum()
    }

    /// Encode for the on-disk format: geometry inline, property values as
    /// page segments.
    pub fn encode(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.usize(self.k);
        w.u64(self.max_page_size);
        w.usize(self.page_starts.len());
        for &s in &self.page_starts {
            w.u64(s);
        }
        w.usize(self.props.len());
        for p in &self.props {
            p.encode(w, sink);
        }
    }

    /// Decode a [`PropertyPages::encode`] stream.
    pub fn decode(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<PropertyPages> {
        let k = r.usize()?;
        let max_page_size = r.u64()?;
        let n_starts = r.count()?;
        let mut page_starts = Vec::with_capacity(n_starts);
        for _ in 0..n_starts {
            page_starts.push(r.u64()?);
        }
        if k == 0 || page_starts.is_empty() {
            return Err(gfcl_common::Error::Storage("empty property-page geometry".into()));
        }
        let n = r.count()?;
        let mut props = Vec::with_capacity(n);
        for _ in 0..n {
            props.push(Column::decode(r, src)?);
        }
        Ok(PropertyPages { k, page_starts, props, max_page_size })
    }
}

impl MemoryUsage for PropertyPages {
    fn memory_bytes(&self) -> usize {
        self.page_starts.memory_bytes() + self.props.iter().map(Column::memory_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfcl_columnar::NullKind;
    use gfcl_common::DataType;

    /// 5 source vertices, k = 2 (pages: {v0,v1}, {v2,v3}, {v4}), edges
    /// arriving in interleaved order as in Figure 5.
    fn sample() -> (PageAssignment, PropertyPages, Vec<u64>) {
        let src = vec![0u64, 2, 0, 3, 2, 4, 2, 4];
        let a = assign_insertion_order(2, 5, &src);
        // Property of input edge i is i * 10, scattered to flat positions.
        let mut flat_vals: Vec<Option<i64>> = vec![None; src.len()];
        for (i, &f) in a.flat_of_input.iter().enumerate() {
            flat_vals[f as usize] = Some(i as i64 * 10);
        }
        let col = Column::from_i64(DataType::Int64, &flat_vals, NullKind::Uncompressed);
        let pp = PropertyPages::from_assignment(2, &a, vec![col]);
        (a, pp, src)
    }

    #[test]
    fn page_geometry() {
        let (a, pp, _) = sample();
        assert_eq!(pp.n_pages(), 3);
        assert_eq!(pp.k(), 2);
        // Page 0 holds v0's 2 edges, page 1 holds v2+v3's 4, page 2 v4's 2.
        assert_eq!(a.page_starts, vec![0, 2, 6, 8]);
        assert_eq!(a.max_page_size, 4);
        assert_eq!(pp.max_page_offset(), 3);
    }

    #[test]
    fn slots_interleave_within_a_page() {
        let (a, _, src) = sample();
        // v2 and v3 share page 1; arrival order interleaves their slots.
        let page1_slots: Vec<(u64, u64)> = src
            .iter()
            .zip(&a.slot_of_input)
            .filter(|(&s, _)| s == 2 || s == 3)
            .map(|(&s, &slot)| (s, slot))
            .collect();
        assert_eq!(page1_slots, vec![(2, 0), (3, 1), (2, 2), (2, 3)]);
    }

    #[test]
    fn flat_index_is_constant_time_inverse() {
        let (a, pp, src) = sample();
        for (i, (&s, &slot)) in src.iter().zip(&a.slot_of_input).enumerate() {
            assert_eq!(pp.flat_index(s, slot), a.flat_of_input[i]);
            // Property read through (src, page-offset) recovers the value.
            assert_eq!(pp.prop(0).get_i64(pp.flat_index(s, slot) as usize), Some(i as i64 * 10));
        }
    }

    #[test]
    fn page_offsets_fit_suppressed_width() {
        let (a, pp, _) = sample();
        for &slot in &a.slot_of_input {
            assert!(slot <= pp.max_page_offset());
        }
    }

    #[test]
    fn single_giant_page_is_edge_column_like() {
        let src = vec![0u64, 1, 2, 0];
        let a = assign_insertion_order(1024, 3, &src);
        assert_eq!(a.page_starts, vec![0, 4]);
        // One page: slots are exactly the insertion order.
        assert_eq!(a.slot_of_input, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_label() {
        let a = assign_insertion_order(128, 0, &[]);
        let pp = PropertyPages::from_assignment(128, &a, vec![]);
        assert_eq!(pp.n_pages(), 1);
        assert_eq!(pp.max_page_offset(), 0);
    }
}
