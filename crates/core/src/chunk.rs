//! Intermediate-result representation of the list-based processor
//! (Section 6.1, Figure 9): [`ValueVector`]s grouped into [`ListGroup`]s,
//! grouped into an intermediate [`Chunk`].
//!
//! A chunk represents a set of intermediate tuples as the Cartesian product
//! of its list groups. Each group is either **unflat** (`cur_idx == -1`),
//! representing as many tuples as its block length, or **flat**
//! (`cur_idx >= 0`), representing the single tuple at `cur_idx`. Blocks are
//! *variable-length* — sized to the adjacency list they came from — and
//! node blocks produced by `ListExtend` are zero-copy [`NodeData::AdjView`]
//! descriptors pointing into CSR storage rather than materialized copies
//! (LBP advantage (ii) in Section 6).

use gfcl_columnar::PageCursor;
use gfcl_common::{Direction, LabelId};
use gfcl_storage::ColumnarGraph;

/// Node-offset block: owned values, a scan morsel's contiguous offset run,
/// or a zero-copy view into an adjacency list in the CSR.
#[derive(Debug, Clone)]
pub enum NodeData {
    Owned(Vec<u64>),
    /// `len` consecutive offsets from `start`: a scan morsel. Nothing is
    /// materialized, and a property read over it is one range read.
    Range {
        start: u64,
    },
    /// `len` elements starting at CSR position `start` of `(label, dir)`.
    AdjView {
        label: LabelId,
        dir: Direction,
        start: u64,
    },
}

/// A block of values, all of the same logical length as the containing
/// [`ListGroup`].
#[derive(Debug, Clone)]
pub enum ValueVector {
    /// Placeholder before the first fill.
    Empty,
    /// Vertex offsets of `label`.
    Node {
        label: LabelId,
        data: NodeData,
    },
    /// The edges of one adjacency list: `(label, dir)` CSR positions
    /// `start..start+len`, traversed from vertex `from`. Zero-copy: only
    /// the descriptor is stored.
    EdgeList {
        label: LabelId,
        dir: Direction,
        from: u64,
        start: u64,
    },
    /// Edges of one adjacency list under a mutated snapshot: tagged
    /// references (baseline CSR position or delta-edge index, see
    /// `gfcl_storage::store`) materialized by the merge, traversed from
    /// vertex `from`.
    EdgeRefs {
        label: LabelId,
        dir: Direction,
        from: u64,
        refs: Vec<u64>,
    },
    /// Edges bound by a `ColumnExtend` (single-cardinality): the edge at
    /// position `i` is identified by the vertex at `from_vec[i]` (and its
    /// neighbour at `nbr_vec[i]`). Under a mutated snapshot `tags[i]`
    /// carries the tagged edge reference instead (`None` on the clean
    /// zero-copy path).
    SingleEdge {
        label: LabelId,
        dir: Direction,
        from_vec: usize,
        nbr_vec: usize,
        tags: Option<Vec<u64>>,
    },
    /// Int64/Date property values.
    I64 {
        vals: Vec<i64>,
        valid: Vec<bool>,
        date: bool,
    },
    F64 {
        vals: Vec<f64>,
        valid: Vec<bool>,
    },
    Bool {
        vals: Vec<bool>,
        valid: Vec<bool>,
    },
    /// Dictionary codes of a string property. Strings stay compressed
    /// through the whole pipeline — predicates probe code bitmaps, and the
    /// sink decodes only returned values (late materialization).
    Code {
        vals: Vec<u64>,
        valid: Vec<bool>,
    },
}

impl ValueVector {
    /// Vertex offset at position `i` (Node vectors only). An adjacency
    /// view reads the CSR's neighbour array through the caller's cursor,
    /// so stepping one list costs one page pin, not one per position.
    #[inline]
    pub fn node_offset(&self, g: &ColumnarGraph, cur: &mut PageCursor, i: usize) -> u64 {
        match self {
            ValueVector::Node { data: NodeData::Owned(v), .. } => v[i],
            ValueVector::Node { data: NodeData::Range { start }, .. } => start + i as u64,
            ValueVector::Node { data: NodeData::AdjView { label, dir, start }, .. } => g
                .adj(*label, *dir)
                .as_csr()
                .expect("adj view over CSR")
                .nbr_at_with(cur, start + i as u64),
            _ => panic!("node_offset on non-node vector"),
        }
    }
}

/// A factorized group of equal-length blocks plus flattening state and a
/// selection mask.
#[derive(Debug, Clone)]
pub struct ListGroup {
    pub vectors: Vec<ValueVector>,
    /// Logical length of all blocks in this group.
    pub len: usize,
    /// `-1` = unflat (the group represents `len` tuples); `>= 0` = flat
    /// (the single tuple at this position).
    pub cur_idx: i64,
    /// Selection mask (`None` = all selected).
    pub sel: Option<Vec<bool>>,
    /// Number of selected positions.
    pub sel_count: usize,
    /// The buffer of the last mask [`ListGroup::reset`] cleared, reused by
    /// the next one, so a group selects without allocating once it has.
    spare_sel: Vec<bool>,
}

impl ListGroup {
    /// A group with `n_vectors` placeholder blocks.
    pub fn new(n_vectors: usize) -> ListGroup {
        ListGroup::with_vectors((0..n_vectors).map(|_| ValueVector::Empty).collect())
    }

    /// An empty, unflat group over these blocks.
    pub fn with_vectors(vectors: Vec<ValueVector>) -> ListGroup {
        ListGroup { vectors, len: 0, cur_idx: -1, sel: None, sel_count: 0, spare_sel: Vec::new() }
    }

    /// Reset for a new fill of length `len`: unflat, all selected.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.cur_idx = -1;
        if let Some(mask) = self.sel.take() {
            self.spare_sel = mask;
        }
        self.sel_count = len;
    }

    /// The spare mask buffer, emptied.
    fn spare_mask(&mut self) -> Vec<bool> {
        let mut mask = std::mem::take(&mut self.spare_sel);
        mask.clear();
        mask
    }

    pub fn is_flat(&self) -> bool {
        self.cur_idx >= 0
    }

    /// Is position `i` selected?
    #[inline]
    pub fn selected(&self, i: usize) -> bool {
        match &self.sel {
            Some(m) => m[i],
            None => true,
        }
    }

    /// Number of tuples this group contributes to the factorized product:
    /// 1 when flat, `sel_count` when unflat.
    #[inline]
    pub fn contribution(&self) -> u64 {
        if self.is_flat() {
            1
        } else {
            self.sel_count as u64
        }
    }

    /// AND a freshly computed mask into the selection.
    pub fn and_mask(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len);
        match &mut self.sel {
            Some(sel) => {
                let mut count = 0;
                for (s, &m) in sel.iter_mut().zip(mask) {
                    *s = *s && m;
                    count += *s as usize;
                }
                self.sel_count = count;
            }
            None => {
                let mut sel = self.spare_mask();
                sel.extend_from_slice(mask);
                self.sel = Some(sel);
                self.sel_count = mask.iter().filter(|&&b| b).count();
            }
        }
    }

    /// Unselect a single position.
    pub fn unselect(&mut self, i: usize) {
        if self.sel.is_none() {
            let mut all = self.spare_mask();
            all.resize(self.len, true);
            self.sel = Some(all);
        }
        let Some(sel) = &mut self.sel else { return };
        if sel[i] {
            sel[i] = false;
            self.sel_count -= 1;
        }
    }

    /// Iterate selected positions.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.selected(i))
    }
}

/// The intermediate chunk: an ordered set of list groups whose Cartesian
/// product is the current set of intermediate tuples.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    pub groups: Vec<ListGroup>,
    /// Sequence number of the scan morsel the current state descends from
    /// (bumped by the scan on every claim). Operators compare it with the
    /// one they last saw to drop their page cursors at morsel boundaries.
    pub morsel: u64,
}

impl Chunk {
    /// Number of tuples currently represented: the product of group
    /// contributions (the `count(*)` fast path of Section 6.2), saturating
    /// at `u64::MAX` as `COUNT(*)` itself does.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count_excluding(usize::MAX)
    }

    /// Empty this chunk for another run of the same plan: every group
    /// unflat, with no tuples and no selection, and the morsel sequence
    /// restarted — the state of a fresh chunk of its layout. The vectors
    /// stay, so the next run refills their buffers in place; only the tags
    /// a `ColumnExtend` records on a mutated snapshot go, as a fresh chunk
    /// has none.
    pub fn recycle(&mut self) {
        self.morsel = 0;
        for g in &mut self.groups {
            g.reset(0);
            for v in &mut g.vectors {
                if let ValueVector::SingleEdge { tags, .. } = v {
                    *tags = None;
                }
            }
        }
    }

    /// Saturating product of contributions of all groups except `skip`.
    pub fn tuple_count_excluding(&self, skip: usize) -> u64 {
        self.groups
            .iter()
            .enumerate()
            .filter(|(g, _)| *g != skip)
            .fold(1, |n, (_, lg)| n.saturating_mul(lg.contribution()))
    }
}

/// Location of a block: `(group index, vector index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecRef {
    pub group: usize,
    pub vec: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribution_flat_vs_unflat() {
        let mut g = ListGroup::new(1);
        g.reset(10);
        assert_eq!(g.contribution(), 10);
        g.cur_idx = 3;
        assert_eq!(g.contribution(), 1);
        assert!(g.is_flat());
    }

    #[test]
    fn masks_and_together() {
        let mut g = ListGroup::new(1);
        g.reset(4);
        g.and_mask(&[true, true, false, true]);
        assert_eq!(g.sel_count, 3);
        g.and_mask(&[true, false, true, true]);
        assert_eq!(g.sel_count, 2);
        let sel: Vec<usize> = g.iter_selected().collect();
        assert_eq!(sel, vec![0, 3]);
        g.unselect(0);
        assert_eq!(g.sel_count, 1);
        g.unselect(0); // idempotent
        assert_eq!(g.sel_count, 1);
    }

    #[test]
    fn chunk_tuple_count_is_product() {
        let mut c = Chunk { groups: vec![ListGroup::new(1); 3], morsel: 0 };
        c.groups[0].reset(5);
        c.groups[1].reset(3);
        c.groups[2].reset(7);
        assert_eq!(c.tuple_count(), 105);
        c.groups[1].cur_idx = 0; // flatten
        assert_eq!(c.tuple_count(), 35);
        c.groups[2].and_mask(&[true, false, true, false, true, false, true]);
        assert_eq!(c.tuple_count(), 20);
        assert_eq!(c.tuple_count_excluding(2), 5);
    }

    #[test]
    fn reset_clears_mask_and_flattening() {
        let mut g = ListGroup::new(2);
        g.reset(4);
        g.and_mask(&[false, false, true, true]);
        g.cur_idx = 2;
        g.reset(6);
        assert!(!g.is_flat());
        assert_eq!(g.sel_count, 6);
        assert!(g.sel.is_none());
    }
}
