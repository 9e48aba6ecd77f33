//! The list-based processor: physical operators and plan compilation
//! (Section 6.2).
//!
//! This module owns the *static* half of execution: compiling a
//! [`LogicalPlan`](crate::plan::LogicalPlan) into a `Layout` once and
//! binding that into a `Pipeline` of physical operators plus the
//! intermediate [`Chunk`] they fill, per call, and the sinks a pipeline
//! drains into. The *dynamic* half — driving one or more pipelines to
//! completion and merging their sinks — lives in [`crate::driver`], which
//! binds one `Pipeline` per worker thread from the same layout
//! (morsel-driven parallelism).
//!
//! Operators pull chunk *states* from their child: each state is one
//! configuration of the intermediate chunk's list groups (flattened
//! positions + filled blocks) representing a set of tuples. Each operator
//! is a struct in its own file with one `next` — `scan` (morsels claimed
//! from the shared [`ScanCursor`]), `extend`, `read` (property blocks),
//! `filter` — and one short `pull` is the only place a state passes from
//! an operator to the one above it. `sink` holds what a pipeline drains
//! into, `compile` turns a plan into a layout and a layout into a pipeline.

mod compile;
mod cursor;
mod extend;
mod filter;
mod read;
mod scan;
mod sink;

use gfcl_common::Result;
use gfcl_storage::GraphView;

use crate::chunk::{Chunk, VecRef};
use crate::pred::SlotCol;

pub(crate) use compile::Layout;
pub use cursor::{check_morsel_bounds, ScanCursor, SCAN_MORSEL};
pub(crate) use sink::Sink;

/// A physical operator. `ops[i]`'s child is `ops[i-1]`; `ops[0]` is a scan.
enum Op<'g> {
    ScanAll(scan::ScanAll<'g>),
    ScanPk(scan::ScanPk<'g>),
    ListExtend(extend::ListExtend),
    ColumnExtend(extend::ColumnExtend),
    ReadNodeProp(read::ReadNodeProp<'g>),
    ReadEdgeProp(read::ReadEdgeProp<'g>),
    Filter(filter::Filter),
}

/// Pull the next chunk state through `ops`: the last operator's `next`,
/// handed a `child` that pulls the rest. This is the one place a chunk
/// state passes from `ops[i]` to `ops[i + 1]`. `false` = drained.
fn pull(ops: &mut [Op<'_>], view: GraphView<'_>, chunk: &mut Chunk) -> Result<bool> {
    // lint: allow(compile() always emits a scan as ops[0]; the plan
    // verifier's scan-first rule rejects scanless plans before compilation)
    let (op, children) = ops.split_last_mut().expect("pipeline has at least a scan");
    let child = |chunk: &mut Chunk| pull(children, view, chunk);
    match op {
        Op::ScanAll(op) => op.next(view, chunk),
        Op::ScanPk(op) => op.next(view, chunk),
        Op::ListExtend(op) => op.next(view, chunk, child),
        Op::ColumnExtend(op) => op.next(view, chunk, child),
        Op::ReadNodeProp(op) => op.next(view, chunk, child),
        Op::ReadEdgeProp(op) => op.next(view, chunk, child),
        Op::Filter(op) => op.next(chunk, child),
    }
}

/// One bound operator pipeline plus the chunk it fills: the thread-
/// private execution state of one worker. Any number of pipelines can be
/// bound from the same [`Layout`]; pipelines sharing a [`ScanCursor`]
/// partition the scan between them.
pub(crate) struct Pipeline<'g> {
    ops: Vec<Op<'g>>,
    chunk: Chunk,
    /// Where each slot lives and which operator reads it.
    layout: &'g Layout,
}

impl<'g> Pipeline<'g> {
    /// Pull the next chunk state through the pipeline. `false` = drained.
    pub(crate) fn next_state(&mut self, view: GraphView<'_>) -> Result<bool> {
        pull(&mut self.ops, view, &mut self.chunk)
    }

    /// Where plan slot `s` lives in the chunk, and the storage column (and
    /// any delta string extension) its operator reads: the sinks decode
    /// dictionary codes through it.
    fn slot(&self, s: usize) -> (VecRef, SlotCol<'g>) {
        (self.layout.slot_refs[s], compile::slot_col(&self.ops, self.layout.slot_ops[s]))
    }

    /// The chunk the pipeline filled, as the last state left it.
    pub(crate) fn into_chunk(self) -> Chunk {
        self.chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanStep;

    #[test]
    fn operators_stay_small() {
        // 160 bytes is what an operator took before operators carried page
        // cursors. `Layout::bind` allocates `len * size_of::<Op>()` per query:
        // a microsecond point read must not pay for paged-read state.
        assert!(std::mem::size_of::<Op<'_>>() <= 160, "{}", std::mem::size_of::<Op<'_>>());
    }

    /// `N` vertices `0..8` and `L` edges chosen so that the 2-hop from
    /// `a` is non-empty for exactly `a = 0` (`b = 1, 2`: lists of 1 and 2)
    /// and `a = 2` (`b = 3, 4`: lists of 0 and 1); `a = 1, 4, 6` have a
    /// 1-hop whose lists are all empty.
    fn chain_graph() -> gfcl_storage::ColumnarGraph {
        use gfcl_common::DataType;
        use gfcl_storage::{Cardinality, Catalog, PropertyDef, RawGraph, StorageConfig};
        let mut cat = Catalog::new();
        let n = cat.add_vertex_label("N", vec![PropertyDef::new("id", DataType::Int64)]).unwrap();
        let l = cat.add_edge_label("L", n, n, Cardinality::ManyMany, vec![]).unwrap();
        let mut raw = RawGraph::new(cat);
        let t = &mut raw.vertices[n as usize];
        t.count = 8;
        for id in 0..8 {
            t.props[0].push_i64(id);
        }
        let e = &mut raw.edges[l as usize];
        for (src, dst) in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 5), (6, 5)] {
            e.src.push(src);
            e.dst.push(dst);
        }
        gfcl_storage::ColumnarGraph::build(&raw, StorageConfig::default()).unwrap()
    }

    /// `(number of chunk states, COUNT(*))` of a `hops`-hop count from `v0`
    /// over [`chain_graph`], scanned in morsels of `morsel` vertices.
    fn count_states(hops: usize, morsel: u64) -> (usize, u64) {
        let g = chain_graph();
        let mut b = crate::query::PatternQuery::builder();
        for i in 0..=hops {
            b = b.node(&format!("v{i}"), "N");
        }
        for i in 0..hops {
            b = b.edge(&format!("e{i}"), "L", &format!("v{i}"), &format!("v{}", i + 1));
        }
        let q = b.start_at("v0").edge_order((0..hops).collect()).returns_count().build();
        let plan = crate::plan::plan(&q, g.catalog()).unwrap();
        let counted = |s: &PlanStep| matches!(s, PlanStep::Extend { counted: true, .. });
        assert!(counted(plan.steps.last().unwrap()), "the tail extend is counted");
        let view = GraphView::clean(&g);
        let cursor = ScanCursor::for_plan_view(view, &plan, morsel).unwrap();
        let (layout, chunk) = Layout::new(&plan).unwrap();
        let mut pipe = layout.bind(view, &plan, &cursor, &[], chunk).unwrap();
        let (mut states, mut count) = (0, 0);
        while pipe.next_state(view).unwrap() {
            states += 1;
            count += pipe.chunk.tuple_count();
        }
        (states, count)
    }

    #[test]
    fn counted_extends_emit_one_state_per_child_state() {
        // 2-hop: one state per `a` with a non-empty 2-hop (0 and 2), not
        // one per `(a, b)` edge (7).
        assert_eq!(count_states(2, SCAN_MORSEL as u64), (2, 4));
        // 1-hop: one state per scan morsel holding an edge.
        assert_eq!(count_states(1, 3), (3, 7));
        assert_eq!(count_states(1, SCAN_MORSEL as u64), (1, 7));
    }

    #[test]
    fn cursor_hands_out_serial_morsel_sequence() {
        let c = ScanCursor::new(2500);
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((0, 1024)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((1024, 2048)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((2048, 2500)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), None);
        assert_eq!(c.claim(SCAN_MORSEL as u64), None, "stays drained");
    }

    #[test]
    fn cursor_partitions_exactly_under_concurrency() {
        let total = 10_000u64;
        let c = ScanCursor::new(total);
        let ranges: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(r) = c.claim(64) {
                            got.push(r);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut ranges = ranges;
        ranges.sort_unstable();
        // Disjoint, gap-free cover of [0, total).
        let mut expect = 0;
        for (s, e) in ranges {
            assert_eq!(s, expect);
            check_morsel_bounds(s, e, total).unwrap();
            expect = e;
        }
        assert_eq!(expect, total);
    }

    #[test]
    fn single_morsel_cursor_fires_once() {
        let c = ScanCursor::new(1);
        assert_eq!(c.claim(1), Some((0, 1)));
        assert_eq!(c.claim(1), None);
    }
}
