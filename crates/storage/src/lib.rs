//! Graph storage for the `gfcl` graph DBMS: the paper's columnar layout
//! (Section 4) and the row-oriented GF-RV baseline it is compared against.
//!
//! Layered as:
//!
//! * [`catalog`] — labels, structured properties, cardinality constraints,
//!   plus the build-time [`stats`] the join orderer consumes;
//! * [`raw`] — the storage-agnostic [`RawGraph`] interchange format;
//! * [`csr`] / [`edge_prop_pages`] / [`single_card`] / [`edge_store`] — the
//!   columnar
//!   building blocks: factored-ID CSRs, single-indexed property pages,
//!   vertex-column single-cardinality edges, and the edge-property design
//!   space;
//! * [`columnar_graph`] — the assembled [`ColumnarGraph`], configurable
//!   through [`StorageConfig`] to reproduce every ablation in the paper,
//!   and the [`ReadCursors`] every reader of it — each engine's operators,
//!   the delta store, merge — walks its pages through;
//! * [`row_graph`] — the interpreted-attribute-layout [`RowGraph`] (GF-RV);
//! * [`store`] — the mutable [`GraphStore`] (baseline + [`delta`] store +
//!   [`wal`], epoch snapshots, merge) and the one read-side overlay:
//!   [`GraphView`], generic over the positional [`BaselineRead`] trait both
//!   graph layouts implement, is the single implementation of
//!   `(baseline ⊎ delta) ∖ tombstones` every engine and `merge()` read;
//! * [`mod@format`] / [`buffer_pool`] — the single-file on-disk format and the
//!   [`BufferPool`] a reopened graph faults its value pages through (an
//!   indexed frame table under clock eviction);
//! * [`mutation`] — the [`OffsetRecycler`] free-list the delta store keeps
//!   its slot space dense with (Section 7's gap recycling);
//! * [`persistent`] — the structurally shared [`PMap`] / [`PVec`] the delta
//!   store keeps its state in, so a commit copies only what it writes.

pub mod buffer_pool;
pub mod catalog;
pub mod chaos;
pub mod columnar_graph;
pub mod config;
pub mod csr;
pub mod delta;
pub mod edge_prop_pages;
pub mod edge_store;
pub mod format;
pub mod mutation;
pub mod persistent;
pub mod raw;
pub mod row_graph;
pub mod single_card;
pub mod stats;
pub mod store;
pub mod wal;

pub use buffer_pool::{BufferPool, PageFile, PoolStats, DEFAULT_POOL_PAGES, MAX_READ_ATTEMPTS};
pub use catalog::{Cardinality, Catalog, EdgeLabelDef, PropertyDef, VertexLabelDef};
pub use chaos::{FailingStore, FaultConfig};
pub use columnar_graph::{
    AdjIndex, ColumnarGraph, EdgeLabelParts, EdgePropRead, MemoryBreakdown, ReadCursors,
    VertexLabelParts,
};
pub use config::{EdgePropLayout, StorageConfig};
pub use csr::{Csr, CsrOptions};
pub use delta::{DeltaEdge, DeltaSnapshot, DeltaStore, EdgeTarget, ResolvedOp, StrExt};
pub use edge_prop_pages::PropertyPages;
pub use edge_store::EdgePropStore;
pub use mutation::OffsetRecycler;
pub use persistent::{PMap, PVec};
pub use raw::{EdgeTable, PropData, RawGraph, VertexTable};
pub use row_graph::{PropEntry, RowCsr, RowGraph};
pub use single_card::SingleCardAdj;
pub use stats::{EdgeLabelStats, PropStats, Stats, VertexLabelStats};
pub use store::{merged_raw, BaselineRead, GraphSnapshot, GraphStore, GraphView, WriteTxn};

// Storage is read-only at query time and shared by reference across the
// morsel-driven workers of the list-based processor, so every query-facing
// structure must stay `Send + Sync` (no interior mutability). These
// assertions turn a regression into a compile error at the crate boundary.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<ColumnarGraph>();
    assert_send_sync::<Csr>();
    assert_send_sync::<PropertyPages>();
    assert_send_sync::<SingleCardAdj>();
    assert_send_sync::<EdgePropStore>();
    assert_send_sync::<AdjIndex>();
    assert_send_sync::<RowGraph>();
    assert_send_sync::<StorageConfig>();
    assert_send_sync::<EdgePropRead<'_>>();
    assert_send_sync::<Stats>();
    assert_send_sync::<BufferPool>();
    assert_send_sync::<FailingStore>();
    assert_send_sync::<DeltaStore>();
    assert_send_sync::<GraphStore>();
    assert_send_sync::<GraphSnapshot>();
    assert_send_sync::<GraphView<'_>>();
};
