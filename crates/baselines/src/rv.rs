//! GF-RV: the row-oriented Volcano engine the paper starts from
//! (interpreted attribute layout + 8-byte IDs + tuple-at-a-time).

use std::sync::Arc;

use gfcl_common::Result;
use gfcl_core::engine::{Engine, QueryOutput};
use gfcl_core::plan::LogicalPlan;
use gfcl_storage::{Catalog, DeltaSnapshot, GraphSnapshot, GraphView, RowGraph};

use crate::{in_fault_domain, volcano};

/// GF-RV: Row-oriented storage, Volcano-style processor.
pub struct GfRvEngine {
    graph: Arc<RowGraph>,
    /// The delta to overlay when executing against a mutable-store snapshot.
    delta: Option<Arc<DeltaSnapshot>>,
}

impl GfRvEngine {
    pub fn new(graph: Arc<RowGraph>) -> Self {
        GfRvEngine { graph, delta: None }
    }

    /// Engine over one MVCC snapshot of a mutable `GraphStore`. The row
    /// graph must be built from the snapshot's *baseline* `RawGraph`: its
    /// per-label vertex offsets then agree with the columnar baseline the
    /// delta was recorded against, so the overlay applies unchanged.
    pub fn with_snapshot(graph: Arc<RowGraph>, snapshot: &GraphSnapshot) -> Self {
        GfRvEngine { graph, delta: Some(Arc::clone(snapshot.delta())) }
    }

    pub fn graph(&self) -> &RowGraph {
        &self.graph
    }
}

impl Engine for GfRvEngine {
    fn name(&self) -> &'static str {
        "GF-RV"
    }

    fn catalog(&self) -> &Catalog {
        self.graph.catalog()
    }

    fn run_plan(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let view = GraphView::new(&*self.graph, self.delta.as_deref());
        in_fault_domain(|| volcano::execute(view, plan))
    }
}
