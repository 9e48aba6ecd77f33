//! GF-CV: columnar storage with a Volcano-style tuple-at-a-time processor
//! (Section 8.6's ablation point, isolating processor gains from storage
//! gains).

use std::sync::Arc;

use gfcl_common::Result;
use gfcl_core::engine::{Engine, QueryOutput};
use gfcl_core::plan::LogicalPlan;
use gfcl_storage::{Catalog, ColumnarGraph, DeltaSnapshot, GraphSnapshot, GraphView};

use crate::{in_fault_domain, volcano};

/// GF-CV: Columnar storage, Volcano-style processor.
pub struct GfCvEngine {
    graph: Arc<ColumnarGraph>,
    /// The delta to overlay when executing against a mutable-store snapshot.
    delta: Option<Arc<DeltaSnapshot>>,
}

impl GfCvEngine {
    pub fn new(graph: Arc<ColumnarGraph>) -> Self {
        GfCvEngine { graph, delta: None }
    }

    /// Engine over one MVCC snapshot of a mutable `GraphStore`: queries
    /// observe `(baseline ⊎ delta) ∖ tombstones` as of the snapshot epoch.
    pub fn with_snapshot(snapshot: &GraphSnapshot) -> Self {
        GfCvEngine { graph: Arc::clone(snapshot.base()), delta: Some(Arc::clone(snapshot.delta())) }
    }

    pub fn graph(&self) -> &ColumnarGraph {
        &self.graph
    }
}

impl Engine for GfCvEngine {
    fn name(&self) -> &'static str {
        "GF-CV"
    }

    fn catalog(&self) -> &Catalog {
        self.graph.catalog()
    }

    fn run_plan(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let view = GraphView::new(&*self.graph, self.delta.as_deref());
        in_fault_domain(|| volcano::execute(view, plan))
    }
}
