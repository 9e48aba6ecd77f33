//! The [`Engine`] abstraction and the GF-CL engine (columnar storage +
//! list-based processor).
//!
//! All four engines of the evaluation (GF-CL here; GF-RV, GF-CV and the
//! relational baseline in `gfcl-baselines`) execute the same
//! [`LogicalPlan`], so benchmark comparisons isolate storage/processor
//! design, not planning differences.

use std::sync::Arc;

use gfcl_common::{Result, Value};
use gfcl_storage::{Catalog, ColumnarGraph, DeltaSnapshot, GraphSnapshot, GraphView};

use crate::cache::{CachedPlan, PlanCache, PlanCacheStats};
use crate::driver::{self, ExecOptions};
use crate::govern::CancelToken;
use crate::plan::{plan, LogicalPlan};
use crate::query::PatternQuery;

/// The result of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `COUNT(*)`.
    Count(u64),
    /// Materialized projection rows.
    Rows { header: Arc<[String]>, rows: Vec<Vec<Value>> },
    /// A single aggregate value.
    Agg { name: String, value: Value },
}

impl QueryOutput {
    /// Number of result rows (the count itself for `Count`).
    pub fn cardinality(&self) -> u64 {
        match self {
            QueryOutput::Count(n) => *n,
            QueryOutput::Rows { rows, .. } => rows.len() as u64,
            QueryOutput::Agg { .. } => 1,
        }
    }

    /// The count, if this is a `Count` output.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            QueryOutput::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// A canonical, order-insensitive fingerprint used by the cross-engine
    /// equivalence tests: engines may emit rows in different orders.
    pub fn canonical(&self) -> String {
        match self {
            QueryOutput::Count(n) => format!("count:{n}"),
            QueryOutput::Agg { name, value } => format!("agg:{name}={value}"),
            QueryOutput::Rows { header, rows } => {
                let mut lines: Vec<String> = rows
                    .iter()
                    .map(|r| r.iter().map(ToString::to_string).collect::<Vec<_>>().join("|"))
                    .collect();
                lines.sort_unstable();
                format!("rows[{}]:{}", header.join(","), lines.join(";"))
            }
        }
    }
}

/// A query execution engine over some storage layout.
pub trait Engine {
    /// Short name used in benchmark tables ("GF-CL", "GF-RV", ...).
    fn name(&self) -> &'static str;

    /// The catalog queries are planned against.
    fn catalog(&self) -> &Catalog;

    /// Execute a pre-planned logical plan — the one required execution
    /// method. Execution options are a property of the engine, fixed at
    /// construction ([`GfClEngine::with_options`] /
    /// [`GfClEngine::with_snapshot_options`]); engines are cheap to build
    /// (an `Arc` clone), so "the same query under other options" is a
    /// second engine, not a second method.
    fn run_plan(&self, plan: &LogicalPlan) -> Result<QueryOutput>;

    /// Execute a template of this engine's [`plan_cache`](Engine::plan_cache)
    /// with `params`. An engine that compiles plans keeps the entry's
    /// compiled form and scratch between calls; the default runs a
    /// literal-inlined plan with [`run_plan`](Engine::run_plan) and refuses
    /// parameters.
    fn run_cached(&self, entry: &CachedPlan, params: &[Value]) -> Result<QueryOutput> {
        entry.plan().require_literals(self.name(), params)?;
        self.run_plan(entry.plan())
    }

    /// The engine's plan cache, when it keeps one: text queries run through
    /// `gfcl_frontend::run_text` (and so `gfcl::query_on`) then plan once
    /// per template. `None` (the default) means every text query parses,
    /// binds and plans afresh.
    fn plan_cache(&self) -> Option<&PlanCache> {
        None
    }

    /// Plan and execute a query.
    fn execute(&self, q: &PatternQuery) -> Result<QueryOutput> {
        let p = plan(q, self.catalog())?;
        self.run_plan(&p)
    }

    /// Plan a query against this engine's catalog (exposed so benchmarks
    /// can plan once and time `run_plan` alone).
    fn plan(&self, q: &PatternQuery) -> Result<LogicalPlan> {
        plan(q, self.catalog())
    }

    /// Render the plan this engine would execute for `q` as EXPLAIN text:
    /// the chosen extend order and its provenance (statistics, hints, or
    /// declaration order), per-step cardinality estimates when the catalog
    /// carries statistics, and the physical operator each extend compiles
    /// to (`ListExtend` vs `ColumnExtend`, with flatten points).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gfcl_core::{Engine, GfClEngine};
    /// use gfcl_core::query::{col, gt, lit, PatternQuery};
    /// use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};
    ///
    /// let graph = ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap();
    /// let engine = GfClEngine::new(Arc::new(graph));
    /// let q = PatternQuery::builder()
    ///     .node("a", "PERSON")
    ///     .node("b", "ORG")
    ///     .edge("e", "WORKAT", "a", "b")
    ///     .filter(gt(col("a", "age"), lit(22)))
    ///     .returns_count()
    ///     .build();
    /// let text = engine.explain(&q).unwrap();
    /// assert!(text.contains("EXTEND"), "{text}");
    /// assert!(text.contains("order: statistics"), "{text}");
    /// ```
    fn explain(&self, q: &PatternQuery) -> Result<String> {
        let p = plan(q, self.catalog())?;
        Ok(crate::optimize::render_explain(&p, self.catalog()))
    }

    /// The engine's cancellation handle, when it supports cooperative
    /// cancellation: `cancel(CancelReason::User)` from any thread stops
    /// in-flight and future queries at their next morsel boundary with
    /// [`Error::Canceled`](gfcl_common::Error::Canceled); `reset()`
    /// re-arms the engine. `None` (the default) means the engine runs
    /// queries to completion.
    fn cancel_handle(&self) -> Option<Arc<CancelToken>> {
        None
    }
}

/// GF-CL: columnar storage + list-based processor (the paper's system),
/// optionally with morsel-driven intra-query parallelism.
///
/// The engine keeps a [`PlanCache`] for text queries: `gfcl::query_on` on
/// a GF-CL engine looks the query's literal-normalised text up, and a
/// template seen before by the *same engine* runs its stored, verified
/// plan with the call's literals — lexing and execution only. A template
/// is stored only when every comparison literal sits in an equality,
/// `<>` or primary-key position, where the plan cannot depend on its
/// value; a range comparison against a literal plans per call. `LIMIT`,
/// `IN` lists and string patterns stay part of the key. The cache is
/// bounded ([`crate::cache::PLAN_CACHE_CAPACITY`]) and starts empty, so an
/// engine built per query (as `gfcl::query` does) never hits.
pub struct GfClEngine {
    graph: Arc<ColumnarGraph>,
    /// The delta to overlay when the engine executes against a
    /// mutable-store snapshot (an empty one still runs the clean path).
    delta: Option<Arc<DeltaSnapshot>>,
    opts: ExecOptions,
    /// The engine's cancellation handle: shared with every query this
    /// engine runs, handed out by [`Engine::cancel_handle`]. A trip
    /// sticks until [`CancelToken::reset`].
    cancel: Arc<CancelToken>,
    /// Verified plans of the text queries this engine has run.
    cache: PlanCache,
}

impl GfClEngine {
    /// Engine with [`ExecOptions::default`]: serial — the paper's
    /// configuration and bit-identical to the historical executor.
    pub fn new(graph: Arc<ColumnarGraph>) -> Self {
        GfClEngine::with_options(graph, ExecOptions::default())
    }

    /// Engine with explicit execution options.
    pub fn with_options(graph: Arc<ColumnarGraph>, opts: ExecOptions) -> Self {
        GfClEngine {
            graph,
            delta: None,
            opts,
            cancel: Arc::new(CancelToken::new()),
            cache: PlanCache::default(),
        }
    }

    /// Engine over one MVCC snapshot of a mutable [`gfcl_storage::GraphStore`]:
    /// queries observe `(baseline ⊎ delta) ∖ tombstones` as of the
    /// snapshot's epoch, isolated from concurrent writers. Serial, like
    /// [`GfClEngine::new`].
    pub fn with_snapshot(snapshot: &GraphSnapshot) -> Self {
        GfClEngine::with_snapshot_options(snapshot, ExecOptions::default())
    }

    /// [`GfClEngine::with_snapshot`] with explicit execution options.
    pub fn with_snapshot_options(snapshot: &GraphSnapshot, opts: ExecOptions) -> Self {
        GfClEngine {
            graph: Arc::clone(snapshot.base()),
            delta: Some(Arc::clone(snapshot.delta())),
            opts,
            cancel: Arc::new(CancelToken::new()),
            cache: PlanCache::default(),
        }
    }

    pub fn graph(&self) -> &ColumnarGraph {
        &self.graph
    }

    /// The options every `run_plan`/`execute` call uses.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// What the engine's plan cache has done so far.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    fn view(&self) -> GraphView<'_> {
        GraphView::new(&self.graph, self.delta.as_deref())
    }
}

impl Engine for GfClEngine {
    fn name(&self) -> &'static str {
        "GF-CL"
    }

    fn catalog(&self) -> &Catalog {
        self.graph.catalog()
    }

    fn run_plan(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        driver::execute(self.view(), plan, &[], &self.opts, Some(Arc::clone(&self.cancel)))
    }

    fn run_cached(&self, entry: &CachedPlan, params: &[Value]) -> Result<QueryOutput> {
        driver::execute_cached(
            self.view(),
            entry,
            params,
            &self.opts,
            Some(Arc::clone(&self.cancel)),
        )
    }

    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.cache)
    }

    fn cancel_handle(&self) -> Option<Arc<CancelToken>> {
        Some(Arc::clone(&self.cancel))
    }
}
