//! # gfcl — Columnar Storage and List-based Processing for Graph DBMSs
//!
//! A Rust reproduction of Gupta, Mhedhbi & Salihoglu, *"Columnar Storage
//! and List-based Processing for Graph Database Management Systems"*
//! (PVLDB 14(11), 2021) — the GraphflowDB columnar techniques that later
//! became the foundation of Kùzu.
//!
//! The library is an in-memory property-graph DBMS with four interchangeable
//! engines over two storage layouts:
//!
//! | Engine | Storage | Processor |
//! |--------|---------|-----------|
//! | [`GfClEngine`] | columnar | list-based processor (the paper's system) |
//! | [`GfCvEngine`] | columnar | Volcano tuple-at-a-time |
//! | [`GfRvEngine`] | row-oriented | Volcano tuple-at-a-time |
//! | [`RelEngine`]  | columnar tables | block-based hash joins |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{ColumnarGraph, Engine, GfClEngine, RawGraph, StorageConfig};
//! use gfcl::query::{col, gt, lit, lt, PatternQuery};
//!
//! // The paper's Figure 1 running example graph.
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//! let engine = GfClEngine::new(graph);
//!
//! // Example 1 of the paper:
//! // MATCH (a:PERSON)-[e:WORKAT]->(b:ORG)
//! // WHERE a.age > 22 AND b.estd < 2015 RETURN *
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "ORG")
//!     .edge("e", "WORKAT", "a", "b")
//!     .filter(gt(col("a", "age"), lit(22)))
//!     .filter(lt(col("b", "estd"), lit(2015)))
//!     .returns(&[("a", "name"), ("b", "name")])
//!     .build();
//! let out = engine.execute(&q).unwrap();
//! assert_eq!(out.cardinality(), 2); // alice->UW, bob->UofT
//! ```
//!
//! ## Query planning and EXPLAIN
//!
//! Storage builds collect [`storage::Stats`] (counts, degrees,
//! per-property NDV/min/max) into the catalog; with statistics present the
//! planner picks the join order by cost instead of declaration order, and
//! [`Engine::explain`] shows the decision:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{ColumnarGraph, Engine, GfClEngine, RawGraph, StorageConfig};
//! use gfcl::query::{col, eq, lit, PatternQuery};
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//! let engine = GfClEngine::new(graph);
//!
//! // A 2-hop chain with a selective filter on the far end: the optimizer
//! // starts there and traverses backward.
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "PERSON")
//!     .node("c", "PERSON")
//!     .edge("e1", "FOLLOWS", "a", "b")
//!     .edge("e2", "FOLLOWS", "b", "c")
//!     .filter(eq(col("c", "age"), lit(17)))
//!     .returns_count()
//!     .build();
//! let text = engine.explain(&q).unwrap();
//! assert!(text.contains("order: statistics"));
//! assert!(text.contains("SCAN      (c:PERSON)"), "{text}");
//! assert!(text.contains("[ListExtend"), "{text}");
//! assert!(text.contains("est ~"), "{text}");
//! ```
//!
//! ## Aggregation & top-k
//!
//! Grouped aggregates (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`, plus
//! `COUNT(DISTINCT)`), `ORDER BY`, `LIMIT`, and `DISTINCT` run directly on
//! the factorized intermediate result: only the grouping keys are ever
//! flattened, and aggregates over unflat adjacency lists fold by
//! multiplicity without enumerating tuples (see `ARCHITECTURE.md`,
//! "The aggregation pipeline"). Grouped and top-k outputs are canonically
//! ordered, so results are byte-identical across engines and worker counts:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{Agg, ColumnarGraph, Engine, GfClEngine, QueryOutput, RawGraph, SortDir,
//!            StorageConfig};
//! use gfcl::query::PatternQuery;
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//! let engine = GfClEngine::new(graph);
//!
//! // Who follows the most people?
//! // MATCH (a:PERSON)-[e:FOLLOWS]->(b:PERSON)
//! // RETURN a.name, COUNT(*), MAX(e.since), COUNT(DISTINCT b.gender)
//! // ORDER BY COUNT(*) DESC LIMIT 2
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "PERSON")
//!     .edge("e", "FOLLOWS", "a", "b")
//!     .group_by(&[("a", "name")])
//!     .returns_agg(vec![Agg::count_star(), Agg::max("e", "since"),
//!                       Agg::count_distinct("b", "gender")])
//!     .order_by(1, SortDir::Desc)
//!     .limit(2)
//!     .build();
//! let QueryOutput::Rows { header, rows } = engine.execute(&q).unwrap() else { panic!() };
//! assert_eq!(&header[..], ["a.name", "count(*)", "max(e.since)", "count(distinct b.gender)"]);
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0][0], gfcl::Value::String("peter".into())); // 3 followees
//! assert_eq!(rows[0][1], gfcl::Value::Int64(3));
//! ```
//!
//! ## Filter pushdown
//!
//! Filter conjuncts over the scanned node's properties are pushed down
//! into the scan itself, which evaluates them over the vertex-property
//! columns a block at a time — skipping whole 1024-value blocks via
//! per-block zone maps (min/max synopses) — and the surviving selection
//! mask makes every later property read over the scan group
//! selection-aware. `EXPLAIN` shows the pushed predicates and the
//! estimated block-skip ratio; [`plan::PlanOptions::no_pushdown`] plans
//! the same query without the rewrite:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{ColumnarGraph, Engine, GfClEngine, RawGraph, StorageConfig};
//! use gfcl::query::{col, ge, lit, PatternQuery};
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//! let engine = GfClEngine::new(graph);
//!
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "PERSON")
//!     .edge("e", "FOLLOWS", "a", "b")
//!     .filter(ge(col("a", "age"), lit(45)))
//!     .returns_count()
//!     .build();
//! let text = engine.explain(&q).unwrap();
//! assert!(text.contains("pushed: a.age >= 45"), "{text}");
//! assert!(text.contains("est zone-skip ~"), "{text}");
//! // The filter runs inside the scan: no FILTER step remains.
//! assert!(!text.contains("FILTER"), "{text}");
//! ```
//!
//! ## Persistence
//!
//! A built graph persists to a single-file page-addressed format
//! ([`ColumnarGraph::save`]) and reopens behind a buffer pool
//! ([`ColumnarGraph::open`]) whose capacity is set by
//! [`StorageConfig::buffer_pool_pages`] ([`Config::buffer_pool_pages`]
//! parses it from `GFCL_BUFFER_MB`). Reopened value arrays stay on disk and
//! fault 64 KiB pages in on demand — a pool smaller than the graph still
//! answers every query identically, just with eviction traffic:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{ColumnarGraph, Engine, GfClEngine, RawGraph, StorageConfig};
//! use gfcl::query::{col, ge, lit, PatternQuery};
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//!
//! // Persist, then reopen cold through a deliberately tiny 2-page pool.
//! let path = std::env::temp_dir().join(format!("gfcl_doc_{}.gfcl", std::process::id()));
//! graph.save(&path).unwrap();
//! let config = StorageConfig { buffer_pool_pages: 2, ..StorageConfig::default() };
//! let reopened = Arc::new(ColumnarGraph::open(&path, config).unwrap());
//!
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "PERSON")
//!     .edge("e", "FOLLOWS", "a", "b")
//!     .filter(ge(col("a", "age"), lit(30)))
//!     .returns(&[("a", "name"), ("b", "name")])
//!     .build();
//! let in_mem = GfClEngine::new(Arc::clone(&graph)).execute(&q).unwrap();
//! let from_disk = GfClEngine::new(Arc::clone(&reopened)).execute(&q).unwrap();
//! assert_eq!(in_mem, from_disk);
//!
//! // The memory accounting distinguishes the tiers: value arrays are
//! // pageable after a reopen, and the pool faulted pages to answer.
//! let m = reopened.memory_breakdown();
//! assert!(m.pageable > 0);
//! assert_eq!(m.resident + m.pageable, m.total());
//! let pool = reopened.buffer_pool().unwrap();
//! assert!(pool.stats().faults > 0);
//! # std::fs::remove_file(&path).unwrap();
//! ```
//!
//! Malformed files — wrong magic, truncation, a corrupted page or metadata
//! checksum — fail [`ColumnarGraph::open`] with a clean
//! [`Error::Storage`](Error), never a panic. `EXPLAIN` on a pushed scan
//! additionally reports `~N pages read`, the optimizer's I/O estimate after
//! zone-map skipping. See `ARCHITECTURE.md`, "On-disk format & buffer pool".
//!
//! ## Writing to a graph
//!
//! A [`GraphStore`] makes a graph mutable behind snapshot-isolated reads:
//! writers buffer inserts/updates/deletes in a WAL-backed delta store, each
//! commit publishes a new epoch, and every query pins one [`GraphSnapshot`]
//! for its whole run — concurrent writers never disturb it. All four
//! engines accept a snapshot (`with_snapshot`) and observe the identical
//! merged view `(baseline ⊎ delta) ∖ tombstones`:
//!
//! ```
//! use gfcl::{Engine, GfClEngine, GraphStore, RawGraph, StorageConfig, Value};
//!
//! // Primary keys address vertices in mutations; `age` is unique here.
//! let mut raw = RawGraph::example();
//! raw.catalog.set_primary_key(0, "age").unwrap();
//! let store = GraphStore::in_memory(&raw, StorageConfig::default()).unwrap();
//! let before = store.snapshot(); // pinned: sees the unmutated graph forever
//!
//! // Single-writer transaction: validate as you go, commit atomically.
//! let mut txn = store.begin_write();
//! let alice = txn.lookup_pk("PERSON", 45).unwrap().expect("alice");
//! let zoe = txn
//!     .insert_vertex("PERSON", &[("name", Value::String("zoe".into())),
//!                                ("age", Value::Int64(30))])
//!     .unwrap();
//! txn.insert_edge("FOLLOWS", alice, zoe, &[("since", Value::Int64(2024))]).unwrap();
//! txn.commit().unwrap();
//!
//! let q = "MATCH (a:PERSON)-[e:FOLLOWS]->(b:PERSON) RETURN count(*)";
//! let old = gfcl::query_on(&GfClEngine::with_snapshot(&before), q).unwrap();
//! let new = gfcl::query_on(&GfClEngine::with_snapshot(&store.snapshot()), q).unwrap();
//! assert_eq!(new.as_count().unwrap(), old.as_count().unwrap() + 1);
//!
//! // Mutations are also reachable as text statements, keyed by primary key
//! // (PERSON's primary key is `age` in the example schema):
//! gfcl::execute_statement(&store, "UPDATE VERTEX PERSON 30 SET (name = 'zo')").unwrap();
//! gfcl::execute_statement(&store, "DELETE EDGE FOLLOWS FROM PERSON 45 TO PERSON 30").unwrap();
//! gfcl::execute_statement(&store, "DELETE VERTEX PERSON 30").unwrap();
//!
//! // Merge folds the delta into a fresh columnar baseline (re-blocked zone
//! // maps, recomputed statistics); results are unchanged.
//! store.merge().unwrap();
//! let merged = gfcl::query_on(&GfClEngine::with_snapshot(&store.snapshot()), q).unwrap();
//! assert_eq!(merged.canonical(), old.canonical());
//! ```
//!
//! On-disk stores ([`GraphStore::create`] / [`GraphStore::open`]) append
//! every commit to a checksummed write-ahead log and replay it on open,
//! truncating torn tails — a `SIGKILL` mid-commit loses at most the
//! in-flight transaction, never committed state. See `ARCHITECTURE.md`,
//! "Mutations, WAL & snapshots".
//!
//! ## Limits & cancellation
//!
//! Every query runs inside its own **fault domain**: a shared
//! [`CancelToken`] checked at morsel boundaries, optional time/memory
//! budgets ([`ExecOptions`] fields), and I/O error containment — a page
//! that fails its checksum after bounded retries fails *that query* with
//! [`Error::Storage`](Error) while queries on healthy pages keep
//! running. User cancellation and exceeded budgets surface as
//! [`Error::Canceled`](Error) carrying the reason, elapsed time, and the
//! memory high-water mark:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{CancelReason, ColumnarGraph, Engine, Error, GfClEngine, RawGraph,
//!            StorageConfig};
//! use gfcl::query::PatternQuery;
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//! let engine = GfClEngine::new(graph);
//! let q = PatternQuery::builder().node("a", "PERSON").returns_count().build();
//!
//! // The cancellation handle is shared with every query the engine runs;
//! // cancel it (e.g. from another thread) and in-flight queries stop at
//! // their next morsel boundary.
//! let handle = engine.cancel_handle().expect("GF-CL supports cancellation");
//! handle.cancel(CancelReason::User);
//! match engine.execute(&q) {
//!     Err(Error::Canceled { reason: CancelReason::User, .. }) => {}
//!     other => panic!("expected a canceled query, got {other:?}"),
//! }
//!
//! // reset() re-arms the engine; the same query then runs normally.
//! handle.reset();
//! assert_eq!(engine.execute(&q).unwrap().as_count(), Some(4));
//! ```
//!
//! See `ARCHITECTURE.md`, "Fault domains & resource governance" for the
//! check points, accounting sites, and the storage retry policy.
//!
//! ## Text queries
//!
//! Queries can also be written as text in a small Cypher-like language and
//! compiled through the [`frontend`]: parse → bind against the graph's
//! catalog → the same [`PatternQuery`] the builder produces, so the
//! optimizer, EXPLAIN, and every engine behave identically on both paths.
//! [`query()`] is the one-call form; [`query_on`] targets any engine:
//!
//! ```
//! use std::sync::Arc;
//! use gfcl::{ColumnarGraph, GfRvEngine, QueryOutput, RawGraph, RowGraph, StorageConfig};
//!
//! let raw = RawGraph::example();
//! let graph = Arc::new(ColumnarGraph::build(&raw, StorageConfig::default()).unwrap());
//!
//! // Example 1 of the paper, as text, on the default list-based engine.
//! let out = gfcl::query(
//!     &graph,
//!     "MATCH (a:PERSON)-[e:WORKAT]->(b:ORG) \
//!      WHERE a.age > 22 AND b.estd < 2015 \
//!      RETURN a.name, b.name",
//! )
//! .unwrap();
//! assert_eq!(out.cardinality(), 2); // alice->UW, bob->UofT
//!
//! // The same text on the row-store Volcano baseline: identical answer.
//! let rowg = Arc::new(RowGraph::build(&raw).unwrap());
//! let rv = gfcl::query_on(
//!     &GfRvEngine::new(rowg),
//!     "MATCH (a:PERSON)-[e:WORKAT]->(b:ORG) \
//!      WHERE a.age > 22 AND b.estd < 2015 \
//!      RETURN a.name, b.name",
//! )
//! .unwrap();
//! assert_eq!(rv.canonical(), out.canonical());
//!
//! // Malformed text fails with a rendered caret diagnostic, not a panic.
//! let err = gfcl::query(&graph, "MATCH (a:PERSN) RETURN a.name").unwrap_err();
//! let msg = err.to_string();
//! assert!(msg.contains("unknown node label `PERSN`"), "{msg}");
//! assert!(msg.contains("did you mean `PERSON`?"), "{msg}");
//! ```
//!
//! The grammar (EBNF and lowering rules) is documented in
//! `crates/frontend/GRAMMAR.md`; `examples/query_repl.rs` is an interactive
//! shell over the same entry points.
//!
//! See `ARCHITECTURE.md` for the paper-section → module map and README.md,
//! "Layout of the paper's experiments", for the bench target behind every
//! table and figure.

/// The three baseline engines of the evaluation (Section 8): GF-CV
/// (columnar + Volcano), GF-RV (row store + Volcano) and the relational
/// hash-join stand-in.
pub use gfcl_baselines::{GfCvEngine, GfRvEngine, RelEngine};
/// Foundation vocabulary shared by every crate: property values and types,
/// IDs, directions, errors, and exact memory accounting.
pub use gfcl_common::{
    human_bytes, DataType, Direction, Error, LabelId, MemoryUsage, Result, Value,
};
/// The query front-end and the paper's engine: [`PatternQuery`] +
/// [`Engine`] (with `execute`/`explain`), the list-based [`GfClEngine`],
/// plans, grouped aggregation ([`Agg`], `group_by`/`order_by`/`limit`),
/// execution options for morsel-driven parallelism, and [`Config`], the
/// one parser of the `GFCL_*` variables.
pub use gfcl_core::{
    Agg, AggFunc, CachedPlan, CancelReason, CancelToken, Config, Engine, ExecOptions, GfClEngine,
    LogicalPlan, OrderSource, PatternQuery, PlanCacheStats, QueryOutput, SortDir,
    PLAN_CACHE_CAPACITY,
};
/// The storage layer: catalogs (with build-time [`storage::Stats`]), the
/// [`RawGraph`] interchange format, and the columnar / row graph builds.
pub use gfcl_storage::{
    Cardinality, Catalog, ColumnarGraph, EdgePropLayout, MemoryBreakdown, PropertyDef, RawGraph,
    RowGraph, StorageConfig,
};
/// The mutable store: WAL-backed delta writes behind epoch-pinned MVCC
/// snapshots, plus the merged read view the engines consume.
pub use gfcl_storage::{DeltaSnapshot, GraphSnapshot, GraphStore, GraphView, WriteTxn};

/// The text query frontend: lexer, parser, binder, and spanned diagnostics.
pub mod frontend {
    pub use gfcl_frontend::*;
}

/// Compile a text query against `graph`'s catalog and run it on the paper's
/// list-based engine ([`GfClEngine`]).
///
/// Frontend failures (lex/parse/bind) surface as [`Error::Plan`](Error)
/// carrying the fully rendered diagnostic — locus, caret snippet, and any
/// "did you mean" hint.
///
/// This builds a fresh engine per call, so its plan cache never hits: to
/// plan a repeated template once, keep one [`GfClEngine`] and call
/// [`query_on`] on it.
pub fn query(graph: &std::sync::Arc<ColumnarGraph>, text: &str) -> Result<QueryOutput> {
    query_on(&GfClEngine::new(std::sync::Arc::clone(graph)), text)
}

/// Compile a text query against `engine`'s catalog and run it on that
/// engine. Works with any [`Engine`] — the four built-ins or an external
/// implementation.
///
/// On an engine that offers a plan cache ([`GfClEngine`] does) the query
/// plans once per *template*: a text whose tokens match one this engine
/// has run before, up to the values of its comparison literals, reruns
/// that template's verified plan with the new values — lexing and
/// execution only. A template is cached only when every such literal sits
/// in an equality, `<>` or primary-key position (a range comparison's
/// plan depends on its value, so it plans per call); `LIMIT`, `IN` lists
/// and string patterns must match textually. Answers and diagnostics are
/// those of the uncached path. [`GfClEngine::plan_cache_stats`] counts
/// hits, misses, unreusable templates and evictions.
///
/// ```
/// use std::sync::Arc;
/// use gfcl::{ColumnarGraph, GfClEngine, RawGraph, StorageConfig};
///
/// let graph = ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap();
/// let engine = GfClEngine::new(Arc::new(graph));
/// for age in [45, 22, 45] {
///     let text = format!("MATCH (a:PERSON) WHERE a.age = {age} RETURN a.name");
///     gfcl::query_on(&engine, &text).unwrap();
/// }
/// let stats = engine.plan_cache_stats();
/// assert_eq!((stats.misses, stats.hits), (1, 2));
/// ```
pub fn query_on(engine: &(impl Engine + ?Sized), text: &str) -> Result<QueryOutput> {
    gfcl_frontend::run_text(engine, text)
}

/// The result of [`execute_statement`]: query output, or the commit receipt
/// of a mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutput {
    Query(QueryOutput),
    /// A committed mutation: the published epoch and how many ops it wrote.
    Mutation {
        epoch: u64,
        ops: usize,
    },
}

impl StatementOutput {
    /// The query output, if this was a read statement.
    pub fn as_query(&self) -> Option<&QueryOutput> {
        match self {
            StatementOutput::Query(q) => Some(q),
            StatementOutput::Mutation { .. } => None,
        }
    }
}

/// Execute one text statement against a mutable [`GraphStore`]: `MATCH`
/// queries run on the paper's list-based engine over a freshly pinned
/// snapshot; `INSERT` / `UPDATE` / `DELETE` statements run in their own
/// write transaction and commit atomically (see the grammar in
/// `crates/frontend/GRAMMAR.md`). Vertices are addressed by primary key.
pub fn execute_statement(store: &GraphStore, text: &str) -> Result<StatementOutput> {
    match gfcl_frontend::parse_statement(text)? {
        frontend::ast::Statement::Query(ast) => {
            let snapshot = store.snapshot();
            let q = gfcl_frontend::bind(&ast, text, snapshot.catalog())?;
            let out = GfClEngine::with_snapshot(&snapshot).execute(&q)?;
            Ok(StatementOutput::Query(out))
        }
        frontend::ast::Statement::Mutation(m) => {
            let mut txn = store.begin_write();
            apply_mutation(&mut txn, &m)?;
            let ops = txn.op_count();
            let epoch = txn.commit()?;
            Ok(StatementOutput::Mutation { epoch, ops })
        }
    }
}

/// Apply one parsed mutation statement to an open [`WriteTxn`], resolving
/// primary keys to offsets through the transaction's own uncommitted view.
/// Exposed so multi-statement batches can share a single atomic commit.
pub fn apply_mutation(txn: &mut WriteTxn<'_>, m: &frontend::ast::MutationStmt) -> Result<()> {
    use frontend::ast::{Lit, LitKind, MutationStmt, PropAssign, VertexRef};

    fn value(l: &Lit) -> Value {
        match &l.kind {
            LitKind::Int(v) => Value::Int64(*v),
            LitKind::Float(v) => Value::Float64(*v),
            LitKind::Str(s) => Value::String(s.clone()),
            LitKind::Bool(b) => Value::Bool(*b),
            LitKind::Date(v) => Value::Date(*v),
        }
    }
    fn props(assigns: &[PropAssign]) -> Vec<(&str, Value)> {
        assigns.iter().map(|a| (a.prop.text.as_str(), value(&a.value))).collect()
    }
    fn resolve(txn: &WriteTxn<'_>, r: &VertexRef) -> Result<u64> {
        txn.lookup_pk(&r.label.text, r.key)?.ok_or_else(|| {
            Error::Plan(format!("no `{}` vertex with primary key {}", r.label.text, r.key))
        })
    }

    match m {
        MutationStmt::InsertVertex { label, props: p } => {
            txn.insert_vertex(&label.text, &props(p))?;
        }
        MutationStmt::InsertEdge { label, src, dst, props: p } => {
            let (s, d) = (resolve(txn, src)?, resolve(txn, dst)?);
            txn.insert_edge(&label.text, s, d, &props(p))?;
        }
        MutationStmt::UpdateVertex { target, sets } => {
            let off = resolve(txn, target)?;
            txn.update_vertex(&target.label.text, off, &props(sets))?;
        }
        MutationStmt::DeleteVertex { target } => {
            let off = resolve(txn, target)?;
            txn.delete_vertex(&target.label.text, off)?;
        }
        MutationStmt::DeleteEdge { label, src, dst } => {
            let (s, d) = (resolve(txn, src)?, resolve(txn, dst)?);
            txn.delete_edge(&label.text, s, d)?;
        }
    }
    Ok(())
}

/// Columnar primitives: leading-0 suppression, dictionary encoding,
/// Jacobson-indexed NULL compression.
pub mod columnar {
    pub use gfcl_columnar::*;
}

/// The query model: pattern builders and expression helpers.
pub mod query {
    pub use gfcl_core::query::*;
}

/// The logical planner.
pub mod plan {
    pub use gfcl_core::plan::*;
}

/// The statistics-driven join orderer and the EXPLAIN renderer.
pub mod optimize {
    pub use gfcl_core::optimize::*;
}

/// Synthetic dataset generators (LDBC-like, IMDb-like, power-law).
pub mod datagen {
    pub use gfcl_datagen::*;
}

/// Benchmark workloads (LDBC IS/IC, JOB, k-hop microbenchmarks).
pub mod workloads {
    pub use gfcl_workloads::*;
}

/// Storage internals (CSRs, property pages, vertex columns, row store).
pub mod storage {
    pub use gfcl_storage::*;
}
