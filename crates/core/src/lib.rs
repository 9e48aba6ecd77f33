//! `gfcl-core` — the paper's primary contribution: the **list-based
//! processor** (LBP, Section 6) and the query front-end shared by every
//! engine in the evaluation.
//!
//! * [`query`] — the logical query model (acyclic MATCH patterns,
//!   conjunctive predicates, COUNT/projection/aggregate returns);
//! * [`plan`] — the left-deep planner resolving queries against a catalog;
//! * [`optimize`] — the statistics-driven join orderer (cost-based start
//!   node and extend order) and the `EXPLAIN` renderer;
//! * [`chunk`] — factorized intermediate results: value vectors, list
//!   groups with flat/unflat state, intermediate chunks;
//! * [`pred`] — compiled vectorized predicates (string predicates run on
//!   dictionary codes);
//! * [`exec`] — the LBP operators (Scan, ListExtend, ColumnExtend,
//!   property readers, Filter), one file each behind a single `pull`,
//!   per-worker pipeline compilation, and the sinks a pipeline drains into
//!   (whole-result, row/top-k, DISTINCT, grouped);
//! * [`agg`] — the aggregate states, whole-result fold and group table
//!   shared with the baseline engines (so results agree byte-for-byte);
//! * [`driver`] — the morsel-driven pipeline driver: [`ExecOptions`],
//!   parallel workers over a shared scan cursor, each draining its
//!   pipeline in one loop, and the merge of their sinks at the barrier;
//! * [`govern`] — per-query fault domains: the [`govern::QueryGovernor`]
//!   enforcing time/memory budgets and cooperative cancellation at morsel
//!   boundaries, over the shared token storage faults report into;
//! * [`engine`] — the [`Engine`] trait and [`GfClEngine`];
//! * [`cache`] — the GF-CL engine's plan cache: verified plan templates
//!   keyed on literal-normalised query text, each with its compiled layout
//!   and a pool of the chunks its calls reuse;
//! * [`verify`] — the structural plan verifier: every plan is checked as a
//!   dataflow typecheck (def-before-use, schema/type flow, unflat-span,
//!   pushdown eligibility, bookkeeping) before any engine compiles it;
//! * [`config`] — [`Config`], the one parser of the `GFCL_*` variables,
//!   called once at a process edge.

pub mod agg;
pub mod cache;
pub mod chunk;
pub mod config;
pub mod driver;
pub mod engine;
pub mod exec;
pub mod govern;
pub mod optimize;
pub mod plan;
pub mod pred;
pub mod query;
pub mod verify;

pub use cache::{CachedPlan, PlanCache, PlanCacheStats, PLAN_CACHE_CAPACITY};
pub use config::Config;
pub use driver::ExecOptions;
pub use engine::{Engine, GfClEngine, QueryOutput};
pub use govern::{CancelReason, CancelToken, QueryGovernor};
pub use optimize::render_explain;
pub use plan::{
    plan as plan_query, plan_template, plan_with as plan_query_with, LogicalPlan, OrderSource,
    PlanOptions, PlanReturn, PlanStep,
};
pub use query::{Agg, AggFunc, PatternQuery, ReturnSpec, SortDir};
pub use verify::{verify_plan, VerifyReport};

// The morsel-driven driver shares these between scoped worker threads by
// reference; keep them `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LogicalPlan>();
    assert_send_sync::<PatternQuery>();
    assert_send_sync::<QueryOutput>();
    assert_send_sync::<ExecOptions>();
    assert_send_sync::<exec::ScanCursor<'static>>();
    assert_send_sync::<QueryGovernor>();
    assert_send_sync::<CancelToken>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<CachedPlan>();
};
