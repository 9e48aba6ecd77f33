//! The pipeline driver: morsel-driven (optionally parallel) execution of a
//! compiled [`LogicalPlan`], each worker draining its pipeline into the
//! factorized sinks of Section 6.2.
//!
//! The paper evaluates the list-based processor single-threaded; this
//! module adds intra-query parallelism in the style of morsel-driven
//! scheduling (Leis et al., SIGMOD 2014), which composes naturally with
//! the LBP because scans already produce independent
//! [`SCAN_MORSEL`]-sized vertex ranges:
//!
//! * a shared [`ScanCursor`] hands out disjoint `[next, next + 1024)`
//!   vertex ranges with one `fetch_add` per morsel;
//! * each worker owns a **private pipeline** — operators, intermediate
//!   [`crate::chunk::Chunk`], and compiled predicates — bound from the
//!   plan's shared layout (`crate::exec::Layout`), so no intermediate state
//!   is ever shared. A plan-cache entry ([`CachedPlan`]) keeps its layout,
//!   and lends each worker a chunk its earlier calls left behind;
//! * each worker drains its pipeline into a private sink (`exec::Sink`: a
//!   whole-result aggregate, projection rows, a DISTINCT set or a group
//!   table) in one loop;
//! * the sinks merge at the scope barrier, in worker-index order, into
//!   the final [`QueryOutput`].
//!
//! Workers run under [`std::thread::scope`], so the graph and plan are
//! borrowed, not `Arc`-ed, and a worker's `Result` propagates at the
//! barrier. With `threads = 1` no thread is spawned and the single
//! pipeline observes exactly the serial morsel sequence, keeping output
//! bit-identical to the historical serial executor.
//!
//! Integer `SUM` accumulates in `i128` and **saturates** to the `i64`
//! domain on overflow instead of silently truncating.

use std::sync::Arc;

use gfcl_common::{Result, Value};
use gfcl_storage::GraphView;

use crate::cache::CachedPlan;
use crate::chunk::Chunk;
use crate::engine::QueryOutput;
use crate::exec::{Layout, Pipeline, ScanCursor, Sink, SCAN_MORSEL};
use crate::govern::{fault_scope, CancelToken, MemTracker, QueryGovernor};
use crate::plan::LogicalPlan;

/// Execution options for the list-based processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of worker pipelines. `1` (the default) runs the historical
    /// serial path on the calling thread; `n > 1` spawns `n` scoped
    /// workers that partition the scan morsel-by-morsel. Must be positive:
    /// a caller-built `0` fails every query with an
    /// [`Error::Plan`](gfcl_common::Error::Plan) naming the field.
    pub threads: usize,
    /// Scan morsel size: how many vertices each pipeline claims per pull.
    /// [`SCAN_MORSEL`] (1024) by default — equal to the zone-map block, so
    /// one pruned block skips exactly one morsel; tune the two geometries
    /// together. Must be positive, like `threads`.
    pub morsel_size: usize,
    /// Wall-clock budget in milliseconds; `None` is unlimited. Checked at
    /// morsel boundaries, so an over-budget query fails with
    /// [`Error::Canceled`](gfcl_common::Error::Canceled) within one
    /// morsel of the limit. `Some(0)` is rejected like a zero `threads`.
    pub time_limit_ms: Option<u64>,
    /// Tracked-operator-memory budget in bytes; `None` is unlimited.
    /// Covers the allocating sinks — group tables, top-k buffers, distinct
    /// sets, result rows — summed across workers. `Some(0)` is rejected
    /// like a zero `threads`.
    pub mem_limit_bytes: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            morsel_size: SCAN_MORSEL,
            time_limit_ms: None,
            mem_limit_bytes: None,
        }
    }
}

impl ExecOptions {
    /// Serial execution (one pipeline on the calling thread).
    pub fn serial() -> ExecOptions {
        ExecOptions::default()
    }

    /// Parallel execution with `threads` workers. A `0` is kept, and
    /// fails every query like a struct-literal zero.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// This configuration with a custom scan morsel size.
    pub fn morsel(self, morsel_size: usize) -> ExecOptions {
        ExecOptions { morsel_size, ..self }
    }

    /// This configuration with a wall-clock budget.
    pub fn time_limit_ms(self, ms: u64) -> ExecOptions {
        ExecOptions { time_limit_ms: Some(ms), ..self }
    }

    /// This configuration with a tracked-memory budget.
    pub fn mem_limit_bytes(self, bytes: u64) -> ExecOptions {
        ExecOptions { mem_limit_bytes: Some(bytes), ..self }
    }

    /// Reject the zero values a caller can build but no query can run
    /// under, naming the field.
    fn validate(&self) -> Result<()> {
        let zero = match self {
            ExecOptions { threads: 0, .. } => "threads",
            ExecOptions { morsel_size: 0, .. } => "morsel_size",
            ExecOptions { time_limit_ms: Some(0), .. } => "time_limit_ms",
            ExecOptions { mem_limit_bytes: Some(0), .. } => "mem_limit_bytes",
            _ => return Ok(()),
        };
        Err(gfcl_common::Error::Plan(format!("ExecOptions::{zero} must be positive, got 0")))
    }
}

/// Execute a logical plan against a snapshot view — the baseline overlaid
/// with the snapshot's delta (if any; [`GraphView::clean`] is exactly the
/// immutable-graph path) — with `opts.threads` morsel-driven workers.
///
/// The query runs inside its own fault domain: the optional
/// externally-owned `token` (an engine's cancellation handle), `opts`'
/// budgets, and any storage fault reported by a page read on a worker
/// thread all trip the same per-query governor, which every worker
/// observes at its next morsel boundary.
///
/// `params` are the values of the plan's parameters (empty for a plan whose
/// literals are inlined); each worker resolves them as it binds.
pub fn execute(
    view: GraphView<'_>,
    plan: &LogicalPlan,
    params: &[Value],
    opts: &ExecOptions,
    token: Option<Arc<CancelToken>>,
) -> Result<QueryOutput> {
    run(view, plan, None, params, opts, token)
}

/// [`execute`] of a plan-cache entry: its stored layout instead of one
/// built for the call, and chunks taken from its pool, handed back only
/// when the call succeeds.
pub(crate) fn execute_cached(
    view: GraphView<'_>,
    entry: &CachedPlan,
    params: &[Value],
    opts: &ExecOptions,
    token: Option<Arc<CancelToken>>,
) -> Result<QueryOutput> {
    run(view, entry.plan(), Some(entry), params, opts, token)
}

fn run(
    view: GraphView<'_>,
    plan: &LogicalPlan,
    cached: Option<&CachedPlan>,
    params: &[Value],
    opts: &ExecOptions,
    token: Option<Arc<CancelToken>>,
) -> Result<QueryOutput> {
    opts.validate()?;
    let token = token.unwrap_or_default();
    // A handle canceled before the query even started still applies —
    // but a stale trip from a *previous* query on a reused engine token
    // is the engine's to clear (`CancelToken::reset` on its
    // `Engine::cancel_handle`), not ours to ignore.
    token.check()?;
    let gov = QueryGovernor::new(token, opts);
    let cursor = ScanCursor::for_plan_view(view, plan, opts.morsel_size as u64)?.governed(&gov);
    // Never spawn more workers than there are morsels to hand out.
    let max_useful = (cursor.total() as usize).div_ceil(opts.morsel_size).max(1);
    let threads = opts.threads.min(max_useful);
    // A cache entry lends its layout and its pooled chunks. Otherwise the
    // call lays the plan out itself, and the chunk that comes with the
    // fresh layout goes to the last worker: only the others get a clone.
    let fresh;
    let (layout, mut own) = match cached {
        Some(entry) => (&entry.layout, Chunk::default()),
        None => {
            let (l, chunk) = Layout::new(plan)?;
            fresh = l;
            (&fresh, chunk)
        }
    };
    let pool = cached.map(|entry| &entry.chunks);
    let mut chunk_for = |worker: usize| match pool {
        Some(pool) => pool.take(),
        None if worker + 1 == threads => std::mem::take(&mut own),
        None => own.clone(),
    };

    if threads == 1 {
        let _scope = fault_scope(gov.token());
        let mut pipeline = layout.bind(view, plan, &cursor, params, chunk_for(0))?;
        let out = drive(view, plan, &mut pipeline, &gov)?.finish(plan);
        if let Some(pool) = pool {
            pool.put(pipeline.into_chunk());
        }
        return Ok(out);
    }

    let done: Vec<Result<(Sink, Chunk)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (cursor, gov, chunk) = (&cursor, &gov, chunk_for(worker));
                scope.spawn(move || {
                    // Per-worker fault domain: a page-read failure on this
                    // thread trips the shared token, and every sibling
                    // stops at its next morsel boundary.
                    let _scope = fault_scope(gov.token());
                    let mut pipeline = layout.bind(view, plan, cursor, params, chunk)?;
                    let sink = drive(view, plan, &mut pipeline, gov)?;
                    Ok((sink, pipeline.into_chunk()))
                })
            })
            .collect();
        // lint: allow(join() only errs if the worker itself panicked, and
        // re-raising that panic on the driver thread is the intended
        // propagation — recoverable failures arrive as the inner Result)
        handles.into_iter().map(|h| h.join().expect("LBP worker panicked")).collect()
    });
    let (sinks, chunks): (Vec<Sink>, Vec<Chunk>) =
        done.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
    let sink = sinks.into_iter().reduce(Sink::merge);
    let out = sink.ok_or_else(|| gfcl_common::Error::Exec("no worker ran".into()))?.finish(plan);
    // Every worker succeeded: their chunks serve the template's next calls.
    if let Some(pool) = pool {
        chunks.into_iter().for_each(|c| pool.put(c));
    }
    Ok(out)
}

/// Drain one pipeline into its sink: the one loop every plan shape runs.
///
/// Fault-domain contract: the governor is checked after every pipeline
/// state (and inside the scan's claim loop, which covers morsels the
/// zone maps prune without producing a state), and once more after the
/// loop drains — a sink is never published from a tripped query, so a
/// zeroed placeholder page served to an I/O-faulted worker can never
/// leak into results.
fn drive<'p, 'g>(
    view: GraphView<'_>,
    plan: &'p LogicalPlan,
    pipe: &mut Pipeline<'g>,
    gov: &QueryGovernor,
) -> Result<Sink<'p, 'g>> {
    let mut sink = Sink::new(plan, pipe)?;
    let mut mem = MemTracker::new(gov);
    while pipe.next_state(view)? {
        sink.absorb(pipe);
        mem.update(sink.bytes());
        gov.checkpoint()?;
    }
    gov.checkpoint()?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{clamp_i128, improves};

    #[test]
    fn exec_options_defaults() {
        assert_eq!(ExecOptions::default().threads, 1);
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(8).threads, 8);
    }

    #[test]
    fn i128_clamp_saturates() {
        assert_eq!(clamp_i128(i64::MAX as i128 + 1), i64::MAX);
        assert_eq!(clamp_i128(i64::MIN as i128 - 1), i64::MIN);
        assert_eq!(clamp_i128(-7), -7);
    }

    #[test]
    fn improves_follows_min_max_semantics() {
        let (a, b) = (Value::Int64(3), Value::Int64(5));
        assert!(improves(&Value::Null, &a, true));
        assert!(improves(&Value::Null, &a, false));
        assert!(!improves(&a, &Value::Null, true));
        assert!(improves(&b, &a, true), "3 beats 5 for MIN");
        assert!(improves(&a, &b, false), "5 beats 3 for MAX");
        assert!(!improves(&a, &b, true));
    }
}
