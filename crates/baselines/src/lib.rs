//! Baseline engines for the evaluation (Section 8):
//!
//! * [`GfRvEngine`] — GF-RV: row store (interpreted attribute layout,
//!   8-byte IDs) + Volcano tuple-at-a-time processor; the system the paper
//!   starts from and the architectural analog of Neo4j/Memgraph.
//! * [`GfCvEngine`] — GF-CV: columnar storage + Volcano processor; isolates
//!   the list-based processor's contribution (Section 8.6).
//! * [`RelEngine`] — block-based hash joins over edge tables with no
//!   adjacency index and no pk seek; the MonetDB/Vertica stand-in for the
//!   Section 8.7 system comparison.
//!
//! All engines execute the same [`gfcl_core::plan::LogicalPlan`].

pub mod cv;
pub mod eval;
pub mod relational;
pub mod rv;
pub mod volcano;

pub use cv::GfCvEngine;
pub use relational::RelEngine;
pub use rv::GfRvEngine;

/// Run one query body inside its own fault domain, as every engine does: a
/// failed page read during execution surfaces as this query's storage error
/// — checked before the result is published, so a placeholder page cannot
/// leak into it — instead of a process panic. (GF-RV is fully resident, but
/// runs here too so the chaos suite's "clean result or clean error"
/// contract is uniform.)
fn in_fault_domain<T>(body: impl FnOnce() -> gfcl_common::Result<T>) -> gfcl_common::Result<T> {
    let token = std::sync::Arc::new(gfcl_common::CancelToken::new());
    let _scope = gfcl_common::fault_scope(&token);
    let out = body()?;
    token.check()?;
    Ok(out)
}
