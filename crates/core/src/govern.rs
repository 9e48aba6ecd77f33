//! Per-query resource governance: time and memory budgets folded into the
//! same [`CancelToken`] that user cancellation and storage faults trip.
//!
//! Every query executed through [`crate::driver`] owns one
//! [`QueryGovernor`]. The governor is checked at *morsel boundaries* — in
//! [`ScanCursor::claim`](crate::exec::ScanCursor) and once per pipeline
//! state inside the driver loop — so a tripped token stops the query
//! within one morsel of the trip point, without any per-tuple overhead on
//! the hot path.
//!
//! The token itself lives in [`gfcl_common::govern`] (re-exported here) so
//! the storage layer, which sits below this crate, can report I/O faults
//! into whichever query's fault scope is installed on the calling thread.
//!
//! Memory accounting is cooperative and approximate-but-conservative:
//! every allocating sink (group tables, top-k heaps, distinct sets,
//! result rows) reports its heap growth through [`MemTracker`], the
//! governor folds per-worker charges into one atomic counter, and
//! exceeding the budget trips [`CancelReason::Memory`] — the query dies
//! cleanly instead of taking the process down with an OOM.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gfcl_common::{Error, Result, Value};

pub use gfcl_common::govern::{fault_scope, CancelReason, CancelToken, FaultScope};

use crate::driver::ExecOptions;

/// The per-query governance state shared by all workers of one execution:
/// the cancel token, the budget, the clock, and the memory counter.
#[derive(Debug)]
pub struct QueryGovernor {
    token: Arc<CancelToken>,
    time_limit: Option<Duration>,
    mem_limit_bytes: Option<u64>,
    start: Instant,
    mem: AtomicU64,
    peak: AtomicU64,
}

impl QueryGovernor {
    /// A governor for one query under the budgets of `opts`
    /// ([`ExecOptions::time_limit_ms`] and [`ExecOptions::mem_limit_bytes`];
    /// `None` is unlimited, so governance is pay-for-what-you-use).
    pub fn new(token: Arc<CancelToken>, opts: &ExecOptions) -> QueryGovernor {
        QueryGovernor {
            token,
            time_limit: opts.time_limit_ms.map(Duration::from_millis),
            mem_limit_bytes: opts.mem_limit_bytes,
            start: Instant::now(),
            mem: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// The token workers install as their fault scope and engines hand
    /// out as the cancellation handle.
    pub fn token(&self) -> &Arc<CancelToken> {
        &self.token
    }

    /// Tracked operator memory right now, summed across workers.
    pub fn mem_bytes(&self) -> u64 {
        self.mem.load(Ordering::Relaxed)
    }

    /// High-water mark of [`QueryGovernor::mem_bytes`].
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Milliseconds since the query started.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The morsel-boundary check: observe an already-tripped token (user
    /// cancel, memory, storage fault reported from below) or trip the
    /// time budget ourselves. `Ok(())` means keep going.
    pub fn checkpoint(&self) -> Result<()> {
        if let Some(reason) = self.token.reason() {
            return Err(self.canceled(reason));
        }
        if let Some(limit) = self.time_limit {
            if self.start.elapsed() > limit {
                self.token.cancel(CancelReason::Timeout);
                return Err(self.canceled(CancelReason::Timeout));
            }
        }
        Ok(())
    }

    /// Charge `bytes` of operator heap growth; trips the memory budget
    /// (and the token) when the new total exceeds it. The caller keeps
    /// running until its next checkpoint — accounting never fails, only
    /// the query does.
    pub fn grow(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let now = self.mem.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        if let Some(limit) = self.mem_limit_bytes {
            if now > limit {
                self.token.cancel(CancelReason::Memory);
            }
        }
    }

    /// Release `bytes` previously charged with [`QueryGovernor::grow`].
    pub fn shrink(&self, bytes: u64) {
        if bytes > 0 {
            self.mem.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Build the error for a tripped token, stamped with this query's
    /// elapsed time and memory high-water mark. I/O trips keep their
    /// [`Error::Storage`] identity (the failure is the storage layer's,
    /// not the budget's); everything else is [`Error::Canceled`].
    pub fn canceled(&self, reason: CancelReason) -> Error {
        match reason {
            CancelReason::Io => Error::Storage(
                self.token
                    .io_detail()
                    .unwrap_or_else(|| "storage read failed during execution".into()),
            ),
            reason => Error::Canceled {
                reason,
                elapsed_ms: self.elapsed_ms(),
                peak_bytes: self.peak_bytes(),
            },
        }
    }
}

/// RAII memory charge held by one worker against one sink: call
/// [`MemTracker::update`] with the sink's current byte estimate after
/// each absorb; the delta is charged (or released) on the governor, and
/// the whole charge is released when the worker's pipeline is dropped —
/// merged partials are accounted by the merging thread.
#[derive(Debug)]
pub struct MemTracker<'g> {
    gov: &'g QueryGovernor,
    charged: u64,
}

impl<'g> MemTracker<'g> {
    pub fn new(gov: &'g QueryGovernor) -> MemTracker<'g> {
        MemTracker { gov, charged: 0 }
    }

    /// Reconcile the charge with the sink's current size.
    pub fn update(&mut self, now_bytes: u64) {
        if now_bytes > self.charged {
            self.gov.grow(now_bytes - self.charged);
        } else {
            self.gov.shrink(self.charged - now_bytes);
        }
        self.charged = now_bytes;
    }
}

impl Drop for MemTracker<'_> {
    fn drop(&mut self) {
        self.gov.shrink(self.charged);
    }
}

/// Heap bytes attributable to one [`Value`]: the inline enum plus any
/// owned string buffer. An estimate for budgeting, not an allocator
/// measurement — consistent across engines is what matters.
pub fn value_bytes(v: &Value) -> u64 {
    let heap = match v {
        Value::String(s) => s.capacity() as u64,
        _ => 0,
    };
    std::mem::size_of::<Value>() as u64 + heap
}

/// Heap bytes of one output row (its `Vec` buffer plus string payloads).
pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter().map(value_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_budget_trips_at_checkpoint() {
        let gov = QueryGovernor::new(
            Arc::new(CancelToken::new()),
            &ExecOptions::serial().time_limit_ms(0),
        );
        std::thread::sleep(Duration::from_millis(2));
        match gov.checkpoint() {
            Err(Error::Canceled { reason: CancelReason::Timeout, .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(gov.token().reason(), Some(CancelReason::Timeout));
    }

    #[test]
    fn memory_budget_trips_within_one_checkpoint() {
        let gov = QueryGovernor::new(
            Arc::new(CancelToken::new()),
            &ExecOptions::serial().mem_limit_bytes(100),
        );
        gov.grow(60);
        assert!(gov.checkpoint().is_ok(), "under budget");
        gov.grow(60);
        match gov.checkpoint() {
            Err(Error::Canceled { reason: CancelReason::Memory, peak_bytes, .. }) => {
                assert_eq!(peak_bytes, 120);
            }
            other => panic!("expected memory cancel, got {other:?}"),
        }
    }

    #[test]
    fn shrink_releases_and_peak_is_sticky() {
        let gov = QueryGovernor::new(Arc::new(CancelToken::new()), &ExecOptions::serial());
        gov.grow(500);
        gov.shrink(400);
        assert_eq!(gov.mem_bytes(), 100);
        assert_eq!(gov.peak_bytes(), 500);
    }

    #[test]
    fn tracker_reconciles_and_releases_on_drop() {
        let gov = QueryGovernor::new(Arc::new(CancelToken::new()), &ExecOptions::serial());
        {
            let mut t = MemTracker::new(&gov);
            t.update(300);
            assert_eq!(gov.mem_bytes(), 300);
            t.update(120); // sink shrank (e.g. top-k pruned)
            assert_eq!(gov.mem_bytes(), 120);
        }
        assert_eq!(gov.mem_bytes(), 0, "drop releases the worker's charge");
        assert_eq!(gov.peak_bytes(), 300);
    }

    #[test]
    fn io_trips_surface_as_storage_errors() {
        let gov = QueryGovernor::new(Arc::new(CancelToken::new()), &ExecOptions::serial());
        gov.token().cancel_io("page 7 unreadable");
        match gov.checkpoint() {
            Err(Error::Storage(detail)) => assert!(detail.contains("page 7")),
            other => panic!("expected storage error, got {other:?}"),
        }
    }

    #[test]
    fn value_accounting_counts_string_heap() {
        let s = Value::String("x".repeat(64));
        assert!(value_bytes(&s) >= 64 + std::mem::size_of::<Value>() as u64);
        assert_eq!(value_bytes(&Value::Int64(1)), std::mem::size_of::<Value>() as u64);
    }
}
