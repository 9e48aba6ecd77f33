//! Cancellation primitives shared by every layer of the query fault
//! domain.
//!
//! A query's fault domain is one [`CancelToken`]: a shared atomic flag the
//! executor checks at morsel boundaries and the storage layer trips when a
//! post-open page read fails for good. The token lives here — below both
//! the columnar and core crates — because the *reporting* side (the paged
//! array's page-pin fallback) and the *checking* side (the pipeline
//! driver) sit on opposite ends of the dependency graph.
//!
//! The storage layer finds the owning query's token through a thread-local
//! stack installed by [`fault_scope`]: the driver pushes the token on every
//! worker thread for the duration of the query, so a failed page pin deep
//! inside a column read can cancel exactly the query that touched it —
//! other queries on healthy pages never observe the fault.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};

/// Why a query's fault domain was tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Explicit cancellation through [`CancelToken::cancel`] (a user or
    /// admission controller killed the query).
    User,
    /// The query exceeded its time limit (`ExecOptions::time_limit_ms`).
    Timeout,
    /// The query's tracked allocations exceeded its memory limit.
    Memory,
    /// A post-open storage read failed after retries; the detail message
    /// lives on the token and surfaces as [`Error::Storage`].
    Io,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::User => write!(f, "user request"),
            CancelReason::Timeout => write!(f, "time limit"),
            CancelReason::Memory => write!(f, "memory limit"),
            CancelReason::Io => write!(f, "I/O error"),
        }
    }
}

const LIVE: u8 = 0;

fn reason_code(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::User => 1,
        CancelReason::Timeout => 2,
        CancelReason::Memory => 3,
        CancelReason::Io => 4,
    }
}

fn code_reason(code: u8) -> Option<CancelReason> {
    match code {
        1 => Some(CancelReason::User),
        2 => Some(CancelReason::Timeout),
        3 => Some(CancelReason::Memory),
        4 => Some(CancelReason::Io),
        _ => None,
    }
}

/// A shared, atomic cancellation flag: the heart of one query fault
/// domain.
///
/// The first `cancel` wins; later cancellations (and later I/O details)
/// are ignored, so the error a query reports names the *original* trip
/// cause even when the cancellation races follow-on failures. Checking is
/// one relaxed atomic load — cheap enough for per-morsel polling.
#[derive(Debug, Default)]
pub struct CancelToken {
    state: AtomicU8,
    /// Detail message for [`CancelReason::Io`], set (once) before the
    /// state flips so a reader that observes `Io` always finds it.
    detail: Mutex<Option<String>>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token. The first reason sticks; this call is a no-op on an
    /// already-tripped token.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.state.compare_exchange(
            LIVE,
            reason_code(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Trip the token with [`CancelReason::Io`] and a human-readable
    /// detail (the storage error message).
    pub fn cancel_io(&self, detail: impl Into<String>) {
        {
            // lint: allow(a poisoned detail lock means a panic mid-cancel;
            // losing the message beats unwinding the storage layer)
            let mut slot = match self.detail.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if slot.is_none() {
                *slot = Some(detail.into());
            }
        }
        self.cancel(CancelReason::Io);
    }

    /// The trip reason, or `None` while the domain is healthy.
    pub fn reason(&self) -> Option<CancelReason> {
        code_reason(self.state.load(Ordering::Acquire))
    }

    pub fn is_canceled(&self) -> bool {
        self.reason().is_some()
    }

    /// The I/O detail message, when the token tripped on `Io`.
    pub fn io_detail(&self) -> Option<String> {
        let slot = match self.detail.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slot.clone()
    }

    /// Re-arm a tripped token so the owning engine can run further
    /// queries. Only the token's owner should call this — a query in
    /// flight would lose its pending cancellation.
    pub fn reset(&self) {
        self.state.store(LIVE, Ordering::Release);
        let mut slot = match self.detail.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *slot = None;
    }

    /// Convert the trip state into the error the owning query reports:
    /// `Ok(())` while healthy, [`Error::Storage`] for I/O trips, and
    /// [`Error::Canceled`] otherwise. Callers with timing/memory context
    /// (the query governor) build richer `Canceled` errors themselves.
    pub fn check(&self) -> Result<()> {
        match self.reason() {
            None => Ok(()),
            Some(CancelReason::Io) => Err(Error::Storage(
                self.io_detail().unwrap_or_else(|| "storage read failed".into()),
            )),
            Some(reason) => Err(Error::Canceled { reason, elapsed_ms: 0, peak_bytes: 0 }),
        }
    }
}

thread_local! {
    /// Stack of fault domains active on this thread (a stack, not a slot,
    /// so nested scopes — e.g. a merge running inside a governed task —
    /// restore the outer domain on drop).
    static ACTIVE: RefCell<Vec<Arc<CancelToken>>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`fault_scope`]; uninstalls the token on drop.
#[must_use = "the fault domain is uninstalled when this guard drops"]
pub struct FaultScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        ACTIVE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `token` as the current thread's fault domain for the lifetime
/// of the returned guard. Storage faults reported through
/// [`report_io_fault`] while the guard lives cancel this token.
pub fn fault_scope(token: &Arc<CancelToken>) -> FaultScope {
    ACTIVE.with(|s| s.borrow_mut().push(Arc::clone(token)));
    FaultScope { _not_send: std::marker::PhantomData }
}

/// Report a post-open storage fault to the innermost fault domain on this
/// thread. Returns `true` when a domain was installed (the owning query
/// will observe the cancellation at its next checkpoint); `false` when no
/// domain is active — the caller must then fail loudly rather than let
/// placeholder data masquerade as a result.
pub fn report_io_fault(detail: &str) -> bool {
    ACTIVE.with(|s| match s.borrow().last() {
        Some(token) => {
            token.cancel_io(detail);
            true
        }
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Timeout);
        t.cancel(CancelReason::User);
        assert_eq!(t.reason(), Some(CancelReason::Timeout));
        t.reset();
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn io_detail_reaches_check() {
        let t = CancelToken::new();
        t.cancel_io("page 7 read failed");
        t.cancel_io("a later fault");
        assert_eq!(t.reason(), Some(CancelReason::Io));
        let err = t.check().unwrap_err();
        assert_eq!(err, Error::Storage("page 7 read failed".into()));
    }

    #[test]
    fn check_maps_reasons_to_canceled() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.cancel(CancelReason::Memory);
        match t.check().unwrap_err() {
            Error::Canceled { reason, .. } => assert_eq!(reason, CancelReason::Memory),
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn fault_scope_installs_and_nests() {
        assert!(!report_io_fault("no domain"), "no scope installed");
        let outer = Arc::new(CancelToken::new());
        let inner = Arc::new(CancelToken::new());
        {
            let _a = fault_scope(&outer);
            {
                let _b = fault_scope(&inner);
                assert!(report_io_fault("inner fault"));
            }
            assert!(inner.is_canceled());
            assert!(!outer.is_canceled(), "inner domain absorbed the fault");
            assert!(report_io_fault("outer fault"));
        }
        assert!(outer.is_canceled());
        assert!(!report_io_fault("dropped"), "scopes uninstalled");
    }

    #[test]
    fn scope_pops_even_after_panic() {
        let token = Arc::new(CancelToken::new());
        let r = std::panic::catch_unwind(|| {
            let _s = fault_scope(&token);
            panic!("boom");
        });
        assert!(r.is_err());
        assert!(!report_io_fault("after unwind"), "guard popped during unwind");
    }
}
